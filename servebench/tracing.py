"""Span tracing from outside the program, and per-request attribution.

The traced run patches the public entry points of each serving layer
for the duration of one timed phase and restores them afterwards; the
program's own code is not modified.  Each span records ``(id, request
id, layer, name, start, end, parent id)``; spans are kept in memory and
written out when the run ends.

Request ids cross threads three ways: over HTTP as a ``?rid=`` query
string (the server routes on the path before it), over JSON-RPC as the
request ``id``, and into a ``MicroBatcher`` worker by the canonical
``cache_key`` of each submitted request — every request waiting on a
batch shares that batch's plan spans.

A layer's self time is its span's duration minus the part of it that
its child spans cover.  The client's whole request is the root span;
the share of it that no layer span covers is reported as unattributed.

Requests are traced at most once per :data:`SAMPLE_INTERVAL_S`, which
traces every request of a slow workload and bounds the spans a fast
one keeps in memory; untraced requests pass every patch untouched.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
import types
from collections import defaultdict
from urllib.parse import parse_qs, urlsplit

#: Span tuple field positions.
SID, RID, LAYER, NAME, T0, T1, PARENT = range(7)

#: Least time between the starts of two traced requests.
SAMPLE_INTERVAL_S = 0.002


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        #: batch id -> (dispatch start, [(rid, batching span id, submit)])
        self.batches: dict[int, tuple[float, list]] = {}
        self.encoded_bytes = 0
        #: Queries (``/batch`` slots count one each) in traced requests.
        self.traced_queries = 0
        self._sampled: set[object] = set()
        self._last_sample = float("-inf")
        self._transport_open: dict[object, int] = {}
        self._pending: dict[tuple, list] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._batcher_threads: set[str] = set()

    # -- recording ----------------------------------------------------------

    def _ctx(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []     # [(span id, rid)]
            local.batch = None   # batch id while a batcher dispatches
            local.last = None    # (parent, rid) of the last rpc call
        return local

    def sample(self, rid: object, queries: int) -> bool:
        """Whether to trace request ``rid`` (called as it starts)."""
        now = time.perf_counter()
        with self._lock:
            if now - self._last_sample < SAMPLE_INTERVAL_S:
                return False
            self._last_sample = now
            self._sampled.add(rid)
            self.traced_queries += queries
        return True

    def run(self, layer: str, name: str, fn, *args, rid=None, parent=None,
            register: bool = False, **kwargs):
        """Call ``fn`` inside a span; ``rid``/``parent`` default to the
        innermost open span of this thread (or its batch).  Outside any
        traced request, just call ``fn``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        local = self._ctx()
        if rid is None:
            if local.stack:
                parent, rid = local.stack[-1]
            elif local.batch is not None:
                rid = ("batch", local.batch)
            else:
                return fn(*args, **kwargs)
        sid = next(self._ids)
        if register:
            self._transport_open[rid] = sid
        local.stack.append((sid, rid))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            local.stack.pop()
            self.spans.append((sid, rid, layer, name, t0, t1, parent))

    # -- patching -----------------------------------------------------------

    def _patch(self, obj: object, attr: str, wrapper) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def _wrap(self, obj: object, attr: str, layer: str, name: str) -> None:
        original = getattr(obj, attr)

        def wrapper(*args, **kwargs):
            return self.run(layer, name, original, *args, **kwargs)

        self._patch(obj, attr, wrapper)

    def install(self, engine, handler_cls=None, client=None) -> None:
        """Patch every layer boundary of ``engine`` (and the HTTP handler
        class and client, when tracing the HTTP path)."""
        import repro.catalog.events as events
        import repro.serve.plan as plan
        import repro.serve.rpc as rpc
        import repro.serve.server as server
        import repro.tiles as tiles

        self._wrap(engine, "handle", "engine", "handle")
        self._wrap(server, "parse_request", "schemas", "parse")
        self._wrap(engine.cache, "get", "cache", "get")
        self._wrap(engine.cache, "put", "cache", "put")
        for batcher in engine.batchers.values():
            self._patch(batcher, "submit", self._submit_wrapper(batcher))
        # MicroBatcher workers run on threads named after their batcher.
        self._batcher_threads = {f"repro-serve-{name}"
                                 for name in engine.batchers}
        self._patch(server, "build_plan",
                    self._build_plan_wrapper(server.build_plan))
        self._patch(server, "execute_plan",
                    self._execute_plan_wrapper(server.execute_plan))
        self._wrap(plan, "ctp_homogeneous_batch", "ctp", "batch")
        self._wrap(plan, "run_annual_review", "review", "run")
        self._wrap(tiles, "policy_cells", "tiles", "policy_cells")
        self._wrap(tiles, "scenario_cells", "tiles", "scenario_cells")
        self._wrap(events, "apply_event", "catalog", "apply")
        for module in (server, rpc):
            self._patch(module, "json", types.SimpleNamespace(
                dumps=self._encode_wrapper(json.dumps), loads=json.loads))
        self._patch(rpc, "rpc_response",
                    self._rpc_wrapper(rpc.rpc_response))
        if handler_cls is not None:
            self._patch(handler_cls, "do_POST",
                        self._do_post_wrapper(handler_cls.do_POST))
        if client is not None:
            original = client.request

            def request(*args, **kwargs):
                return self.run("transport", "client", original, *args,
                                register=True, **kwargs)

            self._patch(client, "request", request)

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def _submit_wrapper(self, batcher):
        original = batcher.submit

        def submit(request, deadline_s=None):
            local = self._ctx()
            if not self.enabled or not local.stack:
                return original(request, deadline_s=deadline_s)
            parent, rid = local.stack[-1]
            sid = next(self._ids)
            t0 = time.perf_counter()
            entry = (rid, sid, t0)
            with self._lock:
                self._pending.setdefault(request.cache_key, []).append(entry)
            future = original(request, deadline_s=deadline_s)
            result = future.result

            def traced_result(timeout=None):
                # The wait ends when the handler thread gets its answer.
                try:
                    return result(timeout)
                finally:
                    self.spans.append((sid, rid, "batching", "wait", t0,
                                       time.perf_counter(), parent))

            future.result = traced_result
            return future

        return submit

    def _build_plan_wrapper(self, original):
        def build_plan(requests):
            local = self._ctx()
            if (self.enabled and threading.current_thread().name
                    in self._batcher_threads):
                # A MicroBatcher worker dispatching: the requests waiting
                # on these keys share this batch's plan spans.
                start = time.perf_counter()
                with self._lock:
                    members = [entry for request in requests
                               for entry in self._pending.pop(
                                   request.cache_key, ())]
                if members:
                    local.batch = next(self._ids)
                    self.batches[local.batch] = (start, members)
            return self.run("plan", "build", original, requests)

        return build_plan

    def _execute_plan_wrapper(self, original):
        def execute_plan(plan, *args, **kwargs):
            local = self._ctx()
            try:
                return self.run("plan", "exec", original, plan, *args,
                                **kwargs)
            finally:
                if not local.stack:
                    local.batch = None

        return execute_plan

    def _encode_wrapper(self, original):
        def dumps(obj, *args, **kwargs):
            if not self.enabled:
                return original(obj, *args, **kwargs)
            local = self._ctx()
            rid = parent = None
            if not local.stack:
                if local.last is None:
                    return original(obj, *args, **kwargs)
                # The JSON-RPC bridge encodes after rpc_response returned.
                (parent, rid), local.last = local.last, None
            out = self.run("encode", "dumps", original, obj, *args,
                           rid=rid, parent=parent, **kwargs)
            self.encoded_bytes += len(out)
            return out

        return dumps

    def _rpc_wrapper(self, original):
        def rpc_response(engine, request):
            if not self.enabled:
                return original(engine, request)
            rid = request.get("id") if isinstance(request, dict) else None
            if rid not in self._sampled:
                return original(engine, request)
            parent = self._transport_open.get(rid)
            self._ctx().last = (parent, rid)
            return self.run("rpc", "response", original, engine, request,
                            rid=rid, parent=parent)

        return rpc_response

    def _do_post_wrapper(self, original):
        def do_POST(handler):  # noqa: N802 — http.server API
            if not self.enabled:
                return original(handler)
            query = parse_qs(urlsplit(handler.path).query)
            if "rid" not in query:
                return original(handler)
            rid = int(query["rid"][0])
            return self.run("transport", "server", original, handler,
                            rid=rid, parent=self._transport_open.get(rid))

        return do_POST

    # -- analysis -----------------------------------------------------------

    def per_request(self) -> dict:
        """Span analysis per request id.

        Returns ``{"self": {rid: {layer: seconds}}, "root": {rid:
        seconds}, "unattributed": {rid: seconds}, "queue_wait":
        [seconds], "durations": {(layer, name): [seconds]}}``.
        """
        by_rid: dict[object, list[tuple]] = defaultdict(list)
        batch_spans: dict[int, list[tuple]] = defaultdict(list)
        durations: dict[tuple[str, str], list[float]] = defaultdict(list)
        for span in self.spans:
            durations[(span[LAYER], span[NAME])].append(span[T1] - span[T0])
            rid = span[RID]
            if isinstance(rid, tuple):
                batch_spans[rid[1]].append(span)
            else:
                by_rid[rid].append(span)
        queue_wait = []
        for bid, (start, members) in self.batches.items():
            for rid, batching_sid, submitted in members:
                queue_wait.append(start - submitted)
                for span in batch_spans.get(bid, ()):
                    parent = span[PARENT] if span[PARENT] is not None \
                        else batching_sid
                    by_rid[rid].append(span[:PARENT] + (parent,))
        out = {"self": {}, "root": {}, "unattributed": {},
               "queue_wait": queue_wait, "durations": dict(durations)}
        for rid, spans in by_rid.items():
            roots = [s for s in spans if s[LAYER] == "request"]
            if len(roots) != 1:
                continue
            root = roots[0]
            children: dict[int, list[tuple]] = defaultdict(list)
            for span in spans:
                children[span[PARENT]].append(span)
            layers: dict[str, float] = defaultdict(float)
            for span in spans:
                if span is root:
                    continue
                layers[span[LAYER]] += (span[T1] - span[T0]) - covered(
                    children.get(span[SID], ()), span[T0], span[T1])
            inner = [s for s in spans if s is not root]
            length = root[T1] - root[T0]
            out["self"][rid] = dict(layers)
            out["root"][rid] = length
            out["unattributed"][rid] = length - covered(
                inner, root[T0], root[T1])
        return out

    def dump(self, path) -> None:
        """Write every span as one gzipped JSON line: a header naming the
        fields, then one array per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["id", "rid", "layer", "name", "start",
                                 "end", "parent"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def covered(spans, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``spans``."""
    intervals = sorted((max(s[T0], lo), min(s[T1], hi)) for s in spans)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in intervals:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
