"""The multi-query planner contract: CSE, fusion, parity, isolation.

The load-bearing property is byte-identity: a heterogeneous batch
executed through one fused plan must produce, slot for slot, exactly
what sequential per-request dispatch produces at the same epoch — for
successes (identical JSON serialization, which covers dict field order)
and for failures (the same exception type and message, isolated to the
slots that depend on the failing input).  Around it: the epoch
interleave rule (a plan admitted at epoch N finishes against epoch N
while a mutation queues), the one admission queue (duplicates served by
one plan's CSE; direct endpoints held behind a mutation), the ``POST
/batch`` envelope, the ``serve.plan`` metrics pin, and the stdio
JSON-RPC bridge.
"""

from __future__ import annotations

import io
import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.events import apply_event, parse_event, reset_catalog
from repro.catalog.registry import current_epoch, write_guard
from repro.obs.trace import counters
from repro.serve import plan as plan_module
from repro.serve.batching import MicroBatcher
from repro.serve.client import ServeClient
from repro.serve.plan import build_plan, execute_plan, plan_stats
from repro.serve.rpc import RPC_METHODS, rpc_response, run_stdio_bridge
from repro.serve.schemas import parse_request
from repro.serve.server import ServeConfig, ServeServer, ServiceEngine


def _server(**overrides) -> ServeServer:
    config = ServeConfig(**{"port": 0, **overrides})
    return ServeServer(config).start()


# A vocabulary spanning all seven endpoints, including inputs that fail
# (year 1950 predates every threshold era), so shuffled subsets exercise
# CSE, cross-endpoint reuse, fusion, and per-slot error isolation.
_VOCAB = [
    ("rate", {"clock_mhz": 150.0, "processors": 16}),
    ("rate", {"clock_mhz": 150.0, "processors": 16}),  # duplicate: CSE
    ("rate", {"clock_mhz": 85.0, "processors": 4, "coupling": "distributed",
              "year": 1994.0}),
    ("license", {"machine": "Cray C916", "destination": "India"}),
    ("license", {"machine": "Cray T3D (64)", "destination": "Germany"}),
    ("machine", {"machine": "Cray C916"}),
    ("review", {"year": 1994.0}),
    ("review", {"year": 1995.5}),
    ("policy", {"threshold_mtops": 2000.0, "year": 1995.5}),
    ("policy", {"threshold_mtops": 195.0, "year": 1992.0}),
    ("scenario", {"scenario": "historical", "year": 1995.5}),
    ("scenario", {"scenario": "flop_cap", "year": 1993.0}),
    ("threshold_at", {"year": 1994.0}),
    ("threshold_at", {"year": 1950.0}),  # pre-era: fails its slot only
    ("threshold_at", {}),
]


def _slot_repr(result: object) -> str:
    """A comparable serialization: JSON for bodies, type+message for
    exceptions (two runs of the same failing input must agree on both)."""
    if isinstance(result, BaseException):
        return f"{type(result).__name__}: {result}"
    return json.dumps(result)


# ---------------------------------------------------------------------------
# byte-identity property
# ---------------------------------------------------------------------------

class TestPlannerParity:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=16))
    def test_any_mixed_batch_matches_sequential_dispatch(self, items):
        """One fused plan over a random mixed batch == a plan-of-1 per
        request, slot for slot, at the same epoch."""
        requests = [parse_request(endpoint, dict(payload))
                    for endpoint, payload in items]
        fused = execute_plan(build_plan(requests))
        sequential = [execute_plan(build_plan([r]))[0] for r in requests]
        assert [_slot_repr(r) for r in fused] == \
               [_slot_repr(r) for r in sequential]

    def test_duplicates_collapse_and_fan_out_one_body(self):
        requests = [parse_request("rate", {"clock_mhz": 150.0,
                                           "processors": 16})
                    for _ in range(5)]
        plan = build_plan(requests)
        assert plan.cse_hits == 4
        assert plan.summary() == {"queries": 5, "unique_queries": 1,
                                  "cse_hits": 4}
        results = execute_plan(plan)
        assert all(r is results[0] for r in results)  # one shared body

    def test_review_era_reuse_is_bit_identical(self):
        """An in-plan review satisfies a same-year threshold_at / rate
        era dependency with the identical float."""
        requests = [parse_request("review", {"year": 1994.0}),
                    parse_request("threshold_at", {"year": 1994.0}),
                    parse_request("rate", {"clock_mhz": 150.0,
                                           "processors": 16,
                                           "year": 1994.0})]
        before = plan_stats()["reuse_hits"]
        review, threshold, rate = execute_plan(build_plan(requests))
        assert plan_stats()["reuse_hits"] - before == 1
        assert threshold["threshold_mtops"] == \
               review["threshold_in_force_mtops"]
        assert rate["threshold_mtops"] == review["threshold_in_force_mtops"]
        solo = execute_plan(build_plan([requests[1]]))[0]
        assert json.dumps(solo) == json.dumps(threshold)

    def test_poisoned_batch_mate_cannot_change_other_slots(self):
        """An infeasible year fails only its own slot; every other slot
        is byte-identical to running without the poisoned mate."""
        good = [parse_request("rate", {"clock_mhz": 150.0,
                                       "processors": 16}),
                parse_request("policy", {"threshold_mtops": 2000.0,
                                         "year": 1995.5})]
        bad = parse_request("threshold_at", {"year": 1950.0})
        mixed = execute_plan(build_plan([good[0], bad, good[1]]))
        alone = execute_plan(build_plan(good))
        assert isinstance(mixed[1], BaseException)
        assert json.dumps(mixed[0]) == json.dumps(alone[0])
        assert json.dumps(mixed[2]) == json.dumps(alone[1])


# ---------------------------------------------------------------------------
# epoch interleave
# ---------------------------------------------------------------------------

class TestEpochInterleave:
    def test_plan_completes_at_admission_epoch_while_amend_queues(
            self, monkeypatch):
        """A plan admitted at epoch N holds the read guard for its whole
        execution: an ``amend_threshold`` posted mid-plan queues behind
        it, and every slot matches the epoch-N sequential reference."""
        requests = [parse_request("review", {"year": 1994.5}),
                    parse_request("threshold_at", {"year": 1994.5}),
                    parse_request("rate", {"clock_mhz": 150.0,
                                           "processors": 16,
                                           "year": 1994.5})]
        try:
            epoch = current_epoch()
            reference = [json.dumps(execute_plan(build_plan([r]))[0])
                         for r in requests]

            entered, release = threading.Event(), threading.Event()
            original = plan_module.review_body

            def gated_review_body(request):
                entered.set()
                assert release.wait(5.0), "test deadlock"
                return original(request)

            monkeypatch.setattr(plan_module, "review_body",
                                gated_review_body)
            result: dict = {}

            def run():
                result["slots"] = execute_plan(build_plan(requests))

            runner = threading.Thread(target=run)
            runner.start()
            assert entered.wait(5.0)  # guard held, review in flight

            writer = threading.Thread(target=lambda: apply_event(parse_event(
                {"event": "amend_threshold", "start_year": 1994.1,
                 "threshold_mtops": 3_000.0})))
            writer.start()
            writer.join(0.2)
            # The mutation is queued behind the in-flight plan.
            assert writer.is_alive()
            assert current_epoch() == epoch

            release.set()
            runner.join(10.0)
            writer.join(10.0)
            assert not runner.is_alive() and not writer.is_alive()
            assert current_epoch() == epoch + 1

            # The plan never saw the amendment: bit-identical to the
            # epoch-N reference, reuse path included.
            assert [json.dumps(s) for s in result["slots"]] == reference
        finally:
            reset_catalog()


# ---------------------------------------------------------------------------
# the admission queue: one MicroBatcher, the planner's CSE as the only dedup
# ---------------------------------------------------------------------------

def _gate_admission(engine: ServiceEngine):
    """Hold the admission dispatch until ``release`` is set; ``entered``
    fires once the worker is inside a dispatch."""
    release, entered = threading.Event(), threading.Event()
    batcher = engine.batchers["admission"]
    original = batcher._dispatch

    def gated(requests):
        if not entered.is_set():
            entered.set()
            assert release.wait(5.0), "gate never released"
        return original(requests)

    batcher._dispatch = gated
    return release, entered


class TestAdmissionQueue:
    def test_queued_duplicates_share_one_plan(self):
        """Duplicates queued behind a busy dispatch are served by one
        plan: CSE computes each unique request once, and every waiter
        still gets its own correct body."""
        backlog = [("review", {"year": 1994.5}),
                   ("machine", {"machine": "Cray C916"}),
                   ("threshold_at", {"year": 1994.5}),
                   ("review", {"year": 1994.5}),
                   ("machine", {"machine": "cray c916"}),
                   ("threshold_at", {"year": 1994.5}),
                   ("rate", {"clock_mhz": 150.0, "processors": 16,
                             "year": 1994.5})]
        duplicates = 3
        reference = ServiceEngine(ServeConfig(cache_size=0))
        try:
            expected = [reference.handle(e, p) for e, p in backlog]
        finally:
            reference.close()

        engine = ServiceEngine(ServeConfig(cache_size=0, max_batch=16))
        release, entered = _gate_admission(engine)
        got: list = [None] * len(backlog)

        def ask(i: int) -> None:
            got[i] = engine.handle(*backlog[i])

        try:
            first = threading.Thread(target=lambda: engine.handle(
                "threshold_at", {"year": 1992.0}))
            first.start()
            assert entered.wait(5.0)
            before_hits = counters().get("serve.plan.cse_hits", 0)
            before_plans = plan_stats()["plans"]
            waiters = [threading.Thread(target=ask, args=(i,))
                       for i in range(len(backlog))]
            for waiter in waiters:
                waiter.start()
            batcher = engine.batchers["admission"]
            deadline = time.monotonic() + 5.0
            while (batcher.depth() < len(backlog)
                   and time.monotonic() < deadline):
                time.sleep(0.002)
            assert batcher.depth() == len(backlog)
            release.set()
            for thread in (first, *waiters):
                thread.join(10.0)
            assert not any(t.is_alive() for t in (first, *waiters))
        finally:
            release.set()
            engine.close()
        assert plan_stats()["plans"] - before_plans == 2  # gated + backlog
        assert counters()["serve.plan.cse_hits"] - before_hits == duplicates
        assert [status for status, _ in got] == [200] * len(backlog)
        assert [json.dumps(body) for _, body in got] == [
            json.dumps(body) for _, body in expected]

    def test_direct_endpoints_wait_for_write_guard(self):
        """/review, /machine and /threshold_at run under the catalog read
        guard: while a mutation holds the write guard they do not
        complete, so they never read a half-applied catalog."""
        payloads = {"review": {"year": 1994.5},
                    "machine": {"machine": "Cray C916"},
                    "threshold_at": {"year": 1994.5}}
        engine = ServiceEngine(ServeConfig(cache_size=0))
        results: dict = {}

        def ask(endpoint: str) -> None:
            results[endpoint] = engine.handle(endpoint, payloads[endpoint])

        threads = [threading.Thread(target=ask, args=(endpoint,))
                   for endpoint in payloads]
        try:
            with write_guard():
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(0.2)
                assert results == {}, "answered during a mutation"
            for thread in threads:
                thread.join(10.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            engine.close()
        assert {endpoint: status
                for endpoint, (status, _) in results.items()} == {
                    endpoint: 200 for endpoint in payloads}


class TestBatcherDedup:
    """The MicroBatcher has no dedup of its own: every queued request
    reaches the dispatcher in its own slot (the planner's CSE is the
    serving tier's one dedup mechanism)."""

    def test_opaque_requests_never_dedup(self):
        """Identical queued requests each keep their own dispatch slot."""
        release, entered = threading.Event(), threading.Event()
        seen: list[list[int]] = []

        def dispatch(requests):
            if not entered.is_set():
                entered.set()
                assert release.wait(5.0)
            seen.append(list(requests))
            return list(requests)

        batcher = MicroBatcher("t", dispatch, max_batch=8, queue_limit=64)
        try:
            first = batcher.submit(7)
            assert entered.wait(5.0)
            backlog = [batcher.submit(7) for _ in range(3)]
            release.set()
            assert first.result(5.0) == 7
            assert [f.result(5.0) for f in backlog] == [7, 7, 7]
        finally:
            batcher.stop()
        assert seen == [[7], [7, 7, 7]]
        assert batcher.stats()["completed"] == 4

    def test_exception_result_fails_only_its_future(self):
        """A dispatch may return a BaseException in one slot; the other
        slots' futures still resolve."""
        def dispatch(requests):
            return [ValueError("poisoned") if r == "bad" else r
                    for r in requests]

        batcher = MicroBatcher("t", dispatch, max_batch=4, queue_limit=8)
        try:
            good, bad = batcher.submit("good"), batcher.submit("bad")
            assert good.result(5.0) == "good"
            with pytest.raises(ValueError, match="poisoned"):
                bad.result(5.0)
        finally:
            batcher.stop()


# ---------------------------------------------------------------------------
# POST /batch
# ---------------------------------------------------------------------------

class TestBatchEndpoint:
    @pytest.fixture(scope="class")
    def served(self):
        server = _server(cache_size=0)
        client = ServeClient(port=server.port)
        yield client
        client.close()
        server.close()

    def test_mixed_batch_matches_solo_requests(self, served):
        items = [{"endpoint": endpoint, **payload}
                 for endpoint, payload in _VOCAB]
        response = served.batch(items)
        assert response.status == 200
        body = response.body
        assert body["endpoint"] == "batch"
        assert body["count"] == len(items)
        assert body["plan"]["cse_hits"] >= 1  # the duplicate rate
        assert len(body["results"]) == len(items)
        for item, slot in zip(items, body["results"]):
            fields = {k: v for k, v in item.items() if k != "endpoint"}
            solo = served.request("POST", f"/{item['endpoint']}", fields)
            assert slot["status"] == solo.status
            assert json.dumps(slot["body"]) == json.dumps(solo.body)

    def test_errors_isolated_per_sub_request(self, served):
        body = served.batch([
            {"endpoint": "rate", "clock_mhz": 150.0, "processors": 16},
            {"endpoint": "threshold_at", "year": 1901.0},
            {"endpoint": "nope"},
            "not-an-object",
            {"endpoint": "policy", "threshold_mtops": 2000.0,
             "year": 1995.5},
        ]).require_ok()
        statuses = [slot["status"] for slot in body["results"]]
        assert statuses == [200, 400, 400, 400, 200]
        for slot in body["results"]:
            if slot["status"] != 200:
                assert "error" in slot["body"]  # taxonomy JSON, always

    def test_envelope_validation(self, served):
        assert served.request("POST", "/batch", {"requests": "x"}).status \
               == 400
        assert served.request("POST", "/batch", {"nope": []}).status == 400
        assert served.request("POST", "/batch", [1, 2]).status == 400

    def test_oversized_batch_rejected(self, served):
        """The envelope is capped at queue_limit sub-requests — a 400
        (the request itself is malformed-by-size), not a retryable 429."""
        too_many = [{"endpoint": "threshold_at", "year": 1994.0}] * 10_000
        response = served.request("POST", "/batch", {"requests": too_many})
        assert response.status == 400
        assert response.body["error"]["type"] == "ValidationError"

    def test_batch_listed_and_plan_metrics_pinned(self, served):
        endpoints = served.healthz().require_ok()["endpoints"]
        assert "batch" in endpoints and "threshold_at" in endpoints
        served.batch([{"endpoint": "rate", "clock_mhz": 150.0}] * 3)
        plan = served.metrics().require_ok()["serve"]["plan"]
        assert {"plans", "queries", "unique_queries", "cse_hits",
                "reuse_hits", "ops", "ops_fused",
                "fanout_histogram"} <= set(plan)
        assert plan["plans"] >= 1
        assert plan["cse_hits"] >= 2

    def test_batch_cache_hits_at_admission_epoch(self):
        server = _server(cache_size=64)
        client = ServeClient(port=server.port)
        try:
            item = {"endpoint": "rate", "clock_mhz": 150.0,
                    "processors": 16}
            first = client.batch([item]).require_ok()
            again = client.batch([item, item]).require_ok()
        finally:
            client.close()
            server.close()
        assert again["plan"]["cache_hits"] >= 1
        assert json.dumps(again["results"][0]) == \
               json.dumps(first["results"][0])
        assert json.dumps(again["results"][1]) == \
               json.dumps(first["results"][0])


# ---------------------------------------------------------------------------
# stdio JSON-RPC bridge
# ---------------------------------------------------------------------------

class TestRpcBridge:
    @pytest.fixture(scope="class")
    def engine(self):
        engine = ServiceEngine(ServeConfig(cache_size=0))
        yield engine
        engine.close()

    def test_rate_config_matches_http_body(self, engine):
        response = rpc_response(engine, {
            "jsonrpc": "2.0", "id": 1, "method": "rate_config",
            "params": {"clock_mhz": 150.0, "processors": 16}})
        status, body = engine.handle("rate", {"clock_mhz": 150.0,
                                              "processors": 16})
        assert status == 200
        assert response == {"jsonrpc": "2.0", "id": 1, "result": body}

    def test_listings_take_no_params(self, engine):
        listing = rpc_response(engine, {"jsonrpc": "2.0", "id": 2,
                                        "method": "list_machines"})
        assert listing["result"]["machines"]
        assert "catalog_epoch" in listing["result"]
        rejected = rpc_response(engine, {
            "jsonrpc": "2.0", "id": 3, "method": "list_machines",
            "params": {"x": 1}})
        assert rejected["error"]["code"] == -32602

    def test_batch_method_forwards_to_planner(self, engine):
        response = rpc_response(engine, {
            "jsonrpc": "2.0", "id": 4, "method": "batch",
            "params": {"requests": [
                {"endpoint": "rate", "clock_mhz": 150.0},
                {"endpoint": "rate", "clock_mhz": 150.0}]}})
        result = response["result"]
        assert result["count"] == 2
        assert result["plan"]["cse_hits"] == 1

    def test_error_code_mapping(self, engine):
        invalid = rpc_response(engine, {
            "jsonrpc": "2.0", "id": 5, "method": "threshold_at",
            "params": {"year": 1901.0}})
        assert invalid["error"]["code"] == -32602
        assert invalid["error"]["data"]["type"]  # taxonomy rides as data
        unknown = rpc_response(engine, {"jsonrpc": "2.0", "id": 6,
                                        "method": "shred_catalog"})
        assert unknown["error"]["code"] == -32601
        assert set(unknown["error"]["data"]["valid"]) == set(RPC_METHODS)
        not_object = rpc_response(engine, [1, 2, 3])
        assert not_object["error"]["code"] == -32600

    def test_notifications_get_no_response(self, engine):
        assert rpc_response(engine, {"jsonrpc": "2.0",
                                     "method": "threshold_at",
                                     "params": {"year": 1994.0}}) is None

    def test_stdio_loop_survives_garbage(self, engine):
        lines = "\n".join([
            json.dumps({"jsonrpc": "2.0", "id": 1,
                        "method": "threshold_at",
                        "params": {"year": 1994.0}}),
            "",
            "{this is not json",
            json.dumps({"jsonrpc": "2.0", "id": 2,
                        "method": "list_thresholds"}),
        ]) + "\n"
        out = io.StringIO()
        served = run_stdio_bridge(engine, stdin=io.StringIO(lines),
                                  stdout=out)
        assert served == 3  # blank line skipped, garbage still counted
        responses = [json.loads(line) for line in
                     out.getvalue().splitlines()]
        assert responses[0]["result"]["threshold_mtops"] > 0
        assert responses[1]["error"]["code"] == -32700
        assert responses[2]["result"]["eras"]
