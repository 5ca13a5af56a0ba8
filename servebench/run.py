"""Serving benchmark: four client paths, oracle-checked, layer by layer.

Usage (from the repository root)::

    python3 servebench/run.py --workload http_interactive --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` starts ``python -m repro serve`` (or ``repro mcp``) as a
subprocess with its default configuration, drives the workload's seeded
stream at it in a closed loop and prints the end-to-end metrics.
``--trace 1`` runs the same stream against an in-process server twice,
untraced and then traced, and prints the per-layer metrics.  Either way
every answer is checked against an in-process oracle replay of the same
stream, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it list every metric by name and unit, with sample
counts and the percentile actually reported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path

from layers import counter_deltas
from loadgen import (HttpCaller, McpPipe, Sample, ServerProcess,
                     closed_loop)
from oracle import compare
from stats import MIN_BEYOND, median, proc_cpu_s, proc_hwm_mb, ratio, tail
from tracing import Tracer
from workloads import CLIENTS, GENERATORS, Stream

ROOT = Path(__file__).resolve().parent.parent
#: Logs and span files; listed in the repository's .gitignore.
OUT_DIR = ROOT / ".servebench_out"

#: Server start-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Untimed closed-loop traffic before each timed phase, so lazy builds
#: and the hot keys' cache entries are in place when timing starts.
WARMUP_S = 2.0

END_TO_END_UNITS = {
    "setup_s": "s", "p50_ms": "ms", "p99_ms": "ms",
    "throughput_qps": "1/s", "server_cpu_ms_per_query": "ms",
    "server_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "transport.self_ms_p50": "ms", "transport.self_ms_p99": "ms",
    "transport.resp_bytes_per_query": "B",
    "engine.handle_ms_p50": "ms", "engine.handle_ms_p99": "ms",
    "schemas.parse_us_p50": "us",
    "cache.hit_ratio": "ratio", "cache.evictions": "count",
    "cache.purges": "count",
    "batching.mean_batch_size": "count", "batching.dedup_hits": "count",
    "plan.build_ms_p50": "ms", "plan.exec_ms_p50": "ms",
    "plan.cse_ratio": "ratio", "plan.reuse_hits": "count",
    "plan.ops_fused": "count",
    "tiles.policy.hit_ratio": "ratio", "tiles.scenario.hit_ratio": "ratio",
    "tiles.builds": "count", "tiles.partial_builds": "count",
    "scenarios.grid_builds": "count",
    "ctp.credit_cache_hit_ratio": "ratio",
    "catalog.epoch_bumps": "count", "catalog.hook_runs": "count",
    "encode.us_per_query": "us",
    "attrib.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Times of layers that some workloads never call (the JSON-RPC bridge
#: off ``mcp_agent``, batcher queues on ``http_batch``, the planner's
#: CTP op on ``http_churn``, catalog writes off ``http_churn``).  There
#: they have no samples and would read 0 on every run, so the traced
#: run prints them without putting them in its result.
PRINTED_LAYER_UNITS = {
    "rpc.self_ms_p50": "ms",
    "batching.queue_wait_ms_p50": "ms", "batching.queue_wait_ms_p99": "ms",
    "ctp.batch_ms_p50": "ms", "catalog.apply_ms_p50": "ms",
    "write_p50_ms": "ms", "write_p90_ms": "ms",
}


def _latencies(workload: str, samples: list[Sample]) -> list[float]:
    """Client latencies in seconds: reads only on ``http_churn``, one
    per envelope on ``http_batch``, every request elsewhere."""
    if workload == "http_churn":
        return [s.t1 - s.t0 for s in samples if s.op.kind == "read"]
    return [s.t1 - s.t0 for s in samples]


def _pct(samples: list[float], q: float) -> tuple[float, str]:
    """``(value, label)`` of a quantile under the tail rule.  An empty
    sample reads 0; a tail the sample cannot support above its median
    falls back to the median."""
    if not samples:
        return 0.0, "no samples"
    if q > 0.5 and len(samples) > MIN_BEYOND:
        value, pct = tail(samples, q)
        if pct > 50.0:
            return value, f"p{pct:.2f} of n={len(samples)}"
    return median(samples), f"p50 of n={len(samples)}"


def _observe(samples: list[Sample], observed: dict[int, list[str]]) -> None:
    for s in samples:
        observed.setdefault(s.index, []).append(s.answer)


def _tally(samples: list[Sample]) -> tuple[int, int]:
    """``(attempted, failed)`` queries; a ``/batch`` slot is a query."""
    return (sum(s.op.queries for s in samples),
            sum(s.failed for s in samples))


def _report(metrics: dict[str, float], units: dict[str, str],
            notes: dict[str, str]) -> dict:
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:34s} {metrics[name]:14.6g} {unit}{note}")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()}


# ---------------------------------------------------------------------------
# end-to-end run: the program as a subprocess
# ---------------------------------------------------------------------------

def _connect(server: ServerProcess):
    from repro.serve.client import ServeClient

    if server.command == "mcp":
        return server.mcp_pipe(), None
    client = ServeClient(port=server.port, timeout=30.0)
    return HttpCaller(client), client


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    stream = Stream(workload, seed)
    command = "mcp" if workload == "mcp_agent" else "serve"
    clients = CLIENTS[workload]
    untimed: list[Sample] = []
    timed: list[Sample] = []
    setups: list[float] = []
    server = client = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
                if client is not None:
                    client.close()
            stream.rewind()
            server = ServerProcess(ROOT, command, OUT_DIR)
            caller, client = _connect(server)
            index, op = stream.take()
            t0 = time.perf_counter()
            status, body = caller(index, op)
            t1 = time.perf_counter()
            setups.append(t1 - server.spawned_at)
            untimed.append(Sample.of(index, op, t0, t1, status, body))
        closed_loop(caller, stream, clients, WARMUP_S, untimed)
        before = client.metrics().body if client else None
        cpu0 = proc_cpu_s(server.pid)
        elapsed = closed_loop(caller, stream, clients, seconds, timed)
        cpu1 = proc_cpu_s(server.pid)
        after = client.metrics().body if client else None
        rss_mb = proc_hwm_mb(server.pid)
    finally:
        if server is not None:
            server.stop()
        if client is not None:
            client.close()

    observed: dict[int, list[str]] = {}
    _observe(untimed + timed, observed)
    checked, mismatches, examples = compare(stream.ops, observed,
                                            rpc=command == "mcp")
    attempted, failed = _tally(timed)
    answered = attempted - failed
    lat = _latencies(workload, timed)
    p50, p50_note = _pct(lat, 0.5)
    p99, p99_note = _pct(lat, 0.99)
    metrics = {
        "setup_s": median(setups),
        "p50_ms": p50 * 1e3,
        "p99_ms": p99 * 1e3,
        "throughput_qps": answered / elapsed,
        "server_cpu_ms_per_query": (cpu1 - cpu0) * 1e3 / max(answered, 1),
        "server_rss_mb": rss_mb,
    }
    notes = {"setup_s": f"median of {len(setups)}", "p50_ms": p50_note,
             "p99_ms": p99_note,
             "throughput_qps": f"{answered} queries in {elapsed:.2f} s",
             "server_cpu_ms_per_query": f"{cpu1 - cpu0:.2f} s server CPU"}
    print(f"workload {workload} seed {seed}: {len(timed)} requests timed, "
          f"{checked} answers checked, {mismatches} mismatches, "
          f"fail_frac {ratio(failed, attempted):.6g}")
    for example in examples:
        print("MISMATCH", example)
    writes = [s.t1 - s.t0 for s in timed if s.op.kind == "write"]
    if writes:
        for label, q in (("write_p50_ms", 0.5), ("write_p90_ms", 0.9)):
            value, note = _pct(writes, q)
            print(f"{label:34s} {value * 1e3:14.6g} ms  ({note})")
    if before is not None:
        for name, value in counter_deltas(before, after).items():
            print(f"{name:34s} {value:14.6g}  (/metrics delta)")
    return {"correct": mismatches == 0 and checked > 0,
            "attempted": attempted, "failed": failed,
            "metrics": _report(metrics, END_TO_END_UNITS, notes)}


# ---------------------------------------------------------------------------
# traced run: the program in-process, patched at its layer boundaries
# ---------------------------------------------------------------------------

def _hook_runs() -> int:
    from repro.catalog.registry import catalog_epoch_info

    return sum(catalog_epoch_info()["hook_runs"].values())


def _in_process(workload: str, stream: Stream, seconds: float,
                tracer: Tracer | None) -> dict:
    """One warm-up + timed phase against a fresh in-process server."""
    from repro.catalog.events import reset_catalog
    from repro.serve.client import ServeClient
    from repro.serve.rpc import run_stdio_bridge
    from repro.serve.server import ServeConfig, ServeServer, ServiceEngine

    reset_catalog()
    stream.rewind()
    clients = CLIENTS[workload]
    untimed: list[Sample] = []
    timed: list[Sample] = []
    server = client = bridge = None
    if workload == "mcp_agent":
        engine = ServiceEngine(ServeConfig())
        r1, w1 = os.pipe()
        r2, w2 = os.pipe()
        bridge_in, bridge_out = os.fdopen(r1, "r"), os.fdopen(w2, "w")
        to_bridge, from_bridge = os.fdopen(w1, "w"), os.fdopen(r2, "r")
        bridge = threading.Thread(target=run_stdio_bridge,
                                  args=(engine, bridge_in, bridge_out),
                                  daemon=True)
        bridge.start()
        caller = McpPipe(to_bridge, from_bridge)
        metrics = engine.metrics
    else:
        server = ServeServer(ServeConfig(port=0)).start()
        engine = server.engine
        client = ServeClient(port=server.port, timeout=30.0)
        caller = HttpCaller(client)

        def metrics() -> dict:
            return client.metrics().body

    try:
        closed_loop(caller, stream, clients, WARMUP_S, untimed)
        before, hooks0 = metrics(), _hook_runs()
        call = caller
        if tracer is not None:
            handler = server.httpd.RequestHandlerClass if server else None
            tracer.install(engine, handler, client)
            call = _traced_call(tracer, caller)
            tracer.enabled = True
        try:
            elapsed = closed_loop(call, stream, clients, seconds, timed)
        finally:
            if tracer is not None:
                tracer.enabled = False
                tracer.uninstall()
        after, hooks1 = metrics(), _hook_runs()
    finally:
        if server is not None:
            client.close()
            server.close()
        if bridge is not None:
            to_bridge.close()
            bridge.join(30.0)
            for fh in (bridge_in, bridge_out, from_bridge):
                fh.close()
            engine.close()
        reset_catalog()
    counts = counter_deltas(before, after)
    counts["catalog.hook_runs"] = hooks1 - hooks0
    return {"untimed": untimed, "timed": timed, "elapsed": elapsed,
            "counts": counts}


def _traced_call(tracer: Tracer, caller):
    """Trace a sample of the requests (see :meth:`Tracer.sample`), each
    under a root span; over the pipe the call itself is the transport
    (there is no separate client library)."""
    def call(index, op):
        if not tracer.sample(index, op.queries):
            return caller(index, op)
        if caller.rpc:
            def inner():
                return tracer.run("transport", "client", caller, index, op,
                                  register=True)
        else:
            def inner():
                return caller(index, op, traced=True)
        return tracer.run("request", "request", inner, rid=index)
    return call


def traced(workload: str, seed: int, seconds: float) -> dict:
    stream = Stream(workload, seed)
    plain = _in_process(workload, stream, seconds, None)
    tracer = Tracer()
    traced_phase = _in_process(workload, stream, seconds, tracer)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{workload}-{seed}.jsonl.gz")

    observed: dict[int, list[str]] = {}
    for phase in (plain, traced_phase):
        _observe(phase["untimed"] + phase["timed"], observed)
    checked, mismatches, examples = compare(
        stream.ops, observed, rpc=workload == "mcp_agent")
    timed = traced_phase["timed"]
    attempted, failed = _tally(timed)
    queries = max(tracer.traced_queries, 1)

    analysis = tracer.per_request()
    durations = analysis["durations"]
    selfs = analysis["self"].values()

    def dur(layer: str, name: str) -> list[float]:
        return durations.get((layer, name), [])

    notes: dict[str, str] = {}

    def pct(name: str, samples: list[float], q: float, scale: float):
        value, notes[name] = _pct(samples, q)
        return value * scale

    transport = [layers.get("transport", 0.0) for layers in selfs]
    rpc_self = [layers["rpc"] for layers in selfs if "rpc" in layers]
    writes = [s.t1 - s.t0 for s in timed if s.op.kind == "write"]
    p50_plain = median(_latencies(workload, plain["timed"]))
    p50_traced = median(_latencies(workload, timed))
    metrics = dict(traced_phase["counts"])
    metrics.update({
        "transport.self_ms_p50": pct("transport.self_ms_p50", transport,
                                     0.5, 1e3),
        "transport.self_ms_p99": pct("transport.self_ms_p99", transport,
                                     0.99, 1e3),
        "transport.resp_bytes_per_query": tracer.encoded_bytes / queries,
        "rpc.self_ms_p50": pct("rpc.self_ms_p50", rpc_self, 0.5, 1e3),
        "engine.handle_ms_p50": pct("engine.handle_ms_p50",
                                    dur("engine", "handle"), 0.5, 1e3),
        "engine.handle_ms_p99": pct("engine.handle_ms_p99",
                                    dur("engine", "handle"), 0.99, 1e3),
        "schemas.parse_us_p50": pct("schemas.parse_us_p50",
                                    dur("schemas", "parse"), 0.5, 1e6),
        "batching.queue_wait_ms_p50": pct("batching.queue_wait_ms_p50",
                                          analysis["queue_wait"], 0.5, 1e3),
        "batching.queue_wait_ms_p99": pct("batching.queue_wait_ms_p99",
                                          analysis["queue_wait"], 0.99, 1e3),
        "plan.build_ms_p50": pct("plan.build_ms_p50", dur("plan", "build"),
                                 0.5, 1e3),
        "plan.exec_ms_p50": pct("plan.exec_ms_p50", dur("plan", "exec"),
                                0.5, 1e3),
        "ctp.batch_ms_p50": pct("ctp.batch_ms_p50", dur("ctp", "batch"),
                                0.5, 1e3),
        "catalog.apply_ms_p50": pct("catalog.apply_ms_p50",
                                    dur("catalog", "apply"), 0.5, 1e3),
        "encode.us_per_query": sum(dur("encode", "dumps")) * 1e6 / queries,
        "write_p50_ms": pct("write_p50_ms", writes, 0.5, 1e3),
        "write_p90_ms": pct("write_p90_ms", writes, 0.9, 1e3),
        "attrib.unattributed_frac": ratio(
            sum(analysis["unattributed"].values()),
            sum(analysis["root"].values())),
        "trace.overhead_frac": ratio(p50_traced, p50_plain) - 1.0,
    })
    notes["trace.overhead_frac"] = (f"traced p50 {p50_traced * 1e3:.4g} ms "
                                    f"vs untraced {p50_plain * 1e3:.4g} ms")
    print(f"workload {workload} seed {seed} (traced, in-process): "
          f"{len(timed)} requests timed, {checked} answers checked, "
          f"{mismatches} mismatches, fail_frac "
          f"{ratio(failed, attempted):.6g}")
    for example in examples:
        print("MISMATCH", example)
    layer_totals: dict[str, float] = {}
    for layers in selfs:
        for layer, seconds_ in layers.items():
            layer_totals[layer] = layer_totals.get(layer, 0.0) + seconds_
    client_total = sum(analysis["root"].values())
    print("self time by layer, share of client time: " + ", ".join(
        f"{layer} {ratio(total, client_total):.4f}"
        for layer, total in sorted(layer_totals.items(),
                                   key=lambda kv: -kv[1])))
    print("-- layers not every workload calls (printed only):")
    _report(metrics, PRINTED_LAYER_UNITS, notes)
    print("-- per-layer metrics:")
    return {"correct": mismatches == 0 and checked > 0,
            "attempted": attempted, "failed": failed,
            "metrics": _report(metrics, PER_LAYER_UNITS, notes)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"servebench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "mcp_agent":
        # The bridge and its caller ping-pong one request at a time.  On
        # two cores the scheduler keeps moving them between sharing one
        # core and waking the other, which swings throughput by 2-3x from
        # run to run on a virtual machine; one shared core (inherited by
        # the subprocess) measures the engine instead of that placement.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = traced if args.trace else end_to_end
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
