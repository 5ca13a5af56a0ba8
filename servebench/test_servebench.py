"""Self-tests of the serving benchmark.

Run from the repository root::

    python3 -m pytest -q servebench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from loadgen import closed_loop  # noqa: E402
from oracle import canonical, compare, expected_answers  # noqa: E402
from stats import tail  # noqa: E402
from tracing import covered  # noqa: E402
from workloads import GENERATORS, Stream  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())


def _prefix(workload: str, seed: int, n: int) -> list:
    stream = Stream(workload, seed)
    return [stream.take()[1] for _ in range(n)]


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_same_stream(workload):
    assert _prefix(workload, 7, 200) == _prefix(workload, 7, 200)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_other_seed_other_stream(workload):
    assert _prefix(workload, 7, 200) != _prefix(workload, 8, 200)


def test_rewind_replays_the_same_operations():
    stream = Stream("http_churn", 3)
    first = [stream.take() for _ in range(30)]
    stream.rewind()
    assert [stream.take() for _ in range(30)] == first


def test_mcp_batch_calls_share_one_shape_and_ask_fresh_rates():
    batches = [op for op in _prefix("mcp_agent", 4, 2000)
               if op.endpoint == "batch"]
    assert len(batches) > 100
    assert len({tuple(s["endpoint"] for s in op.payload["requests"])
                for op in batches}) == 1
    rates = [json.dumps(s, sort_keys=True) for op in batches
             for s in op.payload["requests"] if s["endpoint"] == "rate"]
    assert len(set(rates)) == len(rates)


def test_oracle_accepts_faithful_answers_and_catches_a_corrupted_body():
    ops = _prefix("http_churn", 5, 40)
    expected = expected_answers(ops, rpc=False)
    observed = {i: [answer] for i, answer in enumerate(expected)}
    assert compare(ops, observed, rpc=False)[:2] == (40, 0)

    index = next(i for i, op in enumerate(ops) if op.endpoint == "policy")
    status, body = json.loads(expected[index])
    body["burden_units"] += 1e-9
    observed[index] = [canonical(status, body)]
    checked, mismatches, examples = compare(ops, observed, rpc=False)
    assert (checked, mismatches) == (40, 1)
    assert examples and f"op {index}" in examples[0]


def test_oracle_ignores_process_identity_and_batch_plan_summary():
    body = {"endpoint": "batch", "count": 1, "results": [],
            "plan": {"cache_hits": 3}, "pid": 1, "worker_id": None,
            "snapshot_manifest_hash": None}
    other = dict(body, plan={"cache_hits": 0}, pid=2)
    assert canonical(200, body) == canonical(200, other)
    assert canonical(200, body) != canonical(400, body)


def test_rpc_oracle_matches_the_engine_bodies():
    ops = _prefix("mcp_agent", 2, 20)
    expected = expected_answers(ops, rpc=True)
    assert all(json.loads(answer)[0] == 200 for answer in expected)


def test_closed_loop_stops_a_client_at_its_first_transport_failure():
    samples = []
    closed_loop(lambda index, op: (None, "connection refused"),
                Stream("http_interactive", 1), 2, 5.0, samples)
    assert len(samples) == 2
    assert all(s.failed == s.op.queries for s in samples)


def test_tail_reports_p99_only_with_ten_samples_beyond():
    samples = [float(k) for k in range(1000)]
    value, pct = tail(samples, 0.99)
    assert pct == pytest.approx(99.0)
    assert sum(1 for s in samples if s > value) >= 10

    samples = [float(k) for k in range(500)]
    value, pct = tail(samples, 0.99)
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(98.0)

    with pytest.raises(ValueError):
        tail([1.0] * 10, 0.99)


def test_covered_merges_overlapping_spans_within_bounds():
    spans = [(0, None, "", "", 1.0, 3.0, None),
             (0, None, "", "", 2.0, 4.0, None),
             (0, None, "", "", 6.0, 9.0, None)]
    assert covered(spans, 0.0, 8.0) == pytest.approx(5.0)


def test_benchmark_json_matches_the_runner():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(GENERATORS)
    for workload in BENCHMARK["workloads"]:
        assert workload["why"] and "\n" not in workload["why"]
        assert len(workload["why"]) <= 200
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.PER_LAYER_UNITS


def test_every_workload_records_its_layer_to_metric_predictions():
    names = ({m["name"] for m in BENCHMARK["end_to_end"]}
             | {m["name"] for m in BENCHMARK["per_layer"]}
             | set(run.PRINTED_LAYER_UNITS))
    assert set(PREDICTIONS) - {"_note"} == set(GENERATORS)
    for workload in GENERATORS:
        prediction = PREDICTIONS[workload]
        assert prediction["moves"]
        for layer_metric, targets in prediction["moves"].items():
            assert layer_metric in names
            assert targets and set(targets) <= names
        assert set(prediction["none"]) <= names
