"""End-to-end smokes of ``repro serve`` and ``repro mcp`` as processes.

Each test starts real server processes, so the module is marked
``smoke`` and kept out of the default run (like ``perf``).  Select a
smoke by name::

    PYTHONPATH=src python -m pytest -m smoke -k serve_smoke
    PYTHONPATH=src python -m pytest -m smoke -k "batch_smoke or mcp_smoke"

Servers bind an ephemeral port (``--port 0``) read back from their
"listening on" line, and must exit 0 on the stop signal.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServiceEngine

pytestmark = pytest.mark.smoke

_SRC = Path(__file__).resolve().parents[1] / "src"


def _repro(*args: str, **kwargs) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_SRC), env.get("PYTHONPATH")) if p)
    return dict(args=[sys.executable, "-m", "repro", *args], env=env,
                text=True, **kwargs)


@contextmanager
def _serve(*flags: str, stop: int):
    """Run ``repro serve --port 0 *flags``; yield its port, then stop it
    with ``stop`` and require a clean (exit 0) shutdown."""
    proc = subprocess.Popen(**_repro("serve", "--port", "0", *flags,
                                     stdout=subprocess.PIPE))
    try:
        line = proc.stdout.readline()
        match = re.search(r"listening on http://[^\s:]+:(\d+)", line)
        assert match, f"server never came up: {line!r}"
        yield int(match.group(1))
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    proc.send_signal(stop)
    out, _ = proc.communicate(timeout=30)
    assert proc.returncode == 0, out


def _wait_up(client: ServeClient) -> None:
    for _ in range(100):
        try:
            assert client.healthz().require_ok()["status"] == "ok"
            return
        except OSError:
            time.sleep(0.1)
    raise AssertionError("server never answered /healthz")


def test_serve_smoke():
    """healthz, rate, a structured 400, metrics, clean SIGINT shutdown."""
    with _serve(stop=signal.SIGINT) as port:
        client = ServeClient(port=port)
        _wait_up(client)
        body = client.rate(clock_mhz=150, processors=16).require_ok()
        assert body["ctp_mtops"] > 0 and body["supercomputer"] is True
        bad = client.rate(clock_mhz=-5)
        assert bad.status == 400
        assert bad.body["error"]["type"] == "ValidationError"
        metrics = client.metrics().require_ok()
        assert metrics["serve"]["batchers"]["admission"]["dispatches"] >= 1
        client.close()


def test_batch_smoke():
    """A fused 30-slot /batch over a 2-worker fleet matches a fresh
    sequential engine slot for slot, failures isolated."""
    # A 30-query agentic mix with heavy duplication across all seven
    # endpoints, including two sub-requests that must fail WITHOUT
    # failing the envelope or their batch-mates.
    mix = (
        {"endpoint": "rate", "clock_mhz": 150.0, "processors": 16},
        {"endpoint": "review", "year": 1994.0},
        {"endpoint": "policy", "threshold_mtops": 2000.0, "year": 1995.5},
        {"endpoint": "scenario", "scenario": "flop_cap", "year": 1993.0},
        {"endpoint": "license", "machine": "Cray C916",
         "destination": "India"},
        {"endpoint": "machine", "machine": "Cray C916"},
        {"endpoint": "threshold_at", "year": 1994.0},
        {"endpoint": "threshold_at", "year": 1950.0},
        {"endpoint": "rate", "clock_mhz": -5.0},
        {"endpoint": "policy", "threshold_mtops": 195.0, "year": 1992.0},
    )
    items = [mix[i % 10] for i in range(30)]
    with _serve("--workers", "2", "--drain-timeout", "5",
                stop=signal.SIGTERM) as port:
        client = ServeClient(port=port)
        _wait_up(client)
        body = client.batch(items).require_ok()
        assert body["count"] == 30
        assert body["plan"]["cse_hits"] > 0, body["plan"]
        assert len(body["results"]) == 30

        # Per-sub-request parity against a fresh sequential engine
        # (cache off): status AND byte-identical JSON body per slot.
        engine = ServiceEngine(ServeConfig(cache_size=0))
        try:
            for item, slot in zip(items, body["results"]):
                fields = {k: v for k, v in item.items() if k != "endpoint"}
                status, expected = engine.handle(item["endpoint"], fields)
                assert slot["status"] == status, (item, slot)
                assert json.dumps(slot["body"]) == json.dumps(
                    json.loads(json.dumps(expected))), item
        finally:
            engine.close()
        failed = [s for s in body["results"] if s["status"] != 200]
        assert len(failed) == 6  # 3x bad year + 3x bad clock, isolated

        metrics = client.metrics().require_ok()
        assert metrics["serve"]["plan"]["plans"] >= 1
        assert metrics["serve"]["plan"]["cse_hits"] > 0
        client.close()


def test_mcp_smoke():
    """``repro mcp`` answers listings, rates, fused batches and unknown
    methods over a stdio pipe."""
    lines = [
        {"jsonrpc": "2.0", "id": 1, "method": "list_machines"},
        {"jsonrpc": "2.0", "id": 2, "method": "rate_config",
         "params": {"clock_mhz": 150.0, "processors": 16}},
        {"jsonrpc": "2.0", "id": 3, "method": "batch",
         "params": {"requests": [
             {"endpoint": "threshold_at", "year": 1994.0},
             {"endpoint": "threshold_at", "year": 1994.0}]}},
        {"jsonrpc": "2.0", "id": 4, "method": "shred_catalog"},
    ]
    done = subprocess.run(**_repro(
        "mcp", input="".join(json.dumps(line) + "\n" for line in lines),
        capture_output=True, timeout=60, check=True))
    responses = {r["id"]: r for r in map(json.loads,
                                         done.stdout.splitlines())}
    assert responses[1]["result"]["count"] > 0
    assert responses[2]["result"]["ctp_mtops"] > 0
    assert responses[3]["result"]["plan"]["cse_hits"] == 1
    assert responses[4]["error"]["code"] == -32601
