"""Correctness oracle: replay a stream through an in-process engine.

The live server's answers are compared, request by request and slot by
slot, with what a fresh in-process ``ServiceEngine.handle`` returns for
the same requests in the same order, under the same (default) config,
starting from the import-time catalog.  Both sides go through a JSON
round trip and are compared as canonical JSON.  Fields that name the
answering process, and the ``/batch`` plan summary (whose
``cache_hits`` depends on interleaving), are stripped first.
"""

from __future__ import annotations

import json

from workloads import RPC_ENDPOINTS, Op

#: Top-level body fields that identify the answering process.
IDENTITY_FIELDS = ("pid", "worker_id", "snapshot_manifest_hash")


def canonical(status: int | None, body: object) -> str:
    """One answer as canonical JSON, identity fields stripped."""
    if isinstance(body, dict):
        body = {k: v for k, v in body.items() if k not in IDENTITY_FIELDS}
        if body.get("endpoint") == "batch":
            body.pop("plan", None)
    return json.dumps([status, body], sort_keys=True,
                      separators=(",", ":"))


def failed_queries(op: Op, status: int | None, body: object) -> int:
    """Queries of ``op`` that failed: the whole op on a non-200 status
    or transport error, else each non-200 ``/batch`` slot."""
    if status != 200:
        return op.queries
    if op.kind == "batch":
        return sum(1 for slot in body["results"] if slot["status"] != 200)
    return 0


def expected_answers(ops: list[Op], rpc: bool) -> list[str]:
    """Canonical oracle answer for each of ``ops``, replayed in order.

    ``reset_catalog()`` runs before and after, so the replay starts
    from the same catalog as a freshly started server and leaves none
    of its writes behind.
    """
    from repro.catalog.events import reset_catalog
    from repro.catalog.registry import current_epoch
    from repro.serve.server import ServeConfig, ServiceEngine

    reset_catalog()
    engine = ServiceEngine(ServeConfig())
    answers: list[str] = []
    # Reads are pure functions of (epoch, request), so repeats reuse
    # the first answer instead of going through the engine again.
    memo: dict[tuple, str] = {}
    try:
        for op in ops:
            endpoint = RPC_ENDPOINTS[op.endpoint] if rpc else op.endpoint
            key = None
            if op.kind != "write":
                key = (current_epoch(), endpoint,
                       json.dumps(op.payload, sort_keys=True))
                if key in memo:
                    answers.append(memo[key])
                    continue
            status, body = engine.handle(endpoint, op.payload)
            answer = canonical(status, json.loads(json.dumps(body)))
            if key is not None:
                memo[key] = answer
            answers.append(answer)
    finally:
        engine.close()
        reset_catalog()
    return answers


def compare(ops: list[Op], observed: dict[int, list[str]],
            rpc: bool) -> tuple[int, int, list[str]]:
    """``(checked, mismatches, examples)`` of observed canonical answers
    (stream index -> answers given for that op) against the oracle."""
    n = max(observed) + 1 if observed else 0
    expected = expected_answers(ops[:n], rpc)
    checked = mismatches = 0
    examples: list[str] = []
    for index, answers in sorted(observed.items()):
        for answer in answers:
            checked += 1
            if answer != expected[index]:
                mismatches += 1
                if len(examples) < 3:
                    examples.append(f"op {index} ({ops[index].endpoint}): "
                                    f"got {answer[:300]} expected "
                                    f"{expected[index][:300]}")
    return checked, mismatches, examples
