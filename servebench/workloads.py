"""Seeded request streams for the four serving workloads.

A stream is an endless, deterministic sequence of operations drawn from
``random.Random(seed)``; the same seed always yields the same sequence
and the program only ever sees the generated requests.  Clients take
operations in order from one shared :class:`Stream`, which remembers
every operation it handed out so the oracle can replay exactly the
prefix that was sent.

Operation shapes:

* HTTP workloads: ``Op(kind, endpoint, payload, queries)`` where
  ``endpoint`` is the engine endpoint name (``"rate"``, ``"batch"``,
  ``"catalog_append"`` ...), ``kind`` is ``"read"``, ``"write"`` or
  ``"batch"``, and ``queries`` counts the answers it asks for (a
  ``/batch`` slot counts as one query).
* ``mcp_agent``: ``endpoint`` is the JSON-RPC method name and
  ``payload`` its params.

Key popularity is Zipf-skewed over a per-endpoint universe.  The
popularity ranking is one fixed shuffle, the same for every seed; the
seed drives the draws.  Keys differ in cost (a cold policy tile against
a cached rate), so a seed-dependent ranking would make each seed a
different workload and swamp run-to-run comparisons.
"""

from __future__ import annotations

import bisect
import itertools
import random
import threading
from dataclasses import dataclass

#: Endpoint -> URL path for the HTTP workloads.
HTTP_PATHS = {
    "rate": "/rate", "license": "/license", "machine": "/machine",
    "review": "/review", "policy": "/policy", "scenario": "/scenario",
    "threshold_at": "/threshold_at", "batch": "/batch",
    "catalog_append": "/catalog/append",
}

#: JSON-RPC method -> engine endpoint (the bridge's own table, repeated
#: here so the stream generator does not import the program).
RPC_ENDPOINTS = {
    "rate_config": "rate", "policy_scorecard": "policy",
    "threshold_at": "threshold_at", "batch": "batch",
}

ZIPF_S = 1.1

# The baseline catalog keys, as shipped; license and machine requests
# draw from these.
MACHINES = (
    "DEC VAX 8600", "IBM 3090/250", "Cray X-MP/2", "Cray Y-MP/2",
    "Cray Y-MP/8", "Cray Cray-2/2", "Cray C916", "Cray C90/8",
    "Cray T90/32", "Intel iPSC/860 (128)", "Intel Paragon XP/S (150)",
    "Intel Paragon XP/S (328)", "Intel Paragon XP/S 140 (6768)",
    "Cray T3D (64)", "Cray T3D (512)", "Thinking Machines CM-5 (128)",
    "Thinking Machines CM-5 (1024)", "IBM SP2 (16)", "IBM SP2 (128)",
    "Convex Exemplar SPP1000 (16)", "Sun SPARCcenter 2000 (20)",
    "SGI Challenge XL (36)", "Cray CS6400 (64)", "SGI PowerChallenge (4)",
    "SGI PowerChallenge XL (18)", "HP T-500 (12)",
    "DEC AlphaServer 8400 (12)", "Sun Ultra Enterprise 6000 (30)",
    "Sun SPARCstation 10", "DEC 3000/500", "SGI Onyx server (12)",
    "nCUBE nCUBE 2 (1024)", "Tandem Himalaya K10000 (16)",
    "IBM RS/6000-590", "HP 9000/735", "NEC SX-3/44",
    "Fujitsu VPP500 (80)", "Hitachi S-3800/480",
)
DESTINATIONS = ("USA", "Japan", "UK", "France", "Germany", "South Korea",
                "Sweden", "India", "PRC", "Russia", "Iran")
PRESETS = ("historical", "flop_cap", "accelerated_foreign",
           "early_decontrol", "sticky_requirements")
POLICIES = ("control_what_can_be_controlled", "application_driven",
            "economic")
#: The threshold eras in force at start-up; ``amend_threshold`` must
#: name one of these start years exactly (any other start is a 400).
ERAS = ((1984.5, 100.0), (1988.9, 160.0), (1991.5, 195.0),
        (1994.1, 1500.0))


def _steps(lo: float, hi: float, step: float) -> list[float]:
    n = int(round((hi - lo) / step))
    return [round(lo + k * step, 4) for k in range(n + 1)]


@dataclass(frozen=True, slots=True)
class Op:
    """One request of a workload stream."""

    kind: str
    endpoint: str
    payload: dict
    queries: int = 1


#: Seed of the one popularity ranking shared by every stream.
RANKING_SEED = 1995


class _Zipf:
    """Zipf(s) draws over a universe of payloads in a fixed random
    popularity order."""

    def __init__(self, universe: list[dict]) -> None:
        random.Random(RANKING_SEED).shuffle(universe)
        self.universe = universe
        self.cum = list(itertools.accumulate(
            1.0 / (rank ** ZIPF_S) for rank in range(1, len(universe) + 1)))

    def draw(self, rng: random.Random) -> dict:
        """One payload; shared with every other draw of the same key, so
        callers must not mutate it."""
        k = bisect.bisect_left(self.cum, rng.random() * self.cum[-1])
        return self.universe[min(k, len(self.universe) - 1)]


def _universes() -> dict[str, _Zipf]:
    rate = [{"clock_mhz": float(c), "processors": p, "coupling": cp,
             "year": y}
            for c in (20, 25, 33, 40, 50, 66, 75, 90, 100, 120, 133, 150,
                      166, 200, 250, 300)
            for p in (1, 2, 4, 8, 16, 32, 64, 128, 256)
            for cp in ("shared", "distributed")
            for y in _steps(1990.0, 1998.0, 0.5)]
    license_ = [{"machine": m, "destination": d, "year": y}
                for m in MACHINES for d in DESTINATIONS
                for y in _steps(1990.0, 1998.0, 1.0)]
    policy = [({"year": y} if t is None
               else {"threshold_mtops": t, "year": y})
              for t in (None, 195.0, 500.0, 1000.0, 1500.0, 2000.0, 3000.0,
                        5000.0, 7000.0, 10000.0)
              for y in _steps(1992.0, 1999.0, 0.25)]
    scenario = [({"scenario": s, "year": y} if t is None
                 else {"scenario": s, "threshold_mtops": t, "year": y})
                for s in PRESETS for t in (None, 2000.0, 5000.0)
                for y in _steps(1993.0, 1998.0, 0.5)]
    return {
        "rate": _Zipf(rate),
        "license": _Zipf(license_),
        "machine": _Zipf([{"machine": m} for m in MACHINES]),
        "review": _Zipf([{"year": y, "policy": p}
                         for y in _steps(1986.0, 1999.0, 0.25)
                         for p in POLICIES]),
        "policy": _Zipf(policy),
        "scenario": _Zipf(scenario),
        "threshold_at": _Zipf([{"year": y}
                               for y in _steps(1985.0, 1999.0, 0.25)]),
    }


def _weighted(rng: random.Random, weights: dict[str, float]) -> str:
    r = rng.random() * sum(weights.values())
    for name, w in weights.items():
        r -= w
        if r < 0:
            return name
    return name


# ---------------------------------------------------------------------------
# generators (infinite, deterministic per seed)
# ---------------------------------------------------------------------------

INTERACTIVE_MIX = {"rate": 0.2, "license": 0.2, "machine": 0.1,
                   "review": 0.1, "policy": 0.2, "scenario": 0.1,
                   "threshold_at": 0.1}


def _http_interactive(seed: int):
    rng = random.Random(seed)
    zipf = _universes()
    while True:
        endpoint = _weighted(rng, INTERACTIVE_MIX)
        yield Op("read", endpoint, zipf[endpoint].draw(rng))


#: Slots per ``/batch`` envelope, by endpoint (64 in total, before the
#: in-envelope duplicates replace some of them).
BATCH_SLOTS = {"review": 2, "rate": 16, "threshold_at": 4, "license": 12,
               "machine": 4, "policy": 16, "scenario": 10}
BATCH_DUPLICATES = 8
#: Policy and scenario slots ask about the most popular points only: the
#: warm-up touches them all, so no envelope of the timed phase builds a
#: tile.  Were a few envelopes to build one, the tail percentile would
#: sit on the edge between those and the rest and swing from run to run.
BATCH_HOT = {"policy": 24, "scenario": 12}


def _fresh_batch(rng: random.Random, zipf: dict[str, _Zipf]) -> list[dict]:
    """One 64-slot envelope: a review year shared by rate/threshold_at
    slots (review -> era reuse), fresh rate clocks and license pairs,
    popular policy/scenario points, and duplicates of earlier slots."""
    year = rng.choice(_steps(1986.0, 1999.0, 0.25))
    slots: list[dict] = []
    for _ in range(BATCH_SLOTS["review"]):
        slots.append({"endpoint": "review", "year": year,
                      "policy": rng.choice(POLICIES)})
    for k in range(BATCH_SLOTS["rate"]):
        slots.append({
            "endpoint": "rate",
            "clock_mhz": round(rng.uniform(20.0, 300.0), 3),
            "processors": rng.choice((1, 2, 4, 8, 16, 32, 64, 128)),
            "coupling": rng.choice(("shared", "distributed")),
            "year": year if k % 2 == 0 else rng.choice(
                _steps(1986.0, 1999.0, 0.25)),
        })
    for k in range(BATCH_SLOTS["threshold_at"]):
        slots.append({"endpoint": "threshold_at",
                      "year": year if k == 0 else round(
                          rng.uniform(1985.0, 1999.0), 3)})
    for _ in range(BATCH_SLOTS["license"]):
        slots.append({"endpoint": "license",
                      "machine": rng.choice(MACHINES),
                      "destination": rng.choice(DESTINATIONS),
                      "threshold_mtops": round(rng.uniform(100.0, 20000.0),
                                               1)})
    for _ in range(BATCH_SLOTS["machine"]):
        slots.append({"endpoint": "machine", **zipf["machine"].draw(rng)})
    for endpoint, hot in BATCH_HOT.items():
        for _ in range(BATCH_SLOTS[endpoint]):
            slots.append({"endpoint": endpoint, **rng.choice(
                zipf[endpoint].universe[:hot])})
    for _ in range(BATCH_DUPLICATES):
        slots[rng.randrange(len(slots))] = dict(
            slots[rng.randrange(len(slots))])
    rng.shuffle(slots)
    return slots


def _http_batch(seed: int):
    rng = random.Random(seed)
    zipf = _universes()
    while True:
        slots = _fresh_batch(rng, zipf)
        yield Op("batch", "batch", {"requests": slots}, len(slots))


#: One read cycle between two ``/catalog/append`` writes: letters name
#: the cycle's keys (a policy point a, a scenario point c, license pairs
#: l/m, a review r), each drawn afresh per cycle.  Every cycle asks the
#: same number of new tile-plane questions, so each write is followed by
#: the same amount of tile rebuilding (a quarter of the reads) and the
#: median read stays clear of the rebuilding ones; the repeats hit the
#: response cache until the next write purges it.
CHURN_CYCLE = "aclrmacl"
CHURN_KEYS = {"a": "policy", "c": "scenario", "l": "license",
              "m": "license", "r": "review"}


def _machine_payload(seed: int, k: int, clock: float) -> dict:
    return {"vendor": "Bench", "model": f"S{seed}-{k}", "country": "USA",
            "year": 1995.5, "architecture": "MPP", "n_processors": 64,
            "element": {"name": "bench cpu", "clock_mhz": clock,
                        "word_bits": 64, "fp_ops_per_cycle": 2,
                        "int_ops_per_cycle": 1}}


def _churn_writes(seed: int, rng: random.Random):
    """append_machine, amend_machine of the machine just appended, then
    amend_threshold on an existing era start, round robin."""
    for k in itertools.count():
        clock = round(rng.uniform(50.0, 300.0), 1)
        yield Op("write", "catalog_append",
                 {"event": "append_machine",
                  "machine": _machine_payload(seed, k, clock)})
        amended = _machine_payload(seed, k, round(clock * 1.25, 1))
        yield Op("write", "catalog_append",
                 {"event": "amend_machine", "key": f"Bench S{seed}-{k}",
                  "machine": amended})
        start, base = ERAS[k % len(ERAS)]
        # Successive amends of one era use different factors, so each
        # one really applies and bumps the epoch.
        factor = 1.0 + 0.01 * ((k // len(ERAS)) % 4 + 1)
        yield Op("write", "catalog_append",
                 {"event": "amend_threshold", "start_year": start,
                  "threshold_mtops": round(base * factor, 2)})


def _http_churn(seed: int):
    rng = random.Random(seed)
    zipf = _universes()
    writes = _churn_writes(seed, random.Random(seed + 1))
    while True:
        keys: dict[str, dict] = {}
        for letter in sorted(CHURN_KEYS):
            endpoint = CHURN_KEYS[letter]
            payload = zipf[endpoint].draw(rng)
            while payload in keys.values():  # l and m are distinct
                payload = zipf[endpoint].draw(rng)
            keys[letter] = payload
        for letter in CHURN_CYCLE:
            yield Op("read", CHURN_KEYS[letter], keys[letter])
        yield next(writes)


MCP_MIX = {"rate_config": 0.4, "policy_scorecard": 0.3,
           "threshold_at": 0.2, "batch": 0.1}
#: Fresh rate slots per ``mcp_agent`` batch call.
MCP_BATCH_RATES = 6


def _fresh_rate(rng: random.Random) -> dict:
    """A rate question no earlier request asked (a float clock)."""
    return {"clock_mhz": round(rng.uniform(20.0, 300.0), 3),
            "processors": rng.choice((1, 2, 4, 8, 16, 32, 64, 128)),
            "coupling": rng.choice(("shared", "distributed")),
            "year": rng.choice(_steps(1990.0, 1998.0, 0.5))}


def _mcp_agent(seed: int):
    """Single calls draw Zipf keys; every batch call has the same shape
    and cost: fresh rate and threshold_at slots (one fused CTP pass and
    one era bisect, never cached) and one hot, tile-cached policy point.
    The batch calls are the slowest tenth of the stream, so the tail
    percentile sits inside them; were their size and cache luck drawn at
    random, it would sit on the sparse edge of that spread and swing from
    run to run."""
    rng = random.Random(seed)
    zipf = _universes()
    while True:
        method = _weighted(rng, MCP_MIX)
        if method == "batch":
            slots = [{"endpoint": "rate", **_fresh_rate(rng)}
                     for _ in range(MCP_BATCH_RATES)]
            slots.append({"endpoint": "threshold_at",
                          "year": round(rng.uniform(1985.0, 1999.0), 3)})
            slots.append({"endpoint": "policy", **rng.choice(
                zipf["policy"].universe[:BATCH_HOT["policy"]])})
            yield Op("batch", "batch", {"requests": slots}, len(slots))
        else:
            yield Op("read", method,
                     zipf[RPC_ENDPOINTS[method]].draw(rng))


GENERATORS = {
    "http_interactive": _http_interactive,
    "http_batch": _http_batch,
    "http_churn": _http_churn,
    "mcp_agent": _mcp_agent,
}

#: Closed-loop clients per workload (each waits for its reply).
CLIENTS = {"http_interactive": 2, "http_batch": 1, "http_churn": 1,
           "mcp_agent": 1}


class Stream:
    """Thread-safe, replayable cursor over one workload's operations.

    Every operation ever generated stays in :attr:`ops`, so a second
    pass (:meth:`rewind`) hands out the very same requests and the
    oracle can replay any prefix.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self._gen = GENERATORS[workload](seed)
        self._lock = threading.Lock()
        self._cursor = 0
        self.ops: list[Op] = []

    def take(self) -> tuple[int, Op]:
        """The next operation, with its index in the stream."""
        with self._lock:
            index = self._cursor
            while len(self.ops) <= index:
                self.ops.append(next(self._gen))
            self._cursor += 1
            return index, self.ops[index]

    def rewind(self) -> None:
        """Start handing out operations from the first one again."""
        with self._lock:
            self._cursor = 0
