"""Per-layer counts from two ``/metrics`` snapshots of one phase."""

from __future__ import annotations

from stats import ratio


def _batched(stats: dict) -> int:
    return sum(int(size) * count
               for size, count in stats["batch_size_histogram"].items())


def counter_deltas(before: dict, after: dict) -> dict[str, float]:
    """The per-layer counts of one phase, by metric name.

    ``before``/``after`` are ``GET /metrics`` bodies (or
    ``ServiceEngine.metrics()``, the same dict, where no HTTP front end
    exists).
    """
    sb, sa = before["serve"], after["serve"]

    def delta(path: tuple, b=sb, a=sa) -> float:
        for key in path:
            b, a = b.get(key, {}), a.get(key, {})
        return (a or 0) - (b or 0)

    hits = delta(("cache", "hits"))
    misses = delta(("cache", "misses"))
    dispatches = sum(delta(("batchers", name, "dispatches"))
                     for name in sa["batchers"])
    batched = sum(_batched(sa["batchers"][name])
                  - _batched(sb["batchers"][name])
                  for name in sa["batchers"])
    out = {
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.evictions": delta(("cache", "evictions")),
        "cache.purges": delta(("cache", "purges")),
        "batching.mean_batch_size": ratio(batched, dispatches),
        "batching.dedup_hits": sum(delta(("batchers", name, "dedup_hits"))
                                   for name in sa["batchers"]),
        "plan.cse_ratio": ratio(delta(("plan", "cse_hits")),
                                delta(("plan", "queries"))),
        "plan.reuse_hits": delta(("plan", "reuse_hits")),
        "plan.ops_fused": delta(("plan", "ops_fused")),
        "tiles.builds": sum(delta(("tiles", plane, "builds"))
                            for plane in sa["tiles"]),
        "tiles.partial_builds": sum(delta(("tiles", plane, "partial_builds"))
                                    for plane in sa["tiles"]),
        "catalog.epoch_bumps": delta(("catalog_epoch",)),
    }
    for plane in ("policy", "scenario"):
        t_hits = delta(("tiles", plane, "cache", "hits"))
        t_misses = delta(("tiles", plane, "cache", "misses"))
        out[f"tiles.{plane}.hit_ratio"] = ratio(t_hits, t_hits + t_misses)
    grid = "scenarios.grid_builds"
    out[grid] = (after["counters"].get(grid, 0)
                 - before["counters"].get(grid, 0))
    c_hits = delta(("hits",), before["credit_cache"], after["credit_cache"])
    c_misses = delta(("misses",), before["credit_cache"],
                     after["credit_cache"])
    out["ctp.credit_cache_hit_ratio"] = ratio(c_hits, c_hits + c_misses)
    return out
