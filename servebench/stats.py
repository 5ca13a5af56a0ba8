"""Percentiles and /proc sampling shared by the benchmark's runs."""

from __future__ import annotations

import math
import os
import statistics

#: A tail percentile is reported only where at least this many samples
#: lie beyond it.
MIN_BEYOND = 10


def tail(samples: list[float], q: float = 0.99,
         min_beyond: int = MIN_BEYOND) -> tuple[float, float]:
    """``(value, percentile)``: the ``q`` quantile, or the highest
    quantile below it that still has ``min_beyond`` samples beyond it.

    Nearest-rank on the sorted samples; the returned percentile says
    which one was reported, so a short run cannot pass off its maximum
    as a p99.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= min_beyond:
        raise ValueError(f"{n} samples cannot support a tail percentile "
                         f"with {min_beyond} beyond it")
    index = min(max(0, math.ceil(q * n) - 1), n - 1 - min_beyond)
    return ordered[index], 100.0 * (index + 1) / n


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as fh:
        # Fields after the parenthesised command name; utime and stime
        # are fields 14 and 15 of the whole line.
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
