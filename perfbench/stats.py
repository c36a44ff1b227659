"""Timing calibration, latency percentiles and the comparison of two sets
of runs."""

from __future__ import annotations

import math
import statistics
import time


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def mul(self, other):
        return _Cell(self.v * other.v % 97)


CALIBRATION_NOMINAL_S = 0.002


def calibration_s() -> float:
    """Best of three timings of a fixed interpreter loop (object creation,
    method calls, modular products, dict stores: the mix of the library's
    boxed arithmetic); about 2 ms on an idle 2.1 GHz Xeon vCPU."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc, x, seen = _Cell(1), _Cell(3), {}
        for i in range(6000):
            acc = acc.mul(x)
            seen[i & 63] = (acc.v, i)
        best = min(best, time.perf_counter() - start)
    return best


def calibrated(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between calibration timings `before` and `after`,
    in calibrated seconds: seconds on a machine where the calibration loop
    takes exactly CALIBRATION_NOMINAL_S.  On a shared 2-vCPU Xeon VM the
    speed of the same code swings by up to 2x over a few seconds; the ratio
    takes that out."""
    return seconds * CALIBRATION_NOMINAL_S / ((before + after) / 2)


class Stopwatch:
    """Sums the raw and the calibrated seconds of the calls it times, each
    call bracketed by its own pair of calibration timings."""

    def __init__(self):
        self.raw = 0.0
        self.calibrated = 0.0

    def __call__(self, fn, *args):
        before = calibration_s()
        start = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - start
        self.raw += raw
        self.calibrated += calibrated(raw, before, calibration_s())
        return out


def _rank(p: float, n: int) -> int:
    """Nearest rank of percentile `p` among `n` samples (rounded first, so
    that 99.9% of 10000 is 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(p, len(sorted_values)) - 1]


PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def tail_percentile(n: int) -> float | None:
    """The highest percentile of the ladder with at least ten of `n`
    samples beyond it, or None when even the median has fewer (n < 20)."""
    best = None
    for p in PERCENTILE_LADDER:
        if n - _rank(p, n) >= 10:
            best = p
    return best


def latency_summary(samples) -> dict:
    """Median and tail of `samples`; below 20 samples the tail is the
    maximum, since no percentile has ten samples beyond it."""
    values = sorted(samples)
    p = tail_percentile(len(values))
    return {
        "samples": len(values),
        "p50": percentile(values, 50.0),
        "tail": percentile(values, p) if p is not None else values[-1],
        "tail_percentile": f"p{p:g}" if p is not None else "max",
    }


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(base, new, bound: float, better: str) -> dict:
    """Classify `new` against `base` (runs paired in order):

    * improved: the change wins at least 9/10 of the pairs (ties count for
      neither) and the medians differ by more than the distance between
      the base's quartiles;
    * worse: the change's median is worse than the base's by more than
      `bound` (a share of the base median);
    * unresolved: fewer than ten pairs, or the base's spread is wider than
      the bound and not every run of the change beats every base run;
    * unchanged: otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    change = sign * (nmed - bmed) / bmed if bmed else 0.0  # > 0 is better
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    out = {
        "pairs": len(pairs), "wins": wins,
        "base": {"q1": bq1, "median": bmed, "q3": bq3},
        "new": {"q1": nq1, "median": nmed, "q3": nq3},
        "ratio": nmed / bmed if bmed else math.inf,
        "base_spread": (bq3 - bq1) / bmed if bmed else math.inf,
    }
    if len(pairs) < MIN_PAIRS:
        out["verdict"] = "unresolved"
        out["why"] = f"{len(pairs)} pairs, at least {MIN_PAIRS} needed"
    elif wins >= WIN_SHARE * len(pairs) and abs(nmed - bmed) > bq3 - bq1 and change > 0:
        out["verdict"], out["why"] = "improved", f"won {wins}/{len(pairs)} pairs"
    elif change < -bound:
        out["verdict"], out["why"] = "worse", f"median worse by {-change:.1%} > bound {bound:.0%}"
    elif out["base_spread"] > bound and not all_better:
        out["verdict"] = "unresolved"
        out["why"] = f"base spread {out['base_spread']:.1%} wider than bound {bound:.0%}"
    else:
        out["verdict"], out["why"] = "unchanged", f"within bound {bound:.0%}"
    return out
