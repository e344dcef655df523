"""Order statistics and the parent/change comparison rule.

Every timing the benchmark reports is a median over samples with its
quartiles and sample count; a tail is a nearest-rank percentile that must
have at least :data:`MIN_BEYOND` samples beyond it, so a reported tail is
never a single outlier.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

#: A percentile is only reported when this many samples lie beyond it.
MIN_BEYOND = 10

IMPROVED = "improved"
UNCHANGED = "unchanged"
REGRESSED = "regressed"
UNRESOLVED = "unresolved"


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The nearest-rank ``percent`` percentile of ``values``.

    Raises :class:`ValueError` when fewer than :data:`MIN_BEYOND` samples
    lie beyond the rank, because such a "percentile" is one of a handful of
    extreme samples rather than a property of the distribution.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{percent:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}",
        )
    return ordered[rank - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile and count of ``values``."""
    if not values:
        raise ValueError("no samples")
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a zero median)."""
    summary = summarize(values)
    if summary["median"] == 0:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``.

    Positive means worse under the metric's direction (``"lower"`` or
    ``"higher"`` is better), negative means better.
    """
    if base == 0:
        return 0.0 if new == 0 else math.copysign(math.inf, _signed(new, better))
    return _signed(new - base, better) / abs(base)


def _signed(delta: float, better: str) -> float:
    return delta if better == "lower" else -delta


def classify(
    base_runs: List[float], new_runs: List[float], better: str, bound: float
) -> str:
    """Classify one (metric, workload) from paired parent/change run values.

    ``base_runs[i]`` and ``new_runs[i]`` are the medians of the i-th parent
    and change run.  The change regressed when its median is worse than the
    parent's by more than ``bound``.  With ten or more pairs it improved when
    it wins at least nine tenths of the pairs (ties count for neither side)
    and the medians differ by more than the parent's interquartile distance;
    with fewer pairs, when it is better by more than ``bound``.  When the
    parent's own spread exceeds ``bound`` the metric is unresolved, unless
    every change run beats every parent run.
    """
    if len(base_runs) != len(new_runs) or not base_runs:
        raise ValueError("need the same positive number of parent and change runs")
    base_median = statistics.median(base_runs)
    new_median = statistics.median(new_runs)
    change = worsening(base_median, new_median, better)
    if change > bound:
        return REGRESSED
    if len(base_runs) >= 10:
        wins = sum(
            1 for b, n in zip(base_runs, new_runs) if worsening(b, n, better) < 0
        )
        base = summarize(base_runs)
        gap = abs(new_median - base_median)
        if wins >= 0.9 * len(base_runs) and gap > base["q3"] - base["q1"]:
            return IMPROVED
    elif change < -bound:
        return IMPROVED
    if len(base_runs) >= 2 and relative_spread(base_runs) > bound:
        if max(worsening(b, n, better) for b in base_runs for n in new_runs) < 0:
            return IMPROVED
        return UNRESOLVED
    return UNCHANGED
