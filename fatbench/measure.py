"""The benchmark's arithmetic: percentiles, failure ratios, host speed, span self time.

Pure functions over plain numbers so the test suite can pin every rule
without running a workload.  Spans are ``(span_id, parent_id, name,
start, end)`` tuples; ``parent_id`` is ``-1`` for a top-level span.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, float, float]

#: Percentiles the tail rule picks from, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0)
#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample (mean of the middle two if even)."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q``% at or below it.

    Always a measured value, never an interpolation between two samples.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it.

    ``n * (1 - q/100) >= 10`` samples must exceed percentile ``q`` for it
    to say anything about the tail; below 100 samples no ladder rung
    qualifies and only the median is reported.
    """
    for q in TAIL_LADDER:
        # Rounded so 99.9 % of 10 000 counts as exactly 10 samples beyond.
        if round(n * (100.0 - q) / 100.0, 9) >= TAIL_MIN_BEYOND:
            return q
    return None


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, sample count and (when the count allows) the tail percentile."""
    out: Dict[str, float] = {"p50": median(values), "n": len(values)}
    q = tail_percentile(len(values))
    if q is not None:
        out[f"p{q:g}"] = percentile(values, q)
    return out


def ops_failed_ratio(attempted: int, failed: int) -> float:
    """Failed or aborted operations over those attempted."""
    if attempted < 1:
        raise ValueError("attempted must be >= 1")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed must be in [0, {attempted}], got {failed}")
    return failed / attempted


def host_adjusted(seconds: float, calib_s: float, reference_s: float) -> float:
    """A wall time rescaled to the reference host speed.

    ``calib_s`` is the calibration kernel's time around the measurement and
    ``reference_s`` its time on the reference host: a host running at half
    speed doubles both the measurement and ``calib_s``.
    """
    if calib_s <= 0 or reference_s <= 0:
        raise ValueError("calibration times must be positive")
    return seconds * reference_s / calib_s


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clip(intervals: Iterable[Tuple[float, float]], lo: float, hi: float):
    for start, end in intervals:
        start, end = max(start, lo), min(end, hi)
        if end > start:
            yield start, end


def self_times(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total time and self time.

    A span's self time is its duration minus the part of its interval
    that its direct child spans cover (children clipped to the parent and
    merged, so overlapping or adjacent children are not counted twice).
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: Dict[str, Dict[str, float]] = {}
    for sid, _parent, name, start, end in spans:
        covered = union_length(_clip(children.get(sid, ()), start, end))
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - covered
    return out


def round_windows(starts: Sequence[float], run_end: float) -> List[Tuple[float, float]]:
    """Round intervals: each round runs to the next round's start or run end."""
    bounds = list(starts) + [run_end]
    if any(b < a for a, b in zip(bounds, bounds[1:])):
        raise ValueError("round starts must be ordered and precede run end")
    return list(zip(bounds, bounds[1:]))


def uncovered_share(
    windows: Sequence[Tuple[float, float]], spans: Sequence[Span]
) -> float:
    """Share of the windows' wall time that no top-level span covers.

    Only top-level spans matter: a child always lies inside its parent.
    """
    top = [(start, end) for _sid, parent, _name, start, end in spans if parent < 0]
    wall = sum(end - start for start, end in windows)
    if wall <= 0:
        raise ValueError("windows cover no time")
    covered = sum(union_length(_clip(top, lo, hi)) for lo, hi in windows)
    return (wall - covered) / wall
