"""Order statistics used by the benchmark and its compare command."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail_index(n: int) -> int:
    """0-based index, in ascending order, of the highest percentile that has
    at least ten samples beyond it; the maximum when there are ten or fewer."""
    if n < 1:
        raise ValueError("no samples")
    return n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail sample defined by ``tail_index``."""
    i = tail_index(len(samples))
    return sorted(samples)[i], 100.0 * (i + 1) / len(samples)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles``
    gives them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")
