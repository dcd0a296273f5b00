"""Order statistics for latency samples.

A tail percentile is only reported when the sample supports it: at
least ``MIN_BEYOND`` samples must lie strictly above the chosen rank,
otherwise the percentile is really the maximum of a handful of
outliers.  Callers get the sample count alongside every value.
"""

import math

MIN_BEYOND = 10


def _rank(q, n):
    """1-based nearest rank of the ``q``-quantile among ``n`` samples
    (the epsilon keeps 0.95 * 200 from rounding up to rank 191)."""
    return max(math.ceil(q * n - 1e-9), 1)


def percentile(samples, q):
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``samples``.

    Returns ``(value, n)`` where ``n`` is the sample count, or
    ``(None, n)`` when fewer than ``MIN_BEYOND`` samples lie beyond the
    rank (the tail is too thin to estimate).  ``samples`` need not be
    sorted.
    """
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1")
    n = len(samples)
    rank = _rank(q, n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None, n
    return sorted(samples)[rank - 1], n

