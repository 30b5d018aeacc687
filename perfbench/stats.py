"""Order statistics used by every metric."""


def percentile(sorted_xs, p):
    """The [p]th percentile (0..100) of an ascending sequence, interpolated
    linearly between closest ranks (numpy's default method)."""
    n = len(sorted_xs)
    if n == 0:
        raise ValueError("percentile of no samples")
    pos = (n - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def median(xs):
    return percentile(sorted(xs), 50)


def beyond(n, p):
    """How many of [n] samples lie above the [p]th percentile."""
    return n - 1 - int((n - 1) * p / 100.0)
