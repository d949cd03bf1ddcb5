"""Arithmetic of the repo benchmark: quantiles, open-loop latency, span
self time, failure share, tracing overhead.

Kept free of I/O so test_benchlib.py can pin every rule run.py reports by.
"""

import math
import statistics

MIN_BEYOND = 10  # samples a reported tail percentile must have beyond it


def _as_latency(value):
    """A missing sample (refused or lost request) misses any limit."""
    return math.inf if value is None or math.isnan(value) else value


def nearest_rank(values, q):
    """Nearest-rank quantile: the ceil(q * n)-th smallest sample (q in [0, 1]).

    None or NaN samples count as +inf (a refused request misses any limit).
    """
    if not values:
        raise ValueError("nearest_rank of no samples")
    ordered = sorted(_as_latency(v) for v in values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n, target):
    """The percentile to report as the tail of n samples.

    The highest percentile not above `target` that has at least MIN_BEYOND
    samples beyond its nearest rank. Returns None when n is too small for
    any (then the worst sample is reported instead), and None as well for
    target 0, which asks for the worst sample directly.
    """
    if target <= 0 or n <= MIN_BEYOND:
        return None
    if n - math.ceil(target * n - 1e-9) >= MIN_BEYOND:
        return target
    # Largest q with ceil(q * n) == n - MIN_BEYOND.
    return (n - MIN_BEYOND) / n


def tail(values, target):
    """(value, percentile or None for the worst sample, sample count)."""
    q = tail_percentile(len(values), target)
    if q is None:
        return max(_as_latency(v) for v in values), None, len(values)
    return nearest_rank(values, q), q, len(values)


def latency_summary(groups, target):
    """(p50, tail, label) of latency samples in groups (passes, or windows
    of consecutive requests).

    When every group alone has enough samples for the target percentile,
    each group is summarized on its own and the medians across groups are
    reported, so one disturbed group cannot move the run's tail. Otherwise
    the samples are pooled and summarized by `tail`.
    """
    sizes = {len(g) for g in groups}
    if target > 0 and len(sizes) == 1 and \
            tail_percentile(sizes.pop(), target) == target:
        p50 = statistics.median(nearest_rank(g, 0.5) for g in groups)
        high = statistics.median(nearest_rank(g, target) for g in groups)
        return p50, high, (f"p{100 * target:.4g} of n={len(groups[0])} per "
                           f"group, median of {len(groups)} groups")
    pooled = [v for g in groups for v in g]
    high, q, n = tail(pooled, target)
    label = "worst" if q is None else f"p{100 * q:.4g}"
    return nearest_rank(pooled, 0.5), high, f"{label} of n={n}"


def due_time_latencies(due_s, done_s):
    """Open-loop latency of each request, measured from when it was due.

    Timing from the due time (not from the actual submit) charges a stall
    of the submitter or of the system to every request scheduled behind
    it. A request with no completion (done None) gets None: refused.
    """
    return [None if done is None else done - due
            for due, done in zip(due_s, done_s)]


def fail_frac(attempted, failed):
    """Share of attempted operations that failed, were refused or shed."""
    if attempted <= 0:
        raise ValueError("fail_frac needs at least one attempted operation")
    return failed / attempted


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its children (union of the child intervals, clipped to the
    parent, so nested and back-to-back children are not double counted).

    `spans` is a list of dicts with keys i, parent, t0, t1; returns a dict
    i -> self seconds.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    result = {}
    for s in spans:
        lo, hi = s["t0"], s["t1"]
        covered = 0.0
        end = lo
        for c0, c1 in sorted(children.get(s["i"], [])):
            c0, c1 = max(c0, end), min(c1, hi)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        result[s["i"]] = (hi - lo) - covered
    return result


def unattributed_share(spans, root_prefix="pass."):
    """Share of the workload's root-span time that no child span covers."""
    selfs = self_times(spans)
    roots = [s for s in spans
             if s["parent"] == -1 and s["name"].startswith(root_prefix)]
    total = sum(s["t1"] - s["t0"] for s in roots)
    if total <= 0:
        return 0.0
    return sum(selfs[s["i"]] for s in roots) / total


def overhead_pct(untraced_cost, traced_cost):
    """Tracing overhead: traced vs untraced median pass cost, in percent."""
    base = statistics.median(untraced_cost)
    return 100.0 * (statistics.median(traced_cost) / base - 1.0)


def spread(values):
    """Inter-quartile range over the median (the benchmark's noise rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
