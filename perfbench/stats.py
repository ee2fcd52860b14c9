"""Pure bookkeeping shared by the benchmark, its report and its self-tests.

Nothing here reads a clock or touches the program under test: every
function takes measured values as arguments, so the rules (tail
percentile, failure accounting, fingerprint refusal, bound check) are
tested with injected numbers.
"""

from __future__ import annotations

import math
import re
import statistics

# Fallback warnings the runtime emits when it runs a different program
# than the one asked for (native -> python, threaded -> serial, fused ->
# per-statement, shard -> single, batch -> singles).  An op that sees one
# counts as failed: a silent fallback measures another program.
DEGRADATION_PATTERN = re.compile(
    r"falling back|fell back|degraded|fallback", re.IGNORECASE
)

# The daemon's resource tracker names every shared-memory segment it
# attached but did not unlink when it shuts down.
SHM_LEAK_PATTERN = re.compile(
    r"There appear to be (\d+) leaked shared_memory objects"
)

# Fingerprint fields that must match for two records to be compared.
FINGERPRINT_KEYS = (
    "cpu_model",
    "cpu_count",
    "l2_bytes",
    "l3_bytes",
    "compiler",
    "python",
    "numpy",
    "native_threads",
)

TAIL_BEYOND = 10
# Above p95 the tail of a sub-millisecond op is set by the hypervisor
# taking the CPU away (1-2% steal on the machine this was written on),
# not by the program: over ten runs of 60 000 ensemble steps the
# 11th-largest spread by 2x its median, p99 by 0.27 and p90 by 0.09.
TAIL_CAP = 95.0


def median(values):
    return statistics.median(values)


def tail(samples, beyond: int = TAIL_BEYOND, cap: float = TAIL_CAP) -> dict:
    """The highest percentile with at least *beyond* samples above it,
    capped at *cap*.

    Percentiles are nearest-rank: percentile ``p`` of ``N`` sorted
    samples is the one at index ``ceil(p / 100 * N) - 1``.  Uncapped,
    the highest qualifying percentile is ``100 * (1 - beyond / N)``, the
    sample with exactly *beyond* samples above it; the cap takes over
    once ``N`` exceeds ``100 * beyond / (100 - cap)`` (1000 samples for
    the defaults), so the two rules agree where they meet.  With
    ``N <= beyond`` no percentile qualifies; the maximum is reported
    instead and labelled ``max``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= beyond:
        return {"value": ordered[-1], "percentile": "max", "samples": n,
                "beyond": 0}
    pct = min(cap, 100.0 * (1.0 - beyond / n))
    index = max(0, math.ceil(round(pct / 100.0 * n, 9)) - 1)
    return {
        "value": ordered[index],
        "percentile": f"p{pct:.2f}",
        "samples": n,
        "beyond": n - 1 - index,
    }


def count_failures(attempted: int, failed_ops: int,
                   setup_degradations: int = 0, reference_ok: bool = True,
                   service_faults: int = 0) -> dict:
    """``attempted``, ``failed`` and ``fail_frac`` of a run.

    *failed_ops* counts ops that raised or timed out, failed their
    output check, or saw a degradation warning while they ran.  A
    degradation during set-up or a failed reference check fails every
    op, since each of them then ran or was checked against another
    program.  *service_faults* adds failures the server counted but no
    single client op can see (dropped connections, batch fallbacks);
    the total never exceeds ``attempted``.  A run that attempted
    nothing has failed entirely.
    """
    if attempted == 0:
        return {"attempted": 0, "failed": 0, "fail_frac": 1.0}
    if setup_degradations or not reference_ok:
        failed = attempted
    else:
        failed = min(attempted, failed_ops + service_faults)
    return {"attempted": attempted, "failed": failed,
            "fail_frac": failed / attempted}


def count_degradations(messages) -> int:
    return sum(1 for m in messages if DEGRADATION_PATTERN.search(m))


def shm_tracked(stderr_text: str) -> int:
    """Segments named by the resource tracker's shutdown warning (0 if none)."""
    return sum(int(m) for m in SHM_LEAK_PATTERN.findall(stderr_text))


def fingerprint_mismatch(a: dict, b: dict) -> list[str]:
    """Fingerprint fields on which two records differ (empty: comparable)."""
    return [
        f"{key}: {a.get(key)!r} != {b.get(key)!r}"
        for key in FINGERPRINT_KEYS
        if a.get(key) != b.get(key)
    ]


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def worse_by(base_values, new_values, better: str) -> float:
    """How much worse the new median is than the base median, as a share.

    Negative when the new side is better.
    """
    base = statistics.median(base_values)
    new = statistics.median(new_values)
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def check_bound(base_values, new_values, better: str, bound: float) -> dict:
    """The benchmark's regression rule for one metric on one workload.

    ``regressed`` when the new median is worse than the base median by
    more than *bound*.  When the base's own spread is wider than the
    bound that verdict needs every new run to read worse than every
    base run, and a run that is neither clearly worse nor clearly
    better (every new run better than every base run) is
    ``unresolved``.
    """
    worse = worse_by(base_values, new_values, better)
    noisy = spread(base_values) > bound
    sign = 1 if better == "lower" else -1
    base_signed = [sign * v for v in base_values]
    new_signed = [sign * v for v in new_values]
    all_better = max(new_signed) < min(base_signed)
    all_worse = min(new_signed) > max(base_signed)
    if worse > bound and (all_worse or not noisy):
        verdict = "regressed"
    elif noisy and not all_better:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"verdict": verdict, "worse_by": worse,
            "base_spread": spread(base_values)}
