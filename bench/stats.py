"""Percentile summaries for benchmark timings.

Every timing is reported as its median plus the highest tail percentile
that still has at least ``MIN_BEYOND`` samples beyond it, together with
the sample count.  With fewer samples a higher percentile would rest on
a handful of values and read as noise.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def tail_percentile(n: int) -> Optional[float]:
    """Highest percentile in ``TAIL_PERCENTILES`` with >= MIN_BEYOND samples beyond it.

    n=100 gives 90, n=200 gives 95, n=1000 gives 99; below 100 samples
    there is none.
    """
    best = None
    for q in TAIL_PERCENTILES:
        # Rounded so that 1000 * (100 - 99) / 100 compares as exactly 10.
        if round(n * (100.0 - q) / 100.0, 6) >= MIN_BEYOND:
            best = q
    return best


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sequence."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """``{"n", "p50", "tail_pct", "tail"}``; tail fields are None below 100 samples."""
    n = len(values)
    q = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        "tail_pct": q,
        "tail": percentile(values, q) if q is not None else None,
    }
