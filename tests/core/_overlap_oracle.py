"""Brute-force Lemma 2 oracle: try every combination of false intervals.

Exponential in the number of processes, so it only serves tests, as an
implementation of "an overlapping set exists" that is independent of the
Figure 2 cursor walk behind :func:`repro.core.find_overlapping_intervals`.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence, Tuple

from repro.core import overlap
from repro.predicates import FalseInterval
from repro.trace import Deposet


def brute_force_overlapping(
    dep: Deposet, interval_lists: Sequence[Sequence[FalseInterval]]
) -> Optional[Tuple[FalseInterval, ...]]:
    """The first overlapping set in product order, or ``None``."""
    if any(len(lst) == 0 for lst in interval_lists):
        return None
    order = dep.order
    for combo in product(*interval_lists):
        if overlap(dep, combo, order):
            return tuple(combo)
    return None
