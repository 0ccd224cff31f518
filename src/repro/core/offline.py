"""Off-line predicate control for disjunctive predicates (Figure 2).

Given a traced computation and ``B = l_1 v ... v l_n``, either emit a
control relation whose controlled deposet satisfies ``B``, or raise
:class:`~repro.errors.NoControllerExistsError` when an overlapping set of
false-intervals makes ``B`` infeasible (Lemma 2).

The algorithm walks a cursor ``g`` of "interesting" positions (``bottom``,
interval ``lo``/``hi`` states, ``top``) forward from ``bottom``, building a
chain of alternating true-intervals and backward control arrows:

* each iteration picks ``<k', l>`` from ``ValidPairs`` -- a process ``k'``
  that is currently true and whose next false-interval cannot be dragged in
  while the next false-interval of ``l`` is crossed (``crossable``);
* it records the chain arrow ``g[k'] C-> next(k)`` tying the previous
  anchor ``k``'s permission to advance to ``k'`` having been reached;
* it crosses ``N(l)`` by advancing every process through all positions that
  causally precede ``N(l).hi``.

Since any global state must intersect the finished chain, it is either
inconsistent (intersects a backward arrow) or satisfies ``B`` (intersects a
true interval).

Cursor semantics: ``g[i]`` is the last *completed* interesting state of
``P_i``; sitting at an interval's ``hi`` means the interval has been
crossed, so only positions at an interval's ``lo`` count as "false".

Two variants are provided for experiment E4's ablation:

* ``optimized`` -- maintains ``ValidPairs`` incrementally, re-examining
  only pairs whose ``N``/truth changed: ``O(n^2 p)`` happened-before checks;
* ``naive`` -- recomputes ``ValidPairs`` from scratch each iteration:
  ``O(n^3 p)`` checks, as discussed in the paper's Section 5 evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.causality.relations import CausalOrder, StateRef
from repro.core.control_relation import ControlRelation
from repro.errors import NoControllerExistsError
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.predicates.disjunctive import DisjunctivePredicate
from repro.predicates.intervals import FalseInterval, false_intervals
from repro.trace.deposet import Deposet

__all__ = ["OfflineResult", "control_disjunctive"]

_SOLVES = METRICS.counter("offline.solves")
_INFEASIBLE = METRICS.counter("offline.infeasible")
_ARROWS = METRICS.counter("offline.arrows")
_ITERATIONS = METRICS.counter("offline.iterations")
_PAIR_CHECKS = METRICS.counter("offline.pair_checks")


@dataclass
class OfflineResult:
    """Outcome of a successful off-line control run.

    Attributes
    ----------
    control:
        The control relation (a chain; at most one arrow per iteration, so
        ``len(control) <=`` total number of false-intervals).
    iterations:
        Outer-loop iterations executed (each crosses >= 1 false-interval).
    pair_checks:
        Number of ``crossable`` evaluations performed -- the work measure
        separating the optimized and naive variants in experiment E4.
    variant:
        ``"optimized"`` or ``"naive"``.
    """

    control: ControlRelation
    iterations: int
    pair_checks: int
    variant: str


class _Cursor:
    """The global cursor ``g`` over interesting positions."""

    __slots__ = ("dep", "order", "intervals", "iv", "at_lo", "pos")

    def __init__(
        self,
        dep: Deposet,
        order: CausalOrder,
        intervals: Sequence[Sequence[FalseInterval]],
    ):
        self.dep = dep
        self.order = order
        self.intervals = intervals
        n = dep.n
        #: index of N(i) into intervals[i]; == len -> N(i) = null
        self.iv = [0] * n
        #: is g[i] sitting at N(i).lo (the paper's ``false(i)``)?
        self.at_lo = [
            bool(intervals[i]) and intervals[i][0].lo == 0 for i in range(n)
        ]
        #: state index of g[i] (last completed interesting state)
        self.pos = [0] * n

    def next_interval(self, i: int) -> Optional[FalseInterval]:
        """``N(i)``: the next false-interval at or after ``g[i]``."""
        if self.iv[i] < len(self.intervals[i]):
            return self.intervals[i][self.iv[i]]
        return None

    def true_from_bottom(self, i: int) -> bool:
        """Has ``P_i`` been true in every state from ``bottom_i`` so far?

        This is the sound reading of the paper's ``g[k'] = bottom_{k'}``
        chain-reset test: the chain may restart at ``k'`` only when the
        whole prefix of ``k'`` is true.  (Comparing raw positions would
        misfire when a false interval *ends* at state 0 -- crossing the
        single-state interval ``[0..0]`` leaves the cursor at ``bottom``
        even though ``bottom`` itself is false.)
        """
        return self.iv[i] == 0 and not self.at_lo[i]

    def next_state(self, i: int) -> StateRef:
        """``next(i)``: the interesting state after ``g[i]``."""
        nxt = self.next_interval(i)
        if nxt is None:
            return self.dep.top(i)
        return nxt.hi_ref if self.at_lo[i] else nxt.lo_ref

    def advance_through(self, target: StateRef, changed: Set[int]) -> None:
        """Advance ``g`` consistently with causality while crossing ``target``.

        Each process is moved through every interesting position that is
        necessarily entered once ``target`` is entered
        (:meth:`CausalOrder.enters_before` -- the entered-level relation;
        the state-level ``->=`` would be half a step too lazy and leave a
        cursor claiming "true" for a process that any permitted execution
        has already dragged into its false interval).  Records in
        ``changed`` each process whose ``N``/truth moved.
        """
        for i in range(self.dep.n):
            while True:
                nxt_iv = self.next_interval(i)
                if nxt_iv is None:
                    break  # only top remains; top never precedes target
                if self.at_lo[i]:
                    # Inside the interval: it counts as crossed only once
                    # its *exit* (entering hi+1) is forced by the target.
                    if nxt_iv.hi == self.dep.state_counts[i] - 1:
                        break  # an interval ending at top is never exited
                    exit_ref = StateRef(i, nxt_iv.hi + 1)
                    if not self.order.enters_before(exit_ref, target):
                        break
                    self.pos[i] = nxt_iv.hi
                    self.at_lo[i] = False
                    self.iv[i] += 1
                else:
                    # Before the interval: entering its lo may be forced.
                    if not self.order.enters_before(nxt_iv.lo_ref, target):
                        break
                    self.pos[i] = nxt_iv.lo
                    self.at_lo[i] = True
                changed.add(i)

    # -- the paper's pair predicates at the current cursor --------------------

    def crossable_pair(self, i: int, j: int) -> bool:
        """``true(i) and crossable(N(i), N(j))`` (requires both N non-null).

        ``crossable`` uses the entered-level relation: crossing ``N(j)``
        (entering its last state) must not force ``N(i).lo`` to have been
        entered, otherwise ``i`` cannot be relied on to stay true.
        """
        if i == j or self.at_lo[i]:
            return False
        ni = self.next_interval(i)
        nj = self.next_interval(j)
        if ni is None or nj is None:
            return False
        if ni.lo == 0 or nj.hi == self.dep.state_counts[j] - 1:
            return False
        # Crossing N(j) means *exiting* it -- entering state hi+1 -- and
        # that exit must not force N(i).lo to have been entered.
        exit_ref = StateRef(j, nj.hi + 1)
        return not self.order.enters_before(ni.lo_ref, exit_ref)


def control_disjunctive(
    dep: Deposet,
    pred: DisjunctivePredicate,
    variant: str = "optimized",
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> OfflineResult:
    """Solve off-line predicate control for a disjunctive predicate.

    Parameters
    ----------
    dep:
        The traced computation.  Any existing control relation on ``dep``
        participates in causality (so controls can be layered).
    pred:
        The disjunctive safety predicate.
    variant:
        ``"optimized"`` (incremental ``ValidPairs``) or ``"naive"``.
    seed / rng:
        Randomness for the paper's ``select`` -- different draws yield
        different (equally valid) controllers.  Defaults to deterministic
        first-element selection.

    Raises
    ------
    NoControllerExistsError
        If ``B`` is infeasible for ``dep``; the error's ``witness``
        attribute carries the current ``N(i)`` intervals (the overlapping
        set the proof of completeness exhibits).
    """
    if variant not in ("optimized", "naive"):
        raise ValueError(f"unknown variant {variant!r}")
    if rng is None and seed is not None:
        rng = np.random.default_rng(seed)
    with TRACER.span("offline.control", variant=variant, n=dep.n) as span:
        try:
            result = _solve(dep, false_intervals(dep, pred), variant, rng)
        except NoControllerExistsError:
            _INFEASIBLE.inc()
            raise
        _SOLVES.inc()
        span.add(
            arrows=len(result.control), iterations=result.iterations,
            pair_checks=result.pair_checks,
        )
        return result


def _solve(
    dep: Deposet,
    intervals: Sequence[Sequence[FalseInterval]],
    variant: str,
    rng: Optional[np.random.Generator],
) -> OfflineResult:
    order = dep.order
    cursor = _Cursor(dep, order, intervals)
    n = dep.n

    chain: List[Tuple[StateRef, StateRef]] = []
    iterations = 0
    pair_checks = 0
    prev_anchor: Optional[int] = None

    def select(options: List[Tuple[int, int]]) -> Tuple[int, int]:
        options.sort()
        if rng is None:
            return options[0]
        return options[int(rng.integers(len(options)))]

    def add_control(k_prime: int, k: Optional[int]) -> None:
        if cursor.true_from_bottom(k_prime):
            if chain and TRACER.enabled:
                TRACER.event("offline.chain_reset", restart=k_prime,
                             dropped=len(chain))
            chain.clear()  # the chain can start at bottom_{k'}
        elif k is not None and k != k_prime:
            src = StateRef(k_prime, cursor.pos[k_prime])
            dst = cursor.next_state(k)
            chain.append((src, dst))
            _ARROWS.inc()
            if TRACER.enabled:
                TRACER.event(
                    "offline.arrow",
                    src=[src.proc, src.index], dst=[dst.proc, dst.index],
                )

    # Incremental ValidPairs bookkeeping (optimized variant).
    valid: Set[Tuple[int, int]] = set()

    def refresh_pairs(procs: Sequence[int]) -> None:
        nonlocal pair_checks
        for i in procs:
            for j in range(n):
                if j == i:
                    continue
                for pair in ((i, j), (j, i)):
                    pair_checks += 1
                    if cursor.crossable_pair(*pair):
                        valid.add(pair)
                    else:
                        valid.discard(pair)

    if variant == "optimized":
        refresh_pairs(range(n))

    while all(cursor.next_interval(i) is not None for i in range(n)):
        iterations += 1
        if variant == "naive":
            valid = set()
            for i in range(n):
                for j in range(n):
                    if i != j:
                        pair_checks += 1
                        if cursor.crossable_pair(i, j):
                            valid.add((i, j))
        if not valid:
            witness = tuple(cursor.next_interval(i) for i in range(n))
            _ITERATIONS.inc(iterations)
            _PAIR_CHECKS.inc(pair_checks)
            if TRACER.enabled:
                TRACER.event("offline.infeasible", iteration=iterations)
            raise NoControllerExistsError(witness=witness)

        k_prime, l = select(list(valid))
        add_control(k_prime, prev_anchor)

        # Cross N(l): the computation is committed up to *exiting* the
        # interval, i.e. entering the state after its hi (which exists --
        # crossable guarantees hi != top).
        nl = cursor.next_interval(l)
        target = StateRef(l, nl.hi + 1)
        if TRACER.enabled:
            TRACER.event(
                "offline.cross", anchor=k_prime, crossed=l,
                interval=[nl.lo, nl.hi], iteration=iterations,
            )
        changed: Set[int] = set()
        cursor.advance_through(target, changed)
        prev_anchor = k_prime

        if variant == "optimized" and changed:
            refresh_pairs(sorted(changed))

    finished = [i for i in range(n) if cursor.next_interval(i) is None]
    k_prime = finished[0] if rng is None else finished[int(rng.integers(len(finished)))]
    add_control(k_prime, prev_anchor)

    _ITERATIONS.inc(iterations)
    _PAIR_CHECKS.inc(pair_checks)
    return OfflineResult(
        control=ControlRelation(chain),
        iterations=iterations,
        pair_checks=pair_checks,
        variant=variant,
    )
