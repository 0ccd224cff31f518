"""Control relations: the output of predicate control.

A control relation is a set of *forced-before* arrows ``s C-> t`` between
local states of different processes.  Operationally each arrow is realised
by one control message: the controller of ``proc(s)`` sends after its
process completes ``s``, and the controller of ``proc(t)`` blocks its
process from entering ``t`` until that message arrives.  The paper's
"control strategy" for the off-line problem is exactly this relation plus
the blocking discipline (implemented by :mod:`repro.replay`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.causality.relations import StateRef
from repro.trace.deposet import Deposet

__all__ = ["ControlRelation"]

Arrow = Tuple[StateRef, StateRef]


class ControlRelation:
    """An ordered collection of control arrows.

    Order is preserved (the off-line algorithm emits a chain, and the chain
    order is meaningful for debugging), but equality is set-based: two
    relations forcing the same orderings are the same control strategy.
    """

    __slots__ = ("_arrows",)

    def __init__(self, arrows: Iterable[Arrow] = ()):
        self._arrows: List[Arrow] = []
        seen = set()
        for a, b in arrows:
            arrow = (StateRef(*a), StateRef(*b))
            if arrow[0].proc == arrow[1].proc:
                raise ValueError(
                    f"control arrow {arrow[0]!r} -> {arrow[1]!r} stays on one "
                    f"process; same-process order needs no control message"
                )
            if arrow not in seen:
                seen.add(arrow)
                self._arrows.append(arrow)

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._arrows)

    def __iter__(self) -> Iterator[Arrow]:
        return iter(self._arrows)

    def __bool__(self) -> bool:
        return bool(self._arrows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ControlRelation):
            return NotImplemented
        return set(self._arrows) == set(other._arrows)

    def __hash__(self) -> int:
        return hash(frozenset(self._arrows))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a!r}->{b!r}" for a, b in self._arrows[:6])
        more = f", ... +{len(self._arrows) - 6}" if len(self._arrows) > 6 else ""
        return f"ControlRelation([{inner}{more}])"

    @property
    def arrows(self) -> List[Arrow]:
        return list(self._arrows)

    # -- semantics ---------------------------------------------------------------

    @property
    def message_count(self) -> int:
        """Control messages needed to enforce this relation (one per arrow)."""
        return len(self._arrows)

    def apply(self, dep: Deposet) -> Deposet:
        """The controlled deposet of ``dep`` with this relation.

        Raises :class:`~repro.errors.InterferenceError` when the relation
        interferes with the computation's causality.
        """
        return dep.with_control(self._arrows)

    def restricted_to(self, procs: Sequence[int]) -> "ControlRelation":
        """Arrows whose endpoints both lie in ``procs`` (debug helper)."""
        keep = set(procs)
        return ControlRelation(
            (a, b) for a, b in self._arrows if a.proc in keep and b.proc in keep
        )

    def merged_with(self, other: "ControlRelation") -> "ControlRelation":
        """The union relation (deduplicated, order: self then other)."""
        return ControlRelation(self._arrows + other.arrows)

    def minimized(self, dep: Deposet) -> "ControlRelation":
        """Drop arrows already implied by ``dep``'s causality plus the
        remaining arrows.

        Fewer arrows = fewer control messages at replay, with an identical
        extended causal order (every dropped arrow's ordering is still
        enforced transitively).  This is the control-relation analogue of
        optimal tracing's transitive reduction.  Greedy: arrows are tested
        in reverse insertion order, so chain-shaped relations shed their
        redundant late links first.

        One extended order is built, up front, so an interfering relation
        raises :class:`~repro.errors.InterferenceError` whatever its arrow
        order.  Arrow ``u -> v`` is implied by what remains iff ``u``
        precedes ``v``'s process predecessor or, for another remaining
        in-edge ``w -> v``, the state after ``w`` (a path cannot use the
        arrow itself without a cycle); dropping an implied arrow leaves the
        closure, and so the order, unchanged.
        """
        order = self.apply(dep).order
        into: Dict[StateRef, List[StateRef]] = {}
        for w, v in [(m.src, m.dst) for m in dep.messages] + [*dep.control_arrows, *self._arrows]:
            into.setdefault(v, []).append(w)
        kept = set(self._arrows)
        for u, v in reversed(self._arrows):
            sources = into[v]
            sources.remove(u)  # the arrow under test; re-added if it stays
            if order.happened_before(u, (v.proc, v.index - 1)) or any(
                order.happened_before(u, (w.proc, w.index + 1)) for w in sources
            ):
                kept.discard((u, v))
            else:
                sources.append(u)
        return ControlRelation(a for a in self._arrows if a in kept)
