"""Tests for ControlRelation (the control-strategy value type)."""

import pytest

from repro.causality import StateRef
from repro.core import ControlRelation, control_disjunctive
from repro.errors import InterferenceError
from repro.trace import ComputationBuilder
from repro.workloads import mutex_predicate, mutex_trace


def chain_dep(k=4):
    b = ComputationBuilder(2)
    for _ in range(k):
        b.local(0)
        b.local(1)
    return b.build()


def test_dedup_and_order():
    r = ControlRelation([((0, 1), (1, 1)), ((0, 1), (1, 1)), ((1, 1), (0, 2))])
    assert len(r) == 2
    assert r.arrows[0] == (StateRef(0, 1), StateRef(1, 1))


def test_same_process_arrow_rejected():
    with pytest.raises(ValueError):
        ControlRelation([((0, 1), (0, 2))])


def test_equality_is_set_based():
    a = ControlRelation([((0, 1), (1, 1)), ((1, 1), (0, 2))])
    b = ControlRelation([((1, 1), (0, 2)), ((0, 1), (1, 1))])
    assert a == b
    assert hash(a) == hash(b)
    assert a != ControlRelation([((0, 1), (1, 1))])


def test_bool_and_message_count():
    assert not ControlRelation()
    r = ControlRelation([((0, 1), (1, 1))])
    assert r and r.message_count == 1


def test_apply_checks_interference():
    dep = chain_dep(2)
    # "1:1 entered after 0:1 completed" and vice versa: event-level cycle
    bad = ControlRelation([((0, 1), (1, 1)), ((1, 1), (0, 1))])
    with pytest.raises(InterferenceError):
        bad.apply(dep)


def test_restricted_to():
    r = ControlRelation([((0, 1), (1, 1)), ((1, 1), (2, 1)), ((2, 1), (0, 2))])
    assert len(r.restricted_to([0, 1])) == 1
    assert len(r.restricted_to([0, 1, 2])) == 3


def test_merged_with():
    a = ControlRelation([((0, 1), (1, 1))])
    b = ControlRelation([((0, 1), (1, 1)), ((1, 1), (0, 3))])
    merged = a.merged_with(b)
    assert len(merged) == 2


def test_minimized_drops_transitively_implied():
    dep = chain_dep(4)
    # chain of arrows 0:1 -> 1:2 -> 0:3 plus the implied shortcut 0:1 -> 0:3
    # (same-process arrows are invalid, so use a cross shortcut 1:1 -> 0:4
    # implied by 1:1 <= 1:2 -> 0:3 <= 0:4)
    r = ControlRelation([
        ((0, 1), (1, 2)),
        ((1, 2), (0, 3)),
        ((1, 1), (0, 4)),  # implied: 1:1 completes before 1:2... check below
    ])
    minimized = r.minimized(dep)
    applied_full = r.apply(dep)
    applied_min = minimized.apply(dep)
    # same extended order on all original arrows
    for src, dst in r:
        assert applied_min.order.happened_before(src, dst)
    assert len(minimized) <= len(r)
    assert len(minimized) == 2  # the shortcut goes


def test_minimized_keeps_necessary_arrows():
    dep = chain_dep(3)
    r = ControlRelation([((0, 1), (1, 2)), ((1, 1), (0, 3))])
    assert r.minimized(dep) == r


def test_minimized_on_algorithm_output_still_verifies():
    from repro.core import verify_control

    dep = mutex_trace(cs_per_proc=8, n=3, seed=2)
    pred = mutex_predicate(3)
    res = control_disjunctive(dep, pred, seed=5)
    minimized = res.control.minimized(dep)
    assert len(minimized) <= len(res.control)
    verify_control(dep, pred, minimized)


def test_repr_truncates():
    arrows = [((0, i), (1, i)) for i in range(1, 10)]
    text = repr(ControlRelation(arrows))
    assert "+3" in text


# -- minimized: one order, identical to the per-arrow rebuild ---------------


def _minimized_oracle(relation, dep):
    """The per-arrow definition: rebuild the extended order without each
    arrow in turn (reverse insertion order) and drop it when still implied."""
    kept = list(relation)
    for arrow in reversed(relation.arrows):
        others = [a for a in kept if a != arrow]
        if dep.order.extended(others).happened_before(*arrow):
            kept = others
    return ControlRelation(kept)


def _random_relation(dep, rng, tries):
    """Random cross-process arrows, each kept only if the relation stays
    non-interfering (so both implementations are defined on it)."""
    arrows = []
    for _ in range(tries):
        p, q = rng.choice(dep.n, size=2, replace=False)
        if min(dep.state_counts[p], dep.state_counts[q]) < 2:
            continue  # a process without events has no arrow endpoints
        u = (int(p), int(rng.integers(0, dep.state_counts[p] - 1)))
        v = (int(q), int(rng.integers(1, dep.state_counts[q])))
        try:
            dep.with_control(arrows + [(u, v)])
        except InterferenceError:
            continue
        arrows.append((u, v))
    return ControlRelation(arrows)


def test_minimized_matches_per_arrow_oracle():
    import numpy as np

    from repro.workloads import random_deposet

    dropped = 0
    for seed in range(120):
        rng = np.random.default_rng(seed)
        dep = random_deposet(n=int(rng.integers(2, 5)), events_per_proc=6,
                             message_rate=.3, flip_rate=.3, seed=seed)
        if seed % 3 == 0:  # dep's own control arrows are in-edges too
            dep = _random_relation(dep, rng, 3).apply(dep)
        relation = _random_relation(dep, rng, 10)
        got = relation.minimized(dep)
        assert got.arrows == _minimized_oracle(relation, dep).arrows, seed
        dropped += len(relation) - len(got)
    assert dropped > 50  # the comparison exercised real drops


def test_minimized_builds_one_order(monkeypatch):
    import numpy as np

    from repro.workloads import random_deposet

    dep = random_deposet(n=4, events_per_proc=40, message_rate=.15,
                         flip_rate=.2, seed=0)
    relation = _random_relation(dep, np.random.default_rng(0), 60)
    assert len(relation) > 20
    order_class = type(dep.order)  # the base order is cached before counting
    builds = []
    real = order_class.extended
    monkeypatch.setattr(order_class, "extended",
                        lambda self, arrows: builds.append(1) or real(self, arrows))
    relation.minimized(dep)
    assert len(builds) == 1  # the per-arrow version built len(relation)


def test_minimized_raises_on_interference_in_any_order():
    dep = chain_dep(3)
    forward, backward = ((0, 1), (1, 2)), ((1, 1), (0, 1))
    for arrows in ([forward, backward], [backward, forward]):
        with pytest.raises(InterferenceError):
            ControlRelation(arrows).minimized(dep)
