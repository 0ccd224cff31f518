"""The replay gate's deep rules against their straightforward definitions.

C101/T011 (:func:`find_event_cycle`) and C102 are computed with one
component pass and one causal order; C104 with the Figure 2 cursor walk.
Each is checked here against a slow but obvious oracle on random traces
with random extra control arrows -- duplicate, same-process, redundant,
backwards and cycle-closing ones:

* the event cycle: one BFS per candidate arrow over the whole graph;
* C102: rebuild a :class:`CausalOrder` without each arrow in turn;
* C104: the brute-force product search over false intervals.
"""

import random
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.control import analyze_control
from repro.analysis.findings import Finding, Report
from repro.analysis.raw import RawTrace
from repro.analysis.runner import _underlying_deposet
from repro.analysis.sanitizer import _event_edges, find_event_cycle, valid_arrows
from repro.causality.relations import CausalOrder
from repro.cli import parse_predicate
from repro.core import overlap
from repro.predicates import FalseInterval, false_intervals
from repro.predicates.disjunctive import as_disjunctive
from repro.trace import deposet_to_dict
from repro.workloads import random_deposet

from tests.core._overlap_oracle import brute_force_overlapping

from .conftest import parse_clean

Ref = Tuple[int, int]
Pair = Tuple[Ref, Ref]


def bfs_cycle_oracle(
    counts: Sequence[int],
    arrows: Sequence[Pair],
    candidates: Optional[Sequence[int]] = None,
) -> Optional[Tuple[List[Ref], int]]:
    """Shortest cycle through any candidate: one whole-graph BFS each."""
    succ, arrow_edges = _event_edges(counts, arrows)
    best = None
    for k in candidates if candidates is not None else range(len(arrows)):
        u, v = arrow_edges[k]
        if u == v:
            continue
        parents: Dict[Ref, Optional[Ref]] = {v: None}
        queue = deque([v])
        found = False
        while queue and not found:
            node = queue.popleft()
            for nxt in succ.get(node, ()):
                if nxt in parents:
                    continue
                parents[nxt] = node
                if nxt == u:
                    found = True
                    break
                queue.append(nxt)
        if not found:
            continue
        path = []
        cur: Optional[Ref] = u
        while cur is not None:
            path.append(cur)
            cur = parents[cur]
        path.reverse()
        if best is None or len(path) < len(best[0]):
            best = (path, k)
    return best


def c102_oracle(raw: RawTrace, findings: List[Finding]) -> List[Pair]:
    """Arrows implied by the rest of the relation, one rebuild per arrow.

    The C103/C105 verdicts the linter reports decide which arrows take
    part, exactly as in :func:`analyze_control`.
    """
    excluded = {f.location for f in findings if f.rule_id in ("C103", "C105")}
    msgs = [raw.messages[k].pair for k in valid_arrows(raw, raw.messages)]
    unique = [c.pair for c in raw.control if c.location not in excluded]
    if bfs_cycle_oracle(raw.state_counts, msgs + unique) is not None:
        return []
    out = []
    for k, (src, dst) in enumerate(unique):
        rest = msgs + unique[:k] + unique[k + 1:]
        if CausalOrder(raw.state_counts, rest).happened_before(src, dst):
            out.append((src, dst))
    return out


def extra_arrows(
    rng: random.Random, counts: Sequence[int], msgs: List[Pair], k: int
) -> List[Pair]:
    """``k`` control arrows mixing every shape the rules distinguish."""
    n = len(counts)
    out: List[Pair] = []
    for _ in range(k):
        kind = rng.choice(
            ["any", "any", "same", "backwards", "copy", "implied", "reverse",
             "duplicate", "final"]
        )
        p, q = rng.randrange(n), rng.randrange(n)
        src = (p, rng.randrange(max(counts[p] - 1, 1)))
        dst = (q, rng.randrange(1, counts[q]) if counts[q] > 1 else 0)
        if kind == "same" and counts[p] > 1:
            a = rng.randrange(counts[p] - 1)
            src, dst = (p, a), (p, rng.randrange(a + 1, counts[p]))
        elif kind == "backwards":
            a = rng.randrange(counts[p])
            src, dst = (p, a), (p, rng.randrange(a + 1))
        elif kind in ("copy", "implied", "reverse") and msgs:
            (sp, si), (dp, di) = rng.choice(msgs)
            if kind == "copy":
                src, dst = (sp, si), (dp, di)
            elif kind == "implied":
                src = (sp, rng.randrange(si + 1))
                dst = (dp, rng.randrange(di, counts[dp]))
            elif di <= counts[dp] - 2 and si >= 1:
                src, dst = (dp, di), (sp, si)
        elif kind == "duplicate" and out:
            src, dst = rng.choice(out)
        elif kind == "final":
            src = (p, counts[p] - 1)
        out.append((src, dst))
    return out


def random_case(seed: int) -> RawTrace:
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    dep = random_deposet(
        n=n, events_per_proc=rng.randint(2, 7),
        message_rate=rng.choice([0.2, 0.4, 0.7]),
        flip_rate=rng.choice([0.3, 0.6]), seed=seed,
        start_true_prob=rng.choice([0.4, 0.8]),
    )
    data = deposet_to_dict(dep)
    msgs = [(tuple(m["src"]), tuple(m["dst"])) for m in data["messages"]]
    data["control"] = [
        [list(a), list(b)]
        for a, b in extra_arrows(rng, dep.state_counts, msgs, rng.randint(0, 6))
    ]
    return parse_clean(data)


def lint_control(raw: RawTrace) -> List[Finding]:
    dep = _underlying_deposet(raw, Report(source="<test>", format="repro-deposet/1"))
    assert dep is not None
    pred = parse_predicate("at-least-one:up", dep.n)
    return analyze_control(raw, dep, predicate=pred)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_event_cycle_matches_per_candidate_bfs(seed):
    raw = random_case(seed)
    arrows = [raw.messages[k].pair for k in valid_arrows(raw, raw.messages)]
    n_msgs = len(arrows)
    arrows += [raw.control[k].pair for k in valid_arrows(raw, raw.control)]
    counts = raw.state_counts
    for candidates in (None, range(n_msgs, len(arrows))):
        assert find_event_cycle(counts, arrows, candidates) == bfs_cycle_oracle(
            counts, arrows, candidates
        )


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_c102_matches_per_arrow_rebuild(seed):
    raw = random_case(seed)
    findings = lint_control(raw)
    got = [f.arrows[0] for f in findings if f.rule_id == "C102"]
    assert got == c102_oracle(raw, findings)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_c104_fires_iff_an_overlapping_set_exists(seed):
    raw = random_case(seed)
    dep = _underlying_deposet(raw, Report(source="<test>", format="repro-deposet/1"))
    assert dep is not None
    c104 = [f for f in lint_control(raw) if f.rule_id == "C104"]
    pred = as_disjunctive(parse_predicate("at-least-one:up", dep.n), dep.n)
    expected = brute_force_overlapping(dep, false_intervals(dep, pred))
    assert bool(c104) == (expected is not None)
    if c104:
        (f,) = c104
        witness = [FalseInterval(iv["proc"], iv["lo"], iv["hi"])
                   for iv in f.data["intervals"]]
        assert len(witness) == dep.n
        assert overlap(dep, witness)
