"""The replay gate stays polynomial at scale (C104 through Figure 2).

An n=6 trace of ~2k records has about 35 false intervals per process,
so the product of interval choices is ~10^9: a search over it does not
finish in a minute.  The Figure 2 cursor walk decides Lemma 2 in ``O(n^2 p)``
``crossable`` checks, so the work here is bounded by the
``offline.pair_checks`` counter -- not by wall time -- for both the batch
linter and the streaming linter's finalize that ``serve --lint`` runs.
"""

import io

import pytest

from repro.analysis import StreamingLinter, lint_deposet
from repro.cli import parse_predicate
from repro.obs.metrics import METRICS
from repro.predicates.disjunctive import as_disjunctive
from repro.predicates.intervals import false_intervals
from repro.trace.io import write_event_stream
from repro.workloads import random_deposet

N = 6


def _work_bound(dep, pred) -> int:
    """``2 n^2`` pair checks per false interval (plus the initial sweep)."""
    total = sum(
        len(ivs)
        for ivs in false_intervals(dep, as_disjunctive(pred, dep.n))
    )
    return 2 * N * N * (total + 1)


@pytest.mark.parametrize("seed, controllable", [(13, True), (8, False)])
def test_lint_n6_2k_records_is_polynomial(seed, controllable):
    dep = random_deposet(
        n=N, events_per_proc=350, message_rate=0.15, flip_rate=0.2,
        seed=seed,
    )
    pred = parse_predicate("at-least-one:up", N)
    buf = io.StringIO()
    write_event_stream(dep, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) >= 2000

    with METRICS.scoped() as batch_scope:
        batch = lint_deposet(dep, predicate=pred)
    with METRICS.scoped() as stream_scope:
        linter = StreamingLinter(predicate=pred)
        for line in lines:
            linter.feed_line(line)
        streamed = linter.finalize()

    bound = _work_bound(dep, pred)
    for scope in (batch_scope, stream_scope):
        checks = scope.counter("offline.pair_checks")
        assert 0 < checks <= bound, (checks, bound)
    for report in (batch, streamed):
        c104 = report.by_rule("C104")
        assert bool(c104) != controllable
        if c104:
            assert len(c104[0].data["intervals"]) == N
