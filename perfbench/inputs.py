"""Seeded inputs for the four workloads, with their reference verdicts.

Inputs are a pure function of ``(workload, seed, tiny)``.  They are
generated and reference-checked before anything is timed and cached
under ``.perfbench-cache/`` in the checkout, so a repeated seed skips the
work.  The program under test only ever sees the generated streams and
trace files.
"""

from __future__ import annotations

import hashlib
import io
import json
import multiprocessing
import os
import statistics
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

PREDICATE = "at-least-one:up"


@dataclass(frozen=True)
class Spec:
    """One workload: what it generates and how many operations a run makes."""

    name: str
    kind: str  # "stream" or "cycle"
    n: int
    gen: Dict[str, Any]
    events_per_proc: int
    tiny_events_per_proc: int
    #: distinct inputs per run (streams are replayed round-robin); 0 means
    #: one fresh input per operation
    distinct: int
    #: operations per second of ``--seconds``: a run makes
    #: ``round(ops_per_second * seconds)`` of them
    ops_per_second: float
    durable: bool = False
    controlled: bool = False


SPECS: Dict[str, Spec] = {
    spec.name: spec for spec in (
        Spec("stream_controlled", "stream", 6,
             dict(flip_rate=0.05, start_true_prob=0.95),
             events_per_proc=700, tiny_events_per_proc=40, distinct=16,
             ops_per_second=3.2, controlled=True),
        Spec("stream_buggy", "stream", 6,
             dict(message_rate=0.15, flip_rate=0.2),
             events_per_proc=700, tiny_events_per_proc=40, distinct=20,
             ops_per_second=2.0),
        # controlled streams, whose finalize never runs the definitely
        # search: its cost is heavy-tailed and would set this workload's
        # tail instead of the durability layers (see ledger.json)
        Spec("stream_short_durable", "stream", 4,
             dict(flip_rate=0.05, start_true_prob=0.95),
             events_per_proc=90, tiny_events_per_proc=75, distinct=64,
             ops_per_second=12.5, durable=True, controlled=True),
        Spec("debug_cycle", "cycle", 4,
             dict(message_rate=0.3, flip_rate=0.05, start_true_prob=0.95),
             events_per_proc=400, tiny_events_per_proc=40, distinct=0,
             ops_per_second=1.6),
    )
}

#: operations in a ``--tiny`` run (the benchmark's own tests)
TINY_OPS = 4
#: processes that generate inputs (before anything is timed)
GEN_PROCESSES = 2


def op_count(spec: Spec, seconds: float, tiny: bool) -> int:
    if tiny:
        return TINY_OPS
    return max(2, round(spec.ops_per_second * seconds))


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it
    (the median when a run has too few operations for that)."""
    if count < 20:
        return 50
    return (100 * (count - 10)) // count


# -- generation ------------------------------------------------------------


def _deposet(spec: Spec, sub_seed: int, events_per_proc: int):
    from repro.workloads import random_deposet

    return random_deposet(n=spec.n, events_per_proc=events_per_proc,
                          seed=sub_seed, **spec.gen)


def _with_controller(spec: Spec, sub_seed: int, events_per_proc: int):
    """The first draw from ``sub_seed`` on (stepping by a prime) for which
    off-line control finds a controller, with its control relation.  The
    draw is keyed by the seed only; nothing about its cost is looked at."""
    from repro.cli import parse_predicate
    from repro.core.offline import control_disjunctive
    from repro.errors import NoControllerExistsError

    while True:
        dep = _deposet(spec, sub_seed, events_per_proc)
        try:
            result = control_disjunctive(dep, parse_predicate(PREDICATE,
                                                              dep.n))
        except NoControllerExistsError:
            sub_seed += 7919
            continue
        return dep, result.control


def c104_product(dep) -> int:
    """Size of the brute-force C104 search space: the product over
    processes of the number of false intervals."""
    from repro.cli import parse_predicate
    from repro.predicates.disjunctive import as_disjunctive
    from repro.predicates.intervals import false_intervals

    pred = as_disjunctive(parse_predicate(PREDICATE, dep.n), dep.n)
    product = 1
    for intervals in false_intervals(dep, pred):
        product *= len(intervals)
    return product


def stream_lines(dep) -> List[str]:
    from repro.trace.io import write_event_stream

    buf = io.StringIO()
    write_event_stream(dep, buf)
    return buf.getvalue().splitlines()


def strip_names(event: Dict[str, Any]) -> Dict[str, Any]:
    """A verdict event without its tenant/session naming."""
    return {k: v for k, v in event.items() if k not in ("tenant", "session")}


def reference_events(lines: List[str]) -> List[Dict[str, Any]]:
    """The in-process ``DetectionSession`` events for one stream."""
    from repro.serve.session import DetectionSession

    sess = DetectionSession("ref", "ref", json.loads(lines[0]), PREDICATE)
    try:
        events = sess.feed(lines[1:], base_lineno=2)
        events.extend(sess.finalize())
    finally:
        sess.close()
    errors = [ev for ev in events if ev.get("e") == "error"]
    if errors:
        raise RuntimeError(f"reference session failed: {errors[0]}")
    return events


def _stream_input(spec: Spec, sub_seed: int, epp: int) -> Dict[str, Any]:
    if spec.controlled:
        # a controlled re-execution: off-line control, then replay
        from repro.replay.engine import replay

        dep, control = _with_controller(spec, sub_seed, epp)
        dep = replay(dep, control).deposet
    else:
        dep = _deposet(spec, sub_seed, epp)
    lines = stream_lines(dep)
    kinds = [json.loads(line).get("t") for line in lines[1:]]
    events = reference_events(lines)
    return {
        "lines": lines,
        "final": strip_names(next(ev for ev in events
                                  if ev.get("e") == "final")),
        "midstream_witness": any(ev.get("status") == "found"
                                 for ev in events),
        "records": len(lines) - 1,
        "ctl": kinds.count("ctl"),
        "c104_product": c104_product(dep),
    }


def _cycle_input(spec: Spec, sub_seed: int, epp: int, path: str
                 ) -> Dict[str, Any]:
    from repro.detection.conjunctive import possibly_bad
    from repro.cli import parse_predicate
    from repro.trace.io import dump_deposet

    # the debugging loop has nothing to replay without a controller
    dep, _control = _with_controller(spec, sub_seed, epp)
    dump_deposet(dep, path)
    pred = parse_predicate(PREDICATE, dep.n)
    return {
        "path": path,
        "records": dep.num_states + len(dep.messages),
        "violation": possibly_bad(dep, pred) is not None,
        "c104_product": c104_product(dep),
    }


def _properties(spec: Spec, items: List[Dict[str, Any]],
                ops: int) -> Dict[str, Any]:
    records = [it["records"] for it in items]
    products = sorted(it["c104_product"] for it in items)
    props: Dict[str, Any] = {
        "n": spec.n,
        "distinct_inputs": len(items),
        "operations": ops,
        "records_per_op": {"min": min(records), "median":
                           statistics.median(records), "max": max(records)},
        "c104_product": {"min": products[0],
                         "median": statistics.median(products),
                         "max": products[-1]},
    }
    if spec.kind == "stream":
        props["ctl_per_stream"] = statistics.mean(it["ctl"] for it in items)
        props["midstream_witness_share"] = sum(
            it["midstream_witness"] for it in items) / len(items)
        props["witness_share"] = sum(
            it["final"]["witness"] is not None for it in items) / len(items)
        props["definitely_share"] = sum(
            bool(it["final"]["definitely"]) for it in items) / len(items)
    else:
        props["violation_share"] = sum(
            it["violation"] for it in items) / len(items)
    return props


def _call(job: Tuple[Callable, tuple]) -> Any:
    fn, args = job
    return fn(*args)


def _generate(jobs: List[Tuple[Callable, tuple]]) -> List[Any]:
    """Results of ``jobs`` in order, computed by one forked process per
    CPU (at most :data:`GEN_PROCESSES`).  Each result is a function of
    its job alone, so the split does not change the inputs."""
    procs = min(GEN_PROCESSES, len(os.sched_getaffinity(0)), len(jobs))
    if procs < 2:
        return [_call(job) for job in jobs]
    pool = multiprocessing.get_context("fork").Pool(procs)
    try:
        return pool.map(_call, jobs, chunksize=1)
    finally:
        pool.terminate()
        pool.join()


def load(root: str, spec: Spec, seed: int, ops: int, tiny: bool
         ) -> Dict[str, Any]:
    """The run's inputs: ``items`` (one per distinct input), ``warmup``
    (a small input of the same shape) and ``props``."""
    # the spec is part of the key, so a changed generator is not served
    # a stale cache
    digest = hashlib.sha1(repr(spec).encode()).hexdigest()[:8]
    tag = f"{spec.name}-{digest}-s{seed}-o{ops}" + ("-tiny" if tiny else "")
    cache_dir = os.path.join(root, ".perfbench-cache", tag)
    meta_path = os.path.join(cache_dir, "inputs.json")
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            return json.load(fh)
    os.makedirs(cache_dir, exist_ok=True)
    epp = spec.tiny_events_per_proc if tiny else spec.events_per_proc
    warm_epp = min(epp, 60)
    if not spec.distinct:
        count = ops
    else:
        count = min(spec.distinct, 2) if tiny else spec.distinct
    base = seed * 10007
    if spec.kind == "stream":
        jobs = [(_stream_input, (spec, base + i, epp)) for i in range(count)]
        jobs.append((_stream_input, (spec, base + 5003, warm_epp)))
    else:
        jobs = [(_cycle_input, (spec, base + i, epp,
                                os.path.join(cache_dir, f"trace{i}.json")))
                for i in range(count)]
        jobs.append((_cycle_input, (spec, base + 5003, warm_epp,
                                    os.path.join(cache_dir, "warmup.json"))))
    *items, warmup = _generate(jobs)
    doc = {"items": items, "warmup": warmup,
           "props": _properties(spec, items, ops)}
    tmp = meta_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, meta_path)
    return doc


def replayed_ok(path: str) -> Optional[str]:
    """``None`` when the replayed trace satisfies B in every consistent
    global state, else a description of the violation."""
    from repro.cli import parse_predicate
    from repro.detection.conjunctive import possibly_bad
    from repro.trace.io import load_deposet

    dep = load_deposet(path)
    cut = possibly_bad(dep, parse_predicate(PREDICATE, dep.n))
    return None if cut is None else f"replayed trace violates B at {cut}"
