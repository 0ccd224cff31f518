"""Span recorder for the traced benchmark run.

Every layer is measured from the outside: :func:`install` replaces the
module or class attribute through which the program looks up a layer's
public function with a wrapper that times it.  Each wrapper adds its
call to per-process aggregates -- calls, total time, and self time (total
minus the time covered by nested recorded spans).  Aggregates live in
memory and are written once, when the process ends.

The serve host installs the serve table before ``repro serve`` forks its
worker; the forked worker inherits the wrappers and writes its own
aggregates from a ``multiprocessing`` finalizer, which runs when the
worker leaves its main loop at drain.
"""

from __future__ import annotations

import importlib
import json
import os
import time
import types
from multiprocessing import util as mp_util
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: tenant of the discarded warm-up session; recording starts with the
#: first session of any other tenant
WARMUP_TENANT = "warmup"

#: (module, attribute, span name): the layer entry points in a serve
#: process.  The ``serve.session_*`` functions are the worker's top-level
#: units of work, so their totals are the worker's busy time.
SERVE_SPANS: Sequence[Tuple[str, str, str]] = (
    ("repro.serve.workers", "_open_session", "serve.session_open"),
    ("repro.serve.workers", "_feed_session", "serve.session_feed"),
    ("repro.serve.workers", "_finalize_session", "serve.session_finalize"),
    ("repro.serve.workers", "_checkpoint_session", "serve.session_checkpoint"),
    ("repro.serve.session", "stream_store_from_header", "store.open"),
    ("repro.serve.session", "apply_stream_record", "trace.apply_stream_record"),
    ("repro.store.trace_store", "TraceStore.append_state", "store.append_state"),
    ("repro.store.trace_store", "TraceStore.append_control",
     "store.append_control"),
    ("repro.store.trace_store", "TraceStore.snapshot", "store.snapshot"),
    ("repro.detection.incremental", "IncrementalDetector.poll",
     "detection.poll"),
    ("repro.detection.incremental", "IncrementalDetector.finalize",
     "detection.finalize"),
    ("repro.detection.engine", "definitely", "detection.definitely"),
    ("repro.slicing.detect", "definitely_slice", "slicing.definitely_slice"),
    ("repro.storage.sqlite", "SqliteBackend.commit", "storage.sqlite.commit"),
    ("repro.serve.server", "dumps_event", "serve.dumps_event"),
    ("repro.serve.durability", "SessionWal.append", "serve.wal.append"),
    ("repro.serve.durability", "SessionDurability.commit_checkpoint",
     "serve.checkpoint"),
)

#: worker-side top-level spans (their totals are worker busy time)
WORKER_TOP = ("serve.session_open", "serve.session_feed",
              "serve.session_finalize", "serve.session_checkpoint")

#: the layer entry points ``repro detect / control / replay`` reach
CYCLE_SPANS: Sequence[Tuple[str, str, str]] = (
    ("repro.cli", "load_deposet", "trace.load_deposet"),
    ("repro.cli", "dump_deposet", "trace.dump_deposet"),
    ("repro.cli", "possibly_bad", "detection.possibly"),
    ("repro.cli", "control_disjunctive", "core.control_disjunctive"),
    ("repro.core.control_relation", "ControlRelation.apply",
     "core.control_apply"),
    ("repro.analysis", "lint_deposet", "analysis.lint_deposet"),
    ("repro.core.overlap", "find_overlapping_intervals",
     "analysis.c104_search"),
    ("repro.cli", "replay", "replay"),
)


class Recorder:
    """Per-process span aggregates: ``name -> [calls, total_ns, self_ns]``."""

    def __init__(self) -> None:
        self.active = False
        self.stats: Dict[str, List[int]] = {}
        self.baseline: Optional[Dict[str, Any]] = None
        #: child-time accumulators of the open spans; every wrapped entry
        #: point runs on its process's main (or event-loop) thread
        self._stack: List[int] = []

    def start(self) -> None:
        """Begin recording; the metrics registry is read as the baseline."""
        from repro.obs.metrics import METRICS

        self.stats.clear()
        self.baseline = METRICS.snapshot()
        self.active = True

    def wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter_ns

        def span(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                agg = stats.get(name)
                if agg is None:
                    agg = stats[name] = [0, 0, 0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - child

        span.__wrapped__ = fn
        return span

    def dump(self, path: str, role: str) -> None:
        from repro.obs.metrics import METRICS

        doc = {"role": role, "pid": os.getpid(), "stats": self.stats,
               "baseline": self.baseline, "final": METRICS.snapshot()}
        with open(path, "w") as fh:
            json.dump(doc, fh)


RECORDER = Recorder()


def _resolve(module: str, attr: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(table: Sequence[Tuple[str, str, str]]) -> None:
    for module, attr, name in table:
        owner, leaf = _resolve(module, attr)
        setattr(owner, leaf, RECORDER.wrap(name, getattr(owner, leaf)))


def _start_on_first_real_session(owner: Any, leaf: str,
                                 tenant_arg: int) -> None:
    fn = getattr(owner, leaf)

    def hook(*args: Any, **kwargs: Any) -> Any:
        if not RECORDER.active and args[tenant_arg] != WARMUP_TENANT:
            RECORDER.start()
        return fn(*args, **kwargs)

    setattr(owner, leaf, hook)


def install_serve(prefix: str) -> None:
    """Wrap the serve layers in this process and in every forked worker.

    ``prefix`` names the dump files: ``PREFIX.worker.PID.json`` from each
    worker; the caller dumps the server's own with :meth:`Recorder.dump`.
    """
    install(SERVE_SPANS)
    # The session decodes each stream line with ``json.loads``.  The span
    # goes on a private view of ``json`` bound in that module only, so the
    # rest of the process keeps the plain module.
    session = importlib.import_module("repro.serve.session")
    view = types.SimpleNamespace(**vars(json))
    view.loads = RECORDER.wrap("trace.decode_record", json.loads)
    session.json = view
    # The worker's top-level function is wrapped by now, so the hook sits
    # outside its span and the first real session's open is recorded.
    workers = importlib.import_module("repro.serve.workers")
    _start_on_first_real_session(workers, "_open_session", 2)
    _start_on_first_real_session(workers.ProcessPool, "open_session", 2)

    def in_child(rec: Recorder) -> None:
        path = f"{prefix}.worker.{os.getpid()}.json"
        mp_util.Finalize(rec, rec.dump, args=(path, "worker"),
                         exitpriority=100)

    mp_util.register_after_fork(RECORDER, in_child)
