"""The pipeline ledger: one workload of the active-debugging loop, measured.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``perfbench/ledger.json`` for why each exists):

``stream_controlled``, ``stream_buggy``, ``stream_short_durable``
    ``repro serve --workers 1`` in its own process, driven by a closed
    loop of two connections, in blocks of sessions.
``debug_cycle``
    ``repro detect``, ``control -o`` and ``replay --predicate`` called
    in-process by a fresh interpreter, as a user types them.

Every time is scaled to a fixed machine speed by a reference loop timed
next to the operations (see ``perfbench/calib.py``); the scale factors
and the unscaled figures are printed before the result line.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs half
the operations untraced and half with layer spans installed, and reports
the per-layer metrics.  ``--tiny`` shrinks every input for the
benchmark's own tests.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import glob
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")

#: (name, unit) of every end-to-end metric, in print order
END_TO_END = (
    ("setup_s", "s"),
    ("records_per_s", "records/s"),
    ("session_ms.p50", "ms"),
    ("session_ms.tail", "ms"),
    ("cycle_ms.p50", "ms"),
    ("cycle_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric.  Calls, times and counters are
#: per timed operation (session or cycle); ``*_frac`` are ratios.
PER_LAYER = (
    ("trace.apply_stream_record.calls", "calls/op"),
    ("trace.apply_stream_record.self_ms", "ms/op"),
    ("trace.decode_record.self_ms", "ms/op"),
    ("trace.load_deposet.self_ms", "ms/op"),
    ("trace.dump_deposet.self_ms", "ms/op"),
    ("store.append_state.calls", "calls/op"),
    ("store.append_state.self_ms", "ms/op"),
    ("store.append_control.calls", "calls/op"),
    ("store.append_control.self_ms", "ms/op"),
    ("store.snapshot.self_ms", "ms/op"),
    ("store.open.self_ms", "ms/op"),
    ("index.appends", "count/op"),
    ("index.arrow_inserts", "count/op"),
    ("detection.incremental.resets", "count/op"),
    ("storage.sqlite.commit.calls", "calls/op"),
    ("storage.sqlite.commit.self_ms", "ms/op"),
    ("store.sqlite.commits", "count/op"),
    ("store.sqlite.pages_written", "count/op"),
    ("store.sqlite.page_misses", "count/op"),
    ("detection.poll.calls", "calls/op"),
    ("detection.poll.self_ms", "ms/op"),
    ("detection.finalize.self_ms", "ms/op"),
    ("detection.definitely.self_ms", "ms/op"),
    ("detection.possibly.self_ms", "ms/op"),
    ("slicing.definitely_slice.self_ms", "ms/op"),
    ("detection.slice.states", "count/op"),
    ("analysis.lint_deposet.self_ms", "ms/op"),
    ("analysis.c104_search.self_ms", "ms/op"),
    ("analysis.gate.admitted_frac", "ratio"),
    ("core.control_disjunctive.self_ms", "ms/op"),
    ("offline.iterations", "count/op"),
    ("offline.pair_checks", "count/op"),
    ("core.control_apply.self_ms", "ms/op"),
    ("replay.self_ms", "ms/op"),
    ("replay.completed_frac", "ratio"),
    ("kernel.events", "count/op"),
    ("sim.control_messages", "count/op"),
    ("cli.self_ms", "ms/op"),
    ("serve.session_open.self_ms", "ms/op"),
    ("serve.session_feed.self_ms", "ms/op"),
    ("serve.session_finalize.self_ms", "ms/op"),
    ("serve.session_checkpoint.self_ms", "ms/op"),
    ("serve.dumps_event.calls", "calls/op"),
    ("serve.dumps_event.self_ms", "ms/op"),
    ("serve.outside_worker_ms", "ms/op"),
    ("serve.pauses", "count/op"),
    ("serve.worker_batches", "count/op"),
    ("serve.overhead_frac", "ratio"),
    ("serve.wal.append.calls", "calls/op"),
    ("serve.wal.append.self_ms", "ms/op"),
    ("serve.wal.fsyncs", "count/op"),
    ("serve.checkpoint.calls", "calls/op"),
    ("serve.checkpoint.self_ms", "ms/op"),
    ("serve.ckpt.bytes", "B/op"),
    ("obs.trace_overhead_frac", "ratio"),
    ("layers.accounted_frac", "ratio"),
)

#: METRICS counters reported per operation (read at drain / cycle end)
COUNTERS = (
    "index.appends", "index.arrow_inserts", "detection.incremental.resets",
    "store.sqlite.commits", "store.sqlite.pages_written",
    "store.sqlite.page_misses", "detection.slice.states",
    "offline.iterations", "offline.pair_checks", "kernel.events",
    "sim.control_messages", "serve.pauses", "serve.worker_batches",
    "serve.wal.fsyncs", "serve.ckpt.bytes",
)

#: set-up repetitions per run; ``setup_s`` is their median
SETUPS = 3
#: A serve phase times the reference loop (see calib.py) between blocks
#: of sessions.  A connection starts no session in a block once it has
#: played BLOCK_SESSIONS and BLOCK_S seconds have passed.  Short blocks
#: track the machine's speed closely; several sessions a connection keep
#: the two connections' sessions overlapping as in a free-running closed
#: loop: with one each (0.5 s blocks on stream_buggy) both started
#: together at every block and session times split into a first- and a
#: second-finisher mode, with the median between them.
BLOCK_S = 0.5
BLOCK_SESSIONS = 3
#: per-operation deadline; an operation past it counts as failed
DEADLINE_S = 30.0
#: time a cycle process may take to import the program, beyond DEADLINE_S
START_SLACK_S = 30.0
#: no operation starts after this many seconds of a run
RUN_DEADLINE_S = 150.0


def percentile(values: List[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


class Run:
    """One invocation: its inputs, scratch directory and failures."""

    def __init__(self, args: argparse.Namespace):
        import inputs

        self.args = args
        self.spec = inputs.SPECS[args.workload]
        self.ops = inputs.op_count(self.spec, args.seconds, args.tiny)
        # set-up is an end-to-end metric; a traced run reports none
        self.setups = 1 if args.tiny or args.trace else SETUPS
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.dir = os.path.join(ROOT, ".perfbench-run", str(os.getpid()))
        os.makedirs(self.dir, exist_ok=True)
        self.inputs = inputs.load(ROOT, self.spec, args.seed, self.ops,
                                  args.tiny)
        # Write back what input generation and earlier runs left dirty, so
        # the file system does not flush it inside the timed region (an
        # fsync in the durable workload would wait for it).
        os.sync()
        self.attempted = 0
        self.failures: List[str] = []
        #: scale factors applied to the timed operations (see calib.py)
        self.factors: List[float] = []
        #: end-to-end figures before scaling, printed for reference
        self.unscaled: Dict[str, float] = {}

    def count(self, errors: List[Optional[str]]) -> None:
        self.attempted += len(errors)
        self.failures.extend(e for e in errors if e)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        os.sync()


# -- stream workloads -------------------------------------------------------


def _serve_phase(run: Run, ops: int, tag: str, trace_prefix: Optional[str]
                 ) -> Dict[str, Any]:
    """Set up ``run.setups`` servers (keeping the last), then play ``ops``
    sessions against it in blocks (see :data:`BLOCK_S`), the reference
    loop timed before, between and after them.  Returns the
    timings, each session's scale factor and the server's peak RSS."""
    import calib
    from spans import WARMUP_TENANT
    from streamload import Server, closed_loop, encode, play

    spec, durable = run.spec, run.spec.durable
    payloads = [encode(it["lines"], it["final"], durable)
                for it in run.inputs["items"]]
    warm = run.inputs["warmup"]
    warmup = encode(warm["lines"], warm["final"], durable)
    setup_s: List[float] = []
    outcomes: List[Any] = []
    factors: List[float] = []
    walls: List[float] = []
    scaled_wall = 0.0
    own_cpus = os.sched_getaffinity(0)
    server = None
    try:
        for k in range(run.setups):
            last = k == run.setups - 1
            before = calib.sample()
            server = Server(ROOT, run.dir, f"{tag}{k}", durable,
                            trace_prefix if last else None)
            server.wait_accepting()
            out = asyncio.run(play(server.sock, WARMUP_TENANT, f"w{k}",
                                   warmup, durable, DEADLINE_S))
            took = time.perf_counter() - server.t_launch
            run.count([out.error and f"warm-up session: {out.error}"])
            setup_s.append(took * calib.factor(before, calib.sample()))
            if not last:
                server.stop()
        # The worker gets a CPU of its own, and the reference loop is
        # timed on that CPU while the worker waits between blocks.
        cpus = sorted(own_cpus)
        work_cpu = cpus[-1] if len(cpus) > 1 else None
        if work_cpu is not None:
            server.pin(cpus[0], work_cpu)
            os.sched_setaffinity(0, {cpus[0]})
        pending = collections.deque(range(ops))
        loop_s = calib.sample(work_cpu)
        while pending:
            outs, wall = asyncio.run(closed_loop(
                server.sock, "bench", payloads, pending, durable,
                DEADLINE_S, run.deadline, BLOCK_S, BLOCK_SESSIONS))
            after = calib.sample(work_cpu)
            factor = calib.factor(loop_s, after)
            loop_s = after
            outcomes.extend(outs)
            factors.extend([factor] * len(outs))
            walls.append(wall)
            scaled_wall += wall * factor
        rss = server.peak_rss_mb()
    finally:
        os.sched_setaffinity(0, own_cpus)
        if server is not None:
            server.stop()
    run.count([o.error for o in outcomes])
    run.factors.extend(factors)
    return {"setup_s": setup_s, "outcomes": outcomes, "factors": factors,
            "wall": scaled_wall, "raw_wall": sum(walls), "rss": rss}


def stream_end_to_end(run: Run, phase: Dict[str, Any]) -> Dict[str, float]:
    import inputs

    outs = phase["outcomes"]
    tail = inputs.tail_percentile(len(outs))
    session = [o.session_s * f * 1e3 for o, f in zip(outs, phase["factors"])]
    cycle = [o.cycle_s * f * 1e3 for o, f in zip(outs, phase["factors"])]
    run.unscaled = {
        "records_per_s": sum(o.records for o in outs) / phase["raw_wall"],
        "session_ms.p50": percentile([o.session_s * 1e3 for o in outs], 50)}
    return {
        "setup_s": statistics.median(phase["setup_s"]),
        "records_per_s": sum(o.records for o in outs) / phase["wall"],
        "session_ms.p50": percentile(session, 50),
        "session_ms.tail": percentile(session, tail),
        "cycle_ms.p50": percentile(cycle, 50),
        "cycle_ms.tail": percentile(cycle, tail),
        "peak_rss_mb": phase["rss"],
    }


def _load_dumps(prefix: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    with open(f"{prefix}.server.json") as fh:
        server = json.load(fh)
    workers = []
    for path in sorted(glob.glob(f"{prefix}.worker.*.json")):
        with open(path) as fh:
            workers.append(json.load(fh))
    return server, workers


def _counter_delta(final: Dict[str, Any], *baselines: Optional[Dict]
                   ) -> Dict[str, int]:
    out = dict(final.get("counters", {}))
    for base in baselines:
        for name, value in (base or {}).get("counters", {}).items():
            out[name] = out.get(name, 0) - value
    return out


def _span_metrics(stats: Dict[str, List[int]], ops: int,
                  into: Dict[str, float]) -> None:
    for name, (calls, _total, self_ns) in stats.items():
        for key, value in ((f"{name}.calls", calls),
                           (f"{name}.self_ms", self_ns / 1e6)):
            if key in into:
                into[key] += value / ops


def _scale_times(metrics: Dict[str, float], scale: float) -> None:
    """Put the per-layer times on the reference speed (see calib.py)."""
    for name in metrics:
        if name.endswith("_ms"):
            metrics[name] *= scale


def _inprocess_session_s(run: Run) -> float:
    """Mean seconds per stream through an in-process DetectionSession,
    scaled like the serve timings."""
    import calib
    import inputs

    inputs.reference_events(run.inputs["warmup"]["lines"])  # warm-up
    times = []
    for it in run.inputs["items"]:
        before = calib.sample()
        t0 = time.perf_counter()
        inputs.reference_events(it["lines"])
        took = time.perf_counter() - t0
        times.append(took * calib.factor(before, calib.sample()))
    return statistics.mean(times)


def stream_per_layer(run: Run) -> Dict[str, float]:
    half = run.ops // 2
    plain = _serve_phase(run, half, "plain", None)
    prefix = os.path.join(run.dir, "spans")
    traced = _serve_phase(run, half, "traced", prefix)
    server, workers = _load_dumps(prefix)
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    outs = traced["outcomes"]
    n = len(outs)
    worker_stats: Dict[str, List[int]] = {}
    for w in workers:
        for name, agg in w["stats"].items():
            acc = worker_stats.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += agg[i]
    _span_metrics(worker_stats, n, metrics)
    _span_metrics(server["stats"], n, metrics)
    counters = _counter_delta(server["final"], server["baseline"],
                              *(w["baseline"] for w in workers))
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0) / n
    from spans import WORKER_TOP

    session_ms = sum(o.session_s for o in outs) * 1e3
    busy_ms = sum(worker_stats.get(t, [0, 0, 0])[1] for t in WORKER_TOP) / 1e6
    # The top-level spans' self time is whatever no layer span covers, so
    # it is left out: a layer whose wrapper stopped firing lowers this.
    layer_self_ms = sum(agg[2] for name, agg in worker_stats.items()
                        if name not in WORKER_TOP) / 1e6
    metrics["serve.outside_worker_ms"] = (session_ms - busy_ms) / n
    metrics["layers.accounted_frac"] = (
        (layer_self_ms + session_ms - busy_ms) / session_ms)
    plain_per_op = plain["wall"] / len(plain["outcomes"])
    traced_per_op = traced["wall"] / n
    metrics["obs.trace_overhead_frac"] = traced_per_op / plain_per_op - 1
    metrics["serve.overhead_frac"] = (
        plain_per_op / _inprocess_session_s(run) - 1)
    _scale_times(metrics, traced["wall"] / traced["raw_wall"])
    return metrics


# -- debug cycle ------------------------------------------------------------


class CycleHost:
    """One ``cyclehost.py`` process; ``ready`` ends its set-up."""

    def __init__(self, run: Run, tag: str, traces: List[str],
                 trace_out: Optional[str] = None):
        import inputs

        self.result = os.path.join(run.dir, f"{tag}-result.json")
        work = os.path.join(run.dir, tag)
        os.makedirs(work, exist_ok=True)
        job = {"predicate": inputs.PREDICATE,
               "warmup": run.inputs["warmup"]["path"], "traces": traces,
               "work": work, "deadline_s": DEADLINE_S,
               "result": self.result, "trace_out": trace_out}
        job_path = os.path.join(run.dir, f"{tag}-job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), HERE])
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "cyclehost.py"), job_path],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def expect(self, word: str, timeout: float) -> Optional[str]:
        """The rest of the next stdout line if it starts with ``word``;
        ``None`` on anything else or after ``timeout`` seconds."""
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, timeout))
        if not ready:
            return None
        head, _, rest = self.proc.stdout.readline().strip().partition(" ")
        return rest if head == word else None

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def _cycle_phase(run: Run, ops: int, tag: str, trace_out: Optional[str]
                 ) -> Dict[str, Any]:
    import calib

    traces = [it["path"] for it in run.inputs["items"][:ops]]
    setup_s: List[float] = []
    host = None
    try:
        for k in range(run.setups):
            last = k == run.setups - 1
            before = calib.sample()
            host = CycleHost(run, f"{tag}{k}", traces,
                             trace_out if last else None)
            # the warm-up cycle runs under its own deadline in the host
            warm = host.expect("ready", DEADLINE_S + START_SLACK_S)
            if warm is None:
                raise RuntimeError("cycle process did not get ready")
            took = time.perf_counter() - host.t_launch
            outcome = json.loads(warm)
            run.count([None if outcome == "ok" else f"warm-up: {outcome}"])
            # the host waits on its stdin while the loop is timed
            setup_s.append(took * calib.factor(before, calib.sample()))
            if not last:
                host.send("exit")
                host.proc.wait(timeout=30)
                host.stop()
        host.send("go")
        budget = run.deadline - time.monotonic() + DEADLINE_S
        done = host.expect("done", budget) is not None
        if done:
            host.proc.wait(timeout=30)
    finally:
        if host is not None:
            host.stop()
    if done:
        with open(host.result) as fh:
            result = json.load(fh)
        cycles = result["cycles"]
        loop_s = result["loop_s"]
        factors = [calib.factor(a, b) for a, b in zip(loop_s, loop_s[1:])]
    else:
        result = {"peak_rss_kb": 0}
        cycles = [{"replay_s": 0.0, "cycle_s": DEADLINE_S,
                   "outcome": "cycle process did not finish"}] * len(traces)
        factors = [1.0] * len(traces)
    run.count([None if c["outcome"] == "ok" else c["outcome"]
               for c in cycles])
    run.factors.extend(factors)
    return {"setup_s": setup_s, "cycles": cycles, "factors": factors,
            "rss": result["peak_rss_kb"] / 1024.0}


def cycle_end_to_end(run: Run, phase: Dict[str, Any]) -> Dict[str, float]:
    import inputs

    cycles = phase["cycles"]
    tail = inputs.tail_percentile(len(cycles))
    replay = [c["replay_s"] * f * 1e3
              for c, f in zip(cycles, phase["factors"])]
    cycle = [c["cycle_s"] * f * 1e3
             for c, f in zip(cycles, phase["factors"])]
    records = sum(it["records"] for it, c in
                  zip(run.inputs["items"], cycles) if c["outcome"] == "ok")
    run.unscaled = {
        "records_per_s": records / sum(c["cycle_s"] for c in cycles),
        "session_ms.p50": percentile([c["replay_s"] * 1e3 for c in cycles],
                                     50)}
    return {
        "setup_s": statistics.median(phase["setup_s"]),
        "records_per_s": records / (sum(cycle) / 1e3),
        "session_ms.p50": percentile(replay, 50),
        "session_ms.tail": percentile(replay, tail),
        "cycle_ms.p50": percentile(cycle, 50),
        "cycle_ms.tail": percentile(cycle, tail),
        "peak_rss_mb": phase["rss"],
    }


def cycle_per_layer(run: Run) -> Dict[str, float]:
    half = run.ops // 2
    plain = _cycle_phase(run, half, "plain", None)
    dump = os.path.join(run.dir, "spans.cycle.json")
    traced = _cycle_phase(run, half, "traced", dump)
    with open(dump) as fh:
        doc = json.load(fh)
    cycles = traced["cycles"]
    n = len(cycles)
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    stats = doc["stats"]
    cli = [0, 0, 0]
    for name in ("cli.detect", "cli.control", "cli.replay"):
        for i, v in enumerate(stats.pop(name, [0, 0, 0])):
            cli[i] += v
    cycle_agg = stats.pop("cycle", [0, 1, 0])
    # cli.self_ms is whatever no layer span covers inside repro.cli.main,
    # so it is reported but not counted as accounted for
    metrics["layers.accounted_frac"] = (
        sum(agg[2] for agg in stats.values()) / cycle_agg[1])
    stats["cli"] = cli
    _span_metrics(stats, n, metrics)
    counters = _counter_delta(doc["final"], doc["baseline"])
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0) / n
    metrics["analysis.gate.admitted_frac"] = sum(
        c["outcome"] != "refused" for c in cycles) / n
    metrics["replay.completed_frac"] = sum(
        c["outcome"] == "ok" for c in cycles) / n
    plain_ms = statistics.median(c["cycle_s"] * f for c, f in
                                 zip(plain["cycles"], plain["factors"]))
    traced_ms = statistics.median(c["cycle_s"] * f for c, f in
                                  zip(cycles, traced["factors"]))
    metrics["obs.trace_overhead_frac"] = traced_ms / plain_ms - 1
    _scale_times(metrics, statistics.mean(traced["factors"]))
    return metrics


# -- entry point ------------------------------------------------------------


def measure(run: Run) -> Dict[str, float]:
    stream = run.spec.kind == "stream"
    if run.args.trace:
        return stream_per_layer(run) if stream else cycle_per_layer(run)
    if stream:
        return stream_end_to_end(run, _serve_phase(run, run.ops, "run", None))
    return cycle_end_to_end(run, _cycle_phase(run, run.ops, "run", None))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["stream_controlled", "stream_buggy",
                                 "stream_short_durable", "debug_cycle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/repro is missing "
              f"(run from the root of a checkout)", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    # SIGTERM unwinds like an error, so the servers and cycle processes
    # this run started are stopped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    import inputs

    run = Run(args)
    try:
        metrics = measure(run)
    finally:
        run.close()
    units = dict(PER_LAYER if args.trace else END_TO_END)
    load = ("2 closed-loop connections" if run.spec.kind == "stream"
            else "one cycle process")
    if args.trace:
        plan = f"{run.ops // 2} untraced + {run.ops // 2} traced operations"
    else:
        plan = (f"{run.ops} operations, tail = "
                f"p{inputs.tail_percentile(run.ops)}")
    print(f"workload {args.workload} seed {args.seed}: {plan} over {load}")
    print("inputs " + json.dumps(run.inputs["props"], sort_keys=True))
    print(f"times scaled to the reference loop's speed by factors "
          f"{min(run.factors):.3f}-{max(run.factors):.3f} "
          f"(median {statistics.median(run.factors):.3f})")
    if run.unscaled:
        print("unscaled " + json.dumps(run.unscaled))
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.4f} {units[name]}")
    failed = len(run.failures)
    print(f"  {'failed_frac':36s} {failed / run.attempted:14.4f} ratio")
    for problem in run.failures[:10]:
        print(f"  failed: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
