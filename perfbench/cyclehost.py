"""The debug-cycle process: ``detect -> control -o -> replay --predicate``.

Usage: ``python3 perfbench/cyclehost.py JOB.json``

A fresh interpreter imports ``repro.cli``, runs one untimed warm-up cycle
on the job's warm-up trace and prints ``ready`` followed by the warm-up's
outcome as JSON.  It then waits for one line on stdin: ``go`` runs the
timed cycles, with the reference loop of ``calib.py`` timed before the
first and after each, anything else exits.  Each cycle calls ``repro.cli.main``
in-process three times, exactly as a user types the commands, with the
replay admission gate on.  A cycle that raises, is refused, exits with an
unexpected code, overruns its deadline or replays to a trace that
violates B is a failed operation.  Results go to the job's ``result``
path as JSON; then the process prints ``done``.
"""

import contextlib
import io
import json
import os
import signal
import sys
import time

import calib

class CycleDeadline(BaseException):
    """Raised by the interval timer; a ``BaseException`` so that no
    ``except Exception`` inside the program under test swallows it."""


def _on_alarm(signum, frame):
    raise CycleDeadline()


def run_cycle(cli_main, trace, work, predicate, recorder=None):
    """One cycle; returns ``(replay_s, cycle_s, outcome)`` where
    ``replay_s`` is the ``replay`` step alone (admission gate plus
    controlled re-execution) and outcome is ``"ok"``, ``"refused"`` or a
    failure description.  Replay verification is the caller's, outside
    the timed region."""
    fixed = os.path.join(work, "fixed.json")
    replayed = os.path.join(work, "replayed.json")
    out, err = io.StringIO(), io.StringIO()
    steps = (
        ("cli.detect", ["detect", trace, "--predicate", predicate], (0, 1)),
        ("cli.control", ["control", trace, "--predicate", predicate,
                         "-o", fixed], (0,)),
        ("cli.replay", ["replay", fixed, "--predicate", predicate,
                        "-o", replayed], (0,)),
    )
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for name, argv, expected in steps:
            call = (cli_main if recorder is None
                    else recorder.wrap(name, cli_main))
            t_step = time.perf_counter()
            rc = call(argv)
            t_end = time.perf_counter()
            if rc not in expected:
                if name == "cli.replay" and "replay refused" in err.getvalue():
                    return t_end - t_step, t_end - t0, "refused"
                return 0.0, t_end - t0, (
                    f"{argv[0]} exited {rc}: {err.getvalue().strip()[-200:]}")
    return t_end - t_step, t_end - t0, "ok"


def peak_rss_kb(pid="self"):
    """``VmHWM`` of a process, in kB (0 once the process is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def checked_cycle(cli_main, trace, work, predicate, deadline_s,
                  recorder=None):
    """One cycle under its deadline, its replayed trace checked against
    B outside the timed region; returns a result record."""
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    t0 = time.perf_counter()
    try:
        if recorder is not None:
            cycle = recorder.wrap("cycle", run_cycle)
            replay_s, cycle_s, outcome = cycle(cli_main, trace, work,
                                               predicate, recorder)
        else:
            replay_s, cycle_s, outcome = run_cycle(cli_main, trace, work,
                                                   predicate)
        signal.setitimer(signal.ITIMER_REAL, 0)
    except CycleDeadline:
        replay_s, cycle_s = 0.0, time.perf_counter() - t0
        outcome = f"past its {deadline_s} s deadline"
    except Exception as exc:  # a raising cycle is a failed operation
        signal.setitimer(signal.ITIMER_REAL, 0)
        replay_s, cycle_s = 0.0, time.perf_counter() - t0
        outcome = f"raised {exc!r}"
    if outcome == "ok":
        from inputs import replayed_ok

        outcome = replayed_ok(os.path.join(work, "replayed.json")) or "ok"
    return {"replay_s": replay_s, "cycle_s": cycle_s, "outcome": outcome}


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    import repro.cli

    signal.signal(signal.SIGALRM, _on_alarm)
    args = (job["work"], job["predicate"], job["deadline_s"])
    warmup = checked_cycle(repro.cli.main, job["warmup"], *args)
    print("ready " + json.dumps(warmup["outcome"]), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    recorder = None
    if job.get("trace_out"):
        import spans

        spans.install(spans.CYCLE_SPANS)
        recorder = spans.RECORDER
        recorder.start()
    # the reference loop is timed before the first cycle and after each
    loop_s = [calib.sample()]
    results = []
    for trace in job["traces"]:
        results.append(checked_cycle(repro.cli.main, trace, *args, recorder))
        loop_s.append(calib.sample())
    if recorder is not None:
        recorder.dump(job["trace_out"], "cycle")
    with open(job["result"], "w") as fh:
        json.dump({"cycles": results, "loop_s": loop_s,
                   "peak_rss_kb": peak_rss_kb()}, fh)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
