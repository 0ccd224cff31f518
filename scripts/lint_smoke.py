#!/usr/bin/env python
"""CI smoke test for ``repro lint``.

Builds a small, genuinely race-free trace (a sequential message chain with
per-process variable names, so not even the race *warnings* fire), checks
that it passes ``repro lint --strict``, then corrupts copies of it three
different ways and asserts that the linter reports **exactly** the planted
rule id each time, with a concrete witness:

* vector-clock skew            -> ``T008``
* orphan receive endpoint      -> ``T005``
* interfering control arrow    -> ``C101``

Then writes inputs the trace grammar must refuse (a non-numeric stream
``time``, bad header ``start_times``/``proc_names``, a batch whose
``messages``/``control`` is not a list or whose ``proc_names`` is a
string) and checks that ``repro lint`` reports T001 at the expected
location (exit 1), that ``repro ingest`` and ``repro detect`` stop with
``error: <location>: ...`` (exit 3), and that no traceback escapes.

Finally lints the committed workload generators (philosophers, mutex,
figure 4) and requires zero errors on each -- warnings are allowed there
(recorded workloads legitimately contain races).

Run as ``PYTHONPATH=src python scripts/lint_smoke.py``; exits non-zero on
the first deviation.  Uses only the public CLI for the fixture checks so
the exit-code contract (0 clean / 1 findings / 3 usage) is covered too.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import Severity, lint_deposet  # noqa: E402
from repro.causality.relations import StateRef  # noqa: E402
from repro.trace.deposet import Deposet  # noqa: E402
from repro.trace.states import MessageArrow  # noqa: E402
from repro.trace.io import dump_deposet  # noqa: E402
from repro.workloads import figure4_c1, mutex_trace, philosophers_trace  # noqa: E402

FAILURES: list = []


def check(label: str, ok: bool, detail: str = "") -> None:
    mark = "ok" if ok else "FAIL"
    print(f"[{mark}] {label}" + (f" -- {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(label)


def clean_trace() -> Deposet:
    """Three processes, a sequential message chain, disjoint variables.

    P0 hands a token to P1, P1 to P2 -- every pair of sends is causally
    ordered and every variable belongs to exactly one process, so no
    T/C/R rule has anything to say even under ``--strict``.
    """
    states = (
        ({"a": 0}, {"a": 1}, {"a": 2}),
        ({"b": 0}, {"b": 1}, {"b": 2}),
        ({"c": 0}, {"c": 1}, {"c": 2}),
    )
    messages = (
        MessageArrow(src=StateRef(0, 0), dst=StateRef(1, 1), tag="token"),
        MessageArrow(src=StateRef(1, 1), dst=StateRef(2, 2), tag="token"),
    )
    return Deposet(states, messages, (), proc_names=("P0", "P1", "P2"))


def run_cli(path: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(path), "--format", "json", *extra],
        capture_output=True,
        text=True,
    )


def run_verb(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv], capture_output=True, text=True,
    )


def malformed_inputs(tmp: Path) -> list:
    """``(path, lint location, strict error prefix)`` per refused input."""
    header = {"format": "repro-events/1", "proc_names": ["A", "B"],
              "start": [{}, {}], "start_times": [0.0, 0.0]}
    ev = {"t": "ev", "p": 0, "u": {}}
    streams = {
        "time-abc": [header, dict(ev, time="abc")],
        "start-times-x": [dict(header, start_times=["x", "y"]), ev],
        "proc-names-short": [dict(header, proc_names=["A"]), ev],
        "start-times-short": [dict(header, start_times=[0.0]), ev],
    }
    batch = {"format": "repro-deposet/1", "proc_names": ["A", "B"],
             "states": [[{}, {}], [{}, {}]], "messages": [], "control": []}
    docs = {"messages": {"messages": 5}, "control": {"control": 5},
            "proc_names": {"proc_names": "AB"}}
    out = []
    for name, records in streams.items():
        path = tmp / f"{name}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        line = 2 if name == "time-abc" else 1
        out.append((path, f"{path}:{line}", f"error: {path}:{line}: "))
    for key, change in docs.items():
        path = tmp / f"bad-{key}.json"
        path.write_text(json.dumps({**batch, **change}))
        out.append((path, key, f"error: {path}: {key}: "))
    return out


def check_malformed(tmp: Path) -> None:
    for path, location, prefix in malformed_inputs(tmp):
        name = path.name
        proc = run_cli(path)
        stderr = proc.stderr
        try:
            findings = json.loads(proc.stdout)["findings"]
        except ValueError:  # a crash printed no report
            findings = []
        check(f"{name}: lint exits 1", proc.returncode == 1, proc.stdout + proc.stderr)
        check(
            f"{name}: lint reports T001 at {location}",
            any(f["rule"] == "T001" and f.get("location") == location
                for f in findings),
            proc.stdout,
        )
        verbs = [["ingest", str(path), "-o", str(tmp / "out.x")]]
        if path.suffix == ".json":  # detect reads batch documents
            verbs.append(["detect", str(path), "--predicate", "at-least-one:x"])
        for argv in verbs:
            proc = run_verb(*argv)
            stderr += proc.stderr
            check(f"{name}: {argv[0]} exits 3", proc.returncode == 3, proc.stderr)
            check(f"{name}: {argv[0]} names {location}",
                  any(ln.startswith(prefix) for ln in proc.stderr.splitlines()),
                  proc.stderr)
        check(f"{name}: no traceback", "Traceback" not in stderr, stderr)


def rule_ids(proc: subprocess.CompletedProcess) -> list:
    doc = json.loads(proc.stdout)
    return sorted({f["rule"] for f in doc["findings"]})


def main() -> int:
    dep = clean_trace()
    tmp = Path(tempfile.mkdtemp(prefix="lint-smoke-"))

    clean_path = tmp / "clean.json"
    dump_deposet(dep, clean_path, clocks=True)
    base = json.loads(clean_path.read_text())

    proc = run_cli(clean_path, "--strict")
    check("clean trace passes --strict (exit 0)", proc.returncode == 0, proc.stdout)
    check("clean trace has zero findings", rule_ids(proc) == [], proc.stdout)

    # 1. vector-clock skew -> T008
    skewed = copy.deepcopy(base)
    skewed["clocks"][2][2][0] += 5
    skew_path = tmp / "clock-skew.json"
    skew_path.write_text(json.dumps(skewed))
    proc = run_cli(skew_path)
    check("clock skew exits 1", proc.returncode == 1, proc.stdout)
    check("clock skew reports exactly T008", rule_ids(proc) == ["T008"], proc.stdout)
    doc = json.loads(proc.stdout)
    check(
        "T008 witness carries recorded vs recomputed clocks",
        all("recorded" in f["data"] and "recomputed" in f["data"] for f in doc["findings"]),
    )

    # 2. orphan receive endpoint -> T005
    orphan = copy.deepcopy(base)
    orphan["messages"][0]["dst"] = [7, 1]
    orphan_path = tmp / "orphan.json"
    orphan_path.write_text(json.dumps(orphan))
    proc = run_cli(orphan_path)
    check("orphan receive exits 1", proc.returncode == 1, proc.stdout)
    check("orphan receive reports exactly T005", rule_ids(proc) == ["T005"], proc.stdout)
    doc = json.loads(proc.stdout)
    check(
        "T005 witness names the bad endpoint",
        any("messages[0]" in (f.get("location") or "") for f in doc["findings"]),
    )

    # 3. interfering control arrow -> C101.  The message P1:1 ~> P2:2
    # orders event (1,1) before (2,1); the control arrow P2:1 -> P1:1
    # demands the opposite, closing a cycle in the extended relation.
    interf = copy.deepcopy(base)
    interf.pop("clocks", None)  # recomputed order no longer matches; not the point here
    interf["control"] = [[[2, 1], [1, 1]]]
    interf_path = tmp / "interference.json"
    interf_path.write_text(json.dumps(interf))
    proc = run_cli(interf_path)
    check("interference exits 1", proc.returncode == 1, proc.stdout)
    check("interference reports exactly C101", rule_ids(proc) == ["C101"], proc.stdout)
    doc = json.loads(proc.stdout)
    check(
        "C101 witness carries the event cycle",
        any(f["data"].get("cycle_events") for f in doc["findings"]),
    )

    # 4. malformed input: T001 in lint, a located error from the strict verbs
    check_malformed(tmp)

    # 5. committed workload generators must lint with zero errors
    for name, wdep in (
        ("philosophers", philosophers_trace(3, 2, seed=7)),
        ("mutex", mutex_trace(2, n=2, seed=7)),
        ("figure4_c1", figure4_c1()[0]),
    ):
        report = lint_deposet(wdep, source=name)
        errors = [f for f in report.findings if f.severity >= Severity.ERROR]
        check(f"workload {name} lints with zero errors", not errors, report.summary())

    print()
    if FAILURES:
        print(f"lint smoke FAILED: {len(FAILURES)} check(s): {FAILURES}")
        return 1
    print("lint smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
