#!/usr/bin/env python
"""CI gate for the online/store lint surface.

Three legs, all through the public CLI:

1. **Baseline gate** -- every committed example trace under
   ``examples/traces/*.jsonl`` must pass ``repro lint --strict
   --baseline examples/traces/lint-baseline.json``: known warnings are
   fingerprint-pinned in the committed baseline, so only a *new*
   finding (or a fingerprint drift, which would silently orphan every
   user's baseline) fails CI.

2. **Store gate** -- builds a SQLite commit chain from an example
   trace, lints ``main`` and an obstructed ``candidate-1`` branch via
   ``lint --store`` / ``db lint``, and requires the C104 obstruction to
   be reported with a ``candidate-1@cN`` witness location.

3. **Replay admission gate** -- ``repro replay`` on that obstructed
   branch must refuse with exit 3 and record a ``rejected`` verdict on
   the branch; ``--force`` must override.

4. **Scale smoke** -- ``repro lint --predicate at-least-one:up`` on a
   generated n=6, ~2.5k-record stream must finish within 60 s with exit
   0 and no C104: a search over one false interval per process would try
   ~5*10^9 combinations there, the Figure 2 decision a few thousand pairs.

Run as ``PYTHONPATH=src python scripts/lint_gate.py`` (append ``scale``
for leg 4 alone); exits non-zero after the legs if any check failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

TRACES = REPO / "examples" / "traces"
BASELINE = TRACES / "lint-baseline.json"

FAILURES: list = []


def check(label: str, ok: bool, detail: str = "") -> None:
    mark = "ok" if ok else "FAIL"
    print(f"[{mark}] {label}" + (f" -- {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(label)


def cli(*args: str, timeout: Optional[float] = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        cwd=str(REPO), timeout=timeout,
    )


def leg_baseline() -> None:
    traces = sorted(TRACES.glob("*.jsonl"))
    check("example traces committed", len(traces) >= 3,
          f"found {len(traces)}")
    check("baseline committed", BASELINE.is_file())
    for trace in traces:
        r = cli("lint", str(trace), "--strict", "--baseline", str(BASELINE))
        check(f"{trace.name} --strict --baseline", r.returncode == 0,
              r.stdout + r.stderr)
    # the baseline gate has teeth: without the baseline, the planted
    # warnings must fail --strict
    r = cli("lint", str(TRACES / "crossed.jsonl"), "--strict")
    check("crossed.jsonl fails --strict without baseline",
          r.returncode == 1, f"exit {r.returncode}")
    # SARIF partialFingerprints must agree with the baseline identities
    r = cli("lint", str(TRACES / "crossed.jsonl"), "--format", "sarif")
    sarif = json.loads(r.stdout)
    fps = {res["partialFingerprints"]["repro-fp-v1"]
           for res in sarif["runs"][0]["results"]}
    accepted = set(json.loads(BASELINE.read_text())["fingerprints"])
    check("sarif fingerprints are baseline fingerprints",
          fps and fps <= accepted, f"{fps - accepted}")


def leg_store(tmp: Path) -> Path:
    from repro.storage import record_control_branch
    from repro.trace import Deposet

    db = tmp / "gate.db"
    trace_json = tmp / "ring.json"
    r = cli("ingest", str(TRACES / "ring.jsonl"), "-o", str(trace_json))
    check("ingest example stream to batch", r.returncode == 0, r.stderr)
    r = cli("ingest", str(trace_json), "--store", f"sqlite:{db}")
    check("ingest into sqlite store", r.returncode == 0, r.stderr)
    r = cli("lint", "--store", f"sqlite:{db}", "--baseline", str(BASELINE),
            "--strict")
    check("lint --store main with baseline", r.returncode == 0,
          r.stdout + r.stderr)

    # an obstructed candidate: both processes end with 'up' false and no
    # messages, so the false intervals overlap (Lemma 2) -> C104
    bad_db = tmp / "obstructed.db"
    bad = Deposet(
        [[{"up": True}, {"up": False}], [{"up": True}, {"up": False}]], []
    )
    name, _cid = record_control_branch(
        f"sqlite:{bad_db}", bad, (), meta={"verdict": "pending"}
    )
    check("candidate branch recorded", name == "candidate-1", name)
    r = cli("db", "lint", str(bad_db), "--branch", "candidate-1",
            "--predicate", "at-least-one:up", "--format", "json")
    doc = json.loads(r.stdout) if r.stdout.strip() else {}
    c104 = [f for f in doc.get("findings", []) if f["rule"] == "C104"]
    check("db lint reports C104 on the candidate",
          r.returncode == 1 and bool(c104), r.stdout + r.stderr)
    check("C104 witness carries branch@commit location",
          bool(c104) and c104[0]["location"].startswith("candidate-1@c"),
          str(c104))
    # typed store errors -> exit 3
    r = cli("lint", "--store", f"sqlite:{tmp / 'missing.db'}")
    check("missing store is a typed exit-3 error",
          r.returncode == 3 and "error:" in r.stderr, r.stderr)
    r = cli("lint", "--store", f"sqlite:{db}@nope")
    check("unknown branch is a typed exit-3 error",
          r.returncode == 3 and "nope" in r.stderr, r.stderr)
    return bad_db


def leg_replay_gate(bad_db: Path) -> None:
    target = f"sqlite:{bad_db}@candidate-1"
    r = cli("replay", target, "--predicate", "at-least-one:up")
    check("replay refuses the obstructed candidate (exit 3)",
          r.returncode == 3 and "replay refused" in r.stderr
          and "C104" in r.stderr, f"exit {r.returncode}: {r.stderr}")
    r = cli("replay", target, "--predicate", "at-least-one:up",
            "--store", f"sqlite:{bad_db}")
    check("refusal records a rejected verdict branch",
          r.returncode == 3 and "candidate-" in r.stdout, r.stdout + r.stderr)
    r = cli("db", "log", str(bad_db), "--branch", "candidate-2")
    check("rejected verdict visible in db log",
          r.returncode == 0 and "rejected" in r.stdout and "C104" in r.stdout,
          r.stdout)
    r = cli("replay", target, "--predicate", "at-least-one:up", "--force")
    check("--force overrides the gate", r.returncode == 0,
          r.stdout + r.stderr)


def leg_scale(tmp: Path) -> None:
    from repro.trace.io import write_event_stream
    from repro.workloads import random_deposet

    trace = tmp / "scale.jsonl"
    write_event_stream(
        random_deposet(n=6, events_per_proc=420, message_rate=0.15,
                       flip_rate=0.2, seed=13),
        trace,
    )
    try:
        r = cli("lint", str(trace), "--predicate", "at-least-one:up",
                "--format", "json", timeout=60)
    except subprocess.TimeoutExpired:
        check("n=6 ~2.5k-record lint finishes within 60 s", False, "timeout")
        return
    rules = {f["rule"] for f in json.loads(r.stdout or "{}").get("findings", [])}
    check("n=6 ~2.5k-record lint exits 0 without C104",
          r.returncode == 0 and "C104" not in rules,
          f"exit {r.returncode}: {sorted(rules)} {r.stderr}")


def main(argv: List[str]) -> int:
    with tempfile.TemporaryDirectory() as d:
        if argv != ["scale"]:
            leg_baseline()
            leg_replay_gate(leg_store(Path(d)))
        leg_scale(Path(d))
    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) failed: {FAILURES}")
        return 1
    print("\nlint gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
