"""Lenient trace parsing for the static analyzer.

The strict loaders (:func:`repro.trace.load_deposet`,
:func:`repro.trace.ingest_event_stream`) raise on the first violation of
D1--D3 or causal delivery order -- correct for consumers, useless for a
linter that must *report* every violation with a witness.  This module
parses both trace formats into a :class:`RawTrace` -- an unvalidated bag
of states, message arrows, and control arrows, each remembering where in
the input it came from (JSON path or ``file:lineno``).

The grammar of both formats is not repeated here: it lives in
:mod:`repro.trace.io` (``check_deposet_document``, ``check_stream_header``,
``check_stream_record``), shared with the strict loaders.  Every problem
it reports becomes a T001 finding with the same location and message the
strict loader would raise, and parsing continues with the grammar's
substitute.  What is lint-specific stays here: the raw containers, the
T009 causal delivery-order check, the recorded ``clocks`` block (read
only by T008), and :class:`StreamParser`'s incremental state.

The analysis passes then check the deposet axioms over the raw trace; a
real (validated) :class:`~repro.trace.deposet.Deposet` is constructed only
once the sanitizer reports no errors, gating the deep passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.findings import Finding
from repro.causality.relations import StateRef
from repro.errors import UnknownTraceFormatError
from repro.trace.deposet import Deposet
from repro.trace.io import (
    FORMAT,
    STREAM_FORMAT,
    Report,
    check_deposet_document,
    check_stream_header,
    check_stream_record,
)
from repro.trace.states import MessageArrow

__all__ = [
    "RawArrow",
    "RawTrace",
    "StreamParser",
    "parse_batch",
    "parse_stream",
    "parse_stream_lines",
    "load_raw",
]

Ref = Tuple[int, int]


@dataclass
class RawArrow:
    """A message or control arrow, plus where the input declared it."""

    src: Ref
    dst: Ref
    location: Optional[str] = None
    tag: Optional[str] = None
    payload: Any = None

    @property
    def pair(self) -> Tuple[Ref, Ref]:
        return (self.src, self.dst)


@dataclass
class RawTrace:
    """An unvalidated trace: shape only, no axiom enforcement."""

    source: str
    format: str
    proc_names: List[str] = field(default_factory=list)
    #: ``states[i][a]`` is the variable assignment of state ``(i, a)``.
    states: List[List[Dict[str, Any]]] = field(default_factory=list)
    messages: List[RawArrow] = field(default_factory=list)
    control: List[RawArrow] = field(default_factory=list)
    timestamps: Optional[List[List[float]]] = None
    #: Recorded vector clocks (``clocks[i][a]`` for state ``(i, a)``),
    #: when the producer emitted a ``"clocks"`` block.
    clocks: Optional[List[List[List[int]]]] = None
    obs: Optional[Dict[str, Any]] = None

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def state_counts(self) -> Tuple[int, ...]:
        return tuple(len(s) for s in self.states)

    def has_state(self, ref: Ref) -> bool:
        proc, index = ref
        return 0 <= proc < self.n and 0 <= index < len(self.states[proc])

    def to_deposet(self) -> Deposet:
        """A validated deposet (raises on axiom violations -- call only
        after the sanitizer reported no errors)."""
        return Deposet(
            self.states,
            [
                MessageArrow(
                    StateRef(*m.src), StateRef(*m.dst),
                    payload=m.payload, tag=m.tag,
                )
                for m in self.messages
            ],
            [(StateRef(*c.src), StateRef(*c.dst)) for c in self.control],
            proc_names=self.proc_names or None,
            timestamps=self.timestamps,
        )


def _t001(location: Optional[str], message: str) -> Finding:
    return Finding("T001", message, location=location)


def _collect(findings: List[Finding]) -> Report:
    """A grammar ``report`` callback appending T001 findings."""
    return lambda location, message: findings.append(_t001(location, message))


# -- batch documents ---------------------------------------------------------


def parse_batch(
    data: Any, source: str = "<trace>"
) -> Tuple[Optional[RawTrace], List[Finding]]:
    """Leniently parse a ``repro-deposet/1`` document.

    Returns ``(raw, findings)``; ``raw`` is ``None`` only when the
    document is too broken to analyse at all (not an object, or no usable
    ``states`` list).  Every problem the grammar
    (:func:`~repro.trace.io.check_deposet_document`) reports is a T001;
    broken messages/arrows are skipped, the rest of the trace is still
    analysed.
    """
    findings: List[Finding] = []
    parts = check_deposet_document(data, _collect(findings))
    if parts is None:
        return None, findings
    states, names, messages, control, timestamps = parts
    raw = RawTrace(source=source, format=FORMAT, states=states)
    if names is not None:
        raw.proc_names = [str(x) for x in names]
    raw.messages = [
        RawArrow(tuple(src), tuple(dst), location=f"messages[{k}]",
                 tag=m.get("tag"), payload=m.get("payload"))
        for k, src, dst, m in messages
    ]
    raw.control = [
        RawArrow(tuple(src), tuple(dst), location=f"control[{k}]") for k, src, dst in control
    ]
    if timestamps is not None:
        raw.timestamps = [[float(t) for t in row] for row in timestamps]

    clocks = data.get("clocks")
    if clocks is not None:
        ok = isinstance(clocks, list) and len(clocks) == len(states)
        if ok:
            for i, row in enumerate(clocks):
                if (
                    not isinstance(row, list)
                    or len(row) != len(states[i])
                    or not all(
                        isinstance(v, list)
                        and len(v) == len(states)
                        and all(isinstance(c, int) and not isinstance(c, bool) for c in v)
                        for v in row
                    )
                ):
                    findings.append(
                        _t001(
                            f"clocks[{i}]",
                            f"expected {len(states[i])} vectors of {len(states)} ints",
                        )
                    )
                    ok = False
        else:
            findings.append(_t001("clocks", f"expected {len(states)} per-process rows"))
        if ok:
            raw.clocks = clocks
    raw.obs = data.get("obs")
    return raw, findings


# -- event streams -----------------------------------------------------------


class StreamParser:
    """Incremental lenient parser for ``repro-events/1`` streams.

    The single source of truth for the stream-side lenient-parse
    semantics: :func:`parse_stream` drains a file through one instance,
    and the online linter (:mod:`repro.analysis.incremental`) keeps one
    as its *mirror* -- feeding the same records produces, by
    construction, exactly the :class:`RawTrace` and parse findings a
    batch re-parse of the prefix would.

    Reads each line with the grammar :func:`repro.trace.ingest_event_stream`
    uses, but collects findings instead of raising: structural problems
    are T001, records that break causal delivery order (an arrow whose
    source event has not completed at the time its target record arrives
    -- the contract :class:`~repro.store.index.CausalIndex` enforces on
    append) are T009.  Every witness carries ``source:lineno``.

    After each :meth:`feed_line`/:meth:`feed_record` call the
    ``delta_*`` attributes name the states and arrows that call
    appended, so an incremental consumer can react in O(delta).
    """

    def __init__(self, source: str = "<stream>") -> None:
        self.source = source
        self.raw: Optional[RawTrace] = None
        self.findings: List[Finding] = []
        self.vars_now: List[Dict[str, Any]] = []
        #: a header was seen but unusable; the batch parser stops there
        self.dead = False
        self.lineno = 0
        #: ``(proc, index)`` states appended by the last feed call
        self.delta_states: List[Ref] = []
        #: message arrows appended by the last feed call
        self.delta_messages: List[RawArrow] = []
        #: control arrows appended by the last feed call
        self.delta_control: List[RawArrow] = []

    def feed_line(
        self, line: str, where: Optional[str] = None
    ) -> List[Finding]:
        """Parse one raw stream line; returns the findings it produced."""
        where = self._next(where)
        line = line.strip()
        if self.dead or not line:
            return []
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            return self._emit(_t001(where, f"not valid JSON ({exc})"))
        return self._feed(rec, where)

    def feed_record(
        self, rec: Any, where: Optional[str] = None
    ) -> List[Finding]:
        """Parse one already-decoded record (``dict``); same contract as
        :meth:`feed_line` minus the JSON decode."""
        where = self._next(where)
        return [] if self.dead else self._feed(rec, where)

    def _next(self, where: Optional[str]) -> str:
        """Count one line, clear the ``delta_*`` fields; the line's location."""
        self.lineno += 1
        self.delta_states = []
        self.delta_messages = []
        self.delta_control = []
        return f"{self.source}:{self.lineno}" if where is None else where

    def _emit(self, *found: Finding) -> List[Finding]:
        self.findings.extend(found)
        return list(found)

    def _feed(self, rec: Any, where: str) -> List[Finding]:
        out: List[Finding] = []
        report = _collect(out)
        raw = self.raw
        if raw is None:
            header = check_stream_header(rec, where, report)
            if header is None:
                # An object without a usable 'start' list ends the parse; a
                # non-object line leaves the next line to be the header.
                self.dead = isinstance(rec, dict)
            else:
                self._open(*header)
            return self._emit(*out)
        fields = check_stream_record(rec, raw.n, where, report)
        if fields is None:
            return self._emit(*out)
        kind, proc, vars, updates, src, dst, time = fields
        if kind == "ev" or kind == "recv":
            if vars is not None:
                self.vars_now[proc] = dict(vars)
            else:
                self.vars_now[proc] = {**self.vars_now[proc], **updates}
            raw.states[proc].append(dict(self.vars_now[proc]))
            new_index = len(raw.states[proc]) - 1
            self.delta_states.append((proc, new_index))
            if raw.timestamps is not None:
                if time is None:
                    raw.timestamps = None  # incomplete -- drop the channel
                else:
                    raw.timestamps[proc].append(float(time))
            if src is not None:
                arrow = RawArrow(tuple(src), (proc, new_index), location=where,
                                 tag=rec.get("tag"), payload=rec.get("payload"))
                raw.messages.append(arrow)
                self.delta_messages.append(arrow)
                _check_delivery_order(raw, arrow, "message", where, out)
        elif kind == "ctl":
            arrow = RawArrow(tuple(src), tuple(dst), location=where)
            raw.control.append(arrow)
            self.delta_control.append(arrow)
            _check_delivery_order(raw, arrow, "control arrow", where, out)
        else:
            raw.obs = rec.get("obs")
        return self._emit(*out)

    def _open(self, start: List[Dict[str, Any]], names: Any, times: Any) -> None:
        """Start the raw trace from a header the grammar accepted."""
        self.vars_now = [dict(v) for v in start]
        raw = RawTrace(
            source=self.source,
            format=STREAM_FORMAT,
            states=[[dict(v)] for v in self.vars_now],
        )
        if names is not None:
            raw.proc_names = [str(x) for x in names]
        if isinstance(times, list):
            raw.timestamps = [[float(t)] for t in times]
        elif times is not None:
            raw.timestamps = [[float(times)] for _ in start]
        self.raw = raw
        self.delta_states = [(i, 0) for i in range(raw.n)]

    def finish(self) -> Tuple[Optional[RawTrace], List[Finding]]:
        """End of input: the raw trace plus *all* accumulated findings
        (identical to a one-shot :func:`parse_stream` of the same lines)."""
        if self.raw is None and not self.dead:
            self.findings.append(_t001(self.source, "empty stream (no header)"))
            self.dead = True  # idempotent finish
        return self.raw, self.findings

    # -- state capture (the serve layer checkpoints its mirror) --------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable parser state (findings are *not* included --
        they are owned by whoever accumulated them)."""
        raw_blob: Optional[Dict[str, Any]] = None
        if self.raw is not None:
            raw = self.raw
            raw_blob = {
                "source": raw.source,
                "format": raw.format,
                "proc_names": list(raw.proc_names),
                "states": raw.states,
                "messages": [
                    {"src": list(m.src), "dst": list(m.dst),
                     "location": m.location, "tag": m.tag,
                     "payload": m.payload}
                    for m in raw.messages
                ],
                "control": [
                    {"src": list(c.src), "dst": list(c.dst),
                     "location": c.location}
                    for c in raw.control
                ],
                "timestamps": raw.timestamps,
                "obs": raw.obs,
            }
        return {
            "source": self.source,
            "raw": raw_blob,
            "vars_now": self.vars_now,
            "dead": self.dead,
            "lineno": self.lineno,
        }

    @classmethod
    def restore(cls, snap: Dict[str, Any]) -> "StreamParser":
        parser = cls(source=str(snap.get("source", "<stream>")))
        parser.dead = bool(snap.get("dead", False))
        parser.lineno = int(snap.get("lineno", 0))
        parser.vars_now = [dict(v) for v in snap.get("vars_now", ())]
        blob = snap.get("raw")
        if blob is not None:
            raw = RawTrace(
                source=str(blob["source"]),
                format=str(blob["format"]),
                proc_names=[str(x) for x in blob.get("proc_names", ())],
                states=[[dict(v) for v in row] for row in blob["states"]],
                timestamps=blob.get("timestamps"),
                obs=blob.get("obs"),
            )
            for m in blob.get("messages", ()):
                raw.messages.append(RawArrow(
                    (m["src"][0], m["src"][1]), (m["dst"][0], m["dst"][1]),
                    location=m.get("location"), tag=m.get("tag"),
                    payload=m.get("payload"),
                ))
            for c in blob.get("control", ()):
                raw.control.append(RawArrow(
                    (c["src"][0], c["src"][1]), (c["dst"][0], c["dst"][1]),
                    location=c.get("location"),
                ))
            parser.raw = raw
        return parser


def parse_stream(
    path: Union[str, Path]
) -> Tuple[Optional[RawTrace], List[Finding]]:
    """Leniently parse a ``repro-events/1`` stream file.

    One-shot wrapper over :class:`StreamParser`; see there for the
    semantics (T001 for structural problems, T009 for causal
    delivery-order violations, every witness carrying ``file:lineno``).
    """
    with open(path) as fh:
        return parse_stream_lines(fh, source=str(Path(path)))


def parse_stream_lines(
    lines: Iterable[str], source: str = "<stream>"
) -> Tuple[Optional[RawTrace], List[Finding]]:
    """Leniently parse lines of a stream (the prefix-identity tests
    re-parse every prefix through this)."""
    parser = StreamParser(source=source)
    for line in lines:
        parser.feed_line(line)
    return parser.finish()


def _check_delivery_order(
    raw: RawTrace,
    arrow: RawArrow,
    what: str,
    where: str,
    findings: List[Finding],
) -> None:
    """T009 when ``arrow`` references a state that has not been streamed
    yet at this point (the :meth:`CausalIndex.append_event` contract: a
    cross-process arrow source must have *completed* -- index at most
    ``counts[src.proc] - 2`` -- before its target record arrives).

    Out-of-range process indices and same-process arrows are left to the
    sanitizer (T005/T006); negative indices can never become valid and are
    likewise T005 territory.
    """
    (sp, si), (dp, di) = arrow.src, arrow.dst
    if sp == dp or not (0 <= sp < raw.n) or not (0 <= dp < raw.n):
        return
    if si < 0 or di < 0:
        return
    counts = raw.state_counts
    problems = []
    if si > counts[sp] - 2:
        problems.append(f"source event at ({sp},{si}) has not completed")
    if di > counts[dp] - 1:
        problems.append(f"target state ({dp},{di}) has not been streamed")
    if problems:
        findings.append(
            Finding(
                "T009",
                f"{what} ({sp},{si}) -> ({dp},{di}): "
                + "; ".join(problems)
                + " (causal delivery order)",
                location=where,
                states=((sp, si), (dp, di)),
                arrows=(((sp, si), (dp, di)),),
            )
        )


# -- entry point -------------------------------------------------------------


def load_raw(
    path: Union[str, Path]
) -> Tuple[Optional[RawTrace], str, List[Finding]]:
    """Sniff, then leniently parse ``path``.

    Returns ``(raw, format, findings)``.  Unreadable/unrecognisable files
    produce a ``None`` raw trace with a T001 finding rather than raising
    (except for OS-level errors, which propagate).
    """
    from repro.trace.io import sniff_trace_format

    path = Path(path)
    try:
        fmt = sniff_trace_format(path)
    except UnknownTraceFormatError as exc:
        return None, "unknown", [_t001(str(path), str(exc))]
    if fmt == STREAM_FORMAT:
        raw, findings = parse_stream(path)
        return raw, fmt, findings
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return None, fmt, [_t001(str(path), f"not valid JSON ({exc})")]
    raw, findings = parse_batch(data, source=str(path))
    return raw, fmt, findings
