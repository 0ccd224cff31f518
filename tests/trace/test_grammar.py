"""One grammar for both trace formats, read in two modes.

The strict loaders (``deposet_from_dict``/``load_deposet``,
``stream_store_from_header``/``apply_stream_record``/``ingest_event_stream``)
and the lint parser (``parse_batch``/``StreamParser``/``load_raw``) share the
``check_*`` functions of :mod:`repro.trace.io`.  On inputs whose only faults
are structural, the strict loader raises iff the lenient parse reports a
T001, with ``<location>: <message>`` of the first T001; on any JSON value the
lenient side never raises and the strict side raises only
``MalformedTraceError``.
"""

import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import lint_trace, parse_batch, parse_stream, parse_stream_lines
from repro.analysis.raw import load_raw
from repro.errors import MalformedTraceError
from repro.store import TraceStore
from repro.trace.io import (
    apply_stream_record,
    deposet_from_dict,
    deposet_to_dict,
    ingest_event_stream,
    load_deposet,
    stream_store_from_header,
    write_event_stream,
)
from repro.workloads import random_deposet

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def base_dep(seed):
    dep = random_deposet(n=3, events_per_proc=4, message_rate=.4, flip_rate=.3, seed=seed)
    return dep.with_control([((0, 1), (1, 3))]) if seed % 2 else dep


def base_doc(seed):
    doc = deposet_to_dict(base_dep(seed))
    doc["timestamps"] = [[float(a) for a in range(c)] for c in base_dep(seed).state_counts]
    return doc


def base_stream(seed):
    """``[header, record, ...]`` of a timed stream."""
    buf = io.StringIO()
    write_event_stream(base_dep(seed), buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    lines[0]["start_times"] = [0.0] * len(lines[0]["start"])
    for k, rec in enumerate(lines[1:], 1):
        if rec["t"] in ("ev", "recv"):
            rec["time"] = float(k)
    return lines


def first_t001(findings):
    t001 = [f for f in findings if f.rule_id == "T001"]
    if not t001:
        return None
    f = t001[0]
    return f"{f.location}: {f.message}" if f.location else f.message


def strict_error(fn, *args):
    """The strict loader's ``MalformedTraceError`` message, or ``None``;
    any other exception fails the test."""
    try:
        fn(*args)
    except MalformedTraceError as exc:
        return str(exc)
    return None


# -- structural faults -------------------------------------------------------

#: values that are never a [process, state] pair
BAD_REFS = [None, [0], [0, 1, 2], "ab", [True, 0], [0, False], [0, 1.5], {}, 7]
#: values that are never an object of variables
NOT_OBJECTS = [None, 1, True, "x", [], [{}]]
#: values that are never a number (bools included)
NOT_NUMBERS = ["abc", "1.5", [1], {}, True, False]


@st.composite
def batch_fault(draw, doc):
    """Apply one structural fault to the document ``doc`` (in place)."""
    n = len(doc["states"])
    i = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from([
        "format", "states", "row", "state", "names", "messages", "message",
        "message_ref", "control", "control_entry", "control_ref", "timestamps",
        "timestamp_row", "timestamp_value",
    ]))
    if kind == "format":
        doc["format"] = draw(st.sampled_from(["repro-deposet/2", None, 1]))
    elif kind == "states":
        doc["states"] = draw(st.sampled_from([None, [], {}, "s", 3]))
    elif kind == "row":
        doc["states"][i] = draw(st.sampled_from([[], None, {}, "row", 0]))
    elif kind == "state":
        a = draw(st.integers(0, len(doc["states"][i]) - 1))
        doc["states"][i][a] = draw(st.sampled_from(NOT_OBJECTS))
    elif kind == "names":
        doc["proc_names"] = draw(st.sampled_from(["AB" * n, "ABC", 5, ["a"] * (n + 1), {}]))
    elif kind in ("messages", "control"):
        doc[kind] = draw(st.sampled_from([5, "xy", {}, {"a": 1}, True, 0]))
    elif kind == "message" and doc["messages"]:
        k = draw(st.integers(0, len(doc["messages"]) - 1))
        doc["messages"][k] = draw(st.sampled_from(NOT_OBJECTS[1:4] + [[0, 1]]))
    elif kind == "message_ref" and doc["messages"]:
        k = draw(st.integers(0, len(doc["messages"]) - 1))
        end = draw(st.sampled_from(["src", "dst"]))
        if draw(st.booleans()):
            del doc["messages"][k][end]
        else:
            doc["messages"][k][end] = draw(st.sampled_from(BAD_REFS))
    elif kind == "control_entry":
        doc["control"].append(draw(st.sampled_from([[[0, 1]], [], "ab", 3, None])))
    elif kind == "control_ref":
        good = [[0, 1], [1, 2]]
        good[draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_REFS))
        doc["control"].append(good)
    elif kind == "timestamps":
        doc["timestamps"] = draw(st.sampled_from([[[0.0]], "t", 5, {}]))
    elif kind == "timestamp_row":
        doc["timestamps"][i] = draw(st.sampled_from(["r", None, 1, [0.0] * 50]))
    elif kind == "timestamp_value":
        doc["timestamps"][i][0] = draw(st.sampled_from(NOT_NUMBERS))


@st.composite
def stream_fault(draw, lines):
    """Apply one structural fault to the stream ``lines`` (in place)."""
    n = len(lines[0]["start"])
    kind = draw(st.sampled_from([
        "header", "format", "start", "start_entry", "names", "start_times",
        "record", "t", "p", "bool_p", "vars", "u", "time", "src", "ctl",
        "delete",
    ]))
    header = lines[0]
    k = draw(st.integers(1, len(lines) - 1))
    rec = lines[k]
    if kind == "header":
        lines[0] = draw(st.sampled_from([[1], "h", 3, None]))
    elif kind == "format":
        header["format"] = draw(st.sampled_from(["repro-events/9", None, 0]))
    elif kind == "start":
        header["start"] = draw(st.sampled_from([[], None, {}, "s"]))
    elif kind == "start_entry":
        header["start"][draw(st.integers(0, n - 1))] = draw(st.sampled_from(NOT_OBJECTS))
    elif kind == "names":
        header["proc_names"] = draw(st.sampled_from(["AB" * n, 3, ["a"] * (n + 1), {}]))
    elif kind == "start_times":
        header["start_times"] = draw(st.sampled_from(
            [["x"] * n, [0.0] * (n + 1), "t", True, {}, [True] * n]
        ))
    elif kind == "record":
        lines[k] = draw(st.sampled_from([[1], "r", 3, None]))
    elif kind == "t":
        rec["t"] = draw(st.sampled_from(["warp", None, 1, ["ev"]]))
    elif kind == "p" and rec["t"] in ("ev", "recv"):
        rec["p"] = draw(st.sampled_from([n, -1, 99, "0", None, 0.0]))
    elif kind == "bool_p" and rec["t"] in ("ev", "recv"):
        rec["p"] = draw(st.booleans())
    elif kind == "vars" and rec["t"] in ("ev", "recv"):
        rec.pop("u", None)
        rec["vars"] = draw(st.sampled_from(NOT_OBJECTS))
    elif kind == "u" and rec["t"] in ("ev", "recv"):
        rec.pop("vars", None)
        rec["u"] = draw(st.sampled_from(NOT_OBJECTS))
    elif kind == "time" and rec["t"] in ("ev", "recv"):
        rec["time"] = draw(st.sampled_from(NOT_NUMBERS))
    elif kind == "src" and rec["t"] == "recv":
        rec["src"] = draw(st.sampled_from(BAD_REFS))
    elif kind == "ctl":
        bad = {"t": "ctl", "src": [0, 1], "dst": [1, 1]}
        bad[draw(st.sampled_from(["src", "dst"]))] = draw(st.sampled_from(BAD_REFS))
        lines.insert(k, bad)
    elif kind == "delete" and isinstance(rec, dict):
        key = draw(st.sampled_from(["t", "p", "src", "dst"]))
        if key in rec and not (key == "p" and rec.get("t") not in ("ev", "recv")):
            del rec[key]


def apply_faults(data, fault, target, count):
    """Draw ``count`` faults into ``target``; a fault whose spot an earlier
    fault already removed is skipped."""
    for _ in range(count):
        try:
            data.draw(fault(target))
        except (TypeError, IndexError, KeyError, AttributeError, ValueError):
            pass


@SETTINGS
@given(seed=st.integers(0, 5), data=st.data())
def test_batch_strict_raises_iff_lenient_t001(seed, data):
    doc = base_doc(seed)
    apply_faults(data, batch_fault, doc, data.draw(st.integers(1, 3)))
    _raw, findings = parse_batch(copy.deepcopy(doc))
    assert strict_error(deposet_from_dict, copy.deepcopy(doc)) == first_t001(findings)


@SETTINGS
@given(seed=st.integers(0, 5), data=st.data())
def test_stream_strict_raises_iff_lenient_t001(tmp_path, seed, data):
    lines = base_stream(seed)
    apply_faults(data, stream_fault, lines, data.draw(st.integers(1, 3)))
    path = tmp_path / "s.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
    _raw, findings = parse_stream(path)
    assert strict_error(lambda: list(ingest_event_stream(path))) == first_t001(findings)


# -- any JSON value ----------------------------------------------------------


@SETTINGS
@given(value=JSON, seed=st.integers(0, 3), data=st.data())
def test_batch_never_crashes_on_any_json(tmp_path, value, seed, data):
    doc = base_doc(seed)
    key = data.draw(st.sampled_from(
        [None, "format", "states", "proc_names", "messages", "control", "timestamps",
         "clocks", "obs"]
    ))
    if key is None:
        doc = value
    else:
        doc[key] = value
    parse_batch(copy.deepcopy(doc))
    strict_error(deposet_from_dict, copy.deepcopy(doc))
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    strict_error(load_deposet, path)
    lint_trace(path)


@SETTINGS
@given(value=JSON, seed=st.integers(0, 3), data=st.data())
def test_stream_never_crashes_on_any_json(tmp_path, value, seed, data):
    lines = base_stream(seed)
    where = data.draw(st.sampled_from(["header", "header_field", "record", "record_field"]))
    k = data.draw(st.integers(1, len(lines) - 1))
    if where == "header":
        lines[0] = value
    elif where == "header_field":
        lines[0][data.draw(st.sampled_from(["format", "start", "proc_names", "start_times"]))] \
            = value
    elif where == "record":
        lines.insert(k, value)
    else:
        lines[k][data.draw(st.sampled_from(["t", "p", "u", "vars", "src", "dst", "time",
                                            "obs"]))] = value
    text = [json.dumps(rec) for rec in lines]
    parse_stream_lines(text)
    path = tmp_path / "s.jsonl"
    path.write_text("".join(line + "\n" for line in text))
    strict_error(lambda: list(ingest_event_stream(path)))
    lint_trace(path)
    store = TraceStore(3, start_vars=[{}, {}, {}])
    strict_error(apply_stream_record, store, value, "s:2")
    strict_error(stream_store_from_header, value, "s:1")


# -- the cases where the two copies used to disagree -------------------------

HEADER = {"format": "repro-events/1", "proc_names": ["A", "B"], "start": [{}, {}],
          "start_times": [0.0, 0.0]}
EV = {"t": "ev", "p": 0, "u": {}}


def both_stream(tmp_path, header, *records):
    """``(strict message, lenient first-T001 text)`` for one stream."""
    path = tmp_path / "s.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in (header,) + records))
    _raw, _fmt, findings = load_raw(path)
    return strict_error(lambda: list(ingest_event_stream(path))), first_t001(findings), path


@pytest.mark.parametrize("time", ["abc", [1], True])
def test_drift_stream_time_not_a_number(tmp_path, time):
    strict, lenient, path = both_stream(tmp_path, HEADER, dict(EV, time=time))
    assert strict == lenient == f"{path}:2: time: expected a number, got {time!r}"


def test_drift_header_start_times_not_numbers(tmp_path):
    strict, lenient, path = both_stream(tmp_path, dict(HEADER, start_times=["x", "y"]), EV)
    assert strict == lenient == f"{path}:1: start_times: expected 2 numbers, got ['x', 'y']"


def test_drift_header_proc_names_wrong_length(tmp_path):
    strict, lenient, path = both_stream(tmp_path, dict(HEADER, proc_names=["A"]), EV)
    assert strict == lenient == f"{path}:1: proc_names: expected 2 names, got ['A']"


def test_drift_header_start_times_wrong_length(tmp_path):
    strict, lenient, path = both_stream(tmp_path, dict(HEADER, start_times=[0.0]), EV)
    assert strict == lenient == f"{path}:1: start_times: expected 2 numbers, got [0.0]"


BATCH = {"format": "repro-deposet/1", "proc_names": ["A", "B"],
         "states": [[{}, {}], [{}, {}]], "messages": [], "control": [], "timestamps": None}


@pytest.mark.parametrize("key", ["messages", "control"])
def test_drift_batch_messages_or_control_not_a_list(key):
    doc = dict(BATCH, **{key: 5})
    _raw, findings = parse_batch(doc)
    assert strict_error(deposet_from_dict, doc) == first_t001(findings) \
        == f"{key}: expected a list, got 5"


def test_drift_batch_proc_names_string():
    doc = dict(BATCH, proc_names="AB")
    _raw, findings = parse_batch(doc)
    assert strict_error(deposet_from_dict, doc) == first_t001(findings) \
        == "proc_names: expected 2 names, got 'AB'"


def test_drift_cases_exit_codes_through_the_cli(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "t.json"
    path.write_text(json.dumps(dict(BATCH, messages=5)))
    assert main(["lint", str(path)]) == 1
    assert "T001" in capsys.readouterr().out
    for verb in (["detect", str(path), "--predicate", "at-least-one:x"],
                 ["ingest", str(path), "-o", str(tmp_path / "o.jsonl")]):
        assert main(verb) == 3
        assert f"error: {path}: messages: expected a list, got 5" in capsys.readouterr().err
