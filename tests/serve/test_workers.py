"""Pool equivalence: sharded worker processes == inline execution.

The distributed abstraction (sessions pinned to independent shards)
only earns its keep if sharding is invisible in the output: for the
same streams, the event sequences per session must be byte-identical
whether detection ran inline or across worker processes.
"""

import json
import threading

import pytest

from repro.serve.protocol import dumps_event
from repro.serve.workers import InlinePool, ProcessPool, make_pool, shard_of

from .conftest import PREDICATE, assert_final_matches_batch, make_stream


class Collector:
    """Thread-safe sink recording event lines per session key."""

    def __init__(self):
        self.lock = threading.Lock()
        self.by_key = {}

    def __call__(self, key, events):
        with self.lock:
            self.by_key.setdefault(key, []).extend(
                dumps_event(ev) for ev in events
            )


def drive(pool, streams):
    """Open/feed/finalize every stream through ``pool``; returns lines."""
    sink = Collector()
    pool.set_sink(sink)
    pool.start()
    try:
        for key, (header, lines) in streams.items():
            tenant, session = key.split("/", 1)
            pool.open_session(key, tenant, session, header, PREDICATE, {})
        for key, (header, lines) in streams.items():
            for start in range(0, len(lines), 8):
                pool.feed(key, lines[start:start + 8], base_lineno=2 + start)
        for key in streams:
            pool.finalize(key)
    finally:
        pool.stop()
    return sink.by_key


@pytest.fixture
def streams():
    out = {}
    for i in range(6):
        _dep, header, lines = make_stream(seed=40 + i, events_per_proc=5)
        out[f"t{i % 3}/run-{i}"] = (header, lines)
    return out


def test_shard_pinning_is_stable_and_total():
    keys = [f"t/{i}" for i in range(100)]
    for shards in (1, 2, 4):
        first = [shard_of(k, shards) for k in keys]
        assert first == [shard_of(k, shards) for k in keys]
        assert all(0 <= s < shards for s in first)
    assert len({shard_of(k, 4) for k in keys}) == 4  # actually spreads


def test_make_pool_dispatch():
    assert isinstance(make_pool(0), InlinePool)
    assert isinstance(make_pool(3), ProcessPool)


def test_process_pool_matches_inline_byte_for_byte(streams):
    inline = drive(make_pool(0), streams)
    sharded = drive(make_pool(2), streams)

    def public(lines):
        return [ln for ln in lines if '"_ack"' not in ln]

    assert set(inline) == set(sharded) == set(streams)
    for key in streams:
        assert public(inline[key]) == public(sharded[key]), key


def test_every_fed_line_is_acknowledged(streams):
    key = next(iter(streams))
    header, lines = streams[key]
    got = drive(make_pool(2), {key: (header, lines)})
    import json

    acks = [json.loads(ln) for ln in got[key] if '"_ack"' in ln]
    assert sum(a["applied"] for a in acks) == len(lines)


def test_worker_survives_a_poison_session():
    """One tenant's garbage must not take down the shard (error event +
    acks keep flowing; the other session completes normally)."""
    _dep, header, lines = make_stream(seed=3, events_per_proc=5)
    sink = Collector()
    pool = make_pool(1)  # one shard: both sessions share a worker
    pool.set_sink(sink)
    pool.start()
    try:
        pool.open_session("a/bad", "a", "bad", {"format": "nope"},
                          PREDICATE, {})
        pool.open_session("b/good", "b", "good", header, PREDICATE, {})
        pool.feed("a/bad", lines[:3], base_lineno=2)
        pool.feed("b/good", list(lines), base_lineno=2)
        pool.finalize("a/bad")
        pool.finalize("b/good")
    finally:
        pool.stop()
    assert any('"error"' in ln for ln in sink.by_key["a/bad"])
    assert any('"final"' in ln for ln in sink.by_key["b/good"])


def test_non_numeric_time_is_malformed_and_spares_the_shard():
    """A record with a non-numeric ``time`` fails its own session as
    ``malformed`` (not ``internal``); a session sharing the shard finishes."""
    dep, header, lines = make_stream(seed=3, events_per_proc=5)
    streams = {
        "a/bad": (header, [lines[0], '{"t":"ev","p":0,"u":{},"time":"abc"}'] + lines[1:]),
        "b/good": (header, lines),
    }
    out = drive(make_pool(0), streams)
    errors = [json.loads(ln) for ln in out["a/bad"] if '"error"' in ln]
    assert [(e["code"], e["where"]) for e in errors] == [("malformed", "a/bad:3")]
    assert "time: expected a number" in errors[0]["message"]
    assert not any('"final"' in ln for ln in out["a/bad"])
    finals = [json.loads(ln) for ln in out["b/good"] if '"final"' in ln]
    assert len(finals) == 1
    assert_final_matches_batch(finals[0], dep)
