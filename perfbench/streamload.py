"""``repro serve`` as a separate process, driven by a closed-loop client.

The client is one asyncio loop with two connections.  Each connection
plays a recorded program: it sends one ``repro-events/1`` session as fast
as the server's flow control allows, waits for ``closed``, then starts
the next session, so a slow server receives less load.  Sessions are
played in blocks, with the reference loop of ``calib.py`` timed between
them.  Every payload is encoded before the clock starts.

The client is the benchmark's own rather than ``repro.serve.client``:
those helpers return a session's events but not when ``final`` and
``closed`` arrived, which are the two times measured here.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence

from inputs import PREDICATE, strip_names

CONNECTIONS = 2
SERVE_FORMAT = "repro-serve/1"
#: wire chunk for the plain protocol, in stream lines
CHUNK = 256
#: the longest a server may take to accept its socket
START_TIMEOUT_S = 30.0


def _dumps(obj: Dict[str, Any]) -> str:
    return json.dumps(obj, separators=(",", ":"))


@dataclass
class Payload:
    """One stream, encoded for the wire."""

    chunks: List[bytes]
    records: int
    final: Dict[str, Any]


def encode(lines: Sequence[str], final: Dict[str, Any], durable: bool
           ) -> Payload:
    if durable:
        frames = [_dumps({"t": "hdr", "line": lines[0]})]
        frames += [_dumps({"t": "rec", "q": i, "line": line})
                   for i, line in enumerate(lines[1:], 1)]
        frames.append(_dumps({"t": "end"}))
    else:
        frames = list(lines)
    chunks = ["\n".join(frames[i:i + CHUNK]) + "\n"
              for i in range(0, len(frames), CHUNK)]
    return Payload([c.encode() for c in chunks], len(lines) - 1, final)


@dataclass
class Outcome:
    """One session as the client saw it."""

    session_s: float = 0.0  # hello sent -> final received
    cycle_s: float = 0.0  # hello sent -> closed received
    records: int = 0  # records the final event acknowledges
    error: Optional[str] = None
    events: List[Dict[str, Any]] = field(default_factory=list)


async def play(sock: str, tenant: str, session: str, payload: Payload,
               durable: bool, deadline_s: float) -> Outcome:
    """Send one session and check its verdict against the reference."""
    out = Outcome()
    t0 = time.perf_counter()
    try:
        await asyncio.wait_for(
            _play(sock, tenant, session, payload, durable, out, t0),
            deadline_s)
    except asyncio.TimeoutError:
        out.error = f"past its {deadline_s} s deadline"
    except (ConnectionError, OSError, ValueError) as exc:
        out.error = f"connection failed: {exc!r}"
    if not out.cycle_s:
        out.cycle_s = time.perf_counter() - t0
    if not out.session_s:
        out.session_s = out.cycle_s
    if out.error is None:
        out.error = _verdict_problem(out.events, payload.final)
    return out


def _verdict_problem(events: List[Dict[str, Any]],
                     reference: Dict[str, Any]) -> Optional[str]:
    for ev in events:
        if ev.get("e") == "error":
            return f"error event: {ev.get('code')}: {ev.get('message')}"
    finals = [ev for ev in events if ev.get("e") == "final"]
    if not finals:
        return "no final event"
    if strip_names(finals[-1]) != reference:
        return (f"verdict {strip_names(finals[-1])} differs from the "
                f"in-process reference {reference}")
    return None


async def _play(sock: str, tenant: str, session: str, payload: Payload,
                durable: bool, out: Outcome, t0: float) -> None:
    reader, writer = await asyncio.open_unix_connection(sock,
                                                        limit=1 << 24)
    hello = {"format": SERVE_FORMAT, "t": "hello", "tenant": tenant,
             "session": session, "predicate": PREDICATE}
    if durable:
        hello.update(durable=True, have_events=0)
    pump: Optional[asyncio.Future] = None
    try:
        writer.write((_dumps(hello) + "\n").encode())
        await writer.drain()
        if durable:
            first = json.loads(await reader.readline() or b"null")
            if not isinstance(first, dict) or first.get("e") != "_resume":
                out.events.append(first if isinstance(first, dict) else
                                  {"e": "error", "code": "handshake",
                                   "message": repr(first)})
                return

        async def send() -> None:
            for chunk in payload.chunks:
                writer.write(chunk)
                await writer.drain()
            if not durable:
                writer.write_eof()

        pump = asyncio.ensure_future(send())
        while True:
            raw = await reader.readline()
            if not raw:
                out.events.append({"e": "error", "code": "eof",
                                   "message": "server closed the stream"})
                return
            ev = json.loads(raw)
            kind = ev.get("e", "")
            if kind.startswith("_"):
                continue
            if kind == "closed":
                out.cycle_s = time.perf_counter() - t0
                return
            out.events.append(ev)
            if kind == "final":
                out.session_s = time.perf_counter() - t0
                out.records = int(ev.get("seq", 0))
            elif kind == "error":
                return
    finally:
        if pump is not None:
            pump.cancel()
            await asyncio.gather(pump, return_exceptions=True)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def closed_loop(sock: str, tenant: str, payloads: Sequence[Payload],
                      pending: Deque[int], durable: bool, deadline_s: float,
                      stop_at: float, block_s: float, block_sessions: int
                      ) -> tuple:
    """One block of sessions over :data:`CONNECTIONS` closed-loop
    connections: each connection takes the next index from ``pending``
    (session ``i`` plays payload ``i`` round-robin) until it has played
    ``block_sessions`` sessions and ``block_s`` seconds have passed.
    Returns ``(outcomes, wall_s)`` in index order.  Sessions not started
    by ``stop_at`` (a monotonic time) are recorded as failed."""
    outcomes: Dict[int, Outcome] = {}

    async def connection() -> None:
        played = 0
        while pending and (played < block_sessions
                           or time.perf_counter() - t0 < block_s):
            played += 1
            i = pending.popleft()
            if time.monotonic() > stop_at:
                outcomes[i] = Outcome(error="not started: run deadline")
                continue
            outcomes[i] = await play(sock, tenant, f"s{i}",
                                     payloads[i % len(payloads)], durable,
                                     deadline_s)

    # The client is not under test: keep its collector from pausing both
    # connections at once in the middle of the timed region.
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
        return ([outcomes[i] for i in sorted(outcomes)],
                time.perf_counter() - t0)
    finally:
        gc.enable()


# -- the server process ----------------------------------------------------


def proc_tree(pid: int) -> List[int]:
    """A process and its descendants."""
    tree, todo = [], [pid]
    while todo:
        p = todo.pop()
        tree.append(p)
        try:
            with open(f"/proc/{p}/task/{p}/children") as fh:
                todo.extend(int(c) for c in fh.read().split())
        except OSError:
            pass
    return tree


def proc_tree_rss_kb(pid: int) -> int:
    """Sum of ``VmHWM`` over a process and its descendants, in kB."""
    from cyclehost import peak_rss_kb

    return sum(peak_rss_kb(p) for p in proc_tree(pid))


class Server:
    """One ``repro serve --workers 1`` process in its own process group."""

    def __init__(self, root: str, run_dir: str, tag: str, durable: bool,
                 trace_prefix: Optional[str] = None):
        # relative to the checkout root: unix socket paths are short
        self.sock = os.path.relpath(os.path.join(run_dir, f"{tag}.sock"),
                                    root)
        args = ["serve", "--listen", f"unix:{self.sock}", "--workers", "1"]
        if durable:
            args += ["--durable", os.path.join(run_dir, f"{tag}-dur"),
                     "--store", "sqlite:" + os.path.join(run_dir,
                                                         f"{tag}-db")]
        if trace_prefix:
            cmd = [sys.executable,
                   os.path.join(root, "perfbench", "servehost.py"),
                   trace_prefix] + args
        else:
            cmd = [sys.executable, "-m", "repro"] + args
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), os.path.join(root, "perfbench")])
        self.log_path = os.path.join(run_dir, f"{tag}.log")
        self._log = open(self.log_path, "wb")
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True)
        self.root = root

    def wait_accepting(self) -> None:
        """Block until the socket accepts a connection."""
        path = os.path.join(self.root, self.sock)
        limit = self.t_launch + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited {self.proc.returncode} at start: "
                    + self.log_tail())
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                try:
                    s.connect(path)
                    return
                except (FileNotFoundError, ConnectionRefusedError):
                    pass
            if time.perf_counter() > limit:
                raise RuntimeError("repro serve did not accept in time")
            time.sleep(0.002)

    def log_tail(self) -> str:
        with open(self.log_path, "rb") as fh:
            return fh.read()[-500:].decode(errors="replace")

    def pin(self, main_cpu: int, worker_cpu: int) -> None:
        """Keep the server's own process on ``main_cpu`` and its worker
        on ``worker_cpu``."""
        main, *workers = proc_tree(self.proc.pid)
        os.sched_setaffinity(main, {main_cpu})
        for pid in workers:
            os.sched_setaffinity(pid, {worker_cpu})

    def peak_rss_mb(self) -> float:
        return proc_tree_rss_kb(self.proc.pid) / 1024.0

    def stop(self) -> None:
        """Drain with SIGINT; kill the whole group if that stalls."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            self.proc.wait()
            self._log.close()
