"""Drive ``repro-idling serve`` from outside: launch, probe, load, stop.

Everything here observes the server across its process boundary: the
unix socket it serves JSONL and HTTP on, ``/proc`` for the CPU, memory,
context switches and writes of the parent and its shard workers, and
the state directory it leaves behind.  Times are ``CLOCK_MONOTONIC``
nanoseconds, the clock the traced server processes stamp spans with.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

now_ns = time.monotonic_ns

#: Longest wait for any one server action (boot, answer, drain).
ACTION_TIMEOUT_S = 90.0


class BenchError(RuntimeError):
    """The server misbehaved in a way that ends the run."""


# -- server lifecycle ------------------------------------------------------


@dataclass
class Server:
    """One ``serve`` process and the times of its boot."""

    process: subprocess.Popen
    socket_path: str
    launched_ns: int
    accepting_ns: int = 0
    ready_ns: int = 0

    @property
    def setup_s(self) -> float:
        return (self.ready_ns - self.launched_ns) / 1e9


def serve_command(root: Path, state_dir: Path, socket_path: str, traced: bool) -> list[str]:
    entry = (
        [str(root / "fleetbench" / "traced_cli.py")] if traced else ["-m", "repro.cli"]
    )
    return [
        sys.executable, *entry, "serve", "-", "--state-dir", str(state_dir),
        "--shards", "2", "--fsync", "--listen", "unix:" + socket_path,
    ]


def program_env(root: Path, trace_dir: Path | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("FLEETBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        env["FLEETBENCH_TRACE_DIR"] = str(trace_dir)
    return env


def launch(root: Path, state_dir: Path, socket_path: str, log: Path,
           trace_dir: Path | None = None) -> Server:
    """Start ``serve`` and wait until ``/ready`` answers 200."""
    if os.path.exists(socket_path):
        os.unlink(socket_path)
    with open(log, "ab") as sink:
        launched = now_ns()
        process = subprocess.Popen(
            serve_command(root, state_dir, socket_path, trace_dir is not None),
            cwd=root, env=program_env(root, trace_dir), stdin=subprocess.DEVNULL,
            stdout=sink, stderr=subprocess.STDOUT, start_new_session=True,
        )
    server = Server(process, socket_path, launched)
    try:
        _await_ready(server, log)
    except BaseException:
        kill(server)
        raise
    return server


def _await_ready(server: Server, log: Path) -> None:
    """Poll until the socket accepts, then until ``/ready`` answers 200."""
    deadline = time.monotonic() + ACTION_TIMEOUT_S
    while time.monotonic() < deadline:
        if server.process.poll() is not None:
            raise BenchError(
                f"serve exited with code {server.process.returncode} while "
                f"booting; log tail:\n{log.read_text(errors='replace')[-1500:]}"
            )
        try:
            if not server.accepting_ns:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                    probe.connect(server.socket_path)
                server.accepting_ns = now_ns()
            status, _body = http_get(server.socket_path, "/ready")
        except OSError:
            time.sleep(0.005)
            continue
        if status == 200:
            server.ready_ns = now_ns()
            return
        time.sleep(0.005)
    raise BenchError(f"serve not ready within {ACTION_TIMEOUT_S}s")


def stop(server: Server) -> float:
    """SIGTERM (graceful drain) and wait for exit; returns seconds taken."""
    start = now_ns()
    server.process.send_signal(signal.SIGTERM)
    try:
        code = server.process.wait(timeout=ACTION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill(server)
        raise BenchError("serve did not exit after SIGTERM") from None
    elapsed = (now_ns() - start) / 1e9
    if code != 0:
        raise BenchError(f"serve exited with code {code} after SIGTERM")
    return elapsed


def kill(server: Server) -> None:
    """Last-resort teardown of the server's whole process group."""
    if server.process.poll() is None:
        try:
            os.killpg(server.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    try:
        server.process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        pass


def http_get(socket_path: str, path: str, timeout: float = 30.0) -> tuple[int, dict]:
    """One HTTP/1.0 GET over the unix socket; returns (status, JSON body)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(timeout)
        conn.connect(socket_path)
        conn.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        chunks = []
        while True:
            data = conn.recv(1 << 16)
            if not data:
                break
            chunks.append(data)
    raw = b"".join(chunks)
    head, _sep, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, (json.loads(body) if body.strip() else {})


def replicate(root: Path, state_dir: Path, standby: Path, log: Path,
              trace_dir: Path | None = None) -> float:
    """One full ``replicate --passes 1`` to an empty standby; seconds taken."""
    entry = (
        [str(root / "fleetbench" / "traced_cli.py")]
        if trace_dir is not None else ["-m", "repro.cli"]
    )
    command = [sys.executable, *entry, "replicate", str(state_dir),
               "--standby", str(standby), "--passes", "1"]
    start = now_ns()
    with open(log, "ab") as sink:
        try:
            done = subprocess.run(
                command, cwd=root, env=program_env(root, trace_dir),
                stdin=subprocess.DEVNULL, stdout=sink, stderr=subprocess.STDOUT,
                timeout=ACTION_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"replicate did not finish within {ACTION_TIMEOUT_S}s") from None
    elapsed = (now_ns() - start) / 1e9
    if done.returncode != 0:
        raise BenchError(f"replicate exited with code {done.returncode}")
    return elapsed


# -- load ------------------------------------------------------------------


@dataclass
class Exchange:
    """What one connection sent and got back, with timestamps.

    ``sent_ns[i]`` is when line ``i`` was handed to the socket and
    ``due_ns[i]`` when it was due (equal in a closed loop).  Answers are
    recorded per ``recv``: ``(ns, answers complete so far)`` steps, from
    which :meth:`arrival_ns` gives every line's answer time.
    """

    lines: int = 0
    due_ns: list[int] = field(default_factory=list)
    sent_ns: list[int] = field(default_factory=list)
    recv_steps: list[tuple[int, int]] = field(default_factory=list)
    answers: list[bytes] = field(default_factory=list)
    #: Closed loop only: (send_ns, answered_ns, lines) per round trip.
    batches: list[tuple[int, int, int]] = field(default_factory=list)

    def arrival_ns(self) -> list[int]:
        out: list[int] = []
        for stamp, complete in self.recv_steps:
            out.extend([stamp] * (complete - len(out)))
        return out


def _recv_answers(conn: socket.socket, want: int, exchange: Exchange, buffer: bytearray) -> None:
    """Read until ``want`` answer lines in total have arrived."""
    complete = len(exchange.answers)
    while complete < want:
        data = conn.recv(1 << 20)
        if not data:
            raise BenchError(f"server closed the connection after {complete} answers")
        buffer.extend(data)
        *done, rest = buffer.split(b"\n")
        if done:
            exchange.answers.extend(done)
            complete += len(done)
            exchange.recv_steps.append((now_ns(), complete))
            buffer[:] = rest


def closed_loop(socket_path: str, lines: list[str], batch: int, seconds: float) -> Exchange:
    """Send ``batch`` lines, read their answers, repeat; stop after ``seconds``."""
    exchange = Exchange()
    payloads = [
        ("\n".join(lines[i:i + batch]) + "\n").encode() for i in range(0, len(lines), batch)
    ]
    buffer = bytearray()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(ACTION_TIMEOUT_S)
        conn.connect(socket_path)
        deadline = now_ns() + int(seconds * 1e9)
        for index, payload in enumerate(payloads):
            if now_ns() >= deadline:
                break
            count = min(batch, len(lines) - index * batch)
            sent = now_ns()
            conn.sendall(payload)
            exchange.due_ns.extend([sent] * count)
            exchange.sent_ns.extend([sent] * count)
            exchange.lines += count
            _recv_answers(conn, exchange.lines, exchange, buffer)
            exchange.batches.append((sent, exchange.recv_steps[-1][0], count))
    return exchange


def open_loop(socket_path: str, warmup: list[str], lines: list[str],
              due_s: list[float], seconds: float, on_start) -> tuple[Exchange, Exchange]:
    """Drip: warm-up lines in one round trip, then ``lines`` when due.

    ``on_start()`` runs between the two.  Then a sender thread writes
    each line at its due time while this thread reads the answers; only
    lines due before ``seconds`` are sent.  Returns the (warm-up, timed)
    exchanges.
    """
    count = sum(1 for due in due_s if due < seconds)
    warm = Exchange()
    timed = Exchange(lines=count)
    buffer = bytearray()
    errors: list[OSError] = []
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(ACTION_TIMEOUT_S)
        conn.connect(socket_path)
        conn.sendall(("\n".join(warmup) + "\n").encode())
        warm.lines = len(warmup)
        _recv_answers(conn, len(warmup), warm, buffer)
        on_start()
        encoded = [(line + "\n").encode() for line in lines[:count]]
        start = now_ns() + 20_000_000  # let the sender thread get going first
        timed.due_ns = [start + int(due * 1e9) for due in due_s[:count]]

        def sender() -> None:
            try:
                for due, payload in zip(timed.due_ns, encoded):
                    wait = (due - now_ns()) / 1e9
                    if wait > 0:
                        time.sleep(wait)
                    timed.sent_ns.append(now_ns())
                    conn.sendall(payload)
            except OSError as exc:  # surfaced after join
                errors.append(exc)

        thread = threading.Thread(target=sender, name="drip-sender")
        thread.start()
        try:
            _recv_answers(conn, count, timed, buffer)
        finally:
            thread.join(timeout=ACTION_TIMEOUT_S)
        if errors:
            raise BenchError(f"drip sender failed: {errors[0]!r}")
    return warm, timed


# -- /proc and the state directory ---------------------------------------


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def process_tree(pid: int) -> list[int]:
    """``pid`` and its live descendants (the server's parent and workers)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                ppid = int(_read(f"/proc/{entry}/stat").rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(entry))
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(children.get(current, []))
    return tree


def proc_counters(pids: list[int]) -> dict:
    """Summed counters of ``pids`` (CPU in clock ticks, bytes, counts)."""
    totals = {"utime": 0, "stime": 0, "ctx": 0, "syscw": 0, "write_bytes": 0,
              "vm_hwm_kb": 0, "per_pid_cpu": {}}
    for pid in pids:
        fields = _read(f"/proc/{pid}/stat").rsplit(")", 1)[1].split()
        utime, stime = int(fields[11]), int(fields[12])
        totals["utime"] += utime
        totals["stime"] += stime
        totals["per_pid_cpu"][pid] = utime + stime
        for tid in os.listdir(f"/proc/{pid}/task"):
            for row in _read(f"/proc/{pid}/task/{tid}/status").splitlines():
                if row.startswith(("voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")):
                    totals["ctx"] += int(row.split()[1])
        for row in _read(f"/proc/{pid}/status").splitlines():
            if row.startswith("VmHWM:"):
                totals["vm_hwm_kb"] += int(row.split()[1])
        for row in _read(f"/proc/{pid}/io").splitlines():
            key, _sep, value = row.partition(": ")
            if key in ("syscw", "write_bytes"):
                totals[key] += int(value)
    return totals


def host_cpu() -> tuple[int, int]:
    """(steal ticks, all ticks) of the whole host, from ``/proc/stat``."""
    fields = [int(v) for v in _read("/proc/stat").splitlines()[0].split()[1:]]
    return fields[7], sum(fields[:8])


def tree_size(path: Path) -> tuple[int, int]:
    """(files, bytes) under ``path``."""
    files = size = 0
    for directory, _dirs, names in os.walk(path):
        for name in names:
            files += 1
            size += os.stat(os.path.join(directory, name)).st_size
    return files, size
