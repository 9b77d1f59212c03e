"""Asyncio JSONL front end for the sharded advisor fleet.

:class:`JsonlFrontend` puts a network face on
:class:`~repro.service.shard.ShardedAdvisorService`: clients stream
JSONL stop events over a Unix or TCP socket (or the process's stdin)
and receive one JSON decision — or ``null`` for malformed/dropped
records — per line, in input order.  The same socket speaks just enough
HTTP for ``GET /health`` and ``GET /ready``: a plain ``curl`` gets the
aggregated fleet snapshot as JSON, no extra port or dependency.
``/health`` is liveness ("the parent answers"; always 200 with the
snapshot); ``/ready`` is the serving gate — 200 only when every shard's
worker is alive, no circuit breaker is open, and no session is
durability-suspended, 503 with the reasons otherwise.

The event loop only routes bytes; all advisor work happens off it,
through ``asyncio.to_thread``, so a slow fleet never blocks accepting
connections — in the shard worker processes, or for plain ``serve``
in the in-process shard, whose lock serializes the threads of
concurrent connections.

Reads take whatever bytes a connection has buffered and split them into
lines, so a 1,024-line chunk costs the loop a few reads, not a timed
``readline`` per line.  A chunk's first line is awaited with no timer,
each later arrival for at most ``_LINGER_S``; the chunk is routed at
``CHUNK_LINES`` lines or when the linger passes.  The linger stays: a
1-3 line request costs ~4 ms of CPU across the loop, its thread hops
and the workers, more than the ~5 ms of latency routing sooner saves.
``request_lines`` answers with JSON text, one line per input line,
encoded by the shard that made the decisions, so an answer is one join.

``SIGTERM``/``SIGINT`` trigger graceful drain: stop accepting, let
in-flight requests finish, then ``service.close()`` — every shard
flushes WAL + final snapshots before the process exits.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import sys

from ..errors import InvalidParameterError

__all__ = ["CHUNK_LINES", "JsonlFrontend", "parse_listen"]

#: Seconds to wait for more bytes, after each arrival, before routing a
#: chunk that has lines.
_LINGER_S = 0.005
#: Most bytes taken from a connection's stream buffer per read.
_READ_BYTES = 1 << 18
#: Max lines routed as one chunk, by a connection's micro-batching and
#: by ``serve``'s file/stdin pump alike (bounds per-request latency and
#: memory; decisions are identical for any chunking).
CHUNK_LINES = 1024
#: Bound on one JSONL line / HTTP request line.
_LINE_LIMIT = 1 << 20
#: Seconds an HTTP client has to finish sending its request headers.  A
#: client that sends ``GET /health HTTP/1.0`` and then stalls (partial
#: read, half-open connection) must not pin the handler task forever.
_HTTP_HEADER_TIMEOUT_S = 5.0
#: Request methods that mark a connection as speaking HTTP rather than
#: JSONL.  Only GET/HEAD are *served*; the rest get a clean 405 instead
#: of being misparsed as (malformed) JSONL event lines.
_HTTP_METHODS = frozenset(
    {"GET", "HEAD", "POST", "PUT", "DELETE", "PATCH", "OPTIONS", "TRACE", "CONNECT"}
)
#: High-water mark on a connection's kernel-side write buffer.  Without
#: a bound, a client that sends events but stops reading decisions lets
#: the transport buffer the entire response stream in process memory.
_WRITE_BUFFER_HIGH = 1 << 20
#: Seconds a drain may stall before the client is declared slow and
#: disconnected.  Generous — this trips on clients that stopped reading
#: entirely, not on ordinary TCP backpressure.
_DRAIN_TIMEOUT_S = 10.0


def parse_listen(address: str) -> tuple:
    """Parse a ``--listen`` spec into ``("unix", path)`` or ``("tcp", host, port)``.

    Accepted forms::

        unix:/run/advisor.sock      explicit unix socket
        ./advisor.sock              bare path (contains a '/')
        tcp:127.0.0.1:8765          explicit tcp
        127.0.0.1:8765              host:port
        :8765                       all-defaults host (127.0.0.1)
    """
    address = address.strip()
    if not address:
        raise InvalidParameterError("empty --listen address")
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise InvalidParameterError(f"no socket path in {address!r}")
        return ("unix", path)
    if address.startswith("tcp:"):
        address = address[len("tcp:"):]
    elif "/" in address:
        return ("unix", address)
    host, separator, port = address.rpartition(":")
    if not separator or not port.isdigit():
        raise InvalidParameterError(
            f"cannot parse listen address {address!r}: expected "
            "unix:PATH, a socket path, HOST:PORT or :PORT"
        )
    return ("tcp", host or "127.0.0.1", int(port))


class _LineReader:
    """One connection's lines, a chunk at a time, as ``readline`` made
    them: ``utf-8`` with ``"replace"``, ``\\r\\n`` stripped, a partial
    line at EOF is a line, and one over `_LINE_LIMIT` raises
    ``ValueError``.  Bytes past the last line taken wait here."""

    def __init__(self, reader) -> None:
        self._reader = reader
        self._rest = b""
        self._eof = False

    async def chunk(self, lines: list[str]) -> list[str]:
        """``lines`` extended to one chunk (empty only at EOF), waiting
        only when no complete line is buffered."""
        while True:
            self._take(lines)
            if len(lines) >= CHUNK_LINES or self._eof:
                return lines
            if lines:
                try:
                    data = await asyncio.wait_for(
                        self._reader.read(_READ_BYTES), timeout=_LINGER_S
                    )
                except asyncio.TimeoutError:
                    return lines
            else:
                data = await self._reader.read(_READ_BYTES)
            if data:
                self._rest += data
            else:
                self._eof = True

    def _take(self, lines: list[str]) -> None:
        """Move complete buffered lines into ``lines``, up to `CHUNK_LINES`."""
        rest = self._rest
        if self._eof and rest and not rest.endswith(b"\n"):
            rest += b"\n"
        end = rest.rfind(b"\n") + 1
        room = CHUNK_LINES - len(lines)
        if end and rest.count(b"\n") > room:
            end = 0
            for _ in range(room):
                end = rest.index(b"\n", end) + 1
        limit = _LINE_LIMIT
        if end:
            block = rest[: end - 1]
            if len(block) > limit and max(map(len, block.split(b"\n"))) > limit:
                raise ValueError(f"a line is longer than {limit} bytes")
            text = block.decode("utf-8", "replace")
            new = text.split("\n")
            if "\r" in text:
                new = [line.rstrip("\r") for line in new]
            lines.extend(new)
        self._rest = rest = rest[end:]
        if len(rest) > limit and b"\n" not in rest:
            raise ValueError(f"a line is longer than {limit} bytes")


class JsonlFrontend:
    """Socket/stdin front end over a sharded advisor (see module docstring).

    ``service`` needs only ``request_lines``/``health_snapshot``/
    ``close`` — a plain in-process service satisfying that shape works
    too (the tests use both).
    """

    def __init__(self, service) -> None:
        self.service = service
        self.connections = 0
        self.requests = 0
        #: Connections force-closed because their drain stalled past
        #: `_DRAIN_TIMEOUT_S` — the client stopped reading decisions.
        self.slow_client_disconnects = 0
        self._stop = None  # asyncio.Event, created inside the loop

    # -- protocol ---------------------------------------------------------

    async def _drain(self, writer) -> None:
        """Bounded drain: disconnect (and count) a client that stopped
        reading instead of waiting on its buffer forever.

        With the transport's write buffer capped at `_WRITE_BUFFER_HIGH`,
        ``drain()`` blocks once a slow client is a buffer behind; a stall
        past `_DRAIN_TIMEOUT_S` means it stopped reading entirely, so the
        connection is aborted — freeing the handler task and the buffered
        bytes — and surfaces as ``slow_client_disconnects`` in
        ``/health``.  The raised reset follows the normal client-went-
        away path in ``_handle``.
        """
        try:
            await asyncio.wait_for(writer.drain(), timeout=_DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.slow_client_disconnects += 1
            if writer.transport is not None:
                writer.transport.abort()
            raise ConnectionResetError(
                f"slow client: write buffer not drained within {_DRAIN_TIMEOUT_S}s"
            ) from None

    async def _route(self, lines: list[str]) -> list[str]:
        self.requests += len(lines)
        return await asyncio.to_thread(self.service.request_lines, lines)

    async def _consume_headers(self, reader) -> None:
        while True:  # consume request headers up to the blank line
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                return

    async def _serve_health(self, first_line: str, reader, writer) -> None:
        # Just enough HTTP/1.0 for `curl http://host:port/health`.
        # Every response closes the connection (HTTP/1.0 semantics), so
        # each branch below is terminal for the handler task.
        parts = first_line.split(" ")
        method = parts[0]
        target = parts[1] if len(parts) > 1 else ""
        malformed = (
            not target
            or len(parts) > 3
            or (len(parts) == 3 and not parts[2].startswith("HTTP/"))
        )
        if malformed:
            # A truncated or mangled request line ("GET", "GET /health
            # junk extra"): answer 400 and close — never fall through to
            # the JSONL parser or hang waiting for more of it.
            writer.write(
                b"HTTP/1.0 400 Bad Request\r\ncontent-type: text/plain\r\n"
                b"connection: close\r\n\r\nmalformed request line\n"
            )
            await self._drain(writer)
            return
        if method not in ("GET", "HEAD"):
            writer.write(
                b"HTTP/1.0 405 Method Not Allowed\r\nallow: GET, HEAD\r\n"
                b"content-type: text/plain\r\nconnection: close\r\n\r\n"
                b"only GET/HEAD /health and /ready are served here\n"
            )
            await self._drain(writer)
            return
        try:
            # Bounded: a client that stalls mid-headers (partial read)
            # must not pin this task forever.
            await asyncio.wait_for(
                self._consume_headers(reader), timeout=_HTTP_HEADER_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            writer.write(
                b"HTTP/1.0 408 Request Timeout\r\ncontent-type: text/plain\r\n"
                b"connection: close\r\n\r\nrequest headers never completed\n"
            )
            await self._drain(writer)
            return
        path = target.split("?")[0]
        if path in ("/ready", "/readyz"):
            verdict = await asyncio.to_thread(self._readiness)
            body = json.dumps(verdict, indent=2).encode() + b"\n"
            status = b"200 OK" if verdict["ready"] else b"503 Service Unavailable"
            head = (
                b"HTTP/1.0 " + status + b"\r\ncontent-type: application/json\r\n"
                + f"content-length: {len(body)}\r\n\r\n".encode()
            )
            writer.write(head if method == "HEAD" else head + body)
        elif path not in ("/health", "/healthz"):
            writer.write(
                b"HTTP/1.0 404 Not Found\r\ncontent-type: text/plain\r\n\r\n"
                b"only /health and /ready are served here\n"
            )
        else:
            snapshot = dict(await asyncio.to_thread(self.service.health_snapshot))
            snapshot["frontend"] = {
                "connections": self.connections,
                "requests": self.requests,
                "slow_client_disconnects": self.slow_client_disconnects,
            }
            body = json.dumps(snapshot, indent=2).encode() + b"\n"
            head = (
                b"HTTP/1.0 200 OK\r\ncontent-type: application/json\r\n"
                + f"content-length: {len(body)}\r\n\r\n".encode()
            )
            writer.write(head if method == "HEAD" else head + body)
        await self._drain(writer)

    def _readiness(self) -> dict:
        """The service's readiness verdict, never raising.

        A service without a ``readiness`` method (plain stand-ins in
        tests) is ready whenever it answers; a probe that *raises* is a
        not-ready with the error as the reason — a readiness endpoint
        that can 500 defeats its purpose.
        """
        probe = getattr(self.service, "readiness", None)
        if probe is None:
            return {"ready": True, "reasons": []}
        try:
            return probe()
        except Exception as exc:
            return {"ready": False, "reasons": [f"readiness probe failed: {exc!r}"]}

    async def _handle(self, reader, writer) -> None:
        self.connections += 1
        if writer.transport is not None:
            # Cap the kernel-side buffer so drain() exerts backpressure
            # as soon as a client falls one buffer behind (see _drain).
            writer.transport.set_write_buffer_limits(high=_WRITE_BUFFER_HIGH)
        try:
            first = await reader.readline()
            if not first:
                return
            text = first.decode("utf-8", "replace").rstrip("\r\n")
            if text.split(" ", 1)[0] in _HTTP_METHODS:
                await self._serve_health(text, reader, writer)
                return
            lines = _LineReader(reader)
            pending = await lines.chunk([text])
            while pending:
                answers = await self._route(pending)
                writer.write(("\n".join(answers) + "\n").encode())
                await self._drain(writer)
                pending = await lines.chunk([])
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-stream; shard state is unaffected
        except (ValueError, asyncio.LimitOverrunError):
            # A line over _LINE_LIMIT (from readline or _LineReader): the
            # stream is unframed from here, so close cleanly instead of
            # crashing the handler task.
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    # -- stdin pump -------------------------------------------------------

    async def pump_stdin(self, stream=None, out=None) -> int:
        """Route a JSONL stream from ``stream`` (default stdin); returns events routed."""
        stream = stream if stream is not None else sys.stdin
        routed = 0
        pending: list[str] = []

        async def flush() -> None:
            nonlocal routed
            if pending:
                answers = await self._route(pending)
                routed += len(pending)
                pending.clear()
                if out is not None:
                    out.write("\n".join(answers) + "\n")

        for line in stream:
            line = line.rstrip("\r\n")
            if not line.strip():
                continue
            pending.append(line)
            if len(pending) >= CHUNK_LINES:
                await flush()
            if self._stop is not None and self._stop.is_set():
                break
        await flush()
        return routed

    # -- lifecycle --------------------------------------------------------

    async def serve(
        self,
        listen: str | None = None,
        *,
        stdin=None,
        stdin_out=None,
        ready=None,
        install_signals: bool = True,
    ) -> None:
        """Run until SIGTERM/SIGINT (or stdin EOF when socket-less).

        ``listen`` is a :func:`parse_listen` spec; ``stdin`` (a line
        iterable) additionally pumps a JSONL stream through the fleet.
        ``ready`` (an ``asyncio.Event``) is set once the socket accepts
        — the tests use it instead of polling.  Closing the service —
        the graceful fleet drain — is the caller's job, so a CLI can
        print the final fleet summary after ``serve`` returns.
        """
        loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self._stop.set)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
        server = None
        if listen is not None:
            spec = parse_listen(listen)
            if spec[0] == "unix":
                server = await asyncio.start_unix_server(
                    self._handle, path=spec[1], limit=_LINE_LIMIT
                )
            else:
                server = await asyncio.start_server(
                    self._handle, host=spec[1], port=spec[2], limit=_LINE_LIMIT
                )
        try:
            if ready is not None:
                ready.set()
            if stdin is not None:
                await self.pump_stdin(stdin, stdin_out)
                if server is None:
                    return  # pure pipe mode: EOF is shutdown
            await self._stop.wait()
        finally:
            if server is not None:
                server.close()
                await server.wait_closed()

    def request_stop(self) -> None:
        """Thread-safe shutdown trigger (what the signal handlers call)."""
        if self._stop is not None:
            self._stop.set()
