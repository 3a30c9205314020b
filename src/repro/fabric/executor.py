"""The scheduler side of the run fabric: a pool of remote workers.

:class:`FabricExecutor` is one of the two chunk transports the probe
engine's single chunk scheduler drives (the other wraps the local
process pool): it exposes ``width`` (live workers), ``submit(job) ->
chunk_id`` and ``next_events()``. The engine hands it pickled chunk
jobs and consumes completion events. What sets it apart is distrust of
the transport:

* every connection opens with the versioned ``HELLO``/``WELCOME``
  handshake, and a worker whose advertised
  :class:`~repro.core.runner.BackendCapabilities` is not
  ``process_safe`` is refused — it could not honor pickled chunks;
* each worker runs one chunk at a time (a worker is one slot); excess
  chunks queue client-side and drain as workers free up;
* a worker that closes its socket, breaks the protocol, or goes
  *silent* longer than ``dead_after_s`` (several missed heartbeats) is
  declared dead, and its in-flight chunk surfaces as a ``("lost", ...)``
  event — the engine re-enqueues lost runs on the survivors under the
  same retry budget the process pool uses, so a SIGKILLed worker costs
  wall-clock, never correctness.

Events from :meth:`FabricExecutor.next_events`:

``("done", chunk_id, rows)``
    The worker executed the chunk; *rows* are ``_execute_chunk``'s rows.
``("failed", chunk_id, exception)``
    The chunk itself raised (e.g. a fail-mode :class:`ProbeFaultError`);
    the engine re-raises it exactly as a process future would.
``("lost", chunk_id, exception)``
    The worker died with the chunk assigned; the rows never arrived.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
from collections import deque

from repro.errors import LoupeError
from repro.fabric.protocol import (
    KIND_ACK,
    KIND_CHUNK,
    KIND_ERROR,
    KIND_HEARTBEAT,
    KIND_HELLO,
    KIND_RESULT,
    KIND_WELCOME,
    FabricProtocolError,
    decode_ack,
    decode_error,
    decode_result,
    decode_welcome,
    encode_chunk,
    encode_frame,
    hello_payload,
    read_frame,
)

#: Presume a worker dead after this much silence. Workers heartbeat
#: every ~2s even while executing, so this is ~5 missed beats.
DEFAULT_DEAD_AFTER_S = 10.0

DEFAULT_CONNECT_TIMEOUT_S = 5.0


class FabricConnectionError(LoupeError):
    """The worker fleet is unreachable or has no live members left."""


def parse_worker_address(spec: str) -> "tuple[str, int]":
    """``host:port`` → ``(host, port)``, with a typed error on junk."""
    host, separator, port = spec.rpartition(":")
    if not separator or not host:
        raise FabricConnectionError(
            f"worker address {spec!r} is not host:port"
        )
    try:
        return host, int(port)
    except ValueError:
        raise FabricConnectionError(
            f"worker address {spec!r} has a non-numeric port"
        ) from None


class _WorkerLink:
    """One connected worker: socket, identity, and slot state."""

    def __init__(self, addr: str, sock: socket.socket, reader, welcome: dict) -> None:
        self.addr = addr
        self.sock = sock
        # The handshake already read from this buffered reader; reusing
        # it (rather than opening a fresh makefile) keeps any bytes it
        # buffered past the WELCOME frame — an eager heartbeat, say.
        self.reader = reader
        self.welcome = welcome
        self.worker_id = welcome.get("worker_id") or addr
        self.write_lock = threading.Lock()
        self.busy_chunk: "int | None" = None
        self.acked = False
        self.alive = True

    def send(self, frame: bytes) -> None:
        with self.write_lock:
            self.sock.sendall(frame)

    def close(self) -> None:
        # Shut the socket down first: it wakes the pump thread blocked in
        # a read, which otherwise holds the reader's lock (and so stalls
        # ``reader.close``) until the worker's next heartbeat.
        for closer in (
            lambda: self.sock.shutdown(socket.SHUT_RDWR),
            self.reader.close,
            self.sock.close,
        ):
            try:
                closer()
            except OSError:
                pass


class FabricExecutor:
    """A chunk scheduler over a fleet of ``loupe worker`` processes."""

    def __init__(
        self,
        workers,
        *,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT_S,
        dead_after_s: float = DEFAULT_DEAD_AFTER_S,
    ) -> None:
        self.addresses = tuple(str(w).strip() for w in workers if str(w).strip())
        if not self.addresses:
            raise FabricConnectionError(
                "the remote executor needs at least one worker address "
                "(--workers host:port,...)"
            )
        self.connect_timeout = connect_timeout
        self.dead_after_s = dead_after_s
        self._events: "queue.Queue" = queue.Queue()
        self._links: "list[_WorkerLink]" = []
        self._pending: "deque[tuple[int, bytes]]" = deque()
        self._inflight: "dict[int, _WorkerLink]" = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._connected = False
        #: ``addr -> error`` for workers that never joined the fleet.
        self.connect_errors: "dict[str, Exception]" = {}

    # -- connection management ---------------------------------------------

    def connect(self) -> "FabricExecutor":
        """Dial every worker; at least one must join or this raises."""
        if self._connected:
            return self
        self._connected = True
        for addr in self.addresses:
            try:
                self._connect_one(addr)
            except (OSError, FabricProtocolError) as error:
                self.connect_errors[addr] = error
        if not self._links:
            details = "; ".join(
                f"{addr}: {error}" for addr, error in self.connect_errors.items()
            )
            raise FabricConnectionError(
                f"no fabric workers reachable ({details}) — start them "
                f"with `loupe worker --port PORT`"
            )
        return self

    def _connect_one(self, addr: str) -> None:
        host, port = parse_worker_address(addr)
        sock = socket.create_connection((host, port), timeout=self.connect_timeout)
        try:
            # Chunk frames and the worker's ACK/RESULT replies are small
            # writes; without this, Nagle plus delayed ACK stalls each.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.dead_after_s)
            sock.sendall(encode_frame(KIND_HELLO, hello_payload()))
            reader = sock.makefile("rb")
            frame = read_frame(reader)
            if frame is None:
                raise FabricProtocolError(
                    f"worker {addr} hung up during the handshake"
                )
            kind, payload = frame
            if kind == KIND_ERROR:
                raise FabricProtocolError(
                    f"worker {addr} refused the handshake: "
                    f"{decode_error(payload)[1]}"
                )
            if kind != KIND_WELCOME:
                raise FabricProtocolError(
                    f"worker {addr} answered frame kind {kind}, "
                    f"not WELCOME"
                )
            welcome = decode_welcome(payload)
            if not welcome["capabilities"].process_safe:
                raise FabricProtocolError(
                    f"worker {addr} does not declare process_safe "
                    f"execution; it cannot honor pickled chunks"
                )
        except Exception:
            sock.close()
            raise
        link = _WorkerLink(addr, sock, reader, welcome)
        self._links.append(link)
        pump = threading.Thread(
            target=self._pump, args=(link,), daemon=True,
            name=f"loupe-fabric-pump-{addr}",
        )
        pump.start()

    def _pump(self, link: _WorkerLink) -> None:
        """Reader thread: every frame (or death) becomes a queue event."""
        while True:
            try:
                frame = read_frame(link.reader)
            except socket.timeout:
                self._events.put(("down", link, FabricConnectionError(
                    f"worker {link.addr} went silent for "
                    f"{self.dead_after_s:g}s (presumed dead)"
                )))
                return
            except (OSError, ValueError, FabricProtocolError) as error:
                self._events.put(("down", link, FabricConnectionError(
                    f"worker {link.addr} connection broke: {error}"
                )))
                return
            if frame is None:
                self._events.put(("down", link, FabricConnectionError(
                    f"worker {link.addr} closed the connection"
                )))
                return
            self._events.put(("frame", link, frame[0], frame[1]))

    # -- scheduling --------------------------------------------------------

    @property
    def width(self) -> int:
        """Live workers: each is one execution slot."""
        with self._lock:
            return sum(1 for link in self._links if link.alive)

    def submit(self, job: object) -> int:
        """Queue one ``_execute_chunk`` job; returns its chunk id."""
        self.connect()
        with self._lock:
            if not any(link.alive for link in self._links):
                raise FabricConnectionError(
                    "every fabric worker has died; cannot place chunks"
                )
            chunk_id = next(self._ids)
            frame = encode_frame(KIND_CHUNK, encode_chunk(chunk_id, job))
            self._pending.append((chunk_id, frame))
            self._place_pending()
        return chunk_id

    def _place_pending(self) -> None:
        """Hand queued chunks, oldest first, to idle live workers.
        Caller holds the lock."""
        for link in self._links:
            while self._pending and link.alive and link.busy_chunk is None:
                chunk_id, frame = self._pending.popleft()
                link.busy_chunk = chunk_id
                link.acked = False
                self._inflight[chunk_id] = link
                try:
                    link.send(frame)
                except OSError:
                    # The pump thread will also notice; retire the link
                    # here so the chunk moves on to the next one now.
                    link.alive = False
                    link.busy_chunk = None
                    self._inflight.pop(chunk_id, None)
                    link.close()
                    self._pending.appendleft((chunk_id, frame))

    def next_events(self) -> "list[tuple[str, int, object]]":
        """Block until a chunk completes, fails, or is lost."""
        return [self._next_event()]

    def _next_event(self) -> "tuple[str, int, object]":
        while True:
            with self._lock:
                if not any(link.alive for link in self._links):
                    if self._inflight or self._pending:
                        raise FabricConnectionError(
                            "every fabric worker has died with chunks "
                            "outstanding"
                        )
            item = self._events.get()
            if item[0] == "down":
                event = self._worker_down(item[1], item[2])
                if event is not None:
                    return event
                continue
            _, link, kind, payload = item
            if kind == KIND_HEARTBEAT:
                continue
            if kind == KIND_ACK:
                chunk_id = decode_ack(payload)
                with self._lock:
                    if link.busy_chunk == chunk_id:
                        link.acked = True
                continue
            if kind in (KIND_RESULT, KIND_ERROR):
                decode = decode_result if kind == KIND_RESULT else decode_error
                chunk_id, body = decode(payload)
                with self._lock:
                    owner = self._inflight.pop(chunk_id, None)
                    if link.busy_chunk == chunk_id:
                        link.busy_chunk = None
                        link.acked = False
                    self._place_pending()
                if owner is None:
                    continue  # stale frame for a chunk already written off
                label = "done" if kind == KIND_RESULT else "failed"
                return label, chunk_id, body
            # Anything else after the handshake is a protocol breach;
            # treat the worker as gone rather than guessing.
            event = self._worker_down(link, FabricProtocolError(
                f"worker {link.addr} sent unexpected frame kind {kind}"
            ))
            if event is not None:
                return event

    def _worker_down(self, link: _WorkerLink, error: Exception):
        """Retire a link; surface its in-flight chunk as lost."""
        with self._lock:
            was_alive = link.alive
            link.alive = False
            chunk_id = link.busy_chunk
            link.busy_chunk = None
            if chunk_id is not None:
                self._inflight.pop(chunk_id, None)
            # Any surviving idle worker should pick up queued chunks the
            # dead one will never take.
            self._place_pending()
        if was_alive:
            link.close()
        if chunk_id is not None:
            return "lost", chunk_id, error
        return None

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            links = list(self._links)
            self._links.clear()
            self._pending.clear()
            self._inflight.clear()
        for link in links:
            link.alive = False
            link.close()

    def __enter__(self) -> "FabricExecutor":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
