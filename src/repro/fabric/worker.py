"""``loupe worker``: a TCP probe worker for the distributed run fabric.

A :class:`FabricWorker` is the remote half of what a
``ProcessPoolExecutor`` child is to ``--executor process``: it accepts
pickled probe chunks and executes them through the *same*
:func:`repro.core.engine._execute_chunk` entry point, so the fault
semantics (guarded runs, in-chunk early exit, typed probe errors) are
literally shared code — the fabric changes the transport, never the
execution.

Per connection, the worker:

* answers the versioned ``HELLO``/``WELCOME`` handshake (carrying its
  :class:`~repro.core.runner.BackendCapabilities` contract and pid),
* acknowledges every ``CHUNK`` frame the moment it is decoded
  (``ACK``), then executes it and answers ``RESULT`` (pickled rows) or
  ``ERROR`` (pickled exception — :class:`ProbeRunError` /
  :class:`ProbeFaultError` cross the wire intact, exactly as they
  cross a process-pool pipe),
* emits ``HEARTBEAT`` frames every ``heartbeat_s`` from a side thread,
  so the scheduler can tell a worker that is *busy* (heartbeats flow
  while a chunk executes) from one that is *gone* (silence).

Chunks on one connection execute serially, in arrival order — a
worker is one execution slot, and fleet width comes from running more
workers. All writes to a connection go through one lock so heartbeat
frames never interleave into a result frame.

A worker can optionally *announce* itself to a campaign server
(``announce_url``): a background thread POSTs ``/fleet/heartbeat``
documents so ``GET /stats`` can report fleet gauges (connected
workers, chunks in flight). Announce failures are swallowed — the
gauges are observability, not control flow.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
import urllib.request

from repro.core.engine import _execute_chunk
from repro.core.runner import BackendCapabilities
from repro.fabric.protocol import (
    KIND_ACK,
    KIND_CHUNK,
    KIND_ERROR,
    KIND_HEARTBEAT,
    KIND_HELLO,
    KIND_RESULT,
    KIND_WELCOME,
    FabricProtocolError,
    decode_chunk,
    decode_hello,
    encode_ack,
    encode_error,
    encode_frame,
    encode_result,
    read_frame,
    welcome_payload,
)

#: How often a worker proves liveness, on-socket and to the campaign
#: server alike. Schedulers should presume a worker dead only after
#: several missed beats (see ``FabricExecutor``'s dead_after_s).
DEFAULT_HEARTBEAT_S = 2.0

#: What a fabric worker promises the scheduler: it executes pickled,
#: parallel-safe chunks. ``deterministic`` is true of the *worker* (it
#: adds no nondeterminism of its own); whether a given run may be
#: cached still depends on the shipped backend's own contract, which
#: the scheduling engine checks before any chunk is built.
WORKER_CAPABILITIES = BackendCapabilities(
    deterministic=True, parallel_safe=True, process_safe=True,
)


class _ConnectionHandler(socketserver.BaseRequestHandler):
    """One scheduler connection: handshake, then a serial chunk loop."""

    def handle(self) -> None:  # noqa: D102 - protocol method
        worker: "FabricWorker" = self.server.fabric_worker
        # ACK and RESULT are small back-to-back writes; without this,
        # Nagle plus the scheduler's delayed ACK stalls every chunk.
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = self.request.makefile("rb")
        write_lock = threading.Lock()
        stop_beats = threading.Event()

        def send(frame: bytes) -> None:
            with write_lock:
                self.request.sendall(frame)

        def beat() -> None:
            while not stop_beats.wait(worker.heartbeat_s):
                try:
                    send(encode_frame(KIND_HEARTBEAT, b""))
                except OSError:
                    return

        try:
            try:
                opening = read_frame(reader)
            except FabricProtocolError:
                return
            if opening is None or opening[0] != KIND_HELLO:
                return
            try:
                decode_hello(opening[1])
            except FabricProtocolError as error:
                # Tell the mismatched client why before hanging up.
                try:
                    send(encode_frame(
                        KIND_ERROR,
                        encode_error(0, error),
                    ))
                except OSError:
                    pass
                return
            send(encode_frame(KIND_WELCOME, welcome_payload(
                worker.capabilities,
                pid=os.getpid(),
                worker_id=worker.worker_id,
            )))
            heartbeats = threading.Thread(
                target=beat, daemon=True,
                name=f"loupe-fabric-beat-{worker.worker_id}",
            )
            heartbeats.start()
            self._chunk_loop(worker, reader, send)
        except (OSError, FabricProtocolError):
            # A vanished or misbehaving scheduler ends this connection,
            # never the worker: the next scheduler gets a clean slate.
            pass
        finally:
            stop_beats.set()

    def _chunk_loop(self, worker: "FabricWorker", reader, send) -> None:
        while True:
            frame = read_frame(reader)
            if frame is None:
                return  # scheduler hung up cleanly
            kind, payload = frame
            if kind == KIND_HEARTBEAT:
                continue
            if kind != KIND_CHUNK:
                raise FabricProtocolError(
                    f"unexpected frame kind {kind} after handshake"
                )
            chunk_id, job = decode_chunk(payload)
            send(encode_frame(KIND_ACK, encode_ack(chunk_id)))
            worker._chunk_started()
            try:
                backend, workload, tasks, early_exit, fault_policy = job
                rows = _execute_chunk(
                    backend, workload, tasks, early_exit, fault_policy
                )
            except Exception as error:
                send(encode_frame(KIND_ERROR, encode_error(chunk_id, error)))
            else:
                send(encode_frame(
                    KIND_RESULT, encode_result(chunk_id, rows)
                ))
            finally:
                worker._chunk_finished()


class _WorkerServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class FabricWorker:
    """One fabric execution slot listening on a TCP port.

    ``port=0`` binds an ephemeral port; :attr:`address` reports the
    bound ``host:port`` once :meth:`start` returns, so tests and
    scripts never race the bind. :meth:`serve_forever` blocks (the
    ``loupe worker`` CLI calls it); embedders call :meth:`start` and
    keep the worker on its background threads.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        announce_url: "str | None" = None,
        worker_id: "str | None" = None,
        capabilities: "BackendCapabilities | None" = None,
    ) -> None:
        if heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        self.heartbeat_s = heartbeat_s
        self.announce_url = announce_url.rstrip("/") if announce_url else None
        self.capabilities = capabilities or WORKER_CAPABILITIES
        self._server = _WorkerServer((host, port), _ConnectionHandler)
        self._server.fabric_worker = self
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{os.getpid()}-"
            f"{self._server.server_address[1]}"
        )
        self._lock = threading.Lock()
        self._in_flight = 0
        self._stop_announce = threading.Event()
        self._threads: list[threading.Thread] = []
        self._started = False

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def chunks_in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def _chunk_started(self) -> None:
        with self._lock:
            self._in_flight += 1

    def _chunk_finished(self) -> None:
        with self._lock:
            self._in_flight -= 1

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "FabricWorker":
        """Serve on background threads; returns immediately."""
        if self._started:
            return self
        self._started = True
        acceptor = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
            name=f"loupe-fabric-accept-{self.worker_id}",
        )
        acceptor.start()
        self._threads.append(acceptor)
        if self.announce_url:
            announcer = threading.Thread(
                target=self._announce_loop, daemon=True,
                name=f"loupe-fabric-announce-{self.worker_id}",
            )
            announcer.start()
            self._threads.append(announcer)
        return self

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`close`."""
        self.start()
        try:
            while not self._stop_announce.wait(0.5):
                pass
        except KeyboardInterrupt:
            raise
        finally:
            self.close()

    def close(self) -> None:
        self._stop_announce.set()
        try:
            self._server.shutdown()
        except Exception:
            pass
        self._server.server_close()

    def __enter__(self) -> "FabricWorker":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- fleet announcements -----------------------------------------------

    def _announce_loop(self) -> None:
        while True:
            self._announce_once()
            if self._stop_announce.wait(self.heartbeat_s):
                return

    def _announce_once(self) -> None:
        """POST one fleet heartbeat; failures are observability loss,
        not worker failure."""
        body = json.dumps({
            "worker_id": self.worker_id,
            "addr": self.address,
            "chunks_in_flight": self.chunks_in_flight(),
            "ttl_s": self.heartbeat_s * 5,
        }, sort_keys=True).encode()
        request = urllib.request.Request(
            f"{self.announce_url}/fleet/heartbeat",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=2.0):
                pass
        except Exception:
            pass
