"""The long-running serving daemon: concurrent reads while ingest lands.

:class:`ServingDaemon` owns two halves:

* a **writer** — the one :class:`~repro.service.service.SimilarityService`
  that ingests (``ingest_batch`` requests are serialized through a write
  lock and run the checkpoint policy the service already has);
* an :class:`~repro.server.epochs.EpochManager` of **frozen reader epochs** —
  after every published ingest the
  :class:`~repro.server.cow.CowEpochPublisher` copies each shard the writer
  changed since the previous publish from the previous epoch and applies
  just those words and counters, and the resulting immutable read copy is
  atomically swapped in as the next epoch.  Readers pin whatever epoch is
  current when their request arrives, so a query never observes a
  half-applied batch and an epoch swap never tears, drops, or errors an
  in-flight request.  Each shard holds its own LSH table, so an untouched
  shard brings its table into the new epoch and the epoch's first ``lsh``
  read rebuilds only the shards that publish changed.

Threading model: one acceptor thread spawns a thread per live connection
(bounded by ``backlog``; connections beyond it are shed, never silently
queued behind a busy peer), while a ``workers``-sized semaphore bounds how
many requests *dispatch* concurrently — so any number of idle clients can
stay connected without starving each other, and scoring parallelism is still
capped (the hot loops sit in the native/NumPy kernel tiers, outside the
GIL).  Graceful shutdown —
``shutdown`` request, SIGTERM via :meth:`request_shutdown`, or context-manager
exit — stops accepting, lets every in-flight request finish and its response
flush, then writes a final journal checkpoint when the writer is bound to a
snapshot (``save_delta``, falling back to a full ``save`` when the journal
cannot accept deltas).

Metrics (``server.*``): request counts/latency per op, error counts,
connection counts and live-connection depth, epoch swap/publish/pause
timings, the first epoch's copy (``server.epoch.materialize``) and the
shutdown checkpoint counter — all in the process registry
(:mod:`repro.obs`), so ``stats`` responses carry them to clients.  With the
writer's ``persistence.snapshot.load`` and ``persistence.journal.replay``
they break a daemon's cold start down by step.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from collections import deque

from repro._version import __version__
from repro.exceptions import ConfigurationError, ProtocolError, ReproError
from repro.obs import get_registry, kv, trace
from repro.server import protocol
from repro.server.cow import CowEpochPublisher
from repro.server.epochs import EpochManager
from repro.service.service import SimilarityService

logger = logging.getLogger(__name__)

#: How often blocking accept/recv waits wake up to check the stop flag.
_POLL_SECONDS = 0.2

#: How many recent publishes :attr:`ServingDaemon.publish_log` retains.
_PUBLISH_LOG_SIZE = 4096


class ServingDaemon:
    """Serve similarity queries over TCP against epoch-versioned snapshots.

    Parameters
    ----------
    service:
        The writer service (its current state becomes epoch 1).
    host, port:
        Bind address; the default binds localhost on an ephemeral port
        (``address`` reports the bound port after :meth:`start`).
    workers:
        Maximum requests dispatching concurrently (a semaphore, not a
        connection cap — idle connections cost only their thread).
    backlog:
        Maximum live connections (and listen backlog); beyond it new
        connections are shed at accept instead of queueing indefinitely.
    """

    def __init__(
        self,
        service: SimilarityService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        backlog: int = 64,
    ) -> None:
        if workers <= 0:
            raise ConfigurationError(f"workers must be positive, got {workers}")
        self._publisher: CowEpochPublisher | None = None
        #: Recent publish records ``{"epoch", "seconds", "delta_words"}`` —
        #: bounded; read by benchmarks for per-publish build latency.
        self.publish_log: deque[dict] = deque(maxlen=_PUBLISH_LOG_SIZE)
        self._writer = service
        self._host = host
        self._port = port
        self._workers = workers
        self._backlog = backlog
        self._listener: socket.socket | None = None
        self._epochs: EpochManager | None = None
        self._write_lock = threading.Lock()
        self._dispatch_slots = threading.BoundedSemaphore(workers)
        self._conn_threads: set[threading.Thread] = set()
        self._conn_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._drained = threading.Event()
        self._drain_lock = threading.Lock()
        self._started = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._final_checkpoint: dict | None = None
        self._ops = {
            "ping": self._op_ping,
            "top_k_pairs": self._op_top_k_pairs,
            "nearest": self._op_nearest,
            "estimate_many": self._op_estimate_many,
            "ingest_batch": self._op_ingest_batch,
            "stats": self._op_stats,
            "metrics": self._op_metrics,
            "snapshot": self._op_snapshot,
            "shutdown": self._op_shutdown,
        }

    # -- lifecycle -------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._listener is None:
            raise ConfigurationError("daemon is not started; call start() first")
        bound = self._listener.getsockname()
        return bound[0], bound[1]

    @property
    def writer(self) -> SimilarityService:
        """The mutable writer service (exposed for lifecycle tooling/tests)."""
        return self._writer

    @property
    def epochs(self) -> EpochManager:
        """The epoch manager (valid after :meth:`start`)."""
        if self._epochs is None:
            raise ConfigurationError("daemon is not started; call start() first")
        return self._epochs

    @property
    def final_checkpoint(self) -> dict | None:
        """What the shutdown checkpoint wrote (``None`` before drain)."""
        return self._final_checkpoint

    def start(self) -> tuple[str, int]:
        """Publish epoch 1, bind the listener, start threads; returns address."""
        if self._started:
            return self.address
        self._publisher = CowEpochPublisher(self._writer)
        with trace("server.epoch.materialize"):
            self._epochs = EpochManager(self._publisher.materialize())
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(self._backlog)
        listener.settimeout(_POLL_SECONDS)
        self._listener = listener
        acceptor = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)
        self._started = True
        logger.info(
            "serving %s",
            kv(host=self.address[0], port=self.address[1], workers=self._workers),
        )
        return self.address

    def request_shutdown(self) -> None:
        """Signal a graceful stop (signal-handler and request-thread safe).

        Returns immediately; the thread blocked in :meth:`wait` (or a later
        :meth:`shutdown` call) performs the drain and final checkpoint.
        """
        self._stop.set()

    def wait(self) -> None:
        """Block until a shutdown is requested, then drain (see class doc)."""
        while not self._stop.wait(timeout=_POLL_SECONDS):
            pass
        self._drain()

    def shutdown(self) -> None:
        """Request a graceful stop and drain to completion.

        Must not be called from a connection thread (the ``shutdown`` op is
        answered with :meth:`request_shutdown` instead).
        """
        self._stop.set()
        self._drain()

    def serve_forever(self) -> None:
        """:meth:`start` + :meth:`wait` — the CLI's main loop."""
        self.start()
        self.wait()

    def __enter__(self) -> "ServingDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _drain(self) -> None:
        """Join threads, close sockets, write the final journal checkpoint."""
        with self._drain_lock:
            if self._drained.is_set():
                return
            if self._listener is not None:
                try:
                    self._listener.close()
                except OSError:  # pragma: no cover - platform-dependent
                    pass
            for thread in self._threads:
                if thread is not threading.current_thread():
                    thread.join()
            # Connection threads notice the stop flag at their next idle poll
            # (at most _POLL_SECONDS away) after finishing any in-flight
            # request, so these joins are bounded.
            with self._conn_lock:
                live = list(self._conn_threads)
            for thread in live:
                if thread is not threading.current_thread():
                    thread.join()
            self._final_checkpoint = self._checkpoint_on_shutdown()
            self._drained.set()
            logger.info("serve drain complete %s", kv(**(self._final_checkpoint or {})))

    def _checkpoint_on_shutdown(self) -> dict | None:
        """Persist pending writer state via the journal, if bound to a snapshot."""
        if self._writer.snapshot_path is None:
            return None
        registry = get_registry()
        try:
            try:
                delta = self._writer.save_delta()
                result = {"kind": "delta", **delta}
            except ConfigurationError:
                # v1 snapshot or deliberately unreplayed journal: the delta
                # path refuses, so rotate with a full checkpoint instead.
                result = {"kind": "full", "checkpoint_id": self._writer.save()}
        except ReproError as error:  # pragma: no cover - disk failures
            logger.error("shutdown checkpoint failed: %s", error)
            return {"kind": "failed", "error": str(error)}
        if registry.enabled:
            registry.inc("server.shutdown.checkpoints", 1, unit="checkpoints")
        return result

    # -- epoch publishing ------------------------------------------------------------

    def _publish_epoch(self) -> tuple[int, str]:
        """Publish the writer's state as a new epoch (caller holds the write lock).

        Returns ``(epoch_id, publish_mode)``.  When no word and no counter
        changed since the previous publish the publish is a no-op: readers
        keep the current epoch, nothing is copied, and only the
        ``server.epoch.noop`` counter moves.
        """
        registry = get_registry()
        started = time.perf_counter()
        delta = self._writer.freeze_delta(self._publisher.cursor)
        if not delta["shards"]:
            return self.epochs.note_noop(), "noop"
        delta_words = sum(len(entry["words"]) for entry in delta["shards"])
        frozen = self._publisher.publish_delta(delta)
        epoch = self.epochs.publish(frozen, delta_words=delta_words)
        seconds = time.perf_counter() - started
        if registry.enabled:
            registry.observe("server.epoch.publish", seconds)
        self.publish_log.append(
            {"epoch": epoch, "seconds": seconds, "delta_words": delta_words}
        )
        return epoch, "cow"

    # -- connection handling ---------------------------------------------------------

    def _accept_loop(self) -> None:
        registry = get_registry()
        while not self._stop.is_set():
            try:
                connection, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:  # listener closed during shutdown
                break
            with self._conn_lock:
                live = len(self._conn_threads)
            if registry.enabled:
                registry.inc("server.connections", 1, unit="connections")
                registry.observe("server.connections.live", live, unit="connections")
            if live >= self._backlog:
                # Saturated: shed load instead of holding connections hostage.
                if registry.enabled:
                    registry.inc("server.connections.shed", 1, unit="connections")
                connection.close()
                continue
            thread = threading.Thread(
                target=self._connection_main,
                args=(connection, peer),
                name=f"repro-serve-conn-{peer[1]}",
                daemon=True,
            )
            with self._conn_lock:
                self._conn_threads.add(thread)
            thread.start()

    def _connection_main(self, connection: socket.socket, peer) -> None:
        try:
            self._serve_connection(connection, peer)
        finally:
            connection.close()
            with self._conn_lock:
                self._conn_threads.discard(threading.current_thread())

    def _serve_connection(self, connection: socket.socket, peer) -> None:
        registry = get_registry()
        connection.settimeout(_POLL_SECONDS)
        try:
            self._send(connection, protocol.hello_payload(self.epochs.current_epoch))
            while True:
                try:
                    request = protocol.recv_frame(connection)
                except socket.timeout:
                    # Idle between frames: keep the connection unless a drain
                    # is in progress (an in-flight request never lands here —
                    # its frame was already fully read).
                    if self._stop.is_set():
                        return
                    continue
                if request is None:  # peer closed cleanly
                    return
                with self._inflight_lock:
                    self._inflight += 1
                    if registry.enabled:
                        registry.set_gauge(
                            "server.inflight", self._inflight, unit="requests"
                        )
                try:
                    with self._dispatch_slots:
                        response = self._dispatch(request)
                finally:
                    with self._inflight_lock:
                        self._inflight -= 1
                        if registry.enabled:
                            registry.set_gauge(
                                "server.inflight", self._inflight, unit="requests"
                            )
                self._send(connection, response)
        except ProtocolError as error:
            # The stream is unsynchronized after a framing error: answer if
            # possible, then drop the connection.
            logger.warning("protocol error from %s: %s", peer, error)
            if registry.enabled:
                registry.inc("server.requests.errors", 1, unit="requests")
            try:
                self._send(connection, _error_response(error))
            except OSError:
                pass
        except OSError:
            # Peer vanished mid-frame (reset, abort) — nothing to answer.
            logger.debug("connection to %s dropped", peer)

    def _send(self, connection: socket.socket, payload: dict) -> None:
        # sendall must not be interrupted by the read timeout of the next
        # recv: frames are small relative to socket buffers, but be explicit.
        connection.settimeout(None)
        try:
            protocol.send_frame(connection, payload)
        finally:
            connection.settimeout(_POLL_SECONDS)

    # -- request dispatch ------------------------------------------------------------

    def _dispatch(self, request: dict) -> dict:
        registry = get_registry()
        op = request.get("op")
        handler = self._ops.get(op)
        started = time.perf_counter()
        if handler is None:
            response = _error_response(
                ProtocolError(
                    f"unknown op {op!r} (expected one of: "
                    f"{', '.join(protocol.REQUEST_OPS)})"
                )
            )
        else:
            try:
                response = handler(request)
                response["ok"] = True
            except Exception as error:  # noqa: BLE001 - relayed to the client
                logger.warning("request %s failed: %s", op, error)
                response = _error_response(error)
        seconds = time.perf_counter() - started
        if registry.enabled:
            registry.inc("server.requests", 1, unit="requests")
            registry.observe("server.request.seconds", seconds)
            if handler is not None:
                registry.inc(f"server.requests.{op}", 1, unit="requests")
                registry.observe(f"server.request.{op}.seconds", seconds)
            if not response.get("ok"):
                registry.inc("server.requests.errors", 1, unit="requests")
        return response

    # -- read ops (answered from a pinned epoch) -------------------------------------

    def _op_ping(self, request: dict) -> dict:
        return {"epoch": self.epochs.current_epoch, "version": __version__}

    def _op_top_k_pairs(self, request: dict) -> dict:
        candidates = request.get("candidates", "all")
        with self.epochs.pin() as epoch:
            service = epoch.service
            if candidates == "lsh":
                self._ensure_index(epoch)
            pairs = service.top_k_pairs(
                k=_field(request, "k", 10, int),
                users=_user_list(request, "users"),
                minimum_cardinality=_field(request, "minimum_cardinality", 1, int),
                prefilter_threshold=_field(
                    request, "prefilter_threshold", 0.0, float, int
                ),
                candidates=candidates,
            )
            return {
                "epoch": epoch.epoch_id,
                "pairs": protocol.encode_scored_pairs(pairs),
            }

    def _op_nearest(self, request: dict) -> dict:
        if "user" not in request:
            raise ProtocolError("nearest requires a 'user' parameter")
        user = _user_id(request["user"], "user")
        index = request.get("index", "none")
        with self.epochs.pin() as epoch:
            if index == "lsh":
                self._ensure_index(epoch)
            neighbours = epoch.service.top_k(
                user,
                k=_field(request, "k", 10, int),
                candidates=_user_list(request, "candidates"),
                minimum_cardinality=_field(request, "minimum_cardinality", 1, int),
                index=index,
            )
            return {
                "epoch": epoch.epoch_id,
                "pairs": protocol.encode_scored_pairs(neighbours),
            }

    def _op_estimate_many(self, request: dict) -> dict:
        rows = request.get("pairs")
        if not isinstance(rows, list):
            raise ProtocolError("estimate_many requires a 'pairs' list of [a, b] rows")
        pairs = []
        for row in rows:
            if not isinstance(row, list) or len(row) != 2:
                raise ProtocolError(f"estimate_many rows must be [a, b], got {row!r}")
            pairs.append((_user_id(row[0], "pairs"), _user_id(row[1], "pairs")))
        with self.epochs.pin() as epoch:
            estimates = epoch.service.estimate_many(pairs)
            return {
                "epoch": epoch.epoch_id,
                "estimates": protocol.encode_estimates(estimates),
            }

    def _op_stats(self, request: dict) -> dict:
        # The reported epoch must be the one whose stats were read: using the
        # manager's live "current" would pair a newly published epoch id with
        # the pinned (older) epoch's counters when a swap lands in between.
        with self.epochs.pin() as epoch:
            stats = epoch.service.stats()
            epoch_id = epoch.epoch_id
        stats["server"] = self.server_stats()
        return {"epoch": epoch_id, "stats": stats}

    def _op_metrics(self, request: dict) -> dict:
        return {
            "epoch": self.epochs.current_epoch,
            "metrics": get_registry().snapshot(),
        }

    def _ensure_index(self, epoch) -> None:
        """Sync the epoch's banding index once across reader threads.

        An epoch's service is immutable, so after the first synchronization
        every later ``lsh`` query finds its shards' tables fresh and skips
        the rebuild; the per-epoch lock only serializes that first sync, so
        concurrent readers never build the same stale table twice.
        """
        with epoch.index_lock:
            epoch.service.index().refresh()

    # -- write ops (serialized through the write lock) -------------------------------

    def _op_ingest_batch(self, request: dict) -> dict:
        rows = request.get("elements")
        if not isinstance(rows, list):
            raise ProtocolError(
                "ingest_batch requires an 'elements' list of [user, item, action] rows"
            )
        elements = protocol.decode_elements(rows)
        publish = _field(request, "publish", True, bool)
        with self._write_lock:
            report = self._writer.ingest(elements)
            if publish:
                epoch, publish_mode = self._publish_epoch()
            else:
                epoch, publish_mode = self.epochs.current_epoch, "deferred"
        return {
            "epoch": epoch,
            "published": publish,
            "publish_mode": publish_mode,
            "elements": report.elements,
            "batches": report.batches,
            "seconds": report.seconds,
            "users": self._writer.sketch.num_users,
        }

    def _op_snapshot(self, request: dict) -> dict:
        path = request.get("path")
        with self._write_lock:
            checkpoint_id = self._writer.save(path)
        return {
            "epoch": self.epochs.current_epoch,
            "checkpoint_id": checkpoint_id,
            "path": str(self._writer.snapshot_path),
        }

    def _op_shutdown(self, request: dict) -> dict:
        self.request_shutdown()
        return {"epoch": self.epochs.current_epoch, "stopping": True}

    def server_stats(self) -> dict:
        """The ``server`` section of ``stats`` responses."""
        with self._inflight_lock:
            inflight = self._inflight
        return {
            "version": __version__,
            "address": list(self.address),
            "workers": self._workers,
            "inflight": inflight,
            "connections": len(self._conn_threads),
            "epochs": self.epochs.stats(),
            "cow": self._publisher.stats(),
        }


#: JSON names of the exact types :func:`_field` accepts (by its first kind).
_JSON_TYPES = {bool: "boolean", int: "integer", float: "number"}


def _field(request: dict, name: str, default, *kinds: type):
    """Request parameter ``name`` (``default`` when absent), exactly one of ``kinds``.

    The check is on the exact type, so JSON ``true`` is not an integer and
    ``3.7`` or ``"false"`` is never coerced into a meaning the client did not
    send.
    """
    value = request.get(name, default)
    if type(value) not in kinds:
        raise ProtocolError(
            f"{name!r} must be a JSON {_JSON_TYPES[kinds[0]]}, got {value!r}"
        )
    return value


def _user_id(value, name: str):
    """``value`` if it is a wire user id (:func:`protocol.is_wire_id`)."""
    if not protocol.is_wire_id(value):
        raise ProtocolError(
            f"{name!r} must hold string or integer user ids, got {value!r}"
        )
    return value


def _user_list(request: dict, name: str) -> list | None:
    """Optional user-id list ``name``: absent or ``null`` is ``None``."""
    value = request.get(name)
    if value is None:
        return None
    if type(value) is not list:
        raise ProtocolError(f"{name!r} must be a JSON list of user ids, got {value!r}")
    for user in value:
        _user_id(user, name)
    return value


def _error_response(error: Exception) -> dict:
    return {
        "ok": False,
        "error": {"type": type(error).__name__, "message": str(error)},
    }
