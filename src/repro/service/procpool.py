"""True multi-core shard ingest: per-shard worker *processes* over shared memory.

A VOS update is one hash plus one xor, so per-shard sub-batches are too small
for GIL-releasing numpy work to overlap on threads.
:class:`ProcessShardIngestor` sidesteps the GIL: each worker **process** owns
a contiguous range of shards and runs their updates on a core of its own.
It is the executor behind ``ingest_stream(workers > 1)``.

The protocol, end to end:

* **startup** — every owned shard is serialized with
  :func:`~repro.service.snapshot.dumps_snapshot` and restored inside the
  worker via ``loads_snapshot``; the worker then takes a change cursor, so
  its delta holds exactly what it ingested;
* **transport** — the coordinator routes each submitted batch once
  (:meth:`ShardedVOS.split_by_owner`, the same vectorized hash serial ingest
  uses) and writes each worker's sub-batch into a slot of that worker's
  ``multiprocessing.shared_memory`` ring buffer: the ``users``/``items``/
  ``shard_ids`` int64 columns and the ``signs`` int8 column land as raw bytes
  the worker wraps in numpy views — no pickling, no copies on the way in.
  Object-id columns (string users/items) cannot live in fixed-width slots and
  take a pickle fallback over the same queue.  Slots are recycled only after
  the worker acknowledges them, and the bounded per-worker task queue
  provides backpressure;
* **ordering** — shard ownership is exclusive and each worker drains its own
  queue FIFO, so every shard sees its sub-batches in submission order: final
  state is **bit-identical** to serial ingest;
* **merge-back** — at :meth:`close` each worker ships one shard delta per
  changed shard (:mod:`repro.service.delta`: changed 64-bit array words,
  changed cardinality counters, and the shard's final popcount/user-count as
  consistency checks — the record journal replay applies too).  The
  coordinator applies it with :func:`~repro.service.delta.apply_shard_delta`,
  which stamps the touched words and counters as changed, so the live
  sketch's consumers (``save_delta`` journaling, epoch publishes) see the
  run exactly as if the coordinator had ingested serially;
* **failure relay** — a worker exception is pickled together with its
  formatted traceback and re-raised in the coordinator (chained to a
  :class:`~repro.exceptions.WorkerProcessError` carrying the remote
  traceback); the worker keeps draining (acking slots, skipping work) so the
  coordinator never deadlocks, and the run is poisoned: no partial state is
  merged, the coordinator's sketch keeps its pre-run state.

Instrumentation (``repro.obs``): workers count into a private per-process
registry (``ingest.worker_elements``/``ingest.worker_batches``) that is
shipped home and aggregated into the coordinator's registry at join; the
coordinator records ``ingest.proc.queue_depth`` and ``ingest.proc.shm_wait``
histograms plus per-worker ``ingest.proc.worker<N>.elements`` counters.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import time
import traceback
from collections import deque
from multiprocessing import shared_memory

import numpy as np

from repro.exceptions import ConfigurationError, WorkerProcessError
from repro.hashing.bitpack import next_stamp
from repro.obs import MetricsRegistry, get_registry, set_registry, trace
from repro.service.delta import apply_shard_delta, shard_delta
from repro.service.sharding import ShardedVOS
from repro.service.snapshot import loads_snapshot, shard_snapshots
from repro.streams.batch import ElementBatch

#: Bound on each worker's task queue (messages, i.e. sub-batches in flight).
_QUEUE_DEPTH = 8
#: Slots per worker ring buffer.  Fewer slots than queue depth keeps the ring
#: (not the queue) the backpressure bound for the zero-copy path.
_RING_SLOTS = 4
#: Rows per ring slot.  One row costs 25 bytes (three int64 columns + one
#: int8), so the default ring is ~6.5 MiB per worker.
_SLOT_ROWS = 65_536
#: Bytes per row in a slot: users + items + shard_ids (int64) + signs (int8).
_ROW_BYTES = 25
#: Poll interval for liveness-aware queue operations.
_POLL_SECONDS = 0.05


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing shared-memory block without claiming ownership.

    Only the coordinator unlinks the segment.  Python 3.13 grew
    ``track=False`` for exactly this; on 3.11/3.12 the attach re-registers
    the name with the resource tracker, which is harmless here — worker
    processes share the coordinator's tracker (fork and spawn both inherit
    it), so the duplicate registration is a set no-op and the single
    registration is released by the coordinator's ``unlink``.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        return shared_memory.SharedMemory(name=name)


def _slot_views(
    buffer, slot: int, slot_rows: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Numpy views over one ring slot's columns (users, items, shard_ids, signs)."""
    base = slot * slot_rows * _ROW_BYTES
    users = np.ndarray((count,), dtype="<i8", buffer=buffer, offset=base)
    items = np.ndarray(
        (count,), dtype="<i8", buffer=buffer, offset=base + 8 * slot_rows
    )
    shard_ids = np.ndarray(
        (count,), dtype="<i8", buffer=buffer, offset=base + 16 * slot_rows
    )
    signs = np.ndarray(
        (count,), dtype=np.int8, buffer=buffer, offset=base + 24 * slot_rows
    )
    return users, items, shard_ids, signs


def _process_sub_batch(shards: dict, batch: ElementBatch, shard_ids: np.ndarray) -> None:
    """Apply one routed sub-batch: per-shard selects, submission order kept."""
    for shard_index in np.unique(shard_ids).tolist():
        rows = np.flatnonzero(shard_ids == shard_index)
        shards[shard_index].process_batch(batch.select(rows))


def _worker_main(
    worker_index: int,
    shard_blobs: list,
    shm_name: str,
    slot_rows: int,
    metrics_enabled: bool,
    task_queue,
    result_queue,
) -> None:
    """Worker process entry point: restore owned shards, drain, ship deltas."""
    registry = set_registry(MetricsRegistry(enabled=metrics_enabled))
    shards = {index: loads_snapshot(blob) for index, blob in shard_blobs}
    cursor = next_stamp()
    shm = _attach_shm(shm_name)
    failed = False
    try:
        while True:
            message = task_queue.get()
            kind = message[0]
            if kind == "stop":
                break
            try:
                if kind == "shm":
                    _, slot, count = message
                    if not failed:
                        users, items, ids, signs = _slot_views(
                            shm.buf, slot, slot_rows, count
                        )
                        batch = ElementBatch(users, items, signs)
                        _process_sub_batch(shards, batch, ids)
                        del users, items, ids, signs, batch
                        registry.inc(
                            "ingest.worker_elements", count, unit="elements"
                        )
                        registry.inc("ingest.worker_batches", 1, unit="batches")
                    result_queue.put(("ack", worker_index, slot))
                elif kind == "pickle" and not failed:
                    _, users, items, signs, ids = message
                    batch = ElementBatch(users, items, signs)
                    _process_sub_batch(shards, batch, ids)
                    registry.inc(
                        "ingest.worker_elements", len(batch), unit="elements"
                    )
                    registry.inc("ingest.worker_batches", 1, unit="batches")
            except BaseException as error:  # noqa: BLE001 - relayed to coordinator
                failed = True
                try:
                    blob = pickle.dumps(error)
                except Exception:  # noqa: BLE001 - unpicklable exception
                    blob = None
                result_queue.put(
                    ("error", worker_index, blob, traceback.format_exc())
                )
        if not failed:
            deltas = {}
            for index, shard in shards.items():
                delta = shard_delta(shard, index, cursor)
                if delta is not None:
                    deltas[index] = delta
            counters = registry.snapshot()["counters"]
            result_queue.put(("done", worker_index, deltas, counters))
    finally:
        shards.clear()
        shm.close()


class ProcessShardIngestor:
    """Ingest batches into a :class:`ShardedVOS` on per-shard worker processes.

    Parameters
    ----------
    sketch:
        The sharded sketch to ingest into.  The coordinator's copy is **not**
        mutated until :meth:`close` merges the workers' deltas back — a run
        that fails leaves it exactly as it was.
    workers:
        Requested worker processes; capped at the shard count.  Shards are
        assigned in contiguous ranges (``np.array_split`` over the shard
        indices), so worker 0 owns the lowest shard ids.
    queue_depth / ring_slots / slot_rows:
        Backpressure knobs: bounded task-queue depth, shared-memory slots per
        worker and rows per slot.  Sub-batches larger than a slot are
        chunked (order preserved).
    start_method:
        ``multiprocessing`` start method (``None`` = platform default;
        ``fork`` on Linux).  Everything shipped to workers is picklable, so
        ``spawn`` works too.

    Use as a context manager (or call :meth:`close`) so workers are always
    joined, deltas merged, and any worker failure re-raised::

        with ProcessShardIngestor(sketch, workers=4) as ingestor:
            for batch in batches:
                ingestor.submit(batch)
    """

    def __init__(
        self,
        sketch: ShardedVOS,
        workers: int,
        *,
        queue_depth: int = _QUEUE_DEPTH,
        ring_slots: int = _RING_SLOTS,
        slot_rows: int = _SLOT_ROWS,
        start_method: str | None = None,
    ) -> None:
        if workers <= 0:
            raise ConfigurationError(f"workers must be positive, got {workers}")
        if not isinstance(sketch, ShardedVOS):
            raise ConfigurationError(
                "ProcessShardIngestor requires a ShardedVOS (independent shards "
                "are what worker processes own)"
            )
        if queue_depth <= 0 or ring_slots <= 0 or slot_rows <= 0:
            raise ConfigurationError(
                "queue_depth, ring_slots and slot_rows must all be positive"
            )
        self._sketch = sketch
        self.workers = max(1, min(workers, sketch.num_shards))
        self._slot_rows = slot_rows
        self._ring_slots = ring_slots
        self._closed = False
        self._failure: BaseException | None = None
        self._remote_traceback: str | None = None
        self._merged = False

        ranges = np.array_split(np.arange(sketch.num_shards), self.workers)
        self._owner_of_shard = np.empty(sketch.num_shards, dtype=np.int64)
        self._owned_shards: list[list[int]] = []
        for owner, shard_ids in enumerate(ranges):
            owned = shard_ids.tolist()
            self._owned_shards.append(owned)
            self._owner_of_shard[owned] = owner

        context = multiprocessing.get_context(start_method)
        registry = get_registry()
        blobs = shard_snapshots(sketch)
        self._shm: list[shared_memory.SharedMemory] = []
        self._task_queues = []
        self._result_queue = context.Queue()
        self._free_slots: list[deque] = []
        self._finished: list[bool] = [False] * self.workers
        self._processes: list = []
        try:
            for worker in range(self.workers):
                shm = shared_memory.SharedMemory(
                    create=True, size=ring_slots * slot_rows * _ROW_BYTES
                )
                self._shm.append(shm)
                task_queue = context.Queue(maxsize=queue_depth)
                self._task_queues.append(task_queue)
                self._free_slots.append(deque(range(ring_slots)))
                process = context.Process(
                    target=_worker_main,
                    args=(
                        worker,
                        [(index, blobs[index]) for index in self._owned_shards[worker]],
                        shm.name,
                        slot_rows,
                        registry.enabled,
                        task_queue,
                        self._result_queue,
                    ),
                    name=f"vos-ingest-proc-{worker}",
                    daemon=True,
                )
                self._processes.append(process)
            for process in self._processes:
                process.start()
        except BaseException:
            self._release_resources()
            raise

    # -- failure bookkeeping ---------------------------------------------------------

    def _note_failure(self, error: BaseException, remote_traceback: str | None) -> None:
        if self._failure is None:
            self._failure = error
            self._remote_traceback = remote_traceback

    def _note_dead_worker(self, worker: int) -> None:
        self._note_failure(
            WorkerProcessError(
                f"ingest worker process {worker} died without reporting an error"
            ),
            None,
        )

    def _handle_result(self, message) -> None:
        kind = message[0]
        if kind == "ack":
            _, worker, slot = message
            self._free_slots[worker].append(slot)
        elif kind == "error":
            _, worker, blob, remote_traceback = message
            self._finished[worker] = True
            error: BaseException | None = None
            if blob is not None:
                try:
                    error = pickle.loads(blob)
                except Exception:  # noqa: BLE001 - fall back to the traceback text
                    error = None
            if error is None:
                error = WorkerProcessError(
                    f"ingest worker process {worker} failed:\n{remote_traceback}"
                )
            self._note_failure(error, remote_traceback)
        elif kind == "done":
            _, worker, deltas, counters = message
            self._finished[worker] = True
            self._merge_worker(worker, deltas, counters)

    def _drain_results(self, timeout: float = 0.0) -> bool:
        """Process pending worker messages; returns True if any were handled.

        ``timeout`` bounds the wait for the *first* message only; everything
        already queued behind it is drained without blocking.
        """
        handled = False
        remaining = timeout
        while True:
            try:
                if remaining > 0:
                    message = self._result_queue.get(timeout=remaining)
                else:
                    message = self._result_queue.get_nowait()
            except queue.Empty:
                return handled
            handled = True
            remaining = 0.0
            self._handle_result(message)

    # -- transport -------------------------------------------------------------------

    def _acquire_slot(self, worker: int, registry) -> int | None:
        """A free ring slot for ``worker`` (None when the run has failed)."""
        free = self._free_slots[worker]
        if free:
            return free.popleft()
        start = time.perf_counter()
        while True:
            self._drain_results(timeout=_POLL_SECONDS)
            if self._failure is not None:
                return None
            if free:
                if registry.enabled:
                    registry.observe(
                        "ingest.proc.shm_wait",
                        time.perf_counter() - start,
                        unit="seconds",
                    )
                return free.popleft()
            if not self._processes[worker].is_alive():
                # Catch messages that were in flight when the worker exited.
                if self._drain_results(timeout=_POLL_SECONDS):
                    continue
                self._note_dead_worker(worker)
                return None

    def _put_task(self, worker: int, message, *, ignore_failure: bool = False) -> None:
        """Enqueue a task, draining results while the bounded queue is full.

        ``ignore_failure`` lets shutdown keep delivering ``stop`` sentinels to
        healthy workers after another worker has already failed.
        """
        task_queue = self._task_queues[worker]
        while True:
            try:
                task_queue.put(message, timeout=_POLL_SECONDS)
                return
            except queue.Full:
                self._drain_results()
                if self._failure is not None and not ignore_failure:
                    return
                if not self._processes[worker].is_alive():
                    if not ignore_failure:
                        self._note_dead_worker(worker)
                    return

    def _send_shm(self, worker: int, sub, shard_ids: np.ndarray, registry) -> None:
        """Write one sub-batch into ring slots (chunking to slot capacity)."""
        for start in range(0, len(sub), self._slot_rows):
            stop = min(start + self._slot_rows, len(sub))
            count = stop - start
            slot = self._acquire_slot(worker, registry)
            if slot is None:
                return
            users, items, ids, signs = _slot_views(
                self._shm[worker].buf, slot, self._slot_rows, count
            )
            users[:] = sub.users[start:stop]
            items[:] = sub.items[start:stop]
            ids[:] = shard_ids[start:stop]
            signs[:] = sub.signs[start:stop]
            del users, items, ids, signs
            self._observe_depth(worker, registry)
            self._put_task(worker, ("shm", slot, count))
            if self._failure is not None:
                return

    def _send_pickle(self, worker: int, sub, shard_ids: np.ndarray, registry) -> None:
        self._observe_depth(worker, registry)
        self._put_task(
            worker, ("pickle", sub.users, sub.items, sub.signs, shard_ids)
        )

    def _observe_depth(self, worker: int, registry) -> None:
        if registry.enabled:
            try:
                depth = self._task_queues[worker].qsize()
            except NotImplementedError:  # pragma: no cover - macOS
                return
            registry.observe("ingest.proc.queue_depth", depth, unit="tasks")

    # -- submission ------------------------------------------------------------------

    def submit(self, elements) -> int:
        """Route one batch to the owning workers; returns the batch size.

        Integer-id columns travel through the shared-memory ring (zero-copy);
        batches with object ids (string users/items) fall back to pickling
        over the task queue.  Raises the relayed worker failure (via
        :meth:`close`) as soon as one is known.
        """
        if self._closed:
            raise ConfigurationError("cannot submit to a closed ingestor")
        self._drain_results()
        if self._failure is not None:
            self.close()
        batch = ElementBatch.coerce(elements)
        count = len(batch)
        if count == 0:
            return 0
        registry = get_registry()
        with trace("ingest.route", registry):
            routed = list(self._sketch.split_by_owner(batch, self._owner_of_shard))
        zero_copy = batch.integer_users and batch.integer_items
        for worker, sub, shard_ids in routed:
            if zero_copy:
                self._send_shm(worker, sub, shard_ids, registry)
            else:
                self._send_pickle(worker, sub, shard_ids, registry)
            if self._failure is not None:
                self.close()
        return count

    # -- merge-back ------------------------------------------------------------------

    def _merge_worker(self, worker: int, deltas: dict, counters: dict) -> None:
        """Fold one worker's shard deltas and metric counters into the sketch."""
        if self._failure is not None:
            return  # poisoned run: never merge partial state
        for shard_index, delta in sorted(deltas.items()):
            problem = apply_shard_delta(self._sketch.shards[shard_index], delta)
            if problem is not None:
                raise WorkerProcessError(
                    f"worker {worker} delta {problem} — coordinator and "
                    "worker state diverged"
                )
        registry = get_registry()
        if registry.enabled:
            registry.merge_counter_snapshot(counters)
            elements = counters.get("ingest.worker_elements", {}).get("value", 0)
            registry.inc(
                f"ingest.proc.worker{worker}.elements", int(elements), unit="elements"
            )

    # -- shutdown --------------------------------------------------------------------

    def _release_resources(self) -> None:
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - failure paths only
                process.terminate()
            if process.pid is not None:
                process.join(timeout=5.0)
        for task_queue in self._task_queues:
            task_queue.close()
        self._result_queue.close()
        for shm in self._shm:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._shm = []

    def close(self) -> None:
        """Drain, merge worker deltas, join processes; re-raise any failure."""
        if not self._closed:
            self._closed = True
            try:
                for worker, process in enumerate(self._processes):
                    if process.is_alive() or not self._finished[worker]:
                        self._put_task(worker, ("stop",), ignore_failure=True)
                while not all(self._finished):
                    if self._drain_results(timeout=_POLL_SECONDS):
                        continue
                    for worker, process in enumerate(self._processes):
                        if not self._finished[worker] and not process.is_alive():
                            # One last drain for in-flight messages, then give up.
                            if self._drain_results(timeout=_POLL_SECONDS):
                                break
                            self._finished[worker] = True
                            self._note_dead_worker(worker)
            finally:
                self._release_resources()
        if self._failure is not None:
            failure, self._failure = self._failure, None
            remote, self._remote_traceback = self._remote_traceback, None
            if remote is not None and not isinstance(failure, WorkerProcessError):
                raise failure from WorkerProcessError(
                    f"worker process traceback:\n{remote}"
                )
            raise failure

    def __enter__(self) -> "ProcessShardIngestor":
        return self

    def __exit__(self, exc_type, exc_value, traceback_) -> None:
        if exc_type is None:
            self.close()
            return
        # Preserve the in-flight exception; still join the workers.
        try:
            self.close()
        except BaseException:  # noqa: BLE001 - the original error wins
            pass
