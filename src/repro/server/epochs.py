"""Epoch-versioned snapshots: immutable read state published under a counter.

The serving daemon separates its *writer* — the one
:class:`~repro.service.service.SimilarityService` that ingests — from the
*epochs* readers see.  Each epoch holds a frozen service copy (built by
:class:`~repro.server.cow.CowEpochPublisher`), so a query never observes a
half-applied batch: readers **pin** the epoch current when they arrive and
keep using it even while ingest publishes a successor.

Lifecycle of one epoch::

    publish ──► current ──► superseded ──► retired
                  │  ▲            │
             pin ─┘  └─ release ──┘ (last reader drains)

* ``publish(service)`` atomically swaps the current epoch pointer — the only
  work under the lock is the pointer swap and refcount inspection, measured
  into ``server.epoch.swap_pause`` (the pause concurrent readers can observe).
* ``pin()`` returns a context manager; the epoch's refcount keeps its service
  alive for exactly as long as any reader holds it.
* A superseded epoch whose refcount drains to zero is **retired**: its
  service reference is dropped so the sketch memory can be reclaimed.

Everything is driven by one mutex; critical sections are pointer/integer
updates only, so pinning adds ~a lock acquisition per request.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager

from repro.obs import get_registry
from repro.service.service import SimilarityService


class Epoch:
    """One published, immutable service snapshot plus its reader refcount."""

    __slots__ = ("epoch_id", "service", "readers", "retired", "index_lock")

    def __init__(self, epoch_id: int, service: SimilarityService) -> None:
        self.epoch_id = epoch_id
        self.service: SimilarityService | None = service
        self.readers = 0
        self.retired = False
        #: Serializes the one lazy banding-index build readers may trigger on
        #: this (otherwise immutable) epoch; later ``lsh`` reads are no-ops.
        self.index_lock = threading.Lock()


class EpochManager:
    """Publish/pin/retire coordination between one writer and many readers."""

    def __init__(self, service: SimilarityService) -> None:
        self._lock = threading.Lock()
        self._current = Epoch(1, service)
        self._live: dict[int, Epoch] = {1: self._current}
        self._published = 1
        self._retired = 0
        self._noops = 0
        registry = get_registry()
        if registry.enabled:
            registry.set_gauge("server.epoch.current", 1, unit="epoch")

    @property
    def current_epoch(self) -> int:
        """The epoch id new readers pin right now."""
        with self._lock:
            return self._current.epoch_id

    @property
    def current(self) -> Epoch:
        """The current :class:`Epoch` object (unpinned — prefer :meth:`pin`)."""
        with self._lock:
            return self._current

    @property
    def live_epochs(self) -> int:
        """Epochs not yet retired (current + superseded ones still pinned)."""
        with self._lock:
            return len(self._live)

    @contextmanager
    def pin(self) -> Iterator[Epoch]:
        """Pin the current epoch for the duration of the ``with`` block.

        The yielded :class:`Epoch` keeps its ``service`` alive (never
        retired) until the block exits, no matter how many publishes land in
        the meantime.
        """
        with self._lock:
            epoch = self._current
            epoch.readers += 1
        try:
            yield epoch
        finally:
            self._release(epoch)

    def _release(self, epoch: Epoch) -> None:
        with self._lock:
            epoch.readers -= 1
            if epoch.readers == 0 and epoch is not self._current:
                self._retire_locked(epoch)

    def _retire_locked(self, epoch: Epoch) -> None:
        """Drop a drained, superseded epoch's state (caller holds the lock)."""
        if epoch.retired:
            return
        epoch.retired = True
        epoch.service = None
        self._live.pop(epoch.epoch_id, None)
        self._retired += 1
        registry = get_registry()
        if registry.enabled:
            registry.inc("server.epoch.retired", 1, unit="epochs")

    def publish(
        self, service: SimilarityService, *, delta_words: int | None = None
    ) -> int:
        """Atomically make ``service`` the new current epoch; returns its id.

        The superseded epoch is retired immediately when no reader holds it,
        otherwise it lingers until its last reader releases (``pin`` exit).
        ``delta_words`` is the number of changed 64-bit words the publish
        applied (this delta's words only; each touched shard is copied whole).
        """
        registry = get_registry()
        started = time.perf_counter()
        with self._lock:
            previous = self._current
            epoch = Epoch(previous.epoch_id + 1, service)
            self._current = epoch
            self._live[epoch.epoch_id] = epoch
            self._published += 1
            if previous.readers == 0:
                self._retire_locked(previous)
        pause_seconds = time.perf_counter() - started
        if registry.enabled:
            registry.inc("server.epoch.swaps", 1, unit="swaps")
            registry.observe("server.epoch.swap_pause", pause_seconds)
            registry.set_gauge("server.epoch.current", epoch.epoch_id, unit="epoch")
            if delta_words is not None:
                registry.observe("server.epoch.delta_words", float(delta_words))
        return epoch.epoch_id

    def note_noop(self) -> int:
        """Record a publish that was short-circuited (nothing changed).

        No epoch is created — readers keep the current one — but the event is
        counted so ``stats()`` and the ``server.epoch.noop`` metric expose how
        often ingest batches cancelled out.  Returns the (unchanged) current
        epoch id.
        """
        with self._lock:
            self._noops += 1
            epoch_id = self._current.epoch_id
        registry = get_registry()
        if registry.enabled:
            registry.inc("server.epoch.noop", 1, unit="publishes")
        return epoch_id

    def stats(self) -> dict:
        """Epoch lifecycle counters for ``stats()``/observability."""
        with self._lock:
            return {
                "current": self._current.epoch_id,
                "published": self._published,
                "noops": self._noops,
                "retired": self._retired,
                "live": [
                    {"epoch": epoch.epoch_id, "readers": epoch.readers}
                    for epoch in self._live.values()
                ],
            }
