"""Copy-on-write epoch state: incremental publishing for the serving daemon.

Freezing the writer with a whole-state ``dumps_state`` → ``from_state_bytes``
round trip costs O(state) per publish (~30ms at 2k bench users, growing
linearly).  This module publishes at O(changed words) instead:

* **Arena** — at daemon start the writer's byte-per-bit shard buffers are
  written once to file-backed arenas (:class:`_ShardArena`).  The files are
  plain raw bytes, so process-pool workers can later map them zero-copy.
* **Overlay** — each published epoch maps its shard arenas privately
  (``mmap.ACCESS_COPY``): reads come straight from the shared page cache,
  and patching N words touches only the pages holding those words (the
  kernel copies pages lazily on write).
* **Patch** — every publish takes the writer's
  :meth:`~repro.service.service.SimilarityService.freeze_delta` since the
  publisher's cursor (the shard deltas of :mod:`repro.service.delta`, the
  record the journal ships too), folds it into the arena's cumulative patch,
  and applies the cumulative patch to a fresh overlay.  Shards untouched
  since the previous publish are carried over by reference — no new
  mapping, no new sketch object.
* **Rebase** — when a shard's cumulative patch approaches the arena size the
  arena is rewritten from the current overlay (amortized O(state), so the
  steady-state publish stays O(delta)).

Exact-state guarantees: ``apply_packed_words`` re-derives the popcount from
the before/after bits, the publisher verifies every patched shard's popcount
and user count against the writer's values shipped in the delta, and the
per-user counters are layered exactly (:class:`LayeredCounts`).  A
copy-on-write epoch therefore answers ``top_k_pairs`` / ``nearest`` /
``estimate_many`` bit-identically to a whole-state frozen copy — asserted by
the parity suite under both kernel tiers.
"""

from __future__ import annotations

import logging
import mmap
import os
import tempfile
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from repro.core.bitarray import SharedBitArray
from repro.core.vos import VirtualOddSketch
from repro.exceptions import SnapshotError
from repro.hashing import PackedBitArray
from repro.hashing.bitpack import next_stamp
from repro.obs import get_registry, kv
from repro.service.delta import delta_mismatch
from repro.service.service import SimilarityService
from repro.service.sharding import ShardedVOS
from repro.streams.edge import UserId

logger = logging.getLogger(__name__)


class LayeredCounts(Mapping):
    """Exact per-user counters as a frozen base dict plus a patch dict.

    Published epochs must not share the writer's mutable counter dict, and
    copying it per publish would be O(users).  Instead each epoch layers the
    cumulative counter patch (users whose count changed since the arena base)
    over the shared base dict; both layers are frozen by convention once the
    epoch is published.  ``len`` is precomputed so epoch ``stats()`` stays
    O(1); lookups hit the patch first, then the base.
    """

    __slots__ = ("_base", "_patch", "_extra")

    def __init__(self, base: dict, patch: dict) -> None:
        self._base = base
        self._patch = patch
        self._extra = sum(1 for user in patch if user not in base)

    def __getitem__(self, user: UserId) -> int:
        try:
            return self._patch[user]
        except KeyError:
            return self._base[user]

    def __contains__(self, user) -> bool:
        return user in self._patch or user in self._base

    def __iter__(self):
        yield from self._base
        base = self._base
        for user in self._patch:
            if user not in base:
                yield user

    def __len__(self) -> int:
        return len(self._base) + self._extra


class _ShardArena:
    """One shard's file-backed base buffer plus its cumulative publish patch.

    The file holds the shard's byte-per-bit ``uint8`` buffer exactly as the
    sketch stores it, so an ``ACCESS_COPY`` mapping of the file *is* a ready
    sketch array.  ``word_patch`` maps 64-bit word index → its latest 8
    packed bytes; ``counter_patch`` maps user → latest cardinality.  Both
    accumulate across publishes (each overlay starts from the base file, so
    it needs the full history) and reset on rebase.
    """

    def __init__(
        self,
        shard_index: int,
        bits: np.ndarray,
        ones_count: int,
        counts: dict,
        directory: str | Path | None,
    ) -> None:
        self.shard_index = shard_index
        fd, path = tempfile.mkstemp(
            prefix=f"repro-arena-shard{shard_index}-",
            suffix=".bits",
            dir=None if directory is None else str(directory),
        )
        self.fd = fd
        self.path = Path(path)
        with os.fdopen(os.dup(fd), "wb") as handle:
            bits.tofile(handle)
        self.num_bytes = int(bits.size)
        self.base_ones = int(ones_count)
        self.base_counts = counts
        self.word_patch: dict[int, bytes] = {}
        self.counter_patch: dict[UserId, int] = {}
        self.closed = False

    def overlay(self) -> np.ndarray:
        """A fresh private (copy-on-write) mapping of the base bytes.

        The returned array is writable; writes land in this mapping's private
        pages only, never in the file or any other overlay.  The array keeps
        the mapping alive via its buffer reference, so no explicit unmap
        bookkeeping is needed — a retired epoch dropping its sketch frees the
        pages.
        """
        mapped = mmap.mmap(self.fd, self.num_bytes, access=mmap.ACCESS_COPY)
        return np.frombuffer(mapped, dtype=np.uint8)

    def close(self) -> None:
        """Close the arena file and unlink it (existing mappings stay valid)."""
        if self.closed:
            return
        self.closed = True
        os.close(self.fd)
        self.path.unlink(missing_ok=True)


class CowEpochPublisher:
    """Build frozen epoch services from publish deltas instead of full state.

    Owned by the serving daemon.  Lifecycle: :meth:`materialize` once at
    start (O(state): writes the arenas and wraps the first frozen views),
    then :meth:`publish_delta` per published ingest (O(changed words)), then
    :meth:`close` at drain.  :attr:`cursor` is the change cursor the next
    ``freeze_delta`` reads from.  All calls run under the daemon's write
    lock; published services are immutable and outlive the publisher's
    arenas (private mappings survive close/unlink).
    """

    def __init__(
        self,
        writer: SimilarityService,
        *,
        rebase_fraction: float = 0.5,
        arena_dir: str | Path | None = None,
    ) -> None:
        self._writer = writer
        self._rebase_fraction = rebase_fraction
        self._arena_dir = arena_dir
        self._arenas: list[_ShardArena] = []
        self._current_shards: list[VirtualOddSketch] = []
        self._sharded = isinstance(writer.sketch, ShardedVOS)
        self._seed = writer.sketch.seed
        self._publishes = 0
        self._rebases = 0
        self._closed = False
        self.cursor = 0

    # -- lifecycle ---------------------------------------------------------------------

    def materialize(self) -> SimilarityService:
        """The first epoch: copy the writer's state into the shared arenas.

        The one O(state) step of the copy-on-write lifecycle.  Also takes the
        publisher's cursor, so the first :meth:`publish_delta` ships exactly
        the changes that landed after this copy.
        """
        self.cursor = next_stamp()
        writer_sketch = self._writer.sketch
        shards: list[VirtualOddSketch] = []
        for shard_index, shard in enumerate(writer_sketch.row_shards()):
            counts = dict(shard._cardinalities)
            arena = _ShardArena(
                shard_index,
                shard.shared_array.bits_buffer(),
                shard.shared_array.ones_count,
                counts,
                self._arena_dir,
            )
            self._arenas.append(arena)
            shards.append(self._frozen_shard(shard, arena, counts))
        self._current_shards = shards
        service = self._assemble()
        # Adopt the writer's built index via an export/restore round trip:
        # restore_state deep-copies the mutable containers (user lists,
        # ordinals), which matters here — the writer's live index mutates
        # them in place on incremental appends, so a by-reference carry from
        # the WRITER (unlike between frozen epochs) would corrupt the copy.
        writer_index = self._writer._index
        if writer_index is not None and writer_index.is_built:
            index = service.index()
            if not index.restore_state(writer_index.export_state()):
                service._index = None
        return service

    def publish_delta(
        self,
        delta: dict,
        *,
        previous_service: SimilarityService | None = None,
        previous_index_lock=None,
    ) -> SimilarityService:
        """Build the next frozen epoch from a ``freeze_delta`` payload.

        The payload's ``cursor`` becomes this publisher's cursor.  Only
        shards the delta touches get a new overlay and a new sketch
        view; every other shard of the new epoch *is* the previous epoch's
        shard object.  ``previous_service`` (the current epoch's) donates its
        LSH signature tables for untouched shards via
        :meth:`~repro.index.banding.BandedSketchIndex.carry_forward`;
        ``previous_index_lock`` is acquired non-blocking for that read — on
        contention (a reader is mid-build on the old epoch) the carry is
        skipped and the new epoch simply builds lazily.
        """
        if self._closed:
            raise SnapshotError("publish_delta called on a closed publisher")
        stale_shards: list[int] = []
        for entry in delta["shards"]:
            index = entry["shard"]
            words = entry["words"]
            arena = self._arenas[index]
            data = entry["word_data"]
            for offset, word in enumerate(words.tolist()):
                arena.word_patch[word] = data[offset * 8 : offset * 8 + 8]
            for user, count in zip(entry["counter_users"], entry["counter_counts"]):
                arena.counter_patch[user] = count
            counts = LayeredCounts(arena.base_counts, dict(arena.counter_patch))
            frozen = self._frozen_shard(self._current_shards[index], arena, counts)
            problem = delta_mismatch(frozen, entry)
            if problem is not None:
                raise SnapshotError(
                    f"cow overlay {problem} — writer and arena diverged"
                )
            self._current_shards[index] = frozen
            if words.size:
                stale_shards.append(index)
            self._maybe_rebase(index, frozen, counts)
        service = self._assemble(
            elements=delta["elements_ingested"], batches=delta["batches_ingested"]
        )
        self.cursor = delta["cursor"]
        self._publishes += 1
        self._carry_index(
            service, stale_shards, previous_service, previous_index_lock
        )
        return service

    def close(self) -> None:
        """Release the arena files (published epochs keep their mappings)."""
        if self._closed:
            return
        self._closed = True
        for arena in self._arenas:
            arena.close()

    def stats(self) -> dict:
        """Arena/patch occupancy for daemon stats and diagnostics."""
        return {
            "publishes": self._publishes,
            "rebases": self._rebases,
            "arena_bytes": sum(arena.num_bytes for arena in self._arenas),
            "patch_words": sum(len(arena.word_patch) for arena in self._arenas),
            "patch_counters": sum(
                len(arena.counter_patch) for arena in self._arenas
            ),
            "arena_paths": [str(arena.path) for arena in self._arenas],
        }

    # -- internals ---------------------------------------------------------------------

    def _frozen_shard(
        self, source: VirtualOddSketch, arena: _ShardArena, counts
    ) -> VirtualOddSketch:
        """Overlay the arena, apply the cumulative patch, wrap as a frozen view."""
        bits = PackedBitArray.from_byte_buffer(
            arena.overlay(), ones_count=arena.base_ones
        )
        if arena.word_patch:
            words = sorted(arena.word_patch)
            # Untracked: frozen views are never read for changes, so they
            # carry no stamp memory.
            bits.apply_packed_words(
                np.asarray(words, dtype=np.int64),
                b"".join(arena.word_patch[word] for word in words),
                track=False,
            )
        return VirtualOddSketch.cow_view(
            source, SharedBitArray.from_packed_bits(bits), counts
        )

    def _maybe_rebase(
        self, index: int, frozen: VirtualOddSketch, counts
    ) -> None:
        """Rewrite the arena from the current overlay once the patch gets fat.

        Applying the cumulative patch is O(patch), so left unchecked a
        long-running daemon's publish cost would creep back toward O(state).
        Rewriting the base (amortized: it only happens after O(state/delta)
        publishes) resets the patch to empty.  The epoch just built keeps its
        old-file mapping — unlinking a mapped file is safe on POSIX.
        """
        arena = self._arenas[index]
        shared = frozen.shared_array
        word_heavy = len(arena.word_patch) >= self._rebase_fraction * shared.num_words
        counter_heavy = len(arena.counter_patch) >= max(
            1024, self._rebase_fraction * len(arena.base_counts)
        )
        if not (word_heavy or counter_heavy):
            return
        fresh = _ShardArena(
            index,
            shared.bits_buffer(),
            shared.ones_count,
            dict(counts),
            self._arena_dir,
        )
        arena.close()
        self._arenas[index] = fresh
        self._rebases += 1
        registry = get_registry()
        if registry.enabled:
            registry.inc("server.epoch.rebases", 1, unit="arenas")
        logger.info(
            "arena rebase %s",
            kv(
                shard=index,
                patch_words=len(arena.word_patch),
                patch_counters=len(arena.counter_patch),
                arena_bytes=fresh.num_bytes,
            ),
        )

    def _assemble(
        self, *, elements: int | None = None, batches: int | None = None
    ) -> SimilarityService:
        """Wrap the current frozen shard views as an immutable service."""
        if self._sharded:
            sketch = ShardedVOS.from_shards(self._current_shards, seed=self._seed)
        else:
            sketch = self._current_shards[0]
        service = SimilarityService(
            sketch,
            batch_size=self._writer._batch_size,
            index_config=self._writer.index_config,
        )
        service._elements_ingested = (
            self._writer.elements_ingested if elements is None else elements
        )
        service._batches_ingested = (
            self._writer._batches_ingested if batches is None else batches
        )
        return service

    def _carry_index(
        self,
        service: SimilarityService,
        stale_shards: list[int],
        previous_service: SimilarityService | None,
        previous_index_lock,
    ) -> None:
        if previous_service is None:
            return
        previous_index = previous_service._index
        if previous_index is None or not previous_index.is_built:
            return
        if previous_index_lock is not None and not previous_index_lock.acquire(
            blocking=False
        ):
            return
        try:
            carried = previous_index.carry_forward(
                service.sketch, stale_shards=stale_shards
            )
        finally:
            if previous_index_lock is not None:
                previous_index_lock.release()
        if carried is not None:
            service._index = carried
