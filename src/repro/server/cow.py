"""Copy-on-publish epoch state: incremental publishing for the serving daemon.

Freezing the writer with a whole-state ``dumps_state`` → ``from_state_bytes``
round trip serializes and re-parses every shard on every publish.  This
module publishes at O(touched shards) instead:

* **Materialize** — at daemon start each writer shard's packed bits
  (:meth:`~repro.hashing.bitpack.PackedBitArray.copy`) and counter dict are
  copied once into a frozen view (the first epoch).
* **Publish** — every publish takes the writer's
  :meth:`~repro.service.service.SimilarityService.freeze_delta` since the
  publisher's cursor (the shard deltas of :mod:`repro.service.delta`, the
  record the journal ships too).  For each shard in the delta it copies the
  *previous epoch's* bits and counters, applies only this delta's words and
  counters, and verifies the result.  Shards the delta does not touch are
  carried over by reference: the new epoch's shard *is* the previous
  epoch's object.

The copy is a flat cost per touched shard (``m / 8`` bytes, the packed
array); applying the delta is O(changed words).  Nothing
accumulates across publishes, so the cost does not grow with run length.

Exact-state guarantees: ``apply_packed_words`` re-derives the popcount from
the before/after bits and rejects out-of-range, repeated or pad-setting
words, and the publisher checks every copied shard's popcount and user count
against the writer's values shipped in the delta (:func:`delta_mismatch`).
A published epoch therefore answers ``top_k_pairs`` / ``nearest`` /
``estimate_many`` bit-identically to a whole-state frozen copy — asserted by
the parity suite under both kernel tiers.
"""

from __future__ import annotations

from repro.core.vos import VirtualOddSketch
from repro.exceptions import SnapshotError
from repro.hashing.bitpack import next_stamp
from repro.service.delta import delta_mismatch
from repro.service.service import SimilarityService
from repro.service.sharding import ShardedVOS


class CowEpochPublisher:
    """Build frozen epoch services from publish deltas instead of full state.

    Owned by the serving daemon.  Lifecycle: :meth:`materialize` once at
    start (O(state): copies every shard into the first frozen views), then
    :meth:`publish_delta` per published ingest (O(touched shards)).
    :attr:`cursor` is the change cursor the next ``freeze_delta`` reads
    from.  All calls run under the daemon's write lock; published services
    are immutable and own their copies.
    """

    def __init__(self, writer: SimilarityService) -> None:
        self._writer = writer
        self._current_shards: list[VirtualOddSketch] = []
        self._sharded = isinstance(writer.sketch, ShardedVOS)
        self._seed = writer.sketch.seed
        self._publishes = 0
        self.cursor = 0

    def materialize(self) -> SimilarityService:
        """The first epoch: copy the writer's state into frozen views.

        The one O(state) step of the lifecycle.  Also takes the publisher's
        cursor, so the first :meth:`publish_delta` ships exactly the changes
        that landed after this copy.
        """
        self.cursor = next_stamp()
        self._current_shards = [
            VirtualOddSketch.cow_view(
                shard, shard.shared_array.copy(), dict(shard._cardinalities)
            )
            for shard in self._writer.sketch.row_shards()
        ]
        service = self._assemble()
        # Adopt the writer's built tables by reference, refreshed first so
        # they describe the bits just copied.  Tables are immutable: the
        # writer's later rebuilds replace its own, never this epoch's.
        writer_index = self._writer._index
        if writer_index is not None and writer_index.is_built:
            writer_index.refresh()
            service._index = writer_index.carry_forward(service.sketch)
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
        shards the delta touches get a new copy and a new sketch view;
        every other shard of the new epoch *is* the previous epoch's shard
        object.  ``previous_service`` (the current epoch's) donates its
        LSH signature tables for untouched shards via
        :meth:`~repro.index.banding.BandedSketchIndex.carry_forward`;
        ``previous_index_lock`` is acquired non-blocking for that read — on
        contention (a reader is mid-build on the old epoch) the carry is
        skipped and the new epoch simply builds lazily.
        """
        stale_shards: list[int] = []
        for entry in delta["shards"]:
            index = entry["shard"]
            previous = self._current_shards[index]
            bits = previous.shared_array.copy()
            # Untracked: frozen views are never read for changes, so they
            # carry no stamp memory.
            bits.apply_packed_words(entry["words"], entry["word_data"], track=False)
            counts = dict(previous._cardinalities)
            counts.update(zip(entry["counter_users"], entry["counter_counts"]))
            frozen = VirtualOddSketch.cow_view(previous, bits, counts)
            problem = delta_mismatch(frozen, entry)
            if problem is not None:
                raise SnapshotError(
                    f"cow copy {problem} — writer and epoch diverged"
                )
            self._current_shards[index] = frozen
            if len(entry["words"]):
                stale_shards.append(index)
        service = self._assemble(
            elements=delta["elements_ingested"], batches=delta["batches_ingested"]
        )
        self.cursor = delta["cursor"]
        self._publishes += 1
        self._carry_index(
            service, stale_shards, previous_service, previous_index_lock
        )
        return service

    def stats(self) -> dict:
        """Publish count for daemon stats and diagnostics."""
        return {
            "publishes": self._publishes,
            # Always 0; kept only because ``perfbench/tracer.py`` reads it.
            "rebases": 0,
        }

    # -- internals ---------------------------------------------------------------------

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
