"""Copy-on-publish epoch state: incremental publishing for the serving daemon.

Freezing the writer with a whole-state ``dumps_state`` → ``from_state_bytes``
round trip serializes and re-parses every shard on every publish.  This
module publishes at O(touched shards) instead:

* **Materialize** — at daemon start each writer shard's packed bits
  (:meth:`~repro.hashing.bitpack.PackedBitArray.copy`) and user table
  (:meth:`~repro.baselines.users.UserTable.copy`) are copied once into a
  frozen view (the first epoch).
* **Publish** — every publish takes the writer's
  :meth:`~repro.service.service.SimilarityService.freeze_delta` since the
  publisher's cursor (the shard deltas of :mod:`repro.service.delta`, the
  record the journal ships too).  For each shard in the delta it copies the
  *previous epoch's* bits and user table, applies only this delta's words and
  counters untracked (:func:`~repro.service.delta.apply_shard_delta`), and
  verifies the result.  Shards the delta does not touch are
  carried over by reference: the new epoch's shard *is* the previous
  epoch's object.

LSH tables need no code here: each shard holds its own
(``VirtualOddSketch.index_table``, keyed to the array's change stamp).  An
untouched shard brings its table along with the object, and a touched
shard's copy starts with its source's table, which the patch then makes
stale, so the new epoch's first ``lsh`` read rebuilds exactly the shards
this publish changed.

The copy is a flat cost per touched shard (``m / 8`` bytes, the packed
array); applying the delta is O(changed words).  Nothing
accumulates across publishes, so the cost does not grow with run length.

Exact-state guarantees: ``apply_packed_words`` re-derives the popcount from
the before/after bits and rejects out-of-range, repeated or pad-setting
words, the user table refuses repeated users and negative counters, and the
publisher checks every copied shard's popcount and user count against the
writer's values shipped in the delta
(:func:`~repro.service.delta.delta_mismatch`).
A published epoch therefore answers ``top_k_pairs`` / ``nearest`` /
``estimate_many`` bit-identically to a whole-state frozen copy — asserted by
the parity suite under both kernel tiers.
"""

from __future__ import annotations

from repro.core.vos import VirtualOddSketch
from repro.exceptions import SnapshotError
from repro.hashing.bitpack import next_stamp
from repro.service.delta import apply_shard_delta
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
            VirtualOddSketch.cow_view(shard)
            for shard in self._writer.sketch.row_shards()
        ]
        return self._assemble()

    def publish_delta(self, delta: dict) -> SimilarityService:
        """Build the next frozen epoch from a ``freeze_delta`` payload.

        The payload's ``cursor`` becomes this publisher's cursor.  Only
        shards the delta touches get a new copy and a new sketch view;
        every other shard of the new epoch *is* the previous epoch's shard
        object, LSH table included.
        """
        for entry in delta["shards"]:
            index = entry["shard"]
            frozen = VirtualOddSketch.cow_view(self._current_shards[index])
            # Untracked: frozen views are never read for changes, so they
            # carry no stamp memory.
            problem = apply_shard_delta(frozen, entry, track=False)
            if problem is not None:
                raise SnapshotError(
                    f"cow copy {problem} — writer and epoch diverged"
                )
            self._current_shards[index] = frozen
        service = self._assemble(
            elements=delta["elements_ingested"], batches=delta["batches_ingested"]
        )
        self.cursor = delta["cursor"]
        self._publishes += 1
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
