"""The streaming similarity service facade.

:class:`SimilarityService` is the "production" entry point the service
subsystem exists for: it owns a (usually sharded) VOS sketch, ingests stream
elements in vectorized batches, answers pairwise and top-k similarity queries,
and persists itself to versioned binary snapshots so a restarted process picks
up exactly where the previous one stopped.

    >>> from repro.service import ServiceConfig, SimilarityService
    >>> from repro.streams import Action, StreamElement
    >>> service = SimilarityService.from_config(ServiceConfig(expected_users=100))
    >>> batch = [StreamElement(u, i, Action.INSERT) for u in (1, 2) for i in range(30)]
    >>> report = service.ingest(batch)
    >>> report.elements
    60
    >>> round(service.estimate(1, 2).jaccard, 1)
    1.0
"""

from __future__ import annotations

import logging
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.baselines.base import PairEstimate
from repro.core.memory import MemoryBudget
from repro.core.vos import VirtualOddSketch
from repro.exceptions import ConfigurationError, SnapshotError
from repro.hashing.bitpack import next_stamp
from repro.index import (
    INDEX_SNAPSHOT_SECTION,
    BandedSketchIndex,
    IndexConfig,
    decode_index_state,
    encode_index_state,
)
from repro.kernels import kernel_info
from repro.obs import get_registry, kv, timed
from repro.service.batching import DEFAULT_BATCH_SIZE, IngestReport, ingest_stream
from repro.service.delta import shard_delta
from repro.service.journal import (
    JournalConfig,
    JournalWriter,
    default_journal_path,
    journal_checkpoint_id,
    replay_journal,
)
from repro.service.sharding import ShardedVOS
from repro.service.snapshot import (
    dumps_snapshot,
    load_snapshot_state,
    loads_snapshot_state,
    new_checkpoint_id,
    register_snapshot_section,
    save_snapshot,
)
from repro.similarity.search import (
    ScoredPair,
    nearest_neighbours,
    pairs_above_threshold,
    top_k_similar_pairs,
)
from repro.streams.batch import ElementBatch
from repro.streams.edge import StreamElement, UserId

# The service layer owns both the snapshot registry and its subsystems, so it
# performs the section wiring: the banding index persists its signature
# tables under the ``index/banding`` extra section (registering from
# ``repro.index`` itself would close an import cycle through the search
# layer).
register_snapshot_section(
    INDEX_SNAPSHOT_SECTION, encode=encode_index_state, decode=decode_index_state
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CheckpointPolicy:
    """When the service persists incrementally between explicit saves.

    Both knobs are off (0) by default, so persistence stays fully manual
    unless configured.  Policy checks run after every :meth:`~SimilarityService.ingest`
    call — never mid-batch, so a checkpoint always captures a batch-consistent
    state.

    Parameters
    ----------
    every_n_elements:
        Append a delta checkpoint to the journal once at least this many
        elements were ingested since the last checkpoint (full or delta).
    max_journal_bytes:
        Compact — fold the journal into a fresh full snapshot and reset it —
        once the journal file exceeds this size.
    """

    every_n_elements: int = 0
    max_journal_bytes: int = 0

    def __post_init__(self) -> None:
        if self.every_n_elements < 0:
            raise ConfigurationError(
                f"every_n_elements must be non-negative, got {self.every_n_elements}"
            )
        if self.max_journal_bytes < 0:
            raise ConfigurationError(
                f"max_journal_bytes must be non-negative, got {self.max_journal_bytes}"
            )


@dataclass(frozen=True)
class ServiceConfig:
    """Sizing and behaviour of a :class:`SimilarityService`.

    The memory side follows the paper's cost model: the service is provisioned
    as if each of ``expected_users`` users kept ``baseline_registers``
    registers of ``register_bits`` bits, and that total budget is split evenly
    across ``num_shards`` VOS shards (λ = ``size_multiplier`` as in the
    paper's experiments).
    """

    expected_users: int
    baseline_registers: int = 24
    num_shards: int = 4
    register_bits: int = 32
    size_multiplier: float = 2.0
    seed: int = 0
    batch_size: int = DEFAULT_BATCH_SIZE
    #: LSH banding layout used by ``candidates="lsh"`` queries.  The default
    #: auto-tunes the band count from the index's target threshold; the band
    #: seed is left at ``None`` so it flows from this config's ``seed`` (via
    #: the sketch), keeping candidate sets reproducible across runs.
    index: IndexConfig = IndexConfig()
    #: Incremental-persistence policy (delta checkpoints / journal compaction);
    #: inert until the service is bound to a snapshot path via ``save``/``load``.
    checkpoint: CheckpointPolicy = CheckpointPolicy()
    #: Journal durability knobs (``group_commit`` = one fsync per delta
    #: checkpoint instead of one per record).
    journal: JournalConfig = JournalConfig()

    def budget(self) -> MemoryBudget:
        """The equal-memory budget this configuration provisions."""
        return MemoryBudget(
            baseline_registers=self.baseline_registers,
            num_users=max(1, self.expected_users),
            register_bits=self.register_bits,
        )


class SimilarityService:
    """Batch-ingesting, snapshot-able similarity service over a VOS sketch.

    Parameters
    ----------
    sketch:
        The sketch to serve — a :class:`~repro.service.sharding.ShardedVOS`
        (recommended) or a plain :class:`~repro.core.vos.VirtualOddSketch`.
    batch_size:
        Batch size used by :meth:`ingest`.
    """

    def __init__(
        self,
        sketch: ShardedVOS | VirtualOddSketch,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        index_config: IndexConfig | None = None,
        checkpoint_policy: CheckpointPolicy | None = None,
        journal_config: JournalConfig | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        self._sketch = sketch
        self._batch_size = batch_size
        self._journal_config = (
            journal_config if journal_config is not None else JournalConfig()
        )
        self._index_config = index_config if index_config is not None else IndexConfig()
        self._index: BandedSketchIndex | None = None
        self._elements_ingested = 0
        self._batches_ingested = 0
        self._policy = (
            checkpoint_policy if checkpoint_policy is not None else CheckpointPolicy()
        )
        self._snapshot_path: Path | None = None
        self._journal_path: Path | None = None
        self._journal: JournalWriter | None = None
        self._checkpoint_id: str | None = None
        # True when a journal bound to this service's checkpoint exists on
        # disk but was NOT replayed into this state (load(journal=None)):
        # appending to it would record deltas against the wrong base, so
        # delta checkpoints are refused until a full save rotates it.
        self._unreplayed_journal = False
        # The journal's change cursor: snapshot + journal hold every change
        # stamped at or before it.  A loaded service is built after its
        # journal replay, so its state starts out persisted.
        self._journal_cursor = next_stamp()
        self._elements_since_checkpoint = 0
        self._deltas_written = 0
        self._compactions = 0

    @classmethod
    def from_config(cls, config: ServiceConfig) -> "SimilarityService":
        """Provision a sharded service under the configuration's memory budget."""
        sketch = ShardedVOS.from_budget(
            config.budget(),
            num_shards=config.num_shards,
            size_multiplier=config.size_multiplier,
            seed=config.seed,
        )
        return cls(
            sketch,
            batch_size=config.batch_size,
            index_config=config.index,
            checkpoint_policy=config.checkpoint,
            journal_config=config.journal,
        )

    # -- ingest ----------------------------------------------------------------------

    def ingest(
        self, elements: Iterable[StreamElement] | Iterable[ElementBatch]
    ) -> IngestReport:
        """Consume stream input in vectorized batches; returns throughput.

        Accepts element iterables and :class:`~repro.streams.batch.ElementBatch`
        iterables alike (e.g. the chunked ``.vosstream`` reader).
        """
        report = ingest_stream(self._sketch, elements, batch_size=self._batch_size)
        self._elements_ingested += report.elements
        self._batches_ingested += report.batches
        self._elements_since_checkpoint += report.elements
        self._enforce_checkpoint_policy()
        return report

    # -- queries ---------------------------------------------------------------------

    @property
    def sketch(self) -> ShardedVOS | VirtualOddSketch:
        """The underlying sketch (exposed for snapshots, tests and tooling)."""
        return self._sketch

    @property
    def elements_ingested(self) -> int:
        """Total stream elements this service instance has consumed."""
        return self._elements_ingested

    @property
    def snapshot_path(self) -> Path | None:
        """The snapshot file this service is bound to (``save``/``load``), if any."""
        return self._snapshot_path

    @property
    def index_config(self) -> IndexConfig:
        """The banding-index configuration queries with ``candidates="lsh"`` use."""
        return self._index_config

    def estimate(self, user_a: UserId, user_b: UserId) -> PairEstimate:
        """Both similarity estimates for one user pair."""
        return self._sketch.estimate_pair(user_a, user_b)

    def estimate_many(
        self, pairs: Iterable[tuple[UserId, UserId]]
    ) -> list[PairEstimate]:
        """Both estimates for every listed pair in one vectorized pass.

        This is the bulk form of :meth:`estimate`: all pairs share a single
        sketch gather and xor/popcount sweep, so scoring a block of candidate
        pairs costs a few numpy passes instead of a Python loop.
        """
        return self._sketch.estimate_pairs(pairs)

    def index(self) -> BandedSketchIndex:
        """The service's banding index, created lazily from its config.

        The same instance is reused across queries, so its per-shard signature
        tables stay warm between ingests (rebuild-on-demand keyed on the
        shards' array change stamps and user counts).  Its seed flows from the sketch's
        seed unless the :class:`~repro.index.banding.IndexConfig` overrides
        it, so candidate sets are reproducible for a given service seed.
        """
        if self._index is None:
            self._index = BandedSketchIndex(self._sketch, self._index_config)
        return self._index

    def top_k(
        self,
        user: UserId,
        *,
        k: int = 10,
        candidates: Iterable[UserId] | None = None,
        minimum_cardinality: int = 1,
        index: str = "none",
    ) -> list[ScoredPair]:
        """The ``k`` users most similar to ``user`` (via :mod:`repro.similarity.search`).

        ``index="lsh"`` shrinks the linear candidate scan to the users sharing
        at least one band bucket with ``user``.
        """
        if index not in ("none", "lsh"):
            raise ConfigurationError(f"index must be 'none' or 'lsh', got {index!r}")
        return nearest_neighbours(
            self._sketch,
            user,
            k=k,
            candidates=candidates,
            minimum_cardinality=minimum_cardinality,
            index=self.index() if index == "lsh" else None,
        )

    def top_k_pairs(
        self,
        *,
        k: int = 10,
        users: Iterable[UserId] | None = None,
        minimum_cardinality: int = 1,
        prefilter_threshold: float = 0.0,
        candidates: str = "all",
    ) -> list[ScoredPair]:
        """The ``k`` most similar pairs among ``users`` (all users by default).

        ``prefilter_threshold`` enables the vectorized cardinality pre-filter:
        pairs whose size-ratio bound falls below it are pruned before any
        sketch gather is spent on them.  ``candidates="lsh"`` scores only the
        pairs the service's banding index proposes — a sub-quadratic candidate
        count on large pools, bit-identical results whenever the proposals
        cover the true top ``k``.
        """
        return top_k_similar_pairs(
            self._sketch,
            k=k,
            users=users,
            minimum_cardinality=minimum_cardinality,
            prefilter_threshold=prefilter_threshold,
            candidates=candidates,
            index=self.index() if candidates == "lsh" else None,
        )

    def pairs_above(
        self,
        threshold: float,
        *,
        users: Iterable[UserId] | None = None,
        minimum_cardinality: int = 1,
        candidates: str = "all",
    ) -> list[ScoredPair]:
        """Every pair whose estimated Jaccard reaches ``threshold``.

        The screening primitive behind duplicate detection; with
        ``candidates="lsh"`` the banding index proposes the pairs to screen.
        """
        return pairs_above_threshold(
            self._sketch,
            threshold,
            users=users,
            minimum_cardinality=minimum_cardinality,
            candidates=candidates,
            index=self.index() if candidates == "lsh" else None,
        )

    def stats(self) -> dict:
        """Operational summary: ingest counters, users, memory, shard fill."""
        sketch = self._sketch
        stats: dict = {
            "elements_ingested": self._elements_ingested,
            "batches_ingested": self._batches_ingested,
            "batch_size": self._batch_size,
            "users": sketch.num_users,
            "memory_bits": sketch.memory_bits(),
            "beta": sketch.beta,
        }
        stats["num_shards"] = len(sketch.row_shards())
        stats["shard_betas"] = [shard.beta for shard in sketch.row_shards()]
        stats["sketch_cache"] = sketch.sketch_cache_info()
        # Candidate-index counters (layout, signature memory, rebuild activity,
        # restored-from-snapshot tables, last candidate fraction) appear once
        # an ``lsh`` query created — or a snapshot load restored — the index.
        stats["index"] = None if self._index is None else self._index.stats()
        # Bytes held per layer; the paper's cost model charges only "array".
        memory: Counter = Counter()
        for shard in sketch.row_shards():
            memory.update(shard.memory_bytes())
        users = stats["users"]
        memory["per_user"] = sum(memory.values()) / users if users else None
        stats["memory_bytes"] = dict(memory)
        shards, cursor = sketch.row_shards(), self._journal_cursor
        stats["persistence"] = {
            "snapshot_path": None if self._snapshot_path is None else str(self._snapshot_path),
            "checkpoint_id": self._checkpoint_id,
            "every_n_elements": self._policy.every_n_elements,
            "max_journal_bytes": self._policy.max_journal_bytes,
            "elements_since_checkpoint": self._elements_since_checkpoint,
            "deltas_written": self._deltas_written,
            "compactions": self._compactions,
            "journal_bytes": self._journal_size_bytes(),
            "dirty": {
                # What the next save_delta would ship: changed words, counters.
                "dirty_words": sum(
                    int(shard.shared_array.dirty_words(cursor).size) for shard in shards
                ),
                "dirty_counters": sum(
                    int(shard.user_table.changed(cursor).size) for shard in shards
                ),
            },
        }
        # Which kernel tier (native C popcount vs NumPy fallback) is scoring
        # pairs and hashing bands, plus probe/compile status (see README
        # "Kernel tiers").
        stats["kernels"] = kernel_info()
        # The process-wide observability snapshot: every subsystem's counters,
        # gauges and latency histograms (see README "Observability").
        stats["metrics"] = get_registry().snapshot()
        return stats

    # -- persistence -----------------------------------------------------------------
    #
    # Full checkpoints rewrite everything (snapshot v2, atomically) and rotate
    # the journal; delta checkpoints append each shard's delta since the
    # journal cursor; compaction folds the journal back into a fresh
    # full checkpoint.  ``load`` replays any journal bound to the snapshot's
    # checkpoint id, and restores the persisted banding index so the first
    # query needs no O(users) rebuild.

    def save(
        self,
        path: str | Path | None = None,
        *,
        journal_path: str | Path | None = None,
        include_index: bool | None = None,
    ) -> str:
        """Write a full checkpoint; returns its checkpoint id.

        ``path`` defaults to the snapshot the service is already bound to
        (via an earlier :meth:`save` or :meth:`load`).  ``include_index``
        persists the banding index's signature tables as a snapshot section:
        ``None`` (default) persists them whenever the index is already built,
        ``True`` forces a build first, ``False`` omits them.  The journal (if
        any) is rotated: a full checkpoint supersedes every delta before it.
        """
        if path is None:
            path = self._snapshot_path
            if path is None:
                raise ConfigurationError(
                    "service is not bound to a snapshot path; pass one to save()"
                )
        extras = self._index_extras(include_index)
        cursor = next_stamp()
        registry = get_registry()
        with timed("persistence.snapshot.save", registry) as span:
            checkpoint_id = save_snapshot(
                self._sketch,
                path,
                extras=extras,
                checkpoint_id=new_checkpoint_id(),
            )
        snapshot_bytes = Path(path).stat().st_size
        if registry.enabled:
            registry.inc("persistence.snapshot.saves", 1, unit="snapshots")
            registry.set_gauge(
                "persistence.snapshot.bytes", snapshot_bytes, unit="bytes"
            )
        logger.info(
            "full checkpoint %s",
            kv(
                checkpoint_id=checkpoint_id,
                path=path,
                bytes=snapshot_bytes,
                seconds=round(span.seconds, 6),
            ),
        )
        self._journal_cursor = cursor
        self._snapshot_path = Path(path)
        self._journal_path = (
            Path(journal_path) if journal_path else default_journal_path(path)
        )
        self._checkpoint_id = checkpoint_id
        self._elements_since_checkpoint = 0
        self._journal = None
        self._unreplayed_journal = False
        # Any journal on disk recorded deltas against an older checkpoint the
        # new snapshot already contains; drop it so the binding stays clean.
        if self._journal_path.exists():
            self._journal_path.unlink()
        return checkpoint_id

    def save_delta(self) -> dict:
        """Append a delta checkpoint (changed words + counters) to the journal.

        Requires a bound snapshot (an earlier :meth:`save` or :meth:`load`).
        One CRC-framed record is appended per shard with pending changes.
        Returns ``{"records", "bytes", "journal_bytes"}``.
        """
        if self._snapshot_path is None:
            raise ConfigurationError(
                "save_delta requires a bound snapshot; call save() or load() first"
            )
        if self._checkpoint_id is None:
            raise ConfigurationError(
                f"snapshot {self._snapshot_path} predates checkpoint ids "
                "(format v1), so no journal can bind to it; write a full "
                "checkpoint with save() to upgrade it first"
            )
        if self._unreplayed_journal:
            raise ConfigurationError(
                f"journal {self._journal_path} was not replayed into this "
                "service (loaded with journal=None); appending would record "
                "deltas against the wrong base state — write a full "
                "checkpoint with save() to rotate it first"
            )
        if self._journal is None:
            if self._journal_path.exists():
                bound_to = journal_checkpoint_id(self._journal_path)
                if bound_to != self._checkpoint_id:
                    # Leftover from an older checkpoint (e.g. a crash between
                    # a full save and its journal rotation); its deltas are
                    # already folded into our snapshot, so drop it.
                    self._journal_path.unlink()
            self._journal = JournalWriter(
                self._journal_path, self._checkpoint_id, config=self._journal_config
            )
        journal = self._journal
        cursor = next_stamp()
        registry = get_registry()
        with timed("persistence.checkpoint.delta", registry) as span:
            deltas = [
                delta
                for shard_index, shard in enumerate(self._sketch.row_shards())
                if (delta := shard_delta(shard, shard_index, self._journal_cursor)) is not None
            ]
            # One open and one write for every shard's record.
            bytes_written = journal.append_delta(deltas)
            # Group commit: one fsync covers the checkpoint (no-op under the
            # default config, whose append already synced).
            journal.sync()
        records = len(deltas)
        self._journal_cursor = cursor
        self._elements_since_checkpoint = 0
        self._deltas_written += records
        if registry.enabled and records:
            registry.inc("persistence.delta.checkpoints", 1, unit="checkpoints")
            if self._snapshot_path.exists():
                snapshot_bytes = self._snapshot_path.stat().st_size
                if snapshot_bytes > 0:
                    # How much smaller the delta was than rewriting the full
                    # snapshot — the payoff incremental persistence exists for.
                    registry.observe(
                        "persistence.delta.bytes_ratio",
                        bytes_written / snapshot_bytes,
                        unit="fraction",
                    )
        logger.info(
            "delta checkpoint %s",
            kv(
                checkpoint_id=self._checkpoint_id,
                records=records,
                bytes=bytes_written,
                journal_bytes=journal.size_bytes,
                last_seq=journal.records_written,
                seconds=round(span.seconds, 6),
            ),
        )
        return {
            "records": records,
            "bytes": bytes_written,
            "journal_bytes": journal.size_bytes,
        }

    def dumps_state(self, *, include_index: bool | None = None) -> bytes:
        """Serialize the service's sketch (and optionally index) to bytes.

        The in-memory counterpart of :meth:`save`: the same snapshot format,
        no file, no journal rotation, no change to the service's persistence
        binding.  With :meth:`from_state_bytes` it makes a whole-state frozen
        copy: the reference the serving daemon's copy-on-write epochs are
        checked and timed against.  ``include_index`` follows
        :meth:`save`'s semantics: ``None`` ships the banding index's
        signature tables whenever the index is already built.
        """
        return dumps_snapshot(
            self._sketch,
            extras=self._index_extras(include_index),
            checkpoint_id=new_checkpoint_id(),
        )

    def _index_extras(self, include_index: bool | None) -> dict | None:
        """The snapshot extras :meth:`save` and :meth:`dumps_state` write: the
        banding index's tables if ``include_index`` is true, or if it is
        ``None`` and the index is already built; otherwise none."""
        if include_index is None:
            include_index = self._index is not None and self._index.is_built
        if not include_index:
            return None
        return {INDEX_SNAPSHOT_SECTION: self.index().export_state()}

    def freeze_delta(self, since: int) -> dict:
        """Collect an epoch publish delta: every shard changed after cursor ``since``.

        The incremental counterpart of :meth:`dumps_state` for the serving
        daemon's copy-on-publish epoch publisher: instead of serializing O(state)
        bytes it ships one shard delta (:mod:`repro.service.delta`) per
        changed shard, each with the shard's exact popcount and user count so
        the publisher can verify its patched copy against the writer.
        ``cursor`` in the result is the publisher's next cursor.  Reading
        changes clears nothing, so interleaved ``save_delta`` calls still ship
        everything the journal needs.
        """
        cursor = next_stamp()
        shards = [
            shard_delta(shard, shard_index, since)
            for shard_index, shard in enumerate(self._sketch.row_shards())
        ]
        return {
            "shards": [delta for delta in shards if delta is not None],
            "cursor": cursor,
            "elements_ingested": self._elements_ingested,
            "batches_ingested": self._batches_ingested,
        }

    @classmethod
    def from_state_bytes(
        cls,
        data: bytes,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        index_config: IndexConfig | None = None,
        elements_ingested: int = 0,
        batches_ingested: int = 0,
    ) -> "SimilarityService":
        """Rebuild a service from :meth:`dumps_state` bytes.

        The restored service has no snapshot/journal binding (it is a frozen
        read copy, not a resumed persistence lineage).  A persisted
        ``index/banding`` section is attached, so the copy answers its first
        ``lsh`` query without a signature rebuild.  ``elements_ingested`` /
        ``batches_ingested`` carry the source service's ingest counters so
        the copy's :meth:`stats` reflect the stream position it was frozen
        at — the epoch-consistency fingerprint concurrent-read tests assert.
        """
        state = loads_snapshot_state(data)
        service = cls(state.sketch, batch_size=batch_size, index_config=index_config)
        service._elements_ingested = elements_ingested
        service._batches_ingested = batches_ingested
        service._index = _restored_index(state, service.index_config)
        return service

    def compact(self) -> str:
        """Fold the journal into a fresh full snapshot and reset it.

        Equivalent to a full :meth:`save` at the bound path — the live sketch
        already holds snapshot+journal state, so rewriting it *is* the fold —
        tracked separately in :meth:`stats`.
        """
        checkpoint_id = self.save()
        self._compactions += 1
        return checkpoint_id

    def _journal_size_bytes(self) -> int:
        """Size of the journal on disk (writer-backed or replayed-but-idle)."""
        if self._journal is not None:
            return self._journal.size_bytes
        if self._journal_path is not None and self._journal_path.exists():
            return self._journal_path.stat().st_size
        return 0

    def _enforce_checkpoint_policy(self) -> None:
        """Apply the checkpoint policy after an ingest call (never mid-batch)."""
        if self._snapshot_path is None:
            return
        if (
            self._policy.every_n_elements
            and self._elements_since_checkpoint >= self._policy.every_n_elements
        ):
            if self._checkpoint_id is None or self._unreplayed_journal:
                # Delta checkpoints need a clean base: a pre-checkpoint-id
                # (v1) snapshot, or a journal this load deliberately did not
                # replay, both upgrade to a full v2 checkpoint first; deltas
                # flow from then on.
                self.save()
            else:
                self.save_delta()
        if (
            self._policy.max_journal_bytes
            and self._journal_size_bytes() > self._policy.max_journal_bytes
        ):
            self.compact()

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        index_config: IndexConfig | None = None,
        checkpoint_policy: CheckpointPolicy | None = None,
        journal: str | Path | None = "auto",
        journal_config: JournalConfig | None = None,
    ) -> "SimilarityService":
        """Restore a service from a snapshot written by :meth:`save`.

        ``journal="auto"`` (default) replays ``<path>.journal`` when it exists
        and is bound to this snapshot's checkpoint id (a journal left behind
        by an older checkpoint is skipped — its deltas are already folded into
        the newer snapshot).  Pass an explicit journal path to *require* it
        (binding mismatches raise :class:`~repro.exceptions.SnapshotError`),
        or ``None`` to ignore journals entirely.

        When the snapshot carries an ``index/banding`` section, its tables
        are attached to the shards before journal replay: shards the replay
        leaves unchanged answer their first ``lsh`` query without any
        signature rebuild (``stats()["index"]["restored"]`` counts the
        attached tables), and the rest fail their key check and rebuild.
        """
        registry = get_registry()
        with timed("persistence.snapshot.load", registry) as span:
            state = load_snapshot_state(path)
        if registry.enabled:
            registry.inc("persistence.snapshot.loads", 1, unit="snapshots")
        logger.info(
            "snapshot restore %s",
            kv(
                checkpoint_id=state.checkpoint_id or None,
                path=path,
                seconds=round(span.seconds, 6),
            ),
        )
        # Attached before replay: a replayed record moves the change stamp
        # of the shard it changes, so that shard's table goes stale.
        index = _restored_index(
            state, index_config if index_config is not None else IndexConfig()
        )
        journal_path: Path | None = None
        unreplayed = False
        if journal is not None:
            candidate = (
                default_journal_path(path) if journal == "auto" else Path(journal)
            )
            if candidate.exists():
                bound_to = journal_checkpoint_id(candidate)
                if bound_to == state.checkpoint_id and state.checkpoint_id:
                    replay_journal(
                        state.sketch, candidate, checkpoint_id=state.checkpoint_id
                    )
                    journal_path = candidate
                elif journal != "auto":
                    raise SnapshotError(
                        f"journal {candidate} is bound to checkpoint "
                        f"{bound_to!r}, not this snapshot's "
                        f"{state.checkpoint_id!r}"
                    )
            elif journal != "auto":
                raise SnapshotError(f"journal file not found: {candidate}")
        else:
            # Journals deliberately ignored: if one bound to this snapshot
            # exists, this service's state is *behind* it — delta checkpoints
            # must not resume that journal (save_delta refuses until a full
            # save rotates it).
            candidate = default_journal_path(path)
            if candidate.exists() and state.checkpoint_id:
                try:
                    unreplayed = (
                        journal_checkpoint_id(candidate) == state.checkpoint_id
                    )
                except SnapshotError:
                    unreplayed = True  # unreadable journal: stay hands-off
        service = cls(
            state.sketch,
            batch_size=batch_size,
            index_config=index_config,
            checkpoint_policy=checkpoint_policy,
            journal_config=journal_config,
        )
        service._snapshot_path = Path(path)
        service._journal_path = journal_path or default_journal_path(path)
        service._checkpoint_id = state.checkpoint_id or None
        service._unreplayed_journal = unreplayed
        service._index = index
        return service


def _restored_index(state, config: IndexConfig) -> BandedSketchIndex | None:
    """An index over a loaded snapshot's sketch with its ``index/banding``
    tables attached to the shards, or ``None`` when there are none to adopt."""
    index_state = state.extras.get(INDEX_SNAPSHOT_SECTION)
    if index_state is None:
        return None
    index = BandedSketchIndex(state.sketch, config)
    return index if index.restore_state(index_state) else None
