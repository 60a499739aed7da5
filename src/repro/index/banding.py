"""LSH banding candidate index over packed VOS sketch rows.

The vectorized query path made each pair estimate cost nanoseconds, but the
all-pairs searches still *enumerate* O(n²) candidate pairs.  This module adds
the missing blocking layer: each user's bit-packed virtual sketch row (the
``uint64``-padded rows :meth:`~repro.core.vos.VirtualOddSketch.packed_rows`
produces) is sliced into ``b`` bands of ``r`` 64-bit words, every band is
hashed with a seeded universal hash, and users are bucketed per band.  Two
users become a *candidate pair* when at least one band hashes them into the
same bucket; the union over bands is deduped and returned as index arrays
ready for the bulk pair estimators.

Why this works for VOS: two users' recovered rows differ per bit with
probability ``alpha`` — the same xor load the paper's estimators invert — and
``alpha`` is monotonically decreasing in similarity.  A band of ``64 * r``
bits matches with probability ``(1 - alpha)^(64 r)``, so with ``b`` bands a
pair is proposed with probability ``1 - (1 - (1 - alpha)^(64 r))^b``: near one
for the low-``alpha`` pairs a top-k search is after, near zero for the bulk of
dissimilar pairs.  Candidates are always a subset of the pool they are drawn
from, so a search over them can only *miss* pairs, never invent or re-score
them — whenever the proposed set covers the true top-k, the ranking is
bit-identical to the exhaustive search.

Two structural details keep the bucket sizes (and hence the candidate count)
sub-quadratic on sparse sketches:

* **Sparse bands carry no signal.**  With a lightly filled shared array most
  64-bit slices are all-zero (a constant fraction of all users would share one
  giant bucket per band) and most of the rest hold a single set bit (any two
  users with the same lone bit — usually contamination — would collide).
  Bands holding fewer than ``min_band_bits`` set bits therefore never bucket.
  Users *none* of whose bands reach the floor fall back to one residual
  bucket keyed on the hash of their whole row, so identical rows — including
  all-zero ones — are still always co-candidates.
* **Shards partition users, not bands.**  Every shard of a
  :class:`~repro.service.sharding.ShardedVOS` uses the same seed, so virtual
  bit ``j`` means the same thing everywhere and band signatures are comparable
  *across* shards.  Each shard keeps one signature table beside its row
  memo (rebuilt when that shard's array change stamp, user count or the band
  layout moves) and the index merges all tables at query time, so
  cross-shard pairs are proposed exactly like same-shard pairs.

A shard's table is only its valid ``(row, column)`` entries sorted by
signature; a table build, a candidate-pair pool and an export derive band keys
from packed rows (:meth:`BandedSketchIndex._band_keys`).  The tables persist
in a snapshot's ``index/banding`` section
(:func:`encode_index_state` / :func:`decode_index_state`), a
:mod:`repro.framing` block whose declared counts are checked before they
size anything.
"""

from __future__ import annotations

import math
from collections.abc import Container, Sequence
from dataclasses import dataclass

import numpy as np

from repro import framing, kernels
from repro.core.vos import packed_row_bytes
from repro.exceptions import ConfigurationError, SnapshotError, UnknownUserError
from repro.obs import get_registry, trace
from repro.hashing.universal import coefficient_arrays, stable_hash64
from repro.streams.batch import decode_id_column, encode_id_column
from repro.streams.edge import UserId, user_sort_key

#: Name under which the banding index persists its signature tables inside
#: snapshot extra sections (registered in :mod:`repro.index`'s ``__init__``).
INDEX_SNAPSHOT_SECTION = "index/banding"


@dataclass(frozen=True)
class IndexConfig:
    """Knobs of a :class:`BandedSketchIndex`.

    Parameters
    ----------
    bands:
        Number of bands ``b``.  ``0`` (the default) auto-tunes at refresh
        time: the paper's forward model predicts the xor load ``alpha`` of a
        pair sitting exactly at ``target_threshold`` Jaccard (given the
        sketch's current fill fraction and mean cardinality), and the smallest
        ``b`` proposing such a pair with probability ``confidence`` is used,
        capped by the words available in a row.
    rows_per_band:
        Band width ``r`` in 64-bit words (each band covers ``64 * r`` sketch
        bits).  Wider bands are more selective but miss more true pairs.
    seed:
        Seed for the per-band bucket hashes.  ``None`` (the default) inherits
        the sketch's own seed, so a service configured with one seed is
        reproducible end to end — including its candidate sets.
    target_threshold:
        The Jaccard similarity the auto-tuner sizes ``b`` for (only used when
        ``bands == 0``).
    confidence:
        Minimum probability that a pair at ``target_threshold`` is proposed
        (only used when ``bands == 0``).
    min_band_bits:
        A band buckets its user only when it holds at least this many set
        bits.  On sparse rows, all-zero and single-bit bands match a constant
        fraction of the whole pool (the lone bit is usually contamination), so
        the default of 2 demands two coinciding set bits — which dissimilar
        users essentially never share — before a band may propose anything.
        Users with no band at the floor are bucketed by their whole row
        instead (identical rows stay co-candidates); lower the floor to 1 for
        very sparse users whose signal is spread one bit per band.
    """

    bands: int = 0
    rows_per_band: int = 1
    seed: int | None = None
    target_threshold: float = 0.5
    confidence: float = 0.995
    min_band_bits: int = 2

    def __post_init__(self) -> None:
        if self.bands < 0:
            raise ConfigurationError(f"bands must be non-negative, got {self.bands}")
        if self.rows_per_band <= 0:
            raise ConfigurationError(
                f"rows_per_band must be positive, got {self.rows_per_band}"
            )
        if not 0.0 < self.target_threshold < 1.0:
            raise ConfigurationError("target_threshold must be in (0, 1)")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError("confidence must be in (0, 1)")
        if self.min_band_bits <= 0:
            raise ConfigurationError(
                f"min_band_bits must be positive, got {self.min_band_bits}"
            )


def alpha_at_threshold(
    threshold: float,
    beta_a: float,
    beta_b: float,
    sketch_size: int,
    mean_cardinality: float,
) -> float:
    """Expected xor load of a pair sitting at ``threshold`` Jaccard.

    This is the paper's forward model run forwards instead of inverted: two
    users of ``mean_cardinality`` items at Jaccard ``J`` have a symmetric
    difference ``n_Δ = 2 n̄ (1 - J) / (1 + J)``, and their recovered sketches
    disagree per bit with probability
    ``(1 - (1 - 2 beta_a)(1 - 2 beta_b) exp(-2 n_Δ / k)) / 2``
    (the cross-array generalization; both betas equal for one shared array).
    """
    n_delta = 2.0 * mean_cardinality * (1.0 - threshold) / (1.0 + threshold)
    damping = (1.0 - 2.0 * beta_a) * (1.0 - 2.0 * beta_b)
    return (1.0 - damping * math.exp(-2.0 * n_delta / sketch_size)) / 2.0


def required_bands(
    alpha: float,
    band_bits: int,
    available: int,
    confidence: float,
    set_bit_fraction: float = 0.0,
    min_band_bits: int = 1,
) -> int:
    """Smallest band count proposing an ``alpha``-load pair with ``confidence``.

    A band of ``band_bits`` bits matches with probability
    ``(1 - alpha)^band_bits``, but a match only *buckets* the pair when the
    band holds at least ``min_band_bits`` set bits (sparse bands are skipped,
    see :class:`BandedSketchIndex`).  Modelling a band's set-bit count as
    Poisson with mean ``band_bits * set_bit_fraction``, the usable fraction of
    matches is the Poisson tail at the floor; ``b`` bands then propose the
    pair with probability ``1 - (1 - match * usable)^b``.  The result is
    clamped to ``[1, available]`` — when even every available band cannot
    reach the confidence target the index simply uses them all.
    """
    alpha = min(max(alpha, 0.0), 1.0)
    match = (1.0 - alpha) ** band_bits
    mean_set_bits = band_bits * min(max(set_bit_fraction, 0.0), 1.0)
    if mean_set_bits <= 0.0:
        return max(1, available)
    term = math.exp(-mean_set_bits)
    below_floor = term
    for i in range(1, min_band_bits):
        term *= mean_set_bits / i
        below_floor += term
    useful = match * (1.0 - below_floor)
    if useful <= 0.0:
        return max(1, available)
    if useful >= 1.0:
        return 1
    # log1p keeps tiny useful probabilities from underflowing log(1 - x) to 0.
    needed = math.log(1.0 - confidence) / math.log1p(-useful)
    if needed >= available:
        return max(1, available)
    return max(1, math.ceil(needed))


def _shard_key(shard, layout: tuple, rows: int | None = None) -> tuple:
    """What a shard's signature table depends on: ``(array stamp, user count,
    band layout)``, for ``rows`` users (default: all of the shard's).

    Any write may change *any* user's recovered row (a single xor can land in
    anyone's virtual bits), so the array's latest change stamp covers the
    bits.  Users are never removed, so the count covers the user set.  The
    layout (band count, band width, set-bit floor, seed) covers the hashes.
    """
    rows = shard.num_users if rows is None else rows
    return (shard.shared_array.latest_stamp, rows, layout)


@dataclass(frozen=True)
class _ShardSignatures:
    """The band buckets of one shard's users: an immutable value.

    A table is its valid ``(row, column)`` entries sorted by signature; the
    columns are the bands plus the residual whole-row column (valid only for
    users with no band at the set-bit floor).  Row ``r`` belongs to the user
    of ordinal ``r`` in the shard's :class:`~repro.baselines.users.UserTable`.
    ``key`` is the :func:`_shard_key` the table was built or restored at; the
    table describes its shard exactly while the two are equal, and a refresh
    replaces it with a rebuild once they differ.  A shard holds its table as
    ``index_table``, beside its row memo.  No table is ever mutated, so
    epochs sharing a shard object, and the copies
    :meth:`~repro.core.vos.VirtualOddSketch.cow_view` makes, share it by
    reference.  Construct tables with :meth:`of`, which sorts the entries.
    """

    #: A bucket is a run of equal ``bucket_signatures`` restricted to one column.
    bucket_signatures: np.ndarray
    bucket_rows: np.ndarray
    bucket_columns: np.ndarray
    rows: int
    key: tuple | None = None

    @classmethod
    def of(
        cls, signatures: np.ndarray, valid: np.ndarray, key: tuple | None = None
    ) -> "_ShardSignatures":
        """The table over ordinals ``0 .. len(signatures) - 1`` of the dense
        ``(rows, bands + 1)`` keys, which it does not keep."""
        rows, columns = np.nonzero(valid)
        entries = signatures[rows, columns]
        order = np.argsort(entries)
        rows, columns = rows[order].astype(np.int32), columns[order].astype(np.int32)
        return cls(entries[order], rows, columns, len(signatures), key)

    def memory_bytes(self) -> int:
        arrays = (self.bucket_signatures, self.bucket_rows, self.bucket_columns)
        return sum(array.nbytes for array in arrays)

    def bucket_mates(self, keys: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Sorted rows sharing a bucket with any ``(keys[i], columns[i])``."""
        table = self.bucket_signatures
        starts = np.searchsorted(table, keys, side="left")
        counts = np.searchsorted(table, keys, side="right") - starts
        total = int(counts.sum())
        if not total:
            return np.empty(0, dtype=np.int64)
        # Flat positions of every hit: run i covers starts[i] .. starts[i] + counts[i].
        offsets = np.cumsum(counts) - counts
        hits = np.repeat(starts - offsets, counts) + np.arange(total)
        same_column = self.bucket_columns[hits] == np.repeat(columns, counts)
        return np.unique(self.bucket_rows[hits[same_column]])


def _restored_table(shard, users, signatures, valid, layout) -> _ShardSignatures | None:
    """A persisted table scattered into ordinal order and keyed to the shard's
    current bits, or ``None`` unless its rows name exactly the users of
    ordinals ``0 .. n - 1``, each once."""
    try:
        ordinals = shard.user_table.ordinals(users)
    except (UnknownUserError, TypeError):  # TypeError: an unhashable id
        return None
    order = np.argsort(ordinals)
    if not np.array_equal(ordinals[order], np.arange(len(users))):
        return None
    key = _shard_key(shard, layout, rows=len(users))
    return _ShardSignatures.of(signatures[order], valid[order], key)


def _pairs_within_groups(
    sorted_ordinals: np.ndarray, sorted_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All within-bucket pairs of one band, given key-sorted ordinals.

    Groups are runs of equal keys; pairs are expanded one distinct group *size*
    at a time (all buckets of size ``g`` stack into an ``(n_groups, g)`` matrix
    and expand through one ``triu_indices`` fancy-index), so the whole band is
    a handful of vectorized operations.  The stable sort keeps ordinals
    ascending within a bucket, so every emitted pair satisfies ``a < b``.
    Returns ``(pair_a, pair_b, bucket sizes)``.
    """
    change = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), change))
    sizes = np.diff(np.concatenate((starts, [sorted_keys.shape[0]])))
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    for size in np.unique(sizes).tolist():
        if size < 2:
            continue
        group_starts = starts[sizes == size]
        members = sorted_ordinals[group_starts[:, None] + np.arange(size)]
        upper_a, upper_b = np.triu_indices(size, k=1)
        out_a.append(members[:, upper_a].ravel())
        out_b.append(members[:, upper_b].ravel())
    if not out_a:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), sizes
    return np.concatenate(out_a), np.concatenate(out_b), sizes


class BandedSketchIndex:
    """LSH banding index proposing candidate pairs for a VOS-family sketch.

    Parameters
    ----------
    sketch:
        A :class:`~repro.core.vos.VirtualOddSketch` or
        :class:`~repro.service.sharding.ShardedVOS` — any sketch exposing
        ``row_shards()`` / ``packed_rows()``.
    config:
        :class:`IndexConfig`; defaults to auto-tuned bands with the sketch's
        own seed.

    The index holds no tables itself: each shard keeps its own, and every
    bucket lookup calls :meth:`refresh`, which rebuilds a shard's table only
    when that shard's array change stamp, user count or the band layout
    moved.  Between ingests, repeated queries reuse the tables untouched, and
    every index over the same shard objects (another epoch's, a restored
    one's) reads the same tables.

    Examples
    --------
    >>> from repro.core.vos import VirtualOddSketch
    >>> from repro.streams import Action, StreamElement
    >>> vos = VirtualOddSketch(shared_array_bits=1 << 14, virtual_sketch_size=256, seed=1)
    >>> for item in range(30):
    ...     vos.process(StreamElement(1, item, Action.INSERT))
    ...     vos.process(StreamElement(2, item, Action.INSERT))
    >>> index = BandedSketchIndex(vos)
    >>> index_a, index_b = index.candidate_pairs([1, 2])
    >>> (index_a.tolist(), index_b.tolist())
    ([0], [1])
    """

    def __init__(self, sketch, config: IndexConfig | None = None) -> None:
        if not hasattr(sketch, "row_shards") or not hasattr(
            sketch, "virtual_sketch_size"
        ):
            raise ConfigurationError(
                f"{type(sketch).__name__} exposes no packed sketch rows; the "
                "banding index requires a VOS-family sketch "
                "(VirtualOddSketch or ShardedVOS)"
            )
        self._sketch = sketch
        self._config = config if config is not None else IndexConfig()
        self._row_words = packed_row_bytes(sketch.virtual_sketch_size) // 8
        r = self._config.rows_per_band
        if r > self._row_words:
            raise ConfigurationError(
                f"rows_per_band {r} exceeds the {self._row_words} words of a "
                f"packed row (virtual_sketch_size {sketch.virtual_sketch_size})"
            )
        if self._config.bands and self._config.bands * r > self._row_words:
            raise ConfigurationError(
                f"bands * rows_per_band = {self._config.bands * r} exceeds the "
                f"{self._row_words} words of a packed row"
            )
        self._seed = (
            self._config.seed
            if self._config.seed is not None
            else getattr(sketch, "seed", 0)
        )
        self._bands = self._config.bands
        # The layout tables are keyed to and the Carter-Wegman coefficients of
        # the kernel-tier band fold (set by _set_layout); None until resolved.
        self._layout: tuple | None = None
        self._coeff_a = self._coeff_b = np.empty(0, dtype=np.uint64)
        self._rebuilds = 0
        self._restored = 0
        self._last_candidate_pairs: int | None = None
        self._last_pool_pairs: int | None = None
        self._last_neighbour_candidates: int | None = None

    # -- configuration ----------------------------------------------------------------

    @property
    def config(self) -> IndexConfig:
        return self._config

    @property
    def bands(self) -> int:
        """Current band count (0 until the first refresh resolves auto-tuning)."""
        return self._bands

    @property
    def rows_per_band(self) -> int:
        return self._config.rows_per_band

    @property
    def seed(self) -> int:
        """The resolved band seed (the sketch's seed unless overridden)."""
        return self._seed

    @property
    def is_built(self) -> bool:
        """Whether the index has resolved a layout (queried, synced or restored)."""
        return self._layout is not None

    def _set_layout(self, bands: int) -> None:
        """Adopt ``bands`` and derive the hash coefficients of its columns.

        One seeded hash per band column plus the residual whole-row hash in
        the last slot; every table built afterwards uses this layout.
        """
        if self._layout is not None and bands == self._bands:
            return
        seeds = [stable_hash64(("index-band", self._seed, band)) for band in range(bands)]
        seeds.append(stable_hash64(("index-residual", self._seed)))
        self._bands = bands
        self._coeff_a, self._coeff_b = coefficient_arrays(seeds)
        config = self._config
        self._layout = (bands, config.rows_per_band, config.min_band_bits, self._seed)

    def _resolve_layout(self) -> tuple:
        """Adopt the band count the sketch's current state resolves to.

        A pure function of the state: auto-tuned counts depend on the live
        fill fraction and mean cardinality (an O(shards) sum), so a changed
        count re-layouts every table.  Returns the layout tables are keyed to.
        """
        self._set_layout(self._resolve_bands())
        return self._layout

    def _resolve_bands(self) -> int:
        if self._config.bands:
            return self._config.bands
        available = max(1, self._row_words // self._config.rows_per_band)
        sketch = self._sketch
        shards = sketch.row_shards()
        users = sum(shard.num_users for shard in shards)
        # An exact integer sum, so the mean (and the band count) is the same
        # whichever order the shards and users come in.
        total = sum(shard.user_table.total() for shard in shards)
        mean_cardinality = total / users if users else 0.0
        beta = sketch.beta
        size = sketch.virtual_sketch_size
        alpha = alpha_at_threshold(
            self._config.target_threshold, beta, beta, size, mean_cardinality
        )
        # Per-bit set probability of a recovered row: the user's own odd-sketch
        # bit (the paper's 0.5 * (1 - exp(-2 n / k)) fill law) xored with the
        # shared array's contamination.
        own = 0.5 * (1.0 - math.exp(-2.0 * mean_cardinality / size))
        set_bit_fraction = own + beta - 2.0 * own * beta
        return required_bands(
            alpha,
            64 * self._config.rows_per_band,
            available,
            self._config.confidence,
            set_bit_fraction=set_bit_fraction,
            min_band_bits=self._config.min_band_bits,
        )

    # -- maintenance ------------------------------------------------------------------

    def refresh(self) -> list[_ShardSignatures]:
        """Bring every shard's table in sync with its shard (rebuild-on-demand).

        The layout is resolved first (:meth:`_resolve_layout`).  Each shard's
        ``index_table`` is then rebuilt on that shard when its key no longer
        matches the shard's :func:`_shard_key`.  Returns the tables, one per
        shard: a query reads these, not the shards' attributes, so another
        index rebuilding a shared shard under another layout cannot swap a
        table out from under it.
        """
        layout = self._resolve_layout()
        registry = get_registry()
        tables = []
        for shard in self._sketch.row_shards():
            with trace("index.sync", registry) as span:
                key = _shard_key(shard, layout)
                table = shard.index_table
                stale = table is None or table.key != key
                if stale:
                    table = shard.index_table = self._build_table(shard, key)
            tables.append(table)
            if stale:
                self._rebuilds += 1
                if registry.enabled:
                    registry.inc("index.rebuilds", 1, unit="tables")
                    registry.observe("index.rebuild_seconds", span.seconds)
        return tables

    def build(self) -> None:
        """Force a full rebuild of every shard's signature table."""
        for shard in self._sketch.row_shards():
            shard.index_table = None
        self.refresh()

    def _band_keys(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``(rows, bands + 1)`` signatures and validity masks of packed
        rows: the one place band keys are derived, in the kernel tier (native
        C or blocked NumPy, bit-identical by the parity suite)."""
        bands = self._bands
        signatures, set_bits = kernels.band_signatures(
            rows.view(np.uint64),
            bands,
            self._config.rows_per_band,
            self._coeff_a,
            self._coeff_b,
        )
        # A band below the set-bit floor says too little about similarity to
        # bucket (on sparse sketches all-zero and single-bit bands match a
        # constant fraction of the pool), so it is never valid.  Users with no
        # band at the floor get the residual column instead: a hash of the
        # whole row, so identical rows — all-zero ones included — are still
        # always co-candidates.
        valid = np.empty((rows.shape[0], bands + 1), dtype=bool)
        valid[:, :bands] = set_bits >= self._config.min_band_bits
        valid[:, bands] = ~valid[:, :bands].any(axis=1)
        return signatures, valid

    def _build_table(self, shard, key: tuple) -> _ShardSignatures:
        """The table of every user the shard held at ``key``, in ordinal order."""
        count = key[1]  # the user count the table is keyed to
        rows = shard.packed_rows(shard.user_table.ids(np.arange(count)).tolist())
        return _ShardSignatures.of(*self._band_keys(rows), key)

    # -- persistence ------------------------------------------------------------------
    #
    # Persisting the bucket tables inside a snapshot's ``index/banding`` extra
    # section makes restart-to-first-query O(1): a restored table is keyed to
    # its shard's bits as loaded, so the next refresh finds nothing to rebuild
    # unless journal replay has since moved them.  The section stays dense
    # (every slot's hash, valid or not): an export derives the keys from
    # packed rows again.

    def export_state(self) -> dict:
        """Capture the synced signature tables for snapshot persistence.

        Returns a plain state dict (layout parameters plus per-shard users,
        signatures and validity masks) that :func:`encode_index_state` turns
        into section bytes.  The index is refreshed first, so the exported
        tables always describe the sketch's current bits, and each table's
        keys are derived from its users' packed rows.  Rows are written in
        :func:`~repro.streams.edge.user_sort_key` order of their users, so the
        bytes do not depend on the order users were first seen in.
        """
        tables = self.refresh()
        shards = []
        for shard, table in zip(self._sketch.row_shards(), tables):
            order = shard.user_table.key_order(np.arange(table.rows))
            users = shard.user_table.ids(order).tolist()
            signatures, valid = self._band_keys(shard.packed_rows(users))
            shards.append({"users": users, "signatures": signatures, "valid": valid})
        return {
            "bands": self._bands,
            "rows_per_band": self._config.rows_per_band,
            "min_band_bits": self._config.min_band_bits,
            "seed": self._seed,
            "shards": shards,
        }

    def restore_state(self, state: dict) -> bool:
        """Attach signature tables captured by :meth:`export_state` to the shards.

        The shards must hold the bits the state was exported from, as a
        snapshot's shards do right after loading: each table is keyed to its
        shard's current change stamp, so a later write (journal replay
        included) makes it fail the key check and rebuild.  Tables are
        restored only when the persisted layout matches this index's
        configuration (band count unless auto-tuned, band width, set-bit
        floor, seed) and the sketch's shard count; on any mismatch the method
        returns ``False`` and the index simply rebuilds on demand.  Each
        shard's rows are scattered into ordinal order; a shard whose user
        column does not name exactly ordinals ``0 .. n - 1`` gets no table.
        ``stats()["restored"]`` counts the tables attached.  Returns ``True``
        when the layout was adopted.
        """
        bands = state["bands"]
        if self._config.bands and self._config.bands != bands:
            return False
        if (
            state["rows_per_band"] != self._config.rows_per_band
            or state["min_band_bits"] != self._config.min_band_bits
            or state["seed"] != self._seed
            or bands * self._config.rows_per_band > self._row_words
        ):
            return False
        if len(state["shards"]) != len(self._sketch.row_shards()):
            return False
        columns = bands + 1
        entries = []
        for entry in state["shards"]:
            users = list(entry["users"])
            signatures = np.asarray(entry["signatures"], dtype=np.uint64)
            valid = np.asarray(entry["valid"], dtype=bool)
            if signatures.shape != (len(users), columns) or valid.shape != signatures.shape:
                return False
            entries.append((users, signatures, valid))
        self._set_layout(bands)
        for shard, entry in zip(self._sketch.row_shards(), entries):
            shard.index_table = _restored_table(shard, *entry, self._layout)
            self._restored += shard.index_table is not None
        return True

    # -- queries ----------------------------------------------------------------------

    def _gather(self, users: Sequence[UserId]) -> tuple[np.ndarray, np.ndarray]:
        """Signature and validity rows for ``users``, in input order, derived
        from the packed rows the sketch's one routed gather reads."""
        rows, _, _ = self._sketch.gather(users)
        return self._band_keys(rows)

    def candidate_pairs(
        self, pool: Sequence[UserId]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate ``(index_a, index_b)`` ordinal pairs over ``pool``.

        Pairs are the union of same-bucket pairs across every band, deduped,
        with ``index_a < index_b``, sorted lexicographically — exactly the
        order the exhaustive enumeration visits them, so downstream
        tie-breaking behaves identically.  Always a subset of the pool's
        ``i < j`` pairs.  Each call is traced (``index.candidate_pairs``) and
        publishes its candidate yield, candidate fraction and per-band bucket
        size distribution to the metrics registry.
        """
        registry = get_registry()
        with trace("index.candidate_pairs", registry):
            result = self._propose_pairs(pool, registry)
        if registry.enabled:
            registry.inc("index.queries", 1, unit="queries")
            if self._last_candidate_pairs is not None:
                registry.observe(
                    "index.candidate_yield", self._last_candidate_pairs, unit="pairs"
                )
            if self._last_pool_pairs:
                registry.observe(
                    "index.candidate_fraction",
                    self._last_candidate_pairs / self._last_pool_pairs,
                    unit="fraction",
                )
        return result

    def _propose_pairs(
        self, pool: Sequence[UserId], registry
    ) -> tuple[np.ndarray, np.ndarray]:
        # The pool's keys come from its packed rows: no table is read.
        self._resolve_layout()
        pool = list(pool)
        n = len(pool)
        self._last_pool_pairs = n * (n - 1) // 2
        empty = np.empty(0, dtype=np.int64)
        if n < 2:
            self._last_candidate_pairs = 0
            return empty, empty.copy()
        signatures, valid = self._gather(pool)
        key_blocks: list[np.ndarray] = []
        size_blocks: list[np.ndarray] = []
        for band in range(self._bands + 1):
            ordinals = np.flatnonzero(valid[:, band])
            if ordinals.shape[0] < 2:
                continue
            keys = signatures[ordinals, band]
            order = np.argsort(keys, kind="stable")
            pair_a, pair_b, sizes = _pairs_within_groups(ordinals[order], keys[order])
            size_blocks.append(sizes)
            if pair_a.size:
                key_blocks.append(pair_a * n + pair_b)
        if registry.enabled and size_blocks:
            registry.observe_many(
                "index.bucket_size", np.concatenate(size_blocks), unit="users"
            )
        if not key_blocks:
            self._last_candidate_pairs = 0
            return empty, empty.copy()
        pair_keys = np.unique(np.concatenate(key_blocks))
        self._last_candidate_pairs = int(pair_keys.shape[0])
        return pair_keys // n, pair_keys % n

    def neighbour_candidates(
        self, target: UserId, pool: Container[UserId]
    ) -> list[UserId]:
        """Members of ``pool`` sharing at least one band bucket with ``target``.

        The nearest-neighbour analogue of :meth:`candidate_pairs`, costing
        O(bucket members) rather than O(pool): the target's valid band
        entries are read off its home table, and each table looks them up in
        its sorted bucket arrays.  ``pool`` is only a filter (anything
        supporting ``in``; pass a set or a view, not a long list).  Results
        come in :func:`~repro.streams.edge.user_sort_key` order, each user
        once, never ``target`` itself.  Each call is traced
        (``index.neighbour_candidates``).
        """
        registry = get_registry()
        with trace("index.neighbour_candidates", registry):
            tables = self.refresh()
            members: list[UserId] = []
            if pool:
                shards = self._sketch.row_shards()
                home = self._sketch.shard_of(target)
                (row,) = shards[home].user_table.ordinals([target])
                table = tables[home]
                own = table.bucket_rows == row
                keys, columns = table.bucket_signatures[own], table.bucket_columns[own]
                for shard, table in zip(shards, tables):
                    mates = shard.user_table.ids(table.bucket_mates(keys, columns))
                    members.extend(
                        user for user in mates.tolist() if user != target and user in pool
                    )
                members.sort(key=user_sort_key)
        self._last_neighbour_candidates = len(members)
        return members

    # -- accounting -------------------------------------------------------------------

    def stats(self) -> dict:
        """Operational summary: layout, memory, maintenance and candidate counters.

        ``last_candidate_fraction`` is the proposed share of the last query's
        full pair pool — the knob-tuning signal for the recall/speed tradeoff
        (1.0 would mean no pruning at all).  Table counts cover the tables the
        shards hold, whichever index built them.
        """
        shards = self._sketch.row_shards()
        tables = [shard.index_table for shard in shards if shard.index_table is not None]
        users_indexed = sum(table.rows for table in tables)
        fraction = (
            self._last_candidate_pairs / self._last_pool_pairs
            if self._last_candidate_pairs is not None and self._last_pool_pairs
            else None
        )
        return {
            "bands": self._bands,
            "rows_per_band": self._config.rows_per_band,
            "band_bits": 64 * self._config.rows_per_band,
            "min_band_bits": self._config.min_band_bits,
            "auto_bands": self._config.bands == 0,
            "seed": self._seed,
            "shards": len(shards),
            "users_indexed": users_indexed,
            "signature_bytes": sum(table.memory_bytes() for table in tables),
            "rebuilds": self._rebuilds,
            "restored": self._restored,
            "last_candidate_pairs": self._last_candidate_pairs,
            "last_pool_pairs": self._last_pool_pairs,
            "last_candidate_fraction": fraction,
            "last_neighbour_candidates": self._last_neighbour_candidates,
        }


# -- snapshot section codec -----------------------------------------------------------
#
# Binary layout of the ``index/banding`` snapshot extra section::
#
#     u32 header length | header JSON | per-shard payloads
#
# The header records the band layout and, per shard, the row count and the
# byte lengths/encodings of its three payloads: the user column (raw int64 or
# a UTF-8 JSON array — the id-column codec ``.vosstream`` uses too), the
# signature matrix (row-major little-endian uint64, ``bands + 1`` columns) and
# the validity mask (``np.packbits`` of the flattened boolean matrix).  The
# block is the shared :mod:`repro.framing` block.  The snapshot's payload CRC
# already covers these bytes, so the codec validates structure only: every
# declared count must be a non-negative JSON integer that agrees with the
# bytes that follow.


def encode_index_state(state: dict) -> bytes:
    """Serialize an :meth:`BandedSketchIndex.export_state` dict to section bytes."""
    shard_entries: list[dict] = []
    payloads: list[bytes] = []
    for entry in state["shards"]:
        users = list(entry["users"])
        signatures = np.ascontiguousarray(entry["signatures"], dtype=np.uint64)
        valid = np.asarray(entry["valid"], dtype=bool)
        users_blob, users_encoding = encode_id_column(users)
        signatures_blob = signatures.astype("<u8").tobytes()
        valid_blob = np.packbits(valid.ravel()).tobytes()
        shard_entries.append(
            {
                "rows": len(users),
                "users_encoding": users_encoding,
                "users_bytes": len(users_blob),
                "signatures_bytes": len(signatures_blob),
                "valid_bytes": len(valid_blob),
            }
        )
        payloads.extend((users_blob, signatures_blob, valid_blob))
    header = {
        "bands": state["bands"],
        "rows_per_band": state["rows_per_band"],
        "min_band_bits": state["min_band_bits"],
        "seed": state["seed"],
        "shards": shard_entries,
    }
    return framing.pack_block(header, *payloads)


def decode_index_state(data: bytes) -> dict:
    """Inverse of :func:`encode_index_state`; raises :class:`SnapshotError` on damage."""
    header, payload = framing.read_block(data, SnapshotError, "index section")
    what = "index section header"
    bands = framing.count(header, "bands", SnapshotError, what)
    rows_per_band = framing.count(header, "rows_per_band", SnapshotError, what, 1)
    min_band_bits = framing.count(header, "min_band_bits", SnapshotError, what, 2)
    seed = header.get("seed", 0)
    if type(seed) is not int:
        raise SnapshotError(f"{what} field 'seed' is {seed!r}, not an integer")
    columns = bands + 1
    if columns * 8 > np.iinfo(np.intp).max:  # no array can have such a row
        raise SnapshotError(f"index section declares {bands} bands per row")
    shards: list[dict] = []
    for entry in framing.mappings(header, "shards", SnapshotError, what):
        rows = framing.count(entry, "rows", SnapshotError, f"{what} shard")
        cells = rows * columns
        users_blob = payload.take(entry.get("users_bytes"), "users")
        signatures_blob = payload.take(entry.get("signatures_bytes"), "signatures")
        valid_blob = payload.take(entry.get("valid_bytes"), "validity bits")
        if len(signatures_blob) != cells * 8 or len(valid_blob) != (cells + 7) // 8:
            raise SnapshotError("index section payload disagrees with its header")
        users = decode_id_column(users_blob, entry.get("users_encoding"), rows)
        signatures = (
            np.frombuffer(signatures_blob, dtype="<u8")
            .astype(np.uint64)
            .reshape(rows, columns)
        )
        valid = (
            np.unpackbits(np.frombuffer(valid_blob, dtype=np.uint8), count=cells)
            .astype(bool)
            .reshape(rows, columns)
        )
        shards.append({"users": users.tolist(), "signatures": signatures, "valid": valid})
    payload.finish()
    layout = {"rows_per_band": rows_per_band, "min_band_bits": min_band_bits, "seed": seed}
    return {"bands": bands, **layout, "shards": shards}
