"""VOS — the Virtual Odd Sketch streaming similarity sketch (Section IV).

The sketch consists of:

* a shared bit array ``A`` of ``m`` bits (:class:`~repro.core.bitarray.SharedBitArray`);
* an item hash ``psi : I -> {0, ..., k-1}`` selecting which virtual bit of a
  user's odd sketch an item toggles;
* ``k`` user hashes ``f_0 ... f_{k-1} : U -> {0, ..., m-1}`` selecting
  where each virtual bit lives inside ``A``: the double-hash
  :class:`~repro.hashing.families.PositionFamily`
  ``f_j(u) = (h1(u) + j * h2(u)) mod m`` with ``h2(u)`` a unit of ``Z_m``,
  so a user's positions are distinct and a changed bit of ``A`` names the
  users and virtual bits it belongs to;
* one exact cardinality counter ``n_u`` per user (inherited from
  :class:`~repro.baselines.base.SimilaritySketch`).

Processing an element ``(u, i, a)`` — regardless of whether ``a`` is a
subscription or an unsubscription — xors one bit of ``A``:

    A[f_{psi(i)}(u)]  ^=  1

which costs O(1) and makes insert/delete of the same item cancel exactly
(odd-sketch property), so deletions introduce no sampling bias.  The global
fill fraction ``beta`` is maintained incrementally by the shared array.

At query time the sketch recovers ``Ô_u[j] = A[f_j(u)]`` for the two users,
xors them, measures the fraction of set bits ``alpha``, and applies the
closed-form estimators in :mod:`repro.core.estimators`.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.baselines.base import PairEstimate, SimilaritySketch, normalize_pair_indices
from repro.baselines.users import UserTable, lindley_fold
from repro.core.bitarray import SharedBitArray
from repro.core.estimators import (
    estimate_common_items_arrays,
    estimate_common_items_cross,
    estimate_jaccard_arrays,
    estimate_jaccard_cross,
    estimate_symmetric_difference_cross,
    jaccard_from_common_arrays,
)
from repro.core.memory import MemoryBudget, vos_parameters_for_budget
from repro.exceptions import ConfigurationError
from repro.hashing import PositionFamily, UniversalHash
from repro import kernels
from repro.obs import get_registry
from repro.hashing.universal import fingerprint64, fingerprint64_array, stable_hash64
from repro.kernels import packed_row_bytes
from repro.streams.batch import ElementBatch
from repro.streams.edge import StreamElement, UserId


def pair_xor_counts(rows: np.ndarray, index_a: np.ndarray, index_b: np.ndarray) -> np.ndarray:
    """Popcount of ``rows[index_a[t]] ^ rows[index_b[t]]`` for every pair ``t``.

    ``rows`` is a matrix of bit-packed virtual sketches (one user per row, 8
    virtual bits per byte, rows padded to whole 64-bit words — see
    :func:`packed_row_bytes`).  Dispatches to :mod:`repro.kernels`: the native
    tier's fused gather+xor+popcount when available, otherwise the blocked
    NumPy sweep whose intermediate buffers are auto-sized to the cache (see
    :func:`repro.kernels.numpy_tier.pair_block_pairs`) and reused across
    blocks.  Both tiers are bit-identical.
    """
    return kernels.pair_counts(rows, index_a, index_b)


def ingest_batch(sketch, elements) -> int:
    """The one batch ingest of both VOS layouts, bit-identical to the per-element loop.

    ``sketch`` is a :class:`VirtualOddSketch` (one shard: itself) or a
    :class:`~repro.service.sharding.ShardedVOS`.  Accepts an element
    iterable or an :class:`~repro.streams.batch.ElementBatch`.  One pass
    over the batch does the work every shard would otherwise repeat, with
    the shards' shared ``psi`` and user family:

    * one item hash ``psi`` over the item column;
    * one Lindley fold of the counter deltas per distinct user
      (:func:`~repro.baselines.users.lindley_fold`);
    * one routing of the distinct users (``split_by_shard``);
    * one position ``f_{psi(i)}(u) = (h1 + psi(i) * h2) mod m`` per element
      (:meth:`PositionFamily.positions`).

    Each shard does only its own share: intern and set its users' counters
    (:meth:`UserTable.add_folded`, one stamp), read their offsets ``(h1,
    h2)`` from its per-user memo (derived once per user, when first seen)
    and xor its positions into its array (:meth:`SharedBitArray.xor_bulk`,
    where repeated toggles cancel).  Shards take disjoint users and xor is
    commutative, so bits, ``beta``, counters and the users stamped as
    changed are exactly those of feeding the elements one by one.  A
    batch's new users take their shard's next ordinals in sorted order, and
    the words stamped are exactly those whose bits changed (the
    per-element loop also stamps words whose flips cancel).

    Batches whose user or item column is not ``int64`` (string ids, floats
    that would be silently truncated, ints beyond 64 bits) fall back to the
    per-element loop, which handles every hashable key.
    """
    batch = ElementBatch.coerce(elements)
    count = len(batch)
    if count == 0:
        return 0
    if not (batch.integer_users and batch.integer_items):
        for element in batch.to_elements():
            sketch.process(element)
        return count
    shards = sketch.row_shards()
    hashes = shards[0]
    unique, inverse, totals, lowest = lindley_fold(batch.users, batch.deltas())
    virtual_indices = hashes._item_hash.hash_array(batch.items)
    routed = list(sketch.split_by_shard(unique, inverse))
    first = np.empty(len(unique), dtype=np.int64)
    step = np.empty(len(unique), dtype=np.int64)
    for shard_index, users, _ in routed:
        shard = shards[shard_index]
        ordinals = shard._user_table.add_folded(unique[users], totals[users], lowest[users])
        offsets = shard._user_offsets()
        first[users] = offsets[0][ordinals]
        step[users] = offsets[1][ordinals]
    positions = hashes._user_hashes.positions(first[inverse], step[inverse], virtual_indices)
    for shard_index, _, rows in routed:
        shards[shard_index]._array.xor_bulk(positions[rows])
    return count


#: A flipped position scanned against one user costs about this many
#: recovered positions (a modular product and a compare against an add, a
#: compare and a bit gather): the fixed rule :meth:`VirtualOddSketch.track_patch`
#: falls back to full recovery by.
SCAN_COST = 2

_NO_OFFSETS = tuple(np.empty(0, dtype=np.int64) for _ in range(3))


@dataclass(frozen=True)
class _PatchBasis:
    """A copy-on-write epoch's bits as a patch of a frozen sketch's.

    ``flips`` are the sorted positions whose bits differ from ``origin``'s;
    ``origin`` is ``None`` when the cost rule chose full recovery.
    """

    origin: "VirtualOddSketch | None"
    flips: np.ndarray


def flipped_positions(old, words, data: bytes) -> np.ndarray:
    """Positions of ``old`` whose bits the packed ``words`` ``data`` (a
    delta's ``packed_words``) would change (``old ^ new``), ascending for
    ascending words."""
    words = np.asarray(words, dtype=np.int64)
    changed = old.storage.view(np.uint64)[words] ^ np.frombuffer(data, dtype=np.uint64)
    bits = np.flatnonzero(np.unpackbits(changed.view(np.uint8)))
    return words[bits >> 6] * 64 + (bits & 63)


class VectorizedPairQueries:
    """Mixin: the one read path of both VOS layouts.

    :meth:`gather` routes users to the shards owning them (``route()`` over
    ``row_shards()``; a single-array sketch is its own shard 0) and reads each
    group's packed rows through that shard's row memo, along with the shard's
    fill fraction and the users' cardinalities.  Every read is built on it:

    * the bulk estimators score pairs of gathered rows with one xor-popcount
      pass and feed the counts, per-user fill fractions and cardinalities to
      the indexed estimators of :mod:`repro.core.estimators`;
    * the scalar reads are the one-pair case of the same inputs, handed to
      the scalar ``*_cross`` estimators (a same-shard pair has
      ``beta_a == beta_b``, which reduces to the paper's single-array form);
    * :class:`~repro.index.banding.BandedSketchIndex` derives band keys from
      the gathered rows.

    The bulk results are bit-identical to the scalar per-pair loop.  Used by
    both :class:`VirtualOddSketch` and
    :class:`~repro.service.sharding.ShardedVOS`.
    """

    virtual_sketch_size: int

    def gather(self, users: Sequence[UserId]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, betas, cardinalities)`` of ``users``, in input order.

        ``rows`` holds each user's packed virtual sketch (:meth:`packed_rows`
        layout), ``betas`` the fill fraction of the array it was recovered
        from, ``cardinalities`` its exact counter.  One :meth:`route` groups
        the users by owning shard, so each shard does one memoised row read.
        """
        users = list(users)
        rows = np.empty((len(users), packed_row_bytes(self.virtual_sketch_size)), np.uint8)
        betas = np.empty(len(users), dtype=np.float64)
        cardinalities = np.empty(len(users), dtype=np.int64)
        shards = self.row_shards()
        for shard_index, positions, members in self.route(users):
            shard = shards[shard_index]
            rows[positions] = shard._packed_rows(members)
            betas[positions] = shard.beta
            cardinalities[positions] = shard.cardinalities(members)
        return rows, betas, cardinalities

    def _indexed_inputs(self, users: Sequence[UserId], index_a, index_b) -> tuple:
        """``(counts, betas, k, cardinalities, index_a, index_b)``: the indexed
        estimators' input for the pairs ``(users[index_a[t]], users[index_b[t]])``."""
        index_a, index_b = normalize_pair_indices(index_a, index_b)
        rows, betas, cardinalities = self.gather(users)
        counts = pair_xor_counts(rows, index_a, index_b)
        return counts, betas, self.virtual_sketch_size, cardinalities, index_a, index_b

    def _pair_inputs(self, user_a: UserId, user_b: UserId) -> tuple:
        """``(alpha, beta_a, beta_b, k, n_a, n_b)``: the scalar ``*_cross`` input."""
        rows, betas, cardinalities = self.gather([user_a, user_b])
        count = np.count_nonzero(np.unpackbits(rows[0] ^ rows[1]))
        beta_a, beta_b = betas.tolist()
        card_a, card_b = cardinalities.tolist()
        k = self.virtual_sketch_size
        return count / k, beta_a, beta_b, k, card_a, card_b

    # -- scalar reads ------------------------------------------------------------------

    def sketch_matrix(self, users: Sequence[UserId]) -> np.ndarray:
        """Recover many users' virtual sketches as an ``(n, k)`` uint8 bit matrix:
        the gathered packed rows, unpacked."""
        rows, _, _ = self.gather(users)
        return np.unpackbits(rows, axis=1, count=self.virtual_sketch_size)

    def virtual_sketch(self, user: UserId) -> np.ndarray:
        """Recover the user's virtual odd sketch ``Ô_u`` as a uint8 vector."""
        return self.sketch_matrix([user])[0]

    def pair_alpha(self, user_a: UserId, user_b: UserId) -> float:
        """The observed xor load ``alpha`` for a user pair."""
        return self._pair_inputs(user_a, user_b)[0]

    def estimate_symmetric_difference(self, user_a: UserId, user_b: UserId) -> float:
        """Estimate ``n_Δ = |S_u Δ S_v|`` for the pair."""
        return estimate_symmetric_difference_cross(*self._pair_inputs(user_a, user_b)[:4])

    def estimate_common_items(self, user_a: UserId, user_b: UserId) -> float:
        return estimate_common_items_cross(*self._pair_inputs(user_a, user_b))

    def estimate_jaccard(self, user_a: UserId, user_b: UserId) -> float:
        return estimate_jaccard_cross(*self._pair_inputs(user_a, user_b))

    def estimate_pair(self, user_a: UserId, user_b: UserId) -> PairEstimate:
        """Both scalar estimates from one gather of the pair."""
        inputs = self._pair_inputs(user_a, user_b)
        return PairEstimate(
            user_a=user_a,
            user_b=user_b,
            common_items=estimate_common_items_cross(*inputs),
            jaccard=estimate_jaccard_cross(*inputs),
        )

    # -- bulk reads --------------------------------------------------------------------

    def estimate_jaccard_indexed(
        self, users: Sequence[UserId], index_a, index_b
    ) -> np.ndarray:
        return estimate_jaccard_arrays(*self._indexed_inputs(users, index_a, index_b))

    def estimate_common_items_indexed(
        self, users: Sequence[UserId], index_a, index_b
    ) -> np.ndarray:
        return estimate_common_items_arrays(*self._indexed_inputs(users, index_a, index_b))

    def estimate_common_and_jaccard_indexed(
        self, users: Sequence[UserId], index_a, index_b
    ) -> tuple[np.ndarray, np.ndarray]:
        """One xor pass feeds both estimators; Jaccard derives from the commons."""
        inputs = self._indexed_inputs(users, index_a, index_b)
        commons = estimate_common_items_arrays(*inputs)
        return commons, jaccard_from_common_arrays(commons, *inputs[3:])


class VirtualOddSketch(VectorizedPairQueries, SimilaritySketch):
    """The VOS streaming sketch for user-pair similarity over dynamic graph streams.

    Parameters
    ----------
    shared_array_bits:
        Length ``m`` of the shared bit array ``A``.
    virtual_sketch_size:
        Number of virtual odd-sketch bits ``k`` assigned to every user.
    seed:
        Master seed for the item hash and the user hash family.

    Notes
    -----
    *Update cost* is O(1) per stream element (one hash of the item, one hash
    of the user, one xor).  *Query cost* is O(k) because the two virtual
    sketches must be gathered from ``A``.

    Recovered rows are memoised by user ordinal (bit-packed, ``k / 8`` bytes
    each, one matrix row per user), keyed to the array's change stamp: a
    write ends every row's validity, so memoised reads are exactly what a
    fresh recovery returns.  A copy-on-write epoch is the exception
    (:meth:`track_patch`): it knows the bits its publish flipped, so its
    first read copies its source's memo and flips only the row bits those
    positions name.  Beside the memo the sketch holds ``index_table``: the
    LSH bucket table :mod:`repro.index` derives from those rows, keyed (like
    the memo) to the array's change stamp, and each user's position offsets
    ``(h1, h2, h2^-1)``.  Like the hash coefficients, all are derived state
    that the paper's cost model, which charges only the ``m``-bit array,
    does not count.

    Examples
    --------
    >>> from repro.streams import Action, StreamElement
    >>> vos = VirtualOddSketch(shared_array_bits=4096, virtual_sketch_size=256, seed=1)
    >>> for item in range(20):
    ...     vos.process(StreamElement(1, item, Action.INSERT))
    ...     vos.process(StreamElement(2, item, Action.INSERT))
    >>> round(vos.estimate_jaccard(1, 2), 1)
    1.0
    """

    name = "VOS"

    def __init__(
        self,
        shared_array_bits: int,
        virtual_sketch_size: int,
        *,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if shared_array_bits <= 0:
            raise ConfigurationError(
                f"shared_array_bits must be positive, got {shared_array_bits}"
            )
        if virtual_sketch_size <= 0:
            raise ConfigurationError(
                f"virtual_sketch_size must be positive, got {virtual_sketch_size}"
            )
        if virtual_sketch_size > shared_array_bits:
            raise ConfigurationError(
                "virtual_sketch_size cannot exceed shared_array_bits "
                f"({virtual_sketch_size} > {shared_array_bits})"
            )
        self.shared_array_bits = shared_array_bits
        self.virtual_sketch_size = virtual_sketch_size
        self.seed = seed
        self._array = SharedBitArray(shared_array_bits)
        self._item_hash = UniversalHash(
            range_size=virtual_sketch_size, seed=stable_hash64(("vos-psi", seed))
        )
        self._user_hashes = PositionFamily(
            size=virtual_sketch_size,
            range_size=shared_array_bits,
            seed=stable_hash64(("vos-f", seed)),
        )
        self._reset_row_memo()
        self._offsets = self._offset_columns = _NO_OFFSETS
        #: The shard's LSH bucket table, owned by :mod:`repro.index.banding`
        #: (``None`` until an index builds or restores one).
        self.index_table = None

    def _reset_row_memo(self) -> None:
        # Memo row ``r`` is user ordinal ``r``'s packed row, valid while its
        # stamp equals the array's latest stamp; grown on reads.  ``entries``
        # counts rows valid at ``_rows_stamp``, the newest stamp read.  The
        # lock guards only this bookkeeping (the serving daemon reads one
        # epoch from many threads); recovery runs outside it.
        self._rows = np.empty((0, packed_row_bytes(self.virtual_sketch_size)), np.uint8)
        self._row_stamps = np.empty(0, dtype=np.int64)
        self._rows_stamp = -1
        self._row_hits = 0
        self._row_misses = 0
        self._rows_lock = threading.Lock()
        #: Pending patch of a copy-on-write epoch (:meth:`track_patch`),
        #: applied by the first read; then the rows the patch changed, for
        #: the LSH table (:meth:`patch_basis`).
        self._basis: _PatchBasis | None = None
        self._index_basis: tuple | None = None

    # -- construction helpers --------------------------------------------------------

    @classmethod
    def from_budget(
        cls,
        budget: MemoryBudget,
        *,
        size_multiplier: float = 2.0,
        seed: int = 0,
    ) -> "VirtualOddSketch":
        """Build a VOS instance under the paper's equal-memory budget.

        ``m`` is set to the budget's total bits and the virtual sketch size to
        ``λ * register_bits * k`` (λ = ``size_multiplier``, 2 by default).
        """
        parameters = vos_parameters_for_budget(budget, size_multiplier=size_multiplier)
        return cls(
            shared_array_bits=parameters.shared_array_bits,
            virtual_sketch_size=parameters.virtual_sketch_size,
            seed=seed,
        )

    @classmethod
    def cow_view(
        cls, source: "VirtualOddSketch", *, blank: bool = False
    ) -> "VirtualOddSketch":
        """A sketch holding ``source``'s hash objects: its own state, shared hashes.

        The one way to build a sketch whose hashes equal another's.  Instead
        of deriving the ``k``-hash user family again (three BLAKE2b digests
        per member) the new sketch shares ``source``'s ``psi`` and user
        family by reference; its row memo is its own and empty until the
        first read.

        By default the state is a frozen copy of ``source``'s: the serving
        daemon's epoch publisher calls this for each shard a publish touches,
        then patches the copy with the publish delta.  The bits and user
        table are untracked copies
        (:meth:`~repro.hashing.bitpack.PackedBitArray.copy`,
        :meth:`~repro.baselines.users.UserTable.copy`), and the view takes
        ``source``'s LSH table: the copied array keeps ``source``'s change
        stamp (the bits are equal), so the table stays valid until the copy
        is patched, and shares its users' position offsets (a user's
        ordinal and offsets never change).  Such a view is a full
        :class:`VirtualOddSketch` for the read API but must never ingest;
        epoch services are frozen by contract.

        ``blank=True`` gives the sketch an empty array and user table and no
        LSH table instead: a fresh sketch with ``source``'s layout and seed,
        free to ingest.  :class:`~repro.service.sharding.ShardedVOS` builds
        every shard after its first this way, and so does a snapshot restore.
        """
        view = cls.__new__(cls)
        view.shared_array_bits = source.shared_array_bits
        view.virtual_sketch_size = source.virtual_sketch_size
        view.seed = source.seed
        view._item_hash = source._item_hash
        view._user_hashes = source._user_hashes
        view._reset_row_memo()
        if blank:
            view._user_table = UserTable()
            view._array = SharedBitArray(source.shared_array_bits)
            view.index_table = None
            view._offsets = view._offset_columns = _NO_OFFSETS
        else:
            view._user_table = source.user_table.copy()
            view._array = source.shared_array.copy()
            view.index_table = source.index_table
            # Exactly sized: the copy has no spare rows, so it reallocates
            # before it grows and never writes a row its source reads.
            view._offsets = view._offset_columns = source._offsets
        return view

    def track_patch(self, source: "VirtualOddSketch", flips: np.ndarray) -> None:
        """Record that this frozen copy's bits are ``source``'s with ``flips`` toggled.

        ``source`` is the frozen sketch this copy was made from and ``flips``
        the sorted positions whose bits the copy's patch changed.  The first
        read of this copy then starts from ``source``'s row memo and
        ``index_table`` instead of recovering every row: it flips the row
        bits the flipped positions name (users x flips modular products, see
        :func:`repro.kernels.scan_flips`), recovers only rows the memo lacks
        and re-keys only changed rows' band entries
        (:meth:`repro.index.BandedSketchIndex.refresh`).

        When ``source`` itself was never read, its own pending patch is
        folded in: the copy patches from ``source``'s origin with the
        symmetric difference of both flip sets.  Full recovery stays the
        exact fallback, chosen by a fixed cost rule: scanning a flip costs
        about :data:`SCAN_COST` recovered positions per user, so once the
        flips outnumber ``k / SCAN_COST`` a recovery is cheaper and the copy
        keeps no basis.
        """
        basis = source._basis
        origin = source
        if basis is not None:
            origin = basis.origin
            if origin is not None:
                flips = np.setxor1d(basis.flips, flips, assume_unique=True)
        if origin is not None and flips.shape[0] * SCAN_COST > self.virtual_sketch_size:
            origin = None
        self._basis = _PatchBasis(origin, flips if origin is not None else flips[:0])

    # -- streaming updates ----------------------------------------------------------------

    def _toggle(self, element: StreamElement) -> None:
        # ``process`` has interned the user: read its memoised offsets.
        virtual_index = self._item_hash(element.item)
        ordinal = self._user_table.ordinal(element.user)
        h1, h2, _ = self._user_offsets()
        self._array.flip(
            (int(h1[ordinal]) + virtual_index * int(h2[ordinal])) % self.shared_array_bits
        )

    def _process_insertion(self, element: StreamElement) -> None:
        self._toggle(element)

    def _process_deletion(self, element: StreamElement) -> None:
        # Identical to insertion: xor cancels the earlier toggle of the same
        # item, which is exactly why VOS has no deletion bias.
        self._toggle(element)

    def process_batch(self, elements) -> int:
        """Vectorized batch ingest (bit-identical to the per-element loop):
        :func:`ingest_batch` with this array as its one shard."""
        return ingest_batch(self, elements)

    # -- queries -----------------------------------------------------------------------------

    @property
    def beta(self) -> float:
        """Current fill fraction of the shared array (the paper's ``beta^(t)``)."""
        return self._array.beta

    @property
    def shared_array(self) -> SharedBitArray:
        """The underlying shared array (exposed for analysis and tests)."""
        return self._array

    # -- bulk queries ------------------------------------------------------------------

    def _packed_rows(self, users: Sequence[UserId]) -> np.ndarray:
        """Bit-packed virtual sketches, one row per user, through the row memo.

        A write since a row was recovered invalidates it: the stamp says only
        that the array changed, not where.  The first read of a copy-on-write
        epoch applies its pending patch (:meth:`track_patch`) first, which
        carries its source's rows over with exactly the flipped bits changed.
        Missing rows are recovered in one :func:`repro.kernels.recover_rows`
        call.
        """
        ordinals = self._user_table.ordinals(users)
        stamp = self._array.latest_stamp
        with self._rows_lock:
            if self._basis is not None:
                self._apply_basis(stamp)
            have = self._row_stamps.shape[0]
            if have < len(self._user_table):
                extra = max(len(self._user_table), 2 * have) - have
                blank = np.empty((extra, self._rows.shape[1]), np.uint8)
                self._rows = np.concatenate((self._rows, blank))
                self._row_stamps = np.concatenate((self._row_stamps, np.full(extra, -1)))
            self._rows_stamp = max(self._rows_stamp, stamp)
            packed = self._rows.take(ordinals, axis=0)
            (missing,) = (self._row_stamps.take(ordinals) != stamp).nonzero()
            self._row_hits += len(ordinals) - missing.size
            self._row_misses += missing.size
        if missing.size:
            missing_ordinals = ordinals[missing]
            fresh = self._recover_rows(missing_ordinals)
            packed[missing] = fresh
            with self._rows_lock:
                # A write racing this recovery moved the stamp, so the rows
                # may mix old and new bits: keep them out of the memo.
                if stamp == self._array.latest_stamp:
                    self._rows[missing_ordinals] = fresh
                    self._row_stamps[missing_ordinals] = stamp
        registry = get_registry()
        if registry.enabled:
            hits = len(ordinals) - missing.size
            if hits:
                registry.inc("query.row_cache.hits", hits, unit="rows")
            if missing.size:
                registry.inc("query.row_cache.misses", missing.size, unit="rows")
        return packed

    def _apply_basis(self, stamp: int) -> None:
        """Start the row memo from the patch basis's origin (under ``_rows_lock``).

        The origin's rows valid at its stamp are copied, and each hit of the
        flipped positions toggles its row bit (the position's bit is exactly
        what changed).  Rows the origin never recovered stay missing.  All
        users hit, recovered or not, are kept for the LSH table patch, with
        the origin's table, but not the origin: this sketch keeps no
        reference to it.
        """
        basis, self._basis = self._basis, None
        origin = basis.origin
        if origin is None:
            self._index_basis = (None, None, None)
            return
        count = origin.num_users
        rows = np.zeros((count, self._rows.shape[1]), dtype=np.uint8)
        valid = np.zeros(count, dtype=bool)
        with origin._rows_lock:
            origin_stamp = origin.shared_array.latest_stamp
            table = origin.index_table
            held = min(count, origin._rows.shape[0])
            rows[:held] = origin._rows[:held]
            valid[:held] = origin._row_stamps[:held] == origin_stamp
        h1, _, inverse = (array[:count] for array in self._user_offsets())
        users, columns = self._user_hashes.scan_flips(h1, inverse, basis.flips)
        np.bitwise_xor.at(
            rows,
            (users, columns >> 3),
            np.right_shift(np.uint8(0x80), (columns & 7).astype(np.uint8)),
        )
        self._rows = rows
        self._row_stamps = np.where(valid, stamp, -1)
        self._rows_stamp = stamp
        # Only the origin's (immutable) table and what it must be keyed to:
        # holding the origin itself would chain every epoch read since.
        self._index_basis = (table, (origin_stamp, count), np.unique(users))

    def patch_basis(self) -> tuple | None:
        """What this sketch's LSH table may be patched from, after its first read.

        ``None`` for a sketch that was not published as a patch (or whose
        patch a table already used); ``(None, None, None)`` when the patch
        fell back to full recovery; otherwise ``(table, origin_key,
        hit_rows)``: the origin's ``index_table`` when the patch was applied
        (``None`` if it had none), the ``(stamp, user count)`` of the origin's
        bits before the patch, which that table must be keyed to, and the
        sorted ordinals (below the origin's user count) whose rows the patch
        changed.
        """
        if self._basis is not None:
            with self._rows_lock:
                if self._basis is not None:
                    self._apply_basis(self._array.latest_stamp)
        return self._index_basis

    def drop_patch_basis(self) -> None:
        """Forget the patch basis once a table used it (frees the origin's table)."""
        self._index_basis = None

    def _user_offsets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(h1, h2, h2^-1)`` of every user, indexed by ordinal, memoised.

        The memo is append-only (a user's ordinal and offsets never change):
        only users added since the last call are derived, into columns that
        grow by doubling, so a per-element stream of new users stays linear.
        The memo is the columns' first rows, replaced in one assignment once
        they are written.  Copies of this sketch share it (:meth:`cow_view`)
        without the spare rows, so only the sketch that allocated the
        columns writes past the rows any sketch reads.
        """
        cached = self._offsets
        have, need = cached[0].shape[0], len(self._user_table)
        if have < need:
            columns = self._offset_columns
            if columns[0].shape[0] < need:
                capacity = max(need, 2 * have)
                spare = np.empty(capacity - have, dtype=np.int64)
                columns = tuple(np.concatenate((column, spare)) for column in cached)
                self._offset_columns = columns
            ids = self._user_table.ids(np.arange(have, need))
            if need - have == 1:
                # A lone new user (the per-element update): Python integers
                # skip the kernel call's fixed cost.
                fresh = self._user_hashes.scalar_offsets(fingerprint64(ids.tolist()[0]))
                for column, value in zip(columns, fresh):
                    column[have] = value
            else:
                fingerprints = (
                    fingerprint64_array(ids)
                    if ids.dtype == np.int64
                    else np.fromiter(map(fingerprint64, ids), dtype=np.uint64, count=len(ids))
                )
                fresh = self._user_hashes.offsets(fingerprints)
                for column, values in zip(columns, fresh):
                    column[have:need] = values
            cached = tuple(column[:need] for column in columns)
            self._offsets = cached
        return cached

    def _recover_rows(self, ordinals: np.ndarray) -> np.ndarray:
        """Packed rows of user ``ordinals`` recovered from the shared array."""
        h1, h2, _ = self._user_offsets()
        return self._user_hashes.recover_rows(h1[ordinals], h2[ordinals], self._array.storage)

    def packed_rows(self, users: Sequence[UserId]) -> np.ndarray:
        """Bit-packed virtual sketch rows, one user per row (public form).

        Each row packs the user's recovered virtual sketch 8 bits per byte and
        is padded to whole 64-bit words (:func:`packed_row_bytes`), so callers
        may reinterpret the matrix as ``uint64`` lanes.  This is the row
        representation both the bulk pair scorer and the LSH banding index
        (:mod:`repro.index`) consume; every read goes through the row memo,
        so rows an index rebuild recovers are hits for the queries after it.
        """
        return self._packed_rows(list(users))

    def shard_of(self, user: UserId) -> int:
        """The row shard owning ``user``: a single-array sketch is its own shard 0."""
        return 0

    def route(self, users: Sequence[UserId]):
        """:meth:`~repro.service.sharding.ShardedVOS.route` for one array: all shard 0's."""
        users = list(users)
        yield 0, np.arange(len(users)), users

    def split_by_shard(self, users: np.ndarray, inverse: np.ndarray):
        """:meth:`~repro.service.sharding.ShardedVOS.split_by_shard` for one
        array: every user and element is shard 0's."""
        yield 0, slice(None), slice(None)

    def row_shards(self) -> list["VirtualOddSketch"]:
        """Row sources for index structures: a single-array sketch is one shard.

        :class:`~repro.service.sharding.ShardedVOS` overrides this with its
        shard list; exposing the same hook here lets index structures treat
        both layouts uniformly (each source has its own array change stamp
        and its own users).
        """
        return [self]

    def sketch_cache_info(self) -> dict[str, int]:
        """Occupancy and hit/miss counters of the row memo."""
        entries = int(np.count_nonzero(self._row_stamps == self._rows_stamp))
        return {"entries": entries, "hits": self._row_hits, "misses": self._row_misses}

    # -- accounting ------------------------------------------------------------------------------

    def memory_bits(self) -> int:
        """The paper's cost model charges VOS exactly the ``m`` bits of ``A``."""
        return self._array.memory_bits()

    def memory_bytes(self) -> dict[str, int]:
        """Bytes held per layer: the shared array, the user table, the row
        memo, the users' position offsets ``(h1, h2, h2^-1)`` and the LSH
        table."""
        table = self.index_table
        return {
            "array": self._array.nbytes,
            "user_table": self._user_table.nbytes,
            "row_memo": self._rows.nbytes + self._row_stamps.nbytes,
            "offsets": sum(array.nbytes for array in self._offset_columns),
            "index": 0 if table is None else table.memory_bytes(),
        }
