"""VOS — the Virtual Odd Sketch streaming similarity sketch (Section IV).

The sketch consists of:

* a shared bit array ``A`` of ``m`` bits (:class:`~repro.core.bitarray.SharedBitArray`);
* an item hash ``psi : I -> {0, ..., k-1}`` selecting which virtual bit of a
  user's odd sketch an item toggles;
* a family of ``k`` user hashes ``f_0 ... f_{k-1} : U -> {0, ..., m-1}``
  selecting where each virtual bit lives inside ``A``;
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
from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from repro.baselines.base import SimilaritySketch, normalize_pair_indices
from repro.core.bitarray import SharedBitArray
from repro.core.estimators import (
    estimate_common_items,
    estimate_common_items_arrays,
    estimate_jaccard,
    estimate_jaccard_arrays,
    estimate_symmetric_difference,
    jaccard_from_common_arrays,
)
from repro.core.memory import MemoryBudget, vos_parameters_for_budget
from repro.exceptions import ConfigurationError, UnknownUserError
from repro.hashing import HashFamily, UniversalHash
from repro import kernels
from repro.obs import get_registry
from repro.hashing.universal import stable_hash64
from repro.streams.batch import ElementBatch
from repro.streams.edge import StreamElement, UserId

# Backwards-compatible aliases: the popcount primitives moved into the kernel
# tier package (PR 8), but callers and tests still patch/import them here.
from repro.kernels.numpy_tier import (  # noqa: E402  (re-export)
    _POPCOUNT8,
    _bitwise_count,
    _popcount_table,
)


def packed_row_bytes(sketch_size: int) -> int:
    """Bytes per bit-packed sketch row, padded to whole 64-bit words.

    The padding lets :func:`pair_xor_counts` xor and popcount rows as
    ``uint64`` lanes (8x fewer elementwise operations than per byte); pad bits
    are zero in every row, so they never affect a count.
    """
    return ((sketch_size + 63) // 64) * 8


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


class VectorizedPairQueries:
    """Mixin: the vectorized indexed estimators on top of one per-pair hook.

    A subclass provides :meth:`_indexed_pair_arrays` returning per-pair
    ``(alphas, betas_a, betas_b, cardinalities_a, cardinalities_b)`` — the
    betas may be scalars (one shared array) or per-pair arrays (cross-shard
    pairs) — and inherits the three bulk estimator entry points, all
    bit-identical to the scalar per-pair loop.  Used by both
    :class:`VirtualOddSketch` and :class:`~repro.service.sharding.ShardedVOS`.
    """

    virtual_sketch_size: int

    def _indexed_pair_arrays(
        self, users: Sequence[UserId], index_a: np.ndarray, index_b: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        raise NotImplementedError  # pragma: no cover - provided by subclasses

    def estimate_jaccard_indexed(
        self, users: Sequence[UserId], index_a, index_b
    ) -> np.ndarray:
        users = list(users)
        index_a, index_b = normalize_pair_indices(index_a, index_b)
        alphas, betas_a, betas_b, cards_a, cards_b = self._indexed_pair_arrays(
            users, index_a, index_b
        )
        return estimate_jaccard_arrays(
            alphas, betas_a, betas_b, self.virtual_sketch_size, cards_a, cards_b
        )

    def estimate_common_items_indexed(
        self, users: Sequence[UserId], index_a, index_b
    ) -> np.ndarray:
        users = list(users)
        index_a, index_b = normalize_pair_indices(index_a, index_b)
        alphas, betas_a, betas_b, cards_a, cards_b = self._indexed_pair_arrays(
            users, index_a, index_b
        )
        return estimate_common_items_arrays(
            alphas, betas_a, betas_b, self.virtual_sketch_size, cards_a, cards_b
        )

    def estimate_common_and_jaccard_indexed(
        self, users: Sequence[UserId], index_a, index_b
    ) -> tuple[np.ndarray, np.ndarray]:
        """One xor pass feeds both estimators; Jaccard derives from the commons."""
        users = list(users)
        index_a, index_b = normalize_pair_indices(index_a, index_b)
        alphas, betas_a, betas_b, cards_a, cards_b = self._indexed_pair_arrays(
            users, index_a, index_b
        )
        commons = estimate_common_items_arrays(
            alphas, betas_a, betas_b, self.virtual_sketch_size, cards_a, cards_b
        )
        return commons, jaccard_from_common_arrays(commons, cards_a, cards_b)


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

    The per-user bit positions ``f_j(u)`` are cached the first time a user is
    seen: this is a pure performance optimisation (positions are a
    deterministic function of the user id) and is not counted towards the
    sketch's memory under the paper's cost model, which charges only the
    ``m``-bit array.  Pass ``cache_positions=False`` to disable the cache and
    recompute positions on every access.

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
        cache_positions: bool = True,
        sketch_cache_size: int = 1024,
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
        if sketch_cache_size < 0:
            raise ConfigurationError(
                f"sketch_cache_size must be non-negative, got {sketch_cache_size}"
            )
        self.shared_array_bits = shared_array_bits
        self.virtual_sketch_size = virtual_sketch_size
        self.seed = seed
        self._array = SharedBitArray(shared_array_bits)
        self._item_hash = UniversalHash(
            range_size=virtual_sketch_size, seed=stable_hash64(("vos-psi", seed))
        )
        self._user_hashes = HashFamily(
            size=virtual_sketch_size,
            range_size=shared_array_bits,
            seed=stable_hash64(("vos-f", seed)),
        )
        self._cache_positions = cache_positions
        self._position_cache: dict[UserId, np.ndarray] = {}
        # LRU cache of hot users' recovered virtual sketches, stored bit-packed
        # (8 virtual bits per byte).  Entries are valid only for the shared
        # array stamp they were read at; any write invalidates them all,
        # which keeps query results indistinguishable from uncached reads.
        self._sketch_cache_size = sketch_cache_size
        self._sketch_cache: OrderedDict[UserId, np.ndarray] = OrderedDict()
        self._sketch_cache_stamp = -1
        self._sketch_cache_hits = 0
        self._sketch_cache_misses = 0
        # Guards the LRU bookkeeping only (lookups, insertions, eviction,
        # hit/miss counters) so concurrent readers — the serving daemon runs
        # many query threads against one published epoch — never interleave a
        # ``move_to_end`` with another thread's eviction.  The expensive
        # gather itself runs outside the lock.
        self._sketch_cache_lock = threading.Lock()

    # -- construction helpers --------------------------------------------------------

    @classmethod
    def from_budget(
        cls,
        budget: MemoryBudget,
        *,
        size_multiplier: float = 2.0,
        seed: int = 0,
        sketch_cache_size: int = 1024,
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
            sketch_cache_size=sketch_cache_size,
        )

    @classmethod
    def cow_view(
        cls,
        source: "VirtualOddSketch",
        array: SharedBitArray,
        cardinalities,
    ) -> "VirtualOddSketch":
        """A frozen read view over ``array``, sharing ``source``'s hash state.

        The serving daemon's incremental epoch publisher calls this once per
        publish: ``array`` wraps a private copy-on-write overlay of the shared
        arena (already patched with the publish delta) and ``cardinalities``
        is any read-only mapping of exact per-user counters.  Construction
        must cost O(1) in the corpus size, so instead of rebuilding the
        ``k``-hash user family (tens of milliseconds at service scale) the
        view shares ``source``'s hash objects and position cache by
        reference — positions are a deterministic function of (user, seed),
        so writer and views always agree on them.  The view gets its own
        packed-row LRU: row bytes differ per overlay.

        The view is a full :class:`VirtualOddSketch` for the read API but
        must never ingest; epoch services are frozen by contract.
        """
        if len(array) != source.shared_array_bits:
            raise ConfigurationError(
                f"cow_view array holds {len(array)} bits, "
                f"expected {source.shared_array_bits}"
            )
        view = cls.__new__(cls)
        SimilaritySketch.__init__(view)
        view._cardinalities = cardinalities
        view.shared_array_bits = source.shared_array_bits
        view.virtual_sketch_size = source.virtual_sketch_size
        view.seed = source.seed
        view._array = array
        view._item_hash = source._item_hash
        view._user_hashes = source._user_hashes
        view._cache_positions = source._cache_positions
        view._position_cache = source._position_cache
        view._sketch_cache_size = source._sketch_cache_size
        view._sketch_cache = OrderedDict()
        view._sketch_cache_stamp = -1
        view._sketch_cache_hits = 0
        view._sketch_cache_misses = 0
        view._sketch_cache_lock = threading.Lock()
        return view

    # -- position handling -------------------------------------------------------------

    def _positions(self, user: UserId) -> np.ndarray:
        """The shared-array positions of this user's ``k`` virtual bits."""
        cached = self._position_cache.get(user)
        if cached is not None:
            return cached
        positions = self._user_hashes.apply_all_array(user)
        if self._cache_positions:
            self._position_cache[user] = positions
        return positions

    def _position_of(self, user: UserId, virtual_index: int) -> int:
        """The shared-array position of one virtual bit (O(1), no full gather)."""
        cached = self._position_cache.get(user)
        if cached is not None:
            return int(cached[virtual_index])
        return self._user_hashes[virtual_index](user)

    def _positions_matrix(self, users: Sequence[UserId]) -> np.ndarray:
        """The ``(len(users), k)`` matrix of the users' virtual-bit positions.

        Rows of users already in the position cache are copied from it; all
        remaining rows are computed in one vectorized family evaluation
        (:meth:`~repro.hashing.families.HashFamily.apply_many_array`).
        """
        matrix = np.empty((len(users), self.virtual_sketch_size), dtype=np.int64)
        missing: list[int] = []
        for row, user in enumerate(users):
            cached = self._position_cache.get(user)
            if cached is None:
                missing.append(row)
            else:
                matrix[row] = cached
        if missing:
            computed = self._user_hashes.apply_many_array(
                [users[row] for row in missing]
            )
            matrix[missing] = computed
            if self._cache_positions:
                for offset, row in enumerate(missing):
                    self._position_cache[users[row]] = computed[offset]
        return matrix

    # -- streaming updates ----------------------------------------------------------------

    def _toggle(self, element: StreamElement) -> None:
        virtual_index = self._item_hash(element.item)
        position = self._position_of(element.user, virtual_index)
        self._array.xor_bit(position, 1)

    def _process_insertion(self, element: StreamElement) -> None:
        self._toggle(element)

    def _process_deletion(self, element: StreamElement) -> None:
        # Identical to insertion: xor cancels the earlier toggle of the same
        # item, which is exactly why VOS has no deletion bias.
        self._toggle(element)

    def process_batch(self, elements) -> int:
        """Vectorized batch ingest (bit-identical to the per-element loop).

        Accepts either an element iterable or an array-native
        :class:`~repro.streams.batch.ElementBatch`; element iterables are
        columnarized first, so both forms take the same code path.  The whole
        batch is reduced to numpy operations: one vectorized item hash ``psi``
        over the item column, one vectorized evaluation of the touched
        positions ``f_{psi(i)}(u)`` (each element pairs its user's fingerprint
        with the coefficient pair its virtual index selects — no per-user
        gather of all ``k`` positions is needed), and a single bulk xor into
        the shared array in which repeated toggles of the same position cancel
        modulo 2.  Because xor is commutative and the cardinality fold is
        exact, the resulting sketch state — shared-array bits, ``beta`` and
        per-user counters — is identical to feeding the elements one by one.

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
                self.process(element)
            return count
        users = batch.users
        unique_users, inverse = np.unique(users, return_inverse=True)
        self._fold_cardinality_deltas(unique_users, inverse, batch.deltas())
        virtual_indices = self._item_hash.hash_array(batch.items)
        self._array.xor_bulk(self._user_hashes.hash_pairs(users, virtual_indices))
        return count

    # -- queries -----------------------------------------------------------------------------

    @property
    def beta(self) -> float:
        """Current fill fraction of the shared array (the paper's ``beta^(t)``)."""
        return self._array.beta

    @property
    def shared_array(self) -> SharedBitArray:
        """The underlying shared array (exposed for analysis and tests)."""
        return self._array

    def virtual_sketch(self, user: UserId) -> np.ndarray:
        """Recover the user's virtual odd sketch ``Ô_u`` as a uint8 vector."""
        if not self.has_user(user):
            raise UnknownUserError(user)
        positions = self._positions(user)
        return self._array.read_bits(positions)

    # -- bulk queries ------------------------------------------------------------------

    def _packed_rows(self, users: Sequence[UserId]) -> np.ndarray:
        """Bit-packed virtual sketches, one row per user, via the LRU row cache.

        The cache is keyed on the shared array's latest change stamp: any ingest
        since the rows were read invalidates every entry (a single xor can
        land in any user's virtual bits), so cached reads are always exactly
        what an uncached gather would return.  Missing rows are recovered with
        one fancy-indexed read of the shared array and packed 8 bits/byte.
        """
        for user in users:
            if user not in self._cardinalities:
                raise UnknownUserError(user)
        stamp = self._array.latest_stamp
        row_bytes = packed_row_bytes(self.virtual_sketch_size)
        packed = np.zeros((len(users), row_bytes), dtype=np.uint8)
        missing: list[int] = []
        cache = self._sketch_cache
        with self._sketch_cache_lock:
            if stamp != self._sketch_cache_stamp:
                cache.clear()
                self._sketch_cache_stamp = stamp
            for row, user in enumerate(users):
                cached = cache.get(user) if self._sketch_cache_size else None
                if cached is None:
                    missing.append(row)
                else:
                    cache.move_to_end(user)
                    self._sketch_cache_hits += 1
                    packed[row] = cached
        if missing:
            missing_users = [users[row] for row in missing]
            fresh = self._gather_packed(missing_users)
            packed[missing] = fresh
            with self._sketch_cache_lock:
                self._sketch_cache_misses += len(missing)
                # Only populate while the stamp still matches: an ingest
                # racing this gather advanced the stamp, so these rows may
                # describe a mix of old and new bits.
                if self._sketch_cache_size and self._sketch_cache_stamp == stamp:
                    for offset, user in enumerate(missing_users):
                        # Copy the row out of the batch matrix: a cached view
                        # would pin the whole gather result in memory for as
                        # long as any one of its rows survives in the cache.
                        cache[user] = fresh[offset].copy()
                        cache.move_to_end(user)
                    while len(cache) > self._sketch_cache_size:
                        cache.popitem(last=False)
        registry = get_registry()
        if registry.enabled:
            hits = len(users) - len(missing)
            if hits:
                registry.inc("query.row_cache.hits", hits, unit="rows")
            if missing:
                registry.inc("query.row_cache.misses", len(missing), unit="rows")
        return packed

    def _gather_packed(self, users: Sequence[UserId]) -> np.ndarray:
        """Uncached bulk gather of bit-packed rows (callers validate users)."""
        row_bytes = packed_row_bytes(self.virtual_sketch_size)
        packed = np.zeros((len(users), row_bytes), dtype=np.uint8)
        if users:
            positions = self._positions_matrix(list(users))
            bits = np.packbits(self._array.read_bits(positions), axis=1)
            packed[:, : bits.shape[1]] = bits
        return packed

    def packed_rows(
        self, users: Sequence[UserId], *, cache: bool = True
    ) -> np.ndarray:
        """Bit-packed virtual sketch rows, one user per row (public form).

        Each row packs the user's recovered virtual sketch 8 bits per byte and
        is padded to whole 64-bit words (:func:`packed_row_bytes`), so callers
        may reinterpret the matrix as ``uint64`` lanes.  This is the row
        representation both the bulk pair scorer and the LSH banding index
        (:mod:`repro.index`) consume.  With ``cache=True`` reads go through
        the LRU row cache keyed on the shared array's latest change stamp;
        pass ``cache=False`` for one-shot whole-population sweeps (e.g. index
        rebuilds) so they neither churn nor evict the query-hot rows.
        """
        users = list(users)
        if cache:
            return self._packed_rows(users)
        for user in users:
            if user not in self._cardinalities:
                raise UnknownUserError(user)
        return self._gather_packed(users)

    def row_shards(self) -> list["VirtualOddSketch"]:
        """Row sources for index structures: a single-array sketch is one shard.

        :class:`~repro.service.sharding.ShardedVOS` overrides this with its
        shard list; exposing the same hook here lets index structures treat
        both layouts uniformly (each source has its own array change stamp
        and its own users).
        """
        return [self]

    def sketch_matrix(self, users: Sequence[UserId]) -> np.ndarray:
        """Recover many users' virtual sketches as an ``(n, k)`` uint8 bit matrix.

        Row ``i`` equals ``virtual_sketch(users[i])``; the whole matrix is
        gathered with one fancy-indexed read of the shared array (plus the
        packed-row cache for users queried recently).
        """
        users = list(users)
        packed = self._packed_rows(users)
        return np.unpackbits(packed, axis=1, count=self.virtual_sketch_size)

    def sketch_cache_info(self) -> dict[str, int]:
        """Occupancy and hit/miss counters of the packed-row LRU cache."""
        return {
            "entries": len(self._sketch_cache),
            "capacity": self._sketch_cache_size,
            "hits": self._sketch_cache_hits,
            "misses": self._sketch_cache_misses,
        }

    def _indexed_pair_arrays(
        self, users: Sequence[UserId], index_a: np.ndarray, index_b: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """The :class:`VectorizedPairQueries` hook for a single shared array.

        One packed-row gather for the unique users, then blockwise xor +
        popcount over the pair index arrays; both sides of every pair share
        the global fill fraction ``beta``.
        """
        rows = self._packed_rows(users)
        counts = pair_xor_counts(rows, index_a, index_b)
        alphas = counts.astype(np.float64) / self.virtual_sketch_size
        cardinalities = self.cardinalities(users)
        beta = self.beta
        return alphas, beta, beta, cardinalities[index_a], cardinalities[index_b]

    def pair_alpha(self, user_a: UserId, user_b: UserId) -> float:
        """The observed xor load ``alpha`` for a user pair."""
        sketch_a = self.virtual_sketch(user_a)
        sketch_b = self.virtual_sketch(user_b)
        return float(np.count_nonzero(sketch_a != sketch_b)) / self.virtual_sketch_size

    def estimate_symmetric_difference(self, user_a: UserId, user_b: UserId) -> float:
        """Estimate ``n_Δ = |S_u Δ S_v|`` for the pair."""
        return estimate_symmetric_difference(
            self.pair_alpha(user_a, user_b), self.beta, self.virtual_sketch_size
        )

    def estimate_common_items(self, user_a: UserId, user_b: UserId) -> float:
        return estimate_common_items(
            self.pair_alpha(user_a, user_b),
            self.beta,
            self.virtual_sketch_size,
            self.cardinality(user_a),
            self.cardinality(user_b),
        )

    def estimate_jaccard(self, user_a: UserId, user_b: UserId) -> float:
        return estimate_jaccard(
            self.pair_alpha(user_a, user_b),
            self.beta,
            self.virtual_sketch_size,
            self.cardinality(user_a),
            self.cardinality(user_b),
        )

    # -- change tracking -------------------------------------------------------------------------

    def dirty_info(self, since: int) -> dict[str, int]:
        """State changed after cursor ``since``: 64-bit words and counters."""
        return {
            "dirty_words": int(self._array.dirty_words(since).size),
            "dirty_counters": len(self.changed_users(since)),
        }

    # -- accounting ------------------------------------------------------------------------------

    def memory_bits(self) -> int:
        """The paper's cost model charges VOS exactly the ``m`` bits of ``A``."""
        return self._array.memory_bits()
