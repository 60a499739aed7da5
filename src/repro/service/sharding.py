"""Hash-partitioned VOS: N independent shards behind one sketch interface.

A single VOS instance serializes every update through one shared bit array.
:class:`ShardedVOS` partitions *users* across ``num_shards`` independent
:class:`~repro.core.vos.VirtualOddSketch` instances — each with its own
``m/N``-bit array and its own fill fraction ``beta`` — and routes every update
and query to the owning shard.  This is the scaling unit for the service
layer: shards share no mutable state, so they can later be ingested
concurrently or moved to separate processes without changing this interface.

Every shard is constructed with the *same* seed, hence the same item hash
``psi`` and the same user-hash family: virtual bit ``j`` means the same thing
in every shard, which is what makes **cross-shard pair queries** sound.  For a
pair living on shards ``a`` and ``b`` the recovered sketches are contaminated
by two different fill fractions, and the estimate uses the two-array
generalization of the paper's inversion
(:func:`repro.core.estimators.estimate_symmetric_difference_cross`):

    E[alpha] ≈ (1 - (1 - 2 beta_a)(1 - 2 beta_b) exp(-2 n_Δ / k)) / 2.

With one shard (or a same-shard pair) this reduces exactly to the paper's
single-array estimator, so ``ShardedVOS(num_shards=1, ...)`` is bit-for-bit
equivalent to a plain :class:`VirtualOddSketch`.

Memory under the paper's cost model is the per-shard cost summed: ``N *
ceil(m / N)`` bits for a total budget of ``m``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.baselines.base import SimilaritySketch
from repro.core.estimators import (
    estimate_common_items_cross,
    estimate_jaccard_cross,
    estimate_symmetric_difference_cross,
)
from repro.core.memory import MemoryBudget, vos_parameters_for_budget
from repro.core.vos import (
    VectorizedPairQueries,
    VirtualOddSketch,
    packed_row_bytes,
    pair_xor_counts,
)
from repro.exceptions import ConfigurationError
from repro.hashing import UniversalHash
from repro.hashing.universal import stable_hash64
from repro.streams.batch import ElementBatch, id_column
from repro.streams.edge import StreamElement, UserId


class ShardedVOS(VectorizedPairQueries, SimilaritySketch):
    """VOS state hash-partitioned across independent shards.

    Parameters
    ----------
    num_shards:
        Number of independent VOS partitions ``N``.
    shard_array_bits:
        Length of *each* shard's shared bit array (``ceil(m / N)`` when built
        from a total budget of ``m`` bits).
    virtual_sketch_size:
        Virtual odd-sketch bits ``k`` per user (identical in every shard).
    seed:
        Master seed.  All shards share it (same ``psi``, same user hashes);
        the user-to-shard router derives its own independent seed from it.

    Examples
    --------
    >>> from repro.streams import Action, StreamElement
    >>> vos = ShardedVOS(4, shard_array_bits=4096, virtual_sketch_size=256, seed=1)
    >>> for item in range(20):
    ...     vos.process(StreamElement(1, item, Action.INSERT))
    ...     vos.process(StreamElement(2, item, Action.INSERT))
    >>> round(vos.estimate_jaccard(1, 2), 1)
    1.0
    """

    name = "VOS-sharded"

    def __init__(
        self,
        num_shards: int,
        shard_array_bits: int,
        virtual_sketch_size: int,
        *,
        seed: int = 0,
    ) -> None:
        # No SimilaritySketch.__init__: each shard owns its users' table.
        if num_shards <= 0:
            raise ConfigurationError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = num_shards
        self.shard_array_bits = shard_array_bits
        self.virtual_sketch_size = virtual_sketch_size
        self.seed = seed
        self._shards = [
            VirtualOddSketch(shard_array_bits, virtual_sketch_size, seed=seed)
            for _ in range(num_shards)
        ]
        self._router = UniversalHash(
            range_size=num_shards, seed=stable_hash64(("vos-shard-router", seed))
        )

    # -- construction helpers --------------------------------------------------------

    @classmethod
    def from_shards(
        cls, shards: Sequence[VirtualOddSketch], *, seed: int
    ) -> "ShardedVOS":
        """Wrap existing shard sketches without allocating new arrays.

        The copy-on-publish epoch publisher assembles each frozen epoch from
        per-shard views (unchanged shards carried over by reference, changed
        shards re-wrapped around a patched copy) and injects them here, so
        building a published ``ShardedVOS`` costs O(num_shards), not
        O(state).  ``seed`` must be the writer's seed: it derives the user
        router, which must route exactly as the writer routed at ingest.
        """
        shards = list(shards)
        if not shards:
            raise ConfigurationError("from_shards requires at least one shard")
        first = shards[0]
        wrapper = cls.__new__(cls)
        wrapper.num_shards = len(shards)
        wrapper.shard_array_bits = first.shared_array_bits
        wrapper.virtual_sketch_size = first.virtual_sketch_size
        wrapper.seed = seed
        wrapper._shards = shards
        wrapper._router = UniversalHash(
            range_size=len(shards), seed=stable_hash64(("vos-shard-router", seed))
        )
        return wrapper

    @classmethod
    def from_budget(
        cls,
        budget: MemoryBudget,
        *,
        num_shards: int = 4,
        size_multiplier: float = 2.0,
        seed: int = 0,
    ) -> "ShardedVOS":
        """Split the paper's equal-memory budget evenly across ``num_shards``.

        The total ``m`` bits become ``N`` arrays of ``ceil(m / N)`` bits; the
        virtual sketch size follows the same λ rule as plain VOS, capped at
        the per-shard array length.
        """
        if num_shards <= 0:
            raise ConfigurationError(f"num_shards must be positive, got {num_shards}")
        parameters = vos_parameters_for_budget(budget, size_multiplier=size_multiplier)
        shard_bits = math.ceil(parameters.shared_array_bits / num_shards)
        virtual_size = min(parameters.virtual_sketch_size, shard_bits)
        return cls(num_shards, shard_bits, virtual_size, seed=seed)

    # -- routing ---------------------------------------------------------------------

    def shard_of(self, user: UserId) -> int:
        """Index of the shard owning ``user``."""
        return self._router(user)

    def shard_for(self, user: UserId) -> VirtualOddSketch:
        """The shard instance owning ``user``."""
        return self._shards[self._router(user)]

    @property
    def shards(self) -> list[VirtualOddSketch]:
        """The underlying shard sketches (exposed for snapshots and tests)."""
        return self._shards

    def row_shards(self) -> list[VirtualOddSketch]:
        """Per-shard packed-row sources for index structures.

        Users are hash-partitioned, so each user's packed sketch row lives in
        exactly one shard — but all shards share the same seed (same ``psi``,
        same user hashes), so rows, and hence LSH band signatures, remain
        comparable *across* shards.  The banding index keeps one signature
        table per source and merges them at query time, which is what makes
        cross-shard candidate pairs possible.
        """
        return list(self._shards)

    # -- stream consumption ----------------------------------------------------------

    def process(self, element: StreamElement) -> None:
        """Route one element to its owning shard (counters live in the shard)."""
        self._shards[self._router(element.user)].process(element)

    def shard_assignment(self, users: np.ndarray) -> np.ndarray:
        """Shard index per user for one id column, as an ``int64`` array.

        Integer columns are routed with one vectorized hash (bit-exact with
        the scalar router); ``object`` columns fall back to scalar hashing per
        value, so routing works for every hashable id; so do columns of at most
        16 ids, where the kernel call's fixed ~20 µs exceeds ~1 µs per id.
        """
        users = np.asarray(users)
        if users.dtype.kind in "iu" and users.shape[0] > 16:
            return self._router.hash_array(users)
        return np.fromiter(
            (self._router(user) for user in users.tolist()),
            dtype=np.int64,
            count=users.shape[0],
        )

    def _by_shard(self, assignment: np.ndarray):
        """Yield ``(shard_index, positions)`` per shard present in ``assignment``."""
        # A stable sort groups positions by shard with each group in input
        # order; the narrow dtype gets NumPy's O(n) radix sort.
        counts = np.bincount(assignment, minlength=self.num_shards)
        order = np.argsort(
            assignment.astype(np.min_scalar_type(self.num_shards - 1)), kind="stable"
        )
        start = 0
        for shard_index, count in enumerate(counts.tolist()):
            if count:
                yield shard_index, order[start : start + count]
                start += count

    def split_by_shard(self, batch: ElementBatch):
        """Yield ``(shard_index, sub_batch)`` pairs, order preserved per shard.

        One vectorized hash over the batch's user column assigns every element
        to its owning shard; each sub-batch is a NumPy ``select`` (no
        per-element list rebuilds).  Concatenating a shard's sub-batches over
        consecutive calls reproduces that shard's element subsequence in
        stream order, which is what makes batch ingest state-identical to
        per-element routing.
        """
        for shard_index, positions in self._by_shard(self.shard_assignment(batch.users)):
            yield shard_index, batch.select(positions)

    def route(self, users: Sequence[UserId]):
        """Yield ``(shard_index, positions, users)`` per owning shard, input order kept.

        One :meth:`shard_assignment`, grouped as :meth:`split_by_shard` groups a batch.
        """
        column = id_column(list(users))
        for shard_index, positions in self._by_shard(self.shard_assignment(column)):
            yield shard_index, positions, column[positions].tolist()

    def process_batch(self, elements) -> int:
        """Vectorized batch ingest: route by user, one sub-batch per shard.

        Accepts element iterables and array-native
        :class:`~repro.streams.batch.ElementBatch` objects alike.  The shard
        assignment is one vectorized hash over the batch's user column; each
        shard then runs its own vectorized ``process_batch`` on its column
        slice.  Relative element order is preserved per shard, so the result
        is state-identical to per-element routing.
        """
        batch = ElementBatch.coerce(elements)
        count = len(batch)
        if count == 0:
            return 0
        if self.num_shards == 1:
            return self._shards[0].process_batch(batch)
        for shard_index, sub_batch in self.split_by_shard(batch):
            self._shards[shard_index].process_batch(sub_batch)
        return count

    def _process_insertion(self, element: StreamElement) -> None:  # pragma: no cover
        raise NotImplementedError("ShardedVOS routes whole elements via process()")

    def _process_deletion(self, element: StreamElement) -> None:  # pragma: no cover
        raise NotImplementedError("ShardedVOS routes whole elements via process()")

    # -- per-user bookkeeping (delegated to the owning shard) ------------------------

    @property
    def user_table(self):
        """Not available: users are partitioned across the shards' tables."""
        raise ConfigurationError(
            "a ShardedVOS keeps one user table per shard; read shards[i].user_table"
        )

    def cardinality(self, user: UserId) -> int:
        return self.shard_for(user).cardinality(user)

    def cardinalities(self, users: Sequence[UserId]) -> np.ndarray:
        """Bulk :meth:`cardinality`: one :meth:`route` groups every user."""
        return self._routed_counts("cardinalities", users)

    def known_cardinalities(self, users: Sequence[UserId]) -> np.ndarray:
        """Bulk membership and cardinality (``-1`` for a user never seen) in
        one :meth:`route`."""
        return self._routed_counts("known_cardinalities", users)

    def _routed_counts(self, method: str, users: Sequence[UserId]) -> np.ndarray:
        users = list(users)
        counts = np.empty(len(users), dtype=np.int64)
        for shard_index, positions, members in self.route(users):
            counts[positions] = getattr(self._shards[shard_index], method)(members)
        return counts

    def has_user(self, user: UserId) -> bool:
        return self.shard_for(user).has_user(user)

    def users(self) -> set[UserId]:
        return set().union(*(shard.user_table.keys() for shard in self._shards))

    @property
    def num_users(self) -> int:
        """Users over all shards, in O(shards): shards partition the users."""
        return sum(shard.num_users for shard in self._shards)

    def counters(self) -> dict[UserId, int]:
        merged: dict[UserId, int] = {}
        for shard in self._shards:
            merged.update(shard.counters())
        return merged

    # -- queries ---------------------------------------------------------------------

    @property
    def beta(self) -> float:
        """Aggregate fill fraction: total set bits over total array bits."""
        ones = sum(shard.shared_array.ones_count for shard in self._shards)
        return ones / (self.num_shards * self.shard_array_bits)

    def betas(self) -> list[float]:
        """Per-shard fill fractions (load-balance diagnostics)."""
        return [shard.beta for shard in self._shards]

    def virtual_sketch(self, user: UserId) -> np.ndarray:
        """Recover ``Ô_u`` from the owning shard's array."""
        return self.shard_for(user).virtual_sketch(user)

    def pair_alpha(self, user_a: UserId, user_b: UserId) -> float:
        """Observed xor load ``alpha`` for a pair (shards may differ)."""
        sketch_a = self.virtual_sketch(user_a)
        sketch_b = self.virtual_sketch(user_b)
        return float(np.count_nonzero(sketch_a != sketch_b)) / self.virtual_sketch_size

    def estimate_symmetric_difference(self, user_a: UserId, user_b: UserId) -> float:
        return estimate_symmetric_difference_cross(
            self.pair_alpha(user_a, user_b),
            self.shard_for(user_a).beta,
            self.shard_for(user_b).beta,
            self.virtual_sketch_size,
        )

    def estimate_common_items(self, user_a: UserId, user_b: UserId) -> float:
        return estimate_common_items_cross(
            self.pair_alpha(user_a, user_b),
            self.shard_for(user_a).beta,
            self.shard_for(user_b).beta,
            self.virtual_sketch_size,
            self.cardinality(user_a),
            self.cardinality(user_b),
        )

    def estimate_jaccard(self, user_a: UserId, user_b: UserId) -> float:
        return estimate_jaccard_cross(
            self.pair_alpha(user_a, user_b),
            self.shard_for(user_a).beta,
            self.shard_for(user_b).beta,
            self.virtual_sketch_size,
            self.cardinality(user_a),
            self.cardinality(user_b),
        )

    # -- bulk queries ----------------------------------------------------------------

    def _indexed_pair_arrays(
        self, users: Sequence[UserId], index_a: np.ndarray, index_b: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """The :class:`~repro.core.vos.VectorizedPairQueries` hook across shards.

        One :meth:`route` groups the users by owning shard, so each shard
        performs one bulk packed-row read (through its own row memo); rows,
        fill fractions and cardinalities are scattered back into input order.
        Each pair side carries the fill fraction of the shard its user lives
        on, so the shared estimator entry points evaluate the two-array
        (cross-shard) generalization pair by pair.
        """
        rows = np.empty(
            (len(users), packed_row_bytes(self.virtual_sketch_size)), dtype=np.uint8
        )
        betas = np.empty(len(users), dtype=np.float64)
        cardinalities = np.empty(len(users), dtype=np.int64)
        for shard_index, positions, members in self.route(users):
            shard = self._shards[shard_index]
            rows[positions] = shard._packed_rows(members)
            betas[positions] = shard.beta
            cardinalities[positions] = shard.cardinalities(members)
        counts = pair_xor_counts(rows, index_a, index_b)
        alphas = counts.astype(np.float64) / self.virtual_sketch_size
        return (
            alphas,
            betas[index_a],
            betas[index_b],
            cardinalities[index_a],
            cardinalities[index_b],
        )

    def sketch_cache_info(self) -> dict[str, int]:
        """Aggregate row memo counters over all shards."""
        totals = {"entries": 0, "hits": 0, "misses": 0}
        for shard in self._shards:
            for key, value in shard.sketch_cache_info().items():
                totals[key] += value
        return totals

    # -- accounting ------------------------------------------------------------------

    def memory_bits(self) -> int:
        """The paper's cost model per shard, summed: ``N * ceil(m / N)`` bits."""
        return sum(shard.memory_bits() for shard in self._shards)

    def shard_report(self) -> list[dict[str, float | int]]:
        """Per-shard load summary (users, set bits, beta, memory, row cache)."""
        report = []
        for index, shard in enumerate(self._shards):
            cache = shard.sketch_cache_info()
            report.append(
                {
                    "shard": index,
                    "users": shard.num_users,
                    "ones": shard.shared_array.ones_count,
                    "beta": shard.beta,
                    "memory_bits": shard.memory_bits(),
                    "cache_entries": cache["entries"],
                    "cache_hits": cache["hits"],
                    "cache_misses": cache["misses"],
                }
            )
        return report
