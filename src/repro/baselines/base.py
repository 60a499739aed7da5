"""Common interface shared by every similarity sketch in the library.

The evaluation harness (and downstream users) should be able to swap VOS,
MinHash, OPH, RP and the exact tracker freely.  :class:`SimilaritySketch`
defines the contract; :class:`PairEstimate` is the uniform result record.

The contract mirrors the quantities in the paper:

* ``estimate_common_items(u, v)``  ->  estimate of ``s_uv = |S_u ∩ S_v|``
* ``estimate_jaccard(u, v)``       ->  estimate of ``J(S_u, S_v)``
* ``cardinality(u)``               ->  the exact counter ``n_u = |S_u|`` that
  every method maintains (the paper notes a plain counter tracks it).
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, UnknownUserError
from repro.hashing.bitpack import next_stamp
from repro.streams.edge import StreamElement, UserId


@dataclass(frozen=True)
class PairEstimate:
    """Estimates a sketch produced for one user pair at one point in time.

    Attributes
    ----------
    user_a, user_b:
        The pair of users.
    common_items:
        Estimated number of common items ``s_uv``.
    jaccard:
        Estimated Jaccard coefficient.
    """

    user_a: UserId
    user_b: UserId
    common_items: float
    jaccard: float


def jaccard_from_common(common: float, size_a: float, size_b: float) -> float:
    """Convert a common-item estimate into a Jaccard estimate.

    Uses ``J = s / (|A| + |B| - s)`` and clamps the result into ``[0, 1]`` so
    noisy estimates never produce out-of-range similarities.
    """
    union = size_a + size_b - common
    if union <= 0:
        # Either both sets are empty (identical -> 1) or the common-item
        # estimate overshoots the union entirely (clamp at full similarity
        # when there is anything in common, and at 0 for an all-empty guess).
        return 1.0 if (common > 0 or (size_a == 0 and size_b == 0)) else 0.0
    return min(1.0, max(0.0, common / union))


def normalize_pair_indices(index_a, index_b) -> tuple[np.ndarray, np.ndarray]:
    """Ravel two pair-index columns to ``int64`` and require equal lengths.

    Shared by every implementation of the indexed bulk estimators so a
    mismatched pair of index columns fails loudly instead of silently
    truncating to the shorter column.
    """
    index_a = np.asarray(index_a, dtype=np.int64).ravel()
    index_b = np.asarray(index_b, dtype=np.int64).ravel()
    if index_a.shape != index_b.shape:
        raise ConfigurationError(
            f"pair index arrays differ in length "
            f"({index_a.shape[0]} vs {index_b.shape[0]})"
        )
    return index_a, index_b


def dedup_pair_users(
    users_a: Iterable[UserId], users_b: Iterable[UserId]
) -> tuple[list[UserId], np.ndarray, np.ndarray]:
    """Collapse two parallel user columns into unique users plus index arrays.

    Returns ``(users, index_a, index_b)`` such that pair ``t`` is
    ``(users[index_a[t]], users[index_b[t]])``.  The bulk estimators work on
    this indexed form so each distinct user's sketch is gathered exactly once
    no matter how many pairs it appears in.
    """
    indices: dict[UserId, int] = {}

    def index_of(user: UserId) -> int:
        found = indices.get(user)
        if found is None:
            found = len(indices)
            indices[user] = found
        return found

    index_a = np.fromiter((index_of(user) for user in users_a), dtype=np.int64)
    index_b = np.fromiter((index_of(user) for user in users_b), dtype=np.int64)
    if index_a.shape != index_b.shape:
        raise ConfigurationError(
            f"pair columns differ in length ({index_a.shape[0]} vs {index_b.shape[0]})"
        )
    return list(indices), index_a, index_b


def common_from_jaccard(jaccard: float, size_a: float, size_b: float) -> float:
    """Convert a Jaccard estimate into a common-item estimate.

    Uses ``s = J * (|A| + |B|) / (J + 1)`` (the identity from Section II of
    the paper) and clamps into ``[0, min(|A|, |B|)]``.
    """
    if jaccard <= 0:
        return 0.0
    common = jaccard * (size_a + size_b) / (jaccard + 1.0)
    return min(common, float(min(size_a, size_b)))


class SimilaritySketch(abc.ABC):
    """Abstract base class for all streaming similarity sketches.

    Subclasses implement :meth:`_process_insertion`, :meth:`_process_deletion`
    and the two estimators.  The base class maintains the exact per-user item
    counters ``n_u`` (the paper explicitly keeps these as plain counters for
    every method) and tracks the set of users ever seen.
    """

    #: Human-readable method name used in reports; subclasses override.
    name: str = "sketch"

    def __init__(self) -> None:
        self._cardinalities: dict[UserId, int] = {}
        # When each user's counter last changed, as a stamp of the shared
        # change clock (:func:`repro.hashing.bitpack.next_stamp`) — the
        # counter analogue of the shared array's per-word stamps.  A changed
        # user is re-inserted at the end, so the dict stays ordered by stamp
        # and :meth:`changed_users` reads newest-first, stopping at the first
        # stamp at or before the cursor: O(changed users), not O(users).
        self._counter_stamps: dict[UserId, int] = {}

    # -- stream consumption --------------------------------------------------------

    def process(self, element: StreamElement) -> None:
        """Consume one stream element, updating counters and the sketch."""
        user = element.user
        if element.is_insertion:
            self._cardinalities[user] = self._cardinalities.get(user, 0) + 1
            self._process_insertion(element)
        else:
            self._cardinalities[user] = max(0, self._cardinalities.get(user, 0) - 1)
            self._process_deletion(element)
        stamps = self._counter_stamps
        stamps.pop(user, None)
        stamps[user] = next_stamp()

    def process_stream(self, elements: Iterable[StreamElement]) -> None:
        """Consume every element of an iterable (convenience wrapper)."""
        for element in elements:
            self.process(element)

    def process_batch(self, elements: Sequence[StreamElement]) -> int:
        """Consume a batch of stream elements and return how many were processed.

        The contract is *state equivalence*: after ``process_batch(batch)`` the
        sketch must be in exactly the state that per-element
        :meth:`process` calls over the same batch would have produced.  The
        default implementation is the per-element loop; sketches with a
        vectorized fast path (VOS) override it.  The service layer
        (:mod:`repro.service`) feeds all ingest through this hook.
        """
        count = 0
        for element in elements:
            self.process(element)
            count += 1
        return count

    def _fold_cardinality_deltas(
        self,
        unique_users: np.ndarray,
        inverse: np.ndarray,
        deltas: np.ndarray,
    ) -> None:
        """Apply a batch of per-element cardinality deltas exactly.

        ``unique_users``/``inverse`` come from ``np.unique(users,
        return_inverse=True)`` over the batch's user column and ``deltas`` is
        ``+1`` per insertion / ``-1`` per deletion in batch order.  The
        per-element recurrence is ``c := c + 1`` on insert and ``c := max(0, c
        - 1)`` on delete; the fold applies each user's net delta in one shot
        and only replays the rare users whose running counter would have been
        clamped at zero mid-batch, so the result is identical to the
        per-element loop for every input.
        """
        counts = np.bincount(inverse)
        order = np.argsort(inverse, kind="stable")
        ends = np.cumsum(counts)
        starts = ends - counts
        sorted_deltas = deltas[order]
        prefix = np.cumsum(sorted_deltas)
        group_base = np.concatenate(([0], prefix[ends[:-1] - 1]))
        within = prefix - np.repeat(group_base, counts)
        minima = np.minimum.reduceat(within, starts)
        totals = within[ends - 1]
        users_list = unique_users.tolist()
        initial = np.fromiter(
            (self._cardinalities.get(user, 0) for user in users_list),
            dtype=np.int64,
            count=len(users_list),
        )
        finals = initial + totals
        for index in np.flatnonzero(initial + minima < 0).tolist():
            value = int(initial[index])
            for delta in sorted_deltas[starts[index] : ends[index]].tolist():
                value = value + delta if delta > 0 else max(0, value + delta)
            finals[index] = value
        self.overwrite_cardinalities(users_list, finals.tolist())

    @abc.abstractmethod
    def _process_insertion(self, element: StreamElement) -> None:
        """Handle a subscription event."""

    @abc.abstractmethod
    def _process_deletion(self, element: StreamElement) -> None:
        """Handle an unsubscription event."""

    # -- queries --------------------------------------------------------------------

    def cardinality(self, user: UserId) -> int:
        """Exact number of items currently subscribed by ``user`` (``n_u``)."""
        if user not in self._cardinalities:
            raise UnknownUserError(user)
        return self._cardinalities[user]

    def has_user(self, user: UserId) -> bool:
        """Whether ``user`` has ever appeared in the stream."""
        return user in self._cardinalities

    def users(self) -> set[UserId]:
        """All users ever observed."""
        return set(self._cardinalities)

    def overwrite_cardinalities(self, users: list, counts: list) -> None:
        """Set the listed users' counters to absolute values and stamp them changed.

        The batch fold and shard-delta replay both land counters here, so
        every counter write is visible to :meth:`changed_users`.
        """
        cardinalities = self._cardinalities
        pop = self._counter_stamps.pop
        for user, count in zip(users, counts):
            cardinalities[user] = count
            pop(user, None)
        self._counter_stamps.update(dict.fromkeys(users, next_stamp()))

    def changed_users(self, since: int) -> list[UserId]:
        """Users whose counter changed after cursor ``since``, newest first."""
        changed = []
        for user, stamp in reversed(self._counter_stamps.items()):
            if stamp <= since:
                break
            changed.append(user)
        return changed

    @abc.abstractmethod
    def estimate_common_items(self, user_a: UserId, user_b: UserId) -> float:
        """Estimate ``s_uv``, the number of items both users currently subscribe to."""

    def estimate_jaccard(self, user_a: UserId, user_b: UserId) -> float:
        """Estimate the Jaccard coefficient between the two users' item sets.

        The default implementation derives Jaccard from the common-item
        estimate via the identity in Section II; subclasses with a more
        natural direct Jaccard estimator (MinHash, OPH) override this.
        """
        common = self.estimate_common_items(user_a, user_b)
        return jaccard_from_common(
            common, self.cardinality(user_a), self.cardinality(user_b)
        )

    def estimate_pair(self, user_a: UserId, user_b: UserId) -> PairEstimate:
        """Return both estimates for a pair as a :class:`PairEstimate`."""
        return PairEstimate(
            user_a=user_a,
            user_b=user_b,
            common_items=self.estimate_common_items(user_a, user_b),
            jaccard=self.estimate_jaccard(user_a, user_b),
        )

    # -- bulk queries ------------------------------------------------------------------
    #
    # The serving layer scores pairs by the hundreds of thousands, so the
    # query contract has a bulk form.  The *indexed* methods are the primitive
    # — pair ``t`` is ``(users[index_a[t]], users[index_b[t]])``, letting a
    # caller that already holds a deduplicated candidate list avoid any
    # per-pair Python objects — and the ``_many``/``estimate_pairs`` forms are
    # conveniences built on top.  The defaults below are per-pair loops so
    # every sketch supports the bulk API; VOS (and its sharded variant)
    # override the indexed methods with truly vectorized versions that are
    # bit-identical to these loops.

    def estimate_jaccard_indexed(
        self, users: Sequence[UserId], index_a, index_b
    ) -> np.ndarray:
        """Jaccard estimates for the pairs ``(users[index_a[t]], users[index_b[t]])``."""
        users = list(users)
        index_a, index_b = normalize_pair_indices(index_a, index_b)
        return np.fromiter(
            (
                self.estimate_jaccard(users[i], users[j])
                for i, j in zip(index_a.tolist(), index_b.tolist())
            ),
            dtype=np.float64,
            count=index_a.shape[0],
        )

    def estimate_common_items_indexed(
        self, users: Sequence[UserId], index_a, index_b
    ) -> np.ndarray:
        """Common-item estimates for the pairs ``(users[index_a[t]], users[index_b[t]])``."""
        users = list(users)
        index_a, index_b = normalize_pair_indices(index_a, index_b)
        return np.fromiter(
            (
                self.estimate_common_items(users[i], users[j])
                for i, j in zip(index_a.tolist(), index_b.tolist())
            ),
            dtype=np.float64,
            count=index_a.shape[0],
        )

    def estimate_jaccard_many(self, users_a, users_b) -> np.ndarray:
        """Jaccard estimates for the pairs ``zip(users_a, users_b)`` as a float array."""
        users, index_a, index_b = dedup_pair_users(users_a, users_b)
        return self.estimate_jaccard_indexed(users, index_a, index_b)

    def estimate_common_items_many(self, users_a, users_b) -> np.ndarray:
        """Common-item estimates for the pairs ``zip(users_a, users_b)``."""
        users, index_a, index_b = dedup_pair_users(users_a, users_b)
        return self.estimate_common_items_indexed(users, index_a, index_b)

    def estimate_common_and_jaccard_indexed(
        self, users: Sequence[UserId], index_a, index_b
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both estimate arrays for the indexed pairs.

        Vectorized sketches override this so the two arrays share a single
        sketch gather and xor pass; the default simply issues the two
        per-estimate calls.
        """
        return (
            self.estimate_common_items_indexed(users, index_a, index_b),
            self.estimate_jaccard_indexed(users, index_a, index_b),
        )

    def estimate_pairs(
        self, pairs: Iterable[tuple[UserId, UserId]]
    ) -> list[PairEstimate]:
        """Both estimates for every listed pair (bulk :meth:`estimate_pair`)."""
        pairs = list(pairs)
        users, index_a, index_b = dedup_pair_users(
            (pair[0] for pair in pairs), (pair[1] for pair in pairs)
        )
        commons, jaccards = self.estimate_common_and_jaccard_indexed(
            users, index_a, index_b
        )
        return [
            PairEstimate(user_a=a, user_b=b, common_items=common, jaccard=jaccard)
            for (a, b), common, jaccard in zip(
                pairs, commons.tolist(), jaccards.tolist()
            )
        ]

    # -- accounting -------------------------------------------------------------------

    @abc.abstractmethod
    def memory_bits(self) -> int:
        """Memory the sketch accounts for under the paper's cost model (in bits).

        The per-user cardinality counters are excluded: the paper keeps them
        for every method, so they cancel out of the comparison.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} users={len(self._cardinalities)}>"
