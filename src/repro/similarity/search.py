"""Similar-pair search on top of a streaming sketch — the vectorized query path.

The example applications (duplicate detection, collaborative filtering) both
need more than a single pairwise query: they want "the most similar pairs
among these users" or "this user's nearest neighbours".  This module provides
those search primitives over any sketch implementing the common interface,
with an optional cardinality pre-filter that prunes pairs whose size ratio
already bounds their Jaccard coefficient below the requested threshold
(``J(A, B) <= min(|A|,|B|) / max(|A|,|B|)`` for any two sets).

All three search functions are built on the sketch interface's *bulk* query
API (:meth:`~repro.baselines.base.SimilaritySketch.estimate_jaccard_indexed`):
candidate pairs are enumerated as numpy index arrays in bounded-size blocks
of at most :data:`SEARCH_PAIR_BLOCK` pairs each, pruned with a vectorized
cardinality pre-filter, scored in bulk, and ranked lexicographically.  With
``candidates="all"`` the exhaustive enumeration is streamed, so memory stays
O(block) even for huge pools; ``candidates="lsh"`` scores only the
sub-quadratic subset an LSH banding index proposes (VOS-family sketches —
see :mod:`repro.index`), whose full candidate arrays are materialized once
for dedup before being re-chunked into the same blocks.  For VOS this makes the whole search a
handful of numpy passes; for sketches without a vectorized override the bulk
API falls back to the per-pair loop, so results are identical either way —
just slower.

Ordering is fully deterministic: pairs are ranked by descending Jaccard with
ties broken by the candidates' position in the sorted candidate list.  The
candidate sort key is type-safe (type name first, value second), so user
populations mixing e.g. ``int`` and ``str`` identifiers are handled instead
of raising ``TypeError`` — while pools of uniformly typed users keep their
natural order.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.baselines.base import SimilaritySketch
from repro.exceptions import ConfigurationError
from repro.index import BandedSketchIndex
from repro.obs import get_registry, trace
from repro.streams.edge import UserId, user_sort_key as _user_sort_key

#: Upper bound on candidate pairs enumerated and scored per bulk call.  The
#: all-pairs searches stream ``i < j`` blocks of at most this many pairs, so
#: their peak memory is O(block + result) rather than O(n^2) even though the
#: search itself remains quadratic in time.  Scoring a block materializes
#: roughly ten block-length float64/int64 temporaries across the index,
#: gather and estimator stages, so 2^20 pairs keeps the transient peak in the
#: tens of megabytes while still amortizing the per-call numpy overhead.
SEARCH_PAIR_BLOCK = 1 << 20


@dataclass(frozen=True)
class ScoredPair:
    """One scored candidate pair returned by the search functions."""

    user_a: UserId
    user_b: UserId
    jaccard: float
    common_items: float


def _candidate_users(
    sketch: SimilaritySketch, users: Iterable[UserId] | None, minimum_cardinality: int
) -> list[UserId]:
    """``users`` (default: all) the sketch has seen holding at least
    ``minimum_cardinality`` items, sorted.  Membership and cardinality come
    from one bulk read, which a sharded sketch routes once."""
    pool = list(sketch.users()) if users is None else list(users)
    counts = sketch.known_cardinalities(pool).tolist()
    floor = max(minimum_cardinality, 0)
    return sorted(
        (user for user, count in zip(pool, counts) if count >= floor), key=_user_sort_key
    )


def _at_least(
    sketch: SimilaritySketch, users: Sequence[UserId], minimum_cardinality: int
) -> list[UserId]:
    """The listed users holding at least ``minimum_cardinality`` items, in order."""
    counts = sketch.cardinalities(users).tolist()
    return [user for user, count in zip(users, counts) if count >= minimum_cardinality]


class _SketchUsers:
    """Every user of a VOS-family sketch as a filter, without building a set.

    ``in`` probes each row shard's user table at dict speed and ``len`` sums
    their sizes: O(shards) per call, where ``sketch.users()`` is O(users).
    This is the pool a bucket lookup filters by when the caller names no
    candidates.
    """

    __slots__ = ("_users",)

    def __init__(self, sketch) -> None:
        self._users = [shard.user_table.keys() for shard in sketch.row_shards()]

    def __contains__(self, user) -> bool:
        return any(user in users for users in self._users)

    def __len__(self) -> int:
        return sum(map(len, self._users))


def _size_ratio_bound(size_a: int, size_b: int) -> float:
    """An upper bound on the Jaccard coefficient implied by the set sizes alone."""
    if size_a == 0 or size_b == 0:
        return 0.0
    smaller, larger = min(size_a, size_b), max(size_a, size_b)
    return smaller / larger


def _iter_pair_blocks(
    num_candidates: int, block_pairs: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(index_a, index_b)`` blocks covering every ``i < j`` pair once.

    Pairs are produced in lexicographic ``(i, j)`` order, whole rows of the
    upper triangle at a time, with at most ``block_pairs`` pairs per block
    (single rows wider than the block stand alone).
    """
    if block_pairs is None:
        block_pairs = SEARCH_PAIR_BLOCK
    start = 0
    while start < num_candidates - 1:
        first_row_width = num_candidates - 1 - start
        rows = max(1, block_pairs // first_row_width)
        end = min(num_candidates - 1, start + rows)
        row_indices = np.arange(start, end, dtype=np.int64)
        counts = num_candidates - 1 - row_indices
        index_a = np.repeat(row_indices, counts)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        within_row = np.arange(index_a.shape[0], dtype=np.int64) - np.repeat(
            offsets, counts
        )
        yield index_a, index_a + 1 + within_row
        start = end


def _candidate_pair_blocks(
    sketch: SimilaritySketch,
    pool: Sequence[UserId],
    candidates: str,
    index: BandedSketchIndex | None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield candidate ``(index_a, index_b)`` blocks for the chosen strategy.

    ``"all"`` streams every ``i < j`` pair of the pool; ``"lsh"`` asks a
    :class:`~repro.index.banding.BandedSketchIndex` (the one supplied, or a
    fresh default-configured index) for its proposed subset and re-chunks it
    into the same bounded-size blocks, so scoring and memory behaviour are
    identical downstream — only the candidate enumeration changes.
    """
    if candidates == "all":
        yield from _iter_pair_blocks(len(pool))
        return
    if index is None:
        index = BandedSketchIndex(sketch)
    index_a, index_b = index.candidate_pairs(pool)
    for start in range(0, index_a.shape[0], SEARCH_PAIR_BLOCK):
        stop = start + SEARCH_PAIR_BLOCK
        yield index_a[start:stop], index_b[start:stop]


def _validate_candidates_mode(candidates: str) -> None:
    """Reject bad ``candidates=`` values eagerly, before any early return.

    Validating at function entry (like ``k`` and the thresholds) means a typo
    fails loudly even on pools too small to reach the block generator.
    """
    if candidates not in ("all", "lsh"):
        raise ConfigurationError(
            f"candidates must be 'all' or 'lsh', got {candidates!r}"
        )


def _prefilter_pairs(
    cardinalities: np.ndarray,
    index_a: np.ndarray,
    index_b: np.ndarray,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop pairs whose size-ratio bound is already below ``threshold``.

    Vectorized form of :func:`_size_ratio_bound`: for any two sets, ``J(A, B)
    <= min(|A|,|B|) / max(|A|,|B|)``, so pairs below the threshold cannot
    qualify regardless of overlap and no sketch query is spent on them.
    Selectivity is published as the ``query.prefilter.pairs_in`` /
    ``query.prefilter.pairs_kept`` counter pair.
    """
    sizes_a = cardinalities[index_a]
    sizes_b = cardinalities[index_b]
    larger = np.maximum(sizes_a, sizes_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = np.minimum(sizes_a, sizes_b) / larger
    bounds = np.where(larger == 0, 0.0, bounds)
    keep = bounds >= threshold
    index_a, index_b = index_a[keep], index_b[keep]
    registry = get_registry()
    if registry.enabled:
        registry.inc("query.prefilter.pairs_in", int(keep.size), unit="pairs")
        registry.inc("query.prefilter.pairs_kept", int(index_a.size), unit="pairs")
    return index_a, index_b


def _scored_jaccards(
    sketch: SimilaritySketch,
    pool: Sequence[UserId],
    index_a: np.ndarray,
    index_b: np.ndarray,
) -> np.ndarray:
    """Score one candidate block, timing it and counting pairs scored."""
    registry = get_registry()
    with trace("query.score_block", registry):
        jaccards = sketch.estimate_jaccard_indexed(pool, index_a, index_b)
    if registry.enabled:
        registry.inc("query.pairs_scored", int(index_a.size), unit="pairs")
    return jaccards


def _traced(name: str):
    """Wrap a search entry point in a ``repro.obs`` span of the given name."""

    def decorate(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with trace(name):
                return function(*args, **kwargs)

        return wrapper

    return decorate


def _ranked_scored_pairs(
    sketch: SimilaritySketch,
    candidates: Sequence[UserId],
    index_a: np.ndarray,
    index_b: np.ndarray,
    jaccards: np.ndarray,
) -> list[ScoredPair]:
    """Materialize :class:`ScoredPair` rows for already-ranked winner pairs.

    The common-item estimates are fetched with one bulk call over just the
    winners, compacted to the users they actually involve so a short result
    list never re-gathers the full candidate pool.
    """
    if index_a.size == 0:
        return []
    used = np.unique(np.concatenate([index_a, index_b]))
    remap = np.empty(int(used.max()) + 1, dtype=np.int64)
    remap[used] = np.arange(used.shape[0])
    sub_users = [candidates[int(position)] for position in used.tolist()]
    commons = sketch.estimate_common_items_indexed(
        sub_users, remap[index_a], remap[index_b]
    )
    return [
        ScoredPair(
            user_a=candidates[i],
            user_b=candidates[j],
            jaccard=jaccard,
            common_items=common,
        )
        for i, j, jaccard, common in zip(
            index_a.tolist(), index_b.tolist(), jaccards.tolist(), commons.tolist()
        )
    ]


@_traced("query.top_k_pairs")
def top_k_similar_pairs(
    sketch: SimilaritySketch,
    *,
    k: int = 10,
    users: Iterable[UserId] | None = None,
    minimum_cardinality: int = 1,
    prefilter_threshold: float = 0.0,
    candidates: str = "all",
    index: BandedSketchIndex | None = None,
) -> list[ScoredPair]:
    """Return the ``k`` most similar user pairs according to the sketch.

    Parameters
    ----------
    sketch:
        Any streaming similarity sketch (VOS, MinHash, ..., or the exact
        tracker).
    k:
        Number of pairs to return.
    users:
        Candidate users; defaults to every user the sketch has seen.  For
        large populations pass a pre-selected subset (e.g. the top-cardinality
        users) — the exhaustive search is quadratic in the candidate count.
    minimum_cardinality:
        Ignore users currently subscribing to fewer items than this.
    prefilter_threshold:
        If positive, skip pairs whose size-ratio bound
        ``min(|A|,|B|)/max(|A|,|B|)`` is already below the threshold — those
        pairs cannot reach it regardless of overlap, so no sketch query is
        spent on them.
    candidates:
        ``"all"`` (default) enumerates every pair of the pool; ``"lsh"``
        scores only the pairs a banding index proposes (a sub-quadratic
        candidate count, at the cost of possibly missing pairs — see
        :mod:`repro.index`).  VOS-family sketches only.
    index:
        A prebuilt :class:`~repro.index.banding.BandedSketchIndex` to use with
        ``candidates="lsh"`` (kept fresh incrementally across calls); when
        omitted a default-configured index is built for this call.

    Returns
    -------
    list of :class:`ScoredPair`, sorted by descending Jaccard estimate with
    ties broken by candidate order (deterministic for any input).  With
    ``candidates="lsh"`` the result is bit-identical to the exhaustive search
    whenever the proposed pairs cover the true top ``k``.
    """
    if k <= 0:
        raise ConfigurationError(f"k must be positive, got {k}")
    if not 0.0 <= prefilter_threshold <= 1.0:
        raise ConfigurationError("prefilter_threshold must be in [0, 1]")
    _validate_candidates_mode(candidates)
    pool = _candidate_users(sketch, users, minimum_cardinality)
    if len(pool) < 2:
        return []
    cardinalities = (
        sketch.cardinalities(pool) if prefilter_threshold > 0.0 else None
    )
    best: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    for index_a, index_b in _candidate_pair_blocks(sketch, pool, candidates, index):
        if cardinalities is not None:
            index_a, index_b = _prefilter_pairs(
                cardinalities, index_a, index_b, prefilter_threshold
            )
        if index_a.size == 0:
            continue
        jaccards = _scored_jaccards(sketch, pool, index_a, index_b)
        if best is not None:
            jaccards = np.concatenate([best[0], jaccards])
            index_a = np.concatenate([best[1], index_a])
            index_b = np.concatenate([best[2], index_b])
        # (jaccard, i, j) is a total order over pairs, so keeping the running
        # top k per block selects exactly the global top k.
        order = np.lexsort((index_b, index_a, -jaccards))[:k]
        best = (jaccards[order], index_a[order], index_b[order])
    if best is None:
        return []
    jaccards, index_a, index_b = best
    return _ranked_scored_pairs(sketch, pool, index_a, index_b, jaccards)


@_traced("query.nearest_neighbours")
def nearest_neighbours(
    sketch: SimilaritySketch,
    target: UserId,
    *,
    k: int = 10,
    candidates: Iterable[UserId] | None = None,
    minimum_cardinality: int = 1,
    index: BandedSketchIndex | None = None,
) -> list[ScoredPair]:
    """Return the ``k`` users most similar to ``target`` according to the sketch.

    ``candidates`` defaults to every other user the sketch has seen; pass a
    subset (e.g. high-cardinality users) to bound the linear scan.  Passing a
    banding ``index`` restricts the scan to the users sharing at least one
    band bucket with ``target`` (see
    :meth:`~repro.index.banding.BandedSketchIndex.neighbour_candidates`);
    with ``candidates=None`` too, the query then costs O(bucket members), not
    O(users): the buckets are looked up and only their members are filtered
    by ``minimum_cardinality``.
    """
    if k <= 0:
        raise ConfigurationError(f"k must be positive, got {k}")
    if not sketch.has_user(target):
        raise ConfigurationError(f"target user {target!r} has never appeared in the stream")
    if index is not None and candidates is None:
        proposed = index.neighbour_candidates(target, _SketchUsers(sketch))
        others = _at_least(sketch, proposed, minimum_cardinality)
    else:
        pool = _candidate_users(sketch, candidates, minimum_cardinality)
        others = [user for user in pool if user != target]
        if index is not None:
            # Filter rather than replace: repeats in ``candidates`` stay.
            proposed = set(index.neighbour_candidates(target, set(others)))
            others = [user for user in others if user in proposed]
    if not others:
        return []
    indexed_users = [target, *others]
    index_a = np.zeros(len(others), dtype=np.int64)
    index_b = np.arange(1, len(others) + 1, dtype=np.int64)
    jaccards = _scored_jaccards(sketch, indexed_users, index_a, index_b)
    order = np.lexsort((index_b, -jaccards))[:k]
    return _ranked_scored_pairs(
        sketch, indexed_users, index_a[order], index_b[order], jaccards[order]
    )


@_traced("query.pairs_above_threshold")
def pairs_above_threshold(
    sketch: SimilaritySketch,
    threshold: float,
    *,
    users: Iterable[UserId] | None = None,
    minimum_cardinality: int = 1,
    use_prefilter: bool = True,
    candidates: str = "all",
    index: BandedSketchIndex | None = None,
) -> list[ScoredPair]:
    """Return every candidate pair whose estimated Jaccard reaches ``threshold``.

    This is the screening primitive used by the duplicate-detection example:
    the sketch cheaply discards the vast majority of pairs and only the
    returned candidates need exact verification.  ``candidates="lsh"`` scores
    only the pairs a banding index proposes (see :func:`top_k_similar_pairs`)
    — a natural fit here, since the banding's own target threshold can be
    tuned to the screening threshold.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ConfigurationError("threshold must be in [0, 1]")
    _validate_candidates_mode(candidates)
    pool = _candidate_users(sketch, users, minimum_cardinality)
    if len(pool) < 2:
        return []
    cardinalities = (
        sketch.cardinalities(pool) if use_prefilter and threshold > 0.0 else None
    )
    kept: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for index_a, index_b in _candidate_pair_blocks(sketch, pool, candidates, index):
        if cardinalities is not None:
            index_a, index_b = _prefilter_pairs(
                cardinalities, index_a, index_b, threshold
            )
        if index_a.size == 0:
            continue
        jaccards = _scored_jaccards(sketch, pool, index_a, index_b)
        qualifying = jaccards >= threshold
        if np.any(qualifying):
            kept.append(
                (jaccards[qualifying], index_a[qualifying], index_b[qualifying])
            )
    if not kept:
        return []
    jaccards = np.concatenate([block[0] for block in kept])
    index_a = np.concatenate([block[1] for block in kept])
    index_b = np.concatenate([block[2] for block in kept])
    order = np.lexsort((index_b, index_a, -jaccards))
    return _ranked_scored_pairs(
        sketch, pool, index_a[order], index_b[order], jaccards[order]
    )


def ranking_agreement(
    reference: Sequence[ScoredPair], candidate: Sequence[ScoredPair], *, k: int | None = None
) -> float:
    """Fraction of the reference top-k pairs that also appear in the candidate top-k.

    A simple overlap@k measure used by examples and tests to quantify how well
    a sketch-based ranking reproduces the exact ranking.
    """
    if k is None:
        k = min(len(reference), len(candidate))
    if k == 0:
        return 1.0

    def key(pair: ScoredPair) -> tuple[UserId, UserId]:
        first, second = sorted((pair.user_a, pair.user_b), key=_user_sort_key)
        return (first, second)

    reference_keys = {key(pair) for pair in reference[:k]}
    candidate_keys = {key(pair) for pair in candidate[:k]}
    return len(reference_keys & candidate_keys) / k
