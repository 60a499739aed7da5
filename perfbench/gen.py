"""Seeded inputs and exact ground truth for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the same
population, the same stream files and the same request sequences, so counts
and quality metrics repeat exactly and only timings vary between runs.

The population is a power-law user-item graph built from near-duplicate
communities: users come in groups of :data:`GROUP_SIZE` that share one taste
set (power-law sized, items drawn from a power-law popularity curve), each
member keeping almost every taste item plus a few popular extras.  That is
the regime the LSH banding index is built for (duplicate detection,
look-alike audiences), so an LSH ``nearest`` finds a full top-10 and recall
against exact Jaccard is a meaningful number.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Users per near-duplicate community.
GROUP_SIZE = 16
#: Item universe (ids are ``0 .. NUM_ITEMS - 1``).
NUM_ITEMS = 400_000
#: Taste-set sizes: ``MAX_TASTE / sqrt(rank + 1)``, floored at ``MIN_TASTE``.
MIN_TASTE, MAX_TASTE = 40, 400
#: Probability a member keeps each taste item; extras are Poisson(rate * taste).
KEEP_TASTE, EXTRA_RATE = 0.985, 0.01
#: Item popularity exponent (Zipf-like over item rank).
ITEM_EXPONENT = 0.7


def _rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, purpose) pair."""
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


def _popular_items(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` item ids drawn from the power-law popularity curve."""
    weights = 1.0 / np.arange(1, NUM_ITEMS + 1) ** ITEM_EXPONENT
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, rng.random(count)), NUM_ITEMS - 1)


def edge_keys(users: np.ndarray, items: np.ndarray) -> np.ndarray:
    return users.astype(np.int64) * NUM_ITEMS + items.astype(np.int64)


def split_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return keys // NUM_ITEMS, keys % NUM_ITEMS


def population(seed: int, num_users: int, first_user: int = 0) -> np.ndarray:
    """The base graph as distinct edge keys, in a seeded random order.

    Users are ``first_user .. first_user + num_users - 1``.  Taste-set sizes
    are a seeded permutation of one fixed list, so the edge count barely
    moves from seed to seed (only the keep/extra draws vary).
    """
    rng = _rng(seed, f"population-{first_user}")
    groups = num_users // GROUP_SIZE
    ranks = rng.permutation(groups)
    taste_sizes = np.maximum(MIN_TASTE, MAX_TASTE / np.sqrt(ranks + 1)).astype(np.int64)
    taste = _popular_items(rng, int(taste_sizes.sum()))
    taste_start = np.concatenate(([0], np.cumsum(taste_sizes)[:-1]))
    group_of = np.arange(num_users) // GROUP_SIZE
    per_user = taste_sizes[group_of]
    member = np.repeat(np.arange(num_users), per_user)
    within = np.arange(per_user.sum()) - np.repeat(np.cumsum(per_user) - per_user, per_user)
    taste_items = taste[np.repeat(taste_start[group_of], per_user) + within]
    kept = rng.random(taste_items.size) < KEEP_TASTE
    extras = rng.poisson(EXTRA_RATE * per_user)
    users = first_user + np.concatenate([member[kept], np.repeat(np.arange(num_users), extras)])
    items = np.concatenate([taste_items[kept], _popular_items(rng, int(extras.sum()))])
    keys = np.unique(edge_keys(users, items))
    return keys[rng.permutation(keys.size)]


def transient_keys(seed: int, base: np.ndarray, count: int, num_users: int) -> np.ndarray:
    """``count`` distinct edges absent from ``base`` (short-lived subscriptions)."""
    rng = _rng(seed, "transient")
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < count:
        draw = int((count - chosen.size) * 1.2) + 64
        candidates = edge_keys(rng.integers(0, num_users, draw), _popular_items(rng, draw))
        candidates = candidates[~np.isin(candidates, base)]
        merged = np.concatenate([chosen, candidates])
        _, first = np.unique(merged, return_index=True)
        chosen = merged[np.sort(first)]
    return chosen[:count]


def churn_stream(
    seed: int, base: np.ndarray, num_users: int, chunk: int, delete_share: float
):
    """A fully dynamic stream whose final live edge set is exactly ``base``.

    Chunk ``c`` inserts its share of the base edges plus fresh transient
    edges, and deletes every transient edge chunk ``c - 1`` inserted, all
    shuffled together; the last chunk inserts no transients, so nothing
    transient survives.  Transients are sized so ``delete_share`` of all
    events are deletions: ``T / (B + 2T) = delete_share``.  Returns an
    ``ElementBatch``.
    """
    from repro.streams import ElementBatch

    rng = _rng(seed, "churn-order")
    transient_total = int(base.size * delete_share / (1.0 - 2.0 * delete_share))
    events = base.size + 2 * transient_total
    chunks = max(2, -(-events // chunk))
    base_parts = np.array_split(base, chunks)
    transients = np.array_split(
        transient_keys(seed, base, transient_total, num_users), chunks - 1
    ) + [np.empty(0, dtype=np.int64)]
    keys, signs = [], []
    previous = np.empty(0, dtype=np.int64)
    for base_part, transient in zip(base_parts, transients):
        chunk_keys = np.concatenate([base_part, transient, previous])
        chunk_signs = np.concatenate(
            [np.ones(base_part.size + transient.size, np.int8), -np.ones(previous.size, np.int8)]
        )
        order = rng.permutation(chunk_keys.size)
        keys.append(chunk_keys[order])
        signs.append(chunk_signs[order])
        previous = transient
    users, items = split_keys(np.concatenate(keys))
    return ElementBatch(users, items, np.concatenate(signs))


def insert_stream(keys: np.ndarray):
    """``keys`` inserted in order, as an ``ElementBatch``."""
    from repro.streams import ElementBatch

    users, items = split_keys(keys)
    return ElementBatch(users, items, np.ones(keys.size, dtype=np.int8))


# -- requests ---------------------------------------------------------------------------


def read_requests(
    seed: int,
    keys: np.ndarray,
    num_users: int,
    rotations: int,
    pairs: int,
    pool: int,
    nearest_min_items: int,
) -> list[dict]:
    """One request rotation per entry: a nearest user, estimate pairs, a pool.

    Users are drawn with probability proportional to their cardinality
    (popularity-skewed).  ``nearest`` asks only for users holding at least
    ``nearest_min_items`` items: a 40-item user's sparse sketch row can leave
    the LSH index with fewer than k candidates (about 1 query in 1,000).
    """
    rng = _rng(seed, "reads")
    cards = np.bincount(split_keys(keys)[0], minlength=num_users).astype(np.float64)
    established = np.where(cards >= nearest_min_items, cards, 0.0)

    def sample(weights: np.ndarray, size: int, replace: bool = True) -> list[int]:
        chosen = rng.choice(num_users, size=size, replace=replace, p=weights / weights.sum())
        return [int(user) for user in chosen]

    rotations_list = []
    for _ in range(rotations):
        left, right = sample(cards, pairs), sample(cards, pairs)
        rotations_list.append(
            {
                "nearest": sample(established, 1)[0],
                "pairs": [[a, b] for a, b in zip(left, right)],
                "pool": sample(cards, pool, replace=False),
            }
        )
    return rotations_list


def churn_writes(
    seed: int, held_out: np.ndarray, writes: int, per_write: int, delete_share: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Write batches as ``(insert_keys, delete_keys)``.

    Batch ``w`` inserts ``per_write`` held-out edges and deletes a seeded
    ``delete_share`` of batch ``w - 1``'s inserts (all still live).
    """
    rng = _rng(seed, "writes")
    batches = []
    previous = np.empty(0, dtype=np.int64)
    for w in range(writes):
        inserts = held_out[w * per_write : (w + 1) * per_write]
        deletes = previous[rng.random(previous.size) < delete_share]
        batches.append((inserts, deletes))
        previous = inserts
    return batches


# -- exact ground truth -----------------------------------------------------------------


class ExactGraph:
    """The generator's live edge set, answering exact Jaccard questions."""

    def __init__(self, keys: np.ndarray, num_users: int) -> None:
        self.num_users = num_users
        self._set(np.sort(keys))

    def _set(self, keys: np.ndarray) -> None:
        self.keys = keys
        self.users, self.items = split_keys(keys)
        self.cards = np.bincount(self.users, minlength=self.num_users)

    def apply(self, inserts: np.ndarray, deletes: np.ndarray) -> None:
        """Apply one write batch (deleted edges are live, inserted ones new)."""
        kept = np.delete(self.keys, np.searchsorted(self.keys, deletes))
        inserts = np.sort(inserts)
        self._set(np.insert(kept, np.searchsorted(kept, inserts), inserts))

    def intersections(self, user: int) -> np.ndarray:
        """Common-item counts of ``user`` with every user."""
        lo, hi = np.searchsorted(self.keys, [user * NUM_ITEMS, (user + 1) * NUM_ITEMS])
        mine = self.items[lo:hi]
        hits = self.users[np.isin(self.items, mine)]
        return np.bincount(hits, minlength=self.num_users)

    def jaccards(self, user: int) -> np.ndarray:
        common = self.intersections(user).astype(np.float64)
        union = self.cards[user] + self.cards - common
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(union > 0, common / union, 0.0)

    def top_k(self, user: int, k: int) -> list[int]:
        """Exact top-``k`` by Jaccard, ties broken by ascending user id."""
        jaccard = self.jaccards(user)
        jaccard[user] = -1.0
        return np.lexsort((np.arange(self.num_users), -jaccard))[:k].tolist()

    def top_users(self, count: int) -> list[int]:
        """The ``count`` largest-cardinality users (ties by ascending id)."""
        return np.lexsort((np.arange(self.num_users), -self.cards))[:count].tolist()

    def tracked_pairs(
        self, count: int, min_common: int
    ) -> tuple[list[list[int]], np.ndarray, np.ndarray]:
        """Pairs among the top users sharing ``min_common`` items, with exact values.

        Returns the pairs, their exact common-item counts and Jaccards.
        """
        import scipy.sparse

        top = np.asarray(self.top_users(count))
        row_of = np.full(self.num_users, -1)
        row_of[top] = np.arange(top.size)
        mine = row_of[self.users] >= 0
        matrix = scipy.sparse.csr_matrix(
            (np.ones(int(mine.sum()), np.float32), (row_of[self.users[mine]], self.items[mine])),
            shape=(top.size, NUM_ITEMS),
        )
        common = (matrix @ matrix.T).toarray()
        rows_a, rows_b = np.triu_indices(top.size, 1)
        shared = common[rows_a, rows_b]
        keep = shared >= min_common
        users_a, users_b, shared = top[rows_a[keep]], top[rows_b[keep]], shared[keep]
        jaccard = shared / (self.cards[users_a] + self.cards[users_b] - shared)
        pairs = [[int(a), int(b)] for a, b in zip(users_a, users_b)]
        return pairs, shared.astype(np.float64), jaccard


def accuracy(common: np.ndarray, jaccard: np.ndarray, estimates: list) -> dict:
    """The paper's AAPE (common items) and ARMSE (Jaccard) over tracked pairs.

    ``estimates`` holds one ``[common_items, jaccard]`` row per tracked pair.
    """
    est_common, est_jaccard = np.asarray(estimates, dtype=np.float64).T
    aape = float(np.mean(np.abs(common - est_common) / common))
    armse = float(np.sqrt(np.mean((jaccard - est_jaccard) ** 2)))
    return {"aape": aape, "armse": armse}


def recall_at_k(answers: list[list[int]], truths: list[list[int]]) -> float:
    hits = sum(len(set(a) & set(t)) for a, t in zip(answers, truths))
    return hits / sum(len(t) for t in truths)
