"""The user table: every user's id, exact counter and change stamp, as columns.

The paper keeps one exact counter ``n_u`` per user beside each sketch; a
:class:`~repro.baselines.base.SimilaritySketch` keeps them in one
:class:`UserTable`, the only code that knows how per-user state is stored.
A user gets a dense *ordinal* when first seen (the ``dict`` from id to
ordinal is the only per-user Python object); users are never removed, so
ordinals are stable.  Three columns indexed by ordinal grow by doubling:

* ids — ``int64`` while every id is a plain ``int`` that fits in 64 bits
  (the :func:`~repro.streams.batch.id_column` rule), promoted once to
  ``object`` otherwise, so the type check runs once per user;
* counts — the exact counters;
* stamps — when each counter last changed, from the change clock
  (:func:`~repro.hashing.bitpack.next_stamp`), read like the shared array's
  word stamps: ``flatnonzero(stamps > since)``.  Allocated on the first
  tracked write, so untracked copies (frozen epoch views) hold none.
"""

from __future__ import annotations

import sys
from itertools import repeat

import numpy as np

from repro.exceptions import ConfigurationError, UnknownUserError
from repro.hashing.bitpack import next_stamp
from repro.streams.batch import id_column
from repro.streams.edge import UserId, user_sort_key


def _counter_values(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ConfigurationError(f"user counters must be non-negative, got {values.min()}")
    return values


def _grown(column: np.ndarray, capacity: int) -> np.ndarray:
    grown = np.zeros(capacity, dtype=column.dtype)
    grown[: column.shape[0]] = column
    return grown


class UserTable:
    """Per-user ids, exact counters and change stamps of one sketch.

    >>> table = UserTable()
    >>> table.assign([7, 3], [2, 5])
    >>> table.count(3), table.ids(table.key_order()).tolist()
    (5, [3, 7])
    """

    __slots__ = ("_ordinals", "_ids", "_counts", "_stamps", "_latest")

    def __init__(self) -> None:
        self._ordinals: dict[UserId, int] = {}
        self._ids = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)
        self._stamps: np.ndarray | None = None
        self._latest = 0  # newest tracked write: "nothing changed since" in O(1)

    def copy(self) -> "UserTable":
        """An untracked copy: the same users, ordinals and counters, no stamps."""
        clone = UserTable()
        clone._ordinals = self._ordinals.copy()
        clone._ids = self._ids[: len(self)].copy()
        clone._counts = self._counts[: len(self)].copy()
        return clone

    def __len__(self) -> int:
        return len(self._ordinals)

    @property
    def nbytes(self) -> int:
        """Bytes held: the columns and the id dict's own table (not the ids it references)."""
        stamps = 0 if self._stamps is None else self._stamps.nbytes
        return self._ids.nbytes + self._counts.nbytes + stamps + sys.getsizeof(self._ordinals)

    def keys(self):
        """A live read-only view of the users; ``in`` on it runs at dict speed."""
        return self._ordinals.keys()

    def ordinals(self, users) -> np.ndarray:
        """Ordinals of ``users``; raises :class:`UnknownUserError` for an unseen one."""
        try:
            return np.fromiter(
                map(self._ordinals.__getitem__, users), dtype=np.int64, count=len(users)
            )
        except KeyError as error:
            raise UnknownUserError(error.args[0]) from None

    def intern(self, users) -> np.ndarray:
        """Ordinals of ``users``, giving each unseen user the next one, at counter 0."""
        keys = users.tolist() if isinstance(users, np.ndarray) else list(users)
        found = np.fromiter(
            map(self._ordinals.get, keys, repeat(-1)), dtype=np.int64, count=len(keys)
        )
        missing = np.flatnonzero(found < 0)
        if missing.size:
            start = len(self)
            fresh: dict[UserId, int] = {}
            for position in missing.tolist():
                found[position] = fresh.setdefault(keys[position], start + len(fresh))
            end = start + len(fresh)
            if end > self._ids.shape[0]:
                capacity = max(end, 2 * self._ids.shape[0], 16)
                self._ids = _grown(self._ids, capacity)
                self._counts = _grown(self._counts, capacity)
                if self._stamps is not None:
                    self._stamps = _grown(self._stamps, capacity)
            column = id_column(list(fresh))
            if column.dtype != self._ids.dtype == np.int64:
                self._ids = self._ids.astype(object)
            self._ids[start:end] = column
            # Published last: a reader never finds an ordinal the columns lack.
            self._ordinals.update(fresh)
        return found

    def known_counts(self, users) -> np.ndarray:
        """Counters of ``users``, ``-1`` for a user never seen (one dict probe each)."""
        ordinals = np.fromiter(
            map(self._ordinals.get, users, repeat(-1)), dtype=np.int64, count=len(users)
        )
        counts = np.full(len(users), -1, dtype=np.int64)
        found = ordinals >= 0
        counts[found] = self._counts[ordinals[found]]
        return counts

    def ids(self, ordinals) -> np.ndarray:
        return self._ids[ordinals]

    def counts(self, ordinals) -> np.ndarray:
        return self._counts[ordinals]

    def count(self, user: UserId) -> int:
        """One user's counter; raises :class:`UnknownUserError` for an unseen user."""
        ordinal = self._ordinals.get(user)
        if ordinal is None:
            raise UnknownUserError(user)
        return int(self._counts[ordinal])

    def total(self) -> int:
        """The exact sum of every counter."""
        return int(self._counts[: len(self)].sum())

    def as_dict(self) -> dict[UserId, int]:
        return dict(zip(self._ordinals, self._counts[: len(self)].tolist()))

    def key_order(self, ordinals: np.ndarray | None = None) -> np.ndarray:
        """``ordinals`` (default: all) sorted by :func:`user_sort_key` of their ids."""
        if ordinals is None:
            ordinals = np.arange(len(self), dtype=np.int64)
        ids = self._ids[ordinals]
        if ids.dtype == np.int64:
            return ordinals[np.argsort(ids, kind="stable")]
        keys = ids.tolist()
        order = sorted(range(len(keys)), key=lambda row: user_sort_key(keys[row]))
        return ordinals[np.array(order, dtype=np.int64)]

    def changed(self, since: int) -> np.ndarray:
        """Ordinals whose counter changed after cursor ``since``, ascending."""
        if self._stamps is None or self._latest <= since:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self._stamps[: len(self)] > since)

    def _stamp(self, ordinals) -> None:
        if self._stamps is None:
            self._stamps = np.zeros(self._counts.shape[0], dtype=np.int64)
        self._latest = self._stamps[ordinals] = next_stamp()

    def add(self, user: UserId, delta: int) -> None:
        """``n_u := max(0, n_u + delta)`` for one user: the per-element write."""
        ordinal = self._ordinals.get(user)
        if ordinal is None:
            ordinal = int(self.intern([user])[0])
        self._counts[ordinal] = max(0, int(self._counts[ordinal]) + delta)
        self._stamp(ordinal)

    def add_many(self, users: np.ndarray, deltas: np.ndarray) -> None:
        """:meth:`add` over an ``int64`` user column in order, with one stamp.

        The per-element recurrence ``c := max(0, c + d)`` is Lindley's, so a
        user starting at ``c0`` ends at ``total + max(c0, -lowest running
        sum)``: identical to the per-element loop, clamps at zero included.
        """
        unique, inverse = np.unique(users, return_inverse=True)
        sizes = np.bincount(inverse)
        # The narrowest dtype holding every group id: at most 2^16 groups
        # take NumPy's O(n) radix sort instead of an O(n log n) merge sort,
        # and any stable sort yields the same order.
        groups = inverse.astype(np.min_scalar_type(max(len(sizes) - 1, 0)))
        ends = np.cumsum(sizes)
        prefix = np.cumsum(deltas[np.argsort(groups, kind="stable")])
        running = prefix - np.repeat(np.concatenate(([0], prefix[ends[:-1] - 1])), sizes)
        lowest = np.minimum.reduceat(running, ends - sizes)
        ordinals = self.intern(unique)
        self.set(ordinals, running[ends - 1] + np.maximum(self._counts[ordinals], -lowest))

    def set(self, ordinals: np.ndarray, values, *, track: bool = True) -> None:
        """Write counters at ``ordinals``; a tracked write takes one stamp for all.

        ``track=False`` leaves the stamps alone, like
        ``apply_packed_words(track=False)``: frozen copies and snapshot loads
        are never read for changes.  A negative value raises
        :class:`ConfigurationError` before anything is written.
        """
        self._counts[ordinals] = _counter_values(values)
        if track:
            self._stamp(ordinals)

    def assign(self, users, values, *, track: bool = True) -> None:
        """Set the listed users' counters, interning unseen ones (bulk load, delta apply).

        Raises :class:`ConfigurationError`, before anything changes, when a
        user repeats, a value is negative or the columns differ in length.
        """
        keys = users.tolist() if isinstance(users, np.ndarray) else list(users)
        values = _counter_values(values)
        if values.shape != (len(keys),):
            raise ConfigurationError(f"{len(keys)} users, counter column {values.shape}")
        if len(set(keys)) != len(keys):
            raise ConfigurationError("user ids repeat in one counter column")
        self.set(self.intern(keys), values, track=track)
