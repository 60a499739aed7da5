"""Array-native stream batches: contiguous columns instead of element objects.

The ingest path used to move data as Python lists of
:class:`~repro.streams.edge.StreamElement`; every layer (stream I/O, batch
assembly, shard routing, the VOS update) paid for object allocation and
attribute access per element.  :class:`ElementBatch` is the columnar
replacement: one contiguous NumPy column per field —

* ``users``  — ``int64`` when every user id is a plain Python ``int`` that
  fits in 64 bits, ``object`` dtype otherwise (string ids, floats, big ints);
* ``items``  — same rule, independently of ``users``;
* ``signs``  — ``int8`` with ``+1`` per insertion and ``-1`` per deletion.

The integer/object split mirrors exactly the fallback gate the vectorized
sketch paths already used (``type(x) is int``, ``OverflowError`` for ints
beyond 64 bits), so handing a batch to ``process_batch`` is state-identical
to handing it the element list it was built from.  Sub-batching (``select``,
``slice``) is a NumPy indexing operation, which is what makes vectorized
shard routing cheap: one hash over the user column, one ``select`` per shard,
no per-element list rebuilds.
"""

from __future__ import annotations

import json
import numbers
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, ReproError, SnapshotError
from repro.streams.edge import Action, StreamElement

_INT64_MAX = np.iinfo(np.int64).max


def encode_id_column(
    values, error: type[ReproError] = SnapshotError, what: str = "user id"
) -> tuple[bytes, str]:
    """Serialize an id list or id column for persistence; returns ``(bytes, encoding)``.

    Integer populations write a raw little-endian ``int64`` column; anything
    else falls back to a UTF-8 JSON array, so string/float/big-int ids
    round-trip exactly.  ``bool`` and arbitrary objects are rejected with
    ``error`` (naming each value a ``what``) — they would not survive a
    JSON round trip.  This is the one id-column codec: the snapshot counter
    sections, the journal's delta records, the banding index's persisted
    user columns and the ``.vosstream`` id columns all use it.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values.astype("<i8").tobytes(), "int64"
    if all(
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
        for value in values
    ):
        try:
            # Accepts numpy integer scalars too (coerced like format v1 did).
            return np.array(values, dtype=np.int64).astype("<i8").tobytes(), "int64"
        except (OverflowError, TypeError):
            pass  # ints beyond 64 bits take the JSON column below
    normalized: list = []
    for value in values:
        if isinstance(value, bool):
            pass  # rejected below: True/1 would collide after a round trip
        elif isinstance(value, numbers.Integral):
            normalized.append(int(value))
            continue
        elif isinstance(value, str):
            normalized.append(value)
            continue
        elif isinstance(value, numbers.Real):
            normalized.append(float(value))
            continue
        raise error(
            f"cannot persist {what} {value!r}: persisted id columns "
            "support int, str and float identifiers"
        )
    return json.dumps(normalized).encode("utf-8"), "json"


def decode_id_column(
    data: bytes,
    encoding: object,
    expected: int,
    error: type[ReproError] = SnapshotError,
    what: str = "user id",
) -> np.ndarray:
    """Inverse of :func:`encode_id_column` (``None`` encoding means ``int64``):
    an :func:`id_column` of exactly ``expected`` ids, or ``error``."""
    if encoding in (None, "int64"):
        if len(data) != expected * 8:
            raise error(f"{what} column disagrees with its recorded count")
        return np.frombuffer(data, dtype="<i8").astype(np.int64, copy=False)
    if encoding != "json":
        raise error(f"unknown {what} column encoding {encoding!r}")
    try:
        values = json.loads(str(data, "utf-8"))
    except (ValueError, RecursionError) as exc:  # as in repro.framing.json_object
        raise error(f"{what} column is corrupt: {exc}") from exc
    if not isinstance(values, list) or len(values) != expected:
        raise error(f"{what} column disagrees with its recorded count")
    if not set(map(type, values)) <= {int, str, float}:
        raise error(f"{what} column holds values that are not int, str or float")
    return id_column(values)


def id_column(values: Sequence[object]) -> np.ndarray:
    """Build one identifier column from a sequence of user/item ids.

    Returns an ``int64`` array when every value is a plain Python ``int``
    representable in 64 bits — the exact precondition of the vectorized hash
    paths (``bool`` is excluded, as are floats, so nothing is silently
    truncated) — and an ``object`` array preserving the original values
    otherwise.
    """
    if not isinstance(values, (list, tuple)):
        values = list(values)
    # ``type`` mapped in C, so the check costs no Python step per value.
    if set(map(type, values)) <= {int}:
        try:
            return np.fromiter(values, dtype=np.int64, count=len(values))
        except OverflowError:  # ints beyond 64 bits keep exact object identity
            pass
    column = np.empty(len(values), dtype=object)
    for index, value in enumerate(values):
        column[index] = value
    return column


def _as_id_array(values) -> np.ndarray:
    """Normalize one id column to the ``int64``-or-``object`` invariant."""
    if not isinstance(values, np.ndarray):
        return id_column(values)
    if values.ndim != 1:
        raise ConfigurationError(
            f"id columns must be one-dimensional, got shape {values.shape}"
        )
    if values.dtype == np.int64:
        return values
    if values.dtype.kind == "i":
        return values.astype(np.int64)
    if values.dtype.kind == "u":
        if values.size and int(values.max()) > _INT64_MAX:
            return id_column(values.tolist())
        return values.astype(np.int64)
    if values.dtype == object:
        return values
    # Strings, floats, bools: keep the exact Python values as objects so the
    # per-element fallback paths see what a StreamElement would have carried.
    return id_column(values.tolist())


class ElementBatch:
    """A batch of stream elements stored as three parallel NumPy columns.

    Iterating (or :meth:`to_elements`) reconstructs the equivalent
    :class:`~repro.streams.edge.StreamElement` sequence, so every consumer of
    element lists accepts an ``ElementBatch`` unchanged; vectorized consumers
    read the columns directly.

    Examples
    --------
    >>> from repro.streams import Action, StreamElement
    >>> batch = ElementBatch.from_elements(
    ...     [StreamElement(1, 10, Action.INSERT), StreamElement(2, 11, Action.DELETE)]
    ... )
    >>> len(batch), batch.users.tolist(), batch.signs.tolist()
    (2, [1, 2], [1, -1])
    """

    __slots__ = ("users", "items", "signs")

    def __init__(self, users, items, signs) -> None:
        users = _as_id_array(users)
        items = _as_id_array(items)
        signs = np.asarray(signs)
        if signs.ndim != 1:
            raise ConfigurationError(
                f"signs must be one-dimensional, got shape {signs.shape}"
            )
        # Validate before any dtype cast: 255 or 257 would wrap to a valid
        # int8 +-1 and silently corrupt the stream instead of failing loudly.
        if signs.size and not np.all((signs == 1) | (signs == -1)):
            raise ConfigurationError("signs must be +1 (insert) or -1 (delete)")
        if signs.dtype != np.int8:
            signs = signs.astype(np.int8)
        if not (len(users) == len(items) == len(signs)):
            raise ConfigurationError(
                "batch columns differ in length "
                f"(users {len(users)}, items {len(items)}, signs {len(signs)})"
            )
        self.users = users
        self.items = items
        self.signs = signs

    # -- construction ----------------------------------------------------------------

    @classmethod
    def from_elements(cls, elements: Iterable[StreamElement]) -> "ElementBatch":
        """Columnarize an element iterable (the adapter from the object world)."""
        if not isinstance(elements, (list, tuple)):
            elements = list(elements)
        return cls(
            id_column([element.user for element in elements]),
            id_column([element.item for element in elements]),
            np.fromiter(
                [element.action.sign for element in elements],
                dtype=np.int8,
                count=len(elements),
            ),
        )

    @classmethod
    def coerce(cls, elements) -> "ElementBatch":
        """Return ``elements`` as a batch: pass batches through, columnarize rest.

        The single place that defines what batch-accepting entry points
        (``process_batch``) take as input.
        """
        if isinstance(elements, cls):
            return elements
        return cls.from_elements(elements)

    @classmethod
    def empty(cls) -> "ElementBatch":
        """The zero-length batch (integer columns by convention)."""
        return cls(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int8),
        )

    # -- column facts ----------------------------------------------------------------

    @property
    def integer_users(self) -> bool:
        """Whether the user column is ``int64`` (vectorized routing applies)."""
        return self.users.dtype == np.int64

    @property
    def integer_items(self) -> bool:
        """Whether the item column is ``int64``."""
        return self.items.dtype == np.int64

    @property
    def insertions(self) -> int:
        """Number of insertion elements in the batch."""
        return int(np.count_nonzero(self.signs > 0))

    @property
    def deletions(self) -> int:
        """Number of deletion elements in the batch."""
        return len(self) - self.insertions

    def deltas(self) -> np.ndarray:
        """The cardinality deltas (``int64``): ``+1`` insert, ``-1`` delete."""
        return self.signs.astype(np.int64)

    # -- sub-batching ----------------------------------------------------------------

    def select(self, indices) -> "ElementBatch":
        """The sub-batch at ``indices``, in the order the indices list them."""
        return ElementBatch(self.users[indices], self.items[indices], self.signs[indices])

    def slice(self, start: int, stop: int) -> "ElementBatch":
        """The contiguous sub-batch ``[start:stop)`` (views, no copies)."""
        return ElementBatch(
            self.users[start:stop], self.items[start:stop], self.signs[start:stop]
        )

    # -- element adapters --------------------------------------------------------------

    def to_elements(self) -> list[StreamElement]:
        """Reconstruct the equivalent :class:`StreamElement` list."""
        insert, delete = Action.INSERT, Action.DELETE
        return [
            StreamElement(user, item, insert if sign > 0 else delete)
            for user, item, sign in zip(
                self.users.tolist(), self.items.tolist(), self.signs.tolist()
            )
        ]

    def __iter__(self) -> Iterator[StreamElement]:
        return iter(self.to_elements())

    def __len__(self) -> int:
        return int(self.signs.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ElementBatch n={len(self)} users={self.users.dtype} "
            f"items={self.items.dtype}>"
        )
