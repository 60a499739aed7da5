"""Stream element model: edges of a fully dynamic bipartite graph stream.

Each element of the stream ``Pi = e(1) e(2) ... e(t) ...`` is a triple
``(user, item, action)`` where the action is either a subscription
(the user gains the item) or an unsubscription (the user loses it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TypeAlias

UserId: TypeAlias = int
ItemId: TypeAlias = int


def user_sort_key(user: UserId) -> tuple[str, UserId]:
    """Stable, type-safe ordering key for user identifiers.

    Sorting on ``(type name, value)`` keeps the natural order within every
    uniformly typed population and never compares values of different types,
    so mixed ``int``/``str`` user populations cannot raise ``TypeError``.
    Shared by the search layer's deterministic tiebreakers and the candidate
    index's signature-table ordering, which must agree.
    """
    return (type(user).__name__, user)


class Action(enum.Enum):
    """The two element actions of a fully dynamic stream."""

    INSERT = "+"
    DELETE = "-"

    def __init__(self, symbol: str) -> None:
        #: ``+1`` for insertions and ``-1`` for deletions; a plain member
        #: attribute, so columnarizing a batch reads it without a call.
        self.sign = 1 if symbol == "+" else -1

    @classmethod
    def from_symbol(cls, symbol: str) -> "Action":
        """Parse ``"+"`` / ``"-"`` (also accepts ``"insert"`` / ``"delete"``)."""
        normalized = symbol.strip().lower()
        if normalized in {"+", "insert", "add", "sub", "subscribe"}:
            return cls.INSERT
        if normalized in {"-", "delete", "remove", "unsub", "unsubscribe"}:
            return cls.DELETE
        raise ValueError(f"unknown action symbol: {symbol!r}")

    @property
    def symbol(self) -> str:
        """The single-character stream symbol (``+`` or ``-``)."""
        return self.value


@dataclass(frozen=True, slots=True)
class StreamElement:
    """A single edge event ``(user, item, action)`` of the graph stream.

    Attributes
    ----------
    user:
        The user endpoint of the edge (left side of the bipartite graph).
    item:
        The item endpoint (right side), e.g. a channel the user subscribes to.
    action:
        Whether the edge is inserted or deleted at this point of the stream.
    """

    user: UserId
    item: ItemId
    action: Action = Action.INSERT

    @property
    def is_insertion(self) -> bool:
        return self.action is Action.INSERT

    @property
    def is_deletion(self) -> bool:
        return self.action is Action.DELETE

    @property
    def edge(self) -> tuple[UserId, ItemId]:
        """The undirected (user, item) edge this element refers to."""
        return (self.user, self.item)

    def inverted(self) -> "StreamElement":
        """The element that undoes this one (insert <-> delete on the same edge)."""
        flipped = Action.DELETE if self.action is Action.INSERT else Action.INSERT
        return StreamElement(self.user, self.item, flipped)

    def __str__(self) -> str:
        return f"({self.user}, {self.item}, {self.action.symbol})"
