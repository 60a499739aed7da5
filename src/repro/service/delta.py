"""The shard delta: one record of everything a shard changed after a cursor.

Two consumers ship a VOS shard's changes instead of its whole state: journal
delta checkpoints and copy-on-write epoch publishes.  Both build the record
here (:func:`shard_delta`), and both apply it here
(:func:`apply_shard_delta`): journal replay onto a live sketch, the epoch
publisher onto its copy of the shard.

Each consumer keeps its own cursor, a stamp of the change clock
(:func:`repro.hashing.bitpack.next_stamp`), and asks for the changes stamped
after it.  No consumer clears anything, so a change made after a consumer's
last read is in its next delta whatever the other consumers did meanwhile.

A record is a plain dict::

    shard           shard index
    words           int64 indices of the changed 64-bit words
    word_data       those words' packed bytes, 8 per word
    counter_users   id column of the users whose counter changed
                    (user_sort_key order; int64, or object for other ids)
    counter_counts  their absolute counter values (int64; both columns are
                    plain lists in records read back from a journal)
    ones_count      the shard's popcount after the delta
    num_users       the shard's user count after the delta

The last two let whoever applies the record verify the result.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError


def shard_delta(shard, index: int, since: int) -> dict | None:
    """What ``shard`` (shard number ``index``) changed after cursor ``since``.

    Returns ``None`` when nothing changed.
    """
    array = shard.shared_array
    words = array.dirty_words(since)
    table = shard.user_table
    changed = table.changed(since)
    if words.size == 0 and changed.size == 0:
        return None
    ordinals = table.key_order(changed)
    return {
        "shard": index,
        "words": words,
        "word_data": array.packed_words(words),
        "counter_users": table.ids(ordinals),
        "counter_counts": table.counts(ordinals),
        "ones_count": array.ones_count,
        "num_users": len(table),
    }


def delta_mismatch(shard, delta: dict) -> str | None:
    """Why ``shard`` differs from the state ``delta`` recorded, or ``None``."""
    ones = shard.shared_array.ones_count
    if ones != delta["ones_count"]:
        return (
            f"leaves shard {delta['shard']} with popcount {ones}, "
            f"expected {delta['ones_count']}"
        )
    users = shard.num_users
    if users != delta["num_users"]:
        return (
            f"leaves shard {delta['shard']} with {users} users, "
            f"expected {delta['num_users']}"
        )
    return None


def apply_shard_delta(shard, delta: dict, *, track: bool = True) -> str | None:
    """Replay ``delta`` onto ``shard``; returns why the result is wrong, or ``None``.

    The applied words and counters are stamped as changed, so the live
    sketch's own consumers see them; ``track=False`` (frozen epoch copies,
    never read for changes) skips the stamps.  A delta whose counters repeat
    a user or go negative is refused; otherwise the result is checked with
    :func:`delta_mismatch`.  Callers raise their own typed error.
    """
    if len(delta["words"]):
        shard.shared_array.apply_packed_words(
            delta["words"], delta["word_data"], track=track
        )
    try:
        shard.user_table.assign(
            delta["counter_users"], delta["counter_counts"], track=track
        )
    except ConfigurationError as error:
        return f"carries invalid counters for shard {delta['shard']} ({error})"
    return delta_mismatch(shard, delta)
