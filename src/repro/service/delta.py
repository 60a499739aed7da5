"""The shard delta: one record of everything a shard changed after a cursor.

Two consumers ship a VOS shard's changes instead of its whole state: journal
delta checkpoints and copy-on-write epoch publishes.  Both build the record
here (:func:`shard_delta`); journal replay applies it onto a live sketch here
(:func:`apply_shard_delta`), and the epoch publisher checks its patched copy
with :func:`delta_mismatch`.

Each consumer keeps its own cursor, a stamp of the change clock
(:func:`repro.hashing.bitpack.next_stamp`), and asks for the changes stamped
after it.  No consumer clears anything, so a change made after a consumer's
last read is in its next delta whatever the other consumers did meanwhile.

A record is a plain dict::

    shard           shard index
    words           int64 indices of the changed 64-bit words
    word_data       those words' packed bytes, 8 per word
    counter_users   users whose counter changed (user_sort_key order)
    counter_counts  their absolute counter values
    ones_count      the shard's popcount after the delta
    num_users       the shard's user count after the delta

The last two let whoever applies the record verify the result.
"""

from __future__ import annotations

from repro.streams.edge import user_sort_key


def shard_delta(shard, index: int, since: int) -> dict | None:
    """What ``shard`` (shard number ``index``) changed after cursor ``since``.

    Returns ``None`` when nothing changed.
    """
    array = shard.shared_array
    words = array.dirty_words(since)
    users = sorted(shard.changed_users(since), key=user_sort_key)
    if words.size == 0 and not users:
        return None
    counts = shard._cardinalities
    return {
        "shard": index,
        "words": words,
        "word_data": array.packed_words(words),
        "counter_users": users,
        "counter_counts": [counts[user] for user in users],
        "ones_count": array.ones_count,
        "num_users": len(counts),
    }


def delta_mismatch(shard, delta: dict) -> str | None:
    """Why ``shard`` differs from the state ``delta`` recorded, or ``None``."""
    ones = shard.shared_array.ones_count
    if ones != delta["ones_count"]:
        return (
            f"leaves shard {delta['shard']} with popcount {ones}, "
            f"expected {delta['ones_count']}"
        )
    users = len(shard._cardinalities)
    if users != delta["num_users"]:
        return (
            f"leaves shard {delta['shard']} with {users} users, "
            f"expected {delta['num_users']}"
        )
    return None


def apply_shard_delta(shard, delta: dict) -> str | None:
    """Replay ``delta`` onto ``shard``; returns :func:`delta_mismatch` after it.

    The applied words and counters are stamped as changed, so the live
    sketch's own consumers see them.  Callers raise their own typed error
    for a mismatch.
    """
    if len(delta["words"]):
        shard.shared_array.apply_packed_words(delta["words"], delta["word_data"])
    shard.overwrite_cardinalities(delta["counter_users"], delta["counter_counts"])
    return delta_mismatch(shard, delta)
