"""Property-based equality of the bucket-lookup LSH ``nearest`` with the pool scan.

``nearest_neighbours(..., index=...)`` looks the target's band signatures up
in each table's sorted bucket arrays.  The reference below is the scan it
replaced: sort the whole cardinality-filtered pool, gather every pool user's
signature row and compare it with the target's row column by column.  Both
must give ``==`` candidate lists and ``==`` answers on churned streams, on a
single-array sketch and on 1- and 4-shard sketches, with small and large
``minimum_cardinality``, explicit candidate pools in shuffled order, and
tables each shard keeps across restores, journal replay and copy-on-write
publishes.  Those shard-held tables must also stay ``==`` a from-scratch build
over a copy of the bits after every step.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vos import VirtualOddSketch
from repro.hashing.bitpack import next_stamp
from repro.index import BandedSketchIndex, IndexConfig
from repro.index.banding import decode_index_state, encode_index_state
from repro.service.delta import apply_shard_delta, shard_delta
from repro.service.sharding import ShardedVOS
from repro.service.snapshot import dumps_snapshot, loads_snapshot
from repro.similarity.search import nearest_neighbours
from repro.streams.edge import Action, StreamElement, user_sort_key


def _make_sketch(shards: int, seed: int):
    if shards == 0:
        return VirtualOddSketch(
            shared_array_bits=1 << 18, virtual_sketch_size=512, seed=seed
        )
    return ShardedVOS(
        shards, shard_array_bits=1 << 16, virtual_sketch_size=512, seed=seed
    )


def _churned_stream(rng: np.random.Generator, users: int) -> list[StreamElement]:
    """Near-duplicate communities, then random toggles of (user, item) edges.

    A toggle deletes a live edge and inserts an absent one, so the stream is
    fully dynamic and always feasible.
    """
    communities = [
        rng.choice(3000, size=int(rng.integers(4, 40)), replace=False)
        for _ in range(int(rng.integers(1, 5)))
    ]
    live: set[tuple[int, int]] = set()
    elements: list[StreamElement] = []

    def toggle(user: int, item: int) -> None:
        edge = (user, item)
        action = Action.DELETE if edge in live else Action.INSERT
        live.symmetric_difference_update({edge})
        elements.append(StreamElement(user, item, action))

    for user in range(users):
        base = communities[int(rng.integers(len(communities)))]
        # Exact clones share every bucket; near clones share some.
        keep = 1.0 if rng.random() < 0.5 else 0.9
        for item in base[rng.random(base.shape[0]) < keep].tolist():
            toggle(user, item)
    for _ in range(int(rng.integers(0, 2 * users))):
        toggle(int(rng.integers(users)), int(rng.integers(3000)))
    return elements


def _reference_candidates(index, sketch, target, candidates, minimum_cardinality):
    """The pool scan: a sorted pool and a full signature compare per user."""
    if candidates is None:
        source = sketch.users()
    else:
        source = [user for user in candidates if sketch.has_user(user)]
    pool = sorted(
        (user for user in source if sketch.cardinality(user) >= minimum_cardinality),
        key=user_sort_key,
    )
    others = [user for user in pool if user != target]
    index.refresh()
    if not others:
        return []
    # Every key row, target first, derived from the users' packed rows.
    signatures, valid = index._gather([target, *others])
    matches = ((signatures[1:] == signatures[0]) & valid[1:] & valid[0]).any(axis=1)
    return [user for user, keep in zip(others, matches.tolist()) if keep]


def _assert_matches_reference(index, sketch, target, candidates, minimum_cardinality):
    expected = _reference_candidates(
        index, sketch, target, candidates, minimum_cardinality
    )
    if candidates is None:
        got = nearest_neighbours(
            sketch, target, k=5, minimum_cardinality=minimum_cardinality, index=index
        )
        assert index.stats()["last_neighbour_candidates"] >= len(expected)
    else:
        got = nearest_neighbours(
            sketch,
            target,
            k=5,
            candidates=candidates,
            minimum_cardinality=minimum_cardinality,
            index=index,
        )
    # Scoring the reference candidates without an index is the parent's
    # answer: the pool scan only ever chose which users get scored.
    reference = nearest_neighbours(
        sketch, target, k=5, candidates=expected, minimum_cardinality=0
    )
    assert got == reference
    if candidates is None:
        proposed = index.neighbour_candidates(target, set(sketch.users()))
        at_least = [
            user for user in proposed if sketch.cardinality(user) >= minimum_cardinality
        ]
        assert at_least == expected


scenarios = st.fixed_dictionaries(
    {
        "shards": st.sampled_from([0, 1, 4]),
        "seed": st.integers(min_value=0, max_value=10**6),
        "users": st.integers(min_value=2, max_value=40),
        "layout": st.sampled_from([(1, 0), (1, 3), (2, 2), (1, 8)]),
        "min_band_bits": st.integers(min_value=1, max_value=3),
    }
)


def _build(scenario):
    rng = np.random.default_rng(scenario["seed"])
    sketch = _make_sketch(scenario["shards"], scenario["seed"] % 97)
    sketch.process_batch(_churned_stream(rng, scenario["users"]))
    rows_per_band, bands = scenario["layout"]
    config = IndexConfig(
        bands=bands,
        rows_per_band=rows_per_band,
        min_band_bits=scenario["min_band_bits"],
    )
    return rng, sketch, config


def _large_minimum(sketch) -> int:
    counts = sorted(sketch.cardinality(user) for user in sketch.users())
    return counts[len(counts) // 2] + 1


@given(scenario=scenarios)
@settings(max_examples=40, deadline=None)
def test_bucket_lookup_equals_pool_scan(scenario):
    rng, sketch, config = _build(scenario)
    index = BandedSketchIndex(sketch, config)
    users = sorted(sketch.users(), key=user_sort_key)
    for minimum in (1, _large_minimum(sketch)):
        for target in rng.choice(users, size=min(4, len(users)), replace=False).tolist():
            _assert_matches_reference(index, sketch, target, None, minimum)
            # An explicit pool in shuffled order, target and repeats included.
            pool = rng.choice(users, size=int(rng.integers(0, 2 * len(users)))).tolist()
            _assert_matches_reference(index, sketch, target, pool, minimum)


def _bits_copy(sketch):
    """The same bits and users in new shard objects that hold no LSH table."""
    return loads_snapshot(dumps_snapshot(sketch))


def _shard_states(sketch) -> list[tuple[bytes, int]]:
    return [
        (shard.shared_array.to_packed_bytes(), shard.num_users)
        for shard in sketch.row_shards()
    ]


def _replay(writer, target, batch) -> int:
    """Ingest ``batch`` on ``writer`` and replay its shard deltas onto
    ``target`` as journal replay does; returns how many of ``target``'s shards
    changed bits or users."""
    before = _shard_states(target)
    cursor = next_stamp()
    writer.process_batch(batch)
    for position, shard in enumerate(writer.row_shards()):
        delta = shard_delta(shard, position, cursor)
        if delta is not None:
            assert apply_shard_delta(target.row_shards()[position], delta) is None
    after = _shard_states(target)
    return sum(old != new for old, new in zip(before, after))


def _extra_batch(rng, users: int) -> list[StreamElement]:
    """New users, and new items for old ones."""
    extra_users = rng.integers(users + 3, size=20)
    return [
        StreamElement(user, 3000 + item, Action.INSERT)
        for item, user in enumerate(extra_users.tolist())
    ]


@given(scenario=scenarios, round_trip=st.booleans())
@settings(max_examples=25, deadline=None)
def test_restored_tables_equal_pool_scan(scenario, round_trip):
    """A section restored onto a loaded copy, then a replayed batch: the
    shards the batch changed rebuild, the rest answer from restored tables."""
    rng, sketch, config = _build(scenario)
    live = BandedSketchIndex(sketch, config)
    state = live.export_state()
    if round_trip:
        state = decode_index_state(encode_index_state(state))
    restored_sketch = _bits_copy(sketch)
    restored = BandedSketchIndex(restored_sketch, config)
    assert restored.restore_state(state)
    assert restored.stats()["restored"] == len(state["shards"])
    bands = restored.bands
    changed = _replay(sketch, restored_sketch, _extra_batch(rng, scenario["users"]))
    restored.refresh()
    expected = changed if restored.bands == bands else len(state["shards"])
    assert restored.stats()["rebuilds"] == expected
    users = sorted(restored_sketch.users(), key=user_sort_key)
    for minimum in (1, _large_minimum(restored_sketch)):
        for target in rng.choice(users, size=min(4, len(users)), replace=False).tolist():
            _assert_matches_reference(restored, restored_sketch, target, None, minimum)


@given(scenario=scenarios)
@settings(max_examples=25, deadline=None)
def test_published_tables_equal_pool_scan(scenario):
    """Tables handed to a copy-on-write epoch answer like a pool scan."""
    rng, writer, config = _build(scenario)
    BandedSketchIndex(writer, config).refresh()
    # The epoch publisher: copy each shard (table included), then patch the
    # copies of the shards the writer changed since the copy.
    epoch_shards = [VirtualOddSketch.cow_view(shard) for shard in writer.row_shards()]
    assert all(
        shard.index_table is source.index_table is not None
        for shard, source in zip(epoch_shards, writer.row_shards())
    )
    cursor = next_stamp()
    writer.process_batch([StreamElement(10**6, item, Action.INSERT) for item in range(30)])
    epoch_shards = _published(writer, epoch_shards, cursor)
    epoch = _assembled(writer, epoch_shards)
    index = BandedSketchIndex(epoch, config)
    users = sorted(epoch.users(), key=user_sort_key)
    for minimum in (1, _large_minimum(epoch)):
        for target in [10**6, *rng.choice(users, size=min(3, len(users))).tolist()]:
            _assert_matches_reference(index, epoch, target, None, minimum)


def _published(writer, shards: list, cursor: int) -> list:
    """The next epoch's shards: every shard the writer changed after
    ``cursor`` copied and patched untracked, every other one the same object."""
    shards = list(shards)
    for position, shard in enumerate(writer.row_shards()):
        delta = shard_delta(shard, position, cursor)
        if delta is not None:
            shards[position] = VirtualOddSketch.cow_view(shards[position])
            assert apply_shard_delta(shards[position], delta, track=False) is None
    return shards


def _assembled(writer, shards: list):
    if isinstance(writer, VirtualOddSketch):
        return shards[0]
    return ShardedVOS.from_shards(shards, seed=writer.seed)


def _toggles(rng: np.random.Generator, live: set, users: int) -> list[StreamElement]:
    """A small fully dynamic batch over ``users`` (new ones included): each
    element deletes a live edge of ``live`` or inserts an absent one."""
    elements = []
    for _ in range(int(rng.integers(1, 12))):
        edge = (int(rng.integers(users + 3)), int(rng.integers(3000, 3040)))
        action = Action.DELETE if edge in live else Action.INSERT
        live.symmetric_difference_update({edge})
        elements.append(StreamElement(*edge, action))
    return elements


def _entries(shard, table) -> list[tuple]:
    """A table's ``(signature, column, user)`` entries, independent of ordinals."""
    users = shard.user_table.ids(table.bucket_rows).tolist()
    return sorted(
        zip(
            table.bucket_signatures.tolist(),
            table.bucket_columns.tolist(),
            map(user_sort_key, users),
        )
    )


def _assert_equals_fresh_build(index, sketch, config) -> None:
    """Every shard's table, and the exported section bytes, are a
    from-scratch build's over a copy of the bits (the export pins the
    hashes of invalid slots)."""
    tables = index.refresh()
    fresh = BandedSketchIndex(_bits_copy(sketch), config)
    expected_tables = fresh.refresh()
    assert index.bands == fresh.bands
    shards = zip(
        sketch.row_shards(), tables, fresh._sketch.row_shards(), expected_tables, strict=True
    )
    for shard, table, copy, expected in shards:
        assert shard.index_table is table
        assert table.rows == expected.rows == shard.num_users
        assert _entries(shard, table) == _entries(copy, expected)
    assert encode_index_state(index.export_state()) == encode_index_state(
        fresh.export_state()
    )


steps = st.lists(
    st.sampled_from(["ingest", "publish", "signup", "restore"]), min_size=1, max_size=5
)


@given(scenario=scenarios, plan=steps, round_trip=st.booleans())
@settings(max_examples=25, deadline=None)
def test_tables_equal_fresh_builds_across_ingest_publish_restore(
    scenario, plan, round_trip
):
    """Shard-held tables stay ``==`` a from-scratch build after every step.

    A writer ingests every batch; an epoch chain publishes the writer's
    changes copy-on-write (``signup``: a new user inserting and deleting one
    item, a counter-only publish that adds a user); ``restore`` reloads the
    writer from its snapshot and section, replays the step's batch as a
    journal would, and restarts the epoch chain from it.  Band counts are
    fixed here, so a replay rebuilds exactly the shards it changed.
    """
    rng, writer, config = _build(scenario)
    if not config.bands:
        config = IndexConfig(bands=2, min_band_bits=config.min_band_bits)
    users = scenario["users"]
    live: set[tuple[int, int]] = set()  # items 3000+ are not in the base stream
    writer_index = BandedSketchIndex(writer, config)
    _assert_equals_fresh_build(writer_index, writer, config)
    epoch_shards = [VirtualOddSketch.cow_view(shard) for shard in writer.row_shards()]
    cursor = next_stamp()
    for number, step in enumerate(plan):
        if step == "restore" and rng.random() < 0.5:
            batch = []  # restore onto the exported bits: no shard rebuilds
        elif step == "signup":
            newcomer = 10**6 + number
            batch = [
                StreamElement(newcomer, 5, Action.INSERT),
                StreamElement(newcomer, 5, Action.DELETE),
            ]
        else:
            batch = _toggles(rng, live, users)
        if step == "restore":
            state = writer_index.export_state()
            if round_trip:
                state = decode_index_state(encode_index_state(state))
            restored = _bits_copy(writer)
            writer_index = BandedSketchIndex(restored, config)
            assert writer_index.restore_state(state)
            changed = _replay(writer, restored, batch)
            writer_index.refresh()
            assert writer_index.stats()["rebuilds"] == changed
            if not batch:
                # A restored index re-exports the bytes it was restored from.
                assert encode_index_state(writer_index.export_state()) == (
                    encode_index_state(state)
                )
            writer = restored
            epoch_shards = [VirtualOddSketch.cow_view(shard) for shard in writer.row_shards()]
            cursor = next_stamp()
        else:
            writer.process_batch(batch)  # the writer's next refresh rebuilds lazily
        _assert_equals_fresh_build(writer_index, writer, config)
        if step in ("publish", "signup"):
            previous = epoch_shards
            epoch_shards = _published(writer, epoch_shards, cursor)
            cursor = next_stamp()
            for old, new in zip(previous, epoch_shards):
                if new is old:  # untouched: the epochs share the shard and its table
                    assert new.index_table is old.index_table
            epoch = _assembled(writer, epoch_shards)
            _assert_equals_fresh_build(BandedSketchIndex(epoch, config), epoch, config)
