"""Property-based equality of the bucket-lookup LSH ``nearest`` with the pool scan.

``nearest_neighbours(..., index=...)`` looks the target's band signatures up
in each table's sorted bucket arrays.  The reference below is the scan it
replaced: sort the whole cardinality-filtered pool, gather every pool user's
signature row and compare it with the target's row column by column.  Both
must give ``==`` candidate lists and ``==`` answers on churned streams, on a
single-array sketch and on 1- and 4-shard sketches, with small and large
``minimum_cardinality``, explicit candidate pools in shuffled order, and
tables adopted through ``restore_state`` (stale shards included) and
``carry_forward``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vos import VirtualOddSketch
from repro.index import BandedSketchIndex, IndexConfig
from repro.index.banding import decode_index_state, encode_index_state
from repro.service.sharding import ShardedVOS
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


@given(scenario=scenarios, round_trip=st.booleans())
@settings(max_examples=25, deadline=None)
def test_restored_tables_equal_pool_scan(scenario, round_trip):
    rng, sketch, config = _build(scenario)
    live = BandedSketchIndex(sketch, config)
    state = live.export_state()
    if round_trip:
        state = decode_index_state(encode_index_state(state))
    # Ingest after the export (new users, and new items for old ones): the
    # shards it touches are stale in the persisted state and must be
    # rebuilt, the rest adopted.
    extra_users = rng.integers(scenario["users"] + 3, size=20)
    extra = [
        StreamElement(user, 3000 + item, Action.INSERT)
        for item, user in enumerate(extra_users.tolist())
    ]
    sketch.process_batch(extra)
    touched = (
        np.unique(sketch.shard_assignment(extra_users)).tolist()
        if scenario["shards"]
        else [0]
    )
    restored = BandedSketchIndex(sketch, config)
    assert restored.restore_state(state, stale_shards=touched)
    assert restored.stats()["restored"] == len(state["shards"]) - len(touched)
    users = sorted(sketch.users(), key=user_sort_key)
    for minimum in (1, _large_minimum(sketch)):
        for target in rng.choice(users, size=min(4, len(users)), replace=False).tolist():
            _assert_matches_reference(restored, sketch, target, None, minimum)


@given(scenario=scenarios)
@settings(max_examples=25, deadline=None)
def test_carried_tables_equal_pool_scan(scenario):
    rng, writer, config = _build(scenario)
    # A successor holding the same bits, as an epoch publish produces.
    successor = _make_sketch(scenario["shards"], scenario["seed"] % 97)
    successor.process_batch(
        _churned_stream(np.random.default_rng(scenario["seed"]), scenario["users"])
    )
    index = BandedSketchIndex(writer, config)
    index.refresh()
    extra = [StreamElement(10**6, item, Action.INSERT) for item in range(30)]
    successor.process_batch(extra)
    touched = (
        successor.shard_assignment(np.array([10**6])).tolist()
        if scenario["shards"]
        else [0]
    )
    carried = index.carry_forward(successor, stale_shards=touched)
    assert carried is not None
    users = sorted(successor.users(), key=user_sort_key)
    for minimum in (1, _large_minimum(successor)):
        for target in [10**6, *rng.choice(users, size=min(3, len(users))).tolist()]:
            _assert_matches_reference(carried, successor, target, None, minimum)


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


def _shards_of(sketch, batch: list[StreamElement]) -> list[int]:
    if isinstance(sketch, VirtualOddSketch):
        return [0]
    users = np.array([element.user for element in batch])
    return np.unique(sketch.shard_assignment(users)).tolist()


def _assert_equals_fresh_build(index, sketch, config) -> None:
    """Every table's entries, and the exported section bytes, are a
    from-scratch build's (the export pins the hashes of invalid slots)."""
    index.refresh()
    fresh = BandedSketchIndex(sketch, config)
    fresh.refresh()
    assert index.bands == fresh.bands
    tables = zip(index._shard_signatures, fresh._shard_signatures, strict=True)
    for table, expected in tables:
        assert table.rows == expected.rows
        for name in ("bucket_signatures", "bucket_rows", "bucket_columns"):
            assert np.array_equal(getattr(table, name), getattr(expected, name))
    assert encode_index_state(index.export_state()) == encode_index_state(
        fresh.export_state()
    )


steps = st.lists(st.sampled_from(["ingest", "publish", "restore"]), min_size=1, max_size=5)


@given(scenario=scenarios, plan=steps, round_trip=st.booleans())
@settings(max_examples=25, deadline=None)
def test_tables_equal_fresh_builds_across_ingest_publish_restore(
    scenario, plan, round_trip
):
    """Tables kept by lazy rebuilds, ``carry_forward`` and ``restore_state``
    stay ``==`` a from-scratch build after every step.

    Band counts are fixed here: an adopted auto-tuned count stands until the
    shards change again, so a fresh build could resolve another one.
    """
    rng, sketch, config = _build(scenario)
    if not config.bands:
        config = IndexConfig(bands=2, min_band_bits=config.min_band_bits)
    users = scenario["users"]
    live: set[tuple[int, int]] = set()  # items 3000+ are not in the base stream
    batches: list[list[StreamElement]] = []
    index = BandedSketchIndex(sketch, config)
    _assert_equals_fresh_build(index, sketch, config)
    for step in plan:
        if step == "restore" and rng.random() < 0.5:
            batch = []  # restore onto the exported bits: every shard is adopted
        else:
            batch = _toggles(rng, live, users)
        if step == "ingest":
            sketch.process_batch(batch)  # the next refresh rebuilds lazily
        elif step == "publish":
            # A successor holding the same bits plus one publish, as an epoch
            # publisher produces: replay every batch in order (same ordinals).
            successor = _make_sketch(scenario["shards"], scenario["seed"] % 97)
            base = _churned_stream(np.random.default_rng(scenario["seed"]), users)
            successor.process_batch(base)
            for previous in batches:
                successor.process_batch(previous)
            successor.process_batch(batch)
            stale = _shards_of(successor, batch)
            index = index.carry_forward(successor, stale_shards=stale)
            assert index is not None
            sketch = successor
        else:
            state = index.export_state()
            if round_trip:
                state = decode_index_state(encode_index_state(state))
            stale = _shards_of(sketch, batch) if batch else []
            if batch:
                sketch.process_batch(batch)
            index = BandedSketchIndex(sketch, config)
            assert index.restore_state(state, stale_shards=stale)
            if not stale:
                # A restored index re-exports the bytes it was restored from.
                assert encode_index_state(index.export_state()) == encode_index_state(state)
        batches.append(batch)
        _assert_equals_fresh_build(index, sketch, config)
