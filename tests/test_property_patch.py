"""Patched copy-on-write epochs equal full recovery and fresh table builds.

A published epoch's first read starts from its source's row memo and LSH
table and changes only what the publish's flipped positions name
(:meth:`~repro.core.vos.VirtualOddSketch.track_patch`).  Random publish
chains, under both kernel tiers, mix writes to known users, new users,
cancelling deletes, epochs never read before the next publish, writes large
enough for the cost rule's full-recovery fallback and reads under another
band count.  After every read, each shard's memo rows must equal a fresh
``_recover_rows`` and each table a fresh ``_build_table``, bit for bit.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.vos import SCAN_COST
from repro.index import BandedSketchIndex, IndexConfig
from repro.index.banding import _shard_key
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.server.cow import CowEpochPublisher
from repro.service import SimilarityService
from repro.service.sharding import ShardedVOS
from repro.streams.edge import Action, StreamElement

SKETCH_SIZE = 256
ARRAY_BITS = 1 << 13
STEPS = ("write", "new_users", "cancel", "unread", "large", "other_bands")
TABLE_ARRAYS = ("bucket_signatures", "bucket_rows", "bucket_columns")


def _tiers() -> list[str]:
    return ["numpy"] + (["native"] if kernels.kernel_info()["native"]["available"] else [])


class _Chain:
    """A writer, its epoch publisher and the live edge set of the stream."""

    def __init__(self, seed: int, shards: int, bands: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.config = IndexConfig(bands=bands)
        sketch = ShardedVOS(shards, ARRAY_BITS, SKETCH_SIZE, seed=seed % 101)
        self.writer = SimilarityService(sketch, index_config=self.config)
        self.live: set[tuple[int, int]] = set()
        self.next_user = 0
        self.writer.ingest(self._toggles(self._new_users(24), 300))
        self.publisher = CowEpochPublisher(self.writer)
        self.epoch = self.publisher.materialize()

    def _new_users(self, count: int) -> list[int]:
        users = list(range(self.next_user, self.next_user + count))
        self.next_user += count
        return users

    def _toggles(self, users: list[int], count: int) -> list[StreamElement]:
        elements = []
        for _ in range(count):
            edge = (int(self.rng.choice(users)), int(self.rng.integers(200)))
            action = Action.DELETE if edge in self.live else Action.INSERT
            self.live.symmetric_difference_update({edge})
            elements.append(StreamElement(*edge, action))
        return elements

    def write(self, step: str) -> None:
        known = list(range(self.next_user))
        if step == "new_users":
            elements = self._toggles(self._new_users(4), 30)
        elif step == "cancel":
            # Inserted and deleted again in one batch: counters move, no bit.
            fresh = [(u, 500 + i) for i, u in enumerate(self.rng.choice(known, 5).tolist())]
            elements = [StreamElement(u, i, Action.INSERT) for u, i in fresh]
            elements += [StreamElement(u, i, Action.DELETE) for u, i in fresh]
        elif step == "large":
            # Well past the flips the cost rule patches (k / SCAN_COST).
            elements = self._toggles(known, 4 * SKETCH_SIZE // SCAN_COST)
        else:
            elements = self._toggles(known, 12)
        self.writer.ingest(elements)
        self.epoch = self.publisher.publish_delta(self.writer.freeze_delta(self.publisher.cursor))


def _assert_exact(sketch, index: BandedSketchIndex) -> None:
    tables = index.refresh()
    layout = index._layout
    for shard, table in zip(sketch.row_shards(), tables):
        ordinals = np.arange(shard.num_users)
        users = shard.user_table.ids(ordinals).tolist()
        assert np.array_equal(shard.packed_rows(users), shard._recover_rows(ordinals))
        fresh = index._build_table(shard, _shard_key(shard, layout))
        assert table.key == fresh.key and table.rows == fresh.rows
        for name in TABLE_ARRAYS:
            assert np.array_equal(getattr(table, name), getattr(fresh, name)), name


@pytest.mark.parametrize("tier", _tiers())
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    shards=st.sampled_from([1, 3]),
    steps=st.lists(st.sampled_from(STEPS), min_size=3, max_size=8),
)
def test_patched_epochs_equal_recovery_and_fresh_builds(tier, seed, shards, steps):
    with kernels.use_tier(tier):
        chain = _Chain(seed, shards, bands=2)
        _assert_exact(chain.epoch.sketch, chain.epoch.index())
        for step in steps:
            chain.write(step)
            if step == "unread":
                continue
            epoch = chain.epoch
            if step == "other_bands":
                _assert_exact(epoch.sketch, BandedSketchIndex(epoch.sketch, IndexConfig(bands=4)))
            _assert_exact(epoch.sketch, epoch.index())
            assert epoch.top_k(0, k=3, index="lsh") == chain.writer.top_k(0, k=3, index="lsh")


def test_small_publishes_patch_and_large_ones_fall_back():
    """The counters say which path ran: a small write patches every touched
    table, a write past the cost rule rebuilds it as a counted fallback."""
    chain = _Chain(seed=5, shards=2, bands=2)
    chain.epoch.index().refresh()
    chain.write("write")
    stats = _refreshed_stats(chain.epoch)
    assert stats["patches"] >= 1 and stats["rebuilds"] == stats["patch_fallbacks"] == 0
    chain.write("large")
    stats = _refreshed_stats(chain.epoch)
    assert stats["patches"] == 0 and stats["patch_fallbacks"] == stats["rebuilds"] >= 1


def test_unread_epochs_fold_their_flips():
    """An epoch never read leaves its flips to the next one, which patches
    from the last epoch that was read."""
    chain = _Chain(seed=9, shards=1, bands=2)
    chain.epoch.index().refresh()
    chain.write("write")
    unread = chain.epoch
    chain.write("write")
    (shard,) = chain.epoch.sketch.row_shards()
    (skipped,) = unread.sketch.row_shards()
    assert shard._basis.origin is skipped._basis.origin
    stats = _refreshed_stats(chain.epoch)
    assert stats["patches"] == 1 and stats["rebuilds"] == 0
    _assert_exact(chain.epoch.sketch, chain.epoch.index())


def test_rows_only_reads_free_older_epochs():
    """An epoch read without ``lsh`` patches its rows and keeps its source's
    table for a later LSH read, but not the source: once an epoch is no
    longer served, its shard copies are freed, however many epochs follow."""
    chain = _Chain(seed=7, shards=2, bands=2)
    chain.epoch.index().refresh()
    published = []
    for _ in range(8):
        chain.write("write")
        assert chain.epoch.top_k(0, k=3) == chain.writer.top_k(0, k=3)
        published += [weakref.ref(shard) for shard in chain.epoch.sketch.row_shards()]
    served = {id(shard) for shard in chain.epoch.sketch.row_shards()}
    gc.collect()
    alive = {id(ref()) for ref in published if ref() is not None}
    assert alive <= served
    _assert_exact(chain.epoch.sketch, chain.epoch.index())


def _refreshed_stats(epoch) -> dict:
    index = epoch.index()
    index.refresh()
    return index.stats()


def test_patch_counters_and_memory_gauges_reach_the_registry():
    """``index.patches`` / ``patched_rows`` / ``patch_fallbacks`` count in the
    registry as in ``stats()``, and ``stats()`` publishes each memory layer
    as a ``memory.<layer>_bytes`` gauge."""
    previous = set_registry(MetricsRegistry())
    try:
        chain = _Chain(seed=3, shards=2, bands=2)
        chain.epoch.index().refresh()
        chain.write("write")
        chain.write("large")
        chain.epoch.index().refresh()
        chain.write("write")
        stats = _refreshed_stats(chain.epoch)
        counters = get_registry().snapshot()["counters"]
        assert counters["index.patches"]["value"] == stats["patches"] >= 1
        assert counters["index.patched_rows"]["value"] == stats["patched_rows"] >= 1
        assert counters["index.patch_fallbacks"]["value"] >= 1
        memory = chain.epoch.stats()["memory_bytes"]
        gauges = get_registry().snapshot()["gauges"]
        for layer in ("array", "user_table", "row_memo", "offsets", "index", "per_user"):
            assert gauges[f"memory.{layer}_bytes"]["value"] == pytest.approx(memory[layer])
    finally:
        set_registry(previous)
