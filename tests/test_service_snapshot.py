"""Tests for repro.service.snapshot: bit-exact round trips and corruption paths."""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.core.vos import VirtualOddSketch
from repro.exceptions import SnapshotError
from repro.service.sharding import ShardedVOS
from repro.service.snapshot import (
    MAGIC,
    dumps_snapshot,
    load_snapshot,
    loads_snapshot,
    loads_snapshot_state,
    save_snapshot,
)
from repro.streams.edge import Action, StreamElement


@pytest.fixture(scope="module")
def fed_vos(small_dynamic_stream):
    vos = VirtualOddSketch(shared_array_bits=8192, virtual_sketch_size=128, seed=4)
    for element in small_dynamic_stream.prefix(3000):
        vos.process(element)
    return vos


@pytest.fixture(scope="module")
def fed_sharded(small_dynamic_stream):
    sketch = ShardedVOS(3, 4096, 128, seed=4)
    for element in small_dynamic_stream.prefix(3000):
        sketch.process(element)
    return sketch


def _assert_same_vos_state(a: VirtualOddSketch, b: VirtualOddSketch) -> None:
    assert a.shared_array.to_packed_bytes() == b.shared_array.to_packed_bytes()
    assert a.shared_array.ones_count == b.shared_array.ones_count
    assert a.counters() == b.counters()


class TestVosRoundTrip:
    def test_bit_exact_state_and_estimates(self, fed_vos, tmp_path):
        path = tmp_path / "vos.snapshot"
        save_snapshot(fed_vos, path)
        restored = load_snapshot(path)
        assert isinstance(restored, VirtualOddSketch)
        _assert_same_vos_state(fed_vos, restored)
        users = sorted(fed_vos.users())[:6]
        for i, user_a in enumerate(users):
            for user_b in users[i + 1 :]:
                assert fed_vos.estimate_jaccard(user_a, user_b) == restored.estimate_jaccard(
                    user_a, user_b
                )
                assert fed_vos.estimate_common_items(
                    user_a, user_b
                ) == restored.estimate_common_items(user_a, user_b)

    def test_restored_sketch_keeps_ingesting_identically(self, fed_vos):
        restored = loads_snapshot(dumps_snapshot(fed_vos))
        follow_up = [StreamElement(1, 9000 + i, Action.INSERT) for i in range(50)]
        reference = loads_snapshot(dumps_snapshot(fed_vos))
        for element in follow_up:
            reference.process(element)
        restored.process_batch(follow_up)
        _assert_same_vos_state(reference, restored)

    def test_empty_sketch_round_trips(self):
        vos = VirtualOddSketch(shared_array_bits=64, virtual_sketch_size=8, seed=0)
        restored = loads_snapshot(dumps_snapshot(vos))
        _assert_same_vos_state(vos, restored)


class TestShardedRoundTrip:
    def test_bit_exact_per_shard(self, fed_sharded, tmp_path):
        path = tmp_path / "sharded.snapshot"
        save_snapshot(fed_sharded, path)
        restored = load_snapshot(path)
        assert isinstance(restored, ShardedVOS)
        assert restored.num_shards == fed_sharded.num_shards
        for original, copy in zip(fed_sharded.shards, restored.shards):
            _assert_same_vos_state(original, copy)
        users = sorted(fed_sharded.users())[:6]
        for i, user_a in enumerate(users):
            for user_b in users[i + 1 :]:
                assert fed_sharded.estimate_jaccard(
                    user_a, user_b
                ) == restored.estimate_jaccard(user_a, user_b)

    def test_restore_does_not_copy_the_payload(self):
        """The load's transient allocations stay under half the snapshot:
        sections are read through views of the bytes, not copies of them."""
        import tracemalloc

        import repro.service  # noqa: F401  (registers the index section codec)
        from repro.index import INDEX_SNAPSHOT_SECTION, BandedSketchIndex

        sketch = ShardedVOS(8, shard_array_bits=1 << 23, virtual_sketch_size=256, seed=4)
        users = [*range(400), *(f"u{n}" for n in range(100))]
        sketch.process_batch(
            [StreamElement(user, item, Action.INSERT) for user in users for item in range(20)]
        )
        index = BandedSketchIndex(sketch)
        blob = dumps_snapshot(
            sketch, extras={INDEX_SNAPSHOT_SECTION: index.export_state()}, checkpoint_id="x"
        )
        tracemalloc.start()
        try:
            state = loads_snapshot_state(blob)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert INDEX_SNAPSHOT_SECTION in state.extras
        assert state.sketch.num_users == len(users)
        assert peak - retained < len(blob) / 2

    def test_save_does_not_copy_the_payload(self, tmp_path):
        """A save writes the array sections from views of the live storage
        and accumulates the CRC section by section: its transient allocations
        stay far below one payload (the whole-payload copies took ~3)."""
        import tracemalloc

        from repro.service import SimilarityService

        service = SimilarityService(
            ShardedVOS(8, shard_array_bits=1 << 23, virtual_sketch_size=256, seed=4)
        )
        path = tmp_path / "state.vos"
        service.save(path)
        tracemalloc.start()
        try:
            service.save(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        payload = 8 * (1 << 23) // 8
        assert path.stat().st_size > payload
        assert peak - retained < payload / 16
        assert load_snapshot(path).shards[3].shared_array.to_packed_bytes() == bytes(
            payload // 8
        )


class TestCorruptionPaths:
    def test_bad_magic(self, fed_vos):
        blob = dumps_snapshot(fed_vos)
        with pytest.raises(SnapshotError, match="magic"):
            loads_snapshot(b"NOTASNAP" + blob[len(MAGIC) :])

    def test_version_mismatch(self, fed_vos):
        blob = bytearray(dumps_snapshot(fed_vos))
        blob[len(MAGIC) : len(MAGIC) + 4] = struct.pack("<I", 99)
        with pytest.raises(SnapshotError, match="version 99"):
            loads_snapshot(bytes(blob))

    def test_flipped_payload_byte_fails_crc(self, fed_vos):
        blob = bytearray(dumps_snapshot(fed_vos))
        blob[-1] ^= 0xFF
        with pytest.raises(SnapshotError, match="CRC"):
            loads_snapshot(bytes(blob))

    def test_truncated_payload(self, fed_vos):
        blob = dumps_snapshot(fed_vos)
        with pytest.raises(SnapshotError):
            loads_snapshot(blob[:-10])

    def test_truncated_header(self, fed_vos):
        blob = dumps_snapshot(fed_vos)
        with pytest.raises(SnapshotError):
            loads_snapshot(blob[: len(MAGIC) + 10])

    def test_empty_bytes(self):
        with pytest.raises(SnapshotError):
            loads_snapshot(b"")

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="not found"):
            load_snapshot(tmp_path / "does-not-exist.snapshot")

    def test_unsupported_sketch_type(self):
        with pytest.raises(SnapshotError, match="only VirtualOddSketch"):
            dumps_snapshot(object())

    def test_valid_json_header_with_missing_keys(self):
        """A structurally valid but wrong header must raise SnapshotError,
        not leak KeyError (the CRC only covers the payload)."""
        import json
        import zlib

        header = json.dumps({"crc32": zlib.crc32(b"")}).encode("utf-8")
        blob = MAGIC + struct.pack("<II", 1, len(header)) + header
        with pytest.raises(SnapshotError, match="malformed"):
            loads_snapshot(blob)

    def test_non_object_json_header(self):
        import json

        header = json.dumps([1, 2, 3]).encode("utf-8")
        blob = MAGIC + struct.pack("<II", 1, len(header)) + header
        with pytest.raises(SnapshotError, match="not a JSON object"):
            loads_snapshot(blob)

    def test_unknown_kind(self, fed_vos):
        import json

        blob = dumps_snapshot(fed_vos)
        version, header_length = struct.unpack_from("<II", blob, len(MAGIC))
        start = len(MAGIC) + 8
        header = json.loads(blob[start : start + header_length])
        header["kind"] = "FutureSketch"
        new_header = json.dumps(header, separators=(",", ":")).encode("utf-8")
        rebuilt = (
            MAGIC
            + struct.pack("<II", version, len(new_header))
            + new_header
            + blob[start + header_length :]
        )
        with pytest.raises(SnapshotError, match="unknown snapshot kind"):
            loads_snapshot(rebuilt)

    def test_unsupported_user_id_types_are_rejected(self):
        vos = VirtualOddSketch(shared_array_bits=64, virtual_sketch_size=8)
        vos.process(StreamElement((1, 2), 1, Action.INSERT))
        with pytest.raises(SnapshotError, match="user id"):
            dumps_snapshot(vos)


def _rebuild_with_header(blob: bytes, mutate) -> bytes:
    """Re-pack a snapshot after applying ``mutate`` to its JSON header."""
    import json

    version, header_length = struct.unpack_from("<II", blob, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(blob[start : start + header_length])
    mutate(header)
    new_header = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return (
        MAGIC
        + struct.pack("<II", version, len(new_header))
        + new_header
        + blob[start + header_length :]
    )


class TestHeaderCorruptionPaths:
    """Header-level corruption the payload CRC cannot catch."""

    def test_unknown_section_name(self, fed_vos):
        def rename(header):
            header["sections"][0]["name"] = "mystery-section"

        rebuilt = _rebuild_with_header(dumps_snapshot(fed_vos), rename)
        with pytest.raises(SnapshotError, match="missing section"):
            loads_snapshot(rebuilt)

    def test_unknown_section_name_sharded(self, fed_sharded):
        def rename(header):
            header["sections"][2]["name"] = "shard0/extras"

        rebuilt = _rebuild_with_header(dumps_snapshot(fed_sharded), rename)
        with pytest.raises(SnapshotError, match="missing section"):
            loads_snapshot(rebuilt)

    def test_section_table_overruns_payload(self, fed_vos):
        def inflate(header):
            header["sections"][-1]["bytes"] += 16

        rebuilt = _rebuild_with_header(dumps_snapshot(fed_vos), inflate)
        with pytest.raises(SnapshotError, match="sections describe"):
            loads_snapshot(rebuilt)

    def test_section_table_underruns_payload(self, fed_vos):
        def shrink(header):
            header["sections"][-1]["bytes"] -= 8

        rebuilt = _rebuild_with_header(dumps_snapshot(fed_vos), shrink)
        with pytest.raises(SnapshotError, match="sections describe"):
            loads_snapshot(rebuilt)

    def test_set_pad_bit_in_array_section(self):
        """A ragged array's pad bits are zero; a set one is rejected, not masked."""
        vos = VirtualOddSketch(shared_array_bits=77, virtual_sketch_size=16, seed=4)
        vos.process(StreamElement(1, 2, Action.INSERT))
        blob = dumps_snapshot(vos)
        _, header_length = struct.unpack_from("<II", blob, len(MAGIC))
        payload_start = len(MAGIC) + 8 + header_length
        array_bytes = (77 + 7) // 8  # "array" is the first payload section
        payload = bytearray(blob[payload_start:])
        payload[array_bytes - 1] |= 0x01  # bit 79: past the 77th position

        def recompute_crc(header):
            header["crc32"] = zlib.crc32(bytes(payload))

        rebuilt = _rebuild_with_header(blob[:payload_start], recompute_crc)
        with pytest.raises(SnapshotError, match="pad bits"):
            loads_snapshot_state(rebuilt + bytes(payload))

    def test_mismatched_shard_count(self, fed_sharded):
        def lie(header):
            header["parameters"]["num_shards"] += 1

        rebuilt = _rebuild_with_header(dumps_snapshot(fed_sharded), lie)
        with pytest.raises(SnapshotError, match="shard count"):
            loads_snapshot(rebuilt)

    @pytest.mark.parametrize(
        "target, field, value",
        [
            ("vos", "shared_array_bits", 10**12),
            ("vos", "shared_array_bits", 2**70),
            ("vos", "seed", "x"),
            ("vos", "seed", 1e308),
            ("vos", "virtual_sketch_size", -1),
            ("vos", "virtual_sketch_size", 10**6),
            ("vos", "ones_count", 0.5),
            ("vos", "num_users", True),
            ("sharded", "shard_array_bits", 10**12),
            ("sharded", "num_shards", 0),
            ("sharded", "seed", "x"),
            ("sharded", "virtual_sketch_size", 64),
            ("shard", "shared_array_bits", 10**12),
            ("shard", "seed", 5),
        ],
        ids=repr,
    )
    def test_parameters_are_checked_before_allocation(
        self, fed_vos, fed_sharded, target, field, value
    ):
        """The CRC covers only the payload, so the header's sketch parameters
        (here rewritten with the payload and its CRC left intact) must be
        plain integers that agree with the sections before anything is
        allocated: a lying ``shared_array_bits`` once asked for 116 GiB."""
        sketch = fed_vos if target == "vos" else fed_sharded

        def lie(header):
            parameters = header["parameters"]
            (parameters["shards"][0] if target == "shard" else parameters)[field] = value

        rebuilt = _rebuild_with_header(dumps_snapshot(sketch), lie)
        with pytest.raises(SnapshotError):
            loads_snapshot(rebuilt)


def _rewrite_index_section(blob: bytes, rewrite) -> bytes:
    """Re-pack a snapshot whose ``index/banding`` section bytes ``rewrite``
    replaces, with the extras table and the payload CRC updated to match."""
    import json

    _, header_length = struct.unpack_from("<II", blob, len(MAGIC))
    payload_start = len(MAGIC) + 8 + header_length
    header = json.loads(blob[len(MAGIC) + 8 : payload_start])
    payload = blob[payload_start:]
    start = sum(entry["bytes"] for entry in header["sections"])
    for entry in header["extras"]:
        if entry["name"] == "index/banding":
            break
        start += entry["bytes"]
    section = rewrite(payload[start : start + entry["bytes"]])
    new_payload = payload[:start] + section + payload[start + entry["bytes"] :]

    def resize(header):
        entry = next(e for e in header["extras"] if e["name"] == "index/banding")
        entry["bytes"] = len(section)
        header["crc32"] = zlib.crc32(new_payload)

    return _rebuild_with_header(blob[:payload_start], resize) + new_payload


def test_fractional_index_row_count_is_snapshot_error(tmp_path):
    """A CRC-valid ``index/banding`` section declaring ``"rows": 0.5`` for a
    shard, with byte lengths that agree with that count (4 bytes of users,
    ``0.5 * 3 * 8`` of signatures for 3 columns), fails the load with
    SnapshotError; it once escaped as a bare ValueError from ``frombuffer``."""
    import json

    from repro.index.banding import IndexConfig
    from repro.service import SimilarityService

    service = SimilarityService(
        ShardedVOS(2, 4096, 128, seed=4), index_config=IndexConfig(bands=2)
    )
    service.ingest(
        [StreamElement(user, item, Action.INSERT) for user in range(12) for item in range(6)]
    )
    path = tmp_path / "state.vos"
    service.save(path, include_index=True)

    def forge(section: bytes) -> bytes:
        (length,) = struct.unpack_from("<I", section)
        index_header = json.loads(section[4 : 4 + length])
        first = index_header["shards"][0]
        shard_bytes = first["users_bytes"] + first["signatures_bytes"] + first["valid_bytes"]
        assert index_header["bands"] + 1 == 3
        first.update(
            rows=0.5, users_encoding="int64", users_bytes=4, signatures_bytes=12, valid_bytes=1
        )
        new_header = json.dumps(index_header, separators=(",", ":")).encode("utf-8")
        return (
            struct.pack("<I", len(new_header))
            + new_header
            + bytes(17)
            + section[4 + length + shard_bytes :]
        )

    path.write_bytes(_rewrite_index_section(path.read_bytes(), forge))
    with pytest.raises(SnapshotError):
        SimilarityService.load(path)


class TestRetiredParameters:
    """Snapshots written before the row memo carried a ``cache_positions`` flag."""

    def test_new_snapshots_do_not_write_cache_positions(self, fed_vos, fed_sharded):
        for sketch in (fed_vos, fed_sharded):
            blob = dumps_snapshot(sketch)
            _, header_length = struct.unpack_from("<II", blob, len(MAGIC))
            assert b"cache_positions" not in blob[: len(MAGIC) + 8 + header_length]

    @pytest.mark.parametrize("flag", [False, True])
    def test_cache_positions_flag_is_ignored_on_load(self, fed_vos, fed_sharded, flag):
        def add_flag(header):
            parameters = header["parameters"]
            for entry in parameters.get("shards", [parameters]):
                entry["cache_positions"] = flag

        restored = loads_snapshot(_rebuild_with_header(dumps_snapshot(fed_vos), add_flag))
        _assert_same_vos_state(fed_vos, restored)
        sharded = loads_snapshot(
            _rebuild_with_header(dumps_snapshot(fed_sharded), add_flag)
        )
        for original, copy in zip(fed_sharded.shards, sharded.shards):
            _assert_same_vos_state(original, copy)
        for sketch, loaded in ((fed_vos, restored), (fed_sharded, sharded)):
            users = sorted(sketch.users())[:8]
            pairs = [(a, b) for i, a in enumerate(users) for b in users[i + 1 :]]
            assert loaded.estimate_pairs(pairs) == sketch.estimate_pairs(pairs)


class TestObjectUserIds:
    """String and mixed user ids persist via the JSON id-column encoding."""

    def test_string_ids_round_trip(self):
        vos = VirtualOddSketch(shared_array_bits=4096, virtual_sketch_size=64, seed=2)
        for user in ("alice", "bob", "carol"):
            for item in range(15):
                vos.process(StreamElement(user, f"item-{item}", Action.INSERT))
        vos.process(StreamElement("alice", "item-3", Action.DELETE))
        restored = loads_snapshot(dumps_snapshot(vos))
        _assert_same_vos_state(vos, restored)
        assert restored.estimate_jaccard("alice", "bob") == vos.estimate_jaccard(
            "alice", "bob"
        )

    def test_mixed_and_big_int_ids_round_trip(self):
        vos = VirtualOddSketch(shared_array_bits=4096, virtual_sketch_size=64, seed=2)
        users = [7, "seven", 2**70]
        for user in users:
            for item in range(10):
                vos.process(StreamElement(user, item, Action.INSERT))
        restored = loads_snapshot(dumps_snapshot(vos))
        _assert_same_vos_state(vos, restored)
        for user in users:
            assert restored.cardinality(user) == vos.cardinality(user)
            assert type(user) in (int, str)  # sanity: ids keep their types
            assert restored.has_user(user)

    def test_sharded_string_ids_round_trip(self, tmp_path):
        sketch = ShardedVOS(3, 2048, 64, seed=5)
        for user in ("u1", "u2", "u3", "u4"):
            for item in range(12):
                sketch.process(StreamElement(user, item, Action.INSERT))
        path = tmp_path / "strings.vos"
        save_snapshot(sketch, path)
        restored = load_snapshot(path)
        for original, copy in zip(sketch.shards, restored.shards):
            _assert_same_vos_state(original, copy)


class TestFormatV2:
    def test_writes_version_2_with_checkpoint_id(self, fed_vos, tmp_path):
        from repro.service.snapshot import FORMAT_VERSION, load_snapshot_state, snapshot_info

        path = tmp_path / "v2.vos"
        save_snapshot(fed_vos, path)
        info = snapshot_info(path)
        assert info["format_version"] == FORMAT_VERSION == 2
        assert len(info["checkpoint_id"]) == 16
        state = load_snapshot_state(path)
        assert state.version == 2
        assert state.checkpoint_id == info["checkpoint_id"]
        assert state.extras == {}

    def test_v1_snapshots_still_load(self, fed_vos):
        """A faithful v1 blob (v1 header keys, same core sections) restores."""
        import json

        blob = dumps_snapshot(fed_vos)
        version, header_length = struct.unpack_from("<II", blob, len(MAGIC))
        start = len(MAGIC) + 8
        header = json.loads(blob[start : start + header_length])
        # v1 headers had no checkpoint id, no extras table and no encodings.
        del header["checkpoint_id"]
        del header["extras"]
        for entry in header["sections"]:
            entry.pop("encoding", None)
        v1_header = json.dumps(header, separators=(",", ":")).encode("utf-8")
        v1_blob = (
            MAGIC
            + struct.pack("<II", 1, len(v1_header))
            + v1_header
            + blob[start + header_length :]
        )
        from repro.service.snapshot import loads_snapshot_state

        state = loads_snapshot_state(v1_blob)
        assert state.version == 1
        assert state.checkpoint_id == ""
        _assert_same_vos_state(fed_vos, state.sketch)

    def test_unknown_extra_sections_are_skipped(self, fed_vos):
        from repro.service.snapshot import (
            loads_snapshot_state,
            register_snapshot_section,
        )

        register_snapshot_section(
            "test/extra", encode=lambda state: state, decode=lambda data: data
        )
        blob = dumps_snapshot(fed_vos, extras={"test/extra": b"hello"})
        state = loads_snapshot_state(blob)
        assert state.extras == {"test/extra": b"hello"}
        # A build without the codec must skip the section, not fail.
        from repro.service import snapshot as snapshot_module

        del snapshot_module._EXTRA_SECTIONS["test/extra"]
        state = loads_snapshot_state(blob)
        assert state.extras == {}
        assert state.unknown_extras == ("test/extra",)

    def test_unregistered_extra_name_rejected_at_write(self, fed_vos):
        with pytest.raises(SnapshotError, match="no snapshot section registered"):
            dumps_snapshot(fed_vos, extras={"no/such/section": object()})

    def test_extras_are_covered_by_the_payload_crc(self, fed_vos):
        from repro.service.snapshot import (
            loads_snapshot_state,
            register_snapshot_section,
        )

        register_snapshot_section(
            "test/crc", encode=lambda state: state, decode=lambda data: data
        )
        try:
            blob = bytearray(dumps_snapshot(fed_vos, extras={"test/crc": b"payload"}))
            blob[-2] ^= 0xFF  # lands inside the extra section
            with pytest.raises(SnapshotError, match="CRC"):
                loads_snapshot_state(bytes(blob))
        finally:
            from repro.service import snapshot as snapshot_module

            del snapshot_module._EXTRA_SECTIONS["test/crc"]


class TestAtomicWrites:
    def test_crash_mid_write_never_shadows_a_good_snapshot(
        self, fed_vos, tmp_path, monkeypatch
    ):
        """A failure before os.replace leaves the previous snapshot intact."""
        import os

        path = tmp_path / "state.vos"
        save_snapshot(fed_vos, path)
        good = path.read_bytes()

        def exploding_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            save_snapshot(fed_vos, path)
        monkeypatch.undo()
        assert path.read_bytes() == good
        # No temp file survives the failed attempt.
        assert [p.name for p in tmp_path.iterdir()] == ["state.vos"]
        _assert_same_vos_state(fed_vos, load_snapshot(path))

    def test_truncated_temp_style_file_never_replaces_target(self, fed_vos, tmp_path):
        """Even a torn write of the final bytes is caught by the CRC on load."""
        path = tmp_path / "state.vos"
        save_snapshot(fed_vos, path)
        torn = dumps_snapshot(fed_vos)[:-20]
        (tmp_path / "torn.vos").write_bytes(torn)
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path / "torn.vos")
        _assert_same_vos_state(fed_vos, load_snapshot(path))
