"""Seeded byte-mutation fuzzing of every parser of untrusted bytes.

Five formats arrive from outside the process: snapshots, journals,
``.vosstream`` files, the ``index/banding`` snapshot section and serving wire
frames.  Each parser must turn damaged or hostile bytes into a
:class:`~repro.exceptions.ReproError` subclass (``SnapshotError``,
``DatasetError``, ``ProtocolError``, ...) — never ``KeyError``,
``ValueError``, ``MemoryError`` or a silent crash.

Every parser gets three kinds of mutation of a valid sample, drawn from one
seeded generator so a failure reproduces exactly:

* bit flips anywhere in the bytes;
* truncations at random lengths;
* header-node replacement: every leaf and nested container of every JSON
  header (file headers, journal record headers, the index section header,
  frame bodies) is replaced in turn by each of ``-1``, ``0.5``, ``"x"``,
  ``null``, ``true``, ``[]``, ``{}`` and ``2**70``, and the CRC covering
  the rewritten bytes (journal frames, wire frames, the snapshot payload
  around the index section) is recomputed, so the parser sees a
  well-framed file that lies.  This mode found a snapshot header that
  asked for a 116 GiB array and an index section whose ``"rows": 0.5``
  escaped as a bare ``ValueError``.

A test passes when no mutation lets a non-``ReproError`` exception escape.
"""

from __future__ import annotations

import copy
import json
import random
import socket
import struct
import zlib
from collections.abc import Callable, Iterator

import pytest

from repro.core.vos import VirtualOddSketch
from repro.exceptions import DatasetError, ProtocolError, ReproError, SnapshotError
from repro.index.banding import (
    BandedSketchIndex,
    IndexConfig,
    decode_index_state,
    encode_index_state,
)
from repro.server import protocol
from repro.service import SimilarityService
from repro.service.journal import (
    JOURNAL_MAGIC,
    default_journal_path,
    replay_journal,
)
from repro.service.sharding import ShardedVOS
from repro.service.snapshot import MAGIC, loads_snapshot
from repro.streams import Action, GraphStream, StreamElement
from repro.streams.io import STREAM_MAGIC, iter_stream_batches, read_stream, write_stream

SEED = 24
FLIPS = 40
CUTS = 20
REPLACEMENTS = (-1, 0.5, "x", None, True, [], {}, 2**70)
MIXED_IDS = ["alice", 7, 2.5, -3, 2**70, "bob", 11, "ü"]

#: A JSON header inside a sample and how to re-pack the sample around it.
Site = tuple[dict, Callable[[dict], bytes]]


# -- mutations ---------------------------------------------------------------------------


def bit_flips(blob: bytes, rng: random.Random) -> Iterator[bytes]:
    for _ in range(FLIPS):
        mutated = bytearray(blob)
        for _ in range(rng.choice((1, 1, 2, 8))):
            mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
        yield bytes(mutated)


def truncations(blob: bytes, rng: random.Random) -> Iterator[bytes]:
    yield b""
    for _ in range(CUTS):
        yield blob[: rng.randrange(len(blob))]


def _paths(node: object, prefix: tuple = ()) -> Iterator[tuple]:
    """Every key/index path below ``node`` (the root itself excluded)."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def node_replacements(sites: list[Site]) -> Iterator[bytes]:
    for header, repack in sites:
        for path in list(_paths(header)):
            for value in REPLACEMENTS:
                lie = copy.deepcopy(header)
                parent = lie
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = value
                yield repack(lie)


def assert_only_repro_errors(parse: Callable[[bytes], object], blob: bytes, sites) -> int:
    """Run ``parse`` on every mutation of ``blob``; returns how many ran."""
    rng = random.Random(SEED)
    parse(blob)  # the unmutated sample parses
    runs = 0
    for mode, variants in (
        ("bit flip", bit_flips(blob, rng)),
        ("truncation", truncations(blob, rng)),
        ("header node", node_replacements(sites)),
    ):
        for variant in variants:
            runs += 1
            try:
                parse(variant)
            except ReproError:
                pass
            except Exception as error:  # noqa: BLE001 - the property under test
                raise AssertionError(
                    f"{mode} mutation #{runs} escaped as {type(error).__name__}: {error}"
                ) from error
    return runs


# -- the byte layouts, re-implemented here so the test does not trust the codec ---------


def _split_file(blob: bytes, magic: bytes) -> tuple[int, dict, bytes]:
    version, length = struct.unpack_from("<II", blob, len(magic))
    start = len(magic) + 8
    return version, json.loads(blob[start : start + length]), blob[start + length :]


def _file(magic: bytes, version: int, header: dict, payload: bytes) -> bytes:
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return magic + struct.pack("<II", version, len(header_bytes)) + header_bytes + payload


def _split_block(block: bytes) -> tuple[dict, bytes]:
    (length,) = struct.unpack_from("<I", block)
    return json.loads(block[4 : 4 + length]), block[4 + length :]


def _block(header: dict, payload: bytes) -> bytes:
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return struct.pack("<I", len(header_bytes)) + header_bytes + payload


def _frame(body: bytes) -> bytes:
    return struct.pack("<II", len(body), zlib.crc32(body)) + body


def _frames(data: bytes) -> list[bytes]:
    bodies, offset = [], 0
    while offset < len(data):
        length, _ = struct.unpack_from("<II", data, offset)
        bodies.append(data[offset + 8 : offset + 8 + length])
        offset += 8 + length
    return bodies


# -- samples -----------------------------------------------------------------------------


def _elements(users: list, items_per_user: int = 5) -> list[StreamElement]:
    return [
        StreamElement(user, f"i{(position + j) % 9}", Action.INSERT)
        for position, user in enumerate(users)
        for j in range(items_per_user)
    ]


def _snapshot_sites(blob: bytes) -> list[Site]:
    version, header, payload = _split_file(blob, MAGIC)
    sites: list[Site] = [
        (header, lambda lie: _file(MAGIC, version, lie, payload))
    ]
    extras = header.get("extras", [])
    if extras:
        start = sum(entry["bytes"] for entry in header["sections"])
        section = payload[start : start + extras[0]["bytes"]]
        index_header, index_payload = _split_block(section)

        def repack_index(lie: dict) -> bytes:
            block = _block(lie, index_payload)
            new_payload = payload[:start] + block + payload[start + len(section) :]
            outer = copy.deepcopy(header)
            outer["extras"][0]["bytes"] = len(block)
            outer["crc32"] = zlib.crc32(new_payload)
            return _file(MAGIC, version, outer, new_payload)

        sites.append((index_header, repack_index))
    return sites


@pytest.mark.parametrize("kind", ["vos", "sharded-with-index"])
def test_snapshot_parser(kind):
    """``loads_snapshot_state``, through the service restore that also hands
    the decoded index section to ``restore_state``."""
    if kind == "vos":
        service = SimilarityService(VirtualOddSketch(4096, 128, seed=3))
        service.ingest(_elements(list(range(10))))
    else:
        service = SimilarityService(ShardedVOS(2, 2048, 128, seed=3))
        service.ingest(_elements(MIXED_IDS))
        service.index().refresh()
    blob = service.dumps_state()
    assert assert_only_repro_errors(SimilarityService.from_state_bytes, blob, _snapshot_sites(blob))


@pytest.mark.parametrize("version", [0, 1, 2, 4, 2**32 - 1])
def test_snapshot_header_versions_other_than_3_are_refused(version):
    """The v3 header round-trips; the same bytes under any other version
    (v1 and v2 placed bits with the Carter-Wegman user family) raise a
    SnapshotError naming the version, before any section is read."""
    service = SimilarityService(ShardedVOS(2, 2048, 128, seed=3))
    service.ingest(_elements(MIXED_IDS))
    service.index().refresh()
    blob = service.dumps_state()
    found, header, payload = _split_file(blob, MAGIC)
    assert found == 3 and _file(MAGIC, 3, header, payload) == blob
    with pytest.raises(
        SnapshotError, match=rf"unsupported snapshot version {version} \(this build reads version 3\)"
    ):
        SimilarityService.from_state_bytes(_file(MAGIC, version, header, payload))


def test_journal_parser(tmp_path):
    """``read_journal``, through ``replay_journal`` onto the snapshot it binds to."""
    service = SimilarityService(ShardedVOS(2, 2048, 128, seed=5))
    snapshot = tmp_path / "state.vos"
    service.ingest(_elements(MIXED_IDS[:4]))
    service.save(snapshot)
    for chunk in (MIXED_IDS[4:], [100, 101]):
        service.ingest(_elements(chunk, 3))
        service.save_delta()
    journal = default_journal_path(snapshot)
    blob = journal.read_bytes()
    base = snapshot.read_bytes()
    version, header, records = _split_file(blob, JOURNAL_MAGIC)
    checkpoint = header["checkpoint_id"]
    target = tmp_path / "fuzzed.journal"

    def parse(data: bytes) -> None:
        target.write_bytes(data)
        replay_journal(loads_snapshot(base), target, checkpoint_id=checkpoint)

    bodies = _frames(records)
    sites: list[Site] = [(header, lambda lie: _file(JOURNAL_MAGIC, version, lie, records))]
    for position, body in enumerate(bodies):
        record_header, record_payload = _split_block(body)

        def repack(lie: dict, position: int = position, payload: bytes = record_payload) -> bytes:
            framed = [_frame(b) for b in bodies]
            framed[position] = _frame(_block(lie, payload))
            return _file(JOURNAL_MAGIC, version, header, b"".join(framed))

        sites.append((record_header, repack))
    assert len(bodies) >= 2
    assert assert_only_repro_errors(parse, blob, sites)


@pytest.mark.parametrize("ids", ["int", "string", "mixed"])
def test_stream_parsers(tmp_path, ids):
    """``read_stream`` and ``iter_stream_batches`` over a binary stream."""
    users = {
        "int": list(range(6)),
        "string": [f"u{n}" for n in range(6)],
        "mixed": MIXED_IDS,
    }[ids]
    elements = [
        StreamElement(user, item if ids == "int" else f"{item}", Action.INSERT)
        for user in users
        for item in range(3)
    ] + [StreamElement(users[0], 0 if ids == "int" else "0", Action.DELETE)]
    source = tmp_path / "sample.vosstream"
    write_stream(GraphStream(elements, name="fuzz"), source)
    blob = source.read_bytes()
    target = tmp_path / "fuzzed.vosstream"

    def parse(data: bytes) -> None:
        target.write_bytes(data)
        read_stream(target)
        for _ in iter_stream_batches(target, batch_size=4):
            pass

    version, header, payload = _split_file(blob, STREAM_MAGIC)
    sites = [(header, lambda lie: _file(STREAM_MAGIC, version, lie, payload))]
    assert assert_only_repro_errors(parse, blob, sites)


@pytest.mark.parametrize("user", [1, "alice"])
@pytest.mark.parametrize("reader", ["read_stream", "iter_stream_batches"])
def test_stream_bytes_past_the_last_column_are_rejected(tmp_path, user, reader):
    """A one-element stream with 8 junk bytes appended is not a stream."""
    source = tmp_path / "sample.vosstream"
    write_stream(GraphStream([StreamElement(user, 2, Action.INSERT)], name="tail"), source)
    read = {
        "read_stream": read_stream,
        "iter_stream_batches": lambda path: list(iter_stream_batches(path)),
    }[reader]
    assert len(read(source)) == 1
    source.write_bytes(source.read_bytes() + b"\x00" * 8)
    with pytest.raises(DatasetError):
        read(source)


def test_index_section_parser():
    """``decode_index_state``, then ``restore_state`` onto the sketch."""
    sketch = ShardedVOS(2, 2048, 256, seed=9)
    sketch.process_batch(_elements(MIXED_IDS))
    index = BandedSketchIndex(sketch, IndexConfig(bands=2))
    blob = encode_index_state(index.export_state())

    def parse(data: bytes) -> None:
        BandedSketchIndex(sketch).restore_state(decode_index_state(data))

    header, payload = _split_block(blob)
    assert assert_only_repro_errors(parse, blob, [(header, lambda lie: _block(lie, payload))])


def test_wire_frame_parser():
    """``recv_frame`` on a socket pair: every frame up to a clean EOF."""
    requests = [
        {"op": "ping"},
        {"op": "nearest", "user": "alice", "k": 5, "candidates": [1, "b", 2.5]},
    ]
    blob = b"".join(protocol.encode_frame(request) for request in requests)

    def parse(data: bytes) -> None:
        left, right = socket.socketpair()
        try:
            left.settimeout(5)
            right.settimeout(5)
            left.sendall(data)
            left.shutdown(socket.SHUT_WR)
            while protocol.recv_frame(right) is not None:
                pass
        finally:
            left.close()
            right.close()

    bodies = _frames(blob)
    sites: list[Site] = []
    for position, body in enumerate(bodies):

        def repack(lie: dict, position: int = position) -> bytes:
            framed = [_frame(b) for b in bodies]
            framed[position] = _frame(json.dumps(lie, separators=(",", ":")).encode())
            return b"".join(framed)

        sites.append((json.loads(body), repack))
    assert assert_only_repro_errors(parse, blob, sites)


def test_hostile_json_is_a_typed_error():
    """JSON nested past the recursion limit, or an integer past Python's
    digit limit, is a ProtocolError on the wire, not RecursionError or
    ValueError."""
    for body in (b"[" * 100_000 + b"]" * 100_000, b'{"k": ' + b"9" * 5000 + b"}"):
        left, right = socket.socketpair()
        try:
            left.sendall(_frame(body))
            left.shutdown(socket.SHUT_WR)
            with pytest.raises(ProtocolError):
                protocol.recv_frame(right)
        finally:
            left.close()
            right.close()
