"""Versioned binary snapshots of VOS sketch state (format v3).

A snapshot captures everything needed to resume serving after a restart — or
to ship a sketch to another process — with a **bit-exact** round-trip
guarantee: construction parameters (seed included, so every hash function is
reconstructed identically), the raw shared-array bits packed 8-per-byte, and
the per-user cardinality counters.

Layout (little-endian)::

    offset  size  field
    0       8     magic  b"VOSSNAP\\x00"
    8       4     format version (currently 3; older versions are refused)
    12      4     header length H
    16      H     header: UTF-8 JSON (kind, checkpoint id, parameters,
                  section + extra tables, CRC-32)
    16+H    ...   payload: the concatenated binary sections, core first,
                  then the registered extra sections

The header's section table records each core section's name, byte length and
(for id columns) encoding in payload order; the CRC-32 of the whole payload is
verified on load, so flipped bits and truncation surface as
:class:`~repro.exceptions.SnapshotError` rather than silently corrupted
estimates.  The CRC does not cover the header (a :mod:`repro.framing` file
header), so every parameter and length it declares is checked before it
sizes anything: an ``m``-bit array is built only once its section holds
exactly ``ceil(m / 8)`` bytes.

**What's new in v3** over v2: nothing in the layout.  The version names the
hash family the bits were written with: v3 arrays hold each user's virtual
bits at the double-hash positions of
:class:`~repro.hashing.families.PositionFamily`, v1 and v2 arrays at the
``k``-member Carter-Wegman family it replaced.  The same bits read under the
other family would give silently wrong estimates, so v1 and v2 files raise
:class:`~repro.exceptions.SnapshotError` naming their version.

**What v2 added** over v1:

* a random ``checkpoint_id`` binding the snapshot to its write-ahead journal
  (:mod:`repro.service.journal`) — a journal can only be replayed onto the
  checkpoint it was recorded against;
* *extra sections*: a pluggable registry (:func:`register_snapshot_section`)
  through which subsystems persist their own named state — the LSH banding
  index (:mod:`repro.index.banding`) registers its per-shard signature tables
  here, making restart-to-first-query O(1) instead of an O(users) rebuild.
  Extras are accelerations, not state: a reader that does not recognise an
  extra section skips it and remains correct;
* user-id columns carry an ``encoding`` (``int64`` or ``json``), so sketches
  keyed by string/object user ids snapshot too — the same id-column scheme
  the binary ``.vosstream`` stream format uses;
* writes are atomic: :func:`save_snapshot` writes a temp file in the target
  directory and ``os.replace``\\ s it into place, so a crash mid-write can
  truncate only the temp file, never the previous good snapshot.
"""

from __future__ import annotations

import io
import os
import tempfile
import uuid
import zlib
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import framing
from repro.core.vos import VirtualOddSketch
from repro.exceptions import ConfigurationError, SnapshotError
from repro.service.sharding import ShardedVOS

# The id-column codec (raw int64 or JSON fallback) lives in the leaf batch
# module so the journal and the banding index share it without import cycles;
# re-exported here because it is part of the snapshot format's public surface.
from repro.streams.batch import decode_id_column, encode_id_column  # noqa: F401

MAGIC = b"VOSSNAP\x00"
FORMAT_VERSION = 3
SUPPORTED_VERSIONS = (3,)

# Read the process umask once at import (single-threaded): os.umask is a
# set-and-restore toggle on process-global state, so probing it per write
# would race concurrent saves and could leave the umask cleared.
_UMASK = os.umask(0)
os.umask(_UMASK)

_KIND_VOS = "VirtualOddSketch"
_KIND_SHARDED = "ShardedVOS"


# -- section registry ----------------------------------------------------------------


@dataclass(frozen=True)
class SnapshotSectionCodec:
    """Encoder/decoder pair for one registered extra section.

    ``encode`` turns the subsystem's state object into bytes; ``decode`` is
    its inverse.  Both run under the snapshot's CRC, so decoders may assume
    bit-exact input and raise :class:`SnapshotError` only for *structural*
    problems (a payload written by an incompatible layout).
    """

    name: str
    encode: Callable[[object], bytes]
    decode: Callable[[bytes], object]


_EXTRA_SECTIONS: dict[str, SnapshotSectionCodec] = {}


def register_snapshot_section(
    name: str, *, encode: Callable[[object], bytes], decode: Callable[[bytes], object]
) -> None:
    """Register a named extra-section codec (idempotent per name).

    Subsystems call this at import time; the service then passes their state
    to :func:`dumps_snapshot` under the registered name, and
    :func:`loads_snapshot_state` hands the decoded object back.  Unknown
    extras found in a file are skipped (recorded in
    :attr:`SnapshotState.unknown_extras`) — extras accelerate restarts, they
    never carry required state.
    """
    _EXTRA_SECTIONS[name] = SnapshotSectionCodec(name=name, encode=encode, decode=decode)


def registered_snapshot_sections() -> tuple[str, ...]:
    """Names of the currently registered extra sections (sorted)."""
    return tuple(sorted(_EXTRA_SECTIONS))


# -- serialization ------------------------------------------------------------------


def _vos_sections(
    vos: VirtualOddSketch, prefix: str = ""
) -> list[tuple[str, bytes | memoryview, str | None]]:
    table = vos.user_table
    order = table.key_order()
    users_bytes, users_encoding = encode_id_column(table.ids(order))
    array = vos.shared_array
    return [
        # A view of the live storage, not a copy: the bytes to_packed_bytes returns.
        (f"{prefix}array", memoryview(array.storage[: (len(array) + 7) // 8]), None),
        (f"{prefix}card_users", users_bytes, users_encoding),
        (f"{prefix}card_counts", table.counts(order).astype("<i8").tobytes(), None),
    ]


def _vos_parameters(vos: VirtualOddSketch) -> dict:
    return {
        "shared_array_bits": vos.shared_array_bits,
        "virtual_sketch_size": vos.virtual_sketch_size,
        "seed": vos.seed,
        "ones_count": vos.shared_array.ones_count,
        "num_users": vos.num_users,
    }


def new_checkpoint_id() -> str:
    """A fresh random checkpoint identifier (16 hex characters)."""
    return uuid.uuid4().hex[:16]


def _snapshot_parts(
    sketch: VirtualOddSketch | ShardedVOS,
    extras: Mapping[str, object] | None,
    checkpoint_id: str | None,
) -> list:
    """The snapshot file as buffers in order: its header, then every section.

    Array sections are views of the live storage and the payload CRC is
    accumulated section by section, so the payload is never copied; the
    sketch must not be written until the buffers are consumed.
    """
    if isinstance(sketch, ShardedVOS):
        kind = _KIND_SHARDED
        parameters: dict = {
            "num_shards": sketch.num_shards,
            "shard_array_bits": sketch.shard_array_bits,
            "virtual_sketch_size": sketch.virtual_sketch_size,
            "seed": sketch.seed,
            "shards": [_vos_parameters(shard) for shard in sketch.shards],
        }
        sections: list[tuple[str, bytes | memoryview, str | None]] = []
        for index, shard in enumerate(sketch.shards):
            sections.extend(_vos_sections(shard, prefix=f"shard{index}/"))
    elif isinstance(sketch, VirtualOddSketch):
        kind = _KIND_VOS
        parameters = _vos_parameters(sketch)
        sections = _vos_sections(sketch)
    else:
        raise SnapshotError(
            f"cannot snapshot {type(sketch).__name__}; "
            "only VirtualOddSketch and ShardedVOS are supported"
        )
    extra_entries: list[dict] = []
    extra_blobs: list[bytes] = []
    for name, state in (extras or {}).items():
        codec = _EXTRA_SECTIONS.get(name)
        if codec is None:
            raise SnapshotError(
                f"no snapshot section registered under {name!r} "
                f"(registered: {', '.join(registered_snapshot_sections()) or 'none'})"
            )
        blob = codec.encode(state)
        extra_entries.append({"name": name, "bytes": len(blob)})
        extra_blobs.append(blob)
    payload = [data for _, data, _ in sections] + extra_blobs
    crc = 0
    for data in payload:
        crc = zlib.crc32(data, crc)
    section_table = []
    for name, data, encoding in sections:
        entry: dict = {"name": name, "bytes": len(data)}
        if encoding is not None:
            entry["encoding"] = encoding
        section_table.append(entry)
    header = {
        "kind": kind,
        "checkpoint_id": checkpoint_id or new_checkpoint_id(),
        "parameters": parameters,
        "sections": section_table,
        "extras": extra_entries,
        "crc32": crc,
    }
    return [framing.pack_file_header(MAGIC, FORMAT_VERSION, header), *payload]


def dumps_snapshot(
    sketch: VirtualOddSketch | ShardedVOS,
    *,
    extras: Mapping[str, object] | None = None,
    checkpoint_id: str | None = None,
) -> bytes:
    """Serialize a sketch to snapshot bytes (see module docstring for layout).

    ``extras`` maps registered extra-section names to the state objects their
    codecs encode (unregistered names raise :class:`SnapshotError`).
    ``checkpoint_id`` defaults to a fresh random id; pass one explicitly to
    re-bind a compaction to a known journal rotation.
    """
    return b"".join(_snapshot_parts(sketch, extras, checkpoint_id))


def atomic_write_bytes(path: str | Path, *chunks) -> None:
    """Write ``chunks`` (bytes-like, in order) to ``path`` atomically (temp
    file + ``os.replace``).

    The temp file lives in the target directory, so the final rename never
    crosses filesystems; a crash mid-write leaves at worst a stray
    ``.<name>.*.tmp`` file and the previous good file untouched.
    """
    target = Path(path)
    descriptor, temp_name = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        # mkstemp creates 0600; restore the mode a plain write would have
        # produced — the existing target's mode when overwriting (so operator
        # chmods survive), the umask-derived default otherwise.
        try:
            mode = target.stat().st_mode & 0o777
        except OSError:
            mode = 0o666 & ~_UMASK
        os.fchmod(descriptor, mode)
        with os.fdopen(descriptor, "wb") as handle:
            handle.writelines(chunks)
            handle.flush()
            # The data must be durable *before* the rename becomes durable:
            # a journaled rename pointing at unsynced pages would replace the
            # previous good file with a torn one after power loss.
            os.fsync(handle.fileno())
        os.replace(temp_name, target)
        try:
            directory = os.open(target.parent, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds: rename is best-effort
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def save_snapshot(
    sketch: VirtualOddSketch | ShardedVOS,
    path: str | Path,
    *,
    extras: Mapping[str, object] | None = None,
    checkpoint_id: str | None = None,
) -> str:
    """Atomically write a snapshot of ``sketch``; returns its checkpoint id."""
    checkpoint_id = checkpoint_id or new_checkpoint_id()
    atomic_write_bytes(path, *_snapshot_parts(sketch, extras, checkpoint_id))
    return checkpoint_id


# -- restoration --------------------------------------------------------------------


@dataclass
class SnapshotState:
    """Everything a snapshot restores: the sketch plus the decoded extras."""

    sketch: VirtualOddSketch | ShardedVOS
    version: int
    checkpoint_id: str
    extras: dict[str, object] = field(default_factory=dict)
    #: Extra-section names present in the file but not registered in this
    #: build — skipped on load (extras are accelerations, never required).
    unknown_extras: tuple[str, ...] = ()


def _section_bytes(entries: list[dict], default: int | None = None) -> int:
    """Total bytes a section table declares."""
    what = "snapshot section"
    return sum(framing.count(e, "bytes", SnapshotError, what, default) for e in entries)


def _split_sections(
    header: dict, payload: bytes
) -> tuple[dict[str, bytes], dict[str, str | None], dict[str, bytes]]:
    """Slice the payload into core sections, their encodings, and extras."""
    core, extra = (
        framing.mappings(header, name, SnapshotError, "snapshot header")
        for name in ("sections", "extras")
    )
    described = _section_bytes(core + extra)
    if described != len(payload):
        raise SnapshotError(
            f"payload holds {len(payload)} bytes but sections describe {described}"
        )
    cursor = framing.Cursor(payload, SnapshotError, "snapshot payload")
    sections = {str(entry.get("name")): cursor.take(entry["bytes"], "a section") for entry in core}
    extras = {str(entry.get("name")): cursor.take(entry["bytes"], "a section") for entry in extra}
    encodings = {str(entry.get("name")): entry.get("encoding") for entry in core}
    return sections, encodings, extras


def _sketch_parameters(parameters: dict, bits: str) -> tuple[int, int, int]:
    """``(array bits, virtual sketch size, seed)``, checked before any allocation."""
    seed = parameters.get("seed")
    if type(seed) is not int:
        raise SnapshotError(f"snapshot parameter 'seed' is {seed!r}, not an integer")
    what = "snapshot parameters"
    return (
        framing.count(parameters, bits, SnapshotError, what),
        framing.count(parameters, "virtual_sketch_size", SnapshotError, what),
        seed,
    )


def _restore_vos(
    parameters: dict,
    sections: dict[str, bytes],
    encodings: dict[str, str | None],
    prefix: str = "",
    hashes_from: VirtualOddSketch | None = None,
) -> VirtualOddSketch:
    """Restore one array; with ``hashes_from`` (a sketch of the same layout and
    seed) the result shares that sketch's hashes instead of deriving them."""
    bits, size, seed = _sketch_parameters(parameters, "shared_array_bits")
    ones_count = framing.count(parameters, "ones_count", SnapshotError, "snapshot parameters")
    num_users = framing.count(parameters, "num_users", SnapshotError, "snapshot parameters")
    try:
        array, users_blob, counts_blob = (
            sections[prefix + name] for name in ("array", "card_users", "card_counts")
        )
    except KeyError as error:
        raise SnapshotError(f"snapshot is missing section {error}") from None
    # The header is outside the CRC: match ``bits`` to the file's bytes
    # before allocating that many bits.
    if len(array) != (bits + 7) // 8:
        raise SnapshotError(
            f"snapshot array section holds {len(array)} bytes, but "
            f"{bits} bits pack into {(bits + 7) // 8}"
        )
    if len(counts_blob) != num_users * 8:
        raise SnapshotError("cardinality sections disagree with recorded user count")
    try:
        vos = (
            VirtualOddSketch(shared_array_bits=bits, virtual_sketch_size=size, seed=seed)
            if hashes_from is None
            else VirtualOddSketch.cow_view(hashes_from, blank=True)
        )
        vos.shared_array.load_packed_bytes(array)
    except ConfigurationError as error:
        raise SnapshotError(f"snapshot state is invalid: {error}") from error
    users = decode_id_column(users_blob, encodings.get(f"{prefix}card_users"), num_users)
    counts = np.frombuffer(counts_blob, dtype="<i8")
    if vos.shared_array.ones_count != ones_count:
        raise SnapshotError(
            "restored array popcount "
            f"{vos.shared_array.ones_count} != recorded {ones_count}"
        )
    try:
        # Untracked: a loaded snapshot is the journal's base, not a change.
        vos.user_table.assign(users, counts, track=False)
    except ConfigurationError as error:
        raise SnapshotError(f"snapshot counters are invalid: {error}") from error
    return vos


def _restore_sharded(
    parameters: dict, sections: dict[str, bytes], encodings: dict[str, str | None]
) -> ShardedVOS:
    num_shards = framing.count(parameters, "num_shards", SnapshotError, "snapshot parameters")
    layout = _sketch_parameters(parameters, "shard_array_bits")
    shard_parameters = framing.mappings(parameters, "shards", SnapshotError, "snapshot parameters")
    if len(shard_parameters) != num_shards or not num_shards:
        raise SnapshotError("snapshot records a mismatched shard count")
    # Checked before any shard is built: every shard holds the first one's
    # hashes, which are right only for the sketch's own layout and seed.
    for index, entry in enumerate(shard_parameters):
        if _sketch_parameters(entry, "shared_array_bits") != layout:
            raise SnapshotError(f"snapshot shard {index} parameters differ from the sketch's")
    first = _restore_vos(shard_parameters[0], sections, encodings, "shard0/")
    shards = [first] + [
        _restore_vos(entry, sections, encodings, f"shard{index}/", first)
        for index, entry in enumerate(shard_parameters[1:], start=1)
    ]
    return ShardedVOS.from_shards(shards, seed=layout[2])


def loads_snapshot_state(data: bytes) -> SnapshotState:
    """Restore a sketch *and* its extra sections from snapshot bytes.

    This is the full-fidelity load; :func:`loads_snapshot` is the
    sketch-only convenience wrapper.
    """
    stream = io.BytesIO(data)
    version, header = framing.read_file_header(
        stream, MAGIC, SUPPORTED_VERSIONS, SnapshotError, "snapshot"
    )
    # Sections are views into ``data``: the payload is never copied whole.
    payload = memoryview(data)[stream.tell() :]
    framing.check_crc(payload, header.get("crc32"), SnapshotError, "snapshot payload")
    # The CRC covers only the payload, so every header field is checked
    # before it sizes a slice or an allocation.
    sections, encodings, extra_blobs = _split_sections(header, payload)
    what = "malformed snapshot header: 'parameters'"
    parameters = framing.mapping(header.get("parameters"), SnapshotError, what)
    kind = header.get("kind")
    if kind == _KIND_VOS:
        sketch: VirtualOddSketch | ShardedVOS = _restore_vos(
            parameters, sections, encodings
        )
    elif kind == _KIND_SHARDED:
        sketch = _restore_sharded(parameters, sections, encodings)
    else:
        raise SnapshotError(f"unknown snapshot kind {kind!r}")
    extras: dict[str, object] = {}
    unknown: list[str] = []
    for name, blob in extra_blobs.items():
        codec = _EXTRA_SECTIONS.get(name)
        if codec is None:
            unknown.append(name)
            continue
        extras[name] = codec.decode(blob)
    return SnapshotState(
        sketch=sketch,
        version=version,
        checkpoint_id=str(header.get("checkpoint_id", "")),
        extras=extras,
        unknown_extras=tuple(unknown),
    )


def loads_snapshot(data: bytes) -> VirtualOddSketch | ShardedVOS:
    """Restore a sketch from snapshot bytes, verifying integrity."""
    return loads_snapshot_state(data).sketch


def load_snapshot_state(path: str | Path) -> SnapshotState:
    """Read a snapshot file with its extra sections and checkpoint id."""
    source = Path(path)
    if not source.exists():
        raise SnapshotError(f"snapshot file not found: {source}")
    return loads_snapshot_state(source.read_bytes())


def load_snapshot(path: str | Path) -> VirtualOddSketch | ShardedVOS:
    """Read a snapshot file previously written by :func:`save_snapshot`."""
    return load_snapshot_state(path).sketch


def snapshot_info(path: str | Path) -> dict:
    """Describe a snapshot file without restoring its sketch.

    Parses only the fixed prefix and JSON header (no payload CRC pass), so it
    is cheap even for multi-gigabyte snapshots.  Used by ``repro snapshot
    info``.
    """
    source = Path(path)
    if not source.exists():
        raise SnapshotError(f"snapshot file not found: {source}")
    with source.open("rb") as handle:
        version, header = framing.read_file_header(
            handle, MAGIC, SUPPORTED_VERSIONS, SnapshotError, "snapshot"
        )
    parameters = framing.mapping(
        header.get("parameters", {}), SnapshotError, "snapshot parameters"
    )
    sections, extras = (
        framing.mappings(header, name, SnapshotError, "snapshot header")
        for name in ("sections", "extras")
    )
    return {
        "path": str(source),
        "file_bytes": source.stat().st_size,
        "format_version": version,
        "kind": header.get("kind"),
        "checkpoint_id": str(header.get("checkpoint_id", "")),
        "num_shards": parameters.get("num_shards", 1),
        "seed": parameters.get("seed"),
        "virtual_sketch_size": parameters.get("virtual_sketch_size"),
        "sections": [entry.get("name") for entry in sections],
        "section_bytes": _section_bytes(sections, 0),
        "extra_sections": [entry.get("name") for entry in extras],
        "extra_bytes": _section_bytes(extras, 0),
    }
