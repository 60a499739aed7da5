"""Write-ahead shard journal: CRC-framed delta records between full checkpoints.

A full snapshot rewrites every shard's whole bit array; between full
checkpoints the journal appends only what changed — per shard, one shard
delta (:mod:`repro.service.delta`: the 64-bit array words and cardinality
counters changed after the journal's cursor), and optionally freshly
appended LSH index signature rows.  Restart cost becomes ``O(snapshot) +
O(changes)`` instead of ``O(snapshot)`` per checkpoint interval, and
checkpoint cost becomes ``O(changes)``.

File layout (little-endian)::

    offset  size  field
    0       8     magic  b"VOSJRNL\\x00"
    8       4     journal format version (currently 1)
    12      4     header length H
    16      H     header: UTF-8 JSON {"checkpoint_id": ...}
    16+H    ...   records, appended over time

The header's ``checkpoint_id`` binds the journal to the exact full snapshot
it was recorded against (:func:`repro.service.snapshot.save_snapshot` stamps
one into every v2 snapshot); replaying against any other snapshot raises
:class:`~repro.exceptions.SnapshotError`.

Each record is framed as ``u32 body length | u32 CRC-32(body) | body`` where
the body is ``u32 record-header length | record-header JSON | payload``.  The
record header carries a global sequence number and a per-shard sequence
number (both 1-based and strictly increasing), plus the shard's array
popcount and user count *after* the delta — replay verifies all of them, so a
flipped bit, a reordered record or a journal applied to the wrong base state
surfaces as :class:`SnapshotError` rather than silently corrupt estimates.
A *cleanly truncated tail* — the crash-mid-append case, where the file ends
before a record's declared length — is not an error: replay stops at the last
complete record and reports the truncation, and the writer trims the torn
tail before appending again.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exceptions import SnapshotError
from repro.obs import get_registry, kv, timed
from repro.service.delta import apply_shard_delta
from repro.service.snapshot import (
    atomic_write_bytes,
    decode_id_column,
    encode_id_column,
)

logger = logging.getLogger(__name__)

JOURNAL_MAGIC = b"VOSJRNL\x00"
JOURNAL_FORMAT_VERSION = 1

_PREFIX = struct.Struct("<II")  # (format version, header length)
_FRAME = struct.Struct("<II")  # (body length, body CRC-32)
_U32 = struct.Struct("<I")


def default_journal_path(snapshot_path: str | Path) -> Path:
    """The journal path conventionally paired with a snapshot path."""
    path = Path(snapshot_path)
    return path.with_name(path.name + ".journal")


@dataclass(frozen=True)
class JournalConfig:
    """Durability knobs for the journal writer.

    Parameters
    ----------
    group_commit:
        ``False`` (default): every :meth:`JournalWriter.append_delta` fsyncs
        before returning — a record is durable the moment the call returns.
        ``True``: appends only write + flush, and durability is deferred to
        one :meth:`JournalWriter.sync` per *checkpoint* (``save_delta`` calls
        it once after appending every shard's record), cutting an N-shard
        delta checkpoint from N fsyncs to one.  A crash between the appends
        and the sync can tear the tail records, which is exactly the torn
        tail the reader already trims — replay resumes at the last complete
        record, the same contract as a crash mid-append.
    """

    group_commit: bool = False


# -- record model --------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaRecord:
    """One decoded journal record: a shard delta plus its journal framing."""

    seq: int
    shard_seq: int
    #: The shard delta (:mod:`repro.service.delta` record shape).
    delta: dict
    index_users: list | None = None
    index_signatures: np.ndarray | None = None
    index_valid: np.ndarray | None = None

    @property
    def shard(self) -> int:
        return self.delta["shard"]

    @property
    def has_words(self) -> bool:
        return len(self.delta["words"]) > 0


@dataclass
class JournalContents:
    """A fully parsed journal file."""

    checkpoint_id: str
    records: list[DeltaRecord] = field(default_factory=list)
    #: True when the file ends in a torn record (crash mid-append); replay
    #: stops at the last complete record.
    truncated_tail: bool = False
    #: Byte offset just past the last complete record (where appending may
    #: safely resume).
    end_offset: int = 0


def _encode_record(
    seq: int,
    shard: int,
    shard_seq: int,
    word_indices: np.ndarray,
    word_data: bytes,
    counter_users: list,
    counter_counts: np.ndarray,
    ones_count: int,
    num_users: int,
    index_append: dict | None,
) -> bytes:
    users_blob, users_encoding = encode_id_column(counter_users)
    header: dict = {
        "seq": seq,
        "shard": shard,
        "shard_seq": shard_seq,
        "words": int(word_indices.size),
        "counters": len(counter_users),
        "counter_encoding": users_encoding,
        "counter_users_bytes": len(users_blob),
        "ones_count": ones_count,
        "num_users": num_users,
    }
    payload_parts = [
        word_indices.astype("<i8").tobytes(),
        word_data,
        users_blob,
        counter_counts.astype("<i8").tobytes(),
    ]
    if index_append is not None:
        signatures = np.ascontiguousarray(index_append["signatures"], dtype=np.uint64)
        valid = np.asarray(index_append["valid"], dtype=bool)
        index_users_blob, index_users_encoding = encode_id_column(
            list(index_append["users"])
        )
        header["index_rows"] = int(signatures.shape[0])
        header["index_columns"] = int(signatures.shape[1])
        header["index_users_encoding"] = index_users_encoding
        header["index_users_bytes"] = len(index_users_blob)
        payload_parts.extend(
            (
                index_users_blob,
                signatures.astype("<u8").tobytes(),
                np.packbits(valid.ravel()).tobytes(),
            )
        )
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    body = _U32.pack(len(header_bytes)) + header_bytes + b"".join(payload_parts)
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


def _decode_record(body: bytes, frame_index: int) -> DeltaRecord:
    """Decode one record body (its CRC has already been verified)."""

    def corrupt(reason: str) -> SnapshotError:
        return SnapshotError(f"journal record {frame_index} is corrupt: {reason}")

    if len(body) < _U32.size:
        raise corrupt("no record header")
    (header_length,) = _U32.unpack_from(body)
    header_bytes = body[_U32.size : _U32.size + header_length]
    if len(header_bytes) != header_length:
        raise corrupt("incomplete record header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise corrupt(repr(error)) from error
    if not isinstance(header, dict):
        raise corrupt("record header is not a JSON object")

    def count(name: str, default: int | None = None) -> int:
        if default is None and name not in header:
            raise corrupt(f"record header lacks {name!r}")
        value = header.get(name, default)
        # ``type`` rather than ``isinstance``: JSON ``true`` is a bool, which
        # is an int subclass and must not pass as shard 1.
        if type(value) is not int or value < 0:
            raise corrupt(f"record header field {name!r} is {value!r}, not a count")
        return value

    seq = count("seq")
    shard = count("shard")
    shard_seq = count("shard_seq")
    words = count("words")
    counters = count("counters")
    counter_users_bytes = count("counter_users_bytes")
    ones_count = count("ones_count")
    num_users = count("num_users")
    offset = _U32.size + header_length

    def take(length: int, what: str) -> bytes:
        nonlocal offset
        blob = body[offset : offset + length]
        if len(blob) != length:
            raise corrupt(f"payload is missing {what}")
        offset += length
        return blob

    try:
        word_indices = np.frombuffer(
            take(words * 8, "word indices"), dtype="<i8"
        ).astype(np.int64)
        word_data = take(words * 8, "word data")
        counter_users = decode_id_column(
            take(counter_users_bytes, "counter users"),
            header.get("counter_encoding"),
            counters,
        )
        counter_counts = np.frombuffer(
            take(counters * 8, "counter values"), dtype="<i8"
        ).tolist()
        index_users = index_signatures = index_valid = None
        index_rows = count("index_rows", 0)
        if index_rows:
            columns = count("index_columns")
            index_users = decode_id_column(
                take(count("index_users_bytes"), "index users"),
                header.get("index_users_encoding"),
                index_rows,
            )
            index_signatures = (
                np.frombuffer(take(index_rows * columns * 8, "index signatures"), dtype="<u8")
                .astype(np.uint64)
                .reshape(index_rows, columns)
            )
            index_valid = (
                np.unpackbits(
                    np.frombuffer(
                        take((index_rows * columns + 7) // 8, "index validity"),
                        dtype=np.uint8,
                    ),
                    count=index_rows * columns,
                )
                .astype(bool)
                .reshape(index_rows, columns)
            )
    except (TypeError, ValueError) as error:
        raise corrupt(repr(error)) from error
    if offset != len(body):
        raise corrupt("payload holds trailing bytes its header does not describe")
    return DeltaRecord(
        seq=seq,
        shard_seq=shard_seq,
        delta={
            "shard": shard,
            "words": word_indices,
            "word_data": word_data,
            "counter_users": counter_users,
            "counter_counts": counter_counts,
            "ones_count": ones_count,
            "num_users": num_users,
        },
        index_users=index_users,
        index_signatures=index_signatures,
        index_valid=index_valid,
    )


# -- reading -------------------------------------------------------------------------


def _journal_header_length(prefix: bytes) -> int:
    """Validate a journal's magic + version prefix; returns the header length."""
    if len(prefix) < len(JOURNAL_MAGIC) + _PREFIX.size:
        raise SnapshotError("journal is truncated (no header)")
    if prefix[: len(JOURNAL_MAGIC)] != JOURNAL_MAGIC:
        raise SnapshotError("not a VOS journal (bad magic)")
    version, header_length = _PREFIX.unpack_from(prefix, len(JOURNAL_MAGIC))
    if version != JOURNAL_FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported journal version {version} (this build reads "
            f"version {JOURNAL_FORMAT_VERSION})"
        )
    return header_length


def _journal_checkpoint_from(header_bytes: bytes, header_length: int) -> str:
    """Parse a journal's JSON header; returns its checkpoint id."""
    if len(header_bytes) != header_length:
        raise SnapshotError("journal is truncated (incomplete header)")
    try:
        return str(json.loads(header_bytes.decode("utf-8"))["checkpoint_id"])
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as error:
        raise SnapshotError(f"journal header is corrupt: {error!r}") from error


def read_journal(path: str | Path) -> JournalContents:
    """Parse a journal file, verifying framing, CRCs and record ordering.

    Raises :class:`SnapshotError` for anything a flipped bit or reordered
    write could produce; a *cleanly* truncated tail (crash mid-append) is
    reported via :attr:`JournalContents.truncated_tail` instead.
    """
    source = Path(path)
    if not source.exists():
        raise SnapshotError(f"journal file not found: {source}")
    data = source.read_bytes()
    header_length = _journal_header_length(data[: len(JOURNAL_MAGIC) + _PREFIX.size])
    header_start = len(JOURNAL_MAGIC) + _PREFIX.size
    checkpoint_id = _journal_checkpoint_from(
        data[header_start : header_start + header_length], header_length
    )
    contents = JournalContents(checkpoint_id=checkpoint_id)
    offset = header_start + header_length
    # A torn FIRST record must leave end_offset at the end of the file
    # header, not 0 — the writer trims to end_offset on resume, and
    # truncating to 0 would destroy the header itself.
    contents.end_offset = offset
    shard_seqs: dict[int, int] = {}
    frame_index = 0
    while offset < len(data):
        frame_index += 1
        frame = data[offset : offset + _FRAME.size]
        if len(frame) < _FRAME.size:
            contents.truncated_tail = True
            break
        body_length, crc = _FRAME.unpack(frame)
        body = data[offset + _FRAME.size : offset + _FRAME.size + body_length]
        if len(body) != body_length:
            contents.truncated_tail = True
            break
        if zlib.crc32(body) != crc:
            raise SnapshotError(
                f"journal record {frame_index} failed its CRC-32 check"
            )
        record = _decode_record(body, frame_index)
        if record.seq != frame_index:
            raise SnapshotError(
                f"journal records are out of order: record {frame_index} "
                f"carries sequence {record.seq}"
            )
        expected_shard_seq = shard_seqs.get(record.shard, 0) + 1
        if record.shard_seq != expected_shard_seq:
            raise SnapshotError(
                f"journal shard {record.shard} deltas are out of order: "
                f"expected shard sequence {expected_shard_seq}, "
                f"got {record.shard_seq}"
            )
        shard_seqs[record.shard] = record.shard_seq
        contents.records.append(record)
        offset += _FRAME.size + body_length
        contents.end_offset = offset
    if not contents.truncated_tail:
        contents.end_offset = len(data)
    return contents


@dataclass
class JournalReplay:
    """What replaying a journal onto a sketch changed."""

    records: int = 0
    words_applied: int = 0
    counters_applied: int = 0
    #: Shards whose array words changed during replay — any persisted index
    #: signatures for them no longer describe the bits.
    shards_touched: set[int] = field(default_factory=set)
    #: Per-shard index signature rows the journal shipped (applied by the
    #: service after it restores the snapshot's index section).
    index_appends: dict[int, list[DeltaRecord]] = field(default_factory=dict)
    truncated_tail: bool = False


def replay_journal(
    sketch, path: str | Path, *, checkpoint_id: str
) -> JournalReplay:
    """Replay a journal's delta records onto a freshly restored sketch.

    ``checkpoint_id`` must be the id of the snapshot the sketch was restored
    from; a mismatch means the journal describes deltas against *different*
    base state and raises :class:`SnapshotError`.  After every record the
    shard's array popcount and user count are checked against the recorded
    values, so replaying onto subtly wrong state cannot pass silently.
    """
    registry = get_registry()
    debug = logger.isEnabledFor(logging.DEBUG)
    with timed("persistence.journal.replay", registry) as span:
        contents = read_journal(path)
        if contents.checkpoint_id != checkpoint_id:
            raise SnapshotError(
                f"journal {path} was recorded against checkpoint "
                f"{contents.checkpoint_id!r}, not {checkpoint_id!r}"
            )
        shards = sketch.row_shards()
        replay = JournalReplay(truncated_tail=contents.truncated_tail)
        for record in contents.records:
            if not 0 <= record.shard < len(shards):
                raise SnapshotError(
                    f"journal record {record.seq} names shard {record.shard}, "
                    f"but the snapshot holds {len(shards)} shard(s)"
                )
            if record.has_words:
                replay.words_applied += len(record.delta["words"])
                replay.shards_touched.add(record.shard)
            replay.counters_applied += len(record.delta["counter_users"])
            problem = apply_shard_delta(shards[record.shard], record.delta)
            if problem is not None:
                raise SnapshotError(
                    f"journal record {record.seq} {problem} — the journal "
                    "does not match this snapshot"
                )
            if record.index_users is not None:
                replay.index_appends.setdefault(record.shard, []).append(record)
            replay.records += 1
            if debug:
                logger.debug(
                    "journal replay record %s",
                    kv(
                        seq=record.seq,
                        shard=record.shard,
                        shard_seq=record.shard_seq,
                        words=len(record.delta["words"]),
                        counters=len(record.delta["counter_users"]),
                    ),
                )
    if registry.enabled:
        registry.inc("persistence.replay.records", replay.records, unit="records")
        if span.seconds > 0.0:
            registry.set_gauge(
                "persistence.replay.records_per_second",
                replay.records / span.seconds,
                unit="records/s",
            )
    logger.info(
        "journal replay done %s",
        kv(
            records=replay.records,
            words=replay.words_applied,
            counters=replay.counters_applied,
            shards_touched=len(replay.shards_touched),
            last_seq=replay.records,
            truncated_tail=replay.truncated_tail,
            seconds=round(span.seconds, 6),
        ),
    )
    return replay


def journal_checkpoint_id(path: str | Path) -> str:
    """The checkpoint id a journal is bound to (header parse only, no records)."""
    source = Path(path)
    if not source.exists():
        raise SnapshotError(f"journal file not found: {source}")
    with source.open("rb") as handle:
        header_length = _journal_header_length(
            handle.read(len(JOURNAL_MAGIC) + _PREFIX.size)
        )
        header_bytes = handle.read(header_length)
    return _journal_checkpoint_from(header_bytes, header_length)


def journal_info(path: str | Path) -> dict:
    """Describe a journal file (record counts, bytes, binding) for tooling."""
    source = Path(path)
    contents = read_journal(source)
    shards = sorted({record.shard for record in contents.records})
    return {
        "path": str(source),
        "file_bytes": source.stat().st_size,
        "checkpoint_id": contents.checkpoint_id,
        "records": len(contents.records),
        "shards": shards,
        "words": sum(len(r.delta["words"]) for r in contents.records),
        "counters": sum(len(r.delta["counter_users"]) for r in contents.records),
        "truncated_tail": contents.truncated_tail,
    }


# -- writing -------------------------------------------------------------------------


class JournalWriter:
    """Appends CRC-framed delta records to one journal file.

    Parameters
    ----------
    path:
        Journal file.  Created (bound to ``checkpoint_id``) when missing;
        otherwise the existing file is scanned, its binding verified, a torn
        tail record trimmed, and appending resumes at the next sequence
        numbers.
    checkpoint_id:
        Id of the full snapshot this journal records deltas against.
    config:
        Durability knobs (:class:`JournalConfig`); ``None`` means the
        default fsync-per-record behaviour.
    """

    def __init__(
        self,
        path: str | Path,
        checkpoint_id: str,
        config: JournalConfig | None = None,
    ) -> None:
        self._path = Path(path)
        self._checkpoint_id = checkpoint_id
        self._config = config if config is not None else JournalConfig()
        self._needs_sync = False
        self._seq = 0
        self._shard_seqs: dict[int, int] = {}
        self._word_changed_shards: set[int] = set()
        if self._path.exists():
            contents = read_journal(self._path)
            if contents.checkpoint_id != checkpoint_id:
                raise SnapshotError(
                    f"journal {self._path} is bound to checkpoint "
                    f"{contents.checkpoint_id!r}, not {checkpoint_id!r}; "
                    "write a full checkpoint (or compact) to rotate it"
                )
            if contents.truncated_tail:
                with self._path.open("r+b") as handle:
                    handle.truncate(contents.end_offset)
            self._seq = len(contents.records)
            for record in contents.records:
                self._shard_seqs[record.shard] = record.shard_seq
                if record.has_words:
                    self._word_changed_shards.add(record.shard)
        else:
            header = json.dumps(
                {"checkpoint_id": checkpoint_id}, separators=(",", ":")
            ).encode("utf-8")
            # Atomic + fsynced: a crash during creation must not leave a torn
            # header that bricks every subsequent load (torn *records* are
            # tolerated; a torn file header cannot be).
            atomic_write_bytes(
                self._path,
                JOURNAL_MAGIC
                + _PREFIX.pack(JOURNAL_FORMAT_VERSION, len(header))
                + header,
            )

    @property
    def path(self) -> Path:
        return self._path

    @property
    def checkpoint_id(self) -> str:
        return self._checkpoint_id

    @property
    def records_written(self) -> int:
        """Records in the journal, including ones found on open."""
        return self._seq

    @property
    def size_bytes(self) -> int:
        """Current byte size of the journal file."""
        return self._path.stat().st_size if self._path.exists() else 0

    def shard_words_changed(self, shard: int) -> bool:
        """Whether any record so far changed this shard's array words.

        Once true, persisted index signatures for the shard are stale across
        a replay, so shipping further index appends for it is pointless.
        """
        return shard in self._word_changed_shards

    def append_delta(
        self,
        shard: int,
        word_indices,
        word_data: bytes,
        counter_users: list,
        counter_counts,
        *,
        ones_count: int,
        num_users: int,
        index_append: dict | None = None,
    ) -> int:
        """Append one shard's delta record; returns the bytes written.

        ``counter_counts`` are absolute values (not deltas), so replay is a
        plain overwrite; ``ones_count``/``num_users`` are the shard's state
        *after* the delta and become replay-time consistency checks.
        """
        word_indices = np.asarray(word_indices, dtype=np.int64).ravel()
        counter_counts = np.asarray(counter_counts, dtype=np.int64).ravel()
        if len(word_data) != word_indices.size * 8:
            raise SnapshotError(
                f"delta word payload holds {len(word_data)} bytes, expected "
                f"{word_indices.size * 8}"
            )
        if counter_counts.size != len(counter_users):
            raise SnapshotError("delta counter columns differ in length")
        self._seq += 1
        shard_seq = self._shard_seqs.get(shard, 0) + 1
        record = _encode_record(
            self._seq,
            shard,
            shard_seq,
            word_indices,
            word_data,
            list(counter_users),
            counter_counts,
            ones_count,
            num_users,
            index_append,
        )
        registry = get_registry()
        with timed("persistence.journal.append", registry):
            with self._path.open("ab") as handle:
                handle.write(record)
                handle.flush()
                if self._config.group_commit:
                    # Durability deferred to the next sync(): the bytes are in
                    # the page cache, and a crash before the sync tears at
                    # most a trim-able tail.
                    self._needs_sync = True
                else:
                    with timed("persistence.journal.fsync", registry):
                        os.fsync(handle.fileno())
        if registry.enabled:
            registry.inc("persistence.journal.records", 1, unit="records")
            registry.inc("persistence.journal.bytes", len(record), unit="bytes")
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "journal append %s",
                kv(
                    seq=self._seq,
                    shard=shard,
                    shard_seq=shard_seq,
                    bytes=len(record),
                    words=int(word_indices.size),
                ),
            )
        self._shard_seqs[shard] = shard_seq
        if word_indices.size:
            self._word_changed_shards.add(shard)
        return len(record)

    def sync(self) -> bool:
        """Group commit: one fsync covering every append since the last sync.

        No-op (returns ``False``) unless :class:`JournalConfig.group_commit`
        is on and unsynced appends are pending.  Reopening the file for the
        fsync is safe: the appends' bytes are already in the page cache, and
        ``fsync`` flushes the *file's* dirty pages regardless of which
        descriptor wrote them.
        """
        if not self._needs_sync:
            return False
        registry = get_registry()
        with timed("persistence.journal.fsync", registry):
            with self._path.open("rb") as handle:
                os.fsync(handle.fileno())
        self._needs_sync = False
        if registry.enabled:
            registry.inc("persistence.journal.group_commits", 1, unit="syncs")
        return True
