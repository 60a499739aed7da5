"""Write-ahead shard journal: CRC-framed delta records between full checkpoints.

A full snapshot rewrites every shard's whole bit array; between full
checkpoints the journal appends only what changed — per shard, one shard
delta (:mod:`repro.service.delta`: the 64-bit array words and cardinality
counters changed after the journal's cursor).  Restart cost becomes
``O(snapshot) + O(changes)`` instead of ``O(snapshot)`` per checkpoint
interval, and checkpoint cost becomes ``O(changes)``.

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

The file header, record frames and record bodies are :mod:`repro.framing`'s
file header, frame and block.
"""

from __future__ import annotations

import io
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import framing
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

#: The counts every record header declares, in the order the decoder reads them.
_RECORD_COUNTS = (
    "seq", "shard", "shard_seq", "words", "counters", "counter_users_bytes", "ones_count",
    "num_users",
)


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
        before returning — its records are durable the moment the call
        returns.  ``True``: appends only write + flush, and durability is
        deferred to one :meth:`JournalWriter.sync` per *checkpoint*
        (``save_delta`` calls it once after appending every shard's
        record).  A crash between the appends and the sync can tear the
        tail records, which is exactly the torn tail the reader already
        trims — replay resumes at the last complete record, the same
        contract as a crash mid-append.
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

    @property
    def shard(self) -> int:
        return self.delta["shard"]


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


def _decode_record(body: bytes, frame_index: int) -> DeltaRecord:
    """Decode one record body (its CRC has already been verified)."""
    what = f"journal record {frame_index}"
    header, payload = framing.read_block(body, SnapshotError, what)
    what += " header"
    seq, shard, shard_seq, words, counters, users_bytes, ones_count, num_users = (
        framing.count(header, name, SnapshotError, what) for name in _RECORD_COUNTS
    )
    word_indices = np.frombuffer(payload.take(words * 8, "word indices"), dtype="<i8")
    word_data = payload.take(words * 8, "word data")
    counter_users = decode_id_column(
        payload.take(users_bytes, "counter users"), header.get("counter_encoding"), counters
    ).tolist()
    counter_counts = np.frombuffer(
        payload.take(counters * 8, "counter values"), dtype="<i8"
    ).tolist()
    # Older writers could append LSH signature rows (users, signatures,
    # validity bits) to a record.  Their header counts, user column and
    # lengths are still checked, but the rows are dropped: replay marks
    # the shard stale and its index table rebuilds on the first query.
    index_rows = framing.count(header, "index_rows", SnapshotError, what, 0)
    if index_rows:
        cells = index_rows * framing.count(header, "index_columns", SnapshotError, what)
        decode_id_column(
            payload.take(
                framing.count(header, "index_users_bytes", SnapshotError, what), "index users"
            ),
            header.get("index_users_encoding"),
            index_rows,
        )
        payload.take(cells * 8 + (cells + 7) // 8, "index signature rows")
    payload.finish()
    return DeltaRecord(
        seq=seq,
        shard_seq=shard_seq,
        delta={
            "shard": shard,
            "words": word_indices.astype(np.int64),
            "word_data": word_data,
            "counter_users": counter_users,
            "counter_counts": counter_counts,
            "ones_count": ones_count,
            "num_users": num_users,
        },
    )


# -- reading -------------------------------------------------------------------------


def _read_header(stream) -> str:
    """Check a journal's file header; returns the checkpoint id it binds to."""
    _, header = framing.read_file_header(
        stream, JOURNAL_MAGIC, (JOURNAL_FORMAT_VERSION,), SnapshotError, "journal"
    )
    if "checkpoint_id" not in header:
        raise SnapshotError("journal header lacks 'checkpoint_id'")
    return str(header["checkpoint_id"])


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
    stream = io.BytesIO(data)
    contents = JournalContents(checkpoint_id=_read_header(stream))
    # A torn FIRST record must leave end_offset at the end of the file
    # header, not 0 — the writer trims to end_offset on resume, and
    # truncating to 0 would destroy the header itself.
    offset = contents.end_offset = stream.tell()
    shard_seqs: dict[int, int] = {}
    frame_index = 0
    while offset < len(data):
        frame_index += 1
        frame = framing.read_frame(
            data, offset, SnapshotError, f"journal record {frame_index}"
        )
        if frame is None:
            contents.truncated_tail = True
            break
        body, offset = frame
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
        contents.end_offset = offset
    return contents


@dataclass
class JournalReplay:
    """What replaying a journal onto a sketch changed."""

    records: int = 0
    words_applied: int = 0
    counters_applied: int = 0
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
            replay.words_applied += len(record.delta["words"])
            replay.counters_applied += len(record.delta["counter_users"])
            problem = apply_shard_delta(shards[record.shard], record.delta)
            if problem is not None:
                raise SnapshotError(
                    f"journal record {record.seq} {problem} — the journal "
                    "does not match this snapshot"
                )
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
        return _read_header(handle)


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
        else:
            # Atomic + fsynced: a crash during creation must not leave a torn
            # header that bricks every subsequent load (torn *records* are
            # tolerated; a torn file header cannot be).
            atomic_write_bytes(
                self._path,
                framing.pack_file_header(
                    JOURNAL_MAGIC,
                    JOURNAL_FORMAT_VERSION,
                    {"checkpoint_id": checkpoint_id},
                ),
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

    def append_delta(self, deltas) -> int:
        """Append one record per shard delta with one open and one write.

        ``deltas`` are shard delta records (:func:`repro.service.delta.shard_delta`
        dicts), one checkpoint's worth; returns the bytes written.  Each
        record's ``counter_counts`` are absolute values (not deltas), so
        replay is a plain overwrite; ``ones_count``/``num_users`` are the
        shard's state *after* the delta and become replay-time consistency
        checks.  Every delta is checked before anything is written, and the
        sequence numbers advance only once the write succeeds.
        """
        # Sequence numbers are committed only once the write succeeds.
        seq, shard_seqs = self._seq, dict(self._shard_seqs)
        records = []
        for delta in deltas:
            word_indices = np.asarray(delta["words"], dtype=np.int64).ravel()
            counter_counts = np.asarray(delta["counter_counts"], dtype=np.int64).ravel()
            if len(delta["word_data"]) != word_indices.size * 8:
                raise SnapshotError(
                    f"delta word payload holds {len(delta['word_data'])} bytes, expected "
                    f"{word_indices.size * 8}"
                )
            if counter_counts.size != len(delta["counter_users"]):
                raise SnapshotError("delta counter columns differ in length")
            seq += 1
            shard = delta["shard"]
            shard_seq = shard_seqs[shard] = shard_seqs.get(shard, 0) + 1
            users_blob, users_encoding = encode_id_column(delta["counter_users"])
            header = {
                "seq": seq,
                "shard": shard,
                "shard_seq": shard_seq,
                "words": int(word_indices.size),
                "counters": len(delta["counter_users"]),
                "counter_encoding": users_encoding,
                "counter_users_bytes": len(users_blob),
                "ones_count": delta["ones_count"],
                "num_users": delta["num_users"],
            }
            records.append(
                framing.pack_frame(
                    framing.pack_block(
                        header,
                        word_indices.astype("<i8").tobytes(),
                        delta["word_data"],
                        users_blob,
                        counter_counts.astype("<i8").tobytes(),
                    )
                )
            )
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "journal append %s",
                    kv(
                        seq=seq,
                        shard=shard,
                        shard_seq=shard_seq,
                        bytes=len(records[-1]),
                        words=int(word_indices.size),
                    ),
                )
        if not records:
            return 0
        data = b"".join(records)
        registry = get_registry()
        with timed("persistence.journal.append", registry):
            with self._path.open("ab") as handle:
                handle.write(data)
                handle.flush()
                if self._config.group_commit:
                    # Durability deferred to the next sync(): the bytes are in
                    # the page cache, and a crash before the sync tears at
                    # most a trim-able tail.
                    self._needs_sync = True
                else:
                    with timed("persistence.journal.fsync", registry):
                        os.fsync(handle.fileno())
        self._seq, self._shard_seqs = seq, shard_seqs
        if registry.enabled:
            registry.inc("persistence.journal.records", len(records), unit="records")
            registry.inc("persistence.journal.bytes", len(data), unit="bytes")
        return len(data)

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
