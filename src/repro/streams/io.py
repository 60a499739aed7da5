"""Stream persistence: plain-text and binary columnar (`.vosstream`) formats.

Two interchangeable on-disk formats, auto-detected on read:

**Text** — one element per line as ``<action> <user> <item>`` with ``+`` / ``-``
actions; lines starting with ``#`` and blank lines are ignored.  Identifiers
may be arbitrary whitespace-free tokens: integer-looking tokens load as
``int`` and anything else loads as ``str`` (pass ``require_int=True`` for the
old strict behaviour that rejects non-integer tokens).  This is the usual
exchange format for dynamic-graph experiments.

**Binary columnar** — the ``.vosstream`` format written for ingest throughput:
the whole stream is stored as three contiguous columns (users, items, signs)
so loading is an ``np.frombuffer`` per column instead of a Python parse per
line.  Layout (little-endian)::

    offset  size  field
    0       8     magic  b"VOSSTRM\\x00"
    8       4     format version (currently 1)
    12      4     header length H
    16      H     header: UTF-8 JSON (name, count, column table with CRC-32s)
    16+H    ...   payload: the concatenated column encodings

Integer id columns are raw ``int64`` little-endian; non-integer id columns
(string ids and such) are stored as a UTF-8 JSON array — the id-column codec
of :mod:`repro.streams.batch` that snapshots and journals use too.  Each
column records its CRC-32 and byte length in the header, so flipped bits,
truncation and bytes past the last column surface as
:class:`~repro.exceptions.DatasetError` instead of silently corrupt streams.
The prefix and header are the shared :mod:`repro.framing` file header.

:func:`iter_stream_batches` is the scale entry point: it yields
:class:`~repro.streams.batch.ElementBatch` chunks straight off the file —
seek-and-read column slices for binary streams, incremental line parsing for
text — without ever materializing the whole stream in memory.
"""

from __future__ import annotations

import os
import zlib
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from repro import framing
from repro.exceptions import ConfigurationError, DatasetError
from repro.streams.batch import ElementBatch, decode_id_column, encode_id_column, id_column
from repro.streams.edge import Action, StreamElement
from repro.streams.stream import GraphStream

STREAM_MAGIC = b"VOSSTRM\x00"
STREAM_FORMAT_VERSION = 1

#: Default chunk size of :func:`iter_stream_batches`.
DEFAULT_READ_BATCH_SIZE = 8192

_COLUMN_NAMES = ("users", "items", "signs")
_FORMATS = ("auto", "text", "binary")


def _check_format(format: str) -> str:
    if format not in _FORMATS:
        known = ", ".join(_FORMATS)
        raise DatasetError(f"unknown stream format {format!r}; expected one of {known}")
    return format


def _resolve_write_format(path: Path, format: str) -> str:
    if _check_format(format) != "auto":
        return format
    return "binary" if path.suffix == ".vosstream" else "text"


def _sniff_format(path: Path) -> str:
    """Detect a file's format from its leading magic bytes."""
    with path.open("rb") as handle:
        return "binary" if handle.read(len(STREAM_MAGIC)) == STREAM_MAGIC else "text"


def _resolve_read_format(path: Path, format: str) -> str:
    if _check_format(format) != "auto":
        return format
    return _sniff_format(path)


# -- text format --------------------------------------------------------------------


def _text_token(value: object, path: Path) -> str:
    """Serialize one id for the text format, rejecting lossy round trips.

    The text reader int-coerces integer-looking tokens, so any id whose token
    would load back as a different value/type (floats, bools, the string
    ``"007"``) must be refused at write time — the binary format preserves
    such ids exactly.
    """
    if not isinstance(value, (int, str)) or isinstance(value, bool):
        raise DatasetError(
            f"cannot write id {value!r} to the text format at {path}: text ids "
            "must be int or str (use the binary .vosstream format)"
        )
    token = f"{value}"
    if not token or any(character.isspace() for character in token):
        raise DatasetError(
            f"cannot write id {value!r} to the text format at {path}: tokens must "
            "be non-empty and whitespace-free (use the binary .vosstream format)"
        )
    if isinstance(value, str):
        try:
            int(token)
        except ValueError:
            pass
        else:
            raise DatasetError(
                f"cannot write string id {value!r} to the text format at {path}: "
                "it would load back as an integer (use the binary .vosstream "
                "format)"
            )
    return token


def _parse_id(token: str, require_int: bool, source: Path, line_number: int) -> int | str:
    try:
        return int(token)
    except ValueError:
        if require_int:
            raise DatasetError(
                f"{source}:{line_number}: expected an integer id, got {token!r}"
            ) from None
        return token


def _parse_text_line(
    line: str, require_int: bool, source: Path, line_number: int
) -> tuple[int | str, int | str, int] | None:
    """Parse one text line into ``(user, item, sign)``; ``None`` for comments."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = stripped.split()
    if len(parts) != 3:
        raise DatasetError(
            f"{source}:{line_number}: expected '<action> <user> <item>', got {stripped!r}"
        )
    action_token, user_token, item_token = parts
    try:
        action = Action.from_symbol(action_token)
    except ValueError as error:
        raise DatasetError(f"{source}:{line_number}: {error}") from error
    return (
        _parse_id(user_token, require_int, source, line_number),
        _parse_id(item_token, require_int, source, line_number),
        action.sign,
    )


def _write_text(stream: GraphStream, target: Path) -> None:
    with target.open("w", encoding="utf-8") as handle:
        handle.write(f"# graph stream: {stream.name}\n")
        handle.write("# format: <action> <user> <item>\n")
        for element in stream:
            handle.write(
                f"{element.action.symbol} "
                f"{_text_token(element.user, target)} "
                f"{_text_token(element.item, target)}\n"
            )


def _iter_parsed_text_lines(
    source: Path, require_int: bool
) -> Iterator[tuple[int | str, int | str, int]]:
    """The one text parse loop, shared by the eager and chunked readers."""
    try:
        with source.open("r", encoding="utf-8") as handle:
            for line_number, raw_line in enumerate(handle, start=1):
                parsed = _parse_text_line(raw_line, require_int, source, line_number)
                if parsed is not None:
                    yield parsed
    except UnicodeDecodeError as error:
        raise DatasetError(f"{source}: not a UTF-8 text stream: {error}") from error


def _read_text_elements(source: Path, require_int: bool) -> list[StreamElement]:
    insert, delete = Action.INSERT, Action.DELETE
    return [
        StreamElement(user, item, insert if sign > 0 else delete)
        for user, item, sign in _iter_parsed_text_lines(source, require_int)
    ]


def _iter_text_batches(
    source: Path, batch_size: int, require_int: bool
) -> Iterator[ElementBatch]:
    users: list[int | str] = []
    items: list[int | str] = []
    signs: list[int] = []
    for user, item, sign in _iter_parsed_text_lines(source, require_int):
        users.append(user)
        items.append(item)
        signs.append(sign)
        if len(signs) >= batch_size:
            yield ElementBatch(
                id_column(users), id_column(items), np.array(signs, dtype=np.int8)
            )
            users, items, signs = [], [], []
    if signs:
        yield ElementBatch(
            id_column(users), id_column(items), np.array(signs, dtype=np.int8)
        )


# -- binary columnar format ----------------------------------------------------------


def _write_binary(stream: GraphStream, target: Path) -> None:
    batch = ElementBatch.from_elements(
        stream.elements if isinstance(stream, GraphStream) else list(stream)
    )
    encodings = [
        ("users", *encode_id_column(batch.users, DatasetError, f"{target} user id")),
        ("items", *encode_id_column(batch.items, DatasetError, f"{target} item id")),
        ("signs", batch.signs.astype("<i1").tobytes(), "int8"),
    ]
    header = {
        "name": getattr(stream, "name", target.stem),
        "count": len(batch),
        "columns": [
            {
                "name": name,
                "encoding": encoding,
                "bytes": len(data),
                "crc32": zlib.crc32(data),
            }
            for name, data, encoding in encodings
        ],
    }
    target.write_bytes(
        framing.pack_file_header(STREAM_MAGIC, STREAM_FORMAT_VERSION, header)
        + b"".join(data for _, data, _ in encodings)
    )


def _read_binary_header(handle, source: Path) -> tuple[dict, int, list[dict]]:
    """Check the file header; returns ``(header, row count, column entries)``
    and leaves ``handle`` at the first payload byte."""
    what = f"stream file {source}"
    _, header = framing.read_file_header(
        handle, STREAM_MAGIC, (STREAM_FORMAT_VERSION,), DatasetError, what
    )
    count = framing.count(header, "count", DatasetError, f"{what} header")
    entries = framing.mappings(header, "columns", DatasetError, f"{what} header")
    names = [entry.get("name") for entry in entries]
    if sorted(map(str, names)) != sorted(_COLUMN_NAMES):
        raise DatasetError(f"{source}: stream columns are {names}, not {_COLUMN_NAMES}")
    return header, count, entries


def _read_binary_batch(source: Path, require_int: bool) -> tuple[ElementBatch, str]:
    """Read a whole binary stream file into one batch; returns (batch, name)."""
    with source.open("rb") as handle:
        header, count, entries = _read_binary_header(handle, source)
        payload = framing.Cursor(handle.read(), DatasetError, f"stream file {source}")
    decoded: dict[str, np.ndarray] = {}
    for entry in entries:
        name = entry["name"]
        data = payload.take(entry.get("bytes"), f"column {name!r}")
        framing.check_crc(data, entry.get("crc32"), DatasetError, f"{source}: column {name!r}")
        if name == "signs":
            decoded[name] = np.frombuffer(data, dtype="<i1").astype(np.int8, copy=False)
        else:
            decoded[name] = decode_id_column(
                data, entry.get("encoding"), count, DatasetError, f"{source}: {name!r}"
            )
    payload.finish()
    if decoded["signs"].shape[0] != count:
        raise DatasetError(f"{source}: truncated stream file (short signs column)")
    if require_int and (
        decoded["users"].dtype == object or decoded["items"].dtype == object
    ):
        raise DatasetError(f"{source}: stream holds non-integer ids (require_int)")
    try:
        batch = ElementBatch(decoded["users"], decoded["items"], decoded["signs"])
    except ConfigurationError as error:
        raise DatasetError(f"{source}: stream payload is corrupt: {error}") from error
    return batch, str(header.get("name") or source.stem)


def _iter_binary_batches(
    source: Path, batch_size: int, require_int: bool
) -> Iterator[ElementBatch]:
    with source.open("rb") as handle:
        _, count, entries = _read_binary_header(handle, source)
        if any(entry.get("encoding") == "json" for entry in entries):
            # Object columns are one JSON document; load them fully, then chunk.
            batch, _ = _read_binary_batch(source, require_int)
            for start in range(0, len(batch), batch_size):
                yield batch.slice(start, start + batch_size)
            return
        offsets: dict[str, int] = {}
        item_sizes = {"users": 8, "items": 8, "signs": 1}
        dtypes = {"users": "<i8", "items": "<i8", "signs": "<i1"}
        position = handle.tell()
        for entry in entries:
            expected = count * item_sizes[entry["name"]]
            if entry.get("bytes") != expected:
                raise DatasetError(
                    f"{source}: column {entry['name']!r} records {entry.get('bytes')} "
                    f"bytes but {count} rows need {expected}"
                )
            offsets[entry["name"]] = position
            position += expected
        size = os.fstat(handle.fileno()).st_size
        if size != position:
            raise DatasetError(f"{source}: {size} bytes, but its columns end at {position}")
        running_crc = {name: 0 for name in _COLUMN_NAMES}
        recorded_crc = {entry["name"]: entry.get("crc32") for entry in entries}

        def read_chunk(name: str, start: int, rows: int) -> np.ndarray:
            nbytes = rows * item_sizes[name]
            handle.seek(offsets[name] + start * item_sizes[name])
            data = handle.read(nbytes)
            if len(data) != nbytes:
                raise DatasetError(
                    f"{source}: truncated stream file (short column {name!r})"
                )
            running_crc[name] = zlib.crc32(data, running_crc[name])
            return np.frombuffer(data, dtype=dtypes[name])

        for start in range(0, count, batch_size):
            rows = min(batch_size, count - start)
            try:
                # Column validation (e.g. a sign that is not +-1) can trip
                # before the end-of-stream CRC check does; both are corruption.
                batch = ElementBatch(
                    read_chunk("users", start, rows).astype(np.int64, copy=False),
                    read_chunk("items", start, rows).astype(np.int64, copy=False),
                    read_chunk("signs", start, rows).astype(np.int8, copy=False),
                )
            except ConfigurationError as error:
                raise DatasetError(
                    f"{source}: stream payload is corrupt: {error}"
                ) from error
            yield batch
        for name in _COLUMN_NAMES:
            if running_crc[name] != recorded_crc[name]:
                raise DatasetError(
                    f"{source}: column {name!r} failed its CRC-32 check"
                )


# -- public entry points --------------------------------------------------------------


def write_stream(stream: GraphStream, path: str | Path, *, format: str = "auto") -> None:
    """Write ``stream`` to ``path``.

    ``format`` is ``"text"``, ``"binary"`` or ``"auto"`` (the default), where
    auto picks binary for a ``.vosstream`` suffix and text otherwise.
    """
    target = Path(path)
    if _resolve_write_format(target, format) == "binary":
        _write_binary(stream, target)
    else:
        _write_text(stream, target)


def read_stream(
    path: str | Path,
    *,
    name: str | None = None,
    validate: bool = True,
    require_int: bool = False,
    format: str = "auto",
) -> GraphStream:
    """Read a stream file in either format (auto-detected by default).

    Parameters
    ----------
    path:
        File to read.
    name:
        Optional stream name; defaults to the name recorded in a binary file,
        then to the file stem.
    validate:
        Whether to check feasibility while loading (recommended for
        hand-authored files).
    require_int:
        Reject non-integer identifiers (the historical strict behaviour).
        By default non-integer tokens are preserved as strings, so a stream
        written with string ids round-trips instead of failing to load.
    format:
        ``"auto"`` (detect via magic bytes), ``"text"`` or ``"binary"``.
    """
    source = Path(path)
    if not source.exists():
        raise DatasetError(f"stream file not found: {source}")
    resolved = _resolve_read_format(source, format)
    if resolved == "binary":
        batch, recorded_name = _read_binary_batch(source, require_int)
        return GraphStream(
            batch.to_elements(), name=name or recorded_name, validate=validate
        )
    elements = _read_text_elements(source, require_int)
    return GraphStream(elements, name=name or source.stem, validate=validate)


def iter_stream_batches(
    path: str | Path,
    *,
    batch_size: int = DEFAULT_READ_BATCH_SIZE,
    require_int: bool = False,
    format: str = "auto",
) -> Iterator[ElementBatch]:
    """Stream a file as :class:`ElementBatch` chunks without loading it whole.

    This is the array-native ingest entry point: binary integer columns are
    read as seek-and-slice chunks (each column's CRC-32 is verified once the
    file is fully consumed), text files are parsed incrementally.  Feasibility
    is *not* validated — chunked reading never sees the whole stream at once.
    """
    source = Path(path)
    if not source.exists():
        raise DatasetError(f"stream file not found: {source}")
    if batch_size <= 0:
        raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
    resolved = _resolve_read_format(source, format)
    if resolved == "binary":
        return _iter_binary_batches(source, batch_size, require_int)
    return _iter_text_batches(source, batch_size, require_int)
