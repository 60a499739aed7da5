"""One binary framing for every format the package writes or reads.

Snapshots, journals, ``.vosstream`` files, the ``index/banding`` snapshot
section and serving wire frames are built from three little-endian pieces:

* a **block** ``u32 H | H bytes of compact JSON header | payload``;
* a **file**, ``magic | u32 version`` followed by a block;
* a **frame** ``u32 N | u32 CRC-32 of the body | N-byte body``.

Readers take the caller's exception class and a label, so each format keeps
its own error type, and every length or count a header declares must be a
non-negative JSON integer (:func:`count`) before it sizes anything.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from collections.abc import Callable
from typing import BinaryIO

from repro.exceptions import ReproError

ErrorType = type[ReproError]

#: ``(body length, body CRC-32)`` before a frame's body.
FRAME = struct.Struct("<II")
_U32 = struct.Struct("<I")


# -- JSON headers -----------------------------------------------------------------------


def json_bytes(value: object, default: Callable[[object], object] | None = None) -> bytes:
    """``value`` as compact UTF-8 JSON (``default`` as in :func:`json.dumps`)."""
    return json.dumps(value, separators=(",", ":"), default=default).encode("utf-8")


def json_object(data: bytes, error: ErrorType, what: str) -> dict:
    """Decode ``data`` as one JSON object, or raise ``error``."""
    try:
        value = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and integers past Python's
        # digit limit; RecursionError, arrays nested thousands deep.
        raise error(f"{what} is corrupt: not valid JSON ({exc})") from exc
    return mapping(value, error, what)


def mapping(value: object, error: ErrorType, what: str) -> dict:
    """``value`` when it is a JSON object, else ``error``."""
    if not isinstance(value, dict):
        raise error(f"{what} is not a JSON object, got {type(value).__name__}")
    return value


def mappings(header: dict, name: str, error: ErrorType, what: str) -> list[dict]:
    """The list of JSON objects stored under ``name`` (absent means empty)."""
    value = header.get(name, [])
    if not isinstance(value, list):
        raise error(f"{what} field {name!r} is {value!r}, not a list")
    return [mapping(entry, error, f"{what} {name!r} entry") for entry in value]


def count(
    header: dict, name: str, error: ErrorType, what: str, default: int | None = None
) -> int:
    """``header[name]`` as a non-negative plain ``int`` (``default`` when absent).

    ``type`` rather than ``isinstance``: JSON ``true`` is a ``bool``, an
    ``int`` subclass, and must not pass as 1.
    """
    if name not in header and default is None:
        raise error(f"{what} lacks {name!r}")
    value = header.get(name, default)
    if type(value) is not int or value < 0:
        raise error(f"{what} field {name!r} is {value!r}, not a count")
    return value


# -- blocks and files ------------------------------------------------------------------


class Cursor:
    """Reads consecutive declared-length slices off one payload: ``take``
    accepts only counts and raises ``error`` when the payload ends first;
    ``finish`` raises when bytes are left over."""

    def __init__(self, data: bytes, error: ErrorType, what: str, offset: int = 0) -> None:
        self._data = data
        self._error = error
        self._what = what
        self.offset = offset

    def take(self, length: object, what: str) -> bytes:
        if type(length) is not int or length < 0:
            raise self._error(f"{self._what} declares {length!r} bytes of {what}, not a count")
        end = self.offset + length
        if end > len(self._data):
            raise self._error(f"{self._what} is missing {what} (truncated)")
        blob = self._data[self.offset : end]
        self.offset = end
        return blob

    def finish(self) -> None:
        if self.offset != len(self._data):
            raise self._error(f"{self._what} holds bytes its header does not describe")


def pack_block(header: dict, *payloads: bytes) -> bytes:
    """``u32 header length | header JSON | payloads``."""
    header_bytes = json_bytes(header)
    return _U32.pack(len(header_bytes)) + header_bytes + b"".join(payloads)


def _read_block_header(stream: BinaryIO, error: ErrorType, what: str) -> dict:
    prefix = stream.read(_U32.size)
    if len(prefix) < _U32.size:
        raise error(f"{what} is truncated (no header)")
    (length,) = _U32.unpack(prefix)
    header_bytes = stream.read(length)
    if len(header_bytes) != length:
        raise error(f"{what} is truncated (incomplete header)")
    return json_object(header_bytes, error, f"{what} header")


def read_block(data: bytes, error: ErrorType, what: str) -> tuple[dict, Cursor]:
    """Split a block into its JSON header (copied) and a cursor over ``data``."""
    end = _U32.size + (_U32.unpack_from(data)[0] if len(data) >= _U32.size else 0)
    stream = io.BytesIO(bytes(data[:end]))
    header = _read_block_header(stream, error, what)
    return header, Cursor(data, error, what, stream.tell())


def pack_file_header(magic: bytes, version: int, header: dict) -> bytes:
    """``magic | u32 version`` and the header of a block."""
    return magic + _U32.pack(version) + pack_block(header)


def read_file_header(
    stream: BinaryIO, magic: bytes, versions: tuple[int, ...], error: ErrorType, what: str
) -> tuple[int, dict]:
    """Read and check a file header; returns ``(version, header)`` and leaves
    ``stream`` at the first payload byte."""
    prefix = stream.read(len(magic) + _U32.size)
    if len(prefix) < len(magic) + _U32.size:
        raise error(f"{what} is truncated (no header)")
    if prefix[: len(magic)] != magic:
        raise error(f"{what} has a bad magic")
    (version,) = _U32.unpack_from(prefix, len(magic))
    if version not in versions:
        plural = "s" if len(versions) > 1 else ""
        raise error(
            f"unsupported {what} version {version} (this build reads version{plural} "
            f"{', '.join(map(str, versions))})"
        )
    return version, _read_block_header(stream, error, what)


# -- frames -----------------------------------------------------------------------------


def pack_frame(body: bytes) -> bytes:
    """``u32 body length | u32 CRC-32(body) | body``."""
    return FRAME.pack(len(body), zlib.crc32(body)) + body


def check_crc(body: bytes, crc: int, error: ErrorType, what: str) -> None:
    """Raise ``error`` unless ``body``'s CRC-32 is ``crc``."""
    if zlib.crc32(body) != crc:
        raise error(f"{what} failed its CRC-32 check")


def read_frame(
    data: bytes, offset: int, error: ErrorType, what: str
) -> tuple[bytes, int] | None:
    """The CRC-checked body of the frame at ``offset`` and the offset past it.

    Returns ``None`` when ``data`` ends inside the frame (a torn tail).
    """
    start = offset + FRAME.size
    if start > len(data):
        return None
    length, crc = FRAME.unpack_from(data, offset)
    end = start + length
    if end > len(data):
        return None
    body = data[start:end]
    check_crc(body, crc, error, what)
    return body, end
