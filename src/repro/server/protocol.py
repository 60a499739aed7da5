"""The serving wire protocol: CRC-checked, length-prefixed JSON frames.

Every message between :class:`~repro.server.client.ServingClient` and
:class:`~repro.server.daemon.ServingDaemon` is one *frame* over a stream
socket (little-endian, mirroring the ``.vosstream`` and journal framing)::

    offset  size  field
    0       4     body length N (u32; ceiling MAX_FRAME_BYTES)
    4       4     CRC-32 of the body (u32)
    8       N     body: UTF-8 JSON object

A flipped bit anywhere in the body fails the CRC and raises
:class:`~repro.exceptions.ProtocolError` instead of mis-decoding a request; a
connection that closes *between* frames is a clean EOF (``recv_frame``
returns ``None``); a connection that closes *inside* a frame is an error.

Immediately after ``accept`` the daemon sends one **hello frame**::

    {"server": "repro", "protocol": 1, "version": "<package version>",
     "epoch": <current epoch>}

The client refuses to proceed when ``protocol`` differs from its own
:data:`PROTOCOL_VERSION` or ``version`` differs from its own package version
(:mod:`repro._version`), so a client/daemon mismatch fails loudly at connect
time rather than corrupting answers mid-session.

Requests are ``{"op": <name>, ...parameters}``; responses are
``{"ok": true, ...payload}`` or ``{"ok": false, "error": {"type", "message"}}``.
The defined ops are :data:`REQUEST_OPS`.

The payload helpers at the bottom keep both endpoints bit-identical to the
in-process service: scored pairs and pair estimates ride as JSON arrays of
``[user_a, user_b, jaccard, common_items]`` — Python's JSON float encoding is
``repr``-exact, so a float survives the wire unchanged and wire answers
compare equal (``==``) to in-process answers, including string user ids.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from collections.abc import Iterable, Sequence

import numpy as np

from repro._version import __version__
from repro.baselines.base import PairEstimate
from repro.exceptions import ProtocolError
from repro.similarity.search import ScoredPair
from repro.streams.edge import Action, StreamElement

#: Bumped whenever the frame layout or an op's parameters change shape.
PROTOCOL_VERSION = 1

#: Default TCP port of ``repro serve`` (chosen from the unassigned range).
DEFAULT_PORT = 7437

#: Ceiling on one frame's body, matching the chunked stream reader's
#: philosophy: a corrupt length prefix must not allocate gigabytes.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Every request type the daemon answers.
REQUEST_OPS = (
    "ping",
    "top_k_pairs",
    "nearest",
    "estimate_many",
    "ingest_batch",
    "stats",
    "metrics",
    "snapshot",
    "shutdown",
)

_FRAME = struct.Struct("<II")  # (body length, body CRC-32)


def _json_default(value: object) -> object:
    """JSON encoder fallback: numpy scalars/arrays and sets, exactly."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    raise TypeError(f"cannot serialize {type(value).__name__} over the serve protocol")


def encode_frame(payload: dict) -> bytes:
    """One wire frame for a JSON-serializable payload dict."""
    try:
        body = json.dumps(
            payload, separators=(",", ":"), default=_json_default
        ).encode("utf-8")
    except TypeError as error:
        raise ProtocolError(str(error)) from error
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling"
        )
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


def send_frame(sock: socket.socket, payload: dict) -> int:
    """Encode and send one frame; returns the bytes written."""
    frame = encode_frame(payload)
    sock.sendall(frame)
    return len(frame)


def _recv_exact(sock: socket.socket, length: int) -> bytes | None:
    """Read exactly ``length`` bytes; ``None`` on EOF before the first byte."""
    chunks: list[bytes] = []
    remaining = length
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == length:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({length - remaining} of "
                f"{length} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Receive one frame; ``None`` when the peer closed at a frame boundary."""
    prefix = _recv_exact(sock, _FRAME.size)
    if prefix is None:
        return None
    length, crc = _FRAME.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame declares {length} bytes, over the {MAX_FRAME_BYTES}-byte ceiling"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between frame prefix and body")
    if zlib.crc32(body) != crc:
        raise ProtocolError("frame CRC mismatch: body corrupted in transit")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


# -- handshake -----------------------------------------------------------------------


def hello_payload(epoch: int) -> dict:
    """The hello frame a daemon sends on every fresh connection."""
    return {
        "server": "repro",
        "protocol": PROTOCOL_VERSION,
        "version": __version__,
        "epoch": epoch,
    }


def check_hello(payload: dict | None) -> dict:
    """Validate a daemon's hello frame client-side; returns it on success."""
    if payload is None:
        raise ProtocolError("server closed the connection before its hello frame")
    if payload.get("server") != "repro":
        raise ProtocolError(f"peer is not a repro serving daemon: {payload!r}")
    if payload.get("protocol") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol mismatch: daemon speaks protocol "
            f"{payload.get('protocol')!r}, this client speaks {PROTOCOL_VERSION}"
        )
    if payload.get("version") != __version__:
        raise ProtocolError(
            f"version mismatch: daemon is repro {payload.get('version')!r}, "
            f"this client is repro {__version__} — upgrade one side so both "
            "run the same package version"
        )
    return payload


# -- payload codecs ------------------------------------------------------------------


def encode_scored_pairs(pairs: Iterable[ScoredPair]) -> list[list]:
    """Scored pairs as JSON rows ``[user_a, user_b, jaccard, common_items]``."""
    return [
        [pair.user_a, pair.user_b, float(pair.jaccard), float(pair.common_items)]
        for pair in pairs
    ]


def decode_scored_pairs(rows: Sequence[Sequence]) -> list[ScoredPair]:
    """Inverse of :func:`encode_scored_pairs`."""
    return [
        ScoredPair(user_a=a, user_b=b, jaccard=jaccard, common_items=common)
        for a, b, jaccard, common in rows
    ]


def encode_estimates(estimates: Iterable[PairEstimate]) -> list[list]:
    """Pair estimates as JSON rows ``[user_a, user_b, jaccard, common_items]``."""
    return [
        [
            estimate.user_a,
            estimate.user_b,
            float(estimate.jaccard),
            float(estimate.common_items),
        ]
        for estimate in estimates
    ]


def decode_estimates(rows: Sequence[Sequence]) -> list[PairEstimate]:
    """Inverse of :func:`encode_estimates`."""
    return [
        PairEstimate(user_a=a, user_b=b, common_items=common, jaccard=jaccard)
        for a, b, jaccard, common in rows
    ]


def encode_elements(elements: Iterable[StreamElement]) -> list[list]:
    """Stream elements as JSON rows ``[user, item, "+"|"-"]``."""
    return [
        [element.user, element.item, element.action.value] for element in elements
    ]


def is_wire_id(value: object) -> bool:
    """Whether ``value`` may name a user or item on the wire.

    Only JSON strings and integers qualify; ``bool`` is an ``int`` subclass
    in Python, so ``true`` is excluded by checking the exact type.
    """
    return type(value) in (int, str)


def decode_elements(rows: Sequence[Sequence]) -> list[StreamElement]:
    """Inverse of :func:`encode_elements`, checking every row before any is used.

    A row must be a list ``[user, item, "+"|"-"]`` whose user and item are
    ``str`` or ``int`` (not ``bool``).  Anything else raises
    :class:`~repro.exceptions.ProtocolError`, so a malformed row rejects the
    whole batch instead of failing inside the sketch halfway through it.
    """
    elements: list[StreamElement] = []
    for row in rows:
        if type(row) is not list or len(row) != 3:
            raise ProtocolError(
                f"ingest_batch rows must be [user, item, action], got {row!r}"
            )
        user, item, action = row
        if not (is_wire_id(user) and is_wire_id(item)):
            raise ProtocolError(
                f"ingest_batch user and item must be strings or integers, got {row!r}"
            )
        if action not in ("+", "-"):
            raise ProtocolError(f"unknown stream action {action!r} (expected + or -)")
        elements.append(StreamElement(user, item, Action(action)))
    return elements
