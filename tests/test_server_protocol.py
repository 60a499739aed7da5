"""Unit tests for the serving wire protocol (framing, handshake, codecs)."""

from __future__ import annotations

import socket
import struct
import zlib

import numpy as np
import pytest

from repro._version import __version__
from repro.baselines.base import PairEstimate
from repro.exceptions import ProtocolError
from repro.server import protocol
from repro.similarity.search import ScoredPair
from repro.streams import Action, StreamElement


@pytest.fixture
def pair() -> tuple[socket.socket, socket.socket]:
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFraming:
    @pytest.mark.parametrize(
        "payload, frame",
        [
            ({"op": "ping"}, b'\r\x00\x00\x00H\xe4i\xf3{"op":"ping"}'),
            (
                {"op": "nearest", "user": "ü", "k": 3, "x": [1.5, None, True]},
                b':\x00\x00\x00>\xa3\x83F{"op":"nearest","user":"\\u00fc","k":3,'
                b'"x":[1.5,null,true]}',
            ),
        ],
    )
    def test_frame_bytes_are_pinned(self, payload, frame):
        """u32 length | u32 CRC-32 | compact ASCII-escaped JSON, byte for byte."""
        assert protocol.encode_frame(payload) == frame

    def test_round_trip(self, pair):
        left, right = pair
        payload = {"op": "ping", "values": [1, 2.5, "x"], "nested": {"a": None}}
        protocol.send_frame(left, payload)
        assert protocol.recv_frame(right) == payload

    def test_multiple_frames_in_sequence(self, pair):
        left, right = pair
        for index in range(5):
            protocol.send_frame(left, {"n": index})
        for index in range(5):
            assert protocol.recv_frame(right) == {"n": index}

    def test_clean_eof_at_frame_boundary_returns_none(self, pair):
        left, right = pair
        protocol.send_frame(left, {"n": 1})
        left.close()
        assert protocol.recv_frame(right) == {"n": 1}
        assert protocol.recv_frame(right) is None

    def test_eof_mid_prefix_raises(self, pair):
        left, right = pair
        left.sendall(protocol.encode_frame({"n": 1})[:3])
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            protocol.recv_frame(right)

    def test_eof_mid_body_raises(self, pair):
        left, right = pair
        frame = protocol.encode_frame({"n": 1})
        left.sendall(frame[:-2])
        left.close()
        with pytest.raises(ProtocolError):
            protocol.recv_frame(right)

    def test_corrupted_body_fails_crc(self, pair):
        left, right = pair
        frame = bytearray(protocol.encode_frame({"op": "ping"}))
        frame[-1] ^= 0x40  # flip one bit inside the body
        left.sendall(bytes(frame))
        with pytest.raises(ProtocolError, match="CRC"):
            protocol.recv_frame(right)

    def test_oversized_length_prefix_rejected_before_allocation(self, pair):
        left, right = pair
        left.sendall(struct.pack("<II", protocol.MAX_FRAME_BYTES + 1, 0))
        with pytest.raises(ProtocolError, match="ceiling"):
            protocol.recv_frame(right)

    def test_non_object_body_rejected(self, pair):
        left, right = pair
        body = b"[1, 2, 3]"
        left.sendall(struct.pack("<II", len(body), zlib.crc32(body)) + body)
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.recv_frame(right)

    def test_invalid_json_rejected(self, pair):
        left, right = pair
        body = b"{not json"
        left.sendall(struct.pack("<II", len(body), zlib.crc32(body)) + body)
        with pytest.raises(ProtocolError, match="not valid JSON"):
            protocol.recv_frame(right)

    def test_numpy_scalars_encode_exactly(self, pair):
        left, right = pair
        protocol.send_frame(
            left,
            {
                "i": np.int64(7),
                "f": np.float64(0.1234567891234567),
                "arr": np.array([1.5, 2.5]),
            },
        )
        received = protocol.recv_frame(right)
        assert received == {"i": 7, "f": 0.1234567891234567, "arr": [1.5, 2.5]}

    def test_unserializable_payload_raises(self):
        with pytest.raises(ProtocolError, match="cannot serialize"):
            protocol.encode_frame({"bad": object()})


class TestHandshake:
    def test_hello_round_trips_and_validates(self):
        hello = protocol.hello_payload(epoch=3)
        assert protocol.check_hello(hello) == hello
        assert hello["version"] == __version__
        assert hello["epoch"] == 3

    def test_missing_hello_is_an_error(self):
        with pytest.raises(ProtocolError, match="before its hello"):
            protocol.check_hello(None)

    def test_wrong_server_rejected(self):
        with pytest.raises(ProtocolError, match="not a repro serving daemon"):
            protocol.check_hello({"server": "other"})

    def test_protocol_mismatch_rejected(self):
        hello = protocol.hello_payload(epoch=1)
        hello["protocol"] = protocol.PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="protocol mismatch"):
            protocol.check_hello(hello)

    def test_version_mismatch_fails_loudly(self):
        hello = protocol.hello_payload(epoch=1)
        hello["version"] = "0.0.0-other"
        with pytest.raises(ProtocolError, match="version mismatch"):
            protocol.check_hello(hello)


class TestCodecs:
    def test_scored_pairs_round_trip_bit_identically(self):
        pairs = [
            ScoredPair(user_a=1, user_b=2, jaccard=0.123456789012345, common_items=7.25),
            ScoredPair(user_a="alice", user_b="bob", jaccard=1.0, common_items=3.0),
        ]
        assert protocol.decode_scored_pairs(protocol.encode_scored_pairs(pairs)) == pairs

    def test_estimates_round_trip_bit_identically(self):
        estimates = [
            PairEstimate(1, 2, common_items=5.5, jaccard=0.98765432101),
            PairEstimate("x", "y", common_items=0.0, jaccard=0.0),
        ]
        assert protocol.decode_estimates(protocol.encode_estimates(estimates)) == estimates

    def test_elements_round_trip(self):
        elements = [
            StreamElement(1, 10, Action.INSERT),
            StreamElement(2, 11, Action.DELETE),
            StreamElement("u", "item", Action.INSERT),
        ]
        assert protocol.decode_elements(protocol.encode_elements(elements)) == elements

    def test_bad_element_row_shape_rejected(self):
        with pytest.raises(ProtocolError, match="user, item, action"):
            protocol.decode_elements([[1, 10]])

    def test_bad_element_action_rejected(self):
        with pytest.raises(ProtocolError, match="unknown stream action"):
            protocol.decode_elements([[1, 10, "x"]])
