"""Golden ``.vosstream`` files: the binary stream format keeps its bytes.

``tests/fixtures/vosstream/`` holds two streams written by an earlier build:
``int.vosstream`` (integer users and items, raw ``int64`` columns) and
``mixed.vosstream`` (strings, floats, negative ints and ints beyond 64 bits,
so both id columns take the JSON encoding).  These tests check that today's
writer reproduces both files byte for byte and that the eager reader
(:func:`read_stream`) and the chunked reader (:func:`iter_stream_batches`)
load them to the stream they were written from.

Regenerate (only on a deliberate format change)::

    PYTHONPATH=src python tests/test_streams_golden.py tests/fixtures/vosstream
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.streams import Action, GraphStream, StreamElement
from repro.streams.batch import ElementBatch
from repro.streams.io import iter_stream_batches, read_stream, write_stream

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "vosstream"

STREAM_IDS = {
    "int": (list(range(12)), list(range(500, 520))),
    "mixed": (
        ["alice", "bob", 1.5, -3, 2**70, 7, "u7", 0.25],
        ["pancakes", 2**64 + 5, -1, 3.75, "i1", 42, "", "ü"],
    ),
}


def fixture_stream(name: str) -> GraphStream:
    """A feasible fully dynamic stream over ``STREAM_IDS[name]``: every user
    toggles a rotating window of items over three rounds."""
    users, items = STREAM_IDS[name]
    elements: list[StreamElement] = []
    live: set = set()
    for step in range(3):
        for position, user in enumerate(users):
            for j in range(5):
                item = items[(position * 3 + j * (step + 1)) % len(items)]
                edge = (user, item)
                action = Action.DELETE if edge in live else Action.INSERT
                live.symmetric_difference_update({edge})
                elements.append(StreamElement(user, item, action))
    return GraphStream(elements, name=f"golden-{name}")


def _columns(batch: ElementBatch) -> tuple[list, list, list]:
    return batch.users.tolist(), batch.items.tolist(), batch.signs.tolist()


@pytest.mark.parametrize("name", sorted(STREAM_IDS))
class TestGoldenStreams:
    def test_writer_reproduces_the_fixture_bytes(self, name, tmp_path):
        path = tmp_path / f"{name}.vosstream"
        write_stream(fixture_stream(name), path)
        assert path.read_bytes() == (FIXTURES / f"{name}.vosstream").read_bytes()

    def test_eager_reader_loads_the_written_stream(self, name):
        stream = read_stream(FIXTURES / f"{name}.vosstream")
        expected = fixture_stream(name)
        assert stream.name == expected.name
        assert _columns(ElementBatch.from_elements(stream.elements)) == _columns(
            ElementBatch.from_elements(expected.elements)
        )

    @pytest.mark.parametrize("batch_size", [1, 7, 8192])
    def test_chunked_reader_loads_the_written_stream(self, name, batch_size):
        batches = list(
            iter_stream_batches(FIXTURES / f"{name}.vosstream", batch_size=batch_size)
        )
        expected = _columns(ElementBatch.from_elements(fixture_stream(name).elements))
        assert all(len(batch) <= batch_size for batch in batches)
        chunks = [_columns(batch) for batch in batches]
        assert tuple(sum(column, []) for column in zip(*chunks)) == expected


def main(root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for name in STREAM_IDS:
        write_stream(fixture_stream(name), root / f"{name}.vosstream")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
