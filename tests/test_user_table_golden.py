"""Golden snapshot and journal files: per-user state keeps its on-disk bytes.

``tests/fixtures/user_table/<stream>/`` holds, for a small integer-id stream
and a mixed-id stream (strings, floats, an int beyond 64 bits), one snapshot
with an ``index/banding`` section, the journal of two delta checkpoints bound
to it (checkpoint id pinned), and ``answers.json``: the counters and query
answers the restored service gave when the files were written.

The files were written by an earlier build whose counters were a plain dict.
These tests check that they still load to the same counters and answers, and
that the same stream written today gives byte-identical files.

Regenerate (only on a deliberate format change)::

    PYTHONPATH=src python tests/test_user_table_golden.py tests/fixtures/user_table
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro import kernels
from repro.service import SimilarityService
from repro.service.sharding import ShardedVOS
from repro.streams.edge import Action, StreamElement, user_sort_key

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "user_table"
CHECKPOINT_ID = "5eed0000c0ffee21"

STREAM_USERS = {
    "int": list(range(40)),
    "mixed": (
        [f"u{n}" for n in range(10)]
        + list(range(100, 110))
        + [1.5, 2.5, -3, 2**70, 2**70 + 1, "alice", "bob", 7.25, 0, 1]
    ),
}


def fixture_stream(users: list) -> list[StreamElement]:
    """A deterministic fully dynamic stream: near-duplicate user pairs, toggled edges.

    Each round toggles ten edges per user (insert when absent, delete when
    live); users ``2g`` and ``2g + 1`` draw from the same item pool, so the
    index has clone pairs to find.
    """
    elements: list[StreamElement] = []
    live: set = set()
    for step in range(3):
        for position, user in enumerate(users):
            group = position // 2
            for j in range(10):
                offset = (position % 2) * (j == 0) + step * 3
                item = group * 11 + (j * 7 + offset) % 23
                edge = (user, item)
                if edge in live:
                    live.discard(edge)
                    elements.append(StreamElement(user, item, Action.DELETE))
                else:
                    live.add(edge)
                    elements.append(StreamElement(user, item, Action.INSERT))
    return elements


def write_fixture_files(users: list, directory: Path) -> None:
    """Ingest the stream in thirds: full checkpoint with index, then two deltas."""
    elements = fixture_stream(users)
    third = len(elements) // 3
    service = SimilarityService(
        ShardedVOS(4, shard_array_bits=1 << 15, virtual_sketch_size=256, seed=11),
        batch_size=50,
    )
    service.ingest(elements[:third])
    with mock.patch(
        "repro.service.service.new_checkpoint_id", return_value=CHECKPOINT_ID
    ):
        service.save(directory / "state.vos", include_index=True)
    service.ingest(elements[third : 2 * third])
    service.save_delta()
    service.ingest(elements[2 * third :])
    service.save_delta()


def service_answers(service: SimilarityService) -> dict:
    """Counters and query answers as JSON-ready values."""
    sketch = service.sketch
    users = sorted(sketch.users(), key=user_sort_key)
    pairs = [
        (user, users[(position * 7 + 3) % len(users)])
        for position, user in enumerate(users)
    ]

    def scored(results) -> list:
        return [[p.user_a, p.user_b, p.jaccard, p.common_items] for p in results]

    answers = {
        "counters": [[user, sketch.cardinality(user)] for user in users],
        "estimate_many": [
            [e.user_a, e.user_b, e.common_items, e.jaccard]
            for e in service.estimate_many(pairs)
        ],
        "top_k": {
            index: [scored(service.top_k(user, k=4, index=index)) for user in users[:8]]
            for index in ("none", "lsh")
        },
        "top_k_pairs": {
            mode: scored(service.top_k_pairs(k=10, candidates=mode))
            for mode in ("all", "lsh")
        },
    }
    # JSON round trip: tuples become lists, floats keep their exact repr.
    return json.loads(json.dumps(answers))


def _tiers() -> list[str]:
    with kernels.use_tier("auto"):
        native = kernels.active_tier() == "native"
    return ["numpy"] + (["native"] if native else [])


@pytest.mark.parametrize("stream", sorted(STREAM_USERS))
class TestGoldenFiles:
    def test_fixture_files_load_to_recorded_answers(self, stream):
        directory = FIXTURES / stream
        recorded = json.loads((directory / "answers.json").read_text())
        for tier in _tiers():
            with kernels.use_tier(tier):
                # A fresh load per tier, so no row memo or index crosses tiers.
                service = SimilarityService.load(directory / "state.vos")
                assert service.sketch.num_users == len(recorded["counters"])
                assert service_answers(service) == recorded, tier

    def test_same_stream_writes_identical_bytes(self, stream, tmp_path):
        write_fixture_files(STREAM_USERS[stream], tmp_path)
        for name in ("state.vos", "state.vos.journal"):
            written = (tmp_path / name).read_bytes()
            assert written == (FIXTURES / stream / name).read_bytes(), name


def main(root: Path) -> None:
    for stream, users in STREAM_USERS.items():
        directory = root / stream
        directory.mkdir(parents=True, exist_ok=True)
        write_fixture_files(users, directory)
        answers = service_answers(SimilarityService.load(directory / "state.vos"))
        (directory / "answers.json").write_text(json.dumps(answers) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
