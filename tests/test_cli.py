"""Tests for the command-line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_figure_commands_exist(self):
        parser = build_parser()
        for command in ["datasets", "figure2a", "figure2b", "figure3a", "figure3b", "figure3c", "figure3d", "bias"]:
            args = parser.parse_args([command] if command in ("datasets",) else [command])
            assert callable(args.handler)

    def test_figure2a_accepts_sketch_sizes(self):
        args = build_parser().parse_args(["figure2a", "--sketch-sizes", "5", "10"])
        assert args.sketch_sizes == [5, 10]

    def test_scale_and_seed_options(self):
        args = build_parser().parse_args(["figure3a", "--scale", "0.2", "--seed", "7"])
        assert args.scale == 0.2
        assert args.seed == 7


class TestCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "youtube" in out and "orkut" in out

    def test_datasets_csv(self, capsys):
        assert main(["datasets", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("dataset,")

    def test_figure2a_small(self, capsys):
        code = main(["figure2a", "--scale", "0.02", "--sketch-sizes", "4", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 2(a)" in out
        for method in ("VOS", "OPH", "MinHash", "RP"):
            assert method in out

    def test_figure3a_small(self, capsys):
        code = main(
            [
                "figure3a",
                "--scale", "0.05",
                "--registers", "8",
                "--top-users", "15",
                "--max-pairs", "30",
                "--checkpoints", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AAPE" in out
        assert "VOS" in out

    def test_bias_command(self, capsys):
        code = main(["bias", "--rates", "0.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bias(VOS)" in out

    def test_search_command(self, capsys):
        code = main(
            [
                "search",
                "--dataset", "youtube",
                "--scale", "0.1",
                "--registers", "8",
                "--top-users", "10",
                "-k", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top-3 similar pairs" in out
        assert "J (VOS)" in out and "J (exact)" in out

    def test_search_command_with_other_method(self, capsys):
        code = main(
            [
                "search",
                "--dataset", "youtube",
                "--scale", "0.1",
                "--method", "MinHash",
                "--registers", "8",
                "--top-users", "8",
                "-k", "2",
            ]
        )
        assert code == 0
        assert "MinHash" in capsys.readouterr().out


class TestServiceCommands:
    """End-to-end ``repro ingest`` -> snapshot -> ``repro topk`` round trip."""

    @pytest.fixture()
    def stream_file(self, tmp_path, small_dynamic_stream):
        from repro.streams.io import write_stream

        path = tmp_path / "stream.txt"
        write_stream(small_dynamic_stream.prefix(2000), path)
        return path

    def test_ingest_then_topk(self, stream_file, tmp_path, capsys, small_dynamic_stream):
        snapshot = tmp_path / "state.vos"
        code = main(
            [
                "ingest",
                "--stream", str(stream_file),
                "--snapshot", str(snapshot),
                "--shards", "4",
                "--registers", "8",
                "--batch-size", "512",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ingested 2000 elements" in out
        assert snapshot.exists()

        user = sorted(small_dynamic_stream.prefix(2000).users())[0]
        code = main(["topk", "--snapshot", str(snapshot), "--user", str(user), "-k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"similar to user {user}" in out
        assert "jaccard" in out

    def test_topk_csv(self, stream_file, tmp_path, capsys, small_dynamic_stream):
        snapshot = tmp_path / "state.vos"
        assert main(["ingest", "--stream", str(stream_file), "--snapshot", str(snapshot)]) == 0
        capsys.readouterr()
        user = sorted(small_dynamic_stream.prefix(2000).users())[0]
        code = main(
            ["topk", "--snapshot", str(snapshot), "--user", str(user), "-k", "2", "--csv"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("user,")

    def test_topk_unknown_user_exits_2(self, stream_file, tmp_path, capsys):
        snapshot = tmp_path / "state.vos"
        assert main(["ingest", "--stream", str(stream_file), "--snapshot", str(snapshot)]) == 0
        code = main(["topk", "--snapshot", str(snapshot), "--user", "123456789", "-k", "3"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_topk_missing_snapshot_exits_2(self, tmp_path, capsys):
        code = main(
            ["topk", "--snapshot", str(tmp_path / "nope.vos"), "--user", "1", "-k", "3"]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestConvertAndIngestFormats:
    """``repro convert`` and the ingest ``--format`` / ``--no-validate`` flags.

    Every way of reading the same stream must snapshot bit-identical state.
    """

    @pytest.fixture()
    def text_stream_file(self, tmp_path, small_dynamic_stream):
        from repro.streams.io import write_stream

        path = tmp_path / "stream.txt"
        write_stream(small_dynamic_stream.prefix(2000), path)
        return path

    def test_convert_text_to_binary_and_back(
        self, text_stream_file, tmp_path, capsys
    ):
        from repro.streams.io import read_stream

        binary = tmp_path / "stream.vosstream"
        assert main(
            ["convert", "--input", str(text_stream_file), "--output", str(binary)]
        ) == 0
        out = capsys.readouterr().out
        assert "converted 2000 elements" in out
        assert binary.exists()

        text_again = tmp_path / "back.txt"
        assert main(
            ["convert", "--input", str(binary), "--output", str(text_again)]
        ) == 0
        assert list(read_stream(text_again)) == list(read_stream(text_stream_file))

    def test_convert_missing_input_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "convert",
                "--input", str(tmp_path / "nope.txt"),
                "--output", str(tmp_path / "out.vosstream"),
            ]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_binary_ingest_matches_text_snapshot(
        self, text_stream_file, tmp_path, capsys
    ):
        from repro.service.snapshot import load_snapshot

        binary = tmp_path / "stream.vosstream"
        assert main(
            ["convert", "--input", str(text_stream_file), "--output", str(binary)]
        ) == 0

        text_snapshot = tmp_path / "text.vos"
        binary_snapshot = tmp_path / "binary.vos"
        for snapshot, stream, extra in (
            (text_snapshot, text_stream_file, []),
            (binary_snapshot, binary, ["--format", "binary"]),
        ):
            code = main(
                [
                    "ingest",
                    "--stream", str(stream),
                    "--snapshot", str(snapshot),
                    "--shards", "4",
                    "--registers", "8",
                    "--batch-size", "256",
                ]
                + extra
            )
            assert code == 0
        capsys.readouterr()

        from_text = load_snapshot(text_snapshot)
        from_binary = load_snapshot(binary_snapshot)
        for shard_a, shard_b in zip(from_text.shards, from_binary.shards):
            assert (
                shard_a.shared_array.to_packed_bytes()
                == shard_b.shared_array.to_packed_bytes()
            )
            assert shard_a.counters() == shard_b.counters()

    def test_ingest_has_no_workers_flag(self, text_stream_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "ingest",
                    "--stream", str(text_stream_file),
                    "--snapshot", str(tmp_path / "state.vos"),
                    "--workers", "2",
                ]
            )
        assert info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_no_validate_ingest_streams_chunks_and_matches(
        self, text_stream_file, tmp_path, capsys
    ):
        """--no-validate takes the chunked columnar path, same final state."""
        from repro.service.snapshot import load_snapshot

        binary = tmp_path / "stream.vosstream"
        assert main(
            ["convert", "--input", str(text_stream_file), "--output", str(binary)]
        ) == 0
        validated = tmp_path / "validated.vos"
        streamed = tmp_path / "streamed.vos"
        for snapshot, extra in (
            (validated, []),
            (streamed, ["--no-validate"]),
        ):
            assert main(
                [
                    "ingest",
                    "--stream", str(binary),
                    "--snapshot", str(snapshot),
                    "--shards", "4",
                    "--registers", "8",
                ]
                + extra
            ) == 0
        capsys.readouterr()
        a = load_snapshot(validated)
        b = load_snapshot(streamed)
        for shard_a, shard_b in zip(a.shards, b.shards):
            assert (
                shard_a.shared_array.to_packed_bytes()
                == shard_b.shared_array.to_packed_bytes()
            )
            assert shard_a.counters() == shard_b.counters()

    def test_string_id_stream_ingest_fails_fast_with_exit_2(self, tmp_path, capsys):
        """Snapshots need int users: string-id ingest must not traceback."""
        path = tmp_path / "named.txt"
        path.write_text("+ alice 1\n+ bob 1\n")
        code = main(
            [
                "ingest",
                "--stream", str(path),
                "--snapshot", str(tmp_path / "state.vos"),
            ]
        )
        assert code == 2
        assert "not 64-bit integers" in capsys.readouterr().err
        assert not (tmp_path / "state.vos").exists()

    def test_missing_stream_file_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "ingest",
                "--stream", str(tmp_path / "nope.txt"),
                "--snapshot", str(tmp_path / "state.vos"),
            ]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_overflowing_user_ids_fail_fast(self, tmp_path, capsys):
        """Ids beyond int64 can't be snapshotted either; fail before ingest."""
        from repro.streams import Action, GraphStream, StreamElement, write_stream

        path = tmp_path / "big.vosstream"
        write_stream(
            GraphStream([StreamElement(2**70, 1, Action.INSERT)]), path
        )
        code = main(
            [
                "ingest",
                "--stream", str(path),
                "--snapshot", str(tmp_path / "state.vos"),
                "--no-validate",
            ]
        )
        assert code == 2
        assert "not 64-bit integers" in capsys.readouterr().err


class TestIndexCommands:
    """``repro index`` and ``--index lsh`` on the query commands."""

    @pytest.fixture()
    def snapshot(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(5)
        lines = []
        for pair in range(100):
            items = rng.integers(0, 10**6, size=12)
            for user in (2 * pair, 2 * pair + 1):
                lines += [f"+ {user} {item}" for item in items]
        stream = tmp_path / "clones.txt"
        stream.write_text("\n".join(lines) + "\n")
        snapshot = tmp_path / "state.vos"
        code = main(
            [
                "ingest",
                "--stream", str(stream),
                "--snapshot", str(snapshot),
                "--shards", "4",
                "--registers", "8",
                "--batch-size", "512",
                "--seed", "3",
            ]
        )
        assert code == 0
        return snapshot

    def test_pairs_lsh_is_deterministic_across_runs(self, snapshot, capsys):
        """Band seeds flow from the snapshot's sketch seed: identical output."""
        assert main(["pairs", "--snapshot", str(snapshot), "-k", "5", "--index", "lsh"]) == 0
        first = capsys.readouterr().out
        assert main(["pairs", "--snapshot", str(snapshot), "-k", "5", "--index", "lsh"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "candidates lsh" in first
        assert "jaccard" in first
        # Header comment + column headers + rule + at least one scored pair.
        assert len(first.strip().splitlines()) >= 4

    def test_topk_lsh_is_deterministic_across_runs(self, snapshot, capsys):
        argv = ["topk", "--snapshot", str(snapshot), "--user", "0", "-k", "3", "--index", "lsh"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert first == capsys.readouterr().out

    def test_index_build_reports_layout_and_seed(self, snapshot, capsys):
        assert main(["index", "build", "--snapshot", str(snapshot), "--csv"]) == 0
        out = capsys.readouterr().out
        assert "bands," in out
        # The band seed is the snapshot's sketch seed (ingest ran with --seed 3).
        assert "seed,3" in out
        assert "build sec," in out

    def test_index_stats_reports_candidate_reduction(self, snapshot, capsys):
        assert main(["index", "stats", "--snapshot", str(snapshot), "--csv"]) == 0
        out = capsys.readouterr().out
        assert "candidate pairs," in out
        assert "candidate fraction," in out
        assert "all pairs,19900" in out

    def test_index_accepts_explicit_band_layout(self, snapshot, capsys):
        code = main(
            [
                "index", "build",
                "--snapshot", str(snapshot),
                "--bands", "4",
                "--rows-per-band", "2",
                "--csv",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bands,4" in out
        assert "band bits,128" in out

    def test_index_build_missing_snapshot_exits_2(self, tmp_path, capsys):
        code = main(["index", "build", "--snapshot", str(tmp_path / "nope.vos")])
        assert code == 2
        assert capsys.readouterr().err


class TestSnapshotCommands:
    """``repro snapshot save|delta|compact|info`` — the incremental persistence CLI."""

    @pytest.fixture()
    def seeded(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(7)
        lines = []
        for pair in range(40):
            items = rng.integers(0, 10**6, size=10)
            for user in (2 * pair, 2 * pair + 1):
                lines += [f"+ {user} {item}" for item in items]
        stream = tmp_path / "base.txt"
        stream.write_text("\n".join(lines) + "\n")
        more = tmp_path / "more.txt"
        more.write_text(
            "\n".join(f"+ {user} {9_000_000 + item}" for user in (0, 1) for item in range(5))
            + "\n"
        )
        snapshot = tmp_path / "state.vos"
        assert (
            main(
                [
                    "ingest",
                    "--stream", str(stream),
                    "--snapshot", str(snapshot),
                    "--shards", "4",
                    "--registers", "8",
                    "--seed", "3",
                ]
            )
            == 0
        )
        return snapshot, more

    def test_info_reports_v2_and_no_journal(self, seeded, capsys):
        snapshot, _ = seeded
        assert main(["snapshot", "info", "--snapshot", str(snapshot), "--csv"]) == 0
        out = capsys.readouterr().out
        assert "format version,2" in out
        assert "journal,none" in out

    def test_delta_then_load_matches_full_rewrite(self, seeded, capsys, tmp_path):
        from repro.service import SimilarityService
        from repro.service.journal import default_journal_path

        snapshot, more = seeded
        reference = SimilarityService.load(snapshot)
        assert (
            main(
                [
                    "snapshot", "delta",
                    "--snapshot", str(snapshot),
                    "--stream", str(more),
                    "--csv",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "delta records," in out
        assert default_journal_path(snapshot).exists()
        # The journal-replayed state equals re-ingesting through the library.
        from repro.streams.io import iter_stream_batches

        reference.ingest(iter_stream_batches(more))
        restored = SimilarityService.load(snapshot)
        for a, b in zip(reference.sketch.shards, restored.sketch.shards):
            assert a.counters() == b.counters()
            assert a.shared_array.to_packed_bytes() == b.shared_array.to_packed_bytes()

    def test_compact_resets_the_journal(self, seeded, capsys):
        from repro.service.journal import default_journal_path

        snapshot, more = seeded
        assert (
            main(
                ["snapshot", "delta", "--snapshot", str(snapshot), "--stream", str(more)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["snapshot", "compact", "--snapshot", str(snapshot), "--csv"]) == 0
        out = capsys.readouterr().out
        assert "journal bytes,0" in out
        assert not default_journal_path(snapshot).exists()

    def test_save_with_index_makes_restart_report_restored(self, seeded, capsys):
        """The satellite contract: stats()["index"]["restored"] after load."""
        snapshot, _ = seeded
        assert (
            main(
                ["snapshot", "save", "--snapshot", str(snapshot), "--with-index", "--csv"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "index persisted,True" in out
        assert main(["index", "stats", "--snapshot", str(snapshot), "--csv"]) == 0
        out = capsys.readouterr().out
        assert "restored,4" in out
        assert "rebuilds,0" in out
        # Library-level assertion of the same counter.
        from repro.service import SimilarityService

        restored = SimilarityService.load(snapshot)
        assert restored.stats()["index"]["restored"] == 4

    def test_save_without_index_rebuilds_on_stats(self, seeded, capsys):
        snapshot, _ = seeded
        assert main(["index", "stats", "--snapshot", str(snapshot), "--csv"]) == 0
        out = capsys.readouterr().out
        assert "restored,0" in out
        assert "rebuilds," in out and "rebuilds,0" not in out

    def test_missing_snapshot_exits_2(self, tmp_path, capsys):
        code = main(
            ["snapshot", "info", "--snapshot", str(tmp_path / "missing.vos")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestVersion:
    def test_version_flag_prints_the_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_version_is_single_sourced(self):
        """setup.py, repro.__version__ and the wire handshake must agree."""
        import re
        from pathlib import Path

        from repro import __version__
        from repro.server.protocol import hello_payload

        setup_text = (
            Path(__file__).resolve().parent.parent / "setup.py"
        ).read_text(encoding="utf-8")
        assert '_version.py' in setup_text  # setup.py parses the same file
        assert re.search(r"version=_read_version\(\)", setup_text)
        assert hello_payload(epoch=1)["version"] == __version__


class TestServeQueryParsers:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--snapshot", "s.vos"])
        assert args.handler is not None
        assert args.host == "127.0.0.1"
        assert args.port == 7437
        assert args.serve_workers == 4

    def test_query_parser_modes(self):
        parser = build_parser()
        pairs = parser.parse_args(["query", "--connect", "127.0.0.1:7437", "-k", "5"])
        assert pairs.user is None and pairs.k == 5
        user = parser.parse_args(
            ["query", "--connect", "localhost:1234", "--user", "7", "--index", "lsh"]
        )
        assert user.user == 7 and user.index == "lsh"
        stats = parser.parse_args(["query", "--connect", "h:1", "--stats"])
        assert stats.stats is True

    def test_query_against_nothing_exits_2(self, capsys):
        code = main(["query", "--connect", "127.0.0.1:1", "-k", "3"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_connect_string_parsing(self):
        from repro.cli import _parse_connect
        from repro.exceptions import DatasetError

        assert _parse_connect("10.0.0.2:9000") == ("10.0.0.2", 9000)
        assert _parse_connect("myhost") == ("myhost", 7437)
        with pytest.raises(DatasetError):
            _parse_connect("host:notaport")
