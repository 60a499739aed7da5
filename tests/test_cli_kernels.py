"""Tests for the ``repro kernels`` CLI subcommand.

The status table must reflect the dispatch layer's resolution (tier, probe
status, block sizing) and ``--bench`` must time both tiers on a synthetic
block while asserting their bit-identity.
"""

from __future__ import annotations

import logging

import pytest

from repro import kernels
from repro.cli import main


@pytest.fixture(autouse=True)
def restore_logging():
    """main() reconfigures root logging (force=True); undo it after each test."""
    root = logging.getLogger()
    level, handlers = root.level, list(root.handlers)
    yield
    root.setLevel(level)
    root.handlers[:] = handlers


def test_kernels_status_table(capsys):
    assert main(["kernels"]) == 0
    output = capsys.readouterr().out
    assert "requested tier" in output
    assert "active tier" in output
    active = kernels.active_tier()
    assert active in output


def test_kernels_status_csv(capsys):
    assert main(["kernels", "--csv"]) == 0
    output = capsys.readouterr().out
    assert "field,value" in output
    assert "numpy popcount," in output


def _expected_vector_lanes() -> int:
    """8 for a host-tuned build on a CPU with AVX-512 F and DQ, else 1."""
    from repro.kernels import native

    info = kernels.kernel_info()["native"]
    avx512 = {"avx512f", "avx512dq"} <= set(native._cpu_flags().split())
    return 8 if avx512 and "-march=native" in info["flags"] else 1


def test_kernels_status_reports_vector_lanes(capsys):
    if not kernels.kernel_info()["native"]["available"]:
        pytest.skip("no C compiler: native tier unavailable on this host")
    assert main(["kernels", "--csv"]) == 0
    output = capsys.readouterr().out
    assert f"vector lanes,{_expected_vector_lanes()}\n" in output
    assert main(["kernels", "--bench", "--users", "16", "--pairs", "100", "--csv"]) == 0
    output = capsys.readouterr().out
    assert f"native vector lanes {_expected_vector_lanes()}\n" in output


def test_kernels_forced_numpy(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "numpy")
    assert main(["kernels", "--csv"]) == 0
    output = capsys.readouterr().out
    assert "requested tier,numpy" in output
    assert "active tier,numpy" in output


def test_kernels_bench_times_both_tiers(capsys):
    assert (
        main(
            [
                "kernels",
                "--bench",
                "--users",
                "64",
                "--pairs",
                "2000",
                "--sketch-size",
                "256",
                "--csv",
            ]
        )
        == 0
    )
    output = capsys.readouterr().out
    assert "micro-timing" in output
    assert "tiers bit-identical" in output
    assert "\nnumpy," in output
    if kernels.kernel_info()["native"]["available"]:
        assert "\nnative," in output


def test_kernels_bench_small_sketch(capsys):
    """k=63 exercises the single-word row layout end to end."""
    assert (
        main(
            ["kernels", "--bench", "--users", "32", "--pairs", "500", "--sketch-size", "63"]
        )
        == 0
    )
    assert "micro-timing" in capsys.readouterr().out


def test_kernels_bench_times_row_recovery(capsys):
    assert main(["kernels", "--bench", "--users", "32", "--pairs", "500", "--csv"]) == 0
    assert "recover ms" in capsys.readouterr().out


def test_kernels_bench_fails_when_recovered_rows_disagree(capsys, monkeypatch):
    if not kernels.kernel_info()["native"]["available"]:
        pytest.skip("no C compiler: only one tier to compare")
    from repro.kernels import numpy_tier

    honest = numpy_tier.recover_rows

    def corrupted(*args):
        rows = honest(*args)
        rows[0, 0] ^= 1
        return rows

    monkeypatch.setattr(numpy_tier, "recover_rows", corrupted)
    assert main(["kernels", "--bench", "--users", "32", "--pairs", "500"]) == 2
    assert "disagree on recovered rows" in capsys.readouterr().err


def test_kernels_bench_reports_median_of_repeated_calls(capsys, monkeypatch):
    """Each kernel is timed KERNEL_BENCH_REPEATS times per tier, not once."""
    from collections import Counter

    from repro import cli

    honest = kernels.hash_keys
    calls: Counter = Counter()

    def counting(*args):
        calls[kernels.active_tier()] += 1
        return honest(*args)

    monkeypatch.setattr(kernels, "hash_keys", counting)
    assert main(["kernels", "--bench", "--users", "16", "--pairs", "100", "--csv"]) == 0
    output = capsys.readouterr().out
    assert f"median of {cli.KERNEL_BENCH_REPEATS} calls" in output
    assert cli.KERNEL_BENCH_REPEATS > 1
    assert calls and set(calls.values()) == {cli.KERNEL_BENCH_REPEATS}


def test_kernels_bench_times_the_ingest_xor(capsys):
    assert main(["kernels", "--bench", "--users", "32", "--pairs", "500", "--csv"]) == 0
    assert "xor ms" in capsys.readouterr().out


@pytest.mark.parametrize(
    "corrupt, what",
    [
        (lambda packed, result: packed.__setitem__(0, packed[0] ^ 1) or result, "xored bits"),
        (lambda packed, result: (result[0] + 1, *result[1:]), "xor counts"),
        (lambda packed, result: (*result[:2], result[2][:0]), "xor words"),
    ],
)
def test_kernels_bench_fails_when_the_xor_tiers_disagree(capsys, monkeypatch, corrupt, what):
    if not kernels.kernel_info()["native"]["available"]:
        pytest.skip("no C compiler: only one tier to compare")
    from repro.kernels import numpy_tier

    honest = numpy_tier.xor_positions
    monkeypatch.setattr(
        numpy_tier,
        "xor_positions",
        lambda packed, positions: corrupt(packed, honest(packed, positions)),
    )
    assert main(["kernels", "--bench", "--users", "32", "--pairs", "500"]) == 2
    assert f"disagree on {what}" in capsys.readouterr().err
