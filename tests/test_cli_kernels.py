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
