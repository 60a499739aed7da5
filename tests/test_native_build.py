"""The native library's build: the portable scalar body and the build cache key.

On a host with AVX-512 the dispatch layer loads the ``-march=native`` build,
whose position hash runs eight lanes at a time, so the tier parity suite
never reaches the scalar body that hosts without AVX-512 run.  This file
builds the C source with the portable base flags alone (the fallback
``_compile`` already tries) and holds that library to the NumPy tier.  It
also checks that the build cache is keyed on the host's CPU features, so a
cache shared between hosts cannot hand an AVX-512 build to a CPU without
those instructions.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro.hashing.universal import _MERSENNE_P
from repro.kernels import native, numpy_tier, packed_row_bytes


@pytest.fixture(scope="module")
def scalar_kernels(tmp_path_factory) -> native.NativeKernels:
    compiler = native._find_compiler()
    if compiler is None:
        pytest.skip("no C compiler (cc/gcc/clang) on PATH")
    cache = tmp_path_factory.mktemp("scalar-kernels")
    so_path, build = native._build(compiler, cache, list(native._BASE_FLAGS))
    return native.NativeKernels(ctypes.CDLL(str(so_path)), build)


def test_base_flags_build_the_scalar_body(scalar_kernels):
    assert scalar_kernels.info["flags"] == native._BASE_FLAGS
    assert scalar_kernels.info["vector_lanes"] == 1


@pytest.mark.parametrize("num_bits", [1, 768, 769, 4_099, 7_680_000])
@pytest.mark.parametrize("k", [1, 19, 1536])
def test_scalar_recover_rows_matches_numpy_tier(scalar_kernels, num_bits, k):
    rng = np.random.default_rng(num_bits + k)
    bits = rng.integers(0, 256, size=8 * ((num_bits + 63) // 64), dtype=np.uint8)
    fingerprints = np.concatenate(
        (
            np.array([0, _MERSENNE_P - 1, _MERSENNE_P, 2**64 - 1], dtype=np.uint64),
            rng.integers(0, 2**63, size=37).astype(np.uint64),
        )
    )
    coeff_a = rng.integers(1, _MERSENNE_P, size=k).astype(np.uint64)
    coeff_b = rng.integers(0, _MERSENNE_P, size=k).astype(np.uint64)
    coeff_a[0], coeff_b[0] = _MERSENNE_P - 1, _MERSENNE_P - 1
    arguments = (fingerprints, coeff_a, coeff_b, bits, num_bits, k, packed_row_bytes(k))
    assert np.array_equal(
        scalar_kernels.recover_rows(*arguments), numpy_tier.recover_rows(*arguments)
    )


@pytest.mark.parametrize("range_size", [1, 13, 768, 769, 7_680_000, _MERSENNE_P, 2**64 - 1])
def test_scalar_hash_keys_matches_numpy_tier(scalar_kernels, range_size):
    rng = np.random.default_rng(range_size % 1000)
    keys = np.concatenate(
        (
            np.array([0, -1, 2**63 - 1, -(2**63)], dtype=np.int64),
            rng.integers(-(2**63), 2**63 - 1, size=1001, dtype=np.int64),
        )
    )
    coeff_a = rng.integers(1, _MERSENNE_P, size=16).astype(np.uint64)
    coeff_b = rng.integers(0, _MERSENNE_P, size=16).astype(np.uint64)
    members = rng.integers(0, 16, size=keys.shape[0]).astype(np.int64)
    for chosen in (members, None):
        native_keys = scalar_kernels.hash_keys(
            keys.astype(np.uint64), coeff_a, coeff_b, chosen, range_size
        )
        assert np.array_equal(
            native_keys,
            numpy_tier.hash_keys(keys, coeff_a, coeff_b, chosen, range_size),
        )


def test_cache_key_covers_cpu_features():
    flags = native._BASE_FLAGS + native._ARCH_FLAGS
    plain = native._source_digest(flags, "fpu sse2 avx2")
    assert native._source_digest(flags, "fpu sse2 avx2") == plain
    assert native._source_digest(flags, "fpu sse2 avx2 avx512f avx512dq") != plain
    assert native._source_digest(native._BASE_FLAGS, "fpu sse2 avx2") != plain


def test_cpu_flags_come_from_cpuinfo():
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as cpuinfo:
            listed = any(line.split(":")[0].strip() in ("flags", "Features") for line in cpuinfo)
    except OSError:
        listed = False
    flags = native._cpu_flags()
    assert bool(flags) == listed
    assert "\n" not in flags
