"""Native kernel tier: hardware-popcount C kernels compiled at first use.

The hot primitives are implemented in ~130 lines of portable C11 and
compiled with the host toolchain (``cc``/``gcc``/``clang``) into a shared
object the first time the tier is requested.  The build is cached under
``REPRO_KERNEL_CACHE`` (default ``$XDG_CACHE_HOME/repro-kernels``) keyed on a
hash of the source and flags, so subsequent processes just ``dlopen`` the
existing ``.so``.  No third-party build dependency is involved: the loader is
plain :mod:`ctypes` and the compiler invocation a :mod:`subprocess` call, so
hosts without a C compiler simply fail the probe and the dispatch layer keeps
using the NumPy tier.

Bit-identity contract: ``mix64`` is the same SplitMix64 finaliser as
:func:`repro.hashing.universal._mix64` (uint64 wraparound in both), and the
signature hash computes the exact 128-bit product ``a * x + b`` and folds it
to its canonical residue modulo the Mersenne prime ``2^61 - 1`` — the same
residue class and canonical representative the limb-decomposed NumPy path
(:func:`repro.hashing.universal._affine_mod_mersenne`) produces.  The parity
suite (``tests/test_kernels.py``) asserts equality bit for bit.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

__all__ = ["NativeBuildError", "NativeKernels", "load", "reset"]


class NativeBuildError(RuntimeError):
    """Raised when the native kernel library cannot be compiled or loaded."""


_C_SOURCE = r"""
#include <stdint.h>

#define MIX_C1 0xBF58476D1CE4E5B9ULL
#define MIX_C2 0x94D049BB133111EBULL
#define GOLDEN 0x9E3779B97F4A7C15ULL
#define MERSENNE_P ((1ULL << 61) - 1)

/* SplitMix64 finaliser: must match repro.hashing.universal._mix64 exactly. */
static inline uint64_t mix64(uint64_t x) {
    x ^= x >> 30;
    x *= MIX_C1;
    x ^= x >> 27;
    x *= MIX_C2;
    x ^= x >> 31;
    return x;
}

/* Canonical (a * x + b) mod (2^61 - 1) for a, b < p and any 64-bit x, by
 * Mersenne folds rather than a 128-bit `%` (a __umodti3 call): x folds
 * below p, so t = a * x + b < p * 2^61; then t >> 61 < p and t's low 61
 * bits are <= p, and one conditional subtraction of their sum lands on the
 * same canonical representative as the NumPy limb decomposition in
 * _affine_mod_mersenne. */
static inline uint64_t affine_mod_p(uint64_t a, uint64_t b, uint64_t x) {
    x = (x & MERSENNE_P) + (x >> 61);
    if (x >= MERSENNE_P) x -= MERSENNE_P;
    unsigned __int128 t = (unsigned __int128)a * x + b;
    uint64_t r = ((uint64_t)t & MERSENNE_P) + (uint64_t)(t >> 61);
    return r >= MERSENNE_P ? r - MERSENNE_P : r;
}

/* ((a * x + b) mod p) mod range for a mixed key x: the one position hash
 * of ingest (repro_hash_keys) and row recovery (repro_recover_rows).  The
 * hardware 64-bit `%` measured faster than a 128-bit multiply-based
 * remainder inside recover_rows. */
static inline uint64_t position(uint64_t a, uint64_t b, uint64_t x, uint64_t range) {
    return affine_mod_p(a, b, x) % range;
}

/* out[i] = ((a[m] * fingerprint64(keys[i]) + b[m]) mod p) mod range_size with
 * m = members[i] (0 when members is NULL): HashFamily.hash_pairs and
 * UniversalHash.hash_array over an integer-key column in one pass. */
void repro_hash_keys(const uint64_t *keys, int64_t n, const uint64_t *coeff_a,
                     const uint64_t *coeff_b, const int64_t *members,
                     uint64_t range_size, int64_t *out) {
    for (int64_t i = 0; i < n; ++i) {
        int64_t m = members ? members[i] : 0;
        out[i] = (int64_t)position(coeff_a[m], coeff_b[m], mix64(keys[i] ^ GOLDEN),
                                   range_size);
    }
}

/* Packed virtual-sketch rows: bit j of row u (np.packbits order) is bit
 * ((a[j] * fps[u] + b[j]) mod p) mod num_bits of the packed array `bits`.
 * Hash, gather and pack are fused, so no position matrix is built; each
 * output byte is assembled in a register.  Pad bytes past ceil(k / 8) are
 * left as the caller allocated them (zero). */
void repro_recover_rows(const uint64_t *fps, int64_t n, const uint64_t *coeff_a,
                        const uint64_t *coeff_b, int64_t k, const uint8_t *bits,
                        uint64_t num_bits, int64_t row_bytes, uint8_t *out) {
    for (int64_t u = 0; u < n; ++u) {
        const uint64_t x = fps[u];
        uint8_t *row = out + u * row_bytes;
        for (int64_t j = 0; j < k; j += 8) {
            int64_t stop = j + 8 < k ? j + 8 : k;
            unsigned acc = 0;
            for (int64_t v = j; v < stop; ++v) {
                uint64_t pos = position(coeff_a[v], coeff_b[v], x, num_bits);
                acc |= ((bits[pos >> 3] >> (7 - (pos & 7))) & 1u) << (7 - (v - j));
            }
            row[j >> 3] = (uint8_t)acc;
        }
    }
}

void repro_pair_counts(const uint64_t *rows, int64_t row_words,
                       const int64_t *index_a, const int64_t *index_b,
                       int64_t n_pairs, int64_t *out) {
    for (int64_t t = 0; t < n_pairs; ++t) {
        const uint64_t *ra = rows + index_a[t] * row_words;
        const uint64_t *rb = rows + index_b[t] * row_words;
        int64_t total = 0;
        for (int64_t w = 0; w < row_words; ++w) {
            total += __builtin_popcountll(ra[w] ^ rb[w]);
        }
        out[t] = total;
    }
}

void repro_band_signatures(const uint64_t *rows, int64_t n_users,
                           int64_t row_words, int64_t bands, int64_t r,
                           const uint64_t *coeff_a, const uint64_t *coeff_b,
                           uint64_t *signatures, int64_t *set_bits) {
    int64_t columns = bands + 1;
    for (int64_t u = 0; u < n_users; ++u) {
        const uint64_t *row = rows + u * row_words;
        uint64_t *sig = signatures + u * columns;
        int64_t *bits = set_bits + u * bands;
        for (int64_t band = 0; band < bands; ++band) {
            const uint64_t *w = row + band * r;
            uint64_t folded = w[0];
            int64_t count = __builtin_popcountll(w[0]);
            for (int64_t j = 1; j < r; ++j) {
                folded = mix64(folded ^ w[j]);
                count += __builtin_popcountll(w[j]);
            }
            bits[band] = count;
            sig[band] = affine_mod_p(coeff_a[band], coeff_b[band],
                                     mix64(folded ^ GOLDEN));
        }
        uint64_t residual = row[0];
        for (int64_t j = 1; j < row_words; ++j) {
            residual = mix64(residual ^ row[j]);
        }
        sig[bands] = affine_mod_p(coeff_a[bands], coeff_b[bands],
                                  mix64(residual ^ GOLDEN));
    }
}
"""

_BASE_FLAGS = ["-O3", "-fPIC", "-shared", "-std=c11"]
#: Tried first; dropped on hosts whose compiler rejects them.  ``-mpopcnt``
#: rides in via ``-march=native`` so ``__builtin_popcountll`` lowers to the
#: hardware instruction instead of a bit-twiddling sequence.
_ARCH_FLAGS = ["-march=native", "-funroll-loops"]

# Array arguments are typed ``ndpointer``s, so ctypes itself rejects a wrong
# dtype or a non-contiguous array before the pointer reaches C.
_U64 = np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS")
_I64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_U8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
_INT, _UINT = ctypes.c_int64, ctypes.c_uint64
#: Optional ``int64`` array: ``None`` passes a NULL pointer.
_I64_OR_NULL = ctypes.POINTER(ctypes.c_int64)

#: The argument types of every kernel the library exports.
_SIGNATURES = {
    "repro_pair_counts": [_U64, _INT, _I64, _I64, _INT, _I64],
    "repro_hash_keys": [_U64, _INT, _U64, _U64, _I64_OR_NULL, _UINT, _I64],
    "repro_recover_rows": [_U64, _INT, _U64, _U64, _INT, _U8, _UINT, _INT, _U8],
    "repro_band_signatures": [_U64, _INT, _INT, _INT, _INT, _U64, _U64, _U64, _I64],
}

_lock = threading.Lock()
_cached: "NativeKernels | None" = None
_cached_error: Exception | None = None


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_CACHE", "").strip()
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-kernels"


def _find_compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _source_digest(flags: list[str]) -> str:
    payload = "\x00".join([_C_SOURCE, " ".join(flags), os.uname().machine])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _compile(compiler: str, cache_dir: Path) -> tuple[Path, dict]:
    """Compile the kernel source into the cache, returning (path, build info)."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    attempts = [_BASE_FLAGS + _ARCH_FLAGS, list(_BASE_FLAGS)]
    last_error = "no compile attempt ran"
    for flags in attempts:
        so_path = cache_dir / f"repro_kernels_{_source_digest(flags)}.so"
        if so_path.exists():
            return so_path, {"flags": flags, "cached": True, "build_seconds": 0.0}
        started = time.perf_counter()
        with tempfile.TemporaryDirectory(dir=str(cache_dir)) as workdir:
            c_path = Path(workdir) / "repro_kernels.c"
            c_path.write_text(_C_SOURCE)
            tmp_so = Path(workdir) / "repro_kernels.so"
            result = subprocess.run(
                [compiler, *flags, str(c_path), "-o", str(tmp_so)],
                capture_output=True,
                text=True,
            )
            if result.returncode != 0:
                last_error = (result.stderr or result.stdout or "").strip()
                continue
            # Atomic publish so concurrent processes never load a torn file.
            os.replace(tmp_so, so_path)
        return so_path, {
            "flags": flags,
            "cached": False,
            "build_seconds": time.perf_counter() - started,
        }
    raise NativeBuildError(f"{compiler} failed to build kernels: {last_error}")


class NativeKernels:
    """ctypes facade over the compiled kernel library."""

    def __init__(self, lib: ctypes.CDLL, info: dict) -> None:
        self.info = info
        self._lib = lib
        for name, argtypes in _SIGNATURES.items():
            function = getattr(lib, name)
            function.restype = None
            function.argtypes = argtypes

    def pair_counts(
        self, words: np.ndarray, index_a: np.ndarray, index_b: np.ndarray
    ) -> np.ndarray:
        n_pairs = int(index_a.shape[0])
        counts = np.empty(n_pairs, dtype=np.int64)
        if n_pairs:
            self._lib.repro_pair_counts(
                words, words.shape[1], index_a, index_b, n_pairs, counts
            )
        return counts

    def hash_keys(
        self,
        keys: np.ndarray,
        coeff_a: np.ndarray,
        coeff_b: np.ndarray,
        members: np.ndarray | None,
        range_size: int,
    ) -> np.ndarray:
        n = int(keys.shape[0])
        out = np.empty(n, dtype=np.int64)
        if n:
            members_p = None if members is None else members.ctypes.data_as(_I64_OR_NULL)
            self._lib.repro_hash_keys(keys, n, coeff_a, coeff_b, members_p, range_size, out)
        return out

    def recover_rows(
        self,
        fingerprints: np.ndarray,
        coeff_a: np.ndarray,
        coeff_b: np.ndarray,
        packed_bits: np.ndarray,
        num_bits: int,
        k: int,
        row_bytes: int,
    ) -> np.ndarray:
        n = int(fingerprints.shape[0])
        rows = np.zeros((n, row_bytes), dtype=np.uint8)
        if n:
            self._lib.repro_recover_rows(
                fingerprints, n, coeff_a, coeff_b, k, packed_bits, num_bits, row_bytes, rows
            )
        return rows

    def band_signatures(
        self,
        words: np.ndarray,
        bands: int,
        rows_per_band: int,
        coeff_a: np.ndarray,
        coeff_b: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        n_users = int(words.shape[0])
        signatures = np.empty((n_users, bands + 1), dtype=np.uint64)
        set_bits = np.empty((n_users, bands), dtype=np.int64)
        if n_users:
            self._lib.repro_band_signatures(
                words, n_users, words.shape[1], bands, rows_per_band,
                coeff_a, coeff_b, signatures, set_bits,
            )
        return signatures, set_bits


def load() -> NativeKernels:
    """Build (or reuse) and load the native kernel library.

    Thread-safe and memoised: the first call pays the probe/compile cost, and
    both the loaded library and a terminal failure are cached for the life of
    the process (:func:`reset` clears them, for tests).
    """
    global _cached, _cached_error
    if _cached is not None:
        return _cached
    if _cached_error is not None:
        raise _cached_error
    with _lock:
        if _cached is not None:
            return _cached
        if _cached_error is not None:
            raise _cached_error
        try:
            compiler = _find_compiler()
            if compiler is None:
                raise NativeBuildError("no C compiler (cc/gcc/clang) on PATH")
            so_path, build = _compile(compiler, _cache_dir())
            lib = ctypes.CDLL(str(so_path))
            info = {
                "compiler": compiler,
                "library": str(so_path),
                "flags": build["flags"],
                "cached_build": build["cached"],
                "build_seconds": round(build["build_seconds"], 4),
            }
            _cached = NativeKernels(lib, info)
            return _cached
        except Exception as exc:
            _cached_error = exc
            raise


def reset() -> None:
    """Forget the memoised library/failure so the next load re-probes."""
    global _cached, _cached_error
    with _lock:
        _cached = None
        _cached_error = None
