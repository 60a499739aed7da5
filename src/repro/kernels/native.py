"""Native kernel tier: hardware-popcount C kernels compiled at first use.

The hot primitives are implemented in ~250 lines of C11 and compiled with
the host toolchain (``cc``/``gcc``/``clang``) into a shared object the first
time the tier is requested.  The build is cached under ``REPRO_KERNEL_CACHE``
(default ``$XDG_CACHE_HOME/repro-kernels``) keyed on a hash of the source, the
flags, the machine and the host CPU's feature flags, so subsequent processes
just ``dlopen`` the existing ``.so`` and a shared cache never hands a
host-tuned build to a CPU that lacks its instructions.  No third-party build
dependency is involved: the loader is plain :mod:`ctypes` and the compiler
invocation a :mod:`subprocess` call, so hosts without a C compiler simply
fail the probe and the dispatch layer keeps using the NumPy tier.

The one position hash ``((a * x + b) mod (2^61 - 1)) mod m`` of ingest
(``repro_hash_keys``) and row recovery (``repro_recover_rows``) has two
bodies: a portable scalar ``position()`` and, when the compiler targets
AVX-512 F and DQ (``-march=native`` on such a host), an eight-lane
``position8()`` built from 32-bit limb products, Mersenne folds and a
double-precision quotient whose error bound makes one fix-up exact for
``m > 768`` (derived in the C comments).  The scalar body serves loop tails,
ranges up to 768 and builds without AVX-512; ``repro_vector_lanes()``
reports which body the library has (``info["vector_lanes"]``).

Bit-identity contract: ``mix64`` is the same SplitMix64 finaliser as
:func:`repro.hashing.universal._mix64` (uint64 wraparound in both), and both
position bodies compute the canonical residue of ``a * x + b`` modulo the
Mersenne prime ``2^61 - 1`` — the same residue class and canonical
representative the limb-decomposed NumPy path
(:func:`repro.hashing.universal._affine_mod_mersenne`) produces — and its
exact remainder modulo ``m``.  The parity suites (``tests/test_kernels.py``
for the library this host builds, ``tests/test_native_build.py`` for the
scalar body) assert equality bit for bit.
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

/* x mod (2^61 - 1), canonical, for any 64-bit x: one Mersenne fold leaves
 * x <= p + 7, and one conditional subtraction lands in [0, p). */
static inline uint64_t reduce_p(uint64_t x) {
    x = (x & MERSENNE_P) + (x >> 61);
    return x >= MERSENNE_P ? x - MERSENNE_P : x;
}

/* Canonical (a * x + b) mod (2^61 - 1) for a, b < p and any 64-bit x, by
 * Mersenne folds rather than a 128-bit `%` (a __umodti3 call): x folds
 * below p, so t = a * x + b < p * 2^61; then t >> 61 < p and t's low 61
 * bits are <= p, and one conditional subtraction of their sum lands on the
 * same canonical representative as the NumPy limb decomposition in
 * _affine_mod_mersenne. */
static inline uint64_t affine_mod_p(uint64_t a, uint64_t b, uint64_t x) {
    x = reduce_p(x);
    unsigned __int128 t = (unsigned __int128)a * x + b;
    uint64_t r = ((uint64_t)t & MERSENNE_P) + (uint64_t)(t >> 61);
    return r >= MERSENNE_P ? r - MERSENNE_P : r;
}

/* ((a * x + b) mod p) mod range for a mixed key x: the one position hash
 * of ingest (repro_hash_keys) and row recovery (repro_recover_rows).  The
 * scalar body serves loop tails, ranges up to VECTOR_MIN_RANGE and builds
 * without AVX-512; position8 below computes the same value eight lanes at a
 * time. */
static inline uint64_t position(uint64_t a, uint64_t b, uint64_t x, uint64_t range) {
    return affine_mod_p(a, b, x) % range;
}

/* The vector body is exact only for range > 768 (see mod_range8). */
#define VECTOR_MIN_RANGE 768

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include <immintrin.h>
#define VECTOR_LANES 8

/* reduce_p on eight lanes. */
static inline __m512i reduce_p8(__m512i x) {
    const __m512i p = _mm512_set1_epi64((long long)MERSENNE_P);
    x = _mm512_add_epi64(_mm512_and_si512(x, p), _mm512_srli_epi64(x, 61));
    return _mm512_mask_sub_epi64(x, _mm512_cmpge_epu64_mask(x, p), x, p);
}

/* affine_mod_p on eight lanes, for a, b, x < p.  AVX-512 has no 64x64->128
 * multiply, so the product is built from 32-bit limbs (a = a1 2^32 + a0,
 * x = x1 2^32 + x0, with a1, x1 < 2^29):
 *   a x = hh 2^64 + mid 2^32 + ll,  hh = a1 x1 < 2^58,
 *   mid = a0 x1 + a1 x0 < 2^62,     ll = a0 x0 < 2^64.
 * With 2^61 = 1 (mod p): hh 2^64 = 8 hh < 2^61; mid 2^32 = (mid >> 29) +
 * ((mid << 32) & p), the two parts below 2^33 and 2^61; ll = (ll >> 61) +
 * (ll & p).  Each of the four 61-bit terms with b is below 2^61 and the
 * rest sum below 2^34, so s < 2^63 + 2^34 fits in 64 bits, the fold in
 * reduce_p8 leaves at most p + 4, and one masked subtraction gives the
 * canonical residue: the same value as the scalar affine_mod_p. */
static inline __m512i affine_mod_p8(__m512i a, __m512i b, __m512i x) {
    const __m512i p = _mm512_set1_epi64((long long)MERSENNE_P);
    const __m512i a1 = _mm512_srli_epi64(a, 32), x1 = _mm512_srli_epi64(x, 32);
    const __m512i ll = _mm512_mul_epu32(a, x);
    const __m512i mid = _mm512_add_epi64(_mm512_mul_epu32(a, x1), _mm512_mul_epu32(a1, x));
    const __m512i hh = _mm512_mul_epu32(a1, x1);
    __m512i s = _mm512_add_epi64(_mm512_slli_epi64(hh, 3), _mm512_srli_epi64(mid, 29));
    s = _mm512_add_epi64(s, _mm512_and_si512(_mm512_slli_epi64(mid, 32), p));
    s = _mm512_add_epi64(s, _mm512_add_epi64(_mm512_and_si512(ll, p), _mm512_srli_epi64(ll, 61)));
    s = _mm512_add_epi64(s, b);
    return reduce_p8(s);
}

/* h mod m on eight lanes for h < 2^61 and m > 768, by a double-precision
 * quotient.  Converting h, rounding 1/m and rounding their product each
 * carry relative error <= 2^-53, so the computed quotient is within
 * (h / m) * 3 * 2^-53 (plus O(2^-106)) of h / m, and h / m < 2^61 / m:
 *   |error| <= 3 * 2^-53 * 2^61 / m = 768 / m < 1   for m > 768.
 * Its truncation q is therefore floor(h / m) - 1, + 0 or + 1, and
 * r = h - q m lies in [-m, 2m): one masked add (r < 0) and one masked
 * subtract (r >= m) give the exact remainder, the scalar `%`.  (For
 * m > 2^61, q is 0 or 1 and r > -768, so the signed test stays exact.) */
static inline __m512i mod_range8(__m512i h, __m512i m, __m512d inv_m) {
    const __m512i q = _mm512_cvttpd_epu64(_mm512_mul_pd(_mm512_cvtepu64_pd(h), inv_m));
    __m512i r = _mm512_sub_epi64(h, _mm512_mullo_epi64(q, m));
    r = _mm512_mask_add_epi64(r, _mm512_cmplt_epi64_mask(r, _mm512_setzero_si512()), r, m);
    return _mm512_mask_sub_epi64(r, _mm512_cmpge_epu64_mask(r, m), r, m);
}

/* position() on eight lanes, for reduced x < p and range m > 768. */
static inline __m512i position8(__m512i a, __m512i b, __m512i x, __m512i m, __m512d inv_m) {
    return mod_range8(affine_mod_p8(a, b, x), m, inv_m);
}

/* SplitMix64 finaliser on eight lanes. */
static inline __m512i mix64_8(__m512i x) {
    x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 30));
    x = _mm512_mullo_epi64(x, _mm512_set1_epi64((long long)MIX_C1));
    x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 27));
    x = _mm512_mullo_epi64(x, _mm512_set1_epi64((long long)MIX_C2));
    return _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
}
#else
#define VECTOR_LANES 1
#endif

/* Lanes of the position hash body this build compiled: 8 (AVX-512) or 1. */
int64_t repro_vector_lanes(void) { return VECTOR_LANES; }

/* out[i] = ((a[m] * fingerprint64(keys[i]) + b[m]) mod p) mod range_size with
 * m = members[i] (0 when members is NULL): HashFamily.hash_pairs and
 * UniversalHash.hash_array over an integer-key column in one pass. */
void repro_hash_keys(const uint64_t *keys, int64_t n, const uint64_t *coeff_a,
                     const uint64_t *coeff_b, const int64_t *members,
                     uint64_t range_size, int64_t *out) {
    int64_t i = 0;
#if VECTOR_LANES == 8
    if (range_size > VECTOR_MIN_RANGE) {
        const __m512i golden = _mm512_set1_epi64((long long)GOLDEN);
        const __m512i m = _mm512_set1_epi64((long long)range_size);
        const __m512d inv_m = _mm512_set1_pd(1.0 / (double)range_size);
        __m512i a = _mm512_set1_epi64((long long)coeff_a[0]);
        __m512i b = _mm512_set1_epi64((long long)coeff_b[0]);
        for (; i + 8 <= n; i += 8) {
            if (members) {
                const __m512i member = _mm512_loadu_si512(members + i);
                a = _mm512_i64gather_epi64(member, (const void *)coeff_a, 8);
                b = _mm512_i64gather_epi64(member, (const void *)coeff_b, 8);
            }
            const __m512i x = reduce_p8(mix64_8(
                _mm512_xor_si512(_mm512_loadu_si512(keys + i), golden)));
            _mm512_storeu_si512(out + i, position8(a, b, x, m, inv_m));
        }
    }
#endif
    for (; i < n; ++i) {
        int64_t m = members ? members[i] : 0;
        out[i] = (int64_t)position(coeff_a[m], coeff_b[m], mix64(keys[i] ^ GOLDEN),
                                   range_size);
    }
}

/* Packed virtual-sketch rows: bit j of row u (np.packbits order) is bit
 * ((a[j] * fps[u] + b[j]) mod p) mod num_bits of the packed array `bits`.
 * Hash, gather and pack are fused, so no position matrix is built; each
 * output byte is assembled in a register.  Pad bytes past ceil(k / 8) are
 * left as the caller allocated them (zero).
 *
 * The vector body hashes eight positions at once and gathers the aligned
 * little-endian 64-bit word holding each bit, so `bits` must span whole
 * words (8 * ceil(num_bits / 64) bytes; the dispatch layer checks it).
 * Packbits bit i of a word is bit (i & 63) ^ 7 of its little-endian value.
 * The coefficient lanes are loaded in reverse, so lane 7 - v tests position
 * j + v and the lane test mask is the output byte itself. */
void repro_recover_rows(const uint64_t *fps, int64_t n, const uint64_t *coeff_a,
                        const uint64_t *coeff_b, int64_t k, const uint8_t *bits,
                        uint64_t num_bits, int64_t row_bytes, uint8_t *out) {
    for (int64_t u = 0; u < n; ++u) {
        const uint64_t x = fps[u];
        uint8_t *row = out + u * row_bytes;
        int64_t j = 0;
#if VECTOR_LANES == 8
        if (num_bits > VECTOR_MIN_RANGE) {
            const __m512i reverse = _mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7);
            const __m512i m = _mm512_set1_epi64((long long)num_bits);
            const __m512d inv_m = _mm512_set1_pd(1.0 / (double)num_bits);
            const __m512i one = _mm512_set1_epi64(1), low6 = _mm512_set1_epi64(63);
            const __m512i seven = _mm512_set1_epi64(7);
            const __m512i xv = _mm512_set1_epi64((long long)reduce_p(x));
            for (; j + 8 <= k; j += 8) {
                const __m512i a = _mm512_permutexvar_epi64(reverse, _mm512_loadu_si512(coeff_a + j));
                const __m512i b = _mm512_permutexvar_epi64(reverse, _mm512_loadu_si512(coeff_b + j));
                const __m512i pos = position8(a, b, xv, m, inv_m);
                const __m512i word = _mm512_i64gather_epi64(_mm512_srli_epi64(pos, 6),
                                                            (const void *)bits, 8);
                const __m512i bit = _mm512_sllv_epi64(
                    one, _mm512_xor_si512(_mm512_and_si512(pos, low6), seven));
                row[j >> 3] = (uint8_t)_mm512_test_epi64_mask(word, bit);
            }
        }
#endif
        for (; j < k; j += 8) {
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

# Array arguments are raw pointers (``arr.ctypes.data``): the dispatch layer
# in :mod:`repro.kernels` checks every array's dtype, shape, contiguity and
# index range before calling in, which costs less than ctypes' per-argument
# ``ndpointer`` checks.  The facade below passes only arrays it allocated or
# received from that layer.
_PTR, _INT, _UINT = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64

#: The argument types of every kernel the library exports.
_SIGNATURES = {
    "repro_pair_counts": [_PTR, _INT, _PTR, _PTR, _INT, _PTR],
    "repro_hash_keys": [_PTR, _INT, _PTR, _PTR, _PTR, _UINT, _PTR],
    "repro_recover_rows": [_PTR, _INT, _PTR, _PTR, _INT, _PTR, _UINT, _INT, _PTR],
    "repro_band_signatures": [_PTR, _INT, _INT, _INT, _INT, _PTR, _PTR, _PTR, _PTR],
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


def _cpu_flags() -> str:
    """The host CPU's feature flags (the ``flags`` line of ``/proc/cpuinfo``).

    ``-march=native`` builds use whatever the host has (AVX-512, say), so a
    cache shared between hosts must not hand such a build to a CPU without
    those features.  Empty where ``/proc/cpuinfo`` does not exist.
    """
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as cpuinfo:
            for line in cpuinfo:
                name, _, value = line.partition(":")
                if name.strip() in ("flags", "Features"):
                    return value.strip()
    except OSError:
        pass
    return ""


def _source_digest(flags: list[str], cpu_flags: str) -> str:
    payload = "\x00".join([_C_SOURCE, " ".join(flags), os.uname().machine, cpu_flags])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _build(compiler: str, cache_dir: Path, flags: list[str]) -> tuple[Path, dict]:
    """Compile the kernel source with ``flags`` into the cache (or reuse the
    cached build), returning (path, build info); raises :class:`NativeBuildError`
    with the compiler's message if the build fails."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    so_path = cache_dir / f"repro_kernels_{_source_digest(flags, _cpu_flags())}.so"
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
            message = (result.stderr or result.stdout or "").strip()
            raise NativeBuildError(f"{compiler} failed to build kernels: {message}")
        # Atomic publish so concurrent processes never load a torn file.
        os.replace(tmp_so, so_path)
    return so_path, {
        "flags": flags,
        "cached": False,
        "build_seconds": time.perf_counter() - started,
    }


def _compile(compiler: str, cache_dir: Path) -> tuple[Path, dict]:
    """Build with the host-tuned flags, falling back to the portable base flags."""
    try:
        return _build(compiler, cache_dir, _BASE_FLAGS + _ARCH_FLAGS)
    except NativeBuildError:
        return _build(compiler, cache_dir, list(_BASE_FLAGS))


def _pointer(array: np.ndarray | None) -> int | None:
    return None if array is None else array.ctypes.data


class NativeKernels:
    """ctypes facade over the compiled kernel library.

    Callers pass contiguous arrays of the C types (the dispatch layer checks
    them); ``info["vector_lanes"]`` is 8 when the library was built with the
    AVX-512 position hash and 1 for the scalar body.
    """

    def __init__(self, lib: ctypes.CDLL, info: dict) -> None:
        self._lib = lib
        for name, argtypes in _SIGNATURES.items():
            function = getattr(lib, name)
            function.restype = None
            function.argtypes = argtypes
        lib.repro_vector_lanes.restype = ctypes.c_int64
        lib.repro_vector_lanes.argtypes = []
        self.info = {**info, "vector_lanes": int(lib.repro_vector_lanes())}

    def pair_counts(
        self, words: np.ndarray, index_a: np.ndarray, index_b: np.ndarray
    ) -> np.ndarray:
        n_pairs = int(index_a.shape[0])
        counts = np.empty(n_pairs, dtype=np.int64)
        if n_pairs:
            self._lib.repro_pair_counts(
                _pointer(words), words.shape[1], _pointer(index_a), _pointer(index_b),
                n_pairs, _pointer(counts),
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
            self._lib.repro_hash_keys(
                _pointer(keys), n, _pointer(coeff_a), _pointer(coeff_b),
                _pointer(members), range_size, _pointer(out),
            )
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
                _pointer(fingerprints), n, _pointer(coeff_a), _pointer(coeff_b), k,
                _pointer(packed_bits), num_bits, row_bytes, _pointer(rows),
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
                _pointer(words), n_users, words.shape[1], bands, rows_per_band,
                _pointer(coeff_a), _pointer(coeff_b), _pointer(signatures),
                _pointer(set_bits),
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
