"""Runtime-selected kernel tiers for the read-path hot primitives.

Every read-path milestone bottoms out in a few primitives: row recovery
(each user's ``k`` double-hash positions ``(h1 + j h2) mod m``, their bits
gathered from the packed shared array and packed into a row), the flip scan
that names the rows a set of changed bits belongs to, the uint64
xor+popcount sweep behind pair scoring and the banded hash fold behind LSH
signature building.  The ingest path bottoms out in more: seeded
Carter-Wegman hashing of integer id columns (item hash, shard router), each
user's position offsets and per-element positions, and the xor of a batch's
positions into the packed array.  This package routes them all through a
tier chosen at runtime::

                        REPRO_KERNEL=auto|numpy|native
                                     |
            +------------------------+------------------------+
            |                                                 |
      native tier                                        numpy tier
  (C, hardware popcount,                         (blocked uint64 lanes,
   compiled at first use                          preallocated scratch,
   via cc/gcc/clang, ctypes)                      np.bitwise_count or
            |                                     byte-table fallback)
            +-- probe/compile failure: auto falls back ------>+

Tiers are bit-identical by contract and parity-tested
(``tests/test_kernels.py``).  ``REPRO_KERNEL`` values:

* ``auto`` (default) — use the native tier when a compiler (or cached build)
  is available, silently falling back to NumPy otherwise; the choice is
  logged once and exposed via :func:`kernel_info` / ``stats()["kernels"]``.
* ``numpy`` — force the NumPy tier (also what non-word-aligned row widths
  use even under the native tier).
* ``native`` — *strict*: raise :class:`~repro.exceptions.ConfigurationError`
  if the native tier cannot be built, instead of degrading silently.  CI's
  kernels job runs the parity suite under this mode so a host with a
  compiler can never quietly lose the fast tier.

Per-call observability lands in the metrics registry under
``kernels.<tier>.pair_calls`` / ``pairs_scored`` / ``pair_seconds``,
``kernels.<tier>.band_calls`` / ``band_rows`` / ``band_seconds``,
``kernels.<tier>.recover_calls`` / ``recover_rows`` / ``recover_seconds`` and
``kernels.<tier>.scan_calls`` / ``scan_pairs`` / ``scan_seconds``.
"""

from __future__ import annotations

import logging
import os
import time
from contextlib import contextmanager
from threading import Lock

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hashing.universal import _MERSENNE_P
from repro.kernels import numpy_tier
from repro.kernels.numpy_tier import pair_block_pairs
from repro.obs import get_registry

__all__ = [
    "active_tier",
    "band_signatures",
    "hash_keys",
    "kernel_info",
    "offsets",
    "pair_block_pairs",
    "pair_counts",
    "packed_row_bytes",
    "recover_rows",
    "requested_tier",
    "reset_kernels",
    "scan_flips",
    "step_positions",
    "use_tier",
    "xor_positions",
]

_LOG = logging.getLogger("repro.kernels")
_VALID_TIERS = ("auto", "numpy", "native")

_lock = Lock()
#: Resolved dispatch state: {"requested", "active", "native", "error"}.
#: Re-resolved whenever REPRO_KERNEL changes, so tests and the ``use_tier``
#: context manager can flip tiers without touching private state.
_state: dict | None = None


def requested_tier() -> str:
    """The tier requested via ``REPRO_KERNEL`` (default ``auto``)."""
    tier = os.environ.get("REPRO_KERNEL", "auto").strip().lower() or "auto"
    if tier not in _VALID_TIERS:
        raise ConfigurationError(
            f"REPRO_KERNEL must be one of {_VALID_TIERS}, got {tier!r}"
        )
    return tier


def _resolve() -> dict:
    global _state
    requested = requested_tier()
    state = _state
    if state is not None and state["requested"] == requested:
        return state
    with _lock:
        state = _state
        if state is not None and state["requested"] == requested:
            return state
        native = None
        error = None
        if requested in ("auto", "native"):
            from repro.kernels import native as native_module

            try:
                native = native_module.load()
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                if requested == "native":
                    raise ConfigurationError(
                        "REPRO_KERNEL=native but the native kernel tier is "
                        f"unavailable: {error}"
                    ) from exc
                _LOG.info(
                    "native kernel tier unavailable (%s); using numpy tier", error
                )
        active = "native" if native is not None else "numpy"
        _LOG.info("kernel tier: %s (requested=%s)", active, requested)
        _state = {
            "requested": requested,
            "active": active,
            "native": native,
            "error": error,
        }
        return _state


def active_tier() -> str:
    """Resolve and return the tier actually in use (``native`` or ``numpy``)."""
    return _resolve()["active"]


def reset_kernels() -> None:
    """Drop the resolved tier (and native probe memo) so the next call re-resolves."""
    global _state
    from repro.kernels import native as native_module

    with _lock:
        _state = None
    native_module.reset()


@contextmanager
def use_tier(tier: str):
    """Temporarily force a tier (``numpy``/``native``/``auto``) for parity runs."""
    previous = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = tier
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = previous


def kernel_info() -> dict:
    """Tier status for ``stats()["kernels"]`` and the ``repro kernels`` CLI.

    Never raises: a strict-mode (``REPRO_KERNEL=native``) build failure is
    reported as ``active: None`` with the error attached, since every kernel
    call in that configuration would raise the same error.
    """
    try:
        requested = requested_tier()
    except ConfigurationError as exc:
        return {"requested": os.environ.get("REPRO_KERNEL"), "active": None, "error": str(exc)}
    try:
        state = _resolve()
    except ConfigurationError as exc:
        return {"requested": requested, "active": None, "error": str(exc)}
    native = state["native"]
    info: dict = {
        "requested": state["requested"],
        "active": state["active"],
        "native": {"available": native is not None},
        "numpy_popcount": (
            "bitwise_count" if hasattr(np, "bitwise_count") else "byte_table"
        ),
        "block": {"target_bytes": numpy_tier.TARGET_BLOCK_BYTES},
    }
    if native is not None:
        info["native"].update(native.info)
    elif state["error"]:
        info["native"]["error"] = state["error"]
    return info


def _require(kernel: str, name: str, array, dtype, ndim: int) -> None:
    """Raise :class:`ConfigurationError` unless ``array`` is a C-contiguous
    ``ndim``-d ``dtype`` ndarray: the shape of memory the native tier reads
    through a raw pointer."""
    if not (
        isinstance(array, np.ndarray)
        and array.dtype == dtype
        and array.ndim == ndim
        and array.flags.c_contiguous
    ):
        raise ConfigurationError(
            f"{kernel} needs a contiguous {ndim}-d {np.dtype(dtype)} {name} array"
        )


def _index_array(kernel: str, name: str, values, limit: int) -> np.ndarray:
    """``values`` as a contiguous ``int64`` array, checked to lie in ``[0, limit)``."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise ConfigurationError(
            f"{kernel} needs integer {name}, got dtype {values.dtype}"
        )
    values = np.ascontiguousarray(values, dtype=np.int64)
    # One pass: a negative ordinal is a huge unsigned one.
    if values.size and int(values.view(np.uint64).max()) >= limit:
        raise IndexError(f"{name} outside [0, {limit}) in {kernel}")
    return values


def pair_counts(
    rows: np.ndarray, index_a: np.ndarray, index_b: np.ndarray
) -> np.ndarray:
    """Dispatch blocked pair scoring to the active tier.

    ``rows`` is the ``(n_users, row_bytes)`` bit-packed uint8 matrix; pairs
    are ``(index_a[t], index_b[t])`` row ordinals.  Word-aligned rows go to
    the active tier; odd byte widths always use the NumPy byte-lane path
    (bit-identical, just slower) since the native kernel reads uint64 lanes.
    ``rows`` must be a contiguous ``uint8`` matrix and the ordinals integers
    in range; both are checked before any pointer reaches native code.
    """
    _require("pair_counts", "rows", rows, np.uint8, 2)
    index_a = _index_array("pair_counts", "index_a", index_a, rows.shape[0])
    index_b = _index_array("pair_counts", "index_b", index_b, rows.shape[0])
    if index_a.shape != index_b.shape or index_a.ndim != 1:
        raise ConfigurationError(
            f"pair_counts needs matching 1-d index arrays, got {index_a.shape} "
            f"and {index_b.shape}"
        )
    state = _resolve()
    registry = get_registry()
    started = time.perf_counter() if registry.enabled else 0.0
    native = state["native"]
    if native is not None and rows.shape[1] % 8 == 0:
        tier = "native"
        counts = native.pair_counts(rows.view(np.uint64), index_a, index_b)
    else:
        tier = "numpy"
        counts = numpy_tier.pair_counts(rows, index_a, index_b)
    if registry.enabled:
        elapsed = time.perf_counter() - started
        registry.inc(f"kernels.{tier}.pair_calls", 1, unit="calls")
        registry.inc(f"kernels.{tier}.pairs_scored", int(index_a.shape[0]), unit="pairs")
        registry.observe(f"kernels.{tier}.pair_seconds", elapsed)
    return counts


def hash_keys(
    keys,
    coeff_a: np.ndarray,
    coeff_b: np.ndarray,
    members: np.ndarray | None,
    range_size: int,
) -> np.ndarray:
    """Dispatch seeded hashing of an integer-key array to the active tier.

    Returns ``((coeff_a[m] * fingerprint64(k) + coeff_b[m]) mod (2^61 - 1))
    mod range_size`` per key as ``int64``, with ``m = members[i]`` (``0``
    when ``members`` is ``None``): the ingest path's item hash, position
    hashes and shard router.  Keys of any integer dtype and shape are
    converted; the coefficients must be contiguous 1-d ``uint64`` arrays.
    Shapes, dtypes and member indices are checked here, before any pointer
    reaches native code.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind not in "iu":
        raise ConfigurationError(
            f"hash_keys needs an integer key array, got dtype {keys.dtype}"
        )
    _require("hash_keys", "coeff_a", coeff_a, np.uint64, 1)
    _require("hash_keys", "coeff_b", coeff_b, np.uint64, 1)
    if coeff_a.shape != coeff_b.shape or not coeff_a.size:
        raise ConfigurationError("hash_keys needs matching 1-d coefficient arrays")
    # A zero range would be a native division by zero.
    if not (isinstance(range_size, (int, np.integer)) and 0 < range_size < 2**64):
        raise ConfigurationError(
            f"hash_keys range must be an integer in [1, 2^64), got {range_size!r}"
        )
    if members is not None:
        members = _index_array("hash_keys", "member index", members, coeff_a.shape[0])
        if members.shape != keys.shape:
            raise ConfigurationError(
                f"{members.shape} member indices for {keys.shape} keys"
            )
    native = _resolve()["native"]
    if native is None:
        return numpy_tier.hash_keys(keys, coeff_a, coeff_b, members, range_size)
    hashed = native.hash_keys(
        np.ascontiguousarray(keys.ravel()).astype(np.uint64, copy=False),
        coeff_a,
        coeff_b,
        None if members is None else members.ravel(),
        range_size,
    )
    return hashed.reshape(keys.shape)


def band_signatures(
    words: np.ndarray,
    bands: int,
    rows_per_band: int,
    coeff_a: np.ndarray,
    coeff_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch the LSH band fold to the active tier.

    ``words`` is the ``(n_users, row_words)`` uint64 view of packed rows;
    ``coeff_a``/``coeff_b`` carry ``bands + 1`` Carter-Wegman coefficients
    (last pair = the residual whole-row hash), all contiguous ``uint64``.
    Returns ``(signatures, set_bits)`` as documented on
    :func:`repro.kernels.numpy_tier.band_signatures`.
    """
    _require("band_signatures", "words", words, np.uint64, 2)
    _require("band_signatures", "coeff_a", coeff_a, np.uint64, 1)
    _require("band_signatures", "coeff_b", coeff_b, np.uint64, 1)
    if bands < 1 or rows_per_band < 1 or bands * rows_per_band > words.shape[1]:
        raise ConfigurationError(
            f"band geometry {bands}x{rows_per_band} exceeds row width "
            f"{words.shape[1]} words"
        )
    if coeff_a.shape[0] != bands + 1 or coeff_b.shape[0] != bands + 1:
        raise ConfigurationError(
            f"expected {bands + 1} coefficient pairs, got "
            f"{coeff_a.shape[0]}/{coeff_b.shape[0]}"
        )
    state = _resolve()
    registry = get_registry()
    started = time.perf_counter() if registry.enabled else 0.0
    native = state["native"]
    if native is not None:
        tier = "native"
        signatures, set_bits = native.band_signatures(
            words, bands, rows_per_band, coeff_a, coeff_b
        )
    else:
        tier = "numpy"
        signatures, set_bits = numpy_tier.band_signatures(
            words, bands, rows_per_band, coeff_a, coeff_b
        )
    if registry.enabled:
        elapsed = time.perf_counter() - started
        registry.inc(f"kernels.{tier}.band_calls", 1, unit="calls")
        registry.inc(f"kernels.{tier}.band_rows", int(words.shape[0]), unit="rows")
        registry.observe(f"kernels.{tier}.band_seconds", elapsed)
    return signatures, set_bits


def packed_row_bytes(sketch_size: int) -> int:
    """Bytes per bit-packed sketch row, padded to whole 64-bit words.

    The padding lets :func:`pair_counts` xor and popcount rows as ``uint64``
    lanes (8x fewer elementwise operations than per byte); pad bits are zero
    in every row, so they never affect a count.
    """
    return ((sketch_size + 63) // 64) * 8


def _check_family(kernel: str, coeff_a, coeff_b, num_bits, qinv, qlimit) -> None:
    """Check a position family's parameters before they reach native code."""
    for name, array in (
        ("coeff_a", coeff_a), ("coeff_b", coeff_b), ("qinv", qinv), ("qlimit", qlimit)
    ):
        _require(kernel, name, array, np.uint64, 1)
    if coeff_a.shape[0] < 2 or coeff_b.shape[0] < 2:
        raise ConfigurationError(f"{kernel} needs two coefficient pairs")
    if max(int(coeff_a[:2].max()), int(coeff_b[:2].max())) >= _MERSENNE_P:
        raise ConfigurationError(f"{kernel} coefficients must be below 2^61 - 1")
    if qinv.shape != qlimit.shape:
        raise ConfigurationError(f"{kernel} needs one divisibility limit per prime")
    _check_range(kernel, num_bits)


def _check_range(kernel: str, num_bits) -> None:
    if not (isinstance(num_bits, (int, np.integer)) and 0 < num_bits < _MERSENNE_P):
        raise ConfigurationError(
            f"{kernel} needs an integer range in [1, 2^61 - 1), got {num_bits!r}"
        )


def _tier():
    """``(name, module)`` of the active tier's kernels."""
    native = _resolve()["native"]
    return ("numpy", numpy_tier) if native is None else ("native", native)


def offsets(
    fingerprints: np.ndarray,
    coeff_a: np.ndarray,
    coeff_b: np.ndarray,
    num_bits: int,
    qinv: np.ndarray,
    qlimit: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dispatch the position family's per-user derivation to the active tier.

    Returns ``(h1, h2, inverse)`` as ``int64``: each fingerprint's offset in
    ``[0, num_bits)``, its step (a unit of ``Z_num_bits``: the first unit
    among a seeded candidate sequence, see
    :func:`repro.kernels.numpy_tier.offsets`) and the step's inverse modulo
    ``num_bits``.  ``qinv``/``qlimit`` are the multiplicative divisibility
    tests of ``num_bits``'s distinct primes.
    """
    _require("offsets", "fingerprints", fingerprints, np.uint64, 1)
    _check_family("offsets", coeff_a, coeff_b, num_bits, qinv, qlimit)
    name, tier = _tier()
    if name == "native":
        return tier.offsets(fingerprints, coeff_a, coeff_b, num_bits, qinv, qlimit)
    h1, h2 = tier.offsets(fingerprints, coeff_a, coeff_b, num_bits, qinv, qlimit)
    inverse = tier.inverse_mod(h2, num_bits)
    return h1.astype(np.int64), h2.astype(np.int64), inverse.astype(np.int64)


def step_positions(h1: np.ndarray, h2: np.ndarray, members, num_bits: int) -> np.ndarray:
    """Dispatch the ingest position hash to the active tier:
    ``(h1[i] + members[i] * h2[i]) mod num_bits`` as ``int64``, for users'
    :func:`offsets` ``h1``/``h2`` and virtual bits ``members`` (all below
    ``num_bits``)."""
    _check_range("step_positions", num_bits)
    _check_offsets("step_positions", num_bits, h1, h2)
    members = _index_array("step_positions", "members", members, num_bits)
    if members.shape != h1.shape:
        raise ConfigurationError(f"{members.shape} members for {h1.shape} users")
    _, tier = _tier()
    return tier.step_positions(h1, h2, members, num_bits)


def _check_offsets(kernel: str, num_bits, *arrays) -> None:
    for name, array in zip(("h1", "h2"), arrays):
        _require(kernel, name, array, np.int64, 1)
        if array.size and int(array.view(np.uint64).max()) >= num_bits:
            raise IndexError(f"{name} outside [0, {num_bits}) in {kernel}")
    if arrays[0].shape != arrays[1].shape:
        raise ConfigurationError(f"{kernel} needs one h2 per h1")


def recover_rows(
    h1: np.ndarray, h2: np.ndarray, packed_bits: np.ndarray, num_bits: int, k: int
) -> np.ndarray:
    """Dispatch packed virtual-sketch row recovery to the active tier.

    Row ``u``, bit ``j`` (``np.packbits`` order) is bit ``(h1[u] + j * h2[u])
    mod num_bits`` of ``packed_bits`` (the shared array's packed storage);
    rows are :func:`packed_row_bytes` wide with zero pad bits.  ``h1`` and
    ``h2`` are :func:`offsets` (``int64``, below ``num_bits``) and
    ``packed_bits`` must span whole 64-bit words (``8 * ceil(num_bits /
    64)`` bytes, as :attr:`PackedBitArray.storage
    <repro.hashing.bitpack.PackedBitArray.storage>` does).  Every input is
    checked here, before any pointer reaches native code.
    """
    _check_range("recover_rows", num_bits)
    _check_offsets("recover_rows", num_bits, h1, h2)
    _require("recover_rows", "packed_bits", packed_bits, np.uint8, 1)
    if not (isinstance(k, (int, np.integer)) and 0 < k <= num_bits):
        raise ConfigurationError(f"recover_rows needs 0 < k <= num_bits, got k={k}")
    if len(packed_bits) < 8 * ((num_bits + 63) // 64):
        raise IndexError(
            f"{len(packed_bits)} packed bytes are not the whole 64-bit words "
            f"that hold {num_bits} bits"
        )
    tier, recover = _tier()
    registry = get_registry()
    started = time.perf_counter() if registry.enabled else 0.0
    rows = recover.recover_rows(h1, h2, packed_bits, num_bits, k, packed_row_bytes(k))
    if registry.enabled:
        elapsed = time.perf_counter() - started
        registry.inc(f"kernels.{tier}.recover_calls", 1, unit="calls")
        registry.inc(f"kernels.{tier}.recover_rows", rows.shape[0], unit="rows")
        registry.observe(f"kernels.{tier}.recover_seconds", elapsed)
    return rows


def scan_flips(
    h1: np.ndarray, inverse: np.ndarray, flips, num_bits: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch the flipped-bit scan to the active tier.

    ``flips`` are distinct positions whose bits changed; user ``u`` (offset
    ``h1[u]``, inverse step ``inverse[u]``, from :func:`offsets`) holds flip
    ``p`` as its virtual bit ``j = (p - h1[u]) * inverse[u] mod num_bits``
    exactly when ``j < k``.  Returns ``(users, columns)``: every such hit,
    user-major and in ``flips`` order within a user.  The cost is users x
    flips modular products, against users x ``k`` positions for recovering
    the rows.
    """
    _check_range("scan_flips", num_bits)
    _check_offsets("scan_flips", num_bits, h1, inverse)
    flips = _index_array("scan_flips", "flips", flips, num_bits)
    if not (isinstance(k, (int, np.integer)) and 0 < k <= num_bits):
        raise ConfigurationError(f"scan_flips needs 0 < k <= num_bits, got k={k}")
    tier, scan = _tier()
    registry = get_registry()
    started = time.perf_counter() if registry.enabled else 0.0
    users, columns = scan.scan_flips(h1, inverse, flips, num_bits, k)
    if registry.enabled:
        registry.inc(f"kernels.{tier}.scan_calls", 1, unit="calls")
        registry.inc(f"kernels.{tier}.scan_pairs", h1.shape[0] * flips.shape[0], unit="pairs")
        registry.observe(f"kernels.{tier}.scan_seconds", time.perf_counter() - started)
    return users, columns


def xor_positions(
    packed_bits: np.ndarray, positions, num_bits: int
) -> tuple[int, int, np.ndarray]:
    """Dispatch the ingest xor to the active tier: flip bit ``positions[i]``
    of ``packed_bits`` for every ``i``, in place.

    ``packed_bits`` is a writable packed array of ``num_bits`` bits
    (:attr:`PackedBitArray.storage
    <repro.hashing.bitpack.PackedBitArray.storage>`: ``np.packbits`` order,
    whole 64-bit words).  A position listed an even number of times ends
    unchanged.  Returns ``(flipped, ones_change, words)``: the bits that
    changed, the popcount change and the indices of the 64-bit words whose
    value changed (the native tier lists each once; the NumPy tier repeats a
    word once per changed bit in it).  When every toggle cancels, ``words``
    is empty.  Positions outside ``[0, num_bits)`` raise :class:`IndexError`
    before any bit changes.
    """
    _require("xor_positions", "packed_bits", packed_bits, np.uint8, 1)
    if not packed_bits.flags.writeable:
        raise ConfigurationError("xor_positions needs a writable packed_bits array")
    if not (isinstance(num_bits, (int, np.integer)) and num_bits > 0):
        raise ConfigurationError(f"num_bits must be a positive integer, got {num_bits}")
    if len(packed_bits) < 8 * ((num_bits + 63) // 64):
        raise IndexError(
            f"{len(packed_bits)} packed bytes are not the whole 64-bit words "
            f"that hold {num_bits} bits"
        )
    positions = _index_array("xor_positions", "positions", positions, num_bits)
    if positions.ndim != 1:
        raise ConfigurationError(
            f"xor_positions needs a 1-d positions array, got shape {positions.shape}"
        )
    native = _resolve()["native"]
    return (numpy_tier if native is None else native).xor_positions(packed_bits, positions)
