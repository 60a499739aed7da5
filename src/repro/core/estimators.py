"""Closed-form VOS estimators and their analytical moments (Section IV).

Given a user pair ``(u, v)`` the sketch exposes three observed quantities:

* ``alpha`` — the fraction of set bits in the xor of the two recovered virtual
  odd sketches ``Ô_u`` and ``Ô_v``;
* ``beta`` — the global fill fraction of the shared array ``A``;
* ``n_u``, ``n_v`` — the exact per-user cardinalities.

The paper derives

    E[alpha] ≈ (1 - (1 - 2 beta)^2 * exp(-2 n_Δ / k)) / 2

which inverts to the symmetric-difference estimate

    n̂_Δ = -k * (ln(1 - 2 alpha) - 2 ln(1 - 2 beta)) / 2

and, using ``s_uv = (n_u + n_v - n_Δ) / 2``, to

    ŝ_uv = (n_u + n_v) / 2 + k * (ln|1 - 2 alpha| - 2 ln|1 - 2 beta|) / 4
    Ĵ    = ŝ_uv / (n_u + n_v - ŝ_uv).

The module also provides the analytical expectation and variance of ``ŝ_uv``
stated in the paper, used by the analysis subpackage and its tests.

Every estimator exists in two forms: the scalar functions below and indexed
array counterparts (``estimate_jaccard_arrays`` etc.) that evaluate a whole
batch of pairs at once.  The indexed forms take what one gather of the
pairs' users yields: an integer xor count per pair, a fill fraction and a
cardinality per user, and the two pair index arrays into the per-user
columns.  They are **bit-identical** to looping the scalar ``*_cross`` forms
over ``count / k``: the only transcendental step, ``ln|1 - 2x|``, runs the
very same scalar code once per xor count present (``alpha`` can take only
the ``k + 1`` values ``count / k``) and once per distinct fill fraction (one
per shard), and is scattered back by indexing.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError, EstimationError


def _validate_inputs(sketch_size: int, beta: float) -> None:
    if sketch_size <= 0:
        raise ConfigurationError(f"sketch_size must be positive, got {sketch_size}")
    if not 0.0 <= beta <= 1.0:
        raise ConfigurationError(f"beta must be in [0, 1], got {beta}")


def _safe_log_one_minus_two(value: float, *, floor: float, strict: bool) -> float:
    """Compute ``ln|1 - 2*value|`` with saturation handling.

    When ``value`` reaches 0.5 the argument hits zero and the estimator
    diverges; strict mode raises :class:`EstimationError`, the default clamps
    ``value`` to just below saturation which corresponds to "as large a
    difference as the sketch can represent".
    """
    argument = abs(1.0 - 2.0 * value)
    if argument <= floor:
        if strict:
            raise EstimationError(
                f"sketch saturated (|1 - 2x| <= {floor}); cannot invert"
            )
        argument = floor
    return math.log(argument)


def estimate_symmetric_difference(
    alpha: float,
    beta: float,
    sketch_size: int,
    *,
    strict: bool = False,
) -> float:
    """Estimate ``n_Δ = |S_u Δ S_v|`` from the observed ``alpha`` and ``beta``.

    Parameters
    ----------
    alpha:
        Fraction of set bits in the xor of the two recovered virtual sketches.
    beta:
        Fill fraction of the shared array at query time.
    sketch_size:
        Virtual sketch length ``k``.
    strict:
        If ``True``, raise :class:`EstimationError` when the sketch is
        saturated instead of clamping.

    Returns
    -------
    float
        The (non-negative) symmetric-difference estimate ``n̂_Δ``.
    """
    return estimate_symmetric_difference_cross(
        alpha, beta, beta, sketch_size, strict=strict
    )


def estimate_symmetric_difference_cross(
    alpha: float,
    beta_a: float,
    beta_b: float,
    sketch_size: int,
    *,
    strict: bool = False,
) -> float:
    """Two-array generalization of :func:`estimate_symmetric_difference`.

    When the two users' virtual sketches are recovered from *different* shared
    arrays (sharded VOS), the contamination of ``Ô_u`` is governed by the fill
    fraction ``beta_a`` of the first array and that of ``Ô_v`` by ``beta_b`` of
    the second.  Each independent contamination contributes one ``(1 - 2 beta)``
    attenuation factor, so the model becomes

        E[alpha] ≈ (1 - (1 - 2 beta_a)(1 - 2 beta_b) exp(-2 n_Δ / k)) / 2

    which inverts to

        n̂_Δ = -k (ln|1 - 2 alpha| - ln|1 - 2 beta_a| - ln|1 - 2 beta_b|) / 2.

    With ``beta_a == beta_b`` this reduces exactly (including floating-point
    behaviour) to the paper's single-array estimator.
    """
    _validate_inputs(sketch_size, beta_a)
    if not 0.0 <= beta_b <= 1.0:
        raise ConfigurationError(f"beta must be in [0, 1], got {beta_b}")
    if not 0.0 <= alpha <= 1.0:
        raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
    floor = 1.0 / (2.0 * sketch_size)
    log_alpha_term = _safe_log_one_minus_two(alpha, floor=floor, strict=strict)
    log_beta_terms = _safe_log_one_minus_two(
        beta_a, floor=floor, strict=strict
    ) + _safe_log_one_minus_two(beta_b, floor=floor, strict=strict)
    estimate = -sketch_size * (log_alpha_term - log_beta_terms) / 2.0
    return max(0.0, estimate)


def estimate_common_items(
    alpha: float,
    beta: float,
    sketch_size: int,
    cardinality_a: int,
    cardinality_b: int,
    *,
    strict: bool = False,
    clamp: bool = True,
) -> float:
    """Estimate ``s_uv`` (the paper's ``ŝ_uv`` formula).

    The raw formula is ``(n_u + n_v)/2 + k (ln|1-2α| - 2 ln|1-2β|)/4``.  With
    ``clamp=True`` (default) the result is clipped into the feasible range
    ``[max(0, n_u + n_v - n_u - n_v), min(n_u, n_v)]`` — i.e. ``[0, min(n_u, n_v)]`` —
    which never hurts accuracy and avoids nonsensical negative estimates when
    the sketch is noisy.
    """
    return estimate_common_items_cross(
        alpha,
        beta,
        beta,
        sketch_size,
        cardinality_a,
        cardinality_b,
        strict=strict,
        clamp=clamp,
    )


def estimate_common_items_cross(
    alpha: float,
    beta_a: float,
    beta_b: float,
    sketch_size: int,
    cardinality_a: int,
    cardinality_b: int,
    *,
    strict: bool = False,
    clamp: bool = True,
) -> float:
    """Two-array generalization of :func:`estimate_common_items` (sharded VOS)."""
    if cardinality_a < 0 or cardinality_b < 0:
        raise ConfigurationError("cardinalities must be non-negative")
    n_delta = estimate_symmetric_difference_cross(
        alpha, beta_a, beta_b, sketch_size, strict=strict
    )
    estimate = (cardinality_a + cardinality_b - n_delta) / 2.0
    if clamp:
        estimate = min(float(min(cardinality_a, cardinality_b)), max(0.0, estimate))
    return estimate


def estimate_jaccard(
    alpha: float,
    beta: float,
    sketch_size: int,
    cardinality_a: int,
    cardinality_b: int,
    *,
    strict: bool = False,
) -> float:
    """Estimate the Jaccard coefficient ``Ĵ = ŝ / (n_u + n_v - ŝ)``, clamped to [0, 1]."""
    return estimate_jaccard_cross(
        alpha, beta, beta, sketch_size, cardinality_a, cardinality_b, strict=strict
    )


def estimate_jaccard_cross(
    alpha: float,
    beta_a: float,
    beta_b: float,
    sketch_size: int,
    cardinality_a: int,
    cardinality_b: int,
    *,
    strict: bool = False,
) -> float:
    """Two-array generalization of :func:`estimate_jaccard` (sharded VOS)."""
    common = estimate_common_items_cross(
        alpha,
        beta_a,
        beta_b,
        sketch_size,
        cardinality_a,
        cardinality_b,
        strict=strict,
        clamp=True,
    )
    union = cardinality_a + cardinality_b - common
    if union <= 0:
        return 1.0 if cardinality_a == 0 and cardinality_b == 0 else 0.0
    return min(1.0, max(0.0, common / union))


# -- indexed estimators (the bulk query path) ----------------------------------------
#
# ``repro.core.vos.VectorizedPairQueries`` scores whole blocks of pairs in the
# indexed form its one routed gather produces: an integer xor count per pair
# in ``[0, k]``, each *user's* fill fraction and cardinality, and the two pair
# index arrays into those per-user columns.  ``ln|1 - 2x|`` is evaluated with
# the scalar helper once per count present and once per distinct fill
# fraction, then scattered, so element ``t`` of every result equals the
# scalar ``estimate_*_cross(counts[t] / k, betas[index_a[t]],
# betas[index_b[t]], k, ...)`` bitwise.


def _validate_betas(betas) -> np.ndarray:
    arr = np.asarray(betas, dtype=np.float64)
    # The comparisons are phrased positively so NaN fails them too, matching
    # the scalar validators (`not 0.0 <= value <= 1.0` rejects NaN).
    if arr.size and not bool(((arr >= 0.0) & (arr <= 1.0)).all()):
        raise ConfigurationError("beta must be in [0, 1]")
    return arr


def _validate_cardinalities(cardinalities) -> np.ndarray:
    cards = np.asarray(cardinalities, dtype=np.int64)
    if cards.size and int(cards.min()) < 0:
        raise ConfigurationError("cardinalities must be non-negative")
    return cards


def _indexed_log_terms(
    counts, betas, sketch_size: int, index_a, index_b, strict: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Per pair, ``ln|1 - 2 alpha|`` and ``ln|1 - 2 beta_a| + ln|1 - 2 beta_b|``."""
    if sketch_size <= 0:
        raise ConfigurationError(f"sketch_size must be positive, got {sketch_size}")
    counts = np.asarray(counts)
    if counts.dtype.kind not in "iu":
        raise ConfigurationError(f"xor counts must be integers, got {counts.dtype}")
    counts = counts.astype(np.int64, copy=False)
    if counts.size and (int(counts.min()) < 0 or int(counts.max()) > sketch_size):
        raise ConfigurationError(f"xor counts must be in [0, {sketch_size}]")
    betas = _validate_betas(betas)
    floor = 1.0 / (2.0 * sketch_size)
    log_alphas = np.zeros(sketch_size + 1, dtype=np.float64)
    present = np.bincount(counts, minlength=sketch_size + 1).nonzero()[0]
    for count in present.tolist():
        log_alphas[count] = _safe_log_one_minus_two(
            count / sketch_size, floor=floor, strict=strict
        )
    distinct, inverse = np.unique(betas, return_inverse=True)
    log_betas = np.empty(distinct.shape[0], dtype=np.float64)
    saturated = None
    for position, beta in enumerate(distinct.tolist()):
        try:
            log_betas[position] = _safe_log_one_minus_two(beta, floor=floor, strict=strict)
        except EstimationError as error:
            # Strict mode fails like the scalar loop: only if a pair reads it.
            saturated, log_betas[position] = error, math.nan
    log_betas = log_betas[inverse]
    log_beta_terms = log_betas[index_a] + log_betas[index_b]
    if saturated is not None and np.isnan(log_beta_terms).any():
        raise saturated
    return log_alphas[counts], log_beta_terms


def estimate_symmetric_difference_arrays(
    counts,
    betas,
    sketch_size: int,
    index_a,
    index_b,
    *,
    strict: bool = False,
) -> np.ndarray:
    """Indexed form of :func:`estimate_symmetric_difference_cross`.

    ``counts[t]`` is the xor popcount of pair ``t``, whose users sit at
    positions ``index_a[t]`` and ``index_b[t]`` of the per-user fill-fraction
    column ``betas``.  Element ``t`` of the result equals
    ``estimate_symmetric_difference_cross(counts[t] / sketch_size,
    betas[index_a[t]], betas[index_b[t]], sketch_size)`` bitwise.
    """
    log_alpha_terms, log_beta_terms = _indexed_log_terms(
        counts, betas, sketch_size, index_a, index_b, strict
    )
    estimates = -float(sketch_size) * (log_alpha_terms - log_beta_terms) / 2.0
    return np.maximum(0.0, estimates)


def estimate_common_items_arrays(
    counts,
    betas,
    sketch_size: int,
    cardinalities,
    index_a,
    index_b,
    *,
    strict: bool = False,
    clamp: bool = True,
) -> np.ndarray:
    """Indexed form of :func:`estimate_common_items_cross` (bit-exact per pair);
    ``cardinalities`` is per user, like ``betas``."""
    cards = _validate_cardinalities(cardinalities)
    n_delta = estimate_symmetric_difference_arrays(
        counts, betas, sketch_size, index_a, index_b, strict=strict
    )
    ca, cb = cards[index_a], cards[index_b]
    estimates = (ca + cb - n_delta) / 2.0
    if clamp:
        estimates = np.minimum(
            np.minimum(ca, cb).astype(np.float64), np.maximum(0.0, estimates)
        )
    return estimates


def jaccard_from_common_arrays(commons, cardinalities, index_a, index_b) -> np.ndarray:
    """Indexed form of the ``J = s / (n_u + n_v - s)`` conversion, clamped to [0, 1].

    ``commons`` must already be clamped into the feasible range (as
    :func:`estimate_common_items_arrays` returns it).  Splitting this step out
    lets a caller that needs *both* estimates derive the Jaccard array from
    the common-item array it already holds instead of re-running the whole
    inversion pipeline.
    """
    cards = _validate_cardinalities(cardinalities)
    ca, cb = cards[index_a], cards[index_b]
    unions = ca + cb - commons
    with np.errstate(divide="ignore", invalid="ignore"):
        jaccards = np.minimum(1.0, np.maximum(0.0, commons / unions))
    degenerate = unions <= 0
    if np.any(degenerate):
        both_empty = (ca == 0) & (cb == 0)
        jaccards = np.where(
            degenerate, np.where(both_empty, 1.0, 0.0), jaccards
        )
    return jaccards


def estimate_jaccard_arrays(
    counts,
    betas,
    sketch_size: int,
    cardinalities,
    index_a,
    index_b,
    *,
    strict: bool = False,
) -> np.ndarray:
    """Indexed form of :func:`estimate_jaccard_cross` (bit-exact per pair)."""
    commons = estimate_common_items_arrays(
        counts, betas, sketch_size, cardinalities, index_a, index_b, strict=strict
    )
    return jaccard_from_common_arrays(commons, cardinalities, index_a, index_b)


def estimator_expectation(
    true_symmetric_difference: float, beta: float, sketch_size: int
) -> float:
    """Analytical ``E[ŝ_uv] - s_uv`` offset plus ``s_uv`` (Section IV of the paper).

    Returns the expected value of the estimator given the true symmetric
    difference ``n_Δ``, the fill fraction ``beta`` and the sketch size ``k``:

        E[ŝ] ≈ s + 1/8 - k β e^{2 n_Δ / k} / (1 - 2β)^2 - e^{4 n_Δ / k} / (8 (1 - 2β)^4)

    The caller supplies ``n_Δ`` and can add the true ``s`` separately; for
    convenience this function returns only the *bias* term (everything except
    ``s``), so ``E[ŝ] = s + estimator_expectation_bias``.
    """
    _validate_inputs(sketch_size, beta)
    if beta >= 0.5:
        raise EstimationError("expectation formula diverges for beta >= 0.5")
    one_minus = 1.0 - 2.0 * beta
    exp2 = math.exp(2.0 * true_symmetric_difference / sketch_size)
    exp4 = math.exp(4.0 * true_symmetric_difference / sketch_size)
    return (
        1.0 / 8.0
        - sketch_size * beta * exp2 / (one_minus**2)
        - exp4 / (8.0 * one_minus**4)
    )


def estimator_variance(
    true_symmetric_difference: float, beta: float, sketch_size: int
) -> float:
    """Analytical variance of ``ŝ_uv`` (Section IV of the paper).

        Var[ŝ] ≈ -k/16 + k² β e^{2 n_Δ/k} / (2 (1-2β)²) + k e^{4 n_Δ/k} / (16 (1-2β)^4)
    """
    _validate_inputs(sketch_size, beta)
    if beta >= 0.5:
        raise EstimationError("variance formula diverges for beta >= 0.5")
    one_minus = 1.0 - 2.0 * beta
    exp2 = math.exp(2.0 * true_symmetric_difference / sketch_size)
    exp4 = math.exp(4.0 * true_symmetric_difference / sketch_size)
    k = float(sketch_size)
    return (
        -k / 16.0
        + k * k * beta * exp2 / (2.0 * one_minus**2)
        + k * exp4 / (16.0 * one_minus**4)
    )
