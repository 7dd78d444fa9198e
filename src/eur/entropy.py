"""Classical and quantum entropies, all in bits (base-2 logarithms)."""

from __future__ import annotations

import math

import numpy as np

from .core import (
    BipartiteState,
    DensityMatrix,
    MeasurementBasis,
    _check_same_dim,
    _partial_trace_matrix,
    bipartite_measurement_channel,
)

INFINITY = math.inf

LOG_CUTOFF = 1e-15   # entries below this contribute 0 to p*log(p) sums
SUPPORT_TOL = 1e-12  # eigenvalue threshold defining the support of a state
PROB_SUM_TOL = 1e-9
PROB_NEG_TOL = 1e-9


def _clean_probs(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"probability vector must be non-empty and 1-D, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("probability vector contains non-finite entries")
    if p.min() < -PROB_NEG_TOL:
        raise ValueError(f"probability vector has negative entry {p.min():.3e}")
    p = p.clip(0.0)
    total = p.sum()
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probability vector sums to {total!r}, not 1")
    return p.clip(max=1.0)


def _entropy_rows(p: np.ndarray, alphas) -> np.ndarray:
    """Renyi entropy of each row of the (..., R, d) stack ``p``, row r of order ``alphas[r]``.

    With a single order, ``p`` may be any (..., d) stack of rows.  No
    validation: rows must be probability vectors and orders positive.
    Entries at or below ``LOG_CUTOFF`` contribute 0 to the Shannon sum, so a
    row of length d <= 7 gives the same bits as summing only its kept entries.
    No entropy is below +0.0.
    """
    distinct = set(alphas)
    if len(distinct) == 1:
        return _entropy_rows_of_order(p, distinct.pop())
    alphas = np.asarray(alphas, dtype=float)
    out = np.empty(p.shape[:-1])
    for alpha in distinct:
        rows = alphas == alpha
        out[..., rows] = _entropy_rows_of_order(p[..., rows, :], alpha)
    return out


def _entropy_rows_of_order(p: np.ndarray, alpha: float) -> np.ndarray:
    # an entropy is >= 0: each max(., 0) lifts a certain outcome's rounding negatives and -0.0 to +0.0
    if alpha == 1.0:
        q = np.where(p > LOG_CUTOFF, p, 1.0)  # 1 * log2(1) = 0 for the cut entries
        return np.maximum(-np.add.reduce(q * np.log2(q), axis=-1), 0.0)
    if math.isinf(alpha):
        return np.maximum(-np.log2(np.maximum.reduce(p, axis=-1)), 0.0)
    # log sum p^alpha; a power sum below the smallest normal float has underflowed or lost digits,
    # so there it is alpha log m + log sum (p/m)^alpha, m = max p
    power_sum = np.add.reduce(np.power(p, alpha), axis=-1)
    tiny = power_sum < np.finfo(float).tiny
    log_sum = np.log(np.where(tiny, 1.0, power_sum))
    if tiny.any():
        m = np.maximum.reduce(p, axis=-1, keepdims=True)
        scaled = alpha * np.log(m[..., 0]) + np.log(np.add.reduce(np.power(p / m, alpha), axis=-1))
        log_sum = np.where(tiny, scaled, log_sum)
    return np.maximum(log_sum / ((1.0 - alpha) * math.log(2.0)), 0.0)


def shannon_entropy(p) -> float:
    """H(p) = -sum p_i log2 p_i with the 0*log(0) = 0 convention."""
    return renyi_entropy(p, 1.0)


def renyi_entropy(p, alpha: float) -> float:
    """Renyi entropy of order ``alpha``.

    ``alpha`` may be any positive real; ``alpha == 1`` is the Shannon limit and
    ``alpha == math.inf`` the min-entropy -log2(max p).
    """
    p = _clean_probs(p)
    if not (alpha > 0.0):
        raise ValueError(f"Renyi order must be positive, got {alpha!r}")
    return float(_entropy_rows(p[None, :], (alpha,))[0])


def _memory_entropies(joints: np.ndarray, dim_a: int, dim_b: int, bras: np.ndarray | None = None):
    """S(A|B) of every joint matrix in the (..., dA dB, dA dB) stack, and with the (N dA, dA)
    stacked bras of N bases on A also H(M|B) per basis (one more axis).  No validation.

    S(A|B) = S(AB) - S(B) and H(M|B) = S(MB) - S(B).  Measuring A leaves a
    block-diagonal state with blocks <u_i|rho|u_i>, so S(MB) is the entropy of
    the blocks' joint spectrum.  With the joint's rows indexed (a, b) and its
    columns (c, d), a and c on A, block i is sum_ac <u_i|a> rho[ab, cd] <c|u_i>:
    one ``tensordot`` of the joints with the (N dA, dA, dA) stack of those
    weights, whose only temporary is the joints with a and c moved last.
    """
    s_b = _entropy_rows(np.linalg.eigvalsh(_partial_trace_matrix(joints, dim_a, dim_b, "B")), (1.0,))
    s_a_given_b = _entropy_rows(np.linalg.eigvalsh(joints), (1.0,)) - s_b
    if bras is None:
        return s_a_given_b
    r = joints.reshape(joints.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    w = bras[:, :, None] * bras.conj()[:, None, :]  # w[i, a, c] = <u_i|a><c|u_i>
    blocks = np.moveaxis(np.tensordot(r, w, axes=([-4, -2], [1, 2])), -1, -3)
    vals = np.linalg.eigvalsh(blocks).reshape(blocks.shape[:-3] + (-1, dim_a * dim_b))
    return s_a_given_b, _entropy_rows(vals, (1.0,)) - s_b[..., None]


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr(rho log2 rho) >= +0.0 from the ``eigvalsh`` spectrum, entries at or below ``LOG_CUTOFF`` as 0."""
    return float(_entropy_rows(np.linalg.eigvalsh(rho.matrix), (1.0,)))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho || sigma) = tr(rho log2 rho) - tr(rho log2 sigma), never below +0.0.

    Returns ``math.inf`` when rho has weight outside the support of sigma
    (sigma eigenvalues at or below ``SUPPORT_TOL`` count as its kernel).
    """
    _check_same_dim(rho.dim, sigma.dim, "relative_entropy")
    p, pv = np.linalg.eigh(rho.matrix)
    q, qv = np.linalg.eigh(sigma.matrix)
    p, q = np.where(p < 0.0, 0.0, p), np.where(q < 0.0, 0.0, q)
    # weight[j] = <s_j|rho|s_j> resolved in sigma's eigenbasis
    weight = (p[:, None] * np.abs(pv.conj().T @ qv) ** 2).sum(axis=0)
    kernel = q <= SUPPORT_TOL
    if np.where(kernel, weight, 0.0).sum() > SUPPORT_TOL:
        return INFINITY
    return float(np.maximum(-_entropy_rows(p, (1.0,)) - (weight * np.log2(np.where(kernel, 1.0, q))).sum(), 0.0))


def conditional_entropy(rho: BipartiteState) -> float:
    """S(A|B) = S(rho_AB) - S(rho_B)."""
    return float(_memory_entropies(rho.matrix, rho.dim_a, rho.dim_b))


def measured_conditional_entropy(basis: MeasurementBasis, rho: BipartiteState) -> float:
    """H(M|B): conditional entropy after dephasing subsystem A in ``basis``."""
    return conditional_entropy(bipartite_measurement_channel(basis, rho))


def holevo_conditional_entropy(basis: MeasurementBasis, rho: BipartiteState) -> float:
    """H(M|B) in accessible-information form, H(M) + sum_j p_j S(rho_B|j) - S(rho_B).

    The first two terms are the entropy of the joint spectrum of the memory
    blocks <u_j|rho|u_j>, which ``_memory_entropies`` takes in one batch.
    Agrees with :func:`measured_conditional_entropy`, which dephases the whole state.
    """
    _check_same_dim(basis.dim, rho.dim_a, "holevo_conditional_entropy")
    return float(_memory_entropies(rho.matrix, rho.dim_a, rho.dim_b, basis.vectors.conj())[1][0])
