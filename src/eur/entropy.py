"""Classical and quantum entropies, all in bits (base-2 logarithms)."""

from __future__ import annotations

import math

import numpy as np

from .core import (
    BipartiteState,
    DensityMatrix,
    MeasurementBasis,
    _partial_trace_matrix,
    bipartite_measurement_channel,
    outcome_distribution,
    partial_trace,
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
    p = np.where(p < 0.0, 0.0, p)
    total = p.sum()
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probability vector sums to {total!r}, not 1")
    return p


def _entropy_rows(p: np.ndarray, alphas) -> np.ndarray:
    """Renyi entropy of each row of the (R, d) array ``p``, row r of order ``alphas[r]``.

    No validation: rows must be probability vectors and orders positive.
    Entries at or below ``LOG_CUTOFF`` contribute 0 to the Shannon sum, so a
    row of length d <= 7 gives the same bits as summing only its kept entries.
    """
    distinct = set(alphas)
    if len(distinct) == 1:
        return _entropy_rows_of_order(p, distinct.pop())
    alphas = np.asarray(alphas, dtype=float)
    out = np.empty(p.shape[0])
    for alpha in distinct:
        rows = alphas == alpha
        out[rows] = _entropy_rows_of_order(p[rows], alpha)
    return out


def _entropy_rows_of_order(p: np.ndarray, alpha: float) -> np.ndarray:
    if alpha == 1.0:
        q = np.where(p > LOG_CUTOFF, p, 1.0)  # 1 * log2(1) = 0 for the cut entries
        return -(q * np.log2(q)).sum(axis=-1)
    if math.isinf(alpha):
        return -np.log2(p.max(axis=-1))
    # log2(sum p^alpha) computed as log1p(sum (p^alpha - p)) to stay accurate
    # when alpha is close to 1 and the power sum is close to 1.
    delta = (np.power(p, alpha) - p).sum(axis=-1)
    return np.log1p(delta) / ((1.0 - alpha) * math.log(2.0))


def _plogp_sum(p: np.ndarray) -> float:
    return float(_entropy_rows(p[None, :], (1.0,))[0])


def shannon_entropy(p) -> float:
    """H(p) = -sum p_i log2 p_i with the 0*log(0) = 0 convention."""
    return _plogp_sum(_clean_probs(p))


def renyi_entropy(p, alpha: float) -> float:
    """Renyi entropy of order ``alpha``.

    ``alpha`` may be any positive real; ``alpha == 1`` is the Shannon limit and
    ``alpha == math.inf`` the min-entropy -log2(max p).
    """
    p = _clean_probs(p)
    if not (alpha > 0.0):
        raise ValueError(f"Renyi order must be positive, got {alpha!r}")
    return float(_entropy_rows(p[None, :], (alpha,))[0])


def _spectrum_entropy(vals: np.ndarray) -> float:
    vals = np.where(vals < 0.0, 0.0, vals)
    return _plogp_sum(vals)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr(rho log2 rho) from the clamped eigenvalue spectrum."""
    return _spectrum_entropy(np.linalg.eigvalsh(rho.matrix))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho || sigma) = tr(rho log2 rho) - tr(rho log2 sigma).

    Returns ``math.inf`` when rho has weight outside the support of sigma
    (sigma eigenvalues at or below ``SUPPORT_TOL`` count as its kernel).
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch in relative_entropy: {rho.dim} vs {sigma.dim}")
    p, pv = np.linalg.eigh(rho.matrix)
    q, qv = np.linalg.eigh(sigma.matrix)
    p = np.where(p < 0.0, 0.0, p)
    q = np.where(q < 0.0, 0.0, q)
    # weight[j] = <s_j|rho|s_j> resolved in sigma's eigenbasis
    cross = np.abs(pv.conj().T @ qv) ** 2
    weight = p @ cross
    kernel = q <= SUPPORT_TOL
    if weight[kernel].sum() > SUPPORT_TOL:
        return INFINITY
    live = ~kernel
    tr_rho_log_sigma = float((weight[live] * np.log2(q[live])).sum())
    return -_spectrum_entropy(p) - tr_rho_log_sigma


def conditional_entropy(rho: BipartiteState) -> float:
    """S(A|B) = S(rho_AB) - S(rho_B)."""
    return von_neumann_entropy(rho.joint) - von_neumann_entropy(partial_trace(rho, "B"))


def measured_conditional_entropy(basis: MeasurementBasis, rho: BipartiteState) -> float:
    """H(M|B): conditional entropy after dephasing subsystem A in ``basis``."""
    return conditional_entropy(bipartite_measurement_channel(basis, rho))


def holevo_conditional_entropy(basis: MeasurementBasis, rho: BipartiteState) -> float:
    """H(M|B) in accessible-information form: H(M) - [S(rho_B) - sum_j p_j S(rho_B|j)].

    Agrees with :func:`measured_conditional_entropy`; outcomes with
    probability below 1e-14 are skipped.
    """
    if basis.dim != rho.dim_a:
        raise ValueError(f"dimension mismatch in holevo_conditional_entropy: {basis.dim} vs {rho.dim_a}")
    da, db = rho.dim_a, rho.dim_b
    r = rho.matrix.reshape(da, db, da, db)
    v = basis.vectors
    # conditional (unnormalized) memory states <u_j|rho|u_j> on B
    blocks = np.einsum("ja,abcd,jc->jbd", v.conj(), r, v)
    probs = np.einsum("jbb->j", blocks).real
    probs = np.where(probs < 0.0, 0.0, probs)
    s_b = _spectrum_entropy(np.linalg.eigvalsh(_partial_trace_matrix(rho.matrix, da, db, "B")))
    avg_cond = 0.0
    for j in range(da):
        if probs[j] < 1e-14:
            continue
        vals = np.linalg.eigvalsh(0.5 * (blocks[j] + blocks[j].conj().T)) / probs[j]
        avg_cond += probs[j] * _spectrum_entropy(vals)
    holevo = s_b - avg_cond
    return shannon_entropy(probs / probs.sum()) - holevo
