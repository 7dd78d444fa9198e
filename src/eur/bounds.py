"""Lower bounds on entropy sums over chains of projective measurements.

Two bound families run along the chain of overlap tables:

* a Deutsch-type bound on min-entropy sums, from the largest cyclic product
  of (1 + sqrt(c))/2 factors over one outcome index per basis, and
* a Maassen-Uffink-type bound on Shannon entropy sums, from a max/sum
  contraction of consecutive overlap tables (plus a von Neumann entropy term
  for mixed states).

Both read the chain's tables from its bank ``chain.overlaps`` and depend on
the order in which the bases are chained; the ``*_best_order`` variants search
the inequivalent orderings as index orders into that bank.  The MU search runs
depth-first, contracting each shared prefix once, and skips a first pair when
a floor on every completion shows it cannot win; the Deutsch search evaluates
each cyclic order in turn.  The remaining
functions cover the two-measurement specializations, a max-of-pairwise-sums
construction (SCB), a weighted three-measurement bound, the fully
state-dependent relative-entropy form, and the quantum-memory versions
conditioned on side information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import permutations

import numpy as np

from .core import (
    BipartiteState,
    DensityMatrix,
    MeasurementBasis,
    MeasurementChain,
    max_overlap,
    outcome_distribution,
    overlap_table,
)
from .entropy import conditional_entropy, relative_entropy, von_neumann_entropy

PURITY_TOL = 1e-9  # tr(rho^2) must exceed 1 - PURITY_TOL for pure-state-only bounds


class BoundName(str, Enum):
    DEUTSCH_MULTI = "DEUTSCH_MULTI"
    MU_MULTI = "MU_MULTI"
    WEIGHTED = "WEIGHTED"
    SCB_MAX = "SCB_MAX"
    MU_TWO = "MU_TWO"
    BERTA_TWO = "BERTA_TWO"
    MEMORY_MULTI = "MEMORY_MULTI"
    MEMORY_PURE = "MEMORY_PURE"
    STATE_DEPENDENT = "STATE_DEPENDENT"


@dataclass(frozen=True)
class BoundReport:
    bound_name: BoundName
    value: float
    state_dependent: bool
    chain_order: tuple[int, ...]


def _neg_log2(x: float) -> float:
    # + 0.0 turns -log2(1) = -0.0 into a plain 0.0
    return float(-np.log2(x)) + 0.0


def _state_entropy(dim: int, rho: DensityMatrix | None, what: str) -> float:
    """S(rho), or 0 without a state; rejects a state whose dimension is not ``dim``."""
    if rho is None:
        return 0.0
    if dim != rho.dim:
        raise ValueError(f"dimension mismatch: {what} dim {dim} vs state dim {rho.dim}")
    return von_neumann_entropy(rho)


def _memory_entropy(dim: int, rho: BipartiteState, what: str) -> float:
    """S(A|B); rejects a joint state whose subsystem A dimension is not ``dim``."""
    if dim != rho.dim_a:
        raise ValueError(f"dimension mismatch: {what} dim {dim} vs subsystem A dim {rho.dim_a}")
    return conditional_entropy(rho)


def _deutsch_h(bank: np.ndarray, order) -> float:
    """Largest cyclic product of (1 + sqrt(c)) / 2 factors along ``order``, all start outcomes at once."""
    n = len(order)
    factors = [(1.0 + np.sqrt(bank[order[m], order[(m + 1) % n]])) / 2.0 for m in range(n)]
    v = factors[0]
    for m in range(1, n - 1):
        v = (v[:, :, None] * factors[m]).max(axis=1)
    return float((v * factors[n - 1].T).max())


def _mu_b(bank: np.ndarray, order) -> float:
    """Chained max/sum contraction of the consecutive overlap tables along ``order``.

    The first table is collapsed to its column maxima, every intermediate
    index is summed against the next table, and the final index is maximised.
    """
    v = bank[order[0], order[1]].max(axis=0)
    for m in range(1, len(order) - 1):
        v = v @ bank[order[m], order[m + 1]]
    return float(v.max())


def deutsch_multi_bound(chain: MeasurementChain) -> float:
    """Lower bound on the min-entropy sum of the chain, in bits."""
    return _neg_log2(_deutsch_h(chain.overlaps, range(len(chain))))


def mu_multi_bound(chain: MeasurementChain) -> float:
    """Lower bound on the Shannon entropy sum of the chain for pure states."""
    return _neg_log2(_mu_b(chain.overlaps, range(len(chain))))


def mu_multi_bound_with_state(chain: MeasurementChain, rho: DensityMatrix) -> float:
    """Mixed-state form: -log2 b + (N - 1) S(rho)."""
    return mu_multi_bound(chain) + (len(chain) - 1) * _state_entropy(chain.dim, rho, "chain")


def mu_two_bound(a: MeasurementBasis, b: MeasurementBasis, rho: DensityMatrix | None = None) -> float:
    """Two-measurement bound -log2 c(a, b) + S(rho)."""
    return _neg_log2(max_overlap(a, b)) + _state_entropy(a.dim, rho, "basis")


def weighted_bound(
    u: MeasurementBasis,
    v: MeasurementBasis,
    w: MeasurementBasis,
    rho: DensityMatrix | None = None,
) -> float:
    """Bound on H(u) + H(v) + 2 H(w): -log2 max_{i,j,k} c(u_i, w_k) c(w_k, v_j) + 2 S(rho).

    The doubled basis ``w`` mediates between the other two.
    """
    uw = overlap_table(u, w)
    wv = overlap_table(w, v)
    m = float((uw.max(axis=0) * wv.max(axis=1)).max())
    return _neg_log2(m) + 2.0 * _state_entropy(u.dim, rho, "basis")


def scb_max_bound(chain: MeasurementChain, rho: DensityMatrix | None = None) -> float:
    """Best bound obtainable by summing two-measurement bounds over the chain.

    Candidates: every pair bound -log2 c(M_i, M_j) + S(rho), and for N >= 3 the
    full cycle in input order, -1/2 sum_m log2 c(M_m, M_m+1) + (N/2) S(rho).
    """
    n = len(chain)
    s = _state_entropy(chain.dim, rho, "chain")
    c = chain.overlaps.max(axis=(2, 3))
    candidates = []
    for i in range(n):
        for j in range(i + 1, n):
            candidates.append(_neg_log2(c[i, j]) + s)
    if n >= 3:
        cycle = sum(-np.log2(c[m, (m + 1) % n]) for m in range(n))
        candidates.append(0.5 * float(cycle) + 0.0 + 0.5 * n * s)
    return max(candidates)


def chain_coefficients(chain: MeasurementChain, rho: DensityMatrix) -> np.ndarray:
    """Outcome weights on the final basis after dephasing through the whole chain.

    Start from the Born distribution of the first basis and push it through
    every consecutive overlap table; the result is a probability vector over
    the last basis' outcomes.
    """
    if chain.dim != rho.dim:
        raise ValueError(f"dimension mismatch: chain dim {chain.dim} vs state dim {rho.dim}")
    w = outcome_distribution(chain[0], rho)
    for m in range(len(chain) - 1):
        w = w @ chain.overlaps[m, m + 1]
    return w


def state_dependent_bound(chain: MeasurementChain, rho: DensityMatrix) -> float:
    """N S(rho) + S(rho || sigma), sigma diagonal in the last basis with the chain weights.

    Tighter than :func:`mu_multi_bound_with_state` for every state.  Returns
    ``math.inf`` if rho has support where the chain weights vanish.
    """
    beta = chain_coefficients(chain, rho)
    beta = beta / beta.sum()
    v = chain[len(chain) - 1].vectors
    sigma = (v.T * beta) @ v.conj()
    sigma = DensityMatrix(0.5 * (sigma + sigma.conj().T), validate=False)
    return len(chain) * von_neumann_entropy(rho) + relative_entropy(rho, sigma)


def berta_two_bound(a: MeasurementBasis, b: MeasurementBasis, rho: BipartiteState) -> float:
    """Memory-assisted two-measurement bound -log2 c(a, b) + S(A|B)."""
    return _memory_entropy(a.dim, rho, "basis") + _neg_log2(max_overlap(a, b))


def memory_multi_bound(chain: MeasurementChain, rho: BipartiteState) -> float:
    """Memory-assisted chain bound -log2 b + (N - 1) S(A|B)."""
    return mu_multi_bound(chain) + (len(chain) - 1) * _memory_entropy(chain.dim, rho, "chain")


def memory_pure_bound(chain: MeasurementChain, rho: BipartiteState) -> float:
    """Pure joint-state improvement -log2 b + S(A|B); rejects mixed inputs."""
    s = _memory_entropy(chain.dim, rho, "chain")
    purity = rho.joint.purity()
    if purity <= 1.0 - PURITY_TOL:
        raise ValueError(f"memory_pure_bound requires a pure joint state, got tr(rho^2) = {purity:.6f}")
    return mu_multi_bound(chain) + s


def _distinct_cyclic_orders(n: int) -> list[tuple[int, ...]]:
    """Orderings inequivalent under rotation and reversal, first index pinned to 0."""
    if n == 2:
        return [(0, 1)]
    orders = []
    for rest in permutations(range(1, n)):
        if rest[0] < rest[-1]:
            orders.append((0,) + rest)
    return orders


def deutsch_multi_bound_best_order(chain: MeasurementChain) -> tuple[float, tuple[int, ...]]:
    """Best Deutsch-type bound over the distinct cyclic orderings of the chain."""
    bank = chain.overlaps
    best_val, best_order = -math.inf, None
    for order in _distinct_cyclic_orders(len(chain)):
        val = _neg_log2(_deutsch_h(bank, order))
        if val > best_val:
            best_val, best_order = val, order
    return best_val, best_order


def mu_multi_bound_best_order(chain: MeasurementChain) -> tuple[float, tuple[int, ...]]:
    """Best MU-type bound over all orderings of the chain.

    Depth-first over index orders, visited in ``permutations`` order.  Each
    prefix contracts its vector with the next table once for all of its
    completions, with the floating-point operations of :func:`_mu_b`, so every
    value and the first-largest tie-break equal the exhaustive loop's.

    A contraction turns sum(v) into at least r sum(v), r the smallest row sum
    in the bank, and b = max(v) >= sum(v) / d, so every completion of a first
    pair has b >= sum(v1) r^(N-2) / d.  That floor, shrunk by a few ulps per
    rounding step so it stays below every computed b, skips the pair once it
    reaches the incumbent's b: none of its orders could do better than tie.
    """
    bank = chain.overlaps
    n, d = bank.shape[0], bank.shape[2]
    first = bank.max(axis=2)  # first[i, j]: column maxima of table (i, j), the v of _mu_b
    growth = float(bank.sum(axis=3).min()) ** (n - 2) / d * (1.0 - 4.0 * n * d * np.finfo(float).eps)
    floors = (first.sum(axis=2) * growth).tolist()
    best_val, best_order, best_b = -math.inf, None, math.inf

    def descend(order, v, rest):
        nonlocal best_val, best_order, best_b
        if not rest:
            b = float(v.max())
            val = _neg_log2(b)
            if val > best_val:
                best_val, best_order, best_b = val, order, b
            return
        last = order[-1]
        for k, j in enumerate(rest):
            descend(order + (j,), v @ bank[last, j], rest[:k] + rest[k + 1 :])

    indices = tuple(range(n))
    for i, j in permutations(indices, 2):
        if floors[i][j] < best_b:
            descend((i, j), first[i, j], tuple(k for k in indices if k != i and k != j))
    return best_val, best_order


def build_reports(
    chain: MeasurementChain,
    rho: DensityMatrix | None = None,
    orders: str = "shannon",
    best_order: bool = False,
) -> list[BoundReport]:
    """Every bound applicable to the chain (and optional state), as report rows.

    ``orders`` selects the entropy flavor the bounds must hold for:
    ``"shannon"`` reports the full set, ``"min"`` only the Deutsch-type bound
    (the others do not constrain min-entropy sums).  Without a state, the
    state-dependent terms are reported at S(rho) = 0 (pure-state case).
    """
    if orders not in ("shannon", "min"):
        raise ValueError(f"orders must be 'shannon' or 'min', got {orders!r}")
    s = _state_entropy(chain.dim, rho, "chain")
    n = len(chain)
    identity_order = tuple(range(n))
    uses_state = rho is not None

    def searched(search, bound):
        return search(chain) if best_order else (bound(chain), identity_order)

    d_val, d_order = searched(deutsch_multi_bound_best_order, deutsch_multi_bound)
    reports = [BoundReport(BoundName.DEUTSCH_MULTI, d_val, False, d_order)]
    if orders == "min":
        return reports

    m_val, m_order = searched(mu_multi_bound_best_order, mu_multi_bound)
    reports.append(BoundReport(BoundName.MU_MULTI, m_val + (n - 1) * s, uses_state, m_order))
    reports.append(BoundReport(BoundName.SCB_MAX, scb_max_bound(chain, rho), uses_state, identity_order))
    if n == 2:
        reports.append(BoundReport(BoundName.MU_TWO, mu_two_bound(*chain, rho), uses_state, identity_order))
    if n == 3:
        reports.append(BoundReport(BoundName.WEIGHTED, weighted_bound(*chain, rho), uses_state, identity_order))
    if rho is not None:
        reports.append(
            BoundReport(BoundName.STATE_DEPENDENT, state_dependent_bound(chain, rho), True, identity_order)
        )
    return reports
