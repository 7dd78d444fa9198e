"""Lower bounds on entropy sums over chains of projective measurements.

Two bound families run along the chain of overlap tables:

* a Deutsch-type bound on min-entropy sums, from the largest cyclic product
  of (1 + sqrt(c))/2 factors over one outcome index per basis, and
* a Maassen-Uffink-type bound on Shannon entropy sums, from a max/sum
  contraction of consecutive overlap tables (plus a von Neumann entropy term
  for mixed states).

Both read the chain's tables from its bank ``chain.overlaps`` and depend on
the order in which the bases are chained.  Each is written once as a start, a
step and a closing step, which the fixed-order bound folds along the input
order and the ``*_best_order`` variants run through one search over index
orders, sharing prefixes: each first pair's orders grow level by level as one
batch, so its frontier of at most (N - 2)! prefixes takes each step in one
call; ``eur scan`` runs the same steps on a stack of banks.  The other
bounds (two-measurement, max-of-pairwise-sums SCB, weighted three-measurement,
state-dependent and quantum-memory forms) also add a state term in S(rho) or
S(A|B) to a constant of the bank, for two measurements a pair term
-log2 c(M_i, M_j) (``_pair_bounds``); the state-dependent one is in closed form,
with no sigma built.  The gap kernels ``_state_gaps`` and ``_memory_gaps`` give
every bound's left-hand side and value on a stack of states, from one product
for the outcome distributions and one stacked ``eigvalsh`` per kind of state.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import permutations

import numpy as np

from .core import (
    BipartiteState,
    DensityMatrix,
    MeasurementBasis,
    MeasurementChain,
    _Record,
    _born_probabilities,
    _stacked_bras,
    max_overlap,
    outcome_distribution,
    overlap_table,
)
from .entropy import LOG_CUTOFF, _entropy_rows, _memory_entropies, conditional_entropy, von_neumann_entropy

PURITY_TOL = 1e-9  # tr(rho^2) must exceed 1 - PURITY_TOL for pure-state-only bounds
WEIGHTED_WEIGHTS = (1.0, 1.0, 2.0)  # H(u) + H(v) + 2 H(w), the WEIGHTED bound's entropy sum


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


class BoundReport(_Record):
    def __init__(self, bound_name: BoundName, value: float, state_dependent: bool, chain_order: tuple[int, ...]):
        super().__init__(bound_name=bound_name, value=value, state_dependent=state_dependent,
                         chain_order=chain_order)


def _neg_log2(x):
    # + 0.0 turns -log2(1) = -0.0 into a plain 0.0
    return -np.log2(x) + 0.0


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


def _max_trailing(a: np.ndarray, k: int = 1) -> np.ndarray:
    """Maximum over the last ``k`` axes of ``a``, unrolled into ``np.maximum`` over their entries:
    exact, so the same bits as ``a.max``, and several times faster than numpy's reduction over a
    few entries per output."""
    a = a.reshape(a.shape[:-k] + (-1,))
    out = a[..., 0].copy()
    for i in range(1, a.shape[-1]):
        np.maximum(out, a[..., i], out=out)
    return out


def _deutsch_steps(bank: np.ndarray):
    """Deutsch contraction with F = (1 + sqrt(c)) / 2: v[..., s, k] is the largest product of F factors
    from start outcome s to outcome k; the closing factor leads back to the first basis."""
    f = (1.0 + np.sqrt(np.moveaxis(bank, (-4, -3), (0, 1)))) / 2.0

    def step(v, i, j):
        # max over the middle index k of v[..., s, k] F[k, l], unrolled: exact, so the order is free
        g = f[i, j]
        out = v[..., :, :1] * g[..., :1, :]
        for k in range(1, g.shape[-1]):
            np.maximum(out, v[..., :, k : k + 1] * g[..., k : k + 1, :], out=out)
        return out

    return f, step, lambda first, last, v: _max_trailing(v * np.swapaxes(f[last, first], -1, -2), 2)


def _mu_steps(bank: np.ndarray):
    """MU contraction: the first table collapsed to its column maxima, a (..., 1, d) row, each
    intermediate index summed against the next table, the final index maximised."""
    b = np.moveaxis(bank, (-4, -3), (0, 1))
    start = _max_trailing(np.swapaxes(b, -1, -2))[..., None, :]
    return start, lambda v, i, j: v @ b[i, j], lambda first, last, v: _max_trailing(v, 2)


def _fold(steps, order):
    """Closing value of the contraction ``steps`` along one index order, per chain of the bank.

    ``steps`` is (start, step, close): start[i, j] is the vector of the first pair (i, j),
    step(v, i, j) carries it from basis i on to basis j, close(first, last, v) gives the closing
    value.  Both contractions act elementwise over the leading axes of a (..., N, N, d, d) bank,
    which they move behind the pair axes, so [i, j] picks a stack of tables; the indices may also
    be equal-length arrays, one pair per vector of a stack ``v`` (the order search's frontier).
    """
    start, step, close = steps
    v = start[order[0], order[1]]
    for m in range(2, len(order)):
        v = step(v, order[m - 1], order[m])
    return close(order[0], order[-1], v)


def _search(n: int, steps, roots, cyclic: bool = False) -> tuple[float, tuple[int, ...]]:
    """Order with the largest -log2 of its closing value, over index orders grouped by first pair.

    ``roots`` yields first pairs (i, j) in visiting order with a floor on the closing value of
    their completions; a root whose floor reaches the incumbent's could only tie and is skipped.
    The rest expand level by level as a batched frontier: the (P, m) array of prefixes gains one
    index per level, each prefix's children in increasing index, through one :func:`_fold` step
    on the stack of their vectors, so the leaves come in ``permutations`` order and the first
    largest leaf in that order wins.  The frontier holds one root's subtree at a time, at most
    (N - 2)! leaves.

    A ``cyclic`` closing value is invariant under reversing the order after its first index, so
    of each such pair only the order whose last index exceeds its second is visited (for N = 2
    the two are one index, and its one order stays).  Each prefix keeps the count of its free
    indices above j, the root's second index: a root with none is skipped, and a child that would
    take the last of them while other indices stay free is never grown.  The survivors keep
    ``permutations`` order, so the tie rule holds over them.
    """
    start, step, close = steps
    best_val, best_order, best_x = -math.inf, None, math.inf
    cols = np.arange(n)
    for (i, j), floor in roots:
        if floor >= best_x:
            continue
        lo = j if cyclic else -1  # without reversal every free index can close the order
        free = np.ones((1, n), dtype=bool)
        free[0, [i, j]] = False
        above = np.count_nonzero(free[:, lo + 1 :], axis=1)
        if n > 2 and not above[0]:
            continue
        orders, v = np.array([[i, j]]), start[i, j][None]
        for m in range(3, n + 1):
            grow = free if m == n else free & ((above > 1)[:, None] | (cols <= lo))
            p, k = np.nonzero(grow)
            v = step(v[p], orders[p, -1], k)
            orders = np.column_stack((orders[p], k))
            free = free[p]
            free[np.arange(k.size), k] = False
            above = above[p] - (k > lo)
        x = close(orders[:, 0], orders[:, -1], v)
        val = _neg_log2(x)
        best = int(np.argmax(val))
        if val[best] > best_val:
            best_val, best_order, best_x = float(val[best]), tuple(orders[best].tolist()), x[best]
    return best_val, best_order


def _deutsch_multi(bank: np.ndarray):
    """:func:`deutsch_multi_bound` of every chain of a (..., N, N, d, d) bank."""
    return _neg_log2(_fold(_deutsch_steps(bank), range(bank.shape[-3])))


def _mu_multi_best(bank: np.ndarray):
    """The value of :func:`mu_multi_bound_best_order` for every chain of a (..., N, N, d, d) bank,
    as the largest over all N! index orders (the search's prune never skips a better one)."""
    steps = _mu_steps(bank)
    return np.max([_neg_log2(_fold(steps, order)) for order in permutations(range(bank.shape[-3]))], axis=0)


def deutsch_multi_bound(chain: MeasurementChain) -> float:
    """Lower bound on the min-entropy sum of the chain, in bits."""
    return float(_deutsch_multi(chain.overlaps))


def mu_multi_bound(chain: MeasurementChain) -> float:
    """Lower bound on the Shannon entropy sum of the chain for pure states."""
    return float(_neg_log2(_fold(_mu_steps(chain.overlaps), range(len(chain)))))


def mu_multi_bound_with_state(chain: MeasurementChain, rho: DensityMatrix) -> float:
    """Mixed-state form: -log2 b + (N - 1) S(rho)."""
    return mu_multi_bound(chain) + (len(chain) - 1) * _state_entropy(chain.dim, rho, "chain")


def mu_two_bound(a: MeasurementBasis, b: MeasurementBasis, rho: DensityMatrix | None = None) -> float:
    """Two-measurement bound -log2 c(a, b) + S(rho)."""
    return float(_neg_log2(max_overlap(a, b))) + _state_entropy(a.dim, rho, "basis")


def weighted_bound(
    u: MeasurementBasis,
    v: MeasurementBasis,
    w: MeasurementBasis,
    rho: DensityMatrix | None = None,
) -> float:
    """Bound on H(u) + H(v) + 2 H(w): -log2 max_{i,j,k} c(u_i, w_k) c(w_k, v_j) + 2 S(rho).

    The doubled basis ``w`` mediates between the other two.
    """
    return _weighted(overlap_table(u, w), overlap_table(w, v)) + 2.0 * _state_entropy(u.dim, rho, "basis")


def _weighted(uw: np.ndarray, wv: np.ndarray) -> float:
    """-log2 max_{i,j,k} c(u_i, w_k) c(w_k, v_j) from the tables c(u, w) and c(w, v)."""
    return float(_neg_log2((uw.max(axis=0) * wv.max(axis=1)).max()))


def _pair_bounds(bank: np.ndarray) -> np.ndarray:
    """-log2 c(M_i, M_j) of every chain of a (..., N, N, d, d) bank, as a (..., N, N) array."""
    return _neg_log2(_max_trailing(bank, 2))


def _scb_max(bank: np.ndarray, s=0.0):
    """:func:`scb_max_bound` of every chain of a (..., N, N, d, d) bank at state entropy ``s``, a
    number or an array that broadcasts against the leading axes: the best pair term
    max_{i<j} -log2 c(M_i, M_j) + s against the input-order cycle term (none for N = 2)."""
    n, p = bank.shape[-3], _pair_bounds(bank)
    pair = np.max([p[..., i, j] for i in range(n) for j in range(i + 1, n)], axis=0)
    cycle = 0.5 * sum(p[..., m, (m + 1) % n] for m in range(n)) if n >= 3 else -math.inf
    return np.maximum(pair + s, cycle + 0.5 * n * s)


def scb_max_bound(chain: MeasurementChain, rho: DensityMatrix | None = None) -> float:
    """Best bound obtainable by summing two-measurement bounds over the chain.

    Candidates: every pair bound -log2 c(M_i, M_j) + S(rho), and for N >= 3 the
    full cycle in input order, -1/2 sum_m log2 c(M_m, M_m+1) + (N/2) S(rho).
    """
    return float(_scb_max(chain.overlaps, _state_entropy(chain.dim, rho, "chain")))


def _push_weights(chain: MeasurementChain, w: np.ndarray) -> np.ndarray:
    """Push first-basis outcome weights, (d,) or (S, d), through every consecutive overlap table."""
    for m in range(len(chain) - 1):
        w = w @ chain.overlaps[m, m + 1]
    return w


def chain_coefficients(chain: MeasurementChain, rho: DensityMatrix) -> np.ndarray:
    """Outcome weights on the final basis after dephasing through the whole chain.

    Start from the Born distribution of the first basis and push it through
    every consecutive overlap table; the result is a probability vector over
    the last basis' outcomes.
    """
    if chain.dim != rho.dim:
        raise ValueError(f"dimension mismatch: chain dim {chain.dim} vs state dim {rho.dim}")
    return _push_weights(chain, outcome_distribution(chain[0], rho))


def _state_dependent(n: int, beta: np.ndarray, q: np.ndarray, s):
    """:func:`state_dependent_bound` of ``n`` bases from chain weights ``beta``, last-basis Born
    probabilities ``q`` (both (..., d)) and S(rho) ``s``; q_j <= ``LOG_CUTOFF`` adds 0.  No validation."""
    beta = np.where(q > LOG_CUTOFF, beta / beta.sum(axis=-1, keepdims=True), 1.0)
    return (n - 1) * s - (q * np.log2(beta)).sum(axis=-1)


def state_dependent_bound(chain: MeasurementChain, rho: DensityMatrix) -> float:
    """N S(rho) + S(rho || sigma), sigma = sum_j beta_j |v_j><v_j| with the normalized chain weights on the
    last basis v, as (N - 1) S(rho) - sum_j <v_j|rho|v_j> log2 beta_j.  Always finite: for a PSD rho,
    <v|rho|v> > 0 implies <v|sum_i P_i rho P_i|v> > 0, and beta_j = <v_j|D_{N-1}...D_1(rho)|v_j> (D_m
    dephases in basis m), so <v_j|rho|v_j> > 0 forces beta_j > 0.  Tighter than :func:`mu_multi_bound_with_state`."""
    beta = chain_coefficients(chain, rho)  # checks the dimensions
    return float(_state_dependent(len(chain), beta, outcome_distribution(chain[-1], rho), von_neumann_entropy(rho)))


def berta_two_bound(a: MeasurementBasis, b: MeasurementBasis, rho: BipartiteState) -> float:
    """Memory-assisted two-measurement bound -log2 c(a, b) + S(A|B)."""
    return _memory_entropy(a.dim, rho, "basis") + float(_neg_log2(max_overlap(a, b)))


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


def _state_gaps(chain: MeasurementChain, rhos: np.ndarray) -> dict:
    """{bound: (left-hand side, bound value)} of every state-mode bound on each density matrix of
    the (k, d, d) stack ``rhos``, as (k,) arrays.  No validation."""
    n, bank = len(chain), chain.overlaps
    probs = _born_probabilities(_stacked_bras(chain), rhos).reshape(-1, n, chain.dim)
    hs, h_min = _entropy_rows(probs, (1.0,)), sum(_entropy_rows(probs, (math.inf,)).T)  # hs: (k, N)
    h, s = sum(hs.T), _entropy_rows(np.linalg.eigvalsh(rhos), (1.0,))
    gaps = {
        BoundName.DEUTSCH_MULTI: (h_min, np.full_like(s, deutsch_multi_bound(chain))),
        BoundName.MU_MULTI: (h, mu_multi_bound(chain) + (n - 1) * s),
        BoundName.STATE_DEPENDENT: (h, _state_dependent(n, _push_weights(chain, probs[:, 0]), probs[:, -1], s)),
        BoundName.SCB_MAX: (h, _scb_max(bank, s)),
        BoundName.MU_TWO: (hs[:, 0] + hs[:, 1], _pair_bounds(bank)[0, 1] + s),
    }
    if n == 3:
        lhs = sum(w * hm for w, hm in zip(WEIGHTED_WEIGHTS, hs.T))
        gaps[BoundName.WEIGHTED] = (lhs, _weighted(bank[0, 2], bank[2, 1]) + 2.0 * s)
    return gaps


def _memory_gaps(chain: MeasurementChain, joints: np.ndarray, dim_b: int) -> dict:
    """{bound: (left-hand side, bound value)} of every memory bound on each joint matrix of the
    (k, d d_B, d d_B) stack ``joints``, A measured by the chain.  BERTA_TWO's arrays are (k, N - 1),
    a column per consecutive pair; MEMORY_PURE holds only on pure joint states.  No validation."""
    n = len(chain)
    s_ab, hc = _memory_entropies(joints, chain.dim, dim_b, _stacked_bras(chain))
    hc_sum, mu = sum(hc.T), mu_multi_bound(chain)
    return {
        BoundName.MEMORY_MULTI: (hc_sum, mu + (n - 1) * s_ab),
        BoundName.MEMORY_PURE: (hc_sum, mu + s_ab),
        BoundName.BERTA_TWO: (hc[:, :-1] + hc[:, 1:], s_ab[:, None] + np.diagonal(_pair_bounds(chain.overlaps), 1)),
    }


def deutsch_multi_bound_best_order(chain: MeasurementChain) -> tuple[float, tuple[int, ...]]:
    """Best Deutsch-type bound over the distinct cyclic orderings of the chain.

    The product is invariant under rotation and reversal, so basis 0 goes first and the search
    visits one order of each reversed pair (second index below the last), (N - 1)!/2 orders in
    all, and 1 for N = 2.  Nothing is pruned.
    """
    n = len(chain)
    return _search(n, _deutsch_steps(chain.overlaps), (((0, j), 0.0) for j in range(1, n)), cyclic=True)


def mu_multi_bound_best_order(chain: MeasurementChain) -> tuple[float, tuple[int, ...]]:
    """Best MU-type bound over all orderings of the chain.

    A contraction turns sum(v) into at least r sum(v), r the smallest row sum in the bank, and
    b = max(v) >= sum(v) / d, so every completion of a first pair has b >= sum(v1) r^(N-2) / d.
    That floor, shrunk by a few ulps per rounding step so it stays below every computed b, is the
    pair's floor in the search.
    """
    bank = chain.overlaps
    n, d = bank.shape[0], bank.shape[2]
    steps = _mu_steps(bank)
    growth = float(bank.sum(axis=3).min()) ** (n - 2) / d * (1.0 - 4.0 * n * d * np.finfo(float).eps)
    floors = (steps[0].sum(axis=(2, 3)) * growth).tolist()
    return _search(n, steps, (((i, j), floors[i][j]) for i, j in permutations(range(n), 2)))


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
    bank, values = chain.overlaps, {BoundName.SCB_MAX: float(_scb_max(chain.overlaps, s))}
    if n == 2:
        values[BoundName.MU_TWO] = float(_pair_bounds(bank)[0, 1]) + s
    if n == 3:
        values[BoundName.WEIGHTED] = _weighted(bank[0, 2], bank[2, 1]) + 2.0 * s
    if rho is not None:
        q = outcome_distribution(chain[-1], rho)
        values[BoundName.STATE_DEPENDENT] = float(_state_dependent(n, chain_coefficients(chain, rho), q, s))
    return reports + [BoundReport(name, value, uses_state, identity_order) for name, value in values.items()]
