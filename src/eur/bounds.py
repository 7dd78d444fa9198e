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
orders, sharing prefixes: a root fixes the first pair, and for the Deutsch
search the last index, and its orders grow level by level in blocks, each
level one step on a stack of prefix vectors that holds at most
``_STACK_BUDGET`` floats.  A block is a run of whole subtrees: the Deutsch
roots, which have no floor, share blocks, and a root larger than the budget is
cut into blocks of its subtrees.  Ties go to the lexicographically first
order.  ``eur scan`` runs the same steps on a stack of banks.

A bound with a state term adds S(rho) or S(A|B), times a count, to a constant
of the bank.  The constants are the chain's state-independent terms: the
input-order -log2 b, DEUTSCH_MULTI, the pair terms -log2 c(M_i, M_j)
(``_pair_bounds``) and WEIGHTED's constant.  ``_chain_terms`` builds them once
per chain, from its bank, into the read-only record ``chain.terms``, which the
public scalars, the value functions and the gap kernels read.  Each such bound
is written once, in the value function of its mode, for a stack of states:

* ``_state_bounds``: MU_MULTI, -log2 b + (N - 1) S(rho); STATE_DEPENDENT, in
  closed form with no sigma built; SCB_MAX, the best of the pair terms and the
  input-order cycle (``_scb_max``, which the scan also runs); MU_TWO of the
  first two bases; and WEIGHTED for N = 3.
* ``_memory_bounds``: MEMORY_MULTI, MEMORY_PURE and BERTA_TWO.

``build_reports`` reads every value after DEUTSCH_MULTI from one
``_state_bounds`` call, the searched MU constant passed in under
``best_order``.  The chain-taking public functions validate their input and
read one state's value from the same functions.  The gap kernels
``_state_gaps`` and ``_memory_gaps`` pair the values with each bound's
left-hand side, from one product with the chain's stacked bras (``chain.bras``)
for the outcome distributions and one stacked ``eigvalsh`` per kind of state.
The two- and three-basis functions (``mu_two_bound``, ``weighted_bound``,
``berta_two_bound``) take bases, not a chain, so they build their own tables
through ``max_overlap`` and ``overlap_table``: a chain made of their bases would
change their mismatched-basis message, and the benchmark's tracer wraps the
name ``overlap_table`` in this module.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from itertools import permutations

import numpy as np

from .core import (
    BipartiteState,
    DensityMatrix,
    MeasurementBasis,
    MeasurementChain,
    _Frozen,
    _Record,
    _born_probabilities,
    _freeze,
    max_overlap,
    outcome_distribution,
    overlap_table,
)
from .entropy import LOG_CUTOFF, _entropy_rows, _memory_entropies, conditional_entropy, von_neumann_entropy

PURITY_TOL = 1e-9  # tr(rho^2) must exceed 1 - PURITY_TOL for pure-state-only bounds
WEIGHTED_WEIGHTS = (1.0, 1.0, 2.0)  # H(u) + H(v) + 2 H(w), the WEIGHTED bound's entropy sum
_STACK_BUDGET = 2**14  # floats of prefix vectors per block of the order search, so its stacks stay in cache


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
    return np.maximum(-np.log2(x), 0.0)  # x, a product of overlaps, is <= 1: see entropy._entropy_rows_of_order


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


def _pairs_first(bank: np.ndarray) -> np.ndarray:
    """``np.moveaxis(bank, (-4, -3), (0, 1))`` of a (..., N, N, d, d) bank, as one ``transpose``:
    the same view without moveaxis' argument handling, which cost a few microseconds per search."""
    k = bank.ndim - 4
    return bank.transpose(k, k + 1, *range(k), k + 2, k + 3)


def _deutsch_steps(bank: np.ndarray):
    """Deutsch contraction with F = (1 + sqrt(c)) / 2: v[..., s, k] is the largest product of F factors
    from start outcome s to outcome k; the closing factor leads back to the first basis."""
    f = (1.0 + np.sqrt(_pairs_first(bank))) / 2.0

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
    b = _pairs_first(bank)
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


def _search(n: int, steps, roots) -> tuple[float, tuple[int, ...]]:
    """Order with the largest -log2 of its closing value, the lexicographically first of equal ones.

    A root (head, tail, floor) stands for the orders head + p + tail: ``head`` a first pair, p every
    permutation of the indices in neither, ``tail`` of one length in every root.  A root whose floor
    on the closing values reaches the incumbent's could only tie and is skipped before any of its
    orders is walked, so roots with a floor above 0 must come in lexicographic order.  Each root
    lays its orders out in ``permutations`` order, and the walk takes them in blocks of at most
    ``budget`` orders, as many prefix vectors as hold ``_STACK_BUDGET`` floats.  A block is a run of
    whole subtrees of ``unit`` orders: when no root has a floor, consecutive roots share a block; a
    root larger than the budget is cut into blocks of its subtrees.  In a block the distinct
    prefixes of each length are evenly spaced rows, so a level repeats the prefix vectors once per
    child and takes one :func:`_fold` step on their stack.
    """
    start, step, close = steps
    t = n - len(roots[0][1])  # the free indices fill positions 2 .. t - 1
    free = np.fromiter(itertools.chain.from_iterable(permutations(range(2, t))), np.int8)
    places = np.tile(np.arange(n, dtype=np.int8), (math.factorial(t - 2), 1))  # int8 holds any feasible N
    places[:, 2:t] = free.reshape(len(places), t - 2)
    budget = max(_STACK_BUDGET // start[0, 0].size, 1)  # orders per block
    unit, k = len(places), t - 2  # a subtree's orders, and the free indices below its prefix
    while unit > budget:
        unit, k = unit // k, k - 1
    spacing = [min(unit, math.factorial(max(t - 1 - m, 0))) for m in range(n)]  # rows per prefix at level m
    shared = 1 if any(floor for _, _, floor in roots) else max(budget // len(places), 1)  # roots per block
    width = budget // unit * unit  # orders of one root per block
    best_val, best_order, best_x = -math.inf, None, math.inf
    for r in range(0, len(roots), shared):
        if roots[r][2] >= best_x:
            continue
        group = roots[r : r + shared]
        bases = np.array([[*head, *sorted(set(range(n)) - {*head, *tail}), *tail] for head, tail, _ in group], np.int8)
        for lo in range(0, len(places), width):
            orders = bases.take(places[lo : lo + width], axis=1).reshape(-1, n)
            v = np.array([start[head] for head, _, _ in group])
            for m in range(2, n):
                rows = orders[:: spacing[m]]
                if len(rows) > len(v):
                    v = v.repeat(len(rows) // len(v), axis=0)
                v = step(v, rows[:, m - 1], rows[:, m])
            x = close(orders[:, 0], orders[:, -1], v)
            val = _neg_log2(x)
            best = int(np.argmax(val))  # within one root the first of equal values is the lexicographically first
            if len(group) > 1:
                ties = np.flatnonzero(val == val[best])
                best = ties[np.lexsort(orders[ties, ::-1].T)[0]]
            order = tuple(orders[best].tolist())
            if val[best] > best_val or val[best] == best_val and order < best_order:
                best_val, best_order, best_x = float(val[best]), order, x[best]
    return best_val, best_order


def _deutsch_multi(bank: np.ndarray):
    """:func:`deutsch_multi_bound` of every chain of a (..., N, N, d, d) bank."""
    return _neg_log2(_fold(_deutsch_steps(bank), range(bank.shape[-3])))


def _mu_multi_best(bank: np.ndarray):
    """The value of :func:`mu_multi_bound_best_order` for every chain of a (..., N, N, d, d) bank,
    as the largest over all N! index orders (the search's prune never skips a better one)."""
    steps = _mu_steps(bank)
    return np.max([_neg_log2(_fold(steps, order)) for order in permutations(range(bank.shape[-3]))], axis=0)


def _chain_terms(bank: np.ndarray) -> _Frozen:
    """The state-independent bound terms of the chain of the (N, N, d, d) bank ``bank``, as one
    read-only record (``MeasurementChain.terms``): ``mu``, -log2 b in the input order; ``deutsch``,
    DEUTSCH_MULTI; ``pairs``, the read-only (N, N) terms -log2 c(M_i, M_j); and ``weighted``,
    WEIGHTED's constant for N = 3, None otherwise."""
    n = bank.shape[0]
    return _Frozen(mu=float(_neg_log2(_fold(_mu_steps(bank), range(n)))), deutsch=float(_deutsch_multi(bank)),
                   pairs=_freeze(_pair_bounds(bank)), weighted=_weighted(bank[0, 2], bank[2, 1]) if n == 3 else None)


def deutsch_multi_bound(chain: MeasurementChain) -> float:
    """Lower bound on the min-entropy sum of the chain, in bits."""
    return chain.terms.deutsch


def mu_multi_bound(chain: MeasurementChain) -> float:
    """Lower bound on the Shannon entropy sum of the chain for pure states."""
    return chain.terms.mu


def mu_multi_bound_with_state(chain: MeasurementChain, rho: DensityMatrix) -> float:
    """Mixed-state form: -log2 b + (N - 1) S(rho)."""
    return _state_value(chain, rho, BoundName.MU_MULTI)


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


def _scb_max(p: np.ndarray, s=0.0):
    """:func:`scb_max_bound` of every chain from its (..., N, N) pair terms ``p`` (:func:`_pair_bounds`)
    at state entropy ``s``, a number or an array that broadcasts against the leading axes: the best
    pair term max_{i<j} -log2 c(M_i, M_j) + s against the input-order cycle term (none for N = 2)."""
    n = p.shape[-1]
    pair = np.max([p[..., i, j] for i in range(n) for j in range(i + 1, n)], axis=0)
    cycle = 0.5 * sum(p[..., m, (m + 1) % n] for m in range(n)) if n >= 3 else -math.inf
    return np.maximum(pair + s, cycle + 0.5 * n * s)


def scb_max_bound(chain: MeasurementChain, rho: DensityMatrix | None = None) -> float:
    """Best bound obtainable by summing two-measurement bounds over the chain.

    Candidates: every pair bound -log2 c(M_i, M_j) + S(rho), and for N >= 3 the
    full cycle in input order, -1/2 sum_m log2 c(M_m, M_m+1) + (N/2) S(rho).
    """
    return _state_value(chain, rho, BoundName.SCB_MAX)


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


def state_dependent_bound(chain: MeasurementChain, rho: DensityMatrix) -> float:
    """N S(rho) + S(rho || sigma), sigma = sum_j beta_j |v_j><v_j| with the normalized chain weights on the
    last basis v, as (N - 1) S(rho) - sum_j <v_j|rho|v_j> log2 beta_j.  Always finite: for a PSD rho,
    <v|rho|v> > 0 implies <v|sum_i P_i rho P_i|v> > 0, and beta_j = <v_j|D_{N-1}...D_1(rho)|v_j> (D_m
    dephases in basis m), so <v_j|rho|v_j> > 0 forces beta_j > 0.  Tighter than :func:`mu_multi_bound_with_state`."""
    return _state_value(chain, rho, BoundName.STATE_DEPENDENT)


def berta_two_bound(a: MeasurementBasis, b: MeasurementBasis, rho: BipartiteState) -> float:
    """Memory-assisted two-measurement bound -log2 c(a, b) + S(A|B)."""
    return _memory_entropy(a.dim, rho, "basis") + float(_neg_log2(max_overlap(a, b)))


def memory_multi_bound(chain: MeasurementChain, rho: BipartiteState) -> float:
    """Memory-assisted chain bound -log2 b + (N - 1) S(A|B)."""
    s = _memory_entropy(chain.dim, rho, "chain")
    return float(_memory_bounds(chain, np.array([s]))[BoundName.MEMORY_MULTI][0])


def memory_pure_bound(chain: MeasurementChain, rho: BipartiteState) -> float:
    """Pure joint-state improvement -log2 b + S(A|B); rejects mixed inputs."""
    s = _memory_entropy(chain.dim, rho, "chain")
    purity = rho.joint.purity()
    if purity <= 1.0 - PURITY_TOL:
        raise ValueError(f"memory_pure_bound requires a pure joint state, got tr(rho^2) = {purity:.6f}")
    return float(_memory_bounds(chain, np.array([s]))[BoundName.MEMORY_PURE][0])


def _chain_probabilities(chain: MeasurementChain, rhos: np.ndarray) -> np.ndarray:
    """Born probabilities of each density matrix of a (k, d, d) stack, or of one (d, d) matrix, in
    every basis of the chain, as a (k, N, d) array (k = 1 for one matrix).  No validation."""
    return _born_probabilities(chain.bras, rhos).reshape(-1, len(chain), chain.dim)


def _state_bounds(chain: MeasurementChain, s: np.ndarray, probs: np.ndarray | None = None, mu=None) -> dict:
    """{bound: value} of every state-mode bound but DEUTSCH_MULTI for the (k,) stack ``s`` of S(rho),
    as (k,) arrays: MU_MULTI (its constant ``mu`` if given, a searched order's), STATE_DEPENDENT when
    the (k, N, d) Born probabilities ``probs`` are given, SCB_MAX, MU_TWO of the first two bases and
    WEIGHTED for N = 3.  STATE_DEPENDENT is (N - 1) S(rho) - sum_j q_j log2 beta_j (see
    :func:`state_dependent_bound`), q the last basis' probabilities and beta the normalized chain
    weights; q_j <= ``LOG_CUTOFF`` adds 0.  No validation."""
    n, terms = len(chain), chain.terms
    values = {BoundName.MU_MULTI: (terms.mu if mu is None else mu) + (n - 1) * s}
    if probs is not None:
        q = probs[:, -1]
        beta = _push_weights(chain, probs[:, 0])
        beta = np.where(q > LOG_CUTOFF, beta / beta.sum(axis=-1, keepdims=True), 1.0)
        values[BoundName.STATE_DEPENDENT] = (n - 1) * s - (q * np.log2(beta)).sum(axis=-1)
    values[BoundName.SCB_MAX] = _scb_max(terms.pairs, s)
    values[BoundName.MU_TWO] = terms.pairs[0, 1] + s
    if n == 3:
        values[BoundName.WEIGHTED] = terms.weighted + 2.0 * s
    return values


def _state_value(chain: MeasurementChain, rho: DensityMatrix | None, name: BoundName) -> float:
    """Bound ``name`` of :func:`_state_bounds` at the one state ``rho``, or at S(rho) = 0 without
    one; rejects a state whose dimension is not the chain's."""
    s = np.array([_state_entropy(chain.dim, rho, "chain")])
    probs = _chain_probabilities(chain, rho.matrix) if name is BoundName.STATE_DEPENDENT else None
    return float(_state_bounds(chain, s, probs)[name][0])


def _memory_bounds(chain: MeasurementChain, s_ab: np.ndarray) -> dict:
    """{bound: value} of every memory bound for the (k,) stack ``s_ab`` of S(A|B), as (k,) arrays but
    BERTA_TWO's, which is (k, N - 1), a column per consecutive pair.  MEMORY_PURE holds only on pure
    joint states.  No validation."""
    n, terms = len(chain), chain.terms
    return {
        BoundName.MEMORY_MULTI: terms.mu + (n - 1) * s_ab,
        BoundName.MEMORY_PURE: terms.mu + s_ab,
        BoundName.BERTA_TWO: s_ab[:, None] + np.diagonal(terms.pairs, 1),
    }


def _state_gaps(chain: MeasurementChain, rhos: np.ndarray) -> dict:
    """{bound: (left-hand side, bound value)} of every state-mode bound on each density matrix of
    the (k, d, d) stack ``rhos``, as (k,) arrays; the values are :func:`_state_bounds`'.  No validation."""
    probs = _chain_probabilities(chain, rhos)
    hs, h_min = _entropy_rows(probs, (1.0,)), sum(_entropy_rows(probs, (math.inf,)).T)  # hs: (k, N)
    h, s = sum(hs.T), _entropy_rows(np.linalg.eigvalsh(rhos), (1.0,))
    lhs = {BoundName.MU_MULTI: h, BoundName.STATE_DEPENDENT: h, BoundName.SCB_MAX: h,
           BoundName.MU_TWO: hs[:, 0] + hs[:, 1]}
    if len(chain) == 3:
        lhs[BoundName.WEIGHTED] = sum(w * hm for w, hm in zip(WEIGHTED_WEIGHTS, hs.T))
    gaps = {BoundName.DEUTSCH_MULTI: (h_min, np.full_like(s, chain.terms.deutsch))}
    return gaps | {name: (lhs[name], value) for name, value in _state_bounds(chain, s, probs).items()}


def _memory_gaps(chain: MeasurementChain, joints: np.ndarray, dim_b: int) -> dict:
    """{bound: (left-hand side, bound value)} of every memory bound on each joint matrix of the
    (k, d d_B, d d_B) stack ``joints``, A measured by the chain.  BERTA_TWO's arrays are (k, N - 1),
    a column per consecutive pair; the values are :func:`_memory_bounds`'.  No validation."""
    s_ab, hc = _memory_entropies(joints, chain.dim, dim_b, chain.bras)
    hc_sum = sum(hc.T)
    lhs = {BoundName.MEMORY_MULTI: hc_sum, BoundName.MEMORY_PURE: hc_sum,
           BoundName.BERTA_TWO: hc[:, :-1] + hc[:, 1:]}
    return {name: (lhs[name], value) for name, value in _memory_bounds(chain, s_ab).items()}


def deutsch_multi_bound_best_order(chain: MeasurementChain) -> tuple[float, tuple[int, ...]]:
    """Best Deutsch-type bound over the distinct cyclic orderings of the chain.

    The product is invariant under rotation and reversal, so basis 0 goes first and of each
    reversed pair only the order whose second index is below its last is visited: one root with
    head (0, j) and tail (l,) for every 1 <= j < l <= N - 1, (N - 1)!/2 orders in all, and the one
    order (0, 1) for N = 2.  Nothing is pruned: every root's floor is 0 (none), so consecutive roots
    share the search's blocks.  Of equal values the lexicographically first order wins.
    """
    n = len(chain)
    roots = [((0, j), (l,), 0.0) for j in range(1, n) for l in range(j + 1, n)] or [((0, 1), (), 0.0)]
    return _search(n, _deutsch_steps(chain.overlaps), roots)


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
    return _search(n, steps, [((i, j), (), floors[i][j]) for i, j in permutations(range(n), 2)])


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
    probs = _chain_probabilities(chain, rho.matrix) if uses_state else None
    values = _state_bounds(chain, np.array([s]), probs, mu=m_val)
    reports.append(BoundReport(BoundName.MU_MULTI, float(values[BoundName.MU_MULTI][0]), uses_state, m_order))
    if n != 2:
        del values[BoundName.MU_TWO]  # of the first two bases, listed only when they are the whole chain
    names = (BoundName.SCB_MAX, BoundName.MU_TWO, BoundName.WEIGHTED, BoundName.STATE_DEPENDENT)
    return reports + [BoundReport(name, float(values[name][0]), uses_state, identity_order)
                      for name in names if name in values]
