"""Shared test utilities: brute-force oracles and random object builders.

The oracles spell the bound definitions out as explicit loops over outcome
index tuples, independent of the contraction-based implementations they
cross-check.
"""

import math
from itertools import permutations, product

import numpy as np

import eur
from eur.bounds import _mu_b, _neg_log2
from eur.entropy import LOG_CUTOFF, measured_conditional_entropy, renyi_entropy


def brute_force_mu_b(chain):
    """max over the last index of sum over middle indices of
    (max over first index of the first overlap) times the chained overlaps."""
    n, d = len(chain), chain.dim
    tabs = [eur.overlap_table(chain[m], chain[m + 1]) for m in range(n - 1)]
    best = 0.0
    for last in range(d):
        total = 0.0
        for mids in product(range(d), repeat=n - 2):
            idx = list(mids) + [last]
            term = max(tabs[0][i1, idx[0]] for i1 in range(d))
            for m in range(1, n - 1):
                term *= tabs[m][idx[m - 1], idx[m]]
            total += term
        best = max(best, total)
    return best


def brute_force_deutsch_h(chain):
    """max over one index per basis of the cyclic product of (1+sqrt(c))/2."""
    n, d = len(chain), chain.dim
    tabs = [eur.overlap_table(chain[m], chain[(m + 1) % n]) for m in range(n)]
    best = 0.0
    for idx in product(range(d), repeat=n):
        v = 1.0
        for m in range(n):
            v *= (1.0 + np.sqrt(tabs[m][idx[m], idx[(m + 1) % n]])) / 2.0
        best = max(best, v)
    return best


def reordered_best_order(chain, bound, orders):
    """Order search by evaluating ``bound`` on one reordered chain per order.

    The first order in iteration order with the largest value wins.
    """
    best_val, best_order = -math.inf, None
    for order in orders:
        val = bound(chain.reordered(order))
        if val > best_val:
            best_val, best_order = val, order
    return best_val, best_order


def exhaustive_mu_best_order(chain):
    """MU order search by contracting every one of the N! index orders on the bank.

    Orders come in ``permutations`` order and the first largest value wins.
    """
    bank = chain.overlaps
    best_val, best_order = -math.inf, None
    for order in permutations(range(len(chain))):
        val = _neg_log2(_mu_b(bank, order))
        if val > best_val:
            best_val, best_order = val, order
    return best_val, best_order


def kept_entries_renyi_entropy(p, alpha):
    """Renyi entropy of a probability vector from its entries above ``LOG_CUTOFF`` only."""
    p = np.asarray(p, dtype=float)
    if alpha == 1.0:
        q = p[p > LOG_CUTOFF]
        return float(-(q * np.log2(q)).sum())
    if math.isinf(alpha):
        return float(-np.log2(p.max()))
    delta = float((np.power(p, alpha) - p).sum())
    return float(np.log1p(delta) / ((1.0 - alpha) * math.log(2.0)))


def loop_state_from_angles(x, dim):
    """Hyperspherical angles to a state vector, one modulus at a time."""
    thetas, phis = x[: dim - 1], x[dim - 1 :]
    amps = np.empty(dim)
    s = 1.0
    for k in range(dim - 1):
        amps[k] = s * math.cos(thetas[k])
        s *= math.sin(thetas[k])
    amps[dim - 1] = s
    psi = amps.astype(complex)
    psi[1:] *= np.exp(1j * phis)
    return psi / np.linalg.norm(psi)


def validated_pure_objective(chain, x, orders, weights):
    """sum_m weights[m] H_{orders[m]}(M_m) through the validated ``renyi_entropy``, basis by basis."""
    psi = loop_state_from_angles(x, chain.dim)
    return sum(w * renyi_entropy(np.abs(b.vectors.conj() @ psi) ** 2, a) for b, a, w in zip(chain, orders, weights))


def validated_memory_objective(chain, x, dim_b):
    """sum_m H(M_m|B) of the pure joint state with angles x, through the dephasing channel."""
    psi = loop_state_from_angles(x, chain.dim * dim_b)
    rho = eur.BipartiteState.from_pure(psi, chain.dim, dim_b)
    return sum(measured_conditional_entropy(b, rho) for b in chain)


def brute_force_chain_weights(chain, rho):
    """Explicit sum over all index paths from the first basis to the last."""
    n, d = len(chain), chain.dim
    tabs = [eur.overlap_table(chain[m], chain[m + 1]) for m in range(n - 1)]
    p1 = eur.outcome_distribution(chain[0], rho)
    beta = np.zeros(d)
    for j in range(d):
        for idx in product(range(d), repeat=n - 1):
            path = list(idx) + [j]
            term = p1[path[0]]
            for m in range(n - 1):
                term *= tabs[m][path[m], path[m + 1]]
            beta[j] += term
    return beta


def random_chain(dim, n, seed):
    return eur.MeasurementChain(tuple(eur.random_basis(dim, 1000 * seed + k) for k in range(n)))


def random_pure_density(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return eur.PureState(z / np.linalg.norm(z)).projector()


def random_bipartite_pure(dim_a, dim_b, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    return eur.BipartiteState.from_pure(z / np.linalg.norm(z), dim_a, dim_b)


def random_mixed(rng, dim, rank):
    """G G^dagger / tr from the Generator ``rng``, G a dim x rank complex Gaussian, unvalidated."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return eur.DensityMatrix(m / np.trace(m).real, validate=False)


def random_bipartite_mixed(dim_a, dim_b, rank, seed):
    return eur.BipartiteState(eur.random_density_matrix(dim_a * dim_b, rank, seed), dim_a, dim_b)


def mub_chain(dim, count):
    return eur.MeasurementChain(tuple(eur.mub_set(dim, count)))
