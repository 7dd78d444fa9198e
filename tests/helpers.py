"""Shared test utilities: brute-force oracles and random object builders.

The oracles spell the bound definitions out as explicit loops over outcome
index tuples, independent of the contraction-based implementations they
cross-check.
"""

import math
from itertools import product

import numpy as np

import eur


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


def random_bipartite_mixed(dim_a, dim_b, rank, seed):
    return eur.BipartiteState(eur.random_density_matrix(dim_a * dim_b, rank, seed), dim_a, dim_b)


def mub_chain(dim, count):
    return eur.MeasurementChain(tuple(eur.mub_set(dim, count)))
