"""Independent reference values for the bounds the benchmark checks.

Written from the formulas, not from ``eur.bounds``: every squared-overlap
table of a chain is computed once, the best basis order is found by a
batched contraction over all N! orderings at once (the library loops over
orderings one chain at a time), the cyclic product bound is searched over all
orderings rather than over the library's distinct cyclic orders, and the
state-dependent bound uses the closed form
``(N - 1) S(rho) - sum_j <v_j|rho|v_j> log2 beta_j`` instead of an
eigendecomposition of sigma.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np


def overlap_tables(vectors: np.ndarray) -> np.ndarray:
    """T[a, b, i, j] = |<a_i|b_j>|^2 for a stack of bases (rows are outcome vectors)."""
    return np.abs(np.einsum("aik,bjk->abij", vectors.conj(), vectors)) ** 2


def von_neumann(rho: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 1e-15]
    return float(-(vals * np.log2(vals)).sum())


def _neg_log2(x) -> np.ndarray:
    return -np.log2(x) + 0.0


def mu_contraction(tables: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Max/sum contraction b for each ordering (rows of ``orders``)."""
    v = tables[orders[:, 0], orders[:, 1]].max(axis=1)
    for m in range(1, orders.shape[1] - 1):
        v = np.einsum("pi,pij->pj", v, tables[orders[:, m], orders[:, m + 1]])
    return v.max(axis=1)


def cyclic_product(tables: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Largest cyclic product of (1 + sqrt(c)) / 2 factors for each ordering."""
    factors = (1.0 + np.sqrt(tables)) / 2.0
    n = orders.shape[1]
    path = factors[orders[:, 0], orders[:, 1]]
    for m in range(1, n - 1):
        step = factors[orders[:, m], orders[:, m + 1]]
        path = (path[:, :, :, None] * step[:, None, :, :]).max(axis=2)
    close = factors[orders[:, n - 1], orders[:, 0]]
    return (path * close.transpose(0, 2, 1)).max(axis=(1, 2))


def all_orders(n: int) -> np.ndarray:
    return np.array(list(permutations(range(n))), dtype=int)


def expected_bounds(vectors: np.ndarray, rho: np.ndarray | None, best_order: bool, orders: str) -> dict:
    """Bound name -> value that ``eur bounds`` should print for these inputs."""
    n = vectors.shape[0]
    tables = overlap_tables(vectors)
    identity = np.arange(n)[None, :]
    search = all_orders(n) if best_order else identity
    s = 0.0 if rho is None else von_neumann(rho)

    out = {"DEUTSCH_MULTI": float(_neg_log2(cyclic_product(tables, search).min()))}
    if orders == "min":
        return out
    out["MU_MULTI"] = float(_neg_log2(mu_contraction(tables, search).min())) + (n - 1) * s

    c = tables.max(axis=(2, 3))
    pairs = [float(_neg_log2(c[i, j])) + s for i in range(n) for j in range(i + 1, n)]
    if n >= 3:
        pairs.append(0.5 * float(sum(-np.log2(c[m, (m + 1) % n]) for m in range(n))) + 0.5 * n * s)
    out["SCB_MAX"] = max(pairs)
    if n == 2:
        out["MU_TWO"] = float(_neg_log2(c[0, 1])) + s
    if n == 3:
        # u, v, w = bases 0, 1, 2; the doubled basis w mediates
        m = (tables[0, 2].max(axis=0) * tables[2, 1].max(axis=1)).max()
        out["WEIGHTED"] = float(_neg_log2(m)) + 2.0 * s
    if rho is not None:
        first = np.einsum("ij,jk,ik->i", vectors[0].conj(), rho, vectors[0]).real
        beta = first
        for m in range(n - 1):
            beta = beta @ tables[m, m + 1]
        beta = beta / beta.sum()
        last = np.einsum("ij,jk,ik->i", vectors[-1].conj(), rho, vectors[-1]).real
        out["STATE_DEPENDENT"] = (n - 1) * s - float((last * np.log2(beta)).sum())
    return out


def order_value(vectors: np.ndarray, name: str, order: tuple[int, ...]) -> float:
    """Pure-state bound ``name`` (MU_MULTI or DEUTSCH_MULTI) for one basis order."""
    tables = overlap_tables(vectors)
    row = np.array([order], dtype=int)
    if name == "MU_MULTI":
        return float(_neg_log2(mu_contraction(tables, row)[0]))
    return float(_neg_log2(cyclic_product(tables, row)[0]))
