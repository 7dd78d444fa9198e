"""Every bound's value computed from its formula, for the tests that check the library's kernels.

Written from the formulas, not from ``eur.bounds``, and imports nothing from it: the
squared-overlap tables come from the basis vectors, S from ``eigvalsh`` and the partial trace
over A from an explicit ``einsum``, in the way ``bench/reference.py`` is written.  A chain is
read only through its bases' ``vectors`` (rows are the outcome vectors) and a state only through
its matrix; the bases are taken in their input order.
"""

import numpy as np

CUTOFF = 1e-15  # eigenvalues and probabilities at or below this add 0 to a -p log2 p sum


def overlap_tables(chain) -> np.ndarray:
    """T[a, b, i, j] = |<a_i|b_j>|^2 over every pair of bases a, b of the chain."""
    v = np.array([basis.vectors for basis in chain])
    return np.abs(np.einsum("aik,bjk->abij", v.conj(), v)) ** 2


def entropy(matrix: np.ndarray) -> float:
    """Von Neumann entropy in bits, from the ``eigvalsh`` spectrum."""
    vals = np.linalg.eigvalsh(matrix)
    vals = vals[vals > CUTOFF]
    return float(-(vals * np.log2(vals)).sum())


def conditional_entropy(joint: np.ndarray, dim_a: int, dim_b: int) -> float:
    """S(A|B) = S(AB) - S(B), with rows and columns of ``joint`` indexed (a, b)."""
    rho_b = np.einsum("abad->bd", joint.reshape(dim_a, dim_b, dim_a, dim_b))
    return entropy(joint) - entropy(rho_b)


def mu_constant(t: np.ndarray) -> float:
    """-log2 b of the chain with overlap tables ``t``: b is the largest, over the last outcome, sum
    over the middle outcomes of max over the first of the chained overlaps."""
    v = t[0, 1].max(axis=0)
    for m in range(1, len(t) - 1):
        v = v @ t[m, m + 1]
    return float(-np.log2(v.max()))


def deutsch_multi(t: np.ndarray) -> float:
    """-log2 of the largest cyclic product of (1 + sqrt(c)) / 2 factors, one outcome per basis."""
    f, n = (1.0 + np.sqrt(t)) / 2.0, len(t)
    path = f[0, 1]  # path[s, k]: the largest product from outcome s of basis 0 to outcome k
    for m in range(1, n - 1):
        path = (path[:, :, None] * f[m, m + 1][None, :, :]).max(axis=1)
    return float(-np.log2((path * f[n - 1, 0].T).max()))


def pair_constant(t: np.ndarray, i: int, j: int) -> float:
    """-log2 c(M_i, M_j), c the largest squared overlap of the two bases."""
    return float(-np.log2(t[i, j].max()))


def state_bounds(chain, rho: np.ndarray) -> dict:
    """Bound name -> value at the density matrix ``rho``: every state-mode bound, MU_TWO of the
    first two bases and WEIGHTED (u, v, w the three bases, w doubled) for N = 3."""
    n, t, s = len(chain), overlap_tables(chain), entropy(rho)
    pairs = [pair_constant(t, i, j) + s for i in range(n) for j in range(i + 1, n)]
    if n >= 3:
        pairs.append(0.5 * sum(pair_constant(t, m, (m + 1) % n) for m in range(n)) + 0.5 * n * s)
    first = np.einsum("ij,jk,ik->i", chain[0].vectors.conj(), rho, chain[0].vectors).real
    last = np.einsum("ij,jk,ik->i", chain[-1].vectors.conj(), rho, chain[-1].vectors).real
    beta = first
    for m in range(n - 1):
        beta = beta @ t[m, m + 1]
    beta = beta / beta.sum()
    kept = last > CUTOFF
    values = {
        "DEUTSCH_MULTI": deutsch_multi(t),
        "MU_MULTI": mu_constant(t) + (n - 1) * s,
        "STATE_DEPENDENT": (n - 1) * s - float((last[kept] * np.log2(beta[kept])).sum()),
        "SCB_MAX": max(pairs),
        "MU_TWO": pair_constant(t, 0, 1) + s,
    }
    if n == 3:
        values["WEIGHTED"] = float(-np.log2((t[0, 2].max(axis=0) * t[2, 1].max(axis=1)).max())) + 2.0 * s
    return values


def memory_bounds(chain, joint: np.ndarray, dim_b: int) -> dict:
    """Bound name -> value at the joint matrix ``joint``, A measured by the chain: MEMORY_MULTI,
    MEMORY_PURE (valid on pure joint states only) and BERTA_TWO as a list, one per consecutive pair."""
    n, t = len(chain), overlap_tables(chain)
    s_ab = conditional_entropy(joint, t.shape[-1], dim_b)
    return {
        "MEMORY_MULTI": mu_constant(t) + (n - 1) * s_ab,
        "MEMORY_PURE": mu_constant(t) + s_ab,
        "BERTA_TWO": [pair_constant(t, m, m + 1) + s_ab for m in range(n - 1)],
    }
