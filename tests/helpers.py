"""Shared test utilities: brute-force oracles and random object builders.

The oracles spell the bound definitions out as explicit loops over outcome
index tuples, independent of the contraction-based implementations they
cross-check.  The per-state loops here take every bound's value from
``tests/oracle.py``, which computes each bound from its formula and imports
nothing from ``eur.bounds``.
"""

import json
import math
from itertools import permutations, product

import numpy as np

import eur
import oracle
from eur.bounds import (
    BoundName,
    _fold,
    _mu_steps,
    _neg_log2,
    deutsch_multi_bound,
    mu_multi_bound_best_order,
    scb_max_bound,
)
from eur.core import BipartiteState, PureState, outcome_distribution
from eur.entropy import LOG_CUTOFF, measured_conditional_entropy, renyi_entropy, shannon_entropy
from eur.generators import parametric_d3_chain, random_density_matrix
from eur.neldermead import _FATOL, _XATOL
from eur.verifier import MIXED_SPOT_SAMPLES, WEIGHTED_WEIGHTS, _angles_from_state, _budget
from scipy.optimize import minimize


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


def _distinct_cyclic_orders(n):
    """Orderings inequivalent under rotation and reversal, first index pinned to 0."""
    if n == 2:
        return [(0, 1)]
    return [(0,) + rest for rest in permutations(range(1, n)) if rest[0] < rest[-1]]


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
    steps = _mu_steps(chain.overlaps)
    best_val, best_order = -math.inf, None
    for order in permutations(range(len(chain))):
        val = _neg_log2(_fold(steps, order))
        if val > best_val:
            best_val, best_order = val, order
    return best_val, best_order


# ``eur scan`` bound name -> (CSV column, bound of one chain): the oracle of the batched scan
SCAN_ORACLE = {
    "mu-multi": ("mu_multi", lambda chain: mu_multi_bound_best_order(chain)[0]),
    "scb-max": ("scb_max", scb_max_bound),
    "deutsch-multi": ("deutsch_multi", deutsch_multi_bound),
}


def loop_scan_rows(a, phi, names):
    """Scan rows (a, phi, bound, ...): one ``parametric_d3_chain`` per grid point, through the single-chain bounds."""
    rows = []
    for x, y in zip(a.tolist(), phi.tolist()):
        chain = parametric_d3_chain(x, y)
        rows.append((x, y) + tuple(SCAN_ORACLE[name][1](chain) for name in names))
    return rows


def scan_csv(names, rows):
    """The CSV text ``eur scan`` writes for these bound names and rows."""
    lines = [",".join(["a", "phi"] + [SCAN_ORACLE[name][0] for name in names])]
    lines += [",".join(f"{cell:.12g}" for cell in row) for row in rows]
    return "".join(line + "\n" for line in lines)


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


def loop_haar_vector(rng, dim):
    """A Haar-random state vector: a complex Gaussian over its ``np.linalg.norm``."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def loop_angles_from_state(psi):
    """Angles of one state vector: its phases through numpy scalars, its moduli angles through math."""
    psi = np.asarray(psi, dtype=complex)
    dim = psi.size
    anchor = int(np.argmax(np.abs(psi)))
    psi = psi * np.exp(-1j * np.angle(psi[anchor]))
    if abs(psi[0]) > 1e-12:
        psi = psi * np.exp(-1j * np.angle(psi[0]))
    r = np.abs(psi)
    thetas = np.empty(dim - 1)
    s = 1.0
    for k in range(dim - 1):
        c = r[k] / s if s > 1e-15 else 1.0
        thetas[k] = math.acos(min(1.0, max(-1.0, c)))
        s *= math.sin(thetas[k])
    return np.concatenate([thetas, np.angle(psi[1:])])


def validated_pure_objective(chain, x, orders, weights):
    """sum_m weights[m] H_{orders[m]}(M_m) through the validated ``renyi_entropy``, basis by basis."""
    psi = loop_state_from_angles(x, chain.dim)
    return sum(w * renyi_entropy(np.abs(b.vectors.conj() @ psi) ** 2, a) for b, a, w in zip(chain, orders, weights))


def validated_memory_objective(chain, x, dim_b):
    """sum_m H(M_m|B) of the pure joint state with angles x, through the dephasing channel."""
    psi = loop_state_from_angles(x, chain.dim * dim_b)
    rho = eur.BipartiteState.from_pure(psi, chain.dim, dim_b)
    return sum(measured_conditional_entropy(b, rho) for b in chain)


def nelder_mead_options(max_iterations):
    """The scipy Nelder-Mead options the batched optimizer reproduces."""
    return {"maxiter": max_iterations, "maxfev": max_iterations, "fatol": _FATOL, "xatol": _XATOL}


def scipy_restart_minimum(objective, dim, config, stream):
    """Lowest value of scipy's Nelder-Mead over the verifier's restarts, one restart at a time.

    Start points are drawn as the verifier draws them, from stream ``stream``;
    ``objective`` takes a batch of angle rows and scipy hands it one row per call.
    """
    rng = np.random.default_rng([config.seed, stream])
    options = nelder_mead_options(_budget(2 * dim - 2))
    best = math.inf
    for _ in range(config.restarts):
        x0 = _angles_from_state(loop_haar_vector(rng, dim))
        res = minimize(lambda x: objective(x[None])[0], x0, method="Nelder-Mead", options=options)
        best = min(best, res.fun)
    return best


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


def tilted_qubit_chain_and_state(eps=4e-13):
    """The computational basis, then that basis turned by asin(sqrt(eps)), and the pure state
    (sqrt(eps), sqrt(1 - eps)): the last basis' outcome 0 has probability 4 eps (1 - eps) and
    chain weight 2 eps (1 - eps)."""
    t = math.asin(math.sqrt(eps))
    tilted = eur.MeasurementBasis(np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]))
    state = PureState(np.array([math.sqrt(eps), math.sqrt(1.0 - eps)])).projector()
    return eur.MeasurementChain((eur.computational_basis(2), tilted)), state


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


def loop_spot_check_inequalities(chain, samples=200, seed=0):
    """Spot checks one sample at a time, the bounds from ``oracle`` and the entropies through the
    validated entropy functions.

    Each round draws a Haar-random pure state, a random mixed state, and pure
    and mixed bipartite states with a memory of the chain's own dimension.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng([seed, 4])
    d = chain.dim
    n = len(chain)
    worst: dict = {}

    def update(name, gap):
        worst[name] = min(worst.get(name, math.inf), gap)

    for _ in range(samples):
        pure = PureState(loop_haar_vector(rng, d)).projector()
        mixed = random_density_matrix(d, int(rng.integers(1, d + 1)), rng)
        for rho in (pure, mixed):
            probs = [outcome_distribution(b, rho) for b in chain]
            h = [shannon_entropy(p) for p in probs]
            h_min = [renyi_entropy(p, math.inf) for p in probs]
            bound = oracle.state_bounds(chain, rho.matrix)
            update(BoundName.DEUTSCH_MULTI, sum(h_min) - bound["DEUTSCH_MULTI"])
            update(BoundName.MU_MULTI, sum(h) - bound["MU_MULTI"])
            update(BoundName.STATE_DEPENDENT, sum(h) - bound["STATE_DEPENDENT"])
            update(BoundName.SCB_MAX, sum(h) - bound["SCB_MAX"])
            update(BoundName.MU_TWO, h[0] + h[1] - bound["MU_TWO"])
            if n == 3:
                lhs = sum(w * hm for w, hm in zip(WEIGHTED_WEIGHTS, h))
                update(BoundName.WEIGHTED, lhs - bound["WEIGHTED"])

        pure_ab = BipartiteState.from_pure(loop_haar_vector(rng, d * d), d, d)
        mixed_ab = BipartiteState(random_density_matrix(d * d, int(rng.integers(1, d * d + 1)), rng), d, d)
        for rho_ab, is_pure in ((pure_ab, True), (mixed_ab, False)):
            hc = [measured_conditional_entropy(b, rho_ab) for b in chain]
            bound = oracle.memory_bounds(chain, rho_ab.joint.matrix, d)
            update(BoundName.MEMORY_MULTI, sum(hc) - bound["MEMORY_MULTI"])
            if is_pure:
                update(BoundName.MEMORY_PURE, sum(hc) - bound["MEMORY_PURE"])
            for m in range(n - 1):
                update(BoundName.BERTA_TWO, hc[m] + hc[m + 1] - bound["BERTA_TWO"][m])
    return worst


def loop_mixed_memory_gap(chain, dim_b, seed):
    """Worst MEMORY_MULTI gap over memory mode's random mixed joint states, one state at a time."""
    da = chain.dim
    total = da * dim_b
    rng = np.random.default_rng([seed, 3])
    worst = math.inf
    for _ in range(MIXED_SPOT_SAMPLES):
        rank = int(rng.integers(1, total + 1))
        rho = BipartiteState(random_density_matrix(total, rank, rng), da, dim_b)
        bound = oracle.memory_bounds(chain, rho.joint.matrix, dim_b)["MEMORY_MULTI"]
        gap = sum(measured_conditional_entropy(b, rho) for b in chain) - bound
        worst = min(worst, gap)
    return worst


_PAIR = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]  # the 2 x 2 identity as [real, imag] pairs
_HALF = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]  # the maximally mixed qubit

# Malformed input files: name -> (reader, file text).  ``reader`` is "set" for a
# measurement-set file and "state" for a density-matrix file; each must be
# rejected with a ValueError that names the file, whether its layout or its
# values are wrong (NaN is written as the JSON extension token ``NaN``).
MALFORMED_FILES = {
    "bases-numbers": ("set", {"format_version": 1, "dim": 2, "bases": [1, 2]}),
    "bases-strings": ("set", {"format_version": 1, "dim": 2, "bases": ["vectors", "x"]}),
    "basis-entry-object": (
        "set",
        {"format_version": 1, "dim": 2, "bases": [{"vectors": [[{"re": 1}, [0, 0]], _PAIR[1]]}, {"vectors": _PAIR}]},
    ),
    "basis-ragged-rows": (
        "set",
        {"format_version": 1, "dim": 2, "bases": [{"vectors": [[[1, 0]], _PAIR[1]]}, {"vectors": _PAIR}]},
    ),
    "basis-entry-overflow": (
        "set",
        {"format_version": 1, "dim": 2, "bases": [{"vectors": [[[10**400, 0], [0, 0]], _PAIR[1]]}, {"vectors": _PAIR}]},
    ),
    "basis-entry-huge": (
        "set",
        {"format_version": 1, "dim": 2, "bases": [{"vectors": [[[1e200, 0], [0, 0]], _PAIR[1]]}, {"vectors": _PAIR}]},
    ),
    "basis-entry-bool": (
        "set",
        {"format_version": 1, "dim": 2, "bases": [{"vectors": [[[True, 0], [0, 0]], _PAIR[1]]}, {"vectors": _PAIR}]},
    ),
    "basis-entry-triple": (
        "set",
        {"format_version": 1, "dim": 2, "bases": [{"vectors": [[[1, 0, 7], [0, 0]], _PAIR[1]]}, {"vectors": _PAIR}]},
    ),
    "basis-nan": (
        "set",
        {"format_version": 1, "dim": 2, "bases": [{"vectors": _PAIR}, {"vectors": [[[math.nan, 0], [0, 0]], _PAIR[1]]}]},
    ),
    "set-dim-true": ("set", {"format_version": 1, "dim": True, "bases": [{"vectors": [[[1, 0]]]}] * 2}),
    "set-version-true": ("set", {"format_version": True, "dim": 2, "bases": [{"vectors": _PAIR}] * 2}),
    "set-truncated": ("set", '{"format_version": 1, "dim": 2, "bases": [{"vectors": [[[1, 0], '),
    "set-too-deep": ("set", "[" * 100000 + "]" * 100000),
    "state-entry-object": ("state", {"format_version": 1, "dim": 2, "matrix": [[{"re": 1}, [0, 0]], _HALF[1]]}),
    "state-dim-true": ("state", {"format_version": 1, "dim": True, "matrix": [[[1, 0]]]}),
    "state-version-true": ("state", {"format_version": True, "dim": 2, "matrix": _HALF}),
    "state-nan": ("state", {"format_version": 1, "dim": 2, "matrix": [[[math.nan, 0], [0, 0]], _HALF[1]]}),
    "state-truncated": ("state", '{"format_version": 1, "dim": 2, "matrix": [[[0.5, 0], [0'),
}


def write_malformed(directory, name):
    """Write the malformed file ``name`` into ``directory``; return its path."""
    _, payload = MALFORMED_FILES[name]
    path = directory / f"{name}.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)
