"""Brute-force certification of the bounds by entropy-sum minimization.

Pure states are parameterized by 2d - 2 real numbers (hyperspherical moduli
angles plus relative phases), the objective is minimized with multi-start
Nelder-Mead from Haar-random starting points, and the gap between the best
minimum found and each applicable bound is reported as a slack.  Slacks more
negative than the certification tolerance mean a bound is violated.

All restarts run together in one batched Nelder-Mead, ``_nelder_mead``, which
follows scipy's ``_minimize_neldermead`` step for step on a stack of simplices
(scipy itself is not used).  Each iteration evaluates the restarts still
running in at most three calls: the reflections, then the expansion or
contraction points, then the vertices of the simplices that shrink.

The objectives take a (k, 2d - 2) batch of angles and skip input validation:
the Renyi orders are checked once, up front, and each call is one product of
the states with the stacked bases followed by the row-entropy kernel
``entropy._entropy_rows``.  The memory-mode objective builds no state objects:
for a pure joint state H(M|B) = H(M) - S(rho_B), with S(rho_B) from the
Schmidt coefficients.

The spot checks draw a block of random states, then evaluate it at once: one
product for the outcome distributions, one stacked eigendecomposition per kind
of state and per reduced state, and the state-free bound terms once per call
(SCB's once per block).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    BoundName,
    _push_weights,
    _scb_max,
    deutsch_multi_bound,
    memory_multi_bound,
    memory_pure_bound,
    mu_multi_bound,
    mu_two_bound,
    scb_max_bound,
    state_dependent_bound,
    weighted_bound,
)
from .core import BipartiteState, DensityMatrix, MeasurementChain, PureState, outcome_distribution
from .core import _born_probabilities, _mixture
from .entropy import _entropy_rows, _memory_entropies, _relative_entropies, _spectra, renyi_entropy
from .generators import random_density_matrix

CERTIFICATION_TOL = 1e-6
GRADIENT_STEP = 1e-5
_XATOL = 1e-8  # Nelder-Mead's simplex spread at convergence
MIXED_SPOT_SAMPLES = 50
SPOT_BLOCK = 64  # spot-check rounds evaluated together; caps the size of the batch arrays
WEIGHTED_WEIGHTS = (1.0, 1.0, 2.0)  # H(u) + H(v) + 2 H(w), the WEIGHTED bound's entropy sum


@dataclass(frozen=True)
class MinimizationConfig:
    restarts: int = 64
    max_iterations: int = 2000
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")


@dataclass(frozen=True)
class VerificationResult:
    objective_min: float
    minimizer: object  # PureState (system mode) or BipartiteState (memory mode)
    slack_per_bound: dict
    certified: bool
    converged_restarts: int


def _broadcast_orders(orders, n: int) -> list[float]:
    """One validated Renyi order per basis, checked here so the objectives need not."""
    if np.isscalar(orders):
        out = [float(orders)] * n
    else:
        out = [float(a) for a in orders]
        if len(out) != n:
            raise ValueError(f"need one Renyi order per basis ({n}), got {len(out)}")
    for a in out:
        if not (a > 0.0):
            raise ValueError(f"Renyi order must be positive, got {a!r}")
    return out


def _state_from_angles(x: np.ndarray, dim: int) -> np.ndarray:
    """The state vector of each row of the (..., 2 dim - 2) array of angles ``x``."""
    thetas, phis = x[..., : dim - 1], x[..., dim - 1 :]
    # amps[k] = sin(theta_0) ... sin(theta_{k-1}) cos(theta_k), the last one without the cosine
    amps = np.ones(x.shape[:-1] + (dim,))
    amps[..., 1:] = np.cumprod(np.sin(thetas), axis=-1)
    amps[..., :-1] *= np.cos(thetas)
    psi = amps.astype(complex)
    psi[..., 1:] *= np.exp(1j * phis)
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


def _angles_from_state(psi: np.ndarray) -> np.ndarray:
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


def _haar_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def _sorted_simplices(sim: np.ndarray, fsim: np.ndarray):
    """Each simplex of the (R, n + 1, n) stack with its vertices in increasing value."""
    rows, order = np.arange(len(fsim))[:, None], np.argsort(fsim, axis=-1)
    return sim[rows, order], fsim[rows, order]


def _nelder_mead(objective, x0: np.ndarray, max_iterations: int, fatol: float):
    """Nelder-Mead from every row of the (R, n) array ``x0`` at once.

    Step for step scipy's ``_minimize_neldermead`` with its default options
    (coefficients 1, 2, 0.5, 0.5; each start coordinate x gives a vertex with
    x * 1.05, or 0.00025 in place of a zero), ``_XATOL`` and ``fatol`` as the
    stopping spreads and ``maxiter`` = ``maxfev`` = ``max_iterations`` per
    restart.  As there, an iteration whose evaluation would pass ``maxfev``
    stops at that evaluation, and each simplex is re-sorted with the default
    ``argsort`` after every iteration.  ``objective`` maps a (k, n) array of
    points to their k values; it is called once for the initial simplices and
    then at most three times per iteration, for the restarts still running.

    Returns the best vertex, its value, the evaluation count and whether the
    simplex converged (scipy's ``success``), one entry per restart.
    """
    r, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    sim[:, k + 1, k] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    fsim = np.full((r, n + 1), np.inf)
    m = min(n + 1, max_iterations)
    fsim[:, :m] = objective(sim[:, :m].reshape(r * m, n)).reshape(r, m)
    nfev = np.full(r, m)
    if n == 0:  # the one point of an empty search space: evaluated, and converged
        return sim[:, 0], fsim[:, 0], nfev, np.ones(r, dtype=bool)
    for _ in range(2):  # scipy sorts the initial simplex twice; an unstable sort may reorder ties
        sim, fsim = _sorted_simplices(sim, fsim)
    nit = np.ones(r, dtype=int)
    success = np.zeros(r, dtype=bool)
    run = np.flatnonzero((nfev < max_iterations) & (nit < max_iterations))
    while run.size:
        s, f = sim[run], fsim[run]
        converged = (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= _XATOL) & (
            np.abs(f[:, :1] - f[:, 1:]).max(axis=1) <= fatol
        )
        success[run[converged]] = True
        run, s, f = run[~converged], s[~converged], f[~converged]
        if not run.size:
            break
        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]
        xr = 2 * xbar - worst
        fxr = objective(xr)
        left = max_iterations - nfev[run] - 1  # evaluations left after the reflection
        expand = fxr < f[:, 0]
        accept = ~expand & (fxr < f[:, -2])
        outside = ~expand & ~accept & (fxr < f[:, -1])
        # the expansion or contraction point; a restart without budget for it stops here
        tried = ~accept & (left > 0)
        trial = np.where(
            expand[:, None],
            3 * xbar - 2 * worst,
            np.where(outside[:, None], 1.5 * xbar - 0.5 * worst, 0.5 * xbar + 0.5 * worst),
        )
        ftrial = np.full(run.size, np.nan)
        if tried.any():
            ftrial[tried] = objective(trial[tried])
        left -= tried
        better = np.where(expand, ftrial < fxr, np.where(outside, ftrial <= fxr, ftrial < f[:, -1]))
        take = tried & better
        shrink = tried & ~expand & ~take
        done = accept | (tried & ~shrink)  # the iterations that end by replacing the worst vertex
        s[done, -1] = np.where(take[:, None], trial, xr)[done]
        f[done, -1] = np.where(take, ftrial, fxr)[done]
        used = 1 + tried
        if shrink.any():
            # vertex j moves if j <= budget + 1 and is evaluated if j <= budget
            ss, fs, budget = s[shrink], f[shrink], left[shrink, None]
            j = np.arange(1, n + 1)
            moved = ss[:, :1] + 0.5 * (ss[:, 1:] - ss[:, :1])
            ss[:, 1:] = np.where((j <= budget + 1)[..., None], moved, ss[:, 1:])
            evaluated = j <= budget
            fs[:, 1:][evaluated] = objective(ss[:, 1:][evaluated])
            s[shrink], f[shrink] = ss, fs
            used[shrink] += evaluated.sum(axis=1)
            done[shrink] = budget[:, 0] >= n
        nfev[run] += used
        nit[run] += done
        sim[run], fsim[run] = _sorted_simplices(s, f)
        run = run[(nfev[run] < max_iterations) & (nit[run] < max_iterations)]
    return sim[:, 0], fsim.min(axis=1), nfev, success


def _best_restart(objective, dim: int, config: MinimizationConfig, stream: int):
    """Angles and value of the first lowest of ``config.restarts`` batched Nelder-Mead runs from
    Haar-random states of random stream ``stream``, and the number of runs that converged."""
    rng = np.random.default_rng([config.seed, stream])
    x0 = np.array([_angles_from_state(_haar_vector(rng, dim)) for _ in range(config.restarts)])
    x, fun, _, success = _nelder_mead(objective, x0, config.max_iterations, config.tol)
    best = int(np.argmin(fun))
    return x[best], float(fun[best]), int(success.sum())


def entropy_sum(chain: MeasurementChain, rho: DensityMatrix, orders=1.0) -> float:
    """Sum of Renyi entropies of the chain's outcome distributions on rho."""
    ords = _broadcast_orders(orders, len(chain))
    return sum(renyi_entropy(outcome_distribution(b, rho), a) for b, a in zip(chain, ords))


def _stacked_bras(chain: MeasurementChain) -> np.ndarray:
    """The (N d, d) matrix whose rows are the bras <u_i| of every basis, basis by basis."""
    return np.concatenate([b.vectors.conj() for b in chain])


def _pure_objective(chain: MeasurementChain, ords: list[float], weights: list[float]):
    """Weighted entropy sum sum_m weights[m] H_{ords[m]}(M_m) as a function of the state angles.

    The orders were validated by ``_broadcast_orders``; each evaluation is one
    product with the stacked bases and one call of the row-entropy kernel.
    """
    bras = _stacked_bras(chain)
    n, dim = len(chain), chain.dim

    def objective(x):
        probs = np.abs(_state_from_angles(x, dim) @ bras.T) ** 2
        return (_entropy_rows(probs.reshape(-1, n, dim), ords) * weights).sum(axis=-1)

    return objective


def _memory_objective(chain: MeasurementChain, dim_b: int):
    """sum_m H(M_m|B) as a function of the angles of a pure state on A x B.

    For a pure joint state the measured outcome and the memory's post-measurement
    state form a classical-pure mixture, so H(M|B) = H(M) - S(rho_B), with rho_B's
    spectrum the squared singular values of the (d_A, d_B) amplitude matrix.
    """
    bras = _stacked_bras(chain)
    n, da = len(chain), chain.dim
    total = da * dim_b

    def objective(x):
        amps = _state_from_angles(x, total).reshape(-1, da, dim_b)
        probs = (np.abs(bras @ amps) ** 2).sum(axis=-1).reshape(-1, n, da)
        schmidt = np.linalg.svd(amps, compute_uv=False) ** 2
        return _entropy_rows(probs, (1.0,)).sum(axis=-1) - n * _entropy_rows(schmidt, (1.0,))

    return objective


def minimize_entropy_sum(
    chain: MeasurementChain,
    orders=1.0,
    config: MinimizationConfig = MinimizationConfig(),
) -> VerificationResult:
    """Minimize the entropy sum over pure states and report bound slacks.

    For orders 0 < alpha <= 1 pure states suffice: each term is concave in
    rho, so the minimum over the convex set of density matrices sits at an
    extreme point.  H_alpha for alpha > 1, H_inf included, is not concave in
    general, so for those orders the pure-state search is a heuristic; mixed
    states are covered by the DEUTSCH_MULTI spot checks.  With all orders
    infinite the slack is taken against the Deutsch-type bound, with all
    orders 1 against the Shannon-sum bounds (plus, for N = 3, the weighted
    bound via its own doubled-third-term objective); any other mix is checked
    against the Deutsch-type bound, which Renyi monotonicity keeps valid.
    """
    ords = _broadcast_orders(orders, len(chain))
    objective = _pure_objective(chain, ords, [1.0] * len(chain))
    x, value, converged = _best_restart(objective, chain.dim, config, stream=0)
    psi = PureState(_state_from_angles(x, chain.dim))

    slacks = {}
    if all(a == 1.0 for a in ords):
        slacks[BoundName.MU_MULTI] = value - mu_multi_bound(chain)
        slacks[BoundName.SCB_MAX] = value - scb_max_bound(chain)
        slacks[BoundName.STATE_DEPENDENT] = value - state_dependent_bound(chain, psi.projector())
        if len(chain) == 3:
            weighted = _pure_objective(chain, ords, WEIGHTED_WEIGHTS)
            _, w_value, w_conv = _best_restart(weighted, chain.dim, config, stream=1)
            slacks[BoundName.WEIGHTED] = w_value - weighted_bound(chain[0], chain[1], chain[2])
            converged = min(converged, w_conv)
    else:
        slacks[BoundName.DEUTSCH_MULTI] = value - deutsch_multi_bound(chain)

    certified = converged >= 1 and all(s >= -CERTIFICATION_TOL for s in slacks.values())
    return VerificationResult(value, psi, slacks, certified, converged)


def minimize_conditional_entropy_sum(
    chain: MeasurementChain,
    dim_b: int,
    config: MinimizationConfig = MinimizationConfig(),
) -> VerificationResult:
    """Minimize sum_m H(M_m|B) over pure bipartite states with a dim_b memory.

    Slacks are taken against the memory bounds at the minimizer; on top of the
    pure-state search, random mixed joint states are spot-checked against the
    general memory bound and the worst case is folded into its slack.
    """
    if dim_b < 1:
        raise ValueError(f"dim_b must be positive, got {dim_b}")
    da = chain.dim
    total = da * dim_b
    x, value, converged = _best_restart(_memory_objective(chain, dim_b), total, config, stream=2)
    rho_best = BipartiteState.from_pure(_state_from_angles(x, total), da, dim_b)

    slacks = {
        BoundName.MEMORY_MULTI: value - memory_multi_bound(chain, rho_best),
        BoundName.MEMORY_PURE: value - memory_pure_bound(chain, rho_best),
    }
    rng = np.random.default_rng([config.seed, 3])
    rhos = np.array([random_density_matrix(total, int(rng.integers(1, total + 1)), rng).matrix
                     for _ in range(MIXED_SPOT_SAMPLES)])
    s_ab, hc = _memory_entropies(rhos, da, dim_b, _stacked_bras(chain))
    gaps = sum(hc.T) - (mu_multi_bound(chain) + (len(chain) - 1) * s_ab)
    slacks[BoundName.MEMORY_MULTI] = min(slacks[BoundName.MEMORY_MULTI], float(gaps.min()))

    certified = converged >= 1 and all(s >= -CERTIFICATION_TOL for s in slacks.values())
    return VerificationResult(value, rho_best, slacks, certified, converged)


def minimizer_gradient_max(chain: MeasurementChain, psi: PureState, orders=1.0) -> float:
    """Largest central-difference gradient component of the objective at psi, step ``GRADIENT_STEP``."""
    ords = _broadcast_orders(orders, len(chain))
    objective = _pure_objective(chain, ords, [1.0] * len(chain))
    x = _angles_from_state(psi.amplitudes)
    steps = GRADIENT_STEP * np.eye(x.size)
    values = objective(np.concatenate([x + steps, x - steps]))
    return float(np.abs(values[: x.size] - values[x.size :]).max() / (2.0 * GRADIENT_STEP))


def spot_check_inequalities(chain: MeasurementChain, samples: int = 200, seed: int = 0) -> dict:
    """Evaluate every inequality on random states; return the worst slack per bound.

    Each round draws a Haar-random pure state, a random mixed state, and pure
    and mixed bipartite states with a memory of the chain's own dimension.
    Rounds are drawn and then evaluated together, ``SPOT_BLOCK`` at a time.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng([seed, 4])
    d, n = chain.dim, len(chain)
    bras = _stacked_bras(chain)
    deutsch, mu = deutsch_multi_bound(chain), mu_multi_bound(chain)
    pairs = [mu_two_bound(chain[m], chain[m + 1]) for m in range(n - 1)]  # -log2 c(M_m, M_m+1)
    weighted = weighted_bound(*chain) if n == 3 else None
    worst: dict = {}
    for start in range(0, samples, SPOT_BLOCK):
        rhos, joints = [], []  # pure states at even indices
        for _ in range(min(SPOT_BLOCK, samples - start)):
            psi, mixed = _haar_vector(rng, d), random_density_matrix(d, int(rng.integers(1, d + 1)), rng)
            phi = _haar_vector(rng, d * d)
            mixed_ab = random_density_matrix(d * d, int(rng.integers(1, d * d + 1)), rng)
            rhos += [np.outer(psi, psi.conj()), mixed.matrix]
            joints += [np.outer(phi, phi.conj()), mixed_ab.matrix]
        rhos, joints = np.array(rhos), np.array(joints)
        probs = _born_probabilities(bras, rhos).reshape(-1, n, d)
        hs = _entropy_rows(probs, (1.0,))  # (states, N) Shannon entropies
        h, s = sum(hs.T), _entropy_rows(_spectra(rhos), (1.0,))
        beta = _push_weights(chain, probs[:, 0])  # chain weights on the last basis
        sigmas = _mixture(chain[n - 1].vectors, beta / beta.sum(axis=-1, keepdims=True))
        gaps = {
            BoundName.DEUTSCH_MULTI: sum(_entropy_rows(probs, (math.inf,)).T) - deutsch,
            BoundName.MU_MULTI: h - (mu + (n - 1) * s),
            BoundName.STATE_DEPENDENT: h - (n * s + _relative_entropies(rhos, sigmas)),
            BoundName.SCB_MAX: h - _scb_max(chain.overlaps, s),
            BoundName.MU_TWO: hs[:, 0] + hs[:, 1] - (pairs[0] + s),
        }
        if n == 3:
            lhs = sum(w * hm for w, hm in zip(WEIGHTED_WEIGHTS, hs.T))
            gaps[BoundName.WEIGHTED] = lhs - (weighted + 2.0 * s)

        s_ab, hc = _memory_entropies(joints, d, d, bras)
        hc_sum = sum(hc.T)
        gaps[BoundName.MEMORY_MULTI] = hc_sum - (mu + (n - 1) * s_ab)
        gaps[BoundName.MEMORY_PURE] = (hc_sum - (mu + s_ab))[0::2]  # the pure joint draws
        berta = [hc[:, m] + hc[:, m + 1] - (s_ab + pairs[m]) for m in range(n - 1)]
        gaps[BoundName.BERTA_TWO] = np.array(berta)
        for name, gap in gaps.items():
            worst[name] = min(worst.get(name, math.inf), float(gap.min()))
    return worst
