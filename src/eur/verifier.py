"""Brute-force certification of the bounds by entropy-sum minimization.

Pure states are parameterized by 2d - 2 real numbers (hyperspherical moduli
angles plus relative phases), the objective is minimized with multi-start
Nelder-Mead from Haar-random starting points, and the gap between the best
minimum found and each applicable bound is reported as a slack.  Slacks more
negative than the certification tolerance mean a bound is violated.

The objectives skip input validation: the Renyi orders are checked once, up
front, and each evaluation is one product of the stacked bases with the state
followed by one call of the row-entropy kernel ``entropy._entropy_rows``.  The
memory-mode objective builds no state objects: for a pure joint state
H(M|B) = H(M) - S(rho_B), with S(rho_B) from the Schmidt coefficients.

The optimizer, ``scipy.optimize.minimize``, is imported on first use by the
module ``__getattr__`` and then kept as the module attribute ``minimize``, so
importing the package does not load scipy and the attribute can be replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    BoundName,
    berta_two_bound,
    deutsch_multi_bound,
    memory_multi_bound,
    memory_pure_bound,
    mu_multi_bound,
    mu_multi_bound_with_state,
    mu_two_bound,
    scb_max_bound,
    state_dependent_bound,
    weighted_bound,
)
from .core import BipartiteState, DensityMatrix, MeasurementChain, PureState, outcome_distribution
from .entropy import _entropy_rows, measured_conditional_entropy, renyi_entropy, shannon_entropy
from .generators import random_density_matrix

CERTIFICATION_TOL = 1e-6
GRADIENT_STEP = 1e-5
MIXED_SPOT_SAMPLES = 50
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


def __getattr__(name: str):
    """PEP 562 hook: import scipy's ``minimize`` on first access and keep it as a global."""
    if name == "minimize":
        from scipy.optimize import minimize

        globals()["minimize"] = minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    thetas, phis = x[: dim - 1], x[dim - 1 :]
    # amps[k] = sin(theta_0) ... sin(theta_{k-1}) cos(theta_k), the last one without the cosine
    amps = np.ones(dim)
    amps[1:] = np.cumprod(np.sin(thetas))
    amps[:-1] *= np.cos(thetas)
    psi = amps.astype(complex)
    psi[1:] *= np.exp(1j * phis)
    return psi / np.linalg.norm(psi)


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


def _multistart(objective, dim: int, config: MinimizationConfig, stream: int):
    minimize = globals().get("minimize") or __getattr__("minimize")
    rng = np.random.default_rng([config.seed, stream])
    best = None
    converged = 0
    for _ in range(config.restarts):
        x0 = _angles_from_state(_haar_vector(rng, dim))
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": config.max_iterations,
                "maxfev": config.max_iterations,
                "fatol": config.tol,
                "xatol": 1e-8,
            },
        )
        if res.success:
            converged += 1
        if best is None or res.fun < best.fun:
            best = res
    return best, converged


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
        probs = np.abs(bras @ _state_from_angles(x, dim)) ** 2
        h = _entropy_rows(probs.reshape(n, dim), ords).tolist()
        return sum(w * hm for w, hm in zip(weights, h))

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
    shannon = [1.0] * n

    def objective(x):
        amps = _state_from_angles(x, total).reshape(da, dim_b)
        probs = (np.abs(bras @ amps) ** 2).sum(axis=1).reshape(n, da)
        schmidt = np.linalg.svd(amps, compute_uv=False) ** 2
        s_b = _entropy_rows(schmidt[None, :], (1.0,))[0]
        return float(_entropy_rows(probs, shannon).sum() - n * s_b)

    return objective


def minimize_entropy_sum(
    chain: MeasurementChain,
    orders=1.0,
    config: MinimizationConfig = MinimizationConfig(),
) -> VerificationResult:
    """Minimize the entropy sum over pure states and report bound slacks.

    Pure states suffice: each term is concave in rho, so the minimum over the
    convex set of density matrices sits at an extreme point.  With all orders
    infinite the slack is taken against the Deutsch-type bound, with all
    orders 1 against the Shannon-sum bounds (plus, for N = 3, the weighted
    bound via its own doubled-third-term objective); any other mix is checked
    against the Deutsch-type bound, which Renyi monotonicity keeps valid.
    """
    ords = _broadcast_orders(orders, len(chain))
    objective = _pure_objective(chain, ords, [1.0] * len(chain))
    best, converged = _multistart(objective, chain.dim, config, stream=0)
    psi = PureState(_state_from_angles(best.x, chain.dim))
    value = float(best.fun)

    slacks = {}
    if all(a == 1.0 for a in ords):
        slacks[BoundName.MU_MULTI] = value - mu_multi_bound(chain)
        slacks[BoundName.SCB_MAX] = value - scb_max_bound(chain)
        slacks[BoundName.STATE_DEPENDENT] = value - state_dependent_bound(chain, psi.projector())
        if len(chain) == 3:
            weighted = _pure_objective(chain, ords, WEIGHTED_WEIGHTS)
            w_best, w_conv = _multistart(weighted, chain.dim, config, stream=1)
            slacks[BoundName.WEIGHTED] = float(w_best.fun) - weighted_bound(chain[0], chain[1], chain[2])
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
    best, converged = _multistart(_memory_objective(chain, dim_b), total, config, stream=2)
    rho_best = BipartiteState.from_pure(_state_from_angles(best.x, total), da, dim_b)
    value = float(best.fun)

    slacks = {
        BoundName.MEMORY_MULTI: value - memory_multi_bound(chain, rho_best),
        BoundName.MEMORY_PURE: value - memory_pure_bound(chain, rho_best),
    }
    rng = np.random.default_rng([config.seed, 3])
    for _ in range(MIXED_SPOT_SAMPLES):
        rank = int(rng.integers(1, total + 1))
        rho = BipartiteState(random_density_matrix(total, rank, rng), da, dim_b)
        gap = sum(measured_conditional_entropy(b, rho) for b in chain) - memory_multi_bound(chain, rho)
        slacks[BoundName.MEMORY_MULTI] = min(slacks[BoundName.MEMORY_MULTI], gap)

    certified = converged >= 1 and all(s >= -CERTIFICATION_TOL for s in slacks.values())
    return VerificationResult(value, rho_best, slacks, certified, converged)


def minimizer_gradient_max(chain: MeasurementChain, psi: PureState, orders=1.0) -> float:
    """Largest central-difference gradient component of the objective at psi, step ``GRADIENT_STEP``."""
    ords = _broadcast_orders(orders, len(chain))
    objective = _pure_objective(chain, ords, [1.0] * len(chain))
    x = _angles_from_state(psi.amplitudes)
    worst = 0.0
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = GRADIENT_STEP
        worst = max(worst, abs(objective(x + e) - objective(x - e)) / (2.0 * GRADIENT_STEP))
    return worst


def spot_check_inequalities(chain: MeasurementChain, samples: int = 200, seed: int = 0) -> dict:
    """Evaluate every inequality on random states; return the worst slack per bound.

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
        pure = PureState(_haar_vector(rng, d)).projector()
        mixed = random_density_matrix(d, int(rng.integers(1, d + 1)), rng)
        for rho in (pure, mixed):
            probs = [outcome_distribution(b, rho) for b in chain]
            h = [shannon_entropy(p) for p in probs]
            h_min = [renyi_entropy(p, math.inf) for p in probs]
            update(BoundName.DEUTSCH_MULTI, sum(h_min) - deutsch_multi_bound(chain))
            update(BoundName.MU_MULTI, sum(h) - mu_multi_bound_with_state(chain, rho))
            update(BoundName.STATE_DEPENDENT, sum(h) - state_dependent_bound(chain, rho))
            update(BoundName.SCB_MAX, sum(h) - scb_max_bound(chain, rho))
            update(BoundName.MU_TWO, h[0] + h[1] - mu_two_bound(chain[0], chain[1], rho))
            if n == 3:
                lhs = sum(w * hm for w, hm in zip(WEIGHTED_WEIGHTS, h))
                update(BoundName.WEIGHTED, lhs - weighted_bound(*chain, rho))

        pure_ab = BipartiteState.from_pure(_haar_vector(rng, d * d), d, d)
        mixed_ab = BipartiteState(random_density_matrix(d * d, int(rng.integers(1, d * d + 1)), rng), d, d)
        for rho_ab, is_pure in ((pure_ab, True), (mixed_ab, False)):
            hc = [measured_conditional_entropy(b, rho_ab) for b in chain]
            update(BoundName.MEMORY_MULTI, sum(hc) - memory_multi_bound(chain, rho_ab))
            if is_pure:
                update(BoundName.MEMORY_PURE, sum(hc) - memory_pure_bound(chain, rho_ab))
            for m in range(n - 1):
                update(
                    BoundName.BERTA_TWO,
                    hc[m] + hc[m + 1] - berta_two_bound(chain[m], chain[m + 1], rho_ab),
                )
    return worst
