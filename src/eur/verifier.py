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

The spot checks draw a block of random states, then evaluate it at once: one
product for the outcome distributions, one stacked eigendecomposition per kind
of state and per reduced state, and the state-free bound terms once per call.

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
    _push_weights,
    _scb_terms,
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
    Rounds are drawn and then evaluated together, ``SPOT_BLOCK`` at a time.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng([seed, 4])
    d, n = chain.dim, len(chain)
    bras = _stacked_bras(chain)
    deutsch, mu = deutsch_multi_bound(chain), mu_multi_bound(chain)
    scb_pair, scb_cycle = _scb_terms(chain)
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
            BoundName.SCB_MAX: h - np.maximum(scb_pair + s, scb_cycle + 0.5 * n * s),
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
