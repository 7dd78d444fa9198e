"""Brute-force certification of the bounds by entropy-sum minimization.

Pure states are parameterized by 2d - 2 real numbers (hyperspherical moduli
angles plus relative phases), the objective is minimized with multi-start
Nelder-Mead from Haar-random starting points, and the gap between the best
minimum found and each applicable bound is reported as a slack.  Slacks more
negative than the certification tolerance mean a bound is violated: a result
is certified when at least one restart converged and no slack is below
``-CERTIFICATION_TOL`` (``eur verify`` holds the spot checks to the same rule).
The tolerance, 1e-12, absorbs only the rounding of the entropy and bound
arithmetic: it is about 100 times the largest |slack| measured where a bound is
attained (1.07e-14, on the d = 7 MUB set with a d_B = 7 memory), so a bound
raised by 1e-9 where it is tight fails.
Each restart may spend max(2000, 200 n) objective evaluations on n angles,
the larger of a fixed 2000 and scipy's Nelder-Mead default, per run; a restart
that has not converged is run again from where it stopped, up to
``RESTART_PASSES`` runs in all, and counts as converged if any run converged.

Memory mode with d_B >= d_A needs no search.  H(M|B) >= 0 for a measured outcome,
and the maximally entangled state Phi on A and the first d_A levels of B makes
every term 0, so Phi is an exact minimizer.  ``config.restarts`` is unused there:
the result counts one start, which converged (``converged restarts: 1/1``).

All restarts run together in one batched Nelder-Mead,
``neldermead._nelder_mead``, which follows scipy's ``_minimize_neldermead``
step for step on a stack of simplices (scipy itself is not used).  Each
iteration evaluates the restarts still running in at most three calls: the
reflections, then the expansion or contraction points, then the vertices of
the simplices that shrink.

The objectives take a (k, 2d - 2) batch of angles and skip input validation:
the Renyi orders are checked once, up front, and each call builds the states
from one cosine and one sine of all angles, takes one product with the stacked
bases and then the row-entropy kernel ``entropy._entropy_rows``.  The
memory-mode objective builds no state objects: for a pure joint state
H(M|B) = H(M) - S(rho_B), with S(rho_B) from the ``eigvalsh`` spectrum of the
smaller Gram matrix of the amplitude matrix.

The spot checks (drawn and evaluated a block at a time, the last block carrying three
fixed states where the bounds are attained: I/d, Phi and I/d (x) I/d on d x d), memory mode's
mixed samples and the minimizers' slacks read every bound's left-hand side and
value from the gap kernels ``bounds._state_gaps`` and ``bounds._memory_gaps``.  A spot-check
round reads its random stream in four generator calls, and the mixed states of a block, like
the 50 mixed samples, take their G G^dagger from one stacked product per rank
(``generators._gaussian_gram``), each with the bits of its own draw.

The spot checks are independent of the minimizers: they draw from their own
random stream and read nothing the minimizers compute.  ``eur verify`` runs
them after the minimizer, in the same process.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import WEIGHTED_WEIGHTS, BoundName, _memory_gaps, _state_gaps
from .core import BipartiteState, DensityMatrix, MeasurementChain, PureState, _Record, outcome_distribution
from .entropy import _entropy_rows, renyi_entropy
from .generators import _entangled, _gaussian_gram, _unit_trace
from .neldermead import _nelder_mead

CERTIFICATION_TOL = 1e-12
MIXED_SPOT_SAMPLES = 50
RESTART_PASSES = 5  # Nelder-Mead runs per restart at most: the first, then resumptions of the unconverged
SPOT_BLOCK = 64  # spot-check rounds evaluated together; caps the size of the batch arrays


class MinimizationConfig(_Record):
    def __init__(self, restarts: int = 64, seed: int = 0):
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
        super().__init__(restarts=restarts, seed=seed)


def _slacks_hold(slacks: dict) -> bool:
    """No slack below ``-CERTIFICATION_TOL``."""
    return all(s >= -CERTIFICATION_TOL for s in slacks.values())


class VerificationResult(_Record):
    def __init__(self, objective_min: float, minimizer, slack_per_bound: dict, converged_restarts: int,
                 restarts: int):
        super().__init__(objective_min=objective_min, minimizer=minimizer,  # PureState or BipartiteState
                         slack_per_bound=slack_per_bound, converged_restarts=converged_restarts,
                         restarts=restarts)  # the starts that ran: config.restarts, or 1 for an exact minimum

    @property
    def certified(self) -> bool:
        """At least one restart converged and every slack holds."""
        return self.converged_restarts >= 1 and _slacks_hold(self.slack_per_bound)


def _budget(n: int) -> int:
    """Objective evaluations per restart of an n-dimensional search: 2000, or scipy's
    Nelder-Mead default of 200 per variable where that is larger (n > 10)."""
    return max(2000, 200 * n)


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
    """The state vector of each row of the (..., 2 dim - 2) array of angles ``x``.

    The moduli are amps[k] = sin(theta_0) ... sin(theta_{k-1}) cos(theta_k), the last one
    without the cosine, and amplitude k > 0 carries the phase phi_k.  The parts are written in
    place from one ``cos`` and one ``sin`` of all angles: the same bits as the product of the
    real moduli with ``exp(1j * phi)``, whose parts are that cosine and sine.
    """
    k = dim - 1
    c, s = np.cos(x), np.sin(x)
    psi = np.empty(x.shape[:-1] + (dim,), dtype=complex)
    re, im = psi.real, psi.imag
    re[..., 0], im[..., 0] = 1.0, 0.0
    np.multiply.accumulate(s[..., :k], axis=-1, out=re[..., 1:])
    re[..., :-1] *= c[..., :k]
    np.multiply(re[..., 1:], s[..., k:], out=im[..., 1:])
    re[..., 1:] *= c[..., k:]
    # np.linalg.norm's sum of squared moduli, without its argument handling
    psi /= np.sqrt(np.add.reduce((psi.conj() * psi).real, axis=-1, keepdims=True))
    return psi


def _angles_from_state(psi: np.ndarray) -> np.ndarray:
    """Angles of each state vector of the (..., dim) array ``psi``, up to its global phase.

    The phases are taken for all rows at once; the moduli angles run through ``math``'s
    ``acos`` and ``sin`` one row at a time, as numpy's vectorized pair rounds differently.
    """
    psi = np.asarray(psi, dtype=complex)
    rows = psi.reshape(-1, psi.shape[-1])
    dim = rows.shape[1]
    anchor = np.argmax(np.abs(rows), axis=-1)
    rows = rows * np.exp(-1j * np.angle(rows[np.arange(len(rows)), anchor]))[:, None]
    lead = np.abs(rows[:, :1]) > 1e-12
    rows = np.where(lead, rows * np.exp(-1j * np.angle(rows[:, :1])), rows)
    thetas = np.empty((len(rows), dim - 1))
    for r, theta in zip(np.abs(rows).tolist(), thetas):
        s = 1.0
        for k in range(dim - 1):
            c = r[k] / s if s > 1e-15 else 1.0
            theta[k] = math.acos(min(1.0, max(-1.0, c)))
            s *= math.sin(theta[k])
    return np.concatenate([thetas, np.angle(rows[:, 1:])], axis=1).reshape(psi.shape[:-1] + (2 * dim - 2,))


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """Each row of the complex (..., dim) array ``z`` over its norm, in ``np.linalg.norm``'s bits:
    the sum of two BLAS dot products, here row by row as (1, dim) @ (dim, 1) products."""
    re, im = z.real[..., None, :], z.imag[..., None, :]
    return z / np.sqrt(re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0]


def _best_restart(objective, dim: int, config: MinimizationConfig, stream: int):
    """Angles and value of the first lowest of ``config.restarts`` batched Nelder-Mead restarts from
    Haar-random states of random stream ``stream``, and the number of restarts that converged."""
    # one complex Gaussian per restart, a Haar-random state before its norm: real, then imaginary part
    z = np.random.default_rng([config.seed, stream]).standard_normal((config.restarts, 2, dim))
    x = _angles_from_state(_unit_rows(z[:, 0] + 1j * z[:, 1]))
    fun, success = np.empty(len(x)), np.zeros(len(x), dtype=bool)
    for _ in range(RESTART_PASSES):  # each pass resumes the unconverged restarts from where they stopped
        redo = np.flatnonzero(~success)
        if not redo.size:
            break
        x[redo], fun[redo], _, success[redo] = _nelder_mead(objective, x[redo], _budget(x.shape[1]))
    best = int(np.argmin(fun))
    return x[best], float(fun[best]), int(success.sum())


def entropy_sum(chain: MeasurementChain, rho: DensityMatrix, orders=1.0) -> float:
    """Sum of Renyi entropies of the chain's outcome distributions on rho."""
    ords = _broadcast_orders(orders, len(chain))
    return sum(renyi_entropy(outcome_distribution(b, rho), a) for b, a in zip(chain, ords))


def _pure_objective(chain: MeasurementChain, ords: list[float], weights: list[float]):
    """Weighted entropy sum sum_m weights[m] H_{ords[m]}(M_m) as a function of the state angles.

    The orders were validated by ``_broadcast_orders``; each evaluation is one
    product with the stacked bases and one call of the row-entropy kernel.  A lone
    row is multiplied as two copies of itself: BLAS takes its matrix-vector path for
    one row, which rounds differently from a batch's, and a restart's value would
    then depend on which other restarts share its evaluations.
    """
    bras = chain.bras
    n, dim = len(chain), chain.dim
    weights = np.array(weights, dtype=float)

    def objective(x):
        psi = _state_from_angles(x, dim)
        amps = (np.concatenate([psi, psi]) @ bras.T)[:1] if len(psi) == 1 else psi @ bras.T
        probs = np.abs(amps) ** 2
        return np.add.reduce(_entropy_rows(probs.reshape(-1, n, dim), ords) * weights, axis=-1)

    return objective


def _memory_objective(chain: MeasurementChain, dim_b: int):
    """sum_m H(M_m|B) as a function of the angles of a pure state on A x B.

    For a pure joint state the measured outcome and the memory's post-measurement
    state form a classical-pure mixture, so H(M|B) = H(M) - S(rho_B).  rho_B has the
    nonzero spectrum of rho_A; S(rho_B) is taken from the ``eigvalsh`` spectrum of the
    smaller of the two Gram matrices of the (d_A, d_B) amplitude matrix.
    """
    bras = chain.bras
    n, da = len(chain), chain.dim
    total = da * dim_b

    def objective(x):
        amps = _state_from_angles(x, total).reshape(-1, da, dim_b)
        probs = np.add.reduce(np.abs(bras @ amps) ** 2, axis=-1).reshape(-1, n, da)
        adj = np.swapaxes(amps.conj(), -1, -2)
        gram = adj @ amps if dim_b <= da else amps @ adj
        s_b = _entropy_rows(np.linalg.eigvalsh(gram), (1.0,))
        return np.add.reduce(_entropy_rows(probs, (1.0,)), axis=-1) - n * s_b

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
    gaps = _state_gaps(chain, psi.projector().matrix[None])
    shannon = all(a == 1.0 for a in ords)
    names = ((BoundName.MU_MULTI, BoundName.SCB_MAX, BoundName.STATE_DEPENDENT) if shannon
             else (BoundName.DEUTSCH_MULTI,))
    slacks = {name: value - float(gaps[name][1][0]) for name in names}  # objective_min - bound at the minimizer
    if shannon and len(chain) == 3:
        weighted = _pure_objective(chain, ords, WEIGHTED_WEIGHTS)
        w_x, w_value, w_conv = _best_restart(weighted, chain.dim, config, stream=1)
        w_rho = PureState(_state_from_angles(w_x, chain.dim)).projector().matrix[None]
        slacks[BoundName.WEIGHTED] = w_value - float(_state_gaps(chain, w_rho)[BoundName.WEIGHTED][1][0])
        converged = min(converged, w_conv)
    return VerificationResult(value, psi, slacks, converged, config.restarts)


def minimize_conditional_entropy_sum(
    chain: MeasurementChain,
    dim_b: int,
    config: MinimizationConfig = MinimizationConfig(),
) -> VerificationResult:
    """Minimize sum_m H(M_m|B) over pure bipartite states with a dim_b memory.

    With dim_b >= d_A the minimum is exactly 0, at Phi (``_entangled``): no search
    runs, ``config.restarts`` is unused, and the result counts one converged start.
    Below that the pure states are searched.  Slacks are taken against the memory
    bounds at the minimizer; random mixed joint states are spot-checked against
    the general memory bound and the worst case is folded into its slack.
    """
    if dim_b < 1:
        raise ValueError(f"dim_b must be positive, got {dim_b}")
    da = chain.dim
    total = da * dim_b
    if dim_b >= da:  # the exact minimum, at Phi: no search; the value is read at Phi below
        rho_best, value, converged, restarts = _entangled(da, dim_b), None, 1, 1
    else:
        x, value, converged = _best_restart(_memory_objective(chain, dim_b), total, config, stream=2)
        rho_best, restarts = BipartiteState.from_pure(_state_from_angles(x, total), da, dim_b), config.restarts
    rng = np.random.default_rng([config.seed, 3])
    # a rank, then the factor's normals: random_density_matrix's draws
    draws = [rng.standard_normal(2 * total * int(rng.integers(1, total + 1))) for _ in range(MIXED_SPOT_SAMPLES)]
    mixed = _unit_trace(_gaussian_gram(total, draws))
    # row 0 is the minimizer, the other rows the mixed samples
    gaps = _memory_gaps(chain, np.concatenate([rho_best.matrix[None], mixed]), dim_b)
    lhs, bound = gaps[BoundName.MEMORY_MULTI]
    value = float(lhs[0]) if value is None else value
    slacks = {BoundName.MEMORY_MULTI: min(value - float(bound[0]), float((lhs - bound)[1:].min())),
              BoundName.MEMORY_PURE: value - float(gaps[BoundName.MEMORY_PURE][1][0])}
    return VerificationResult(value, rho_best, slacks, converged, restarts)


def _spot_states(rng: np.random.Generator, d: int, count: int):
    """The states of ``count`` spot-check rounds: a (2 count, d, d) and a (2 count, d^2, d^2)
    stack, pure states at even indices and mixed ones at odd.

    Each round draws a Haar-random pure state and a random mixed state on d levels, then both
    on d x d, from the normals of a complex Gaussian ket (real, then imaginary part) and of
    ``random_density_matrix``, in that order.  As ``standard_normal(n)`` gives the values of
    consecutive smaller calls, a round makes four random calls: the rank, the normals of the
    factor and of the joint ket, the joint rank, and the normals of the joint factor and of the
    next round's ket (the first ket is drawn before the loop, the last round draws no next one).
    The G G^dagger products (one stacked product per rank), the normalizations and the projectors
    then run once per block, with the bits of the per-state draws.
    """
    dd = d * d
    rounds = []
    ket = rng.standard_normal(2 * d)
    for i in range(count):
        cut = 2 * d * int(rng.integers(1, d + 1))
        z = rng.standard_normal(cut + 2 * dd)
        cut_ab = 2 * dd * int(rng.integers(1, dd + 1))
        z_ab = rng.standard_normal(cut_ab + 2 * d * (i + 1 < count))
        rounds.append((ket, z[:cut], z[cut:], z_ab[:cut_ab]))
        ket = z_ab[cut_ab:]
    kets, draws, kets_ab, draws_ab = zip(*rounds)
    rhos, joints = np.empty((2 * count, d, d), complex), np.empty((2 * count, dd, dd), complex)
    for states, dim, normals, factors in ((rhos, d, kets, draws), (joints, dd, kets_ab, draws_ab)):
        z = np.array(normals)
        pure = _unit_rows(z[:, :dim] + 1j * z[:, dim:])
        states[0::2] = pure[:, :, None] * pure.conj()[:, None, :]  # np.outer of each row
        states[1::2] = _unit_trace(_gaussian_gram(dim, factors))
    return rhos, joints


def _check_samples(samples: int) -> None:
    """Reject a spot check of fewer than one round."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


def spot_check_inequalities(chain: MeasurementChain, samples: int = 200, seed: int = 0) -> dict:
    """Evaluate every inequality on random states and on three fixed ones; return the worst slack
    per bound.

    Each round draws a Haar-random pure state, a random mixed state, and pure
    and mixed bipartite states with a memory of the chain's own dimension.
    Rounds are drawn and then evaluated together, ``SPOT_BLOCK`` at a time.
    The last block also carries the states where the bounds are attained,
    which random draws never reach: I/d, and on d x d the maximally entangled
    state (at an even, pure index) and I/d (x) I/d.
    """
    _check_samples(samples)
    rng = np.random.default_rng([seed, 4])
    d = chain.dim
    fixed = (np.eye(d)[None] / d, np.stack([_entangled(d, d).matrix, np.eye(d * d) / (d * d)]))
    worst: dict = {}
    for start in range(0, samples, SPOT_BLOCK):
        rhos, joints = _spot_states(rng, d, min(SPOT_BLOCK, samples - start))
        if start + SPOT_BLOCK >= samples:
            rhos, joints = np.concatenate([rhos, fixed[0]]), np.concatenate([joints, fixed[1]])
        for name, (lhs, bound) in {**_state_gaps(chain, rhos), **_memory_gaps(chain, joints, d)}.items():
            gap = (lhs - bound)[0::2] if name is BoundName.MEMORY_PURE else lhs - bound  # pure joints only
            worst[name] = min(worst.get(name, math.inf), float(gap.min()))
    return worst
