"""Nelder-Mead from many start points at once, step for step scipy's.

The verifier's multistart runs all its restarts through ``_nelder_mead`` as one
batch; the search knows nothing of states or entropies, only a batched objective.
Its arrays are small, so the loop calls ufunc reductions and array methods directly
(``np.maximum.reduce``, ``m.nonzero()``), not numpy's Python-level wrappers of them.
"""

from __future__ import annotations

import numpy as np

_XATOL = 1e-8  # the simplex spread at convergence
_FATOL = 1e-10  # the spread of the simplex's values at convergence
# (a, b) of the trial point a * xbar - b * worst: expansion, outside and inside contraction
_TRIAL_STEPS = np.array([[3.0, 2.0], [1.5, 0.5], [0.5, -0.5]])


def _nelder_mead(objective, x0: np.ndarray, max_iterations: int):
    """Nelder-Mead from every row of the (R, n) array ``x0`` at once.

    Step for step scipy's ``_minimize_neldermead`` with its default options
    (coefficients 1, 2, 0.5, 0.5; each start coordinate x gives a vertex with
    x * 1.05, or 0.00025 in place of a zero), ``_XATOL`` and ``_FATOL`` as the
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
    # the simplices vertex-major, (n + 1, R, n): vertex v of every restart is one block sim[v]
    sim = np.repeat(x0[None], n + 1, axis=0)
    k = np.arange(n)
    sim[k + 1, :, k] = np.where(x0 != 0, 1.05 * x0, 0.00025).T
    fsim = np.full((r, n + 1), np.inf)
    m = min(n + 1, max_iterations)
    fsim[:, :m] = objective(sim[:m].swapaxes(0, 1).reshape(r * m, n)).reshape(r, m)
    nfev = np.full(r, m)
    if n == 0:  # the one point of an empty search space: evaluated, and converged
        return sim[0], fsim[:, 0], nfev, np.ones(r, dtype=bool)
    cols, j = np.arange(r), np.arange(1, n + 1)
    for _ in range(2):  # scipy sorts the initial simplex twice; an unstable sort may reorder ties
        order = fsim.argsort(axis=-1)
        sim, fsim = sim[order.T, cols], fsim[cols[:, None], order]
    x, fun, success = np.empty((r, n)), np.empty(r), np.zeros(r, dtype=bool)
    # The working set: the restarts still running (live, in increasing order), their sorted
    # simplices, values and evaluation counts, updated in place and compacted when some stop.
    # scipy's iteration limit never binds before its evaluation limit of the same size, as
    # every iteration takes at least one evaluation, so no iteration count is kept.
    live, s, f, nf = cols, sim, fsim, nfev.copy()
    while True:
        going = nf < max_iterations
        # f is sorted, so its spread max |f[0] - f[i]| is f[-1] - f[0]
        close = (going & (f[:, -1] - f[:, 0] <= _FATOL)).nonzero()[0]
        if close.size:
            converged = close[np.maximum.reduce(np.abs(s[1:, close] - s[:1, close]), axis=(0, 2)) <= _XATOL]
            going[converged] = False
            success[live[converged]] = True
        if not np.logical_and.reduce(going):
            stop = live[~going]
            x[stop], fun[stop], nfev[stop] = s[0, ~going], np.minimum.reduce(f[~going], axis=1), nf[~going]
            live, s, f, nf = live[going], s[:, going], f[going], nf[going]
            if not live.size:
                return x, fun, nfev, success
            cols = cols[: live.size]
        xbar = np.add.reduce(s[:-1], 0) / n
        worst = s[-1]
        xr = 2 * xbar - worst
        fxr = objective(xr)
        expand = fxr < f[:, 0]
        accept = ~expand & (fxr < f[:, -2])
        # each row's expansion (kind 0), outside (1) or inside (2) contraction point, evaluated for
        # the rows that neither accept the reflection nor run out of evaluations with it; a row
        # without the budget stops here, its simplex unchanged
        kind = np.where(expand, 0, 2 - (fxr < f[:, -1]))
        steps = _TRIAL_STEPS[kind]
        trial = steps[:, :1] * xbar - steps[:, 1:] * worst
        tried = ~accept & (nf < max_iterations - 1)
        ftrial = np.full(len(f), np.nan)  # nan compares false: the untried rows take nothing
        if np.logical_or.reduce(tried):
            ftrial[tried] = objective(trial[tried])
        # the trial point replaces the worst vertex if below the reflection (expansion), not above
        # it (outside contraction), or below the worst vertex (inside contraction)
        bar = np.where(kind == 2, f[:, -1], fxr)
        take = (ftrial < bar) | ((kind == 1) & (ftrial == bar))
        replace = take | accept | (expand & tried)
        s[-1] = np.where(take[:, None], trial, np.where(replace[:, None], xr, worst))
        f[:, -1] = np.where(take, ftrial, np.where(replace, fxr, f[:, -1]))
        nf += 1 + tried
        shrink = (tried & ~replace).nonzero()[0]
        if shrink.size:
            # vertex j moves if j <= budget + 1 and is evaluated if j <= budget
            ss, fs, budget = s[:, shrink], f[shrink], max_iterations - nf[shrink]
            moved = ss[:1] + 0.5 * (ss[1:] - ss[:1])
            ss[1:] = np.where((j[:, None] <= budget + 1)[..., None], moved, ss[1:])
            evaluated = j <= budget[:, None]
            fs[:, 1:][evaluated] = objective(ss[1:].swapaxes(0, 1)[evaluated])  # restart by restart
            s[:, shrink], f[shrink] = ss, fs
            nf[shrink] += np.add.reduce(evaluated, axis=1)
        order = f.argsort(axis=-1)
        s, f = s[order.T, cols], f[cols[:, None], order]
