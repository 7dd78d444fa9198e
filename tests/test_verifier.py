import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import eur
from eur import verifier
from eur.bounds import BoundName
from eur.core import PureState, overlap_table
from eur.verifier import (
    SPOT_BLOCK,
    WEIGHTED_WEIGHTS,
    _angles_from_state,
    _memory_objective,
    _nelder_mead,
    _pure_objective,
    _spot_states,
    _state_from_angles,
)
from helpers import (
    loop_angles_from_state,
    loop_haar_vector,
    loop_mixed_memory_gap,
    loop_spot_check_inequalities,
    loop_state_from_angles,
    mub_chain,
    nelder_mead_options,
    random_chain,
    scipy_restart_minimum,
    validated_memory_objective,
    validated_pure_objective,
)
import oracle
from scipy.optimize import minimize

DEUTSCH_MUB2_PAIR = 0.45689339367277615
OBJECTIVE_ATOL = 1e-13  # batched objectives against the validated loops; measured gaps stay below 1e-14

FAST = eur.MinimizationConfig(restarts=16, seed=0)


class TestAngleParameterization:
    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_round_trip(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(25):
            psi = loop_haar_vector(rng, dim)
            back = _state_from_angles(_angles_from_state(psi), dim)
            assert abs(np.vdot(back, psi)) == pytest.approx(1.0, abs=1e-10)

    def test_output_normalized(self):
        rng = np.random.default_rng(99)
        for dim in (2, 5):
            x = rng.uniform(-3, 3, size=2 * dim - 2)
            psi = _state_from_angles(x, dim)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_batch_matches_one_vector_at_a_time(self):
        """Rows of a batch, basis states and states with a zero first amplitude included, give the
        bits of the one-vector loop."""
        rng = np.random.default_rng(98)
        for dim in range(1, 8):
            psi = np.array([loop_haar_vector(rng, dim) for _ in range(40)] + list(np.eye(dim, dtype=complex)))
            psi[3, 0] = 0.0
            got = _angles_from_state(psi)
            assert got.shape == (len(psi), 2 * dim - 2)
            np.testing.assert_array_equal(got, [loop_angles_from_state(p) for p in psi])
            np.testing.assert_array_equal(_angles_from_state(psi[5]), got[5])

    def test_basis_states(self):
        # deterministic states sit at the parameterization's corners
        e0 = _angles_from_state(np.array([1.0, 0.0, 0.0], dtype=complex))
        assert_allclose(_state_from_angles(e0, 3), [1.0, 0.0, 0.0], atol=1e-12)


class TestObjectiveKernels:
    """The validation-free objectives against the validated, basis-by-basis loops they replace."""

    def test_state_from_angles_matches_loop(self):
        """Every row of a batch against the one-modulus-at-a-time loop.  The batch normalizes each
        row with its own sum of squares, not the loop's BLAS dot, so the last bit may differ; a
        row gives the same bits alone as inside any batch."""
        rng = np.random.default_rng(11)
        for dim in range(2, 8):
            x = rng.uniform(-4.0, 4.0, size=(300, 2 * dim - 2))
            rows = _state_from_angles(x, dim)
            assert_allclose(rows, [loop_state_from_angles(r, dim) for r in x], rtol=0, atol=1e-15)
            for r, row in zip(x, rows):
                np.testing.assert_array_equal(_state_from_angles(r, dim), row)

    @staticmethod
    def _points(chain, rng, count=15):
        """Random angles plus the angles of every vector of the first basis, whose
        outcome distributions in that basis hold entries below the log cutoff."""
        dim = chain.dim
        points = [rng.uniform(-4.0, 4.0, size=2 * dim - 2) for _ in range(count)]
        return np.array(points + [_angles_from_state(v) for v in chain[0].vectors])

    @staticmethod
    def _assert_matches(objective, points, oracle):
        """One batched call against the validated loop, point by point.  The batch multiplies all
        states with the stacked bases at once, so values agree to rounding, not bit for bit."""
        values = objective(points)
        assert values.shape == (len(points),)
        assert_allclose(values, [oracle(x) for x in points], rtol=0, atol=OBJECTIVE_ATOL)

    @pytest.mark.parametrize(
        "orders",
        [
            [1.0, 1.0],
            [1.0, 1.0, 1.0],
            [math.inf, math.inf],
            [math.inf, math.inf, math.inf],
            [2.0, 2.0],
            [0.5, 0.5, 0.5],
            [1.0, math.inf],
            [math.inf, 1.0, 2.0],
            [0.5, 1.0, math.inf],
        ],
    )
    def test_pure_objective_matches_renyi_sum(self, orders):
        rng = np.random.default_rng(12)
        n = len(orders)
        for dim in range(2, 8):
            chain = random_chain(dim, n, seed=40 + dim)
            objective = _pure_objective(chain, orders, [1.0] * n)
            self._assert_matches(
                objective, self._points(chain, rng), lambda x: validated_pure_objective(chain, x, orders, [1.0] * n)
            )

    def test_pure_objective_column_major_bases(self):
        """``random_basis`` builds its vectors as a column-major (transposed QR) array;
        ``MeasurementBasis`` stores every basis row-major, as it does bases read from a file."""
        rng = np.random.default_rng(15)
        for dim in (2, 3, 5, 8):
            chain = random_chain(dim, 3, seed=50 + dim)
            ones = [1.0] * 3
            objective = _pure_objective(chain, ones, ones)
            assert all(b.vectors.flags.c_contiguous for b in chain)
            self._assert_matches(
                objective, self._points(chain, rng), lambda x: validated_pure_objective(chain, x, ones, ones)
            )

    def test_weighted_objective_matches_renyi_sum(self):
        rng = np.random.default_rng(13)
        for dim in range(2, 8):
            chain = random_chain(dim, 3, seed=60 + dim)
            objective = _pure_objective(chain, [1.0] * 3, WEIGHTED_WEIGHTS)
            self._assert_matches(
                objective,
                self._points(chain, rng),
                lambda x: validated_pure_objective(chain, x, [1.0] * 3, WEIGHTED_WEIGHTS),
            )

    @pytest.mark.parametrize("dim_a,dim_b", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
    def test_memory_objective_matches_channel_sum(self, dim_a, dim_b):
        rng = np.random.default_rng(14)
        chain = random_chain(dim_a, 3, seed=80 + dim_a)
        objective = _memory_objective(chain, dim_b)
        total = dim_a * dim_b
        product = np.kron(loop_haar_vector(rng, dim_a), loop_haar_vector(rng, dim_b))
        entangled = np.zeros(total, dtype=complex)
        k = min(dim_a, dim_b)
        entangled[[i * dim_b + i for i in range(k)]] = 1.0 / math.sqrt(k)
        points = [rng.uniform(-4.0, 4.0, size=2 * total - 2) for _ in range(20)]
        points = np.array(points + [_angles_from_state(product), _angles_from_state(entangled)])
        values = objective(points)
        assert values.shape == (len(points),)
        for x, value in zip(points, values):
            assert abs(value - validated_memory_objective(chain, x, dim_b)) <= 1e-12


class TestEntropySum:
    def test_frozen_qubit_values(self):
        chain = mub_chain(2, 3)
        zero = PureState(np.array([1.0, 0.0])).projector()
        assert eur.entropy_sum(chain, zero) == pytest.approx(2.0, abs=1e-12)
        assert eur.entropy_sum(chain, zero, orders=math.inf) == pytest.approx(2.0, abs=1e-12)

    def test_per_basis_orders(self):
        chain = mub_chain(2, 2)
        mixed = eur.DensityMatrix(np.eye(2) / 2)
        assert eur.entropy_sum(chain, mixed, orders=[1.0, math.inf]) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_order_list_length_checked(self):
        with pytest.raises(ValueError, match="one Renyi order per basis"):
            eur.entropy_sum(mub_chain(2, 2), eur.DensityMatrix(np.eye(2) / 2), orders=[1.0])


class TestMinimizeEntropySum:
    def test_qubit_mub_triple_shannon(self):
        result = eur.minimize_entropy_sum(mub_chain(2, 3), orders=1.0, config=FAST)
        assert result.objective_min == pytest.approx(2.0, abs=1e-4)
        assert result.certified
        assert result.converged_restarts >= 1
        assert isinstance(result.minimizer, PureState)
        assert set(result.slack_per_bound) == {
            BoundName.MU_MULTI,
            BoundName.SCB_MAX,
            BoundName.STATE_DEPENDENT,
            BoundName.WEIGHTED,
        }
        assert all(s >= -1e-6 for s in result.slack_per_bound.values())

    def test_qubit_mub_pair_min_entropy(self):
        # the Deutsch-type bound is tight for this pair: the optimizer should
        # land on the halfway state and report (near) zero slack
        result = eur.minimize_entropy_sum(mub_chain(2, 2), orders=math.inf, config=FAST)
        assert result.objective_min == pytest.approx(DEUTSCH_MUB2_PAIR, abs=1e-6)
        assert set(result.slack_per_bound) == {BoundName.DEUTSCH_MULTI}
        assert result.slack_per_bound[BoundName.DEUTSCH_MULTI] == pytest.approx(0.0, abs=1e-6)
        assert result.certified

    def test_other_renyi_orders_checked_against_deutsch(self):
        result = eur.minimize_entropy_sum(mub_chain(2, 2), orders=2.0, config=FAST)
        assert set(result.slack_per_bound) == {BoundName.DEUTSCH_MULTI}
        assert result.slack_per_bound[BoundName.DEUTSCH_MULTI] >= -1e-6

    def test_reproducible(self):
        cfg = eur.MinimizationConfig(restarts=4, seed=7)
        a = eur.minimize_entropy_sum(mub_chain(2, 2), config=cfg)
        b = eur.minimize_entropy_sum(mub_chain(2, 2), config=cfg)
        assert a.objective_min == b.objective_min

    def test_random_chain_never_undersells_bounds(self):
        chain = random_chain(3, 3, seed=17)
        result = eur.minimize_entropy_sum(chain, config=eur.MinimizationConfig(restarts=8))
        assert all(s >= -1e-6 for s in result.slack_per_bound.values())

    @pytest.mark.parametrize("chain", [mub_chain(2, 2), mub_chain(3, 3), random_chain(3, 4, seed=2)])
    @pytest.mark.parametrize("orders", [1.0, math.inf])
    def test_slacks_are_the_public_bounds_at_the_minimizer(self, chain, orders):
        """Each slack is objective_min minus the oracle's bound at the minimizer's projector.
        WEIGHTED (N = 3) is taken at the minimizer of its own search, which the result does not hold."""
        result = eur.minimize_entropy_sum(chain, orders, config=eur.MinimizationConfig(restarts=4, seed=2))
        bound = oracle.state_bounds(chain, result.minimizer.projector().matrix)
        names = ["MU_MULTI", "SCB_MAX", "STATE_DEPENDENT"] if orders == 1.0 else ["DEUTSCH_MULTI"]
        public = {BoundName(name): bound[name] for name in names}
        slacks = dict(result.slack_per_bound)
        if orders == 1.0 and len(chain) == 3:
            assert slacks.pop(BoundName.WEIGHTED) >= -1e-9
        assert list(slacks) == list(public)
        for name, bound in public.items():
            assert abs(slacks[name] - (result.objective_min - bound)) <= 1e-12, name


class TestMinimizeConditionalEntropySum:
    def test_qubit_mub_pair_with_memory(self):
        # a maximally entangled memory drives H(U|B) + H(V|B) to zero
        result = eur.minimize_conditional_entropy_sum(mub_chain(2, 2), dim_b=2, config=FAST)
        assert result.objective_min == pytest.approx(0.0, abs=1e-5)
        assert result.certified
        assert set(result.slack_per_bound) == {BoundName.MEMORY_MULTI, BoundName.MEMORY_PURE}

    def test_trivial_memory_matches_plain_minimum(self):
        result = eur.minimize_conditional_entropy_sum(mub_chain(2, 2), dim_b=1, config=FAST)
        assert result.objective_min == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("dim_a,dim_b", [(2, 1), (2, 2), (3, 2), (2, 3)])
    def test_mixed_samples_match_per_state_loop(self, dim_a, dim_b):
        chain = mub_chain(2, 3) if dim_a == 2 else random_chain(dim_a, 3, seed=7)
        config = eur.MinimizationConfig(restarts=2, seed=5)
        result = eur.minimize_conditional_entropy_sum(chain, dim_b, config)
        bound = oracle.memory_bounds(chain, result.minimizer.joint.matrix, dim_b)["MEMORY_MULTI"]
        pure_gap = result.objective_min - bound
        expected = min(pure_gap, loop_mixed_memory_gap(chain, dim_b, config.seed))
        assert abs(result.slack_per_bound[BoundName.MEMORY_MULTI] - expected) <= 1e-12

    @pytest.mark.parametrize("chain,dim_b", [(mub_chain(2, 3), 2), (mub_chain(2, 2), 3), (mub_chain(3, 4), 3),
                                             (random_chain(3, 3, seed=7), 3), (random_chain(3, 2, seed=8), 5)])
    def test_memory_at_least_as_large_as_the_system_takes_the_exact_minimum(self, monkeypatch, chain, dim_b):
        """With d_B >= d_A the minimum is 0, at the maximally entangled state on A and the first
        d_A levels of B: one start that needs no search, and slacks read at that state."""

        def never(*args):
            raise AssertionError("the memory search ran")

        monkeypatch.setattr(verifier, "_nelder_mead", never)
        result = eur.minimize_conditional_entropy_sum(chain, dim_b, FAST)
        assert abs(result.objective_min) <= 1e-15
        assert (result.converged_restarts, result.restarts) == (1, 1)
        assert result.certified
        d = chain.dim
        phi = np.eye(d, dim_b).ravel() / math.sqrt(d)
        assert_allclose(result.minimizer.matrix, np.outer(phi, phi), atol=1e-15)
        bound = oracle.memory_bounds(chain, result.minimizer.joint.matrix, dim_b)
        assert abs(result.slack_per_bound[BoundName.MEMORY_PURE] + bound["MEMORY_PURE"]) <= 1e-12
        expected = min(-bound["MEMORY_MULTI"], loop_mixed_memory_gap(chain, dim_b, FAST.seed))
        assert abs(result.slack_per_bound[BoundName.MEMORY_MULTI] - expected) <= 1e-12

    def test_rejects_bad_memory_dim(self):
        with pytest.raises(ValueError, match="dim_b"):
            eur.minimize_conditional_entropy_sum(mub_chain(2, 2), dim_b=0)

    def test_fourteen_angle_search_converges(self):
        """d_A d_B = 8 is a search over 14 angles.  With 200 evaluations per angle, 2800 per
        restart, some of these 8 restarts converge and the result certifies; a fixed budget of
        2000 evaluations let none of them converge."""
        chain = eur.MeasurementChain(tuple(eur.random_basis(4, 5 + k) for k in range(3)))
        config = eur.MinimizationConfig(restarts=8, seed=1)
        result = eur.minimize_conditional_entropy_sum(chain, dim_b=2, config=config)
        assert result.converged_restarts >= 1
        assert result.certified
        assert result.objective_min == pytest.approx(1.47044487748, abs=1e-9)

    def test_unconverged_restarts_resume(self):
        """Over 14 angles none of these 4 restarts converges within one run's budget; resumed
        from where they stopped, all of them converge and the result certifies."""
        chain = eur.MeasurementChain(tuple(eur.random_basis(4, 11 + k) for k in range(2)))
        result = eur.minimize_conditional_entropy_sum(chain, 2, eur.MinimizationConfig(restarts=4, seed=0))
        assert result.converged_restarts == 4
        assert result.certified


def rosenbrock(x):
    """The Rosenbrock function of the last axis from elementwise products and sums only, so a
    row gives the same bits alone as inside a batch."""
    total = 0.0 * x[..., 0]
    for i in range(x.shape[-1] - 1):
        a, b = x[..., i + 1] - x[..., i] * x[..., i], 1.0 - x[..., i]
        total = total + 100.0 * a * a + b * b
    return total


class TestNelderMead:
    """The batched Nelder-Mead against scipy's, one restart at a time."""

    @staticmethod
    def _starts(n, seed):
        x0 = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(8, n))
        x0[0, 0] = 0.0  # a zero coordinate gets the 0.00025 vertex
        x0[1] = 1.0  # the minimum itself
        return x0

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    @pytest.mark.parametrize("max_iterations", [1, 2, 4, 7, 13, 60, 400, 2000])
    def test_matches_scipy_bit_for_bit(self, n, max_iterations):
        """Every restart's x, fun, nfev and success equal scipy's, also for the restarts that
        run out of evaluations inside an iteration."""
        x0 = self._starts(n, seed=10 * n + max_iterations)
        x, fun, nfev, success = _nelder_mead(rosenbrock, x0, max_iterations)
        options = nelder_mead_options(max_iterations)
        for r in range(len(x0)):
            res = minimize(rosenbrock, x0[r], method="Nelder-Mead", options=options)
            np.testing.assert_array_equal(x[r], res.x)
            assert (fun[r], nfev[r], success[r]) == (res.fun, res.nfev, res.success)

    def test_running_restarts_evaluated_together(self):
        """One call for the initial simplices, then at most three per iteration; every point
        is evaluated once, so the rows add up to the evaluation counts."""
        rows = []

        def counting(points):
            rows.append(len(points))
            return rosenbrock(points)

        x0 = self._starts(4, seed=3)
        _, _, nfev, success = _nelder_mead(counting, x0, 2000)
        assert success.all()
        assert rows[0] == len(x0) * 5
        assert sum(rows) == nfev.sum()
        assert len(rows) <= 1 + 3 * nfev.max() < nfev.sum()

    @pytest.mark.parametrize("max_iterations", [150, 2000])
    def test_restart_alone_matches_its_batch_row(self, max_iterations):
        """Each restart run alone returns the x, fun, nfev and success it has inside the batch, bit
        for bit, while the batch's other restarts converge earlier, shrink and (with 150
        evaluations) run out of them inside an iteration.  Rosenbrock rounded down to multiples of
        1/8 is flat in steps, where contractions fail and simplices shrink."""

        def staircase(x):
            return np.floor(8.0 * rosenbrock(x)) / 8.0

        n = 3
        x0 = np.random.default_rng(4).uniform(-2.0, 2.0, size=(8, n))
        x0[1], x0[2] = 1.0, [1.0, 1.0, 1.01]
        x, fun, nfev, success = _nelder_mead(staircase, x0, max_iterations)
        shrank, cut = [], []
        for r in range(len(x0)):
            sizes = []

            def recording(points):
                sizes.append(len(points))
                return staircase(points)

            x_r, fun_r, nfev_r, success_r = _nelder_mead(recording, x0[r : r + 1], max_iterations)
            np.testing.assert_array_equal(x_r[0], x[r])
            assert (fun_r[0], nfev_r[0], success_r[0]) == (fun[r], nfev[r], success[r])
            # after the initial simplex, a call of more than one point is a shrink; a last call of
            # 0 or 2 (< n) points is a shrink that the budget cut short
            shrank.append(max(sizes[1:]) > 1)
            cut.append(sizes[-1] in (0, 2))
        assert all(shrank)
        assert (success & (nfev < nfev.max())).any()  # converged while others were still running
        if max_iterations == 150:
            assert any(cut) and not success.all()

    @pytest.mark.parametrize("chain", [mub_chain(2, 3), mub_chain(3, 4), random_chain(3, 3, seed=7),
                                       random_chain(4, 2, seed=11)], ids=["mub2", "mub3", "rnd3", "rnd4"])
    @pytest.mark.parametrize("order", [1.0, math.inf])
    def test_state_restarts_do_not_depend_on_their_batch(self, chain, order):
        """On the state objective, the batch split at 1, 8 and 15 rows runs bit for bit as the
        whole batch: a restart's trajectory does not depend on which restarts share its
        evaluations, also when it is evaluated alone."""
        n, dim = len(chain), chain.dim
        objective = _pure_objective(chain, [order] * n, [1.0] * n)
        x0 = np.random.default_rng(dim * n).uniform(-2.0, 2.0, size=(16, 2 * dim - 2))
        whole = _nelder_mead(objective, x0, 2000)
        for k in (1, 8, 15):
            parts = zip(_nelder_mead(objective, x0[:k], 2000), _nelder_mead(objective, x0[k:], 2000))
            for split, same in zip(parts, whole):
                np.testing.assert_array_equal(np.concatenate(split), same)

    def test_empty_search_space(self):
        """With n = 0 each restart's one point is evaluated once and counts as converged."""
        rows = []

        def counting(points):
            rows.append(points.shape)
            return np.arange(len(points), dtype=float)

        x, fun, nfev, success = _nelder_mead(counting, np.empty((3, 0)), 2000)
        assert rows == [(3, 0)]
        assert x.shape == (3, 0)
        assert fun.tolist() == [0.0, 1.0, 2.0]
        assert nfev.tolist() == [1, 1, 1]
        assert success.all()


@pytest.mark.parametrize("dim,n", [(d, n) for d in range(2, 6) for n in range(2, 6)])
def test_state_minimum_never_above_scipy(dim, n):
    """Seeded corpus: the batched search's minimum against scipy's from the same start points,
    for Shannon, min-entropy and two Renyi orders, plus the WEIGHTED objective at N = 3."""
    chain = random_chain(dim, n, seed=200 + 10 * dim + n)
    config = eur.MinimizationConfig(restarts=2, seed=dim * n)
    for order in (1.0, math.inf, 2.0, 0.5):
        result = eur.minimize_entropy_sum(chain, orders=order, config=config)
        objective = _pure_objective(chain, [order] * n, [1.0] * n)
        assert result.objective_min <= scipy_restart_minimum(objective, dim, config, stream=0) + 1e-9, order
        if n == 3 and order == 1.0:
            weighted = result.slack_per_bound[BoundName.WEIGHTED] + eur.weighted_bound(*chain)
            objective = _pure_objective(chain, [1.0] * 3, WEIGHTED_WEIGHTS)
            assert weighted <= scipy_restart_minimum(objective, dim, config, stream=1) + 1e-9


@pytest.mark.parametrize("dim_a,dim_b", [(a, b) for a in (2, 3) for b in (1, 2, 3)])
def test_memory_minimum_never_above_scipy(dim_a, dim_b):
    chain = random_chain(dim_a, 3, seed=300 + dim_a)
    config = eur.MinimizationConfig(restarts=2, seed=dim_b)
    result = eur.minimize_conditional_entropy_sum(chain, dim_b, config)
    objective = _memory_objective(chain, dim_b)
    assert result.objective_min <= scipy_restart_minimum(objective, dim_a * dim_b, config, stream=2) + 1e-9


class TestOptimizerHook:
    """``_nelder_mead`` is the one optimizer entry point: one batched run per multistart, and one
    more per pass over the restarts that have not converged."""

    @pytest.fixture
    def runs(self, monkeypatch):
        optimizer = verifier._nelder_mead
        shapes = []

        def counting(objective, x0, *args, **kwargs):
            shapes.append(x0.shape)
            return optimizer(objective, x0, *args, **kwargs)

        monkeypatch.setattr(verifier, "_nelder_mead", counting)
        return shapes

    def test_start_points_are_the_per_restart_draws(self, monkeypatch):
        """The batched start points equal, bit for bit, one Haar draw and one angle conversion
        per restart from the stream of the seed."""
        starts = []
        optimizer = verifier._nelder_mead

        def recording(objective, x0, *args):
            starts.append(x0)
            return optimizer(objective, x0, *args)

        monkeypatch.setattr(verifier, "_nelder_mead", recording)
        cfg = eur.MinimizationConfig(restarts=9, seed=12)
        eur.minimize_entropy_sum(random_chain(4, 2, seed=3), config=cfg)
        eur.minimize_conditional_entropy_sum(random_chain(3, 2, seed=4), dim_b=2, config=cfg)
        assert len(starts) >= 2  # and any later passes of the memory search
        for x0, dim, stream in zip(starts, (4, 6), (0, 2)):
            rng = np.random.default_rng([cfg.seed, stream])
            np.testing.assert_array_equal(x0, [loop_angles_from_state(loop_haar_vector(rng, dim)) for _ in range(9)])

    def test_budget_follows_the_search_dimension(self, monkeypatch):
        """2000 evaluations per restart up to 10 angles, 200 per angle beyond."""
        budgets = []
        optimizer = verifier._nelder_mead

        def recording(objective, x0, max_iterations):
            budgets.append((x0.shape[1], max_iterations))
            return optimizer(objective, x0, max_iterations)

        monkeypatch.setattr(verifier, "_nelder_mead", recording)
        cfg = eur.MinimizationConfig(restarts=1)
        for chain in (mub_chain(3, 2), random_chain(4, 2, seed=1)):  # d_B < d_A: the memory search runs
            eur.minimize_conditional_entropy_sum(chain, dim_b=2, config=cfg)
        assert set(budgets) == {(10, 2000), (14, 2800)}  # a resumed pass has its run's budget

    def test_passes_resume_only_the_unconverged_restarts(self, monkeypatch):
        """Each pass runs the restarts not yet converged from the points where the last pass left
        them, for at most RESTART_PASSES passes; a restart converged in any pass counts."""
        starts = []

        def first_row_converges(objective, x0, max_iterations):
            starts.append(x0.copy())
            success = np.arange(len(x0)) == 0
            return x0 + 1.0, np.full(len(x0), -float(len(starts))), np.ones(len(x0), int), success

        monkeypatch.setattr(verifier, "_nelder_mead", first_row_converges)
        restarts = verifier.RESTART_PASSES + 1
        result = eur.minimize_entropy_sum(mub_chain(2, 2), config=eur.MinimizationConfig(restarts=restarts))
        assert [len(x0) for x0 in starts] == list(range(restarts, 1, -1))
        for before, after in zip(starts, starts[1:]):
            np.testing.assert_array_equal(after, before[1:] + 1.0)
        assert result.converged_restarts == restarts - 1
        assert result.objective_min == -verifier.RESTART_PASSES

    def test_no_scipy_hook(self):
        assert not hasattr(verifier, "minimize")

    def test_entropy_sum_one_run_per_multistart(self, runs):
        cfg = eur.MinimizationConfig(restarts=3)
        eur.minimize_entropy_sum(mub_chain(2, 2), config=cfg)
        assert runs == [(3, 2)]
        # N = 3 adds the WEIGHTED objective's own multistart
        eur.minimize_entropy_sum(mub_chain(2, 3), config=cfg)
        assert runs == [(3, 2)] * 3

    def test_conditional_entropy_sum_one_run_per_multistart(self, runs):
        eur.minimize_conditional_entropy_sum(mub_chain(3, 2), dim_b=2, config=eur.MinimizationConfig(restarts=3))
        assert runs == [(3, 10)]

    @pytest.mark.parametrize("order", [0, -1, math.nan])
    def test_bad_order_rejected_before_any_restart(self, runs, order):
        chain = mub_chain(2, 2)
        with pytest.raises(ValueError, match="Renyi order must be positive"):
            eur.minimize_entropy_sum(chain, orders=order)
        with pytest.raises(ValueError, match="Renyi order must be positive"):
            eur.minimize_entropy_sum(chain, orders=[1.0, order])
        assert runs == []
        with pytest.raises(ValueError, match="Renyi order must be positive"):
            eur.entropy_sum(chain, eur.DensityMatrix(np.eye(2) / 2), orders=order)


class TestSpotCheck:
    def test_qubit_mub_triple(self):
        worst = eur.spot_check_inequalities(mub_chain(2, 3), samples=25, seed=0)
        expected = {
            BoundName.DEUTSCH_MULTI,
            BoundName.MU_MULTI,
            BoundName.STATE_DEPENDENT,
            BoundName.SCB_MAX,
            BoundName.MU_TWO,
            BoundName.WEIGHTED,
            BoundName.MEMORY_MULTI,
            BoundName.MEMORY_PURE,
            BoundName.BERTA_TWO,
        }
        assert set(worst) == expected
        assert all(gap >= -1e-9 for gap in worst.values())

    def test_pair_chain_omits_weighted(self):
        worst = eur.spot_check_inequalities(random_chain(3, 2, seed=5), samples=10, seed=1)
        assert BoundName.WEIGHTED not in worst
        assert all(gap >= -1e-9 for gap in worst.values())

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError, match="samples"):
            eur.spot_check_inequalities(mub_chain(2, 2), samples=0)

    @pytest.mark.parametrize(
        "chain,samples,seeds",
        [(mub_chain(2, 3), 150, (0, 1, 2)), (mub_chain(3, 4), 30, (0, 1, 2))]
        + [(random_chain(d, n, seed=10 * d + n), 12, (1, 2)) for d in range(2, 6) for n in range(2, 6)],
    )
    def test_matches_per_sample_loop(self, chain, samples, seeds):
        """The batched pass against the per-sample loop it replaced: same bounds in the same
        order, every worst slack within 1e-12 (150 samples span three blocks)."""
        for seed in seeds:
            got = eur.spot_check_inequalities(chain, samples=samples, seed=seed)
            want = loop_spot_check_inequalities(chain, samples=samples, seed=seed)
            assert list(got) == list(want)
            for name, gap in want.items():
                assert abs(got[name] - gap) <= 1e-12, name

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_block_draws_are_the_per_state_draws(self, d):
        """A block's states equal, bit for bit, the per-round draws of a Haar vector, a
        random_density_matrix, a joint Haar vector and a joint random_density_matrix, and the
        random stream continues from the same place."""
        ours, oracle = np.random.default_rng([d, 4]), np.random.default_rng([d, 4])
        rhos, joints = _spot_states(ours, d, 20)
        want_rhos, want_joints = [], []
        for _ in range(20):
            psi = loop_haar_vector(oracle, d)
            rank = int(oracle.integers(1, d + 1))
            want_rhos += [np.outer(psi, psi.conj()), eur.random_density_matrix(d, rank, oracle).matrix]
            phi = loop_haar_vector(oracle, d * d)
            rank = int(oracle.integers(1, d * d + 1))
            want_joints += [np.outer(phi, phi.conj()), eur.random_density_matrix(d * d, rank, oracle).matrix]
        np.testing.assert_array_equal(rhos, want_rhos)
        np.testing.assert_array_equal(joints, want_joints)
        assert ours.random() == oracle.random()

    @pytest.mark.parametrize("count", [1, 5, 64])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_four_random_calls_per_round(self, d, count):
        """A block makes four generator calls per round and one for the first ket, gives the
        states of an unwrapped generator, and leaves the stream where that one leaves it."""

        class Counting:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def counted(*args, **kwargs):
                    self.calls += 1
                    return method(*args, **kwargs)

                return counted

        proxy, plain = Counting(np.random.default_rng([d, 9])), np.random.default_rng([d, 9])
        got, want = _spot_states(proxy, d, count), _spot_states(plain, d, count)
        assert proxy.calls == 4 * count + 1
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert proxy.rng.random() == plain.random()

    def test_eigendecompositions_do_not_grow_with_samples(self, monkeypatch):
        """Inside one block the spectra are taken once per stack, whatever the sample count.
        The draws take no spectrum, so every call in the spot checks is counted."""
        counts = {"calls": 0}

        def counting(fn):
            def wrapper(*args, **kwargs):
                counts["calls"] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
        chain = mub_chain(3, 4)
        per_call = []
        for samples in (5, 50):
            assert samples <= SPOT_BLOCK
            counts["calls"] = 0
            eur.spot_check_inequalities(chain, samples=samples, seed=3)
            per_call.append(counts["calls"])
        assert per_call[0] == per_call[1] > 0


@pytest.mark.parametrize("chain", [mub_chain(2, 3), random_chain(2, 4, seed=7)], ids=["N3", "N4"])
def test_verify_paths_build_no_overlap_table(chain, monkeypatch):
    """The spot checks and both minimizers take every chain term from the chain's bank: once
    ``chain.overlaps`` is built, no overlap table is computed again."""
    chain.overlaps
    calls = {"n": 0}

    def counting(a, b):
        calls["n"] += 1
        return overlap_table(a, b)

    monkeypatch.setattr(eur.core, "overlap_table", counting)
    monkeypatch.setattr(eur.bounds, "overlap_table", counting)
    config = eur.MinimizationConfig(restarts=4, seed=0)
    eur.spot_check_inequalities(chain, samples=8, seed=0)
    eur.minimize_entropy_sum(chain, 1.0, config)
    eur.minimize_conditional_entropy_sum(chain, 1, config)  # d_B < d_A: the memory search runs
    assert calls["n"] == 0


class TestMinimizationConfig:
    def test_rejects_bad_restarts(self):
        with pytest.raises(ValueError, match="restarts"):
            eur.MinimizationConfig(restarts=0)

    def test_rejects_bad_iterations(self):
        """The evaluation budget follows from the search dimension; it is no setting."""
        with pytest.raises(TypeError, match="max_iterations"):
            eur.MinimizationConfig(max_iterations=0)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_bad_tol(self, tol):
        """The stopping spreads are the optimizer's constants; neither is a setting."""
        with pytest.raises(TypeError, match="tol"):
            eur.MinimizationConfig(tol=tol)
