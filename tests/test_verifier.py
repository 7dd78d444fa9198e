import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import eur
from eur.bounds import BoundName
from eur.core import PureState
from eur.verifier import _angles_from_state, _haar_vector, _state_from_angles
from helpers import mub_chain, random_chain

DEUTSCH_MUB2_PAIR = 0.45689339367277615

FAST = eur.MinimizationConfig(restarts=16, seed=0)


class TestAngleParameterization:
    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_round_trip(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(25):
            psi = _haar_vector(rng, dim)
            back = _state_from_angles(_angles_from_state(psi), dim)
            assert abs(np.vdot(back, psi)) == pytest.approx(1.0, abs=1e-10)

    def test_output_normalized(self):
        rng = np.random.default_rng(99)
        for dim in (2, 5):
            x = rng.uniform(-3, 3, size=2 * dim - 2)
            psi = _state_from_angles(x, dim)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_basis_states(self):
        # deterministic states sit at the parameterization's corners
        e0 = _angles_from_state(np.array([1.0, 0.0, 0.0], dtype=complex))
        assert_allclose(_state_from_angles(e0, 3), [1.0, 0.0, 0.0], atol=1e-12)


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

    def test_rejects_bad_memory_dim(self):
        with pytest.raises(ValueError, match="dim_b"):
            eur.minimize_conditional_entropy_sum(mub_chain(2, 2), dim_b=0)


class TestOptimizerHook:
    """``eur.verifier.minimize`` is the one optimizer entry point; replacing it reaches every restart."""

    @pytest.fixture
    def calls(self, monkeypatch):
        optimizer = eur.verifier.minimize
        count = [0]

        def counting(*args, **kwargs):
            count[0] += 1
            return optimizer(*args, **kwargs)

        monkeypatch.setattr(eur.verifier, "minimize", counting)
        return count

    def test_hook_is_scipy_minimize(self):
        from scipy.optimize import minimize

        assert getattr(eur.verifier, "minimize") is minimize

    def test_entropy_sum_calls_once_per_restart(self, calls):
        cfg = eur.MinimizationConfig(restarts=3)
        eur.minimize_entropy_sum(mub_chain(2, 2), config=cfg)
        assert calls[0] == 3
        # N = 3 adds the WEIGHTED objective's own multistart
        eur.minimize_entropy_sum(mub_chain(2, 3), config=cfg)
        assert calls[0] == 3 + 6

    def test_conditional_entropy_sum_calls_once_per_restart(self, calls):
        eur.minimize_conditional_entropy_sum(mub_chain(2, 2), dim_b=2, config=eur.MinimizationConfig(restarts=3))
        assert calls[0] == 3


class TestMinimizerGradient:
    def test_small_at_certified_minimum(self):
        result = eur.minimize_entropy_sum(mub_chain(2, 3), config=FAST)
        grad = eur.minimizer_gradient_max(mub_chain(2, 3), result.minimizer)
        assert grad < 1e-3


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


class TestMinimizationConfig:
    def test_rejects_bad_restarts(self):
        with pytest.raises(ValueError, match="restarts"):
            eur.MinimizationConfig(restarts=0)

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError, match="max_iterations"):
            eur.MinimizationConfig(max_iterations=0)
