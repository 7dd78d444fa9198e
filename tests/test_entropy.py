import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import eur
from eur.core import BipartiteState, DensityMatrix, PureState
from eur.entropy import LOG_CUTOFF, _entropy_rows
from helpers import kept_entries_renyi_entropy, random_bipartite_mixed, random_bipartite_pure

# Reference values, frozen from direct evaluation of the defining formulas.
H_QUARTER = 0.8112781244591328          # -(1/4)log2(1/4) - (3/4)log2(3/4)
H2_QUARTER = 0.6780719051126377         # -log2(1/16 + 9/16)
HINF_QUARTER = 0.4150374992788438       # -log2(3/4)
COND_SCHMIDT_9_1 = -0.4689955935892812  # 2*h2(0.9) - ... for schmidt weights (.9,.1)

# seeded Dirichlet rows: d = 16 and 64, concentrations 0.1 and 1
DIRICHLET_ROWS = [np.random.default_rng(7).dirichlet(np.full(d, c)) for d in (16, 64) for c in (0.1, 1.0)]


class TestShannon:
    def test_uniform(self):
        for d in (2, 3, 8):
            assert eur.shannon_entropy(np.full(d, 1.0 / d)) == pytest.approx(np.log2(d), abs=1e-14)

    def test_deterministic_is_zero(self):
        assert eur.shannon_entropy([0.0, 1.0, 0.0]) == 0.0

    def test_quarter_three_quarter(self):
        assert eur.shannon_entropy([0.25, 0.75]) == pytest.approx(H_QUARTER, abs=1e-15)

    def test_zero_entries_ignored(self):
        assert eur.shannon_entropy([0.25, 0.75, 0.0, 0.0]) == pytest.approx(H_QUARTER, abs=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="sums to"):
            eur.shannon_entropy([0.3, 0.3])
        with pytest.raises(ValueError, match="sums to"):
            eur.shannon_entropy([2.0, 0.0])
        with pytest.raises(ValueError, match="sums to"):
            eur.renyi_entropy([1.5], 1e300)
        with pytest.raises(ValueError, match="negative"):
            eur.shannon_entropy([1.1, -0.1])
        with pytest.raises(ValueError, match="non-finite"):
            eur.shannon_entropy([np.nan, 1.0])

    def test_tiny_negatives_clamped(self):
        assert eur.shannon_entropy([1.0 + 1e-12, -1e-12]) == pytest.approx(0.0, abs=1e-11)


class TestRenyi:
    def test_order_one_is_shannon(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            assert eur.renyi_entropy(p, 1.0) == pytest.approx(eur.shannon_entropy(p), abs=1e-14)

    def test_order_two(self):
        assert eur.renyi_entropy([0.25, 0.75], 2.0) == pytest.approx(H2_QUARTER, abs=1e-15)

    def test_min_entropy(self):
        assert eur.renyi_entropy([0.25, 0.75], math.inf) == pytest.approx(HINF_QUARTER, abs=1e-15)

    def test_continuous_at_one(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        h = eur.shannon_entropy(p)
        for alpha in (1.0 - 1e-9, 1.0 + 1e-9):
            assert eur.renyi_entropy(p, alpha) == pytest.approx(h, abs=1e-6)

    def test_nonincreasing_in_order(self):
        rng = np.random.default_rng(1)
        alphas = [0.3, 0.7, 1.0, 1.5, 2.0, 5.0, math.inf]
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            vals = [eur.renyi_entropy(p, a) for a in alphas]
            diffs = np.diff(vals)
            assert (diffs <= 1e-12).all()

    def test_uniform_is_order_independent(self):
        for alpha in (0.5, 1.0, 2.0, math.inf):
            assert eur.renyi_entropy([0.25] * 4, alpha) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.9, 1.1, 1.7, 2.0, 4.0, 5.0, 25.0, 60.0, 80.0,
                                       200.0, 500.0, 1e4, 1e300])
    @pytest.mark.parametrize("p", [[0.5, 0.5], [0.25, 0.75], [0.1, 0.2, 0.7]] + DIRICHLET_ROWS)
    def test_large_finite_orders(self, p, alpha):
        # from orders near 1 to orders whose power sum underflows, where the kernel scales by max p;
        # near 1 the error grows as 1e-16 / |1 - alpha|
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            power_sum = sum(mpmath.mpf(x) ** mpmath.mpf(alpha) for x in p)
            want = float(mpmath.log(power_sum, 2) / (1 - mpmath.mpf(alpha)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eur.renyi_entropy(p, alpha)
        assert math.isfinite(got)
        assert got == pytest.approx(want, abs=5e-15 + 4e-16 / abs(1 - alpha))

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError, match="order"):
            eur.renyi_entropy([0.5, 0.5], 0.0)
        with pytest.raises(ValueError, match="order"):
            eur.renyi_entropy([0.5, 0.5], -1.0)


class TestEntropyRows:
    """The unvalidated row kernel behind ``renyi_entropy`` and the verifier's objectives."""

    @staticmethod
    def _rows(rng, count, dim):
        # Dirichlet rows with exact zeros and entries at and below the log cutoff
        p = rng.dirichlet(np.ones(dim), size=count)
        p[rng.random(p.shape) < 0.25] = 0.0
        p[rng.random(p.shape) < 0.1] = LOG_CUTOFF
        p[rng.random(p.shape) < 0.1] = 1e-17
        p[:, 0] += 1.0 - p.sum(axis=1)
        return p

    @pytest.mark.parametrize("alpha", [1.0, math.inf, 2.0, 0.5])
    def test_matches_renyi_entropy(self, alpha):
        rng = np.random.default_rng(21)
        for dim in range(1, 8):
            p = self._rows(rng, 50, dim)
            got = _entropy_rows(p, [alpha] * len(p)).tolist()
            assert got == [kept_entries_renyi_entropy(row, alpha) for row in p]
            assert got == [eur.renyi_entropy(row, alpha) for row in p]

    def test_per_row_orders(self):
        rng = np.random.default_rng(22)
        alphas = [1.0, math.inf, 2.0, 0.5, 1.0, math.inf]
        for dim in (2, 3, 5, 7):
            p = self._rows(rng, len(alphas), dim)
            got = _entropy_rows(p, alphas).tolist()
            assert got == [kept_entries_renyi_entropy(row, a) for row, a in zip(p, alphas)]

    def test_long_rows_agree_to_rounding(self):
        # from 8 entries on, numpy sums in blocks, so a cut entry can regroup the sum
        rng = np.random.default_rng(23)
        p = self._rows(rng, 50, 12)
        want = [kept_entries_renyi_entropy(row, 1.0) for row in p]
        assert_allclose(_entropy_rows(p, [1.0] * len(p)), want, rtol=0.0, atol=1e-14)


ROUNDED_UP = [1.0 + 2.0**-52, 0.0]  # a certain outcome one ulp above 1, as a Born probability can round


@pytest.mark.parametrize("entropy", [
    lambda: eur.shannon_entropy([1.0, 0.0]),
    lambda: eur.renyi_entropy([1.0, 0.0], math.inf),
    lambda: eur.renyi_entropy([1.0, 0.0], 2.0),
    lambda: eur.von_neumann_entropy(PureState(np.array([1.0, 0.0])).projector()),
    lambda: eur.shannon_entropy(ROUNDED_UP),
    lambda: eur.renyi_entropy(ROUNDED_UP, 0.5),
    lambda: eur.renyi_entropy(ROUNDED_UP, 2.0),
    lambda: eur.renyi_entropy(ROUNDED_UP, math.inf),
    lambda: eur.renyi_entropy(ROUNDED_UP, 1e300),  # (1 + 2^-52)^1e300 would overflow
    lambda: eur.von_neumann_entropy(DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))),  # eigenvalue above the floor
], ids=["shannon", "min", "renyi-2", "von-neumann", "rounded-up-shannon", "rounded-up-renyi-0.5",
        "rounded-up-renyi-2", "rounded-up-min", "rounded-up-renyi-1e300", "von-neumann-negative-eigenvalue"])
def test_certain_outcome_has_positive_zero_entropy(entropy):
    value = entropy()
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestVonNeumann:
    def test_pure_state_is_zero(self):
        psi = PureState(np.array([0.6, 0.8j]))
        assert eur.von_neumann_entropy(psi.projector()) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            assert eur.von_neumann_entropy(DensityMatrix(np.eye(d) / d)) == pytest.approx(
                np.log2(d), abs=1e-12
            )

    def test_matches_spectrum(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        assert eur.von_neumann_entropy(rho) == pytest.approx(H_QUARTER, abs=1e-14)

    def test_unitary_invariance(self):
        spectrum = np.array([0.5, 0.3, 0.2])
        h = eur.shannon_entropy(spectrum)
        for seed in range(5):
            u = eur.random_basis(3, seed=seed).vectors.T
            rho = DensityMatrix(u @ np.diag(spectrum) @ u.conj().T)
            assert eur.von_neumann_entropy(rho) == pytest.approx(h, abs=1e-12)


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rho = eur.random_density_matrix(3, 3, seed=2)
        assert eur.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_case(self):
        p = np.array([0.2, 0.8])
        q = np.array([0.6, 0.4])
        expected = float((p * (np.log2(p) - np.log2(q))).sum())
        got = eur.relative_entropy(DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q)))
        assert got == pytest.approx(expected, abs=1e-14)

    def test_nonnegative(self):
        for seed in range(20):
            rho = eur.random_density_matrix(3, 3, seed=seed)
            sigma = eur.random_density_matrix(3, 3, seed=1000 + seed)
            assert eur.relative_entropy(rho, sigma) >= -1e-10

    def test_infinite_outside_support(self):
        rho = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
        sigma = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
        assert eur.relative_entropy(rho, sigma) == math.inf

    def test_finite_when_support_contained(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        sigma = DensityMatrix(np.diag([0.5, 0.5]))
        assert eur.relative_entropy(rho, sigma) == pytest.approx(1.0, abs=1e-12)

    def test_measurement_identity(self):
        # H(U) - S(rho) equals the relative entropy to the dephased state.
        for seed in range(10):
            rho = eur.random_density_matrix(3, 2, seed=seed)
            basis = eur.random_basis(3, seed=500 + seed)
            lhs = eur.shannon_entropy(eur.outcome_distribution(basis, rho)) - eur.von_neumann_entropy(rho)
            rhs = eur.relative_entropy(rho, eur.measurement_channel(basis, rho))
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestConditionalEntropy:
    def test_product_state(self):
        rho_a = eur.random_density_matrix(2, 2, seed=3)
        rho_b = eur.random_density_matrix(3, 3, seed=4)
        joint = BipartiteState(DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix)), 2, 3)
        assert eur.conditional_entropy(joint) == pytest.approx(
            eur.von_neumann_entropy(rho_a), abs=1e-10
        )

    def test_maximally_entangled(self):
        for d in (2, 3):
            assert eur.conditional_entropy(eur.maximally_entangled(d)) == pytest.approx(
                -np.log2(d), abs=1e-12
            )

    def test_schmidt_9_1(self):
        psi = PureState(np.array([np.sqrt(0.9), 0.0, 0.0, np.sqrt(0.1)]))
        state = BipartiteState.from_pure(psi, 2, 2)
        assert eur.conditional_entropy(state) == pytest.approx(COND_SCHMIDT_9_1, abs=1e-13)

    def test_pure_state_antisymmetry(self):
        # for pure AB: S(A|B) = S(A) - S(B) = -S(B|A) ... here just S(A|B) = -S(B) + S(AB)=...
        for seed in range(5):
            state = random_bipartite_pure(2, 3, seed=seed)
            s_a = eur.von_neumann_entropy(eur.partial_trace(state, "A"))
            assert eur.conditional_entropy(state) == pytest.approx(-s_a, abs=1e-10)


class TestMeasuredConditionalEntropy:
    def test_classical_correlated(self):
        # (|00><00| + |11><11|)/2: measuring A in its own basis leaves H(M|B)=0
        m = np.zeros((4, 4))
        m[0, 0] = m[3, 3] = 0.5
        state = BipartiteState(DensityMatrix(m), 2, 2)
        z = eur.computational_basis(2)
        assert eur.measured_conditional_entropy(z, state) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_entangled_any_basis(self):
        me = eur.maximally_entangled(2)
        for basis in (eur.computational_basis(2), eur.random_basis(2, seed=9)):
            assert eur.measured_conditional_entropy(basis, me) == pytest.approx(0.0, abs=1e-10)

    def test_never_below_conditional(self):
        # dephasing A cannot decrease S(A|B)
        for seed in range(10):
            state = random_bipartite_mixed(2, 2, rank=3, seed=seed)
            basis = eur.random_basis(2, seed=700 + seed)
            assert (
                eur.measured_conditional_entropy(basis, state)
                >= eur.conditional_entropy(state) - 1e-10
            )

    def test_trivial_memory_reduces_to_shannon(self):
        rho = eur.random_density_matrix(3, 3, seed=6)
        state = BipartiteState(DensityMatrix(np.kron(rho.matrix, np.eye(1))), 3, 1)
        basis = eur.random_basis(3, seed=13)
        expected = eur.shannon_entropy(eur.outcome_distribution(basis, rho))
        assert eur.measured_conditional_entropy(basis, state) == pytest.approx(expected, abs=1e-10)


class TestHolevoForm:
    def test_agrees_with_dephasing_form(self):
        for seed in range(15):
            state = random_bipartite_mixed(2, 3, rank=4, seed=seed)
            basis = eur.random_basis(2, seed=300 + seed)
            a = eur.measured_conditional_entropy(basis, state)
            b = eur.holevo_conditional_entropy(basis, state)
            assert_allclose(a, b, atol=1e-10)

    def test_agrees_on_pure_states(self):
        for seed in range(10):
            state = random_bipartite_pure(3, 2, seed=seed)
            basis = eur.random_basis(3, seed=400 + seed)
            assert_allclose(
                eur.measured_conditional_entropy(basis, state),
                eur.holevo_conditional_entropy(basis, state),
                atol=1e-10,
            )

    def test_zero_probability_outcome(self):
        # rank-deficient A marginal: one outcome never fires
        m = np.zeros((4, 4))
        m[0, 0] = 0.5
        m[1, 1] = 0.5
        state = BipartiteState(DensityMatrix(m), 2, 2)
        z = eur.computational_basis(2)
        assert_allclose(
            eur.holevo_conditional_entropy(z, state),
            eur.measured_conditional_entropy(z, state),
            atol=1e-12,
        )
