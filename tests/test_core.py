import numpy as np
import pytest
from numpy.testing import assert_allclose

import eur
from eur.core import NORM_TOL, DensityMatrix, MeasurementBasis, MeasurementChain, PureState, _overlap_bank
from eur.entropy import shannon_entropy, von_neumann_entropy
from helpers import mub_chain, random_chain, random_pure_density

S2 = 1.0 / np.sqrt(2.0)


def hadamard_basis():
    return MeasurementBasis(np.array([[S2, S2], [S2, -S2]], dtype=complex), label="hadamard")


def second_d3_basis():
    return MeasurementBasis(
        np.array([[S2, 0, -S2], [0, 1, 0], [S2, 0, S2]], dtype=complex), label="B2"
    )


class TestPureState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(np.array([1.0, 1.0]))

    def test_projector_is_valid_density(self):
        rho = PureState(np.array([S2, S2 * 1j])).projector()
        assert_allclose(np.trace(rho.matrix), 1.0, atol=1e-14)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_vector(self):
        with pytest.raises(ValueError):
            PureState(np.eye(2))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_small_negative_eigenvalue_clamped(self):
        eps = 5e-11
        rho = DensityMatrix(np.diag([1.0 + eps, -eps]))
        # the entropies' 0 log 0 cutoff gives the negative eigenvalue the weight of a 0
        assert von_neumann_entropy(rho) == shannon_entropy([1.0 + eps, 0.0])

    def test_rejects_non_finite(self):
        m = np.eye(2, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(m)

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestMeasurementBasis:
    def test_rejects_non_orthogonal(self):
        v = np.array([[1, 0], [S2, S2]], dtype=complex)
        with pytest.raises(ValueError, match="orthogonal"):
            MeasurementBasis(v)

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError, match="norms"):
            MeasurementBasis(np.array([[1, 0], [0, 2]], dtype=complex))

    def test_does_not_reorthogonalize(self):
        # a slightly skewed pair inside tolerance is kept verbatim
        v = np.array([[1, 0], [1e-10, 1]], dtype=complex)
        basis = MeasurementBasis(v)
        assert basis.vectors[1, 0] == 1e-10


@pytest.mark.parametrize("make,name", [(DensityMatrix, "density matrix"), (MeasurementBasis, "basis")])
def test_empty_matrix_is_rejected(make, name):
    with pytest.raises(ValueError) as exc:
        make(np.zeros((0, 0)))
    assert str(exc.value) == f"{name} must be non-empty, got shape (0, 0)"


# Library calls that reject their input before any arithmetic, with the message each gives.
REJECTED_CALLS = [
    pytest.param(lambda: eur.chain_coefficients(mub_chain(2, 2), DensityMatrix(np.eye(3) / 3)),
                 "dimension mismatch: chain dim 2 vs state dim 3", id="chain_coefficients"),
    pytest.param(lambda: DensityMatrix(np.ones((2, 3))),
                 "density matrix must be a square 2-D array, got shape (2, 3)", id="DensityMatrix"),
    pytest.param(lambda: eur.BipartiteState(DensityMatrix(np.eye(4) / 4), 0, 2),
                 "subsystem dimensions must be positive", id="BipartiteState"),
    pytest.param(lambda: eur.BipartiteState.from_pure([1, 0, 0], 2, 2),
                 "vector length 3 does not match dim_a * dim_b = 4", id="BipartiteState.from_pure"),
    pytest.param(lambda: eur.outcome_distribution(eur.computational_basis(2),
                                                  DensityMatrix(np.diag([1.1, -0.1]), validate=False)),
                 "outcome probability below the eigenvalue floor: -1.000e-01", id="outcome_distribution"),
    pytest.param(lambda: eur.partial_trace(eur.maximally_entangled(2), "C"),
                 "keep must be 'A' or 'B', got 'C'", id="partial_trace"),
    pytest.param(lambda: shannon_entropy([[0.5, 0.5]]),
                 "probability vector must be non-empty and 1-D, got shape (1, 2)", id="shannon_entropy"),
    pytest.param(lambda: eur.maximally_entangled(0), "dimension must be positive, got 0", id="maximally_entangled"),
]


@pytest.mark.parametrize("call, message", REJECTED_CALLS)
def test_rejected_input_gives_its_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


class TestMeasurementChain:
    def test_requires_two_bases(self):
        with pytest.raises(ValueError, match="N >= 2"):
            MeasurementChain((hadamard_basis(),))

    def test_rejects_mixed_dims(self):
        with pytest.raises(ValueError, match="mismatch"):
            MeasurementChain((hadamard_basis(), eur.computational_basis(3)))

    def test_reordered(self):
        chain = random_chain(3, 3, seed=5)
        flipped = chain.reordered((2, 1, 0))
        assert flipped[0] is chain[2]
        with pytest.raises(ValueError, match="permutation"):
            chain.reordered((0, 0, 1))

    def test_overlap_bank_matches_overlap_table(self):
        for d, n in [(3, 4), (2, 2), (4, 8), (5, 3), (6, 6)]:
            chain = random_chain(d, n, seed=6 + d + n)
            assert chain.overlaps.shape == (n, n, d, d)
            assert not chain.overlaps.flags.writeable
            for m in range(n):
                for k in range(n):
                    assert np.array_equal(chain.overlaps[m, k], eur.overlap_table(chain[m], chain[k]))

    def test_overlap_bank_read_only_and_cached(self):
        chain = random_chain(2, 3, seed=7)
        bank = chain.overlaps
        assert chain.overlaps is bank
        with pytest.raises(ValueError):
            bank[0, 1, 0, 0] = 0.0


class TestOverlapBankCheck:
    """The bank validates its stack of bases from its own products, as ``MeasurementBasis`` does."""

    def test_bad_basis_in_a_stack_gives_the_constructor_message(self):
        good, other = eur.random_basis(3, 31).vectors, eur.random_basis(3, 32).vectors
        non_finite = good.copy()
        non_finite[1, 2] = np.nan
        off_norm = good * np.array([[1.0], [1.0 + 1e-8], [1.0]])
        skew = good.copy()
        skew[2] += 1e-8 * good[0]  # unit norm to rounding, 1e-8 off orthogonal
        for v, start in ((non_finite, "basis contains non-finite"), (off_norm, "basis row norms deviate"),
                         (skew, "basis rows are not orthogonal")):
            with pytest.raises(ValueError, match=start) as want:
                MeasurementBasis(v)
            # two chains of two bases, the bad one last
            with pytest.raises(ValueError) as got:
                _overlap_bank(np.array([[good, other], [other, v]]))
            assert str(got.value) == str(want.value)

    def test_accepts_every_chain_its_constructor_accepted(self):
        # rows scaled to norm errors just around NORM_TOL: the constructor keeps some, rejects others
        rng = np.random.default_rng(33)
        accepted, rejected = [], 0
        for k in range(200):
            v = eur.random_basis(4, 3400 + k).vectors
            v = v * np.sqrt(1.0 + NORM_TOL * rng.uniform(0.999, 1.001, (4, 1)))
            try:
                accepted.append(MeasurementBasis(v))
            except ValueError:
                rejected += 1
        assert accepted and rejected
        assert MeasurementChain(tuple(accepted)).overlaps.shape == (len(accepted), len(accepted), 4, 4)
        # the near-tolerance chains of the MU prune test
        mub5 = eur.mub_set(5)
        shrunk = MeasurementBasis(mub5[0].vectors * np.sqrt(1.0 - 5e-11))
        z = rng.standard_normal((2, 5, 5))
        v = mub5[1].vectors + 1e-10 * (z[0] + 1j * z[1])
        perturbed = MeasurementBasis(v / np.linalg.norm(v, axis=1, keepdims=True))
        assert MeasurementChain((shrunk, perturbed, *mub5[2:])).overlaps.shape == (6, 6, 5, 5)


class TestOverlapTable:
    def test_identical_bases_give_identity(self):
        b = hadamard_basis()
        assert_allclose(eur.overlap_table(b, b), np.eye(2), atol=1e-14)

    def test_computational_vs_second_d3(self):
        table = eur.overlap_table(eur.computational_basis(3), second_d3_basis())
        assert_allclose(table, [[0.5, 0, 0.5], [0, 1, 0], [0.5, 0, 0.5]], atol=1e-14)

    def test_doubly_stochastic_on_random_pairs(self):
        for d in (2, 3, 4, 5):
            for k in range(5):
                t = eur.overlap_table(eur.random_basis(d, 10 * d + k), eur.random_basis(d, 999 + k))
                assert_allclose(t.sum(axis=0), np.ones(d), atol=1e-9)
                assert_allclose(t.sum(axis=1), np.ones(d), atol=1e-9)

    def test_max_overlap(self):
        z = eur.computational_basis(2)
        assert eur.max_overlap(z, hadamard_basis()) == pytest.approx(0.5, abs=1e-14)
        assert eur.max_overlap(z, z) == pytest.approx(1.0, abs=1e-14)
        assert eur.max_overlap(eur.computational_basis(3), second_d3_basis()) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            eur.overlap_table(eur.computational_basis(2), eur.computational_basis(3))


class TestOutcomeDistribution:
    def test_plus_state(self):
        plus = PureState(np.array([S2, S2])).projector()
        assert_allclose(eur.outcome_distribution(eur.computational_basis(2), plus), [0.5, 0.5], atol=1e-14)
        assert_allclose(eur.outcome_distribution(hadamard_basis(), plus), [1.0, 0.0], atol=1e-14)

    def test_matches_elementwise_definition(self):
        rho = eur.random_density_matrix(4, 3, seed=7)
        basis = eur.random_basis(4, seed=8)
        p = eur.outcome_distribution(basis, rho)
        manual = [np.vdot(basis.vectors[i], rho.matrix @ basis.vectors[i]).real for i in range(4)]
        assert_allclose(p, manual, atol=1e-13)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert p.min() >= 0.0

    def test_negative_eigenvalue_above_the_floor_is_clipped(self):
        # the constructor's floor is the Born probabilities' window too: no state it accepts is refused here
        rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))
        assert eur.outcome_distribution(eur.computational_basis(2), rho).tolist() == [1.0, 0.0]


class TestMeasurementChannel:
    def test_plus_state_dephases_to_maximally_mixed(self):
        plus = PureState(np.array([S2, S2])).projector()
        out = eur.measurement_channel(eur.computational_basis(2), plus)
        assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-14)

    def test_idempotent_and_trace_preserving(self):
        for seed in range(4):
            rho = eur.random_density_matrix(3, 2, seed=seed)
            basis = eur.random_basis(3, seed=100 + seed)
            once = eur.measurement_channel(basis, rho)
            twice = eur.measurement_channel(basis, once)
            assert_allclose(once.matrix, twice.matrix, atol=1e-12)
            assert_allclose(np.trace(once.matrix).real, 1.0, atol=1e-12)

    def test_diagonal_state_is_fixed_point(self):
        rho = DensityMatrix(np.diag([0.7, 0.2, 0.1]))
        out = eur.measurement_channel(eur.computational_basis(3), rho)
        assert_allclose(out.matrix, rho.matrix, atol=1e-14)


class TestBipartite:
    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            eur.BipartiteState(DensityMatrix(np.eye(4) / 4), 2, 3)

    def test_partial_trace_of_maximally_entangled(self):
        me = eur.maximally_entangled(3)
        assert_allclose(eur.partial_trace(me, "A").matrix, np.eye(3) / 3, atol=1e-14)
        assert_allclose(eur.partial_trace(me, "B").matrix, np.eye(3) / 3, atol=1e-14)

    def test_partial_trace_of_product(self):
        sigma = eur.random_density_matrix(2, 2, seed=11)
        tau = eur.random_density_matrix(3, 1, seed=12)
        joint = eur.BipartiteState(DensityMatrix(np.kron(sigma.matrix, tau.matrix)), 2, 3)
        assert_allclose(eur.partial_trace(joint, "A").matrix, sigma.matrix, atol=1e-13)
        assert_allclose(eur.partial_trace(joint, "B").matrix, tau.matrix, atol=1e-13)

    def test_bipartite_channel_on_maximally_entangled(self):
        me = eur.maximally_entangled(2)
        out = eur.bipartite_measurement_channel(eur.computational_basis(2), me)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert_allclose(out.matrix, expected, atol=1e-14)

    def test_channel_commutes_with_tracing_out_memory(self):
        rho = random_pure_density(6, seed=3)
        ab = eur.BipartiteState(rho, 2, 3)
        basis = eur.random_basis(2, seed=21)
        left = eur.partial_trace(eur.bipartite_measurement_channel(basis, ab), "A")
        right = eur.measurement_channel(basis, eur.partial_trace(ab, "A"))
        assert_allclose(left.matrix, right.matrix, atol=1e-12)

    def test_channel_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            eur.bipartite_measurement_channel(eur.computational_basis(3), eur.maximally_entangled(2))
