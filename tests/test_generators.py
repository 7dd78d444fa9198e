import numpy as np
import pytest
from numpy.testing import assert_allclose

import eur
from helpers import random_mixed

S2 = 1.0 / np.sqrt(2.0)


class TestComputationalBasis:
    def test_identity_rows(self):
        b = eur.computational_basis(4)
        assert_allclose(b.vectors, np.eye(4), atol=0)
        assert b.label == "computational"

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            eur.computational_basis(0)


class TestMubSet:
    @pytest.mark.parametrize("dim", [2, 3, 5, 7])
    def test_pairwise_unbiased(self, dim):
        bases = eur.mub_set(dim)
        assert len(bases) == dim + 1
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                table = eur.overlap_table(bases[i], bases[j])
                assert_allclose(table, np.full((dim, dim), 1.0 / dim), atol=1e-12)

    def test_qubit_family_members(self):
        comp, hadamard, circular = eur.mub_set(2, 3)
        assert_allclose(comp.vectors, np.eye(2), atol=0)
        assert_allclose(hadamard.vectors, [[S2, S2], [S2, -S2]], atol=1e-15)
        assert_allclose(circular.vectors, [[S2, S2 * 1j], [S2, -S2 * 1j]], atol=1e-15)

    def test_labels(self):
        labels = [b.label for b in eur.mub_set(3)]
        assert labels == ["computational", "mub-1", "mub-2", "mub-3"]

    def test_count_argument(self):
        assert len(eur.mub_set(5, 2)) == 2
        with pytest.raises(ValueError, match="count"):
            eur.mub_set(3, 5)
        with pytest.raises(ValueError, match="count"):
            eur.mub_set(3, 0)

    @pytest.mark.parametrize("dim", [1, 4, 6, 9])
    def test_rejects_non_prime(self, dim):
        with pytest.raises(ValueError, match="prime"):
            eur.mub_set(dim)


class TestParametricD3Chain:
    def test_shape_and_labels(self):
        chain = eur.parametric_d3_chain(0.5, 0.0)
        assert len(chain) == 3
        assert chain.dim == 3
        assert [b.label for b in chain] == ["B1", "B2", "B3"]

    def test_first_two_bases_fixed(self):
        for a, phi in [(0.0, 0.0), (0.9, np.pi / 2), (1.0, 1.3)]:
            chain = eur.parametric_d3_chain(a, phi)
            assert_allclose(chain[0].vectors, np.eye(3), atol=0)
            table = eur.overlap_table(chain[0], chain[1])
            assert_allclose(table, [[0.5, 0, 0.5], [0, 1, 0], [0.5, 0, 0.5]], atol=1e-14)

    def test_third_basis_amplitudes(self):
        chain = eur.parametric_d3_chain(0.9, np.pi / 2)
        table = eur.overlap_table(chain[0], chain[2])
        assert_allclose(table, [[0.9, 0.1, 0], [0.1, 0.9, 0], [0, 0, 1]], atol=1e-14)

    def test_phase_moves_vectors_but_not_overlaps(self):
        # the phase sits on the middle component, which never beats against
        # the real components of the other two bases: every squared overlap
        # is phase-free even though the third basis itself is not
        flat = eur.parametric_d3_chain(0.7, 0.0)
        tilted = eur.parametric_d3_chain(0.7, np.pi / 2)
        assert np.abs(flat[2].vectors - tilted[2].vectors).max() > 0.1
        for i in range(3):
            for j in range(i + 1, 3):
                assert_allclose(
                    eur.overlap_table(flat[i], flat[j]),
                    eur.overlap_table(tilted[i], tilted[j]),
                    atol=1e-14,
                )

    def test_phase_periodicity(self):
        a = eur.parametric_d3_chain(0.3, 0.4)
        b = eur.parametric_d3_chain(0.3, 0.4 + 2 * np.pi)
        for x, y in zip(a, b):
            assert_allclose(x.vectors, y.vectors, atol=1e-12)

    @pytest.mark.parametrize("a", [-0.1, 1.1])
    def test_rejects_out_of_range_weight(self, a):
        with pytest.raises(ValueError, match="a must lie"):
            eur.parametric_d3_chain(a, 0.0)


class TestRandomBasis:
    def test_deterministic(self):
        assert_allclose(
            eur.random_basis(4, seed=5).vectors, eur.random_basis(4, seed=5).vectors, atol=0
        )

    def test_seeds_differ(self):
        a = eur.random_basis(3, seed=1).vectors
        b = eur.random_basis(3, seed=2).vectors
        assert np.abs(a - b).max() > 1e-3

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError, match="dimension must be positive, got 0"):
            eur.random_basis(0, seed=1)

    def test_unitary(self):
        v = eur.random_basis(5, seed=9).vectors
        assert_allclose(v.conj() @ v.T, np.eye(5), atol=1e-12)


class TestRandomDensityMatrix:
    def test_deterministic(self):
        assert_allclose(
            eur.random_density_matrix(3, 2, seed=4).matrix,
            eur.random_density_matrix(3, 2, seed=4).matrix,
            atol=0,
        )

    def test_rank_one_is_pure(self):
        rho = eur.random_density_matrix(4, 1, seed=6)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_rank_controls_spectrum(self):
        rho = eur.random_density_matrix(4, 2, seed=7)
        vals = np.sort(rho.eigenvalues())
        assert_allclose(vals[:2], 0.0, atol=1e-12)
        assert vals[2] > 1e-6

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError, match="rank"):
            eur.random_density_matrix(3, 0, seed=0)
        with pytest.raises(ValueError, match="rank"):
            eur.random_density_matrix(3, 4, seed=0)

    def test_generator_seed_continues_its_stream(self):
        """With a Generator as seed the draws match the verifier's former private sampler."""
        ours, oracle = np.random.default_rng([7, 4]), np.random.default_rng([7, 4])
        for dim in (2, 3, 4, 9):
            for rank in range(1, dim + 1):
                got = eur.random_density_matrix(dim, rank, ours)
                assert np.array_equal(got.matrix, random_mixed(oracle, dim, rank).matrix)
        assert ours.random() == oracle.random()


class TestMaximallyEntangled:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_pure_with_mixed_marginals(self, dim):
        state = eur.maximally_entangled(dim)
        assert state.joint.purity() == pytest.approx(1.0, abs=1e-12)
        assert_allclose(eur.partial_trace(state, "A").matrix, np.eye(dim) / dim, atol=1e-14)

    def test_amplitude_layout(self):
        m = eur.maximally_entangled(2).matrix
        assert m[0, 3] == pytest.approx(0.5)
        assert m[1, 1] == pytest.approx(0.0)
