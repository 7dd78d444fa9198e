import math
import time
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose

import eur
from eur.bounds import BoundName, _memory_gaps, _pair_bounds, _state_gaps, _weighted
from eur.core import DensityMatrix, MeasurementChain, PureState, overlap_table
from helpers import (
    _distinct_cyclic_orders,
    brute_force_chain_weights,
    brute_force_deutsch_h,
    brute_force_mu_b,
    exhaustive_mu_best_order,
    mub_chain,
    random_bipartite_mixed,
    random_bipartite_pure,
    random_chain,
    random_pure_density,
    reordered_best_order,
    tilted_qubit_chain_and_state,
)

# -2 log2((1 + sqrt(1/2)) / 2) and the three-factor analogue
DEUTSCH_MUB2_PAIR = 0.45689339367277615
DEUTSCH_MUB2_TRIPLE = 0.6853400905091642

MAX_MIXED_2 = DensityMatrix(np.eye(2) / 2)


class TestDeutschMulti:
    def test_matches_brute_force(self):
        for dim, n, seed in [(2, 2, 1), (2, 3, 2), (2, 4, 3), (3, 2, 4), (3, 3, 5), (4, 3, 6)]:
            chain = random_chain(dim, n, seed)
            assert_allclose(
                eur.deutsch_multi_bound(chain),
                -np.log2(brute_force_deutsch_h(chain)),
                atol=1e-12,
            )

    def test_two_basis_reduction(self):
        # for N = 2 the cyclic factors pair up, giving -2 log2((1 + sqrt(c)) / 2)
        for seed in range(10):
            for dim in (2, 3, 4):
                chain = random_chain(dim, 2, seed=50 + seed)
                c = eur.max_overlap(chain[0], chain[1])
                expected = -2.0 * np.log2((1.0 + np.sqrt(c)) / 2.0)
                assert_allclose(eur.deutsch_multi_bound(chain), expected, atol=1e-12)

    def test_qubit_mub_values(self):
        assert eur.deutsch_multi_bound(mub_chain(2, 2)) == pytest.approx(
            DEUTSCH_MUB2_PAIR, abs=1e-15
        )
        assert eur.deutsch_multi_bound(mub_chain(2, 3)) == pytest.approx(
            DEUTSCH_MUB2_TRIPLE, abs=1e-15
        )

    def test_repeated_basis_gives_zero(self):
        b = eur.computational_basis(3)
        val = eur.deutsch_multi_bound(MeasurementChain((b, b)))
        assert val == 0.0
        assert math.copysign(1.0, val) == 1.0  # not -0.0

    def test_cyclic_and_reversal_invariance(self):
        chain = random_chain(3, 4, seed=7)
        base = eur.deutsch_multi_bound(chain)
        for order in [(1, 2, 3, 0), (2, 3, 0, 1), (3, 2, 1, 0), (0, 3, 2, 1)]:
            assert_allclose(eur.deutsch_multi_bound(chain.reordered(order)), base, atol=1e-12)


class TestMuMulti:
    def test_matches_brute_force(self):
        for dim, n, seed in [(2, 2, 11), (2, 3, 12), (2, 4, 13), (3, 3, 14), (4, 2, 15), (3, 4, 16)]:
            chain = random_chain(dim, n, seed)
            assert_allclose(eur.mu_multi_bound(chain), -np.log2(brute_force_mu_b(chain)), atol=1e-12)

    def test_two_basis_reduction(self):
        for seed in range(10):
            for dim in (2, 3, 4, 5):
                chain = random_chain(dim, 2, seed=80 + seed)
                c = eur.max_overlap(chain[0], chain[1])
                assert_allclose(eur.mu_multi_bound(chain), -np.log2(c), atol=1e-12)

    def test_mub_chains(self):
        # two MUBs in dim d: b = 1/d, bound = log2 d
        for d in (2, 3, 5):
            assert eur.mu_multi_bound(mub_chain(d, 2)) == pytest.approx(np.log2(d), abs=1e-12)
        assert eur.mu_multi_bound(mub_chain(2, 3)) == pytest.approx(1.0, abs=1e-12)

    def test_with_state(self):
        chain = mub_chain(2, 3)
        pure = PureState(np.array([1.0, 0.0])).projector()
        assert eur.mu_multi_bound_with_state(chain, pure) == pytest.approx(1.0, abs=1e-12)
        assert eur.mu_multi_bound_with_state(chain, MAX_MIXED_2) == pytest.approx(3.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            eur.mu_multi_bound_with_state(mub_chain(2, 3), DensityMatrix(np.eye(3) / 3))

    def test_dominates_first_pair(self):
        # the chain bound never falls below the bound from its first two bases
        for seed in range(20):
            chain = random_chain(3, 3, seed=200 + seed)
            first_pair = -np.log2(eur.max_overlap(chain[0], chain[1]))
            assert eur.mu_multi_bound(chain) >= first_pair - 1e-12


class TestMuTwo:
    def test_consistent_with_chain_form(self):
        for seed in range(10):
            chain = random_chain(3, 2, seed=300 + seed)
            assert_allclose(
                eur.mu_two_bound(chain[0], chain[1]), eur.mu_multi_bound(chain), atol=1e-12
            )

    def test_state_term(self):
        a, b = mub_chain(2, 2)
        assert eur.mu_two_bound(a, b) == pytest.approx(1.0, abs=1e-12)
        assert eur.mu_two_bound(a, b, MAX_MIXED_2) == pytest.approx(2.0, abs=1e-12)

    def test_dimension_mismatch(self):
        a, b = mub_chain(2, 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            eur.mu_two_bound(a, b, DensityMatrix(np.eye(3) / 3))


class TestWeighted:
    def test_qubit_mub_value(self):
        u, v, w = mub_chain(2, 3)
        assert eur.weighted_bound(u, v, w) == pytest.approx(2.0, abs=1e-12)
        assert eur.weighted_bound(u, v, w, MAX_MIXED_2) == pytest.approx(4.0, abs=1e-12)

    def test_dimension_mismatch(self):
        u, v, w = mub_chain(2, 3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            eur.weighted_bound(u, v, w, DensityMatrix(np.eye(3) / 3))

    def test_matches_elementwise_maximum(self):
        for seed in range(10):
            u = eur.random_basis(3, seed=400 + seed)
            v = eur.random_basis(3, seed=500 + seed)
            w = eur.random_basis(3, seed=600 + seed)
            cuw = eur.overlap_table(u, w)
            cwv = eur.overlap_table(w, v)
            m = max(
                cuw[i, k] * cwv[k, j]
                for i in range(3)
                for j in range(3)
                for k in range(3)
            )
            assert_allclose(eur.weighted_bound(u, v, w), -np.log2(m), atol=1e-12)

    def test_entropy_sum_dominance(self):
        # H(u) + H(v) + 2 H(w) >= bound, random bases and states
        for seed in range(25):
            u = eur.random_basis(2, seed=700 + seed)
            v = eur.random_basis(2, seed=800 + seed)
            w = eur.random_basis(2, seed=900 + seed)
            rho = eur.random_density_matrix(2, 2, seed=seed)
            lhs = (
                eur.shannon_entropy(eur.outcome_distribution(u, rho))
                + eur.shannon_entropy(eur.outcome_distribution(v, rho))
                + 2.0 * eur.shannon_entropy(eur.outcome_distribution(w, rho))
            )
            assert lhs >= eur.weighted_bound(u, v, w, rho) - 1e-9


class TestPairBounds:
    @pytest.mark.parametrize(
        "chain",
        [random_chain(d, n, seed=10 * d + n) for d in range(1, 6) for n in range(2, 6)]
        + [mub_chain(d, d + 1) for d in (2, 3, 5)] + [mub_chain(2, 2)],
    )
    def test_bank_terms_are_the_public_bounds_bit_for_bit(self, chain):
        """The bank's pair terms, and WEIGHTED from the bank's tables, equal the two- and
        three-basis bounds, which build their own tables."""
        bank, n = chain.overlaps, len(chain)
        pairs = _pair_bounds(bank)
        for i, j in permutations(range(n), 2):
            assert pairs[i, j] == eur.mu_two_bound(chain[i], chain[j]), (i, j)
        if n == 3:
            assert _weighted(bank[0, 2], bank[2, 1]) == eur.weighted_bound(*chain)


class TestScbMax:
    def test_qubit_mub_triple(self):
        chain = mub_chain(2, 3)
        assert eur.scb_max_bound(chain) == pytest.approx(1.5, abs=1e-12)
        assert eur.scb_max_bound(chain, MAX_MIXED_2) == pytest.approx(3.0, abs=1e-12)

    def test_two_basis_chain_equals_pair_bound(self):
        for seed in range(10):
            chain = random_chain(2, 2, seed=150 + seed)
            assert_allclose(
                eur.scb_max_bound(chain), eur.mu_two_bound(chain[0], chain[1]), atol=1e-14
            )

    def test_at_least_every_pair(self):
        for seed in range(10):
            chain = random_chain(3, 4, seed=250 + seed)
            scb = eur.scb_max_bound(chain)
            n = len(chain)
            for i in range(n):
                for j in range(i + 1, n):
                    assert scb >= -np.log2(eur.max_overlap(chain[i], chain[j])) - 1e-12

    def test_entropy_sum_dominance(self):
        for seed in range(20):
            chain = random_chain(2, 3, seed=350 + seed)
            rho = eur.random_density_matrix(2, 2, seed=seed)
            esum = sum(
                eur.shannon_entropy(eur.outcome_distribution(b, rho)) for b in chain
            )
            assert esum >= eur.scb_max_bound(chain, rho) - 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            eur.scb_max_bound(mub_chain(2, 3), DensityMatrix(np.eye(3) / 3))


class TestChainCoefficients:
    def test_matches_brute_force(self):
        for dim, n, seed in [(2, 2, 21), (2, 3, 22), (3, 3, 23), (3, 4, 24)]:
            chain = random_chain(dim, n, seed)
            rho = eur.random_density_matrix(dim, dim, seed=seed)
            assert_allclose(
                eur.chain_coefficients(chain, rho),
                brute_force_chain_weights(chain, rho),
                atol=1e-12,
            )

    def test_is_probability_vector(self):
        chain = random_chain(4, 3, seed=25)
        w = eur.chain_coefficients(chain, random_pure_density(4, seed=26))
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-10)


class TestStateDependent:
    def test_frozen_qubit_values(self):
        chain = mub_chain(2, 3)
        zero = PureState(np.array([1.0, 0.0])).projector()
        assert eur.state_dependent_bound(chain, zero) == pytest.approx(1.0, abs=1e-12)
        assert eur.state_dependent_bound(chain, MAX_MIXED_2) == pytest.approx(3.0, abs=1e-12)

    def test_tight_for_aligned_state(self):
        # measuring |0> twice in its own basis: entropy sum and bound both vanish
        b = eur.computational_basis(2)
        chain = MeasurementChain((b, b))
        zero = PureState(np.array([1.0, 0.0])).projector()
        assert eur.state_dependent_bound(chain, zero) == pytest.approx(0.0, abs=1e-12)

    def test_dominates_state_independent_form(self):
        for seed in range(15):
            dim = 2 + seed % 3
            chain = random_chain(dim, 2 + seed % 3, seed=450 + seed)
            rho = eur.random_density_matrix(dim, dim, seed=seed)
            assert (
                eur.state_dependent_bound(chain, rho)
                >= eur.mu_multi_bound_with_state(chain, rho) - 1e-9
            )

    def test_entropy_sum_dominance(self):
        for seed in range(15):
            chain = random_chain(2, 3, seed=550 + seed)
            rho = random_pure_density(2, seed=seed)
            esum = sum(
                eur.shannon_entropy(eur.outcome_distribution(b, rho)) for b in chain
            )
            assert esum >= eur.state_dependent_bound(chain, rho) - 1e-9

    def test_finite_where_the_chain_weight_is_below_the_support_tolerance(self):
        """The last basis' outcome 0 has probability 4 eps (1 - eps) and chain weight 2 eps (1 - eps),
        below 1e-12: a bound read off sigma's support would be inf, above the entropy sum."""
        chain, rho = tilted_qubit_chain_and_state()
        bound = eur.state_dependent_bound(chain, rho)
        esum = sum(eur.shannon_entropy(eur.outcome_distribution(b, rho)) for b in chain)
        assert math.isfinite(bound)
        assert eur.mu_multi_bound_with_state(chain, rho) - 1e-12 <= bound <= esum + 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_relative_entropy_form(self, dim, n):
        """The closed form against N S(rho) + S(rho || sigma) with sigma built and eigendecomposed."""
        for k, rank in enumerate(sorted({dim, dim - 1, 1})):
            seed = 100 * dim + 10 * n + k
            chain = random_chain(dim, n, seed)
            rho = eur.random_density_matrix(dim, rank, seed=seed)
            beta = eur.chain_coefficients(chain, rho)
            v = chain[-1].vectors
            sigma = DensityMatrix((v.T * (beta / beta.sum())) @ v.conj())
            expected = n * eur.von_neumann_entropy(rho) + eur.relative_entropy(rho, sigma)
            assert eur.state_dependent_bound(chain, rho) == pytest.approx(expected, abs=1e-10)


def _count_decompositions(monkeypatch):
    calls = {"eigvalsh": 0, "eigh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestOneSpectrumPerState:
    """Every state term of one call reads one ``eigvalsh`` spectrum; no eigenvector is taken."""

    def test_build_reports(self, monkeypatch):
        chain = random_chain(3, 3, seed=7)
        rho = eur.random_density_matrix(3, 3, seed=7)
        calls = _count_decompositions(monkeypatch)
        eur.build_reports(chain, rho)
        assert calls == {"eigvalsh": 1, "eigh": 0}

    def test_state_gaps(self, monkeypatch):
        chain = random_chain(3, 3, seed=8)
        rhos = np.array([eur.random_density_matrix(3, 2, seed=seed).matrix for seed in range(5)])
        calls = _count_decompositions(monkeypatch)
        _state_gaps(chain, rhos)
        assert calls == {"eigvalsh": 1, "eigh": 0}


class TestMemoryBounds:
    def test_maximally_entangled_qubit_values(self):
        me = eur.maximally_entangled(2)
        chain = mub_chain(2, 3)
        assert eur.memory_multi_bound(chain, me) == pytest.approx(-1.0, abs=1e-12)
        assert eur.memory_pure_bound(chain, me) == pytest.approx(0.0, abs=1e-12)
        assert eur.berta_two_bound(chain[0], chain[1], me) == pytest.approx(0.0, abs=1e-12)

    def test_memory_pure_rejects_mixed(self):
        state = random_bipartite_mixed(2, 2, rank=3, seed=1)
        with pytest.raises(ValueError, match="pure"):
            eur.memory_pure_bound(mub_chain(2, 3), state)

    def test_trivial_memory_reduces_to_state_form(self):
        rho = eur.random_density_matrix(2, 2, seed=31)
        joint = eur.BipartiteState(DensityMatrix(np.kron(rho.matrix, np.eye(1))), 2, 1)
        chain = random_chain(2, 3, seed=32)
        assert_allclose(
            eur.memory_multi_bound(chain, joint),
            eur.mu_multi_bound_with_state(chain, rho),
            atol=1e-12,
        )

    def test_measured_entropy_dominance(self):
        for seed in range(10):
            state = random_bipartite_mixed(2, 2, rank=2, seed=60 + seed)
            chain = random_chain(2, 3, seed=650 + seed)
            esum = sum(eur.measured_conditional_entropy(b, state) for b in chain)
            assert esum >= eur.memory_multi_bound(chain, state) - 1e-9

    def test_dimension_mismatch(self):
        me = eur.maximally_entangled(3)
        with pytest.raises(ValueError, match="mismatch"):
            eur.memory_multi_bound(mub_chain(2, 3), me)
        with pytest.raises(ValueError, match="mismatch"):
            eur.berta_two_bound(eur.computational_basis(2), eur.computational_basis(2), me)

    def test_dimension_mismatch_messages(self):
        chain = mub_chain(2, 3)
        for state in (eur.maximally_entangled(3), random_bipartite_mixed(3, 2, rank=4, seed=5)):
            for bound in (eur.memory_multi_bound, eur.memory_pure_bound):
                with pytest.raises(ValueError) as exc:
                    bound(chain, state)
                assert str(exc.value) == "dimension mismatch: chain dim 2 vs subsystem A dim 3"
            with pytest.raises(ValueError) as exc:
                eur.berta_two_bound(chain[0], chain[1], state)
            assert str(exc.value) == "dimension mismatch: basis dim 2 vs subsystem A dim 3"


class TestOrderSearch:
    def test_distinct_cyclic_order_counts(self):
        assert _distinct_cyclic_orders(2) == [(0, 1)]
        assert len(_distinct_cyclic_orders(3)) == 1
        assert len(_distinct_cyclic_orders(4)) == 3
        assert len(_distinct_cyclic_orders(5)) == 12

    def test_deutsch_best_order_covers_all_permutations(self):
        chain = random_chain(2, 4, seed=41)
        best, order = eur.deutsch_multi_bound_best_order(chain)
        exhaustive = max(
            eur.deutsch_multi_bound(chain.reordered(p)) for p in permutations(range(4))
        )
        assert_allclose(best, exhaustive, atol=1e-12)
        assert_allclose(eur.deutsch_multi_bound(chain.reordered(order)), best, atol=1e-12)

    def test_deutsch_search_closes_each_cycle_once(self, monkeypatch):
        closed, steps = [], eur.bounds._deutsch_steps

        def counting_steps(bank):
            f, step, close = steps(bank)

            def counted_close(first, last, v):
                closed.append(len(v))
                return close(first, last, v)

            return f, step, counted_close

        monkeypatch.setattr(eur.bounds, "_deutsch_steps", counting_steps)
        for n in range(2, 9):
            chain = random_chain(2, n, seed=1500 + n)
            want = reordered_best_order(chain, eur.deutsch_multi_bound, _distinct_cyclic_orders(n))
            closed.clear()
            assert eur.deutsch_multi_bound_best_order(chain) == want
            assert sum(closed) == (1 if n == 2 else math.factorial(n - 1) // 2)

    @staticmethod
    def _walked_blocks(monkeypatch, name):
        """Record every block the search ``name`` walks: (its orders, the float count of each stack a
        step receives).  The orders are read back from the indices the steps and the close receive:
        the close gets every order's first index, and the level-m step the m-th index of every
        prefix, each prefix's children being the rows that follow it."""
        blocks, levels, steps = [], [], getattr(eur.bounds, name)

        def recording_steps(bank):
            start, step, close = steps(bank)

            def recorded_step(v, i, j):
                levels.append((v.size, i, j))
                return step(v, i, j)

            def recorded_close(first, last, v):
                columns = [first] + [levels[0][1]] * bool(levels) + [j for _, _, j in levels]
                orders = np.stack([np.repeat(c, len(first) // len(c)) for c in columns], axis=1)
                blocks.append((orders, [size for size, _, _ in levels]))
                levels.clear()
                return close(first, last, v)

            return start, recorded_step, recorded_close

        monkeypatch.setattr(eur.bounds, name, recording_steps)
        return blocks

    @pytest.mark.parametrize("name,search,walk,tail,floats", [
        ("_deutsch_steps", eur.deutsch_multi_bound_best_order,
         lambda n: [(0, j, *p, l) for j in range(1, n) for l in range(j + 1, n)
                    for p in permutations(sorted(set(range(1, n)) - {j, l}))], 1, 4),
        ("_mu_steps", eur.mu_multi_bound_best_order, lambda n: list(permutations(range(n))), 0, 2),
    ], ids=["deutsch", "mu"])
    def test_search_stacks_one_subtree_of_free_indices(self, monkeypatch, name, search, walk, tail, floats):
        """No step receives more than ``_STACK_BUDGET`` floats (``floats`` per vector at d = 2), and each
        block is a run of whole subtrees: the orders below a prefix of length q, q the shortest whose
        subtrees fit the budget, are all in the block or none (a subtree also keeps its root's tail).
        On identity tables the MU floors never reach the incumbent, so both searches walk every
        order, root by root in ``walk`` order."""
        blocks = self._walked_blocks(monkeypatch, name)
        for budget, sizes in ((2**14, range(3, 9)), (4 * 24, range(3, 8)), (4 * 5, range(3, 8)), (4, range(3, 8))):
            monkeypatch.setattr(eur.bounds, "_STACK_BUDGET", budget)
            for n in sizes:
                t = n - tail  # positions before the tail
                q = next(q for q in range(2, t + 1) if math.factorial(t - q) <= budget // floats)
                subtree = lambda o: (o[:q], o[t:])
                whole = Counter(map(subtree, walk(n)))
                identity = MeasurementChain((eur.computational_basis(2),) * n)
                for chain, walks_all in ((random_chain(2, n, seed=1550 + n), False), (identity, True)):
                    blocks.clear()
                    search(chain)
                    walked = [tuple(o) for block, _ in blocks for o in block.tolist()]
                    assert len(set(walked)) == len(walked)
                    if walks_all:
                        assert walked == walk(n)
                    for block, stacks in blocks:
                        assert max(stacks, default=0) <= budget
                        part = Counter(subtree(tuple(o)) for o in block.tolist())
                        assert all(whole[key] == count for key, count in part.items())

    def test_deutsch_search_takes_few_steps_at_eight_bases(self, monkeypatch):
        """At d = 4 a block holds 2^14 / 16 = 1024 orders: the 21 roots of 120 orders go 8, 8 and 5
        to a block, 3 blocks of 6 levels, where one walk per root took 126 steps."""
        chain = random_chain(4, 8, seed=1560)
        want = reordered_best_order(chain, eur.deutsch_multi_bound, _distinct_cyclic_orders(8))
        blocks = self._walked_blocks(monkeypatch, "_deutsch_steps")
        assert eur.deutsch_multi_bound_best_order(chain) == want
        assert [len(block) for block, _ in blocks] == [960, 960, 600]
        assert sum(len(sizes) for _, sizes in blocks) == 18

    @pytest.mark.parametrize("budget", [2**14, 16 * 6])
    def test_all_ties_keep_the_first_order_across_blocks(self, monkeypatch, budget):
        """Identity tables tie every order at 0, so both searches must return (0, ..., 7).  At d = 4
        the Deutsch search's first block of 8 roots holds it as the first order of its 6th root,
        behind 600 tied orders; with 96 floats a block holds 6 Deutsch or 24 MU orders, so the ties
        also span block borders inside one root."""
        monkeypatch.setattr(eur.bounds, "_STACK_BUDGET", budget)
        chain = MeasurementChain((eur.computational_basis(4),) * 8)
        for search in (eur.deutsch_multi_bound_best_order, eur.mu_multi_bound_best_order):
            val, order = search(chain)
            assert (val, order) == (0.0, tuple(range(8)))
            assert math.copysign(1.0, val) == 1.0

    def test_mu_best_order_dominates_input_order(self):
        for seed in range(10):
            chain = random_chain(3, 3, seed=750 + seed)
            best, order = eur.mu_multi_bound_best_order(chain)
            assert best >= eur.mu_multi_bound(chain) - 1e-12
            assert_allclose(eur.mu_multi_bound(chain.reordered(order)), best, atol=1e-12)

    def test_searches_match_reordered_chain_loop(self):
        for n in range(2, 7):
            for seed in range(2):
                chain = random_chain(3, n, seed=900 + 10 * n + seed)
                assert eur.mu_multi_bound_best_order(chain) == reordered_best_order(
                    chain, eur.mu_multi_bound, permutations(range(n))
                )
                assert eur.deutsch_multi_bound_best_order(chain) == reordered_best_order(
                    chain, eur.deutsch_multi_bound, _distinct_cyclic_orders(n)
                )

    def test_tie_break_keeps_first_order(self):
        chain = mub_chain(2, 3)
        values = {eur.mu_multi_bound(chain.reordered(p)) for p in permutations(range(3))}
        assert len(values) == 1  # every ordering ties
        assert eur.mu_multi_bound_best_order(chain) == (values.pop(), (0, 1, 2))
        chain = MeasurementChain(tuple(eur.mub_set(3)))
        values = {eur.deutsch_multi_bound(chain.reordered(p)) for p in _distinct_cyclic_orders(4)}
        assert len(values) == 1  # every cyclic order ties
        assert eur.deutsch_multi_bound_best_order(chain) == (values.pop(), (0, 1, 2, 3))

    def test_mu_search_matches_exhaustive_orders(self):
        chains = [random_chain(dim, n, seed=1200 + 10 * dim + n) for dim in (3, 4) for n in range(2, 8)]
        for chain in chains:
            assert eur.deutsch_multi_bound_best_order(chain) == reordered_best_order(
                chain, eur.deutsch_multi_bound, _distinct_cyclic_orders(len(chain))
            )
        chains.append(MeasurementChain(tuple(eur.mub_set(5))))  # every table uniform
        for chain in chains:
            assert eur.mu_multi_bound_best_order(chain) == exhaustive_mu_best_order(chain)

    def test_deutsch_search_nine_bases(self):
        chain = random_chain(4, 9, seed=1250)
        start = time.perf_counter()
        val, order = eur.deutsch_multi_bound_best_order(chain)
        assert time.perf_counter() - start < 10.0
        assert val == eur.deutsch_multi_bound(chain.reordered(order))

    def test_deutsch_search_ten_bases(self):
        chain = random_chain(4, 10, seed=1251)
        start = time.perf_counter()
        val, order = eur.deutsch_multi_bound_best_order(chain)
        assert time.perf_counter() - start < 10.0
        assert val == eur.deutsch_multi_bound(chain.reordered(order))

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_searches_match_loops_across_dimensions(self, dim):
        for n in range(2, 7):  # N = 2: a root per order and no level to expand
            chains = [random_chain(dim, n, seed=1400 + 10 * dim + n)]
            if dim == 1:  # every table is exactly [[1]], so every order ties and the first one wins
                chains.append(MeasurementChain((eur.computational_basis(1),) * n))
            for chain in chains:
                deutsch = eur.deutsch_multi_bound_best_order(chain)
                mu = eur.mu_multi_bound_best_order(chain)
                assert deutsch == reordered_best_order(chain, eur.deutsch_multi_bound, _distinct_cyclic_orders(n))
                assert mu == exhaustive_mu_best_order(chain)
            if dim == 1:
                assert deutsch == mu == (0.0, tuple(range(n)))

    def test_deutsch_search_repeated_bases(self):
        a, b, c = (eur.random_basis(3, seed) for seed in (1460, 1461, 1462))
        for bases in [(a, b, a, c, b), (a, a, b, b), (a, b, c, a, b, c)]:
            chain = MeasurementChain(bases)
            assert eur.deutsch_multi_bound_best_order(chain) == reordered_best_order(
                chain, eur.deutsch_multi_bound, _distinct_cyclic_orders(len(bases))
            )
        # every table is the identity, so every cyclic order gives a product of 1
        val, order = eur.deutsch_multi_bound_best_order(MeasurementChain((eur.computational_basis(3),) * 4))
        assert (val, order) == (0.0, (0, 1, 2, 3))
        assert math.copysign(1.0, val) == 1.0

    def test_mu_search_repeated_basis_keeps_input_order(self):
        # every table is the identity, so every order gives b = 1
        chain = MeasurementChain((eur.computational_basis(3),) * 4)
        val, order = eur.mu_multi_bound_best_order(chain)
        assert (val, order) == (0.0, (0, 1, 2, 3))
        assert math.copysign(1.0, val) == 1.0

    def test_mu_search_prune_admissible_off_doubly_stochastic(self):
        # Bases a few 1e-10 off orthonormal (inside the validation tolerances)
        # give tables whose row sums leave 1, so the prune must read them.
        rng = np.random.default_rng(1300)

        def perturbed(bases):
            out = []
            for b in bases:
                z = rng.standard_normal((2, b.dim, b.dim))
                v = b.vectors + 1e-10 * (z[0] + 1j * z[1])
                out.append(eur.MeasurementBasis(v / np.linalg.norm(v, axis=1, keepdims=True)))
            return MeasurementChain(tuple(out))

        # Shrinking the first basis' rows gives every table that touches it
        # row sums 1 - 5e-11; a prune assuming unit row sums gets its order wrong.
        mub5 = eur.mub_set(5)
        first = eur.MeasurementBasis(mub5[0].vectors * np.sqrt(1.0 - 5e-11))
        shrunk = MeasurementChain((first, *mub5[1:]))
        chains = [perturbed(mub5), perturbed(random_chain(4, 6, seed=1301)), shrunk]
        for chain in chains:
            assert eur.mu_multi_bound_best_order(chain) == exhaustive_mu_best_order(chain)


class TestBuildReports:
    def test_pair_without_state(self):
        reports = eur.build_reports(random_chain(2, 2, seed=71))
        names = {r.bound_name for r in reports}
        assert names == {BoundName.DEUTSCH_MULTI, BoundName.MU_MULTI, BoundName.SCB_MAX, BoundName.MU_TWO}
        assert all(not r.state_dependent for r in reports)

    def test_triple_with_state(self):
        reports = eur.build_reports(mub_chain(2, 3), MAX_MIXED_2)
        by_name = {r.bound_name: r for r in reports}
        assert set(by_name) == {
            BoundName.DEUTSCH_MULTI,
            BoundName.MU_MULTI,
            BoundName.SCB_MAX,
            BoundName.WEIGHTED,
            BoundName.STATE_DEPENDENT,
        }
        assert by_name[BoundName.MU_MULTI].value == pytest.approx(3.0, abs=1e-12)
        assert by_name[BoundName.STATE_DEPENDENT].state_dependent
        assert not by_name[BoundName.DEUTSCH_MULTI].state_dependent

    def test_min_entropy_selection(self):
        reports = eur.build_reports(mub_chain(2, 3), orders="min")
        assert [r.bound_name for r in reports] == [BoundName.DEUTSCH_MULTI]

    def test_invalid_orders_rejected(self):
        with pytest.raises(ValueError, match="orders"):
            eur.build_reports(mub_chain(2, 3), orders="renyi")

    def test_state_dimension_mismatch(self):
        for orders in ("shannon", "min"):
            with pytest.raises(ValueError, match="dimension mismatch"):
                eur.build_reports(mub_chain(2, 3), DensityMatrix(np.eye(3) / 3), orders=orders)

    def test_state_dependent_is_the_verify_kernels_value(self):
        # both take the first and last bases' Born probabilities from one stacked product, so
        # `bounds --state` prints the bits that `verify` checks
        for dim in (2, 3, 4, 5):
            for n in (2, 3, 4, 5):
                for seed in range(5):
                    chain = random_chain(dim, n, seed)
                    for rank in (1, dim):
                        rho = eur.random_density_matrix(dim, rank, seed)
                        value = {r.bound_name: r.value for r in eur.build_reports(chain, rho)}
                        kernel = _state_gaps(chain, rho.matrix[None])[BoundName.STATE_DEPENDENT][1]
                        assert value[BoundName.STATE_DEPENDENT] == kernel[0], (dim, n, seed, rank)

    def test_best_order_recorded(self):
        chain = random_chain(3, 3, seed=81)
        default = {r.bound_name: r for r in eur.build_reports(chain)}
        best = {r.bound_name: r for r in eur.build_reports(chain, best_order=True)}
        assert best[BoundName.MU_MULTI].value >= default[BoundName.MU_MULTI].value - 1e-12
        assert sorted(best[BoundName.MU_MULTI].chain_order) == [0, 1, 2]

    @pytest.mark.parametrize("count", [3, 2])
    def test_builds_no_overlap_table_once_the_bank_is_built(self, count, monkeypatch):
        """MU_TWO and WEIGHTED take their tables from ``chain.overlaps``, like every other bound."""
        chain = mub_chain(2, count)
        chain.overlaps
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return overlap_table(a, b)

        monkeypatch.setattr(eur.core, "overlap_table", counting)
        monkeypatch.setattr(eur.bounds, "overlap_table", counting)
        names = [r.bound_name for r in eur.build_reports(chain, MAX_MIXED_2)]
        assert (BoundName.WEIGHTED if count == 3 else BoundName.MU_TWO) in names
        assert calls == []

    def test_best_order_values_match_reordered_chain(self):
        for seed in range(30):
            dim, n = 2 + seed % 3, 2 + seed % 4
            chain = random_chain(dim, n, seed=900 + seed)
            rho = eur.random_density_matrix(dim, 1 + seed % dim, seed=950 + seed)
            by_name = {r.bound_name: r for r in eur.build_reports(chain, rho, best_order=True)}
            mu, deutsch = by_name[BoundName.MU_MULTI], by_name[BoundName.DEUTSCH_MULTI]
            assert mu.value == eur.mu_multi_bound_with_state(chain.reordered(mu.chain_order), rho)
            assert deutsch.value == eur.deutsch_multi_bound(chain.reordered(deutsch.chain_order))


class TestChainScalarsAreTheReportedBits:
    """Each chain-taking public scalar returns, bit for bit, the value ``eur bounds`` prints (state
    mode) or the one ``verify`` checks (memory mode)."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_state_mode(self, dim):
        scalars = {
            BoundName.MU_MULTI: eur.mu_multi_bound_with_state,
            BoundName.SCB_MAX: eur.scb_max_bound,
            BoundName.STATE_DEPENDENT: eur.state_dependent_bound,
        }
        for n in (2, 3, 4, 5):
            for seed in range(10):
                chain = random_chain(dim, n, seed)
                for rank in (1, dim):
                    rho = eur.random_density_matrix(dim, rank, seed)
                    reported = {r.bound_name: r.value for r in eur.build_reports(chain, rho)}
                    for name, scalar in scalars.items():
                        assert scalar(chain, rho) == reported[name], (name, n, seed, rank)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_memory_mode(self, dim):
        scalars = {BoundName.MEMORY_MULTI: eur.memory_multi_bound, BoundName.MEMORY_PURE: eur.memory_pure_bound}
        for n in (2, 3, 4, 5):
            for seed in range(10):
                chain = random_chain(dim, n, seed)
                for dim_b in (1, 2, 3):
                    pure = random_bipartite_pure(dim, dim_b, seed)
                    mixed = random_bipartite_mixed(dim, dim_b, rank=dim * dim_b, seed=seed)
                    for state, names in ((pure, scalars), (mixed, [BoundName.MEMORY_MULTI])):
                        gaps = _memory_gaps(chain, state.joint.matrix[None], dim_b)
                        for name in names:
                            assert scalars[name](chain, state) == gaps[name][1][0], (name, n, seed, dim_b)
