"""Metamorphic properties of the bounds, generated by hypothesis.

A bound depends on the bases only through their squared overlaps and on the
state only through its overlaps with the basis vectors.  So every bound that
``build_reports`` lists must be unchanged by one unitary applied to every
basis and to the state, by relabeling the outcomes within a basis, and by a
phase on each basis vector.  The memory bounds (MEMORY_MULTI, MEMORY_PURE on
pure joint states and BERTA_TWO) read the joint state only through S(A|B), so
they are unchanged by the same three moves, the unitary U_A applied to A's
side of the joint state tensored with any unitary U_B on the memory.  The
Deutsch-type bound reads a cyclic product,
so it is unchanged by a cyclic shift or a reversal of the chain, and each
order search is never below the bound of the input order it includes.

Examples are derandomized, so the tier-1 run is reproducible.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eur
from helpers import random_bipartite_mixed, random_bipartite_pure, random_chain

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)
TOL = 1e-9

chains = st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10**6))


def _state(dim, seed):
    return eur.random_density_matrix(dim, 1 + seed % dim, seed)


def _report_values(chain, rho, best_order):
    return {r.bound_name: r.value for r in eur.build_reports(chain, rho, best_order=best_order)}


def _transformed(chain, kind, seed):
    """The chain after one symmetry ``kind`` (unitary, relabel or phase), and the unitary U that
    the state then takes to U rho U^dagger: the one applied to every basis, or the identity."""
    rng = np.random.default_rng(seed)
    d = chain.dim
    u = np.eye(d)
    if kind == "unitary":
        u = eur.random_basis(d, seed).vectors  # rows orthonormal, so a unitary matrix
        bases = [b.vectors @ u.T for b in chain]  # each basis vector u_i -> U u_i
    elif kind == "relabel":
        bases = [b.vectors[rng.permutation(d)] for b in chain]
    else:
        bases = [b.vectors * np.exp(2j * np.pi * rng.random(d))[:, None] for b in chain]
    return eur.MeasurementChain(tuple(eur.MeasurementBasis(v) for v in bases)), u


def _conjugated(u, matrix):
    return eur.DensityMatrix(u @ matrix @ u.conj().T, validate=False)


@pytest.mark.parametrize("kind", ["unitary", "relabel", "phase"])
@PROPERTY
@given(spec=chains, best_order=st.booleans(), with_state=st.booleans())
def test_bounds_invariant_under_symmetry(kind, spec, best_order, with_state):
    d, n, seed = spec
    chain = random_chain(d, n, seed)
    rho = _state(d, seed)
    moved_chain, u = _transformed(chain, kind, seed + 1)
    moved_rho = _conjugated(u, rho.matrix)
    want = _report_values(chain, rho if with_state else None, best_order)
    got = _report_values(moved_chain, moved_rho if with_state else None, best_order)
    assert list(got) == list(want)
    for name, value in want.items():
        assert got[name] == pytest.approx(value, abs=TOL), name


def _memory_values(chain, mixed, pure):
    """MEMORY_MULTI on both joint states, MEMORY_PURE on the pure one, BERTA_TWO of every
    consecutive pair on both."""
    states = (mixed, pure)
    return {
        "MEMORY_MULTI": [eur.memory_multi_bound(chain, rho) for rho in states],
        "MEMORY_PURE": [eur.memory_pure_bound(chain, pure)],
        "BERTA_TWO": [eur.berta_two_bound(chain[m], chain[m + 1], rho)
                      for rho in states for m in range(len(chain) - 1)],
    }


@pytest.mark.parametrize("kind", ["unitary", "relabel", "phase"])
@PROPERTY
@given(spec=chains, dim_b=st.integers(1, 3))
def test_memory_bounds_invariant_under_symmetry(kind, spec, dim_b):
    d, n, seed = spec
    chain = random_chain(d, n, seed)
    mixed = random_bipartite_mixed(d, dim_b, 1 + seed % (d * dim_b), seed)
    pure = random_bipartite_pure(d, dim_b, seed)
    moved_chain, u = _transformed(chain, kind, seed + 1)
    u_ab = np.kron(u, eur.random_basis(dim_b, seed + 2).vectors)  # U_A on A, any U_B on the memory
    moved = [eur.BipartiteState(_conjugated(u_ab, rho.joint.matrix), d, dim_b) for rho in (mixed, pure)]
    want = _memory_values(chain, mixed, pure)
    got = _memory_values(moved_chain, *moved)
    for name, values in want.items():
        assert got[name] == pytest.approx(values, abs=TOL), name


@PROPERTY
@given(spec=chains, shift=st.integers(0, 3))
def test_deutsch_invariant_under_cyclic_shift_and_reversal(spec, shift):
    d, n, seed = spec
    chain = random_chain(d, n, seed)
    value = eur.deutsch_multi_bound(chain)
    shifted = [(k + shift) % n for k in range(n)]
    assert eur.deutsch_multi_bound(chain.reordered(shifted)) == pytest.approx(value, abs=TOL)
    assert eur.deutsch_multi_bound(chain.reordered(shifted[::-1])) == pytest.approx(value, abs=TOL)


@PROPERTY
@given(spec=chains)
def test_order_search_never_below_input_order(spec):
    d, n, seed = spec
    chain = random_chain(d, n, seed)
    assert eur.deutsch_multi_bound_best_order(chain)[0] >= eur.deutsch_multi_bound(chain)
    assert eur.mu_multi_bound_best_order(chain)[0] >= eur.mu_multi_bound(chain)
