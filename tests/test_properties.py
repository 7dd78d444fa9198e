"""Metamorphic properties of the bounds, generated by hypothesis.

A bound depends on the bases only through their squared overlaps and on the
state only through its overlaps with the basis vectors.  So every bound that
``build_reports`` lists must be unchanged by one unitary applied to every
basis and to the state, by relabeling the outcomes within a basis, and by a
phase on each basis vector.  The Deutsch-type bound reads a cyclic product,
so it is unchanged by a cyclic shift or a reversal of the chain, and each
order search is never below the bound of the input order it includes.

Examples are derandomized, so the tier-1 run is reproducible.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eur
from helpers import random_chain

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)
TOL = 1e-9

chains = st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10**6))


def _state(dim, seed):
    return eur.random_density_matrix(dim, 1 + seed % dim, seed)


def _report_values(chain, rho, best_order):
    return {r.bound_name: r.value for r in eur.build_reports(chain, rho, best_order=best_order)}


def _transformed(chain, rho, kind, seed):
    """The chain and state after one symmetry ``kind``: unitary, relabel or phase."""
    rng = np.random.default_rng(seed)
    d = chain.dim
    if kind == "unitary":
        u = eur.random_basis(d, seed).vectors  # rows orthonormal, so a unitary matrix
        bases = [b.vectors @ u.T for b in chain]  # each basis vector u_i -> U u_i
        rho = eur.DensityMatrix(u @ rho.matrix @ u.conj().T, validate=False)
    elif kind == "relabel":
        bases = [b.vectors[rng.permutation(d)] for b in chain]
    else:
        bases = [b.vectors * np.exp(2j * np.pi * rng.random(d))[:, None] for b in chain]
    return eur.MeasurementChain(tuple(eur.MeasurementBasis(v) for v in bases)), rho


@pytest.mark.parametrize("kind", ["unitary", "relabel", "phase"])
@PROPERTY
@given(spec=chains, best_order=st.booleans(), with_state=st.booleans())
def test_bounds_invariant_under_symmetry(kind, spec, best_order, with_state):
    d, n, seed = spec
    chain = random_chain(d, n, seed)
    rho = _state(d, seed)
    moved_chain, moved_rho = _transformed(chain, rho, kind, seed + 1)
    want = _report_values(chain, rho if with_state else None, best_order)
    got = _report_values(moved_chain, moved_rho if with_state else None, best_order)
    assert list(got) == list(want)
    for name, value in want.items():
        assert got[name] == pytest.approx(value, abs=TOL), name


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
