"""End-to-end acceptance checks.

One test per criterion; ``pytest -v`` therefore reports one pass/fail line
for each.  Every test measures its own wall-clock time and fails if it blows
its runtime budget.
"""

import math
import time

import numpy as np
import pytest

import eur
from eur.cli import main as cli_main
from helpers import (
    mub_chain,
    random_bipartite_mixed,
    random_bipartite_pure,
    random_chain,
    random_pure_density,
)

# -3 log2((1 + sqrt(1/2)) / 2), the three-MUB qubit cyclic-product value
DEUTSCH_MUB2_TRIPLE = 0.6853400905091642


def _finish(name: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s exceeds budget {budget}s"
    print(f"{name}: PASS in {elapsed:.2f}s (budget {budget}s)")


def test_criterion_01_two_measurement_reductions():
    t0 = time.perf_counter()
    for i in range(100):
        dim = (2, 3, 4, 5)[i % 4]
        chain = random_chain(dim, 2, seed=100_000 + i)
        c = eur.max_overlap(chain[0], chain[1])
        assert abs(eur.mu_multi_bound(chain) - (-np.log2(c))) <= 1e-12
        expected = -2.0 * np.log2((1.0 + np.sqrt(c)) / 2.0)
        assert abs(eur.deutsch_multi_bound(chain) - expected) <= 1e-12
    _finish("criterion 1 (two-measurement reductions)", t0, 5.0)


def test_criterion_02_qubit_mub_triple_certified():
    t0 = time.perf_counter()
    chain = mub_chain(2, 3)
    assert eur.mu_multi_bound(chain) == pytest.approx(1.0, abs=1e-12)
    assert eur.scb_max_bound(chain) == pytest.approx(1.5, abs=1e-12)
    assert eur.deutsch_multi_bound(chain) == pytest.approx(DEUTSCH_MUB2_TRIPLE, abs=1e-6)
    result = eur.minimize_entropy_sum(chain, orders=1.0, config=eur.MinimizationConfig(restarts=64))
    assert result.objective_min == pytest.approx(2.0, abs=1e-4)
    for name, slack in result.slack_per_bound.items():
        assert slack >= -1e-9, f"{name} slack {slack}"
    _finish("criterion 2 (qubit MUB triple)", t0, 30.0)


def test_criterion_03_parametric_scan_dominance(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "scan.csv"
    rc = cli_main(
        [
            "scan",
            "--family", "paper-d3",
            "--param", "a",
            "--range", "0:1",
            "--steps", "101",
            "--phi", "1.5707963267948966",
            "--bounds", "mu-multi,scb-max",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,phi,mu_multi,scb_max"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) == 101
    mu = [r[2] for r in rows]
    scb = [r[3] for r in rows]
    for k in range(101):
        assert math.isfinite(mu[k]) and math.isfinite(scb[k])
        assert mu[k] >= scb[k] - 1e-9, f"a={rows[k][0]}: {mu[k]} < {scb[k]}"
    for curve in (mu, scb):
        jumps = np.abs(np.diff(curve))
        assert jumps.max() < 0.5, f"largest adjacent jump {jumps.max()}"
    _finish("criterion 3 (parametric-family scan)", t0, 10.0)


def test_criterion_04_shannon_chain_soundness():
    t0 = time.perf_counter()
    for i in range(500):
        dim = (2, 3, 4)[i % 3]
        n = (2, 3, 4)[(i // 3) % 3]
        chain = random_chain(dim, n, seed=400_000 + i)
        rho = eur.random_density_matrix(dim, 1 + i % dim, seed=410_000 + i)
        bound = eur.mu_multi_bound_with_state(chain, rho)
        assert eur.entropy_sum(chain, rho, orders=1.0) >= bound - 1e-6
        assert eur.state_dependent_bound(chain, rho) >= bound - 1e-9
    _finish("criterion 4 (Shannon chain soundness, 500 draws)", t0, 60.0)


def test_criterion_05_min_entropy_chain_soundness():
    t0 = time.perf_counter()
    for i in range(500):
        dim = (2, 3, 4)[i % 3]
        n = (2, 3, 4)[(i // 3) % 3]
        chain = random_chain(dim, n, seed=500_000 + i)
        rho = random_pure_density(dim, seed=510_000 + i)
        assert eur.entropy_sum(chain, rho, orders=math.inf) >= eur.deutsch_multi_bound(chain) - 1e-6
    _finish("criterion 5 (min-entropy chain soundness, 500 draws)", t0, 30.0)


def test_criterion_06_memory_chain_soundness():
    t0 = time.perf_counter()
    for i in range(300):
        da = (2, 3)[i % 2]
        db = (2, 3)[(i // 2) % 2]
        n = (2, 3)[(i // 4) % 2]
        chain = random_chain(da, n, seed=600_000 + i)
        pure = i % 2 == 0
        if pure:
            state = random_bipartite_pure(da, db, seed=610_000 + i)
        else:
            state = random_bipartite_mixed(da, db, rank=1 + i % (da * db), seed=620_000 + i)
        hc = [eur.measured_conditional_entropy(b, state) for b in chain]
        total = sum(hc)
        assert total >= eur.memory_multi_bound(chain, state) - 1e-6
        if pure:
            assert total >= eur.memory_pure_bound(chain, state) - 1e-6
        for m in range(n - 1):
            pair = eur.berta_two_bound(chain[m], chain[m + 1], state)
            assert hc[m] + hc[m + 1] >= pair - 1e-6
    _finish("criterion 6 (memory chain soundness, 300 draws)", t0, 120.0)


def test_criterion_07_maximally_entangled_equalities():
    t0 = time.perf_counter()
    me = eur.maximally_entangled(2)
    pair = mub_chain(2, 2)
    hsum = sum(eur.measured_conditional_entropy(b, me) for b in pair)
    assert hsum == pytest.approx(0.0, abs=1e-9)
    assert eur.berta_two_bound(pair[0], pair[1], me) == pytest.approx(0.0, abs=1e-12)
    triple = mub_chain(2, 3)
    assert eur.memory_pure_bound(triple, me) == pytest.approx(0.0, abs=1e-9)
    assert eur.memory_multi_bound(triple, me) == pytest.approx(-1.0, abs=1e-9)
    _finish("criterion 7 (maximal-entanglement equalities)", t0, 1.0)


def test_criterion_08_conditional_entropy_forms_agree():
    t0 = time.perf_counter()
    dims = [(2, 2), (2, 3), (3, 2), (3, 3)]
    for i in range(200):
        da, db = dims[i % 4]
        if i % 2 == 0:
            state = random_bipartite_pure(da, db, seed=800_000 + i)
        else:
            state = random_bipartite_mixed(da, db, rank=1 + i % (da * db), seed=810_000 + i)
        basis = eur.random_basis(da, seed=820_000 + i)
        a = eur.measured_conditional_entropy(basis, state)
        b = eur.holevo_conditional_entropy(basis, state)
        assert abs(a - b) <= 1e-9, f"draw {i}: {a} vs {b}"
    _finish("criterion 8 (conditional-entropy forms, 200 draws)", t0, 30.0)


def test_criterion_09_entropy_machinery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(900)
    alphas = [0.3, 0.7, 1.0, 1.5, 2.0, 5.0, math.inf]
    for _ in range(1000):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 7))))
        values = [eur.renyi_entropy(p, a) for a in alphas]
        assert all(x >= y - 1e-10 for x, y in zip(values, values[1:]))
    for i in range(200):
        dim = (2, 3, 4)[i % 3]
        rho = eur.random_density_matrix(dim, 1 + i % dim, seed=910_000 + i)
        sigma = eur.random_density_matrix(dim, dim, seed=920_000 + i)
        basis = eur.random_basis(dim, seed=930_000 + i)
        before = eur.relative_entropy(rho, sigma)
        after = eur.relative_entropy(
            eur.measurement_channel(basis, rho), eur.measurement_channel(basis, sigma)
        )
        assert after <= before + 1e-9
    for i in range(200):
        dim = (2, 3, 4)[i % 3]
        rho = eur.random_density_matrix(dim, 1 + i % dim, seed=940_000 + i)
        basis = eur.random_basis(dim, seed=950_000 + i)
        lhs = eur.shannon_entropy(eur.outcome_distribution(basis, rho)) - eur.von_neumann_entropy(rho)
        rhs = eur.relative_entropy(rho, eur.measurement_channel(basis, rho))
        assert abs(lhs - rhs) <= 1e-9
    _finish("criterion 9 (entropy machinery)", t0, 30.0)


def test_criterion_10_first_pair_dominance():
    t0 = time.perf_counter()
    for i in range(500):
        dim = (2, 3, 4)[i % 3]
        n = (2, 3, 4)[(i // 3) % 3]
        chain = random_chain(dim, n, seed=1_000_000 + i)
        pair_value = -np.log2(eur.max_overlap(chain[0], chain[1]))
        mu = eur.mu_multi_bound(chain)
        assert mu >= pair_value - 1e-12
        if dim == 2:
            # two-dimensional chains collapse onto the first-pair bound
            assert abs(mu - pair_value) <= 1e-9
    _finish("criterion 10 (first-pair dominance, 500 chains)", t0, 10.0)


def test_criterion_11_ten_basis_order_search():
    t0 = time.perf_counter()
    chain = random_chain(4, 10, seed=1_100_000)
    value, order = eur.mu_multi_bound_best_order(chain)
    assert value == eur.mu_multi_bound(chain.reordered(order))
    assert value >= eur.mu_multi_bound(chain)
    _finish("criterion 11 (order search over 10! orders, d = 4)", t0, 30.0)


def test_criterion_12_verifier_runs_within_budget():
    t0 = time.perf_counter()
    result = eur.minimize_entropy_sum(mub_chain(3, 4), config=eur.MinimizationConfig(restarts=64, seed=0))
    assert result.certified
    assert abs(result.objective_min - 4.0) <= 1e-6
    _finish("criterion 12a (state-mode minimization, four qutrit MUBs)", t0, 15.0)

    t0 = time.perf_counter()
    result = eur.minimize_conditional_entropy_sum(mub_chain(2, 3), dim_b=2, config=eur.MinimizationConfig(restarts=16))
    assert result.certified
    assert abs(result.objective_min) <= 1e-6
    _finish("criterion 12b (memory-mode minimization, qubit MUB triple)", t0, 15.0)
