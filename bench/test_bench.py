"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.setup_environment()

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from eur import MeasurementChain, build_reports, random_basis, random_density_matrix  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.GROUPS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace, tmp_path):
    result = run.measure(workload, seed=3, seconds=0, trace=trace, size="tiny")["result"]

    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["import.eur.cli.s"]["value"] > 0
        assert result["metrics"]["cli.main.calls"]["value"] == len(workloads.build(workload, 3, "tiny", tmp_path))


def test_corrupted_scan_csv_raises_fail_frac(monkeypatch):
    original_build = workloads.build

    def corrupting_build(name, seed, size, workdir):
        calls = original_build(name, seed, size, workdir)
        for call in calls:
            if call.argv[0] == "scan":
                check = call.check

                def corrupt_then_check(code, stdout, check=check, path=workdir / call.output):
                    data = bytearray(path.read_bytes())
                    data[-2] ^= 1
                    path.write_bytes(bytes(data))
                    return check(code, stdout)

                call.check = corrupt_then_check
        return calls

    monkeypatch.setattr(workloads, "build", corrupting_build)
    result = run.measure("cli-session", seed=3, seconds=0, trace=False, size="tiny")["result"]
    assert result["failed"] > 0 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_reference_matches_library_bounds():
    bases = [random_basis(3, 20 + k) for k in range(4)]
    rho = random_density_matrix(3, 2, 5)
    vectors = np.array([b.vectors for b in bases])
    for state in (None, rho):
        for best in (False, True):
            for orders in ("shannon", "min"):
                reports = build_reports(MeasurementChain(tuple(bases)), state, orders=orders, best_order=best)
                want = reference.expected_bounds(vectors, None if state is None else state.matrix, best, orders)
                got = {r.bound_name.value: r.value for r in reports}
                assert set(got) == set(want)
                assert max(abs(got[k] - want[k]) for k in got) < 1e-12


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.names = [tracing.MU_SEARCH, tracing.MU_CONTRACTION, "core.overlap_table"]
    # search [0, 10] -> contraction [1, 4] -> table [2, 3]; contraction [5, 6]
    tracer.name_of = [0, 1, 2, 1]
    tracer.start = [0.0, 1.0, 2.0, 5.0]
    tracer.end = [10.0, 4.0, 3.0, 6.0]
    tracer.parent = [-1, 0, 1, 0]
    tracer.orderings = 4
    metrics = tracer.layer_metrics()
    assert metrics["bounds.mu_multi_bound_best_order.self_s"] == pytest.approx(6.0)
    assert metrics["bounds.mu_multi_bound.self_s"] == pytest.approx(3.0)
    assert metrics["bounds.mu_multi_bound.calls"] == 2
    assert metrics["core.overlap_table.self_s"] == pytest.approx(1.0)
    assert metrics["bounds.orders_evaluated_frac"] == pytest.approx(0.5)


def test_tracer_restores_the_package():
    import eur.bounds
    import eur.core

    before = (eur.core.overlap_table, eur.bounds.overlap_table)
    with tracing.Tracer():
        assert eur.bounds.overlap_table is not before[1]
        assert eur.bounds.overlap_table.__wrapped__ is before[1]
    assert (eur.core.overlap_table, eur.bounds.overlap_table) == before


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "order-search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
