"""The summary of ``tools/bench_pairs.py`` on canned ``bench/run.py`` result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _result(wall, rss, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def _runs(workload, parent, change):
    """Pairs in the tool's order: the parent first on odd pairs."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        sides = [("parent", p), ("change", c)] if pair % 2 else [("change", c), ("parent", p)]
        for rank, (side, result) in enumerate(sides):
            runs.append({"workload": workload, "pair": pair, "seed": 30 + pair, "side": side,
                         "first": rank == 0, "result": result})
    return runs


def test_quartiles_lower_pairs_and_failures():
    parent = [_result(w, 94.0) for w in (1.5, 1.6, 1.4, 1.7, 1.55)]
    change = [_result(w, 94.0 + d, failed) for w, d, failed in
              ((1.3, 0.1, 0), (1.35, -0.1, 0), (1.45, 0.0, 2), (1.2, 0.2, 0), (1.25, -0.2, 1))]
    summary = bench_pairs.summarize(_runs("bounds-session", parent, change))
    assert list(summary) == ["bounds-session wall_s", "bounds-session peak_rss_mb"]
    wall = summary["bounds-session wall_s"]
    # statistics.quantiles' default (exclusive) method on five values
    assert wall["parent_q1_med_q3"] == [1.45, 1.55, 1.65]
    assert wall["change_q1_med_q3"] == [1.225, 1.3, 1.4]
    assert wall["change_lower_pairs"] == 4  # pair 3: 1.45 against 1.4
    assert wall["pairs"] == 5
    assert wall["fail"] == [0, 3]
    assert summary["bounds-session peak_rss_mb"]["change_lower_pairs"] == 2  # a tie counts for neither


def test_workloads_are_summarized_apart_and_incomplete_pairs_skipped():
    runs = _runs("bounds-session", [_result(2.0, 1.0)] * 3, [_result(1.0, 1.0)] * 3)
    runs += _runs("verify-modes", [_result(0.5, 1.0)] * 2, [_result(0.6, 1.0)] * 2)
    runs.append({"workload": "verify-modes", "pair": 3, "seed": 33, "side": "parent", "first": True,
                 "result": _result(9.0, 1.0)})
    summary = bench_pairs.summarize(runs)
    assert summary["bounds-session wall_s"]["change_lower_pairs"] == 3
    assert summary["verify-modes wall_s"]["pairs"] == 2
    assert summary["verify-modes wall_s"]["parent_q1_med_q3"] == [0.5, 0.5, 0.5]
    assert summary["verify-modes wall_s"]["change_lower_pairs"] == 0


# ten pairs' parent values: quartiles 0.98, 1.00, 1.02, so a spread q3 - q1 of 0.04
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
FASTER = [p - 0.1 for p in PARENT]


@pytest.mark.parametrize("change, shown", [
    (FASTER, True),
    (FASTER[:9] + [1.1], True),  # lower in 9 of 10
    (FASTER[:8] + [1.1, 1.1], False),  # lower in 8 of 10
    (FASTER[:9] + PARENT[9:], True),  # 9 lower and a tie
    (FASTER[:8] + PARENT[8:], False),  # 8 lower and two ties: a tie counts for neither side
    ([p - 0.03 for p in PARENT], False),  # lower in every pair, the median by less than the spread
    ([p - 0.05 for p in PARENT], True),
])
def test_gain_shown_needs_nine_of_ten_pairs_and_a_median_beyond_the_spread(change, shown):
    assert bench_pairs.gain_shown(PARENT, change) is shown


def test_no_gain_is_shown_from_fewer_than_ten_pairs():
    assert bench_pairs.gain_shown(PARENT, FASTER)
    assert not bench_pairs.gain_shown(PARENT[:9], FASTER[:9])


@pytest.mark.parametrize("change, bound, verdict", [
    (PARENT, 0.05, "holds"),
    ([p + 0.03 for p in PARENT], 0.05, "holds"),  # the median worse by 0.03, inside the bound
    ([p + 0.06 for p in PARENT], 0.05, "worse"),
    (PARENT, 0.01, "unresolved"),  # the parent's spread 0.04 is wider than the bound
    ([p + 0.1 for p in PARENT], 0.01, "worse"),
    ([p - 0.05 for p in PARENT], 0.01, "unresolved"),  # better in every pair, not better than every parent run
    (FASTER, 0.01, "holds"),  # every change run better than every parent run
])
def test_regression_is_worse_unresolved_or_holds(change, bound, verdict):
    assert bench_pairs.regression(PARENT, change, bound) == verdict


def test_summary_says_whether_a_gain_is_shown():
    runs = _runs("bounds-session", [_result(w, 94.0) for w in PARENT], [_result(w, 94.0) for w in FASTER])
    summary = bench_pairs.summarize(runs)
    assert summary["bounds-session wall_s"]["change_lower_pairs"] == 10
    assert summary["bounds-session wall_s"]["gain_shown"] is True
    assert summary["bounds-session peak_rss_mb"]["gain_shown"] is False  # ten ties
    assert summary["bounds-session wall_s"]["no_regression"] == "holds"


def test_summary_reads_each_bound_from_the_benchmark():
    """A 6 % rise: inside ``wall_s``' 25 % bound, beyond ``peak_rss_mb``'s 5 %."""
    runs = _runs("bounds-session", [_result(w, 94.0) for w in PARENT], [_result(w * 1.06, 94.0 * 1.06) for w in PARENT])
    summary = bench_pairs.summarize(runs)
    assert summary["bounds-session wall_s"]["no_regression"] == "holds"
    assert summary["bounds-session peak_rss_mb"]["no_regression"] == "worse"


def test_reads_the_last_line_and_the_machine_line():
    result = _result(1.25, 90.0)
    stdout = "\n".join([
        "# workload bounds-session, seed 3, trace 0",
        '# machine {"nproc": 2, "python": "3.11.7"}',
        "wall_s                1.25 s",
        json.dumps(result),
    ]) + "\n"
    assert bench_pairs.last_result(stdout) == result
    assert bench_pairs.machine_line(stdout) == {"nproc": 2, "python": "3.11.7"}
    assert bench_pairs.machine_line("no machine here\n") == {}


def test_a_single_pair_is_refused():
    with pytest.raises(SystemExit):
        bench_pairs.main(["--workload", "bounds-session", "--pairs", "1", "--seconds", "1",
                          "--base", "HEAD", "--seed-start", "1", "--out", "unused.json"])
