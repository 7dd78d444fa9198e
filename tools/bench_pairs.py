#!/usr/bin/env python3
"""Alternating parent/change pairs of ``bench/run.py``, summarized into a ``BENCH_*.json`` file.

Run from the repository root:

    python3 tools/bench_pairs.py --workload bounds-session verify-modes --pairs 10 \\
        --seconds 45 --base HEAD~1 --seed-start 31 --out BENCH_17.json

The parent side is the committed tree of ``--base``, exported with ``git archive`` into a
temporary directory that is removed at the end; the change side is this checkout as it
stands, uncommitted edits included.  Pair k runs seed ``--seed-start + k - 1`` on both sides,
the parent first on odd pairs and the change first on even ones, one run at a time.  Each
run's last stdout line (its JSON result) is kept under ``runs``; ``summary`` gives, per
workload and metric, [q1, median, q3] of each side, the number of pairs in which the change
reads lower, whether that shows a gain (``gain_shown``), for each end-to-end metric of
``BENCHMARK.json`` whether the change keeps within its bound (``no_regression``), and the failed
calls of each side.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def last_result(stdout: str) -> dict:
    """The JSON result that ``bench/run.py`` prints as its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def machine_line(stdout: str) -> dict:
    """The ``# machine {...}`` line of a ``bench/run.py`` report."""
    for line in stdout.splitlines():
        if line.startswith("# machine "):
            return json.loads(line[len("# machine "):])
    return {}


def _quartiles(values: list[float]) -> list[float]:
    return [round(x, 4) for x in statistics.quantiles(values, n=4)]


def gain_shown(parent: list[float], change: list[float]) -> bool:
    """Whether the change shows a gain on a lower-is-better metric, pair k being (parent[k], change[k]):
    of at least ten pairs, it reads lower in at least 9 of 10 (a tie counts for neither side), and its
    median is below the parent's by more than the parent's spread q3 - q1."""
    lower = sum(c < p for p, c in zip(parent, change))
    q1, median, q3 = statistics.quantiles(parent, n=4)
    return len(parent) >= 10 and 10 * lower >= 9 * len(parent) and median - statistics.median(change) > q3 - q1


def regression(parent: list[float], change: list[float], bound: float) -> str:
    """No-regression verdict on a lower-is-better metric, ``bound`` a fraction of the parent's median:
    "worse" when the change's median exceeds the parent's by more than the bound; else "unresolved"
    when the parent's spread q3 - q1 exceeds the bound, unless every change run reads lower than
    every parent run; else "holds"."""
    q1, median, q3 = statistics.quantiles(parent, n=4)
    allowed = bound * abs(median)
    if statistics.median(change) - median > allowed:
        return "worse"
    if q3 - q1 > allowed and max(change) >= min(parent):
        return "unresolved"
    return "holds"


def summarize(runs: list[dict]) -> dict:
    """Per "<workload> <metric>": pairs, each side's [q1, median, q3], pairs the change reads lower,
    whether that shows a gain (:func:`gain_shown`), for an end-to-end metric of ``BENCHMARK.json``
    its :func:`regression` verdict under the bound given there (``no_regression``), and failures."""
    end_to_end = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict] = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
        complete = [p for p in pairs.values() if {"parent", "change"} <= p.keys()]
        for metric in complete[0]["parent"]["metrics"]:
            value = {side: [p[side]["metrics"][metric]["value"] for p in complete] for side in ("parent", "change")}
            summary[f"{workload} {metric}"] = {
                "pairs": len(complete),
                "parent_q1_med_q3": _quartiles(value["parent"]),
                "change_q1_med_q3": _quartiles(value["change"]),
                "change_lower_pairs": sum(c < p for p, c in zip(value["parent"], value["change"])),
                "gain_shown": gain_shown(value["parent"], value["change"]),
                "fail": [sum(p[side]["failed"] for p in complete) for side in ("parent", "change")],
            }
            if metric in end_to_end:
                sign = 1 if end_to_end[metric]["better"] == "lower" else -1
                summary[f"{workload} {metric}"]["no_regression"] = regression(
                    [sign * x for x in value["parent"]], [sign * x for x in value["change"]],
                    end_to_end[metric]["bound"])
    return summary


def _bench(root: Path, workload: str, seed: int, seconds: float) -> str:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Alternating parent/change pairs of bench/run.py.")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--base", required=True, help="git revision of the parent side")
    parser.add_argument("--seed-start", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")

    base = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    runs, machine = [], {}
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        parent_root = scratch / "parent"
        parent_root.mkdir()
        _git("archive", "--format=tar", "-o", str(scratch / "parent.tar"), base)
        subprocess.run(["tar", "-xf", str(scratch / "parent.tar"), "-C", str(parent_root)], check=True)
        sides = {"parent": parent_root, "change": ROOT}
        for workload in args.workload:
            for pair in range(1, args.pairs + 1):
                seed = args.seed_start + pair - 1
                order = ["parent", "change"] if pair % 2 else ["change", "parent"]
                for side in order:
                    stdout = _bench(sides[side], workload, seed, args.seconds)
                    machine = machine or machine_line(stdout)
                    runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                                 "first": side == order[0], "result": last_result(stdout)})
                    print(f"{workload} pair {pair} seed {seed} {side}: "
                          + json.dumps({k: round(v["value"], 4) for k, v in runs[-1]["result"]["metrics"].items()}),
                          flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    change = f"this checkout (HEAD {head[:7]}{' with uncommitted changes' if dirty else ''})"
    record = {
        "about": (
            f"Raw result lines of bench/run.py --seconds {args.seconds:g} --trace 0; parent = {base[:7]}, "
            f"change = {change}. Pairs alternate which side runs first (odd pairs: parent first); "
            f"pair k runs seed {args.seed_start} + k - 1 on both sides. 'summary' gives [q1, median, q3] per side, "
            "the number of pairs where the change reads lower, 'gain_shown' (at least ten pairs, lower in at "
            "least 9 of 10 and the median lower by more than the parent's q3 - q1), 'no_regression' per "
            "end-to-end metric of BENCHMARK.json ('worse': the median worse by more than the bound, a fraction "
            "of the parent's median; 'unresolved': the parent's q3 - q1 wider than the bound and not every "
            "change run better than every parent run; else 'holds') and the failed calls per side."
        ),
        "machine": {**machine, "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", "")},
        "summary": summarize(runs),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"{len(runs)} runs -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
