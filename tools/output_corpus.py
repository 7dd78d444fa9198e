#!/usr/bin/env python3
"""Run a fixed corpus of ``eur`` CLI calls on a parent revision and on the checkout, and compare.

Run from the repository root:

    python3 tools/output_corpus.py --base HEAD~1

The parent side is the committed tree of ``--base``, exported with ``git archive`` into a
temporary directory; the change side is this checkout as it stands, uncommitted edits included.
Each side runs the whole corpus through ``eur.cli.main`` in one child process, with one BLAS
thread and that side's ``src`` on ``PYTHONPATH``: the child writes the input files with its own
tree's generators into its own temporary directory, then records per call the exit code,
stdout, stderr (its temporary directory replaced by ``<tmp>``) and the sha256 of every file the
call wrote.  Every call whose record differs is printed with each of its differing lines; the
exit code is 1 if any call differs, else 0.  The temporary directories are removed.

The corpus (350 calls):

* chains: ``mub_set(d)`` for d = 2, 3, 5, ``mub_set(2, 2)``, and ``generate --kind random`` chains
  with d = 2..4, N = 2..4 and seeds 1 and 11;
* on each of these chains, ``bounds`` plain, ``--best-order``, ``--orders min``, ``--state`` and
  ``--state --best-order``, the state a seeded full-rank ``random_density_matrix``;
* on each of these chains and with ``--seed`` 0 and 1, ``verify --mode state --restarts 16``,
  ``--orders min --restarts 8``, and ``--mode memory --restarts 8`` with d_B = 1, 2, 3 where
  d d_B <= 9;
* two deep ``generate --kind random`` chains (``DEEP_CHAINS``), d = 2 with N = 7 and d = 3 with
  N = 8, seed 1, with only ``bounds --best-order`` and ``--state --best-order``: order searches
  whose roots run several levels deep;
* a tie-heavy deep chain (``TIED_CHAINS``), ``mub_set(3)``'s four bases twice over (N = 8), with
  ``bounds --best-order`` and ``--orders min --best-order``: many orders share the best value, so
  the lexicographically first must win across the search's blocks;
* two edge states: ``verify --mode state`` with default samples on a d = 1 chain, whose Born
  probabilities can round to 1 + 2^-52, and ``bounds --state`` on ``mub_set(2)`` with
  rho = diag(1 + 5e-11, -5e-11), a negative eigenvalue above the constructor's floor;
* the benchmark's two ``verify`` calls and its 2001-step ``scan``;
* the flag rules' error calls, which exit 2: every rule (a flag the variant does not read, a missing
  required flag, an integer flag below its floor) on each subcommand that has it, seven calls with
  more than one error, a ``scan`` range whose width overflows and a basis file with a 1e200 entry.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("exit", "stdout", "stderr", "files")
DEEP_CHAINS = {"rnd_d2_n7_s1": ("random", 2, 7, 1), "rnd_d3_n8_s1": ("random", 3, 8, 1)}  # searched only
TIED_CHAINS = {"mub3_twice": ("mub-cycle", 3, 8, None)}  # searched only; mub_set(3) repeated to N = 8


def corpus_chains() -> dict:
    """{file stem: (kind, dim, count, seed)} of the corpus chains; random chains as ``eur generate`` writes them."""
    chains = {f"mub{d}": ("mub", d, None, None) for d in (2, 3, 5)}
    chains["mub2x2"] = ("mub", 2, 2, None)
    for d in (2, 3, 4):
        for n in (2, 3, 4):
            for seed in (1, 11):
                chains[f"rnd_d{d}_n{n}_s{seed}"] = ("random", d, n, seed)
    return chains | DEEP_CHAINS | TIED_CHAINS


def corpus_calls() -> list[list[str]]:
    """The argv of every call, inputs named relative to the working directory."""
    calls = []
    for stem, (_, d, _, _) in corpus_chains().items():
        chain, state = ["--input", f"{stem}.json"], ["--state", f"rho{d}.json"]
        if stem in DEEP_CHAINS:
            calls += [["bounds", *chain, "--best-order"], ["bounds", *chain, *state, "--best-order"]]
            continue
        if stem in TIED_CHAINS:
            calls += [["bounds", *chain, "--best-order"], ["bounds", *chain, "--orders", "min", "--best-order"]]
            continue
        for flags in ([], ["--best-order"], ["--orders", "min"], state, [*state, "--best-order"]):
            calls.append(["bounds", *chain, *flags])
        runs = [["--mode", "state", "--restarts", "16"], ["--mode", "state", "--orders", "min", "--restarts", "8"]]
        runs += [["--mode", "memory", "--dim-b", str(b), "--restarts", "8"] for b in (1, 2, 3) if d * b <= 9]
        calls += [["verify", *chain, *flags, "--seed", seed] for seed in ("0", "1") for flags in runs]
    return calls + [
        ["verify", "--input", "d1.json", "--mode", "state"],  # the edge states
        ["bounds", "--input", "mub2.json", "--state", "rho_edge.json"],
        ["verify", "--input", "mub3.json", "--mode", "state", "--seed", "1"],  # the benchmark's calls
        ["verify", "--input", "mub2.json", "--mode", "memory", "--dim-b", "2", "--seed", "1", "--restarts", "16"],
        ["scan", "--family", "paper-d3", "--param", "phi", "--range", "0:6.283185307179586", "--steps", "2001",
         "--a", "0.3", "--out", "out/scan.csv"],
    ] + flag_rule_calls()


def flag_rule_calls() -> list[list[str]]:
    """The calls that break a flag rule of ``eur.cli.main``, grouped by rule, then the two overflows."""
    scan, verify = ["scan", "--family", "paper-d3"], ["verify", "--input", "mub2.json"]
    csv, gen = ["--out", "out/x.csv"], ["generate", "--out", "out/x.json", "--kind"]
    return [
        [*scan, "--param", "phi", "--range", "0:1", "--steps", "3", "--a", "0.5", "--phi", "1", *csv],  # unread
        [*scan, "--param", "a", "--range", "0:1", "--steps", "3", "--phi", "0", "--a", "0.3", *csv],
        [*verify, "--mode", "state", "--dim-b", "2"],
        [*verify, "--mode", "memory", "--orders", "min"],
        [*gen, "mub", "--dim", "3", "--seed", "0"],
        [*scan, "--param", "a", "--range", "0:1", "--steps", "3", *csv],  # missing
        [*scan, "--param", "phi", "--range", "0:1", "--steps", "3", *csv],
        [*gen, "mub"],
        [*gen, "random"],
        [*gen, "paper-d3", "--a", "0.5"],
        [*gen, "paper-d3", "--phi", "0.5"],
        [*scan, "--param", "a", "--range", "0:1", "--steps", "0", "--phi", "0", *csv],  # below the floor
        [*verify, "--mode", "memory", "--dim-b", "0"],
        [*verify, "--mode", "state", "--seed", "-3"],
        [*gen, "random", "--dim", "3", "--count", "0"],
        [*gen, "random", "--dim", "3", "--seed", "-3"],
        [*scan, "--param", "a", "--range", "0:1", "--steps", "-2", *csv],  # more than one error
        [*scan, "--param", "a", "--range", "1:0", "--steps", "3", *csv],
        [*scan, "--param", "a", "--range", "0:1", "--steps", "3", "--bounds", "zz", *csv],
        [*scan, "--param", "a", "--range", "0:1", "--steps", "0", "--bounds", "zz", *csv],
        [*scan, "--param", "a", "--range", "0:1", "--steps", "0", "--bounds", "zz", "--phi", "0", *csv],
        [*scan, "--param", "a", "--range", "1:0", "--steps", "0", "--phi", "0", *csv],
        [*gen, "mub", "--count", "0"],
        [*scan, "--param", "phi", "--range=-1e308:1e308", "--steps", "3", "--a", "0.5", *csv],  # overflows
        ["bounds", "--input", "huge.json"],
    ]


def run_corpus() -> list[dict]:
    """The record of every corpus call, run in this process on the ``eur`` that ``sys.path`` finds."""
    import numpy as np

    from eur.cli import main
    from eur.core import DensityMatrix
    from eur.fileio import write_density_matrix, write_measurement_set
    from eur.generators import computational_basis, mub_set, random_basis, random_density_matrix

    work = Path(tempfile.mkdtemp(prefix="output-corpus-run-"))
    cwd = os.getcwd()
    try:
        os.chdir(work)
        (work / "out").mkdir()
        for stem, (kind, d, count, seed) in corpus_chains().items():
            if kind == "random":
                bases = [random_basis(d, seed + k) for k in range(count)]
            elif kind == "mub":
                bases = mub_set(d, count)
            else:  # "mub-cycle": the whole set repeated to ``count`` bases
                bases = [mub_set(d)[k % (d + 1)] for k in range(count)]
            write_measurement_set(f"{stem}.json", bases)
        for d in (2, 3, 4, 5):
            write_density_matrix(f"rho{d}.json", random_density_matrix(d, d, 100 + d))
        write_measurement_set("d1.json", [computational_basis(1)] * 2)
        write_density_matrix("rho_edge.json", DensityMatrix(np.diag([1.0 + 5e-11, -5e-11])))
        huge = [[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]]
        Path("huge.json").write_text(json.dumps({"format_version": 1, "dim": 2, "bases": [{"vectors": huge}] * 2}))
        records = []
        for argv in corpus_calls():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            files = {}
            for path in sorted((work / "out").iterdir()):
                files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
                path.unlink()
            text = {k: v.getvalue().replace(str(work), "<tmp>") for k, v in (("stdout", out), ("stderr", err))}
            records.append({"id": " ".join(argv), "exit": code, "files": files, **text})
        return records
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def differences(parent: dict, change: dict) -> list[str]:
    """Every difference of two records of one call, field by field: each differing line of a text field,
    the whole value of any other field."""
    diffs = []
    for field in FIELDS:
        a, b = parent.get(field), change.get(field)
        if a == b:
            continue
        lines = []
        if isinstance(a, str) and isinstance(b, str):
            pairs = enumerate(zip_longest(a.splitlines(), b.splitlines(), fillvalue="<none>"))
            lines = [f"{field} line {k + 1}: {la!r} -> {lb!r}" for k, (la, lb) in pairs if la != lb]
        diffs += lines or [f"{field}: {a!r} -> {b!r}"]  # not text, or only the line endings differ
    return diffs


def first_difference(parent: dict, change: dict) -> str | None:
    """The first of :func:`differences`, or None."""
    return next(iter(differences(parent, change)), None)


def compare(parent: list[dict], change: list[dict]) -> list[tuple[str, str]]:
    """(call id, difference) of every difference of every call, a call missing on one side included."""
    by_id = {r["id"]: r for r in change}
    diffs = []
    for record in parent:
        other = by_id.pop(record["id"], None)
        lines = ["missing on the change side"] if other is None else differences(record, other)
        diffs += [(record["id"], diff) for diff in lines]
    diffs += [(call_id, "missing on the parent side") for call_id in by_id]
    return diffs


def _run_side(tree: Path, out: Path) -> list[dict]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(out)], env=env, check=True)
    return json.loads(out.read_text())


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare the CLI outputs of a parent revision and the checkout.")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--base", help="git revision of the parent side")
    group.add_argument("--child", help=argparse.SUPPRESS)  # run the corpus here, write its records to this file
    args = parser.parse_args(argv)
    if args.child:
        Path(args.child).write_text(json.dumps(run_corpus()))
        return 0

    base = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    scratch = Path(tempfile.mkdtemp(prefix="output-corpus-"))
    try:
        parent_root = scratch / "parent"
        parent_root.mkdir()
        _git("archive", "--format=tar", "-o", str(scratch / "parent.tar"), base)
        subprocess.run(["tar", "-xf", str(scratch / "parent.tar"), "-C", str(parent_root)], check=True)
        parent = _run_side(parent_root, scratch / "parent.json")
        change = _run_side(ROOT, scratch / "change.json")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    diffs = compare(parent, change)
    for call_id, diff in diffs:
        print(f"{call_id}: {diff}")
    differing = {call_id for call_id, _ in diffs}
    print(f"{len(differing)} of {len(parent)} calls differ (parent {base[:7]}, change: this checkout)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
