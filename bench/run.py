#!/usr/bin/env python3
"""Benchmark of the ``eur`` CLI on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload bounds-session --seed 1 --seconds 45 --trace 0

``bounds-session`` and ``verify-modes`` are the benchmarked workloads; each
runs two of the parts ``order-search``, ``cli-session``, ``verify-state`` and
``verify-memory``, which can also be run on their own (``bench/workloads.py``).
The benchmark writes its inputs from ``--seed``, then measures rounds until
``--seconds`` have passed (at least three rounds).  Load is a closed loop
with one client: one CLI call at a time from this process.

With ``--trace 0`` a round is
  * a wall pass: every call of the workload in a fresh interpreter
    (``python -m eur.cli ...``), start-up included -> ``wall_s``, ``peak_rss_mb``;
  * a compute pass: the same calls through ``eur.cli.main(argv)`` in this
    process, after imports and a warm-up pass on tiny inputs -> ``compute_s``;
  * a set-up sample: every call with ``--help`` appended, in a fresh
    interpreter, which imports the CLI and parses the arguments without
    running the subcommand -> ``setup_s``.
Each time is the median of its samples (one per pass, summed over the
pass's calls); ``peak_rss_mb`` is the largest RSS of any wall-pass child.

With ``--trace 1`` a round is an untraced compute pass, a traced compute pass
(``bench/tracing.py`` wraps every public ``eur`` function) and one
``python -X importtime -c "import eur.cli"``; it reports the per-layer metrics
and writes the spans of the last traced pass to
``.bench_work/spans-<workload>.tsv``.

Every call's output is checked (``bench/workloads.py``); ``attempted`` counts
the calls and ``failed`` those whose check failed, so fail_frac is
failed / attempted.  The last line of stdout is the JSON result.  Children
run with one BLAS/OpenMP thread (``THREADS``), as does this process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_ROUNDS = {"full": 3, "tiny": 1}
CHILD_TIMEOUT_S = 150.0

END_TO_END = [
    ("wall_s", "s"),
    ("compute_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def setup_environment() -> None:
    """Pin thread pools and put the checkout's ``src`` first on the import path."""
    os.environ.update(THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


class Tally:
    """Checked calls: every call attempted, and those whose output check failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")


def run_child(args: list[str], cwd: Path) -> tuple[int, str, str, float, int]:
    """Run ``python <args>`` in ``cwd``; return exit code, stdout, stderr, seconds and peak RSS (KiB)."""
    out_path, err_path = cwd / ".child.out", cwd / ".child.err"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    return proc.returncode, stdout, stderr, elapsed, usage.ru_maxrss


def run_inprocess(cli, argv: list[str]) -> tuple[int, str, float]:
    """Call ``cli.main(argv)``; return exit code, stdout and seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # an uncaught error counts as a failed call, as it would in a child
            traceback.print_exc()
            code = 1
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def _clear_output(call, cwd: Path) -> None:
    if call.output:
        (cwd / call.output).unlink(missing_ok=True)


def wall_pass(calls, cwd: Path, tally: Tally) -> tuple[float, int]:
    total, peak = 0.0, 0
    for call in calls:
        _clear_output(call, cwd)
        code, stdout, _, seconds, rss = run_child(["-m", "eur.cli", *call.argv], cwd)
        total += seconds
        peak = max(peak, rss)
        tally.record(" ".join(call.argv), call.check(code, stdout))
    return total, peak


def compute_pass(cli, calls, cwd: Path, tally: Tally) -> tuple[float, list[str]]:
    total, outputs = 0.0, []
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        for call in calls:
            _clear_output(call, cwd)
            code, stdout, seconds = run_inprocess(cli, call.argv)
            total += seconds
            outputs.append(stdout)
            tally.record(" ".join(call.argv), call.check(code, stdout))
    finally:
        os.chdir(previous)
    return total, outputs


def setup_sample(calls, cwd: Path, tally: Tally) -> float:
    total = 0.0
    for call in calls:
        argv = [*call.argv, "--help"]
        code, stdout, _, seconds, _ = run_child(["-m", "eur.cli", *argv], cwd)
        total += seconds
        ok = code == 0 and stdout.startswith("usage:")
        tally.record(" ".join(argv), [] if ok else [f"exit code {code}, no usage text"])
    return total


def importtime_sample(cwd: Path, tally: Tally) -> dict[str, float]:
    import tracing

    code, _, stderr, _, _ = run_child(["-X", "importtime", "-c", "import eur.cli"], cwd)
    tally.record("import eur.cli", [] if code == 0 else [f"exit code {code}"])
    return tracing.parse_importtime(stderr)


def rounds(seconds: float, min_rounds: int):
    """Yield once per round until ``seconds`` would be exceeded, after at least ``min_rounds``."""
    start = time.perf_counter()
    longest = 0.0
    done = 0
    while done < min_rounds or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        yield done
        longest = max(longest, time.perf_counter() - began)
        done += 1


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it, if the count allows one."""
    n = len(samples)
    pct = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    if pct < 1:
        return None
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _converged(outputs: list[str]) -> float:
    import workloads

    fracs = [f for f in map(workloads.converged_fraction, outputs) if f is not None]
    return statistics.fmean(fracs) if fracs else 0.0


def measure_end_to_end(cli, calls, cwd: Path, seconds: float, min_rounds: int, tally: Tally) -> dict:
    wall, compute, setup, converged = [], [], [], []
    peak = 0
    for _ in rounds(seconds, min_rounds):
        w, rss = wall_pass(calls, cwd, tally)
        wall.append(w)
        peak = max(peak, rss)
        c, outputs = compute_pass(cli, calls, cwd, tally)
        compute.append(c)
        converged.append(_converged(outputs))
        setup.append(setup_sample(calls, cwd, tally))
    return {
        "metrics": {
            "wall_s": statistics.median(wall),
            "compute_s": statistics.median(compute),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak / 1024.0,
        },
        "samples": {"wall_s": wall, "compute_s": compute, "setup_s": setup},
        "converged_frac": statistics.median(converged),
    }


def measure_layers(cli, calls, cwd: Path, seconds: float, min_rounds: int, tally: Tally, workload: str) -> dict:
    import tracing

    plain, traced, layers, imports = [], [], [], []
    tracer = None
    for _ in rounds(seconds, min_rounds):
        plain.append(compute_pass(cli, calls, cwd, tally)[0])
        tracer = tracing.Tracer()
        with tracer:
            seconds_traced, outputs = compute_pass(cli, calls, cwd, tally)
        traced.append(seconds_traced)
        metrics = tracer.layer_metrics()
        metrics["verifier.converged_frac"] = _converged(outputs)
        layers.append(metrics)
        imports.append(importtime_sample(cwd, tally))

    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    for module in tracing.IMPORT_MODULES:
        out[f"import.{module}.s"] = statistics.median(sample[module] for sample in imports)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    write_spans(tracer, WORK / f"spans-{workload}.tsv")
    return {"metrics": out, "samples": {"compute_s": plain, "traced_compute_s": traced}}


def write_spans(tracer, path: Path) -> None:
    """One line per span: index, name, start and end (seconds from the first span), parent index."""
    spans = tracer.spans()
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("index\tname\tstart_s\tend_s\tparent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n")


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload and return the result object, plus details for the human-readable lines."""
    import tracing
    import workloads
    from eur import cli

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        calls = workloads.build(workload, seed, size, workdir / "run")
        warm_calls = workloads.build(workload, seed, "tiny", workdir / "warm")
        compute_pass(cli, warm_calls, workdir / "warm", Tally())

        tally = Tally()
        if trace:
            detail = measure_layers(cli, calls, workdir / "run", seconds, MIN_ROUNDS[size], tally, workload)
            units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
        else:
            detail = measure_end_to_end(cli, calls, workdir / "run", seconds, MIN_ROUNDS[size], tally)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": detail["metrics"][name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return {"result": result, "detail": detail, "problems": tally.problems}


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREADS,
    }


def report(workload: str, seed: int, trace: bool, run: dict) -> None:
    result, detail = run["result"], run["detail"]
    print(f"# workload {workload}, seed {seed}, trace {int(trace)}")
    print("# machine " + json.dumps(machine(), sort_keys=True))
    for problem in run["problems"]:
        print(f"# FAILED {problem}")
    for name, samples in detail["samples"].items():
        line = f"# {name}: median {statistics.median(samples):.6g} s of {len(samples)} samples"
        line += " [" + " ".join(f"{x:.4g}" for x in samples) + "]"
        tail = tail_percentile(samples)
        line += f", p{tail[0]} {tail[1]:.6g} s" if tail else " (too few for a tail percentile)"
        print(line)
    if not trace:
        print(f"# converged_frac {detail['converged_frac']:.6g} (verify calls only, 0 without any)")
    print(f"# fail_frac {result['failed'] / result['attempted']:.6g} ({result['failed']} of {result['attempted']} calls)")
    for name, metric in result["metrics"].items():
        print(f"{name:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the eur CLI on one seeded workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time (at least three rounds run)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny: smoke-test inputs")
    args = parser.parse_args(argv)

    if not (SRC / "eur" / "__init__.py").is_file():
        print(f"error: no eur package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    setup_environment()
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    report(args.workload, args.seed, bool(args.trace), run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
