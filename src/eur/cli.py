"""Command-line interface: bounds, scan, verify, generate.

Exit codes: 0 on success (and certified verification), 1 when verification
fails, 2 on input errors (bad files, bad parameters, violated invariants),
120 when a write fails (a full disk, a closed pipe).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .bounds import _deutsch_multi, _mu_multi_best, _pair_bounds, _scb_max, build_reports
from .core import _overlap_bank
from .fileio import _write_text, read_chain, read_density_matrix, write_measurement_set
from .generators import _paper_d3_vectors, mub_set, parametric_d3_chain, random_basis
from .verifier import (
    MinimizationConfig,
    _check_samples,
    _slacks_hold,
    minimize_conditional_entropy_sum,
    minimize_entropy_sum,
    spot_check_inequalities,
)

# CLI bound name -> bound of every chain of a (..., N, N, d, d) overlap bank, through the
# contraction steps of its single-chain bound; its CSV column is the name with "_" for "-".
# The scan reports the order-optimized contraction bound so the columns are comparable.
SCAN_BOUNDS = {"mu-multi": _mu_multi_best, "scb-max": lambda bank: _scb_max(_pair_bounds(bank)),
               "deutsch-multi": _deutsch_multi}
_SCAN_BLOCK = 256  # grid points evaluated per stacked bank, bounding the scan's temporaries
# subcommand -> (selector, {optional flag: the selector values that read it}, the flags that every value
# reading them requires), flags in check order; any other value rejects the flag
_VARIANT_FLAGS = {
    "scan": ("param", {"a": ("phi",), "phi": ("a",)}, ("a", "phi")),
    "verify": ("mode", {"orders": ("state",), "dim_b": ("memory",)}, ()),
    "generate": ("kind", {"dim": ("mub", "random"), "count": ("mub", "random"), "a": ("paper-d3",),
                          "phi": ("paper-d3",), "seed": ("random",)}, ("dim", "a", "phi")),
}
# integer flag -> its smallest value, for the flags no library function checks before work starts
_FLOORS = {"count": 1, "seed": 0, "dim_b": 1, "steps": 1}
# subcommand -> (its help line, its arguments as (flag, add_argument keywords)); cmd_<subcommand> runs it
_COMMANDS = {
    "bounds": ("print every applicable bound for a measurement set", [
        ("--input", dict(required=True, help="measurement-set JSON file")),
        ("--state", dict(default=None, help="optional density-matrix JSON file")),
        ("--orders", dict(choices=["shannon", "min"], default="shannon")),
        ("--best-order", dict(action="store_true", help="search basis orderings"))]),
    "scan": ("sweep the built-in parametric family, write CSV", [
        ("--family", dict(choices=["paper-d3"], required=True)),
        ("--param", dict(choices=["a", "phi"], required=True)),
        ("--range", dict(required=True, help="START:STOP")),
        ("--steps", dict(type=int, required=True)),
        ("--a", dict(type=float, default=None, help="fixed a when scanning phi")),
        ("--phi", dict(type=float, default=None, help="fixed phi when scanning a")),
        ("--bounds", dict(default="mu-multi,scb-max,deutsch-multi")),
        ("--out", dict(required=True))]),
    "verify": ("certify the bounds by entropy-sum minimization", [
        ("--input", dict(required=True, help="measurement-set JSON file")),
        ("--mode", dict(choices=["state", "memory"], required=True)),
        ("--dim-b", dict(type=int, default=None, help="memory dimension (memory mode; default 2)")),
        ("--orders", dict(choices=["shannon", "min"], default=None)),  # state mode; None is shannon
        ("--restarts", dict(type=int, default=64)),
        ("--samples", dict(type=int, default=200, help="spot-check rounds")),
        ("--seed", dict(type=int, default=0))]),
    "generate": ("write a measurement-set JSON file", [
        ("--kind", dict(choices=["mub", "paper-d3", "random"], required=True)),
        ("--dim", dict(type=int, default=None)),
        ("--count", dict(type=int, default=None)),
        ("--a", dict(type=float, default=None)),
        ("--phi", dict(type=float, default=None)),
        ("--seed", dict(type=int, default=None)),  # random only; None is 0
        ("--out", dict(required=True))]),
}


def cmd_bounds(args) -> int:
    chain = read_chain(args.input)
    rho = read_density_matrix(args.state) if args.state else None
    reports = build_reports(chain, rho, orders=args.orders, best_order=args.best_order)
    state = "state terms at S(rho) = 0" if rho is None else f"state loaded from {args.state}"
    print(f"# chain of {len(chain)} bases, dim {chain.dim}; {state}")
    for rep in reports:
        line = f"{rep.bound_name.value:<16} {rep.value:.12g}"
        if args.best_order:
            line += "  order=" + ",".join(str(i) for i in rep.chain_order)
        print(line)
    return 0


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"range must look like START:STOP, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ValueError(f"range endpoints must be numbers, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"range endpoints must be finite, got {text!r}")
    if not lo <= hi:
        raise ValueError(f"range start must not exceed stop, got {text!r}")
    if not math.isfinite(hi - lo):
        raise ValueError(f"range width must be finite, got {text!r}")
    return lo, hi


def _scan_rows(a: np.ndarray, phi: np.ndarray, requested: list[str]) -> list[tuple[float, ...]]:
    """(a, phi, bound, ...) per grid point, the chains stacked ``_SCAN_BLOCK`` points at a time.

    The family's first two bases depend on neither a nor phi, so their tables are taken once, from
    the first point's chain once its parameters have passed, and each block's bank takes only the
    products that involve the third basis.
    """
    rows, fixed = [], None
    for start in range(0, a.size, _SCAN_BLOCK):
        block = a[start : start + _SCAN_BLOCK], phi[start : start + _SCAN_BLOCK]
        v = _paper_d3_vectors(*block)
        if fixed is None:
            fixed = _overlap_bank(v[0, :2])
        bank = _overlap_bank(v, fixed)
        rows += zip(*(c.tolist() for c in [*block] + [SCAN_BOUNDS[name](bank) for name in requested]))
    return rows


def cmd_scan(args) -> int:
    requested = [name.strip() for name in args.bounds.split(",") if name.strip()]
    if not requested:
        raise ValueError("no bounds requested")
    for name in requested:
        if name not in SCAN_BOUNDS:
            raise ValueError(f"unknown bound name {name!r}; choose from {sorted(SCAN_BOUNDS)}")
        if requested.count(name) > 1:
            raise ValueError(f"bound {name!r} requested twice")
    lo, hi = _parse_range(args.range)
    if args.param == "a":
        grid = np.linspace(lo, hi, args.steps), np.full(args.steps, args.phi)
    else:
        grid = np.full(args.steps, args.a), np.linspace(lo, hi, args.steps)

    rows = _scan_rows(*grid, requested)
    header = ",".join(["a", "phi"] + [name.replace("-", "_") for name in requested])
    # "%.12g" % x and format(x, ".12g") give the same bytes; one format per row, one write
    row_format = ",".join(["%.12g"] * (2 + len(requested))) + "\n"
    _write_text(args.out, header + "\n" + "".join(row_format % row for row in rows))
    print(f"{len(rows)} rows -> {args.out}")
    return 0


def cmd_verify(args) -> int:
    """Minimize the entropy sum and spot-check every inequality, then print both and the verdict.

    The spot checks run after the minimizer, in this process; they draw from their own random
    stream, so their result does not depend on the minimizer's.  A bad ``--samples`` is rejected
    before either starts.
    """
    chain = read_chain(args.input)
    config = MinimizationConfig(restarts=args.restarts, seed=args.seed)
    _check_samples(args.samples)
    if args.mode == "state":
        minimize, target = minimize_entropy_sum, math.inf if args.orders == "min" else 1.0
    else:
        minimize, target = minimize_conditional_entropy_sum, 2 if args.dim_b is None else args.dim_b
    result = minimize(chain, target, config)
    spots = spot_check_inequalities(chain, samples=args.samples, seed=args.seed)

    print(f"objective_min = {result.objective_min:.12g}")
    print(f"converged restarts: {result.converged_restarts}/{result.restarts}")
    for name, slack in result.slack_per_bound.items():
        print(f"slack {name.value:<16} {slack:.3e}")
    for name, slack in spots.items():
        print(f"spot  {name.value:<16} {slack:.3e}")
    if result.certified and _slacks_hold(spots):
        print("CERTIFIED")
        return 0
    print("VERIFICATION FAILED")
    return 1


def cmd_generate(args) -> int:
    if args.kind == "mub":
        bases = mub_set(args.dim, args.count)
    elif args.kind == "paper-d3":
        bases = list(parametric_d3_chain(args.a, args.phi))
    else:
        seed = 0 if args.seed is None else args.seed
        count = args.count if args.count is not None else 3
        bases = [random_basis(args.dim, seed + k) for k in range(count)]
    write_measurement_set(args.out, bases)
    print(f"wrote {len(bases)} bases (dim {bases[0].dim}) -> {args.out}")
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``eur`` parser with only ``command``'s subparser when that names one (its usage lines still
    list all four), else with all four, for the top-level help and errors.  The handlers are looked
    up in the module when the parser is built, so a wrapper set on the module runs."""
    parser = argparse.ArgumentParser(
        prog="eur",
        description="Entropic uncertainty bounds for chains of projective measurements.",
    )
    named = command in _COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if named else None)
    for name, (help_line, arguments) in _COMMANDS.items():
        if name == command or not named:
            p_command = sub.add_parser(name, help=help_line)
            for flag, keywords in arguments:
                p_command.add_argument(flag, **keywords)
            p_command.set_defaults(func=globals()["cmd_" + name])
    return parser


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    for k in range(len(argv) - 1, 0, -1):  # argparse takes the -1:1 of "--range -1:1" for an option
        if argv[0] == "scan" and argv[k - 1] == "--range" and argv[k].startswith("-") and ":" in argv[k]:
            argv[k - 1 : k + 1] = ["--range=" + argv[k]]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    selector, flags, required = _VARIANT_FLAGS.get(args.command, ("", {}, ()))
    variant = getattr(args, selector, None)
    given = {flag: value for flag, value in vars(args).items() if value is not None}
    try:
        for flag, values in flags.items():
            if flag in given and variant not in values:
                raise ValueError(f"{_option(flag)} applies to --{selector} {' or '.join(values)} only")
        needed = [flag for flag in required if variant in flags[flag]]
        if any(flag not in given for flag in needed):
            raise ValueError(f"--{selector} {variant} requires {' and '.join(map(_option, needed))}")
        for flag, floor in _FLOORS.items():
            if given.get(flag, floor) < floor:
                sign = "positive" if floor else "non-negative"
                raise ValueError(f"{_option(flag)} must be {sign}, got {given[flag]}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # an OSError that names no file is taken for a failed write, not an input error
        return 120 if isinstance(exc, OSError) and exc.filename is None else 2


def run() -> None:
    """Entry point of the ``eur`` command: ``main()``, then exit without interpreter teardown.

    The process is about to die, so finalizing every loaded module (numpy's included) is
    wasted work: after flushing stdout and stderr, ``os._exit`` ends it at once.  The normal
    shutdown runs instead wherever it still has work to do: under a tracer or a profiler
    (coverage, pdb, cProfile report at exit), in an interactive session, for a non-integer
    exit code, and when a flush fails, so that a closed pipe or a full disk is reported
    exactly as before.  Exceptions other than ``SystemExit`` propagate unchanged.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    if not isinstance(code, int) or sys.gettrace() or sys.getprofile() or sys.flags.inspect:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
