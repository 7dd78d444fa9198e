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

from .bounds import _deutsch_multi, _mu_multi_best, _scb_max, build_reports
from .core import _overlap_bank
from .fileio import _write_text, read_chain, read_density_matrix, write_measurement_set
from .generators import _paper_d3_vectors, mub_set, parametric_d3_chain, random_basis
from .verifier import (
    MinimizationConfig,
    _slacks_hold,
    minimize_conditional_entropy_sum,
    minimize_entropy_sum,
    spot_check_inequalities,
)

# CLI bound name -> (CSV column, bound of every chain of a (..., N, N, d, d) overlap bank,
# through the contraction steps of its single-chain bound).  The scan reports the
# order-optimized contraction bound so the columns are comparable.
SCAN_BOUNDS = {
    "mu-multi": ("mu_multi", _mu_multi_best),
    "scb-max": ("scb_max", _scb_max),
    "deutsch-multi": ("deutsch_multi", _deutsch_multi),
}
_SCAN_BLOCK = 256  # grid points evaluated per stacked bank, bounding the scan's temporaries


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
    return lo, hi


def _scan_rows(a: np.ndarray, phi: np.ndarray, requested: list[str]) -> list[tuple[float, ...]]:
    """(a, phi, bound, ...) per grid point, the chains stacked ``_SCAN_BLOCK`` points at a time."""
    rows = []
    for start in range(0, a.size, _SCAN_BLOCK):
        block = a[start : start + _SCAN_BLOCK], phi[start : start + _SCAN_BLOCK]
        bank = _overlap_bank(_paper_d3_vectors(*block))
        rows += zip(*(c.tolist() for c in [*block] + [SCAN_BOUNDS[name][1](bank) for name in requested]))
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
    if args.steps < 1:
        raise ValueError(f"steps must be >= 1, got {args.steps}")
    if args.param == "a":
        if args.phi is None:
            raise ValueError("scanning over a requires a fixed --phi")
        grid = np.linspace(lo, hi, args.steps), np.full(args.steps, args.phi)
    else:
        if args.a is None:
            raise ValueError("scanning over phi requires a fixed --a")
        grid = np.full(args.steps, args.a), np.linspace(lo, hi, args.steps)

    rows = _scan_rows(*grid, requested)
    header = ",".join(["a", "phi"] + [SCAN_BOUNDS[name][0] for name in requested])
    # "%.12g" % x and format(x, ".12g") give the same bytes; one format per row, one write
    row_format = ",".join(["%.12g"] * (2 + len(requested))) + "\n"
    _write_text(args.out, header + "\n" + "".join(row_format % row for row in rows))
    print(f"{len(rows)} rows -> {args.out}")
    return 0


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")


def cmd_verify(args) -> int:
    if args.mode == "memory" and args.orders is not None:
        raise ValueError("--orders applies to --mode state only")
    if args.mode == "state" and args.dim_b is not None:
        raise ValueError("--dim-b applies to --mode memory only")
    _check_seed(args.seed)
    if args.dim_b is not None and args.dim_b < 1:
        raise ValueError(f"--dim-b must be positive, got {args.dim_b}")
    chain = read_chain(args.input)
    config = MinimizationConfig(restarts=args.restarts, seed=args.seed)
    # The spot checks draw from their own stream, so running them first (a bad
    # --samples fails before any minimization) changes no output.
    spots = spot_check_inequalities(chain, samples=args.samples, seed=args.seed)
    if args.mode == "state":
        orders = math.inf if args.orders == "min" else 1.0
        result = minimize_entropy_sum(chain, orders, config)
    else:
        result = minimize_conditional_entropy_sum(chain, 2 if args.dim_b is None else args.dim_b, config)

    print(f"objective_min = {result.objective_min:.12g}")
    print(f"converged restarts: {result.converged_restarts}/{config.restarts}")
    for name, slack in result.slack_per_bound.items():
        print(f"slack {name.value:<16} {slack:.3e}")
    for name, slack in spots.items():
        print(f"spot  {name.value:<16} {slack:.3e}")
    if result.certified and _slacks_hold(spots):
        print("CERTIFIED")
        return 0
    print("VERIFICATION FAILED")
    return 1


# generate flag -> the kinds that read it; any other kind rejects it
_GENERATE_FLAGS = {
    "dim": ("mub", "random"),
    "count": ("mub", "random"),
    "a": ("paper-d3",),
    "phi": ("paper-d3",),
    "seed": ("random",),
}


def cmd_generate(args) -> int:
    for flag, kinds in _GENERATE_FLAGS.items():
        if getattr(args, flag) is not None and args.kind not in kinds:
            raise ValueError(f"--{flag} applies to --kind {' or '.join(kinds)} only")
    if args.count is not None and args.count < 1:
        raise ValueError(f"--count must be positive, got {args.count}")
    if args.kind == "mub":
        if args.dim is None:
            raise ValueError("--kind mub requires --dim")
        bases = mub_set(args.dim, args.count)
    elif args.kind == "paper-d3":
        if args.a is None or args.phi is None:
            raise ValueError("--kind paper-d3 requires --a and --phi")
        bases = list(parametric_d3_chain(args.a, args.phi))
    else:
        if args.dim is None:
            raise ValueError("--kind random requires --dim")
        seed = 0 if args.seed is None else args.seed
        _check_seed(seed)
        count = args.count if args.count is not None else 3
        bases = [random_basis(args.dim, seed + k) for k in range(count)]
    write_measurement_set(args.out, bases)
    print(f"wrote {len(bases)} bases (dim {bases[0].dim}) -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eur",
        description="Entropic uncertainty bounds for chains of projective measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="print every applicable bound for a measurement set")
    p_bounds.add_argument("--input", required=True, help="measurement-set JSON file")
    p_bounds.add_argument("--state", default=None, help="optional density-matrix JSON file")
    p_bounds.add_argument("--orders", choices=["shannon", "min"], default="shannon")
    p_bounds.add_argument("--best-order", action="store_true", help="search basis orderings")
    p_bounds.set_defaults(func=cmd_bounds)

    p_scan = sub.add_parser("scan", help="sweep the built-in parametric family, write CSV")
    p_scan.add_argument("--family", choices=["paper-d3"], required=True)
    p_scan.add_argument("--param", choices=["a", "phi"], required=True)
    p_scan.add_argument("--range", required=True, help="START:STOP")
    p_scan.add_argument("--steps", type=int, required=True)
    p_scan.add_argument("--a", type=float, default=None, help="fixed a when scanning phi")
    p_scan.add_argument("--phi", type=float, default=None, help="fixed phi when scanning a")
    p_scan.add_argument("--bounds", default="mu-multi,scb-max,deutsch-multi")
    p_scan.add_argument("--out", required=True)
    p_scan.set_defaults(func=cmd_scan)

    p_verify = sub.add_parser("verify", help="certify the bounds by entropy-sum minimization")
    p_verify.add_argument("--input", required=True, help="measurement-set JSON file")
    p_verify.add_argument("--mode", choices=["state", "memory"], required=True)
    p_verify.add_argument("--dim-b", type=int, default=None, help="memory dimension (memory mode; default 2)")
    p_verify.add_argument("--orders", choices=["shannon", "min"], default=None)  # state mode; None is shannon
    p_verify.add_argument("--restarts", type=int, default=64)
    p_verify.add_argument("--samples", type=int, default=200, help="spot-check rounds")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("generate", help="write a measurement-set JSON file")
    p_gen.add_argument("--kind", choices=["mub", "paper-d3", "random"], required=True)
    p_gen.add_argument("--dim", type=int, default=None)
    p_gen.add_argument("--count", type=int, default=None)
    p_gen.add_argument("--a", type=float, default=None)
    p_gen.add_argument("--phi", type=float, default=None)
    p_gen.add_argument("--seed", type=int, default=None)  # random only; None is 0
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    for k in range(len(argv) - 1, 0, -1):  # argparse takes the -1:1 of "--range -1:1" for an option
        if argv[0] == "scan" and argv[k - 1] == "--range" and argv[k].startswith("-") and ":" in argv[k]:
            argv[k - 1 : k + 1] = ["--range=" + argv[k]]
    args = build_parser().parse_args(argv)
    try:
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
