"""The benchmark's workloads: seeded input files, the CLI calls of one pass, and their output checks.

Every input file is written here, before any timing, with the library's own
generators and ``eur.fileio``; the CLI then receives only file names.  Each
call carries a check that reads its exit code and stdout (and any file it
wrote) and returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from eur.fileio import write_density_matrix, write_measurement_set
from eur.generators import mub_set, random_basis, random_density_matrix

import reference

# order-search: the bounds order search (40320 contractions, ~3e5 overlap
#   tables); the minimizer does not run.
# verify-state: the Nelder-Mead objective (renyi_entropy) and spot checks.
# verify-memory: the bipartite objective (measurement channel, partial trace,
#   eigvalsh), so a batched pure-state optimizer that slows it shows here.
# cli-session: short calls where start-up dominates; fileio and generators
#   run only here, and each chain is evaluated once.
PARTS = ("order-search", "verify-state", "verify-memory", "cli-session")
# The benchmarked workloads each run two parts per pass.  Host timing noise is
# correlated over tens of seconds, so two longer runs per seed are steadier
# than four short ones.  Each optimization on the roadmap is exercised by one
# group and bypassed by the other: the order search, the bounds and the
# start-up of commands that never minimize live in bounds-session, the
# optimizer and the entropy kernels in verify-modes.
GROUPS = {
    "bounds-session": ("order-search", "cli-session"),
    "verify-modes": ("verify-state", "verify-memory"),
}
NAMES = (*GROUPS, *PARTS)

# "full" is the benchmark; "tiny" runs the same calls on small inputs (warm-up, smoke tests).
SIZES = {
    "full": {
        "order_dim": 4, "order_n": 8,
        "state_mub_dim": 3, "state_min": 4.0, "state_args": [],
        "memory_args": ["--restarts", "16"],
        "scan_steps": 2001,
    },
    "tiny": {
        "order_dim": 3, "order_n": 4,
        "state_mub_dim": 2, "state_min": 2.0, "state_args": ["--restarts", "4", "--samples", "4"],
        "memory_args": ["--restarts", "2", "--samples", "4"],
        "scan_steps": 11,
    },
}

# sha256 of the scan CSV at the seed commit; `eur scan` output must stay byte-identical.
SCAN_SHA256 = {
    2001: "b3e8c9991adc6732fdc59e341bf45939a9d877ab06d6699014955474ea3a5488",
    11: "9e221ea06f9a148f6c2919c11decde64c9075d5dcd35cc0b14f3349e352bb288",
}

VALUE_TOL = 1e-12
OBJECTIVE_TOL = 1e-6


@dataclass
class Call:
    argv: list[str]
    check: Callable[[int, str], list[str]]
    output: str | None = None  # file the call writes, removed before each run of it


def derived_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _printed_tol(value: float) -> float:
    """Allowed distance of a value printed with ``%.12g`` from the exact one."""
    if value == 0.0:
        return VALUE_TOL
    return VALUE_TOL + 0.5 * 10.0 ** (np.floor(np.log10(abs(value))) - 11)


def _parse_bounds(stdout: str) -> dict[str, tuple[float, tuple[int, ...] | None]]:
    rows = {}
    for line in stdout.splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        order = None
        if len(parts) == 3 and parts[2].startswith("order="):
            order = tuple(int(i) for i in parts[2][len("order="):].split(","))
        rows[parts[0]] = (float(parts[1]), order)
    return rows


def _bounds_check(vectors, rho, best_order: bool, orders: str):
    expected = reference.expected_bounds(vectors, rho, best_order, orders)
    # pure-state best values, which the printed basis orders must reach
    best = reference.expected_bounds(vectors, None, True, orders) if best_order else {}

    def check(code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            rows = _parse_bounds(stdout)
        except (ValueError, IndexError):
            return ["unparsable bounds output"]
        problems = []
        if set(rows) != set(expected):
            problems.append(f"bound names {sorted(rows)} != {sorted(expected)}")
        for name, want in expected.items():
            if name not in rows:
                continue
            got, order = rows[name]
            if abs(got - want) > _printed_tol(want):
                problems.append(f"{name} = {got!r}, reference {want!r}")
            if name in ("MU_MULTI", "DEUTSCH_MULTI") and name in best:
                if order is None or abs(reference.order_value(vectors, name, order) - best[name]) > VALUE_TOL:
                    problems.append(f"{name} order {order} does not reach the best value")
        return problems

    return check


def _verify_check(target: float):
    def check(code: int, stdout: str) -> list[str]:
        problems = [] if code == 0 else [f"exit code {code}"]
        lines = stdout.strip().splitlines()
        if not lines or lines[-1] != "CERTIFIED":
            problems.append("not CERTIFIED")
        m = re.search(r"^objective_min = (\S+)$", stdout, re.M)
        if m is None:
            problems.append("no objective_min line")
        elif abs(float(m.group(1)) - target) > OBJECTIVE_TOL:
            problems.append(f"objective_min {m.group(1)} differs from the known minimum {target}")
        if converged_fraction(stdout) is None:
            problems.append("no converged restarts line")
        return problems

    return check


def converged_fraction(stdout: str) -> float | None:
    m = re.search(r"^converged restarts: (\d+)/(\d+)$", stdout, re.M)
    return None if m is None else int(m.group(1)) / int(m.group(2))


def _file_check(path: Path, expected: np.ndarray):
    """The CLI wrote a measurement set equal to ``expected`` (stacked basis vectors)."""

    def check(code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            data = json.loads(path.read_text())
            got = np.array(
                [[[complex(*z) for z in row] for row in b["vectors"]] for b in data["bases"]]
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"{path.name}: unreadable ({exc})"]
        if got.shape != expected.shape or np.abs(got - expected).max() > VALUE_TOL:
            return [f"{path.name}: bases differ from the generator's"]
        return []

    return check


def _scan_check(path: Path, sha256: str):
    def check(code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError as exc:
            return [f"{path.name}: unreadable ({exc})"]
        return [] if digest == sha256 else [f"{path.name}: sha256 {digest} != {sha256}"]

    return check


def _stack(bases) -> np.ndarray:
    return np.array([b.vectors for b in bases])


def build(name: str, seed: int, size: str, workdir: Path) -> list[Call]:
    """Write the inputs of workload ``name`` into ``workdir``; return the calls of one pass.

    Paths in the calls are relative to ``workdir``, where the calls run.
    """
    if name in GROUPS:
        return [call for part in GROUPS[name] for call in build(part, seed, size, workdir)]
    cfg = SIZES[size]
    workdir.mkdir(parents=True, exist_ok=True)

    if name == "order-search":
        d, n = cfg["order_dim"], cfg["order_n"]
        bases = [random_basis(d, derived_seed(seed, k)) for k in range(n)]
        rho = random_density_matrix(d, 2, derived_seed(seed, 100))
        write_measurement_set(workdir / "search-chain.json", bases)
        write_density_matrix(workdir / "search-rho.json", rho)
        argv = ["bounds", "--input", "search-chain.json", "--state", "search-rho.json", "--best-order"]
        return [Call(argv, _bounds_check(_stack(bases), rho.matrix, True, "shannon"))]

    if name == "verify-state":
        write_measurement_set(workdir / "mub-state.json", mub_set(cfg["state_mub_dim"]))
        argv = ["verify", "--input", "mub-state.json", "--mode", "state", "--seed", str(seed), *cfg["state_args"]]
        return [Call(argv, _verify_check(cfg["state_min"]))]

    if name == "verify-memory":
        write_measurement_set(workdir / "mub2.json", mub_set(2))
        argv = ["verify", "--input", "mub2.json", "--mode", "memory", "--dim-b", "2", "--seed", str(seed),
                *cfg["memory_args"]]
        return [Call(argv, _verify_check(0.0))]

    if name == "cli-session":
        bases = [random_basis(3, derived_seed(seed, 300 + k)) for k in range(3)]
        rho = random_density_matrix(3, 2, derived_seed(seed, 400))
        write_measurement_set(workdir / "chain.json", bases)
        write_density_matrix(workdir / "rho.json", rho)
        gen_seed = derived_seed(seed, 200) % 1_000_000
        vectors = _stack(bases)
        steps = cfg["scan_steps"]
        return [
            Call(["generate", "--kind", "mub", "--dim", "5", "--out", "mub5.json"],
                 _file_check(workdir / "mub5.json", _stack(mub_set(5))), "mub5.json"),
            Call(["generate", "--kind", "random", "--dim", "4", "--count", "3", "--seed", str(gen_seed),
                  "--out", "random.json"],
                 _file_check(workdir / "random.json", _stack(random_basis(4, gen_seed + k) for k in range(3))),
                 "random.json"),
            Call(["bounds", "--input", "chain.json"], _bounds_check(vectors, None, False, "shannon")),
            Call(["bounds", "--input", "chain.json", "--state", "rho.json"],
                 _bounds_check(vectors, rho.matrix, False, "shannon")),
            Call(["bounds", "--input", "chain.json", "--orders", "min"], _bounds_check(vectors, None, False, "min")),
            Call(["scan", "--family", "paper-d3", "--param", "phi", "--range", "0:6.283185307179586",
                  "--steps", str(steps), "--a", "0.3", "--out", "scan.csv"],
                 _scan_check(workdir / "scan.csv", SCAN_SHA256[steps]), "scan.csv"),
        ]

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
