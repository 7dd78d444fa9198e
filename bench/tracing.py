"""Spans around the public functions of every ``eur`` module, from outside the program.

A :class:`Tracer` replaces each public function of ``eur.<module>`` with a
wrapper at every place the function object is bound inside the package (so
``bounds``' own ``overlap_table`` name is patched along with ``core``'s), and
restores the originals on exit.  Each wrapped call records one span: name,
start, end and the span that was open when it began.  Spans stay in memory;
the per-layer metrics are derived from them after the traced pass.

``scipy.optimize.minimize`` as bound in ``eur.verifier`` gets a counter, not a
span, so the optimizer's time stays in the ``minimize_*`` span that called it
while its function evaluations and convergence are counted there.
"""

from __future__ import annotations

import functools
import inspect
import math
import re
import sys
import time

import numpy as np

MODULES = ("cli", "fileio", "generators", "core", "entropy", "bounds", "verifier")

# Public functions whose calls and self time are reported.  Every public
# function is wrapped, listed or not, so unlisted callees never inflate the
# self time of a listed caller.
LAYER_FUNCTIONS = {
    "cli": ("main", "build_parser", "cmd_bounds", "cmd_scan", "cmd_verify", "cmd_generate"),
    "fileio": ("read_chain", "read_measurement_set", "read_density_matrix", "write_measurement_set"),
    "generators": ("mub_set", "random_basis", "parametric_d3_chain", "computational_basis"),
    "core": ("overlap_table", "max_overlap", "outcome_distribution", "bipartite_measurement_channel", "partial_trace"),
    "entropy": (
        "shannon_entropy",
        "renyi_entropy",
        "von_neumann_entropy",
        "relative_entropy",
        "conditional_entropy",
        "measured_conditional_entropy",
    ),
    "bounds": (
        "deutsch_multi_bound",
        "mu_multi_bound",
        "mu_multi_bound_with_state",
        "mu_two_bound",
        "weighted_bound",
        "scb_max_bound",
        "chain_coefficients",
        "state_dependent_bound",
        "berta_two_bound",
        "memory_multi_bound",
        "memory_pure_bound",
        "deutsch_multi_bound_best_order",
        "mu_multi_bound_best_order",
        "build_reports",
    ),
    "verifier": ("minimize_entropy_sum", "minimize_conditional_entropy_sum", "spot_check_inequalities"),
}

# Modules whose cumulative time is read from ``python -X importtime -c "import eur.cli"``.
IMPORT_MODULES = (
    "numpy",
    "scipy",
    "scipy.optimize",
    "eur.core",
    "eur.entropy",
    "eur.bounds",
    "eur.verifier",
    "eur.fileio",
    "eur.generators",
    "eur.cli",
)

MU_SEARCH = "bounds.mu_multi_bound_best_order"
MU_CONTRACTION = "bounds.mu_multi_bound"
MINIMIZERS = ("verifier.minimize_entropy_sum", "verifier.minimize_conditional_entropy_sum")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for module, names in LAYER_FUNCTIONS.items():
        for fn in names:
            out.append((f"{module}.{fn}.calls", "count", "lower"))
            out.append((f"{module}.{fn}.self_s", "s", "lower"))
    for module in IMPORT_MODULES:
        out.append((f"import.{module}.s", "s", "lower"))
    out += [
        ("bounds.orders_evaluated_frac", "ratio", "lower"),
        ("verifier.objective_evals_per_restart", "evals/restart", "lower"),
        ("verifier.converged_frac", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


class Tracer:
    """Patch the ``eur`` package for the duration of a ``with`` block and record spans."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.orderings = 0  # N! summed over best-order searches
        self.optimizer: dict[int, list[int]] = {}  # open span -> [optimizer runs, evaluations]
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        name_of, start, end, parent, stack = self.name_of, self.start, self.end, self.parent, self._stack
        count_orderings = name == MU_SEARCH

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if count_orderings:
                self.orderings += math.factorial(len(args[0]))
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _optimizer_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            tally = self.optimizer.setdefault(self._stack[-1], [0, 0])
            tally[0] += 1
            tally[1] += int(res.nfev)
            return res

        return wrapper

    def __enter__(self):
        modules = {name: sys.modules[f"eur.{name}"] for name in MODULES}
        replacement = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    replacement[value] = self._span_wrapper(f"{short}.{attr}", value)
        minimize = getattr(modules["verifier"], "minimize", None)
        if minimize is not None:
            replacement[minimize] = self._optimizer_counter(minimize)
        for module in [sys.modules["eur"], *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacement:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replacement[value])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False

    def spans(self):
        """(name, start, end, parent index) for every recorded span."""
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name_of, self.start, self.end, self.parent)
        ]

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and the work ratios of one traced pass."""
        name_of = np.asarray(self.name_of, dtype=int)
        parent = np.asarray(self.parent, dtype=int)
        dur = np.asarray(self.end) - np.asarray(self.start)
        covered = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name_of, minlength=k)
        self_s = np.bincount(name_of, weights=self_time, minlength=k)
        by_name = {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

        out = {}
        for module, names in LAYER_FUNCTIONS.items():
            for fn in names:
                c, s = by_name.get(f"{module}.{fn}", (0, 0.0))
                out[f"{module}.{fn}.calls"] = c
                out[f"{module}.{fn}.self_s"] = s

        def ids(*names):
            return [i for i, name in enumerate(self.names) if name in names]

        parent_name = np.full(name_of.size, -1)
        parent_name[has_parent] = name_of[parent[has_parent]]
        under_search = np.isin(name_of, ids(MU_CONTRACTION)) & np.isin(parent_name, ids(MU_SEARCH))
        out["bounds.orders_evaluated_frac"] = (
            int(under_search.sum()) / self.orderings if self.orderings else 0.0
        )
        # one optimizer run per restart; only runs directly under a minimize_* span count
        minimizer_spans = set(np.flatnonzero(np.isin(name_of, ids(*MINIMIZERS))).tolist())
        runs = [tally for owner, tally in self.optimizer.items() if owner in minimizer_spans]
        restarts = sum(r for r, _ in runs)
        out["verifier.objective_evals_per_restart"] = (
            sum(e for _, e in runs) / restarts if restarts else 0.0
        )
        return out


_IMPORT_LINE = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``-X importtime`` output.

    A module's time includes whatever it imported first, so ``eur.cli``
    covers the whole ``import eur.cli``, the ``eur`` package included.
    """
    cumulative = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) * 1e-6
    return {module: cumulative.get(module, 0.0) for module in IMPORT_MODULES}
