"""Span tracer that wraps the package's public functions from outside.

``Tracer.install`` rebinds every public function of every loaded
``kyle_stability`` module, in every module that holds a reference to it,
including references captured in module-level dicts such as the CLI's
operator table.  Each call records a span (name, start, end, parent, unit)
in flat in-memory arrays; ``uninstall`` restores the originals.  Observers
at a few boundaries count the work a call did (iterations, domain exits,
simulated paths), and ``layer_metrics`` derives self time, counts and
ratios from the spans.

This module imports only the standard library at load time, so a traced
CLI child can import the package first and ``-X importtime`` still charges
numpy and scipy to the package.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

PACKAGE = "kyle_stability"
CLI_COMMANDS = (
    "equilibrium", "iterate", "jacobian", "stability", "perturb", "simulate", "tables",
)
MC_HORIZONS = (3, 24)


def _fn_metrics(qualname: str, *suffixes: str) -> list:
    units = {"calls": ("count", "lower"), "self_s": ("s", "lower"), "iterations": ("count", "lower")}
    return [(f"{qualname}.{s}", *units[s]) for s in suffixes]


# (name, unit, better) of every per-layer metric a traced run reports.
LAYER_METRICS = [
    *_fn_metrics("model.solve_b_recursion", "calls", "self_s"),
    ("model.solve_b_recursion.repeat_share", "share", "higher"),
    *_fn_metrics("model.equilibrium_from_params", "calls", "self_s"),
    *[
        metric
        for fn in (
            "insider_policy_step",
            "maker_policy_step",
            "market_maker_response",
            "insider_response",
            "pinned_coordinate_step",
        )
        for metric in _fn_metrics(f"operators.{fn}", "calls", "self_s")
    ],
    ("operators.out_of_domain_share", "share", "lower"),
    *_fn_metrics("stability.iterate", "calls", "self_s", "iterations"),
    *_fn_metrics("stability.iterate_scalar", "calls", "self_s", "iterations"),
    ("stability.iterations.max_iter_share", "share", "lower"),
    *[
        metric
        for fn in ("jacobian_fd", "eigenvalues", "classify_fixed_point", "richardson_derivative")
        for metric in _fn_metrics(f"stability.{fn}", "calls", "self_s")
    ],
    ("stability.evals_per_jacobian", "count/call", "lower"),
    ("stability.evals_per_derivative", "count/call", "lower"),
    *[
        metric
        for fn in (
            "perturbation_battery",
            "variance_perturbation_experiment",
            "key_results_table",
            "eigenvalue_table",
        )
        for metric in _fn_metrics(f"experiments.{fn}", "self_s")
    ],
    *_fn_metrics("montecarlo.simulate", "calls", "self_s"),
    *[(f"montecarlo.paths_per_s.n{n}", "1/s", "higher") for n in MC_HORIZONS],
    ("montecarlo.bytes_computed", "bytes", "lower"),
    *_fn_metrics("reports.dumps_report", "self_s"),
    *_fn_metrics("reports.rows_to_csv", "self_s"),
    ("cli.import_s", "s", "lower"),
    ("cli.import_scipy_special_s", "s", "lower"),
    ("cli.import_numpy_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    *[(f"cli.main.self_s.{cmd}", "s", "lower") for cmd in CLI_COMMANDS],
    ("trace.overhead_share", "share", "lower"),
]


def public_functions(module) -> dict:
    """Functions a module defines and exports (``__all__``, else no underscore)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    found = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            found[name] = obj
    return found


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def mc_bytes_per_path(n: int) -> int:
    """Bytes of arrays ``simulate`` materializes per path, from their shapes.

    Computed, not measured: Philox words padded to 4 per counter, four
    (n+1)-wide draw arrays (shifted words, uniforms twice, normals), v and
    du, the 1+2n moment row, and about ten temporaries per round of the
    path loop.  Cache behaviour is ignored.
    """
    words = 4 * ((n + 4) // 4)
    return 8 * (words + 4 * (n + 1) + 1 + n + (1 + 2 * n) + 10 * n)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self.current_unit = -1
        self._stack: list = []
        self._saved: list = []
        self.counters: dict = defaultdict(float)
        self.solved_horizons: set = set()
        self.sims: list = []  # (span index, N, paths)
        self.imports: list = []  # per traced CLI child: import times in s

    def _name_id(self, qualname: str) -> int:
        if qualname not in self._ids:
            self._ids[qualname] = len(self.names)
            self.names.append(qualname)
        return self._ids[qualname]

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        """Wrap every public function of the loaded package modules."""
        modules = _package_modules()
        wrapped = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for name, fn in public_functions(module).items():
                wrapped[fn] = self._wrap(f"{layer}.{name}", fn)
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._saved.append((namespace, key, value))
                    namespace[key] = wrapped[value]
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if inspect.isfunction(dvalue) and dvalue in wrapped:
                            self._saved.append((value, dkey, dvalue))
                            value[dkey] = wrapped[dvalue]

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._saved):
            holder[key] = original
        self._saved.clear()

    def _wrap(self, qualname: str, fn):
        nid = self._name_id(qualname)
        observe = _OBSERVERS.get(qualname)
        stack = self._stack
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.unit.append(self.current_unit)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, idx, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------- persistence, merging

    def dump(self, path) -> None:
        """Write spans and counters as JSON."""
        data = {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "unit": self.unit.tolist(),
            "counters": dict(self.counters),
            "sims": self.sims,
        }
        Path(path).write_text(json.dumps(data))

    def merge_child(self, path, unit: int, importtime_stderr: str) -> None:
        """Append a traced child's spans, tagged with ``unit``."""
        data = json.loads(Path(path).read_text())
        offset = len(self.start)
        remap = [self._name_id(name) for name in data["names"]]
        self.name_id.extend(remap[i] for i in data["name_id"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"])
        self.unit.extend(unit for _ in data["parent"])
        for key, value in data["counters"].items():
            self.counters[key] += value
        self.sims.extend((idx + offset, n, paths) for idx, n, paths in data["sims"])
        self.imports.append(parse_importtime(importtime_stderr))

    # -------------------------------------------------------------- metrics

    def layer_metrics(self, unit_commands: list) -> dict:
        """Per-layer metrics from the spans; ``unit_commands[i]`` names unit i's CLI command."""
        import numpy as np

        names = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        count = len(names)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=count)
        self_time = dur - child_time
        width = max(len(self.names), 1)
        calls = np.bincount(names, minlength=width)
        self_sum = np.bincount(names, weights=self_time, minlength=width)
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)

        def nid(qualname):
            return self._ids.get(qualname, -1)

        def n_calls(qualname):
            return int(calls[nid(qualname)]) if nid(qualname) >= 0 else 0

        def self_s(qualname):
            return float(self_sum[nid(qualname)]) if nid(qualname) >= 0 else 0.0

        def children(parent_q, child_qs):
            ids = [nid(q) for q in child_qs]
            return int(np.sum(np.isin(names, ids) & (parent_name == nid(parent_q))))

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        out = {}
        for name, _, _ in LAYER_METRICS:
            head, _, tail = name.rpartition(".")
            if tail == "calls":
                out[name] = n_calls(head)
            elif tail == "self_s":
                out[name] = self_s(head)
            elif tail == "iterations":
                out[name] = int(c[f"{head}.iterations"])
        out["model.solve_b_recursion.repeat_share"] = ratio(
            c["solve_b_recursion.repeats"], n_calls("model.solve_b_recursion")
        )
        out["operators.out_of_domain_share"] = ratio(
            c["insider_response.out_of_domain"], n_calls("operators.insider_response")
        )
        out["stability.iterations.max_iter_share"] = ratio(
            c["iterations.max_iter"],
            c["stability.iterate.iterations"] + c["stability.iterate_scalar.iterations"],
        )
        out["stability.evals_per_jacobian"] = ratio(
            children(
                "stability.jacobian_fd",
                ["operators.insider_policy_step", "operators.maker_policy_step"],
            ),
            n_calls("stability.jacobian_fd"),
        )
        out["stability.evals_per_derivative"] = ratio(
            children("stability.richardson_derivative", ["operators.pinned_coordinate_step"]),
            n_calls("stability.richardson_derivative"),
        )
        for n in MC_HORIZONS:
            paths = sum(p for _, sim_n, p in self.sims if sim_n == n)
            seconds = sum(float(dur[idx]) for idx, sim_n, _ in self.sims if sim_n == n)
            out[f"montecarlo.paths_per_s.n{n}"] = ratio(paths, seconds)
        out["montecarlo.bytes_computed"] = sum(
            paths * mc_bytes_per_path(n) for _, n, paths in self.sims
        )
        for key in ("import_s", "import_scipy_special_s", "import_numpy_s"):
            values = sorted(entry[key] for entry in self.imports)
            out[f"cli.{key}"] = values[len(values) // 2] if values else 0.0
        # The CLI reports self time per invocation, overall and per command.
        main_spans = np.flatnonzero(names == nid("cli.main"))
        out["cli.main.self_s"] = ratio(float(self_time[main_spans].sum()), len(main_spans))
        units = np.array(self.unit, dtype=np.int64)
        for cmd in CLI_COMMANDS:
            mine = [i for i in main_spans if unit_commands[units[i]] == cmd]
            out[f"cli.main.self_s.{cmd}"] = ratio(float(self_time[mine].sum()), len(mine))
        return out


# Observers run after a wrapped call returns: (tracer, span index, args,
# kwargs, result).


def _observe_b_solve(tracer, idx, args, kwargs, result):
    n = args[0] if args else kwargs["n_periods"]
    if n in tracer.solved_horizons:
        tracer.counters["solve_b_recursion.repeats"] += 1
    tracer.solved_horizons.add(n)


def _observe_insider_response(tracer, idx, args, kwargs, result):
    if not result.in_domain:
        tracer.counters["insider_response.out_of_domain"] += 1


def _observe_iteration(tracer, idx, args, kwargs, result):
    qualname = tracer.names[tracer.name_id[idx]]
    tracer.counters[f"{qualname}.iterations"] += result.iterations_used
    if result.verdict == "max_iter":
        tracer.counters["iterations.max_iter"] += result.iterations_used


def _observe_simulate(tracer, idx, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    tracer.sims.append((idx, config.params.n_periods, config.n_paths))


_OBSERVERS = {
    "model.solve_b_recursion": _observe_b_solve,
    "operators.insider_response": _observe_insider_response,
    "stability.iterate": _observe_iteration,
    "stability.iterate_scalar": _observe_iteration,
    "montecarlo.simulate": _observe_simulate,
}

_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")


def parse_importtime(stderr: str) -> dict:
    """Import times in seconds from ``python -X importtime`` output.

    ``import_s`` sums the cumulative times of the top-level imports of the
    package and its modules; numpy and scipy.special are their cumulative
    times wherever they were first imported.
    """
    out = {"import_s": 0.0, "import_scipy_special_s": 0.0, "import_numpy_s": 0.0}
    for match in _IMPORTTIME.finditer(stderr):
        cumulative = int(match.group(2)) * 1e-6
        depth = len(match.group(3)) - 1
        name = match.group(4)
        if depth == 0 and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            out["import_s"] += cumulative
        elif name == "numpy":
            out["import_numpy_s"] = cumulative
        elif name == "scipy.special":
            out["import_scipy_special_s"] = cumulative
    return out
