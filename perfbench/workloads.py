"""Seeded workloads: unit lists, unit runners and the checks that judge them.

Every workload is a fixed list of units generated from ``(workload, seed)``
alone, without calling the package, so the same seed gives the same inputs
on every version of the program.  A unit is a plain dict.  ``Runner.run``
executes one unit through the package's public API and returns plain,
comparable data; ``check_unit`` judges that data against the paper's facts.

Package functions are looked up as attributes of ``kyle_stability`` at call
time, so the tracer's rebinding of those names is seen here.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import kyle_stability as ks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Paper facts the checks judge against (reference digits as pinned in
# tests/conftest.py).
INSIDER_CLASS = {1: "super_attractive", 2: "attractive"}  # N >= 3: repellent
PINNED_DERIVATIVES = (0.0, -0.98121, -2.07611)  # at coordinates N, N-1, N-2
PINNED_TOL = 1e-4
EQ_BETA_N3 = (0.5381695932221123, 0.7575868210282761, 1.3651242809592772)
SECOND_FP_N3 = (1.2582536009629393, -2.157491457005712, 2.6903478420808034)
SECOND_FP_TOL = 1e-10
SCHEMA = "kyle-stability/1"

# Monte Carlo checks: chance that a correct program fails any test of one
# run, split over all tests by Bonferroni.
MC_FALSE_ALARM = 1e-6

CLI_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Verdict:
    """Outcome of one unit's check."""

    ok: bool
    reason: str = ""


def generate(workload: str, seed: int) -> list:
    """The workload's unit list; the seed alone determines it."""
    rng = random.Random(f"{workload}/{seed}")
    return _GENERATORS[workload](rng)


# --------------------------------------------------------------- generators


def _log_params(rng: random.Random, decades: float) -> dict:
    return {
        name: 10.0 ** rng.uniform(-decades, decades)
        for name in ("delta", "sigma_u", "sigma0")
    }


def _stratified_log_params(rng: random.Random, count: int, decades: float) -> list:
    """``count`` parameter sets, each parameter log-uniform over 10^+-decades.

    Each parameter's range is cut into ``count`` equal strata with one draw
    per stratum (a Latin hypercube), so every seed gets the same mix of
    moderate and extreme scales and the pass cost barely moves with the seed.
    """
    columns = {}
    for name in ("delta", "sigma_u", "sigma0"):
        logs = [-decades + 2.0 * decades * (i + rng.random()) / count for i in range(count)]
        rng.shuffle(logs)
        columns[name] = logs
    return [
        {name: 10.0 ** columns[name][i] for name in columns} for i in range(count)
    ]


def _invariant_params(rng: random.Random) -> dict:
    """Unit round length and ``sigma_u**2 == sigma0``, with sigma0 seeded.

    Along this family both round trips have the same beta and lambda paths
    as at unit parameters, so iteration counts, and with them the cost of a
    pass, do not depend on the seed.  Scale sensitivity is stability-sweep's
    job.
    """
    sigma0 = 10.0 ** rng.uniform(-4.0, 4.0)
    return {"delta": 1.0, "sigma_u": math.sqrt(sigma0), "sigma0": sigma0}


# stability-sweep: the per-call path (b-solve, FD Jacobian, eigenvalues,
# Ridders).  Horizons are mostly the key-results range 1..8; the tail reaches
# the eigenvalue cap (64).  One unit per horizon sits at unit parameters.  In
# the rest, delta and sigma0 span 10^+-1 and sigma_u is set so that the beta
# scale sigma_u / sqrt(sigma0 * delta) spans 10^+-1 as well: the scales on
# which every unit passes its check (the Ridders step is absolute, so a beta
# scale below about 10^-1.7 already gives wrong pinned derivatives).  A pass
# takes about 0.3 s, so a run times each unit some 70 times: the host's
# CPUs are shared and slow down for seconds at a time, and a unit's best
# latency is steady only when it is sampled across many such stretches.
SWEEP_HORIZONS = {**{n: 8 for n in range(1, 9)}, 16: 2, 32: 1, 64: 1}
SWEEP_DECADES = 1.0


def _gen_sweep(rng: random.Random) -> list:
    units = []
    for n, count in SWEEP_HORIZONS.items():
        drawn = _stratified_log_params(rng, count - 1, SWEEP_DECADES)
        for params in drawn:  # the sigma_u draw is the beta scale
            params["sigma_u"] *= math.sqrt(params["sigma0"] * params["delta"])
        unit_scale = {"delta": 1.0, "sigma_u": 1.0, "sigma0": 1.0}
        units += [{"kind": "sweep", "n": n, "params": params} for params in [unit_scale] + drawn]
    return units


# Known-defect probe: sweep units on the ROADMAP's known defects, run once,
# untimed, after a stability-sweep run and listed in its report.  Results
# depend on the parameter scale outside roughly 10^+-1, and eigenvalues()
# refuses matrices above 64 x 64, so these units may fail their checks.
# They are not timed units: a timed unit that fails makes the run incorrect.
DEFECT_HORIZONS = {**{n: 3 for n in range(1, 9)}, 80: 1}
DEFECT_DECADES = 8.0


def known_defect_units(seed: int) -> list:
    """Seeded sweep units at 10^+-8 scales and past the eigenvalue cap."""
    rng = random.Random(f"known-defects/{seed}")
    units = []
    for n, count in DEFECT_HORIZONS.items():
        if n > 64:
            sets = [{"delta": 1.0, "sigma_u": 1.0, "sigma0": 1.0}] * count
        else:
            sets = _stratified_log_params(rng, count, DEFECT_DECADES)
        units += [{"kind": "sweep", "n": n, "params": params} for params in sets]
    return units


# perturbation-battery: long sequential operator loops.  Every battery row of
# N = 3..8, the variance-perturbation experiment, and iterate() with both
# round trips from perturbed starts.  Rows stop at 1,200 steps instead of the
# default 10,000: the same 12 of 33 rows still run to the cap (58% of the
# iterations) and the returning rows still return (the slowest, coordinate
# N-1, after about 1,100 steps), but a pass does a fifth of the
# evaluations, so a run times each unit about five times as often and the
# best-of-passes timing is steadier on a shared host.  The
# relative perturbations are a fixed catalogue applied to the seeded
# equilibrium: a seeded direction can send the iteration to a different fixed
# point at ten times the cost, which would move the median unit with the seed.
BATTERY_HORIZONS = range(3, 9)
BATTERY_MAX_ITER = 1200
_catalogue_rng = random.Random("perturbation-battery/starts")
ITERATE_STARTS = [
    (10.0 ** _catalogue_rng.uniform(-8.0, -2.0), [_catalogue_rng.gauss(0.0, 1.0) for _ in range(3)])
    for _ in range(6)
]


def _gen_battery(rng: random.Random) -> list:
    units = []
    for n in BATTERY_HORIZONS:
        params = _invariant_params(rng)
        units += [
            {"kind": "battery_row", "n": n, "coord": coord, "params": params}
            for coord in range(1, n + 1)
        ]
    params3 = _invariant_params(rng)
    units.append({"kind": "variance", "n": 3, "params": params3})
    for operator in ("insider", "maker"):
        for eps, direction in ITERATE_STARTS:
            units.append(
                {
                    "kind": "iterate",
                    "n": 3,
                    "operator": operator,
                    "params": params3,
                    "eps": eps,
                    "direction": direction,
                }
            )
    return units


# monte-carlo: the only workload where montecarlo dominates.  Two shapes: N=3
# with 1M paths (equilibrium, and half-strength strategy for the optimality
# gap), and a wide N=24 run whose 49 x 49 moment matrix and 24-step path loop
# change the block working set.
MC_REPEATS = 2
MC_CASES = (("equilibrium", 3, 1_000_000), ("half", 3, 1_000_000), ("equilibrium", 24, 250_000))


def _mc_tests(unit: dict) -> int:
    if unit["case"] == "half":
        return 1
    n = unit["n"]
    return n * (n + 3) // 2 + 2  # regression coefficients, variance, profit


def _gen_mc(rng: random.Random) -> list:
    units = []
    for _ in range(MC_REPEATS):
        for case, n, paths in MC_CASES:
            units.append(
                {
                    "kind": "mc",
                    "case": case,
                    "n": n,
                    "paths": paths,
                    "params": _log_params(rng, 1.0),
                    "mc_seed": rng.getrandbits(63),
                }
            )
    tests = sum(_mc_tests(u) for u in units)
    z_bound = NormalDist().inv_cdf(1.0 - MC_FALSE_ALARM / (2.0 * tests))
    for unit in units:
        unit["z_bound"] = z_bound
    return units


# cli-fresh: one fresh interpreter per unit, so every unit pays the import.
# All seven subcommands with small inputs (tables once per table), JSON and
# CSV, and one invalid call.  Each command runs once per pass: a unit costs
# about half a second, so fewer units give more passes, and so more samples
# per unit, within a run.


def _flags(params: dict, time_step_flag: str = "--delta") -> list:
    return [
        f"{time_step_flag}={params['delta']!r}",
        f"--sigma-u={params['sigma_u']!r}",
        f"--sigma0={params['sigma0']!r}",
    ]


def _vector(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _maker_path(beta) -> list:
    """Pricing path of ``beta`` at unit parameters (the maker recursion)."""
    lam, var = [], 1.0
    for b in beta:
        den = b * b * var + 1.0
        lam.append(b * var / den)
        var = var / den
    return lam


def _perturbed(base, rng: random.Random) -> list:
    eps = 10.0 ** rng.uniform(-8.0, -2.0)
    return [x * (1.0 + eps * rng.gauss(0.0, 1.0)) for x in base]


def _gen_cli(rng: random.Random) -> list:
    def cli(command, fmt, args, **expect):
        argv = [command, *args, f"--format={fmt}"]
        return {"kind": "cli", "command": command, "format": fmt, "argv": argv, **expect}

    n_eq = rng.randint(1, 8)
    n_jac = rng.randint(2, 6)
    n_st = rng.randint(1, 6)
    st_operator = rng.choice(["insider", "maker"])
    invariant = _invariant_params(rng)
    invalid = rng.choice(
        [
            ["equilibrium", "--n=0"],
            ["equilibrium", "--sigma0=-1.0"],
            ["simulate", "--n=3", "--paths=3"],
            ["iterate", "--n=3", "--start=1.0,2.0"],
        ]
    )
    return [
        cli("equilibrium", "csv", [f"--n={n_eq}", *_flags(_log_params(rng, 1.0))], n=n_eq),
        cli("iterate", "json", ["--n=3", "--operator=maker", "--max-iter=2000",
                                f"--start={_vector(_perturbed(_maker_path(EQ_BETA_N3), rng))}"], n=3),
        cli("jacobian", "json", [f"--n={n_jac}", *_flags(_log_params(rng, 1.0))], n=n_jac),
        cli("stability", "json", [f"--n={n_st}", f"--operator={st_operator}",
                                  *_flags(_log_params(rng, 1.0))], n=n_st, operator=st_operator),
        cli("perturb", "csv", ["--n=3", "--battery", "--max-iter=5000",
                               *_flags(_invariant_params(rng), "--dt")], n=3),
        cli("simulate", "json", ["--n=3", "--paths=20000", f"--seed={rng.getrandbits(32)}",
                                 *_flags(_log_params(rng, 1.0))], n=3),
        cli("tables", "csv", ["--which=key-results"]),
        cli("tables", "json", ["--which=perturbation-limit", "--n=3", "--expect-converge",
                               f"--variance-bump={1e-10 * invariant['sigma_u'] ** 2!r}",
                               *_flags(invariant)]),
        cli("tables", "json", ["--which=eigenvalues", "--n=3"]),
        {"kind": "cli", "command": invalid[0], "format": "json", "argv": invalid, "invalid": True},
    ]


_GENERATORS = {
    "stability-sweep": _gen_sweep,
    "perturbation-battery": _gen_battery,
    "monte-carlo": _gen_mc,
    "cli-fresh": _gen_cli,
}
WORKLOADS = tuple(_GENERATORS)


# ------------------------------------------------------------------ runners


def _params(unit: dict):
    return ks.ModelParams(n_periods=unit["n"], **unit["params"])


def _run_sweep(unit: dict) -> dict:
    n = unit["n"]
    params = _params(unit)
    eq = ks.equilibrium_from_params(params)
    insider = ks.classify_fixed_point(ks.insider_policy_step, eq.beta, params)
    maker = ks.classify_fixed_point(ks.maker_policy_step, eq.lam, params)
    pinned = [
        ks.pinned_coordinate_derivative(coord, params, eq)
        for coord in range(n, max(n - 3, 0), -1)
    ]
    return {
        "insider_class": insider.classification,
        "insider_rho": insider.spectral_radius,
        "maker_rho": maker.spectral_radius,
        "pinned": [float(d) for d in pinned],
    }


def _run_battery_row(unit: dict) -> dict:
    (row,) = ks.perturbation_battery(
        _params(unit), coords=[unit["coord"]], max_iter=BATTERY_MAX_ITER
    )
    return {key: row[key] for key in ("verdict", "iterations_used", "limit", "returned")}


def _run_variance(unit: dict) -> dict:
    params = _params(unit)
    out = ks.variance_perturbation_experiment(
        params, variance_bump=1e-10 * params.sigma_u**2
    )
    return {key: out[key] for key in ("verdict", "iterations_used", "limit")}


def _operator(name: str):
    return ks.insider_policy_step if name == "insider" else ks.maker_policy_step


def _run_iterate(unit: dict) -> dict:
    params = _params(unit)
    eq = ks.equilibrium_from_params(params)
    base = eq.beta if unit["operator"] == "insider" else eq.lam
    start = [x * (1.0 + unit["eps"] * d) for x, d in zip(base.tolist(), unit["direction"])]
    trace = ks.iterate(_operator(unit["operator"]), start, params)
    limit = None if trace.limit is None else [float(x) for x in trace.limit]
    return {
        "start": start,
        "verdict": trace.verdict,
        "iterations_used": trace.iterations_used,
        "limit": limit,
    }


def _run_mc(unit: dict) -> dict:
    params = _params(unit)
    eq = ks.equilibrium_from_params(params)
    scale = 0.5 if unit["case"] == "half" else 1.0
    config = ks.SimConfig(
        params=params,
        n_paths=unit["paths"],
        seed=unit["mc_seed"],
        strategy_beta=eq.beta * scale,
        pricing_lambda=eq.lam,
    )
    sim = ks.simulate(config)
    return {
        "mean_profit": sim.mean_profit,
        "mean_profit_se": sim.mean_profit_se,
        "t_max": max(float(abs(reg.t_stat).max()) for reg in sim.efficiency),
        "terminal_variance": sim.terminal_variance_estimate,
        "terminal_variance_se": sim.terminal_variance_se,
    }


_IN_PROCESS = {
    "sweep": _run_sweep,
    "battery_row": _run_battery_row,
    "variance": _run_variance,
    "iterate": _run_iterate,
    "mc": _run_mc,
}


def run_child(cmd: list, out_dir: Path, timeout: float = CLI_TIMEOUT_S):
    """Run one child process to completion.

    Returns (exit code, stdout, stderr, seconds, peak RSS in KiB).  Output
    goes through files in ``out_dir``; ``wait4`` gives the child's own
    resource usage.  A child still running after ``timeout`` is killed.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryFile(dir=out_dir) as out, tempfile.TemporaryFile(dir=out_dir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (
            proc.returncode,
            out.read().decode(),
            err.read().decode(),
            elapsed,
            usage.ru_maxrss,
        )


class Runner:
    """Executes units of one workload.

    With a tracer, CLI units run in traced children whose spans are merged
    into it; in-process units are traced by installing the tracer itself.
    """

    def __init__(self, out_dir: Path, tracer=None):
        self.out_dir = out_dir
        self.tracer = tracer
        self.child_peak_kib = 0

    def run(self, unit: dict, index: int):
        """Run one unit; returns (output, seconds).  Errors become output."""
        if unit["kind"] == "cli":
            return self._run_cli(unit, index)
        start = time.perf_counter()
        try:
            out = _IN_PROCESS[unit["kind"]](unit)
        except Exception as exc:  # a unit that raises is a failed unit
            out = {"error": f"{type(exc).__name__}: {exc}"}
        return out, time.perf_counter() - start

    def _run_cli(self, unit: dict, index: int):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "kyle_stability.cli", *unit["argv"]]
        else:
            spans = self.out_dir / f"child-spans-{index}.json"
            child = Path(__file__).resolve().parent / "cli_child.py"
            cmd = [sys.executable, "-X", "importtime", str(child), str(spans), *unit["argv"]]
        code, stdout, stderr, elapsed, peak_kib = run_child(cmd, self.out_dir)
        self.child_peak_kib = max(self.child_peak_kib, peak_kib)
        if self.tracer is not None and spans.exists():
            self.tracer.merge_child(spans, index, stderr)
            spans.unlink()
        return {"exit": code, "stdout": stdout}, elapsed


# ------------------------------------------------------------------- checks


def check_unit(unit: dict, out: dict) -> Verdict:
    """Judge one unit's output against the paper's facts."""
    if "error" in out:
        reason = f"raised {out['error']}"
    else:
        reason = _CHECKS[unit["kind"]](unit, out)
    return Verdict(ok=reason is None, reason=reason or "")


def _check_sweep(unit: dict, out: dict):
    n = unit["n"]
    want = INSIDER_CLASS.get(n, "repellent")
    if out["insider_class"] != want:
        return f"insider side classed {out['insider_class']}, expected {want}"
    rho = out["maker_rho"]
    if (n <= 2 and not rho < 1.0) or (n >= 3 and not rho > 1.0):
        return f"maker-side spectral radius {rho!r} on the wrong side of 1"
    for coord_offset, (got, want_d) in enumerate(zip(out["pinned"], PINNED_DERIVATIVES)):
        if not abs(got - want_d) <= PINNED_TOL:
            return f"pinned derivative at coordinate N-{coord_offset} is {got!r}, expected {want_d}"
    return None


def _check_battery_row(unit: dict, out: dict):
    should_return = unit["coord"] >= unit["n"] - 1
    if out["returned"] != should_return:
        return f"coordinate {unit['coord']} of N={unit['n']} returned={out['returned']}"
    return None


def _distance(a, b) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def _check_variance(unit: dict, out: dict):
    if out["verdict"] != "converged":
        return f"variance-perturbed iteration ended {out['verdict']}"
    dist = _distance(out["limit"], SECOND_FP_N3)
    if not dist <= SECOND_FP_TOL:
        return f"limit is {dist:.3e} from the second fixed point"
    return None


def _check_iterate(unit: dict, out: dict):
    """The equilibrium is repellent at N=3: iteration must leave it."""
    verdict = out["verdict"]
    if verdict in ("diverged", "left_domain"):
        return None
    if verdict != "converged":
        return f"iteration ended {verdict}"
    params = _params(unit)
    limit = out["limit"]
    image = _operator(unit["operator"])(limit, params)
    scale = 1.0 + max(abs(x) for x in limit)
    if not (image.in_domain and _distance(image.value.tolist(), limit) <= 1e-9 * scale):
        return "converged limit is not a fixed point"
    eq = ks.equilibrium_from_params(params)
    base = (eq.beta if unit["operator"] == "insider" else eq.lam).tolist()
    if _distance(limit, base) <= 1e-6 * scale:
        return "iteration returned to the repellent equilibrium"
    return None


def _check_mc(unit: dict, out: dict):
    params = _params(unit)
    z = unit["z_bound"]
    expected_profit = ks.expected_equilibrium_profit(params)
    se = out["mean_profit_se"]
    if unit["case"] == "half":
        gap = expected_profit - out["mean_profit"]
        if not gap > z * se:
            return f"optimality gap {gap!r} not above {z:.2f} standard errors"
        return None
    if not out["t_max"] <= z:
        return f"efficiency t-statistic {out['t_max']:.3f} above Bonferroni bound {z:.3f}"
    expected_var = float(ks.equilibrium_from_params(params).sigma_sq[-1])
    var_dev = abs(out["terminal_variance"] - expected_var)
    if not var_dev <= z * out["terminal_variance_se"]:
        return f"terminal variance off by {var_dev / out['terminal_variance_se']:.2f} se"
    if not abs(out["mean_profit"] - expected_profit) <= z * se:
        return "mean profit off the model value"
    return None


def _check_cli(unit: dict, out: dict):
    code, text = out["exit"], out["stdout"]
    if unit.get("invalid"):
        if code != 2 or text:
            return f"invalid input exited {code} with {len(text)} bytes of output"
        return None
    if unit["format"] == "json":
        from kyle_stability import reports

        try:
            report = reports.loads_report(text)
        except ValueError as exc:
            return f"output does not parse: {exc}"
        if report.get("schema") != SCHEMA or report.get("command") != unit["command"]:
            return "wrong schema or command in report"
        result = report["result"]
        rows = result if isinstance(result, list) else [result]
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
        if not text.splitlines() or not rows:
            return "CSV has no header or no rows"
    return _CLI_CONTENT[unit["command"]](unit, code, rows)


def _cli_equilibrium(unit, code, rows):
    if code != 0:
        return f"exit {code}"
    if unit["format"] == "json" and len(rows[0]["beta"]) != unit["n"]:
        return "beta path has the wrong length"
    if unit["format"] == "csv" and "beta" not in rows[0]:
        return "CSV lacks a beta column"
    return None


def _cli_iterate(unit, code, rows):
    want = 3 if rows[0]["verdict"] == "left_domain" else 0
    return None if code == want else f"exit {code} for verdict {rows[0]['verdict']}"


def _cli_jacobian(unit, code, rows):
    if code != 0:
        return f"exit {code}"
    if unit["format"] == "json" and len(rows[0]["eigenvalues"]) != unit["n"]:
        return "wrong number of eigenvalues"
    return None


def _cli_stability(unit, code, rows):
    if code != 0:
        return f"exit {code}"
    n, row = unit["n"], rows[0]
    if unit["operator"] == "insider":
        want = INSIDER_CLASS.get(n, "repellent")
        return None if row["classification"] == want else f"classed {row['classification']}"
    rho = row["spectral_radius"]
    ok = rho < 1.0 if n <= 2 else rho > 1.0
    return None if ok else f"maker-side spectral radius {rho!r}"


def _cli_perturb(unit, code, rows):
    n = unit["n"]
    if len(rows) != (n if "--battery" in unit["argv"] else 1):
        return "wrong number of rows"
    left = any(row["verdict"] == "left_domain" for row in rows)
    if code != (3 if left else 0):
        return f"exit {code}"
    for row in rows:
        returned = row["verdict"] == "converged-to-equilibrium"
        if returned != (int(row["coord"]) >= n - 1):
            return f"coordinate {row['coord']} verdict {row['verdict']}"
    return None


def _cli_simulate(unit, code, rows):
    if code != 0:
        return f"exit {code}"
    if "terminal_variance_check" not in rows[0]:
        return "missing terminal variance check"
    return None


def _cli_tables(unit, code, rows):
    if code != 0:
        return f"exit {code}"
    which = next(a.split("=", 1)[1] for a in unit["argv"] if a.startswith("--which="))
    if which == "key-results":
        for row in rows:
            want = INSIDER_CLASS.get(int(row["n_periods"]), "repellent")
            if row["classification"] != want:
                return f"key-results row N={row['n_periods']} classed {row['classification']}"
    elif which == "perturbation-limit":
        if _distance(rows[0]["limit"], SECOND_FP_N3) > SECOND_FP_TOL:
            return "perturbation limit is not the second fixed point"
    else:
        table = rows[0]
        if table["equilibrium"]["classification"] != "repellent" or not (
            table["second_fixed_point"]["spectral_radius"] < 1.0
        ):
            return "eigenvalue table classes the fixed points wrongly"
    return None


_CLI_CONTENT = {
    "equilibrium": _cli_equilibrium,
    "iterate": _cli_iterate,
    "jacobian": _cli_jacobian,
    "stability": _cli_stability,
    "perturb": _cli_perturb,
    "simulate": _cli_simulate,
    "tables": _cli_tables,
}

_CHECKS = {
    "sweep": _check_sweep,
    "battery_row": _check_battery_row,
    "variance": _check_variance,
    "iterate": _check_iterate,
    "mc": _check_mc,
    "cli": _check_cli,
}


def canonical(out: dict) -> str:
    """Exact, comparable text of a unit output."""
    return json.dumps(out, sort_keys=True, default=str)
