"""Benchmark entry point for kyle_stability.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  Each
workload (see ``workloads.py``) is a fixed, seeded list of units run in one
process as a closed loop with one caller: passes over the list repeat until
``--seconds`` is used up, and at least ``MIN_PASSES`` run.  Every unit's
output is checked after its pass.

``--trace 0`` reports the end-to-end metrics (tracing off):

* ``setup_s``: median over ``SETUP_PROBES`` fresh interpreters of the time
  from process start to the first timed unit (import, input generation and
  one untimed warm-up unit);
* ``wall_s``: time of one pass over the unit list, summing each unit's best
  latency over the run's passes (best-of-k: the host's CPUs are shared, and
  other tenants slow whole stretches of seconds by tens of percent);
* ``unit_p50_ms``: median over units of each unit's best latency;
* ``unit_tail_ms``: the latency, over all samples, with exactly ten samples
  beyond it (its percentile and the sample count are in the report);
* ``peak_rss_mb``: peak resident memory of this process, or for cli-fresh
  of the largest CLI child.

``--trace 1`` runs one traced pass and untraced passes for the rest of the
time, checks that both give identical outputs, and reports the per-layer
metrics of ``tracer.LAYER_METRICS``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller report precedes it and is also written
under ``perfbench/out/``.  A unit fails when its check fails or it raises.
``correct`` is false when a unit fails, or when outputs differ between
passes or between the traced and the untraced pass.

After the timed passes, a stability-sweep run with ``--trace 0`` also runs
``workloads.known_defect_units`` once, untimed, and lists in the report how
many of them fail on the ROADMAP's known defects.  They are not counted in
``attempted`` or ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOADS = ("stability-sweep", "perturbation-battery", "monte-carlo", "cli-fresh")

MIN_PASSES = 2
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120.0
TAIL_BEYOND = 10

LIMITS = [
    "CPUs are shared with other work on the host; spreads include its load.",
    "File caches cannot be dropped: every run after the first reads warm caches.",
    "The monte-carlo stage split (RNG, normal transform, path loop, moment "
    "accumulation) needs spans inside the package and is left to a later change.",
    "Per-layer spans wrap public functions only; private helpers count as "
    "their caller's self time.",
]


def _require_source() -> None:
    if not (SRC / "kyle_stability" / "__init__.py").is_file():
        sys.exit(f"error: package source not found under {SRC}")


def _import_package():
    """Put ``src/`` first on the path and import the package from there."""
    _require_source()
    sys.path[0:0] = [str(SRC), str(ROOT)]
    import kyle_stability

    if Path(kyle_stability.__file__).resolve().parent != SRC / "kyle_stability":
        sys.exit(f"error: kyle_stability imported from {kyle_stability.__file__}")
    from perfbench import workloads

    return workloads


# ---------------------------------------------------------------- set-up


def _setup_probe(args) -> None:
    """Child side of a set-up probe: set up, warm up, signal, exit."""
    wl = _import_package()
    OUT_DIR.mkdir(exist_ok=True)
    units = wl.generate(args.workload, args.seed)
    wl.Runner(OUT_DIR).run(units[0], 0)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    os._exit(0)


def _measure_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until it is ready to time."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        sys.exit(f"error: set-up probe failed (exit {proc.returncode})")
    return elapsed


# ---------------------------------------------------------------- passes


def _run_pass(runner, units, tracer=None):
    outputs, latencies = [], []
    start = time.perf_counter()
    for index, unit in enumerate(units):
        if tracer is not None:
            tracer.current_unit = index
        out, seconds = runner.run(unit, index)
        outputs.append(out)
        latencies.append(seconds)
    return time.perf_counter() - start, latencies, outputs


class Tally:
    """Unit verdicts and output identity across passes."""

    def __init__(self, wl, units):
        self.wl = wl
        self.units = units
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.mismatches = 0
        self.reasons: dict = {}

    def add(self, outputs) -> None:
        texts = [self.wl.canonical(out) for out in outputs]
        if self.reference is None:
            self.reference = texts
        self.mismatches += sum(a != b for a, b in zip(texts, self.reference))
        for index, (unit, out) in enumerate(zip(self.units, outputs)):
            verdict = self.wl.check_unit(unit, out)
            self.attempted += 1
            if not verdict.ok:
                self.failed += 1
                self.reasons.setdefault(index, f"unit {index} {_describe(unit)}: {verdict.reason}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.mismatches == 0

    def summary(self, passes: int) -> dict:
        return {
            "passes": passes,
            "units_per_pass": len(self.units),
            "failed_units_per_pass": len(self.reasons),
            "failed_share": self.failed / self.attempted,
            "output_mismatches": self.mismatches,
            "failures": [self.reasons[i] for i in sorted(self.reasons)],
        }


def _describe(unit: dict) -> str:
    if unit["kind"] == "cli":
        return "cli " + " ".join(unit["argv"])
    keys = ("case", "n", "coord", "operator")
    return unit["kind"] + "".join(f" {k}={unit[k]}" for k in keys if k in unit)


def _tail(latencies: list):
    """(value, percentile): the latency with exactly TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def _known_defects(wl, runner, seed: int) -> dict:
    """Run the known-defect units once and list which fail their checks."""
    units = wl.known_defect_units(seed)
    failures = []
    for unit in units:
        verdict = wl.check_unit(unit, runner.run(unit, 0)[0])
        if not verdict.ok:
            failures.append(f"{_describe(unit)} {unit['params']}: {verdict.reason}")
    return {"units": len(units), "failed": len(failures), "failures": failures}


def _host_probe() -> float:
    """Best of five timings of a fixed pure-Python loop: the host's speed now.

    Not a metric of the program; it tells a slow host from a slow program.
    """
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ------------------------------------------------------------- headroom


def _headroom(workload, units, passes) -> dict:
    """Acceptance-test runtime budgets over the measured time of the same work."""
    import kyle_stability as ks

    out = {"property_suites_30s": "not covered: that budget times test code"}
    if workload == "stability-sweep":
        params = ks.ModelParams(n_periods=3)
        best = min(_timed(ks.equilibrium_from_params, params) for _ in range(20))
        out["equilibrium_n3_1ms"] = _ratio(1e-3, best, "best of 20")
    elif workload == "perturbation-battery":
        params = ks.ModelParams(n_periods=3)
        start = ks.equilibrium_from_params(
            ks.ModelParams(n_periods=3, sigma_u=(1.0 + 1e-10) ** 0.5)
        ).beta
        best = min(
            _timed(ks.iterate, ks.insider_policy_step, start, params) for _ in range(3)
        )
        out["variance_perturbation_iterate_1s"] = _ratio(1.0, best, "best of 3")
    elif workload == "monte-carlo":
        pair = [i for i, u in enumerate(units) if u["n"] == 3 and u["paths"] == 1_000_000][:2]
        best = min(sum(lat[i] for i in pair) for _, lat in passes)
        out["two_million_path_simulations_60s"] = _ratio(60.0, best, "best pass")
    return out


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _ratio(budget, measured, how) -> dict:
    return {"budget_s": budget, "measured_s": measured, "ratio": budget / measured, "how": how}


# ------------------------------------------------------------- provenance


def _provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None when not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """Commit of the checkout from ``.git`` files, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ------------------------------------------------------------------ runs


def timed_run(args) -> tuple:
    setup = [_measure_setup(args) for _ in range(SETUP_PROBES)]
    wl = _import_package()
    units = wl.generate(args.workload, args.seed)
    runner = wl.Runner(OUT_DIR)
    runner.run(units[0], 0)  # warm-up, as in the set-up probes
    tally = Tally(wl, units)
    host_probe = [_host_probe()]
    passes = []
    begin = time.perf_counter()
    while True:
        wall, latencies, outputs = _run_pass(runner, units)
        passes.append((wall, latencies))
        tally.add(outputs)
        typical = statistics.median(w for w, _ in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - begin + typical > args.seconds:
            break
    host_probe.append(_host_probe())
    latencies = [x for _, lat in passes for x in lat]
    best = [min(lat[i] for _, lat in passes) for i in range(len(units))]
    tail, tail_pct = _tail(latencies)
    if args.workload == "cli-fresh":
        peak_kib = runner.child_peak_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(sum(best), "s"),
        "unit_p50_ms": _metric(1e3 * statistics.median(best), "ms"),
        "unit_tail_ms": _metric(1e3 * tail, "ms"),
        "peak_rss_mb": _metric(peak_kib / 1024.0, "MB"),
    }
    report = {
        **tally.summary(len(passes)),
        "host_probe_s": host_probe,
        "setup_samples_s": setup,
        "pass_walls_s": [w for w, _ in passes],
        "tail_percentile": tail_pct,
        "tail_samples": len(latencies),
        "headroom": _headroom(args.workload, units, passes),
    }
    if args.workload == "stability-sweep":
        report["known_defects"] = _known_defects(wl, runner, args.seed)
    return tally, metrics, report


def traced_run(args) -> tuple:
    wl = _import_package()
    from perfbench.tracer import LAYER_METRICS, Tracer

    units = wl.generate(args.workload, args.seed)
    runner = wl.Runner(OUT_DIR)
    runner.run(units[0], 0)  # warm-up, untraced
    tracer = Tracer()
    traced = wl.Runner(OUT_DIR, tracer=tracer)
    begin = time.perf_counter()
    if args.workload != "cli-fresh":
        tracer.install()
    try:
        traced_wall, _, traced_outputs = _run_pass(traced, units, tracer)
    finally:
        tracer.uninstall()
    tally = Tally(wl, units)
    tally.add(traced_outputs)
    walls = []
    while True:
        wall, _, outputs = _run_pass(runner, units)
        walls.append(wall)
        tally.add(outputs)
        if time.perf_counter() - begin + statistics.median(walls) > args.seconds:
            break
    commands = [u.get("command") for u in units]
    values = tracer.layer_metrics(commands)
    values["trace.overhead_share"] = traced_wall / statistics.median(walls) - 1.0
    metrics = {name: _metric(values[name], unit) for name, unit, _ in LAYER_METRICS}
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_path)
    report = {
        **tally.summary(1 + len(walls)),
        "traced_wall_s": traced_wall,
        "untraced_walls_s": walls,
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return tally, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    _require_source()
    if args.setup_probe:
        _setup_probe(args)
    OUT_DIR.mkdir(exist_ok=True)
    tally, metrics, report = (traced_run if args.trace else timed_run)(args)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": tally.correct,
        **report,
        "metrics": metrics,
        "provenance": _provenance(args.seed),
        "limits": LIMITS,
    }
    text = json.dumps(report, indent=2)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(text + "\n")
    print(text)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
