"""Tests of the benchmark itself: generator, checks, tracer and contract.

Run with ``python -m pytest perfbench/tests``.
"""

import json
from pathlib import Path

import pytest

import kyle_stability as ks
from perfbench import run, tracer, workloads as wl

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def runner(tmp_path):
    return wl.Runner(tmp_path)


def _first(units, **match):
    return next(u for u in units if all(u.get(k) == v for k, v in match.items()))


# ------------------------------------------------------------- generator


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert wl.generate(workload, 7) == wl.generate(workload, 7)
    assert wl.generate(workload, 7) != wl.generate(workload, 8)


def test_generator_keeps_the_workload_shape_across_seeds():
    def shape(unit):
        if unit["kind"] == "cli":
            return ("cli", "invalid" if unit.get("invalid") else unit["command"])
        return (unit["kind"], unit["n"])

    for workload in wl.WORKLOADS:
        shapes = {tuple(map(shape, wl.generate(workload, s))) for s in range(3)}
        assert len(shapes) == 1, workload


def test_sweep_spans_the_stated_scales_and_horizons():
    units = wl.generate("stability-sweep", 0)
    assert {u["n"] for u in units} == set(wl.SWEEP_HORIZONS)
    params = [u["params"] for u in units]
    scales = [p[k] for p in params for k in ("delta", "sigma0")]
    scales += [p["sigma_u"] / (p["sigma0"] * p["delta"]) ** 0.5 for p in params]
    assert min(scales) < 0.15 and max(scales) > 7.0
    assert all(0.1 <= v <= 10.0 for v in scales)


# ---------------------------------------------------------------- checks


def test_sweep_check_accepts_the_paper_and_rejects_a_wrong_derivative(runner):
    unit = {"kind": "sweep", "n": 3, "params": {"delta": 1.0, "sigma_u": 1.0, "sigma0": 1.0}}
    out, _ = runner.run(unit, 0)
    assert wl.check_unit(unit, out).ok
    assert not wl.check_unit(unit, dict(out, pinned=[0.0, -0.9, -2.07611])).ok
    assert not wl.check_unit(unit, dict(out, insider_class="attractive")).ok
    assert not wl.check_unit(unit, dict(out, maker_rho=0.5)).ok


def test_known_defect_probe_reaches_extreme_scales_and_passes_the_cap(runner):
    units = wl.known_defect_units(0)
    assert units == wl.known_defect_units(0)
    scales = [v for u in units for v in u["params"].values()]
    assert min(scales) < 1e-6 and max(scales) > 1e6
    past_cap = _first(units, n=80)
    out, _ = runner.run(past_cap, 0)
    assert "error" in out and not wl.check_unit(past_cap, out).ok


def test_battery_checks_reject_wrong_results(runner):
    units = wl.generate("perturbation-battery", 0)
    row = _first(units, kind="battery_row", n=3, coord=3)
    out, _ = runner.run(row, 0)
    assert wl.check_unit(row, out).ok
    assert not wl.check_unit(row, dict(out, returned=False)).ok

    variance = _first(units, kind="variance")
    out, _ = runner.run(variance, 0)
    assert wl.check_unit(variance, out).ok
    shifted = [out["limit"][0] + 1e-9, *out["limit"][1:]]
    assert not wl.check_unit(variance, dict(out, limit=shifted)).ok

    start = _first(units, kind="iterate", operator="maker")
    out, _ = runner.run(start, 0)
    assert wl.check_unit(start, out).ok
    assert not wl.check_unit(start, dict(out, verdict="max_iter", limit=None)).ok
    eq = ks.equilibrium_from_params(wl._params(start))
    back = dict(out, verdict="converged", limit=eq.lam.tolist())
    assert not wl.check_unit(start, back).ok


def test_monte_carlo_checks_reject_wrong_results(runner):
    units = wl.generate("monte-carlo", 0)
    eq_unit = dict(_first(units, case="equilibrium", n=3), paths=20_000)
    out, _ = runner.run(eq_unit, 0)
    assert wl.check_unit(eq_unit, out).ok
    assert not wl.check_unit(eq_unit, dict(out, t_max=eq_unit["z_bound"] + 0.1)).ok
    biased = dict(out, terminal_variance=out["terminal_variance"] * 1.5)
    assert not wl.check_unit(eq_unit, biased).ok

    half = dict(_first(units, case="half"), paths=20_000)
    out, _ = runner.run(half, 0)
    assert wl.check_unit(half, out).ok
    expected = ks.expected_equilibrium_profit(wl._params(half))
    assert not wl.check_unit(half, dict(out, mean_profit=expected)).ok


def test_cli_checks_reject_wrong_results(runner):
    units = wl.generate("cli-fresh", 0)
    unit = _first(units, command="jacobian", format="json")
    out, _ = runner.run(unit, 0)
    assert wl.check_unit(unit, out).ok
    assert not wl.check_unit(unit, dict(out, exit=1)).ok
    wrong_schema = out["stdout"].replace(wl.SCHEMA, "kyle-stability/0")
    assert not wl.check_unit(unit, dict(out, stdout=wrong_schema)).ok
    assert not wl.check_unit(unit, dict(out, stdout="not json")).ok

    invalid = _first(units, invalid=True)
    out, _ = runner.run(invalid, 0)
    assert out["exit"] == 2 and wl.check_unit(invalid, out).ok
    assert not wl.check_unit(invalid, dict(out, exit=0)).ok

    csv_unit = _first(units, command="tables", format="csv")
    assert not wl.check_unit(csv_unit, {"exit": 0, "stdout": ""}).ok


# ---------------------------------------------------------------- tracer


def test_tracer_changes_no_output_and_restores_the_package(tmp_path):
    units = wl.generate("stability-sweep", 0)[:3] + wl.generate("perturbation-battery", 0)[-3:]
    plain = wl.Runner(tmp_path)
    before = [wl.canonical(plain.run(u, i)[0]) for i, u in enumerate(units)]
    originals = (ks.insider_policy_step, ks.stability.jacobian_fd, ks.experiments.iterate)
    spans = tracer.Tracer()
    spans.install()
    try:
        assert ks.insider_policy_step is not originals[0]
        traced = [wl.canonical(plain.run(u, i)[0]) for i, u in enumerate(units)]
    finally:
        spans.uninstall()
    assert traced == before
    assert (ks.insider_policy_step, ks.stability.jacobian_fd, ks.experiments.iterate) == originals
    assert len(spans.start) > 0


def test_tracer_counts_jacobian_evaluations_and_self_time():
    spans = tracer.Tracer()
    spans.install()
    try:
        params = ks.ModelParams(n_periods=3)
        eq = ks.equilibrium_from_params(params)
        ks.classify_fixed_point(ks.insider_policy_step, eq.beta, params)
    finally:
        spans.uninstall()
    metrics = spans.layer_metrics([])
    assert metrics["stability.jacobian_fd.calls"] == 1
    assert metrics["stability.evals_per_jacobian"] == 6
    assert metrics["operators.insider_policy_step.calls"] == 7
    assert metrics["model.solve_b_recursion.repeat_share"] == 0.0
    assert 0.0 < metrics["operators.insider_policy_step.self_s"]


def test_importtime_parser_charges_top_level_package_imports():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        150000 |     numpy",
            "import time:        50 |        350000 |       scipy.special",
            "import time:       200 |        600000 |   kyle_stability",
            "import time:        10 |         40000 | kyle_stability",
            "import time:        10 |          5000 | kyle_stability.cli",
        ]
    )
    got = tracer.parse_importtime(stderr)
    assert got["import_s"] == pytest.approx(0.045)
    assert got["import_numpy_s"] == pytest.approx(0.15)
    assert got["import_scipy_special_s"] == pytest.approx(0.35)


# -------------------------------------------------------------- contract


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in tracer.LAYER_METRICS]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (unit, better) for _, unit, better in tracer.LAYER_METRICS
    ]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "unit_p50_ms", "unit_tail_ms", "peak_rss_mb",
    }


def test_tail_has_exactly_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    value, percentile = run._tail(samples)
    assert sum(s > value for s in samples) == run.TAIL_BEYOND
    assert percentile == pytest.approx(90.0)
