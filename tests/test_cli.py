"""End-to-end command-line checks run in-process through ``main``."""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kyle_stability
from kyle_stability.cli import main
from kyle_stability.reports import loads_report

from conftest import (
    EIG_EQ_N3,
    EIG_SECOND_N3,
    EQ_BETA_N3,
    SECOND_FP_N3,
)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_equilibrium_json_digits(capsys):
    code, out, _ = _run(capsys, ["equilibrium", "--n", "3"])
    assert code == 0
    report = loads_report(out)
    assert report["schema"] == "kyle-stability/1"
    assert report["command"] == "equilibrium"
    assert report["inputs"]["n"] == 3
    beta = np.asarray(report["result"]["beta"])
    assert np.max(np.abs(beta - EQ_BETA_N3)) <= 1e-12
    assert report["result"]["recursion_check"]["ok"] is True


def test_equilibrium_solves_b_once_per_horizon(capsys, monkeypatch):
    import kyle_stability.model as model

    calls = []
    solve = model.solve_b_recursion
    monkeypatch.setattr(model, "solve_b_recursion", lambda n: calls.append(n) or solve(n))
    for _ in range(2):
        code, out, _ = _run(capsys, ["equilibrium", "--n", "37"])
        assert code == 0
    assert len(loads_report(out)["result"]["b"]) == 37
    assert len(calls) <= 1


def test_equilibrium_rejects_bad_round_count(capsys):
    code, out, err = _run(capsys, ["equilibrium", "--n", "0"])
    assert code == 2
    assert out == ""
    assert "error" in err


def test_iterate_converges_near_attractor(capsys):
    start = ",".join(repr(float(x) + 1e-4) for x in SECOND_FP_N3)
    code, out, _ = _run(
        capsys, ["iterate", "--n", "3", "--start", start, "--expect-converge"]
    )
    assert code == 0
    report = loads_report(out)
    limit = np.asarray(report["result"]["limit"])
    assert np.max(np.abs(limit - SECOND_FP_N3)) <= 1e-8
    assert report["result"]["verdict"] == "converged"


def test_iterate_exit_four_when_not_converged(capsys):
    code, out, _ = _run(
        capsys,
        [
            "iterate",
            "--n",
            "3",
            "--start",
            "2,2,2",
            "--max-iter",
            "2",
            "--expect-converge",
        ],
    )
    assert code == 4
    report = loads_report(out)
    assert report["result"]["verdict"] in ("max_iter", "diverged")


def test_iterate_exit_three_on_domain_exit(capsys):
    code, out, _ = _run(capsys, ["iterate", "--n", "3", "--start", "0,0,0"])
    assert code == 3
    report = loads_report(out)
    assert report["result"]["verdict"] == "left_domain"
    assert report["result"]["limit"] is None


def test_iterate_exit_three_when_maker_pass_overflows(capsys):
    # The insider's strategy against lambda = 1e-300 overflows the maker pass.
    code, out, _ = _run(
        capsys,
        ["iterate", "--operator", "maker", "--n", "1", "--sigma0", "1e10", "--start", "1e-300"],
    )
    assert code == 3
    result = loads_report(out)["result"]
    assert (result["verdict"], result["iterations_used"]) == ("left_domain", 1)
    # Against lambda = 1e-160 the strategy is about 5e159, whose square
    # overflows: the maker round prices at NaN, not at 0, which would read
    # as a converged limit outside the domain.
    code, out, _ = _run(capsys, ["iterate", "--operator", "maker", "--n", "1", "--start", "1e-160"])
    assert code == 3
    result = loads_report(out)["result"]
    assert (result["verdict"], result["limit"]) == ("left_domain", None)


def test_perturb_last_coordinate_returns(capsys):
    code, out, _ = _run(
        capsys,
        ["perturb", "--n", "4", "--coord", "last", "--delta", "1e-3", "--expect-converge"],
    )
    assert code == 0
    report = loads_report(out)
    rows = report["result"]
    assert len(rows) == 1
    assert rows[0]["coord"] == 4
    assert rows[0]["verdict"] == "converged-to-equilibrium"
    assert rows[0]["returned"] is True


def test_perturb_accepts_negative_exponent_delta(capsys):
    code, out, _ = _run(
        capsys, ["perturb", "--n", "3", "--delta", "-1e-3", "--expect-converge"]
    )
    assert code == 0
    report = loads_report(out)
    assert report["inputs"]["delta"] == -1e-3
    assert report["result"][0]["returned"] is True


@pytest.mark.parametrize("return_tol", ["-1", "nan"])
def test_perturb_rejects_bad_return_tol(capsys, return_tol):
    code, out, err = _run(capsys, ["perturb", "--n", "3", "--return-tol", return_tol])
    assert (code, out) == (2, "")
    assert "error: return_tol must be non-negative" in err


def test_iterate_accepts_vector_starting_with_negative_exponent(capsys):
    code, out, _ = _run(
        capsys, ["iterate", "--n", "3", "--start", "-1e-3,1,1", "--expect-converge"]
    )
    assert code == 0
    report = loads_report(out)
    assert report["inputs"]["start"] == [-1e-3, 1.0, 1.0]
    limit = np.asarray(report["result"]["limit"])
    assert np.max(np.abs(limit - SECOND_FP_N3)) <= 1e-8


def test_perturb_battery_exit_four(capsys):
    code, out, _ = _run(
        capsys, ["perturb", "--n", "4", "--battery", "--expect-converge"]
    )
    assert code == 4
    report = loads_report(out)
    returned = {row["coord"]: row["returned"] for row in report["result"]}
    assert returned == {1: False, 2: False, 3: True, 4: True}


@pytest.mark.parametrize(
    "argv,message",
    [
        (["perturb", "--n", "3", "--battery", "--coord", "1"], "--coord has no effect with --battery"),
        (
            ["simulate", "--n", "2", "--paths", "1000", "--strategy", "1,1", "--strategy-scale", "0.5"],
            "--strategy-scale has no effect with --strategy",
        ),
        (
            ["tables", "--which", "eigenvalues", "--n", "3", "--expect-converge"],
            "--expect-converge has no effect with --which eigenvalues",
        ),
    ],
    ids=["perturb-battery-coord", "simulate-strategy-scale", "tables-eigenvalues-expect-converge"],
)
def test_flag_ignored_by_another_exits_two(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_ignored_flag_at_its_default_is_accepted(capsys):
    code, out, _ = _run(capsys, ["perturb", "--n", "3", "--battery", "--coord", "last"])
    assert code == 0
    assert loads_report(out)["inputs"]["coord"] == "last"
    code, out, _ = _run(
        capsys,
        ["simulate", "--n", "2", "--paths", "1000", "--strategy", "1,1", "--strategy-scale", "1"],
    )
    assert code == 0
    assert loads_report(out)["inputs"]["strategy_scale"] == 1.0


def test_jacobian_default_point_matches_closed_form(capsys):
    code, out, _ = _run(capsys, ["jacobian", "--n", "2"])
    assert code == 0
    fd = np.asarray(loads_report(out)["result"]["jacobian"])
    code, out, _ = _run(capsys, ["jacobian", "--n", "2", "--closed-form"])
    assert code == 0
    closed = np.asarray(loads_report(out)["result"]["jacobian"])
    assert np.max(np.abs(fd - closed)) <= 1e-7


def test_jacobian_closed_form_any_n(capsys):
    code, out, _ = _run(capsys, ["jacobian", "--n", "5", "--closed-form"])
    assert code == 0
    result = loads_report(out)["result"]
    assert result["closed_form"] is True
    assert np.asarray(result["jacobian"]).shape == (5, 5)
    assert len(result["eigenvalues"]) == 5
    code, out, _ = _run(capsys, ["jacobian", "--n", "5"])
    fd = np.asarray(loads_report(out)["result"]["jacobian"])
    assert np.max(np.abs(fd - np.asarray(result["jacobian"]))) <= 1e-6


def test_jacobian_out_of_domain_exit_three(capsys):
    code, out, err = _run(capsys, ["jacobian", "--n", "2", "--point", "0,0"])
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("operator", ["insider", "maker"])
def test_jacobian_stencil_overflow_exits_two(capsys, operator):
    argv = ["jacobian", "--n", "3", "--operator", operator, "--point", "1.7976931348623157e308,1,1"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert "must be finite" in err


def test_jacobian_step_that_underflows_to_zero_falls_back(capsys):
    # cbrt(eps) * 5e-324 underflows to 0; that column steps by cbrt(eps)
    # times the largest entry instead of dividing by a zero width.
    argv = [
        "jacobian", "--n", "2", "--sigma-u", "3.419166279285777e-66",
        "--delta", "0.0014044835108487645", "--sigma0", "108.33008657788216",
        "--point", "5.847736420071802e-66,5e-324",
    ]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    jac = np.asarray(loads_report(out)["result"]["jacobian"])
    assert jac.shape == (2, 2) and np.isfinite(jac).all()


def test_jacobian_closed_form_maker_rejected(capsys):
    code, _, err = _run(
        capsys, ["jacobian", "--n", "2", "--operator", "maker", "--closed-form"]
    )
    assert code == 2
    assert "insider" in err


def test_stability_rejects_non_fixed_point(capsys):
    code, _, err = _run(capsys, ["stability", "--n", "2", "--point", "1,1"])
    assert code == 2
    assert "error" in err


def test_stability_equilibrium_classification(capsys):
    code, out, _ = _run(capsys, ["stability", "--n", "3"])
    assert code == 0
    result = loads_report(out)["result"]
    assert result["classification"] == "repellent"
    assert abs(result["spectral_radius"] - 2.160954) <= 1e-4


def test_simulate_json_and_csv(capsys):
    argv = ["simulate", "--n", "3", "--paths", "5000", "--seed", "7"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    result = loads_report(out)["result"]
    assert result["n_paths"] == 5000
    assert np.isfinite(result["mean_profit"])
    assert "terminal_variance_check" in result
    code, out, _ = _run(capsys, argv + ["--format", "csv"])
    assert code == 0
    header = out.splitlines()[0]
    assert "mean_profit" in header
    assert "terminal_variance_check.ok" in header


def test_simulate_scaled_strategy_drops_check(capsys):
    code, out, _ = _run(
        capsys,
        ["simulate", "--n", "3", "--paths", "5000", "--seed", "7", "--strategy-scale", "0.5"],
    )
    assert code == 0
    result = loads_report(out)["result"]
    assert "terminal_variance_check" not in result


def test_tables_eigenvalues_reference(capsys):
    code, out, _ = _run(capsys, ["tables", "--which", "eigenvalues", "--n", "3"])
    assert code == 0
    result = loads_report(out)["result"]
    got_eq = np.asarray(result["equilibrium"]["eigenvalues"], dtype=complex)
    got_second = np.asarray(result["second_fixed_point"]["eigenvalues"], dtype=complex)
    assert np.max(np.abs(got_eq - EIG_EQ_N3)) <= 1e-4
    assert np.max(np.abs(got_second - EIG_SECOND_N3)) <= 1e-4


def test_tables_eigenvalues_exit_four_without_second_fixed_point(capsys):
    # At N=12 the variance-perturbation iteration diverges.
    code, out, err = _run(capsys, ["tables", "--which", "eigenvalues", "--n", "12"])
    assert code == 4
    assert out == ""
    assert err.startswith("error:") and "diverged" in err


def test_tables_eigenvalues_honours_iteration_flags(capsys):
    # One step cannot reach the second fixed point, and a zero bump is
    # rejected, so both flags reach the iteration.
    code, out, err = _run(capsys, ["tables", "--which", "eigenvalues", "--max-iter", "1"])
    assert (code, out) == (4, "")
    assert "max_iter" in err
    code, out, err = _run(
        capsys, ["tables", "--which", "eigenvalues", "--variance-bump", "0"]
    )
    assert (code, out) == (2, "")
    assert "variance_bump" in err


def test_tables_key_results_csv(capsys):
    code, out, _ = _run(capsys, ["tables", "--which", "key-results", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert "n_periods" in lines[0]
    assert "classification" in lines[0]
    assert "spectral_radius" in lines[0]


def test_tables_key_results_honours_model_flags(capsys):
    code, out, _ = _run(
        capsys,
        ["tables", "--which", "key-results", "--n", "2", "--sigma-u", "5", "--format", "csv"],
    )
    assert code == 0
    header, *rows = [line.split(",") for line in out.strip().splitlines()]
    cells = [dict(zip(header, row)) for row in rows]
    assert [c["n_periods"] for c in cells] == ["1", "2"]
    assert [c["classification"] for c in cells] == ["super_attractive", "attractive"]
    code, out, _ = _run(capsys, ["tables", "--which", "key-results", "--n", "2", "--sigma-u", "5"])
    inputs = loads_report(out)["inputs"]
    assert inputs["n"] == 2 and inputs["sigma_u"] == 5.0


@pytest.mark.parametrize(
    "flag",
    [
        ["--tol", "1e-9"],
        ["--max-iter", "5"],
        ["--blowup", "10"],
        ["--variance-bump", "1e-6"],
        ["--expect-converge"],
    ],
    ids=lambda flag: flag[0],
)
def test_tables_key_results_rejects_iteration_flags(capsys, flag):
    code, out, err = _run(capsys, ["tables", "--which", "key-results", "--n", "2", *flag])
    assert code == 2
    assert out == ""
    assert f"{flag[0]} has no effect with --which key-results" in err


def test_tables_perturbation_limit(capsys):
    code, out, _ = _run(
        capsys, ["tables", "--which", "perturbation-limit", "--expect-converge"]
    )
    assert code == 0
    result = loads_report(out)["result"]
    assert result["verdict"] == "converged"
    assert np.max(np.abs(np.asarray(result["limit"]) - SECOND_FP_N3)) <= 1e-10


def test_tables_perturbation_limit_exit_three_on_domain_exit(capsys, monkeypatch):
    from kyle_stability import experiments

    with monkeypatch.context() as patch:
        patch.setattr(
            experiments, "variance_perturbation_experiment", lambda *a, **k: {"verdict": "left_domain"}
        )
        code, out, _ = _run(capsys, ["tables", "--which", "perturbation-limit"])
        assert (code, loads_report(out)["result"]) == (3, {"verdict": "left_domain"})
    # The operators square sigma_u, which underflows here.
    code, out, _ = _run(
        capsys, ["tables", "--which", "perturbation-limit", "--n", "3", "--sigma-u", "1e-200"]
    )
    assert code == 3
    assert loads_report(out)["result"]["verdict"] == "left_domain"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, ["equilibrium", "--n", "2", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    report = loads_report(target.read_text(encoding="utf-8"))
    assert report["command"] == "equilibrium"
    assert len(report["result"]["beta"]) == 2


@pytest.mark.parametrize("where", ["missing-dir/report.json", "."], ids=["no-dir", "a-dir"])
def test_unwritable_out_exits_two(tmp_path, capsys, where):
    # A missing directory or a directory as --out is an input error: one
    # error line and exit 2, not a traceback.
    target = tmp_path / where
    code, out, err = _run(capsys, ["equilibrium", "--n", "3", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write --out {target}: ")
    assert err.count("\n") == 1


def _cli_process(argv, **kwargs) -> subprocess.CompletedProcess:
    """``kyle-stability argv`` run in a fresh interpreter on this checkout."""
    src = str(Path(kyle_stability.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "kyle_stability.cli", *argv],
        env=env, stderr=subprocess.PIPE, text=True, timeout=120, **kwargs,
    )


def test_closed_stdout_exits_two():
    # Started with stdout closed (`>&-`), Python sets sys.stdout to None.
    proc = _cli_process(["equilibrium", "--n", "3"], preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: cannot write stdout: Bad file descriptor"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv", [["equilibrium", "--n", "3"], ["tables", "--which", "key-results"]]
)
def test_broken_stdout_pipe_exits_two(argv, fmt):
    # The reader is gone before the command writes (`| head -c 0`).  The
    # output fits the stdout buffer, which the interpreter flushes again at
    # exit: that flush must not fail a second time.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_process([*argv, "--format", fmt], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: cannot write stdout: Broken pipe"]


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["equilibrium", "--bogus"])
    assert excinfo.value.code == 2


def test_json_is_strict_with_nonfinite_payload(capsys):
    # A left-domain trace embeds inf iterates; the JSON must stay strict.
    code, out, _ = _run(capsys, ["iterate", "--n", "3", "--start", "0,0,0"])
    assert code == 3
    json.loads(out)
    assert "Infinity" not in out


# One call per command, kept small: 7 commands x 3 parameters x 11 scales.
_SCALE_GRID_COMMANDS = {
    "equilibrium": [],
    "iterate": ["--start", "1,1,1", "--max-iter", "50"],
    "jacobian": [],
    "stability": [],
    "perturb": ["--max-iter", "50"],
    "simulate": ["--paths", "100"],
    "tables": ["--which", "key-results"],
}


# Joint corners: two or three parameters at extreme scales at once.  They
# drive s = sigma_u / sqrt(sigma0 delta) and L = sqrt(sigma0 / delta) /
# sigma_u above and below the normal floats.
_JOINT_SCALES = (1e-300, 1e150)


@pytest.mark.parametrize(
    "flag",
    ["--sigma-u", "--sigma0", "--delta", "--sigma-u,--delta", "--sigma-u,--sigma0",
     "--sigma0,--delta", "--sigma-u,--sigma0,--delta"],
)
def test_parameter_scale_grid_never_crashes(capsys, flag):
    # Every scale gets an answer or a documented exit code; an uncaught
    # exception (exit 1 from the console script) fails the test, and so
    # does a non-finite equilibrium strategy.
    flags = flag.split(",")
    if len(flags) == 1:
        points = [(10.0**e,) for e in range(-300, 301, 60)]
    else:
        points = itertools.product(_JOINT_SCALES, repeat=len(flags))
    for point in points:
        for command, extra in _SCALE_GRID_COMMANDS.items():
            scales = []
            for name, value in zip(flags, point):
                name = "--dt" if (command, name) == ("perturb", "--delta") else name
                scales += [name, repr(value)]
            code, out, _ = _run(capsys, [command, "--n", "3", *scales, *extra])
            assert code in (0, 2, 3, 4), (command, scales)
            if command == "equilibrium" and code == 0:
                beta = np.asarray(loads_report(out)["result"]["beta"])
                assert np.all(np.isfinite(beta)) and np.all(beta > 0.0), scales


def test_scales_outside_the_normal_floats_exit_two(capsys):
    # L = sqrt(sigma0 / delta) / sigma_u overflows in the first set, its
    # denominator underflowing to 0; s = sigma_u / sqrt(sigma0 delta)
    # overflows in the second.
    for scales in (["--sigma-u", "1e-300", "--delta", "1e-300"],
                   ["--sigma-u", "1e150", "--sigma0", "1e-300", "--delta", "1e-300"]):
        for argv in (["equilibrium"], ["stability"], ["simulate", "--paths", "1000"],
                     ["jacobian", "--closed-form"], ["tables", "--which", "key-results"]):
            code, out, err = _run(capsys, [*argv, "--n", "3", *scales])
            assert (code, out) == (2, ""), (argv, scales)
            assert err == (
                "error: sigma_u / sqrt(sigma0 delta) and sqrt(sigma0 / delta) / sigma_u"
                " must lie in [2.225e-308, 1.798e+308], the normal floats\n"
            )


def test_sigma_u_bound(capsys):
    code, out, err = _run(capsys, ["equilibrium", "--n", "3", "--sigma-u", "1e160"])
    assert (code, out) == (2, "")
    assert "error: sigma_u must be at most 6.704e+153 (sigma_u**2 <= float max / 4)" in err
    # Just inside the bound every command answers.
    inside = ["--n", "3", "--sigma-u", "6.70e153"]
    code, out, _ = _run(capsys, ["equilibrium", *inside])
    result = loads_report(out)["result"]
    assert code == 0 and result["recursion_check"]["ok"] is True
    assert np.all(np.isfinite(result["beta"]))
    for argv in (["stability"], ["perturb"], ["tables", "--which", "key-results"],
                 ["jacobian", "--closed-form"]):
        assert _run(capsys, [*argv, *inside])[0] == 0, argv


def test_simulate_rejects_overflowing_moments(capsys):
    # At sigma_u = 1e153 the chunk Gram matrices overflow; 1e152 is fine.
    argv = ["simulate", "--n", "3", "--paths", "1000", "--sigma-u"]
    code, out, err = _run(capsys, [*argv, "1e153"])
    assert (code, out) == (2, "")
    assert "error: path moments overflow float range" in err
    code, out, _ = _run(capsys, [*argv, "1e152"])
    result = loads_report(out)["result"]
    assert code == 0
    for regression in result["efficiency"]:
        assert np.all(np.isfinite(regression["coef"]))
    assert np.isfinite(result["mean_profit"])


def test_simulate_overflow_prints_one_error_line():
    # The path coefficients overflow, and the profits in the worker threads;
    # numpy's floating-point warnings would print before the error line
    # unless silenced there.
    argv = ["simulate", "--n", "3", "--paths", "1000", "--strategy", "1e200,1,1"]
    proc = _cli_process(argv, stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        "error: path moments overflow float range: parameters too large to simulate"
    ]


def test_simulate_names_an_overflowing_regression_covariance(capsys, recwarn):
    # sigma0 = 1e150 with delta = 1e-300 puts the efficiency regressions'
    # covariance past float range; the command once printed an infinite
    # standard error at exit 0, after a numpy RuntimeWarning.
    argv = ["simulate", "--n", "3", "--paths", "100", "--sigma0", "1e150", "--delta", "1e-300"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: regression covariance overflows float range: parameter scales too far apart to simulate"
    ]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_simulate_names_underflowing_moments(capsys):
    # At sigma_u = 1e-200 the order-flow moments underflow to 0.
    code, out, err = _run(capsys, ["simulate", "--n", "3", "--paths", "100", "--sigma-u", "1e-200"])
    assert (code, out) == (2, "")
    assert "error: path moments underflow float range: parameters too small to simulate" in err


@pytest.mark.parametrize(
    "argv,sigma_u",
    [
        (["stability", "--n", "3"], "1e-200"),
        (["stability", "--n", "3", "--operator", "maker"], "1e-200"),
        (["tables", "--which", "key-results", "--n", "4"], "1e-200"),
        (["jacobian", "--n", "5", "--closed-form"], "1e-250"),
    ],
)
def test_stability_at_tiny_noise_matches_unit_noise(capsys, argv, sigma_u):
    # The operators run in unit parameters, so the verdicts and the spectrum
    # are those of sigma_u = 1.
    code, out, err = _run(capsys, [*argv, "--sigma-u", sigma_u])
    assert (code, err) == (0, "")
    result, unit = loads_report(out)["result"], loads_report(_run(capsys, argv)[1])["result"]
    if argv[0] == "tables":
        assert [row["classification"] for row in result] == [row["classification"] for row in unit]
        return
    assert result.get("classification") == unit.get("classification")
    assert np.allclose(result["eigenvalues"], unit["eigenvalues"], rtol=0.0, atol=1e-9)


def test_perturb_battery_at_tiny_noise_stays_in_the_domain(capsys):
    # The bump --delta is absolute, so it is scaled with sigma_u here.
    argv = ["perturb", "--n", "3", "--battery", "--sigma-u", "1e-200", "--delta", "1e-203"]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    rows = loads_report(out)["result"]
    assert [row["coord"] for row in rows] == [1, 2, 3]
    assert all(row["verdict"] != "left_domain" for row in rows)


def test_stability_rejects_a_moved_point_at_tiny_scale(capsys):
    # 1.1 times the equilibrium is not fixed at any scale: the fixed-point
    # test is relative, not absolute.
    argv = ["stability", "--n", "3", "--sigma-u", "1e-100", "--point", "5.9e-101,8.3e-101,1.5e-100"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert "map moves the point" in err


@pytest.mark.parametrize(
    "scales", [["--sigma-u", "1e-200"], ["--sigma0", "1e300", "--delta", "1e300"]]
)
def test_equilibrium_at_extreme_scales(capsys, scales):
    code, out, err = _run(capsys, ["equilibrium", "--n", "3", *scales])
    result = loads_report(out)["result"]
    assert (code, err) == (0, "")
    assert result["recursion_check"]["ok"] is True
    beta = np.asarray(result["beta"])
    assert np.all(np.isfinite(beta)) and np.all(beta > 0.0)
