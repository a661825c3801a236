"""End-to-end experiment tables and the variance-perturbation run."""

from __future__ import annotations

import numpy as np
import pytest

from kyle_stability import (
    ModelParams,
    NotConvergedError,
    eigenvalue_table,
    key_results_table,
    perturbation_battery,
    pinned_coordinate_derivative,
    variance_perturbation_experiment,
)

from conftest import EIG_EQ_N3, EIG_SECOND_N3, SECOND_FP_N3


def test_key_results_table_verdicts():
    rows = key_results_table()
    assert [row["n_periods"] for row in rows] == list(range(1, 9))
    by_n = {row["n_periods"]: row for row in rows}
    assert by_n[1]["classification"] == "super_attractive"
    assert by_n[1]["conclusion"] == "stable"
    assert by_n[2]["classification"] == "attractive"
    assert by_n[2]["conclusion"] == "stable"
    for n in range(3, 9):
        assert by_n[n]["classification"] == "repellent"
        assert by_n[n]["conclusion"] == "not stable"
    # Spectral radius grows roughly linearly with the horizon.
    radii = [by_n[n]["spectral_radius"] for n in range(3, 9)]
    assert all(b > a for a, b in zip(radii, radii[1:]))
    assert abs(by_n[2]["spectral_radius"] - 0.981214) <= 1e-5
    assert abs(by_n[3]["spectral_radius"] - 2.160954) <= 1e-5


def test_eigenvalue_table_reference(unit_params_n3):
    table = eigenvalue_table(unit_params_n3)
    got_eq = np.asarray(table["equilibrium"]["eigenvalues"])
    got_second = np.asarray(table["second_fixed_point"]["eigenvalues"])
    assert np.max(np.abs(got_eq - EIG_EQ_N3)) <= 1e-4
    assert np.max(np.abs(got_second - EIG_SECOND_N3)) <= 1e-4
    assert table["equilibrium"]["classification"] == "repellent"
    assert table["second_fixed_point"]["classification"] == "attractive"


@pytest.mark.parametrize("setting", [{"max_iter": 1}, {"blowup": 1.0}])
def test_eigenvalue_table_passes_iteration_settings(unit_params_n3, setting):
    with pytest.raises(NotConvergedError):
        eigenvalue_table(unit_params_n3, **setting)


def test_variance_perturbation_experiment_digits():
    out = variance_perturbation_experiment()
    assert abs(out["start"][0] - 0.5381695932490208) <= 1e-12
    assert abs(out["equilibrium"][0] - 0.5381695932221123) <= 1e-12
    assert out["verdict"] == "converged"
    assert abs(out["limit"][1] - (-2.157491457005712)) <= 1e-10
    assert np.max(np.abs(np.asarray(out["limit"]) - SECOND_FP_N3)) <= 1e-10
    assert out["fixed_point_residual"] <= 1e-10
    assert out["distance_from_equilibrium"] > 1.0
    assert out["iterations_used"] > 10


def test_perturbation_battery_split():
    # The exact oracle: a pinned coordinate returns to the equilibrium
    # exactly where its map's derivative there is below 1 in modulus.
    for n in range(3, 9):
        params = ModelParams(n_periods=n)
        rows = perturbation_battery(params, max_iter=1_200)
        assert [row["coord"] for row in rows] == list(range(1, n + 1))
        for row in rows:
            slope = pinned_coordinate_derivative(row["coord"], params)
            assert row["returned"] is (abs(slope) < 1.0), (n, row["coord"], slope)
            if row["returned"]:
                assert row["verdict"] == "converged"
                assert row["distance_from_equilibrium"] <= 1e-10
        if n == 4:
            returned = {row["coord"]: row["returned"] for row in rows}
            assert returned == {1: False, 2: False, 3: True, 4: True}


def test_perturbation_battery_golden_rows():
    # One row that drifts to the iteration cap and one that returns; the
    # returning limit is an exact repr captured from the numpy-scalar
    # operators, so any change to the per-round arithmetic shows here.
    rows = perturbation_battery(ModelParams(n_periods=4), coords=[1, 3], max_iter=1200)
    capped, returning = rows
    assert (capped["verdict"], capped["iterations_used"], capped["limit"]) == (
        "max_iter",
        1200,
        None,
    )
    assert returning["verdict"] == "converged"
    assert returning["iterations_used"] == 1098
    assert repr(returning["limit"]) == "0.8355273517666146"
    # Every row of N = 6: long runs through head and tail rounds of the
    # pinned step, on both sides of the coordinate.
    rows = perturbation_battery(ModelParams(n_periods=6), max_iter=1200)
    assert [(r["verdict"], r["iterations_used"], repr(r["limit"])) for r in rows] == [
        ("max_iter", 1200, "None"),
        ("converged", 80, "-2.1042139846464916"),
        ("max_iter", 1200, "None"),
        ("converged", 915, "-2.0329640616952895"),
        ("converged", 1094, "0.9685488877926829"),
        ("converged", 3, "1.7452647898836862"),
    ]


def test_perturbation_battery_coord_validation(unit_params_n3):
    with pytest.raises(ValueError):
        perturbation_battery(unit_params_n3, coords=[0])
    with pytest.raises(ValueError):
        perturbation_battery(unit_params_n3, coords=[4])
