"""Model core: backward recursion, equilibrium construction, verification."""

from __future__ import annotations

import numpy as np
import pytest

from kyle_stability import (
    BCoefficients,
    Equilibrium,
    ModelParams,
    equilibrium_from_params,
    implied_b,
    insider_response,
    market_maker_response,
    solve_b_recursion,
    verify_kyle_recursions,
)
from kyle_stability.model import _backward_step

from conftest import BUMPED_BETA_N3, EQ_BETA_N3, bumped_params_n3, random_params


def _oracle_backstep(s: float, tol: float = 1e-14) -> float:
    """Independent bisection oracle for s*(1-a)^2*(1+a) = a on (0, 1)."""

    def gap(a: float) -> float:
        return s * (1.0 - a) ** 2 * (1.0 + a) - a

    lo, hi = 1e-16, 1.0 - 1e-16
    while hi - lo > tol * 0.25:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_b_single_round_is_one():
    coeffs = solve_b_recursion(1)
    assert coeffs.b.tolist() == [1.0]


def test_b_two_rounds_matches_bisection_oracle():
    # For b_2 = 1 the step cubic reduces to a^3 - a^2 - 2a + 1 = 0.
    a = _oracle_backstep(1.0)
    assert abs((a**3 - a**2 - 2.0 * a + 1.0)) < 1e-13
    coeffs = solve_b_recursion(2)
    assert coeffs.b[1] == 1.0
    assert abs(coeffs.b[0] - np.sqrt(a)) < 1e-13
    assert round(float(coeffs.b[0]), 3) == 0.667


def test_b_three_rounds_two_oracle_steps():
    a2 = _oracle_backstep(1.0)
    a1 = _oracle_backstep(a2)
    coeffs = solve_b_recursion(3)
    assert np.allclose(coeffs.b, [np.sqrt(a1), np.sqrt(a2), 1.0], rtol=0, atol=1e-13)


def test_b_recursion_residuals_to_n25():
    coeffs = solve_b_recursion(25)
    b = coeffs.b
    assert b[-1] == 1.0
    assert np.all((b[:-1] > 0) & (b[:-1] < 1))
    for n in range(1, 25):
        a = b[n - 1] ** 2
        s = b[n] ** 2
        assert abs(s * (1.0 - a) ** 2 * (1.0 + a) - a) <= 1e-14


def test_backward_step_matches_oracle_over_24_chained_steps():
    s = 1.0
    for _ in range(24):
        root = _backward_step(s)
        assert abs(root - _oracle_backstep(s)) <= 1e-13
        s = root


def test_solve_b_recursion_validation():
    with pytest.raises(ValueError):
        solve_b_recursion(0)
    with pytest.raises(ValueError):
        solve_b_recursion(2.5)


@pytest.mark.parametrize(
    "delta,sigma_u,sigma0",
    [(1.0, 1.0, 1.0), (4.0, 2.0, 0.25)],
)
def test_equilibrium_single_round(delta, sigma_u, sigma0):
    params = ModelParams(n_periods=1, delta=delta, sigma_u=sigma_u, sigma0=sigma0)
    eq = equilibrium_from_params(params)
    expected = sigma_u / np.sqrt(delta * sigma0)
    assert abs(eq.beta[0] - expected) < 1e-14
    assert eq.alpha[0] == 0.0


def test_equilibrium_three_round_digits(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    assert np.max(np.abs(eq.beta - EQ_BETA_N3)) < 1e-12


def test_equilibrium_bumped_variance_digits():
    eq = equilibrium_from_params(bumped_params_n3())
    assert np.max(np.abs(eq.beta - BUMPED_BETA_N3)) < 1e-12


def test_equilibrium_full_paths_n3(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    lam = [0.4173065524033564, 0.4065257206453031, 0.3662670183030138]
    alpha = [0.8511410674478457, 0.6825621404796385, 0.0]
    sigma_sq = [1.0, 0.7754183024441637, 0.5366061147863209, 0.2683030573931605]
    assert np.allclose(eq.lam, lam, rtol=0, atol=1e-12)
    assert np.allclose(eq.alpha, alpha, rtol=0, atol=1e-12)
    assert np.allclose(eq.sigma_sq, sigma_sq, rtol=0, atol=1e-12)


def test_equilibrium_accepts_precomputed_coefficients(unit_params_n3):
    coeffs = solve_b_recursion(3)
    eq = equilibrium_from_params(unit_params_n3, coeffs)
    assert np.max(np.abs(eq.beta - EQ_BETA_N3)) < 1e-12
    with pytest.raises(ValueError):
        equilibrium_from_params(unit_params_n3, solve_b_recursion(2))


def test_verify_construction_passes():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 7, 12):
        params = random_params(rng, n)
        eq = equilibrium_from_params(params)
        report = verify_kyle_recursions(eq, params, tol=1e-10)
        assert report
        assert report.second_order_ok
        assert max(report.residuals.values()) <= 1e-10


@pytest.mark.parametrize(
    "scales",
    [
        {"sigma_u": 1e6},
        {"sigma_u": 1e-8},
        {"sigma_u": 1e8},
        {"sigma0": 1e-8},
        {"sigma0": 1e8},
        {"sigma0": 1e6},
        {"delta": 1e-8},
        {"delta": 1e8},
        {"delta": 1e6},
    ],
)
def test_verify_construction_passes_at_extreme_scales(scales):
    # Residuals are judged relative to the quantity each equation defines,
    # so a correct equilibrium passes at any parameter scale.
    for n in (1, 3, 8):
        params = ModelParams(n_periods=n, **scales)
        report = verify_kyle_recursions(equilibrium_from_params(params), params)
        assert report, (n, report.residuals)


def test_verify_rejects_doubled_beta(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    beta = eq.beta.copy()
    beta[0] *= 2.0
    tampered = Equilibrium(
        beta=beta, lam=eq.lam, alpha=eq.alpha, sigma_sq=eq.sigma_sq
    )
    report = verify_kyle_recursions(tampered, unit_params_n3, tol=1e-10)
    assert not report
    assert report.residuals["lambda"] > 1e-10


def test_verify_rejects_nan_entries(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    names = ("beta", "lam", "alpha", "sigma_sq")
    for field in ("sigma_sq", "lam"):
        paths = {name: getattr(eq, name).copy() for name in names}
        paths[field][1] = np.nan
        assert not verify_kyle_recursions(Equilibrium(**paths), unit_params_n3)


def test_verify_rebuilt_from_reference_digits(unit_params_n3):
    # Rebuild lambda and the variance path forward from the frozen strategy
    # digits, the curvature path backward, then check all recursions.
    maker = market_maker_response(EQ_BETA_N3, unit_params_n3)
    inner = insider_response(maker.lam, unit_params_n3)
    rebuilt = Equilibrium(
        beta=EQ_BETA_N3,
        lam=maker.lam,
        alpha=inner.alpha[1:],
        sigma_sq=maker.sigma_sq,
    )
    assert verify_kyle_recursions(rebuilt, unit_params_n3, tol=1e-10)


def test_verify_dimension_mismatch(unit_params_n3):
    eq = equilibrium_from_params(ModelParams(n_periods=2))
    with pytest.raises(ValueError):
        verify_kyle_recursions(eq, unit_params_n3)


def test_verify_tol_validation(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    with pytest.raises(ValueError):
        verify_kyle_recursions(eq, unit_params_n3, tol=0.0)


def test_parameter_invariance_of_implied_b():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 10):
        first = random_params(rng, n)
        second = random_params(rng, n)
        b_first = implied_b(equilibrium_from_params(first), first)
        b_second = implied_b(equilibrium_from_params(second), second)
        assert np.max(np.abs(b_first - b_second)) <= 1e-12
        assert np.max(np.abs(b_first - solve_b_recursion(n).b)) <= 1e-12


def test_sigma_u_scaling_law():
    rng = np.random.default_rng(11)
    base = ModelParams(n_periods=4, delta=0.7, sigma_u=1.3, sigma0=2.1)
    eq_base = equilibrium_from_params(base)
    for _ in range(5):
        c = float(rng.uniform(0.1, 10.0))
        scaled = ModelParams(
            n_periods=4, delta=0.7, sigma_u=1.3 * c, sigma0=2.1
        )
        eq_scaled = equilibrium_from_params(scaled)
        assert np.allclose(eq_scaled.beta, c * eq_base.beta, rtol=1e-12, atol=0)
        assert np.allclose(
            eq_scaled.sigma_sq, eq_base.sigma_sq, rtol=1e-12, atol=0
        )


def test_monotone_variance_and_product_formula():
    rng = np.random.default_rng(13)
    params = random_params(rng, 8)
    eq = equilibrium_from_params(params)
    sig = eq.sigma_sq
    assert np.all(np.diff(sig) < 0)
    assert sig[-1] > 0
    b = solve_b_recursion(8).b
    product = params.sigma0 * float(np.prod(1.0 / (1.0 + b**2)))
    assert abs(sig[-1] - product) <= 1e-12 * product


def test_second_order_condition_holds():
    rng = np.random.default_rng(17)
    for n in (1, 3, 6):
        params = random_params(rng, n)
        eq = equilibrium_from_params(params)
        assert np.all(eq.alpha * eq.lam < 1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_periods": 0},
        {"n_periods": -3},
        {"n_periods": 2.5},
        {"n_periods": 2, "delta": 0.0},
        {"n_periods": 2, "sigma_u": -1.0},
        {"n_periods": 2, "sigma0": float("nan")},
        {"n_periods": 2, "delta": float("inf")},
        {"n_periods": True},
    ],
)
def test_params_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_coefficient_type_invariants():
    with pytest.raises(ValueError):
        BCoefficients(b=np.array([0.5, 0.9]))  # terminal entry not 1
    with pytest.raises(ValueError):
        BCoefficients(b=np.array([1.2, 1.0]))  # interior entry outside (0, 1)
    with pytest.raises(ValueError):
        BCoefficients(b=np.array([]))


def test_equilibrium_arrays_read_only(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    with pytest.raises(ValueError):
        eq.beta[0] = 2.0
    with pytest.raises(ValueError):
        eq.sigma_sq[0] = 2.0
    assert eq.n_periods == 3


def test_equilibrium_length_mismatch_rejected(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    with pytest.raises(ValueError):
        Equilibrium(
            beta=eq.beta[:2], lam=eq.lam, alpha=eq.alpha, sigma_sq=eq.sigma_sq
        )
