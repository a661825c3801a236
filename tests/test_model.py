"""Model core: backward recursion, equilibrium construction, verification."""

from __future__ import annotations

import numpy as np
import pytest

from kyle_stability import (
    BCoefficients,
    Equilibrium,
    ModelParams,
    classify_fixed_point,
    equilibrium_from_params,
    implied_b,
    insider_policy_step,
    insider_response,
    jacobian_closed_form,
    maker_policy_step,
    market_maker_response,
    pinned_coordinate_derivative,
    solve_b_recursion,
    verify_kyle_recursions,
)
from kyle_stability.model import _backward_step, _scales, _unit_equilibrium

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
    for not_a_count in (True, 3.0):
        with pytest.raises(ValueError, match="n_periods must be an integer"):
            solve_b_recursion(not_a_count)
    assert solve_b_recursion(np.int64(3)).b.tobytes() == solve_b_recursion(3).b.tobytes()


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
    with pytest.raises(ValueError):
        verify_kyle_recursions(eq, unit_params_n3, tol=float("nan"))


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
        {"n_periods": 3.0},
        # sigma_u**2 must stay within float max / 4.
        {"n_periods": 2, "sigma_u": 1e160},
        {"n_periods": 2, "sigma_u": 6.71e153},
        # An int beyond float range.
        {"n_periods": 3, "sigma_u": 10**400},
    ],
)
def test_params_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)
    # A numpy count and a sigma_u just inside the bound pass.
    accepted = ModelParams(n_periods=np.int64(3), sigma_u=6.70e153)
    assert type(accepted.n_periods) is int and accepted.n_periods == 3


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


@pytest.mark.parametrize("n_periods", [1, 3, 8, 64])
def test_cached_b_coefficients_equal_a_fresh_solve(n_periods):
    cached = _unit_equilibrium(n_periods)
    assert _unit_equilibrium(n_periods) is cached
    assert not any(path.flags.writeable for path in cached)
    b, beta, lam, alpha, sigma_sq = cached
    assert b.tobytes() == solve_b_recursion(n_periods).b.tobytes()
    # Any parameter set is the unit solution times the three scales.
    params = ModelParams(n_periods=n_periods, delta=0.37, sigma_u=2.9, sigma0=0.013)
    s, scale_lam = _scales(params)
    eq = equilibrium_from_params(params)
    assert eq.beta.tobytes() == (s * beta).tobytes()
    assert eq.lam.tobytes() == (scale_lam * lam).tobytes()
    assert eq.alpha.tobytes() == (alpha / scale_lam).tobytes()
    assert eq.sigma_sq.tobytes() == (params.sigma0 * sigma_sq).tobytes()


# Each parameter over 1e-300 .. 1e300 with the others at 1, then sigma0 and
# delta together at both ends.  sigma_u above 6.704e153 stays rejected.
_SCALE_GRID = [
    *({name: 10.0**e} for name in ("sigma_u", "sigma0", "delta") for e in range(-300, 301, 60)),
    {"sigma0": 1e300, "delta": 1e300},
    {"sigma0": 1e-300, "delta": 1e-300},
]


@pytest.mark.parametrize("scales", _SCALE_GRID, ids=repr)
def test_equilibrium_at_every_parameter_scale(scales):
    for n in (1, 3, 8, 64):
        if scales.get("sigma_u", 1.0) > 6.704e153:
            with pytest.raises(ValueError, match="sigma_u must be at most"):
                ModelParams(n_periods=n, **scales)
            continue
        params = ModelParams(n_periods=n, **scales)
        eq = equilibrium_from_params(params)
        for name in ("beta", "lam", "alpha", "sigma_sq"):
            assert np.all(np.isfinite(getattr(eq, name))), (n, name)
        assert np.all(eq.beta > 0.0), n
        report = verify_kyle_recursions(eq, params)
        assert report.ok, (n, report.residuals)
        b = solve_b_recursion(n).b
        assert np.max(np.abs(implied_b(eq, params) - b) / b) <= 1e-14, n


@pytest.mark.parametrize(
    "scales", [scales for scales in _SCALE_GRID if scales.get("sigma_u", 1.0) <= 6.704e153],
    ids=repr,
)
def test_stability_is_the_same_at_every_parameter_scale(scales):
    # The operators run in unit parameters, so the stability verdicts, the
    # spectral radius and the exact derivatives do not move with the scale.
    for n in range(1, 9):
        unit, params = ModelParams(n_periods=n), ModelParams(n_periods=n, **scales)
        eq_unit, eq = equilibrium_from_params(unit), equilibrium_from_params(params)
        for operator, path in ((insider_policy_step, "beta"), (maker_policy_step, "lam")):
            want = classify_fixed_point(operator, getattr(eq_unit, path), unit)
            got = classify_fixed_point(operator, getattr(eq, path), params)
            assert got.classification == want.classification, (n, path)
            rho_gap = abs(got.spectral_radius - want.spectral_radius)
            assert rho_gap <= 1e-9 * max(1.0, want.spectral_radius), (n, path, rho_gap)
        jac = jacobian_closed_form(eq.beta, params)
        assert np.max(np.abs(jac - jacobian_closed_form(eq_unit.beta, unit))) <= 1e-12, n
        for coord in range(max(1, n - 2), n + 1):
            want = pinned_coordinate_derivative(coord, unit, eq_unit)
            assert abs(pinned_coordinate_derivative(coord, params, eq) - want) <= 1e-12, (n, coord)


def _mpmath_equilibrium(mpmath, params):
    """The equilibrium at 50 digits: b by bracketed root finding, then the
    rescaling recursion with the parameters as exact mpf values."""
    n = params.n_periods
    squares = [mpmath.mpf(1)]
    for _ in range(n - 1):
        s = squares[0]
        gap = lambda a, s=s: s * (1 - a) ** 2 * (1 + a) - a  # noqa: E731
        squares.insert(0, mpmath.findroot(gap, (mpmath.mpf(0), mpmath.mpf(1)), solver="anderson"))
    delta, sigma_u, sigma0 = (mpmath.mpf(v) for v in (params.delta, params.sigma_u, params.sigma0))
    var_u = sigma_u**2
    beta, lam, sigma_sq = [], [], [sigma0]
    for square in squares:
        prev = sigma_sq[-1]
        beta.append(mpmath.sqrt(square) * sigma_u / mpmath.sqrt(prev * delta))
        sigma_sq.append(prev * var_u / (beta[-1] ** 2 * prev * delta + var_u))
        lam.append(beta[-1] * sigma_sq[-1] / var_u)
    alpha = [mpmath.mpf(0)] * n
    for i in range(n - 1, 0, -1):
        alpha[i - 1] = 1 / (4 * lam[i] * (1 - alpha[i] * lam[i]))
    return {"beta": beta, "lam": lam, "alpha": alpha, "sigma_sq": sigma_sq}


def test_equilibrium_matches_an_mpmath_oracle():
    # 60 seeded parameter sets over 10^-3 .. 10^3: every entry of every path
    # within 1e-15 relative of a 50-digit solve.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2307)
    with mpmath.workdps(50):
        for n in (2, 3, 5, 8):
            for _ in range(15):
                delta, sigma_u, sigma0 = (float(10.0**e) for e in rng.uniform(-3.0, 3.0, 3))
                params = ModelParams(n_periods=n, delta=delta, sigma_u=sigma_u, sigma0=sigma0)
                eq = equilibrium_from_params(params)
                for name, exact in _mpmath_equilibrium(mpmath, params).items():
                    for got, want in zip(getattr(eq, name).tolist(), exact):
                        if want == 0:
                            assert got == 0.0, (n, name)
                            continue
                        error = float(abs((mpmath.mpf(got) - want) / want))
                        assert error <= 1e-15, (params, name, error)


def test_scales_are_the_direct_quotients_without_underflow():
    # Where sqrt(sigma0) sqrt(delta) and sqrt(delta) sigma_u are normal
    # floats, the scales carry the bits of the direct quotients.
    rng = np.random.default_rng(5)
    for logs in rng.uniform(-150.0, 150.0, size=(200, 3)):
        delta, sigma_u, sigma0 = 10.0 ** logs
        root_sigma0, root_delta = np.sqrt(sigma0), np.sqrt(delta)
        direct = (sigma_u / (root_sigma0 * root_delta), root_sigma0 / (root_delta * sigma_u))
        assert _scales(ModelParams(3, delta, sigma_u, sigma0)) == direct
    # sqrt(sigma0) sqrt(delta) = 1e-160 is subnormal; the scales are still
    # exact to rounding: s = 1e-200 / 1e-160 and L = 1 / 1e-200.
    s, scale_lam = _scales(ModelParams(3, delta=1e-160, sigma_u=1e-200, sigma0=1e-160))
    assert abs(s - 1e-40) <= 2e-16 * 1e-40
    assert abs(scale_lam - 1e200) <= 2e-16 * 1e200


@pytest.mark.parametrize(
    "scales",
    [
        {"sigma_u": 1e-300, "delta": 1e-300},  # L overflows
        {"sigma_u": 1e150, "sigma0": 1e-300, "delta": 1e-300},  # s overflows
        {"sigma_u": 1e-300, "sigma0": 1e150, "delta": 1e150},  # s underflows
        {"sigma_u": 1e150, "sigma0": 1e-300, "delta": 1e300},  # L underflows
    ],
)
def test_params_reject_scales_outside_the_normal_floats(scales):
    with pytest.raises(ValueError, match=r"must lie in \[2.225e-308, 1.798e\+308\]"):
        ModelParams(n_periods=3, **scales)
