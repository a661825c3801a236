"""Policy operators: responses, round trips, pinned restriction, f/g pair."""

from __future__ import annotations

import numpy as np
import pytest

from kyle_stability import (
    ModelParams,
    equilibrium_from_params,
    insider_policy_step,
    insider_response,
    maker_policy_step,
    market_maker_response,
    pinned_coordinate_step,
    pinned_step_polynomials,
)

from conftest import EQ_BETA_N3, SECOND_FP_N3, random_params


def _closed_form_t1(beta: float, params: ModelParams) -> float:
    ds = params.delta * params.sigma0
    return (beta**2 * ds + params.sigma_u**2) / (2.0 * params.delta * beta * params.sigma0)


def _closed_form_t2(beta: np.ndarray, params: ModelParams) -> np.ndarray:
    """Two-round closed form, written independently from the library."""
    b1, b2 = beta
    ds = params.delta * params.sigma0
    var_u = params.sigma_u**2
    a = b1 * b1 * ds + var_u
    b = b1 * ds * (b1 - b2) ** 2 + var_u * (b1 - 2.0 * b2)
    c = b1 * ds * (b1 * b1 - 4.0 * b1 * b2 + b2 * b2) + var_u * (b1 - 4.0 * b2)
    first = a * b / (ds * b1 * c)
    second = (ds * (b1 * b1 + b2 * b2) + var_u) / (2.0 * ds * b2)
    return np.array([first, second])


def test_maker_response_at_equilibrium(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    maker = market_maker_response(eq.beta, unit_params_n3)
    assert np.max(np.abs(maker.lam - eq.lam)) <= 1e-12
    assert np.max(np.abs(maker.sigma_sq - eq.sigma_sq)) <= 1e-12


def test_maker_response_zero_strategy(unit_params_n3):
    maker = market_maker_response(np.zeros(3), unit_params_n3)
    assert np.all(maker.lam == 0.0)
    assert np.all(maker.sigma_sq == unit_params_n3.sigma0)


def test_maker_response_single_round_direct(unit_params_n1):
    maker = market_maker_response([2.0], unit_params_n1)
    assert abs(maker.lam[0] - 0.4) <= 1e-15
    assert abs(maker.sigma_sq[1] - 0.2) <= 1e-15


def test_insider_response_at_equilibrium(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    inner = insider_response(eq.lam, unit_params_n3)
    assert inner.in_domain
    assert np.max(np.abs(inner.beta - eq.beta)) <= 1e-12
    assert np.max(np.abs(inner.alpha[1:] - eq.alpha)) <= 1e-12
    # Pre-trade curvature closes the backward recursion one step further.
    expected_alpha0 = 1.0 / (4.0 * eq.lam[0] * (1.0 - eq.alpha[0] * eq.lam[0]))
    assert abs(inner.alpha[0] - expected_alpha0) <= 1e-12
    assert inner.second_order_ok.all()


def test_insider_response_single_round_direct(unit_params_n1):
    inner = insider_response([0.5], unit_params_n1)
    assert inner.in_domain
    assert abs(inner.beta[0] - 1.0) <= 1e-15
    assert inner.alpha[1] == 0.0
    assert abs(inner.alpha[0] - 0.5) <= 1e-15


def test_insider_response_zero_terminal_lambda(unit_params_n3):
    inner = insider_response([0.4, 0.4, 0.0], unit_params_n3)
    assert not inner.in_domain
    assert np.all(np.isinf(inner.beta))


def test_insider_step_fixed_point_random_params():
    rng = np.random.default_rng(23)
    for n in range(1, 11):
        params = random_params(rng, n)
        eq = equilibrium_from_params(params)
        result = insider_policy_step(eq.beta, params)
        assert result.in_domain
        scale = float(np.max(np.abs(eq.beta)))
        assert np.max(np.abs(result.value - eq.beta)) <= 1e-10 * scale


def test_maker_step_fixed_point_random_params():
    rng = np.random.default_rng(29)
    for n in range(1, 11):
        params = random_params(rng, n)
        eq = equilibrium_from_params(params)
        result = maker_policy_step(eq.lam, params)
        assert result.in_domain
        scale = float(np.max(np.abs(eq.lam)))
        assert np.max(np.abs(result.value - eq.lam)) <= 1e-10 * scale


def test_insider_step_single_round_direct(unit_params_n1):
    result = insider_policy_step([2.0], unit_params_n1)
    assert result.in_domain
    assert abs(result.value[0] - 1.25) <= 1e-15


def test_second_fixed_point_is_fixed(unit_params_n3):
    result = insider_policy_step(SECOND_FP_N3, unit_params_n3)
    assert result.in_domain
    scale = float(np.max(np.abs(SECOND_FP_N3)))
    assert np.max(np.abs(result.value - SECOND_FP_N3)) <= 1e-10 * scale


def test_closed_form_agreement_single_round():
    rng = np.random.default_rng(31)
    for _ in range(100):
        params = random_params(rng, 1)
        beta = float(rng.uniform(0.2, 3.0)) * float(
            equilibrium_from_params(params).beta[0]
        )
        result = insider_policy_step([beta], params)
        assert result.in_domain
        expected = _closed_form_t1(beta, params)
        assert abs(result.value[0] - expected) <= 1e-12 * abs(expected)


def test_closed_form_agreement_two_rounds():
    rng = np.random.default_rng(37)
    done = 0
    while done < 100:
        params = random_params(rng, 2)
        beta = equilibrium_from_params(params).beta * rng.uniform(0.5, 1.5, size=2)
        result = insider_policy_step(beta, params)
        if not result.in_domain:
            continue
        expected = _closed_form_t2(beta, params)
        rel = np.max(np.abs(result.value - expected) / np.abs(expected))
        assert rel <= 1e-12
        done += 1


def test_domain_convention_all_entries_non_finite(unit_params_n2):
    # Second coordinate zero puts the point outside the printed domain.
    result = insider_policy_step([0.7, 0.0], unit_params_n2)
    assert not result.in_domain
    assert np.all(~np.isfinite(result.value))
    # The terminal-round denominator was computed and is effectively zero.
    assert abs(result.denominators[-1]) <= 1e-10


def test_out_of_domain_denominator_diagnostics(unit_params_n3):
    result = insider_policy_step([0.5, 0.0, 1.3], unit_params_n3)
    assert not result.in_domain
    # Rounds behind the failure are never reached.
    assert np.isnan(result.denominators[0])
    assert abs(result.denominators[1]) <= 1e-10
    assert np.isfinite(result.denominators[2])


@pytest.mark.parametrize(
    "scale",
    [{"sigma_u": 1e13}, {"sigma0": 1e-26}, {"delta": 1e26}],
    ids=["sigma_u=1e13", "sigma0=1e-26", "delta=1e26"],
)
def test_round_trips_in_domain_at_extreme_scales(scale):
    # The equilibrium pricing path is about 4e-14 at these scales; the
    # domain test must judge the dimensionless factor 1 - alpha lam, not
    # the size of the denominators.
    params = ModelParams(n_periods=3, **scale)
    eq = equilibrium_from_params(params)
    for step, point in ((insider_policy_step, eq.beta), (maker_policy_step, eq.lam)):
        result = step(point, params)
        assert result.in_domain
        assert np.max(np.abs(result.value - point) / np.abs(point)) <= 1e-10


def test_overflowing_round_is_out_of_domain(unit_params_n2):
    # A subnormal lambda clears the relative test on 1 - alpha lam, but the
    # strategy quotient would overflow; the round must still leave the domain.
    inner = insider_response([1e-320, 0.3], unit_params_n2)
    assert not inner.in_domain
    assert np.all(np.isinf(inner.beta))
    result = maker_policy_step([1e-320, 0.3], unit_params_n2)
    assert not result.in_domain
    assert np.all(~np.isfinite(result.value))


def test_maker_step_single_round_hand_composition(unit_params_n1):
    # lambda = 1/4 -> insider beta = 2 -> maker lambda = 2/(4+1) = 0.4.
    result = maker_policy_step([0.25], unit_params_n1)
    assert result.in_domain
    assert abs(result.value[0] - 0.4) <= 1e-15


def test_maker_step_interior_zero_is_out_of_domain(unit_params_n3):
    result = maker_policy_step([0.4, 0.0, 0.3], unit_params_n3)
    assert not result.in_domain
    assert np.all(~np.isfinite(result.value))


def test_response_duality(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    round_trip_beta = insider_response(
        market_maker_response(eq.beta, unit_params_n3).lam, unit_params_n3
    ).beta
    assert np.max(np.abs(round_trip_beta - eq.beta)) <= 1e-10
    round_trip_lam = market_maker_response(
        insider_response(eq.lam, unit_params_n3).beta, unit_params_n3
    ).lam
    assert np.max(np.abs(round_trip_lam - eq.lam)) <= 1e-10


@pytest.mark.parametrize("n_periods,coord", [(3, 1), (3, 3), (4, 2), (4, 4), (5, 3)])
def test_pinned_step_fixed_point_restriction(n_periods, coord):
    params = ModelParams(n_periods=n_periods)
    eq = equilibrium_from_params(params)
    value = pinned_coordinate_step(float(eq.beta[coord - 1]), coord, eq, params)
    assert abs(value - eq.beta[coord - 1]) <= 1e-12


def test_pinned_step_matches_fg_at_small_offset(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    x = float(eq.beta[0]) + 0.01
    f, g = pinned_step_polynomials(x, eq, unit_params_n3)
    direct = pinned_coordinate_step(x, 1, eq, unit_params_n3)
    assert abs(direct - f / g) <= 1e-10 * abs(direct)


@pytest.mark.parametrize("n_periods", [3, 4, 5])
def test_fg_fixed_point_restriction(n_periods):
    params = ModelParams(n_periods=n_periods)
    eq = equilibrium_from_params(params)
    x_hat = float(eq.beta[n_periods - 3])
    f, g = pinned_step_polynomials(x_hat, eq, params)
    assert abs(f / g - x_hat) <= 1e-12


@pytest.mark.parametrize("n_periods", [3, 4, 5])
def test_fg_grid_agreement(n_periods):
    params = ModelParams(n_periods=n_periods)
    eq = equilibrium_from_params(params)
    coord = n_periods - 2
    x_hat = float(eq.beta[coord - 1])
    for x in np.linspace(x_hat - 0.1, x_hat + 0.1, 20):
        direct = pinned_coordinate_step(float(x), coord, eq, params)
        if not np.isfinite(direct):
            continue
        f, g = pinned_step_polynomials(float(x), eq, params)
        assert abs(direct - f / g) <= 1e-10 * max(1.0, abs(direct))


def test_fg_sign_change_brackets_domain_failure(unit_params_n3):
    # g vanishes at x = 0 (with a sign change) and the generic evaluation
    # must blow up or leave the domain exactly there.
    eq = equilibrium_from_params(unit_params_n3)
    eps = 0.05
    _, g_lo = pinned_step_polynomials(-eps, eq, unit_params_n3)
    _, g_hi = pinned_step_polynomials(eps, eq, unit_params_n3)
    assert g_lo * g_hi < 0.0
    at_root = pinned_coordinate_step(0.0, 1, eq, unit_params_n3)
    assert not np.isfinite(at_root) or abs(at_root) > 1e8
    for x in (-eps, eps):
        assert np.isfinite(pinned_coordinate_step(x, 1, eq, unit_params_n3))


def test_fg_nontrivial_root_brackets_domain_failure(unit_params_n3):
    # Locate a root of g away from zero by bisection on a sign change and
    # check the generic evaluation explodes there while staying finite at a
    # distance.
    eq = equilibrium_from_params(unit_params_n3)

    def g_of(x: float) -> float:
        return pinned_step_polynomials(x, eq, unit_params_n3)[1]

    grid = np.linspace(0.01, 3.0, 600)
    values = [g_of(float(x)) for x in grid]
    bracket = None
    for left, right, g_left, g_right in zip(grid, grid[1:], values, values[1:]):
        if g_left * g_right < 0.0:
            bracket = (float(left), float(right))
            break
    assert bracket is not None, "no sign change of g on the scan interval"
    lo, hi = bracket
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g_of(lo) * g_of(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    near = pinned_coordinate_step(root, 1, eq, unit_params_n3)
    assert not np.isfinite(near) or abs(near) > 1e8
    for x in (root - 1e-3, root + 1e-3):
        value = pinned_coordinate_step(x, 1, eq, unit_params_n3)
        assert np.isfinite(value) and abs(value) < 1e8


def test_pinned_step_coord_validation(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    with pytest.raises(ValueError):
        pinned_coordinate_step(0.5, 0, eq, unit_params_n3)
    with pytest.raises(ValueError):
        pinned_coordinate_step(0.5, 4, eq, unit_params_n3)


def test_fg_requires_three_rounds(unit_params_n2):
    eq = equilibrium_from_params(unit_params_n2)
    with pytest.raises(ValueError):
        pinned_step_polynomials(0.5, eq, unit_params_n2)


def test_operator_input_validation(unit_params_n3):
    with pytest.raises(ValueError):
        insider_policy_step([1.0, 2.0], unit_params_n3)
    with pytest.raises(ValueError):
        maker_policy_step([np.inf, 1.0, 1.0], unit_params_n3)
    with pytest.raises(ValueError):
        market_maker_response([[1.0, 2.0, 3.0]], unit_params_n3)


def test_equilibrium_reference_digits_fixed(unit_params_n3):
    result = insider_policy_step(EQ_BETA_N3, unit_params_n3)
    assert result.in_domain
    assert np.max(np.abs(result.value - EQ_BETA_N3)) <= 1e-12
