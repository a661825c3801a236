"""Policy operators: responses, round trips, pinned restriction, f/g pair."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from kyle_stability import (
    Equilibrium,
    ModelParams,
    equilibrium_from_params,
    insider_policy_step,
    insider_response,
    maker_policy_step,
    market_maker_response,
    operators,
    pinned_coordinate_step,
    pinned_step_polynomials,
)
from kyle_stability.model import _scales

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


def test_overflowing_strategy_leaves_domain(unit_params_n3):
    # beta_1**2 overflows, so the maker pass prices every round at NaN and
    # keeps only its starting variance; the round trip reports the NaN
    # pricing path as leaving the domain instead of raising.
    maker = market_maker_response([1e200, 1e200, 1.0], unit_params_n3)
    assert _reprs(maker.lam) == ["nan", "nan", "nan"]
    assert _reprs(maker.sigma_sq) == ["1.0", "nan", "nan", "nan"]
    result = insider_policy_step([1e200, 1e200, 1.0], unit_params_n3)
    assert not result.in_domain
    assert np.all(np.isinf(result.value))
    # The pricing round trip: the insider pass is in the domain, but its
    # strategy 5e299 overflows the maker pass that follows.
    result = maker_policy_step([1e-300], ModelParams(n_periods=1, sigma0=1e10))
    assert not result.in_domain
    assert np.all(np.isinf(result.value))
    # A zero strategy reveals nothing at any scale: lambda = 0 and the
    # variance stays sigma0, also where sigma_u**2 would underflow.
    degenerate = market_maker_response(np.zeros(3), ModelParams(n_periods=3, sigma_u=1e-170))
    assert _reprs(degenerate.lam) == ["0.0", "0.0", "0.0"]
    assert _reprs(degenerate.sigma_sq) == ["1.0", "1.0", "1.0", "1.0"]


def test_maker_round_that_overflows_in_unit_parameters_is_nan():
    # At sigma0 = 1e300 the strategy 1e5 is 1e155 in unit parameters, whose
    # square overflows: the price is NaN, not an in-domain 0.
    params = ModelParams(n_periods=1, sigma0=1e300)
    assert np.isnan(market_maker_response([1e5], params).lam[0])
    result = maker_policy_step([5e-6], params)
    assert not result.in_domain
    assert np.all(np.isinf(result.value))


def test_maker_round_whose_unit_entry_is_infinite_leaves_the_rest_nan():
    # 1e300 / sigma_u is infinite in unit parameters; its square does not
    # raise, so the pass itself reads lam = [nan, 0] and a zero variance.
    # Every round from the first NaN price on is undefined, as for an
    # overflowing square.
    maker = market_maker_response([1e300, 1.0], ModelParams(n_periods=2, sigma_u=1e-10))
    assert _reprs(maker.lam) == ["nan", "nan"]
    assert _reprs(maker.sigma_sq) == ["1.0", "nan", "nan"]
    later = market_maker_response([1.0, 1e300, 1.0], ModelParams(n_periods=3, sigma_u=1e-10))
    assert _reprs(later.lam) == ["1.0", "nan", "nan"]
    assert _reprs(later.sigma_sq) == ["1.0", "1e-20", "nan", "nan"]


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
    for not_a_count in (True, 2.0):
        with pytest.raises(ValueError, match="coord must be an integer"):
            pinned_coordinate_step(0.5, not_a_count, eq, unit_params_n3)
    assert pinned_coordinate_step(0.5, np.int64(2), eq, unit_params_n3) == pinned_coordinate_step(
        0.5, 2, eq, unit_params_n3
    )


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


# Golden values: exact reprs captured from the numpy-scalar implementation
# of the two best responses; the scaled N=8 values were captured again when
# the kernels moved to unit parameters, and test_round_trips_match_an_mpmath_oracle
# bounds their error.  The inputs are literals so that the check does not
# depend on the equilibrium solver's last digits.
_GOLDEN_BETA3 = [0.5435512891543334, 0.7424350846077103, 1.4060780093880552]
_GOLDEN_LAM3 = [0.41313348687932283, 0.41465623505820914, 0.35527900775392335]
_GOLDEN_BETA8 = [
    32823721.035990085, 36983998.445613526, 42389752.452380136, 49729308.99815912,
    60336462.52340832, 77213252.89537694, 109003111.69014081, 196974031.11227274,
]
_GOLDEN_LAM8 = [
    3.0170290422095985e-09, 3.004454493066947e-09, 2.9899966270722318e-09,
    2.972206448798778e-09, 2.9478690436193345e-09, 2.9085366069239585e-09,
    2.8252662736373603e-09, 2.538151842539257e-09,
]
_GOLDEN_PARAMS8 = ModelParams(n_periods=8, sigma_u=1e6, sigma0=1e-4)


def _reprs(values) -> list:
    return [repr(float(v)) for v in np.asarray(values, dtype=float)]


@pytest.mark.parametrize(
    "step,point,params,in_domain,value,denominators",
    [
        (
            insider_policy_step, _GOLDEN_BETA3, ModelParams(n_periods=3), True,
            ["0.5241156945917024", "0.7758615393037533", "1.3597087792257716"],
            ["0.5378691094595021", "0.5843042286589732", "0.7354516020477616"],
        ),
        (
            maker_policy_step, _GOLDEN_LAM3, ModelParams(n_periods=3), True,
            ["0.4237742278023995", "0.39188018894530596", "0.37133936812855256"],
            ["0.5356669077894604", "0.5873339271683653", "0.7105580155078467"],
        ),
        (
            insider_policy_step, _GOLDEN_BETA8, _GOLDEN_PARAMS8, True,
            [
                "35542933.227278486", "38748089.02118198", "43267793.57797609",
                "49805490.454453714", "59715506.840230845", "76032130.73022678",
                "107461982.03651008", "195451984.40262976",
            ],
            [
                "3.311932646627128e-09", "3.3584710123053574e-09",
                "3.4163263098606356e-09", "3.492639920696236e-09",
                "3.601623322423474e-09", "3.776301008388484e-09",
                "4.115581371812542e-09", "5.116346109538631e-09",
            ],
        ),
        (
            maker_policy_step, _GOLDEN_LAM8, _GOLDEN_PARAMS8, True,
            [
                "2.796075012629167e-09", "2.882843043873951e-09",
                "2.9507152411269933e-09", "2.9963035924343567e-09",
                "3.014581210666017e-09", "2.995249947796974e-09",
                "2.9068848277260487e-09", "2.58477167717289e-09",
            ],
            [
                "3.323613186618031e-09", "3.3582915664216206e-09",
                "3.4055260988551216e-09", "3.4725942459726412e-09",
                "3.57389130002469e-09", "3.742681018481998e-09",
                "4.078103076513206e-09", "5.076303685078514e-09",
            ],
        ),
        (
            insider_policy_step, [0.5, 0.0, 1.3], ModelParams(n_periods=3), False,
            ["inf", "inf", "inf"], ["nan", "0.0", "0.8843537414965985"],
        ),
        (
            maker_policy_step, [0.4, 0.0, 0.3], ModelParams(n_periods=3), False,
            ["inf", "inf", "inf"], ["nan", "0.0", "0.6"],
        ),
    ],
    ids=["insider-n3", "maker-n3", "insider-n8-scaled", "maker-n8-scaled",
         "insider-out-of-domain", "maker-out-of-domain"],
)
def test_round_trip_golden_values(step, point, params, in_domain, value, denominators):
    result = step(point, params)
    assert result.in_domain is in_domain
    assert _reprs(result.value) == value
    assert _reprs(result.denominators) == denominators


@pytest.mark.parametrize(
    "lam,params,in_domain,alpha,second_order",
    [
        (
            _GOLDEN_LAM3, ModelParams(n_periods=3), True,
            ["0.9334158835074446", "0.8513044741184683", "0.7036723097728231", "0.0"],
            [True, True, True],
        ),
        (
            _GOLDEN_LAM8, _GOLDEN_PARAMS8, True,
            [
                "150438685.82937565", "148885226.3452419", "146820193.26414537",
                "143984573.08390623", "139903527.5629524", "133594072.67969525",
                "122606023.09922534", "98496865.24266064", "0.0",
            ],
            [True] * 8,
        ),
        (
            [0.4, 0.0, 0.3], ModelParams(n_periods=3), False,
            ["nan", "nan", "0.8333333333333334", "0.0"],
            [False, True, True],
        ),
    ],
    ids=["n3", "n8-scaled", "out-of-domain"],
)
def test_insider_response_golden_alpha(lam, params, in_domain, alpha, second_order):
    inner = insider_response(lam, params)
    assert inner.in_domain is in_domain
    assert _reprs(inner.alpha) == alpha
    assert inner.second_order_ok.dtype == bool
    assert inner.second_order_ok.tolist() == second_order


@pytest.mark.parametrize(
    "coord,x,expected",
    [(1, 0.4264634806334381, "0.37395636017378686"), (4, 0.9150893494580906, "0.8953860508267448")],
)
def test_pinned_step_golden_values(coord, x, expected):
    # Only eq.beta enters the pinned step; it is the N=5 unit equilibrium.
    eq = Equilibrium(
        beta=[0.4164634806334381, 0.5038525975574096, 0.6429514789689652,
              0.9050893494580906, 1.630914653063586],
        lam=np.zeros(5),
        alpha=np.zeros(5),
        sigma_sq=np.ones(6),
    )
    assert repr(pinned_coordinate_step(x, coord, eq, ModelParams(n_periods=5))) == expected


def _pole_below(k: int, eq: Equilibrium, params: ModelParams) -> list:
    """Adjacent floats in (0, beta_k) around a zero of 1 - alpha_k lam_{k-1}.

    There round k - 1, below the pinned coordinate k, leaves the domain while
    rounds k .. N stay in it.  Found by bisection on the public responses.
    """
    def factor(x):
        vec = eq.beta.copy()
        vec[k - 1] = x
        lam = market_maker_response(vec, params).lam
        return 1.0 - insider_response(lam, params).alpha[k - 1] * lam[k - 2]

    lo, hi = float(eq.beta[k - 1]) * 1e-6, float(eq.beta[k - 1])
    assert factor(lo) < 0.0 < factor(hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if factor(mid) < 0.0 else (lo, mid)
    return [lo, hi]


def test_pinned_step_equals_round_trip_entry_bitwise():
    # The pinned map solves the maker rounds before coordinate k once and
    # reuses them; its value must still be entry k of the full round trip,
    # bit for bit: in the domain, at poles of the rounds below k, at a zero
    # or subnormal x, and past the b**2 overflow at |x| ~ 1.3e154 (where the
    # maker pass reruns on float64 scalars).
    rng = np.random.default_rng(20261018)
    left_domain = below_k = overflowed = 0
    for scale in (1e-8, 1.0, 1e8):
        for n in range(1, 13):
            base = random_params(rng, n)
            params = ModelParams(
                n, base.delta * scale, base.sigma_u * scale, base.sigma0 / scale
            )
            eq = equilibrium_from_params(params)
            for k in range(1, n + 1):
                x_hat = float(eq.beta[k - 1])
                points = [x_hat, 0.0, 1e-320, -3e-310, 2e154, -1e300, x_hat * 1e160]
                points += list(x_hat * rng.uniform(-3.0, 3.0, size=6))
                points += _pole_below(k, eq, params) if k > 1 else []
                for x in points:
                    vec = eq.beta.copy()
                    vec[k - 1] = x
                    full = insider_policy_step(vec, params)
                    got = pinned_coordinate_step(x, k, eq, params)
                    assert got.hex() == float(full.value[k - 1]).hex(), (scale, n, k, x)
                    if not full.in_domain:
                        left_domain += 1
                        # Round k - 1 was reached, so the failing round is below k.
                        below_k += k > 1 and not np.isnan(full.denominators[k - 2])
                        overflowed += abs(x) > 1.3e154
    assert left_domain > below_k > 0
    assert overflowed > 0


def test_pinned_step_keeps_an_entry_that_overflows_at_its_coordinate():
    # The pinned map solves the maker pass at eq.beta once and reuses its
    # rounds before the coordinate.  An overflowing b**2 makes every round of
    # that pass NaN, those before it too, so a prefix taken from it would
    # read infinity here; the entry is replaced by x and the step is finite.
    params = ModelParams(n_periods=3)
    eq = equilibrium_from_params(params)
    beta = eq.beta.copy()
    beta[1] = 1.5e154
    overflowing = Equilibrium(beta=beta, lam=eq.lam, alpha=eq.alpha, sigma_sq=eq.sigma_sq)
    x = float(eq.beta[1])
    assert repr(pinned_coordinate_step(x, 2, overflowing, params)) == "0.757586821028276"
    for k in (2, 3):
        vec = beta.copy()
        vec[k - 1] = float(eq.beta[k - 1])
        full = insider_policy_step(vec, params).value[k - 1]
        assert pinned_coordinate_step(float(eq.beta[k - 1]), k, overflowing, params) == full
    # At coordinate 3 the overflowing entry stays and the step leaves the domain.
    assert full == np.inf


def _entry_bits(function, *args):
    """Type and hex parts of each entry of a float list, or the type of the error raised."""
    try:
        values = function(*args)
    except ArithmeticError as error:
        return type(error)
    return [(type(v), complex(v).real.hex(), complex(v).imag.hex()) for v in values]


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_pinned_map_equals_the_full_round_trip(n):
    # A pinned step solves the maker rounds before its entry once and
    # resumes the maker pass there.  At every coordinate it has the bits of
    # that entry of the whole strategy round trip at the replaced point:
    # also where an entry before, at or after it makes b**2 overflow, or
    # a round leave the domain.
    rng = np.random.default_rng(1741 + n)
    for scale in (1.0, 2.5):
        params = ModelParams(n_periods=n, sigma_u=scale)
        assert _scales(params)[0] == scale
        eq = equilibrium_from_params(params)
        base = eq.beta.tolist()
        strategies = [base, (np.array(base) * rng.uniform(0.7, 1.3, n)).tolist()]
        for k in range(n):
            for value in (0.0, 1.5e154, 1e-160):
                strategies.append(list(base))
                strategies[-1][k] = value
        for beta in strategies:
            pinned_eq = replace(eq, beta=np.array(beta))
            for k in range(n):
                step = operators._pinned_map(k + 1, pinned_eq, params)
                x = beta[k] or base[k]
                for v in (beta[k], base[k], x * 1.001, -x, 0.0, 1.5e154, 1e-160):
                    point = list(beta)
                    point[k] = v
                    want = operators._strategy_round_trip(point, scale)[0][k]
                    assert _entry_bits(step, [v]) == _entry_bits(lambda: [want]), (beta, k, v)


def test_pinned_step_input_contract(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    for x in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            pinned_coordinate_step(x, 1, eq, unit_params_n3)
    # An equilibrium of another horizon is rejected, whichever is longer.
    for other in (2, 4):
        with pytest.raises(ValueError):
            pinned_coordinate_step(0.5, 1, equilibrium_from_params(ModelParams(other)), unit_params_n3)


def _mpmath_round_trips(mpmath, beta, lam, params):
    """Both round trips and the insider's curvature path at 50 digits,
    straight from the parameter-frame recursions on the exact inputs."""
    delta, sigma0 = mpmath.mpf(params.delta), mpmath.mpf(params.sigma0)
    var_u = mpmath.mpf(params.sigma_u) ** 2

    def maker(strategy):
        prices, prev = [], sigma0
        for b in strategy:
            den = b**2 * prev * delta + var_u
            prices.append(b * prev / den)
            prev = prev * var_u / den
        return prices

    def insider(prices):
        strategy, alpha = [], [mpmath.mpf(0)]
        for p in reversed(prices):
            u = 1 - alpha[0] * p
            strategy.insert(0, (1 - 2 * alpha[0] * p) / (2 * delta * p * u))
            alpha.insert(0, 1 / (4 * p * u))
        return strategy, alpha

    beta, lam = [mpmath.mpf(v) for v in beta], [mpmath.mpf(v) for v in lam]
    return insider(maker(beta))[0], maker(insider(lam)[0]), insider(lam)[1]


def test_round_trips_match_an_mpmath_oracle():
    # 60 seeded parameter sets over 10^-3 .. 10^3, at points 0.9 - 1.1 times
    # the equilibrium: every entry within 1e-13 relative of a 50-digit run
    # of the parameter-frame recursions.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2309)
    with mpmath.workdps(50):
        for n in (3, 5, 8):
            for _ in range(20):
                delta, sigma_u, sigma0 = (float(10.0**e) for e in rng.uniform(-3.0, 3.0, 3))
                params = ModelParams(n_periods=n, delta=delta, sigma_u=sigma_u, sigma0=sigma0)
                eq = equilibrium_from_params(params)
                beta = eq.beta * rng.uniform(0.9, 1.1, n)
                lam = eq.lam * rng.uniform(0.9, 1.1, n)
                strategy = insider_policy_step(beta, params)
                pricing = maker_policy_step(lam, params)
                assert strategy.in_domain and pricing.in_domain, params
                got = (strategy.value, pricing.value, insider_response(lam, params).alpha)
                paths = _mpmath_round_trips(mpmath, beta, lam, params)
                for name, values, exact in zip(("strategy", "pricing", "alpha"), got, paths):
                    for value, want in zip(values.tolist(), exact):
                        if want == 0:  # the terminal curvature
                            assert value == 0.0, (params, name)
                            continue
                        error = float(abs((mpmath.mpf(value) - want) / want))
                        assert error <= 1e-13, (params, name, error)
