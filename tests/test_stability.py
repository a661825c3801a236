"""Iteration driver, Jacobians, eigenvalues, classification, scalar tools."""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from kyle_stability import (
    Equilibrium,
    ModelParams,
    NotAFixedPointError,
    OperatorResult,
    OutOfDomainError,
    StencilDomainError,
    classify_fixed_point,
    classify_spectral_radius,
    eigenvalues,
    equilibrium_from_params,
    insider_policy_step,
    iterate,
    jacobian_closed_form,
    jacobian_fd,
    linearized_pinned_iteration,
    maker_policy_step,
    operators,
    pinned_coordinate_derivative,
    stability,
)

from conftest import (
    EIG_EQ_N3,
    EIG_EQ_N3_DIGITS,
    EIG_SECOND_N3,
    EQ_BETA_N3,
    JAC_N2_NONZERO,
    JAC_N2_ZERO,
    PINNED_DERIV_SECOND_LAST,
    PINNED_DERIV_THIRD_LAST,
    SECOND_FP_N3,
    bumped_params_n3,
    random_params,
)


def _stub(fn, domain=None):
    """Wrap a plain vector map as a policy-operator-shaped callable."""

    def operator(x, params):
        x = np.asarray(x, dtype=float)
        if domain is not None and not domain(x):
            return OperatorResult(
                value=np.full_like(x, np.inf), in_domain=False, denominators=x * np.nan
            )
        return OperatorResult(value=fn(x), in_domain=True, denominators=x * 0.0)

    return operator


def test_iterate_variance_perturbation_reaches_second_fixed_point(unit_params_n3):
    start = equilibrium_from_params(bumped_params_n3()).beta
    trace = iterate(insider_policy_step, start, unit_params_n3)
    assert trace.verdict == "converged"
    assert np.max(np.abs(trace.limit - SECOND_FP_N3)) <= 1e-10
    assert not trace.truncated
    assert np.allclose(trace.iterates[0], start)
    assert np.allclose(trace.iterates[-1], trace.limit)


def test_iterate_from_fixed_point_immediate(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    trace = iterate(insider_policy_step, eq.beta, unit_params_n3)
    assert trace.verdict == "converged"
    assert trace.iterations_used == 1
    assert np.max(np.abs(trace.limit - eq.beta)) <= 1e-10


def test_iterate_single_round_quadratic_convergence(unit_params_n1):
    trace = iterate(insider_policy_step, [2.0], unit_params_n1)
    assert trace.verdict == "converged"
    assert trace.iterations_used <= 10
    assert abs(trace.limit[0] - 1.0) <= 1e-12


def test_iterate_trace_truncation():
    # A trace keeps the first and the last 500 of its points.
    params = ModelParams(n_periods=1)
    op = _stub(lambda x: 0.999 * x)
    trace = iterate(op, [1.0], params, max_iter=1500)
    assert trace.verdict == "max_iter"
    assert trace.truncated
    assert len(trace.iterates) == 1000
    assert trace.iterates[0][0] == 1.0
    assert abs(trace.iterates[499][0] - 0.999**499) <= 1e-12
    assert abs(trace.iterates[500][0] - 0.999**1001) <= 1e-12
    assert abs(trace.iterates[-1][0] - 0.999**1500) <= 1e-12
    full = iterate(op, [1.0], params, max_iter=999)
    assert not full.truncated
    assert len(full.iterates) == 1000


def test_iterate_diverged_verdict():
    params = ModelParams(n_periods=1)
    op = _stub(lambda x: 2.0 * x)
    trace = iterate(op, [1.0], params)
    assert trace.verdict == "diverged"
    assert trace.limit is None
    # First sup-norm above 1e8 is 2^27.
    assert trace.iterations_used == 27


def test_iterate_left_domain_verdict():
    params = ModelParams(n_periods=1)
    op = _stub(lambda x: 2.0 * x, domain=lambda x: x[0] <= 4.0)
    trace = iterate(op, [3.0], params)
    assert trace.verdict == "left_domain"
    assert trace.limit is None
    assert trace.iterations_used == 2
    assert not np.isfinite(trace.iterates[-1][0])


def test_iterate_validation(unit_params_n3):
    with pytest.raises(ValueError):
        iterate(insider_policy_step, [np.nan, 1.0, 1.0], unit_params_n3)
    with pytest.raises(ValueError):
        iterate(insider_policy_step, EQ_BETA_N3, unit_params_n3, tol=0.0)
    with pytest.raises(ValueError):
        iterate(insider_policy_step, EQ_BETA_N3, unit_params_n3, max_iter=0)
    for not_a_count in (True, 1.5):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            iterate(insider_policy_step, EQ_BETA_N3, unit_params_n3, max_iter=not_a_count)
    with pytest.raises(ValueError):
        iterate(insider_policy_step, EQ_BETA_N3, unit_params_n3, blowup=-1.0)
    # A map that does not check the length itself still gets a checked start.
    with pytest.raises(ValueError, match="length 3"):
        iterate(_stub(lambda x: x), [1.0, 1.0], unit_params_n3)


def test_iterate_rejects_matrix_start(unit_params_n3):
    # The driver checks the shape itself, also for a map that would not.
    with pytest.raises(ValueError):
        iterate(insider_policy_step, [EQ_BETA_N3], unit_params_n3)
    with pytest.raises(ValueError):
        iterate(_stub(lambda x: x), [[1.0], [2.0]], ModelParams(n_periods=1))


def test_iterate_one_element_affine_map_and_nonfinite_value():
    params = ModelParams(n_periods=1)
    trace = iterate(_stub(lambda x: 0.5 * x + 1.0), [0.0], params)
    assert trace.verdict == "converged"
    assert abs(trace.limit[0] - 2.0) <= 1e-11
    # A non-finite value leaves the domain even when the map does not say so.
    bad = iterate(_stub(lambda x: x * np.inf), [1.0], params)
    assert bad.verdict == "left_domain"
    assert bad.iterations_used == 1


# Exact reprs captured from the numpy-vector driver this loop replaced:
# operator, start, max_iter, verdict, iterations used, last iterate (which
# is the limit when the run converged).
_ITERATE_GOLDEN = [
    (
        insider_policy_step,
        [0.5381695932490207, 0.7575868210661554, 1.365124281027533],
        10_000,
        "converged",
        83,
        ["1.2582536009629957", "-2.1574914570062633", "2.6903478420819367"],
    ),
    (
        maker_policy_step,
        [0.417306552382491, 0.40652572062497677, 0.3662670182847004],
        10_000,
        "converged",
        81,
        ["0.4870906496664821", "-0.29807957293118587", "0.18584957386478662"],
    ),
    (
        insider_policy_step,
        [0.5381695932490207, 0.7575868210661554, 1.365124281027533],
        40,
        "max_iter",
        40,
        ["9.309569448518724", "-108.01393085453394", "179.2189869228261"],
    ),
    (
        maker_policy_step,
        [0.417306552382491, 0.40652572062497677, 0.3662670182847004],
        40,
        "max_iter",
        40,
        ["0.09116201269514354", "-0.006293101309989512", "0.0027871600428380472"],
    ),
]


@pytest.mark.parametrize("operator,start,max_iter,verdict,used,last", _ITERATE_GOLDEN)
def test_iterate_golden_traces(unit_params_n3, operator, start, max_iter, verdict, used, last):
    trace = iterate(operator, start, unit_params_n3, max_iter=max_iter)
    assert (trace.verdict, trace.iterations_used) == (verdict, used)
    assert len(trace.iterates) == used + 1
    assert [repr(float(v)) for v in trace.iterates[-1]] == last
    if verdict == "converged":
        assert isinstance(trace.limit, np.ndarray) and trace.limit.dtype == np.float64
        assert [repr(float(v)) for v in trace.limit] == last
    else:
        assert trace.limit is None


def test_jacobian_fd_recovers_affine_map():
    rng = np.random.default_rng(41)
    a = rng.normal(size=(3, 3))
    c = rng.normal(size=3)
    params = ModelParams(n_periods=3)
    jac = jacobian_fd(_stub(lambda x: a @ x + c), np.array([0.3, -1.2, 0.7]), params)
    assert np.max(np.abs(jac - a)) <= 1e-9


def test_jacobian_fd_two_round_reference(unit_params_n2):
    eq = equilibrium_from_params(unit_params_n2)
    jac = jacobian_fd(insider_policy_step, eq.beta, unit_params_n2)
    for (i, j), value in JAC_N2_NONZERO.items():
        assert abs(jac[i, j] - value) <= 1e-5
    for i, j in JAC_N2_ZERO:
        assert abs(jac[i, j]) <= 1e-7


def test_jacobian_fd_single_round_zero_derivative(unit_params_n1):
    eq = equilibrium_from_params(unit_params_n1)
    jac = jacobian_fd(insider_policy_step, eq.beta, unit_params_n1)
    assert abs(jac[0, 0]) <= 1e-8


def test_jacobian_fd_stencil_domain_error():
    params = ModelParams(n_periods=2)
    op = _stub(lambda x: x, domain=lambda x: x[0] < 1.0)
    with pytest.raises(StencilDomainError) as excinfo:
        jacobian_fd(op, np.array([1.0 - 1e-9, 0.5]), params)
    assert excinfo.value.coordinate == 1


@pytest.mark.parametrize("point", [[], [0.5, 0.7, 1.3, 1.0]], ids=["empty", "too-long"])
def test_point_of_the_wrong_length_is_rejected(unit_params_n3, point):
    # Checked up front, also where no evaluation reaches the map's own check.
    for operator in (insider_policy_step, _stub(lambda x: x)):
        with pytest.raises(ValueError, match="length 3"):
            jacobian_fd(operator, point, unit_params_n3)
        with pytest.raises(ValueError, match="length 3"):
            classify_fixed_point(operator, point, unit_params_n3)


def test_jacobian_fd_relative_step_at_zero_entries():
    # A zero entry, or one whose step underflows to zero, takes the step
    # cbrt(eps) * max|x|; an all-zero point takes cbrt(eps) itself.
    rng = np.random.default_rng(61)
    a = rng.normal(size=(3, 3))
    params = ModelParams(n_periods=3)
    cbrt_eps = np.finfo(float).eps ** (1.0 / 3.0)
    for point, zero_step in (
        (np.array([0.3, 0.0, -1.2]), cbrt_eps * 1.2),
        (np.array([0.3, 5e-324, -1.2]), cbrt_eps * 1.2),
        (np.zeros(3), cbrt_eps),
    ):
        seen = []

        def affine(x):
            seen.append(x.copy())
            return a @ x

        jac = jacobian_fd(_stub(affine), point, params)
        assert np.max(np.abs(jac - a)) <= 1e-9
        for j in range(3):
            x_plus = seen[2 * j]
            want = cbrt_eps * abs(point[j]) or zero_step
            assert abs((x_plus[j] - point[j]) - want) <= 1e-15 * (1.0 + abs(point[j]))


# Exact reprs of finite-difference Jacobians at (0.37, 2.9, 0.013), at the
# equilibrium and at 1.01 times it, and of the spectral radii there; they
# were captured from the unit-parameter kernels, scaled by params._scales.
# The equilibrium points ("beta-N", "lam-N") are stored too, so the
# Jacobians stay pinned to the same inputs whatever rounding the
# equilibrium construction does.
_JACOBIAN_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "jacobian_golden.json").read_text()
)


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("side", ["insider", "maker"])
def test_jacobian_fd_golden_values(n, side):
    params = ModelParams(n_periods=n, delta=0.37, sigma_u=2.9, sigma0=0.013)
    operator, path = {"insider": (insider_policy_step, "beta"), "maker": (maker_policy_step, "lam")}[side]
    point = np.array([float(v) for v in _JACOBIAN_GOLDEN[f"{path}-{n}"]])
    assert np.allclose(point, getattr(equilibrium_from_params(params), path), rtol=1e-14, atol=0)
    for label, x in (("equilibrium", point), ("scaled", point * 1.01)):
        jac = jacobian_fd(operator, x, params)
        # The inf norm's row sums associate by layout, so C order is pinned too.
        assert jac.flags.c_contiguous
        assert [[repr(float(v)) for v in row] for row in jac] == _JACOBIAN_GOLDEN[
            f"{side}-{n}-{label}"
        ]
    # classify_fixed_point takes the exact factor Jacobian: its radius is
    # pinned, and meets the 50-digit oracle below to rounding.
    rho = classify_fixed_point(operator, point, params).spectral_radius
    assert repr(rho) == _JACOBIAN_GOLDEN[f"{side}-{n}-rho"]
    assert abs(rho - float(_JACOBIAN_GOLDEN[f"{side}-{n}-rho-digits"])) <= 1e-14 * rho


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("side", ["insider", "maker"])
def test_golden_spectral_radii_match_an_mpmath_oracle(n, side):
    # The "-rho-digits" goldens: a 50-digit complex step through the float
    # kernels on mpmath values, at the golden point divided by its scale.
    mpmath = pytest.importorskip("mpmath")
    params = ModelParams(n_periods=n, delta=0.37, sigma_u=2.9, sigma0=0.013)
    path, index, round_trip = {
        "insider": ("beta", 0, operators._strategy_round_trip),
        "maker": ("lam", 1, _pricing_passes),
    }[side]
    scale = params._scales[index]
    with mpmath.workdps(50):
        xs = [mpmath.mpf(float(v)) / mpmath.mpf(scale) for v in _JACOBIAN_GOLDEN[f"{path}-{n}"]]
        h = mpmath.mpf("1e-30")
        columns = []
        for j in range(n):
            x = [mpmath.mpc(v) for v in xs]
            x[j] += mpmath.mpc(0, h)
            columns.append([v.imag / h for v in round_trip(x)[0]])
        spectrum = mpmath.eig(mpmath.matrix(columns).T, left=False, right=False)
        rho = max(abs(v) for v in spectrum)
        assert abs(rho - mpmath.mpf(_JACOBIAN_GOLDEN[f"{side}-{n}-rho-digits"])) <= 1e-20


def _outcome(function, *args):
    """The bytes of a result array, or the type and coordinate of the error raised."""
    try:
        return function(*args).tobytes()
    except (ValueError, RuntimeError) as error:
        return type(error), getattr(error, "coordinate", None)


def _pricing_passes(values: list) -> tuple[list]:
    """The unit pricing round trip composed from the two passes, for values
    the round trip's finiteness check does not read (complex, mpmath)."""
    return (operators._maker_pass(operators._insider_pass(values)[0])[0],)


def _exact_jacobian(operator, point, params: ModelParams) -> np.ndarray:
    """A reference independent of the factors: one complex step per column,
    ``Im f(x + i h e_j) / h`` with ``h = 1e-20 |x_j|``, through the unit
    passes on Python ``complex`` values at ``point / s`` (or ``/ L``).  No
    difference is taken, so it is exact to rounding where the passes stay
    inside the float range."""
    side = 0 if operator is insider_policy_step else 1
    scale = params._scales[side]
    xs = [v / scale for v in np.asarray(point, dtype=float).tolist()]
    round_trip = (operators._strategy_round_trip, _pricing_passes)[side]
    columns = []
    for j, x_j in enumerate(xs):
        h = 1e-20 * abs(x_j)
        values = list(xs)
        values[j] = complex(x_j, h)
        columns.append([v.imag / h for v in round_trip(values)[0]])
    return np.array(columns).T


def _gap(got, want) -> float:
    """The largest entry error relative to the largest entry of ``want``."""
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 13, 14, 16, 32, 64, 128])
@pytest.mark.parametrize("sigma_u", [1.0, 1e-8, 1e8], ids=["unit", "beta-1e-8", "beta-1e8"])
def test_round_trips_equal_the_array_path_bitwise(n, sigma_u):
    # The round trips skip the array boundary; a lambda around them is any
    # other callable and takes the array path on whole points.  jacobian_fd
    # and iterate must share every bit, and a stencil that leaves the domain
    # must raise the same error for the same coordinate.  classify_fixed_point
    # takes the lambda's Jacobian from jacobian_fd and the bare round trip's
    # from the exact factors.
    params = ModelParams(n_periods=n, sigma_u=sigma_u)
    eq = equilibrium_from_params(params)
    for operator, point in ((insider_policy_step, eq.beta), (maker_policy_step, eq.lam)):
        wrapped = lambda x, p, op=operator: op(x, p)  # noqa: E731
        for x in (point, point * (1.0 + 1e-3 * np.cos(np.arange(n)))):
            fast, slow = jacobian_fd(operator, x, params), jacobian_fd(wrapped, x, params)
            assert fast.flags.c_contiguous
            assert fast.tobytes() == slow.tobytes()
        # A zero entry leaves the domain of both round trips; stencils along
        # the other coordinates keep it, so from N = 2 on some column raises.
        # On the pricing round trip a zero after the first entry takes the
        # insider rounds of every stencil point out of the domain.
        for k in sorted({0, n // 2}) if n > 1 else ():
            x = point.copy()
            x[k] = 0.0
            fast, slow = (_outcome(jacobian_fd, op, x, params) for op in (operator, wrapped))
            assert isinstance(fast, tuple) and fast[0] is StencilDomainError, (k, fast)
            assert fast == slow
        if operator is insider_policy_step:
            # b**2 overflows in unit parameters on this entry and its stencil.
            x = point.copy()
            x[n // 2] = 1.5e154 * params._scales[0]
            fast, slow = (_outcome(jacobian_fd, op, x, params) for op in (operator, wrapped))
            assert isinstance(fast, tuple) and fast[0] is StencilDomainError, fast
            assert fast == slow
        if n > stability._EIG_MAX_SIZE:
            for op in (operator, wrapped):
                with pytest.raises(ValueError, match="matrix size"):
                    classify_fixed_point(op, point, params)
        else:
            bare, slow = (classify_fixed_point(op, point, params) for op in (operator, wrapped))
            assert slow.jacobian.tobytes() == jacobian_fd(operator, point, params).tobytes()
            assert _gap(bare.jacobian, _exact_jacobian(operator, point, params)) <= 1e-13
            assert bare.classification == slow.classification
        start = point * (1.0 + 1e-3 * np.sin(np.arange(1, n + 1)))
        fast, slow = (iterate(op, start, params, max_iter=300) for op in (operator, wrapped))
        assert (fast.verdict, fast.iterations_used) == (slow.verdict, slow.iterations_used)
        assert [v.tobytes() for v in fast.iterates] == [v.tobytes() for v in slow.iterates]
        limits = [None if t.limit is None else t.limit.tobytes() for t in (fast, slow)]
        assert limits[0] == limits[1]


@pytest.mark.parametrize("n", [1, 3, 14, 64])
def test_central_differences_at_the_edges_of_the_domain(n):
    # Every stencil point is the whole round trip at the point with one
    # entry replaced, on float columns at every N.  At points where b**2
    # overflows (1.5e154) at, before or after an entry, at zero and
    # subnormal entries, and where a strategy or a price round fails with
    # finite values, jacobian_fd on a bare round trip has the bits and the
    # errors of the array path.  Where it succeeds at a point inside the
    # domain, it meets the exact factor Jacobian within the FD bound.
    rng = np.random.default_rng(1818 + n)
    eq = equilibrium_from_params(ModelParams(n_periods=n))
    jacobians = (operators._strategy_jacobian, operators._pricing_jacobian)
    round_trips = (operators._strategy_round_trip, operators._pricing_round_trip)
    outcomes = set()
    for side, (operator, base) in enumerate(
        ((insider_policy_step, eq.beta.tolist()), (maker_policy_step, eq.lam.tolist()))
    ):
        wrapped = lambda x, p, op=operator: op(x, p)  # noqa: E731
        points = [base]
        for k in sorted({0, n // 2, n - 1}):
            for value in (0.0, 1.5e154, 1e-160, 5e-324):
                points.append(list(base))
                points[-1][k] = value
        # Far from the equilibrium the central differences lose accuracy
        # with the curvature (5.7e-7 of the largest entry, 2.8e4, seen at
        # N = 64), so these two points get the FD bound at 1e-6.
        far = [(np.array(base) * rng.uniform(*box, n)).tolist() for box in ((0.7, 1.3), (-2.0, 2.0))]
        if side == 0 and n > 1:
            # The last entry sets lam_N = lam_{N-1} / 4 to rounding, so round
            # N - 1 fails (1 - alpha_N lam_{N-1} = 0) with finite values.
            lam, sigma_sq = operators._maker_pass(base)
            target, prev = lam[-2] / 4.0, sigma_sq[-2]
            root = (prev + np.sqrt(prev * prev - 4.0 * target * target * prev)) / 2.0
            points.append([*base[:-1], float(root / (target * prev))])
            assert not operators._strategy_round_trip(points[-1])[2]
        if side == 1 and n > 2:
            # Round 2 of this price path fails (alpha_2 lam_1 = 1 to rounding).
            points.append(list(base))
            points[-1][1] = 1.0 / operators._insider_pass(base)[1][2]
            assert not operators._pricing_round_trip(points[-1])[2]
        for sigma_u in (1.0, 2.5):
            params = ModelParams(n_periods=n, sigma_u=sigma_u)
            scale = params._scales[side]
            for xs, bound in [*((xs, 1e-7) for xs in points), *((xs, 1e-6) for xs in far)]:
                x = [v * scale for v in xs]
                fast, slow = (_outcome(jacobian_fd, op, x, params) for op in (operator, wrapped))
                assert fast == slow, (side, xs)
                outcomes.add(fast if isinstance(fast, tuple) else bytes)
                if isinstance(fast, bytes) and round_trips[side](x, scale)[2]:
                    value, exact = jacobians[side](x, scale)
                    assert value == round_trips[side](x, scale)[0]
                    fd = jacobian_fd(operator, x, params)
                    if np.isfinite(exact).all():
                        assert np.max(np.abs(fd - exact)) <= bound * (1.0 + np.max(np.abs(exact)))
                    else:
                        # A tiny strategy entry: d beta / d lam overflows.
                        assert not np.isfinite(fd).all(), (side, xs)
    assert bytes in outcomes
    if n > 1:
        assert any(o[0] is StencilDomainError for o in outcomes if o is not bytes)


@pytest.mark.parametrize("n", [1, 3, 14, 64])
def test_factor_products_keep_structural_zeros_at_the_edges_of_the_domain(n):
    # At the edge points of the central-difference test, a factor entry can
    # overflow (a price entry of 1e-160 makes d beta / d lam of its round
    # infinite).  Each Jacobian entry must then be the sum of the terms
    # inside both triangles, as formed here entry by entry: the other
    # factor's structural zeros never turn it into NaN.  The strategy
    # side's factors, I' diag(lam) and diag(1 / lam) M', stay finite there.
    eq = equilibrium_from_params(ModelParams(n_periods=n))
    for side, base in enumerate((eq.beta.tolist(), eq.lam.tolist())):
        overflowed = 0
        for k in sorted({0, n // 2, n - 1}):
            for value in (0.0, 1.5e154, 1e-160, 5e-324):
                x = list(base)
                x[k] = value
                if side == 0:
                    lam, sigma_sq = operators._maker_pass(x)
                    _, alpha, _, inside = operators._insider_pass(lam)
                else:
                    beta, alpha, _, inside = operators._insider_pass(x)
                if not inside:
                    continue
                with np.errstate(all="ignore"):
                    if side == 0:
                        left = operators._insider_factor(lam, alpha, lam)
                        right = operators._maker_factor(x, sigma_sq, lam)
                        got = operators._strategy_jacobian(x)[1]
                    else:
                        ones = [1.0] * n
                        left = operators._maker_factor(beta, operators._maker_pass(beta)[1], ones)
                        right = operators._insider_factor(x, alpha, ones)
                        got = operators._pricing_jacobian(x)[1]
                    want = np.empty((n, n))
                    for i in range(n):
                        for j in range(n):
                            ks = range(max(i, j), n) if side == 0 else range(min(i, j) + 1)
                            want[i, j] = left[i, ks] @ right[ks, j]
                overflowed += not np.isfinite(left).all() or not np.isfinite(right).all()
                finite = np.isfinite(want)
                scale = max(np.max(np.abs(want[finite]), initial=0.0), 1.0)
                assert np.array_equal(got[~finite], want[~finite], equal_nan=True), (side, k, value)
                assert np.all(np.abs(got[finite] - want[finite]) <= 1e-13 * scale), (side, k, value)
        assert overflowed if side == 1 else not overflowed, (side, overflowed)


@pytest.mark.parametrize("n", [*range(1, 17), 64, 200])
def test_factor_jacobians_equal_the_complex_steps(n):
    # The products of the triangular factors, on both round trips, meet a
    # complex step through the whole round trip to rounding: at the
    # equilibrium and 1% off it, at beta scales 10^-8, 1 and 10^8.
    for sigma_u in (1e-8, 1.0, 1e8):
        params = ModelParams(n_periods=n, delta=0.37, sigma_u=2.9 * sigma_u, sigma0=0.013)
        eq = equilibrium_from_params(params)
        for side, (operator, path) in enumerate(
            ((insider_policy_step, eq.beta), (maker_policy_step, eq.lam))
        ):
            jacobian = (operators._strategy_jacobian, operators._pricing_jacobian)[side]
            for point in (path, path * (1.0 + 1e-2 * np.cos(np.arange(n)))):
                value, got = jacobian(point.tolist(), params._scales[side])
                assert value == operator(point, params).value.tolist()
                want = _exact_jacobian(operator, point, params)
                assert np.isfinite(got).all()
                assert _gap(got, want) <= 1e-13, (sigma_u, side, _gap(got, want))


@pytest.mark.parametrize("n", range(1, 65))
def test_both_round_trips_give_the_same_spectral_radius(n):
    # I o M and M o I share their nonzero spectrum, and classify_fixed_point
    # reads both Jacobians from the exact factors, so the radii agree to
    # rounding (at N = 1 both are 0).
    params = ModelParams(n_periods=n, delta=0.37, sigma_u=2.9, sigma0=0.013)
    eq = equilibrium_from_params(params)
    insider = classify_fixed_point(insider_policy_step, eq.beta, params)
    maker = classify_fixed_point(maker_policy_step, eq.lam, params)
    gap = abs(insider.spectral_radius - maker.spectral_radius)
    assert gap <= 1e-12 * max(insider.spectral_radius, maker.spectral_radius), (n, gap)
    assert insider.classification == maker.classification


def test_wrapper_bound_to_a_round_trip_name_is_called(monkeypatch, unit_params_n3):
    # Only the functions defined in operators skip the array boundary; a
    # wrapper bound to their name later (as a tracer binds one) is called for
    # the fixed-point check and each of the 2N stencil points of jacobian_fd,
    # with its bits.  The bare round trip takes the exact factor Jacobian.
    original = operators.insider_policy_step
    calls = []

    def wrapper(x, params):
        calls.append(1)
        return original(x, params)

    monkeypatch.setattr(operators, "insider_policy_step", wrapper)
    eq = equilibrium_from_params(unit_params_n3)
    via_wrapper = classify_fixed_point(wrapper, eq.beta, unit_params_n3)
    assert len(calls) == 7
    via_original = classify_fixed_point(original, eq.beta, unit_params_n3)
    assert len(calls) == 7
    fd = jacobian_fd(original, eq.beta, unit_params_n3)
    assert via_wrapper.jacobian.tobytes() == fd.tobytes()
    exact = jacobian_closed_form(eq.beta, unit_params_n3)
    assert _gap(via_original.jacobian, exact) <= 1e-13


@pytest.mark.parametrize("n", [1, 3, 8])
def test_functools_wrapper_of_a_round_trip_takes_the_factors(n):
    # A tracer wraps the round trips with functools.wraps.  The wrapper is
    # called like any other callable, once for the residual and 2N times by
    # jacobian_fd, and its central differences meet the exact Jacobian of the
    # round trip it wraps, so the report has the bits of the bare round trip.
    params = ModelParams(n_periods=n, delta=0.37, sigma_u=2.9, sigma0=0.013)
    eq = equilibrium_from_params(params)
    for operator, point in ((insider_policy_step, eq.beta), (maker_policy_step, eq.lam)):
        calls = []

        @functools.wraps(operator)
        def traced(x, p, op=operator):
            calls.append(1)
            return op(x, p)

        got, want = (classify_fixed_point(op, point, params) for op in (traced, operator))
        assert len(calls) == 1 + 2 * n
        assert got.jacobian.tobytes() == want.jacobian.tobytes()
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert repr(got.spectral_radius) == repr(want.spectral_radius)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_functools_wrapper_that_changes_the_map_keeps_its_differences(n):
    # A wrapper of a round trip that adds 0.5 (x - x*) keeps the fixed point
    # x* but moves the Jacobian by 0.5 I: the report is the wrapper's own
    # central differences, not the exact Jacobian of the map it wraps.
    params = ModelParams(n_periods=n, delta=0.37, sigma_u=2.9, sigma0=0.013)
    eq = equilibrium_from_params(params)
    for operator, point in ((insider_policy_step, eq.beta), (maker_policy_step, eq.lam)):

        @functools.wraps(operator)
        def shifted(x, p, op=operator, fixed=point):
            result = op(x, p)
            value = result.value + 0.5 * (np.asarray(x) - fixed)
            return operators.OperatorResult(value, result.in_domain, result.denominators)

        got = classify_fixed_point(shifted, point, params)
        assert got.jacobian.tobytes() == jacobian_fd(shifted, point, params).tobytes()
        moved = _exact_jacobian(operator, point, params) + 0.5 * np.eye(n)
        assert _gap(got.jacobian, moved) <= 1e-8


@pytest.mark.parametrize(
    "operator,name", [(insider_policy_step, "beta"), (maker_policy_step, "lam")]
)
def test_jacobian_fd_stencil_overflow_is_an_input_error(unit_params_n3, operator, name):
    # The largest float is finite, but its stencil point x + h is not; the
    # round trip rejects it as input, as the public operator does, also at
    # N = 64, where the stencil points are evaluated as rows.
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        jacobian_fd(operator, [1.7976931348623157e308, 1.0, 1.0], unit_params_n3)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        jacobian_fd(operator, [1.7976931348623157e308] + [1.0] * 63, ModelParams(n_periods=64))


def _random_points_up_to_two_rounds():
    """50 random (params, strategy) pairs each at N = 1 and 2, near the equilibrium."""
    rng = np.random.default_rng(43)
    for n in (1, 2):
        for _ in range(50):
            params = random_params(rng, n)
            beta = equilibrium_from_params(params).beta * rng.uniform(
                0.8, 1.2, size=n
            )
            yield params, beta


def _hand_jacobian(point, params: ModelParams) -> np.ndarray:
    """Hand-expanded Jacobian of the strategy round trip for 1 or 2 rounds.

    An oracle independent of the kernels: the round trip written out as a
    rational function of the strategy and differentiated by hand.
    """
    ds = params.delta * params.sigma0
    var_u = params.sigma_u**2
    if params.n_periods == 1:
        (b,) = point
        return np.array([[0.5 - var_u / (2.0 * ds * b * b)]])
    b1, b2 = point
    a = b1 * b1 * ds + var_u
    b_f = b1 * ds * (b1 - b2) ** 2 + var_u * (b1 - 2.0 * b2)
    c = b1 * ds * (b1 * b1 - 4.0 * b1 * b2 + b2 * b2) + var_u * (b1 - 4.0 * b2)
    a1 = 2.0 * b1 * ds
    bf1 = ds * ((b1 - b2) ** 2 + 2.0 * b1 * (b1 - b2)) + var_u
    bf2 = -2.0 * b1 * ds * (b1 - b2) - 2.0 * var_u
    c1 = (
        ds * (b1 * b1 - 4.0 * b1 * b2 + b2 * b2)
        + b1 * ds * (2.0 * b1 - 4.0 * b2)
        + var_u
    )
    c2 = b1 * ds * (-4.0 * b1 + 2.0 * b2) - 4.0 * var_u
    num = a * b_f
    den = ds * b1 * c
    num1 = a1 * b_f + a * bf1
    num2 = a * bf2
    den1 = ds * (c + b1 * c1)
    den2 = ds * b1 * c2
    j11 = (num1 * den - num * den1) / den**2
    j12 = (num2 * den - num * den2) / den**2
    j21 = b1 / b2
    j22 = 0.5 - (ds * b1 * b1 + var_u) / (2.0 * ds * b2 * b2)
    return np.array([[j11, j12], [j21, j22]])


def test_jacobian_closed_form_matches_fd_on_random_points():
    for params, beta in _random_points_up_to_two_rounds():
        closed = jacobian_closed_form(beta, params)
        fd = jacobian_fd(insider_policy_step, beta, params)
        # fd truncation error scales with the entry size.
        tol = 1e-7 * (1.0 + np.max(np.abs(closed)))
        assert np.max(np.abs(closed - fd)) <= tol


def test_jacobian_closed_form_matches_the_hand_algebra():
    # The factors have no truncation error, so the exact Jacobian meets the
    # hand-expanded one at rounding level.
    for params, beta in _random_points_up_to_two_rounds():
        closed = jacobian_closed_form(beta, params)
        tol = 1e-12 * (1.0 + np.max(np.abs(closed)))
        assert np.max(np.abs(closed - _hand_jacobian(beta, params))) <= tol


def test_jacobian_closed_form_any_n_matches_fd():
    params = ModelParams(n_periods=5, delta=0.37, sigma_u=2.9, sigma0=0.013)
    eq = equilibrium_from_params(params)
    for point in (eq.beta, eq.beta * (1.0 + 1e-2 * np.cos(np.arange(5)))):
        closed = jacobian_closed_form(point, params)
        assert closed.shape == (5, 5) and closed.flags.c_contiguous
        fd = jacobian_fd(insider_policy_step, point, params)
        assert np.max(np.abs(closed - fd)) <= 1e-7 * (1.0 + np.max(np.abs(closed)))


@pytest.mark.parametrize("n", [*range(1, 9), 16, 64])
def test_pinned_derivative_is_the_exact_jacobian_diagonal(n):
    # The pinned derivative sums row k of one factor times column k of the
    # other in O(N) floats, and the diagonal of jacobian_closed_form comes
    # from a matrix product, so the two need not share bits.  Each meets a
    # 50-digit complex step through the passes, and the two meet each other,
    # within 4e-15 max(1, |J_kk|), at unit, golden and beta-scale 1e-8 and
    # 1e8 parameters.
    mpmath = pytest.importorskip("mpmath")
    golden = {"delta": 0.37, "sigma_u": 2.9, "sigma0": 0.013}
    for scales in ({}, golden, {"sigma_u": 1e-8}, {"sigma_u": 1e8}):
        params = ModelParams(n_periods=n, **scales)
        eq = equilibrium_from_params(params)
        diagonal = np.diag(jacobian_closed_form(eq.beta, params)).tolist()
        pinned = [pinned_coordinate_derivative(k, params, eq) for k in range(1, n + 1)]
        s, _ = params._scales
        with mpmath.workdps(50):
            h = mpmath.mpf("1e-30")
            for k in range(n):
                x = [mpmath.mpf(b / s) for b in eq.beta.tolist()]
                x[k] = mpmath.mpc(x[k], h)
                want = operators._strategy_round_trip(x)[0][k].imag / h
                bound = 4e-15 * max(1.0, abs(float(want)))
                for got in (pinned[k], diagonal[k]):
                    assert abs(mpmath.mpf(got) - want) <= bound, (scales, k, got)
                assert abs(pinned[k] - diagonal[k]) <= bound, (scales, k)


@pytest.mark.parametrize("n", [1, 3, 8, 64])
def test_closed_form_is_the_classified_factor_product(n):
    # jacobian_closed_form returns the factor product of the strategy round
    # trip at x / s, and classify_fixed_point reports that product, bit for
    # bit, at the equilibrium (off it, classify_fixed_point rejects the point).
    params = ModelParams(n_periods=n, delta=0.37, sigma_u=2.9, sigma0=0.013)
    eq = equilibrium_from_params(params)
    s, _ = params._scales
    for point in (eq.beta, eq.beta * (1.0 + 1e-2 * np.cos(np.arange(n)))):
        closed = jacobian_closed_form(point, params)
        assert closed.tobytes() == operators._strategy_jacobian(point.tolist(), s)[1].tobytes()
    report = classify_fixed_point(insider_policy_step, eq.beta, params)
    assert jacobian_closed_form(eq.beta, params).tobytes() == report.jacobian.tobytes()


def _edge_points(base: list) -> list:
    """The point, 1.01 times it, and entries of +-1e-160, 1e-200, 1e-100 and
    5e-324 at coordinates 1, N // 2 + 1 and N."""
    n = len(base)
    points = [base, [1.01 * v for v in base]]
    for k in sorted({1, n // 2 + 1, n}):
        for value in (1e-160, -1e-160, 1e-200, 1e-100, 5e-324):
            points.append(list(base))
            points[-1][k - 1] = value
    return points


def _assert_meets_the_oracle(got: np.ndarray, round_trip, x: list) -> None:
    """No entry of ``got`` is NaN; each is within 1e-12 max(1, |J|) of a
    400-digit complex step through ``round_trip`` at ``x``, whose h = 1e-350
    is small against every entry; one that overflows there reads infinity
    with its sign."""
    mpmath = pytest.importorskip("mpmath")
    assert not np.isnan(got).any(), x
    with mpmath.workdps(400):
        h = mpmath.mpf("1e-350")
        for j in range(len(x)):
            values = [mpmath.mpf(v) for v in x]
            values[j] = mpmath.mpc(values[j], h)
            for i, image in enumerate(round_trip(values)[0]):
                want, entry = image.imag / h, float(got[i, j])
                if abs(want) > np.finfo(float).max:
                    assert entry == math.copysign(math.inf, want), (x, i, j)
                else:
                    assert abs(mpmath.mpf(entry) - want) <= 1e-12 * max(1, abs(want)), (x, i, j)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 14])
def test_jacobian_closed_form_meets_an_oracle_at_the_edges_of_the_domain(n):
    # At the edge points of the strategy inside the domain, jacobian_closed_form
    # meets a 400-digit oracle (58 points over these N); outside, it raises.
    pytest.importorskip("mpmath")
    params = ModelParams(n_periods=n)
    inside = 0
    for x in _edge_points(equilibrium_from_params(params).beta.tolist()):
        if not operators._strategy_round_trip(x)[2]:
            with pytest.raises(OutOfDomainError):
                jacobian_closed_form(x, params)
            continue
        inside += 1
        _assert_meets_the_oracle(jacobian_closed_form(x, params), operators._strategy_round_trip, x)
    assert inside >= 2


@pytest.mark.parametrize("n", [1, 2, 3, 5, 14])
def test_pricing_factors_meet_an_oracle_at_the_edges_of_the_domain(n):
    # The same points on the price path, where the pricing round trip is
    # inside the domain (22 points over these N).
    pytest.importorskip("mpmath")
    inside = 0
    for x in _edge_points(equilibrium_from_params(ModelParams(n_periods=n)).lam.tolist()):
        if operators._pricing_round_trip(x)[2]:
            inside += 1
            _assert_meets_the_oracle(operators._pricing_jacobian(x)[1], _pricing_passes, x)
    assert inside >= 2


@pytest.mark.parametrize("n", [2, 3, 8])
def test_pricing_factors_match_fd(n):
    # The factor product of the pricing round trip agrees with the central
    # stencil to 1e-9 of the largest entry (about 1.5e-10 seen).
    for scales in ({}, {"sigma_u": 1e-6}, {"sigma0": 1e6, "delta": 0.37}):
        params = ModelParams(n_periods=n, **scales)
        eq = equilibrium_from_params(params)
        _, scale_lam = params._scales
        for lam in (eq.lam, eq.lam * (1.0 + 1e-2 * np.cos(np.arange(n)))):
            exact = operators._pricing_jacobian(lam.tolist(), scale_lam)[1]
            fd = jacobian_fd(maker_policy_step, lam, params)
            assert np.max(np.abs(exact - fd)) <= 1e-9 * np.max(np.abs(exact)), scales
    # Stencils out of the domain: a zero price (the insider recursion stops)
    # and a tiny last price, whose strategy overflows the maker pass.  The
    # first column that does not move that entry raises.
    params = ModelParams(n_periods=n)
    xs = equilibrium_from_params(params).lam.tolist()
    for j, value in ((0, 0.0), (n - 1, 1e-160)):
        point = list(xs)
        point[j] = value
        with pytest.raises(StencilDomainError) as excinfo:
            jacobian_fd(maker_policy_step, point, params)
        assert excinfo.value.coordinate == (j + 1) % n + 1


@pytest.mark.parametrize("n", [3, 5, 8, 20])
def test_exact_jacobian_is_parameter_invariant(n):
    # At the equilibrium the Jacobian depends on N only, so exact Jacobians
    # at beta scales of 10^-8 and 10^8 equal the unit one up to rounding.
    unit = ModelParams(n_periods=n)
    reference = jacobian_closed_form(equilibrium_from_params(unit).beta, unit)
    for sigma_u, sigma0 in ((1e-8, 1.0), (1e8, 1.0), (1.0, 1e16), (1.0, 1e-16)):
        params = ModelParams(n_periods=n, sigma_u=sigma_u, sigma0=sigma0)
        jac = jacobian_closed_form(equilibrium_from_params(params).beta, params)
        gap = np.max(np.abs(jac - reference))
        assert gap <= 1e-12 * np.max(np.abs(reference)), (sigma_u, sigma0, gap)


def test_exact_derivatives_keep_the_overflow_verdicts(unit_params_n3):
    # beta_1**2 overflows in the maker pass, so the point is outside the
    # domain: the pinned derivative raises for its coordinate, the closed
    # form for the point.
    eq = equilibrium_from_params(unit_params_n3)
    beta = eq.beta.copy()
    beta[0] = 1.5e154
    overflowing = Equilibrium(beta=beta, lam=eq.lam, alpha=eq.alpha, sigma_sq=eq.sigma_sq)
    with pytest.raises(StencilDomainError) as excinfo:
        pinned_coordinate_derivative(1, unit_params_n3, overflowing)
    assert excinfo.value.coordinate == 1
    with pytest.raises(OutOfDomainError):
        jacobian_closed_form([1.5e154, 1.0], ModelParams(n_periods=2))


def test_exact_jacobian_matches_an_mpmath_oracle(unit_params_n3):
    # A complex step on mpmath values at 50 digits, from the b recursion
    # solved at that precision, run through the same kernels.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        squares = [mpmath.mpf(1)]
        for _ in range(2):
            s = squares[0]
            squares.insert(0, mpmath.findroot(lambda a: s * (1 - a) ** 2 * (1 + a) - a, 0.3))
        beta, variance = [], mpmath.mpf(1)
        for square in squares:
            beta.append(mpmath.sqrt(square / variance))
            variance /= 1 + square
        h = mpmath.mpf("1e-30")
        columns = []
        for j in range(3):
            x = [mpmath.mpc(b) for b in beta]
            x[j] += mpmath.mpc(0, h)
            image = operators._strategy_round_trip(x)[0]
            columns.append([v.imag / h for v in image])
        oracle = mpmath.matrix(columns).T
        spectrum = sorted(mpmath.eig(oracle, left=False, right=False), key=abs, reverse=True)
        assert abs(spectrum[0] - mpmath.mpf(EIG_EQ_N3_DIGITS[0])) <= 1e-19
        assert abs(spectrum[1] - mpmath.mpf(EIG_EQ_N3_DIGITS[1])) <= 1e-19
        oracle = np.array(oracle.tolist(), dtype=float)
    jac = jacobian_closed_form(equilibrium_from_params(unit_params_n3).beta, unit_params_n3)
    assert np.max(np.abs(jac - oracle)) <= 1e-14
    ev = eigenvalues(jac)
    assert np.max(np.abs(ev[:2] - np.array(EIG_EQ_N3_DIGITS, dtype=float))) <= 1e-12


def test_jacobian_closed_form_two_round_reference(unit_params_n2):
    eq = equilibrium_from_params(unit_params_n2)
    jac = jacobian_closed_form(eq.beta, unit_params_n2)
    assert abs(jac[0, 0] - (-0.981214)) <= 1e-6
    assert abs(jac[1, 0] - 0.554958) <= 1e-6
    assert abs(jac[0, 1]) <= 1e-12
    assert abs(jac[1, 1]) <= 1e-12


def test_jacobian_closed_form_single_round(unit_params_n1):
    eq = equilibrium_from_params(unit_params_n1)
    assert abs(jacobian_closed_form(eq.beta, unit_params_n1)[0, 0]) <= 1e-14
    # T'(beta) = 1/2 - sigma_u^2 / (2 delta Sigma_0 beta^2) away from the
    # fixed point.
    jac = jacobian_closed_form([2.0], unit_params_n1)
    assert abs(jac[0, 0] - (0.5 - 1.0 / 8.0)) <= 1e-12


def test_jacobian_closed_form_errors(unit_params_n3, unit_params_n2):
    with pytest.raises(ValueError):
        jacobian_closed_form(EQ_BETA_N3, unit_params_n2)
    with pytest.raises(OutOfDomainError):
        jacobian_closed_form([0.5, 0.0], unit_params_n2)


def test_eigenvalues_identity():
    assert np.allclose(eigenvalues(np.eye(3)), np.ones(3))


def test_eigenvalues_similarity_transform_recovery():
    rng = np.random.default_rng(47)
    for _ in range(50):
        spectrum = rng.uniform(-3.0, 3.0, size=3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        matrix = q @ np.diag(spectrum) @ q.T
        got = np.sort_complex(eigenvalues(matrix))
        want = np.sort_complex(spectrum.astype(complex))
        assert np.max(np.abs(got - want)) <= 1e-9


def test_eigenvalues_conjugate_pair():
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    ev = eigenvalues(rotation)
    assert np.allclose(sorted(ev.imag), [-1.0, 1.0])


def test_eigenvalues_ordering_descending_magnitude():
    rng = np.random.default_rng(53)
    for _ in range(20):
        ev = eigenvalues(rng.normal(size=(5, 5)))
        mags = np.abs(ev)
        assert np.all(np.diff(mags) <= 1e-12)


def test_eigenvalues_validation():
    with pytest.raises(ValueError):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((65, 65)))


def test_eigenvalues_table_reference(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    ev_eq = eigenvalues(jacobian_fd(insider_policy_step, eq.beta, unit_params_n3))
    assert np.max(np.abs(ev_eq - EIG_EQ_N3)) <= 1e-4
    ev_second = eigenvalues(
        jacobian_fd(insider_policy_step, SECOND_FP_N3, unit_params_n3)
    )
    assert np.max(np.abs(ev_second - EIG_SECOND_N3)) <= 1e-4


def test_classification_bands():
    assert classify_spectral_radius(0.0) == "super_attractive"
    assert classify_spectral_radius(1e-7) == "super_attractive"
    assert classify_spectral_radius(0.5) == "attractive"
    assert classify_spectral_radius(1.0) == "neutral"
    assert classify_spectral_radius(1.0 + 2e-6) == "repellent"
    with pytest.raises(ValueError):
        classify_spectral_radius(-0.1)
    with pytest.raises(ValueError):
        classify_spectral_radius(0.5, eps_class=0.0)
    # NaN, infinities and negatives raise ValueError, as Python floats and
    # as numpy scalars alike; so does a NaN band.
    for value in (float("nan"), float("inf"), -float("inf"), -0.1):
        for kind in (float, np.float64):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                classify_spectral_radius(kind(value))
    with pytest.raises(ValueError, match="eps_class"):
        classify_spectral_radius(0.5, eps_class=float("nan"))
    assert classify_spectral_radius(np.float64(0.5)) == "attractive"


def test_classify_unit_models():
    for n, expected in ((1, "super_attractive"), (2, "attractive"), (3, "repellent")):
        params = ModelParams(n_periods=n)
        eq = equilibrium_from_params(params)
        report = classify_fixed_point(insider_policy_step, eq.beta, params)
        assert report.classification == expected
        assert abs(report.spectral_radius - np.abs(report.eigenvalues[0])) <= 1e-14


def test_classify_second_fixed_point_attractive(unit_params_n3):
    report = classify_fixed_point(insider_policy_step, SECOND_FP_N3, unit_params_n3)
    assert report.classification == "attractive"


def test_classify_rejects_non_fixed_point(unit_params_n3):
    with pytest.raises(NotAFixedPointError):
        classify_fixed_point(
            insider_policy_step, EQ_BETA_N3 + 0.1, unit_params_n3
        )


def test_classify_out_of_domain_point(unit_params_n3):
    with pytest.raises(OutOfDomainError):
        classify_fixed_point(insider_policy_step, np.zeros(3), unit_params_n3)


def test_contraction_certificate_two_rounds(unit_params_n2):
    eq = equilibrium_from_params(unit_params_n2)
    report = classify_fixed_point(insider_policy_step, eq.beta, unit_params_n2)
    assert report.inf_norm <= 0.99


def test_repulsion_certificate():
    for n in range(3, 9):
        params = ModelParams(n_periods=n)
        eq = equilibrium_from_params(params)
        report = classify_fixed_point(insider_policy_step, eq.beta, params)
        assert report.spectral_radius > 1.0


def test_maker_side_spectral_radii():
    params = ModelParams(n_periods=2)
    eq = equilibrium_from_params(params)
    report = classify_fixed_point(maker_policy_step, eq.lam, params)
    assert report.spectral_radius < 1.0
    for n in range(3, 7):
        params = ModelParams(n_periods=n)
        eq = equilibrium_from_params(params)
        report = classify_fixed_point(maker_policy_step, eq.lam, params)
        assert report.spectral_radius > 1.0


@pytest.mark.parametrize("n", [*range(1, 9), 16])
@pytest.mark.parametrize(
    "scales", [{}, dict(delta=0.37, sigma_u=2.9, sigma0=0.013)], ids=["unit", "skewed"]
)
def test_round_trips_share_spectral_radius(n, scales):
    # The round trips are I o M (strategy side) and M o I (pricing side), so
    # their Jacobians at the equilibrium share the nonzero spectrum.  At N=1
    # the spectrum is {0} and both radii are finite-difference noise, so
    # the tolerance is relative to max(rho, 1).
    params = ModelParams(n_periods=n, **scales)
    eq = equilibrium_from_params(params)
    rho_insider = abs(eigenvalues(jacobian_fd(insider_policy_step, eq.beta, params))[0])
    rho_maker = abs(eigenvalues(jacobian_fd(maker_policy_step, eq.lam, params))[0])
    assert abs(rho_insider - rho_maker) <= 1e-8 * max(rho_insider, 1.0)


def test_pinned_derivative_stencil_domain_error():
    # The second entry is zero, so every stencil point for coordinate 1 (and
    # 3) leaves the domain of the strategy round trip.
    params = ModelParams(n_periods=3)
    outside = Equilibrium(
        beta=[0.5, 0.0, 1.3], lam=np.zeros(3), alpha=np.zeros(3), sigma_sq=np.ones(4)
    )
    for coord in (1, 3):
        with pytest.raises(StencilDomainError) as excinfo:
            pinned_coordinate_derivative(coord, params, outside)
        assert excinfo.value.coordinate == coord


def test_pinned_derivative_reference_third_last():
    values = {}
    for n, k in ((3, 1), (4, 2), (5, 3)):
        params = ModelParams(n_periods=n)
        values[n] = pinned_coordinate_derivative(k, params)
        assert abs(values[n] - PINNED_DERIV_THIRD_LAST) <= 1e-4
    # N-invariance far below the acceptance tolerance.
    spread = max(values.values()) - min(values.values())
    assert spread <= 1e-6


def test_pinned_derivative_parameter_invariance():
    rng = np.random.default_rng(59)
    reference = pinned_coordinate_derivative(1, ModelParams(n_periods=3))
    for _ in range(2):
        params = random_params(rng, 3)
        value = pinned_coordinate_derivative(1, params)
        assert abs(value - reference) <= 1e-6


def test_pinned_derivative_last_coordinate_zero():
    for n in (3, 4, 5):
        params = ModelParams(n_periods=n)
        assert abs(pinned_coordinate_derivative(n, params)) <= 1e-8
    assert abs(pinned_coordinate_derivative(1, ModelParams(n_periods=1))) <= 1e-8


def test_pinned_derivative_second_last(unit_params_n3):
    value = pinned_coordinate_derivative(2, unit_params_n3)
    assert abs(value - PINNED_DERIV_SECOND_LAST) <= 1e-6


def test_pinned_derivative_coord_validation(unit_params_n3):
    with pytest.raises(ValueError):
        pinned_coordinate_derivative(0, unit_params_n3)
    with pytest.raises(ValueError):
        pinned_coordinate_derivative(4, unit_params_n3)


def test_linearized_iteration_diverges_with_reference_growth(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    x_hat = float(eq.beta[0])
    trace = linearized_pinned_iteration(x_hat + 1e-6, 1, unit_params_n3, eq=eq)
    assert trace.verdict == "diverged"
    gaps = [abs(x - x_hat) for x in trace.iterates[:10]]
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    for ratio in ratios:
        assert abs(ratio - abs(PINNED_DERIV_THIRD_LAST)) <= 1e-3


def test_linearized_iteration_constant_at_fixed_point(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    x_hat = float(eq.beta[0])
    trace = linearized_pinned_iteration(x_hat, 1, unit_params_n3, eq=eq)
    assert trace.verdict == "converged"
    assert trace.iterations_used == 1
    assert abs(trace.limit - x_hat) <= 1e-10


@pytest.mark.parametrize("start", [math.inf, math.nan])
def test_linearized_iteration_rejects_a_non_finite_start(unit_params_n3, start):
    with pytest.raises(ValueError, match="start must be finite"):
        linearized_pinned_iteration(start, 1, unit_params_n3)


def test_linearized_iteration_last_coordinate_one_step(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    x_hat = float(eq.beta[2])
    trace = linearized_pinned_iteration(x_hat + 0.5, 3, unit_params_n3, eq=eq)
    assert trace.verdict == "converged"
    assert trace.iterations_used <= 2
    assert abs(trace.limit - x_hat) <= 1e-8


# The beta scale sigma_u / sqrt(sigma0 delta) at 10^-8 and 10^8, reached
# through sigma_u and through sigma0.
@pytest.mark.parametrize(
    "sigma_u,sigma0", [(1e-8, 1.0), (1e8, 1.0), (1.0, 1e16), (1.0, 1e-16)]
)
def test_stability_facts_at_extreme_beta_scales(sigma_u, sigma0):
    # The paper's facts depend on N only.
    pinned_want = (0.0, PINNED_DERIV_SECOND_LAST, PINNED_DERIV_THIRD_LAST)
    for n in range(1, 9):
        params = ModelParams(n_periods=n, sigma_u=sigma_u, sigma0=sigma0)
        eq = equilibrium_from_params(params)
        insider = classify_fixed_point(insider_policy_step, eq.beta, params)
        want = {1: "super_attractive", 2: "attractive"}.get(n, "repellent")
        assert insider.classification == want, n
        rho = classify_fixed_point(maker_policy_step, eq.lam, params).spectral_radius
        assert rho < 1.0 if n <= 2 else rho > 1.0, (n, rho)
        for offset, value in enumerate(pinned_want[:n]):
            got = pinned_coordinate_derivative(n - offset, params, eq)
            assert abs(got - value) <= 1e-6, (n, offset, got)
