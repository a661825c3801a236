"""Iteration driver, Jacobians, eigenvalues, classification, scalar tools."""

from __future__ import annotations

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
    pinned_coordinate_derivative,
)

from conftest import (
    EIG_EQ_N3,
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
    with pytest.raises(ValueError):
        iterate(insider_policy_step, EQ_BETA_N3, unit_params_n3, blowup=-1.0)


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


def test_jacobian_fd_relative_step_at_zero_entries():
    # A zero entry takes the step cbrt(eps) * max|x|; an all-zero point
    # takes cbrt(eps) itself.
    rng = np.random.default_rng(61)
    a = rng.normal(size=(3, 3))
    params = ModelParams(n_periods=3)
    cbrt_eps = np.finfo(float).eps ** (1.0 / 3.0)
    for point, zero_step in (
        (np.array([0.3, 0.0, -1.2]), cbrt_eps * 1.2),
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
            want = zero_step if point[j] == 0.0 else cbrt_eps * abs(point[j])
            assert abs((x_plus[j] - point[j]) - want) <= 1e-15 * (1.0 + abs(point[j]))


def test_jacobian_closed_form_matches_fd_on_random_points():
    rng = np.random.default_rng(43)
    for n in (1, 2):
        for _ in range(50):
            params = random_params(rng, n)
            beta = equilibrium_from_params(params).beta * rng.uniform(
                0.8, 1.2, size=n
            )
            closed = jacobian_closed_form(beta, params)
            fd = jacobian_fd(insider_policy_step, beta, params)
            # fd truncation error scales with the entry size.
            tol = 1e-7 * (1.0 + np.max(np.abs(closed)))
            assert np.max(np.abs(closed - fd)) <= tol


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
        jacobian_closed_form(EQ_BETA_N3, unit_params_n3)
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
