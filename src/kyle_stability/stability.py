"""Fixed-point iteration and local stability diagnostics.

One loop runs every iteration.  It plays a step map on lists of Python
floats and reports one of four verdicts: ``converged`` (successive iterates
within a relative tolerance), ``diverged`` (sup norm above a blowup
threshold), ``left_domain`` (the step returned a non-finite entry), or
``max_iter``.  :func:`iterate` plays any vector policy map on it (a result
with ``in_domain=False`` counts as leaving the domain) and returns float64
arrays; the pinned-coordinate battery and :func:`linearized_pinned_iteration`
run it on one-element lists and return floats.  A trace keeps the first and
the last 500 iterates.

:func:`iterate`, :func:`jacobian_fd` and :func:`classify_fixed_point` take
any callable ``(vector, params) -> OperatorResult`` and see it through one
adapter on float lists, ``operators._list_map``, after the operators' own
input check (``operators._as_floats``).  For the two round trips,
:func:`~kyle_stability.operators.insider_policy_step` and
:func:`~kyle_stability.operators.maker_policy_step`, the adapter runs the
float passes directly, without building arrays or an ``OperatorResult``
per step or stencil point, and gives the same bits; a wrapper around
either is any other callable and is called at every point.

Local analysis around a fixed point goes through the Jacobian: central
finite differences for any policy map, exact complex steps for the
strategy round trip, exact triangular factors for the classification of
both round trips, eigenvalues by the standard dense solver (balancing,
Hessenberg reduction, shifted QR), and a classification of the spectral
radius.  Scalar diagnostics for pinned-coordinate restrictions of the
strategy map live here too: the exact derivative and the iteration of the
tangent-line model.

Both derivative rules stack one column per entry j in C order: a central
difference (:func:`_central_difference`) or a complex step
(:func:`_complex_step`), which runs the float kernels unchanged on Python
``complex`` values and reads ``f'(x) = Im f(x + i h) / h``: no
difference, so no cancellation (Squire & Trapp, SIAM Review 40, 1998).
Both take the step ``c * |x_j|``, which follows the size of the point and
not its units (see :func:`_relative_step`).  A column rule evaluates the
whole map at the point with entry ``j`` replaced.
:func:`classify_fixed_point` needs neither on the two round trips: it
reads their exact Jacobians from the factor products
``operators._strategy_jacobian`` and ``_pricing_jacobian``, one numpy
sweep per pass.
"""

from __future__ import annotations

import inspect
import math
from collections import deque
from dataclasses import dataclass
from operator import itemgetter, sub

import numpy as np

from .model import Equilibrium, ModelParams, _count, _scales, equilibrium_from_params
from .operators import _as_floats, _list_map, _pinned_map, _round_trip_of, _strategy_round_trip

__all__ = [
    "VERDICT_CONVERGED",
    "VERDICT_DIVERGED",
    "VERDICT_LEFT_DOMAIN",
    "VERDICT_MAX_ITER",
    "StencilDomainError",
    "OutOfDomainError",
    "NotAFixedPointError",
    "NotConvergedError",
    "IterationTrace",
    "StabilityReport",
    "iterate",
    "jacobian_fd",
    "jacobian_closed_form",
    "eigenvalues",
    "classify_spectral_radius",
    "classify_fixed_point",
    "pinned_coordinate_derivative",
    "linearized_pinned_iteration",
]

VERDICT_CONVERGED = "converged"
VERDICT_DIVERGED = "diverged"
VERDICT_LEFT_DOMAIN = "left_domain"
VERDICT_MAX_ITER = "max_iter"

# Relative step scales: eps^(1/3) balances truncation against rounding in
# the central stencil; a complex step takes no difference, so h can be tiny.
_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)
_CS_STEP = 1e-20
# classify_fixed_point: the relative sup-norm move a fixed point may show.
_FIXED_POINT_TOL = 1e-8
# classify_fixed_point: how far the exact Jacobian of the round trip a wrapper
# wraps may sit from the wrapper's central differences, relative to 1 plus
# their largest entry, for the exact one to be reported.  At the equilibria of
# N = 1..64 the stencil error stays below 3e-9.
_WRAPPER_FD_TOL = 1e-7
_EIG_MAX_SIZE = 64
# An iteration trace keeps the first and the last _TRACE_HALF iterates.
_TRACE_HALF = 500


class StencilDomainError(RuntimeError):
    """A stencil point or complex step along ``coordinate`` (1-based) left the domain."""

    def __init__(self, coordinate: int):
        super().__init__(
            f"derivative step for coordinate {coordinate} leaves the operator domain"
        )
        self.coordinate = coordinate


class OutOfDomainError(RuntimeError):
    """An evaluation point is outside the operator domain."""


class NotAFixedPointError(ValueError):
    """The point handed to a fixed-point analysis is not fixed by the map."""


class NotConvergedError(RuntimeError):
    """An iteration whose limit a result needs ended without converging."""


@dataclass(frozen=True)
class IterationTrace:
    """Record of one iteration run.

    ``iterates`` starts with the initial point and ends with the last point
    visited; a run of more than 1000 points keeps only the first and the
    last 500, and ``truncated`` is set.  ``limit`` is the final iterate for
    a ``converged`` verdict and None otherwise.  ``iterations_used`` counts
    applications of the map.  Points are float64 arrays from
    :func:`iterate` and floats from the pinned-coordinate runs.
    """

    iterates: list
    verdict: str
    limit: object
    iterations_used: int
    truncated: bool = False


@dataclass(frozen=True)
class StabilityReport:
    """Local linearization data at a fixed point."""

    jacobian: np.ndarray
    eigenvalues: np.ndarray
    spectral_radius: float
    inf_norm: float
    classification: str


def _iterate(step, x: list, entry, *, tol=1e-12, max_iter=10_000, blowup=1e8) -> IterationTrace:
    """The iteration loop: play ``step`` from ``x`` until a verdict.

    ``step`` maps a list of floats to a list of floats; a non-finite entry
    means the step left the domain.  ``entry`` turns a list into a point of
    the returned trace.  Points are converted as they are recorded: a trace
    of live lists would keep the cyclic garbage collector running during
    long runs.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    max_iter = _count(max_iter, "max_iter", 1)
    if not blowup > 0.0:
        raise ValueError("blowup must be positive")
    if not all(map(math.isfinite, x)):
        raise ValueError("start must be finite")
    head = [entry(x)]
    tail: deque = deque(maxlen=_TRACE_HALF)
    verdict, limit, used = VERDICT_MAX_ITER, None, max_iter
    for m in range(1, max_iter + 1):
        x_new = step(x)
        # Before this append the head holds the start and m - 1 iterates.
        (head if m < _TRACE_HALF else tail).append(entry(x_new))
        if not all(map(math.isfinite, x_new)):
            verdict, used = VERDICT_LEFT_DOMAIN, m
            break
        norm = max(map(abs, x_new))
        if norm > blowup:
            verdict, used = VERDICT_DIVERGED, m
            break
        if max(map(abs, map(sub, x_new, x))) <= tol * (1.0 + norm):
            verdict, limit, used = VERDICT_CONVERGED, entry(x_new), m
            break
        x = x_new
    head.extend(tail)
    return IterationTrace(
        iterates=head,
        verdict=verdict,
        limit=limit,
        iterations_used=used,
        truncated=used + 1 > 2 * _TRACE_HALF,
    )


def iterate(
    operator,
    start,
    params: ModelParams,
    *,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    blowup: float = 1e8,
) -> IterationTrace:
    """Iterate a policy map from ``start`` until a verdict is reached.

    Parameters
    ----------
    operator : callable
        Map ``(vector, params) -> OperatorResult``, e.g.
        :func:`~kyle_stability.operators.insider_policy_step`; a result
        with ``in_domain=False`` ends the run as ``left_domain``.  The two
        round trips run on their float passes, without the array boundary.
    start : array_like
        Finite 1-D initial vector of length ``params.n_periods``; anything
        else raises ``ValueError``.
    params : ModelParams
        Market primitives passed through to the operator.
    tol : float
        Convergence test: sup-norm step at most ``tol * (1 + |new|_inf)``.
    max_iter : int
        Verdict ``max_iter`` after this many applications.
    blowup : float
        Verdict ``diverged`` once the sup norm exceeds this.

    Returns
    -------
    IterationTrace
        With float64 arrays for the iterates and the limit.
    """
    x = _as_floats(start, params.n_periods, "start")
    step = _list_map(operator, params)
    return _iterate(step, x, np.array, tol=tol, max_iter=max_iter, blowup=blowup)


def _relative_step(x: list, j: int, scale: float) -> float:
    """Derivative step ``scale * |x_j|`` for entry ``j`` of a float list.

    Where that is zero (a zero entry, or a step that underflows) it falls
    back to ``scale * max|x|``, and then to ``scale`` itself, so a step is
    never zero.
    """
    return scale * abs(x[j]) or scale * max(map(abs, x)) or scale


def _replaced(xs: list, j: int, v) -> list:
    values = xs.copy()
    values[j] = v
    return values


def _central_difference(step, xs: list, j: int, name: str = "point") -> list:
    """Column ``j`` of the Jacobian at ``xs`` of ``step``, a map on float lists.

    ``(f(x + h e_j) - f(x - h e_j)) / 2h`` with ``h = cbrt(eps) |x_j|``
    (see :func:`_relative_step`), each point the whole map at ``xs`` with
    entry ``j`` replaced; the plus point is evaluated first.  ``xs`` is
    finite, so only the replaced entry is checked: one that overflows
    raises ``ValueError`` ("``name`` must be finite").  A non-finite image
    entry raises :class:`StencilDomainError` for entry ``j + 1``.
    """
    h = _relative_step(xs, j, _FD_STEP)
    plus, minus = xs[j] + h, xs[j] - h
    if not (math.isfinite(plus) and math.isfinite(minus)):
        raise ValueError(f"{name} must be finite")
    f_plus = step(_replaced(xs, j, plus))
    f_minus = step(_replaced(xs, j, minus))
    if not all(map(math.isfinite, f_plus + f_minus)):
        raise StencilDomainError(j + 1)
    width = 2.0 * h
    return [(p - m) / width for p, m in zip(f_plus, f_minus)]


def _complex_step(step, xs: list, j: int) -> list:
    """Column ``j`` of the Jacobian at ``xs`` of ``step``, a map on lists.

    ``Im f(x + i h e_j) / h`` with ``h = 1e-20 |x_j|`` (see
    :func:`_relative_step`), exact to rounding, from the whole map at
    ``xs`` with entry ``j`` replaced.  An image entry whose real or imaginary
    part is not finite, or an ``OverflowError`` (``abs`` of a complex
    number raises it on overflow, and in CPython on a NaN after an earlier
    overflow), raises :class:`StencilDomainError` for entry ``j + 1``.
    """
    h = _relative_step(xs, j, _CS_STEP)
    try:
        values = step(_replaced(xs, j, complex(xs[j], h)))
    except OverflowError:
        raise StencilDomainError(j + 1) from None
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values):
        raise StencilDomainError(j + 1)
    return [v.imag / h for v in values]


def _columns(rule, step, xs: list, *args) -> np.ndarray:
    """The Jacobian of one column ``rule`` per entry, stacked in C order."""
    return np.array([rule(step, xs, j, *args) for j in range(len(xs))], order="F").T


def jacobian_fd(operator, point, params: ModelParams) -> np.ndarray:
    """Jacobian of a policy map by central finite differences.

    One :func:`_central_difference` per column, step ``cbrt(eps) * |x_j|``,
    stacked in C order.  Any callable ``(vector, params) ->
    OperatorResult`` works; the two round trips of
    :mod:`~kyle_stability.operators` run on their float passes without
    building arrays per stencil point.  A stencil point that overflows to
    infinity raises ``ValueError``, named as the public operator names its
    input (``beta``, ``lam``; ``point`` for any other callable).  A point
    that is not a finite vector of length ``params.n_periods`` raises
    ``ValueError``.  Raises :class:`StencilDomainError` naming the
    (1-based) coordinate whose stencil leaves the domain.
    """
    xs = _as_floats(point, params.n_periods, "point")
    found = _round_trip_of(operator)
    name = "point" if found is None else found[2]
    return _columns(_central_difference, _list_map(operator, params), xs, name)


def _unit_point(point, params: ModelParams, name: str) -> list:
    """A strategy vector checked and divided by s, where the complex steps are taken."""
    xs = _as_floats(point, params.n_periods, name)
    s, _ = _scales(params)
    return [x / s for x in xs]


def _unit_strategy_map(values: list) -> list:
    """The strategy round trip in unit parameters, on floats or complex values."""
    return _strategy_round_trip(values)[0]


def jacobian_closed_form(point, params: ModelParams) -> np.ndarray:
    """Exact Jacobian of the strategy round trip, for any number of rounds.

    One complex step per column (:func:`_complex_step`) through the float
    passes of :func:`~kyle_stability.operators.insider_policy_step`, in unit
    parameters at ``x / s``: ``T_p(x) = s T_1(x / s)``, so ``J_p(x) = J_1(x
    / s)``, and there the step stays a normal float at every scale.

    Raises
    ------
    ValueError
        When ``point`` is not a finite vector of length ``params.n_periods``.
    OutOfDomainError
        When ``point`` is outside the map's domain.
    StencilDomainError
        When a complex step leaves the domain from a point inside it.
    """
    xs = _unit_point(point, params, "point")
    if not all(map(math.isfinite, _unit_strategy_map(xs))):
        raise OutOfDomainError("point is outside the operator domain")
    return _columns(_complex_step, _unit_strategy_map, xs)


def eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a square matrix, sorted by descending magnitude.

    Accepts matrices up to 64 x 64 with finite entries; delegates to the
    dense nonsymmetric solver.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.shape[0] < 1 or m.shape[0] > _EIG_MAX_SIZE:
        raise ValueError(f"matrix size must be between 1 and {_EIG_MAX_SIZE}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    ev = np.linalg.eigvals(m)
    order = np.argsort(-np.abs(ev), kind="stable")
    return ev[order]


def classify_spectral_radius(rho: float, eps_class: float = 1e-6) -> str:
    """Stability class of a spectral radius with a neutrality band."""
    if not (np.isfinite(rho) and rho >= 0.0):
        raise ValueError("spectral radius must be finite and nonnegative")
    if not 0.0 < eps_class < 1.0:
        raise ValueError("eps_class must be in (0, 1)")
    if rho <= eps_class:
        return "super_attractive"
    if rho < 1.0 - eps_class:
        return "attractive"
    if rho > 1.0 + eps_class:
        return "repellent"
    return "neutral"


def classify_fixed_point(
    operator,
    point,
    params: ModelParams,
    *,
    eps_class: float = 1e-6,
) -> StabilityReport:
    """Linearize a policy map at a fixed point and classify it.

    ``point`` must actually be fixed: one application of the map has to
    return it within 1e-8 in relative sup norm, otherwise
    :class:`NotAFixedPointError` is raised; one that is not a finite vector
    of length ``params.n_periods`` raises ``ValueError``.  The residual
    comes from one evaluation of the map at the point.  The two round trips
    of :mod:`~kyle_stability.operators` take their exact Jacobian from the
    product of their triangular factors (``operators._strategy_jacobian``,
    ``_pricing_jacobian``).  Any other callable ``(vector, params) ->
    OperatorResult`` takes it by finite differences (:func:`jacobian_fd`).
    A wrapper whose ``__wrapped__`` chain (``functools.wraps``) ends at a
    round trip is measured that way too; where its central differences
    meet the round trip's exact Jacobian to 1e-7 of 1 plus the largest
    entry, the exact one is reported, so wrapping a round trip (to time or
    log it) keeps every bit of the report.  A wrapper that changes the map
    by more keeps its own differences.
    """
    xs = _as_floats(point, params.n_periods, "point")
    fixed = _list_map(operator, params)(xs)
    if not all(map(math.isfinite, fixed)):
        raise OutOfDomainError("point is outside the operator domain")
    residual = max(map(abs, map(sub, fixed, xs)))
    if residual > _FIXED_POINT_TOL * max(map(abs, xs)):
        raise NotAFixedPointError(
            f"map moves the point by {residual:.3e} in sup norm"
        )
    found = _round_trip_of(operator)
    if found is not None:
        _, jacobian, _, side = found
        jac = jacobian(xs, _scales(params)[side])
    else:
        jac = jacobian_fd(operator, xs, params)
        wrapped = _round_trip_of(inspect.unwrap(operator))
        if wrapped is not None:
            _, jacobian, _, side = wrapped
            exact = jacobian(xs, _scales(params)[side])
            bound = _WRAPPER_FD_TOL * (1.0 + np.max(np.abs(jac)))
            with np.errstate(all="ignore"):  # a non-finite entry fails the test
                if np.max(np.abs(exact - jac)) <= bound:
                    jac = exact
    ev = eigenvalues(jac)
    rho = float(np.abs(ev[0])) if ev.size else 0.0
    inf_norm = float(np.abs(jac).sum(axis=1).max())
    return StabilityReport(
        jacobian=jac,
        eigenvalues=ev,
        spectral_radius=rho,
        inf_norm=inf_norm,
        classification=classify_spectral_radius(rho, eps_class),
    )


def pinned_coordinate_derivative(
    coord: int, params: ModelParams, eq: Equilibrium | None = None
) -> float:
    """Derivative of the pinned-coordinate strategy map at the equilibrium.

    ``coord`` is 1-based.  The equilibrium is solved on the fly when not
    supplied.  It is the diagonal entry of :func:`jacobian_closed_form` at
    ``eq.beta``, taken by the same complex step along coordinate ``coord``
    alone.  A step outside the operator domain raises
    :class:`StencilDomainError`.
    """
    if eq is None:
        eq = equilibrium_from_params(params)
    if _count(coord, "coord", 1) > params.n_periods:
        raise ValueError("coord must be between 1 and n_periods")
    xs = _unit_point(eq.beta, params, "beta")
    return _complex_step(_unit_strategy_map, xs, coord - 1)[coord - 1]


def linearized_pinned_iteration(
    start: float, coord: int, params: ModelParams, *, eq: Equilibrium | None = None
) -> IterationTrace:
    """Iterate the tangent-line model of the pinned-coordinate map.

    The step is ``x -> c + s (x - x_hat)`` where ``x_hat`` is the pinned
    equilibrium coordinate, ``c`` its image under the pinned map and ``s``
    the exact derivative there (:func:`pinned_coordinate_derivative`).  The
    run uses the defaults of :func:`iterate` (tol 1e-12, max_iter 10,000,
    blowup 1e8) and its trace holds floats.
    """
    if eq is None:
        eq = equilibrium_from_params(params)
    pinned = _pinned_map(coord, eq, params)
    x_hat = float(eq.beta[coord - 1])
    center = pinned([x_hat])[0]
    slope = pinned_coordinate_derivative(coord, params, eq)
    return _iterate(
        lambda xs: [center + slope * (xs[0] - x_hat)], [float(start)], itemgetter(0)
    )
