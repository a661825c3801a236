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
adapter on float lists (``operators._list_map``).  For the two round trips,
:func:`~kyle_stability.operators.insider_policy_step` and
:func:`~kyle_stability.operators.maker_policy_step`, the adapter runs the
float passes directly, without building arrays or an ``OperatorResult``
per step or stencil point, and gives the same bits; a wrapper around
either is any other callable and is called at every point.

Local analysis around a fixed point goes through the Jacobian: central
finite differences for the general case, closed forms for one- and
two-round models, eigenvalues by the standard dense solver (balancing,
Hessenberg reduction, shifted QR), and a classification of the spectral
radius.

Scalar diagnostics for pinned-coordinate restrictions of the strategy map
live here too: a five-point central-difference derivative and the
iteration of the tangent-line model.

Both difference stencils use one step rule: the step for entry j is
``c * |x_j|``, so it follows the size of the point and not its units (see
:func:`_relative_step`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import itemgetter, sub

import numpy as np

from .model import Equilibrium, ModelParams, equilibrium_from_params
from .operators import _list_map, _pinned_map, insider_policy_step

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

# Relative step scales that balance truncation against rounding error:
# eps^(1/3) for the two-point central stencil, eps^(1/5) for the five-point.
_EPS = float(np.finfo(float).eps)
_FD_STEP = _EPS ** (1.0 / 3.0)
_PINNED_STEP = _EPS ** (1.0 / 5.0)
_EIG_MAX_SIZE = 64
# An iteration trace keeps the first and the last _TRACE_HALF iterates.
_TRACE_HALF = 500


class StencilDomainError(RuntimeError):
    """A finite-difference stencil point fell outside the operator domain."""

    def __init__(self, coordinate: int):
        super().__init__(
            f"stencil for coordinate {coordinate} leaves the operator domain"
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
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
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
    x = np.asarray(start, dtype=float)
    if x.ndim != 1:
        raise ValueError("start must be a vector")
    step = _list_map(operator, params)
    return _iterate(step, x.tolist(), np.array, tol=tol, max_iter=max_iter, blowup=blowup)


def _relative_step(x: list, j: int, scale: float) -> float:
    """Difference step ``scale * |x_j|`` for entry ``j`` of a float list.

    A zero entry falls back to ``scale * max|x|``, and to ``scale`` itself
    when the whole vector is zero.
    """
    return scale * (abs(x[j]) or max(map(abs, x)) or 1.0)


def jacobian_fd(operator, point, params: ModelParams) -> np.ndarray:
    """Jacobian of a policy map by central finite differences.

    Per-coordinate step ``h_j = cbrt(eps) * |x_j|`` (see
    :func:`_relative_step`).  Any callable ``(vector, params) ->
    OperatorResult`` works; the two round trips of
    :mod:`~kyle_stability.operators` run on their float passes without
    building arrays per stencil point, and reject a stencil point that
    overflows to infinity with ``ValueError``, as their public form does.
    Raises :class:`StencilDomainError` naming the (1-based) coordinate
    whose stencil leaves the domain.
    """
    x = np.asarray(point, dtype=float)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError("point must be a finite vector")
    step = _list_map(operator, params)
    xs = x.tolist()
    n = len(xs)
    steps = [_relative_step(xs, j, _FD_STEP) for j in range(n)]
    plus, minus = [], []
    for j, h in enumerate(steps):
        x_plus = xs.copy()
        x_plus[j] += h
        x_minus = xs.copy()
        x_minus[j] -= h
        f_plus, f_minus = step(x_plus), step(x_minus)
        if not all(map(math.isfinite, f_plus + f_minus)):
            raise StencilDomainError(j + 1)
        plus.append(f_plus)
        minus.append(f_minus)
    # Row j of plus - minus is column j of the Jacobian; the reshape keeps
    # an empty point 0 x 0.  The result is laid out in C order, because
    # numpy's row sums (the inf norm) associate differently on a transpose.
    jac = np.subtract(plus, minus).reshape(n, n).T / (2.0 * np.array(steps))
    return np.ascontiguousarray(jac)


def jacobian_closed_form(point, params: ModelParams) -> np.ndarray:
    """Analytic Jacobian of the strategy round trip for 1 or 2 rounds.

    Raises
    ------
    ValueError
        For more than 2 rounds; no closed form is maintained there.
    OutOfDomainError
        When ``point`` is outside the map's domain.
    """
    n = params.n_periods
    if n > 2:
        raise ValueError("closed-form Jacobian is only available for 1 or 2 rounds")
    x = np.asarray(point, dtype=float)
    if x.size != n or not np.all(np.isfinite(x)):
        raise ValueError("point must be a finite vector matching n_periods")
    if not insider_policy_step(x, params).in_domain:
        raise OutOfDomainError("point is outside the operator domain")

    ds = params.delta * params.sigma0
    var_u = params.sigma_u**2
    if n == 1:
        b = x[0]
        return np.array([[0.5 - var_u / (2.0 * ds * b * b)]])

    b1, b2 = x
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
    fixed_point_tol: float = 1e-8,
) -> StabilityReport:
    """Linearize a policy map at a fixed point and classify it.

    ``point`` must actually be fixed: one application of the map has to
    return it within ``fixed_point_tol`` in relative sup norm, otherwise
    :class:`NotAFixedPointError` is raised.  The Jacobian is taken by
    finite differences (:func:`jacobian_fd`).  Any callable ``(vector,
    params) -> OperatorResult`` works; the two round trips of
    :mod:`~kyle_stability.operators` run on their float passes without
    building arrays per evaluation.
    """
    x = np.asarray(point, dtype=float)
    if x.ndim != 1:
        raise ValueError("point must be a vector")
    xs = x.tolist()
    image = _list_map(operator, params)(xs)
    if not all(map(math.isfinite, image)):
        raise OutOfDomainError("point is outside the operator domain")
    residual = max(map(abs, map(sub, image, xs)))
    if residual > fixed_point_tol * (1.0 + max(map(abs, xs))):
        raise NotAFixedPointError(
            f"map moves the point by {residual:.3e} in sup norm"
        )
    jac = jacobian_fd(operator, x, params)
    ev = eigenvalues(jac)
    rho = float(np.abs(ev[0])) if ev.size else 0.0
    inf_norm = float(np.max(np.sum(np.abs(jac), axis=1)))
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
    supplied.  Uses the five-point central stencil
    ``(f(x-2h) - 8 f(x-h) + 8 f(x+h) - f(x+2h)) / (12 h)`` with the step
    ``h = eps^(1/5) |x|`` of :func:`_relative_step`; a stencil point
    outside the operator domain raises :class:`StencilDomainError`.
    """
    if eq is None:
        eq = equilibrium_from_params(params)
    pinned = _pinned_map(coord, eq, params)
    beta = eq.beta.tolist()
    x = beta[coord - 1]
    h = _relative_step(beta, coord - 1, _PINNED_STEP)
    f_m2, f_m1, f_p1, f_p2 = (pinned([x + k * h])[0] for k in (-2, -1, 1, 2))
    if not all(math.isfinite(f) for f in (f_m2, f_m1, f_p1, f_p2)):
        raise StencilDomainError(coord)
    return (f_m2 - 8.0 * f_m1 + 8.0 * f_p1 - f_p2) / (12.0 * h)


def linearized_pinned_iteration(
    start: float, coord: int, params: ModelParams, *, eq: Equilibrium | None = None
) -> IterationTrace:
    """Iterate the tangent-line model of the pinned-coordinate map.

    The step is ``x -> c + s (x - x_hat)`` where ``x_hat`` is the pinned
    equilibrium coordinate, ``c`` its image under the pinned map and ``s``
    the five-point difference derivative there
    (:func:`pinned_coordinate_derivative`).  The run uses the defaults of
    :func:`iterate` (tol 1e-12, max_iter 10,000, blowup 1e8) and its trace
    holds floats.
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
