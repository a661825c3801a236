"""Fixed-point iteration and local stability diagnostics.

The iteration driver plays a policy map repeatedly and reports one of four
verdicts: ``converged`` (successive iterates within a relative tolerance),
``diverged`` (sup norm above a blowup threshold), ``left_domain`` (the map
reported an out-of-domain point), or ``max_iter``.  Local analysis around a
fixed point goes through the Jacobian: central finite differences for the
general case, closed forms for one- and two-round models, eigenvalues by
the standard dense solver (balancing, Hessenberg reduction, shifted QR),
and a classification of the spectral radius.

Scalar diagnostics for pinned-coordinate restrictions of the strategy map
live here too: a five-point central-difference derivative and the
iteration of the tangent-line model.

Both difference stencils use one step rule: the step for entry j is
``c * |x_j|``, so it follows the size of the point and not its units (see
:func:`_relative_steps`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import Equilibrium, ModelParams, equilibrium_from_params
from .operators import insider_policy_step, pinned_coordinate_step

__all__ = [
    "VERDICT_CONVERGED",
    "VERDICT_DIVERGED",
    "VERDICT_LEFT_DOMAIN",
    "VERDICT_MAX_ITER",
    "StencilDomainError",
    "OutOfDomainError",
    "NotAFixedPointError",
    "IterationTrace",
    "StabilityReport",
    "iterate",
    "iterate_scalar",
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


@dataclass(frozen=True)
class IterationTrace:
    """Record of one iteration run.

    ``iterates`` starts with the initial point and ends with the last point
    visited; when the run is longer than the retention cap the middle is
    dropped and ``truncated`` is set.  ``limit`` is the final iterate for a
    ``converged`` verdict and None otherwise.  ``iterations_used`` counts
    applications of the map.
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


class _Trace:
    """Head-and-tail retention of visited points."""

    def __init__(self, cap: int):
        head_cap = cap // 2
        self.head: list = []
        self.head_cap = head_cap
        self.tail: deque = deque(maxlen=cap - head_cap)
        self.dropped = 0

    def record(self, x) -> None:
        if len(self.head) < self.head_cap:
            self.head.append(x)
        else:
            if len(self.tail) == self.tail.maxlen:
                self.dropped += 1
            self.tail.append(x)

    def finish(self) -> tuple[list, bool]:
        return self.head + list(self.tail), self.dropped > 0


def _check_iteration_config(tol: float, max_iter: int, blowup: float, trace_cap: int):
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not blowup > 0.0:
        raise ValueError("blowup must be positive")
    if trace_cap < 2:
        raise ValueError("trace_cap must be at least 2")


def iterate(
    operator,
    start,
    params: ModelParams,
    *,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    blowup: float = 1e8,
    trace_cap: int = 1000,
) -> IterationTrace:
    """Iterate a policy map from ``start`` until a verdict is reached.

    Parameters
    ----------
    operator : callable
        Map ``(vector, params) -> OperatorResult``, e.g.
        :func:`~kyle_stability.operators.insider_policy_step`.
    start : array_like
        Finite initial vector of length ``params.n_periods``.
    params : ModelParams
        Market primitives passed through to the operator.
    tol : float
        Convergence test: sup-norm step at most ``tol * (1 + |new|_inf)``.
    max_iter : int
        Verdict ``max_iter`` after this many applications.
    blowup : float
        Verdict ``diverged`` once the sup norm exceeds this.
    trace_cap : int
        Retention cap for the iterate trace.

    Returns
    -------
    IterationTrace
    """
    _check_iteration_config(tol, max_iter, blowup, trace_cap)
    x = np.asarray(start, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("start must be finite")
    trace = _Trace(trace_cap)
    trace.record(x.copy())
    verdict = VERDICT_MAX_ITER
    limit = None
    used = max_iter
    for m in range(1, max_iter + 1):
        result = operator(x, params)
        if not result.in_domain:
            trace.record(np.array(result.value, dtype=float))
            verdict, used = VERDICT_LEFT_DOMAIN, m
            break
        x_new = np.asarray(result.value, dtype=float)
        trace.record(x_new.copy())
        norm = float(np.max(np.abs(x_new)))
        if norm > blowup:
            verdict, used = VERDICT_DIVERGED, m
            break
        if float(np.max(np.abs(x_new - x))) <= tol * (1.0 + norm):
            verdict, limit, used = VERDICT_CONVERGED, x_new.copy(), m
            break
        x = x_new
    iterates, truncated = trace.finish()
    return IterationTrace(
        iterates=iterates,
        verdict=verdict,
        limit=limit,
        iterations_used=used,
        truncated=truncated,
    )


def iterate_scalar(
    step,
    start: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    blowup: float = 1e8,
    trace_cap: int = 1000,
) -> IterationTrace:
    """Scalar counterpart of :func:`iterate`.

    ``step`` maps float to float; a non-finite return is treated as leaving
    the domain.
    """
    _check_iteration_config(tol, max_iter, blowup, trace_cap)
    x = float(start)
    if not math.isfinite(x):
        raise ValueError("start must be finite")
    trace = _Trace(trace_cap)
    trace.record(x)
    verdict = VERDICT_MAX_ITER
    limit = None
    used = max_iter
    for m in range(1, max_iter + 1):
        x_new = step(x)
        trace.record(x_new)
        if not math.isfinite(x_new):
            verdict, used = VERDICT_LEFT_DOMAIN, m
            break
        if abs(x_new) > blowup:
            verdict, used = VERDICT_DIVERGED, m
            break
        if abs(x_new - x) <= tol * (1.0 + abs(x_new)):
            verdict, limit, used = VERDICT_CONVERGED, x_new, m
            break
        x = x_new
    iterates, truncated = trace.finish()
    return IterationTrace(
        iterates=iterates,
        verdict=verdict,
        limit=limit,
        iterations_used=used,
        truncated=truncated,
    )


def _relative_steps(x: np.ndarray, scale: float) -> np.ndarray:
    """Per-entry difference step ``scale * |x_j|``.

    A zero entry falls back to ``scale * max|x|``, and to ``scale`` itself
    when the whole vector is zero.
    """
    size = np.abs(x)
    fallback = float(size.max(initial=0.0)) or 1.0
    return scale * np.where(size > 0.0, size, fallback)


def jacobian_fd(operator, point, params: ModelParams) -> np.ndarray:
    """Jacobian of a policy map by central finite differences.

    Per-coordinate step ``h_j = cbrt(eps) * |x_j|`` (see
    :func:`_relative_steps`).  Raises :class:`StencilDomainError` naming
    the (1-based) coordinate whose stencil leaves the domain.
    """
    x = np.asarray(point, dtype=float)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError("point must be a finite vector")
    n = x.size
    jac = np.empty((n, n))
    steps = _relative_steps(x, _FD_STEP)
    for j in range(n):
        h = steps[j]
        x_plus = x.copy()
        x_plus[j] += h
        x_minus = x.copy()
        x_minus[j] -= h
        res_plus = operator(x_plus, params)
        res_minus = operator(x_minus, params)
        if not (res_plus.in_domain and res_minus.in_domain):
            raise StencilDomainError(j + 1)
        jac[:, j] = (np.asarray(res_plus.value) - np.asarray(res_minus.value)) / (
            2.0 * h
        )
    return jac


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
    finite differences.
    """
    x = np.asarray(point, dtype=float)
    result = operator(x, params)
    if not result.in_domain:
        raise OutOfDomainError("point is outside the operator domain")
    residual = float(np.max(np.abs(np.asarray(result.value) - x)))
    if residual > fixed_point_tol * (1.0 + float(np.max(np.abs(x)))):
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
    ``h = eps^(1/5) |x|`` of :func:`_relative_steps`; a stencil point
    outside the operator domain raises :class:`StencilDomainError`.
    """
    if eq is None:
        eq = equilibrium_from_params(params)
    n = params.n_periods
    if not 1 <= coord <= n:
        raise ValueError("coord must be between 1 and n_periods")
    x = float(eq.beta[coord - 1])
    h = float(_relative_steps(eq.beta, _PINNED_STEP)[coord - 1])
    f_m2, f_m1, f_p1, f_p2 = (
        pinned_coordinate_step(x + k * h, coord, eq, params) for k in (-2, -1, 1, 2)
    )
    if not all(math.isfinite(f) for f in (f_m2, f_m1, f_p1, f_p2)):
        raise StencilDomainError(coord)
    return (f_m2 - 8.0 * f_m1 + 8.0 * f_p1 - f_p2) / (12.0 * h)


def linearized_pinned_iteration(
    start: float,
    coord: int,
    params: ModelParams,
    *,
    eq: Equilibrium | None = None,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    blowup: float = 1e8,
    trace_cap: int = 1000,
) -> IterationTrace:
    """Iterate the tangent-line model of the pinned-coordinate map.

    The step is ``x -> c + s (x - x_hat)`` where ``x_hat`` is the pinned
    equilibrium coordinate, ``c`` its image under the pinned map and ``s``
    the five-point difference derivative there
    (:func:`pinned_coordinate_derivative`).
    """
    if eq is None:
        eq = equilibrium_from_params(params)
    n = params.n_periods
    if not 1 <= coord <= n:
        raise ValueError("coord must be between 1 and n_periods")
    x_hat = float(eq.beta[coord - 1])
    center = pinned_coordinate_step(x_hat, coord, eq, params)
    slope = pinned_coordinate_derivative(coord, params, eq)

    def step(x: float) -> float:
        return center + slope * (x - x_hat)

    return iterate_scalar(
        step, start, tol=tol, max_iter=max_iter, blowup=blowup, trace_cap=trace_cap
    )
