"""Discrete-time Kyle (1985) equilibrium in closed form.

The model has N auction rounds of length ``delta``.  An informed trader
observes the asset value (variance ``sigma0``) and trades against noise
volume with instantaneous variance ``sigma_u ** 2``.  The linear equilibrium
is a path of trading intensities ``beta``, price-impact coefficients
``lam``, value-function curvatures ``alpha`` and residual variances
``sigma_sq`` coupled through a forward/backward recursion system.

All parameter dependence factors through a single parameter-free backward
recursion for coefficients ``b_1 .. b_N`` with ``b_N = 1``: each backward
step solves a cubic with a unique root in (0, 1).  The equilibrium for
arbitrary parameters is an explicit rescaling of that solution, which is
what :func:`equilibrium_from_params` computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "BCoefficients",
    "Equilibrium",
    "RecursionReport",
    "solve_b_recursion",
    "equilibrium_from_params",
    "implied_b",
    "verify_kyle_recursions",
]

@dataclass(frozen=True)
class ModelParams:
    """Market primitives for an N-round model.

    Parameters
    ----------
    n_periods : int
        Number of auction rounds N, at least 1.
    delta : float
        Length of one round.  Positive.
    sigma_u : float
        Noise-trade volatility per unit time.  Positive.
    sigma0 : float
        Prior variance of the asset value.  Positive.
    """

    n_periods: int
    delta: float = 1.0
    sigma_u: float = 1.0
    sigma0: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_periods, (int, np.integer)) or isinstance(
            self.n_periods, bool
        ):
            raise ValueError("n_periods must be an integer")
        if self.n_periods < 1:
            raise ValueError("n_periods must be at least 1")
        for name in ("delta", "sigma_u", "sigma0"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and positive")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n_periods", int(self.n_periods))


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BCoefficients:
    """Solution of the parameter-free backward recursion.

    ``b`` holds ``b_1 .. b_N`` with ``b_N = 1`` and all earlier entries in
    (0, 1).  The same vector serves every parameter combination with the
    same number of rounds.
    """

    b: np.ndarray

    def __post_init__(self) -> None:
        arr = _readonly(self.b)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("b must be a nonempty vector")
        if arr[-1] != 1.0:
            raise ValueError("terminal coefficient must be exactly 1")
        if arr.size > 1 and not (np.all(arr[:-1] > 0.0) and np.all(arr[:-1] < 1.0)):
            raise ValueError("interior coefficients must lie in (0, 1)")
        object.__setattr__(self, "b", arr)

    @property
    def n_periods(self) -> int:
        return int(self.b.size)


@dataclass(frozen=True)
class Equilibrium:
    """Equilibrium coefficient paths for one parameter set.

    Attributes
    ----------
    beta : ndarray, shape (N,)
        Insider trading intensities, ``beta[i]`` for round i + 1.
    lam : ndarray, shape (N,)
        Price-impact coefficients.
    alpha : ndarray, shape (N,)
        Value-function curvatures ``alpha_1 .. alpha_N``; the terminal
        entry is exactly 0.  The pre-trade value ``alpha_0`` is not stored
        here; it is reproduced by the insider-response recursion.
    sigma_sq : ndarray, shape (N + 1,)
        Residual variance path ``Sigma_0 .. Sigma_N``.
    """

    beta: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray
    sigma_sq: np.ndarray

    def __post_init__(self) -> None:
        beta = _readonly(self.beta)
        lam = _readonly(self.lam)
        alpha = _readonly(self.alpha)
        sigma_sq = _readonly(self.sigma_sq)
        n = beta.size
        if lam.size != n or alpha.size != n or sigma_sq.size != n + 1:
            raise ValueError("coefficient paths have inconsistent lengths")
        for name, arr in (
            ("beta", beta),
            ("lam", lam),
            ("alpha", alpha),
            ("sigma_sq", sigma_sq),
        ):
            object.__setattr__(self, name, arr)

    @property
    def n_periods(self) -> int:
        return int(self.beta.size)


def _step_gap(a: float, s: float) -> float:
    """Backward-step cubic ``s (1 - a)^2 (1 + a) - a`` in ``a = b_prev^2``."""
    return s * (1.0 - a) ** 2 * (1.0 + a) - a


def _step_gap_slope(a: float, s: float) -> float:
    return s * (3.0 * a * a - 2.0 * a - 1.0) - 1.0


def _backward_step(s: float) -> float:
    """One backward step: given ``s = b_n^2``, return ``b_{n-1}^2``.

    Newton's method on the step cubic, started at ``a = 1/3``.  The gap is
    decreasing on (0, 1), concave left of 1/3 and convex right of it, so
    the iterates move monotonically onto the root from that start and stay
    inside (0, 1).  The loop stops once a Newton step no longer shrinks,
    which is where rounding noise takes over.
    """
    a = 1.0 / 3.0
    last = math.inf
    while True:
        step = _step_gap(a, s) / _step_gap_slope(a, s)
        if not abs(step) < last:
            return a
        a -= step
        last = abs(step)


def solve_b_recursion(n_periods: int) -> BCoefficients:
    """Solve the parameter-free backward recursion for ``n_periods`` rounds.

    Parameters
    ----------
    n_periods : int
        Number of rounds N, at least 1.

    Returns
    -------
    BCoefficients
        Coefficients ``b_1 .. b_N`` with ``b_N = 1``; each interior square
        ``a = b_{n-1}^2`` is the unique (0, 1) root of
        ``b_n^2 (1 - a)^2 (1 + a) = a``, found by Newton's method.

    Raises
    ------
    ValueError
        If ``n_periods`` is not a positive integer.
    """
    if not isinstance(n_periods, (int, np.integer)) or isinstance(n_periods, bool):
        raise ValueError("n_periods must be an integer")
    if n_periods < 1:
        raise ValueError("n_periods must be at least 1")
    squares = np.empty(n_periods)
    squares[-1] = 1.0
    for n in range(n_periods - 1, 0, -1):
        squares[n - 1] = _backward_step(squares[n])
    return BCoefficients(b=np.sqrt(squares))


def equilibrium_from_params(
    params: ModelParams, coeffs: BCoefficients | None = None
) -> Equilibrium:
    """Construct the equilibrium coefficient paths for one parameter set.

    Parameters
    ----------
    params : ModelParams
        Market primitives.
    coeffs : BCoefficients, optional
        Precomputed parameter-free coefficients for ``params.n_periods``
        rounds.  Solved on the fly when omitted.

    Returns
    -------
    Equilibrium
        Paths satisfying the full recursion system: the variance path is
        ``Sigma_n = Sigma_{n-1} / (1 + b_n^2)``, intensities rescale as
        ``beta_n = b_n sigma_u / sqrt(Sigma_{n-1} delta)``, price impacts
        follow the projection formula, and the curvature path is rebuilt
        backwards from the terminal condition ``alpha_N = 0``.

    Raises
    ------
    ValueError
        If ``coeffs`` is supplied with a mismatched number of rounds.
    """
    if coeffs is None:
        coeffs = solve_b_recursion(params.n_periods)
    elif coeffs.n_periods != params.n_periods:
        raise ValueError("coefficient vector does not match n_periods")

    n = params.n_periods
    delta = params.delta
    var_u = params.sigma_u**2
    b = coeffs.b

    beta = np.empty(n)
    lam = np.empty(n)
    sigma_sq = np.empty(n + 1)
    sigma_sq[0] = params.sigma0
    for i in range(n):
        prev = sigma_sq[i]
        beta[i] = b[i] * params.sigma_u / np.sqrt(prev * delta)
        sigma_sq[i + 1] = prev * var_u / (beta[i] ** 2 * prev * delta + var_u)
        lam[i] = beta[i] * sigma_sq[i + 1] / var_u

    alpha = np.empty(n)
    alpha[-1] = 0.0
    for i in range(n - 1, 0, -1):
        alpha[i - 1] = 1.0 / (4.0 * lam[i] * (1.0 - alpha[i] * lam[i]))

    return Equilibrium(beta=beta, lam=lam, alpha=alpha, sigma_sq=sigma_sq)


def implied_b(eq: Equilibrium, params: ModelParams) -> np.ndarray:
    """Recover the parameter-free coefficients from an equilibrium.

    Inverts the rescaling used by :func:`equilibrium_from_params`:
    ``b_n = beta_n sqrt(Sigma_{n-1} delta) / sigma_u``.  Equilibria for any
    two parameter sets with the same number of rounds share this vector.
    """
    return eq.beta * np.sqrt(eq.sigma_sq[:-1] * params.delta) / params.sigma_u


@dataclass(frozen=True)
class RecursionReport:
    """Residuals of the equilibrium recursion system, one family at a time.

    ``residuals`` maps family name (``"lambda"``, ``"sigma"``, ``"alpha"``,
    ``"beta"``) to the largest equation residual in that family, relative
    to the size of the quantity the equation defines.
    ``ok`` is True when every residual is within ``tol`` and the
    second-order condition ``alpha_n lam_n < 1`` holds in every round.
    """

    ok: bool
    residuals: dict
    second_order_ok: bool
    tol: float

    def __bool__(self) -> bool:
        return self.ok


def _relative_gap(value: float, defined: float) -> float:
    """``|value - defined|`` in units of ``|defined|``.

    0 when the two agree exactly; infinite when ``defined`` is 0 or either
    side is NaN, so that ``max`` over a family cannot drop the failure.
    """
    gap = abs(value - defined)
    if gap == 0.0:
        return 0.0
    if math.isnan(gap) or not defined:
        return math.inf
    return gap / abs(defined)


def verify_kyle_recursions(
    eq: Equilibrium, params: ModelParams, tol: float = 1e-10
) -> RecursionReport:
    """Check candidate coefficient paths against the full recursion system.

    Parameters
    ----------
    eq : Equilibrium
        Candidate paths.  Lengths must match ``params.n_periods``.
    params : ModelParams
        Market primitives the paths are checked against.
    tol : float
        Relative residual tolerance per equation.

    Returns
    -------
    RecursionReport
        Truthy when all four equation families hold within ``tol`` and the
        second-order condition is satisfied.  The curvature family is
        checked for rounds 2 .. N (the stored path starts at ``alpha_1``)
        together with the terminal condition ``alpha_N = 0``, judged
        through the dimensionless product ``alpha_N lam_N``.

    Raises
    ------
    ValueError
        On dimension mismatch between ``eq`` and ``params``.
    """
    n = params.n_periods
    if eq.n_periods != n:
        raise ValueError("equilibrium paths do not match n_periods")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    delta = params.delta
    var_u = params.sigma_u**2
    beta, lam, alpha, sigma_sq = eq.beta, eq.lam, eq.alpha, eq.sigma_sq

    sigma_res = _relative_gap(sigma_sq[0], params.sigma0)
    lam_res = 0.0
    alpha_res = abs(alpha[-1] * lam[-1])
    beta_res = 0.0
    second_order = True

    for i in range(n):
        prev = sigma_sq[i]
        den = beta[i] ** 2 * prev * delta + var_u
        lam_res = max(lam_res, _relative_gap(lam[i], beta[i] * prev / den))
        sigma_res = max(sigma_res, _relative_gap(sigma_sq[i + 1], prev * var_u / den))
        u = 1.0 - alpha[i] * lam[i]
        if not alpha[i] * lam[i] < 1.0:
            second_order = False
        if lam[i] * u == 0.0:
            # Degenerate candidate: the fixed-point equations are undefined.
            beta_res = np.inf
            if i > 0:
                alpha_res = np.inf
            continue
        beta_res = max(
            beta_res,
            _relative_gap(
                beta[i], (1.0 - 2.0 * alpha[i] * lam[i]) / (2.0 * delta * lam[i] * u)
            ),
        )
        if i > 0:
            alpha_res = max(
                alpha_res, _relative_gap(alpha[i - 1], 1.0 / (4.0 * lam[i] * u))
            )

    residuals = {
        "lambda": lam_res,
        "sigma": sigma_res,
        "alpha": alpha_res,
        "beta": beta_res,
    }
    ok = second_order and all(r <= tol for r in residuals.values())
    return RecursionReport(
        ok=ok, residuals=residuals, second_order_ok=second_order, tol=tol
    )
