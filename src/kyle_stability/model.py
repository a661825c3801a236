"""Discrete-time Kyle (1985) equilibrium in closed form.

The model has N auction rounds of length ``delta``.  An informed trader
observes the asset value (variance ``sigma0``) and trades against noise
volume with instantaneous variance ``sigma_u ** 2``.  The linear equilibrium
is a path of trading intensities ``beta``, price-impact coefficients
``lam``, value-function curvatures ``alpha`` and residual variances
``sigma_sq`` coupled through a forward/backward recursion system.

All parameter dependence factors through a single parameter-free backward
recursion for coefficients ``b_1 .. b_N`` with ``b_N = 1``: each backward
step solves a cubic with a unique root in (0, 1).  The paths at unit
parameters are built from ``b`` once per N and cached; any parameter set
only scales them, and the checks divide the same scales out, so no
parameter enters a recursion.  The two scales ``(s, L)`` are computed once
per :class:`ModelParams` (by ``_scale_pair``, while it validates them) and
kept on the instance as ``params._scales``, outside its dataclass fields.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

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

    The scales ``s = sigma_u / sqrt(sigma0 delta)`` and ``L = sqrt(sigma0 /
    delta) / sigma_u`` must both be normal floats.  They are computed once,
    here, and kept as the pair ``_scales``: an attribute, not a field, so
    equality, hashing, ``repr`` and :func:`dataclasses.fields` see the four
    inputs alone, and :func:`dataclasses.replace` computes them again.
    """

    n_periods: int
    delta: float = 1.0
    sigma_u: float = 1.0
    sigma0: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_periods", _count(self.n_periods, "n_periods", 1))
        for name in ("delta", "sigma_u", "sigma0"):
            try:
                value = float(getattr(self, name))
            except OverflowError:  # an int beyond float range
                value = math.inf
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive")
            object.__setattr__(self, name, value)
        try:
            scales = _scale_pair(self)
            normal = min(scales) >= sys.float_info.min
        except OverflowError:
            normal = False
        if not normal:
            raise ValueError(
                "sigma_u / sqrt(sigma0 delta) and sqrt(sigma0 / delta) / sigma_u must lie in "
                f"[{sys.float_info.min:.4g}, {sys.float_info.max:.4g}], the normal floats"
            )
        object.__setattr__(self, "_scales", scales)


def _count(value, name: str, low: int) -> int:
    """``value`` as an int; it must be an integer, not a bool, and at least ``low``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")
    if value < low:
        raise ValueError(f"{name} must be at least {low}")
    return int(value)


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
        for name in ("beta", "lam", "alpha", "sigma_sq"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        n = self.beta.size
        if self.lam.size != n or self.alpha.size != n or self.sigma_sq.size != n + 1:
            raise ValueError("coefficient paths have inconsistent lengths")

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
    n_periods = _count(n_periods, "n_periods", 1)
    squares = np.empty(n_periods)
    squares[-1] = 1.0
    for n in range(n_periods - 1, 0, -1):
        squares[n - 1] = _backward_step(squares[n])
    return BCoefficients(b=np.sqrt(squares))


def _root(x: float) -> tuple[float, int]:
    """``(r, e)`` with ``sqrt(x) = r 2**e``, ``r`` in [0.7, 1.5): the root of the mantissa."""
    m, e = math.frexp(x)
    return math.sqrt(math.ldexp(m, e % 2)), e // 2


def _scale_pair(params: ModelParams) -> tuple[float, float]:
    """``(s, L)``: ``beta``, ``lam``, ``alpha`` and ``sigma_sq`` are the unit paths
    times ``s = sigma_u / (sqrt(sigma0) sqrt(delta))``, ``L = sqrt(sigma0) /
    (sqrt(delta) sigma_u)``, ``1 / L`` and ``sigma0``.

    The mantissas and the powers of two are combined apart, so no
    intermediate underflows or overflows, and the bits are those of the
    direct quotients wherever these stay normal.  Raises ``OverflowError``
    when a scale overflows.  :class:`ModelParams` calls it once, admits only
    parameter sets whose two scales are normal floats, and keeps the pair
    as ``params._scales``, which every other caller reads.
    """
    r0, e0 = _root(params.sigma0)
    rd, ed = _root(params.delta)
    u, eu = math.frexp(params.sigma_u)
    return math.ldexp(u / (r0 * rd), eu - e0 - ed), math.ldexp(r0 / (rd * u), e0 - ed - eu)


@lru_cache(maxsize=128)
def _unit_equilibrium(n_periods: int) -> tuple:
    """Read-only ``(b, beta, lam, alpha, sigma_sq)`` at ``delta = sigma_u = sigma0 = 1``.

    ``beta_n = b_n / sqrt(Sigma_{n-1})``, ``Sigma_n = Sigma_{n-1} /
    (beta_n^2 Sigma_{n-1} + 1)``, ``lam_n = beta_n Sigma_n``, then ``alpha``
    backwards from ``alpha_N = 0``: the general rescaling with its unit
    factors dropped, so the bits are those of a direct unit solve.
    """
    b = solve_b_recursion(n_periods).b
    beta, lam, sigma_sq = [], [], [1.0]
    for b_n in b.tolist():
        prev = sigma_sq[-1]
        beta.append(b_n / math.sqrt(prev))
        sigma_sq.append(prev / (beta[-1] ** 2 * prev + 1.0))
        lam.append(beta[-1] * sigma_sq[-1])
    alpha = [0.0] * n_periods
    for i in range(n_periods - 1, 0, -1):
        alpha[i - 1] = 1.0 / (4.0 * lam[i] * (1.0 - alpha[i] * lam[i]))
    return (b, *map(_readonly, (beta, lam, alpha, sigma_sq)))


def equilibrium_from_params(params: ModelParams) -> Equilibrium:
    """Equilibrium coefficient paths for one parameter set.

    The unit-parameter paths, cached per N, times the scales
    ``params._scales``.  They satisfy the full recursion system: ``Sigma_n =
    Sigma_{n-1} / (1 + b_n^2)``, ``beta_n = b_n sigma_u / sqrt(Sigma_{n-1}
    delta)``, the projection formula for ``lam`` and the curvature
    recursion from ``alpha_N = 0``.
    """
    s, scale_lam = params._scales
    _, beta, lam, alpha, sigma_sq = _unit_equilibrium(params.n_periods)
    return Equilibrium(beta=s * beta, lam=scale_lam * lam,
                       alpha=alpha / scale_lam, sigma_sq=params.sigma0 * sigma_sq)


def implied_b(eq: Equilibrium, params: ModelParams) -> np.ndarray:
    """Recover the parameter-free coefficients from an equilibrium.

    Inverts the rescaling used by :func:`equilibrium_from_params`:
    ``b_n = beta_n sqrt(Sigma_{n-1} delta) / sigma_u``, as ``(beta_n / s)
    sqrt(Sigma_{n-1} / sigma0)``.  Equilibria for any two parameter sets with
    the same number of rounds share this vector.
    """
    s = params._scales[0]
    return eq.beta / s * np.sqrt(eq.sigma_sq[:-1] / params.sigma0)


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
        through the dimensionless product ``alpha_N lam_N``.  The residuals
        are those of the unit recursions, after dividing out ``params._scales``.

    Raises
    ------
    ValueError
        On dimension mismatch between ``eq`` and ``params``.
    """
    n = params.n_periods
    if eq.n_periods != n:
        raise ValueError("equilibrium paths do not match n_periods")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    # The check runs in unit parameters, where every quantity is O(1).
    s, scale_lam = params._scales
    beta, lam = eq.beta / s, eq.lam / scale_lam
    alpha, sigma_sq = eq.alpha * scale_lam, eq.sigma_sq / params.sigma0

    sigma_res = _relative_gap(sigma_sq[0], 1.0)
    lam_res = 0.0
    alpha_res = abs(alpha[-1] * lam[-1])
    beta_res = 0.0
    second_order = True

    for i in range(n):
        prev = sigma_sq[i]
        den = beta[i] ** 2 * prev + 1.0
        lam_res = max(lam_res, _relative_gap(lam[i], beta[i] * prev / den))
        sigma_res = max(sigma_res, _relative_gap(sigma_sq[i + 1], prev / den))
        alpha_lam = alpha[i] * lam[i]
        u = 1.0 - alpha_lam
        if not alpha_lam < 1.0:
            second_order = False
        if lam[i] * u == 0.0:
            # Degenerate candidate: the fixed-point equations are undefined.
            beta_res = np.inf
            if i > 0:
                alpha_res = np.inf
            continue
        beta_gap = _relative_gap(beta[i], (1.0 - 2.0 * alpha_lam) / (2.0 * lam[i] * u))
        beta_res = max(beta_res, beta_gap)
        if i > 0:
            alpha_res = max(alpha_res, _relative_gap(alpha[i - 1], 1.0 / (4.0 * lam[i] * u)))

    residuals = {"lambda": lam_res, "sigma": sigma_res, "alpha": alpha_res, "beta": beta_res}
    ok = second_order and all(r <= tol for r in residuals.values())
    return RecursionReport(ok=ok, residuals=residuals, second_order_ok=second_order, tol=tol)
