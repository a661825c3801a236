"""Policy-iteration operators on strategy and pricing vectors.

Two best-response maps drive the analysis.  The market-maker response takes
a strategy vector ``beta`` to the projection-formula pricing path ``lam``
(always defined).  The insider response takes a pricing path back to the
optimal strategy via the backward value-function recursion, which is only
defined away from the zeros of its per-round denominators.

Composing the two in each order gives the round-trip maps
:func:`insider_policy_step` (strategy to strategy) and
:func:`maker_policy_step` (pricing to pricing).  The equilibrium paths are
fixed points of both.  The prior variance is reset to ``params.sigma0`` on
every application, so iterating these maps models repeated best-response
play against a fresh prior.

Out-of-domain results carry ``in_domain=False`` and an all-infinite value
vector rather than raising; iteration drivers treat that as leaving the
domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Equilibrium, ModelParams

__all__ = [
    "DOMAIN_RTOL",
    "MakerResponse",
    "InsiderResponse",
    "OperatorResult",
    "market_maker_response",
    "insider_response",
    "insider_policy_step",
    "maker_policy_step",
    "pinned_coordinate_step",
    "pinned_step_polynomials",
]

# Both backward-recursion denominators are lam_n (1 - alpha_n lam_n) times
# constants.  Round n is in the domain when the dimensionless factor
# u = 1 - alpha_n lam_n satisfies |u| > DOMAIN_RTOL * (1 + |alpha_n lam_n|)
# and both quotients are finite floats (which rules out lam_n = 0).  Nothing
# dimensional is compared with a fixed tolerance, so the verdict does not
# depend on the scale of delta, sigma_u or sigma0.
DOMAIN_RTOL = 1e-12
_FLOAT_MAX = float(np.finfo(float).max)


def _clears_domain(alpha_lam: float, num_beta: float, den_beta: float, den_alpha: float) -> bool:
    return (
        abs(1.0 - alpha_lam) > DOMAIN_RTOL * (1.0 + abs(alpha_lam))
        and abs(num_beta) / _FLOAT_MAX < abs(den_beta)
        and 1.0 / _FLOAT_MAX < abs(den_alpha)
    )


@dataclass(frozen=True)
class MakerResponse:
    """Pricing path and variance path implied by a strategy vector."""

    lam: np.ndarray
    sigma_sq: np.ndarray


@dataclass(frozen=True)
class InsiderResponse:
    """Optimal strategy against a pricing path.

    ``alpha`` has length N + 1 and stores the full value-function curvature
    path ``alpha_0 .. alpha_N`` (terminal entry 0); note the offset relative
    to :class:`~kyle_stability.model.Equilibrium`, which stores
    ``alpha_1 .. alpha_N``.  ``second_order_ok`` flags
    ``alpha_n lam_n < 1`` per round and is meaningful only when
    ``in_domain`` is True.  ``denominators`` holds the per-round strategy
    denominators ``2 delta lam_n (1 - alpha_n lam_n)``, NaN for rounds the
    recursion never reached.
    """

    beta: np.ndarray
    alpha: np.ndarray
    in_domain: bool
    second_order_ok: np.ndarray
    denominators: np.ndarray


@dataclass(frozen=True)
class OperatorResult:
    """One application of a round-trip policy map.

    ``denominators`` records the per-round backward-recursion denominators
    of the insider stage (``2 delta lam_n (1 - alpha_n lam_n)``), with NaN
    for rounds the recursion never reached after a domain failure.
    """

    value: np.ndarray
    in_domain: bool
    denominators: np.ndarray


def _as_vector(x, n: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size != n:
        raise ValueError(f"{name} must be a vector of length {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def market_maker_response(beta, params: ModelParams) -> MakerResponse:
    """Pricing path that makes prices a martingale given strategy ``beta``.

    Runs the variance recursion forward from ``params.sigma0``:
    ``lam_n = beta_n Sigma_{n-1} / (beta_n^2 Sigma_{n-1} delta + sigma_u^2)``
    and ``Sigma_n = Sigma_{n-1} sigma_u^2 / (same denominator)``.  Defined
    for every finite ``beta``; the denominator is at least ``sigma_u^2``.
    """
    n = params.n_periods
    beta = _as_vector(beta, n, "beta")
    delta = params.delta
    var_u = params.sigma_u**2
    lam = np.empty(n)
    sigma_sq = np.empty(n + 1)
    sigma_sq[0] = params.sigma0
    for i in range(n):
        prev = sigma_sq[i]
        den = beta[i] ** 2 * prev * delta + var_u
        lam[i] = beta[i] * prev / den
        sigma_sq[i + 1] = prev * var_u / den
    return MakerResponse(lam=lam, sigma_sq=sigma_sq)


def insider_response(lam, params: ModelParams) -> InsiderResponse:
    """Optimal strategy against pricing path ``lam``.

    Runs the value-function recursion backwards from ``alpha_N = 0``:
    ``beta_n = (1 - 2 alpha_n lam_n) / (2 delta lam_n (1 - alpha_n lam_n))``
    and ``alpha_{n-1} = 1 / (4 lam_n (1 - alpha_n lam_n))``.  When a
    denominator is judged zero the recursion stops: ``beta`` is filled with
    infinity, the unreached part of ``alpha`` and ``denominators`` with
    NaN, and ``in_domain`` is False.  See ``DOMAIN_RTOL`` for the test.
    """
    n = params.n_periods
    lam = _as_vector(lam, n, "lam")
    delta = params.delta
    beta = np.empty(n)
    alpha = np.empty(n + 1)
    alpha[n] = 0.0
    dens = np.full(n, np.nan)
    second_order = np.zeros(n, dtype=bool)
    for i in range(n - 1, -1, -1):
        alpha_lam = alpha[i + 1] * lam[i]
        u = 1.0 - alpha_lam
        second_order[i] = alpha_lam < 1.0
        num_beta = 1.0 - 2.0 * alpha_lam
        den_beta = 2.0 * delta * lam[i] * u
        dens[i] = den_beta
        den_alpha = 4.0 * lam[i] * u
        if not _clears_domain(alpha_lam, num_beta, den_beta, den_alpha):
            beta.fill(np.inf)
            alpha[: i + 1] = np.nan
            return InsiderResponse(
                beta=beta,
                alpha=alpha,
                in_domain=False,
                second_order_ok=second_order,
                denominators=dens,
            )
        beta[i] = num_beta / den_beta
        alpha[i] = 1.0 / den_alpha
    return InsiderResponse(
        beta=beta,
        alpha=alpha,
        in_domain=True,
        second_order_ok=second_order,
        denominators=dens,
    )


def insider_policy_step(beta, params: ModelParams) -> OperatorResult:
    """Strategy round trip: maker response, then insider response."""
    inner = insider_response(market_maker_response(beta, params).lam, params)
    return OperatorResult(
        value=inner.beta, in_domain=inner.in_domain, denominators=inner.denominators
    )


def maker_policy_step(lam, params: ModelParams) -> OperatorResult:
    """Pricing round trip: insider response, then maker response."""
    inner = insider_response(lam, params)
    if not inner.in_domain:
        return OperatorResult(
            value=np.full(params.n_periods, np.inf),
            in_domain=False,
            denominators=inner.denominators,
        )
    return OperatorResult(
        value=market_maker_response(inner.beta, params).lam,
        in_domain=True,
        denominators=inner.denominators,
    )


def pinned_coordinate_step(x: float, coord: int, eq: Equilibrium, params: ModelParams) -> float:
    """Coordinate ``coord`` of the strategy round trip with the rest pinned.

    Evaluates :func:`insider_policy_step` on the equilibrium strategy with
    entry ``coord`` (1-based) replaced by ``x`` and returns the same entry
    of the image.  Returns infinity when the step leaves the domain.  This
    scalar restriction is what the one-dimensional stability diagnostics
    act on.
    """
    n = params.n_periods
    if not 1 <= coord <= n:
        raise ValueError("coord must be between 1 and n_periods")
    vec = np.array(eq.beta, dtype=float)
    vec[coord - 1] = float(x)
    result = insider_policy_step(vec, params)
    if not result.in_domain:
        return np.inf
    return float(result.value[coord - 1])


def pinned_step_polynomials(
    x: float, eq: Equilibrium, params: ModelParams
) -> tuple[float, float]:
    """Polynomial pair (f, g) with f/g the pinned step at coordinate N - 2.

    For N >= 3 the scalar map of :func:`pinned_coordinate_step` at
    ``coord = N - 2`` is a rational function of ``x``; this evaluates its
    numerator (degree 7) and denominator (degree 6) separately so callers
    can study poles of the map through sign changes of ``g``.

    Raises
    ------
    ValueError
        If the model has fewer than 3 rounds.
    """
    n = params.n_periods
    if n < 3:
        raise ValueError("pinned-step polynomials need at least 3 rounds")
    vec = np.array(eq.beta, dtype=float)
    vec[n - 3] = float(x)
    b_k = vec[n - 3]
    b_next = vec[n - 2]
    b_last = vec[n - 1]
    # Sums of squared strategy entries up to N - 2 (with x) and N - 3.
    head = float(np.sum(vec[: n - 2] ** 2))
    head3 = float(np.sum(vec[: n - 3] ** 2))
    ds = params.delta * params.sigma0
    var_u = params.sigma_u**2
    q = ds * head + var_u

    f = q * (
        b_next**2 * q * (ds * (head + 4.0 * b_k * b_last + b_last**2) + var_u)
        + b_next**4 * ds * (ds * (head + 2.0 * b_k * b_last) + var_u)
        - 4.0 * b_next**3 * b_last * ds * q
        - 4.0 * b_next * b_last * q**2
        + 2.0 * b_k * b_last * q**2
    )
    g = 2.0 * b_k * ds * (
        -4.0 * b_next**3 * b_last * ds * q
        + b_next**2 * q * (ds * (head3 + (b_k + b_last) ** 2) + var_u)
        - 4.0 * b_next * b_last * q**2
        + b_k * b_last * q**2
        + b_next**4 * ds * (ds * (head3 + b_k * (b_k + b_last)) + var_u)
    )
    return f, g
