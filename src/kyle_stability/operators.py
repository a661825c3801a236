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
domain.  A round trip whose intermediate path is not finite (the maker's
variance recursion overflowing) has left the domain in the same way.

Every public operator runs on two private passes over Python floats:
``_maker_pass`` (forward variance recursion) and ``_insider_pass``
(backward value-function recursion, stopping at the first round that fails
the domain test).  Each public function validates its input once, turns it
into a list, runs the passes and builds numpy arrays only for its result;
the round trips feed one pass's list straight into the other.  No numpy
call sits in the per-round loop, which is what keeps a pinned-coordinate
step at a few microseconds.  ``b**2`` stays a power (libm ``pow``) rather
than ``b * b``: the two differ in the last bit for about one input in
1,250, and the golden values in the tests pin the power.
"""

from __future__ import annotations

import math
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


def _as_floats(x, n: int, name: str) -> list:
    values = np.asarray(x, dtype=float)
    if values.ndim != 1 or values.size != n:
        raise ValueError(f"{name} must be a vector of length {n}")
    values = values.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite")
    return values


def _maker_rounds(beta: list, params: ModelParams) -> tuple[list, list]:
    delta = params.delta
    var_u = params.sigma_u**2
    prev = params.sigma0
    lam = []
    sigma_sq = [prev]
    for b in beta:
        den = b**2 * prev * delta + var_u
        lam.append(b * prev / den)
        prev = prev * var_u / den
        sigma_sq.append(prev)
    return lam, sigma_sq


def _maker_pass(beta: list, params: ModelParams) -> tuple[list, list]:
    """Forward variance recursion over floats: ``(lam, sigma_sq)``."""
    try:
        return _maker_rounds(beta, params)
    except ArithmeticError:
        # Python floats raise where IEEE arithmetic gives inf or nan (b**2
        # overflowing, or 0/0 once sigma_u**2 underflows); float64 scalars
        # give the IEEE results, so rerun the same rounds on them.
        with np.errstate(all="ignore"):
            lam, sigma_sq = _maker_rounds([np.float64(b) for b in beta], params)
        return [float(v) for v in lam], [float(v) for v in sigma_sq]


def _insider_pass(lam: list, params: ModelParams):
    """Backward value-function recursion over floats.

    Returns ``(beta, alpha, denominators, second_order, in_domain)``, the
    first four as lists.  When a round fails :func:`_clears_domain` the
    recursion stops there: ``beta`` is all infinity, the unreached entries
    of ``alpha`` and ``denominators`` stay NaN and ``in_domain`` is False.
    """
    n = len(lam)
    delta = params.delta
    beta = [0.0] * n
    alpha = [math.nan] * n + [0.0]
    dens = [math.nan] * n
    second_order = [False] * n
    alpha_next = 0.0
    for i in range(n - 1, -1, -1):
        lam_i = lam[i]
        alpha_lam = alpha_next * lam_i
        u = 1.0 - alpha_lam
        second_order[i] = alpha_lam < 1.0
        num_beta = 1.0 - 2.0 * alpha_lam
        den_beta = 2.0 * delta * lam_i * u
        dens[i] = den_beta
        den_alpha = 4.0 * lam_i * u
        if not _clears_domain(alpha_lam, num_beta, den_beta, den_alpha):
            return [math.inf] * n, alpha, dens, second_order, False
        beta[i] = num_beta / den_beta
        alpha_next = alpha[i] = 1.0 / den_alpha
    return beta, alpha, dens, second_order, True


def market_maker_response(beta, params: ModelParams) -> MakerResponse:
    """Pricing path that makes prices a martingale given strategy ``beta``.

    Runs the variance recursion forward from ``params.sigma0``:
    ``lam_n = beta_n Sigma_{n-1} / (beta_n^2 Sigma_{n-1} delta + sigma_u^2)``
    and ``Sigma_n = Sigma_{n-1} sigma_u^2 / (same denominator)``.  Defined
    for every finite ``beta``; the denominator is at least ``sigma_u^2``.
    """
    lam, sigma_sq = _maker_pass(_as_floats(beta, params.n_periods, "beta"), params)
    return MakerResponse(lam=np.array(lam), sigma_sq=np.array(sigma_sq))


def insider_response(lam, params: ModelParams) -> InsiderResponse:
    """Optimal strategy against pricing path ``lam``.

    Runs the value-function recursion backwards from ``alpha_N = 0``:
    ``beta_n = (1 - 2 alpha_n lam_n) / (2 delta lam_n (1 - alpha_n lam_n))``
    and ``alpha_{n-1} = 1 / (4 lam_n (1 - alpha_n lam_n))``.  When a
    denominator is judged zero the recursion stops: ``beta`` is filled with
    infinity, the unreached part of ``alpha`` and ``denominators`` with
    NaN, and ``in_domain`` is False.  See ``DOMAIN_RTOL`` for the test.
    """
    beta, alpha, dens, second_order, in_domain = _insider_pass(
        _as_floats(lam, params.n_periods, "lam"), params
    )
    return InsiderResponse(
        beta=np.array(beta),
        alpha=np.array(alpha),
        in_domain=in_domain,
        second_order_ok=np.array(second_order),
        denominators=np.array(dens),
    )


def insider_policy_step(beta, params: ModelParams) -> OperatorResult:
    """Strategy round trip: maker response, then insider response."""
    lam = _maker_pass(_as_floats(beta, params.n_periods, "beta"), params)[0]
    value, _, dens, _, in_domain = _insider_pass(lam, params)
    return OperatorResult(value=np.array(value), in_domain=in_domain, denominators=np.array(dens))


def maker_policy_step(lam, params: ModelParams) -> OperatorResult:
    """Pricing round trip: insider response, then maker response."""
    beta, _, dens, _, in_domain = _insider_pass(_as_floats(lam, params.n_periods, "lam"), params)
    value = _maker_pass(beta, params)[0] if in_domain else beta
    return OperatorResult(value=np.array(value), in_domain=in_domain, denominators=np.array(dens))


def pinned_coordinate_step(x: float, coord: int, eq: Equilibrium, params: ModelParams) -> float:
    """Coordinate ``coord`` of the strategy round trip with the rest pinned.

    Evaluates :func:`insider_policy_step` on the equilibrium strategy with
    entry ``coord`` (1-based) replaced by ``x`` and returns the same entry
    of the image.  Returns infinity when the step leaves the domain.  This
    scalar restriction is what the one-dimensional stability diagnostics
    act on.  A non-finite ``x`` or an ``eq`` of another horizon raises
    ``ValueError``.
    """
    n = params.n_periods
    if not 1 <= coord <= n:
        raise ValueError("coord must be between 1 and n_periods")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    vec = _as_floats(eq.beta, n, "beta")
    vec[coord - 1] = x
    return _insider_pass(_maker_pass(vec, params)[0], params)[0][coord - 1]


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
