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
domain.  The maker's variance recursion runs on Python floats, which raise
on an overflowing ``b**2`` or a zero denominator; the rounds of that pass
then read NaN, so a round trip through it has left the domain in the same
way.

Every public operator runs on two private passes over Python floats:
``_maker_pass`` (forward variance recursion, resumable from a known
variance and earlier prices) and ``_insider_pass`` (backward recursion to
``beta``, ``alpha``, the strategy denominators and the domain verdict).
Public functions validate input once and build numpy arrays only for their
results; no numpy call sits in the per-round loop.  ``_strategy_round_trip``
and ``_pricing_round_trip`` compose the passes once, for the public round
trips and for ``_list_map``, which hands them to the iteration loop and the
difference stencils as maps on float lists.  The pinned-coordinate
map solves the maker rounds before its coordinate once; a step reruns the
later maker rounds and the whole insider pass, whose domain test covers
every round.  Both passes also run on Python ``complex`` values, which is
how the stability module takes exact complex-step derivatives.  ``b**2``
stays a power (libm ``pow``), not ``b * b``: they differ in the last bit
for about one input in 1,250, which golden tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Equilibrium, ModelParams, _count

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
    if values.ndim != 1:
        raise ValueError(f"{name} must be a vector of length {n}")
    return _checked(values.tolist(), n, name)


def _checked(values: list, n: int, name: str) -> list:
    """``values`` itself, after the length and finiteness checks of the public operators."""
    if len(values) != n:
        raise ValueError(f"{name} must be a vector of length {n}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite")
    return values


def _maker_pass(beta: list, params: ModelParams, prev=None, lam=()) -> tuple[list, list]:
    """Forward variance recursion over floats: ``(lam, sigma_sq)``.

    Resumes after the rounds whose prices ``lam`` are given, from the
    variance ``prev`` they left (default ``params.sigma0``); ``beta`` covers
    the remaining rounds and ``sigma_sq`` starts at ``prev``.  Python floats
    raise where ``b**2`` overflows or a denominator is 0 (``sigma_u**2``
    underflowed); the pass has then left the domain, and its own rounds
    read NaN.
    """
    delta = params.delta
    var_u = params.sigma_u**2
    prev = params.sigma0 if prev is None else prev
    prices, sigma_sq = list(lam), [prev]
    try:
        for b in beta:
            den = b**2 * prev * delta + var_u
            prices.append(b * prev / den)
            prev = prev * var_u / den
            sigma_sq.append(prev)
    except ArithmeticError:
        nan = [math.nan] * len(beta)
        return [*lam, *nan], [sigma_sq[0], *nan]
    return prices, sigma_sq


def _insider_pass(lam: list, params: ModelParams):
    """Backward value-function recursion over floats.

    Returns ``(beta, alpha, denominators, in_domain)``, the first three as
    lists.  When a round fails the domain test (see ``DOMAIN_RTOL``) the
    recursion stops there: ``beta`` is all infinity, the unreached entries
    of ``alpha`` and ``denominators`` stay NaN and ``in_domain`` is False.
    """
    n = len(lam)
    # Constants bound to locals: this loop is the hottest code of a pinned
    # step.  (2 delta) lam u is how 2.0 * delta * lam * u associates anyway.
    two_delta = 2.0 * params.delta
    rtol, big, tiny = DOMAIN_RTOL, _FLOAT_MAX, 1.0 / _FLOAT_MAX
    beta = [0.0] * n
    alpha = [math.nan] * (n + 1)
    alpha[n] = 0.0
    dens = [math.nan] * n
    alpha_next = 0.0
    for i in range(n - 1, -1, -1):
        lam_i = lam[i]
        alpha_lam = alpha_next * lam_i
        u = 1.0 - alpha_lam
        num_beta = 1.0 - 2.0 * alpha_lam
        dens[i] = den_beta = two_delta * lam_i * u
        den_alpha = 4.0 * lam_i * u
        if not (
            abs(u) > rtol * (1.0 + abs(alpha_lam))
            and abs(num_beta) / big < abs(den_beta)
            and tiny < abs(den_alpha)
        ):
            return [math.inf] * n, alpha, dens, False
        beta[i] = num_beta / den_beta
        alpha_next = alpha[i] = 1.0 / den_alpha
    return beta, alpha, dens, True


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
    lam = _as_floats(lam, params.n_periods, "lam")
    beta, alpha, dens, in_domain = _insider_pass(lam, params)
    # alpha is NaN above a failed round, so unreached rounds read False.
    second_order = [alpha[i + 1] * lam_i < 1.0 for i, lam_i in enumerate(lam)]
    return InsiderResponse(
        beta=np.array(beta),
        alpha=np.array(alpha),
        in_domain=in_domain,
        second_order_ok=np.array(second_order),
        denominators=np.array(dens),
    )


def _strategy_round_trip(beta: list, params: ModelParams) -> tuple[list, list, bool]:
    """``(value, denominators, in_domain)``; the value is all infinity outside the domain."""
    value, _, dens, in_domain = _insider_pass(_maker_pass(beta, params)[0], params)
    return value, dens, in_domain


def _pricing_round_trip(lam: list, params: ModelParams) -> tuple[list, list, bool]:
    """``(value, denominators, in_domain)``; the value is all infinity outside the domain."""
    beta, _, dens, in_domain = _insider_pass(lam, params)
    value = _maker_pass(beta, params)[0] if in_domain else beta
    if not all(map(math.isfinite, value)):
        # An in-domain strategy can still overflow the maker recursion.
        value, in_domain = [math.inf] * len(value), False
    return value, dens, in_domain


def insider_policy_step(beta, params: ModelParams) -> OperatorResult:
    """Strategy round trip: maker response, then insider response."""
    value, dens, in_domain = _strategy_round_trip(_as_floats(beta, params.n_periods, "beta"), params)
    return OperatorResult(value=np.array(value), in_domain=in_domain, denominators=np.array(dens))


def maker_policy_step(lam, params: ModelParams) -> OperatorResult:
    """Pricing round trip: insider response, then maker response."""
    value, dens, in_domain = _pricing_round_trip(_as_floats(lam, params.n_periods, "lam"), params)
    return OperatorResult(value=np.array(value), in_domain=in_domain, denominators=np.array(dens))


# The two round trips as defined here, captured once.  A wrapper bound to
# their names later (a tracer, a test double) is any other callable, so it
# is called like one.
_ROUND_TRIPS = (
    (insider_policy_step, _strategy_round_trip, "beta"),
    (maker_policy_step, _pricing_round_trip, "lam"),
)


def _list_map(operator, params: ModelParams):
    """A policy map as a function on lists of floats.

    The image of a point outside the domain is all infinity; any non-finite
    entry means the map left the domain.  The two round trips of this
    module, matched by identity against the functions defined here, run
    straight on the float passes, with the length and finiteness checks of
    the public operators and no arrays or :class:`OperatorResult` per call.
    Any other callable ``(vector, params) -> OperatorResult`` gets float64
    arrays, and a result with ``in_domain=False`` maps to infinity.
    """
    n = params.n_periods
    for function, round_trip, name in _ROUND_TRIPS:
        if operator is function:

            def step(values: list) -> list:
                return round_trip(_checked(values, n, name), params)[0]

            return step

    def step(values: list) -> list:
        result = operator(np.array(values), params)
        value = np.asarray(result.value, dtype=float).tolist()
        return value if result.in_domain else [math.inf] * len(value)

    return step


def _pinned_map(coord: int, eq: Equilibrium, params: ModelParams):
    """Pinned-coordinate restriction as a map on one-element float lists.

    ``[x] -> [entry coord of the strategy round trip]``, with the other
    entries at ``eq.beta``, which is validated here once.  Maker rounds
    1 .. coord-1 see only pinned entries, so they are solved here once;
    each step resumes the maker pass at round ``coord`` and runs the whole
    insider pass, because a round below ``coord`` can still leave the
    domain.  The image is ``[inf]`` when the step leaves the domain.
    One-element lists are the shape the iteration loop plays.
    """
    n = params.n_periods
    if _count(coord, "coord", 1) > n:
        raise ValueError("coord must be between 1 and n_periods")
    pinned = _as_floats(eq.beta, n, "beta")
    i = coord - 1
    head, sigma_sq = _maker_pass(pinned[:i], params)
    tail = pinned[coord:]

    def step(xs: list) -> list:
        lam = _maker_pass([xs[0], *tail], params, sigma_sq[-1], head)[0]
        return [_insider_pass(lam, params)[0][i]]

    return step


def pinned_coordinate_step(x: float, coord: int, eq: Equilibrium, params: ModelParams) -> float:
    """Coordinate ``coord`` of the strategy round trip with the rest pinned.

    Evaluates :func:`insider_policy_step` on the equilibrium strategy with
    entry ``coord`` (1-based) replaced by ``x`` and returns the same entry
    of the image.  Returns infinity when the step leaves the domain.  This
    scalar restriction is what the one-dimensional stability diagnostics
    act on.  A non-finite ``x`` or an ``eq`` of another horizon raises
    ``ValueError``.
    """
    step = _pinned_map(coord, eq, params)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    return step([x])[0]


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
