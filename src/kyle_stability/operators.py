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
on an overflowing ``b**2``; the rounds of that pass then read NaN, so a
round trip through it has left the domain in the same way.

Every public operator runs on two private passes over Python floats, in
unit parameters (``delta = sigma_u = sigma0 = 1``): ``_maker_pass``
(forward variance recursion, resumable from a known variance and earlier
prices) and ``_insider_pass`` (backward recursion from ``alpha_N = 0`` to
``beta``, ``alpha``, the strategy denominators and the domain verdict).
The scales ``s`` and ``L`` of ``model._scales`` map in and out inside
their loops: ``T_p(x) = s T_1(x / s)`` for strategies and
``P_p(l) = L P_1(l / L)`` for prices.  Public functions validate input
once and build numpy arrays only for their results.
``_strategy_round_trip`` and ``_pricing_round_trip`` compose the passes
once, for the public round trips and for ``_list_map``, which hands them
to the iteration loop and the difference stencils as maps on float lists.

A derivative column or a pinned step is the whole round trip at a point
with one entry replaced; the pinned map only solves the maker rounds
before its entry once and resumes the maker pass there.  For large N,
``_strategy_stencil_rows`` and ``_pricing_stencil_rows`` run both numpy
passes (``_maker_rows``, ``_insider_rows``) whole on all 2N stencil points
of a round trip at once, with the operations of the float passes in their
order and so with the bits of the whole round trip at each point.  The
float passes also run on Python ``complex`` values, which is how the
stability module takes exact complex-step derivatives.  ``b**2`` stays a
power (libm ``pow``), not ``b * b``: they differ in the last bit for
about one input in 1,250, which golden tests pin.  numpy's ``x**2`` is
``x * x`` and its array ``power`` is another ``pow``, so the rows take
every square that differs per row by Python ``**`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Equilibrium, ModelParams, _count, _scales

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
# What _insider_pass binds to locals: the relative tolerance and the float range.
_DOMAIN_BOUNDS = (DOMAIN_RTOL, _FLOAT_MAX, 1.0 / _FLOAT_MAX)


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


def _maker_pass(beta: list, scale=1.0, out=1.0, prev=1.0, lam=()) -> tuple[list, list]:
    """Forward variance recursion in unit parameters: ``(lam, sigma_sq)``.

    Runs on ``beta / scale`` and returns the prices times ``out``.  Resumes
    after the rounds whose prices ``lam`` are given, from the variance
    ``prev`` they left; ``beta`` covers the remaining rounds and
    ``sigma_sq`` starts at ``prev``.  Every denominator is at least 1, so
    only an overflowing ``b**2`` raises; the pass has then left the domain,
    and its own rounds read NaN.
    """
    prices, sigma_sq = list(lam), [prev]
    try:
        for b in beta:
            b /= scale
            den = b**2 * prev + 1.0
            prices.append(out * (b * prev / den))
            prev /= den
            sigma_sq.append(prev)
    except OverflowError:
        nan = [math.nan] * len(beta)
        return [*lam, *nan], [sigma_sq[0], *nan]
    return prices, sigma_sq


def _insider_pass(lam: list, scale=1.0, out=1.0):
    """Backward value-function recursion in unit parameters, on ``lam / scale``.

    Returns ``(beta, alpha, denominators, in_domain)``, the first three as
    lists, ``beta`` times ``out``; the recursion starts from
    ``alpha_N = 0``.  When a round fails the domain test (see
    ``DOMAIN_RTOL``) the recursion stops there: ``beta`` is all infinity,
    the unreached entries of ``alpha`` and ``denominators`` stay NaN and
    ``in_domain`` is False.
    """
    n = len(lam)
    # Constants bound to locals: this loop is the hottest code of a pinned step.
    rtol, big, tiny = _DOMAIN_BOUNDS
    beta = [0.0] * n
    alpha = [math.nan] * n + [0.0]
    alpha_next = 0.0
    dens = [math.nan] * n
    for i in range(n - 1, -1, -1):
        lam_i = lam[i] / scale
        alpha_lam = alpha_next * lam_i
        u = 1.0 - alpha_lam
        num_beta = 1.0 - 2.0 * alpha_lam
        dens[i] = den_beta = 2.0 * lam_i * u
        den_alpha = 4.0 * lam_i * u
        if not (
            abs(u) > rtol * (1.0 + abs(alpha_lam))
            and abs(num_beta) / big < abs(den_beta)
            and tiny < abs(den_alpha)
        ):
            return [math.inf] * n, alpha, dens, False
        beta[i] = out * (num_beta / den_beta)
        alpha_next = alpha[i] = 1.0 / den_alpha
    return beta, alpha, dens, True


def _finite(value: list, in_domain: bool) -> tuple[list, bool]:
    """All infinity and out of the domain unless every entry is finite.

    A complex entry, from a complex step, is finite when both its parts are.
    """
    try:
        if all(map(math.isfinite, value)):
            return value, in_domain
    except TypeError:
        if all(math.isfinite(v.real) and math.isfinite(v.imag) for v in value):
            return value, in_domain
    return [math.inf] * len(value), False


def market_maker_response(beta, params: ModelParams) -> MakerResponse:
    """Pricing path that makes prices a martingale given strategy ``beta``.

    Runs the variance recursion forward from ``params.sigma0``:
    ``lam_n = beta_n Sigma_{n-1} / (beta_n^2 Sigma_{n-1} delta + sigma_u^2)``
    and ``Sigma_n = Sigma_{n-1} sigma_u^2 / (same denominator)``, in unit
    parameters on ``beta / s``.  Defined for every finite ``beta``.
    """
    s, scale_lam = _scales(params)
    lam, sigma_sq = _maker_pass(_as_floats(beta, params.n_periods, "beta"), s, scale_lam)
    lam, sigma_sq = np.array(lam), params.sigma0 * np.array(sigma_sq)
    # A unit entry b / s that overflows to infinity prices its round at NaN
    # but zeroes the variance; every round from there on is undefined.
    undefined = np.isnan(lam)
    if undefined.any():
        first = int(undefined.argmax())
        lam[first:] = sigma_sq[first + 1 :] = np.nan
    return MakerResponse(lam=lam, sigma_sq=sigma_sq)


def insider_response(lam, params: ModelParams) -> InsiderResponse:
    """Optimal strategy against pricing path ``lam``.

    Runs the value-function recursion backwards from ``alpha_N = 0``:
    ``beta_n = (1 - 2 alpha_n lam_n) / (2 delta lam_n (1 - alpha_n lam_n))``
    and ``alpha_{n-1} = 1 / (4 lam_n (1 - alpha_n lam_n))``, in unit
    parameters on ``lam / L``.  When a denominator is judged zero (see
    ``DOMAIN_RTOL``) the recursion stops: ``beta`` is filled with infinity,
    the unreached part of ``alpha`` and ``denominators`` with NaN, and
    ``in_domain`` is False; so is a ``beta`` that overflows.
    """
    s, scale_lam = _scales(params)
    lam = [value / scale_lam for value in _as_floats(lam, params.n_periods, "lam")]
    beta, alpha, dens, in_domain = _insider_pass(lam, 1.0, s)
    beta, in_domain = _finite(beta, in_domain)
    # alpha is NaN above a failed round, so unreached rounds read False.
    second_order = [alpha[i + 1] * lam_i < 1.0 for i, lam_i in enumerate(lam)]
    return InsiderResponse(
        beta=np.array(beta),
        alpha=np.array([a / scale_lam for a in alpha]),
        in_domain=in_domain,
        second_order_ok=np.array(second_order),
        denominators=np.array([d / s for d in dens]),
    )


def _strategy_round_trip(beta: list, scale=1.0) -> tuple[list, list, bool]:
    """``(value, unit denominators, in_domain)``; the value is all infinity outside the domain."""
    value, _, dens, in_domain = _insider_pass(_maker_pass(beta, scale)[0], 1.0, scale)
    return value, dens, in_domain


def _pricing_round_trip(lam: list, scale=1.0) -> tuple[list, list, bool]:
    """``(value, unit denominators, in_domain)``; the value is all infinity outside the domain."""
    beta, _, dens, in_domain = _insider_pass(lam, scale)
    # An in-domain strategy can still overflow the maker recursion.
    value, in_domain = _finite(_maker_pass(beta, 1.0, scale)[0] if in_domain else beta, in_domain)
    return value, dens, in_domain


def _operator_result(round_trip, x, params: ModelParams, name: str, side: int) -> OperatorResult:
    """A public round trip: ``round_trip`` at scale ``_scales(params)[side]``, denominators over s."""
    scales = _scales(params)
    value, dens, in_domain = round_trip(_as_floats(x, params.n_periods, name), scales[side])
    value, in_domain = _finite(value, in_domain)
    dens = np.array([d / scales[0] for d in dens])
    return OperatorResult(value=np.array(value), in_domain=in_domain, denominators=dens)


def insider_policy_step(beta, params: ModelParams) -> OperatorResult:
    """Strategy round trip: maker response, then insider response."""
    return _operator_result(_strategy_round_trip, beta, params, "beta", 0)


def maker_policy_step(lam, params: ModelParams) -> OperatorResult:
    """Pricing round trip: insider response, then maker response."""
    return _operator_result(_pricing_round_trip, lam, params, "lam", 1)


# The two round trips as defined here, with their input and the index of
# their scale in ``_scales``.  A wrapper bound to their names later (a
# tracer, a test double) is any other callable, so it is called like one.
_ROUND_TRIPS = (
    (insider_policy_step, _strategy_round_trip, "beta", 0),
    (maker_policy_step, _pricing_round_trip, "lam", 1),
)


def _round_trip_of(operator):
    """``(round trip, input name, scale index)`` of one of the two round trips, else None."""
    for function, *found in _ROUND_TRIPS:
        if operator is function:
            return found
    return None


def _list_map(operator, params: ModelParams):
    """A policy map as a function on lists of floats.

    The map the iteration loop, the fixed-point test and the difference
    stencils play.  The image of a point outside the domain is all
    infinity; any non-finite entry means the map left the domain.  The two
    round trips of this module, matched by identity against the functions
    defined here, run straight on the float passes, with the length and
    finiteness checks of the public operators and no arrays or
    :class:`OperatorResult` per call.  Any other callable
    ``(vector, params) -> OperatorResult`` gets float64 arrays, and a
    result with ``in_domain=False`` maps to infinity.
    """
    found = _round_trip_of(operator)
    if found is not None:
        round_trip, name, side = found
        n, scale = params.n_periods, _scales(params)[side]
        return lambda values: round_trip(_checked(values, n, name), scale)[0]

    def step(values: list) -> list:
        result = operator(np.array(values), params)
        value = np.asarray(result.value, dtype=float).tolist()
        return value if result.in_domain else [math.inf] * len(value)

    return step


def _squares(values: list) -> list:
    """``b**2`` per float by libm ``pow``, as the float passes take it; NaN where it overflows."""
    try:
        return [b**2 for b in values]
    except OverflowError:
        return list(map(_square, values))


def _square(b: float) -> float:
    try:
        return b**2
    except OverflowError:
        return math.nan


def _maker_rows(b: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """``_maker_pass`` on every column of ``b`` (rounds by rows), with the squares ``b2``.

    Returns the unit prices.  A NaN square, where ``b**2`` overflows,
    makes its round and every later round of the column NaN.
    """
    prices, prev = np.empty_like(b), np.ones(b.shape[1])
    for k in range(b.shape[0]):
        den = b2[k] * prev + 1.0
        prices[k] = b[k] * prev / den
        prev /= den
    return prices


def _insider_rows(lam: np.ndarray):
    """``_insider_pass`` on every column of ``lam`` (rounds by rows), already in unit prices.

    Every round runs on every column from ``alpha_N = 0``.  Only the
    curvature recursion runs round by round (row i of ``alpha`` is the
    ``alpha_{i+1}`` round i starts from); the domain tests and ``beta``
    follow for all rounds at once.  Returns ``(beta, ok)``: the unit
    strategies and the columns' domain verdicts.  A column keeps running
    past a failed round, so the caller ignores floating-point warnings and
    discards it; its rounds above the failure keep their values.
    """
    rtol, big, tiny = _DOMAIN_BOUNDS
    alpha, four_lam = np.zeros_like(lam), 4.0 * lam
    for i in range(lam.shape[0] - 1, 0, -1):
        alpha[i - 1] = 1.0 / (four_lam[i] * (1.0 - alpha[i] * lam[i]))
    alpha_lam = alpha * lam
    u = 1.0 - alpha_lam
    num_beta = 1.0 - 2.0 * alpha_lam
    den_beta = 2.0 * lam * u
    ok = (
        (np.abs(u) > rtol * (1.0 + np.abs(alpha_lam)))
        & (np.abs(num_beta) / big < np.abs(den_beta))
        & (tiny < np.abs(four_lam * u))
    ).all(axis=0)
    return num_beta / den_beta, ok


def _entry_replaced(units: list, values: list) -> np.ndarray:
    """Rounds by rows: ``units`` in each column, but column r has ``values[r]`` at entry r // 2."""
    table = np.repeat(np.array(units)[:, None], len(values), axis=1)
    rows = np.arange(len(values))
    table[rows // 2, rows] = values
    return table


def _strategy_stencil_rows(xs: list, scale, values: list) -> np.ndarray:
    """The strategy round trip at ``xs`` with entry ``r // 2`` set to ``values[r]``, as row r.

    Both passes run whole on the table of all points, each with the
    operations and squares of the float passes in their order, so every
    row has the bits of :func:`_strategy_round_trip` at its point.  A
    multiplication or division by 1.0 that the float passes do is exact,
    so it is left out.  Rows outside the domain read infinity.
    """
    units = [x / scale for x in xs]
    rows_v = [v / scale for v in values]
    b = _entry_replaced(units, rows_v)
    b2 = _entry_replaced(_squares(units), _squares(rows_v))
    with np.errstate(all="ignore"):
        beta, ok = _insider_rows(_maker_rows(b, b2))
        beta *= scale
    beta[:, ~ok] = math.inf
    return beta.T


def _pricing_stencil_rows(xs: list, scale, values: list) -> np.ndarray:
    """The pricing round trip at ``xs`` with entry ``r // 2`` set to ``values[r]``, as row r.

    Both passes run whole on the table of all points, each with the
    operations and squares of the float passes in their order, so every
    row has the bits of :func:`_pricing_round_trip` at its point.  Rows
    outside the domain read infinity.
    """
    lam = _entry_replaced([x / scale for x in xs], [v / scale for v in values])
    with np.errstate(all="ignore"):
        beta, ok = _insider_rows(lam)
        # The strategy rounds after a point's entry are those of point 0,
        # bit for bit (they run before any failure below them), so only
        # the rounds up to its entry are squared per point.
        own = np.arange(len(values)) // 2 >= np.arange(len(xs))[:, None]
        b2 = np.repeat(np.array(_squares(beta[:, 0].tolist()))[:, None], len(values), axis=1)
        b2[own] = _squares(beta[own].tolist())
        prices = _maker_rows(beta, b2)
        prices *= scale
    prices[:, ~ok] = math.inf
    return prices.T


def _pinned_map(coord: int, eq: Equilibrium, params: ModelParams):
    """Pinned-coordinate restriction as a map on one-element float lists.

    ``[x] -> [entry coord of the strategy round trip]``, with the other
    entries at ``eq.beta``, which is validated here once.  The maker rounds
    before the entry never change, so they are solved once; each step
    resumes the maker pass at the entry and runs the insider pass whole,
    with the bits of the whole round trip.  The image is ``[inf]`` when the
    step leaves the domain.  One-element lists are the shape the iteration
    loop plays.
    """
    n = params.n_periods
    if _count(coord, "coord", 1) > n:
        raise ValueError("coord must be between 1 and n_periods")
    s, _ = _scales(params)
    beta = _as_floats(eq.beta, n, "beta")
    i = coord - 1
    # b**2 overflowing in these rounds leaves them and their variance NaN,
    # so every step leaves the domain, as the whole round trip does.
    head, sigma_sq = _maker_pass(beta[:i], s)
    prev, tail = sigma_sq[-1], beta[i + 1 :]

    def step(xs: list) -> list:
        prices = _maker_pass([xs[0], *tail], s, 1.0, prev, head)[0]
        return [_insider_pass(prices, 1.0, s)[0][i]]

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
    can study poles of the map through sign changes of ``g``: the unit
    polynomials at ``x / s``, with ``f`` times ``s``.

    Raises
    ------
    ValueError
        If the model has fewer than 3 rounds.
    """
    n = params.n_periods
    if n < 3:
        raise ValueError("pinned-step polynomials need at least 3 rounds")
    s, _ = _scales(params)
    vec = np.array(eq.beta, dtype=float) / s
    vec[n - 3] = float(x) / s
    b_k = vec[n - 3]
    b_next = vec[n - 2]
    b_last = vec[n - 1]
    # Sums of squared strategy entries up to N - 2 (with x) and N - 3.
    head = float(np.sum(vec[: n - 2] ** 2))
    head3 = float(np.sum(vec[: n - 3] ** 2))
    q = head + 1.0

    f = q * (
        b_next**2 * q * (head + 4.0 * b_k * b_last + b_last**2 + 1.0)
        + b_next**4 * (head + 2.0 * b_k * b_last + 1.0)
        - 4.0 * b_next**3 * b_last * q
        - 4.0 * b_next * b_last * q**2
        + 2.0 * b_k * b_last * q**2
    )
    g = 2.0 * b_k * (
        -4.0 * b_next**3 * b_last * q
        + b_next**2 * q * (head3 + (b_k + b_last) ** 2 + 1.0)
        - 4.0 * b_next * b_last * q**2
        + b_k * b_last * q**2
        + b_next**4 * (head3 + b_k * (b_k + b_last) + 1.0)
    )
    return s * f, g
