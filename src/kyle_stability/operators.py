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
(forward variance recursion from ``sigma_0 = 1``) and ``_insider_pass``
(backward recursion from ``alpha_N = 0`` to ``beta``, ``alpha``, the
strategy denominators and the domain verdict).
The scales ``s`` and ``L``, computed once per parameter set and kept on
it as ``params._scales`` (see :class:`~kyle_stability.model.ModelParams`),
map in and out inside their loops: ``T_p(x) = s T_1(x / s)`` for
strategies and ``P_p(l) = L P_1(l / L)`` for prices.  Public functions
validate input once and build numpy arrays only for their results.
``_strategy_round_trip`` and ``_pricing_round_trip`` compose the passes
once, for the public round trips and for ``_list_map``, which hands them
to the iteration loop and the difference stencils as maps on float lists.

A derivative column is the whole round trip at a point with one entry
replaced.  So is a pinned step, with the bits of the composed passes, but
it is one function of its own: the pinned map solves the maker rounds
before its entry once, and each step runs the maker rounds from the entry
on and the backward recursion over all rounds on Python floats, keeping
only the pinned round's strategy and no per-round list but the new prices.
``b**2`` stays a power (libm ``pow``), not ``b * b``, in the passes and the
pinned step: they differ in the last bit for about one input in 1,250,
which golden tests pin.  The passes stay generic arithmetic, because the
tests' oracles run them on complex and mpmath values.

The exact Jacobians of the round trips are products of two triangular
factors: ``M' = d lam / d beta`` is lower triangular (``lam_n`` depends on
``beta_1 .. beta_n``) and ``I' = d beta / d lam`` upper triangular
(``beta_n`` depends on ``lam_n .. lam_N``), so the strategy round trip has
``I'(lam) M'(beta)`` and the pricing round trip ``M'(beta) I'(lam)``.
``_maker_factor`` and ``_insider_factor`` take each factor in unit
parameters from the variances or curvatures of one float pass, with one
numpy sweep, over the rows that ``_maker_row`` and ``_insider_rounds``
give.  ``_strategy_jacobian`` and ``_pricing_jacobian`` run one pass of
each side, multiply the factors and return the round trip's value with
its Jacobian, so a classification reads its residual and its Jacobian
from the same passes.  The strategy side multiplies ``I' diag(lam)`` by
``diag(1 / lam) M'``, so that a tiny price never squares.
``_strategy_diagonal`` sums one diagonal entry of that product in O(N)
Python floats, over the same rows.
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
# What _insider_pass and the pinned step bind to locals: the relative
# tolerance and the float range.
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
    if values.ndim != 1 or len(values) != n:
        raise ValueError(f"{name} must be a vector of length {n}")
    values = values.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite")
    return values


def _maker_pass(beta: list, scale=1.0, out=1.0) -> tuple[list, list]:
    """Forward variance recursion in unit parameters: ``(lam, sigma_sq)``.

    Runs on ``beta / scale`` from ``sigma_0 = 1`` and returns the prices
    times ``out``.  Every denominator is at least 1, so only an overflowing
    ``b**2`` raises; the pass has then left the domain, and every round
    reads NaN.
    """
    prev, prices, sigma_sq = 1.0, [], [1.0]
    try:
        for b in beta:
            b /= scale
            den = b**2 * prev + 1.0
            prices.append(out * (b * prev / den))
            prev /= den
            sigma_sq.append(prev)
    except OverflowError:
        nan = [math.nan] * len(beta)
        return nan, [1.0, *nan]
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
    # Constants bound to locals: this loop runs in every round trip.
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
    """All infinity and out of the domain unless every entry is finite."""
    if all(map(math.isfinite, value)):
        return value, in_domain
    return [math.inf] * len(value), False


def market_maker_response(beta, params: ModelParams) -> MakerResponse:
    """Pricing path that makes prices a martingale given strategy ``beta``.

    Runs the variance recursion forward from ``params.sigma0``:
    ``lam_n = beta_n Sigma_{n-1} / (beta_n^2 Sigma_{n-1} delta + sigma_u^2)``
    and ``Sigma_n = Sigma_{n-1} sigma_u^2 / (same denominator)``, in unit
    parameters on ``beta / s``.  Defined for every finite ``beta``.
    """
    s, scale_lam = params._scales
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
    s, scale_lam = params._scales
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


def _maker_row(b: float, prev: float, var: float, scale: float) -> tuple[float, float]:
    """Row k of ``M' = d lam / d beta`` over ``scale``: ``(factor of b_j for j < k, diagonal)``.

    In unit parameters ``1 / Sigma_k = 1 / Sigma_{k-1} + b_k**2``, so
    ``d Sigma_k / d b_j = -2 b_j Sigma_k**2`` for ``j <= k``: row k of
    ``M'`` is ``-2 b_k Sigma_k**2 b_j`` before the diagonal and
    ``Sigma_k**2 (1 - b_k**2 Sigma_{k-1}) / Sigma_{k-1}`` on it.  Each
    product is ordered so that ``Sigma_k**2`` is never formed: with
    ``scale = lam_k = b_k Sigma_k`` the factor is ``-2 Sigma_k`` to rounding.
    """
    return (
        -2.0 * b * var / scale * var,
        var / prev * (1.0 - b * b * prev) * var / scale,
    )


def _maker_factor(beta: list, sigma_sq: list, rows: list) -> np.ndarray:
    """``diag(1 / rows) M'`` at unit ``beta``, from the variances of :func:`_maker_pass`."""
    b, jac = np.array(beta), np.zeros((len(beta), len(beta)))
    for k, row in enumerate(zip(beta, sigma_sq, sigma_sq[1:], rows)):
        factor, jac[k, k] = _maker_row(*row)
        np.multiply(b[:k], factor, out=jac[k, :k])
    return jac


def _insider_rounds(lam: list, alpha: list, columns: list):
    """The rows of ``I' diag(columns)``, ``I' = d beta / d lam`` at unit ``lam``, backward.

    Yields ``(i, entry (i, i), entry (i, i + 1), carry)`` for ``i = N - 1 ..
    0``, from the curvatures of :func:`_insider_pass`.  Round i has ``a =
    alpha_{i+1}``, ``p_i = a lam_i``, ``u_i = 1 - p_i`` and ``ratio = a /
    u_i``: ``I'[i, i] = -(1 / lam_i**2 + ratio**2) / 2``, ``I'[i, i + 1] =
    2 (1 - 2 p_{i+1}) ratio**2`` and, further right, ``I'[i, j] = carry
    I'[i + 1, j]`` with ``carry = 1 / (4 u_i**2)``, since ``d beta_i / d
    alpha_{i+1} = -2 carry`` and ``d alpha_i / d alpha_{i+1} = carry``.  No
    ``alpha**2`` is formed, and each square is scaled before it is formed:
    with ``columns = lam`` the diagonal is ``-(ratio**2 lam_i + 1 / lam_i)
    / 2``, finite wherever ``lam_i`` passes the domain test.
    """
    last, p_next = len(lam) - 1, 0.0
    for i in range(last, -1, -1):
        lam_i, a, scale = lam[i], alpha[i + 1], columns[i]
        p = a * lam_i
        u = 1.0 - p
        ratio = a / u
        diagonal = -0.5 * (ratio * scale * ratio + scale / lam_i / lam_i)
        upper = 2.0 * (1.0 - 2.0 * p_next) * (ratio * columns[i + 1] * ratio) if i < last else 0.0
        yield i, diagonal, upper, 0.25 / (u * u)
        p_next = p


def _insider_factor(lam: list, alpha: list, columns: list) -> np.ndarray:
    """``I' diag(columns)``, upper triangular, built by rows from :func:`_insider_rounds`.

    Meant for a point inside the domain (see ``DOMAIN_RTOL``).
    """
    n = len(lam)
    jac = np.zeros((n, n))
    for i, diagonal, upper, carry in _insider_rounds(lam, alpha, columns):
        jac[i, i] = diagonal
        if i < n - 1:
            jac[i, i + 1] = upper
        if i < n - 2:
            np.multiply(jac[i + 1, i + 2 :], carry, out=jac[i, i + 2 :])
    return jac


def _factor_product(left: np.ndarray, right: np.ndarray, left_upper: bool) -> np.ndarray:
    """``left @ right`` for one triangular factor of each kind, structural zeros kept.

    ``left`` is upper triangular when ``left_upper`` is true and ``right``
    triangular the other way, so entry (i, j) sums only over the k inside
    both triangles.  Where a factor has an infinite entry, ``@`` also
    multiplies it by the other factor's structural zeros, which reads NaN;
    only when the sum of the product is NaN is it formed again, a row at a
    time, from the terms inside both supports.
    """
    product = left @ right
    if not math.isnan(product.sum()):
        return product
    ones = np.ones(product.shape, dtype=bool)
    support = np.triu(ones) if left_upper else np.tril(ones)
    for i, row in enumerate(left):
        inside = support[i][:, None] & support.T
        product[i] = np.where(inside, row[:, None] * right, 0.0).sum(axis=0)
    return product


def _strategy_jacobian(beta: list, scale=1.0) -> tuple[list, np.ndarray | None]:
    """The strategy round trip at ``beta`` and its Jacobian ``I'(lam) M'(beta / scale)``.

    One pass of each side at ``beta / scale`` gives the value, as
    :func:`_strategy_round_trip` has it, and both factors.
    ``T_p(x) = s T_1(x / s)``, so ``J_p(x) = J_1(x / s)``.  The factors are
    taken as ``I' diag(lam)`` and ``diag(1 / lam) M'``, which have the same
    product, so a tiny price never squares in ``1 / lam**2``.  An entry
    that overflows reads infinity, as on Python floats; outside the domain
    the Jacobian is None.
    """
    unit = [b / scale for b in beta]
    lam, sigma_sq = _maker_pass(unit)
    value, alpha, _, in_domain = _insider_pass(lam, 1.0, scale)
    if not in_domain:
        return value, None
    with np.errstate(all="ignore"):
        upper, lower = _insider_factor(lam, alpha, lam), _maker_factor(unit, sigma_sq, lam)
        return value, _factor_product(upper, lower, True)


def _pricing_jacobian(lam: list, scale=1.0) -> tuple[list, np.ndarray | None]:
    """The pricing round trip at ``lam`` and its Jacobian ``M'(beta) I'(lam / scale)``.

    One pass of each side at ``lam / scale`` gives the value, as
    :func:`_pricing_round_trip` has it before its finiteness check, and both
    factors.  ``P_p(l) = L P_1(l / L)``, so ``J_p(l) = J_1(l / L)``;
    outside the domain of the insider pass the Jacobian is None.
    """
    unit = [v / scale for v in lam]
    beta, alpha, _, in_domain = _insider_pass(unit)
    if not in_domain:
        return beta, None
    value, sigma_sq = _maker_pass(beta, 1.0, scale)
    with np.errstate(all="ignore"):
        ones = [1.0] * len(lam)
        lower, upper = _maker_factor(beta, sigma_sq, ones), _insider_factor(unit, alpha, ones)
        return value, _factor_product(lower, upper, False)


def _strategy_diagonal(beta: list, k: int) -> float | None:
    """Entry (k, k) of the strategy round trip's Jacobian at unit ``beta``; None outside the domain.

    Row k of ``I' diag(lam)`` times column k of ``diag(1 / lam) M'``, the
    factors of :func:`_strategy_jacobian`, on Python floats: over the
    rounds ``i = N - 1 .. k`` of :func:`_insider_rounds` it carries
    ``S_i = I'[i, i + 1] lam_{i+1} M'[i + 1, k] / lam_{i+1} + carry_i
    S_{i+1}``, so the entry costs O(N) and no matrix.
    """
    lam, sigma_sq = _maker_pass(beta)
    _, alpha, _, in_domain = _insider_pass(lam)
    if not in_domain:
        return None
    b_k, below, total = beta[k], 0.0, 0.0
    for i, diagonal, upper, carry in _insider_rounds(lam, alpha, lam):
        factor, slope = _maker_row(beta[i], sigma_sq[i], sigma_sq[i + 1], lam[i])
        total = upper * below + carry * total
        if i == k:
            break
        below = b_k * factor
    return diagonal * slope + total


def _operator_result(round_trip, x, params: ModelParams, name: str, side: int) -> OperatorResult:
    """A public round trip: ``round_trip`` at ``params._scales[side]``, denominators over s."""
    scales = params._scales
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


# The two round trips as defined here, with their Jacobian, their input and
# the index of their scale in ``params._scales``.  A wrapper bound to their
# names later (a tracer, a test double) is any other callable, so it is
# called like one.
_ROUND_TRIPS = (
    (insider_policy_step, _strategy_round_trip, _strategy_jacobian, "beta", 0),
    (maker_policy_step, _pricing_round_trip, _pricing_jacobian, "lam", 1),
)


def _round_trip_of(operator):
    """``(round trip, Jacobian, input name, scale index)`` of one of the two round trips, else None."""
    for function, *found in _ROUND_TRIPS:
        if operator is function:
            return found
    return None


def _list_map(operator, params: ModelParams):
    """A policy map as a function on lists of floats.

    The map the iteration loop, the fixed-point test and the difference
    stencils play, on finite lists of length ``params.n_periods`` (the
    callers check them).  The image of a point outside the domain is all
    infinity; any non-finite entry means the map left the domain.  The two
    round trips of this module, matched by identity against the functions
    defined here, run straight on the float passes, with no arrays or
    :class:`OperatorResult` per call.  Any other callable
    ``(vector, params) -> OperatorResult`` gets float64 arrays, and a
    result with ``in_domain=False`` maps to infinity.
    """
    found = _round_trip_of(operator)
    if found is not None:
        round_trip, _, _, side = found
        scale = params._scales[side]
        return lambda values: round_trip(values, scale)[0]

    def step(values: list) -> list:
        result = operator(np.array(values), params)
        value = np.asarray(result.value, dtype=float).tolist()
        return value if result.in_domain else [math.inf] * len(value)

    return step


def _pinned_map(coord: int, eq: Equilibrium, params: ModelParams):
    """Pinned-coordinate restriction as a map on one-element float lists.

    ``[x] -> [entry coord of the strategy round trip]``, with the other
    entries at ``eq.beta``, which is validated here once.  The maker rounds
    before the entry never change, so their prices and the variance they
    leave are solved once, and the later entries divided by s once.  A step
    is one function on Python floats: the maker rounds from the entry on,
    then the backward insider recursion over their prices and the fixed
    ones, with the per-round arithmetic and the domain test of
    :func:`_maker_pass` and :func:`_insider_pass`, so it has the bits of the
    whole round trip.  It keeps only the strategy of the pinned round.  The
    image is ``[inf]`` when the step leaves the domain.  One-element lists
    are the shape the iteration loop plays.
    """
    n = params.n_periods
    if _count(coord, "coord", 1) > n:
        raise ValueError("coord must be between 1 and n_periods")
    s = params._scales[0]
    beta = _as_floats(eq.beta, n, "beta")
    i = coord - 1
    # b**2 overflowing in these rounds leaves them and their variance NaN,
    # so every step leaves the domain, as the whole round trip does.
    head, sigma_sq = _maker_pass(beta[:i], s)
    start, tail = sigma_sq[-1], [b / s for b in beta[i + 1 :]]
    head.reverse()
    rtol, big, tiny = _DOMAIN_BOUNDS

    def step(xs: list) -> list:
        b = xs[0] / s
        try:
            den = b**2 * start + 1.0
            prices, prev = [b * start / den], start / den
            for b in tail:
                den = b**2 * prev + 1.0
                prices.append(b * prev / den)
                prev /= den
        except OverflowError:
            return [math.inf]
        alpha = 0.0
        prices.reverse()
        # Rounds N .. coord on the new prices, then coord - 1 .. 1 on the head.
        for rounds in (prices, head):
            for lam in rounds:
                alpha_lam = alpha * lam
                u = 1.0 - alpha_lam
                num_beta = 1.0 - 2.0 * alpha_lam
                den_beta = 2.0 * lam * u
                den_alpha = 4.0 * lam * u
                if not (
                    abs(u) > rtol * (1.0 + abs(alpha_lam))
                    and abs(num_beta) / big < abs(den_beta)
                    and tiny < abs(den_alpha)
                ):
                    return [math.inf]
                alpha = 1.0 / den_alpha
            if rounds is prices:  # the last of them was the pinned round
                value = [s * (num_beta / den_beta)]
        return value

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
    s = params._scales[0]
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
