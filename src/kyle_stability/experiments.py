"""Canned numerical experiments behind the command-line interface.

Each function recomputes its table or experiment from the live modules and
returns plain dicts/lists ready for serialization.  Nothing here caches
numbers: a broken solver breaks these outputs.
"""

from __future__ import annotations

from dataclasses import replace
from operator import itemgetter

import numpy as np

from .model import ModelParams, _count, equilibrium_from_params
from .operators import _pinned_map, insider_policy_step
from .stability import (
    VERDICT_CONVERGED,
    NotConvergedError,
    _iterate,
    classify_fixed_point,
    iterate,
)

__all__ = [
    "key_results_table",
    "eigenvalue_table",
    "variance_perturbation_experiment",
    "perturbation_battery",
]

_CONCLUSION = {
    "super_attractive": "stable",
    "attractive": "stable",
    "repellent": "not stable",
    "neutral": "inconclusive",
}


def key_results_table(
    n_values=tuple(range(1, 9)), base_params: ModelParams | None = None
) -> list:
    """Stability classification of the equilibrium per round count.

    One row per entry of ``n_values``: spectral radius of the strategy
    round trip's Jacobian at the equilibrium, its classification, and the
    resulting stability conclusion.
    """
    base = base_params if base_params is not None else ModelParams(n_periods=1)
    rows = []
    for n in n_values:
        params = replace(base, n_periods=int(n))
        eq = equilibrium_from_params(params)
        report = classify_fixed_point(insider_policy_step, eq.beta, params)
        rows.append(
            {
                "n_periods": int(n),
                "spectral_radius": report.spectral_radius,
                "classification": report.classification,
                "conclusion": _CONCLUSION[report.classification],
            }
        )
    return rows


def variance_perturbation_experiment(
    params: ModelParams | None = None,
    variance_bump: float = 1e-10,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    blowup: float = 1e8,
) -> dict:
    """Iterate the strategy round trip from a variance-perturbed equilibrium.

    The start vector is the equilibrium for noise variance
    ``sigma_u**2 + variance_bump``; the iteration itself runs at the
    unperturbed parameters.  Reports the verdict, the limit, its distance
    from the unperturbed equilibrium, and the limit's own fixed-point
    residual.
    """
    if params is None:
        params = ModelParams(n_periods=3)
    if not variance_bump > 0.0:
        raise ValueError("variance_bump must be positive")
    bumped = replace(params, sigma_u=float(np.sqrt(params.sigma_u**2 + variance_bump)))
    eq = equilibrium_from_params(params)
    start = equilibrium_from_params(bumped).beta
    trace = iterate(insider_policy_step, start, params, tol=tol, max_iter=max_iter, blowup=blowup)
    out = {
        "start": start.tolist(),
        "equilibrium": eq.beta.tolist(),
        "verdict": trace.verdict,
        "iterations_used": trace.iterations_used,
        "limit": None,
        "fixed_point_residual": None,
        "distance_from_equilibrium": None,
    }
    if trace.verdict == VERDICT_CONVERGED:
        limit = np.asarray(trace.limit)
        image = insider_policy_step(limit, params)
        residual = (
            float(np.max(np.abs(np.asarray(image.value) - limit)))
            if image.in_domain
            else float("inf")
        )
        out["limit"] = limit.tolist()
        out["fixed_point_residual"] = residual
        out["distance_from_equilibrium"] = float(np.max(np.abs(limit - eq.beta)))
    return out


def eigenvalue_table(
    params: ModelParams | None = None,
    variance_bump: float = 1e-10,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    blowup: float = 1e8,
) -> dict:
    """Eigenvalues of the strategy round trip at its two fixed points.

    The first point is the equilibrium; the second is the limit of the
    variance-perturbation iteration, run with the given settings (see
    :func:`variance_perturbation_experiment`).  When that iteration does
    not converge there is no second point, and
    :class:`~kyle_stability.stability.NotConvergedError` is raised.
    """
    if params is None:
        params = ModelParams(n_periods=3)
    eq = equilibrium_from_params(params)
    perturbed = variance_perturbation_experiment(
        params, variance_bump=variance_bump, tol=tol, max_iter=max_iter, blowup=blowup
    )
    if perturbed["verdict"] != VERDICT_CONVERGED:
        raise NotConvergedError(
            "variance-perturbation iteration did not converge; "
            f"verdict {perturbed['verdict']}"
        )

    def summary(point: np.ndarray) -> dict:
        report = classify_fixed_point(insider_policy_step, point, params)
        return {
            "point": point.tolist(),
            "eigenvalues": report.eigenvalues.tolist(),
            "spectral_radius": report.spectral_radius,
            "classification": report.classification,
        }

    second = np.asarray(perturbed["limit"])
    return {"equilibrium": summary(eq.beta), "second_fixed_point": summary(second)}


def perturbation_battery(
    params: ModelParams,
    coords=None,
    bump: float = 1e-3,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    blowup: float = 1e8,
    return_tol: float = 1e-10,
) -> list:
    """Pinned-coordinate return test around the equilibrium.

    For each requested coordinate k the scalar restriction of the strategy
    round trip (all other coordinates held at the equilibrium) is iterated
    from the equilibrium value bumped by ``bump``.  A row reports the
    verdict and whether the iteration returned to the equilibrium
    coordinate within ``return_tol``.
    """
    eq = equilibrium_from_params(params)
    if coords is None:
        coords = range(1, params.n_periods + 1)
    rows = []
    for coord in coords:
        coord = _count(coord, "coord", 1)
        step = _pinned_map(coord, eq, params)
        target = float(eq.beta[coord - 1])
        start = target + bump
        trace = _iterate(
            step, [float(start)], itemgetter(0), tol=tol, max_iter=max_iter, blowup=blowup
        )
        returned = (
            trace.verdict == VERDICT_CONVERGED
            and abs(trace.limit - target) <= return_tol
        )
        rows.append(
            {
                "coord": coord,
                "start": start,
                "verdict": trace.verdict,
                "iterations_used": trace.iterations_used,
                "limit": trace.limit,
                "distance_from_equilibrium": (
                    abs(trace.limit - target) if trace.limit is not None else None
                ),
                "returned": bool(returned),
            }
        )
    return rows
