"""Shared fixtures and frozen reference values.

The reference vectors below are known values of the unit-parameter model
(round length, noise volatility and prior variance all 1).  They were
frozen from independent computations and serve as regression pins; tests
recompute everything through the package and compare.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from kyle_stability import ModelParams

# Three-round equilibrium strategy at unit parameters.
EQ_BETA_N3 = np.array(
    [0.5381695932221123, 0.7575868210282761, 1.3651242809592772]
)
# Same model with noise variance 1 + 1e-10.
BUMPED_BETA_N3 = np.array(
    [0.5381695932490208, 0.7575868210661554, 1.3651242810275332]
)
# Second fixed point of the three-round strategy round trip (limit of the
# iteration started at BUMPED_BETA_N3).
SECOND_FP_N3 = np.array(
    [1.2582536009629393, -2.157491457005712, 2.6903478420808034]
)
# Two-round Jacobian of the strategy round trip at the equilibrium.
JAC_N2_NONZERO = {(0, 0): -0.981214, (1, 0): 0.554958}
JAC_N2_ZERO = [(0, 1), (1, 1)]
# Eigenvalues (descending magnitude) at the two three-round fixed points.
EIG_EQ_N3 = np.array([-2.16095, -0.896373, 0.0])
EIG_SECOND_N3 = np.array([0.413853, 0.193926, 0.0])
# The two nonzero eigenvalues at the three-round equilibrium, 20 digits of a
# 50-digit mpmath complex step through the round trip.
EIG_EQ_N3_DIGITS = ("-2.1609539607357897986", "-0.89637299698641772736")
# Derivative of the pinned-coordinate map at coordinate N - 2 (any N >= 3)
# and at coordinate N - 1 for the three-round model.
PINNED_DERIV_THIRD_LAST = -2.07611332
PINNED_DERIV_SECOND_LAST = -0.98121364
# Noise variance bump used by the perturbed-equilibrium experiment.
VARIANCE_BUMP = 1e-10


@pytest.fixture
def unit_params_n3() -> ModelParams:
    return ModelParams(n_periods=3)


@pytest.fixture
def unit_params_n2() -> ModelParams:
    return ModelParams(n_periods=2)


@pytest.fixture
def unit_params_n1() -> ModelParams:
    return ModelParams(n_periods=1)


def bumped_params_n3() -> ModelParams:
    return ModelParams(
        n_periods=3, sigma_u=math.sqrt(1.0 + VARIANCE_BUMP)
    )


def random_params(rng: np.random.Generator, n_periods: int) -> ModelParams:
    """Random strictly positive parameters over two decades."""
    return ModelParams(
        n_periods=n_periods,
        delta=float(10.0 ** rng.uniform(-1.0, 1.0)),
        sigma_u=float(10.0 ** rng.uniform(-1.0, 1.0)),
        sigma0=float(10.0 ** rng.uniform(-1.0, 1.0)),
    )
