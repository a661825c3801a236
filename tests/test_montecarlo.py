"""Monte Carlo verification of profits, pricing efficiency, and variance decay."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from kyle_stability import (
    ModelParams,
    SimConfig,
    equilibrium_config,
    equilibrium_from_params,
    expected_equilibrium_profit,
    simulate,
    solve_b_recursion,
    terminal_variance_check,
)
from kyle_stability import montecarlo
from kyle_stability.montecarlo import _block_normals

SEED = 20240901


def _profit_oracle(params):
    """Value-function recursion for the expected equilibrium profit.

    Backward pass: alpha_N = delta_N = 0 and, given the equilibrium lambda
    path, alpha_{n-1} = 1 / (4 lam_n (1 - alpha_n lam_n)) and
    delta_{n-1} = delta_n + alpha_n lam_n^2 sigma_u^2 dt.  The expected
    profit at time zero is alpha_0 Sigma_0 + delta_0, with Sigma_0 the
    prior variance.
    """
    eq = equilibrium_from_params(params)
    alpha = 0.0
    delta_acc = 0.0
    for lam in eq.lam[::-1]:
        delta_acc = delta_acc + alpha * lam**2 * params.sigma_u**2 * params.delta
        alpha = 1.0 / (4.0 * lam * (1.0 - alpha * lam))
    return alpha * params.sigma0 + delta_acc


def test_block_normals_partition_invariance():
    whole = _block_normals(SEED, 0, 7, 5)
    split = np.vstack(
        [
            _block_normals(SEED, 0, 3, 5),
            _block_normals(SEED, 3, 2, 5),
            _block_normals(SEED, 5, 2, 5),
        ]
    )
    assert whole.shape == (7, 5)
    assert np.array_equal(whole, split)
    other = _block_normals(SEED + 1, 0, 7, 5)
    assert not np.array_equal(whole, other)


def test_simulate_bitwise_deterministic(unit_params_n3):
    config = equilibrium_config(unit_params_n3, n_paths=5000, seed=SEED)
    first = simulate(config)
    second = simulate(config)
    assert first.mean_profit == second.mean_profit
    assert first.mean_profit_se == second.mean_profit_se
    assert first.terminal_variance_estimate == second.terminal_variance_estimate
    for a, b in zip(first.efficiency, second.efficiency):
        assert np.array_equal(a.coef, b.coef) and np.array_equal(a.se, b.se)
    # Block size must not change the totals beyond float re-association.
    small_blocks = SimConfig(
        params=config.params,
        n_paths=5000,
        seed=SEED,
        strategy_beta=config.strategy_beta,
        pricing_lambda=config.pricing_lambda,
        block_size=512,
    )
    third = simulate(small_blocks)
    assert abs(third.mean_profit - first.mean_profit) <= 1e-12


def test_zero_strategy_profit_exactly_zero(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    config = SimConfig(
        params=unit_params_n3,
        n_paths=4000,
        seed=SEED,
        strategy_beta=np.zeros(3),
        pricing_lambda=eq.lam,
    )
    result = simulate(config)
    assert result.mean_profit == 0.0
    assert result.mean_profit_se == 0.0


def test_zero_strategy_terminal_variance(unit_params_n3):
    # With no informed trading the posterior never updates from v, so
    # var(v - p_N) = sigma0^2 + sigma_u^2 dt sum lam_n^2.
    eq = equilibrium_from_params(unit_params_n3)
    config = SimConfig(
        params=unit_params_n3,
        n_paths=20000,
        seed=SEED,
        strategy_beta=np.zeros(3),
        pricing_lambda=eq.lam,
    )
    result = simulate(config)
    expected = 1.0 + float(np.sum(eq.lam**2))
    assert (
        abs(result.terminal_variance_estimate - expected)
        <= 5.0 * result.terminal_variance_se
    )


def test_terminal_variance_check_single_round(unit_params_n1):
    config = equilibrium_config(unit_params_n1, n_paths=100_000, seed=SEED)
    result = simulate(config)
    check = terminal_variance_check(result, unit_params_n1)
    assert check.expected == 0.5
    assert check.ok
    assert check.deviation_in_se <= 4.0


def test_terminal_variance_check_three_rounds(unit_params_n3):
    config = equilibrium_config(unit_params_n3, n_paths=200_000, seed=SEED)
    result = simulate(config)
    check = terminal_variance_check(result, unit_params_n3)
    coeffs = solve_b_recursion(3)
    expected = float(np.prod(1.0 / (1.0 + coeffs.b**2)))
    assert abs(check.expected - expected) <= 1e-15
    assert check.ok


def test_terminal_variance_scale_invariant_in_sigma_u():
    # Sigma_N depends on sigma_u only through the b-chain, which is
    # parameter-free, so doubling sigma_u leaves the expected value fixed.
    params = ModelParams(n_periods=3, sigma_u=2.0)
    config = equilibrium_config(params, n_paths=100_000, seed=SEED)
    check = terminal_variance_check(simulate(config), params)
    coeffs = solve_b_recursion(3)
    assert abs(check.expected - float(np.prod(1.0 / (1.0 + coeffs.b**2)))) <= 1e-15
    assert check.ok


def test_efficiency_regressions_at_equilibrium(unit_params_n3):
    config = equilibrium_config(unit_params_n3, n_paths=200_000, seed=SEED)
    result = simulate(config)
    assert len(result.efficiency) == 3
    for reg in result.efficiency:
        assert np.max(np.abs(reg.t_stat)) <= 3.0


def test_mean_profit_matches_value_function(unit_params_n3):
    oracle = _profit_oracle(unit_params_n3)
    assert abs(expected_equilibrium_profit(unit_params_n3) - oracle) <= 1e-12
    config = equilibrium_config(unit_params_n3, n_paths=200_000, seed=SEED)
    result = simulate(config)
    assert abs(result.mean_profit - oracle) <= 4.0 * result.mean_profit_se


@pytest.mark.parametrize("sigma_u", [1e-200, 1e150])
def test_expected_profit_scales_with_the_parameters(sigma_u):
    # The profit is the unit value times sigma_u sqrt(sigma0 delta), with no
    # squared sigma_u to underflow or overflow.
    unit = expected_equilibrium_profit(ModelParams(n_periods=3))
    assert repr(unit) == "1.1900992913516735"
    profit = expected_equilibrium_profit(ModelParams(n_periods=3, sigma_u=sigma_u))
    assert abs(profit - sigma_u * unit) <= 1e-14 * sigma_u * unit


def test_half_strategy_underperforms(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    base = simulate(equilibrium_config(unit_params_n3, n_paths=100_000, seed=SEED))
    half = simulate(
        SimConfig(
            params=unit_params_n3,
            n_paths=100_000,
            seed=SEED + 1,
            strategy_beta=eq.beta * 0.5,
            pricing_lambda=eq.lam,
        )
    )
    joint_se = float(np.hypot(base.mean_profit_se, half.mean_profit_se))
    assert base.mean_profit - half.mean_profit > 3.0 * joint_se


def test_random_deviations_never_beat_equilibrium(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    base = simulate(equilibrium_config(unit_params_n3, n_paths=100_000, seed=SEED))
    rng = np.random.default_rng(61)
    for trial in range(10):
        scale = rng.uniform(0.9, 1.1, size=3)
        deviant = simulate(
            SimConfig(
                params=unit_params_n3,
                n_paths=100_000,
                seed=SEED + 100 + trial,
                strategy_beta=eq.beta * scale,
                pricing_lambda=eq.lam,
            )
        )
        joint_se = float(np.hypot(base.mean_profit_se, deviant.mean_profit_se))
        assert deviant.mean_profit - base.mean_profit <= 3.0 * joint_se


def test_double_strategy_breaks_efficiency(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    result = simulate(
        SimConfig(
            params=unit_params_n3,
            n_paths=200_000,
            seed=SEED,
            strategy_beta=eq.beta * 2.0,
            pricing_lambda=eq.lam,
        )
    )
    assert max(np.max(np.abs(reg.t_stat)) for reg in result.efficiency) > 5.0


def test_config_validation(unit_params_n3):
    eq = equilibrium_from_params(unit_params_n3)
    good = dict(
        params=unit_params_n3,
        n_paths=10,
        seed=SEED,
        strategy_beta=eq.beta,
        pricing_lambda=eq.lam,
    )
    with pytest.raises(ValueError):
        SimConfig(**{**good, "seed": -1})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "seed": 2**64})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "n_paths": 0})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "strategy_beta": eq.beta[:2]})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "pricing_lambda": [np.inf, 1.0, 1.0]})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "block_size": 0})
    for name in ("n_paths", "seed", "block_size"):
        for not_a_count in (True, 3.0):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SimConfig(**{**good, name: not_a_count})
        accepted = SimConfig(**{**good, name: np.int64(3)})
        assert type(getattr(accepted, name)) is int and getattr(accepted, name) == 3
    # Too few paths for the per-period regression dof.
    with pytest.raises(ValueError):
        simulate(SimConfig(**{**good, "n_paths": 7}))


def test_equilibrium_config_fields(unit_params_n3):
    config = equilibrium_config(unit_params_n3, n_paths=10, seed=3)
    eq = equilibrium_from_params(unit_params_n3)
    assert np.allclose(config.strategy_beta, eq.beta)
    assert np.allclose(config.pricing_lambda, eq.lam)
    assert config.seed == 3 and config.n_paths == 10


def test_simulate_golden_values(unit_params_n3):
    # Frozen from a build that imported scipy.special at module load; any
    # change to the draws, the normal transform or the accumulation order
    # shows up here as a changed digit.
    config = equilibrium_config(unit_params_n3, n_paths=5000, seed=SEED, block_size=1000)
    result = simulate(config)
    assert repr(result.mean_profit) == "1.2018857325445609"
    assert repr(result.terminal_variance_estimate) == "0.2662173644246332"
    assert repr(float(result.efficiency[2].t_stat[3])) == "-0.4745081638453364"


# Default 65,536-row blocks over 70,001 paths: one full block and a partial
# one.  Captured before the block loop was split across worker threads.
_GOLDEN_N5 = {
    1.0: (
        "1.715755948332408",
        "0.008544995210181318",
        "0.18712220058563736",
        [
            ["0.19140559246666983", "0.31831670742625123"],
            ["0.4825358356886102", "0.3482640015771141", "-0.4284548854982087"],
            ["-0.1627349456113232", "-0.3294816892895483", "0.5863596336635952",
             "3.387424334851132"],
            ["0.3024205180871551", "0.05987824541700887", "0.24526930693161736",
             "1.993427782812497", "-0.9546310329007824"],
            ["0.19968369806298805", "0.457972575005739", "-0.16664375489734676",
             "0.8364486568251884", "-1.0383914908585528", "1.4221927805616195"],
        ],
    ),
    0.5: (
        "1.476772258221692",
        "0.007521740077645119",
        "0.5067468706625564",
        [
            ["0.34539357797007186", "-42.88759492078291"],
            ["0.5086024308500011", "-41.645941977087496", "-36.87965988035738"],
            ["0.12073492368213137", "-40.07866994213872", "-34.52470902038793",
             "-22.464095920868104"],
            ["0.4125038446908407", "-36.77483543748851", "-32.04580253988605",
             "-21.35188294248303", "-7.275172934868884"],
            ["0.3282443790276948", "-29.741191319310474", "-26.45186608773557",
             "-17.883415674596975", "-6.165846449217066", "41.630633582852305"],
        ],
    ),
}


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_simulate_golden_values_default_blocks(scale):
    params = ModelParams(n_periods=5)
    eq = equilibrium_from_params(params)
    config = SimConfig(
        params=params,
        n_paths=70_001,
        seed=SEED,
        strategy_beta=eq.beta * scale,
        pricing_lambda=eq.lam,
    )
    result = simulate(config)
    mean, mean_se, term_var, t_stats = _GOLDEN_N5[scale]
    assert repr(result.mean_profit) == mean
    assert repr(result.mean_profit_se) == mean_se
    assert repr(result.terminal_variance_estimate) == term_var
    assert [[repr(float(t)) for t in reg.t_stat] for reg in result.efficiency] == t_stats


def _bits(result):
    """Every field of a SimResult as bytes, so equality is bitwise."""
    scalars = (
        result.mean_profit,
        result.mean_profit_se,
        result.terminal_variance_estimate,
        result.terminal_variance_se,
    )
    regressions = [
        (reg.period, reg.coef.tobytes(), reg.se.tobytes(), reg.t_stat.tobytes())
        for reg in result.efficiency
    ]
    return np.array(scalars).tobytes(), regressions, result.n_paths


def test_worker_count_changes_no_bit(monkeypatch):
    # 2,500-row blocks over 7,001 paths: three full blocks and a partial
    # one, cut into uneven slices by three workers.  A short switch
    # interval makes the threads interleave often.
    params = ModelParams(n_periods=4, delta=0.37, sigma_u=2.9, sigma0=0.013)
    eq = equilibrium_from_params(params)
    config = SimConfig(
        params=params,
        n_paths=7001,
        seed=SEED,
        strategy_beta=eq.beta * 0.8,
        pricing_lambda=eq.lam,
        block_size=2500,
    )
    interval = sys.getswitchinterval()
    results = {}
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
            results[workers] = _bits(simulate(config))
    finally:
        sys.setswitchinterval(interval)
    assert results[2] == results[1]
    assert results[3] == results[1]
