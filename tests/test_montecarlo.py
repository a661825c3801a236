"""Monte Carlo verification of profits, pricing efficiency, and variance decay."""

from __future__ import annotations

import math
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


def test_block_normals_range_inside_a_chunk_matches_whole_range():
    # Paths 4000..12999 start inside the first 4096-path chunk and end
    # inside the fourth; the leading rows of the first are drawn and dropped.
    whole = _block_normals(SEED, 0, 13_000, 5)
    assert np.array_equal(_block_normals(SEED, 4000, 9000, 5), whole[4000:])
    assert np.array_equal(_block_normals(SEED, 4095, 2, 5), whole[4095:4097])


def test_block_normals_streams_are_distinct():
    # Each chunk has its own substream: no value is shared between two
    # chunks of one seed, or between the same chunk of two seeds, so no
    # stream overlaps another, shifted or not.
    chunk = montecarlo._CHUNK
    first = _block_normals(SEED, 0, chunk, 5)
    for other in (_block_normals(SEED, chunk, chunk, 5), _block_normals(SEED + 1, 0, chunk, 5)):
        assert np.intersect1d(first, other).size == 0


def test_block_normals_are_standard_normal():
    # 2**16 draws at a fixed seed.  Each bound has a false-alarm rate of
    # 1e-6: 4.89 standard errors for the mean (1/256) and the variance
    # (sqrt(2)/256), and sqrt(ln(2e6) / 2) / 256 for the Kolmogorov-Smirnov
    # statistic, by the tail bound 2 exp(-2 n d**2).
    z = np.sort(_block_normals(SEED, 0, 1 << 14, 4).ravel())
    n = z.size
    assert abs(z.mean()) <= 4.89 / 256
    assert abs(z.var() - 1.0) <= 4.89 * math.sqrt(2.0) / 256
    cdf = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in z.tolist()])
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert ks <= math.sqrt(math.log(2e6) / 2.0) / 256


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


# The golden runs, all at seed SEED: N=3 at the equilibrium in 1,000-row
# blocks over 5,000 paths, and N=5 in the default 65,536-row blocks over
# 70,001 paths (one full block and a partial one), at the equilibrium
# strategy and at half of it.  The digits are those of the 4096-path Philox
# substreams and numpy's ziggurat sampler; any change to the draws, the
# normal transform or the accumulation order shows up here as a changed
# digit, and so would a numpy release that changes its sampler.
def _golden_n3_config():
    return equilibrium_config(ModelParams(n_periods=3), n_paths=5000, seed=SEED, block_size=1000)


def _golden_n5_config(scale):
    params = ModelParams(n_periods=5)
    eq = equilibrium_from_params(params)
    return SimConfig(
        params=params,
        n_paths=70_001,
        seed=SEED,
        strategy_beta=eq.beta * scale,
        pricing_lambda=eq.lam,
    )


# mean_profit, terminal_variance_estimate, efficiency[2].t_stat[3]
_GOLDEN_N3 = ("1.2019441673837454", "0.2627225344461106", "0.6385308947470937")

# mean_profit, mean_profit_se, terminal_variance_estimate, every t_stat
_GOLDEN_N5 = {
    1.0: (
        "1.7011397392909897",
        "0.008545444162807498",
        "0.18835781811098148",
        [
            ["0.8153410992850438", "-0.03906354060355199"],
            ["1.3093465511366549", "-0.8292198703681807", "0.7774458466473084"],
            ["1.252244812052544", "-0.34781392911935793", "1.1626820091082188",
             "0.2539896611759085"],
            ["1.5880609040177989", "-0.11161271318945863", "0.7474378893720801",
             "-0.4315533247986067", "-1.0048121349350065"],
            ["0.7892935205344586", "-0.7797380001160717", "0.1257451939913724",
             "0.3423530321800417", "0.21969490864211366", "0.573486333517563"],
        ],
    ),
    0.5: (
        "1.4632833770525575",
        "0.007515101137370461",
        "0.5075589928500787",
        [
            ["0.691870069790585", "-43.06031387740223"],
            ["0.9983047745090737", "-42.20392387817998", "-34.91128979470023"],
            ["1.016672262791758", "-40.00406732693189", "-32.95616422342372",
             "-24.844374709956536"],
            ["1.3146564572743422", "-36.81000938330262", "-30.583594496722753",
             "-23.412683717091188", "-7.411080736276804"],
            ["0.8192235266133266", "-30.964325816613197", "-25.70927968807121",
             "-19.05309367282357", "-5.652572460708321", "38.978382061355326"],
        ],
    ),
}


@pytest.mark.parametrize("n", [3, 5])
def test_golden_values_agree_with_the_model(n):
    # Vets the pinned digits by the model rather than by themselves: each
    # golden mean profit and terminal variance at the equilibrium lies
    # within 4 standard errors of its model value.
    if n == 3:
        config, (mean, term_var, _) = _golden_n3_config(), _GOLDEN_N3
    else:
        config, (mean, _, term_var, _) = _golden_n5_config(1.0), _GOLDEN_N5[1.0]
    result = simulate(config)
    params = config.params
    assert abs(float(mean) - expected_equilibrium_profit(params)) <= 4.0 * result.mean_profit_se
    expected_var = equilibrium_from_params(params).sigma_sq[-1]
    assert abs(float(term_var) - expected_var) <= 4.0 * result.terminal_variance_se


def test_simulate_golden_values():
    result = simulate(_golden_n3_config())
    assert repr(result.mean_profit) == _GOLDEN_N3[0]
    assert repr(result.terminal_variance_estimate) == _GOLDEN_N3[1]
    assert repr(float(result.efficiency[2].t_stat[3])) == _GOLDEN_N3[2]


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_simulate_golden_values_default_blocks(scale):
    result = simulate(_golden_n5_config(scale))
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
