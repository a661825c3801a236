"""Monte Carlo verification of profits, pricing efficiency, and variance decay."""

from __future__ import annotations

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

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


def _normals(seed, start, count, n_draws):
    out = np.empty((n_draws, count))
    montecarlo._block_normals(seed, start, out)
    return out


def test_block_normals_partition_invariance():
    # Round-major: column j holds path start + j, and chunk c fills its
    # columns row by row from its SFC64 substream.  Ranges split at chunk
    # boundaries tile the whole range, and a range may be a view.
    chunk = montecarlo._CHUNK
    whole = _normals(SEED, 0, 3 * chunk + 7, 5)
    split = np.empty((5, 3 * chunk + 7))
    montecarlo._block_normals(SEED, 0, split[:, :chunk])
    montecarlo._block_normals(SEED, chunk, split[:, chunk : 3 * chunk])
    montecarlo._block_normals(SEED, 3 * chunk, split[:, 3 * chunk :])
    assert np.array_equal(whole, split)
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(SEED, spawn_key=(1,))))
    assert np.array_equal(whole[:, chunk : 2 * chunk], gen.standard_normal((5, chunk)))
    other = _normals(SEED + 1, 0, 7, 5)
    assert not np.array_equal(whole[:, :7], other)


def test_block_normals_streams_are_distinct():
    # Each chunk has its own substream: no value is shared between two
    # chunks of one seed, or between the same chunk of two seeds, so no
    # stream overlaps another, shifted or not.
    chunk = montecarlo._CHUNK
    first = _normals(SEED, 0, chunk, 5)
    for other in (_normals(SEED, chunk, chunk, 5), _normals(SEED + 1, 0, chunk, 5)):
        assert np.intersect1d(first, other).size == 0


def test_block_normals_are_standard_normal():
    # 2**16 draws at a fixed seed.  Each bound has a false-alarm rate of
    # 1e-6: 4.89 standard errors for the mean (1/256) and the variance
    # (sqrt(2)/256), and sqrt(ln(2e6) / 2) / 256 for the Kolmogorov-Smirnov
    # statistic, by the tail bound 2 exp(-2 n d**2).
    z = np.sort(_normals(SEED, 0, 1 << 14, 4).ravel())
    n = z.size
    assert abs(z.mean()) <= 4.89 / 256
    assert abs(z.var() - 1.0) <= 4.89 * math.sqrt(2.0) / 256
    cdf = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in z.tolist()])
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert ks <= math.sqrt(math.log(2e6) / 2.0) / 256


def _loop_moments(config, z):
    """Moments of the per-round path loop on round-major normals ``z``.

    The reference for the chunk Gram matrices: per round the insider trades
    ``dx = beta_i (v - p) delta``, order flow ``dy = dx + du`` hits the
    market, the price moves by ``lam_i dy`` and the profit gains
    ``(v - p) dx``.  Returns ``W' W`` for the moment rows
    ``W = [1, dy_1..dy_n, (v - p_1)..(v - p_n), profit]``.
    """
    params = config.params
    n, delta = params.n_periods, params.delta
    v = np.sqrt(params.sigma0) * z[0]
    w = np.empty((z.shape[1], 2 * n + 2))
    w[:, 0] = 1.0
    w[:, 1 : n + 1] = (params.sigma_u * np.sqrt(delta) * z[1:]).T
    price, profit = np.zeros(z.shape[1]), np.zeros(z.shape[1])
    for i in range(n):
        dx = (v - price) * config.strategy_beta[i] * delta
        w[:, 1 + i] += dx
        price = price + config.pricing_lambda[i] * w[:, 1 + i]
        w[:, 1 + n + i] = v - price
        profit += w[:, 1 + n + i] * dx
    w[:, -1] = profit
    return w.T @ w


@pytest.mark.parametrize("scale", [1.0, 0.5])
@pytest.mark.parametrize("n", [1, 3, 24])
def test_chunk_grams_map_onto_the_path_loop_moments(n, scale):
    # On the same normals (a full chunk and a partial one), the chunk Gram
    # matrices of [1 | z | profit], summed and mapped by T, equal the
    # moments of the per-round path loop to 1e-12 of each entry's scale
    # sqrt(M_ii M_jj), at the equilibrium strategy and at half of it.
    chunk = montecarlo._CHUNK
    count = chunk + 1000
    params = ModelParams(n_periods=n, delta=0.37, sigma_u=2.9, sigma0=0.013)
    eq = equilibrium_from_params(params)
    config = SimConfig(
        params=params,
        n_paths=count,
        seed=SEED,
        strategy_beta=eq.beta * scale,
        pricing_lambda=eq.lam,
    )
    t, q = montecarlo._path_coefficients(config)
    rows, products = np.empty((n + 3) * chunk), np.empty((n + 1) * montecarlo._SLICE)
    grams = np.empty((2, n + 3, n + 3))
    montecarlo._run_paths(config, q, 0, count, rows, products, grams)
    moments = t.T @ (grams[0] + grams[1]) @ t
    reference = _loop_moments(config, _normals(SEED, 0, count, n + 1))
    diag = np.diag(reference)
    assert np.all(np.abs(moments - reference) <= 1e-12 * np.sqrt(np.outer(diag, diag)))


_OVERFLOW = "path moments overflow float range: parameters too large to simulate"
_UNDERFLOW = "path moments underflow float range: parameters too small to simulate"
_COVARIANCE = (
    "regression covariance overflows float range: parameter scales too far apart to simulate"
)


@pytest.mark.parametrize(
    "scales, strategy, message",
    [
        ({"sigma_u": 1e153}, None, _OVERFLOW),
        ({"sigma_u": 3e152}, None, _OVERFLOW),
        ({"sigma_u": 1e-170}, None, _UNDERFLOW),
        ({"sigma_u": 1e-200}, None, _UNDERFLOW),
        ({"sigma_u": 1e-160}, None, _COVARIANCE),
        ({"sigma0": 1e150, "delta": 1e-250}, None, _COVARIANCE),
        ({"sigma0": 1e150, "delta": 1e-300}, None, _COVARIANCE),
        ({}, [1e200, 1.0, 1.0], _OVERFLOW),
    ],
)
def test_simulate_error_edges_keep_their_messages(scales, strategy, message):
    # 1,000 paths at seed 0, as `simulate --n 3 --paths 1000` runs them.
    config = equilibrium_config(ModelParams(n_periods=3, **scales), n_paths=1000, seed=0)
    if strategy is not None:
        config = replace(config, strategy_beta=strategy)
    with pytest.raises(ValueError) as raised:
        simulate(config)
    assert str(raised.value) == message


# Block sizes below, at and above one 4096-path chunk, and not a multiple
# of it; 10,000 rounds up to three chunks, so blocks of several chunks
# follow one another.
_BLOCK_SIZES = (1, 512, 1000, 4096, 10_000, 65_536)


def test_simulate_bitwise_deterministic(unit_params_n3):
    config = equilibrium_config(unit_params_n3, n_paths=30_000, seed=SEED)
    first = _bits(simulate(config))
    assert _bits(simulate(config)) == first
    # Blocks are whole chunks, and chunk moments are summed in chunk order,
    # so the block size changes no bit.
    for block_size in _BLOCK_SIZES:
        assert _bits(simulate(replace(config, block_size=block_size))) == first


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


# The golden runs, all at seed SEED: N=3 at the equilibrium over 5,000
# paths (one full chunk and a partial one) in 1,000-row blocks, which round
# up to one chunk, and N=5 over 70,001 paths (17 full chunks and a partial
# one) at the equilibrium strategy and at half of it.  The digits are those
# of the 4096-path SFC64 substreams, numpy's ziggurat sampler, the chunk
# Gram matrices summed in chunk order and their one map into the path
# moments; any change to the draws, the path coefficients or the
# accumulation order shows up here as a changed digit, and so would a numpy
# release that changes its sampler.
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
_GOLDEN_N3 = ("1.1606226090838088", "0.26868776558373075", "-0.6125536474389497")

# mean_profit, mean_profit_se, terminal_variance_estimate, every t_stat
_GOLDEN_N5 = {
    1.0: (
        "1.6885547062830133",
        "0.00846100674723974",
        "0.18722272836568332",
        [
            ["-0.3187119927337916", "-1.3412911815727844"],
            ["-0.0692328013193714", "-1.604827135037601", "0.2327859818394485"],
            ["0.5643481216113058", "-1.3382150139262807", "0.41513370113089126",
             "0.36447110848603653"],
            ["-0.1252158314019944", "-1.8326489343516235", "-0.8164903567522701",
             "0.7517224207848394", "-0.6826086453133705"],
            ["-0.24998887718537552", "-2.1443038847891756", "-0.13039195456162847",
             "0.9766277336958139", "-1.8254900821320672", "-1.48149057116643"],
        ],
    ),
    0.5: (
        "1.4523524334480642",
        "0.007441853062438094",
        "0.5022142694972985",
        [
            ["-0.34039935314305475", "-44.12883260492322"],
            ["-0.20503563527729896", "-43.016847977141445", "-35.62358916492137"],
            ["0.19115044303604956", "-41.00244826140226", "-33.85449906628271",
             "-25.030970146441046"],
            ["-0.23395818735133075", "-38.284339999056684", "-32.04875264318684",
             "-22.817598058488564", "-6.709028603762062"],
            ["-0.32209359080064154", "-32.233240629666525", "-26.107791394640127",
             "-18.468642320274455", "-6.637739799549167", "37.976184131385125"],
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
    # 25,000 paths are six full chunks and a partial one: one block of
    # seven chunks at 65,536-row blocks, cut 3/4, 2/2/3 and 1/2/2/2, blocks
    # of 3, 3 and 1 chunks at 10,000, and one chunk per block below.  At
    # five-chunk blocks a block of five full chunks is followed by one of a
    # full chunk and the partial one.  A short switch interval makes the
    # threads interleave often.
    params = ModelParams(n_periods=4, delta=0.37, sigma_u=2.9, sigma0=0.013)
    eq = equilibrium_from_params(params)
    config = SimConfig(
        params=params,
        n_paths=25_000,
        seed=SEED,
        strategy_beta=eq.beta * 0.8,
        pricing_lambda=eq.lam,
    )
    interval = sys.getswitchinterval()
    results = set()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
            for block_size in (*_BLOCK_SIZES, 5 * montecarlo._CHUNK):
                results.add(repr(_bits(simulate(replace(config, block_size=block_size)))))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 1


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_simulate_starts_a_thread_per_worker_after_the_first(monkeypatch, workers):
    # The calling thread runs the first share of each block, so a 1-worker
    # call starts no thread.
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
    simulate(_golden_n5_config(1.0))
    assert len(started) == workers - 1


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_simulate_draws_each_path_once_from_chunk_boundaries(monkeypatch, workers):
    # 70,001 paths in 65,536-row blocks: a three-way cut of the first block
    # at arbitrary rows would start inside a chunk and redraw its rows.
    calls = []

    def spy(seed, start, out):
        calls.append((start, out.shape[1]))
        draw(seed, start, out)

    draw = montecarlo._block_normals
    monkeypatch.setattr(montecarlo, "_block_normals", spy)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
    simulate(_golden_n5_config(1.0))
    assert all(start % montecarlo._CHUNK == 0 for start, _ in calls)
    assert sum(count for _, count in calls) == 70_001
    ends = sorted((start, start + count) for start, count in calls)
    assert [lo for lo, _ in ends] == [0] + [hi for _, hi in ends[:-1]]


@pytest.mark.parametrize("block_size", [1, 10_000, 65_536])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_simulate_scratch_is_no_wider_than_one_chunk(monkeypatch, workers, block_size):
    # Each worker streams its share one chunk at a time through a flat
    # scratch of one chunk, whatever the block size: no draw has more than
    # one chunk's columns, and the buffer it writes into holds no more than
    # the n + 3 rows [1 | z | profit] of one chunk.
    sizes = []

    def spy(seed, start, out):
        scratch = out if out.base is None else out.base
        sizes.append((out.shape[1], scratch.size))
        draw(seed, start, out)

    draw = montecarlo._block_normals
    monkeypatch.setattr(montecarlo, "_block_normals", spy)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
    config = replace(_golden_n5_config(1.0), block_size=block_size)
    simulate(config)
    assert sum(count for count, _ in sizes) == 70_001
    assert max(count for count, _ in sizes) <= montecarlo._CHUNK
    assert max(size for _, size in sizes) <= (config.params.n_periods + 3) * montecarlo._CHUNK


def test_simulate_memory_is_flat_in_block_size_and_paths(monkeypatch):
    # numpy reports its buffers to tracemalloc.  Two workers each stream
    # their share of a block one chunk at a time through one scratch of
    # n + 3 floats per path of a chunk (the rows [1 | z | profit]) and at
    # most n + 1 more (the products Q z); on top of them comes one
    # (n + 3)-square Gram matrix per chunk of a block.  Block-sized rows, or
    # a temporary per chunk on top of the scratch, would break the bound.
    # The first call in a process also imports modules (concurrent.futures,
    # and secrets through numpy's SeedSequence), about 1.6 MB that
    # tracemalloc counts once; a warm-up call keeps them out of every peak.
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 2)
    n, workers, rows = 24, 2, montecarlo._CHUNK
    params = ModelParams(n_periods=n)
    simulate(equilibrium_config(params, n_paths=1000, seed=SEED))

    def peak(n_paths, block_size):
        config = equilibrium_config(params, n_paths=n_paths, seed=SEED, block_size=block_size)
        tracemalloc.start()
        try:
            simulate(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def matrix_bytes(n_paths, block_size):
        chunks = -(-min(n_paths, block_size) // montecarlo._CHUNK)
        return 8 * chunks * (n + 3) ** 2

    def bound(n_paths, block_size):
        return 8 * workers * rows * ((n + 3) + (n + 1)) + matrix_bytes(n_paths, block_size)

    peaks = {block: peak(250_000, block) for block in (4096, 1 << 16, 1 << 20)}
    for block, value in peaks.items():
        assert value <= bound(250_000, block), block
    # The scratch is one chunk at every block size, so a longer block adds
    # only its chunk Gram matrices: 46 more at 2**20 than at 2**16.
    assert peaks[4096] <= peaks[1 << 16]
    extra = matrix_bytes(250_000, 1 << 20) - matrix_bytes(250_000, 1 << 16)
    assert peaks[1 << 20] - peaks[1 << 16] <= 1.05 * extra
    fewer = peak(100_000, 1 << 16)
    assert fewer <= bound(100_000, 1 << 16)
    assert abs(fewer - peaks[1 << 16]) <= 0.1 * peaks[1 << 16]
