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
    # Round-major: column j holds path start + j, and chunk c's columns are
    # its path-major Philox draws, transposed.  Ranges split at chunk
    # boundaries tile the whole range, and a range may be a view.
    chunk = montecarlo._CHUNK
    whole = _normals(SEED, 0, 3 * chunk + 7, 5)
    split = np.empty((5, 3 * chunk + 7))
    montecarlo._block_normals(SEED, 0, split[:, :chunk])
    montecarlo._block_normals(SEED, chunk, split[:, chunk : 3 * chunk])
    montecarlo._block_normals(SEED, 3 * chunk, split[:, 3 * chunk :])
    assert np.array_equal(whole, split)
    gen = np.random.Generator(np.random.Philox(key=SEED, counter=1 << 64))
    assert np.array_equal(whole[:, chunk : 2 * chunk], gen.standard_normal((chunk, 5)).T)
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
# one) at the equilibrium strategy and at half of it.  The digits are those of the 4096-path Philox substreams,
# numpy's ziggurat sampler and chunk moments summed in chunk order; any
# change to the draws, the normal transform or the accumulation order
# shows up here as a changed digit, and so would a numpy release that
# changes its sampler.
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
_GOLDEN_N3 = ("1.2019441673837454", "0.2627225344461106", "0.6385308947470932")

# mean_profit, mean_profit_se, terminal_variance_estimate, every t_stat
_GOLDEN_N5 = {
    1.0: (
        "1.7011397392909893",
        "0.008545444162807503",
        "0.18835781811098143",
        [
            ["0.8153410992850443", "-0.03906354060355256"],
            ["1.3093465511366567", "-0.8292198703681801", "0.7774458466473088"],
            ["1.2522448120525453", "-0.34781392911935893", "1.1626820091082186",
             "0.25398966117590704"],
            ["1.5880609040177984", "-0.11161271318945928", "0.74743788937208",
             "-0.4315533247986056", "-1.004812134935007"],
            ["0.7892935205344594", "-0.7797380001160725", "0.12574519399137252",
             "0.34235303218004093", "0.2196949086421134", "0.5734863335175636"],
        ],
    ),
    0.5: (
        "1.4632833770525575",
        "0.007515101137370461",
        "0.5075589928500783",
        [
            ["0.6918700697905846", "-43.06031387740226"],
            ["0.9983047745090738", "-42.203923878179964", "-34.91128979470025"],
            ["1.0166722627917575", "-40.00406732693188", "-32.95616422342373",
             "-24.844374709956522"],
            ["1.314656457274341", "-36.81000938330264", "-30.583594496722775",
             "-23.41268371709118", "-7.411080736276807"],
            ["0.8192235266133264", "-30.9643258166132", "-25.709279688071224",
             "-19.053093672823575", "-5.652572460708325", "38.97838206135534"],
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
    # five-chunk blocks one worker runs a full pass and a one-chunk pass,
    # then a block of one chunk and the partial one.  A short switch
    # interval makes the threads interleave often.
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


def test_simulate_memory_is_flat_in_block_size_and_paths(monkeypatch):
    # numpy reports its buffers to tracemalloc.  Two workers each stream
    # their share of a block through one scratch of 3n + 3 floats per path
    # of a pass; on top of it come each worker's path-major draws of one
    # chunk, eight pass-length vectors of the path loop, and one moment
    # matrix per chunk of a block.  Block-sized draw and moment-row arrays
    # (39.3 MB at N=24 and 65,536 paths) would break the bound.
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 2)
    n, workers, rows = 24, 2, montecarlo._PASS * montecarlo._CHUNK
    params = ModelParams(n_periods=n)

    def peak(n_paths, block_size):
        config = equilibrium_config(params, n_paths=n_paths, seed=SEED, block_size=block_size)
        tracemalloc.start()
        try:
            simulate(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def bound(n_paths, block_size):
        chunks = -(-min(n_paths, block_size) // montecarlo._CHUNK)
        scratch = rows * (3 * n + 3 + 8) + montecarlo._CHUNK * (n + 1)
        return 8 * (workers * scratch + chunks * (2 * n + 2) ** 2)

    peaks = {block: peak(250_000, block) for block in (4096, 1 << 16, 1 << 20)}
    for block, value in peaks.items():
        assert value <= bound(250_000, block), block
    # Below one pass per worker a block's shares are smaller than a pass.
    assert peaks[4096] <= peaks[1 << 16]
    assert peaks[1 << 20] <= 1.1 * peaks[1 << 16]
    fewer = peak(100_000, 1 << 16)
    assert fewer <= bound(100_000, 1 << 16)
    assert abs(fewer - peaks[1 << 16]) <= 0.1 * peaks[1 << 16]
