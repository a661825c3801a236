"""Monte Carlo verification of the equilibrium by path simulation.

Paths are simulated under a given (not necessarily equilibrium) linear
strategy and pricing rule: per round the insider trades
``dx_n = beta_n (v - p_{n-1}) delta``, order flow ``dy_n = dx_n + du_n``
hits the market, and the price updates to ``p_n = p_{n-1} + lam_n dy_n``.
Reported statistics are the mean insider profit ``sum_n (v - p_n) dx_n``
with its standard error, per-round price-efficiency regressions of
``v - p_n`` on the observed order flows, and the terminal residual
variance.

The chunk of 4096 paths is the one unit of the work.  Chunk ``c`` draws
its paths' normals, path by path, from its own Philox substream (counter
``c << 64`` under the seed as key) by numpy's ziggurat sampler.  Blocks
are whole chunks, and each block is cut into whole chunks per worker (the
CPUs available to the process, at most four), all run by a thread pool.
A worker draws its chunks round-major (one contiguous row per draw) and
runs the path loop on them into column-major moment rows, both held in
arrays that the main thread allocates once per run, so every round reads
and writes contiguous memory; it then writes one moment matrix per chunk.
The main thread adds these matrices in chunk order into one total, so
every result is bit-identical for a given seed and inputs, whatever the
block size and the number of workers.  Workers run only numpy, whose
sampler and array kernels release the interpreter lock, and call no
public function of the package, which needs numpy alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, _count, _readonly, _scales, equilibrium_from_params
from .operators import _as_floats, insider_response

__all__ = [
    "SimConfig",
    "EfficiencyRegression",
    "SimResult",
    "TerminalVarianceCheck",
    "equilibrium_config",
    "simulate",
    "terminal_variance_check",
    "expected_equilibrium_profit",
]

_SEED_MODULUS = 2**64
# Paths per Philox substream (see ``_block_normals``).
_CHUNK = 4096


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one simulation run.

    ``strategy_beta`` and ``pricing_lambda`` have one entry per round; they
    default to nothing and must be supplied (see :func:`equilibrium_config`
    for the equilibrium pair).  ``block_size`` is the number of paths per
    vectorized batch, rounded up to whole 4096-path chunks; it changes no
    bit of the result.  Peak memory is about ``(3n + 8)`` floats per path
    of a block: the draws, the moment rows and the path loop's temporaries.
    """

    params: ModelParams
    n_paths: int
    seed: int
    strategy_beta: np.ndarray
    pricing_lambda: np.ndarray
    block_size: int = 1 << 16

    def __post_init__(self) -> None:
        for name, low in (("n_paths", 1), ("seed", 0), ("block_size", 1)):
            object.__setattr__(self, name, _count(getattr(self, name), name, low))
        if self.seed >= _SEED_MODULUS:
            raise ValueError("seed must be below 2**64")
        n = self.params.n_periods
        for name in ("strategy_beta", "pricing_lambda"):
            object.__setattr__(self, name, _readonly(_as_floats(getattr(self, name), n, name)))


@dataclass(frozen=True)
class EfficiencyRegression:
    """OLS of the round-``period`` pricing error on observed order flows.

    Regressors are an intercept and the order flows of rounds 1..period.
    At an efficient price every coefficient is zero in expectation.
    """

    period: int
    coef: np.ndarray
    se: np.ndarray
    t_stat: np.ndarray


@dataclass(frozen=True)
class SimResult:
    """Aggregated statistics of one simulation run."""

    mean_profit: float
    mean_profit_se: float
    efficiency: tuple
    terminal_variance_estimate: float
    terminal_variance_se: float
    n_paths: int


@dataclass(frozen=True)
class TerminalVarianceCheck:
    """Terminal residual variance versus its model value."""

    estimate: float
    se: float
    expected: float
    deviation_in_se: float
    ok: bool


def equilibrium_config(
    params: ModelParams, n_paths: int, seed: int, block_size: int = 1 << 16
) -> SimConfig:
    """Simulation config with the equilibrium strategy and pricing rule.

    ``block_size`` rounds up to whole 4096-path chunks and changes no bit
    of the result (see :class:`SimConfig`).
    """
    eq = equilibrium_from_params(params)
    return SimConfig(
        params=params,
        n_paths=n_paths,
        seed=seed,
        strategy_beta=eq.beta,
        pricing_lambda=eq.lam,
        block_size=block_size,
    )


def _block_normals(seed: int, start: int, out: np.ndarray) -> None:
    """Standard normals for paths ``start`` onwards, round-major, into ``out``.

    ``start`` is a multiple of ``_CHUNK``, and ``out`` has one row per draw
    and one column per path.  Chunk ``c`` holds paths ``c * _CHUNK``
    onwards and draws them path-major from its own Philox substream,
    counter ``c << 64`` under key ``seed``, transposed into its columns.
    """
    n_draws, count = out.shape
    for lo in range(0, count, _CHUNK):
        c = (start + lo) // _CHUNK
        gen = np.random.Generator(np.random.Philox(key=seed, counter=c << 64))
        cols = out[:, lo : lo + _CHUNK]
        cols[:] = gen.standard_normal((cols.shape[1], n_draws)).T


_MAX_WORKERS = 4


def _worker_count() -> int:
    """Threads per block: the CPUs this process may run on, at most four."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _run_paths(
    config: SimConfig, start: int, z: np.ndarray, w: np.ndarray, moments: np.ndarray
) -> None:
    """Simulate the paths from ``start`` on, one per column of ``z``.

    ``z`` receives the paths' draws (row 0 drives v, row 1 + i the noise
    trade of round i), ``w`` their moment rows
    ``W = [1, dy_1..dy_n, (v - p_1)..(v - p_n), profit]`` and
    ``moments[k]`` the moment matrix of chunk k.  An overflow stays
    non-finite in the matrices, for ``simulate`` to report.
    """
    params = config.params
    n = params.n_periods
    beta = config.strategy_beta
    lam = config.pricing_lambda
    delta = params.delta
    du_scale = params.sigma_u * np.sqrt(delta)
    with np.errstate(over="ignore", invalid="ignore"):
        _block_normals(config.seed, start, z)
        v = np.sqrt(params.sigma0) * z[0]
        w[:, 0] = 1.0
        profit = w[:, -1]
        profit[:] = 0.0
        price = np.zeros(len(w))
        for i in range(n):
            dx = beta[i] * (v - price) * delta
            # Order flow and pricing error go straight into their columns.
            dy = np.multiply(du_scale, z[1 + i], out=w[:, 1 + i])
            dy += dx
            price += lam[i] * dy
            profit += np.subtract(v, price, out=w[:, 1 + n + i]) * dx
        for k, lo in enumerate(range(0, len(w), _CHUNK)):
            rows = w[lo : lo + _CHUNK]
            np.matmul(rows.T, rows, out=moments[k])


def simulate(config: SimConfig) -> SimResult:
    """Run the simulation and aggregate profit and efficiency statistics.

    Paths are processed in blocks of ``config.block_size`` rounded up to
    whole chunks, each cut into whole chunks per worker.  Every chunk's
    moment matrix is added in chunk order into one total, so results are
    bit-identical for a fixed seed and inputs, whatever the block size and
    the number of workers.  Raises ``ValueError`` when the moment sums
    overflow float range, or underflow to a singular regression (very
    large or very small ``sigma_u``, for one).
    """
    from concurrent.futures import ThreadPoolExecutor

    n = config.params.n_periods
    # Positive residual degrees of freedom for the widest regression, and
    # at least two paths for the variance estimates.
    if config.n_paths < 2 * n + 2:
        raise ValueError("n_paths must be at least 2 * n_periods + 2 for the statistics")

    dim = 2 * n + 2
    m = np.zeros((dim, dim))
    block = -(-config.block_size // _CHUNK) * _CHUNK
    workers = _worker_count()
    # The draws and the column-major moment rows of one block, allocated
    # once by this thread and reused by every block: arrays made per block
    # were handed back to the system and faulted in again block after
    # block, and arrays that pool threads make stay in those threads'
    # allocator arenas, so that peak memory varied from run to run.
    z = np.empty((n + 1, min(block, config.n_paths)))
    w = np.empty((z.shape[1], dim), order="F")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for block_start in range(0, config.n_paths, block):
            count = min(block, config.n_paths - block_start)
            chunks = -(-count // _CHUNK)
            moments = np.empty((chunks, dim, dim))
            cuts = [chunks * k // workers for k in range(workers + 1)]
            jobs = []
            for lo, hi in zip(cuts, cuts[1:]):
                if lo < hi:
                    rows = slice(lo * _CHUNK, min(hi * _CHUNK, count))
                    args = (block_start + rows.start, z[:, rows], w[rows], moments[lo:hi])
                    jobs.append(pool.submit(_run_paths, config, *args))
            for job in jobs:
                job.result()
            # An overflow here stays non-finite in the total, checked below.
            with np.errstate(over="ignore", invalid="ignore"):
                for chunk_moments in moments:
                    m += chunk_moments

    if not np.all(np.isfinite(m)):
        raise ValueError("path moments overflow float range: parameters too large to simulate")
    n_paths = config.n_paths
    mean_profit = m[0, -1] / n_paths
    profit_var = max((m[-1, -1] - n_paths * mean_profit**2) / (n_paths - 1), 0.0)
    mean_profit_se = np.sqrt(profit_var / n_paths)

    try:
        efficiency = tuple(_efficiency_regression(m, n, k, n_paths) for k in range(1, n + 1))
    except np.linalg.LinAlgError:
        raise ValueError(
            "path moments underflow float range: parameters too small to simulate"
        ) from None

    # Terminal pricing error: mean from column 0 cross-moment, then ddof=1.
    r_sum = m[0, n + n]
    r_sq_sum = m[n + n, n + n]
    r_mean = r_sum / n_paths
    term_var = max((r_sq_sum - n_paths * r_mean**2) / (n_paths - 1), 0.0)
    term_se = term_var * np.sqrt(2.0 / (n_paths - 1))

    return SimResult(
        mean_profit=float(mean_profit),
        mean_profit_se=float(mean_profit_se),
        efficiency=efficiency,
        terminal_variance_estimate=float(term_var),
        terminal_variance_se=float(term_se),
        n_paths=n_paths,
    )


def _efficiency_regression(
    m: np.ndarray, n: int, period: int, n_paths: int
) -> EfficiencyRegression:
    """OLS from accumulated moments for one round's pricing error."""
    idx = [0] + list(range(1, period + 1))
    y_col = n + period
    xtx = m[np.ix_(idx, idx)]
    xty = m[idx, y_col]
    coef = np.linalg.solve(xtx, xty)
    dof = n_paths - len(idx)
    resid_ss = max(float(m[y_col, y_col] - coef @ xty), 0.0)
    sigma_sq = resid_ss / dof
    cov = sigma_sq * np.linalg.inv(xtx)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    t_stat = np.divide(coef, se, out=np.zeros_like(coef), where=se > 0.0)
    return EfficiencyRegression(period=period, coef=coef, se=se, t_stat=t_stat)


def terminal_variance_check(
    result: SimResult, params: ModelParams
) -> TerminalVarianceCheck:
    """Compare a simulated terminal variance with the model value.

    Meant for results produced with the equilibrium strategy and pricing
    rule; the model value is the terminal entry of the equilibrium variance
    path.  Accepts a deviation of up to 4 standard errors.
    """
    expected = float(equilibrium_from_params(params).sigma_sq[-1])
    se = result.terminal_variance_se
    deviation = (
        abs(result.terminal_variance_estimate - expected) / se if se > 0.0 else np.inf
    )
    return TerminalVarianceCheck(
        estimate=result.terminal_variance_estimate,
        se=se,
        expected=expected,
        deviation_in_se=float(deviation),
        ok=bool(deviation <= 4.0),
    )


def expected_equilibrium_profit(params: ModelParams) -> float:
    """Model value of the insider's expected profit at the equilibrium.

    Uses the value-function representation: the expected profit is
    ``alpha_0 sigma0 + delta_0`` where the intercept path solves
    ``delta_{n-1} = delta_n + alpha_n lam_n^2 sigma_u^2 delta`` backwards
    from zero: in unit parameters, times ``sigma_u sqrt(sigma0 delta) =
    sigma0 / L`` (see ``model._scales``).
    """
    unit = ModelParams(n_periods=params.n_periods)
    lam = equilibrium_from_params(unit).lam
    alpha = insider_response(lam, unit).alpha
    intercept = sum(alpha[i] * lam[i - 1] ** 2 for i in range(params.n_periods, 0, -1))
    return float((alpha[0] + intercept) * (params.sigma0 / _scales(params)[1]))
