"""Monte Carlo verification of the equilibrium by path simulation.

Paths are simulated under a given (not necessarily equilibrium) linear
strategy and pricing rule: per round the insider trades
``dx_n = beta_n (v - p_{n-1}) delta``, order flow ``dy_n = dx_n + du_n``
hits the market, and the price updates to ``p_n = p_{n-1} + lam_n dy_n``.
Reported statistics are the mean insider profit ``sum_n (v - p_n) dx_n``
with its standard error, per-round price-efficiency regressions of
``v - p_n`` on the observed order flows, and the terminal residual
variance.

Randomness is counter-based: paths come in fixed chunks of 4096, and
chunk ``c`` draws its paths' normals, one row per path, from its own
Philox substream (counter ``c << 64`` under the seed as key) by numpy's
ziggurat sampler.  Path ``i`` therefore gets the same draws for a given
seed, no matter how paths are grouped into blocks or workers, so results
are reproducible and independent of the block split at the level of the
underlying draws.  A range that starts inside a chunk regenerates the
chunk's leading rows and drops them.  The package needs numpy alone.

Each block's rows are cut into one contiguous slice per worker (the CPUs
available to the process, at most four); the main thread runs the first
slice and pool threads the others.  A worker draws its own path range,
runs the path loop on it and writes its rows of the block's moment rows
and profits; the main thread then forms the moment matrix and the profit
sums over the whole block, in block order, so no result depends on the
number of workers.  Inside a slice the draws are laid out round-major
(one contiguous row per draw) and the moment rows are stored column-major,
so every round reads and writes contiguous memory.  Workers run only numpy,
whose sampler and array kernels release the interpreter lock, and call no
public function of the package.
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
    for the equilibrium pair).  ``block_size`` only controls how many paths
    are generated per vectorized batch; the draws consumed by each path do
    not depend on it.  Peak memory scales with ``block_size * (1 + 2n)``
    floats, the moment rows of one block.
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
    """Simulation config with the equilibrium strategy and pricing rule."""
    eq = equilibrium_from_params(params)
    return SimConfig(
        params=params,
        n_paths=n_paths,
        seed=seed,
        strategy_beta=eq.beta,
        pricing_lambda=eq.lam,
        block_size=block_size,
    )


def _block_normals(seed: int, start: int, count: int, n_draws: int) -> np.ndarray:
    """Standard normals for paths ``start .. start + count - 1``, one row per path.

    Chunk ``c`` holds paths ``c * _CHUNK`` onwards and draws them path-major
    from its own Philox substream, counter ``c << 64`` under key ``seed``.
    A range that starts inside a chunk draws that chunk's leading rows too
    and drops them, so a path's row never depends on the range.
    """
    stop = start + count
    out = np.empty((count, n_draws))
    for c in range(start // _CHUNK, (stop - 1) // _CHUNK + 1):
        first = c * _CHUNK
        gen = np.random.Generator(np.random.Philox(key=seed, counter=c << 64))
        skip = max(start - first, 0)
        rows = out[first + skip - start : min(first + _CHUNK, stop) - start]
        if skip:
            rows[:] = gen.standard_normal((skip + len(rows), n_draws))[skip:]
        else:
            gen.standard_normal(out=rows)
    return out


_MAX_WORKERS = 4


def _worker_count() -> int:
    """Threads per block: the CPUs this process may run on, at most four."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


class _Kahan:
    """Compensated accumulator for scalars or same-shape arrays."""

    def __init__(self, zero):
        self.total = zero
        self._carry = zero * 0.0

    def add(self, value) -> None:
        y = value - self._carry
        t = self.total + y
        self._carry = (t - self.total) - y
        self.total = t


def _run_paths(config: SimConfig, start: int, w: np.ndarray, profit: np.ndarray) -> None:
    """Simulate paths ``start .. start + len(profit) - 1`` into ``w`` and ``profit``.

    ``w`` receives each path's moment row
    ``[1, dy_1..dy_n, (v - p_1)..(v - p_n)]`` and ``profit`` its insider
    profit; both are row slices of the block's arrays.
    """
    params = config.params
    n = params.n_periods
    beta = config.strategy_beta
    lam = config.pricing_lambda
    delta = params.delta
    du_scale = params.sigma_u * np.sqrt(delta)
    # Round-major: row 0 drives v, row 1 + i the noise trade of round i.
    z = np.ascontiguousarray(_block_normals(config.seed, start, len(profit), n + 1).T)
    v = np.sqrt(params.sigma0) * z[0]

    w[:, 0] = 1.0
    price = np.zeros(len(profit))
    profit[:] = 0.0
    for i in range(n):
        dx = beta[i] * (v - price) * delta
        # Order flow and pricing error go straight into their columns.
        dy = np.multiply(du_scale, z[1 + i], out=w[:, 1 + i])
        dy += dx
        price += lam[i] * dy
        profit += np.subtract(v, price, out=w[:, 1 + n + i]) * dx


def simulate(config: SimConfig) -> SimResult:
    """Run the simulation and aggregate profit and efficiency statistics.

    Paths are processed in blocks of ``config.block_size``, each split
    across workers; cross-block sums use compensated accumulation.
    Results are bit-reproducible for a fixed config, whatever the number
    of workers.  Raises ``ValueError`` when the moment or profit sums
    overflow float range, or underflow to a singular regression (very
    large or very small ``sigma_u``, for one).
    """
    from concurrent.futures import ThreadPoolExecutor

    n = config.params.n_periods
    # Positive residual degrees of freedom for the widest regression, and
    # at least two paths for the variance estimates.
    if config.n_paths < 2 * n + 2:
        raise ValueError("n_paths must be at least 2 * n_periods + 2 for the statistics")

    # Moment matrix of W = [1, dy_1..dy_n, (v - p_1)..(v - p_n)] per path.
    dim = 1 + 2 * n
    moments = _Kahan(np.zeros((dim, dim)))
    profit_sum = _Kahan(0.0)
    profit_sq_sum = _Kahan(0.0)

    workers = _worker_count()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for block_start in range(0, config.n_paths, config.block_size):
            count = min(config.block_size, config.n_paths - block_start)
            # Column-major, so each round's two column writes are contiguous.
            w = np.empty((count, dim), order="F")
            profit = np.empty(count)
            cuts = [count * k // workers for k in range(workers + 1)]
            slices = [
                (block_start + lo, w[lo:hi], profit[lo:hi])
                for lo, hi in zip(cuts, cuts[1:])
                if lo < hi
            ]
            # The main thread runs the first slice itself, so one worker
            # starts no thread.
            others = [pool.submit(_run_paths, config, *rows) for rows in slices[1:]]
            _run_paths(config, *slices[0])
            for done in others:
                done.result()

            # An overflow here stays non-finite in the totals, checked below.
            with np.errstate(over="ignore", invalid="ignore"):
                moments.add(w.T @ w)
                profit_sum.add(float(np.sum(profit)))
                profit_sq_sum.add(float(np.sum(profit * profit)))

    if not np.all(np.isfinite([*moments.total.flat, profit_sum.total, profit_sq_sum.total])):
        raise ValueError("path moments overflow float range: parameters too large to simulate")
    n_paths = config.n_paths
    mean_profit = profit_sum.total / n_paths
    profit_var = max(
        (profit_sq_sum.total - n_paths * mean_profit**2) / (n_paths - 1), 0.0
    )
    mean_profit_se = np.sqrt(profit_var / n_paths)

    m = moments.total
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
