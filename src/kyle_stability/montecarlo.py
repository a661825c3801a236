"""Monte Carlo verification of the equilibrium by path simulation.

Paths are simulated under a given (not necessarily equilibrium) linear
strategy and pricing rule: per round the insider trades
``dx_n = beta_n (v - p_{n-1}) delta``, order flow ``dy_n = dx_n + du_n``
hits the market, and the price updates to ``p_n = p_{n-1} + lam_n dy_n``.
Reported statistics are the mean insider profit ``sum_n (v - p_n) dx_n``
with its standard error, per-round price-efficiency regressions of
``v - p_n`` on the observed order flows, and the terminal residual
variance.

Every path quantity is a fixed function of the path's n + 1 normals
``z``: the order flows and pricing errors are linear in them and the
profit is a quadratic form.  So the recursion runs once per call on
coefficient vectors, and a chunk of paths needs only its normals, its
profits and one Gram matrix.

The chunk of 4096 paths is the one unit of the work.  Chunk ``c`` fills
its paths' normals round by round from its own SFC64 substream (spawn key
``(c,)`` under the seed, which may be any non-negative integer) by numpy's
ziggurat sampler.  Blocks are whole chunks, and each block is cut into
whole chunks per worker (the CPUs available to the process, at most four,
and no more than a block has chunks): the calling thread runs the first
share and a thread pool the others, so one worker starts no thread.
A worker streams its share through its own one-chunk scratch: for each
chunk it draws the normals straight into the rows ``[1 | z | profit]``,
fills the profit row with ``z Q z`` and writes the chunk's Gram matrix.
The main thread allocates each worker's scratch once per run, so memory
does not grow with the block size or the number of paths.  It adds the
Gram matrices in chunk order into one total and maps that once into the
path moments, so every result is bit-identical for a given seed and
inputs, whatever the block size and the number of workers.  Workers run
only numpy, whose sampler and array kernels release the interpreter lock,
and call no public function of the package, which needs numpy alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, _count, _readonly, equilibrium_from_params
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

# Paths per SFC64 substream and per pass of a worker (see ``_run_paths``).
_CHUNK = 4096
# Paths per ``Q z`` product.  Up to N = 24, OpenBLAS runs a product of
# this many paths on the calling thread; it spreads one of a whole chunk
# over its own threads, and two workers then contend for the CPUs.
_SLICE = 1024


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one simulation run.

    ``strategy_beta`` and ``pricing_lambda`` have one entry per round; they
    default to nothing and must be supplied (see :func:`equilibrium_config`
    for the equilibrium pair).  ``seed`` is any non-negative integer, the
    entropy of every chunk's substream.  ``block_size`` is the number of
    paths handed to the worker threads at a time, rounded up to whole
    4096-path chunks; it changes no bit of the result.  It sets only the
    Gram buffer, one ``(n + 3)``-square matrix per chunk of a block.  Each
    worker holds ``n + 3`` floats (the rows ``[1 | z | profit]``) for each
    path of one chunk, and ``n + 1`` for each path of one ``Q z`` slice.
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

    ``block_size`` rounds up to whole 4096-path chunks, changes no bit of
    the result and leaves each worker's scratch at one chunk (see
    :class:`SimConfig`).
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


def _block_normals(seed: int, chunk: int, out: np.ndarray) -> None:
    """Standard normals of chunk ``chunk``, round-major, into ``out``.

    ``out`` is C-contiguous, with one row per draw and one column per path
    of the chunk (at most ``_CHUNK``).  The chunk fills it row by row, one
    round after another, from its own SFC64 substream: spawn key
    ``(chunk,)`` under entropy ``seed``, which may be any non-negative
    integer.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(chunk,))
    np.random.Generator(np.random.SFC64(seq)).standard_normal(out=out)


_MAX_WORKERS = 4


def _worker_count() -> int:
    """Threads per block: the CPUs this process may run on, at most four."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _path_coefficients(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """``(T, Q)``: every path quantity as a function of the path's normals.

    A path's normals ``z`` are ``n + 1`` numbers: ``z_0`` drives v and
    ``z_i`` the noise trade of round i.  The path recursion is linear in
    them, so it runs once here on coefficient vectors: ``dy_i = z A_i``,
    ``v - p_i = z C_i``, and the profit is the quadratic form ``z Q z``.
    ``T`` maps a chunk row ``[1, z, profit]`` to the moment row
    ``W = [1, dy_1..dy_n, (v - p_1)..(v - p_n), profit]``, so the moments
    are ``T' R T`` with R the Gram matrix of the chunk rows.  An overflow
    stays non-finite in ``T`` or ``Q``, for ``simulate`` to report.
    """
    params = config.params
    n = params.n_periods
    delta = params.delta
    t = np.zeros((n + 3, 2 * n + 2))
    t[0, 0] = t[-1, -1] = 1.0
    flows, errors = t[1:-1, 1 : n + 1], t[1:-1, n + 1 : -1]
    q = np.zeros((n + 1, n + 1))
    # v - p_0, the pricing error before the first round.
    error = np.zeros(n + 1)
    error[0] = np.sqrt(params.sigma0)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (beta, lam) in enumerate(zip(config.strategy_beta, config.pricing_lambda)):
            # dx = beta_i (v - p) delta, dy = dx + du and p += lam_i dy.
            dx = error * beta * delta
            flows[:, i] = dx
            flows[1 + i, i] += params.sigma_u * np.sqrt(delta)
            error = np.subtract(error, lam * flows[:, i], out=errors[:, i])
            q += np.outer(error, dx)
    return t, q


def _run_paths(
    config: SimConfig,
    q: np.ndarray,
    start: int,
    count: int,
    rows: np.ndarray,
    products: np.ndarray,
    grams: np.ndarray,
) -> None:
    """Simulate paths ``start`` to ``start + count``, a chunk at a time, in ``rows``.

    ``start`` is a multiple of ``_CHUNK``, and ``rows`` and ``products``
    are flat scratch.  Each chunk of k paths views the front of ``rows`` as
    the ``(n + 3) x k`` matrix ``U' = [1 | z | profit]'``: the chunk draws
    its normals straight into rows 1 to n + 1, fills the profit row with
    ``z Q z`` in ``_SLICE``-path slices of ``products``, and writes the
    Gram matrix ``U' U`` of the range's chunk j into ``grams[j]``.  An
    overflow stays non-finite in the matrices, for ``simulate`` to report.
    """
    n = config.params.n_periods
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, count, _CHUNK):
            k = min(_CHUNK, count - first)
            u = rows[: (n + 3) * k].reshape(n + 3, k)
            u[0] = 1.0
            z, profit = u[1:-1], u[-1]
            _block_normals(config.seed, (start + first) // _CHUNK, z)
            for lo in range(0, k, _SLICE):
                z_slice = z[:, lo : lo + _SLICE]
                qz = np.matmul(q, z_slice, out=products[: z_slice.size].reshape(z_slice.shape))
                np.einsum("ij,ij->j", z_slice, qz, out=profit[lo : lo + _SLICE])
            np.matmul(u, u.T, out=grams[first // _CHUNK])


def _shares(count: int, workers: int) -> list:
    """Row ranges ``(lo, hi)`` of ``count`` block rows per worker, in whole chunks."""
    chunks = -(-count // _CHUNK)
    cuts = [chunks * k // workers * _CHUNK for k in range(workers + 1)]
    return [(lo, min(hi, count)) for lo, hi in zip(cuts, cuts[1:])]


def simulate(config: SimConfig) -> SimResult:
    """Run the simulation and aggregate profit and efficiency statistics.

    Paths are processed in blocks of ``config.block_size`` rounded up to
    whole chunks, each cut into whole chunks per worker; a worker runs its
    share one chunk at a time.  Every chunk's Gram matrix is added in
    chunk order into one total, which maps once into the path moments, so
    results are bit-identical for a fixed seed and inputs, whatever the
    block size and the number of workers.  Raises ``ValueError`` when the
    moment sums overflow float range, or underflow to a singular
    regression (very large or very small ``sigma_u``, for one), or when a
    regression's covariance overflows (parameter scales far apart).
    """
    from contextlib import nullcontext

    n = config.params.n_periods
    # Positive residual degrees of freedom for the widest regression, and
    # at least two paths for the variance estimates.
    if config.n_paths < 2 * n + 2:
        raise ValueError("n_paths must be at least 2 * n_periods + 2 for the statistics")

    n_paths = config.n_paths
    t, q = _path_coefficients(config)
    r = np.zeros((n + 3, n + 3))
    block = -(-config.block_size // _CHUNK) * _CHUNK
    # No more workers than the largest block has chunks: the others would
    # never get a share.
    chunks = -(-min(block, n_paths) // _CHUNK)
    workers = min(_worker_count(), chunks)
    # Each worker's scratch holds the rows of one chunk and the products of
    # one slice.  The scratch and the chunk Gram buffer are allocated once
    # by this thread and reused by every chunk and block: arrays made per
    # block were faulted in again block after block, and arrays that pool
    # threads make stay in those threads' allocator arenas, so that peak
    # memory varied from run to run.
    width = min(_CHUNK, n_paths)
    scratch = [
        (np.empty((n + 3) * width), np.empty((n + 1) * min(_SLICE, width)))
        for _ in range(workers)
    ]
    grams = np.empty((chunks, n + 3, n + 3))
    # The calling thread runs the first share of each block, and a pool of
    # workers - 1 threads the others; one worker starts no thread and does
    # not import the pool, which brings in logging.
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        threads = ThreadPoolExecutor(max_workers=workers - 1)
    else:
        threads = nullcontext()
    with threads as pool:
        for block_start in range(0, n_paths, block):
            count = min(block, n_paths - block_start)
            first, *rest = [
                (config, q, block_start + lo, hi - lo, rows, products, grams[lo // _CHUNK :])
                for (lo, hi), (rows, products) in zip(_shares(count, workers), scratch)
                if lo < hi
            ]
            jobs = [pool.submit(_run_paths, *share) for share in rest]
            _run_paths(*first)
            for job in jobs:
                job.result()
            # An overflow here stays non-finite in the total, checked below.
            with np.errstate(over="ignore", invalid="ignore"):
                for gram in grams[: -(-count // _CHUNK)]:
                    r += gram

    with np.errstate(over="ignore", invalid="ignore"):
        m = t.T @ r @ t
    if not np.all(np.isfinite(m)):
        raise ValueError("path moments overflow float range: parameters too large to simulate")
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
    # Moments of very different scales (sigma0 = 1e150 with delta = 1e-300,
    # for one) put entries beyond float range in the covariance.
    with np.errstate(over="ignore", invalid="ignore"):
        cov = sigma_sq * np.linalg.inv(xtx)
    if not np.all(np.isfinite(cov)):
        raise ValueError(
            "regression covariance overflows float range: "
            "parameter scales too far apart to simulate"
        )
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
    sigma0 / L`` (``L`` of ``params._scales``).
    """
    unit = ModelParams(n_periods=params.n_periods)
    lam = equilibrium_from_params(unit).lam
    alpha = insider_response(lam, unit).alpha
    intercept = sum(alpha[i] * lam[i - 1] ** 2 for i in range(params.n_periods, 0, -1))
    return float((alpha[0] + intercept) * (params.sigma0 / params._scales[1]))
