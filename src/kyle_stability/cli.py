"""Command-line interface.

Seven subcommands drive the library: ``equilibrium``, ``iterate``,
``jacobian``, ``stability``, ``perturb``, ``simulate`` and ``tables``.
Reports are JSON by default (CSV via ``--format csv``), written to stdout
or ``--out``.  Exit codes: 0 success, 2 input error, 3 out-of-domain,
4 non-convergence when ``--expect-converge`` is set, or when the
iteration of ``tables --which eigenvalues`` reaches no second fixed point.
Iteration verdicts map to exit codes by one rule, ``_verdict_exit``.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from . import experiments, reports
from .model import ModelParams, _unit_equilibrium, equilibrium_from_params, verify_kyle_recursions
from .montecarlo import SimConfig, simulate, terminal_variance_check
from .operators import insider_policy_step, maker_policy_step
from .stability import (
    NotAFixedPointError,
    NotConvergedError,
    OutOfDomainError,
    StencilDomainError,
    VERDICT_CONVERGED,
    VERDICT_LEFT_DOMAIN,
    classify_fixed_point,
    eigenvalues,
    iterate,
    jacobian_closed_form,
    jacobian_fd,
)

_OPERATORS = {"insider": insider_policy_step, "maker": maker_policy_step}
# Default --n of `tables --which key-results`: the table's rows N = 1..8.
_KEY_RESULTS_N = 8


def _vector(text: str) -> list:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated vector: {text!r}") from exc


def _coord(text: str):
    if text == "last":
        return "last"
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"coord must be an integer or 'last': {text!r}") from exc


def _add_model_flags(
    parser: argparse.ArgumentParser,
    time_step_flag: str = "--delta",
    n_default: int | None = 3,
    n_help: str = "number of rounds (default 3)",
) -> None:
    parser.add_argument("--n", type=int, default=n_default, help=n_help)
    parser.add_argument(
        time_step_flag, dest="time_step", type=float, default=1.0, help="round length (default 1)"
    )
    parser.add_argument("--sigma-u", type=float, default=1.0, help="noise volatility (default 1)")
    parser.add_argument("--sigma0", type=float, default=1.0, help="prior variance (default 1)")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", metavar="PATH", default=None, help="write report here instead of stdout")


def _add_iteration_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=1e-12)
    parser.add_argument("--max-iter", type=int, default=10_000)
    parser.add_argument("--blowup", type=float, default=1e8)
    parser.add_argument(
        "--expect-converge",
        action="store_true",
        help="exit 4 when the verdict is not convergence (back to equilibrium for perturb)",
    )


class _Parser(argparse.ArgumentParser):
    """Parser that reads a token starting like a negative number as a value.

    argparse recognises ``-0.001`` as a negative number but not ``-1e-3`` or
    ``-1e-3,1,1``, which it takes for unknown flags.  No flag of this
    program starts with ``-`` and a digit, so every such token is a value.
    Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kyle-stability",
        description="Discrete-time Kyle equilibrium, policy iteration and stability analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eq = sub.add_parser("equilibrium", help="equilibrium coefficient paths")
    _add_model_flags(p_eq)
    _add_output_flags(p_eq)

    p_it = sub.add_parser("iterate", help="iterate a policy round trip from a start vector")
    _add_model_flags(p_it)
    _add_output_flags(p_it)
    _add_iteration_flags(p_it)
    p_it.add_argument("--operator", choices=sorted(_OPERATORS), default="insider")
    p_it.add_argument("--start", type=_vector, required=True, help="comma-separated start vector")

    p_jac = sub.add_parser("jacobian", help="Jacobian of a policy round trip at a point")
    _add_model_flags(p_jac)
    _add_output_flags(p_jac)
    p_jac.add_argument("--operator", choices=sorted(_OPERATORS), default="insider")
    p_jac.add_argument("--point", type=_vector, default=None, help="defaults to the equilibrium")
    p_jac.add_argument(
        "--closed-form", action="store_true", help="exact, any N, insider side"
    )

    p_st = sub.add_parser("stability", help="classify a fixed point of a policy round trip")
    _add_model_flags(p_st)
    _add_output_flags(p_st)
    p_st.add_argument("--operator", choices=sorted(_OPERATORS), default="insider")
    p_st.add_argument("--point", type=_vector, default=None, help="defaults to the equilibrium")
    p_st.add_argument("--eps-class", type=float, default=1e-6)

    p_pb = sub.add_parser(
        "perturb", help="pinned-coordinate perturbation test around the equilibrium"
    )
    # --delta is the perturbation size here; the round length moves to --dt.
    _add_model_flags(p_pb, time_step_flag="--dt")
    _add_output_flags(p_pb)
    _add_iteration_flags(p_pb)
    p_pb.add_argument("--coord", type=_coord, default="last", help="1-based coordinate or 'last'")
    p_pb.add_argument("--delta", type=float, default=1e-3, help="perturbation size (default 1e-3)")
    p_pb.add_argument("--battery", action="store_true", help="run every coordinate")
    p_pb.add_argument("--return-tol", type=float, default=1e-10)

    p_sim = sub.add_parser("simulate", help="Monte Carlo verification run")
    _add_model_flags(p_sim)
    _add_output_flags(p_sim)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--paths", type=int, default=1_000_000)
    p_sim.add_argument(
        "--strategy-scale", type=float, default=1.0, help="scale the equilibrium strategy"
    )
    p_sim.add_argument("--strategy", type=_vector, default=None, help="explicit strategy vector")
    p_sim.add_argument("--pricing", type=_vector, default=None, help="explicit pricing vector")
    p_sim.add_argument(
        "--block-size", type=int, default=1 << 16,
        help="paths handed to the worker threads at a time, rounded up to 4096-path chunks"
        " (default 65536); changes no result bit, and each worker streams its share"
        " through a scratch of at most 16,384 paths",
    )

    p_tab = sub.add_parser("tables", help="reproduce the headline tables and experiments")
    _add_model_flags(
        p_tab,
        n_default=None,
        n_help="number of rounds (default 3); key-results shows N = 1..n (default 8)",
    )
    _add_output_flags(p_tab)
    _add_iteration_flags(p_tab)
    p_tab.add_argument(
        "--which",
        choices=("key-results", "eigenvalues", "perturbation-limit"),
        required=True,
    )
    p_tab.add_argument("--variance-bump", type=float, default=1e-10)

    return parser


def _params_from(args) -> ModelParams:
    return ModelParams(
        n_periods=args.n, delta=args.time_step, sigma_u=args.sigma_u, sigma0=args.sigma0
    )


def _inputs_echo(args) -> dict:
    skip = {"command", "format", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(args, result) -> None:
    report = {
        "schema": reports.SCHEMA,
        "command": args.command,
        "inputs": reports.to_jsonable(_inputs_echo(args)),
        "result": reports.to_jsonable(result),
    }
    if args.format == "json":
        text = reports.dumps_report(report) + "\n"
    else:
        text = reports.rows_to_csv(result)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _iteration(args) -> dict:
    """The iteration flags as keywords of the library's iteration functions."""
    return {"tol": args.tol, "max_iter": args.max_iter, "blowup": args.blowup}


def _reject_ignored(args, other: str, **defaults) -> None:
    """Raise ValueError (exit 2) for a flag that ``other`` would ignore."""
    for name, default in defaults.items():
        if getattr(args, name) != default:
            raise ValueError(f"--{name.replace('_', '-')} has no effect with {other}")


def _verdict_exit(verdicts, expect_converge: bool, goal: str = VERDICT_CONVERGED) -> int:
    """3 when an iteration left the domain, else 4 when one expected to reach ``goal`` did not."""
    if VERDICT_LEFT_DOMAIN in verdicts:
        return 3
    if expect_converge and any(verdict != goal for verdict in verdicts):
        return 4
    return 0


def _cmd_equilibrium(args) -> int:
    params = _params_from(args)
    eq = equilibrium_from_params(params)
    check = verify_kyle_recursions(eq, params)
    result = {
        "n_periods": params.n_periods,
        "b": _unit_equilibrium(params.n_periods)[0],
        "beta": eq.beta,
        "lam": eq.lam,
        "alpha": eq.alpha,
        "sigma_sq": eq.sigma_sq,
        "recursion_check": check,
    }
    _emit(args, result)
    return 0


def _cmd_iterate(args) -> int:
    params = _params_from(args)
    trace = iterate(_OPERATORS[args.operator], args.start, params, **_iteration(args))
    result = {
        "operator": args.operator,
        "verdict": trace.verdict,
        "iterations_used": trace.iterations_used,
        "limit": trace.limit,
        "truncated": trace.truncated,
        "iterates": trace.iterates,
    }
    _emit(args, result)
    return _verdict_exit([trace.verdict], args.expect_converge)


def _cmd_jacobian(args) -> int:
    params = _params_from(args)
    point = _point(args, params)
    if args.closed_form:
        if args.operator != "insider":
            raise ValueError("closed form is only available for the insider-side map")
        jac = jacobian_closed_form(point, params)
    else:
        jac = jacobian_fd(_OPERATORS[args.operator], point, params)
    result = {
        "operator": args.operator,
        "point": np.asarray(point, dtype=float),
        "jacobian": jac,
        "eigenvalues": eigenvalues(jac),
        "closed_form": bool(args.closed_form),
    }
    _emit(args, result)
    return 0


def _point(args, params: ModelParams):
    """``--point``, by default the equilibrium path of the operator's side."""
    if args.point is not None:
        return args.point
    eq = equilibrium_from_params(params)
    return eq.beta if args.operator == "insider" else eq.lam


def _cmd_stability(args) -> int:
    params = _params_from(args)
    point = _point(args, params)
    report = classify_fixed_point(
        _OPERATORS[args.operator], point, params, eps_class=args.eps_class
    )
    result = {
        "operator": args.operator,
        "point": np.asarray(point, dtype=float),
        "jacobian": report.jacobian,
        "eigenvalues": report.eigenvalues,
        "spectral_radius": report.spectral_radius,
        "inf_norm": report.inf_norm,
        "classification": report.classification,
    }
    _emit(args, result)
    return 0


def _cmd_perturb(args) -> int:
    params = _params_from(args)
    if args.battery:
        _reject_ignored(args, "--battery", coord="last")
        coords = list(range(1, params.n_periods + 1))
    else:
        coords = [params.n_periods if args.coord == "last" else args.coord]
    rows = experiments.perturbation_battery(
        params, coords=coords, bump=args.delta, return_tol=args.return_tol, **_iteration(args)
    )
    returned = "converged-to-equilibrium"
    for row in rows:
        row["verdict"] = returned if row["returned"] else row["verdict"]
    _emit(args, rows)
    return _verdict_exit([row["verdict"] for row in rows], args.expect_converge, returned)


def _cmd_simulate(args) -> int:
    if args.strategy is not None:
        _reject_ignored(args, "--strategy", strategy_scale=1.0)
    params = _params_from(args)
    eq = equilibrium_from_params(params)
    strategy = args.strategy if args.strategy is not None else args.strategy_scale * eq.beta
    pricing = args.pricing if args.pricing is not None else eq.lam
    config = SimConfig(
        params=params,
        n_paths=args.paths,
        seed=args.seed,
        strategy_beta=strategy,
        pricing_lambda=pricing,
        block_size=args.block_size,
    )
    sim = simulate(config)
    result = {
        "strategy_beta": config.strategy_beta,
        "pricing_lambda": config.pricing_lambda,
        "mean_profit": sim.mean_profit,
        "mean_profit_se": sim.mean_profit_se,
        "terminal_variance_estimate": sim.terminal_variance_estimate,
        "terminal_variance_se": sim.terminal_variance_se,
        "efficiency": list(sim.efficiency),
        "n_paths": sim.n_paths,
    }
    equilibrium_inputs = args.strategy is None and args.pricing is None and args.strategy_scale == 1.0
    if equilibrium_inputs:
        result["terminal_variance_check"] = terminal_variance_check(sim, params)
    _emit(args, result)
    return 0


def _cmd_tables(args) -> int:
    if args.n is None:
        args.n = _KEY_RESULTS_N if args.which == "key-results" else 3
    params = _params_from(args)
    if args.which == "key-results":
        _reject_ignored(args, "--which key-results", tol=1e-12, max_iter=10_000, blowup=1e8,
                        variance_bump=1e-10, expect_converge=False)
        result = experiments.key_results_table(
            range(1, params.n_periods + 1), base_params=params
        )
    elif args.which == "eigenvalues":
        # The table exits 4 without a second fixed point, flag or not.
        _reject_ignored(args, "--which eigenvalues", expect_converge=False)
        result = experiments.eigenvalue_table(
            params, variance_bump=args.variance_bump, **_iteration(args)
        )
    else:
        result = experiments.variance_perturbation_experiment(
            params, variance_bump=args.variance_bump, **_iteration(args)
        )
    _emit(args, result)
    if args.which == "perturbation-limit":
        return _verdict_exit([result["verdict"]], args.expect_converge)
    return 0


_COMMANDS = {
    "equilibrium": _cmd_equilibrium,
    "iterate": _cmd_iterate,
    "jacobian": _cmd_jacobian,
    "stability": _cmd_stability,
    "perturb": _cmd_perturb,
    "simulate": _cmd_simulate,
    "tables": _cmd_tables,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (StencilDomainError, OutOfDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotAFixedPointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
