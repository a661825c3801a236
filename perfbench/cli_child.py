"""Traced CLI child: run ``kyle_stability.cli.main`` under the span tracer.

Usage: ``python -X importtime perfbench/cli_child.py SPANS_OUT CLI_ARGS...``

The CLI is imported before anything else, so ``-X importtime`` charges
numpy and scipy to the package import.  Stdout and the exit code are the
CLI's own; the spans go to SPANS_OUT as JSON.
"""

import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    spans_out, cli_args = sys.argv[1], sys.argv[2:]
    sys.path[0:0] = [str(root / "src"), str(root)]
    import kyle_stability.cli as cli

    from perfbench.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects input this way
        code = exc.code
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
