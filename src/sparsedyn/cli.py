"""Command-line front end.

Exit codes: 0 on success, 1 on configuration and file errors, 2 on solver errors.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .harness import (
    bench_convolution,
    bundled_recipes,
    convergence_study,
    parse_config_file,
    run,
)

# every error type of the package derives from one of these; ConfigError,
# a ValueError, is caught first
_SOLVER_ERRORS = (ValueError, RuntimeError)


def _int_list(raw: str) -> list[int]:
    try:
        return [int(p) for p in raw.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsedyn",
        description="Evolve periodic PDEs on a sparse Fourier coefficient set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)

    p_conv = sub.add_parser("converge", help="resolution sweep against the finest dense run")
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--resolutions", required=True, type=_int_list)
    p_conv.add_argument("--out", default=None)

    p_bench = sub.add_parser("bench-conv", help="sparse vs dense convolution timing")
    p_bench.add_argument("--sizes", required=True, type=_int_list)
    p_bench.add_argument("--sparsities", required=True, type=_int_list)
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--out", default=None)

    p_recipes = sub.add_parser("recipes", help="list bundled experiment configs")
    p_recipes.add_argument("--show", default=None, help="print one recipe's text")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = parse_config_file(args.config)
            report = run(config, out_dir=args.out)
            final = report.records[-1]
            print(
                f"{config.equation}: {len(report.records) - 1} steps, "
                f"final n_s={final.n_s} "
                f"({100 * final.sparsity_fraction:.2f}% of modes)"
            )
            if final.l2_error is not None:
                print(f"final L2 error vs dense: {final.l2_error:.6e}")
            return 0
        if args.command == "converge":
            config = parse_config_file(args.config)
            rows = convergence_study(config, args.resolutions, out_dir=args.out)
            print("dx,l2,linf")
            for dx, l2, linf in rows:
                print(f"{dx!r},{l2!r},{linf!r}")
            return 0
        if args.command == "bench-conv":
            rows = bench_convolution(
                args.sizes, args.sparsities, repetitions=args.reps, out_dir=args.out
            )
            print("n,n_s,sparse_median_s,dense_median_s")
            for n, n_s, ts, td in rows:
                print(f"{n},{n_s},{ts:.6e},{td:.6e}")
            return 0
        # recipes
        recipes = bundled_recipes()
        if args.show is not None:
            if args.show not in recipes:
                raise ConfigError(f"recipe: unknown recipe {args.show!r}")
            print(recipes[args.show], end="")
        else:
            for name in recipes:
                print(name)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # its message names the path
        print(f"file error: {exc}", file=sys.stderr)
        return 1
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
