"""Command-line entry point.

Subcommands: simulate, sweep, pipeline, report. Exit codes: 0 success,
1 configuration error, 2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import run, scenario
from .relaxation import InconsistentEquilibrium, NotConverged

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppsrelax",
        description=(
            "Longitudinal relaxation of two-spin pseudo-pure states: "
            "trajectories, interference-rate sweeps, and the spectral "
            "measurement pipeline."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON scenario file (built-in default if omitted)")
    common.add_argument("--out", default=".", help="output directory (default: .)")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    p_sim = sub.add_parser("simulate", parents=[common], help="coefficient trajectories")
    p_sim.add_argument("--plot", action="store_true", help="also emit SVG plots")

    sub.add_parser("sweep", parents=[common], help="interference-rate sweep metrics")

    p_pipe = sub.add_parser(
        "pipeline", parents=[common], help="fit noisy doublet spectra and extract coefficients"
    )
    p_pipe.add_argument("--seed", type=int, help="override the noise seed")

    p_rep = sub.add_parser("report", help="summarize CSVs produced by this tool")
    p_rep.add_argument("csvs", nargs="+", help="CSV files to summarize")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            config = (
                scenario.load_scenario(args.config)
                if args.config
                else scenario.default_scenario()
            )
            written = run.run_simulate(config, args.out, plot=args.plot)
            if not args.quiet:
                for path in written:
                    print(f"wrote {path}")
        elif args.command == "sweep":
            spec = scenario.load_sweep(args.config) if args.config else scenario.default_sweep()
            path = run.run_sweep(spec, args.out)
            if not args.quiet:
                print(f"wrote {path}")
        elif args.command == "pipeline":
            config = (
                scenario.load_scenario(args.config)
                if args.config
                else scenario.default_pipeline_scenario()
            )
            path = run.run_pipeline(config, args.out, seed_override=args.seed)
            if not args.quiet:
                print(f"wrote {path}")
        elif args.command == "report":
            from .report import run_report

            run_report(args.csvs)
    except (scenario.ConfigError, run.SchemaMismatch) as exc:
        print(f"ppsrelax: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        NotConverged,
        InconsistentEquilibrium,
        np.linalg.LinAlgError,
        FloatingPointError,
    ) as exc:
        print(f"ppsrelax: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"ppsrelax: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
