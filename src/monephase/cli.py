"""Command-line entry point.

    monephase <command> --config <path> [--out DIR] [--set key=value ...]

Commands: synth, transform, breakpoints, fit-phase, irf, calibrate,
landau, efficiency, report. Exit codes: 0 success, 1 usage or validation
error, 2 numerical non-convergence (partial outputs are left in place).
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .config import RunConfig, apply_overrides, parse_config
from .errors import ConvergenceError, MonephaseError
from .pipeline import (
    cmd_breakpoints,
    cmd_calibrate,
    cmd_efficiency,
    cmd_fit_phase,
    cmd_irf,
    cmd_landau,
    cmd_report,
    cmd_synth,
    cmd_transform,
)

# synth, then the chain in run order: scripts/run_pipeline.py runs the commands in this order
COMMANDS = {
    "synth": cmd_synth,
    "transform": cmd_transform,
    "breakpoints": cmd_breakpoints,
    "fit-phase": cmd_fit_phase,
    "irf": cmd_irf,
    "calibrate": cmd_calibrate,
    "landau": cmd_landau,
    "efficiency": cmd_efficiency,
    "report": cmd_report,
}

# option, the config key it overrides. Each use appends the override 'key=value', the value
# as given, which only the config reads; load_config applies them after every --set, so they win.
SHORTHANDS = (
    ("--monetary", "data.monetary"),
    ("--cpi", "data.cpi"),
    ("--out", "out.dir"),
    ("--seed", "seed"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monephase",
        description="Monetary order-parameter pipeline (batch CSV in, CSV out).",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="flat key=value config file")
    for option, key in SHORTHANDS:
        parser.add_argument(
            option, dest="shorthands", action="append", default=[], type=f"{key}={{}}".format,
            metavar=option[2:].upper(), help=f"override {key}",
        )
    parser.add_argument(
        "--robustness", dest="shorthands", action="append_const", const="irf.robustness=true",
        help="run the irf robustness sweep",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )
    return parser


def load_config(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else RunConfig()
    return apply_overrides(cfg, args.overrides + args.shorthands)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 after its usage error
        return 1 if exc.code else 0
    with warnings.catch_warnings():  # every warning, each run, one stderr line without source
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(
            f"monephase: warning: {message}", file=sys.stderr
        )
        try:
            written = COMMANDS[args.command](load_config(args))
        except ConvergenceError as exc:
            print(f"monephase: non-convergence: {exc}", file=sys.stderr)
            return 2
        except (MonephaseError, OSError) as exc:  # OSError: a directory or unreadable file
            print(f"monephase: error: {exc}", file=sys.stderr)
            return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
