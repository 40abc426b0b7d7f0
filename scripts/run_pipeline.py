#!/usr/bin/env python3
"""Run the whole monephase chain into one output directory.

    python3 scripts/run_pipeline.py --synthetic SEED [--out DIR]
    python3 scripts/run_pipeline.py --data MONETARY CPI [--out DIR]

--synthetic first generates the default synthetic economy (transition
around 2013-04) into DIR and takes its monetary.csv and cpi.csv as the
inputs; --data takes two canonical CSVs, such as the Japan files the
README describes. Every later command runs, in the order of
monephase.cli.COMMANDS, with the same --monetary, --cpi and --out, and
irf also with --robustness. Each command's line is followed by the paths
it wrote and its wall time.
"""

import argparse
import sys
import time

from monephase.cli import COMMANDS, main as cli


def run(args) -> int:
    t0 = time.perf_counter()
    if args.synthetic is None:
        (monetary, cpi), steps = args.data, []
    else:
        monetary, cpi = f"{args.out}/monetary.csv", f"{args.out}/cpi.csv"
        steps = [["synth", "--out", args.out, "--seed", args.synthetic]]
    inputs = ["--monetary", monetary, "--cpi", cpi, "--out", args.out]
    for command in list(COMMANDS)[1:]:  # after synth
        steps.append([command, *inputs] + (["--robustness"] if command == "irf" else []))
    for step in steps:
        print(f"== monephase {' '.join(step)}", flush=True)
        start = time.perf_counter()
        rc = cli(step)
        print(f"   took {time.perf_counter() - start:.2f} s")
        if rc != 0:
            print(f"command failed with exit code {rc}", file=sys.stderr)
            return rc
    print(f"\nfinished in {time.perf_counter() - t0:.1f}s; see {args.out}/report.txt")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--synthetic", metavar="SEED")
    source.add_argument("--data", nargs=2, metavar=("MONETARY", "CPI"))
    parser.add_argument("--out", default="out")
    sys.exit(run(parser.parse_args()))
