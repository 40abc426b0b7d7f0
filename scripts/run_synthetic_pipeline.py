#!/usr/bin/env python3
"""End-to-end reproduction run on a synthetic economy.

Generates the default economy (transition around 2013-04), then walks the
whole command chain into one output directory. Every artifact the
pipeline can produce ends up there, including the robustness sweep.
Each command's line is followed by the paths it wrote and its wall time.

    python3 scripts/run_synthetic_pipeline.py [--out out_synth] [--seed 1]
"""

import argparse
import sys
import time

from monephase.cli import main as cli


def run(args):
    t0 = time.time()
    out = args.out
    steps = [
        ["synth", "--out", out, "--seed", str(args.seed)],
        ["transform", "--config", f"{out}/synthetic_config.txt"],
        ["breakpoints", "--config", f"{out}/synthetic_config.txt"],
        ["fit-phase", "--config", f"{out}/synthetic_config.txt"],
        ["irf", "--config", f"{out}/synthetic_config.txt", "--robustness"],
        ["calibrate", "--config", f"{out}/synthetic_config.txt"],
        ["landau", "--config", f"{out}/synthetic_config.txt"],
        ["efficiency", "--config", f"{out}/synthetic_config.txt"],
        ["report", "--config", f"{out}/synthetic_config.txt"],
    ]
    for step in steps:
        print(f"== monephase {' '.join(step)}", flush=True)
        start = time.perf_counter()
        rc = cli(step)
        print(f"   took {time.perf_counter() - start:.2f} s")
        if rc != 0:
            print(f"command failed with exit code {rc}", file=sys.stderr)
            return rc
    print(f"\nfinished in {time.time() - t0:.1f}s; see {out}/report.txt")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", default="out_synth")
    parser.add_argument("--seed", type=int, default=1)
    sys.exit(run(parser.parse_args()))
