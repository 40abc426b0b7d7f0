"""One measured child process: set-up, then optionally the workload's chain.

    python3 perfbench/child.py --workload NAME --seed N --out DIR
        --spawned T --result FILE [--setup-only] [--trace]

`--spawned` is the parent's `time.monotonic()` just before it started
this process, so `setup_s` includes interpreter start-up. Set-up ends
when `monephase` is imported and `synth` has written the inputs. The
result (times, exit codes, peak memory, spans) goes to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_command(cli, argv: list[str]) -> dict:
    """One `monephase` invocation; a traceback counts as a failure, not a crash."""
    try:
        rc = cli.main(argv)
    except Exception:  # the chain goes on; the failure is reported
        return {"argv": argv, "rc": None, "error": traceback.format_exc()}
    return {"argv": argv, "rc": rc}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    tracer = Tracer()

    start = time.perf_counter()
    import monephase.cli as cli

    tracer.record("cli.import", start, time.perf_counter())
    if args.trace:
        install(tracer)
    synth = ["synth", "--out", args.out, "--seed", str(args.seed)]
    synth += ["--set", f"synth.months={workload.months}"]
    commands = [run_command(cli, synth)]
    result = {"setup_s": time.monotonic() - args.spawned}

    if not args.setup_only:
        tracer.stage = "chain"
        start = time.perf_counter()
        for argv in workload.argv(str(Path(args.out) / "synthetic_config.txt")):
            commands.append(run_command(cli, argv))
        result["chain_s"] = time.perf_counter() - start
        result["env"] = environment()

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["commands"] = commands
    if args.trace:
        result["spans"] = tracer.spans
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
