"""Benchmark of the monephase command chain on synthetic economies.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. Each round starts SETUP_REPS child
processes that only set up (import `monephase`, write the inputs with
`monephase synth`) and then one child that sets up and runs the
workload's chain. Rounds repeat until `--seconds` have passed, and at
least the workload's `min_rounds`; every round attempts the same
operations. Children run with BLAS and OpenMP pinned to one thread, and
the children of round k on the k-th allowed CPU; the benchmark sets
nothing else.

After each round the outputs are checked (see checks.py). The last line
of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics`, the end-to-end metrics (median over the run's samples)
or, with `--trace 1`, the per-layer metrics of the traced children.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import CheckFailed, KnownFault, artifact_digests, checks_for  # noqa: E402
from tracing import LAYER_UNITS, layer_metrics, median_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 5
CHILD_TIMEOUT_S = 170.0
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
RUNS = HERE / "runs"


def source_digest() -> str:
    """Identifies the program under test, so artifact records are per version."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "monephase").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_child(workload: str, seed: int, out: Path, setup_only: bool, trace: bool, deadline: float, cpu: int | None = None):
    """Start one child, pinned to `cpu` if given; return its result dict (None if it died)."""
    result_file = out.with_suffix(".json")
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--out", str(out), "--result", str(result_file)]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        argv.append("--trace")
    spawned = time.monotonic()
    argv += ["--spawned", repr(spawned)]
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - spawned))
    try:
        proc = subprocess.run(
            argv,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
            preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out after {timeout:.0f} s: {' '.join(argv)}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_file.exists():
        print(f"child failed ({proc.returncode}):\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(result_file.read_text(encoding="utf-8"))


class Tally:
    """Operations attempted and failed; `correct` ignores only known faults."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def op(self, ok: bool, message: str = "", known: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = self.correct and known
            print(f"FAILED: {message}", file=sys.stderr)


def load_record(path: Path) -> dict | None:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


def save_record(path: Path, digests: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def run_round(workload, seed: int, out: Path, trace: bool, record: Path, tally: Tally, deadline: float, cpu: int):
    """SETUP_REPS set-up children, one full child, then the checks.

    Every round attempts the same operations: each set-up child, each
    command, each check and two byte-identity comparisons. Its children
    run on `cpu`.
    """
    setups, inputs = [], []
    for rep in range(SETUP_REPS):
        setup_out = out.with_name(f"{out.name}-setup{rep}")
        res = run_child(workload.name, seed, setup_out, True, False, deadline, cpu)
        ok = res is not None and res["commands"][0]["rc"] == 0
        tally.op(ok, f"set-up child {rep}")
        if ok:
            setups.append(res["setup_s"])
            inputs.append(artifact_digests(setup_out))

    res = run_child(workload.name, seed, out, False, trace, deadline, cpu)
    commands = res["commands"] if res else []
    for i in range(1 + len(workload.commands)):
        cmd = commands[i] if i < len(commands) else {"argv": ["#%d" % i], "rc": None, "error": "not run"}
        tally.op(cmd["rc"] == 0, f"monephase {' '.join(cmd['argv'])}: {cmd.get('error', cmd['rc'])}")
    for check in checks_for(workload):
        try:
            check(out, workload)
            tally.op(True)
        except KnownFault as exc:
            tally.op(False, f"{check.__name__} (known program fault): {exc}", known=True)
        except (CheckFailed, OSError, ValueError, IndexError, KeyError) as exc:
            tally.op(False, f"{check.__name__}: {type(exc).__name__}: {exc}")

    digests = artifact_digests(out) if out.is_dir() else {}
    same_inputs = all(d == {name: digests.get(name) for name in d} for d in inputs)
    tally.op(bool(inputs) and same_inputs, "set-up children and the chain wrote different inputs")
    reference = load_record(record)
    if reference is None and res is not None:
        save_record(record, digests)
        reference = digests
    tally.op(digests == reference, f"artifacts differ from those recorded in {record}")
    if res is None:
        return None
    res["setup_samples"] = setups + [res["setup_s"]]
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "monephase" / "cli.py").is_file():
        print(f"monephase sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    work = RUNS / "work" / f"{workload.name}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # artifacts of one program version and seed, kept across runs
    record = RUNS / "artifacts" / f"{source_digest()}-{workload.name}-s{args.seed}.json"
    cpus = sorted(os.sched_getaffinity(0))
    tally = Tally()
    rounds = []
    start = time.monotonic()
    deadline = start + CHILD_TIMEOUT_S
    while len(rounds) < workload.min_rounds or time.monotonic() - start < args.seconds:
        round_start = time.monotonic()
        cpu = cpus[len(rounds) % len(cpus)]
        res = run_round(workload, args.seed, work / f"r{len(rounds)}", trace, record, tally, deadline, cpu)
        if res is None:
            break
        rounds.append(res)
        if time.monotonic() + (time.monotonic() - round_start) > deadline:
            break  # another round would not end in time
    shutil.rmtree(work, ignore_errors=True)
    if not rounds:
        print("no round completed", file=sys.stderr)
        return 1

    env = rounds[0]["env"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {workload.name}, seed {args.seed}: {len(rounds)} round(s), "
          f"chain_s per round {[round(r['chain_s'], 3) for r in rounds]}")
    if trace:
        per_round = [layer_metrics(r["spans"]) for r in rounds]
        values = median_metrics(per_round)
        units = LAYER_UNITS
        trace_file = RUNS / f"trace-{workload.name}-s{args.seed}.json"
        trace_file.write_text(json.dumps([r["spans"] for r in rounds]), encoding="utf-8")
        print(f"traced chain_s median {median(r['chain_s'] for r in rounds):.4f} s; spans in {trace_file}")
    else:
        values = {
            "setup_s": median(s for r in rounds for s in r["setup_samples"]),
            "chain_s": median(r["chain_s"] for r in rounds),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
        }
        units = {"setup_s": "s", "chain_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
