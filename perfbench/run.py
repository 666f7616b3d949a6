"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload train-full --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout. Set-up is measured several times, each
in a fresh process from launch to the moment the workload is ready to time
its first operation; the last of those processes then runs the workload
for about ``--seconds``. Every process pins BLAS to one thread, and they
run one after another. The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Any
failure to build or run the workload exits non-zero without that line.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 4  # set-up-only processes before the measured one
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("train-full", "train-memory", "cluster-wide", "retrieve")

END_TO_END = {
    "setup_s": "s",
    "epoch_s": "s",
    "peak_rss_mb": "MB",
    "eval_queries_per_s": "queries/s",
    "query_p50_ms": "ms",
}
PER_LAYER_UNITS = {"agreement": "ratio", "dist_mb": "MB", "overhead_pct": "%"}


def layer_unit(name: str) -> str:
    what = name.split(".", 1)[1]
    if what in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[what]
    return "s" if what.endswith("_s") else "count"


class RunFailed(Exception):
    pass


def launch(args, phase: str, out: Path, deadline: float) -> tuple[float, dict]:
    """Run one worker process to completion; return its launch time and result."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--phase", phase,
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, env=env,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{phase} process ran past the deadline") from exc
    if proc.returncode != 0:
        raise RunFailed(f"{phase} process exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"{phase} process printed nothing")
    return launched, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setups = []
        for probe in range(SETUP_PROBES):
            launched, ready = launch(args, "setup", run_dir / f"probe{probe}", deadline)
            setups.append(ready["ready"] - launched)
        launched, result = launch(args, "run", run_dir / "run", deadline)
        setups.append(result["ready"] - launched)
    except (RunFailed, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    (run_dir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(
        f"{args.workload} seed {args.seed}: backend {result['backend']}, {result['rounds']} rounds, "
        f"{result['epochs']} epoch samples, {result['queries']} streamed queries, "
        f"{len(setups)} set-up samples"
    )
    if args.trace:
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in sorted(result["layers"].items())
        }
    else:
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
