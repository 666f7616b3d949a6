"""One workload run in its own process; started by run.py.

``--phase setup`` builds the workload and reports the moment it is ready
to time its first operation. ``--phase run`` then also runs whole rounds
for about ``--seconds`` (at least two, so every run can compare rounds for
byte-identical outputs), records the process's peak resident memory,
checks the outputs against the oracles and prints its figures as the last
line of standard output. With ``--trace 1`` rounds alternate between
traced and untraced, starting traced: the traced ones give the per-layer
figures, and the two kinds together the tracing overhead.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 2


def _program_path() -> None:
    """Import crossview from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "crossview" / "__init__.py").is_file():
        raise SystemExit(f"crossview sources not found under {src}")
    sys.path.insert(0, str(src))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _program_path()
    warnings.simplefilter("ignore")

    import numpy as np

    import tracer as tracing
    import workloads
    from crossview import kernels

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        hooks = tracing.layer_hooks()
        tracer.install(hooks)
    if kernels.NUMBA_ENABLED:
        # compile both kernels now: the first timed operation must not pay for it
        kernels.expand_clusters(np.zeros(2, np.int64), np.zeros(0, np.int64), np.ones(1, bool))
        kernels.blend_chain(np.ones((1, 1)), np.zeros(1, np.int64), np.ones((1, 1)), 0.5, 0.5, True)
    bench = workloads.Bench(workloads.WORKLOADS[args.workload], args.seed, out)
    ready = time.monotonic()
    if args.phase == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    if tracer is not None:
        tracer.uninstall()
    rounds, round_times = [], []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 0
        if traced:
            tracer.run_id = len(rounds) + 1
            tracer.install(hooks)
        t0 = time.perf_counter()
        rounds.append(bench.run_round())
        round_times.append(time.perf_counter() - t0)
        if traced:
            tracer.uninstall()
        elapsed = time.perf_counter() - started
        if len(rounds) >= MIN_ROUNDS and elapsed * (1 + 1 / len(rounds)) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = bench.check(rounds)

    op_times = [t for r in rounds for t in r.op_times]
    latencies_ms = np.array([t for r in rounds for t in r.latencies]) * 1e3
    corpus = bench.corpus
    queries = corpus.drone_raw.shape[0] + corpus.sat_raw.shape[0]
    result = {
        "ready": ready,
        "backend": kernels.backend_name(),
        "correct": not problems,
        "problems": problems,
        "attempted": bench.attempted * len(rounds),
        "failed": 0,
        "rounds": len(rounds),
        "epochs": len(op_times),
        "queries": int(latencies_ms.size),
        "epoch_s": statistics.median(op_times),
        "peak_rss_mb": peak_rss_mb,
        "eval_queries_per_s": queries / statistics.median(t for r in rounds for t in r.eval_times),
        "query_p50_ms": float(np.percentile(latencies_ms, 50)),
        "query_p99_ms": float(np.percentile(latencies_ms, 99)),
        "epoch_times": op_times,
        "scores": rounds[0].deployments[-1].scores,
        "records": [json.loads(line) for line in rounds[0].records],
    }
    if tracer is not None:
        traced, untraced = rounds[0::2], rounds[1::2]
        traced_ids = range(1, len(rounds) + 1, 2)
        layers = tracer.layer_metrics(traced_ids)
        ops = [statistics.median(t for r in part for t in r.op_times) for part in (traced, untraced)]
        final = result["records"][-1] if result["records"] else {}
        layers["label_refine.agreement"] = final.get("refine_agreement") or 0.0
        layers["trace.overhead_pct"] = 100.0 * (ops[0] / ops[1] - 1.0)
        layers["trace.round_s"] = statistics.mean(round_times[0::2])
        layers["trace.unattributed_s"] = layers["trace.round_s"] - tracer.attributed(traced_ids)
        result["layers"] = layers
        tracer.write(out / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
