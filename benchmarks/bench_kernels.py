"""Times the hot kernels on both backends: numba-jitted vs pure Python.

The density-expansion graph is a stress size: 3200 rows (800 with
--quick) in dense blobs of 40, about six times the drone view of the
canonical synthetic run (512 rows), which is the largest graph the trainer
expands. The blend chain matches a few epochs of sequential memory updates.

Usage: python benchmarks/bench_kernels.py [--quick]
"""

import argparse
import time

import numpy as np

from crossview.kernels import _blend_chain_impl, _expand_clusters_impl

try:
    from numba import njit
except ImportError:
    njit = None


def build_expand_workload(n, d, eps, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((max(n // 40, 1), d))
    points = np.repeat(base, 40, axis=0)[:n] + 0.05 * rng.standard_normal((n, d))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    adjacency = (1.0 - points @ points.T) <= eps
    rows, cols = np.nonzero(adjacency)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    core = adjacency.sum(axis=1) >= 4
    return indptr, cols.astype(np.int64), core


def build_blend_workload(k, d, updates, seed=1):
    rng = np.random.default_rng(seed)
    bank = rng.standard_normal((k, d))
    bank /= np.linalg.norm(bank, axis=1, keepdims=True)
    ids = rng.integers(0, k, size=updates).astype(np.int64)
    queries = rng.standard_normal((updates, d))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    return bank, ids, queries


def best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    args = parser.parse_args()

    n = 800 if args.quick else 3200
    updates = 20_000 if args.quick else 100_000
    indptr, indices, core = build_expand_workload(n, 32, 0.12)
    bank, ids, queries = build_blend_workload(64, 32, updates)

    rows = []
    jitted_expand = jitted_blend = None
    if njit is not None:
        jitted_expand = njit(cache=True)(_expand_clusters_impl)
        jitted_blend = njit(cache=True)(_blend_chain_impl)
        jitted_expand(indptr, indices, core)  # compile outside the timer
        jitted_blend(bank.copy(), ids[:10], queries[:10], 0.2, 0.8, True)

    t_py = best_of(lambda: _expand_clusters_impl(indptr, indices, core))
    t_nb = best_of(lambda: jitted_expand(indptr, indices, core)) if jitted_expand else None
    rows.append((f"expand_clusters n={n}", t_py, t_nb))

    t_py = best_of(lambda: _blend_chain_impl(bank.copy(), ids, queries, 0.2, 0.8, True))
    t_nb = (
        best_of(lambda: jitted_blend(bank.copy(), ids, queries, 0.2, 0.8, True))
        if jitted_blend
        else None
    )
    rows.append((f"blend_chain updates={updates}", t_py, t_nb))

    header = f"{'kernel':<30s} {'numpy (ms)':>12s} {'numba (ms)':>12s} {'speedup':>9s}"
    print(header)
    print("-" * len(header))
    for name, py, nb in rows:
        if nb is None:
            print(f"{name:<30s} {py * 1e3:12.2f} {'n/a':>12s} {'n/a':>9s}")
        else:
            print(f"{name:<30s} {py * 1e3:12.2f} {nb * 1e3:12.2f} {py / nb:8.1f}x")
    if njit is None:
        print("numba not importable; only the fallback was timed")


if __name__ == "__main__":
    main()
