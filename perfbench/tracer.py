"""In-memory span tracer that times crossview's layers from outside.

A layer is traced by replacing one of its public functions with a timing
wrapper at the module attribute through which its callers look it up (for
example ``crossview.training.dbscan``, which ``Trainer`` calls, rather than
``crossview.clustering.dbscan``). No file of the program changes, and
``uninstall`` puts every original back.

Each call records a span: name, start, end, the span open when it began
(its parent) and the run id, which is the round the call belongs to (0 for
set-up). A layer's self time is its spans' durations minus the time their
child spans cover. Counters are summed at the same boundaries.
"""

import json
import time
from collections import defaultdict

import numpy as np

# Counters, reported as 0 on workloads where their layer never runs.
COUNT_METRICS = (
    "training.batches",
    "encoder.rows",
    "clustering.dbscan_rows",
    "clustering.dist_mb",
    "kernels.expand_edges",
    "kernels.blend_rows",
    "dual_memory.loss_calls",
    "neighborhood.queries",
    "numcore.pairwise_cells",
    "numcore.topk_calls",
)
SETUP_LAYER = "datagen."  # runs once per set-up; every other figure is per round


def _rows(x) -> int:
    return int(np.shape(x)[0])


def _dbscan_counts(args, kwargs, result):
    n = _rows(args[0])
    return {"clustering.dbscan_rows": n, "clustering.dist_mb": n * n * 8 / 1e6}


def _pairwise_counts(args, kwargs, result):
    return {"numcore.pairwise_cells": _rows(args[0]) * _rows(args[1])}


def _neighborhood_counts(args, kwargs, result):
    return {"neighborhood.queries": _rows(args[0]) + _rows(args[2])}


def _one(counter):
    return lambda args, kwargs, result: {counter: 1}


def _rows_of(counter, position):
    return lambda args, kwargs, result: {counter: _rows(args[position])}


def layer_hooks():
    """(module, attribute, span name, counter function) for every traced call.

    The attribute is the one the caller resolves at call time: a name the
    caller imported into its own namespace, or a module attribute it reaches
    through ``module.function``.
    """
    from crossview import (
        cli,
        clustering,
        encoder,
        kernels,
        label_refine,
        metrics,
        neighborhood,
        training,
    )

    return [
        (training, "sample_view_batch", "training.sample", None),
        (training, "total_loss", "training.total_loss", _one("training.batches")),
        (encoder, "forward", "encoder.forward", _rows_of("encoder.rows", 1)),
        (encoder, "backward", "encoder.backward", None),
        (encoder, "sgd_step", "encoder.sgd", None),
        (training, "dbscan", "clustering.dbscan", _dbscan_counts),
        (training, "replicate_features", "clustering.replicate", None),
        (training, "collapse_replica_labels", "clustering.collapse", None),
        (training, "compute_centroids", "clustering.centroids", None),
        (kernels, "expand_clusters", "kernels.expand", _rows_of("kernels.expand_edges", 1)),
        (kernels, "blend_chain", "kernels.blend", _rows_of("kernels.blend_rows", 1)),
        (training, "batch_loss_cv", "cluster_memory.loss", None),
        (training, "momentum_update_batch", "cluster_memory.update", None),
        (training, "fused_bank_loss", "dual_memory.loss", _one("dual_memory.loss_calls")),
        (training, "compute_beta", "dual_memory.update", None),
        (training, "update_short_term", "dual_memory.update", None),
        (training, "update_long_term_batch", "dual_memory.update", None),
        (training, "refresh_fused", "dual_memory.update", None),
        (training, "neighborhood_total", "neighborhood.loss", _neighborhood_counts),
        (training, "build_instance_memory", "neighborhood.memory", None),
        (training, "refine_labels", "label_refine.refine", None),
        (training, "recall_at_k", "metrics.recall", None),
        (training, "average_precision", "metrics.ap", None),
        (cli, "recall_at_k", "metrics.recall", None),
        (cli, "average_precision", "metrics.ap", None),
        (metrics, "rank_gallery", "metrics.rank", None),
        (metrics, "pairwise_sim", "numcore.pairwise", _pairwise_counts),
        (clustering, "pairwise_sim", "numcore.pairwise", _pairwise_counts),
        (label_refine, "pairwise_sim", "numcore.pairwise", _pairwise_counts),
        (neighborhood, "top_k_indices", "numcore.topk", _one("numcore.topk_calls")),
        (label_refine, "top_k_indices", "numcore.topk", _one("numcore.topk_calls")),
        (cli, "generate", "datagen.generate", None),
        (cli, "load_corpus", "datagen.load", None),
    ]


class Tracer:
    """Records spans and counters for the calls wrapped by ``install``.

    Spans are kept column by column in flat lists of numbers and interned
    names, so that holding millions of them adds no work for the garbage
    collector to the run being traced.
    """

    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.runs = [], [], [], [], []
        self.counts = defaultdict(lambda: defaultdict(float))  # run id -> counter -> sum
        self.run_id = 0
        self.span_names = {}  # ordered set of the names install has seen
        self._stack = []
        self._patched = []

    @property
    def spans(self):
        """(name, start, end, parent index, run id) of every span."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.runs))

    def install(self, hooks) -> None:
        for module, attr, name, counter in hooks:
            self.span_names[name] = None
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, counter))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, counter):
        names, starts, ends, parents, runs = self.names, self.starts, self.ends, self.parents, self.runs
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                totals = self.counts[self.run_id]
                for key, value in counter(args, kwargs, result).items():
                    totals[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict:
        """run id -> span name -> summed self time in seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, run in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, run) in enumerate(spans):
            out[run][name] += end - start - child[i]
        return out

    def attributed(self, rounds) -> float:
        """Mean over the given rounds of the time spent inside any span."""
        rounds = list(rounds)
        selfs = self.self_times()
        return sum(sum(selfs[r].values()) for r in rounds) / len(rounds)

    def rankings_per_evaluation(self, runs) -> float:
        """Full gallery rankings made by the Recall@K and AP functions, per
        two-direction evaluation (two AP calls)."""
        scoring = {"metrics.recall", "metrics.ap"}
        rankings = ap_calls = 0
        for name, parent, run in zip(self.names, self.parents, self.runs):
            if run not in runs:
                continue
            if name == "metrics.rank" and parent >= 0 and self.names[parent] in scoring:
                rankings += 1
            elif name == "metrics.ap":
                ap_calls += 1
        return 2.0 * rankings / ap_calls if ap_calls else 0.0

    def layer_metrics(self, rounds) -> dict:
        """Per-layer figures: ``<span name>_s`` self times and the counters,
        set-up figures from run 0, the rest averaged over the given round
        ids, which all did the same work."""
        rounds = list(rounds)
        selfs = self.self_times()
        out = {}
        for name in self.span_names:
            runs = [0] if name.startswith(SETUP_LAYER) else rounds
            out[name + "_s"] = sum(selfs[r][name] for r in runs) / len(runs)
        for metric in COUNT_METRICS:
            out[metric] = sum(self.counts[r][metric] for r in rounds) / len(rounds)
        out["metrics.rankings"] = self.rankings_per_evaluation(set(rounds))
        return out

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
