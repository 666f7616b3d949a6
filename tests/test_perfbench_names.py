"""Every crossview name the benchmark in ``perfbench/`` reads still resolves,
so a deletion that would break a traced benchmark run fails here first."""

import ast
import warnings
from pathlib import Path

import pytest

from crossview import cli, kernels
from crossview.datagen import SyntheticSpec, generate
from crossview.training import TrainConfig, Trainer

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def perfbench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_every_tracer_hook_resolves(perfbench_on_path):
    import tracer

    hooks = tracer.layer_hooks()
    assert hooks
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in hooks if not hasattr(module, attr)]
    assert missing == []


def test_every_tracer_counter_runs_on_a_traced_epoch_and_evaluation(perfbench_on_path):
    # a counter reads its call's arguments by position, so a signature
    # change that moves them fails here rather than in a traced benchmark run.
    # Every other hook must fire too: a caller that reaches a traced function
    # by another name than the hooked one leaves its layer reading 0.
    import tracer

    ran = set()
    called = set()

    def noting(key, counter):
        def count(args, kwargs, result):
            called.add(key)
            if counter is None:
                return {}
            out = counter(args, kwargs, result)
            ran.add(key)
            return out

        return count

    hooks = [
        (module, attr, name, noting(f"{module.__name__}.{attr}", counter))
        for module, attr, name, counter in tracer.layer_hooks()
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in hooks]
    corpus = generate(SyntheticSpec(num_locations=10, latent_dim=6, input_dim=12, drone_per_loc=5,
                                    noise_std=0.02, seed=3))
    config = TrainConfig(epochs=1, iters_per_epoch=3, p_classes=4, z_instances=2, replication=8,
                         hidden_dim=16, embed_dim=8, k_strict=2, k_expanded=5, rank_depth=4,
                         smoothing_keep=3, dbscan_eps=0.3, dbscan_min_pts=2, refine_start_epoch=0,
                         seed=7).with_ablation("full")
    trace = tracer.Tracer()
    trace.install(hooks)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a clamped sampler would draw fewer than P clusters
            trainer = Trainer(config, corpus)
            trainer.run_epoch()
        cli._evaluation(trainer.params, corpus)
    finally:
        trace.uninstall()
    assert all(getattr(module, attr) is original for module, attr, original in originals)
    hooked = tracer.layer_hooks()
    assert ran == {f"{module.__name__}.{attr}" for module, attr, _, counter in hooked if counter}
    assert called == {f"{module.__name__}.{attr}" for module, attr, _, _ in hooked} - SILENT_HOOKS
    counts = trace.counts[0]
    assert counts["training.batches"] == config.iters_per_epoch
    # the centroid and long-term banks of both views take P x Z queries each
    per_bank = config.p_classes * config.z_instances
    assert counts["kernels.blend_rows"] == config.iters_per_epoch * 4 * per_bank


def test_worker_kernel_names_resolve():
    assert hasattr(kernels, "NUMBA_ENABLED")
    assert callable(kernels.backend_name)


def test_workloads_import(perfbench_on_path):
    import workloads

    assert workloads.WORKLOADS


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads, re-exports through
    ``__all__`` counting as a read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


# The imports nothing reads that stay only because perfbench/tracer.py wraps
# them where they are imported. Deleting them with their hooks shrinks this
# set; nothing may join it.
TRACER_ONLY_IMPORTS = {
    ("cli", "average_precision"),
    ("cli", "recall_at_k"),
    ("training", "average_precision"),
    ("training", "collapse_replica_labels"),
    ("training", "recall_at_k"),
    ("training", "replicate_features"),
}

# The hooks that a training epoch and the CLI's evaluation never call: the
# tracer-only imports, the benchmark's single-query ranking, and set-up.
SILENT_HOOKS = {f"crossview.{module}.{attr}" for module, attr in TRACER_ONLY_IMPORTS} | {
    "crossview.metrics.rank_gallery",
    "crossview.cli.generate",
    "crossview.cli.load_corpus",
}


def test_unused_imports_are_tracer_hooks(perfbench_on_path):
    import tracer

    hooked = {(module.__name__.split(".")[-1], attr) for module, attr, _, _ in tracer.layer_hooks()}
    modules = sorted((ROOT / "src" / "crossview").glob("*.py"))
    leftovers = {(path.stem, name) for path in modules for name in unused_imports(path)}
    assert leftovers == TRACER_ONLY_IMPORTS
    assert TRACER_ONLY_IMPORTS <= hooked
