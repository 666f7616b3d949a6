"""Every crossview name the benchmark in ``perfbench/`` reads still resolves,
so a deletion that would break a traced benchmark run fails here first."""

import ast
from pathlib import Path

import pytest

from crossview import kernels

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


def test_unused_imports_are_tracer_hooks(perfbench_on_path):
    import tracer

    hooked = {(module.__name__.split(".")[-1], attr) for module, attr, _, _ in tracer.layer_hooks()}
    modules = sorted((ROOT / "src" / "crossview").glob("*.py"))
    leftovers = {(path.stem, name) for path in modules for name in unused_imports(path)}
    assert leftovers == TRACER_ONLY_IMPORTS
    assert TRACER_ONLY_IMPORTS <= hooked
