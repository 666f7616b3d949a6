"""Every crossview name the benchmark in ``perfbench/`` reads still resolves,
so a deletion that would break a traced benchmark run fails here first."""

from pathlib import Path

import pytest

from crossview import kernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
