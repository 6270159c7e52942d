"""Each benchmark workload runs its warm-up op and passes its own checks.

perfbench/workloads.py is imported from the repository root as it stands,
so a change to a call shape it uses (curvatures(cf, q=..., lfield=...),
divergence_constraints(cf), the positional transform_from_params,
covariant_derivative_check(g, ext), the CLI entry points) fails here
rather than in a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WL = _workloads()


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_warm_up_op_passes_its_checks(name, tmp_path, monkeypatch):
    monkeypatch.delenv("POLARDIRAC_CONFIG_DIR", raising=False)
    w = WL.WORKLOADS[name](0, tmp_path)
    work, raw = w.run(-1)
    assert work > 0
    result = WL.check(w, w.digest(raw), None)
    assert result["ok"], result["problems"]


def test_pipeline_op_builds_each_layer_once(tmp_path, monkeypatch):
    # per op: one decompose for the one spinor grid (the hub and the
    # covariant check share it) and one curvature of R for the one
    # ConnectionField that needs it; two ops count two of each, so no op
    # reads a layer that an earlier op built
    from polardirac import connections

    counts = {"decompose": 0, "_spin_curvature": 0}

    def counting(name):
        real = getattr(connections, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(connections, name, counting(name))
    w = WL.Pipeline(0, tmp_path)
    for op in (1, 2):
        _, raw = w.run(-1)
        assert WL.check(w, w.digest(raw), None)["ok"]
        assert counts == {"decompose": op, "_spin_curvature": op}
