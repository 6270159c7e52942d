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
    # reads a layer that an earlier op built.  No op unpacks the dense
    # Riemann tensor: a _unpack_riemann that came back into connections
    # would be counted here
    from polardirac import connections

    counts = {"decompose": 0, "_spin_curvature": 0, "_unpack_riemann": 0}

    def counting(name):
        real = getattr(connections, name, None)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(connections, name, counting(name), raising=False)
    w = WL.Pipeline(0, tmp_path)
    for op in (1, 2):
        _, raw = w.run(-1)
        assert WL.check(w, w.digest(raw), None)["ok"]
        assert counts == {"decompose": op, "_spin_curvature": op, "_unpack_riemann": 0}


def test_gaussian_chain_keeps_no_unread_tensor(tmp_path, monkeypatch):
    # after the gaussian half of a pipeline op (9^3), the hub holds no
    # rank-3 per-site tensor beside the connection R itself (the full
    # Sigma, M and Pi are slab temporaries), and the grid's memo keeps
    # only the polar data and the Goldstone derivatives: no L, no X
    import dataclasses

    import numpy as np

    import polardirac as pdc

    seen = {}
    load_grid, from_grid = pdc.load_grid, pdc.PolarFields.from_grid

    def loading(path):
        seen["g"] = load_grid(path)
        return seen["g"]

    def building(g, ext=None):
        seen["pf"] = from_grid(g, ext)
        return seen["pf"]

    monkeypatch.setattr(pdc, "load_grid", loading)
    monkeypatch.setattr(pdc.PolarFields, "from_grid", building)
    w = WL.Pipeline(0, tmp_path)
    w._gaussian(w.warm_inputs[0])
    pf, g = seen["pf"], seen["g"]
    assert {"sigma_m", "split", "spin_plane", "dP"} <= vars(pf).keys()
    grid_rank = len(pf.grid_shape)
    for name, value in vars(pf).items():
        if name in ("cf", "ext"):
            continue
        parts = vars(value) if dataclasses.is_dataclass(value) else {name: value}
        for part, arr in parts.items():
            if isinstance(arr, np.ndarray):
                assert arr.ndim - grid_rank < 3, (name, part, arr.shape)
    (layer,) = g._memo.values()
    assert [type(part) for part in layer] == [
        pdc.PolarData, pdc.GoldstoneDerivatives
    ]
