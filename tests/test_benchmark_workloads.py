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
    # after the gaussian half of a pipeline op (9^3), neither the hub nor
    # its connections hold a rank-3 per-site tensor beside R itself (the full
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
    assert {"sigma_m", "spin_plane"} <= vars(pf).keys()
    assert {"split", "dP"} <= vars(pf.cf).keys()
    grid_rank = len(pf.grid_shape)
    kept = {**vars(pf), **{f"cf.{k}": v for k, v in vars(pf.cf).items()}}
    for name, value in kept.items():
        if name in ("cf", "ext", "cf.R", "cf.checked_R"):
            continue
        parts = vars(value) if dataclasses.is_dataclass(value) else {name: value}
        for part, arr in parts.items():
            if isinstance(arr, np.ndarray):
                assert arr.ndim - grid_rank < 3, (name, part, arr.shape)
    (layer,) = g._memo.values()
    assert [type(part) for part in layer] == [
        pdc.PolarData, pdc.GoldstoneDerivatives
    ]


def test_flowlines_op_samples_once_and_writes_the_csv_writer_bytes(
    tmp_path, monkeypatch
):
    # the plane-wave sum is evaluated only at lattice sites, at each at
    # most once in an op and at fewer than the lattice holds, with one
    # bilinear pass per batch of sites; and CSV bytes equal to the csv
    # module's for the same rows
    import sys

    import numpy as np
    import oracles
    import yaml
    from polardirac import bilinears, cli, fields

    monkeypatch.delenv("POLARDIRAC_CONFIG_DIR", raising=False)
    counts = {"_observables": 0}
    evaluated = []  # the events of each AnalyticField.at call
    real_at, real_bilinears = fields.AnalyticField.at, bilinears._observables

    def at(self, x):
        evaluated.append(np.reshape(x, (-1, 4)))
        return real_at(self, x)

    def bilinears_counting(psi, **kwargs):
        counts["_observables"] += 1
        return real_bilinears(psi, **kwargs)

    monkeypatch.setattr(fields.AnalyticField, "at", at)
    for name, module in list(sys.modules.items()):
        if name == "polardirac" or name.startswith("polardirac."):
            if getattr(module, "_observables", None) is real_bilinears:
                monkeypatch.setattr(module, "_observables", bilinears_counting)
    written = []
    real_write = cli.write_csv

    def writing(trajs, path, combined=False):
        written.append((list(trajs), combined))
        return real_write(trajs, path, combined=combined)

    monkeypatch.setattr(cli, "write_csv", writing)
    w = WL.Flowlines(0, tmp_path)
    _, raw = w.run(-1)
    assert WL.check(w, w.digest(raw), None)["ok"]
    assert counts == {"_observables": len(evaluated)}
    grid = yaml.safe_load(w.warm_config_path.read_text())["grid"]
    lattice = fields._lattice_events(**grid).reshape(-1, 4)
    # a lone site is evaluated beside a copy of itself, so count each
    # batch's sites once
    sites = np.concatenate([np.unique(ev, axis=0) for ev in evaluated])
    assert 0 < len(np.unique(sites, axis=0)) == len(sites) < len(lattice)
    assert len(np.unique(np.concatenate([lattice, sites]), axis=0)) == len(
        lattice
    )
    ((trajs, combined),) = written
    assert combined and raw[2] == oracles.csv_bytes(trajs, combined=True)


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_first_op_of_seed_0_matches_its_reference(name, tmp_path, monkeypatch):
    # op 0 of seed 0 on the full-size inputs, against the stored reference
    # (RTOL and ATOL of the benchmark): a move of a reference number, such
    # as the roundoff-sized gaussian R_abs_sum, fails here before a
    # benchmark run does
    monkeypatch.delenv("POLARDIRAC_CONFIG_DIR", raising=False)
    w = WL.WORKLOADS[name](0, tmp_path)
    _, raw = w.run(0)
    reference = WL.load_references()[name][w.reference_key(0, 0)]
    result = WL.check(w, w.digest(raw), reference)
    assert result["ok"], result["problems"]


def test_pipeline_op_holds_spin_transformations_as_chiral_blocks(
    tmp_path, monkeypatch
):
    # M, L and L^{-1} dL live as their two chiral 2x2 blocks: an op joins
    # and splits no 4x4 matrix, nor does the set-up's transform_from_params,
    # and no numpy call made inside decompose, transform_from_polar,
    # transform_from_params or goldstone_derivatives (which computes
    # log_derivative) returns a complex (..., 4, 4) array.  The complex
    # (..., 2, 2, 2) results counted beside them show that the watch sees
    # the layers' numpy calls
    import sys

    import numpy as np

    import polardirac as pdc
    from polardirac import bilinears, clifford, connections, fields, polar

    joined, built, blocks, active = [], [], [], []
    for name in ("_chiral_split", "_chiral_join"):
        real = getattr(clifford, name)

        def counting(*args, _real=real, _name=name):
            joined.append(_name)
            return _real(*args)

        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("polardirac"):
                continue
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)

    class Watched:
        """numpy, recording the complex results of its callables while a
        watched layer runs."""

        def __getattr__(self, name):
            real = getattr(np, name)
            if not callable(real) or isinstance(real, type):
                return real

            def call(*args, **kwargs):
                out = real(*args, **kwargs)
                for arr in out if isinstance(out, tuple) else (out,):
                    if not active or not isinstance(arr, np.ndarray):
                        continue
                    if arr.dtype.kind == "c" and arr.shape[-2:] == (4, 4):
                        built.append((name, arr.shape))
                    if arr.dtype.kind == "c" and arr.shape[-3:] == (2, 2, 2):
                        blocks.append(name)
                return out

            return call

    for module in (bilinears, clifford, connections, fields, polar):
        monkeypatch.setattr(module, "np", Watched())

    def watched(real):
        def call(*args, **kwargs):
            active.append(real.__name__)
            try:
                return real(*args, **kwargs)
            finally:
                active.pop()

        return call

    for module, name in (
        (connections, "decompose"),
        (connections, "transform_from_polar"),
        (connections, "goldstone_derivatives"),
        (pdc, "goldstone_derivatives"),
        (pdc, "transform_from_params"),
    ):
        monkeypatch.setattr(module, name, watched(getattr(module, name)))
    w = WL.Pipeline(0, tmp_path)
    assert joined == [] and built == []
    _, raw = w.run(-1)
    assert WL.check(w, w.digest(raw), None)["ok"]
    assert joined == [] and built == []
    assert blocks and not active
