"""The slab helper of fields: bit-identical outputs, the same errors and
global decisions as one inline call, and no public call off the calling
thread.

Every grid evaluator below runs once on slabs and once with them forced
off (a site threshold and a serial slab size above the grid), and every
array it returns must be equal bit for bit: the slabs change where a site
is computed, never how.  The slabs are forced onto two threads, so the
threaded path runs on any machine; grids below the threshold, or on one
CPU, run their slabs on the calling thread.
"""

import dataclasses
import importlib.util
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import polardirac as pdc
from polardirac import connections, fields, trajectories
from polardirac.errors import (
    BasisLeak,
    ImaginaryResidue,
    NotAntisymmetric,
    PreconditionViolated,
    SingularSpinor,
)

ROOT = Path(__file__).resolve().parents[1]
OFF = 2**62  # a site count above every grid: with both, everything inline


def _load(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def two_threads(monkeypatch):
    """Two slab threads, whatever the CPUs of this machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return 2


def _both(monkeypatch, fn, min_sites=None):
    """fn() on slabs, then fn() inline, every grid in one whole-grid
    call; min_sites sets the threshold of the first run."""
    if min_sites is not None:
        monkeypatch.setattr(fields, "_SLAB_MIN_SITES", min_sites)
    sliced = fn()
    with monkeypatch.context() as m:
        m.setattr(fields, "_SLAB_MIN_SITES", OFF)
        m.setattr(fields, "_SERIAL_SLAB_SITES", OFF)
        inline = fn()
    return sliced, inline


def _leaves(obj, name=""):
    """(name, value) of every array and float inside obj."""
    if isinstance(obj, np.ndarray):
        yield name, obj
    elif isinstance(obj, float):
        yield name, np.float64(obj)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, f.name), f"{name}.{f.name}")
    elif isinstance(obj, (tuple, list)):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{name}[{i}]")
    elif isinstance(obj, dict):
        for key, item in obj.items():
            yield from _leaves(item, f"{name}.{key}")


def _assert_identical(sliced, inline):
    a, b = dict(_leaves(sliced)), dict(_leaves(inline))
    assert a and a.keys() == b.keys()
    for key in a:
        assert a[key].dtype == b[key].dtype, key
        assert np.array_equal(a[key], b[key], equal_nan=True), key


def _wave_grid(dims):
    """Two plane waves on dims over [0, 0.8] per active axis: regular, with
    nonzero P, R and beta."""
    f = pdc.superpose(
        [
            pdc.plane_wave((1.0, 0.0, 0.0, 0.0)),
            pdc.plane_wave((np.sqrt(1.38), 0.3, -0.2, 0.5), spin_up=False),
        ],
        [1.0, 0.45 + 0.2j],
    )
    spacing = [0.8 / (d - 1) if d > 1 else 1.0 for d in dims]
    return pdc.sample(f, (0.0,) * 4, spacing, dims)


def _externals(rng, dims):
    omega = 0.2 * rng.normal(size=dims + (4, 4, 4))
    return pdc.ExternalPotentials(
        A=0.3 * rng.normal(size=dims + (4,)),
        Omega=omega - np.swapaxes(omega, -3, -2),
        W=0.3 * rng.normal(size=dims + (4,)),
        q=1.3,
        X=0.4,
    )


def _gauge_field(seed, dims):
    rng = np.random.default_rng(seed)
    spacing = [0.8 / (d - 1) if d > 1 else 1.0 for d in dims]
    coords = np.stack(
        np.meshgrid(
            *[spacing[i] * np.arange(dims[i]) for i in range(4)], indexing="ij"
        ),
        axis=-1,
    )
    k = rng.uniform(0.5, 1.5, (6, 4))
    params = 0.25 * np.sin(coords @ k.T + rng.uniform(0, 6, 6))
    xi = 0.4 * np.sin(coords[..., 1] - coords[..., 3])
    return pdc.transform_from_params(xi, params, (0.0,) * 4, spacing, dims)


def _chain(g, lf, exts):
    """Every grid evaluator of the chain on the spinor grid g, the gauge
    field lf and each of the external fields exts."""
    out = {}
    for label, e in exts.items():
        pf = pdc.PolarFields.from_grid(g, e)
        qp = pdc.quantum_potentials(pf)
        pipeline = pdc.polar_pipeline(g, e)
        lf_e = pdc.transform_from_polar(pipeline[0], g.origin, g.spacing)
        out[label] = [
            pipeline,
            lf_e,
            [getattr(pf, k) for k in (
                "dbeta", "dlnphi2", "spin_plane", "sigma_m", "F",
            )],
            [pf.cf.split, pf.cf.dP],
            qp,
            pdc.polar_dirac_residuals(pf),
            pdc.hj_residuals(pf, qp),
            pdc.guidance_momentum(pf, qp),
            pdc.energy_and_newton(pf, qp),
            pdc.covariant_derivative_check(g, e),
            pdc.dirac_residual(g, e),
            pdc.curvatures(pf.cf, q=e.q, lfield=lf_e),
            pdc.divergence_constraints(pf.cf, fd_tol=np.inf),
            pdc.grid_gradient(pf.cf.R, g.spacing),
        ]
        try:
            out[label].append(pdc.second_order_residuals(pf, qp))
        except PreconditionViolated as exc:  # R is not zero here
            out[label].append(str(exc))
    gd = pdc.goldstone_derivatives(lf)
    cf = pdc.build_connections(gd, exts["ext"])
    out["gauge"] = [
        gd,
        cf,
        cf.curvature,
        pdc.curvatures(cf, q=lf.q, lfield=lf),
        pdc.divergence_constraints(cf, fd_tol=np.inf),
    ]
    return out


def _check_chain(monkeypatch, dims, min_sites=None, plain=True):
    """_chain on slabs and inline, with external fields and (if plain)
    without."""
    exts = {"ext": _externals(np.random.default_rng(sum(dims)), dims)}
    if plain:
        exts["plain"] = pdc.ExternalPotentials()
    sliced, inline = _both(
        monkeypatch,
        lambda: _chain(_wave_grid(dims), _gauge_field(sum(dims), dims), exts),
        min_sites,
    )
    for label in exts:
        assert isinstance(sliced[label][-1], type(inline[label][-1]))
        if isinstance(inline[label][-1], str):
            assert sliced[label][-1] == inline[label][-1]
    _assert_identical(sliced, inline)


def _dispatches(monkeypatch):
    """Count the calls that are cut into slabs."""
    calls = []
    real = fields._slab_workers

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(fields, "_slab_workers", counting)
    return calls


def _goldstone_slabs(monkeypatch):
    """The (thread, grid shape) of every call of the Goldstone kernel."""
    ran = []
    real = connections._goldstone_sites

    def recording(*args):
        ran.append((threading.get_ident(), args[0].shape[:4]))
        return real(*args)

    monkeypatch.setattr(connections, "_goldstone_sites", recording)
    return ran


def _started_threads(monkeypatch):
    """The threads started from now on."""
    started = []

    class Recording(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recording)
    return started


@pytest.mark.parametrize(
    "n, slabs, threads",
    [(9, 1, 0), (17, 3, 0), (33, 9, 1)],  # one call, serial, threaded
)
def test_grids_run_whole_in_serial_slabs_or_on_threads(
    monkeypatch, two_threads, n, slabs, threads
):
    # 9^3 has no room for two 2,048-site slabs; 17^3 (4,913 sites) is
    # under the threads' 16,384 and runs three slabs on the calling
    # thread; 33^3 runs nine 4,096-site slabs on two threads, as before
    dims = (1, n, n, n)
    a = np.random.default_rng(n).normal(size=dims)
    ran = []

    def slab_fn(sl):
        ran.append((sl, threading.get_ident()))
        return np.sin(a[sl])

    started = _started_threads(monkeypatch)
    assert np.array_equal(fields._slabs(slab_fn, dims), np.sin(a))
    assert len(ran) == slabs and len(started) == threads
    if slabs == 1:
        assert ran == [((), threading.get_ident())]
    if not threads:
        assert {ident for _, ident in ran} == {threading.get_ident()}


def test_chain_is_bit_identical_in_serial_slabs(monkeypatch, two_threads):
    dims = (1, 17, 17, 17)
    ran = _goldstone_slabs(monkeypatch)
    started = _started_threads(monkeypatch)
    _check_chain(monkeypatch, dims)
    # the first run cut the 17^3 kernels into slabs, with no thread
    assert any(shape != dims for _, shape in ran)
    assert {ident for ident, _ in ran} == {threading.get_ident()}
    assert started == []


def test_one_cpu_runs_the_chain_in_slabs_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    dims = (1, 26, 26, 26)  # 17,576 sites: threaded on two CPUs
    assert np.prod(dims) >= fields._SLAB_MIN_SITES
    ran = _goldstone_slabs(monkeypatch)
    started = _started_threads(monkeypatch)
    _check_chain(monkeypatch, dims, plain=False)
    assert any(shape != dims for _, shape in ran)
    assert {ident for ident, _ in ran} == {threading.get_ident()}
    assert started == []


@pytest.mark.parametrize("dims", [(1, 33, 33, 33), (1, 17, 17, 17)])
def test_transform_from_params_matches_one_whole_grid_call(two_threads, dims):
    from polardirac.clifford import _boost_rotation

    rng = np.random.default_rng(sum(dims))
    xi = rng.uniform(-0.5, 0.5, dims)
    params = rng.uniform(-0.3, 0.3, dims + (6,))
    lf = pdc.transform_from_params(xi, params, (0.0,) * 4, (1.0,) * 4, dims,
                                   q=1.3)
    whole = np.exp(1.3j * xi)[..., None, None, None] * _boost_rotation(params)
    assert np.array_equal(lf.blocks, whole)


def test_chain_is_bit_identical_on_the_full_grid(monkeypatch, two_threads):
    dims = (1, 33, 33, 33)
    assert np.prod(dims) >= fields._SLAB_MIN_SITES
    calls = _dispatches(monkeypatch)
    # the external fields take every branch; the smaller grids below run
    # the chain without them too
    _check_chain(monkeypatch, dims, plain=False)
    assert calls


def test_chain_is_bit_identical_on_uneven_and_inner_axis_slabs(
    monkeypatch, two_threads
):
    # 31 sites along the inner z axis, cut into slabs whose width does not
    # divide it
    dims = (1, 7, 9, 31)
    monkeypatch.setattr(fields, "_SLAB_SITES", 300)
    axis, edges = fields._slab_edges(dims, two_threads)
    widths = np.diff(edges)
    assert axis == 3 and len(set(widths)) > 1 and 31 % (len(edges) - 1)
    calls = _dispatches(monkeypatch)
    _check_chain(monkeypatch, dims, min_sites=1)
    assert calls


def test_chain_is_bit_identical_on_a_time_and_z_grid(monkeypatch, two_threads):
    dims = (41, 1, 1, 41)
    monkeypatch.setattr(fields, "_SLAB_SITES", 200)
    assert fields._slab_edges(dims, two_threads)[0] == 0
    calls = _dispatches(monkeypatch)
    _check_chain(monkeypatch, dims, min_sites=1)
    assert calls


def test_small_grids_and_single_points_run_inline(monkeypatch, two_threads):
    dims = (1, 9, 9, 9)
    assert np.prod(dims) < fields._SLAB_MIN_SITES
    calls = _dispatches(monkeypatch)
    _check_chain(monkeypatch, dims)
    r = np.random.default_rng(1).normal(size=(4, 4, 4))
    r = r - np.swapaxes(r, 0, 1)
    sp = pdc.irreducible_split(r)
    assert np.allclose(pdc.reassemble_split(sp), r, rtol=0.0, atol=1e-15)
    pdc.decompose(np.array([1.0, 0.2j, 0.5, 0.1]))
    assert calls == []


def _second_slab_site(dims):
    """A grid index in the first plane of the second slab."""
    axis, edges = fields._slab_edges(dims, 2)
    site = [d // 2 for d in dims]
    site[axis] = edges[1]
    return tuple(site)


def _raised(monkeypatch, fn, kind):
    """The messages of kind raised by fn() on slabs and inline."""
    def run():
        with pytest.raises(kind) as info:
            fn()
        return str(info.value)

    return _both(monkeypatch, run)


DIMS = (1, 33, 33, 33)


def test_decompose_errors_match_the_inline_call(monkeypatch, two_threads):
    site = _second_slab_site(DIMS)
    psi = _wave_grid(DIMS).values.copy()
    psi[site] = 0.0
    sliced, inline = _raised(monkeypatch, lambda: pdc.decompose(psi), SingularSpinor)
    assert sliced == inline
    psi[site] = [1.0, np.nan, 0.0, 0.0]
    sliced, inline = _raised(
        monkeypatch, lambda: pdc.decompose(psi), PreconditionViolated
    )
    assert sliced == inline and str(site)[:-1] in sliced


def test_basis_leak_matches_the_inline_call(monkeypatch, two_threads):
    lf = _gauge_field(3, DIMS)
    blocks = lf.blocks.copy()
    blocks[_second_slab_site(DIMS)] *= 1.5  # not a group element
    bad = dataclasses.replace(lf, blocks=blocks)
    sliced, inline = _raised(
        monkeypatch,
        lambda: pdc.goldstone_derivatives(dataclasses.replace(bad)),
        BasisLeak,
    )
    assert sliced == inline


def test_not_antisymmetric_matches_the_inline_call(monkeypatch, two_threads):
    r = np.zeros(DIMS + (4, 4, 4))
    r[_second_slab_site(DIMS) + (0, 1, 2)] = 1.0
    sliced, inline = _raised(
        monkeypatch, lambda: pdc.irreducible_split(r), NotAntisymmetric
    )
    assert sliced == inline


def test_divergence_decisions_match_the_inline_call(monkeypatch, two_threads):
    lf = _gauge_field(4, DIMS)
    cf = pdc.build_connections(
        pdc.goldstone_derivatives(lf), pdc.ExternalPotentials()
    )

    def fd_tol():
        fresh = dataclasses.replace(cf)  # no cached curvature
        dc = pdc.divergence_constraints(fresh)
        return dc.fd_tol, dc.riemann_max

    sliced, inline = _both(monkeypatch, fd_tol)
    assert sliced == inline
    r = cf.R.copy()
    r[_second_slab_site(DIMS) + (0, 1)] += 0.5  # a curved spike
    r[_second_slab_site(DIMS) + (1, 0)] -= 0.5
    curved = dataclasses.replace(cf, R=r)
    sliced, inline = _raised(
        monkeypatch,
        lambda: pdc.divergence_constraints(dataclasses.replace(curved)),
        PreconditionViolated,
    )
    assert sliced == inline


FLOW_DIMS = (11, 17, 17, 17)  # the grid of the perfbench flowlines op


def test_current_is_bit_identical_on_the_flowlines_grid(monkeypatch, two_threads):
    g = _wave_grid(FLOW_DIMS)
    calls = _dispatches(monkeypatch)
    sliced, inline = _both(
        monkeypatch,
        lambda: [pdc.compute_bilinears(g.values),
                 trajectories._current(dataclasses.replace(g))[2]],
    )
    assert calls
    _assert_identical(sliced, inline)


def test_imaginary_residue_matches_the_inline_call(monkeypatch, two_threads):
    # a broken sandwich stack: every nonzero spinor picks up an imaginary
    # part, largest at the site of the second slab
    from polardirac import bilinears

    broken = bilinears._STACK.copy()
    broken[1] = broken[1] + 1e-4j * np.eye(4)
    monkeypatch.setattr(bilinears, "_STACK", broken)
    site = _second_slab_site(FLOW_DIMS)
    psi = np.zeros(FLOW_DIMS + (4,), dtype=complex)
    psi[site] = [1.0, 0.0, 1.0, 0.0]
    psi[0, 0, 0, 0] = [0.5, 0.0, 0.5, 0.0]  # slab 0, a quarter of the residue
    sliced, inline = _raised(
        monkeypatch, lambda: pdc.compute_bilinears(psi), ImaginaryResidue
    )
    assert sliced == inline and sliced.endswith(f"at grid index {site}")


def test_bilinears_keep_real_parts_only(two_threads):
    # after return only the ten real observables per site are held (one
    # float64 each, plus slack for one more); the slabs keep the peak of
    # the pair products and their imaginary parts below four times psi
    import tracemalloc

    rng = np.random.default_rng(9)
    psi = rng.normal(size=FLOW_DIMS + (4,)) + 1j * rng.normal(size=FLOW_DIMS + (4,))
    pdc.compute_bilinears(psi)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        b = pdc.compute_bilinears(psi)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert b.U.dtype == np.float64
    assert held - base <= 11 * 8 * np.prod(FLOW_DIMS)
    assert peak - base < 4 * psi.nbytes


def test_sample_matches_one_whole_grid_call_and_holds_slabs_of_phases(
    two_threads,
):
    # sample evaluates the plane-wave sum slab by slab: the values of one
    # f.at on all events, while the peak stays below the whole grid's
    # sites x modes phase table (one complex each), which never exists
    import tracemalloc

    rng = np.random.default_rng(11)
    modes, dims = 64, (9, 17, 17, 17)  # 44,217 sites
    waves = []
    for i in range(modes):
        p = rng.uniform(-0.8, 0.8, 3)
        waves.append(pdc.plane_wave([np.sqrt(1.0 + p @ p), *p],
                                    spin_up=bool(i % 2)))
    f = pdc.superpose(
        waves, rng.normal(size=modes) + 1j * rng.normal(size=modes)
    )
    origin, spacing = (0.0, -1.0, -1.0, -1.0), (0.1, 0.125, 0.125, 0.125)
    whole = f.at(fields._lattice_events(origin, spacing, dims))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = fields.sample(f, origin, spacing, dims)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(g.values, whole)
    assert peak < 16 * modes * np.prod(dims)


def test_errstate_of_the_caller_holds_in_the_slabs(monkeypatch, two_threads):
    monkeypatch.setattr(fields, "_SLAB_MIN_SITES", 1)
    a = np.ones(DIMS)
    a[_second_slab_site(DIMS)] = 0.0

    def kernel(a):
        return 1.0 / a

    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError):
            fields._sitewise(kernel, DIMS, a)
    lf = _gauge_field(5, DIMS)
    blocks = lf.blocks.copy()
    blocks[_second_slab_site(DIMS)] = 0.0  # a singular L
    for min_sites in (1, OFF):
        monkeypatch.setattr(fields, "_SLAB_MIN_SITES", min_sites)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            dataclasses.replace(lf, blocks=blocks).log_derivative


def test_nested_slab_calls_run_inline(monkeypatch, two_threads):
    monkeypatch.setattr(fields, "_SLAB_MIN_SITES", 1)
    dims = (1, 9, 9, 20)
    a = np.arange(np.prod(dims), dtype=float).reshape(dims)
    inner_calls = []

    def inner(x):
        inner_calls.append(x.shape)
        return 2.0 * x

    def outer(x):
        # a whole slab, grid-shaped, so the nested call would qualify
        return fields._sitewise(inner, x.shape, x) + 1.0

    result = {}
    worker = threading.Thread(
        target=lambda: result.setdefault("out", fields._sitewise(outer, dims, a)),
        daemon=True,  # a deadlock fails the test instead of hanging it
    )
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "nested slab call deadlocked"
    assert np.array_equal(result["out"], 2.0 * a + 1.0)
    _, edges = fields._slab_edges(dims, two_threads)
    # one inline inner call per outer slab, each on a whole slab
    assert sorted(s[3] for s in inner_calls) == sorted(np.diff(edges))


def test_slabs_survive_many_callers_and_switches(monkeypatch):
    # more threads than cores, three dispatching threads and a short switch
    # interval: a lost or doubled slab leaves np.empty garbage or a wrong sum
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(fields, "_SLAB_MIN_SITES", 1)
    monkeypatch.setattr(fields, "_SLAB_SITES", 10)
    dims = (1, 6, 7, 50)
    a = np.random.default_rng(6).normal(size=dims + (3,))
    want = (np.sin(a), a.sum(axis=-1))
    bad = []

    def caller():
        for _ in range(20):
            got = fields._sitewise(lambda x: (np.sin(x), x.sum(axis=-1)), dims, a)
            if not all(np.array_equal(g, w) for g, w in zip(got, want)):
                bad.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(3)]
        for t in callers:
            t.start()
        deadline = time.monotonic() + 60
        for t in callers:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert bad == []


def test_pipeline_op_makes_every_public_call_on_the_calling_thread(
    tmp_path, monkeypatch, two_threads
):
    # the layer functions wrapped as perfbench/tracer.py wraps them, under
    # every binding: a public call from a slab thread would corrupt the
    # tracer's one span stack
    tracer = _load("tracer")
    workloads = _load("workloads")
    threads = set()

    def wrap(fn):
        def recording(*args, **kwargs):
            threads.add(threading.get_ident())
            return fn(*args, **kwargs)

        return recording

    wrappers = {}
    for layer in tracer.LAYERS:
        module = sys.modules[f"{tracer.PACKAGE}.{layer}"]
        for _, fn in tracer._public_functions(module):
            wrappers[id(fn)] = wrap(fn)
    for modname, module in list(sys.modules.items()):
        if modname != "polardirac" and not modname.startswith("polardirac."):
            continue
        for name, value in list(vars(module).items()):
            if id(value) in wrappers:
                monkeypatch.setattr(module, name, wrappers[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrappers:
                        monkeypatch.setitem(value, key, wrappers[id(item)])
    slab_threads = set()
    real = connections._goldstone_sites

    def recording(*args):
        slab_threads.add(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(connections, "_goldstone_sites", recording)
    w = workloads.Pipeline(0, tmp_path)
    _, raw = w.run(0)  # the 33^3 op
    assert workloads.check(w, w.digest(raw), None)["ok"]
    assert threads == {threading.get_ident()}
    # the slabs did run on other threads too (started per call)
    assert len(slab_threads - {threading.get_ident()}) >= 1


def test_import_starts_no_thread_and_no_executor():
    code = (
        "import sys, threading\n"
        "import polardirac, polardirac.cli\n"
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout.split()
    assert out == ["1", "False"]


@pytest.mark.parametrize("later", ["second", "last"])
def test_slab_0_error_wins_once_every_helper_stopped(
    monkeypatch, two_threads, later
):
    # slab 0, the calling thread's, raises once the helper is done with
    # slab 1: either slab 1 raised first, or it succeeded and the helper
    # waits for outputs that slab 0 never allocates, and must stop
    monkeypatch.setattr(fields, "_SLAB_MIN_SITES", 1)
    axis, edges = fields._slab_edges(DIMS, two_threads)
    marks = {0: 1.0, 1: 2.0} if later == "second" else {
        0: 1.0, 1: 3.0, len(edges) - 2: 2.0,
    }
    a = np.zeros(DIMS)
    for i, mark in marks.items():
        site = [0] * 4
        site[axis] = edges[i]
        a[tuple(site)] = mark
    slab_1_done = threading.Event()
    slab_0_threads = []

    def kernel(x):
        if (x == 1.0).any():
            slab_0_threads.append(threading.get_ident())
            slab_1_done.wait(timeout=30)
            raise ValueError("slab 0")
        if (x >= 2.0).any():
            slab_1_done.set()
        if (x == 2.0).any():
            raise ValueError("later slab")
        return x

    before = set(threading.enumerate())
    result = {}

    def dispatch():
        result["caller"] = threading.get_ident()
        try:
            fields._sitewise(kernel, DIMS, a)
        except ValueError as exc:
            result["error"] = str(exc)

    caller = threading.Thread(target=dispatch, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "the slab error path deadlocked"
    assert slab_1_done.is_set()
    assert result["error"] == "slab 0"
    assert slab_0_threads == [result["caller"]]
    assert set(threading.enumerate()) == before


def test_every_whole_grid_output_is_allocated_on_the_calling_thread(
    monkeypatch, two_threads
):
    # an output allocated on a helper would land in that thread's malloc
    # arena and make the peak RSS of a run swing from run to run
    threads = []
    real = np.empty

    def recording(shape, *args, **kwargs):
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        if shape[:4] == DIMS:
            threads.append(threading.get_ident())
        return real(shape, *args, **kwargs)

    exts = {"ext": _externals(np.random.default_rng(7), DIMS)}
    g, lf = _wave_grid(DIMS), _gauge_field(7, DIMS)
    monkeypatch.setattr(np, "empty", recording)
    _chain(g, lf, exts)
    assert threads and set(threads) == {threading.get_ident()}


def test_merged_kernels_make_one_slab_pass_each(monkeypatch, two_threads):
    # slab dispatches per evaluator on a 33^3 grid: one per whole-grid
    # gradient and one per site-local pass, which differences the
    # gradients it reads on its own slab
    g = _wave_grid(DIMS)
    ext = _externals(np.random.default_rng(8), DIMS)
    # the Goldstone layer is kept on g, so the counts below leave it out
    pd, gd, cf = pdc.polar_pipeline(g, ext)
    lf = pdc.transform_from_polar(pd, g.origin, g.spacing)
    cf.curvature  # kept on cf, so curvatures below reads its Riemann max
    lf.log_derivative  # X, built on demand, is kept on lf likewise
    calls = _dispatches(monkeypatch)

    def count(fn, *args, **kwargs):
        calls.clear()
        fn(*args, **kwargs)
        return len(calls)

    # P whole-grid and R = dxi_ab - Omega in one pass; without Omega, R is
    # dxi_ab and there is no pass
    assert count(pdc.build_connections, gd, ext) == 1
    no_omega = dataclasses.replace(ext, Omega=None)
    assert count(pdc.build_connections, gd, no_omega) == 0
    # c, then the gradient of c, K, its per-site max and max |dR| at once;
    # the antisymmetry check of R is ConnectionField.curvature's
    assert count(connections._spin_curvature, cf.R, cf.omega, cf.spacing) == 2
    # P and R, the gradient of beta across its cut, then the gradients of
    # psi, ln phi, s and u, the covariant gradient and all three residuals
    # in one kernel
    assert count(pdc.covariant_derivative_check, g, ext) == 3
    # the gradient of psi, the covariant gradient and the residual at once
    assert count(pdc.dirac_residual, g, ext) == 1
    # the gradient of P, then the gradient of X with the flatness; the
    # per-site max of the Riemann tensor comes with K
    assert count(pdc.curvatures, cf, lfield=lf) == 2
