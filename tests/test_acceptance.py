"""End-to-end gate: the ten advertised guarantees, one test each.

Every test asserts its stated tolerance directly; the per-module test
files carry finer-grained diagnostics of the same machinery.  One known
failure is expected in this gate: the closed-form vorticity target of
the static gaussian configuration.  Both independent computational
routes in this library agree with each other at half the targeted
magnitude; the README points at the written analysis.
"""

import dataclasses
import time

import numpy as np
import numpy.testing as npt

from polardirac.bilinears import compute_bilinears, fierz_residuals
from polardirac.clifford import (
    BASIS,
    METRIC,
    boost_matrices,
    build_basis,
    exp_lorentz,
    induced_vector,
)
from polardirac.connections import (
    ExternalPotentials,
    build_connections,
    curvatures,
    divergence_constraints,
    goldstone_derivatives,
    irreducible_split,
    polar_pipeline,
    reassemble_split,
    transform_from_params,
)
from polardirac.dynamics import (
    PolarFields,
    dirac_residual,
    guidance_momentum,
    hj_residuals,
    nonrel_hamiltonian,
    polar_dirac_residuals,
    quantum_potentials,
)
from polardirac.fields import (
    GridField,
    convergence_order,
    gaussian_packet,
    interior,
    plane_wave,
    sample,
    superpose,
)
from polardirac.polar import (
    PolarData,
    decompose,
    nonrel_deviation,
    reconstruct,
)
from polardirac.trajectories import continuity_residual, integrate, write_csv

from oracles import chiral_phase, transform_connection_inputs

ETA = np.array([1.0, -1.0, -1.0, -1.0])
REF = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)


def wave_grid(chi, n, m=1.0, extent=0.8):
    p = m * np.array([np.cosh(chi), 0.0, 0.0, np.sinh(chi)])
    f = plane_wave(p, m=m)
    h = extent / (n - 1)
    if chi == 0.0:
        dims, spacing = (n, 1, 1, 1), (h, 1.0, 1.0, 1.0)
    else:
        dims, spacing = (n, 1, 1, n), (h, 1.0, 1.0, h)
    return sample(f, (0.0, 0.0, 0.0, 0.0), spacing, dims)


def box_coords(n):
    ax = np.linspace(-1.0, 1.0, n)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    return x[None], y[None], z[None], 2.0 / (n - 1)


def gauge_field(n, kind):
    """Pure-gauge transform over a static spatial box."""
    x, y, z, h = box_coords(n)
    params = np.zeros((1, n, n, n, 6))
    if kind in ("boost", "mixed"):
        params[..., 0] = 0.3 * np.sin(x) * np.cos(y)
        params[..., 1] = 0.25 * np.sin(z)
        params[..., 2] = 0.2 * np.cos(x + z)
    if kind in ("rotation", "mixed"):
        params[..., 3] = 0.3 * np.sin(x)
        params[..., 4] = 0.25 * np.cos(y + z)
        params[..., 5] = 0.2 * np.sin(y)
    xi = 0.4 * np.sin(x) * np.cos(z)
    return transform_from_params(
        xi, params, (0.0, -1.0, -1.0, -1.0), (1.0, h, h, h), (1, n, n, n)
    )


def test_criterion_01_algebra_suite():
    start = time.monotonic()
    b = build_basis()  # construction re-verifies every identity exactly
    g = b.gamma
    anti = np.einsum("aij,bjk->abik", g, g) + np.einsum(
        "bij,ajk->abik", g, g
    )
    assert np.array_equal(anti, 2.0 * METRIC[:, :, None, None] * np.eye(4))

    rng = np.random.default_rng(101)
    worst_metric = worst_transform = worst_rep = 0.0
    prev = None
    for row in 0.8 * rng.uniform(-1.0, 1.0, (200, 6)):
        st = exp_lorentz(row)
        v = st.vector
        worst_metric = max(
            worst_metric, float(np.max(np.abs(v.T @ METRIC @ v - METRIC)))
        )
        sandwich = np.einsum(
            "ij,ajk,kl->ail", np.linalg.inv(st.lorentz), g, st.lorentz
        )
        worst_transform = max(
            worst_transform,
            float(np.max(np.abs(sandwich - np.einsum("ab,bij->aij", v, g)))),
        )
        if prev is not None:
            composed = induced_vector(prev.lorentz @ st.lorentz)
            worst_rep = max(
                worst_rep, float(np.max(np.abs(composed - prev.vector @ v)))
            )
        prev = st
    assert worst_metric < 1e-10
    assert worst_transform < 1e-10
    assert worst_rep < 1e-10
    assert time.monotonic() - start < 5.0


def test_criterion_02_fierz_suite():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    psi = rng.normal(size=(1000, 4)) + 1j * rng.normal(size=(1000, 4))
    psi = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
    fr = fierz_residuals(compute_bilinears(psi))
    for r in (fr.r1, fr.r2, fr.r3):
        assert np.max(np.abs(r)) < 1e-10
    assert time.monotonic() - start < 5.0


def test_criterion_03_polar_roundtrip():
    rng = np.random.default_rng(303)
    psi = rng.normal(size=(500, 4)) + 1j * rng.normal(size=(500, 4))
    orig = compute_bilinears(psi)
    assert np.min(orig.theta**2 + orig.phi_scalar**2) > 1e-8  # all regular

    pd = decompose(psi)
    back = reconstruct(pd)
    assert np.max(np.abs(back - psi)) < 1e-9

    rec = compute_bilinears(back)
    for a, b in (
        (orig.theta, rec.theta),
        (orig.phi_scalar, rec.phi_scalar),
        (orig.U, rec.U),
        (orig.S, rec.S),
    ):
        assert np.max(np.abs(a - b)) < 1e-9

    worst = 0.0
    for row in 0.7 * rng.uniform(-1.0, 1.0, (100, 6)):
        st = exp_lorentz(row)
        tb = compute_bilinears(psi @ st.matrix.T)
        worst = max(
            worst,
            float(np.max(np.abs(tb.theta - orig.theta))),
            float(np.max(np.abs(tb.phi_scalar - orig.phi_scalar))),
            float(np.max(np.abs(tb.U - orig.U @ st.vector.T))),
            float(np.max(np.abs(tb.S - orig.S @ st.vector.T))),
        )
    assert worst < 1e-9


def test_criterion_04_equivalence_theorem():
    ext = ExternalPotentials()
    for chi in (0.0, 0.4):
        data = {}
        for n in (9, 17):
            g = wave_grid(chi, n)
            pf = PolarFields.from_grid(g, ext)
            qp = quantum_potentials(pf)
            dep = polar_dirac_residuals(pf)
            hj = hj_residuals(pf, qp)
            data[n] = {
                "dirac": dirac_residual(g, ext),
                "polar_pair": np.abs(dep.res1) + np.abs(dep.res2),
                "hj_pair": np.abs(hj.res1) + np.abs(hj.res2),
                "guidance": np.abs(guidance_momentum(pf, qp) - pf.cf.P),
            }
        for key in ("dirac", "polar_pair", "hj_pair", "guidance"):
            order, mc, _ = convergence_order(data[9][key], data[17][key])
            assert order is not None, (chi, key)
            assert 1.8 < order < 2.2, (chi, key, order)
            assert mc > 0.0  # the measurement is not running on noise


def test_criterion_05_connection_curvature_suite():
    data = {}
    for n in (9, 17):
        lf = gauge_field(n, "mixed")
        cf = build_connections(
            goldstone_derivatives(lf), ExternalPotentials(q=lf.q)
        )
        cd = curvatures(cf, q=lf.q, lfield=lf)
        data[n] = {
            "F": np.abs(cd.F),
            "riemann": cd.riemann,
            "flat": cd.goldstone_flat,
        }
    for key in ("F", "riemann", "flat"):
        order, _, _ = convergence_order(data[9][key], data[17][key])
        assert order is not None and 1.8 < order < 2.2, (key, order)

    # gauge/frame covariance under a random local transformation
    n = 9
    x, y, z, h = box_coords(n)
    origin, spacing, dims = (0.0, -1.0, -1.0, -1.0), (1.0, h, h, h), (1, n, n, n)
    lf = gauge_field(n, "mixed")
    rng = np.random.default_rng(505)
    om = np.zeros(dims + (4, 4, 4))
    for i in range(4):
        for j in range(i + 1, 4):
            w = rng.uniform(0.4, 0.9, 3)
            f = 0.2 * np.sin(w[0] * x + w[1] * y) * np.cos(w[2] * z)
            om[..., i, j, rng.integers(0, 4)] = f
            om[..., j, i, rng.integers(0, 4)] = -f
    om = om - np.swapaxes(om, -3, -2)
    a = rng.uniform(-0.3, 0.3, 4)[None, None, None, None, :] * np.cos(
        x
    )[..., None]
    ext = ExternalPotentials(A=a, Omega=om, q=1.0)
    cf = build_connections(goldstone_derivatives(lf), ext)

    amps = rng.uniform(0.15, 0.3, 6)
    ws = rng.uniform(0.4, 0.9, (6, 3))
    s_params = np.zeros(dims + (6,))
    for k in range(6):
        s_params[..., k] = amps[k] * np.sin(
            ws[k, 0] * x + ws[k, 1] * y + ws[k, 2] * z
        )
    wz = rng.uniform(0.4, 0.9, 2)
    zeta = 0.25 * np.sin(wz[0] * x + wz[1] * z)
    dzeta = np.zeros(dims + (4,))
    dzeta[..., 1] = 0.25 * wz[0] * np.cos(wz[0] * x + wz[1] * z)
    dzeta[..., 3] = 0.25 * wz[1] * np.cos(wz[0] * x + wz[1] * z)

    lf2, ext2, v_mat = transform_connection_inputs(
        lf, ext, s_params, zeta, dzeta
    )
    cf2 = build_connections(goldstone_derivatives(lf2), ext2)
    sl = interior(dims)
    assert np.max(np.abs((cf2.P - cf.P)[sl])) < 5e-3
    v_inv = np.linalg.inv(v_mat)
    r_expect = np.einsum("...ca,...db,...cdm->...abm", v_inv, v_inv, cf.R)
    assert np.max(np.abs((cf2.R - r_expect)[sl])) < 5e-3


def test_criterion_06_constraint_identities():
    rng = np.random.default_rng(606)
    r = rng.uniform(-1.0, 1.0, (500, 4, 4, 4))
    r = r - np.swapaxes(r, -3, -2)
    back = reassemble_split(irreducible_split(r))
    assert np.max(np.abs(back - r)) < 1e-12

    for kind in ("rotation", "boost"):
        data = {}
        for n in (9, 17):
            lf = gauge_field(n, kind)
            cf = build_connections(
                goldstone_derivatives(lf), ExternalPotentials(q=lf.q)
            )
            dc = divergence_constraints(cf)
            data[n] = {
                "resB": np.abs(dc.resB),
                "resR": np.abs(dc.resR),
            }
        for key in ("resB", "resR"):
            order, mc, mf = convergence_order(data[9][key], data[17][key])
            if order is None:
                # identically satisfied on this family; nothing to refine
                assert mc < 1e-12 and mf < 1e-12, (kind, key)
            else:
                assert 1.8 < order < 2.2, (kind, key, order)


def test_criterion_07_continuity():
    # plane waves carry a constant current: the residual is exactly flat
    for chi in (0.0, 0.5):
        res = continuity_residual(wave_grid(chi, 9))
        assert np.max(np.abs(res)) < 1e-12

    m, p = 1.0, 0.5
    e = float(np.hypot(m, p))
    f = superpose(
        [plane_wave((m, 0, 0, 0), m=m), plane_wave((e, 0, 0, p), m=m)],
        [1.0, 0.7],
    )
    data = {}
    for n in (9, 17):
        h = 1.6 / (n - 1)
        dims = (n, 1, 1, n)
        res = continuity_residual(
            sample(f, (0.0, 0.0, 0.0, 0.0), (h, 1.0, 1.0, h), dims)
        )
        data[n] = (res, dims)
    order, mc, _ = convergence_order(data[9][0], data[17][0])
    assert order is not None and 1.8 < order < 2.2
    assert mc > 1e-6


def test_criterion_08_limits():
    # (a) spinless reduction: P = m u exactly, even with the quantum
    # potential switched on by a position-dependent module
    g = gaussian_packet(1.0, dims=(1, 9, 9, 9))
    pf = PolarFields.from_grid(g)
    pf = dataclasses.replace(pf, s=np.zeros_like(pf.s))
    qp = quantum_potentials(pf)
    assert np.max(np.abs(qp.Z)) > 1e-3
    npt.assert_allclose(
        guidance_momentum(pf, qp), pf.ext.m * pf.u * ETA, atol=1e-14
    )

    # (b) deviation measures and small components co-vanish as the boost
    # shrinks at beta = 0
    speeds, smalls = [], []
    for chi in (0.4, 0.2, 0.1, 0.05, 0.0):
        lam, _ = boost_matrices(np.array([0.0, 0.0, chi]))
        dev = nonrel_deviation(decompose(lam @ REF))
        assert float(dev.beta_mag) < 1e-12
        speeds.append(float(dev.speed))
        smalls.append(float(dev.small_norm))
    assert speeds[-1] == 0.0 and smalls[-1] < 1e-12
    assert np.all(np.diff(speeds) < 0.0) and np.all(np.diff(smalls) < 0.0)
    for v, w in zip(speeds[:-1], smalls[:-1]):
        assert 0.3 < w / v < 0.7  # locked to each other, not just both small

    # (c) free-wave Hamiltonian matches E - m to O(p^4/m^3)
    m = 1.0
    for p in (0.05, 0.1, 0.2):
        ham = nonrel_hamiltonian(
            np.array([0.0, 0.0, p]), np.array([0.0, 0.0, 1.0]), np.zeros(3),
            m=m,
        )
        assert abs(ham - (np.hypot(m, p) - m)) < p**4 / m**3

    # (d) 2 phi^2 -> |Phi| on the chiral-phase family
    gaps = []
    for beta in (0.5, 0.25, 0.1, 0.05):
        psi = chiral_phase(beta) @ (1.3 * REF)
        bil = compute_bilinears(psi)
        two_phi2 = float(np.sqrt(bil.theta**2 + bil.phi_scalar**2))
        gap = abs(two_phi2 - abs(float(bil.phi_scalar)))
        assert gap <= 0.5 * two_phi2 * beta**2 + 1e-12
        gaps.append(gap)
    assert np.all(np.diff(gaps) < 0.0)


def test_criterion_09_gaussian_vorticity():
    k = 0.8
    g = gaussian_packet(k, dims=(1, 25, 25, 25))
    pf = PolarFields.from_grid(g)
    qp = quantum_potentials(pf)
    p_vec = -guidance_momentum(pf, qp)[0, ..., 1:]  # upper spatial part

    # route 1: analytic gradient of the quadratic log-module
    coords = g.meshgrid()[0]
    grad_lnphi = -(k / 8.0) * coords[..., 1:]
    s_vec = np.array([0.0, 0.0, 1.0])
    p_analytic = np.cross(np.broadcast_to(s_vec, grad_lnphi.shape), grad_lnphi)
    npt.assert_allclose(p_vec, p_analytic, atol=1e-9)

    # route 2: finite differences (exact here: the integrand is linear)
    h = g.spacing[1:]

    def curl(v):
        return np.stack(
            [
                np.gradient(v[..., 2], h[1], axis=1, edge_order=2)
                - np.gradient(v[..., 1], h[2], axis=2, edge_order=2),
                np.gradient(v[..., 0], h[2], axis=2, edge_order=2)
                - np.gradient(v[..., 2], h[0], axis=0, edge_order=2),
                np.gradient(v[..., 1], h[0], axis=0, edge_order=2)
                - np.gradient(v[..., 0], h[1], axis=1, edge_order=2),
            ],
            axis=-1,
        )

    curl_fd = curl(p_vec)
    npt.assert_allclose(curl_fd, curl(p_analytic), atol=1e-9)

    # the advertised closed form; both routes above land on half of it,
    # so this stays red — see the README for where the analysis lives
    target = np.broadcast_to(-(k / 2.0) * s_vec, curl_fd.shape)
    assert np.max(np.abs(curl_fd - target)) < 1e-6 * (k / 2.0)


def test_criterion_10_trajectory_integrator(tmp_path):
    chi = 0.6
    m = 1.0
    p4 = m * np.array([np.cosh(chi), 0.0, 0.0, np.sinh(chi)])
    f = plane_wave(p4, m=m)
    g = sample(
        f, (-0.1, 0.0, 0.0, -1.0), (0.15, 1.0, 1.0, 0.125), (9, 1, 1, 17)
    )
    traj = integrate(g, (0.0, 0.0, -0.3), 0.0, 1.0, 1e-3)
    assert traj.termination == "completed"
    expect = -0.3 + np.tanh(chi) * traj.times()
    assert np.max(np.abs(traj.positions()[:, 2] - expect)) < 1e-8

    # fourth-order convergence on a flow with curvature: dz/dt = z
    nz = 9
    z = np.linspace(-0.9, 0.9, nz)
    chi_z = np.arctanh(z)
    goldstone = np.zeros((nz, 6))
    goldstone[:, 2] = chi_z
    pd = PolarData(
        phi=(0.5 * np.sqrt(1.0 - z**2)) ** 0.5,
        beta=np.zeros(nz),
        u=np.stack([np.cosh(chi_z), 0 * z, 0 * z, np.sinh(chi_z)], axis=-1),
        s=np.stack([np.sinh(chi_z), 0 * z, 0 * z, np.cosh(chi_z)], axis=-1),
        goldstone=goldstone,
        alpha=np.zeros(nz),
    )
    gexp = GridField(
        origin=(0.0, 0.0, 0.0, -0.9),
        spacing=(1.0, 1.0, 1.0, 1.8 / (nz - 1)),
        dims=(1, 1, 1, nz),
        values=reconstruct(pd).reshape(1, 1, 1, nz, 4),
    )
    errs = []
    for dt in (0.2, 0.1):
        t = integrate(gexp, (0.0, 0.0, 0.1), 0.0, 1.0, dt)
        assert t.termination == "completed"
        errs.append(abs(t.positions()[-1, 2] - 0.1 * np.e))
    assert errs[0] > 1e-9
    order = np.log2(errs[0] / errs[1])
    assert 3.7 < order < 4.3

    # byte-identical CSV output across reruns with a fixed seed
    def run(tag):
        rng = np.random.default_rng(1010)
        starts = rng.uniform(-0.5, 0.2, 4)
        trajs = [
            integrate(g, (0.0, 0.0, float(z0)), 0.0, 0.5, 0.01)
            for z0 in starts
        ]
        out = tmp_path / f"{tag}.csv"
        write_csv(trajs, out, combined=True)
        return out.read_bytes()

    assert run("a") == run("b")
