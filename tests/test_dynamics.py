import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from polardirac.clifford import BASIS
from polardirac.connections import ConnectionField, ExternalPotentials, curvatures
from polardirac.dynamics import (
    EnergyTensor,
    PolarFields,
    QuantumPotentials,
    dirac_residual,
    energy_and_newton,
    guidance_momentum,
    hj_residuals,
    nonrel_hamiltonian,
    polar_dirac_residuals,
    quantum_potentials,
    second_order_residuals,
    sigma_m_potentials,
)
from polardirac.errors import PreconditionViolated
from polardirac.fields import (
    convergence_order,
    gaussian_packet,
    grid_gradient,
    plane_wave,
    sample,
)

ETA = np.array([1.0, -1.0, -1.0, -1.0])


def const_pf(
    dims,
    spacing,
    phi=1.0,
    beta=0.0,
    u=(1.0, 0, 0, 0),
    s=(0, 0, 0, 1.0),
    P=None,
    R=None,
    ext=None,
    origin=(0.0, 0.0, 0.0, 0.0),
):
    """PolarFields with spatially constant entries and a hand-set connection."""
    dims = tuple(dims)
    shape = dims
    cf = ConnectionField(
        P=np.broadcast_to(
            np.zeros(4) if P is None else np.asarray(P, float), shape + (4,)
        ).copy(),
        R=np.zeros(shape + (4, 4, 4)) if R is None else R,
        origin=np.asarray(origin, dtype=float),
        spacing=np.asarray(spacing, dtype=float),
        dims=dims,
    )
    return PolarFields(
        phi=np.full(shape, float(phi)),
        beta=np.full(shape, float(beta)),
        u=np.broadcast_to(np.asarray(u, float), shape + (4,)).copy(),
        s=np.broadcast_to(np.asarray(s, float), shape + (4,)).copy(),
        cf=cf,
        ext=ext if ext is not None else ExternalPotentials(),
    )


def random_pf(rng, dims=(1, 5, 5, 5), with_torsion=True):
    """Arbitrary smooth-free random fields; only used for array identities."""
    shape = tuple(dims)
    r = rng.normal(size=shape + (4, 4, 4))
    r = r - np.swapaxes(r, -3, -2)
    w = rng.normal(size=shape + (4,)) if with_torsion else None
    ext = ExternalPotentials(W=w, q=1.0, X=0.7, m=1.3)
    cf = ConnectionField(
        P=rng.normal(size=shape + (4,)),
        R=r,
        origin=np.zeros(4),
        spacing=np.array([1.0, 0.3, 0.3, 0.3]),
        dims=tuple(dims),
    )
    return PolarFields(
        phi=np.abs(rng.normal(size=shape)) + 0.5,
        beta=rng.normal(size=shape),
        u=rng.normal(size=shape + (4,)),
        s=rng.normal(size=shape + (4,)),
        cf=cf,
        ext=ext,
    )


def test_polar_fields_derived_fields_are_exact_and_cached():
    pf = random_pf(np.random.default_rng(31))
    assert np.array_equal(
        pf.dbeta, grid_gradient(pf.beta, pf.spacing, pf.dims)
    )
    assert np.array_equal(
        pf.dlnphi2, grid_gradient(np.log(pf.phi**2), pf.spacing, pf.dims)
    )
    sm = sigma_m_potentials(pf)
    for name in ("Sigma_full", "M_full", "Sigma_vec", "M_vec"):
        assert np.array_equal(getattr(pf.sigma_m, name), getattr(sm, name))
    assert np.array_equal(pf.F, curvatures(pf.cf, q=pf.ext.q).F)
    assert pf.sigma_m is pf.sigma_m

    # replace() builds a new instance, which must not see the old cache
    pf2 = dataclasses.replace(pf, phi=2.0 * pf.phi, beta=-pf.beta, s=pf.u)
    assert np.array_equal(pf2.dbeta, -pf.dbeta)
    assert np.array_equal(
        pf2.dlnphi2, grid_gradient(np.log(pf2.phi**2), pf.spacing, pf.dims)
    )
    assert not np.array_equal(pf2.sigma_m.Sigma_full, pf.sigma_m.Sigma_full)
    assert np.array_equal(
        pf2.sigma_m.Sigma_full, sigma_m_potentials(pf2).Sigma_full
    )


def boosted_wave_grid(n, chi=0.5, m=1.0, extent=0.8):
    p = [m * np.cosh(chi), 0.0, 0.0, m * np.sinh(chi)]
    f = plane_wave(p, m=m)
    h = extent / (n - 1)
    dims = (n, 1, 1, n)
    return sample(f, [0, 0, 0, 0], [h, 1.0, 1.0, h], dims), dims


def rest_wave_grid(n, m=1.0, extent=0.8):
    f = plane_wave([m, 0, 0, 0], m=m)
    h = extent / (n - 1)
    dims = (n, 1, 1, 1)
    return sample(f, [0, 0, 0, 0], [h, 1.0, 1.0, 1.0], dims), dims


# ---------------------------------------------------------------- dirac


def test_dirac_residual_rest_wave_second_order():
    res = []
    for n in (9, 17):
        g, dims = rest_wave_grid(n)
        res.append(dirac_residual(g, ExternalPotentials()))
    order, mc, mf = convergence_order(res[0], res[1], (9, 1, 1, 1))
    # interior error is sqrt(2) m (1 - sin(mh)/mh) ~ 2.4e-3 at h = 0.1
    assert mc < 3e-3
    assert 1.8 < order < 2.2


def test_dirac_residual_boosted_wave_second_order():
    res = []
    for n in (9, 17):
        g, dims = boosted_wave_grid(n)
        res.append(dirac_residual(g, ExternalPotentials()))
    order, mc, mf = convergence_order(res[0], res[1], (9, 1, 1, 9))
    assert mc < 5e-3
    assert 1.8 < order < 2.2


def test_dirac_residual_linearity():
    g, dims = boosted_wave_grid(9)
    doubled = dataclasses.replace(g, values=2.0 * g.values)
    npt.assert_allclose(
        dirac_residual(doubled, ExternalPotentials()),
        2.0 * dirac_residual(g, ExternalPotentials()),
        rtol=1e-12,
        atol=1e-15,
    )


def test_dirac_residual_torsion_term():
    # on a solution the residual is dominated by the added torsion term,
    # whose pointwise norm is |X w| * |psi| = |X w| sqrt(2)
    g, dims = rest_wave_grid(9, extent=0.4)
    w = np.zeros(tuple(dims) + (4,))
    w[..., 0] = 0.6
    ext = ExternalPotentials(W=w, X=0.5)
    res = dirac_residual(g, ext)
    assert abs(np.max(res) - 0.3 * np.sqrt(2.0)) < 5e-3


def test_dirac_residual_gauge_shifted():
    # A = grad(zeta) with psi -> e^{-iq zeta} psi leaves the equation
    # satisfied; the numerical residual stays at discretization size
    g, dims = rest_wave_grid(9, extent=0.4)
    q, c = 1.0, 0.5
    t = g.meshgrid()[..., 0]
    shifted = dataclasses.replace(
        g, values=np.exp(-1j * q * c * t)[..., None] * g.values
    )
    a = np.zeros(tuple(dims) + (4,))
    a[..., 0] = c
    res = dirac_residual(shifted, ExternalPotentials(A=a, q=q))
    assert np.max(res) < 5e-3


# ---------------------------------------------------------------- sigma/M


def test_sigma_m_zero():
    pf = const_pf((1, 5, 1, 1), [1, 0.2, 1, 1])
    sm = sigma_m_potentials(pf)
    npt.assert_allclose(sm.Sigma_full, 0.0, atol=0.0)
    npt.assert_allclose(sm.M_full, 0.0, atol=0.0)
    npt.assert_allclose(sm.Sigma_vec, 0.0, atol=0.0)
    npt.assert_allclose(sm.M_vec, 0.0, atol=0.0)


def test_sigma_m_rest_wave_closes_first_order_pair():
    m = 1.3
    pf = const_pf(
        (5, 1, 1, 1),
        [0.2, 1, 1, 1],
        P=[m, 0, 0, 0],
        ext=ExternalPotentials(m=m),
    )
    sm = sigma_m_potentials(pf)
    # M_mu = -2 m s_mu and Sigma_mu = 0 for the rest configuration
    expect_m = np.zeros((5, 1, 1, 1, 4))
    expect_m[..., 3] = 2.0 * m
    npt.assert_allclose(sm.M_vec, expect_m, atol=1e-13)
    npt.assert_allclose(sm.Sigma_vec, 0.0, atol=1e-13)
    # component regression freezing the antisymmetrization weight
    npt.assert_allclose(sm.M_full[0, 0, 0, 0, 0, 3, 0], 2.0 * m, atol=1e-13)
    npt.assert_allclose(sm.M_full[0, 0, 0, 0, 3, 0, 0], -2.0 * m, atol=1e-13)
    npt.assert_allclose(sm.Sigma_full[0, 0, 0, 0, 1, 2, 0], -2.0 * m, atol=1e-13)
    res = polar_dirac_residuals(pf)
    npt.assert_allclose(res.res1, 0.0, atol=1e-13)
    npt.assert_allclose(res.res2, 0.0, atol=1e-13)


def test_sigma_m_duality():
    rng = np.random.default_rng(71)
    pf = random_pf(rng)
    sm = sigma_m_potentials(pf)
    dual_of_sigma = 0.5 * np.einsum(
        "...ijm,ijab->...abm", sm.Sigma_full, BASIS.epsilon_upper
    )
    npt.assert_allclose(sm.M_full, dual_of_sigma, atol=1e-12)


# ---------------------------------------------------------------- dep pair


def test_polar_dirac_residuals_plane_waves_converge():
    for maker, dims_c in (
        (rest_wave_grid, (9, 1, 1, 1)),
        (boosted_wave_grid, (9, 1, 1, 9)),
    ):
        r1, r2 = [], []
        for n in (9, 17):
            g, dims = maker(n)
            pf = PolarFields.from_grid(g)
            res = polar_dirac_residuals(pf)
            r1.append(np.abs(res.res1))
            r2.append(np.abs(res.res2))
        for pair in (r1, r2):
            order, mc, mf = convergence_order(pair[0], pair[1], dims_c)
            if order is None:
                assert mc < 1e-12 and mf < 1e-12
            else:
                assert 1.8 < order < 2.2, (order, mc, mf)
                assert mc < 5e-3


def test_polar_dirac_residual_torsion_balance():
    # constant spinor in a constant gauge potential at beta = pi/2: choosing
    # 2 X W = M + grad(beta) makes res1 vanish while W is genuinely nonzero
    from polardirac.fields import GridField
    from polardirac.polar import PolarData, reconstruct

    dims = (1, 5, 5, 1)
    shape = dims
    pd = PolarData(
        phi=1.0,
        beta=np.pi / 2,
        u=np.array([1.0, 0, 0, 0]),
        s=np.array([0, 0, 0, 1.0]),
        goldstone=np.zeros(6),
        alpha=0.0,
    )
    psi = np.broadcast_to(reconstruct(pd), shape + (4,)).copy()
    g = GridField([0, 0, 0, 0], [1, 0.25, 0.25, 1], dims, psi)
    # time component so that P.u is nonzero and M_vec actually appears
    a = np.zeros(shape + (4,))
    a[..., 0] = 0.8

    x_coup = 0.4
    probe = PolarFields.from_grid(g, ExternalPotentials(A=a, q=1.0))
    m_vec = sigma_m_potentials(probe).M_vec
    assert np.max(np.abs(m_vec)) > 0.1  # the torsion term has work to do
    w = m_vec / (2.0 * x_coup)
    ext = ExternalPotentials(A=a, q=1.0, X=x_coup, W=w)
    pf = PolarFields.from_grid(g, ext)
    res = polar_dirac_residuals(pf)
    npt.assert_allclose(res.res1, 0.0, atol=1e-12)


# ---------------------------------------------------------------- Y, Z, HJ


def test_quantum_potentials_plane_wave_zero():
    g, dims = rest_wave_grid(9)
    pf = PolarFields.from_grid(g)
    qp = quantum_potentials(pf)
    npt.assert_allclose(qp.Y, 0.0, atol=1e-13)
    npt.assert_allclose(qp.Z, 0.0, atol=1e-13)


def test_quantum_potentials_gaussian_module():
    k = 1.0
    g = gaussian_packet(k, K=2.0, dims=(1, 17, 17, 17))
    pf = PolarFields.from_grid(g)
    qp = quantum_potentials(pf)
    coords = g.meshgrid()
    expect = np.zeros(tuple(g.dims) + (4,))
    for i in (1, 2, 3):
        expect[..., i] = k * coords[..., i] / 8.0
    npt.assert_allclose(qp.Z, expect, atol=1e-9)
    npt.assert_allclose(qp.Y, 0.0, atol=1e-12)


def test_quantum_potentials_pure_axial_connection():
    b = np.array([0.3, -0.2, 0.5, 0.1])
    b_up = b * ETA
    r_axial = np.einsum("ijka,a->ijk", BASIS.epsilon, b_up) / 3.0
    dims = (1, 5, 5, 1)
    r = np.broadcast_to(r_axial, dims + (4, 4, 4)).copy()
    pf = const_pf(dims, [1, 0.25, 0.25, 1], R=r)
    qp = quantum_potentials(pf)
    npt.assert_allclose(qp.Y, 0.5 * np.broadcast_to(b, dims + (4,)), atol=1e-12)
    npt.assert_allclose(qp.Z, 0.0, atol=1e-12)


def test_hj_equals_minus_half_polar_pair():
    # exact array-level identity for arbitrary inputs: res_hj = -res_dep / 2
    rng = np.random.default_rng(72)
    pf = random_pf(rng)
    dep = polar_dirac_residuals(pf)
    hj = hj_residuals(pf, quantum_potentials(pf))
    npt.assert_allclose(hj.res1, -0.5 * dep.res1, atol=1e-12)
    npt.assert_allclose(hj.res2, -0.5 * dep.res2, atol=1e-12)


def test_hj_linearity_in_potentials():
    rng = np.random.default_rng(73)
    pf = random_pf(rng)
    qp = quantum_potentials(pf)
    delta = rng.normal(size=qp.Y.shape)
    shifted = QuantumPotentials(Y=qp.Y + delta, Z=qp.Z)
    npt.assert_allclose(
        hj_residuals(pf, shifted).res1,
        hj_residuals(pf, qp).res1 - delta,
        atol=1e-12,
    )


def test_hj_residuals_tiny_on_fine_plane_waves():
    for maker in (rest_wave_grid, boosted_wave_grid):
        g, dims = maker(9, extent=8 * 2e-5)
        pf = PolarFields.from_grid(g)
        hj = hj_residuals(pf, quantum_potentials(pf))
        assert np.max(np.abs(hj.res1)) < 1e-9
        assert np.max(np.abs(hj.res2)) < 1e-9


# ---------------------------------------------------------------- guidance


def test_guidance_rest_and_boosted_analytic():
    m = 1.1
    pf = const_pf((1, 5, 1, 1), [1, 0.2, 1, 1], ext=ExternalPotentials(m=m))
    qp = quantum_potentials(pf)
    expect = np.zeros((1, 5, 1, 1, 4))
    expect[..., 0] = m
    npt.assert_allclose(guidance_momentum(pf, qp), expect, atol=1e-14)

    chi = 0.7
    pf = const_pf(
        (1, 5, 1, 1),
        [1, 0.2, 1, 1],
        u=(np.cosh(chi), 0, 0, np.sinh(chi)),
        s=(np.sinh(chi), 0, 0, np.cosh(chi)),
        ext=ExternalPotentials(m=m),
    )
    qp = quantum_potentials(pf)
    expect = np.zeros((1, 5, 1, 1, 4))
    expect[..., 0] = m * np.cosh(chi)
    expect[..., 3] = -m * np.sinh(chi)  # lower index
    npt.assert_allclose(guidance_momentum(pf, qp), expect, atol=1e-13)


def test_guidance_matches_connection_momentum():
    errs = []
    for n in (9, 17):
        g, dims = boosted_wave_grid(n)
        pf = PolarFields.from_grid(g)
        qp = quantum_potentials(pf)
        errs.append(np.abs(guidance_momentum(pf, qp) - pf.cf.P))
    order, mc, mf = convergence_order(errs[0], errs[1], (9, 1, 1, 9))
    assert mc < 5e-3
    assert 1.8 < order < 2.2


def test_guidance_spinless_reduction_exact():
    # s -> 0 with beta = 0 gives P = m u with no quantum correction at all,
    # even when the module is position dependent
    k = 1.0
    g = gaussian_packet(k, dims=(1, 9, 9, 9))
    pf = PolarFields.from_grid(g)
    pf = dataclasses.replace(pf, s=np.zeros_like(pf.s))
    qp = quantum_potentials(pf)
    assert np.max(np.abs(qp.Z)) > 1e-3  # quantum potential present...
    p_pred = guidance_momentum(pf, qp)
    expect = pf.ext.m * pf.u * ETA
    npt.assert_allclose(p_pred, expect, atol=1e-14)  # ...but decoupled


def test_guidance_gaussian_vorticity_quarter_k():
    # static gaussian module, s = e3: the guidance formula evaluates to
    # P_up = s x grad(ln phi) whose curl is -(k/4) s, and the finite
    # difference route lands on the same number because every derivative
    # in the chain is of a quadratic
    k = 1.0
    g = gaussian_packet(k, dims=(1, 17, 17, 17))
    pf = PolarFields.from_grid(g)
    qp = quantum_potentials(pf)
    p_low = guidance_momentum(pf, qp)
    p_vec = -p_low[0, ..., 1:]  # upper spatial components

    coords = g.meshgrid()[0]
    grad_lnphi = -(k / 8.0) * coords[..., 1:]
    s_vec = np.array([0.0, 0.0, 1.0])
    expect = np.cross(np.broadcast_to(s_vec, grad_lnphi.shape), grad_lnphi)
    npt.assert_allclose(p_vec, expect, atol=1e-10)

    h = g.spacing[1:]
    curl = np.stack(
        [
            np.gradient(p_vec[..., 2], h[1], axis=1, edge_order=2)
            - np.gradient(p_vec[..., 1], h[2], axis=2, edge_order=2),
            np.gradient(p_vec[..., 0], h[2], axis=2, edge_order=2)
            - np.gradient(p_vec[..., 2], h[0], axis=0, edge_order=2),
            np.gradient(p_vec[..., 1], h[0], axis=0, edge_order=2)
            - np.gradient(p_vec[..., 0], h[1], axis=1, edge_order=2),
        ],
        axis=-1,
    )
    expect_curl = np.broadcast_to(-(k / 4.0) * s_vec, curl.shape)
    npt.assert_allclose(curl, expect_curl, atol=1e-9)


# ---------------------------------------------------------------- 2nd order


def test_second_order_plane_wave_standard():
    maxima = []
    for n in (9, 17):
        g, dims = boosted_wave_grid(n)
        pf = PolarFields.from_grid(g)
        qp = quantum_potentials(pf)
        so = second_order_residuals(pf, qp)
        # interior: F and box(phi) vanish, residual is exactly P.P - m^2
        p_sq = np.einsum("...m,...m->...", pf.cf.P * ETA, pf.cf.P)
        sl = (slice(2, n - 2), 0, 0, slice(2, n - 2))
        npt.assert_allclose(
            so.res_standard[sl], (p_sq - pf.ext.m**2)[sl], atol=1e-11
        )
        maxima.append(np.abs(so.res_standard))
    order, mc, mf = convergence_order(maxima[0], maxima[1], (9, 1, 1, 9))
    assert mc < 2e-2
    assert 1.8 < order < 2.2


def test_second_order_rest_general_converges():
    maxima = []
    for n in (9, 17):
        g, dims = rest_wave_grid(n)
        pf = PolarFields.from_grid(g)
        so = second_order_residuals(pf, quantum_potentials(pf))
        maxima.append(np.abs(so.res_general))
    order, mc, mf = convergence_order(maxima[0], maxima[1], (9, 1, 1, 1))
    assert mc < 5e-3
    assert 1.8 < order < 2.2


def test_second_order_effective_reduction():
    k = 1.0
    g = gaussian_packet(k, dims=(1, 13, 13, 13))
    pf = PolarFields.from_grid(g)  # X = 0, W = 0, beta = 0
    so = second_order_residuals(pf, quantum_potentials(pf))
    npt.assert_allclose(
        so.res_effective, -pf.phi * so.res_general, atol=1e-12
    )


def test_second_order_requires_small_connection():
    rng = np.random.default_rng(74)
    dims = (1, 5, 5, 1)
    r = rng.normal(size=dims + (4, 4, 4))
    r = r - np.swapaxes(r, -3, -2)
    pf = const_pf(dims, [1, 0.25, 0.25, 1], R=r)
    with pytest.raises(PreconditionViolated):
        second_order_residuals(pf, quantum_potentials(pf))


# ---------------------------------------------------------------- energy


def test_energy_free_boosted_wave():
    chi = 0.5
    g, dims = boosted_wave_grid(9, chi=chi)
    pf = PolarFields.from_grid(g)
    qp = quantum_potentials(pf)
    et, newton = energy_and_newton(pf, qp)
    npt.assert_allclose(et.E, 0.0, atol=1e-12)
    expect = 2.0 * pf.ext.m * np.einsum("...r,...s->...rs", pf.u, pf.u)
    npt.assert_allclose(et.T, expect, atol=1e-12)
    npt.assert_allclose(et.T[..., 0, 0], 2.0 * np.cosh(chi) ** 2, atol=1e-12)
    sl = (slice(2, 7), 0, 0, slice(2, 7))
    npt.assert_allclose(newton[sl], 0.0, atol=1e-12)


def test_energy_rest_wave_components():
    g, dims = rest_wave_grid(9)
    pf = PolarFields.from_grid(g)
    et, _ = energy_and_newton(pf, quantum_potentials(pf))
    expect = np.zeros(tuple(dims) + (4, 4))
    expect[..., 0, 0] = 2.0
    npt.assert_allclose(et.T, expect, atol=1e-12)


def test_energy_scales_with_phi_squared():
    g = gaussian_packet(1.0, dims=(1, 9, 9, 9))
    pf = PolarFields.from_grid(g)
    qp = quantum_potentials(pf)
    et1, _ = energy_and_newton(pf, qp)
    pf2 = dataclasses.replace(pf, phi=np.sqrt(2.0) * pf.phi)
    et2, _ = energy_and_newton(pf2, quantum_potentials(pf2))
    npt.assert_allclose(et2.T, 2.0 * et1.T, atol=1e-12)
    npt.assert_allclose(et2.E, 2.0 * et1.E, atol=1e-12)


def test_energy_symmetry_invariants():
    rng = np.random.default_rng(75)
    pf = random_pf(rng)
    qp = quantum_potentials(pf)
    et, _ = energy_and_newton(pf, qp)
    npt.assert_allclose(et.T, np.swapaxes(et.T, -1, -2), atol=1e-10)
    npt.assert_allclose(et.E, np.swapaxes(et.E, -2, -3), atol=1e-10)
    assert isinstance(et, EnergyTensor)


# ---------------------------------------------------------------- nonrel H


def test_nonrel_hamiltonian_trivial():
    assert nonrel_hamiltonian([0, 0, 0], [0, 0, 1], [0, 0, 0]) == 0.0


def test_nonrel_hamiltonian_free_particle():
    p, m = 0.3, 1.0
    h = nonrel_hamiltonian([0, 0, p], [0, 0, 1], [0, 0, 0], m=m)
    assert h == pytest.approx(p**2 / (2 * m))
    energy = np.sqrt(p**2 + m**2)
    assert abs(h - (energy - m)) < p**4 / (4 * m**3)


def test_nonrel_hamiltonian_magnetic_term():
    q, m, b = 0.8, 1.2, 0.5
    h = nonrel_hamiltonian([0, 0, 0], [0, 0, 1], [0, 0, b], q=q, m=m)
    assert h == pytest.approx(q * b / (2 * m))


def test_nonrel_hamiltonian_quantum_term():
    k, m, n = 1.0, 1.0, 41
    half = 1.0
    xs = np.linspace(-half, half, n)
    x, y, z = np.meshgrid(xs, xs, xs, indexing="ij")
    phi = 2.0 * np.exp(-k * (x**2 + y**2 + z**2) / 16.0)
    spacing = [xs[1] - xs[0]] * 3
    h = nonrel_hamiltonian(
        [0, 0, 0], [0, 0, 1], [0, 0, 0], phi=phi, spacing=spacing, m=m
    )
    # at the peak lap(phi)/phi = -3k/8, so the quantum term is +3k/(16 m)
    assert h == pytest.approx(3.0 * k / (16.0 * m), rel=1e-3)
