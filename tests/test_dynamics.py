import dataclasses
import re
import sys

import numpy as np
import numpy.testing as npt
import pytest

from polardirac.clifford import BASIS, METRIC
from polardirac.connections import (
    ConnectionField,
    ExternalPotentials,
    build_connections,
    covariant_derivative_check,
    curvatures,
    divergence_constraints,
    goldstone_derivatives,
    irreducible_split,
    polar_pipeline,
    transform_from_params,
    transform_from_polar,
)
from polardirac.dynamics import (
    EnergyTensor,
    PolarFields,
    QuantumPotentials,
    _box,
    _mink_sq,
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
from polardirac.errors import GridMismatch, NotAntisymmetric, PreconditionViolated
from polardirac.fields import (
    GridField,
    _phase_gradient,
    convergence_order,
    gaussian_packet,
    grid_gradient,
    plane_wave,
    sample,
)

from oracles import goldstone_derivative

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
        pf.dbeta, _phase_gradient(pf.beta, pf.spacing)
    )
    assert np.array_equal(
        pf.dlnphi2, grid_gradient(np.log(pf.phi**2), pf.spacing)
    )
    us = np.einsum("...a,...b->...ab", pf.u, pf.s)
    assert np.array_equal(
        pf.spin_plane, np.einsum("ijab,...ab->...ij", BASIS.epsilon, us)
    )
    # the hub keeps the vectors of sigma_m and its connections those of the
    # split, not the full tensors
    sm = sigma_m_potentials(pf)
    for name in ("Sigma_vec", "M_vec"):
        assert np.array_equal(getattr(pf.sigma_m, name), getattr(sm, name))
    assert pf.sigma_m.Sigma_full is None and pf.sigma_m.M_full is None
    assert np.array_equal(pf.F, curvatures(pf.cf, q=pf.ext.q).F)
    sp = irreducible_split(pf.cf.R)
    for name in ("Ra", "Ba"):
        assert np.array_equal(getattr(pf.cf.split, name), getattr(sp, name))
    assert pf.cf.split.Pi is None
    assert pf.spin_plane is pf.spin_plane
    assert pf.sigma_m is pf.sigma_m
    assert pf.cf.split is pf.cf.split
    assert np.array_equal(pf.cf.dP, grid_gradient(pf.cf.P, pf.spacing))
    assert pf.cf.dP is pf.cf.dP

    # replace() builds a new instance, which must not see the old cache
    pf2 = dataclasses.replace(pf, phi=2.0 * pf.phi, beta=-pf.beta, s=pf.u)
    assert np.array_equal(pf2.dbeta, -pf.dbeta)
    assert np.array_equal(
        pf2.dlnphi2, grid_gradient(np.log(pf2.phi**2), pf.spacing)
    )
    assert not np.array_equal(pf2.spin_plane, pf.spin_plane)
    assert not np.array_equal(pf2.sigma_m.Sigma_vec, pf.sigma_m.Sigma_vec)
    assert np.array_equal(
        pf2.sigma_m.Sigma_vec, sigma_m_potentials(pf2).Sigma_vec
    )
    pf3 = dataclasses.replace(
        pf, cf=dataclasses.replace(pf.cf, R=np.swapaxes(pf.cf.R, -3, -2))
    )
    assert not np.array_equal(pf3.cf.split.Ba, pf.cf.split.Ba)
    assert np.array_equal(pf3.cf.split.Ba, irreducible_split(pf3.cf.R).Ba)


def gauge_pf(rng, n=9):
    """Random u, s, phi and beta on the connections of a smooth pure-gauge
    field L = e^{i xi} B(chi) R(theta): R is flat but far from zero."""
    dims = (1, n, n, n)
    ax = np.linspace(-1.0, 1.0, n)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    params = np.zeros(dims + (6,))
    for c in range(6):
        k = rng.uniform(0.5, 1.5, 3)
        params[0, ..., c] = 0.3 * np.sin(k[0] * x + k[1] * y + k[2] * z + c)
    h = 2.0 / (n - 1)
    lf = transform_from_params(
        (0.4 * np.sin(x) * np.cos(z))[None], params,
        (0.0, -1.0, -1.0, -1.0), (1.0, h, h, h), dims,
    )
    cf = build_connections(goldstone_derivatives(lf), ExternalPotentials())
    return PolarFields(
        phi=np.abs(rng.normal(size=dims)) + 0.5,
        beta=rng.normal(size=dims),
        u=rng.normal(size=dims + (4,)),
        s=rng.normal(size=dims + (4,)),
        cf=cf,
        ext=ExternalPotentials(m=1.3),
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
    order, mc, mf = convergence_order(res[0], res[1])
    # interior error is sqrt(2) m (1 - sin(mh)/mh) ~ 2.4e-3 at h = 0.1
    assert mc < 3e-3
    assert 1.8 < order < 2.2


def test_dirac_residual_boosted_wave_second_order():
    res = []
    for n in (9, 17):
        g, dims = boosted_wave_grid(n)
        res.append(dirac_residual(g, ExternalPotentials()))
    order, mc, mf = convergence_order(res[0], res[1])
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


def _mismatch_dirac_a_grid():
    g, _ = rest_wave_grid(9)
    dirac_residual(g, ExternalPotentials(A=np.zeros((5, 1, 1, 1, 4))))


def _mismatch_dirac_a_constant():
    g, _ = rest_wave_grid(9)
    dirac_residual(g, ExternalPotentials(A=np.array([0.3, 0.0, 0.0, 0.0])))


def _mismatch_polar_w():
    g, _ = rest_wave_grid(9)
    ext = ExternalPotentials(W=np.zeros((5, 1, 1, 1, 4)), X=0.5)
    polar_dirac_residuals(PolarFields.from_grid(g, ext))


def _mismatch_energy_w():
    g, _ = rest_wave_grid(9)
    pf = PolarFields.from_grid(g, ExternalPotentials(W=np.ones(4)))
    energy_and_newton(pf, quantum_potentials(pf))


@pytest.mark.parametrize(
    "evaluate",
    [
        _mismatch_dirac_a_grid,
        _mismatch_dirac_a_constant,
        _mismatch_polar_w,
        _mismatch_energy_w,
    ],
)
def test_external_field_off_grid_raises_grid_mismatch(evaluate):
    with pytest.raises(GridMismatch, match=r"external field (A|W) shaped"):
        evaluate()


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


def eps_einsum_oracle(pf, qp):
    """The eps contractions as multi-operand einsums on BASIS.epsilon, the
    form they had before the spin plane and the pair matrix."""
    eps, eps_up = BASIS.epsilon, BASIS.epsilon_upper
    p, r = pf.cf.P, pf.cf.R
    spin_plane = np.einsum("ijab,...a,...b->...ij", eps, pf.u, pf.s)
    sigma_full = r - 2.0 * p[..., None, None, :] * spin_plane[..., None]
    dual_r = 0.5 * np.einsum("...ijm,ijab->...abm", r, eps_up)
    us = np.einsum("...a,...b->...ab", pf.u, pf.s)
    m_full = dual_r + 2.0 * p[..., None, None, :] * (
        us - np.swapaxes(us, -1, -2)
    )[..., None]
    hj_eps = np.einsum("mrna,...r,...n,...a->...m", eps, p * ETA, pf.u, pf.s)
    guidance_eps = np.einsum(
        "mnra,...m,...n,...a->...r", eps_up, qp.Z, pf.u * ETA, pf.s * ETA
    )
    f_term = np.einsum(
        "mnrs,...mn,...r,...s->...", eps_up, pf.F, pf.u * ETA, pf.s * ETA
    )
    r_first_up = r * ETA[:, None, None]
    quad_b = np.einsum("asmn,...kam,...ksn->...", eps_up, r, r_first_up)
    return dict(
        W=spin_plane, Sigma_full=sigma_full, M_full=m_full, hj_eps=hj_eps,
        guidance_eps=guidance_eps, f_term=f_term, quad_b=quad_b,
    )


def assert_within(actual, expect, scale):
    assert np.max(np.abs(actual - expect)) <= 1e-15 * np.max(np.abs(scale))


@pytest.mark.parametrize("field", ["random", "gauge"])
def test_eps_contractions_match_einsum_oracle(field):
    rng = np.random.default_rng(77)
    pf = random_pf(rng) if field == "random" else gauge_pf(rng)
    qp = quantum_potentials(pf)
    want = eps_einsum_oracle(pf, qp)
    assert np.array_equal(pf.spin_plane, want["W"])
    sm = sigma_m_potentials(pf)
    assert np.array_equal(sm.Sigma_full, want["Sigma_full"])
    assert np.array_equal(sm.M_full, want["M_full"])

    # each residual against the same expression around the oracle term
    s_low, m = pf.s * ETA, pf.ext.m
    hj_want = want["hj_eps"] + qp.Z - m * s_low * np.sin(pf.beta)[..., None]
    assert_within(hj_residuals(pf, qp).res2, hj_want, want["hj_eps"])
    yu = np.einsum("...m,...m->...", qp.Y, pf.u)
    ys = np.einsum("...m,...m->...", qp.Y, pf.s)
    p_up = (
        m * np.cos(pf.beta)[..., None] * pf.u
        + yu[..., None] * pf.s
        - ys[..., None] * pf.u
        + want["guidance_eps"]
    )
    assert_within(guidance_momentum(pf, qp), p_up * ETA, want["guidance_eps"])

    split = irreducible_split(pf.cf.R)
    div_b = np.trace(
        grid_gradient(split.Ba * ETA, pf.spacing), axis1=-2, axis2=-1
    )
    # random R is curved, so the flatness precondition is waived
    res_b = divergence_constraints(pf.cf, fd_tol=np.inf).resB
    assert_within(res_b, div_b - 0.5 * want["quad_b"], want["quad_b"])

    if field == "random":
        # the standard balance equation needs R = 0, which keeps F and u, s
        flat = dataclasses.replace(
            pf, cf=dataclasses.replace(pf.cf, R=np.zeros_like(pf.cf.R))
        )
        f_term = eps_einsum_oracle(flat, qp)["f_term"]
        box_over_phi = _box(flat.phi, flat.spacing) / flat.phi
        standard = _mink_sq(flat.cf.P) - m**2 - 0.5 * flat.ext.q * f_term
        assert_within(
            second_order_residuals(flat, qp).res_standard,
            standard - box_over_phi,
            f_term,
        )


# ---------------------------------------------------------------- dep pair


def test_polar_dirac_residuals_plane_waves_converge():
    for maker in (rest_wave_grid, boosted_wave_grid):
        r1, r2 = [], []
        for n in (9, 17):
            g, dims = maker(n)
            pf = PolarFields.from_grid(g)
            res = polar_dirac_residuals(pf)
            r1.append(np.abs(res.res1))
            r2.append(np.abs(res.res2))
        for pair in (r1, r2):
            order, mc, mf = convergence_order(pair[0], pair[1])
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
    order, mc, mf = convergence_order(errs[0], errs[1])
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
    order, mc, mf = convergence_order(maxima[0], maxima[1])
    assert mc < 2e-2
    assert 1.8 < order < 2.2


def test_second_order_rest_general_converges():
    maxima = []
    for n in (9, 17):
        g, dims = rest_wave_grid(n)
        pf = PolarFields.from_grid(g)
        so = second_order_residuals(pf, quantum_potentials(pf))
        maxima.append(np.abs(so.res_general))
    order, mc, mf = convergence_order(maxima[0], maxima[1])
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


def test_second_order_precondition_names_the_largest_connection():
    # R is nonzero at two sites; the error names the grid index and event
    # of the larger one
    dims = (1, 5, 5, 1)
    r = np.zeros(dims + (4, 4, 4))
    for site, value in (((0, 1, 3, 0), 1e-6), ((0, 3, 2, 0), 3e-6)):
        r[site + (0, 2, 1)] = value
        r[site + (2, 0, 1)] = -value
    pf = const_pf(dims, [1, 0.25, 0.25, 1], R=r, origin=(0.5, -1.0, 0.0, 2.0))
    where = "grid index (0, 3, 2, 0), event (t, x, y, z) = [0.5, -0.25, 0.5, 2.0]"
    match = re.escape(f"3.000e-06 > 1.000e-08 at {where}:")
    with pytest.raises(PreconditionViolated, match=match):
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
    assert np.array_equal(et.T, np.swapaxes(et.T, -1, -2))
    assert np.array_equal(et.E, np.swapaxes(et.E, -2, -3))
    assert isinstance(et, EnergyTensor)


def spin_energy_terms(pf, qp):
    """E^{rho sigma kappa} written out term by term, both halves of every
    symmetric pair and B taken from R by its own eps contractions."""
    eta_up = METRIC  # diagonal, so the inverse has the same entries
    eps_up = BASIS.epsilon_upper
    y_up = qp.Y * ETA
    u_low = pf.u * ETA
    yu = np.einsum("...m,...m->...", qp.Y, pf.u)
    r = pf.cf.R
    r_last_up = r * ETA

    e = (
        np.einsum("rk,...s->...rsk", eta_up, y_up)
        + np.einsum("sk,...r->...rsk", eta_up, y_up)
        - 2.0 * np.einsum("...k,...s,...r->...rsk", y_up, pf.u, pf.u)
        + np.einsum("...,...r,sk->...rsk", yu, pf.u, eta_up)
        + np.einsum("...,...s,rk->...rsk", yu, pf.u, eta_up)
        + np.einsum("mnsk,...m,...n,...r->...rsk", eps_up, qp.Z, u_low, pf.u)
        + np.einsum("mnrk,...m,...n,...s->...rsk", eps_up, qp.Z, u_low, pf.u)
        - 0.25
        * (
            np.einsum("rank,...ans->...rsk", eps_up, r_last_up)
            + np.einsum("sank,...anr->...rsk", eps_up, r_last_up)
            + np.einsum("rnai,...nai,sk->...rsk", eps_up, r, eta_up)
            + np.einsum("snai,...nai,rk->...rsk", eps_up, r, eta_up)
        )
    )
    return pf.phi[..., None, None, None] ** 2 * e


@pytest.mark.parametrize("field", ["random", "gaussian"])
def test_energy_matches_term_by_term_oracle(field):
    if field == "random":
        pf = random_pf(np.random.default_rng(75))
    else:
        g = gaussian_packet(1.2, s_axis=(0.48, 0.6, 0.64), dims=(1, 9, 9, 9))
        pf = PolarFields.from_grid(g)
    qp = quantum_potentials(pf)
    et, _ = energy_and_newton(pf, qp)
    expect = spin_energy_terms(pf, qp)
    scale = np.max(np.abs(expect))
    assert scale > 0.0
    npt.assert_allclose(et.E, expect, rtol=0.0, atol=1e-12 * scale)


def chiral_phase_grid(beta_mid):
    """phi = 1, u and s at rest, beta = beta_mid + x/2 on a 17-point x axis."""
    from oracles import REFERENCE, chiral_phase

    n = 17
    x = np.linspace(-1.0, 1.0, n)
    beta = (beta_mid + 0.5 * x).reshape(1, n, 1, 1)
    values = np.einsum("...ij,j->...i", chiral_phase(beta), REFERENCE)
    return GridField([0, -1, 0, 0], [1, x[1] - x[0], 1, 1], (1, n, 1, 1), values)


def test_beta_branch_cut_is_read_across():
    # beta runs 2.7..3.7 and crosses the arctan2 cut at pi; the same field
    # shifted to 0.5..1.5 has no cut.  Both have Y_x = d_x beta / 2 = 1/4.
    pf_cut = PolarFields.from_grid(chiral_phase_grid(3.2))
    pf_plain = PolarFields.from_grid(chiral_phase_grid(1.0))
    assert np.min(pf_cut.beta) < 0.0 < np.max(pf_cut.beta)
    for pf in (pf_cut, pf_plain):
        y = quantum_potentials(pf).Y
        npt.assert_allclose(y[..., 1], 0.25, atol=1e-12)
        npt.assert_allclose(np.delete(y, 1, axis=-1), 0.0, atol=1e-12)
    # without a cut the derivative keeps the plain grid_gradient bits
    plain = grid_gradient(pf_plain.beta, pf_plain.spacing)
    assert np.array_equal(pf_plain.dbeta, plain)

    ext = ExternalPotentials()
    res_cut = covariant_derivative_check(chiral_phase_grid(3.2), ext).spinor
    res_plain = covariant_derivative_check(chiral_phase_grid(1.0), ext).spinor
    npt.assert_allclose(res_cut, res_plain, atol=1e-12)
    assert np.max(res_cut) < 1e-3


def test_momentum_is_read_across_the_beta_cut():
    # where beta wraps, alpha takes up its 2 pi as pi and L changes sign;
    # the Goldstone layer differences L with that sign undone, so P of a
    # moving chiral-phase field is the same with and without the cut (the
    # two sites next to the cut read P = 0 against 0.699 before)
    def moving(beta_mid):
        g = chiral_phase_grid(beta_mid)
        x = g.meshgrid()[..., 1]
        values = g.values * np.exp(-0.7j * x)[..., None]
        return GridField(g.origin, g.spacing, g.dims, values)

    pf_cut = PolarFields.from_grid(moving(3.2))
    pf_plain = PolarFields.from_grid(moving(1.0))
    assert np.min(pf_cut.beta) < 0.0 < np.max(pf_cut.beta)
    assert np.min(pf_cut.cf.P[..., 1]) > 0.69
    npt.assert_allclose(pf_cut.cf.P, pf_plain.cf.P, rtol=0.0, atol=1e-13)
    npt.assert_allclose(pf_cut.cf.R, pf_plain.cf.R, rtol=0.0, atol=1e-13)
    # the dense single-site oracle reads the wrap the same way
    g = moving(3.2)
    pd, gd, _ = polar_pipeline(g, ExternalPotentials())
    lf = transform_from_polar(pd, g.origin, g.spacing)
    for i in range(lf.grid_shape[1]):
        dxi, dxi_ab, _ = goldstone_derivative(lf, (0, i, 0, 0))
        npt.assert_allclose(dxi, gd.dxi[0, i, 0, 0], rtol=0.0, atol=1e-13)
        npt.assert_allclose(dxi_ab, gd.dxi_ab[0, i, 0, 0], rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------- nonrel H


def test_chart_change_moves_only_the_chart_bound_outputs():
    # psi fixes L only up to a rotation about the spin axis paired with a
    # phase: A -> A diag(e^{iq delta}, e^{-iq delta}) and alpha -> alpha +
    # delta give the same psi, so L' = e^{iq delta} diag(D^-1, D^-1) L with
    # D = diag(e^{iq delta}, e^{-iq delta}).  The residual pairs, T, the
    # Newton force and the guidance momentum less P must not see it; R
    # moves only in the spin plane W, and P by half of R's W-plane
    # coefficient (R's shift over W_ij W^ij)
    g = gaussian_packet(1.2, s_axis=(0.48, 0.6, 0.64), dims=(1, 17, 17, 17))
    ext = ExternalPotentials()
    pd, _, cf = polar_pipeline(g, ext)
    lf = transform_from_polar(pd, g.origin, g.spacing)
    x = g.meshgrid()
    delta = 0.8 * np.sin(0.9 * x[..., 1] - 0.6 * x[..., 2]) + 0.5 * np.cos(
        0.7 * x[..., 3]
    )
    e = np.exp(1j * ext.q * delta)
    rows = np.stack((1.0 / e, e), axis=-1)  # D^-1 on each chiral block
    lf2 = dataclasses.replace(
        lf, blocks=(e[..., None] * rows)[..., None, :, None] * lf.blocks
    )
    cf2 = build_connections(goldstone_derivatives(lf2), ext)
    pf = PolarFields(phi=pd.phi, beta=pd.beta, u=pd.u, s=pd.s, cf=cf, ext=ext)
    pf2 = dataclasses.replace(pf, cf=cf2)

    def invariants(pf):
        qp = quantum_potentials(pf)
        first, hj = polar_dirac_residuals(pf), hj_residuals(pf, qp)
        et, newton = energy_and_newton(pf, qp)
        guide = guidance_momentum(pf, qp) - pf.cf.P
        return first.res1, first.res2, hj.res1, hj.res2, et.T, newton, guide

    for a, b in zip(invariants(pf), invariants(pf2)):
        npt.assert_allclose(b, a, rtol=0.0, atol=1e-13)
    w = pf.spin_plane
    w_up = w * ETA[:, None] * ETA
    dr = cf2.R - cf.R
    coef = np.einsum("...ijm,...ij->...m", dr, w_up) / np.einsum(
        "...ij,...ij->...", w, w_up
    )[..., None]
    assert np.max(np.abs(dr)) > 0.5
    npt.assert_allclose(
        dr, coef[..., None, None, :] * w[..., None], rtol=0.0, atol=1e-13
    )
    dp = cf2.P - cf.P
    assert np.max(np.abs(dp)) > 0.5
    npt.assert_allclose(dp, 0.5 * coef, rtol=0.0, atol=1e-13)


def test_every_reader_of_R_checks_it_once_per_field(monkeypatch):
    # R with a symmetric part: each evaluator that takes R_ij = -R_ji for
    # granted names the first site; on a good field the readers share one
    # check
    from polardirac import cli, connections

    def fields(seed):
        return cli._random_polar_fields(
            np.random.default_rng(seed), ExternalPotentials(X=0.7)
        )

    readers = (
        polar_dirac_residuals,
        sigma_m_potentials,
        quantum_potentials,
        lambda pf: curvatures(pf.cf),
    )
    where = r"R must satisfy R_ij = -R_ji; it fails at grid index \(0, 0, 0, 0\)"
    for reader in readers:
        pf = fields(5)
        r = pf.cf.R.copy()
        r[..., 0, 1, :] += 0.5
        bad = dataclasses.replace(pf, cf=dataclasses.replace(pf.cf, R=r))
        with pytest.raises(NotAntisymmetric, match=where):
            reader(bad)
    calls = []
    real = connections._check_antisymmetric

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(connections, "_check_antisymmetric", counting)
    pf = fields(5)
    for reader in readers:
        reader(pf)
    assert calls == ["R must satisfy R_ij = -R_ji"]


def _count_calls(monkeypatch, fn, counted=lambda *args: True):
    """The calls of fn whose arguments pass counted, made through any
    polardirac module that names fn."""
    calls = []

    def counting(*args, **kwargs):
        if counted(*args):
            calls.append(args)
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("polardirac"):
            for name, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, name, counting)
    return calls


def test_split_of_R_and_dP_are_taken_once_per_connection(monkeypatch):
    # the connections keep the split of R and dP, so the hub's readers and
    # the connection evaluators share one pass of each
    from polardirac import connections, fields

    g, _ = boosted_wave_grid(9)
    pf = PolarFields.from_grid(g)
    splits = _count_calls(monkeypatch, connections._split_vectors)
    gradients = _count_calls(
        monkeypatch, fields.grid_gradient, lambda a, *_: a is pf.cf.P
    )
    qp = quantum_potentials(pf)
    energy_and_newton(pf, qp)
    divergence_constraints(pf.cf, fd_tol=np.inf)
    assert len(splits) == 1
    assert np.array_equal(pf.F, curvatures(pf.cf).F)
    assert len(gradients) == 1


def test_grid_chain_checks_R_only_where_it_can_fail(monkeypatch):
    # without Omega, R is the Goldstone layer's own dxi_ab, exactly
    # antisymmetric, and the hub's readers make no check; R = dxi_ab - Omega
    # is checked once, and so is the field of a direct build_connections
    from polardirac import connections

    g, dims = boosted_wave_grid(9)
    omega = 0.2 * np.random.default_rng(3).normal(size=dims + (4, 4, 4))
    with_omega = ExternalPotentials(Omega=omega - np.swapaxes(omega, -3, -2))
    checks = _count_calls(monkeypatch, connections._check_antisymmetric)
    for ext, expected in ((ExternalPotentials(), 0), (with_omega, 1)):
        checks.clear()
        pf = PolarFields.from_grid(g, ext)
        qp = quantum_potentials(pf)
        polar_dirac_residuals(pf)
        hj_residuals(pf, qp)
        guidance_momentum(pf, qp)
        energy_and_newton(pf, qp)
        sigma_m_potentials(pf)
        curvatures(pf.cf)
        divergence_constraints(pf.cf, fd_tol=np.inf)
        assert len(checks) == expected
    checks.clear()
    _, gd, _ = polar_pipeline(g, ExternalPotentials())
    curvatures(build_connections(gd, ExternalPotentials()))
    assert len(checks) == 1


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
