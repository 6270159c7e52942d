import dataclasses
import re

import numpy as np
import numpy.testing as npt
import pytest

from polardirac.clifford import (
    BASIS,
    METRIC,
    _block_product,
    _chiral_join,
    _chiral_split,
    boost_matrices,
    rotation_matrices,
)
from polardirac.connections import (
    ConnectionField,
    ExternalPotentials,
    TransformField,
    build_connections,
    covariant_derivative_check,
    curvatures,
    divergence_constraints,
    field_strength,
    goldstone_derivatives,
    irreducible_split,
    polar_pipeline,
    reassemble_split,
    transform_from_params,
    transform_from_polar,
)
from polardirac.errors import (
    BasisLeak,
    GridMismatch,
    NotAntisymmetric,
    PreconditionViolated,
)
from polardirac.fields import (
    _phase_gradient,
    gaussian_packet,
    grid_gradient,
    interior,
    plane_wave,
    sample,
    superpose,
)
from polardirac.polar import _require_charge, decompose

from oracles import (
    curvature_k,
    goldstone_derivative,
    spin_curvature,
    spin_components,
    spin_matrix,
    transform_connection_inputs,
)


def coords_for(origin, spacing, dims):
    axes = [origin[i] + spacing[i] * np.arange(dims[i]) for i in range(4)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def make_params_field(shape, **slots):
    """params grid with named slots chi_x..theta_z filled from arrays."""
    names = ["chi_x", "chi_y", "chi_z", "theta_x", "theta_y", "theta_z"]
    params = np.zeros(shape + (6,))
    for key, arr in slots.items():
        params[..., names.index(key)] = arr
    return params


def test_constant_transform_zero_derivatives():
    dims = (1, 5, 5, 5)
    params = make_params_field(dims, chi_z=0.4 * np.ones(dims), theta_x=0.2 * np.ones(dims))
    lf = transform_from_params(
        np.full(dims, 0.7), params, [0, 0, 0, 0], [1, 0.2, 0.2, 0.2], dims
    )
    gd = goldstone_derivatives(lf)
    npt.assert_allclose(gd.dxi, 0.0, atol=1e-13)
    npt.assert_allclose(gd.dxi_ab, 0.0, atol=1e-13)


def test_pure_phase_gradient():
    # phase matrices oscillate, so the finite difference carries an
    # O((q h)^2) error; check the value at the expected accuracy and the
    # second-order shrinkage under grid halving
    q = 1.5
    errs = []
    for n in (9, 17):
        dims = (1, n, 1, 1)
        origin = [0.0, 0.0, 0.0, 0.0]
        spacing = [1.0, 2.0 / (n - 1), 1.0, 1.0]
        x = coords_for(origin, spacing, dims)[..., 1]
        lf = transform_from_params(
            x, np.zeros(dims + (6,)), origin, spacing, dims, q=q
        )
        gd = goldstone_derivatives(lf)
        expect = np.zeros(dims + (4,))
        expect[..., 1] = 1.0
        errs.append((origin, spacing, np.abs(gd.dxi - expect)))
        npt.assert_allclose(gd.dxi_ab, 0.0, atol=1e-12)
        # interior central-difference error is exactly sin(qh)/(qh) - 1
        h = spacing[1]
        closed = abs(np.sin(q * h) / (q * h) - 1.0)
        assert abs(np.max(np.abs(errs[-1][2][0, 2:-2])) - closed) < 1e-12
    from polardirac.fields import convergence_order

    order, _, _ = convergence_order(errs[0], errs[1])
    assert 1.8 < order < 2.2


def test_rotation_field_derivative():
    # theta_z = c x is a single-generator exponential; the interior central
    # difference lands on c sin(ch/2)/(ch/2) exactly (true value c), and
    # halving the step shrinks the error at second order
    c = 0.6
    errs = []
    for n in (9, 17):
        dims = (1, n, 1, 1)
        origin = [0, -1.0, 0, 0]
        spacing = [1.0, 2.0 / (n - 1), 1.0, 1.0]
        x = coords_for(origin, spacing, dims)[..., 1]
        params = make_params_field(dims, theta_z=c * x)
        lf = transform_from_params(np.zeros(dims), params, origin, spacing, dims)
        gd = goldstone_derivatives(lf)
        errs.append((origin, spacing, np.abs(gd.dxi_ab[..., 1, 2, 1] - c)))
        npt.assert_allclose(gd.dxi_ab[..., 2, 1, 1], -gd.dxi_ab[..., 1, 2, 1], atol=1e-13)
        npt.assert_allclose(gd.dxi, 0.0, atol=1e-12)
        mask = np.ones((4, 4, 4), dtype=bool)
        mask[1, 2, 1] = mask[2, 1, 1] = False
        assert np.max(np.abs(gd.dxi_ab[0, n // 2, 0, 0][mask])) < 1e-12
        h = spacing[1]
        half = 0.5 * c * h
        closed = abs(c * np.sin(half) / half - c)
        assert abs(np.max(errs[-1][2][0, 2:-2]) - closed) < 1e-12
    from polardirac.fields import convergence_order

    order, _, _ = convergence_order(errs[0], errs[1])
    assert 1.8 < order < 2.2


def test_point_op_matches_grid_op():
    dims = (1, 9, 9, 1)
    origin = [0, -1, -1, 0]
    spacing = [1.0, 0.25, 0.25, 1.0]
    c = coords_for(origin, spacing, dims)
    params = make_params_field(
        dims, chi_z=0.3 * np.sin(c[..., 1]), theta_x=0.4 * np.cos(c[..., 2])
    )
    lf = transform_from_params(0.2 * c[..., 1] * c[..., 2], params, origin, spacing, dims)
    gd = goldstone_derivatives(lf)
    for point in [(0, 4, 4, 0), (0, 0, 3, 0), (0, 8, 8, 0)]:
        dxi, dxi_ab, _ = goldstone_derivative(lf, point)
        npt.assert_allclose(dxi, gd.dxi[point], atol=1e-12)
        npt.assert_allclose(dxi_ab, gd.dxi_ab[point], atol=1e-12)


def test_spin_components_invert_spin_matrix():
    rng = np.random.default_rng(9)
    t = rng.uniform(-1.0, 1.0, size=(3, 3, 3, 4, 4, 4))
    t = t - np.swapaxes(t, -3, -2)
    npt.assert_allclose(spin_components(spin_matrix(t)), t, rtol=0.0, atol=1e-15)


def test_basis_leak_detection():
    dims = (1, 9, 1, 1)
    origin = [0, 0, 0, 0]
    spacing = [1.0, 0.25, 1.0, 1.0]
    x = coords_for(origin, spacing, dims)[..., 1]
    # exp(f(x) D) with D hermitian traceless but NOT in span{iI, sigma_ab}
    d_mat = np.diag([1.0, -1.0, 2.0, -2.0]) / 3.0
    mats = np.zeros(dims + (4, 4), dtype=complex)
    for idx in np.ndindex(dims):
        mats[idx] = np.diag(np.exp(np.diag(d_mat) * x[idx]))
    lf = TransformField(
        blocks=_chiral_split(mats),
        origin=np.array(origin, dtype=float),
        spacing=np.array(spacing, dtype=float),
    )
    with pytest.raises(BasisLeak):
        goldstone_derivatives(lf)


def test_build_connections_trivial_and_plane_phase():
    dims = (9, 1, 1, 1)
    origin = [0.0, 0, 0, 0]
    spacing = [0.2, 1.0, 1.0, 1.0]
    t = coords_for(origin, spacing, dims)[..., 0]
    m, q = 1.3, 2.0
    # zero Goldstone, zero potentials
    lf0 = transform_from_params(np.zeros(dims), np.zeros(dims + (6,)), origin, spacing, dims, q=q)
    cf0 = build_connections(goldstone_derivatives(lf0), ExternalPotentials(q=q))
    npt.assert_allclose(cf0.P, 0.0, atol=0.0)
    npt.assert_allclose(cf0.R, 0.0, atol=0.0)
    # q xi = m t gives P = (m, 0, 0, 0) up to the oscillation error of the
    # differencing: the interior value is exactly m sin(mh)/(mh)
    lf = transform_from_params((m / q) * t, np.zeros(dims + (6,)), origin, spacing, dims, q=q)
    gd = goldstone_derivatives(lf)
    cf = build_connections(gd, ExternalPotentials(q=q))
    h = spacing[0]
    interior = cf.P[2:-2, 0, 0, 0, 0]
    npt.assert_allclose(interior, m * np.sin(m * h) / (m * h), atol=1e-12)
    expect = np.zeros(dims + (4,))
    expect[..., 0] = m
    npt.assert_allclose(cf.P, expect, atol=m * (m * h) ** 2 / 2)
    npt.assert_allclose(cf.R, 0.0, atol=1e-12)
    # subtracting the measured gradient as an external potential must cancel
    # to rounding, independent of the differencing error
    cf_gauge = build_connections(gd, ExternalPotentials(A=gd.dxi, q=q))
    npt.assert_allclose(cf_gauge.P, 0.0, atol=1e-14)


def test_grid_mismatch():
    dims = (1, 5, 1, 1)
    lf = transform_from_params(
        np.zeros(dims), np.zeros(dims + (6,)), [0, 0, 0, 0], [1, 0.2, 1, 1], dims
    )
    gd = goldstone_derivatives(lf)
    with pytest.raises(GridMismatch):
        build_connections(gd, ExternalPotentials(A=np.zeros((1, 7, 1, 1, 4))))
    with pytest.raises(GridMismatch, match=r"Omega shaped \(4,\) .* \(4, 4, 4\)"):
        ExternalPotentials(Omega=np.zeros(4))
    # an omega that broadcasts against the grid does not live on it
    cf = build_connections(gd, ExternalPotentials())
    cf_off = dataclasses.replace(cf, omega=np.zeros((5, 1, 1, 4, 4, 4)))
    off_grid = r"omega shaped \(5, 1, 1, 4, 4, 4\) .* grid \(1, 5, 1, 1\)"
    with pytest.raises(GridMismatch, match=off_grid):
        curvatures(cf_off)
    with pytest.raises(GridMismatch, match=off_grid):
        divergence_constraints(cf_off)
    other = (1, 7, 1, 1)
    lf_other = transform_from_params(
        np.zeros(other), np.zeros(other + (6,)), [0, 0, 0, 0], [1, 0.2, 1, 1], other
    )
    with pytest.raises(GridMismatch, match=r"L field shaped \(1, 7, 1, 1, 2, 2, 2\)"):
        curvatures(cf, lfield=lf_other)
    lf_beta = dataclasses.replace(lf, beta=np.zeros(other))
    with pytest.raises(GridMismatch, match=r"beta shaped \(1, 7, 1, 1\)"):
        goldstone_derivatives(lf_beta)


def test_transform_from_params_rejects_dims_off_the_arrays():
    # dims that do not match the arrays used to pass into every later
    # gradient; now the shapes are checked where the field is built
    dims, arrays = (1, 5, 1, 1), (1, 7, 1, 1)
    params = np.zeros(arrays + (6,))
    both = r"\(1, 7, 1, 1\) does not live on grid \(1, 5, 1, 1\)"
    with pytest.raises(GridMismatch, match="xi shaped " + both):
        transform_from_params(np.zeros(arrays), params, [0] * 4, [1] * 4, dims)
    with pytest.raises(GridMismatch, match=r"params shaped \(1, 7, 1, 1, 6\)"):
        transform_from_params(np.zeros(dims), params, [0] * 4, [1] * 4, dims)


PARAMS_DIMS = (1, 5, 5, 5)


def smooth_params(dims=PARAMS_DIMS):
    """A smooth xi and boost/rotation params on dims over [0, 0.4]^3."""
    x = np.stack(np.meshgrid(*[0.1 * np.arange(d) for d in dims],
                             indexing="ij"), axis=-1)
    xi = 0.3 * x[..., 1] - 0.2 * x[..., 3]
    params = 0.2 * np.sin(x[..., 1:2] + np.arange(6) * x[..., 2:3] - x[..., 3:])
    return xi, params


@pytest.mark.parametrize("xi_at, params_at, spacing, dims, message", [
    (None, None, [1.0, 0.1, 0.0, 0.1], PARAMS_DIMS,
     r"lattice spacing along y is 0\.0: a spacing must be positive"),
    ((0, 2, 2, 2), None, [1.0, 0.1, 0.1, 0.1], PARAMS_DIMS,
     r"transform_from_params xi entry \(0, 2, 2, 2\) is nan"),
    (None, (0, 2, 2, 2, 1), [1.0, 0.1, 0.1, 0.1], PARAMS_DIMS,
     r"transform_from_params params entry \(0, 2, 2, 2, 1\) is nan"),
    (None, None, [1.0, 0.1, 0.1, 0.1], (1, 5, 3, 5),
     r"lattice axis y has 3 sites"),
], ids=["zero_spacing", "nan_xi", "nan_params", "three_sites"])
def test_transform_from_params_names_a_bad_lattice_or_entry(
    xi_at, params_at, spacing, dims, message
):
    # each used to build L, whose log-derivative came out inf or NaN (a
    # zero spacing or a NaN) or differenced an axis too short for its
    # edge stencils (3 sites)
    xi, params = smooth_params(dims)
    if xi_at is not None:
        xi[xi_at] = np.nan
    if params_at is not None:
        params[params_at] = np.nan
    with pytest.raises(PreconditionViolated, match=message):
        transform_from_params(xi, params, np.zeros(4), spacing, dims)


def test_non_finite_log_derivative_names_its_first_site():
    # BasisLeak tested leak > tol, which a NaN never is, so each of these
    # gave non-finite dxi and dxi_ab without an error
    xi, params = smooth_params()
    spacing = np.array([1.0, 0.1, 0.1, 0.1])
    lf = transform_from_params(xi, params, np.zeros(4), spacing, PARAMS_DIMS)
    goldstone_derivatives(lf)  # the smooth field passes
    site = (0, 2, 2, 2)
    zero = lf.blocks.copy()
    zero[site + (0,)] = 0.0  # one singular chiral block
    nan = lf.blocks.copy()
    nan[site] = np.nan  # L of a NaN parameter
    cases = [
        (dataclasses.replace(lf, blocks=zero), BasisLeak,
         r"not finite at grid index \(0, 2, 2, 2\), event \(t, x, y, z\) = "
         r"\[0\.0, 0\.2, 0\.2, 0\.2"),
        (dataclasses.replace(lf, blocks=nan), BasisLeak,
         # the first site whose stencil reads it: x's edge stencil
         r"not finite at grid index \(0, 0, 2, 2\)"),
        (dataclasses.replace(lf, spacing=np.array([1.0, 0.1, 0.0, 0.1])),
         PreconditionViolated, r"grid_gradient spacing along y is 0\.0"),
    ]
    for field, kind, message in cases:
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(kind, match=message):
                goldstone_derivatives(field)


def test_zero_charge_raises_naming_q():
    # a zero charge used to give NaN connections with only a RuntimeWarning
    dims = (1, 5, 1, 1)
    lf = transform_from_params(
        np.zeros(dims), np.zeros(dims + (6,)), [0, 0, 0, 0], [1, 0.2, 1, 1], dims
    )
    lf0 = dataclasses.replace(lf, q=0.0)
    with pytest.raises(PreconditionViolated, match="charge q = 0.0"):
        ExternalPotentials(q=0.0)
    with pytest.raises(PreconditionViolated, match="charge q = nan"):
        ExternalPotentials(q=float("nan"))
    with pytest.raises(PreconditionViolated, match="charge q = 0.0"):
        decompose(np.array([1.0, 0.0, 1.0, 0.0]), q=0.0)
    with pytest.raises(PreconditionViolated, match="charge q = 0.0"):
        goldstone_derivatives(lf0)


def test_omega_antisymmetry_enforced():
    om = np.zeros((1, 5, 1, 1, 4, 4, 4))
    om[..., 0, 1, 2] = 1.0  # no matching -1 in [1, 0, 2]
    with pytest.raises(NotAntisymmetric):
        ExternalPotentials(Omega=om)


def test_rest_wave_pipeline():
    # e^{-imt} sampled on a grid: P = (m,0,0,0) up to O((mh)^2) differencing
    # error on the oscillating phase, R identically zero (the transform is a
    # multiple of the identity, which has no spin-block component)
    from polardirac.fields import convergence_order

    m = 1.0
    errs = []
    for n in (9, 17):
        h = 0.8 / (n - 1)
        f = plane_wave([m, 0, 0, 0], m=m)
        g = sample(f, [0, 0, 0, 0], [h, 1, 1, 1], (n, 1, 1, 1))
        _, _, cf = polar_pipeline(g, ExternalPotentials())
        expect = np.zeros((n, 1, 1, 1, 4))
        expect[..., 0] = m
        npt.assert_allclose(cf.P, expect, atol=m * (m * h) ** 2 / 2)
        npt.assert_allclose(cf.R, 0.0, atol=1e-12)
        errs.append((g.origin, g.spacing, np.abs(cf.P - expect).max(axis=-1)))
    order, _, _ = convergence_order(errs[0], errs[1])
    assert 1.8 < order < 2.2


def test_constant_spinor_in_constant_gauge_potential():
    # constant psi with constant A: P = -qA and the spinor residual vanishes
    from polardirac.fields import GridField

    dims = (1, 5, 5, 5)
    values = np.broadcast_to(
        np.array([1.0, 0, 1.0, 0], dtype=complex), dims + (4,)
    ).copy()
    g = GridField([0, 0, 0, 0], [1, 0.3, 0.3, 0.3], dims, values)
    a = np.zeros(dims + (4,))
    a[..., 2] = 0.8
    ext = ExternalPotentials(A=a, q=1.7)
    _, _, cf = polar_pipeline(g, ext)
    npt.assert_allclose(cf.P[..., 2], -1.7 * 0.8, atol=1e-12)
    checks = covariant_derivative_check(g, ext)
    assert np.max(checks.spinor) < 1e-10
    assert np.max(checks.s_transport) < 1e-10
    assert np.max(checks.u_transport) < 1e-10


def test_zero_omega_is_no_omega():
    # the Omega term is skipped when Omega is None; an explicit zero field
    # must give the same bits
    from dataclasses import replace

    from polardirac.dynamics import dirac_residual

    dims = (1, 9, 9, 9)
    rng = np.random.default_rng(72)
    g = gaussian_packet(1.2, s_axis=(0.48, 0.6, 0.64), dims=dims)
    ext = ExternalPotentials(
        A=rng.normal(size=dims + (4,)), W=rng.normal(size=dims + (4,)), X=0.7
    )
    ext_zero = replace(ext, Omega=np.zeros(dims + (4, 4, 4)))
    assert np.array_equal(dirac_residual(g, ext), dirac_residual(g, ext_zero))
    none, zero = (covariant_derivative_check(g, e) for e in (ext, ext_zero))
    for name in ("spinor", "s_transport", "u_transport"):
        assert np.array_equal(getattr(none, name), getattr(zero, name))


def test_absent_backgrounds_build_no_zero_grids():
    # an absent A or W is one 0.0 seen through zero strides, not a grid
    ext = ExternalPotentials()
    for arr in (ext.a_field((1, 5, 5, 5)), ext.w_field((1, 5, 5, 5))):
        assert arr.shape == (1, 5, 5, 5, 4) and not arr.any()
        assert set(arr.strides) == {0}
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0, 0, 0, 0] = 1.0


def test_transforms_equal_boost_rotation_products():
    # the transforms build only the chiral blocks of the spinor matrices;
    # they must keep the bits of the block products of the (Lambda, V)
    # builders' spinor halves (_block_product against matmul: test_clifford)
    dims = (1, 7, 7, 1)
    rng = np.random.default_rng(73)
    params = 0.4 * rng.normal(size=dims + (6,))
    xi = rng.normal(size=dims)
    lf = transform_from_params(xi, params, [0, 0, 0, 0], [1, 0.2, 0.2, 1], dims)
    lb, _ = boost_matrices(params[..., :3])
    lr, _ = rotation_matrices(params[..., 3:])
    assert np.array_equal(
        lf.blocks,
        np.exp(1j * xi)[..., None, None, None]
        * _block_product(_chiral_split(lb), _chiral_split(lr)),
    )

    g = gaussian_packet(1.2, s_axis=(0.48, 0.6, 0.64), dims=(1, 9, 9, 9))
    pd = decompose(g.values)
    lf = transform_from_polar(pd, g.origin, g.spacing)
    rot_inv, _ = rotation_matrices(-pd.goldstone[..., 3:])
    boost_inv, _ = boost_matrices(-pd.goldstone[..., :3])
    phase = np.exp(1j * pd.q * pd.alpha)
    assert np.array_equal(
        lf.blocks,
        phase[..., None, None, None]
        * _block_product(_chiral_split(rot_inv), _chiral_split(boost_inv)),
    )


def test_transform_field_holds_chiral_blocks():
    # L is stored as its two diagonal 2x2 blocks; a 4x4 field is refused
    # with its shape named
    lf, _ = gauge_boost_field(5)
    assert lf.blocks.shape == lf.grid_shape + (2, 2, 2)
    with pytest.raises(GridMismatch, match=r"shaped \(1, 5, 5, 5, 4, 4\)"):
        TransformField(
            blocks=_chiral_join(lf.blocks), origin=lf.origin, spacing=lf.spacing
        )


def residual_orders(make_residual, ns):
    """max interior residual at two resolutions -> log2 ratio."""
    vals = []
    for n in ns:
        vals.append(make_residual(n))
    return np.log2(vals[0] / vals[1])


def test_covariant_derivative_check_superposition_converges():
    m = 1.0
    e = np.hypot(m, 0.5)
    f = superpose(
        [plane_wave([m, 0, 0, 0]), plane_wave([e, 0.0, 0.0, 0.5], spin_up=False)],
        [1.0, 0.4],
    )

    def residual(n):
        g = sample(
            f,
            [0, -1, -1, -1],
            [1.2 / (n - 1), 2.0 / (n - 1), 2.0 / (n - 1), 2.0 / (n - 1)],
            (n, n, n, n),
        )
        checks = covariant_derivative_check(g, ExternalPotentials())
        sl = interior(g.dims)
        return max(
            float(np.max(checks.spinor[sl])),
            float(np.max(checks.s_transport[sl])),
            float(np.max(checks.u_transport[sl])),
        )

    order = residual_orders(residual, [9, 17])
    assert 1.8 < order < 2.2


def gauge_rotation_field(n):
    dims = (1, n, n, n)
    origin = [0.0, 0.0, 0.0, 0.0]
    spacing = [1.0] + [2.0 / (n - 1)] * 3
    c = coords_for(origin, spacing, dims)
    params = make_params_field(
        dims,
        theta_z=0.5 * np.sin(1.3 * c[..., 1]),
        theta_x=0.4 * np.cos(1.1 * c[..., 2]) * np.sin(c[..., 3]),
    )
    lf = transform_from_params(np.zeros(dims), params, origin, spacing, dims)
    return lf, dims


def gauge_boost_field(n):
    dims = (1, n, n, n)
    origin = [0.0, 0.0, 0.0, 0.0]
    spacing = [1.0] + [2.0 / (n - 1)] * 3
    c = coords_for(origin, spacing, dims)
    params = make_params_field(
        dims,
        chi_z=0.4 * np.sin(1.2 * c[..., 1]),
        chi_x=0.3 * np.cos(c[..., 2]) * np.sin(0.9 * c[..., 3]),
    )
    lf = transform_from_params(np.zeros(dims), params, origin, spacing, dims)
    return lf, dims


def test_riemann_and_flatness_pure_gauge():
    for make in (gauge_rotation_field, gauge_boost_field):
        maxima = []
        for n in (9, 17):
            lf, dims = make(n)
            gd = goldstone_derivatives(lf)
            cf = build_connections(gd, ExternalPotentials())
            curv = curvatures(cf, lfield=lf)
            sl = interior(dims)
            maxima.append(
                max(
                    float(np.max(np.abs(curv.riemann[sl]))),
                    float(np.max(curv.goldstone_flat[sl])),
                )
            )
        factor = maxima[0] / maxima[1]
        assert 3.5 < factor < 4.5


def test_faraday_of_phase_gradient():
    dims = (1, 9, 9, 1)
    origin = [0, 0, 0, 0]
    spacing = [1.0, 0.25, 0.25, 1.0]
    c = coords_for(origin, spacing, dims)
    xi = 0.3 * np.sin(c[..., 1]) * np.cos(0.7 * c[..., 2])
    lf = transform_from_params(xi, np.zeros(dims + (6,)), origin, spacing, dims)
    cf = build_connections(goldstone_derivatives(lf), ExternalPotentials())
    curv = curvatures(cf)
    sl = interior(dims)
    assert np.max(np.abs(curv.F[sl])) < 5e-3
    # F is antisymmetric by construction
    npt.assert_allclose(curv.F, -np.swapaxes(curv.F, -1, -2), atol=0.0)


def test_field_strength_matches_curvatures_exactly():
    rng = np.random.default_rng(12)
    dims = (1, 6, 5, 7)
    cf = ConnectionField(
        P=rng.normal(size=dims + (4,)),
        R=np.zeros(dims + (4, 4, 4)),
        origin=np.zeros(4),
        spacing=np.array([1.0, 0.3, 0.2, 0.25]),
    )
    dp = grid_gradient(cf.P, cf.spacing)
    f = field_strength(dp, 0.7)
    assert np.max(np.abs(f)) > 0.1
    assert np.array_equal(f, curvatures(cf, q=0.7).F)


def random_omega_field(rng, dims, origin, spacing, amp=0.3):
    c = coords_for(origin, spacing, dims)
    om = np.zeros(dims + (4, 4, 4))
    freqs = rng.uniform(0.5, 1.2, size=(4, 4, 4, 3))
    for i in range(4):
        for j in range(i + 1, 4):
            for mu in range(4):
                w = freqs[i, j, mu]
                val = amp * np.sin(
                    w[0] * c[..., 1] + w[1] * c[..., 2] + w[2] * c[..., 3]
                )
                om[..., i, j, mu] = val
                om[..., j, i, mu] = -val
    return om


def _dense_riemann(r_up, dr, omega):
    """The dense Riemann kernel that curvatures and divergence_constraints
    ran before the curvature of R moved to sl(2,C) 3-vectors, kept as the
    oracle: riemann^i_{j mu nu} from R^i_{j mu}, its grid gradient dr
    [i, j, nu, mu] and omega (None for none); with G = L^{-1} dL in place
    of R and omega None it is minus dG - dG + [G, G]."""
    cov = np.swapaxes(dr, -1, -2)  # [i, j, mu, nu]
    if omega is not None:
        om_up = omega * np.array([1.0, -1.0, -1.0, -1.0])[:, None, None]
        cov = cov + np.einsum("...ikm,...kjn->...ijmn", om_up, r_up)
        cov = cov - np.einsum("...kjm,...ikn->...ijmn", om_up, r_up)
    quad = np.einsum("...ikm,...kjn->...ijmn", r_up, r_up)
    return -(cov - np.swapaxes(cov, -1, -2) + quad - np.swapaxes(quad, -1, -2))


def _unpack_riemann(k):
    """riemann^i_{j mu nu}, layout [..., i, j, mu, nu], from the K of
    curvature_k, the oracle of K and of the per-site max that
    curvatures keeps: every entry is 0, +-Re K or +-Im K."""
    from polardirac.connections import _BOOST_COLS, _BOOST_ROWS, _ROT_COLS, _ROT_ROWS

    out = np.zeros(k.shape[:-3] + (4, 4) + k.shape[-2:])
    out[..., _BOOST_ROWS, _BOOST_COLS, :, :] = k.real
    out[..., _BOOST_COLS, _BOOST_ROWS, :, :] = k.real
    out[..., _ROT_ROWS, _ROT_COLS, :, :] = -k.imag
    out[..., _ROT_COLS, _ROT_ROWS, :, :] = k.imag
    return out


def _site_max(riemann):
    """max |riemann^i_{j mu nu}| over i, j, mu and nu per site."""
    return np.max(np.abs(riemann), axis=(-4, -3, -2, -1))


def _random_antisymmetric(rng, dims, amp=1.0):
    t = amp * rng.normal(size=dims + (4, 4, 4))
    return t - np.swapaxes(t, -3, -2)


@pytest.mark.parametrize("dims", [(1, 7, 8, 9), (7, 1, 1, 8), (6, 5, 1, 1)])
def test_spin_curvature_matches_dense_oracle(dims):
    # K packs the lowered dense Riemann tensor as (riemann_{0k}) +
    # i (riemann_{23}, riemann_{31}, riemann_{12}), _unpack_riemann
    # unpacks it, and curvatures keeps its per-site max; without and with
    # Omega, on random antisymmetric R.  Both routes sum the same terms in
    # another order, so the bound is 64 eps on the scale
    # max|dR| + max|R| (max|R| + 2 max|Omega|) of those terms (measured:
    # below 1 eps)
    from polardirac.connections import _spin_curvature

    rng = np.random.default_rng(sum(dims))
    spacing = np.array([0.3, 0.25, 0.2, 0.35])
    eta = np.array([1.0, -1.0, -1.0, -1.0])
    r = _random_antisymmetric(rng, dims)
    for om in (None, _random_antisymmetric(rng, dims, amp=0.7)):
        r_up = r * eta[:, None, None]
        dr = grid_gradient(r_up, spacing)
        oracle = _dense_riemann(r_up, dr, om)
        om_max = 0.0 if om is None else np.max(np.abs(om))
        r_max = np.max(np.abs(r))
        scale = np.max(np.abs(dr)) + r_max * (r_max + 2 * om_max)
        tol = 64 * np.finfo(float).eps * scale
        low = oracle * eta[:, None, None, None]
        packed = low[..., 0, 1:, :, :] + 1j * np.stack(
            (low[..., 2, 3, :, :], low[..., 3, 1, :, :], low[..., 1, 2, :, :]),
            axis=-3,
        )
        curv = _spin_curvature(r, om, spacing)
        assert np.max(np.abs(oracle)) > 1.0
        k = curvature_k(r, om, spacing)
        npt.assert_allclose(k, packed, rtol=0.0, atol=tol)
        assert curv.dr_max == pytest.approx(np.max(np.abs(dr)), rel=1e-15)
        cf = ConnectionField(
            P=np.zeros(dims + (4,)), R=r, origin=np.zeros(4), spacing=spacing,
            omega=om,
        )
        riemann = _unpack_riemann(k)
        npt.assert_allclose(riemann, oracle, rtol=0.0, atol=tol)
        assert np.array_equal(curvatures(cf).riemann, _site_max(riemann))
        res = divergence_constraints(cf, fd_tol=np.inf)
        assert res.riemann_max == float(np.max(np.abs(riemann)))


def test_curvatures_riemann_is_the_site_max_of_the_dense_oracle():
    # curvatures keeps max |riemann^i_{j mu nu}| per site, grid shaped:
    # the bits of the per-site max of the dense tensor unpacked from K,
    # and within roundoff of the per-site max of the dense kernel (64 eps
    # on the scale of its terms, as in the test above); on a pure-gauge
    # field and on one whose connection carries an Omega
    lf, dims = gauge_boost_field(9)
    gd = goldstone_derivatives(lf)
    om = random_omega_field(
        np.random.default_rng(9), dims, lf.origin, lf.spacing, amp=0.2
    )
    eta = np.array([1.0, -1.0, -1.0, -1.0])[:, None, None]
    for ext in (ExternalPotentials(), ExternalPotentials(Omega=om)):
        cf = build_connections(gd, ext)
        riemann = curvatures(cf, lfield=lf).riemann
        assert riemann.shape == dims
        k = curvature_k(cf.R, cf.omega, cf.spacing)
        assert np.array_equal(riemann, _site_max(_unpack_riemann(k)))
        r_up = cf.R * eta
        dr = grid_gradient(r_up, lf.spacing)
        om_max = 0.0 if cf.omega is None else np.max(np.abs(om))
        r_max = np.max(np.abs(cf.R))
        scale = np.max(np.abs(dr)) + r_max * (r_max + 2 * om_max)
        oracle = _site_max(_dense_riemann(r_up, dr, cf.omega))
        assert np.max(oracle) > 1e-4
        npt.assert_allclose(
            riemann, oracle, rtol=0.0, atol=64 * np.finfo(float).eps * scale
        )


def test_riemann_max_is_taken_once_per_connection():
    # the slab pass that builds K also takes its per-site max, which
    # curvatures hands out as is and divergence_constraints reads, so
    # neither makes a second pass over K; it is read-only
    lf, _ = gauge_boost_field(9)
    cf = build_connections(goldstone_derivatives(lf), ExternalPotentials())
    riemann = cf.curvature.riemann
    assert curvatures(cf).riemann is riemann
    assert curvatures(cf, lfield=lf).riemann is riemann
    assert not riemann.flags.writeable
    dc = divergence_constraints(cf, fd_tol=np.inf)
    assert dc.riemann_max == float(np.max(riemann))


def test_not_antisymmetric_names_the_site():
    # the first site where R_ij != -R_ji, with its event when the grid's
    # origin and spacing are known
    dims = (1, 5, 5, 5)
    r = np.zeros(dims + (4, 4, 4))
    r[0, 3, 0, 4, 1, 2, 0] = 1.0
    r[0, 2, 1, 3, 0, 1, 2] = 1.0
    cf = ConnectionField(
        P=np.zeros(dims + (4,)),
        R=r,
        origin=np.array([0.5, -1.0, -1.0, -1.0]),
        spacing=np.array([1.0, 0.25, 0.5, 0.5]),
    )
    where = r"grid index \(0, 2, 1, 3\), event \(t, x, y, z\) = "
    with pytest.raises(NotAntisymmetric, match=where + r"\[0.5, -0.5, -0.5, 0.5\]"):
        curvatures(cf)
    with pytest.raises(NotAntisymmetric, match=r"at grid index \(0, 2, 1, 3\)$"):
        irreducible_split(r)


def test_divergence_precondition_names_the_most_curved_site():
    # the site of the largest per-site |riemann|, with its event
    lf, dims = gauge_boost_field(9)
    om = random_omega_field(
        np.random.default_rng(8), dims, lf.origin, lf.spacing, amp=0.1
    )
    cf = build_connections(goldstone_derivatives(lf), ExternalPotentials(Omega=om))
    cf = dataclasses.replace(cf, origin=np.array([2.0, -1.0, -1.0, -1.0]))
    riemann = curvatures(cf).riemann
    worst = np.unravel_index(np.argmax(riemann), dims)
    assert np.sum(riemann == riemann[worst]) == 1
    event = (cf.origin + cf.spacing * np.array(worst)).tolist()
    where = f"at grid index {tuple(int(i) for i in worst)}, event (t, x, y, z) = {event}"
    with pytest.raises(PreconditionViolated, match=re.escape(where)):
        divergence_constraints(cf, fd_tol=1e-4)


def test_spin_curvature_is_computed_once_and_read_only(monkeypatch):
    # curvatures and divergence_constraints read one cached curvature of R
    from polardirac import connections

    lf, _ = gauge_boost_field(9)
    cf = build_connections(goldstone_derivatives(lf), ExternalPotentials())
    calls = []
    real = connections._spin_curvature

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(connections, "_spin_curvature", counting)
    curvatures(cf, lfield=lf)
    divergence_constraints(cf)
    curvatures(cf)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="read-only"):
        cf.curvature.riemann[0, 0, 0, 0] = 1.0
    with pytest.raises(NotAntisymmetric):
        curvatures(dataclasses.replace(cf, R=np.abs(cf.R)))


def _carried_case(case):
    """(ConnectionField, number of carried axes) of a carried-axes case."""
    rng = np.random.default_rng(len(case))
    if case == "wave_grid":
        # a transform that varies along t and z alone: R_x = R_y = 0
        dims, origin, spacing = (9, 1, 1, 9), [0.0] * 4, [0.1, 1.0, 1.0, 0.1]
        c = coords_for(origin, spacing, dims)
        params = make_params_field(
            dims, chi_x=0.3 * np.sin(c[..., 0] + c[..., 3]),
            theta_y=0.2 * np.cos(2.0 * c[..., 3]),
        )
        lf = transform_from_params(
            0.4 * np.sin(c[..., 0]), params, origin, spacing, dims
        )
        return build_connections(goldstone_derivatives(lf), ExternalPotentials()), 2
    lf, dims = gauge_boost_field(9)
    gd = goldstone_derivatives(lf)
    if case == "static_gauge":
        return build_connections(gd, ExternalPotentials()), 3
    cf = build_connections(gd, ExternalPotentials())
    if case == "omega_t":
        # an omega along t alone keeps the t axis of a static grid whose R
        # has none
        om = np.zeros(dims + (4, 4, 4))
        om[..., 0] = random_omega_field(rng, dims, lf.origin, lf.spacing)[..., 0]
        assert not cf.R[..., 0].any()
        return dataclasses.replace(cf, omega=om), 4
    if case == "r_t":
        r = _random_antisymmetric(rng, dims, amp=0.3)
        r[..., 1:] = cf.R[..., 1:]
        return dataclasses.replace(cf, R=r), 4
    # a NaN in an active component at one site, and at another a NaN
    # through which a dropped K entry reads 0 * NaN
    r = cf.R.copy()
    r[0, 4, 4, 4, 0, 2, 1] = r[0, 4, 4, 4, 2, 0, 1] = np.nan
    r[0, 2, 6, 3, 1, 3, 3] = r[0, 2, 6, 3, 3, 1, 3] = np.nan
    return dataclasses.replace(cf, R=r), 3


@pytest.mark.parametrize(
    "case", ["static_gauge", "wave_grid", "r_t", "omega_t", "nan_site"]
)
def test_spin_curvature_over_the_carried_axes_keeps_the_dense_bits(
    case, monkeypatch
):
    # _spin_curvature builds c, dc and K over the axes longer than 1 and
    # those on which R or Omega is not identically zero; its per-site
    # Riemann max and max |dR| are the bits of the dense 16-pair route,
    # NaN sites included, and no c over all four axes is built
    from polardirac import connections

    cf, carried = _carried_case(case)
    built = []
    real = connections._spin_vectors

    def spy(t, *axes):
        c = real(t, *axes)
        built.append(c.shape[-1])
        return c

    monkeypatch.setattr(connections, "_spin_vectors", spy)
    riemann, dr_max = cf.curvature.riemann, cf.curvature.dr_max
    assert built and set(built) == {carried}
    monkeypatch.undo()
    dense_riemann, dense_dr = spin_curvature(cf.R, cf.omega, cf.spacing)
    assert np.array_equal(riemann, dense_riemann, equal_nan=True)
    assert np.array_equal(dr_max, dense_dr, equal_nan=True)
    assert np.array_equal(curvatures(cf).riemann, riemann, equal_nan=True)
    if case == "nan_site":
        assert np.isnan(riemann).sum() > 0 and np.isnan(dr_max)
    else:
        assert np.isfinite(riemann).all() and dr_max > 0.0


def test_riemann_from_connections_matches_omega_route():
    rng = np.random.default_rng(21)
    n = 9
    dims = (1, n, n, n)
    origin = [0, 0, 0, 0]
    spacing = [1.0] + [2.0 / (n - 1)] * 3
    om = random_omega_field(rng, dims, origin, spacing)
    # trivial Goldstone: R = -Omega and the match is exact
    lf = transform_from_params(
        np.zeros(dims), np.zeros(dims + (6,)), origin, spacing, dims
    )
    cf = build_connections(goldstone_derivatives(lf), ExternalPotentials(Omega=om))
    curv = curvatures(cf)
    from polardirac.fields import grid_gradient

    om_up = np.einsum("ik,...kjm->...ijm", METRIC, om)
    dom = grid_gradient(om_up, spacing)
    direct = (
        np.swapaxes(dom, -1, -2)
        - dom
        + np.einsum("...ikm,...kjn->...ijmn", om_up, om_up)
        - np.einsum("...ikn,...kjm->...ijmn", om_up, om_up)
    )
    riemann = _unpack_riemann(curvature_k(cf.R, om, spacing))
    npt.assert_allclose(riemann, direct, atol=1e-11)
    assert np.array_equal(curv.riemann, _site_max(riemann))
    # with a nontrivial Goldstone part the match holds to FD accuracy
    lf2, _ = gauge_rotation_field(n)
    cf2 = build_connections(goldstone_derivatives(lf2), ExternalPotentials(Omega=om))
    riemann2 = _unpack_riemann(curvature_k(cf2.R, om, spacing))
    sl = interior(dims)
    assert np.max(np.abs((riemann2 - direct)[sl])) < 5e-3
    assert np.array_equal(curvatures(cf2).riemann, _site_max(riemann2))


def test_irreducible_split_pure_parts():
    rng = np.random.default_rng(33)
    eta = METRIC
    t_vec = rng.normal(size=4)
    r_trace = (
        np.einsum("i,jk->ijk", t_vec, eta) - np.einsum("j,ik->ijk", t_vec, eta)
    ) / 3.0
    sp = irreducible_split(r_trace)
    npt.assert_allclose(sp.Ra, t_vec, atol=1e-12)
    npt.assert_allclose(sp.Ba, 0.0, atol=1e-12)
    npt.assert_allclose(sp.Pi, 0.0, atol=1e-12)

    b_vec = rng.normal(size=4)
    b_up = b_vec * np.array([1, -1, -1, -1.0])
    r_axial = np.einsum("ijka,a->ijk", BASIS.epsilon, b_up) / 3.0
    sp = irreducible_split(r_axial)
    npt.assert_allclose(sp.Ba, b_vec, atol=1e-12)
    npt.assert_allclose(sp.Ra, 0.0, atol=1e-12)
    npt.assert_allclose(sp.Pi, 0.0, atol=1e-12)


def test_irreducible_split_random_roundtrip():
    rng = np.random.default_rng(34)
    r = rng.normal(size=(10, 4, 4, 4))
    r = r - np.swapaxes(r, -3, -2)
    sp = irreducible_split(r)
    npt.assert_allclose(reassemble_split(sp), r, atol=1e-12)
    # Pi is traceless and has no totally antisymmetric part
    tr = np.einsum("...acd,cd->...a", sp.Pi, METRIC)
    npt.assert_allclose(tr, 0.0, atol=1e-12)
    pi_up = (
        sp.Pi
        * np.array([1, -1, -1, -1.0])[:, None, None]
        * np.array([1, -1, -1, -1.0])[None, :, None]
        * np.array([1, -1, -1, -1.0])[None, None, :]
    )
    ax = np.einsum("aijk,...ijk->...a", BASIS.epsilon, pi_up)
    npt.assert_allclose(ax, 0.0, atol=1e-12)


def test_irreducible_split_rejects_symmetric():
    bad = np.ones((4, 4, 4))
    with pytest.raises(NotAntisymmetric):
        irreducible_split(bad)


def test_divergence_constraints_zero_field():
    dims = (1, 5, 5, 5)
    lf = transform_from_params(
        np.zeros(dims), np.zeros(dims + (6,)), [0, 0, 0, 0], [1, 0.3, 0.3, 0.3], dims
    )
    cf = build_connections(goldstone_derivatives(lf), ExternalPotentials())
    res = divergence_constraints(cf)
    npt.assert_allclose(res.resB, 0.0, atol=1e-12)
    npt.assert_allclose(res.resR, 0.0, atol=1e-12)


def test_divergence_constraints_pure_gauge_converge():
    # pure-gauge connections satisfy both divergence relations, so the
    # residuals are pure differencing error and shrink at second order;
    # the static rotation field has an identically zero axial residual
    # (its axial vector is purely temporal and time-independent), which
    # convergence_order reports as an exact vanish
    from polardirac.fields import convergence_order

    for make in (gauge_rotation_field, gauge_boost_field):
        res_b, res_r = [], []
        for n in (9, 17):
            lf, dims = make(n)
            cf = build_connections(goldstone_derivatives(lf), ExternalPotentials())
            res = divergence_constraints(cf)
            res_b.append((lf.origin, lf.spacing, np.abs(res.resB)))
            res_r.append((lf.origin, lf.spacing, np.abs(res.resR)))
        for pair in (res_b, res_r):
            order, mc, mf = convergence_order(pair[0], pair[1])
            if order is None:
                assert mc < 1e-12 and mf < 1e-12
            else:
                assert 1.8 < order < 2.2, (order, mc, mf)


@pytest.mark.parametrize("amp", [1.0, 1e-9])
def test_divergence_constraints_precondition(amp):
    # the roundoff floor of the tolerance must not hide a small but
    # genuine curvature: at amp 1e-9 it is 1.4e-9 against a floor of 3.6e-15
    rng = np.random.default_rng(44)
    n = 9
    dims = (1, n, n, n)
    origin = [0, 0, 0, 0]
    spacing = [1.0] + [2.0 / (n - 1)] * 3
    om = random_omega_field(rng, dims, origin, spacing, amp=amp)
    cf = ConnectionField(
        P=np.zeros(dims + (4,)),
        R=om,
        origin=np.array(origin, dtype=float),
        spacing=np.array(spacing, dtype=float),
    )
    with pytest.raises(PreconditionViolated):
        divergence_constraints(cf)


def test_divergence_constraints_accepts_roundoff_flat_gaussian():
    # R of a static gaussian packet is zero up to roundoff, and so is its
    # curvature (2.4e-14); the tolerance without a roundoff floor was 8.8e-17
    g = gaussian_packet(1.5, s_axis=(0.48, 0.6, 0.64), dims=(1, 25, 25, 25))
    _, _, cf = polar_pipeline(g, ExternalPotentials())
    res = divergence_constraints(cf)
    assert res.riemann_max < 1e-12
    assert np.max(np.abs(res.resB)) < 1e-12
    assert np.max(np.abs(res.resR)) < 1e-6


def test_divergence_constraints_one_riemann(monkeypatch):
    # the curvature of R differences c inside its own slab pass, so the
    # one grid_gradient call is that of the stacked (B^a, R^a) for the two
    # divergences
    from polardirac import connections

    lf, dims = gauge_boost_field(9)
    cf = build_connections(goldstone_derivatives(lf), ExternalPotentials())
    om = random_omega_field(
        np.random.default_rng(8), dims, lf.origin, lf.spacing, amp=0.1
    )
    calls = []
    real = connections.grid_gradient

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(connections, "grid_gradient", counting)
    for cf_case, fd_tol in ((cf, None), (dataclasses.replace(cf, omega=om), 1.0)):
        calls.clear()
        res = divergence_constraints(cf_case, fd_tol=fd_tol)
        assert len(calls) == 1
        riemann = curvatures(cf_case).riemann
        assert res.riemann_max == float(np.max(np.abs(riemann)))


def _block_log_derivative(lf):
    """X = L^{-1} dL in chiral block layout, rebuilt from scratch: the
    adjugate inverses of the two diagonal blocks of L, one batched product."""
    blocks = lf.blocks
    a, b = blocks[..., 0, 0], blocks[..., 0, 1]
    c, d = blocks[..., 1, 0], blocks[..., 1, 1]
    adj = np.stack((np.stack((d, -b), axis=-1), np.stack((-c, a), axis=-1)), axis=-2)
    inv = adj / (a * d - b * c)[..., None, None]
    return np.einsum(
        "...ij,...jkm->...ikm", inv, grid_gradient(blocks, lf.spacing)
    )


def test_flatness_reads_the_cached_log_derivative(monkeypatch):
    # goldstone_derivatives builds X = L^{-1} dL once, on the two chiral
    # blocks and with no np.linalg.inv; the flatness reads that X and
    # makes no inverse either, with the same bits as an X rebuilt from
    # scratch
    lf, _ = gauge_boost_field(9)
    x = _block_log_derivative(lf)
    oracle = np.max(
        np.abs(_dense_riemann(x, grid_gradient(x, lf.spacing), None)),
        axis=(-5, -4, -3, -2, -1),
    )
    calls = []
    real = np.linalg.inv

    def counting(a):
        calls.append(1)
        return real(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    gd = goldstone_derivatives(lf)
    assert calls == []
    assert np.array_equal(lf.log_derivative, x)
    cf = build_connections(gd, ExternalPotentials())
    flat = curvatures(cf, lfield=lf).goldstone_flat
    assert calls == []
    assert np.array_equal(flat, oracle)


@pytest.mark.parametrize("dims", [
    (1, 9, 9, 9), (9, 1, 1, 9), (9, 1, 1, 1), (1, 9, 1, 9), (5, 7, 1, 6),
    (6, 6, 6, 6), (1, 1, 1, 1),
])
def test_flatness_over_the_active_axes_keeps_the_full_table_bits(
    monkeypatch, dims
):
    # the flatness differences and multiplies only the X_mu of the axes
    # longer than 1 (the t axis alone where none is), with the bits of the
    # max over the full 4 x 4 table: zeros on a grid with no such axis, and
    # NaN at the same sites when a block is not finite
    from polardirac import connections

    spacing = [0.3] * 4
    c = coords_for([0.0] * 4, spacing, dims)
    params = make_params_field(
        dims,
        chi_x=0.2 * np.cos(c[..., 3] - c[..., 2]),
        chi_z=0.3 * np.sin(c[..., 1] + c[..., 0]),
        theta_y=0.4 * np.sin(c[..., 0] + c[..., 3]),
        theta_z=0.2 + 0.3 * np.cos(c[..., 1] * c[..., 2]),
    )
    xi = 0.4 * np.sin(c[..., 0] + c[..., 3])
    lf = transform_from_params(xi, params, [0.0] * 4, spacing, dims)
    cf = build_connections(goldstone_derivatives(lf), ExternalPotentials())
    blocks = lf.blocks.copy()
    blocks.reshape(-1, 2, 2, 2)[-1, 1, 0, 1] = np.nan
    broken = TransformField(blocks, lf.origin, lf.spacing)
    channels = []
    real = connections._flatness

    def spying(dg, g):
        channels.append(dg.shape[-2:] + g.shape[-1:])
        return real(dg, g)

    monkeypatch.setattr(connections, "_flatness", spying)
    for field in (lf, broken):
        with np.errstate(invalid="ignore"):
            x = field.log_derivative
            oracle = np.max(
                np.abs(_dense_riemann(x, grid_gradient(x, spacing), None)),
                axis=(-5, -4, -3, -2, -1),
            )
            flat = curvatures(cf, lfield=field).goldstone_flat
        assert np.array_equal(flat, oracle, equal_nan=True)
        assert np.isnan(flat).any() == (field is broken)
    active = sum(n > 1 for n in dims)
    assert set(channels) == {(max(active, 1),) * 3}
    if not active:
        assert curvatures(cf, lfield=lf).goldstone_flat.tolist() == [[[[0.0]]]]


def test_slab_flatness_matches_the_dense_oracle_bits(monkeypatch):
    # the flatness differences X inside each slab and takes the products
    # G_mu G_nu as one table per chunk of sites; on 26^3 sites in slabs
    # of 4 or 5 x-rows (2,704 or 3,380 sites, no multiple of the chunk)
    # on two threads it keeps the bits of the dense oracle on the whole grid
    import os

    from polardirac import connections, fields

    lf, dims = gauge_boost_field(26)
    x = lf.log_derivative
    dx = grid_gradient(x, lf.spacing)
    oracle = np.stack(
        [
            np.max(
                np.abs(_dense_riemann(x[:, i], dx[:, i], None)),
                axis=(-5, -4, -3, -2, -1),
            )
            for i in range(dims[1])
        ],
        axis=1,
    )
    del dx
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(fields, "_SLAB_SITES", 3000)
    assert np.prod(dims) >= fields._SLAB_MIN_SITES
    _, edges = fields._slab_edges(dims, 2)
    sites = np.diff(edges) * dims[2] * dims[3]
    assert np.all(sites % connections._FLAT_CHUNK)
    calls = []
    real = connections._flatness

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(connections, "_flatness", counting)
    cf = build_connections(goldstone_derivatives(lf), ExternalPotentials())
    flat = curvatures(cf, lfield=lf).goldstone_flat
    assert len(calls) == len(sites)
    assert np.max(oracle) > 1e-5
    assert np.array_equal(flat, oracle)


def test_flatness_memory_peak():
    # on 17^3 sites (slabs on the calling thread; the bound dates from one
    # whole-grid call) the traced peak of curvatures(lfield=...)
    # with the curvature of R kept stays within 10 % of the 15.9 MB of the
    # flatness that took one mu at a time (numpy 2.4); one product table
    # over the whole grid peaks at 31 MB
    import tracemalloc

    lf, _ = gauge_boost_field(17)
    cf = build_connections(goldstone_derivatives(lf), ExternalPotentials())
    cf.curvature
    tracemalloc.start()
    try:
        curvatures(cf, lfield=lf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 15.9e6


def test_verify_gauge_chain_memory_peak():
    # verify's curvature suite on its 17^3 field: goldstone_derivatives,
    # build_connections and curvatures(lfield=...) traced together peak at
    # 25.6 MB as whole-grid calls and at 14.8 MB in 2,048-site slabs
    import tracemalloc

    from polardirac import cli

    lf = cli._gauge_params_grid(17, boost=False)
    tracemalloc.start()
    try:
        gd = goldstone_derivatives(lf)
        cf = build_connections(gd, ExternalPotentials(q=lf.q))
        curvatures(cf, q=lf.q, lfield=lf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18e6


def _random_gauge_field(rng, dims, spacing, q=1.0):
    params = rng.uniform(-0.3, 0.3, size=dims + (6,))
    xi = rng.uniform(-0.5, 0.5, size=dims)
    return transform_from_params(xi, params, [0.0] * 4, spacing, dims, q=q)


_ROUGH_CASES = [
    ((1, 5, 5, 5), [1.0, 0.5, 0.6, 0.7], 1.0),
    ((5, 1, 1, 6), [0.4, 1.0, 1.0, 0.5], -1.7),
]


def test_block_goldstone_matches_dense_site_oracle():
    # the Pauli-component projection of the grid X against the dense 4x4
    # single-site oracle (np.linalg.inv, the site stencil and the einsum
    # projection) at every site; the two differ by roundoff only, so the
    # tolerance is 64 eps on the scale of X (measured: below 2 eps).  These
    # rough fields fail the leak check (see the next test), so both sides
    # are the projections alone
    from polardirac.connections import _goldstone_sites

    rng = np.random.default_rng(31)
    for dims, spacing, q in _ROUGH_CASES:
        lf = _random_gauge_field(rng, dims, spacing, q)
        dxi_g, dxi_ab_g, leak_g, _ = _goldstone_sites(lf.log_derivative, q)
        tol = 64 * np.finfo(float).eps * np.max(np.abs(lf.log_derivative))
        for site in np.ndindex(*dims):
            dxi, dxi_ab, leak = goldstone_derivative(lf, site)
            npt.assert_allclose(dxi_g[site], dxi, rtol=0.0, atol=tol)
            npt.assert_allclose(dxi_ab_g[site], dxi_ab, rtol=0.0, atol=tol)
            npt.assert_allclose(leak_g[site], leak, rtol=0.0, atol=tol)


def test_leak_check_rejects_coarse_random_fields():
    # random group elements at h 0.4-1: the leak reaches half of |X|
    # (3.0 against max|X_mu| 5.9 on the first field, 8.4 against 13.0 on
    # the second), where the uncapped tolerance 10 h^2 max|X|^2 let every
    # leak through
    rng = np.random.default_rng(31)
    for dims, spacing, q in _ROUGH_CASES:
        lf = _random_gauge_field(rng, dims, spacing, q)
        with pytest.raises(
            BasisLeak, match="does not resolve L, or L is not a group-valued"
        ):
            goldstone_derivatives(lf)


def test_leak_error_names_the_worst_site():
    # one site of a smooth gauge field scaled by 1.5 is not a group
    # element; the error names the grid index and event of the largest
    # leak on the failing axis, a neighbour of that site along the axis
    from polardirac.connections import _goldstone_sites
    from polardirac.fields import _site_location

    lf, _ = gauge_boost_field(9)
    site = (0, 4, 3, 5)
    blocks = lf.blocks.copy()
    blocks[site] *= 1.5
    bad = dataclasses.replace(lf, blocks=blocks)
    with pytest.raises(BasisLeak, match="not a group-valued field") as info:
        goldstone_derivatives(bad)
    message = str(info.value)
    ax = int(re.search(r"along axis (\d)", message).group(1))
    leak = _goldstone_sites(bad.log_derivative, bad.q)[2][..., ax]
    worst = np.unravel_index(np.argmax(leak), leak.shape)
    where = _site_location(worst, lf.origin, lf.spacing)
    assert f"at {where};" in message and "event (t, x, y, z)" in message
    step = np.subtract(worst, site)
    assert abs(step[ax]) == 1 and np.count_nonzero(step) == 1


# the block projection that the Pauli-component kernel replaced, kept
# verbatim as the oracle of its leak: sigma^{ab} restricted to the two
# chiral blocks, and X minus its reconstruction from dxi and dxi_ab
_SIGMA_8 = _chiral_split(BASIS.sigma).reshape(16, 8).T
_SIGMA_CONJ_8 = np.conj(_SIGMA_8.T)
_EYE_BLOCKS_M = np.eye(2)[:, :, None]


def _project_blocks(x: np.ndarray, q: float):
    """_project_log_derivative for X in chiral block layout
    [..., block, row, col, mu]: dxi from the two block traces, dxi_ab with
    the block-restricted sigma^{ab} pair, and the leak as the Frobenius
    norm of the 8 block entries the two leave out, which is the dense
    norm since the off-diagonal blocks of X and of sigma^{ab} are zero.
    """
    _require_charge(q)
    grid = x.shape[:-4]
    dxi = np.trace(x, axis1=-3, axis2=-2).sum(axis=-2).imag / (4.0 * q)
    dxi_ab = np.real(_SIGMA_CONJ_8 @ x.reshape(grid + (8, 4)))
    dxi_ab = dxi_ab.reshape(grid + (4, 4, 4))
    spin = 0.5 * (_SIGMA_8 @ dxi_ab.reshape(grid + (16, 4))).reshape(x.shape)
    recon = spin + 1j * q * dxi[..., None, None, None, :] * _EYE_BLOCKS_M
    leak = np.linalg.norm((x - recon).reshape(grid + (8, 4)), axis=-2)
    return dxi, dxi_ab, leak


def test_closed_form_leak_matches_the_reconstruction():
    # the leak identity, leak^2 = 2 (Re a_0)^2 + 2 (Re b_0)^2
    # + (Im a_0 - Im b_0)^2 + sum_k |a_k + conj b_k|^2, against the norm of
    # X minus its reconstruction, on random X far from the algebra and on
    # the X of a gauge field; dxi and dxi_ab against the same oracle, all
    # to 64 eps of max|X| (measured: below 2 eps), and |X_mu| as its
    # Frobenius norm
    from polardirac.connections import _goldstone_sites

    rng = np.random.default_rng(8)
    shape = (2, 3, 4, 5, 2, 2, 2, 4)
    xs = [
        rng.normal(size=shape) + 1j * rng.normal(size=shape),
        gauge_boost_field(9)[0].log_derivative,
        gauge_rotation_field(9)[0].log_derivative,
    ]
    shares = []
    for x, q in zip(xs, (-1.7, 1.0, 0.6)):
        dxi, dxi_ab, leak, norms = _goldstone_sites(x, q)
        tol = 64 * np.finfo(float).eps * np.max(np.abs(x))
        for got, want in zip((dxi, dxi_ab, leak), _project_blocks(x, q)):
            npt.assert_allclose(got, want, rtol=0.0, atol=tol)
        assert np.array_equal(dxi_ab, -np.swapaxes(dxi_ab, -3, -2))
        npt.assert_array_equal(
            norms, np.linalg.norm(x.reshape(x.shape[:-4] + (8, 4)), axis=-2)
        )
        shares.append(np.max(leak) / np.max(norms))
    # random X lies far outside the algebra, the gauge X close to it
    assert shares[0] > 0.5 and max(shares[1:]) < 0.05


def test_spin_action_matches_the_spin_matrix_oracle():
    # [-(c.sigma) psi_L / 2; (conj(c).sigma) psi_R / 2] against the 4x4
    # (1/2) T_ab sigma^ab of the spin_matrix oracle applied by einsum, on random
    # antisymmetric T and psi, and through dirac_residual with Omega
    # against the same residual with the Omega term taken that way; 64 eps
    # of the scale of each side (measured: below 1 eps)
    from polardirac.connections import _spin_action
    from polardirac.dynamics import dirac_residual
    from polardirac.fields import GridField

    eps = np.finfo(float).eps
    rng = np.random.default_rng(12)
    t = rng.normal(size=(3, 5, 4, 4, 4))
    t = t - np.swapaxes(t, -3, -2)
    psi = rng.normal(size=(3, 5, 4)) + 1j * rng.normal(size=(3, 5, 4))
    want = np.einsum("...klm,...l->...km", spin_matrix(t), psi)
    scale = np.max(np.abs(t)) * np.max(np.abs(psi))
    npt.assert_allclose(_spin_action(t, psi), want, rtol=0.0, atol=64 * eps * scale)

    dims = (5, 6, 5, 1)
    psi = np.array([1.0, 0.2, 0.6, 0.1]) + 0.03 * (
        rng.normal(size=dims + (4,)) + 1j * rng.normal(size=dims + (4,))
    )
    g = GridField([0, 0, 0, 0], [0.2, 0.3, 0.25, 0.3], dims, psi)
    om = rng.normal(size=dims + (4, 4, 4))
    om = om - np.swapaxes(om, -3, -2)
    a = rng.normal(size=dims + (4,))
    ext = ExternalPotentials(A=a, Omega=om, q=1.3, m=0.9)
    nabla = (
        grid_gradient(psi, g.spacing)
        + np.einsum("...klm,...l->...km", spin_matrix(om), psi)
        + 1j * ext.q * a[..., None, :] * psi[..., :, None]
    )
    lhs = 1j * np.einsum("mab,...bm->...a", BASIS.gamma, nabla) - ext.m * psi
    scale = np.max(np.abs(nabla)) + np.max(np.abs(psi))
    npt.assert_allclose(
        dirac_residual(g, ext),
        np.linalg.norm(lhs, axis=-1),
        rtol=0.0,
        atol=64 * eps * scale,
    )


def test_block_flatness_matches_dense_oracle():
    # the flatness on the chiral blocks against the dense 4x4 route it
    # replaced: X = inv(L) dL, _dense_riemann on the 4x4 X, max over four
    # axes; roundoff tolerance 64 eps on the scale |dX| + |X|^2 of the
    # terms (measured: below 9 eps)
    for lf, _ in (gauge_boost_field(9), gauge_rotation_field(9)):
        mats = _chiral_join(lf.blocks)
        x = np.einsum(
            "...ij,...jkm->...ikm",
            np.linalg.inv(mats),
            grid_gradient(mats, lf.spacing),
        )
        dx = grid_gradient(x, lf.spacing)
        oracle = np.max(np.abs(_dense_riemann(x, dx, None)), axis=(-4, -3, -2, -1))
        cf = build_connections(goldstone_derivatives(lf), ExternalPotentials())
        flat = curvatures(cf, lfield=lf).goldstone_flat
        tol = 64 * np.finfo(float).eps * (np.max(np.abs(dx)) + np.max(np.abs(x)) ** 2)
        assert np.max(oracle) > 1e-4
        npt.assert_allclose(flat, oracle, rtol=0.0, atol=tol)


def test_connection_carries_its_omega():
    # R = dxi_ab - Omega and the curvature of R read the same Omega: the
    # dense oracle with that Omega, to 1e-13 of its largest entry
    lf, dims = gauge_rotation_field(9)
    om = random_omega_field(
        np.random.default_rng(5), dims, lf.origin, lf.spacing, amp=0.2
    )
    gd = goldstone_derivatives(lf)
    cf = build_connections(gd, ExternalPotentials(Omega=om))
    r_up = cf.R * np.array([1.0, -1.0, -1.0, -1.0])[:, None, None]
    want = _dense_riemann(r_up, grid_gradient(r_up, lf.spacing), om)
    scale = np.max(np.abs(want))
    assert scale > 0.1
    riemann = _unpack_riemann(curvature_k(cf.R, om, lf.spacing))
    npt.assert_allclose(riemann, want, rtol=0.0, atol=1e-13 * scale)
    assert np.array_equal(curvatures(cf).riemann, _site_max(riemann))
    res = divergence_constraints(cf, fd_tol=np.inf)
    assert res.riemann_max == float(np.max(np.abs(riemann)))
    assert build_connections(gd, ExternalPotentials()).omega is None


def test_connections_without_omega_keep_the_goldstone_r():
    # R = dxi_ab - Omega: with no Omega, R is the layer's dxi_ab itself;
    # with an Omega it is a new array, their difference
    lf, dims = gauge_rotation_field(9)
    gd = goldstone_derivatives(lf)
    cf = build_connections(gd, ExternalPotentials())
    assert cf.R is gd.dxi_ab and cf.omega is None
    om = random_omega_field(
        np.random.default_rng(6), dims, lf.origin, lf.spacing, amp=0.2
    )
    cf_om = build_connections(gd, ExternalPotentials(Omega=om))
    assert not np.shares_memory(cf_om.R, gd.dxi_ab)
    assert np.array_equal(cf_om.R, gd.dxi_ab - om)
    assert np.array_equal(cf_om.P, cf.P)


def test_connections_without_background_allocate_only_p():
    # no zero Omega or A grid and no copy of dxi_ab: the traced peak stays
    # below an eighth of dxi_ab (P itself is a sixteenth)
    import tracemalloc

    lf, _ = gauge_boost_field(17)
    gd = goldstone_derivatives(lf)
    tracemalloc.start()
    try:
        cf = build_connections(gd, ExternalPotentials())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cf.P.nbytes <= peak < gd.dxi_ab.nbytes / 8


def test_curvature_keeps_no_tensor():
    # K is a slab temporary: the kept curvature holds grid-shaped arrays
    # and scalars only
    lf, dims = gauge_boost_field(9)
    cf = build_connections(goldstone_derivatives(lf), ExternalPotentials())
    curv = cf.curvature
    for f in dataclasses.fields(curv):
        assert np.shape(getattr(curv, f.name)) in ((), dims), f.name


def _half_sigma_loop(t, psi):
    """sum_ij (1/2) t_ij sigma^ij psi, summed term by term."""
    out = np.zeros(4, dtype=complex)
    for i in range(4):
        for j in range(4):
            out += 0.5 * t[i, j] * (BASIS.sigma[i, j] @ psi)
    return out


def _nabla_loop(g, ext):
    """(d_m + (1/2) Omega_ij m sigma^ij + i q A_m) psi, one site at a time."""
    dpsi = grid_gradient(g.values, g.spacing)
    nabla = np.zeros_like(dpsi)
    for site in np.ndindex(*g.dims):
        psi = g.values[site]
        for mu in range(4):
            nabla[site][:, mu] = (
                dpsi[site][:, mu]
                + _half_sigma_loop(ext.Omega[site][..., mu], psi)
                + 1j * ext.q * ext.A[site][mu] * psi
            )
    return nabla


def test_goldstone_layer_once_per_grid_and_charge(monkeypatch, tmp_path):
    # decompose, L and L^{-1} dL run once per grid and q: the hub and the
    # covariant check share them, a fresh copy of the grid and another q
    # do not, and a different ext with the same q rebuilds only P: with
    # no Omega, R is the layer's own dxi_ab
    from polardirac import connections
    from polardirac.dynamics import PolarFields
    from polardirac.fields import load_grid, save_grid

    g = gaussian_packet(1.2, s_axis=(0.48, 0.6, 0.64), dims=(1, 9, 9, 9))
    save_grid(g, tmp_path / "g.grid")
    calls = []
    real = connections.decompose

    def counting(*args, **kwargs):
        calls.append(kwargs.get("q"))
        return real(*args, **kwargs)

    monkeypatch.setattr(connections, "decompose", counting)
    ext = ExternalPotentials()
    g1 = load_grid(tmp_path / "g.grid")
    pf = PolarFields.from_grid(g1, ext)
    covariant_derivative_check(g1, ext)
    assert calls == [1.0]
    a = np.full(g1.dims + (4,), 0.3)
    _, gd, cf = polar_pipeline(g1, ExternalPotentials(A=a))
    assert calls == [1.0]
    assert np.array_equal(cf.P, pf.cf.P - 0.3)
    assert cf.P is not pf.cf.P
    assert cf.R is gd.dxi_ab and pf.cf.R is gd.dxi_ab
    g2 = load_grid(tmp_path / "g.grid")
    PolarFields.from_grid(g2, ext)
    assert calls == [1.0, 1.0]
    PolarFields.from_grid(g2, ExternalPotentials(q=-2.0))
    assert calls == [1.0, 1.0, -2.0]
    assert polar_pipeline(g2, ExternalPotentials(q=-2.0))[1].q == -2.0
    assert calls == [1.0, 1.0, -2.0]


def test_goldstone_layer_keeps_no_transform(monkeypatch):
    # L enters the chain only through L^{-1} dL: after the hub is built
    # the grid keeps no TransformField and no complex array (L has 16
    # complex entries per site, X 32), and the covariant check still
    # reuses the layer
    from polardirac import connections
    from polardirac.dynamics import PolarFields

    g = gaussian_packet(1.2, s_axis=(0.48, 0.6, 0.64), dims=(1, 9, 9, 9))
    ext = ExternalPotentials()
    PolarFields.from_grid(g, ext)
    for part in g._memo[ext.q]:
        assert not isinstance(part, TransformField)
        for arr in vars(part).values():
            assert not np.iscomplexobj(arr)

    def refusing(*args, **kwargs):
        raise AssertionError("decompose ran again")

    monkeypatch.setattr(connections, "decompose", refusing)
    covariant_derivative_check(g, ext)


def test_goldstone_layer_arrays_refuse_writes():
    # the kept arrays are shared by every later pipeline on the grid, and
    # an X built on demand from L is read-only too
    g = gaussian_packet(1.2, s_axis=(0.48, 0.6, 0.64), dims=(1, 9, 9, 9))
    pd, gd, cf = polar_pipeline(g, ExternalPotentials())
    lf = transform_from_polar(pd, g.origin, g.spacing)
    kept = (
        pd.phi, pd.beta, pd.u, pd.s, pd.goldstone, pd.alpha,
        lf.log_derivative, gd.dxi, gd.dxi_ab, gd.leak,
    )
    for arr in kept:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0.0
    cf.P[0, 0, 0, 0, 0] = 1.0  # the connections are built per call


def test_covariant_gradient_omega_term_matches_site_loop():
    from polardirac.dynamics import dirac_residual
    from polardirac.fields import GridField

    rng = np.random.default_rng(71)
    dims = (5, 5, 5, 5)
    # noise the grid resolves: at 0.3 h|X| reached 24 and the leak 0.98
    # of |X|, which the Goldstone layer rejects with BasisLeak
    psi = np.array([1.0, 0.2, 0.6, 0.1]) + 0.03 * (
        rng.normal(size=dims + (4,)) + 1j * rng.normal(size=dims + (4,))
    )
    g = GridField([0, 0, 0, 0], [0.2, 0.3, 0.25, 0.3], dims, psi)
    om = rng.normal(size=dims + (4, 4, 4))
    om = om - np.swapaxes(om, -3, -2)
    ext = ExternalPotentials(
        A=rng.normal(size=dims + (4,)),
        Omega=om,
        W=rng.normal(size=dims + (4,)),
        q=1.3,
        X=0.7,
        m=0.9,
    )
    nabla = _nabla_loop(g, ext)

    # Dirac operator: i gamma^m nabla_m psi - X W_m gamma^m pi psi - m psi
    lhs = np.zeros(dims + (4,), dtype=complex)
    for site in np.ndindex(*dims):
        psi = g.values[site]
        for mu in range(4):
            lhs[site] += 1j * BASIS.gamma[mu] @ nabla[site][:, mu]
            lhs[site] -= ext.X * ext.W[site][mu] * (
                BASIS.gamma[mu] @ BASIS.pi @ psi
            )
        lhs[site] -= ext.m * psi
    npt.assert_allclose(
        dirac_residual(g, ext), np.linalg.norm(lhs, axis=-1), rtol=1e-12
    )

    # polar form: (-(i/2) d beta pi + d ln phi - i P - (1/2) R sigma) psi
    pd, _, cf = polar_pipeline(g, ext)
    dbeta = _phase_gradient(pd.beta, g.spacing)
    dlnphi = grid_gradient(np.log(pd.phi), g.spacing)
    res = np.zeros(dims + (4,))
    for site in np.ndindex(*dims):
        psi = g.values[site]
        for mu in range(4):
            rhs = (
                -0.5j * dbeta[site][mu] * (BASIS.pi @ psi)
                + (dlnphi[site][mu] - 1j * cf.P[site][mu]) * psi
                - _half_sigma_loop(cf.R[site][..., mu], psi)
            )
            res[site][mu] = np.linalg.norm(nabla[site][:, mu] - rhs)
    npt.assert_allclose(
        covariant_derivative_check(g, ext).spinor, res, rtol=1e-12
    )


def test_frame_gauge_covariance():
    n = 9
    dims = (1, n, n, n)
    origin = [0.0, 0.0, 0.0, 0.0]
    spacing = [1.0] + [2.0 / (n - 1)] * 3
    c = coords_for(origin, spacing, dims)
    base_params = make_params_field(
        dims,
        chi_z=0.3 * np.sin(c[..., 1]),
        theta_y=0.25 * np.cos(0.8 * c[..., 2]),
    )
    xi = 0.4 * np.sin(0.7 * c[..., 3])
    lf = transform_from_params(xi, base_params, origin, spacing, dims, q=1.0)
    rng = np.random.default_rng(55)
    om = random_omega_field(rng, dims, origin, spacing, amp=0.2)
    a = np.zeros(dims + (4,))
    a[..., 1] = 0.3 * np.cos(c[..., 2])
    ext = ExternalPotentials(A=a, Omega=om, q=1.0)
    cf = build_connections(goldstone_derivatives(lf), ext)

    s_params = make_params_field(
        dims,
        chi_x=0.2 * np.sin(0.9 * c[..., 2]),
        theta_z=0.3 * np.cos(0.6 * c[..., 1]) * np.sin(0.5 * c[..., 3]),
    )
    zeta = 0.25 * np.sin(c[..., 1] + 0.4 * c[..., 2])
    dzeta = np.zeros(dims + (4,))
    dzeta[..., 1] = 0.25 * np.cos(c[..., 1] + 0.4 * c[..., 2])
    dzeta[..., 2] = 0.1 * np.cos(c[..., 1] + 0.4 * c[..., 2])
    lf2, ext2, v_mat = transform_connection_inputs(
        lf, ext, s_params, zeta, dzeta
    )
    cf2 = build_connections(goldstone_derivatives(lf2), ext2)

    sl = interior(dims)
    # P is invariant
    assert np.max(np.abs((cf2.P - cf.P)[sl])) < 5e-3
    # R transforms with the inverse vector representation on both indices
    v_inv = np.linalg.inv(v_mat)
    r_expect = np.einsum("...ca,...db,...cdm->...abm", v_inv, v_inv, cf.R)
    assert np.max(np.abs((cf2.R - r_expect)[sl])) < 5e-3
