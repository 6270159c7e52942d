from itertools import product

import numpy as np
import numpy.testing as npt
import pytest

from polardirac.bilinears import compute_bilinears
from polardirac.errors import MassMismatch, OffShell, OutOfBounds
from polardirac.fields import (
    GridField,
    gaussian_packet,
    grid_gradient,
    interp_values,
    load_grid,
    plane_wave,
    sample,
    save_grid,
    scan_singular,
    superpose,
)
from polardirac.polar import decompose


def test_rest_wave_values():
    f = plane_wave([1.0, 0, 0, 0], m=1.0)
    x = np.array([0.3, 0.1, -0.2, 0.5])
    expect = np.exp(-1j * 0.3) * np.array([1, 0, 1, 0])
    npt.assert_allclose(f.at(x), expect, atol=1e-15)


def test_plane_wave_polar_data():
    m = 1.3
    pz = 0.7
    e = np.hypot(m, pz)
    f = plane_wave([e, 0, 0, pz], m=m)
    x = np.array([0.2, 0.0, 0.1, -0.3])
    p = decompose(f.at(x))
    npt.assert_allclose(p.beta, 0.0, atol=1e-12)
    npt.assert_allclose(p.u, [e / m, 0, 0, pz / m], atol=1e-12)
    npt.assert_allclose(p.phi, 1.0, atol=1e-12)


def test_off_shell_raises():
    with pytest.raises(OffShell):
        plane_wave([1.0, 0, 0, 0.5], m=1.0)
    with pytest.raises(OffShell):
        plane_wave([-1.0, 0, 0, 0], m=1.0)


def test_probability_density_scales_with_energy():
    m, pz = 1.0, 1.2
    e = np.hypot(m, pz)
    f = plane_wave([e, 0, 0, pz], m=m)
    psi = f.at(np.zeros(4))
    npt.assert_allclose(np.sum(np.abs(psi) ** 2), 2.0 * e / m, atol=1e-12)


def test_superpose_identity_and_mismatch():
    f = plane_wave([1.0, 0, 0, 0])
    g = superpose([f, f], [1.0, 0.0])
    x = np.array([0.4, 0.1, 0.2, 0.3])
    npt.assert_allclose(g.at(x), f.at(x), atol=1e-15)
    with pytest.raises(MassMismatch):
        superpose([f, plane_wave([2.0, 0, 0, 0], m=2.0)], [1.0, 1.0])


def test_superposition_bilinears_brute_force():
    e = np.hypot(1.0, 0.5)
    f1 = plane_wave([1.0, 0, 0, 0], spin_up=True)
    f2 = plane_wave([e, 0, 0, 0.5], spin_up=False)
    g = superpose([f1, f2], [1.0, 0.5])
    x = np.array([0.7, -0.2, 0.3, 0.1])
    direct = 1.0 * f1.at(x) + 0.5 * f2.at(x)
    npt.assert_allclose(g.at(x), direct, atol=1e-14)
    b = compute_bilinears(g.at(x))
    assert b.U[0] > 0.0


def test_analytic_derivative_matches_finite_difference():
    e = np.hypot(1.0, 0.8)
    f = plane_wave([e, 0.8, 0, 0])
    x = np.array([0.1, 0.2, 0.3, 0.4])
    d = f.derivative_at(x)
    h = 1e-6
    for mu in range(4):
        dx = np.zeros(4)
        dx[mu] = h
        fd = (f.at(x + dx) - f.at(x - dx)) / (2 * h)
        npt.assert_allclose(d[:, mu], fd, atol=1e-8)


def test_sample_exact_at_sites():
    f = plane_wave([1.0, 0, 0, 0])
    g = sample(f, origin=[0, -1, -1, -1], spacing=[0.1, 0.5, 0.5, 0.5], dims=(5, 5, 5, 5))
    pt = (2, 1, 3, 0)
    x = g.meshgrid()[pt]
    npt.assert_allclose(g.values[pt], f.at(x), atol=1e-15)


def test_fd_of_plane_wave_converges_at_order_two():
    m = 1.0
    f = plane_wave([m, 0, 0, 0])
    errs = []
    for n in (9, 17):
        g = sample(
            f,
            origin=[0, 0, 0, 0],
            spacing=[1.0 / (n - 1), 1, 1, 1],
            dims=(n, 1, 1, 1),
        )
        mid = (n // 2, 0, 0, 0)
        d = g.fd(0, mid)
        x = g.meshgrid()[mid]
        errs.append(np.max(np.abs(d - (-1j * m) * f.at(x))))
    order = np.log2(errs[0] / errs[1])
    assert 1.8 < order < 2.2


def test_fd_one_sided_edges():
    f = plane_wave([1.0, 0, 0, 0])
    n = 9
    g = sample(f, [0, 0, 0, 0], [0.05, 1, 1, 1], (n, 1, 1, 1))
    for pt in [(0, 0, 0, 0), (n - 1, 0, 0, 0)]:
        d = g.fd(0, pt)
        x = g.meshgrid()[pt]
        # one-sided 2nd-order truncation error is h^2/3 for e^{-it}
        npt.assert_allclose(d, -1j * f.at(x), atol=1.1 * 0.05**2 / 3.0)


def test_grid_gradient_matches_pointwise_fd():
    f = plane_wave([np.hypot(1.0, 0.4), 0, 0, 0.4])
    g = sample(f, [0, -0.5, -0.5, -0.5], [0.1, 0.25, 0.25, 0.25], (5, 5, 5, 5))
    grad = grid_gradient(g.values, g.spacing)
    for pt in [(2, 2, 2, 2), (0, 1, 2, 3), (4, 4, 4, 4)]:
        for ax in range(4):
            npt.assert_allclose(grad[pt][:, ax], g.fd(ax, pt), atol=1e-12)


def test_grid_gradient_partial_grid_is_exact():
    rng = np.random.default_rng(4)
    dims = (1, 7, 1, 6)
    spacing = np.array([1.0, 0.3, 1.0, 0.2])
    real = rng.normal(size=dims + (2,))
    for arr in (real, real + 1j * rng.normal(size=real.shape)):
        grad = grid_gradient(arr, spacing)
        assert grad.shape == arr.shape + (4,)
        assert grad.dtype == arr.dtype
        for ax in (0, 2):
            assert not np.any(grad[..., ax])
        for ax in (1, 3):
            want = np.gradient(arr, spacing[ax], axis=ax, edge_order=2)
            assert np.array_equal(grad[..., ax], want)


def test_interp_site_and_midpoint():
    f = plane_wave([1.0, 0, 0, 0])
    g = sample(f, [0, -1, -1, -1], [0.1, 0.5, 0.5, 0.5], (5, 5, 5, 5))
    x_site = g.meshgrid()[(1, 2, 3, 1)]
    npt.assert_allclose(g.interp(x_site), g.values[(1, 2, 3, 1)], atol=1e-14)
    # midway along x between two sites of the (locally smooth) field:
    # multilinear interp of a linear function is exact, so probe a linear field
    lin = GridField(
        origin=[0, 0, 0, 0],
        spacing=[1, 1, 1, 1],
        dims=(1, 5, 5, 5),
        values=np.broadcast_to(
            np.arange(5, dtype=complex)[:, None, None, None], (5, 5, 5, 4)
        ).copy()[None, ...].reshape(1, 5, 5, 5, 4),
    )
    mid = lin.interp(np.array([0.0, 1.5, 2.0, 2.0]))
    npt.assert_allclose(mid, 1.5 * np.ones(4), atol=1e-14)


def test_interp_out_of_bounds():
    f = plane_wave([1.0, 0, 0, 0])
    g = sample(f, [0, -1, -1, -1], [0.1, 0.5, 0.5, 0.5], (5, 5, 5, 5))
    with pytest.raises(OutOfBounds):
        g.interp(np.array([0.0, 7.0, 0.0, 0.0]))


def corner_loop_interp(origin, spacing, arr, pts):
    """Reference multilinear interpolation at in-hull events pts (n, 4):
    one gather per corner, corners in itertools.product order, each weight
    the product of its per-axis weights in axis order."""
    frac = (pts - origin) / spacing
    per_axis = []
    for ax in range(4):
        n = arr.shape[ax]
        if n == 1:
            per_axis.append([(np.zeros(len(pts), dtype=int), 1.0)])
            continue
        i0 = np.clip(np.floor(frac[:, ax]).astype(int), 0, n - 2)
        t = frac[:, ax] - i0
        per_axis.append([(i0, 1.0 - t), (i0 + 1, t)])
    trail = arr.shape[4:]
    out = np.zeros((len(pts),) + trail, dtype=np.result_type(arr.dtype, float))
    for corners in product(*per_axis):
        w = np.ones(len(pts))
        for c in corners:
            w = w * c[1]
        out += w.reshape((-1,) + (1,) * len(trail)) * arr[
            tuple(c[0] for c in corners)
        ]
    return out


def test_interp_matches_corner_loop_bitwise():
    rng = np.random.default_rng(17)
    for trial in range(60):
        dims = tuple(int(n) for n in rng.choice([1, 2, 5], 4))
        trail = [(), (11,), (4, 4)][trial % 3]
        arr = rng.normal(size=dims + trail)
        if trial % 2:
            arr = arr + 1j * rng.normal(size=arr.shape)
        arr[rng.random(arr.shape) < 0.2] = -0.0
        origin = rng.normal(size=4)
        spacing = rng.uniform(0.1, 2.0, 4)
        frac = rng.uniform(0.0, 1.0, (20, 4)) * (np.array(dims) - 1)
        on_site = rng.random(frac.shape) < 0.3  # sites and the far edge
        frac[on_site] = np.round(frac[on_site])
        pts = origin + frac * spacing
        got = interp_values(origin, spacing, arr, pts)
        want = corner_loop_interp(origin, spacing, arr, pts)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()  # signed zeros included
        assert interp_values(origin, spacing, arr, pts[3]).tobytes() == \
            want[3].tobytes()
    for shape in ((0, 4), (2, 0, 4)):
        out = interp_values(np.zeros(4), np.ones(4), arr, np.zeros(shape))
        assert out.shape == shape[:-1] + arr.shape[4:]


def test_grid_validation():
    with pytest.raises(ValueError):
        GridField([0, 0, 0, 0], [1, 1, 1, 1], (3, 1, 1, 1), np.zeros((3, 1, 1, 1, 4)))
    with pytest.raises(ValueError):
        GridField([0, 0, 0, 0], [0, 1, 1, 1], (1, 1, 1, 1), np.zeros((1, 1, 1, 1, 4)))
    with pytest.raises(ValueError, match=r"dims must have 4 entries.*\(5, 5, 5\)"):
        GridField(np.zeros(4), np.ones(4), (5, 5, 5), np.zeros((5, 5, 5, 4)))


def test_gaussian_packet_center_and_gradient():
    k, K = 2.0, 1.5
    g = gaussian_packet(k, K, dims=(1, 17, 17, 17))
    center = tuple(d // 2 for d in g.dims)
    b = compute_bilinears(g.values)
    rho = np.sqrt(b.theta**2 + b.phi_scalar**2)
    # at r = 0 the module is K
    npt.assert_allclose(np.sqrt(rho[center] / 2.0), K, atol=1e-12)
    # grad ln phi^2 = -k r / 4, checked against FD of the sampled field
    lnrho = np.log(rho)
    grad = grid_gradient(lnrho, g.spacing)
    coords = g.meshgrid()
    pt = (0, 8, 6, 9)
    expect = -k * coords[pt][1:] / 4.0
    npt.assert_allclose(grad[pt][1:], expect, atol=2e-3)


def test_gaussian_packet_spin_axis():
    g = gaussian_packet(1.0, 1.0, s_axis=(1.0, 0, 0), dims=(1, 5, 5, 5))
    p = decompose(g.values[0, 2, 2, 2])
    npt.assert_allclose(p.s, [0, 1, 0, 0], atol=1e-12)
    npt.assert_allclose(p.u, [1, 0, 0, 0], atol=1e-12)
    npt.assert_allclose(p.beta, 0.0, atol=1e-12)


def test_scan_singular_counterpropagating():
    m = 1.0
    pz = 0.8
    e = np.hypot(m, pz)
    f = superpose(
        [plane_wave([e, 0, 0, pz]), plane_wave([e, 0, 0, -pz])], [1.0, 1.0]
    )
    g = sample(f, [0, -3, -3, -3], [0.3, 0.75, 0.75, 0.75], (9, 9, 9, 9))
    scan_ok = scan_singular(g, threshold=1e-12)
    # this superposition never becomes exactly singular but dips toward
    # its positive floor; a generous threshold must flag those dips
    floor = (4.0 - 4.0 * np.cosh(np.arcsinh(pz / m))) ** 2
    assert scan_ok.min_mod2 >= floor - 1e-9
    scan_loose = scan_singular(g, threshold=floor * 4.0)
    assert scan_loose.count > 0
    assert scan_loose.indices.shape[1] == 4


def test_save_load_roundtrip(tmp_path):
    f = plane_wave([np.hypot(1.0, 0.3), 0.3, 0, 0])
    g = sample(f, [0, -1, -1, -1], [0.2, 0.5, 0.5, 0.5], (5, 5, 5, 5))
    path = tmp_path / "field.bin"
    save_grid(g, path)
    h = load_grid(path)
    npt.assert_allclose(h.origin, g.origin, atol=0.0)
    npt.assert_allclose(h.spacing, g.spacing, atol=0.0)
    assert h.dims == g.dims
    npt.assert_allclose(h.values, g.values, atol=0.0)


def test_load_grid_rejects_malformed_files(tmp_path):
    f = plane_wave([np.hypot(1.0, 0.3), 0.3, 0, 0])
    g = sample(f, [0, -1, -1, -1], [0.2, 0.5, 0.5, 0.5], (5, 1, 1, 6))
    path = tmp_path / "field.bin"
    save_grid(g, path)
    blob = path.read_bytes()
    cases = [
        # dims undercount the payload: 5*1*1*5 sites declared, 30 stored
        (blob.replace(b"dims: 5 1 1 6", b"dims: 5 1 1 5"), "need 1600"),
        (b"".join(
            line for line in blob.splitlines(keepends=True)
            if not line.startswith(b"spacing:")
        ), "'spacing'"),
        (blob[:-16], "holds 1904 bytes"),
        # three dims that the 30 stored sites fit exactly
        (blob.replace(b"dims: 5 1 1 6", b"dims: 5 1 6"), "dims must have 4"),
    ]
    for i, (bad, message) in enumerate(cases):
        target = tmp_path / f"bad{i}.bin"
        target.write_bytes(bad)
        with pytest.raises(ValueError, match=message):
            load_grid(target)
