from itertools import product

import numpy as np
import numpy.testing as npt
import pytest

from polardirac.bilinears import compute_bilinears
from polardirac.errors import (
    MassMismatch,
    OffShell,
    OutOfBounds,
    PreconditionViolated,
)
from polardirac.clifford import _flip
from polardirac.fields import (
    EXACT_FLOOR,
    GridField,
    _lattice_events,
    convergence_order,
    gaussian_packet,
    grid_gradient,
    interp_values,
    load_grid,
    plane_wave,
    sample,
    save_grid,
    superpose,
)
from polardirac.polar import decompose

from oracles import site_fd


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


@pytest.mark.parametrize(
    "p, m, message",
    [
        ([np.nan, 0, 0, 0], 1.0, r"momentum entry \(0,\) is nan"),
        ([1.0, 0, np.inf, 0], 1.0, r"momentum entry \(2,\) is inf"),
        ([1.0, 0, 0, 0], np.nan, r"finite mass m > 0, got m = nan"),
        ([1.0, 0, 0, 0], np.inf, r"finite mass m > 0, got m = inf"),
        ([1.0, 0, 0, 0], 0.0, r"finite mass m > 0, got m = 0\.0"),
        # on shell for m^2 = 1, but a negative mass fails the Dirac equation
        ([np.sqrt(1.25), 0, 0, 0.5], -1.0, r"m > 0, got m = -1\.0"),
    ],
)
def test_plane_wave_names_a_bad_mass_or_momentum(p, m, message):
    with pytest.raises(PreconditionViolated, match=message):
        plane_wave(p, m=m)


def test_superpose_names_an_empty_list():
    with pytest.raises(PreconditionViolated, match="at least one field"):
        superpose([], [])


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


def test_phases_keep_the_bits_of_the_complex_exponential():
    # the sampler writes cos and -sin into one complex array; on the lattice
    # of a trajectories run (11 x 17^3 events, four on-shell waves) its
    # phases are those of np.exp(-1j * p.x), bit for bit
    rng = np.random.default_rng(0)
    waves = []
    for i in range(4):
        p = rng.uniform(-0.8, 0.8, 3)
        waves.append(plane_wave(np.r_[np.sqrt(1.0 + p @ p), p], spin_up=i % 2 == 0))
    f = superpose(waves, rng.normal(size=4) + 1j * rng.normal(size=4))
    x = _lattice_events(
        [0.0, -1.0, -1.0, -1.0], [0.1, 0.125, 0.125, 0.125], (11, 17, 17, 17)
    )
    assert np.array_equal(f._phases(x), np.exp(-1j * (x @ _flip(f.momenta).T)))


def test_convergence_order_of_a_vanishing_fine_maximum_is_finite():
    order, mc, mf = convergence_order(
        np.ones((9, 1, 1, 1)), np.zeros((17, 1, 1, 1))
    )
    assert (order, mc, mf) == (np.log2(1.0 / EXACT_FLOOR), 1.0, 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("level", ["coarse", "fine"])
def test_convergence_order_names_a_level_whose_maximum_is_not_finite(
    level, value
):
    grids = {"coarse": np.ones((9, 1, 1, 1)), "fine": np.ones((17, 1, 1, 1))}
    grids[level][4] = value  # a site both levels read
    with pytest.raises(
        PreconditionViolated, match=f"the {level} maximum is {value}"
    ):
        convergence_order(grids["coarse"], grids["fine"])


@pytest.mark.parametrize("trim", range(5))
def test_convergence_order_reads_a_window_of_the_fine_level(trim):
    # a window less trim sites at each end of every active axis reads the
    # sites of the whole fine level that coincide with the coarse interior,
    # the first of them (fine site 4, the maximum here) included
    rng = np.random.default_rng(trim)
    coarse = rng.normal(size=(1, 11, 11, 11, 2))
    whole = rng.normal(size=(1, 21, 21, 21, 2))
    whole[0, 4, 10, 10, 0] = 10.0
    keep = slice(trim, 21 - trim)
    window = whole[:, keep, keep, keep]
    assert convergence_order(coarse, window) == convergence_order(coarse, whole)


@pytest.mark.parametrize(
    "coarse, fine",
    [
        # the same level twice: a 9-site window (t = 4) would be no wider
        ((9, 1, 1, 1), (9, 1, 1, 1)),
        ((1, 17, 17, 17), (1, 17, 17, 17)),
        ((9, 1, 1, 1), (5, 1, 1, 1)),  # a (9)/(5) pair
        ((1, 9, 9, 9), (1, 17, 13, 17)),  # t = 0 and t = 2
        ((1, 13, 13, 13), (1, 15, 15, 15)),  # t = 5
        ((9, 1, 1, 1), (17, 1, 1, 17)),  # a constant coarse axis
        ((9, 1, 1, 9), (17, 1, 1, 1)),  # a constant fine axis
        ((3, 1, 1, 1), (5, 1, 1, 1)),  # a 3-site coarse axis
        ((1, 9, 9, 9, 2), (1, 17, 17, 17, 3)),  # other trailing axes
        ((9,), (17,)),  # no four grid axes
    ],
)
def test_convergence_order_names_a_pair_that_is_no_refinement(coarse, fine):
    with pytest.raises(PreconditionViolated) as info:
        convergence_order(np.ones(coarse), np.ones(fine))
    assert f"fine shape {fine}" in str(info.value)
    assert f"coarse shape {coarse}" in str(info.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda arr: interp_values(np.zeros(4), np.ones(4), arr, [0, 0, 0, 0]),
        lambda arr: grid_gradient(arr, np.ones(4)),
    ],
    ids=["interp_values", "grid_gradient"],
)
def test_grid_readers_name_an_array_without_four_grid_axes(call):
    with pytest.raises(PreconditionViolated, match=r"shape \(5, 5, 5\)"):
        call(np.ones((5, 5, 5)))


GRID = np.ones((5, 5, 5, 5))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: interp_values(np.zeros(3), np.ones(3), GRID, [0, 0, 0, 0]),
         r"interp_values origin must be a 4-vector .* shape \(3,\)"),
        (lambda: interp_values(np.zeros(4), np.ones(4), GRID, [0, 0, 0]),
         r"interp_values needs events .* shape \(3,\)"),
        (lambda: interp_values(np.zeros(4), [1, 0, 1, 1], GRID, [0, 0, 0, 0]),
         r"interp_values spacing along x is 0\.0: a spacing must be positive"),
        (lambda: grid_gradient(GRID, np.ones(3)),
         r"grid_gradient spacing must be a 4-vector .* shape \(3,\)"),
        (lambda: grid_gradient(GRID, [1, 1, 0, 1]),
         r"grid_gradient spacing along y is 0\.0: a spacing must be positive"),
    ],
    ids=["interp_origin", "interp_event", "interp_zero_spacing",
         "gradient_spacing", "gradient_zero_spacing"],
)
def test_grid_readers_name_a_malformed_lattice_or_event(call, message):
    # these raised bare numpy errors, or gave inf and NaN after a divide
    # warning; the rules are those of _lattice
    with pytest.raises(PreconditionViolated, match=message):
        call()


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
        d = site_fd(g.values, 0, mid, g.spacing[0])
        x = g.meshgrid()[mid]
        errs.append(np.max(np.abs(d - (-1j * m) * f.at(x))))
    order = np.log2(errs[0] / errs[1])
    assert 1.8 < order < 2.2


def test_fd_one_sided_edges():
    f = plane_wave([1.0, 0, 0, 0])
    n = 9
    g = sample(f, [0, 0, 0, 0], [0.05, 1, 1, 1], (n, 1, 1, 1))
    for pt in [(0, 0, 0, 0), (n - 1, 0, 0, 0)]:
        d = site_fd(g.values, 0, pt, g.spacing[0])
        x = g.meshgrid()[pt]
        # one-sided 2nd-order truncation error is h^2/3 for e^{-it}
        npt.assert_allclose(d, -1j * f.at(x), atol=1.1 * 0.05**2 / 3.0)


def test_grid_gradient_matches_pointwise_fd():
    f = plane_wave([np.hypot(1.0, 0.4), 0, 0, 0.4])
    g = sample(f, [0, -0.5, -0.5, -0.5], [0.1, 0.25, 0.25, 0.25], (5, 5, 5, 5))
    grad = grid_gradient(g.values, g.spacing)
    for pt in [(2, 2, 2, 2), (0, 1, 2, 3), (4, 4, 4, 4)]:
        for ax in range(4):
            d = site_fd(g.values, ax, pt, g.spacing[ax])
            npt.assert_allclose(grad[pt][:, ax], d, atol=1e-12)


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


def test_interp_of_negative_zeros_reads_positive_zero():
    # the corner sum starts from 0.0, so -0.0 at every site reads +0.0, at
    # one event or many, with or without trailing axes
    for dims in ((1, 1, 1, 1), (1, 1, 5, 5), (5, 5, 5, 5)):
        pts = np.full((4, 4), 0.3) * (np.array(dims) > 1)
        for trail in ((), (3,)):
            arr = np.full(dims + trail, -0.0)
            for x in (pts, pts[0]):
                out = interp_values(np.zeros(4), np.ones(4), arr, x)
                assert out.shape == x.shape[:-1] + trail
                assert not np.signbit(out).any()


def test_grid_validation():
    with pytest.raises(PreconditionViolated):
        GridField([0, 0, 0, 0], [1, 1, 1, 1], (3, 1, 1, 1), np.zeros((3, 1, 1, 1, 4)))
    with pytest.raises(PreconditionViolated):
        GridField([0, 0, 0, 0], [0, 1, 1, 1], (1, 1, 1, 1), np.zeros((1, 1, 1, 1, 4)))
    with pytest.raises(PreconditionViolated, match=r"dims must have 4 entries.*\(5, 5, 5\)"):
        GridField(np.zeros(4), np.ones(4), (5, 5, 5), np.zeros((5, 5, 5, 4)))
    # sample evaluates the field before it builds its GridField, so it
    # checks the lattice itself
    wave = plane_wave([1.0, 0, 0, 0])
    with pytest.raises(PreconditionViolated, match=r"4 entries.*\(5, 5, 5\)"):
        sample(wave, np.zeros(4), np.ones(4), (5, 5, 5))
    with pytest.raises(PreconditionViolated, match=r"origin.*4"):
        sample(wave, np.zeros(3), np.ones(4), (5, 5, 5, 5))


@pytest.mark.parametrize(
    "spacing, dims, origin, message",
    [
        ([1, 1, -0.5, 1], (1, 5, 5, 5), np.zeros(4), r"spacing along y is -0\.5"),
        ([1, 1, 1, 0], (1, 5, 5, 5), np.zeros(4), r"spacing along z is 0\.0"),
        ([1, 1, 1, 1], (1, 5, 2, 5), np.zeros(4), r"axis y has 2 sites"),
        ([1, 1, 1, 1], (4, 1, 1, 1), np.zeros(4), r"axis t has 4 sites"),
        ([1, 1, 1], (1, 5, 5, 5), np.zeros(4), r"spacing must be a 4-vector.*\(3,\)"),
        ([1, 1, 1, 1], (1, 5, 5, 5), np.zeros(5), r"origin must be a 4-vector.*\(5,\)"),
    ],
)
def test_grid_constructor_names_the_axis_and_value(spacing, dims, origin, message):
    # a named PolarDiracError, not a bare ValueError
    values = np.zeros(tuple(dims) + (4,))
    with pytest.raises(PreconditionViolated, match=message):
        GridField(origin, spacing, dims, values)


@pytest.mark.parametrize(
    "k, K, message",
    [(0.0, 1.0, r"k > 0, got k = 0\.0"), (1.0, -2.0, r"K > 0, got K = -2\.0")],
)
def test_gaussian_packet_names_a_non_positive_scale(k, K, message):
    with pytest.raises(PreconditionViolated, match=message):
        gaussian_packet(k, K, dims=(1, 5, 5, 5))


@pytest.mark.parametrize(
    "s_axis, message",
    [((0, 0, 0), r"\[0\.0, 0\.0, 0\.0\]"), ((0, np.nan, 1), r"nan")],
)
def test_gaussian_packet_names_a_bad_spin_axis(s_axis, message):
    with pytest.raises(PreconditionViolated, match=f"nonzero s_axis.*{message}"):
        gaussian_packet(1.0, s_axis=s_axis, dims=(1, 5, 5, 5))


def test_lattice_events_apply_the_grid_rules():
    # the events of a lattice, and so sample, check it by GridField's rules
    with pytest.raises(PreconditionViolated, match=r"axis y has 2 sites"):
        _lattice_events(np.zeros(4), np.ones(4), (1, 5, 2, 5))
    with pytest.raises(PreconditionViolated, match=r"spacing along x is 0\.0"):
        _lattice_events(np.zeros(4), [1, 0, 1, 1], (1, 5, 5, 5))
    with pytest.raises(PreconditionViolated, match=r"origin entry \(1,\) is nan"):
        sample(plane_wave([1.0, 0, 0, 0]), [0, np.nan, 0, 0], np.ones(4),
               (1, 5, 1, 1))


def test_grid_field_rejects_non_finite():
    # every entry is checked, since a NaN spacing also passes spacing > 0
    g = gaussian_packet(1.0, dims=(1, 9, 9, 9))
    values = g.values.copy()
    values[0, 4, 4, 4, 1] = np.nan
    with pytest.raises(
        PreconditionViolated, match=r"values entry \(0, 4, 4, 4, 1\) is \(nan"
    ):
        GridField(g.origin, g.spacing, g.dims, values)
    zeros = np.zeros((1, 5, 1, 1, 4))
    with pytest.raises(PreconditionViolated, match=r"spacing entry \(1,\) is nan"):
        GridField([0, 0, 0, 0], [1, np.nan, 1, 1], (1, 5, 1, 1), zeros)
    with pytest.raises(PreconditionViolated, match=r"origin entry \(3,\) is inf"):
        GridField([0, 0, 0, np.inf], [1, 1, 1, 1], (1, 5, 1, 1), zeros)


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
