"""Flow-line integration, continuity diagnostics, CSV export."""

import dataclasses
import re

import numpy as np
import numpy.testing as npt
import pytest

import polardirac.fields as fields
import polardirac.trajectories as trajectories
from polardirac.bilinears import compute_bilinears
from polardirac.clifford import minkowski_dot
from polardirac.errors import (
    ImaginaryResidue,
    OutOfBounds,
    PreconditionViolated,
    SingularSpinor,
)
from polardirac.fields import (
    GridField,
    convergence_order,
    gaussian_packet,
    interp_values,
    plane_wave,
    sample,
    superpose,
)
from polardirac.polar import PolarData, decompose, reconstruct
from polardirac.trajectories import (
    CSV_FIELDS,
    LatticeCurrent,
    Trajectory,
    continuity_residual,
    integrate,
    integrate_many,
    momentum_along,
    velocity_at,
    write_csv,
)

from oracles import chiral_phase

# columns of Trajectory.rows
PHI, BETA = CSV_FIELDS.index("phi"), CSV_FIELDS.index("beta")
X = slice(CSV_FIELDS.index("x"), CSV_FIELDS.index("z") + 1)
U = slice(CSV_FIELDS.index("u0"), CSV_FIELDS.index("u3") + 1)
S = slice(CSV_FIELDS.index("s0"), CSV_FIELDS.index("s3") + 1)


def boosted_grid(chi, m=1.0, nt=9, nz=17, t_range=(-0.1, 1.1),
                 z_range=(-1.0, 1.0)):
    p = m * np.array([np.cosh(chi), 0.0, 0.0, np.sinh(chi)])
    f = plane_wave(p, m=m)
    origin = (t_range[0], 0.0, 0.0, z_range[0])
    spacing = (
        (t_range[1] - t_range[0]) / (nt - 1),
        1.0,
        1.0,
        (z_range[1] - z_range[0]) / (nz - 1),
    )
    return sample(f, origin, spacing, (nt, 1, 1, nz)), p


def exponential_flow_grid(rate=1.0, nz=9, z_range=(-0.9, 0.9)):
    """Hand-built static field whose flow is dz/dt = rate * z.

    The current is chosen as U = (1, 0, 0, rate*z): exactly linear in z,
    so multilinear interpolation reproduces it everywhere and the
    integrator error is purely the time-stepping error.
    """
    z = np.linspace(z_range[0], z_range[1], nz)
    uz = rate * z
    if np.any(1.0 - uz**2 <= 0.0):
        raise ValueError("flow exits the light cone on this grid")
    chi = np.arctanh(uz)
    phi = (0.5 * np.sqrt(1.0 - uz**2)) ** 0.5
    u = np.stack([np.cosh(chi), 0 * z, 0 * z, np.sinh(chi)], axis=-1)
    s = np.stack([np.sinh(chi), 0 * z, 0 * z, np.cosh(chi)], axis=-1)
    goldstone = np.zeros((nz, 6))
    goldstone[:, 2] = chi
    pd = PolarData(
        phi=phi,
        beta=np.zeros(nz),
        u=u,
        s=s,
        goldstone=goldstone,
        alpha=np.zeros(nz),
    )
    values = reconstruct(pd).reshape(1, 1, 1, nz, 4)
    h = (z_range[1] - z_range[0]) / (nz - 1)
    return GridField(
        origin=(0.0, 0.0, 0.0, z_range[0]),
        spacing=(1.0, 1.0, 1.0, h),
        dims=(1, 1, 1, nz),
        values=values,
    )


def test_velocity_rest_wave():
    f = plane_wave((1.0, 0.0, 0.0, 0.0))
    g = sample(f, (0.0, 0.0, 0.0, -1.0), (0.25, 1.0, 1.0, 0.25),
               (9, 1, 1, 9))
    rng = np.random.default_rng(3)
    pts = np.column_stack([
        rng.uniform(0.0, 2.0, 25),
        rng.uniform(-5.0, 5.0, 25),
        rng.uniform(-5.0, 5.0, 25),
        rng.uniform(-1.0, 1.0, 25),
    ])
    u = velocity_at(g, pts)
    npt.assert_allclose(u, np.tile([1.0, 0, 0, 0], (25, 1)), atol=1e-12)


def test_velocity_boosted_wave():
    chi = 0.7
    g, _ = boosted_grid(chi)
    u = velocity_at(g, np.array([0.4, 0.0, 0.0, 0.3]))
    npt.assert_allclose(
        u, [np.cosh(chi), 0.0, 0.0, np.sinh(chi)], atol=1e-12
    )
    assert u[0] > 0.0


def test_velocity_superposition_unit_norm():
    m, p = 1.0, 0.4
    e = np.hypot(m, p)
    f = superpose(
        [plane_wave((e, 0, 0, p), m=m), plane_wave((e, 0, 0, -p), m=m)],
        [0.8, 0.6],
    )
    g = sample(f, (0.0, 0.0, 0.0, -2.0), (1.0, 1.0, 1.0, 4.0 / 32),
               (1, 1, 1, 33))
    rng = np.random.default_rng(11)
    pts = np.column_stack([
        np.zeros(40),
        np.zeros(40),
        np.zeros(40),
        rng.uniform(-2.0, 2.0, 40),
    ])
    u = velocity_at(g, pts)
    from polardirac.clifford import minkowski_dot

    npt.assert_allclose(minkowski_dot(u, u), np.ones(40), atol=1e-12)
    assert np.all(u[:, 0] > 0.0)
    # the two beams interfere: the drift really does depend on position
    assert np.ptp(u[:, 3]) > 1e-3


def test_velocity_singular_and_out_of_bounds():
    g = GridField(
        origin=(0.0, 0.0, 0.0, 0.0),
        spacing=(1.0, 1.0, 1.0, 0.1),
        dims=(1, 1, 1, 9),
        values=np.zeros((1, 1, 1, 9, 4), dtype=complex),
    )
    with pytest.raises(SingularSpinor):
        velocity_at(g, np.array([0.0, 0.0, 0.0, 0.4]))
    g2, _ = boosted_grid(0.3)
    with pytest.raises(OutOfBounds):
        velocity_at(g2, np.array([0.0, 0.0, 0.0, 5.0]))


def test_integrate_rest_wave_is_static():
    f = plane_wave((1.0, 0.0, 0.0, 0.0))
    g = sample(f, (-0.1, 0.0, 0.0, -1.0), (0.3, 1.0, 1.0, 0.25),
               (5, 1, 1, 9))
    x0 = (0.0, 0.0, 0.35)
    traj = integrate(g, x0, 0.0, 1.0, 0.05)
    assert traj.termination == "completed"
    assert len(traj.rows) == 21
    npt.assert_allclose(traj.positions(), np.tile(x0, (21, 1)), atol=0.0)
    t = traj.times()
    assert np.all(np.diff(t) > 0.0)
    assert traj.normalization_drift() < 1e-8
    # recorded polar data matches the wave: phi = 1, beta = 0
    assert abs(traj.rows[-1, PHI] - 1.0) < 1e-12
    assert abs(traj.rows[-1, BETA]) < 1e-12
    npt.assert_allclose(traj.rows[-1, S], [0, 0, 0, 1], atol=1e-12)


def test_integrate_boosted_wave_straight_line():
    chi = 0.6
    g, _ = boosted_grid(chi)
    z0 = -0.3
    traj = integrate(g, (0.0, 0.0, z0), 0.0, 1.0, 1e-3)
    assert traj.termination == "completed"
    assert len(traj.rows) == 1001
    expect = z0 + np.tanh(chi) * traj.times()
    err = np.max(np.abs(traj.positions()[:, 2] - expect))
    assert err < 1e-8
    assert traj.normalization_drift() < 1e-8
    assert np.all(traj.velocities()[:, 0] > 0.0)


def test_integrate_rk4_order():
    g = exponential_flow_grid(rate=1.0)
    z0 = 0.1
    exact = z0 * np.exp(1.0)
    errs = []
    for dt in (0.2, 0.1):
        traj = integrate(g, (0.0, 0.0, z0), 0.0, 1.0, dt)
        assert traj.termination == "completed"
        errs.append(abs(traj.positions()[-1, 2] - exact))
    assert errs[0] > 1e-9  # well above rounding, so the ratio is meaningful
    order = np.log2(errs[0] / errs[1])
    assert 3.7 < order < 4.3


def test_integrate_left_domain():
    chi = 0.8
    g, _ = boosted_grid(chi, z_range=(-0.5, 0.25))
    traj = integrate(g, (0.0, 0.0, 0.0), 0.0, 1.0, 0.01)
    assert traj.termination == "left_domain"
    assert 0 < len(traj.rows) < 101
    assert traj.times()[-1] < 1.0
    # starting outside the hull: recorded immediately, no samples
    traj2 = integrate(g, (0.0, 0.0, 7.0), 0.0, 1.0, 0.01)
    assert traj2.termination == "left_domain"
    assert traj2.rows.shape == (0, len(CSV_FIELDS))


def test_integrate_singular_termination():
    chi = 0.8
    g, _ = boosted_grid(chi, nz=33, z_range=(-1.0, 1.0))
    values = g.values.copy()
    values[..., 24:, :] = 0.0  # kill the field beyond z = 0.5
    g2 = GridField(origin=g.origin, spacing=g.spacing, dims=g.dims,
                   values=values)
    traj = integrate(g2, (0.0, 0.0, 0.0), 0.0, 1.0, 0.01)
    assert traj.termination == "singular"
    assert 0 < len(traj.rows) < 101
    assert traj.positions()[-1, 2] < 0.5


def test_csv_beta_takes_pi_at_the_cut():
    # the chiral angle of the flow-line table follows decompose on the
    # branch cut: beta = pi, never -pi
    psi = chiral_phase(-np.pi) @ np.array([1.0, 0.0, 1.0, 0.0])
    dims = (9, 1, 1, 1)
    g = GridField(origin=np.zeros(4), spacing=[0.1, 1.0, 1.0, 1.0],
                  dims=dims, values=np.broadcast_to(psi, dims + (4,)))
    assert np.all(decompose(g.values).beta == np.pi)
    traj = integrate(g, (0.0, 0.0, 0.0), 0.0, 0.5, 0.1)
    assert traj.termination == "completed"
    assert len(traj.rows) == 6
    assert np.all(traj.rows[:, BETA] == np.pi)


def test_fan_stays_ordered():
    chi = 0.5
    g, _ = boosted_grid(chi)
    starts = np.linspace(-0.6, 0.2, 16)
    finals = []
    for z0 in starts:
        traj = integrate(g, (0.0, 0.0, z0), 0.0, 0.5, 0.01)
        assert traj.termination == "completed"
        assert np.all(traj.velocities()[:, 0] > 0.0)
        finals.append(traj.positions()[-1, 2])
    assert np.all(np.diff(finals) > 0.0)


def test_continuity_single_wave_flat():
    g, _ = boosted_grid(0.4)
    res = continuity_residual(g)
    assert np.max(np.abs(res)) < 1e-12


def test_continuity_reads_the_kept_current():
    # the first call keeps g's current; the copy, with no memo, makes its own
    g = exponential_flow_grid(rate=1.0, nz=33)
    npt.assert_array_equal(
        continuity_residual(g), continuity_residual(dataclasses.replace(g))
    )


def test_one_bilinear_pass_serves_every_reader_of_a_grid(monkeypatch):
    # the grid keeps its current, so the readers after the first make no
    # bilinear pass of their own
    passes = []
    real = trajectories._observables

    def counting(*args, **kwargs):
        passes.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(trajectories, "_observables", counting)
    g = mixed_wave_grid()
    continuity_residual(g)
    velocity_at(g, [0.5, 0.0, 0.1, -0.2])
    integrate_many(g, [(0.0, 0.1, -0.2), (0.0, 0.0, 0.3)], 0.0, 0.5, 0.05)
    assert len(passes) == 1


def test_kept_current_is_the_bilinear_pass_read_only():
    from polardirac.bilinears import _observables

    g = mixed_wave_grid()
    velocity_at(g, [0.5, 0.0, 0.1, -0.2])
    (obs,) = g._memo.values()
    assert not obs.flags.writeable
    assert np.array_equal(obs, _observables(g.values, modulus=True))
    with pytest.raises(ValueError, match="read-only"):
        obs[0, 0, 0, 0, 0] = 1.0


def test_every_exported_name_resolves_once():
    import polardirac

    names = polardirac.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(polardirac, name, None) is not None, name


def continuity_on(n):
    m = 1.0
    p = 0.5
    e = np.hypot(m, p)
    f = superpose(
        [plane_wave((m, 0, 0, 0), m=m), plane_wave((e, 0, 0, p), m=m)],
        [1.0, 0.7],
    )
    extent = 1.6
    h = extent / (n - 1)
    g = sample(f, (0.0, 0.0, 0.0, 0.0), (h, 1.0, 1.0, h), (n, 1, 1, n))
    return g.origin, g.spacing, continuity_residual(g)


def test_continuity_superposition_second_order():
    order, mc, mf = convergence_order(continuity_on(9), continuity_on(17))
    assert order is not None and 1.8 < order < 2.2
    assert mc > 1e-6  # genuinely nonzero before refinement


def test_continuity_nonsolution_reports():
    # static module bump carried by u = e0: every term of the divergence
    # vanishes identically, and the evaluator says so
    nz = 33
    z = np.linspace(-2.0, 2.0, nz)
    bump = 1.0 + np.exp(-(z**2))
    rest = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)
    values = (bump[:, None] * rest).reshape(1, 1, 1, nz, 4)
    g = GridField(origin=(0.0, 0.0, 0.0, -2.0),
                  spacing=(1.0, 1.0, 1.0, 4.0 / (nz - 1)),
                  dims=(1, 1, 1, nz), values=values)
    res = continuity_residual(g)
    assert np.max(np.abs(res)) == 0.0
    # a static boost profile is not a solution and does get flagged
    g2 = exponential_flow_grid(rate=1.0, nz=33)
    res2 = continuity_residual(g2)
    assert np.max(np.abs(res2)) > 0.1


def test_momentum_along_boosted_wave():
    chi = 0.6
    m = 1.0
    g, p = boosted_grid(chi, m=m)
    traj = integrate(g, (0.0, 0.0, -0.3), 0.0, 1.0, 0.05)
    mom = momentum_along(g, traj)
    lower = np.array([p[0], 0.0, 0.0, -p[3]])
    # finite differencing the wave phase costs O((E h)^2 E) accuracy
    npt.assert_allclose(mom, np.tile(lower, (len(traj.rows), 1)),
                        atol=0.02)


def test_write_csv_per_trajectory(tmp_path):
    g, _ = boosted_grid(0.5)
    trajs = [integrate(g, (0.0, 0.0, z0), 0.0, 0.2, 0.05)
             for z0 in (-0.2, 0.1)]
    paths = write_csv(trajs, tmp_path / "flow.csv")
    assert [p.name for p in paths] == ["flow_000.csv", "flow_001.csv"]
    for path, traj in zip(paths, trajs):
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_FIELDS)
        assert len(lines) == 1 + len(traj.rows)
        parsed = np.array([[float(v) for v in line.split(",")]
                           for line in lines[1:]])
        assert np.array_equal(parsed, traj.rows)


def test_write_csv_combined_and_deterministic(tmp_path):
    def run(tag):
        g, _ = boosted_grid(0.5)
        trajs = [integrate(g, (0.0, 0.0, z0), 0.0, 0.2, 0.05)
                 for z0 in (-0.2, 0.1)]
        out = tmp_path / f"{tag}.csv"
        write_csv(trajs, out, combined=True)
        return out.read_bytes(), trajs

    first, trajs = run("a")
    second, _ = run("b")
    assert first == second
    text = first.decode()
    lines = text.splitlines()
    assert lines[0] == ",".join(("trajectory",) + CSV_FIELDS)
    ids = [int(line.split(",", 1)[0]) for line in lines[1:]]
    assert ids == [k for k, t in enumerate(trajs) for _ in t.rows]
    parsed = np.array([[float(v) for v in line.split(",")[1:]]
                       for line in lines[1:]])
    assert np.array_equal(parsed, np.concatenate([t.rows for t in trajs]))


def test_write_csv_matches_the_csv_module(tmp_path):
    # the joined lines are byte for byte what csv.writer writes, on
    # special floats and on a flow line with no samples too
    import oracles

    rows = np.linspace(-1.0, 1.0, 3 * len(CSV_FIELDS)).reshape(3, -1)
    rows[0, :5] = [-0.0, np.nan, np.inf, -np.inf, 1e-300]
    rows[1, :3] = [1 / 3, 1e22, 5e-324]
    trajs = [Trajectory(rows, "completed"),
             Trajectory(np.zeros((0, len(CSV_FIELDS))), "left_domain"),
             Trajectory(rows[1:], "singular")]
    out = tmp_path / "all.csv"
    assert write_csv(trajs, out, combined=True) == [out]
    assert out.read_bytes() == oracles.csv_bytes(trajs, combined=True)
    for path, traj in zip(write_csv(trajs, tmp_path / "one.csv"), trajs):
        assert path.read_bytes() == oracles.csv_bytes([traj], combined=False)


def test_trajectory_helpers_empty():
    traj = Trajectory(rows=np.empty((0, len(CSV_FIELDS))),
                      termination="left_domain")
    assert traj.normalization_drift() == 0.0
    assert traj.positions().shape == (0, 3)
    assert traj.events().shape == (0, 4)


def mixed_wave_grid():
    """Superposed waves with complex weights: beta, u and s all vary."""
    m = 1.0
    waves = [
        plane_wave((np.sqrt(1.25), 0.0, 0.5, 0.0), m=m),
        plane_wave((np.sqrt(1.34), 0.3, 0.0, -0.5), spin_up=False, m=m),
        plane_wave((np.sqrt(1.13), 0.0, -0.2, 0.3), m=m),
    ]
    f = superpose(waves, [1.0, 0.4 + 0.3j, -0.2j])
    return sample(f, (0.0, 0.0, -1.0, -1.0), (0.25, 1.0, 0.25, 0.25),
                  (5, 1, 9, 9))


def test_stacked_observables_match_per_channel_interpolation():
    g = mixed_wave_grid()
    bil = compute_bilinears(g.values)
    mod2 = bil.theta**2 + bil.phi_scalar**2

    def interp(arr, x):
        return interp_values(g.origin, g.spacing, arr, x)

    def unit(x):
        U = interp(bil.U, x)
        u = U / np.sqrt(minkowski_dot(U, U))[..., None]
        return np.where(u[..., :1] < 0.0, -u, u)

    rng = np.random.default_rng(5)
    pts = np.column_stack([
        rng.uniform(0.0, 1.0, 30),
        np.zeros(30),
        rng.uniform(-1.0, 1.0, 30),
        rng.uniform(-1.0, 1.0, 30),
    ])
    assert np.array_equal(velocity_at(g, pts), unit(pts))
    assert np.array_equal(velocity_at(g, pts[0]), unit(pts[0]))

    traj = integrate(g, (0.0, 0.1, -0.2), 0.0, 0.5, 0.05)
    assert traj.termination == "completed"
    for row in traj.rows:
        event = row[:4]
        m2 = float(interp(mod2, event))
        theta = float(interp(bil.theta, event))
        phi_s = float(interp(bil.phi_scalar, event))
        assert row[PHI] == float(np.sqrt(0.5 * np.sqrt(m2)))
        assert row[BETA] == float(np.arctan2(theta, phi_s))
        assert np.array_equal(row[U], unit(event))
        assert np.array_equal(row[S], interp(bil.S, event) / np.sqrt(m2))
    assert np.ptp(traj.rows[:, BETA]) > 1e-3


@pytest.mark.parametrize("t1", [0.5, 0.52])
def test_integrate_interpolates_once_per_stage(monkeypatch, t1):
    # one lattice lookup per run, and per stage one frac and one call,
    # which makes the hull test and the interpolation together
    calls = {"__init__": 0, "frac": 0, "__call__": 0}

    def counting(name):
        real = getattr(fields._Lookup, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(fields._Lookup, name, counting(name))
    g = mixed_wave_grid()
    traj = integrate(g, (0.0, 0.1, -0.2), 0.0, t1, 0.05)
    assert traj.termination == "completed"
    steps = len(traj.rows) - 1
    assert steps == (10 if t1 == 0.5 else 11)
    assert calls == {"__init__": 1, "frac": 1 + 4 * steps,
                     "__call__": 1 + 4 * steps}


def test_nan_coordinate_is_out_of_bounds():
    # a NaN fails every comparison, so the hull test is written to pass
    # only coordinates known to be inside
    cur = gaussian_packet(1.0, dims=(1, 9, 9, 9))
    with pytest.raises(OutOfBounds):
        velocity_at(cur, [0.0, np.nan, 0.0, 0.0])
    with pytest.raises(OutOfBounds):
        velocity_at(cur, [np.nan, 0.0, 0.0, 0.0])  # constant t axis
    traj = integrate(cur, [np.nan, 0.0, 0.0], 0.0, 0.1, 0.01)
    assert traj.termination == "left_domain"
    assert len(traj.rows) == 0


def three_fates_grid():
    """Wave boosted along +z (chi = 0.8) over t in [-0.1, 1.5] and x, z in
    [-1, 1], switched off where x >= 0.5 and z >= 0.375."""
    chi = 0.8
    p = np.array([np.cosh(chi), 0.0, 0.0, np.sinh(chi)])
    g = sample(plane_wave(p), (-0.1, -1.0, 0.0, -1.0),
               (0.2, 0.25, 1.0, 0.125), (9, 9, 1, 17))
    values = g.values.copy()
    values[:, 6:, :, 11:, :] = 0.0
    return GridField(origin=g.origin, spacing=g.spacing, dims=g.dims,
                     values=values)


def test_integrate_many_matches_per_seed(tmp_path):
    cur = three_fates_grid()
    points = [
        (-0.5, 0.0, -0.9),  # completed
        (-0.5, 0.0, 0.31),  # leaves through z = 1 at a k2 stage
        (0.75, 0.0, 0.0),  # runs into the switched-off corner
        (0.0, 0.0, 5.0),  # starts outside
        (0.75, 0.0, 0.5),  # starts on a zero of the field
        (-0.5, 0.0, -0.9),  # a repeated seed
    ]
    t0, t1, dt = 0.0, 1.4, 0.1
    batch = integrate_many(cur, points, t0, t1, dt)
    serial = [integrate(cur, pt, t0, t1, dt) for pt in points]
    assert [t.termination for t in batch] == [
        "completed", "left_domain", "singular", "left_domain", "singular",
        "completed",
    ]
    assert [len(t.rows) for t in batch] == [15, 11, 6, 0, 0, 15]

    lost_x, lost_u = batch[1].rows[-1, X], batch[1].rows[-1, U]
    k1 = lost_u[3] / lost_u[0]
    assert lost_x[2] < 1.0 < lost_x[2] + 0.5 * dt * k1

    for b, s in zip(batch, serial):
        assert b.termination == s.termination
        assert b.rows.dtype == np.float64
        assert b.rows.shape == s.rows.shape == (len(s.rows), len(CSV_FIELDS))
        assert np.array_equal(b.rows, s.rows)
    write_csv(batch, tmp_path / "batch.csv", combined=True)
    write_csv(serial, tmp_path / "serial.csv", combined=True)
    assert (tmp_path / "batch.csv").read_bytes() == \
        (tmp_path / "serial.csv").read_bytes()


@pytest.mark.parametrize("t0, t1, dt, name", [
    (np.nan, 1.0, 0.1, "t0"),
    (-np.inf, 1.0, 0.1, "t0"),
    (0.0, np.inf, 0.1, "t1"),
    (0.0, np.nan, 0.1, "t1"),
    (0.0, 1.0, np.nan, "dt"),
    (0.0, 1.0, np.inf, "dt"),
])
def test_non_finite_times_raise(t0, t1, dt, name):
    g, _ = boosted_grid(0.5)
    with pytest.raises(PreconditionViolated, match=f"^{name} must be finite"):
        integrate_many(g, [(0.0, 0.0, 0.0)], t0, t1, dt)
    with pytest.raises(PreconditionViolated, match=f"^{name} must be finite"):
        integrate(g, (0.0, 0.0, 0.0), t0, t1, dt)


def test_reversed_interval_raises():
    # t1 < t0 used to return the start sample marked completed
    g, _ = boosted_grid(0.5)
    with pytest.raises(PreconditionViolated, match=r"t1 = 0.0 precedes t0 = 1.0"):
        integrate(g, (0.0, 0.0, 0.0), 1.0, 0.0, 0.1)
    with pytest.raises(PreconditionViolated, match=r"t1 = 0.4 precedes t0 = 0.5"):
        integrate_many(g, [(0.0, 0.0, 0.0)] * 2, 0.5, 0.4, 0.1)
    # an empty interval keeps its one start sample
    traj = integrate(g, (0.0, 0.0, 0.0), 0.5, 0.5, 0.1)
    assert traj.rows.shape == (1, len(CSV_FIELDS))
    assert traj.termination == "completed"
    assert traj.rows[0, 0] == 0.5


def test_integrate_many_empty():
    g, _ = boosted_grid(0.5)
    assert integrate_many(g, [], 0.0, 1.0, 0.1) == []
    with pytest.raises(PreconditionViolated, match="dt must be positive"):
        integrate_many(g, [], 0.0, 1.0, 0.0)


@pytest.mark.parametrize("points, shape", [
    ([[0.0, 0.0, 0.0, 0.1, 0.1, 0.1]], (1, 6)),  # not two seeds
    ([[0.0, 0.0, 0.0, 0.0]], (1, 4)),
    ([0.0, 0.0, 0.0], (3,)),
    (np.zeros((2, 1, 3)), (2, 1, 3)),
])
def test_misshaped_start_points_raise(points, shape):
    g, _ = boosted_grid(0.5)
    want = r"^points .*\(N, 3\), got shape " + re.escape(str(shape)) + "$"
    with pytest.raises(PreconditionViolated, match=want):
        integrate_many(g, points, 0.0, 0.1, 0.05)


@pytest.mark.parametrize("x0, shape", [
    ((0.0, 0.0, 0.0, 0.1, 0.1, 0.1), (6,)),
    ((0.0, 0.0), (2,)),
    ([[0.0, 0.0, 0.0]], (1, 3)),
])
def test_misshaped_start_point_raises(x0, shape):
    g, _ = boosted_grid(0.5)
    want = r"^x0 .*\(3,\), got shape " + re.escape(str(shape)) + "$"
    with pytest.raises(PreconditionViolated, match=want):
        integrate(g, x0, 0.0, 0.1, 0.05)


def flowlines_field(seed, n=4):
    """n on-shell waves with mixed spins and complex weights, drawn as the
    flowlines benchmark draws its field."""
    rng = np.random.default_rng(seed)
    waves = []
    for i in range(n):
        p = rng.uniform(-0.8, 0.8, 3)
        waves.append(plane_wave([np.sqrt(1.0 + p @ p), *p], spin_up=i % 2 == 0))
    return superpose(waves, rng.normal(size=n) + 1j * rng.normal(size=n))


LAZY_ORIGIN = np.array([0.0, -1.0, -1.0, -1.0])
LAZY_SPACING = np.array([0.1, 0.125, 0.125, 0.125])
LAZY_GRIDS = [
    (11, 17, 17, 17),  # the flowlines benchmark's lattice
    (5, 7, 6, 1),
    (9, 9, 1, 1),
    (1, 1, 1, 9),
    (1, 1, 1, 1),
]


def eager_obs(f, dims):
    """The kept current of sample(...) of f, one row per site."""
    g = sample(f, LAZY_ORIGIN, LAZY_SPACING, dims)
    return trajectories._current(g)[2].reshape(-1, 11)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dims", LAZY_GRIDS)
def test_lazy_fill_is_the_eager_current_bit_for_bit(dims, seed):
    # a site filled alone or in a batch holds the bits of the whole-lattice
    # pass; a lone site and a lattice whose last axis has one site take
    # matmul routes of their own there
    f = flowlines_field(seed)
    eager = eager_obs(f, dims)
    fill = LatticeCurrent(f, LAZY_ORIGIN, LAZY_SPACING, dims).lookup().fill
    rng = np.random.default_rng(seed)
    for m in (1, 2, 3, 40):
        m = min(m, len(eager))
        sites = np.sort(rng.choice(len(eager), m, replace=False))
        assert np.array_equal(fill(sites), eager[sites]), m


@pytest.mark.parametrize("dims", LAZY_GRIDS)
def test_lazy_lookup_fills_each_site_once_with_the_eager_bits(dims):
    # lookups of 1 to 30 events, some outside the hull, read what the
    # eager lookup reads, and fill only the corners they read, each once
    f = flowlines_field(3)
    eager = fields._Lookup(
        *trajectories._current(sample(f, LAZY_ORIGIN, LAZY_SPACING, dims))
    )
    lazy = LatticeCurrent(f, LAZY_ORIGIN, LAZY_SPACING, dims).lookup()
    filled, fill = [], lazy.fill

    def recording(sites):
        filled.append(sites)
        return fill(sites)

    lazy.fill = recording
    rng = np.random.default_rng(0)
    top = np.array(dims) - 1.0
    for n in (1, 5, 1, 30, 30):
        frac = rng.uniform(-0.05 * top, 1.05 * top, (n, 4))
        (keep, vals), (want_keep, want) = lazy(frac), eager(frac)
        assert np.array_equal(keep, want_keep)
        assert np.array_equal(vals, want)
    sites = np.concatenate(filled)
    assert len(np.unique(sites)) == len(sites)
    assert np.array_equal(np.sort(sites), np.flatnonzero(lazy.known))
    assert np.array_equal(lazy.table[lazy.known], eager.table[lazy.known])
    if len(eager.table) > 16:
        assert len(sites) < len(eager.table)


@pytest.mark.parametrize("dims, axis", [((1, 1, 1, 9), 3), ((1, 1, 9, 1), 2)])
def test_lazy_imaginary_residue_names_the_lattice_site(monkeypatch, dims,
                                                       axis):
    # the first lookup fills the two corners of the start point; the one
    # of larger U^0 carries the larger residue, and the error names its
    # lattice index and event, not its row in the batch
    import polardirac.bilinears as bilinears

    f = flowlines_field(0)
    u0 = eager_obs(f, dims)[:, 2]
    index = [0, 0, 0, 0]
    index[axis] = 3 if u0[3] > u0[4] else 4
    event = LAZY_ORIGIN + LAZY_SPACING * index
    broken = bilinears._STACK.copy()
    broken[1] = broken[1] + 1e-4j * np.eye(4)  # a residue of 1e-4 U^0
    monkeypatch.setattr(bilinears, "_STACK", broken)
    start = LAZY_ORIGIN[1:].copy()
    start[axis - 1] += 3.5 * LAZY_SPACING[axis]
    lattice = LatticeCurrent(f, LAZY_ORIGIN, LAZY_SPACING, dims)
    want = (f"at grid index {tuple(index)}, "
            f"event (t, x, y, z) = {event.tolist()}")
    with pytest.raises(ImaginaryResidue, match=re.escape(want) + "$"):
        integrate(lattice, start, 0.0, 0.0, 0.1)


def test_velocity_and_continuity_read_a_lattice_current_whole():
    # velocity_at reads the lazily filled sites and continuity_residual
    # samples the whole lattice; both give the bits of a GridField
    f = flowlines_field(1)
    dims = (5, 9, 9, 9)
    lattice = LatticeCurrent(f, LAZY_ORIGIN, LAZY_SPACING, dims)
    g = sample(f, LAZY_ORIGIN, LAZY_SPACING, dims)
    rng = np.random.default_rng(2)
    pts = LAZY_ORIGIN + LAZY_SPACING * rng.uniform(0.0, 4.0, (20, 4))
    assert np.array_equal(velocity_at(lattice, pts), velocity_at(g, pts))
    assert np.array_equal(continuity_residual(lattice),
                          continuity_residual(g))


class CountingField:
    """An analytic field that records the number of events of each at."""

    def __init__(self, f):
        self.f, self.rows = f, []

    def at(self, events):
        self.rows.append(int(np.prod(np.shape(events)[:-1])))
        return self.f.at(events)


@pytest.mark.parametrize("dims", [(5, 9, 9, 9), (1, 9, 9, 9), (9, 1, 1, 9)])
def test_velocity_at_fills_only_the_cells_of_its_events(dims):
    # a LatticeCurrent evaluates its field at no more than the 2^k corners
    # of each event's cell, k its axes longer than 1, and keeps the bits of
    # the GridField; events outside the hull, a NaN coordinate on an
    # active or a constant axis included, raise OutOfBounds
    f = CountingField(flowlines_field(1))
    lattice = LatticeCurrent(f, LAZY_ORIGIN, LAZY_SPACING, dims)
    g = sample(f.f, LAZY_ORIGIN, LAZY_SPACING, dims)
    corners = 2 ** sum(n > 1 for n in dims)
    top = np.array(dims) - 1.0
    rng = np.random.default_rng(5)
    for n in (1, 3):
        pts = LAZY_ORIGIN + LAZY_SPACING * rng.uniform(0.0, top, (n, 4))
        f.rows.clear()
        assert np.array_equal(velocity_at(lattice, pts), velocity_at(g, pts))
        assert 0 < sum(f.rows) <= n * corners
    inside = LAZY_ORIGIN + LAZY_SPACING * top / 2
    for ax, value in ((3, top[3] + 1.0), (3, -1.0), (1, np.nan), (0, np.nan)):
        event = inside.copy()
        event[ax] = LAZY_ORIGIN[ax] + LAZY_SPACING[ax] * value
        with pytest.raises(OutOfBounds, match="outside the grid hull"):
            velocity_at(lattice, event)


@pytest.mark.parametrize("origin, spacing, dims, message", [
    (np.zeros(4), [1, 1, -0.5, 1], (1, 5, 5, 5), r"spacing along y is -0\.5"),
    (np.zeros(4), np.ones(4), (1, 5, 2, 5), r"axis y has 2 sites"),
    (np.zeros(4), np.ones(4), (5, 5, 5), r"4 entries.*\(5, 5, 5\)"),
    ([0, np.nan, 0, 0], np.ones(4), (1, 5, 5, 5), r"origin entry \(1,\) is nan"),
])
def test_lattice_current_checks_the_lattice_as_sample_does(origin, spacing,
                                                          dims, message):
    f = flowlines_field(0)
    with pytest.raises(PreconditionViolated, match=message):
        sample(f, origin, spacing, dims)
    with pytest.raises(PreconditionViolated, match=message):
        LatticeCurrent(f, origin, spacing, dims)
