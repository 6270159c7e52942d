"""Flow lines of the conserved current.

The bilinears Theta, Phi, U^a, S^a and the modulus Theta^2 + Phi^2 are
stacked into one array of lattice sites, so a single multilinear
interpolation reads everything the integrator needs at an event.  A
GridField keeps them for every site in its memo, computed in one pass on
first use (_current); for a LatticeCurrent, an analytic field on a
lattice, a site is computed the first time a flow line reads it, with
the bits of the whole-lattice pass.  The current is normalized
on the fly; positions advance in coordinate time with
dx/dt = u_spatial / u^0 under classical RK4.
Interpolating the unnormalized current (rather than u itself) avoids
normalization kinks near zeros of the density.  All seeds of a run
advance together as one (N, 3) state, and each seed stops on its own
when a stage point leaves the grid or turns singular.  A run builds one
lattice lookup (fields._Lookup) on the stacked channels, and each stage
is one call of it for all live seeds together: the hull test and the
interpolation at once.  The sample recorded at the end of a step is the
next step's first stage, so each step costs four lookups.  A flow line
is one table, Trajectory.rows, whose columns are CSV_FIELDS.

Proper time is not stored; it is recoverable by quadrature from the
recorded samples.  Paths follow u.  The momentum P along a stored path
is available separately (momentum_along) for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bilinears import _observables
from .clifford import minkowski_dot
from .connections import ExternalPotentials, polar_pipeline
from .errors import PreconditionViolated, SingularSpinor
from .fields import AnalyticField, GridField, _lattice, _Lookup, _site_location
from .fields import grid_gradient, interp_values, sample
from .polar import EPS_SINGULAR, _chiral_angle

CSV_FIELDS = (
    "t",
    "x",
    "y",
    "z",
    "phi",
    "beta",
    "u0",
    "u1",
    "u2",
    "u3",
    "s0",
    "s1",
    "s2",
    "s3",
)


@dataclass(frozen=True)
class LatticeCurrent:
    """The observables of _current for an analytic field f on a lattice,
    computed at a site only when a flow line first reads it.

    origin, spacing and dims are checked as by sample (PreconditionViolated
    naming the entry, axis or value).  integrate_many reads the sites
    lazily; velocity_at and continuity_residual sample the whole lattice
    on every call, where a GridField sampled once keeps its current for
    every later call.
    """

    f: AnalyticField
    origin: np.ndarray
    spacing: np.ndarray
    dims: tuple

    def __post_init__(self):
        lattice = _lattice(self.origin, self.spacing, self.dims)
        for name, value in zip(("origin", "spacing", "dims"), lattice):
            object.__setattr__(self, name, value)

    def lookup(self) -> _Lookup:
        """A lookup whose table holds the sites filled so far, each the
        bits of the obs of _current(self) there."""
        origin, spacing, dims = self.origin, self.spacing, self.dims

        def fill(sites):
            # the bits of sample's matmuls need two rows or more (one row
            # takes another BLAS route), and rows of one site where the
            # last lattice axis has one
            rows = sites if len(sites) > 1 else np.repeat(sites, 2)
            index = np.stack(np.unravel_index(rows, dims), axis=-1)
            events = origin + spacing * index
            if dims[3] == 1:
                events = events[:, None]
            obs = _observables(
                self.f.at(events), modulus=True,
                locate=lambda i: _site_location(index[i[0]], origin, spacing),
            )
            return obs.reshape(len(rows), 11)[:len(sites)]

        return _Lookup(origin, spacing, np.empty(dims + (11,)), fill=fill)


def _current(field):
    """(origin, spacing, obs) of a GridField, or of a LatticeCurrent
    sampled on its whole lattice: obs holds the observables at every site,
    shape dims + (11,), Theta, Phi, U^0..U^3, S^0..S^3 and the singularity
    gauge Theta^2 + Phi^2, formed at the sites and interpolated as a
    channel of its own.  A grid's obs is filled slab by slab by the
    bilinears' own site pass on first use and kept read-only in its memo,
    so every later reader of the grid reuses that pass."""
    if isinstance(field, LatticeCurrent):
        field = sample(field.f, field.origin, field.spacing, field.dims)
    if "current" not in field._memo:
        obs = field._memo["current"] = _observables(field.values, modulus=True)
        obs.flags.writeable = False
    return field.origin, field.spacing, field._memo["current"]


def _observe(vals: np.ndarray):
    """Unit velocity u from interpolated channels vals (n, 11).

    Returns (vals, u, ok).  ok marks the rows where u is defined: a
    regular spinor (Theta^2 + Phi^2 > EPS_SINGULAR, the threshold of
    polar.decompose) with a timelike current.
    vals and u hold those rows only, so nothing is computed on the
    others.
    """
    U = vals[:, 2:6]
    norm2 = minkowski_dot(U, U)
    ok = (vals[:, 10] > EPS_SINGULAR) & (norm2 > 0.0)
    u = U[ok] / np.sqrt(norm2[ok])[:, None]
    return vals[ok], np.where(u[:, :1] < 0.0, -u, u), ok


def velocity_at(field, x) -> np.ndarray:
    """Unit velocity u at events x of shape (..., 4).

    The current is interpolated between sites and then normalized,
    so u.u = 1 to rounding and the time component stays positive.
    Raises SingularSpinor where Theta^2 + Phi^2 <= EPS_SINGULAR or the
    current is not timelike, and OutOfBounds outside the grid hull.

    field is a GridField or a LatticeCurrent.  The first reader of a
    GridField's current makes a bilinear pass over the whole grid (on a
    2-core machine, 11.8 ms on a (11, 17, 17, 17) grid, against 0.16 ms
    for one event once it is kept, see _current); a LatticeCurrent is
    sampled on its whole lattice on every call.
    """
    x = np.asarray(x, dtype=float)
    ev = x.reshape(-1, 4)
    vals = interp_values(*_current(field), ev)
    _, u, ok = _observe(vals)
    if not ok.all():
        raise SingularSpinor(
            f"no timelike current at event {ev[np.argmin(ok)].tolist()}"
        )
    return u.reshape(x.shape)


@dataclass(frozen=True)
class Trajectory:
    """A flow line: its recorded table and why it stopped.

    rows is a float64 array of shape (n, 14), one recorded sample per row,
    with the columns of CSV_FIELDS.  termination is one of "completed",
    "left_domain", "singular".
    """

    rows: np.ndarray
    termination: str

    def times(self) -> np.ndarray:
        return self.rows[:, 0]

    def positions(self) -> np.ndarray:
        return self.rows[:, 1:4]

    def events(self) -> np.ndarray:
        """Sample events as rows (t, x, y, z)."""
        return self.rows[:, :4]

    def velocities(self) -> np.ndarray:
        return self.rows[:, 6:10]

    def normalization_drift(self) -> float:
        """max |u.u - 1| over the recorded samples (0.0 if empty)."""
        if not len(self.rows):
            return 0.0
        u = self.velocities()
        return float(np.max(np.abs(minkowski_dot(u, u) - 1.0)))


def _table(t: float, x: np.ndarray, vals: np.ndarray,
           u: np.ndarray) -> np.ndarray:
    """One row per seed at x (n, 3) at time t, in the order of CSV_FIELDS."""
    root = np.sqrt(vals[:, 10])
    return np.column_stack((
        np.full(len(x), t), x, np.sqrt(0.5 * root),
        _chiral_angle(vals[:, 0], vals[:, 1]), u,
        vals[:, 6:10] / root[:, None],
    ))


def integrate_many(field, points, t0: float, t1: float, dt: float) -> list:
    """Transport every point of points (N, 3) along the current together.

    field is a GridField (its current computed once per grid, see
    _current) or a LatticeCurrent (its sites computed as the seeds read
    them).

    Classical 4th-order Runge-Kutta in coordinate time; a shorter final
    step lands exactly on t1 when (t1 - t0) is not a multiple of dt.  All
    seeds share the time steps and each stage interpolates once for the
    seeds still moving.  A seed stops at the first stage that fails for
    it, and the failure becomes its termination reason rather than an
    exception: leaving the grid hull gives "left_domain", a singular or
    non-timelike stage point gives "singular"; otherwise "completed".
    Returns one Trajectory per point, in order; t1 == t0 gives the start
    sample alone.  Raises PreconditionViolated naming a non-finite t0, t1
    or dt, a t1 before t0, a dt that is not positive, or the shape of
    points other than (N, 3) (or [], no seeds).
    """
    for name, value in (("t0", t0), ("t1", t1), ("dt", dt)):
        if not np.isfinite(value):
            raise PreconditionViolated(f"{name} must be finite, got {value}")
    if t1 < t0:
        raise PreconditionViolated(
            f"t1 = {t1} precedes t0 = {t0}: flow lines run forward in time"
        )
    if dt <= 0.0:
        raise PreconditionViolated(f"dt must be positive, got {dt}")
    x = np.array(points, dtype=float)
    if x.shape == (0,):  # no seeds
        x = x.reshape(0, 3)
    if x.ndim != 2 or x.shape[1] != 3:
        raise PreconditionViolated(
            f"points must be start points (x, y, z), shape (N, 3), got "
            f"shape {x.shape}"
        )
    # a LatticeCurrent fills its lookup as the flow lines read it
    lookup = (field.lookup() if isinstance(field, LatticeCurrent)
              else _Lookup(*_current(field)))
    t = float(t0)
    span = float(t1) - t
    n_full = int(np.floor(span / dt + 1e-12))
    steps = [dt] * n_full
    rem = span - n_full * dt
    if rem > 1e-12 * dt:
        steps.append(rem)

    ids, blocks = [], []  # per recorded step: the live seeds and their rows
    termination = ["completed"] * len(x)
    live = np.arange(len(x))  # seeds still moving, rows of every stage array

    def observe(tc, xc):
        """Evaluate the live seeds at stage points (tc, xc) and retire those
        that fail there.  Returns the mask of survivors over the rows of
        xc, with their channels and velocities."""
        nonlocal live
        ev = np.empty((len(xc), 4))
        ev[:, 0], ev[:, 1:] = tc, xc
        keep, vals = lookup(lookup.frac(ev))
        vals, u, ok = _observe(vals)
        if not (keep.all() and ok.all()):  # some seed stops here
            for i in live[~keep]:
                termination[i] = "left_domain"
            for i in live[keep][~ok]:
                termination[i] = "singular"
            keep[keep] = ok
        live = live[keep]
        return keep, vals, u

    keep, vals, u = observe(t, x)
    x = x[keep]
    ids.append(live)
    blocks.append(_table(t, x, vals, u))
    for h in steps:
        if not len(live):
            break
        # the last sample sits at (t, x): its u is this step's k1
        ks = [u[:, 1:] / u[:, :1]]
        for c in (0.5, 0.5, 1.0):
            keep, _, uc = observe(t + c * h, x + c * h * ks[-1])
            x = x[keep]
            ks = [k[keep] for k in ks] + [uc[:, 1:] / uc[:, :1]]
        k1, k2, k3, k4 = ks
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        keep, vals, u = observe(t, x)
        x = x[keep]
        ids.append(live)
        blocks.append(_table(t, x, vals, u))
    # a stable sort by seed keeps each seed's rows in time order
    ids = np.concatenate(ids)
    table = np.concatenate(blocks)[np.argsort(ids, kind="stable")]
    ends = np.cumsum(np.bincount(ids, minlength=len(termination)))
    return [Trajectory(rows=rows, termination=r)
            for rows, r in zip(np.split(table, ends[:-1]), termination)]


def integrate(field, x0, t0: float, t1: float, dt: float) -> Trajectory:
    """Transport the point x0 (3,) from t0 to t1: integrate_many for one
    seed.  Raises PreconditionViolated naming the shape of an x0 other
    than (3,)."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (3,):
        raise PreconditionViolated(
            f"x0 must be a start point (x, y, z), shape (3,), got shape "
            f"{x0.shape}"
        )
    return integrate_many(field, x0[None], t0, t1, dt)[0]


def continuity_residual(field) -> np.ndarray:
    """Divergence of the current, d_mu U^mu, at every site of a GridField
    or LatticeCurrent (sampled on its whole lattice).

    Exact solutions give O(h^2) residuals; anything else reports honestly.
    A GridField's current is computed once and kept (see _current), so
    velocity_at and integrate_many on the same grid reuse it.
    """
    _, spacing, obs = _current(field)
    dU = grid_gradient(obs[..., 2:6], spacing)
    return np.einsum("...mm->...", dU)


def momentum_along(g: GridField, traj: Trajectory,
                   ext: ExternalPotentials | None = None) -> np.ndarray:
    """Momentum P_mu interpolated at each recorded sample, shape (n, 4).

    Runs the polar pipeline once on the grid; useful for comparing the
    path direction u against P/m when beta is not small.
    """
    if ext is None:
        ext = ExternalPotentials()
    _, _, cf = polar_pipeline(g, ext)
    if not len(traj.rows):
        return np.zeros((0, 4))
    return interp_values(g.origin, g.spacing, cf.P, traj.events())


def write_csv(trajectories, path, combined: bool = False) -> list:
    """Write flow lines as CSV and return the paths written.

    combined=True puts everything in one file at `path` with a leading
    `trajectory` id column; otherwise one file per flow line, numbered
    path_000.csv, path_001.csv, ... next to the requested name.  Floats
    are written with shortest round-trip precision, so identical runs
    produce byte-identical files.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if combined:
        header = ("trajectory",) + CSV_FIELDS
        files = {path: [(f"{k},", traj)
                        for k, traj in enumerate(trajectories)]}
    else:
        header = CSV_FIELDS
        stem, suffix = path.stem, path.suffix or ".csv"
        files = {path.parent / f"{stem}_{k:03d}{suffix}": [("", traj)]
                 for k, traj in enumerate(trajectories)}
    for target, parts in files.items():
        lines = [",".join(header)]
        for lead, traj in parts:
            lines += [lead + ",".join(map(repr, row))
                      for row in traj.rows.tolist()]
        with open(target, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    return list(files)
