"""Flow lines of the conserved current.

The bilinears Theta, Phi, U^a, S^a and the modulus Theta^2 + Phi^2 are
sampled on a grid once and stacked into one array, so a single
multilinear interpolation reads everything the integrator needs at an
event.  The current is normalized on the fly; positions advance in
coordinate time with dx/dt = u_spatial / u^0 under classical RK4.
Interpolating the unnormalized current (rather than u itself) avoids
normalization kinks near zeros of the density.  All seeds of a run
advance together as one (N, 3) state, and each seed stops on its own
when a stage point leaves the grid or turns singular.  The sample
recorded at the end of a step is the next step's first stage, so each
step costs four interpolations, made for all live seeds together.

Proper time is not stored; it is recoverable by quadrature from the
recorded samples.  Paths follow u.  The momentum P along a stored path
is available separately (momentum_along) for comparison.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bilinears import compute_bilinears
from .clifford import minkowski_dot
from .connections import ExternalPotentials, polar_pipeline
from .errors import SingularSpinor
from .fields import (
    AnalyticField,
    GridField,
    grid_gradient,
    in_hull,
    interp_values,
    sample,
)
from .polar import EPS_SINGULAR

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
class CurrentField:
    """Grid samples of the observables the integrator needs.

    obs has the grid shape + (11,): Theta, Phi, U^0..U^3, S^0..S^3 and the
    singularity gauge Theta^2 + Phi^2, formed at the sites and
    interpolated as a channel of its own.
    """

    g: GridField
    obs: np.ndarray

    @classmethod
    def from_grid(cls, g: GridField) -> "CurrentField":
        bil = compute_bilinears(g.values)
        mod2 = bil.theta**2 + bil.phi_scalar**2
        return cls(g=g, obs=np.concatenate(
            (bil.theta[..., None], bil.phi_scalar[..., None], bil.U, bil.S,
             mod2[..., None]), axis=-1,
        ))


def _as_current(field) -> CurrentField:
    if isinstance(field, CurrentField):
        return field
    return CurrentField.from_grid(field)


def _observe(cur: CurrentField, ev: np.ndarray, eps_sing: float):
    """Interpolated channels and unit velocity u at events ev (n, 4).

    Returns (vals, u, ok).  ok marks the events where u is defined: a
    regular spinor (Theta^2 + Phi^2 > eps_sing) with a timelike current.
    vals and u hold those rows only, so nothing is computed on the
    others.  Raises OutOfBounds outside the grid hull.
    """
    vals = interp_values(cur.g.origin, cur.g.spacing, cur.obs, ev)
    U = vals[:, 2:6]
    norm2 = minkowski_dot(U, U)
    ok = (vals[:, 10] > eps_sing) & (norm2 > 0.0)
    u = U[ok] / np.sqrt(norm2[ok])[:, None]
    return vals[ok], np.where(u[:, :1] < 0.0, -u, u), ok


def velocity_at(field, x, eps_sing: float = EPS_SINGULAR) -> np.ndarray:
    """Unit velocity u at events x of shape (..., 4).

    The current is interpolated between sites and then normalized,
    so u.u = 1 to rounding and the time component stays positive.
    Raises SingularSpinor where Theta^2 + Phi^2 <= eps_sing or the
    current is not timelike, and OutOfBounds outside the grid hull.
    """
    x = np.asarray(x, dtype=float)
    ev = x.reshape(-1, 4)
    _, u, ok = _observe(_as_current(field), ev, eps_sing)
    if not ok.all():
        raise SingularSpinor(
            f"no timelike current at event {ev[np.argmin(ok)].tolist()}"
        )
    return u.reshape(x.shape)


@dataclass(frozen=True)
class FlowSample:
    """One recorded point of a flow line."""

    t: float
    x: np.ndarray  # spatial position, shape (3,)
    phi: float
    beta: float
    u: np.ndarray  # unit velocity, shape (4,)
    s: np.ndarray  # spin axial-vector, shape (4,)


@dataclass(frozen=True)
class Trajectory:
    """A flow line: recorded samples, the step used, and why it stopped.

    termination is one of "completed", "left_domain", "singular".
    """

    samples: list
    step: float
    termination: str

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def positions(self) -> np.ndarray:
        return np.array([s.x for s in self.samples]).reshape(-1, 3)

    def events(self) -> np.ndarray:
        """Sample events as rows (t, x, y, z)."""
        return np.array(
            [np.concatenate(([s.t], s.x)) for s in self.samples]
        ).reshape(-1, 4)

    def velocities(self) -> np.ndarray:
        return np.array([s.u for s in self.samples]).reshape(-1, 4)

    def normalization_drift(self) -> float:
        """max |u.u - 1| over the recorded samples (0.0 if empty)."""
        if not self.samples:
            return 0.0
        u = self.velocities()
        return float(np.max(np.abs(minkowski_dot(u, u) - 1.0)))


def _record(samples: list, live: np.ndarray, t: float, x: np.ndarray,
            vals: np.ndarray, u: np.ndarray) -> None:
    """Append one FlowSample at time t to the sample list of each live seed."""
    root = np.sqrt(vals[:, 10])
    phi = np.sqrt(0.5 * root)
    beta = np.arctan2(vals[:, 0], vals[:, 1])
    s = vals[:, 6:10] / root[:, None]
    for j, i in enumerate(live):
        samples[i].append(FlowSample(
            t=float(t), x=x[j], phi=float(phi[j]), beta=float(beta[j]),
            u=u[j], s=s[j],
        ))


def integrate_many(field, points, t0: float, t1: float, dt: float,
                   eps_sing: float = EPS_SINGULAR) -> list:
    """Transport every point of points (N, 3) along the current together.

    Classical 4th-order Runge-Kutta in coordinate time; a shorter final
    step lands exactly on t1 when (t1 - t0) is not a multiple of dt.  All
    seeds share the time steps and each stage interpolates once for the
    seeds still moving.  A seed stops at the first stage that fails for
    it, and the failure becomes its termination reason rather than an
    exception: leaving the grid hull gives "left_domain", a singular or
    non-timelike stage point gives "singular"; otherwise "completed".
    Returns one Trajectory per point, in order.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    cur = _as_current(field)
    x = np.array(points, dtype=float).reshape(-1, 3)
    t = float(t0)
    span = float(t1) - t
    n_full = int(np.floor(span / dt + 1e-12))
    steps = [dt] * n_full
    rem = span - n_full * dt
    if rem > 1e-12 * dt:
        steps.append(rem)

    samples = [[] for _ in x]
    termination = ["completed"] * len(x)
    live = np.arange(len(x))  # seeds still moving, rows of every stage array

    def observe(tc, xc):
        """Evaluate the live seeds at stage points (tc, xc) and retire those
        that fail there.  Returns the mask of survivors over the rows of
        xc, with their channels and velocities."""
        nonlocal live
        ev = np.concatenate((np.full((len(xc), 1), tc), xc), axis=1)
        keep = in_hull(cur.g.origin, cur.g.spacing, cur.obs.shape, ev)
        for i in live[~keep]:
            termination[i] = "left_domain"
        vals, u = np.empty((0, 11)), np.empty((0, 4))
        if keep.any():
            vals, u, ok = _observe(cur, ev[keep], eps_sing)
            for i in live[keep][~ok]:
                termination[i] = "singular"
            keep[keep] = ok
        live = live[keep]
        return keep, vals, u

    keep, vals, u = observe(t, x)
    x = x[keep]
    _record(samples, live, t, x, vals, u)
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
        _record(samples, live, t, x, vals, u)
    return [Trajectory(samples=s, step=float(dt), termination=r)
            for s, r in zip(samples, termination)]


def integrate(field, x0, t0: float, t1: float, dt: float,
              eps_sing: float = EPS_SINGULAR) -> Trajectory:
    """Transport the point x0 (3,) from t0 to t1: integrate_many for one seed."""
    return integrate_many(field, np.reshape(x0, (1, 3)), t0, t1, dt,
                          eps_sing)[0]


def continuity_residual(field, grid=None) -> np.ndarray:
    """Divergence of the current, d_mu U^mu, at every grid site.

    field may be a GridField or CurrentField (used as-is) or an
    AnalyticField, sampled where grid = (origin, spacing, dims) says.
    Exact solutions give O(h^2) residuals; anything else reports honestly.
    """
    if isinstance(field, AnalyticField):
        if grid is None:
            raise ValueError("sampling an analytic field needs a grid spec")
        origin, spacing, dims = grid
        field = sample(field, origin, spacing, dims)
    cur = _as_current(field)
    dU = grid_gradient(cur.obs[..., 2:6], cur.g.spacing)
    return np.einsum("...mm->...", dU)


def momentum_along(g: GridField, traj: Trajectory,
                   ext: ExternalPotentials | None = None) -> np.ndarray:
    """Momentum P_mu interpolated at each recorded sample, shape (n, 4).

    Runs the polar pipeline once on the grid; useful for comparing the
    path direction u against P/m when beta is not small.
    """
    if ext is None:
        ext = ExternalPotentials()
    _, _, _, cf = polar_pipeline(g, ext)
    if not traj.samples:
        return np.zeros((0, 4))
    return interp_values(g.origin, g.spacing, cf.P, traj.events())


def _rows(traj: Trajectory):
    for s in traj.samples:
        yield [
            repr(float(v))
            for v in (s.t, *s.x, s.phi, s.beta, *s.u, *s.s)
        ]


def write_csv(trajectories, path, combined: bool = False) -> list:
    """Write flow lines as CSV and return the paths written.

    combined=True puts everything in one file at `path` with a leading
    `trajectory` id column; otherwise one file per flow line, numbered
    path_000.csv, path_001.csv, ... next to the requested name.  Floats
    are written with shortest round-trip precision, so identical runs
    produce byte-identical files.
    """
    path = Path(path)
    written = []
    if combined:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("trajectory",) + CSV_FIELDS)
            for k, traj in enumerate(trajectories):
                for row in _rows(traj):
                    w.writerow([str(k)] + row)
        written.append(path)
        return written
    stem, suffix = path.stem, path.suffix or ".csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    for k, traj in enumerate(trajectories):
        target = path.parent / f"{stem}_{k:03d}{suffix}"
        with open(target, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(CSV_FIELDS)
            for row in _rows(traj):
                w.writerow(row)
        written.append(target)
    return written
