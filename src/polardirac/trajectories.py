"""Flow lines of the conserved current.

The bilinears Theta, Phi, U^a, S^a and the modulus Theta^2 + Phi^2 are
sampled on a grid once and stacked into one array, so a single
multilinear interpolation reads everything the integrator needs at an
event.  The current is normalized on the fly; positions advance in
coordinate time with dx/dt = u_spatial / u^0 under classical RK4.
Interpolating the unnormalized current (rather than u itself) avoids
normalization kinks near zeros of the density.  The sample recorded at
the end of a step is the next step's first stage, so each step costs
four interpolations.

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
from .errors import OutOfBounds, SingularSpinor
from .fields import AnalyticField, GridField, grid_gradient, interp_values, sample
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


def _observe(cur: CurrentField, x, eps_sing: float):
    """Interpolated channels and unit velocity u at events x (..., 4)."""
    vals = interp_values(cur.g.origin, cur.g.spacing, cur.obs, x)
    if np.any(vals[..., 10] <= eps_sing):
        raise SingularSpinor("spinor field is singular at the requested point")
    U = vals[..., 2:6]
    norm2 = minkowski_dot(U, U)
    if np.any(norm2 <= 0.0):
        raise SingularSpinor("current is not timelike at the requested point")
    u = U / np.sqrt(norm2)[..., None]
    return vals, np.where(u[..., :1] < 0.0, -u, u)


def velocity_at(field, x, eps_sing: float = EPS_SINGULAR) -> np.ndarray:
    """Unit velocity u at events x of shape (..., 4).

    The current is interpolated between sites and then normalized,
    so u.u = 1 to rounding and the time component stays positive.
    Raises SingularSpinor where Theta^2 + Phi^2 <= eps_sing, and
    OutOfBounds outside the grid hull.
    """
    return _observe(_as_current(field), x, eps_sing)[1]


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


def _record(cur: CurrentField, t: float, x3: np.ndarray,
            eps_sing: float) -> FlowSample:
    vals, u = _observe(cur, np.concatenate(([t], x3)), eps_sing)
    mod2 = float(vals[10])
    return FlowSample(
        t=float(t),
        x=np.array(x3, dtype=float),
        phi=float(np.sqrt(0.5 * np.sqrt(mod2))),
        beta=float(np.arctan2(vals[0], vals[1])),
        u=u,
        s=vals[6:10] / np.sqrt(mod2),
    )


def integrate(field, x0, t0: float, t1: float, dt: float,
              eps_sing: float = EPS_SINGULAR) -> Trajectory:
    """Transport a point along the current from t0 to t1 in steps of dt.

    Classical 4th-order Runge-Kutta in coordinate time; a shorter final
    step lands exactly on t1 when (t1 - t0) is not a multiple of dt.
    Failure modes become the termination reason rather than exceptions:
    leaving the grid hull gives "left_domain", a singular stage point
    gives "singular"; otherwise "completed".
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    cur = _as_current(field)
    x = np.array(x0, dtype=float).reshape(3)
    t = float(t0)
    span = float(t1) - t
    n_full = int(np.floor(span / dt + 1e-12))
    steps = [dt] * n_full
    rem = span - n_full * dt
    if rem > 1e-12 * dt:
        steps.append(rem)

    def rhs(tc, xc):
        u = _observe(cur, np.concatenate(([tc], xc)), eps_sing)[1]
        return u[1:] / u[0]

    samples = []
    termination = "completed"
    try:
        samples.append(_record(cur, t, x, eps_sing))
        for h in steps:
            # the last sample sits at (t, x): its u is this step's k1
            u = samples[-1].u
            k1 = u[1:] / u[0]
            k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
            k4 = rhs(t + h, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = t + h
            samples.append(_record(cur, t, x, eps_sing))
    except OutOfBounds:
        termination = "left_domain"
    except SingularSpinor:
        termination = "singular"
    return Trajectory(samples=samples, step=float(dt), termination=termination)


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
