"""Spinor field configurations and grid machinery.

Two field flavors feed every verification suite:

* AnalyticField — exact free solutions (plane waves and their linear
  superpositions), evaluable anywhere with closed-form derivatives;
* GridField — a rectangular spacetime lattice of spinor values with
  2nd-order finite differences and multilinear interpolation.

Grid layout: values have shape (nt, nx, ny, nz, 4) with the spinor index
last; derivative arrays append the coordinate index mu after it.  Axes of
extent 1 are treated as constant directions (derivative zero); any
differentiated axis needs at least 5 sites so the 2nd-order edge stencils
never degrade the interior order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bilinears import compute_bilinears
from .clifford import _flip, boost_matrices, minkowski_dot, rotation_matrices
from .errors import MassMismatch, OffShell, OutOfBounds
from .polar import REFERENCE, _axis_angle_from_z

REST_SPINORS = {
    True: np.array([1.0, 0.0, 1.0, 0.0], dtype=complex),
    False: np.array([0.0, 1.0, 0.0, 1.0], dtype=complex),
}


@dataclass(frozen=True)
class AnalyticField:
    """Closed-form superposition sum_n c_n e^{-i p_n . x} a_n.

    Each amplitude a_n is the boosted rest spinor of an on-shell momentum,
    so the free Dirac equation holds term by term and hence for the sum.
    """

    mass: float
    momenta: np.ndarray  # (n, 4), upper index
    spins: tuple
    coefficients: np.ndarray  # (n,) complex
    amplitudes: np.ndarray  # (n, 4) complex

    @property
    def kind(self) -> str:
        return "plane_wave" if len(self.momenta) == 1 else "superposition"

    def at(self, x) -> np.ndarray:
        """Spinor values at events x, shape (..., 4) -> (..., 4)."""
        x = np.asarray(x, dtype=float)
        phases = np.exp(-1j * minkowski_dot(x[..., None, :], self.momenta))
        return np.einsum(
            "n,...n,nc->...c", self.coefficients, phases, self.amplitudes
        )

    def derivative_at(self, x) -> np.ndarray:
        """Exact partial derivatives, shape (..., 4 spinor, 4 mu), lower mu."""
        x = np.asarray(x, dtype=float)
        phases = np.exp(-1j * minkowski_dot(x[..., None, :], self.momenta))
        p_low = _flip(self.momenta)
        return np.einsum(
            "n,...n,nc,nm->...cm",
            self.coefficients,
            phases,
            self.amplitudes,
            -1j * p_low.astype(complex),
        )


def plane_wave(p, spin_up: bool = True, m: float = 1.0) -> AnalyticField:
    """Positive-energy plane wave e^{-i p.x} u(p) with u(p) a boosted (1,0,1,0).

    Raises OffShell unless p^0 > 0 and p.p = m^2 to 1e-12 (relative above
    unit mass scale).
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise ValueError("momentum must be a 4-vector")
    norm2 = float(minkowski_dot(p, p))
    if p[0] <= 0.0 or abs(norm2 - m * m) > 1e-12 * max(1.0, m * m):
        raise OffShell(
            f"p.p = {norm2!r} with p0 = {p[0]!r}; need p.p = m^2 = {m * m!r}"
        )
    pvec = p[1:]
    pmag = np.linalg.norm(pvec)
    chi = np.arcsinh(pmag / m)
    axis = pvec / pmag if pmag > 0.0 else np.array([0.0, 0.0, 1.0])
    lam, _ = boost_matrices(chi * axis)
    amp = lam @ REST_SPINORS[bool(spin_up)]
    return AnalyticField(
        mass=float(m),
        momenta=p[None, :].copy(),
        spins=(bool(spin_up),),
        coefficients=np.array([1.0 + 0.0j]),
        amplitudes=amp[None, :],
    )


def superpose(fields, coeffs) -> AnalyticField:
    """Linear combination of analytic fields sharing one mass."""
    fields = list(fields)
    coeffs = np.asarray(coeffs, dtype=complex)
    if len(fields) != len(coeffs):
        raise ValueError("one coefficient per field")
    mass = fields[0].mass
    for f in fields:
        if abs(f.mass - mass) > 1e-12 * max(1.0, abs(mass)):
            raise MassMismatch(f"masses {f.mass} and {mass} differ")
    momenta = np.concatenate([f.momenta for f in fields])
    spins = sum((f.spins for f in fields), ())
    amplitudes = np.concatenate([f.amplitudes for f in fields])
    coefficients = np.concatenate(
        [c * f.coefficients for c, f in zip(coeffs, fields)]
    )
    return AnalyticField(
        mass=mass,
        momenta=momenta,
        spins=spins,
        coefficients=coefficients,
        amplitudes=amplitudes,
    )


@dataclass(frozen=True)
class GridField:
    """Spinor values on a rectangular lattice.

    origin and spacing are per-axis (t, x, y, z); values has shape
    dims + (4,).  Immutable by convention after construction.
    """

    origin: np.ndarray
    spacing: np.ndarray
    dims: tuple
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))
        object.__setattr__(
            self, "spacing", np.asarray(self.spacing, dtype=float)
        )
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=complex)
        )
        if self.origin.shape != (4,) or self.spacing.shape != (4,):
            raise ValueError("origin and spacing must be 4-vectors")
        if np.any(self.spacing <= 0.0):
            raise ValueError("spacing must be positive")
        if len(self.dims) != 4:
            raise ValueError(
                f"dims must have 4 entries (t, x, y, z), got {self.dims}"
            )
        for d in self.dims:
            if d != 1 and d < 5:
                raise ValueError(
                    "differentiated axes need >= 5 sites (got %d)" % d
                )
        if self.values.shape != self.dims + (4,):
            raise ValueError(
                f"values shape {self.values.shape} != dims {self.dims} + (4,)"
            )

    def axes(self) -> list:
        return [
            self.origin[i] + self.spacing[i] * np.arange(self.dims[i])
            for i in range(4)
        ]

    def meshgrid(self) -> np.ndarray:
        """Event coordinates at every site, shape dims + (4,)."""
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(grids, axis=-1)

    def at(self, x) -> np.ndarray:
        return self.interp(x)

    def interp(self, x) -> np.ndarray:
        """Multilinear interpolation at events x of shape (..., 4)."""
        return interp_values(self.origin, self.spacing, self.values, x)

    def fd(self, axis: int, point) -> np.ndarray:
        """2nd-order derivative of the spinor along one axis at a site index.

        Central in the interior, one-sided 2nd-order at the two edge layers.
        """
        if self.dims[axis] == 1:
            return np.zeros(4, dtype=complex)
        return _site_fd(self.values, axis, point, self.spacing[axis])


def _site_fd(arr: np.ndarray, axis: int, point, h: float) -> np.ndarray:
    """GridField.fd for any arr with the grid on its first four axes.

    Written out site by site, apart from np.gradient, so that it can serve
    as an oracle for grid_gradient.
    """
    i = point[axis]
    n = arr.shape[axis]

    def grab(j):
        q = list(point)
        q[axis] = j
        return arr[tuple(q)]

    if 0 < i < n - 1:
        return (grab(i + 1) - grab(i - 1)) / (2.0 * h)
    if i == 0:
        return (-3.0 * grab(0) + 4.0 * grab(1) - grab(2)) / (2.0 * h)
    return (3.0 * grab(n - 1) - 4.0 * grab(n - 2) + grab(n - 3)) / (2.0 * h)


def in_hull(origin, spacing, shape, x) -> np.ndarray:
    """True at the events x (..., 4) inside the hull of a lattice.

    shape gives the lattice extents (nt, nx, ny, nz); trailing entries are
    ignored.  Axes of extent 1 are constant directions and accept any
    finite coordinate.  A NaN coordinate counts as outside.
    """
    frac = (np.asarray(x, dtype=float) - origin) / spacing
    inside = np.isfinite(frac)
    for ax in range(4):
        n = shape[ax]
        if n > 1:
            f = frac[..., ax]
            inside[..., ax] = (f >= -1e-9) & (f <= n - 1 + 1e-9)
    return inside.all(axis=-1)


def interp_values(origin, spacing, arr, x) -> np.ndarray:
    """Multilinear interpolation of grid samples at events x of shape (..., 4).

    arr carries the grid on its first four axes; trailing axes pass
    through unchanged.  Axes of extent 1 are constant directions and
    accept any finite coordinate.  Raises OutOfBounds, naming the first
    offending event, where in_hull is False.
    """
    origin = np.asarray(origin, dtype=float)
    spacing = np.asarray(spacing, dtype=float)
    arr = np.asarray(arr)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = x.reshape(-1, 4)
    inside = in_hull(origin, spacing, arr.shape, pts)
    if not inside.all():
        raise OutOfBounds(
            f"event {pts[np.argmin(inside)].tolist()} outside the grid hull"
        )
    frac = (pts - origin) / spacing
    # flat site index and weight of each of the 2^k corners around every
    # event, k the number of axes longer than 1; the weight is the product
    # of the per-axis weights taken in axis order
    flat = np.zeros((len(pts), 1), dtype=int)
    w = np.ones((len(pts), 1))
    for ax in range(4):
        n = arr.shape[ax]
        flat = flat * n
        if n == 1:
            continue
        f = frac[:, ax]
        i0 = np.clip(np.floor(f).astype(int), 0, n - 2)
        t = f - i0
        pair = np.empty((len(pts), 1, 2))
        pair[:, 0, 0] = 1.0 - t
        pair[:, 0, 1] = t
        k = 2 * flat.shape[1]
        flat = (flat[:, :, None] + i0[:, None, None] + (0, 1)).reshape(-1, k)
        w = (w[:, :, None] * pair).reshape(-1, k)
    trail = arr.shape[4:]
    terms = w.reshape(w.shape + (1,) * len(trail)) * arr.reshape(
        (-1,) + trail
    )[flat]
    out = np.zeros((len(pts),) + trail, dtype=terms.dtype)
    for k in range(terms.shape[1]):
        out += terms[:, k]
    return out[0] if scalar else out.reshape(x.shape[:-1] + trail)


def grid_gradient(arr: np.ndarray, spacing) -> np.ndarray:
    """Per-axis 2nd-order derivatives of a grid array.

    The first four axes of arr are the grid; any trailing axes are carried
    along.  Returns arr.shape + (4,) with the coordinate index mu last;
    axes of extent 1 contribute zeros.
    """
    spacing = np.asarray(spacing, dtype=float)
    arr = np.asarray(arr)
    dtype = arr.dtype if np.issubdtype(arr.dtype, np.inexact) else float
    out = np.zeros(arr.shape + (4,), dtype=dtype)
    for ax in range(4):
        if arr.shape[ax] > 1:
            out[..., ax] = np.gradient(arr, spacing[ax], axis=ax, edge_order=2)
    return out


def _phase_gradient(angle: np.ndarray, spacing) -> np.ndarray:
    """grid_gradient of an angle wrapped to (-pi, pi], read across its cut.

    Where a stencil straddles the branch cut (two neighbours more than pi
    apart) the derivative comes from the 2 pi-unwrapped samples; every
    other site keeps the grid_gradient value bit for bit.
    """
    out = grid_gradient(angle, spacing)
    for ax in range(4):
        if angle.shape[ax] == 1:
            continue
        # jump[j] marks the pair (j, j + 1) along ax
        jump = np.moveaxis(np.abs(np.diff(angle, axis=ax)) > np.pi, ax, 0)
        if not jump.any():
            continue
        # site i reads the pairs i - 1 and i, an edge its two nearest pairs
        pairs = np.concatenate([jump[1:2], jump, jump[-2:-1]])
        straddle = pairs[:-1] | pairs[1:]
        unwrapped = np.gradient(
            np.unwrap(angle, axis=ax), spacing[ax], axis=ax, edge_order=2
        )
        out[..., ax] = np.where(
            np.moveaxis(straddle, 0, ax), unwrapped, out[..., ax]
        )
    return out


def interior(dims, margin: int = 2) -> tuple:
    """Slices selecting points at least `margin` sites from active-axis edges."""
    out = []
    for d in dims:
        if d == 1:
            out.append(slice(None))
        else:
            out.append(slice(margin, d - margin))
    return tuple(out)


EXACT_FLOOR = 1e-12


def convergence_order(
    coarse: np.ndarray,
    fine: np.ndarray,
    margin: int = 2,
    floor: float = EXACT_FLOOR,
):
    """Measured order of a residual under grid halving.

    The coarse grid is read from the first four axes of coarse.  The fine
    grid must have 2d-1 sites per active axis over the same extent, so its
    even-index sites coincide with the coarse sites; maxima are then
    compared over the identical physical interior.  Returns
    (order, max_coarse, max_fine); order is None when both maxima are below
    `floor`, meaning the residual vanishes identically rather than at O(h^2).
    """
    dims = coarse.shape[:4]
    slf = tuple(
        slice(None) if d == 1 else slice(2 * margin, 2 * (d - margin) - 1, 2)
        for d in dims
    )
    mc = float(np.max(np.abs(coarse[interior(dims, margin)])))
    mf = float(np.max(np.abs(fine[slf])))
    if mc < floor and mf < floor:
        return None, mc, mf
    return float(np.log2(mc / mf)), mc, mf


def sample(f: AnalyticField, origin, spacing, dims) -> GridField:
    """Evaluate an analytic field on a lattice (exact at every site)."""
    g = GridField(
        origin=origin,
        spacing=spacing,
        dims=tuple(dims),
        values=np.zeros(tuple(dims) + (4,), dtype=complex),
    )
    values = f.at(g.meshgrid())
    return GridField(origin=origin, spacing=spacing, dims=tuple(dims), values=values)


def gaussian_packet(
    k: float,
    K: float = 1.0,
    s_axis=(0.0, 0.0, 1.0),
    dims=(1, 25, 25, 25),
    half_width: float | None = None,
) -> GridField:
    """Static module bump phi = K exp(-k r^2 / 16) at rest with fixed spin.

    beta = 0, u = (1,0,0,0), spin along s_axis, no Goldstone boost and a
    constant spin-alignment rotation, zero phase.  The default box spans
    +-half_width (default 2/sqrt(k)) around the origin on each spatial axis.
    """
    if k <= 0.0 or K <= 0.0:
        raise ValueError("k and K must be positive")
    s_axis = np.asarray(s_axis, dtype=float)
    s_axis = s_axis / np.linalg.norm(s_axis)
    if half_width is None:
        half_width = 2.0 / np.sqrt(k)
    dims = tuple(int(d) for d in dims)
    spacing = np.array(
        [1.0]
        + [
            2.0 * half_width / (dims[i] - 1) if dims[i] > 1 else 1.0
            for i in (1, 2, 3)
        ]
    )
    origin = np.array(
        [0.0]
        + [-half_width if dims[i] > 1 else 0.0 for i in (1, 2, 3)]
    )
    shell = GridField(
        origin=origin,
        spacing=spacing,
        dims=dims,
        values=np.zeros(dims + (4,), dtype=complex),
    )
    coords = shell.meshgrid()
    r2 = np.sum(coords[..., 1:] ** 2, axis=-1)
    phi = K * np.exp(-k * r2 / 16.0)
    theta = _axis_angle_from_z(s_axis)
    rot, _ = rotation_matrices(theta)
    rest = rot @ REFERENCE
    values = phi[..., None] * rest
    return GridField(origin=origin, spacing=spacing, dims=dims, values=values)


@dataclass(frozen=True)
class SingularScan:
    count: int
    min_mod2: float
    indices: np.ndarray


def scan_singular(g: GridField, threshold: float = 1e-12) -> SingularScan:
    """Locate lattice sites where Theta^2 + Phi^2 dips below a threshold.

    Reporting, not raising: superpositions legitimately develop nodes and
    callers need to know where before running the polar pipeline.
    """
    b = compute_bilinears(g.values)
    mod2 = b.theta**2 + b.phi_scalar**2
    mask = mod2 <= threshold
    return SingularScan(
        count=int(np.sum(mask)),
        min_mod2=float(np.min(mod2)),
        indices=np.argwhere(mask),
    )


GRID_MAGIC = "polardirac-grid v1"


def save_grid(g: GridField, path) -> None:
    """Write a grid field: text header, then little-endian float64 pairs.

    Payload is C-order over (t, x, y, z, spinor component), each complex
    number stored as (real, imag).
    """
    header = (
        f"{GRID_MAGIC}\n"
        f"origin: {' '.join('%.17g' % v for v in g.origin)}\n"
        f"spacing: {' '.join('%.17g' % v for v in g.spacing)}\n"
        f"dims: {' '.join(str(d) for d in g.dims)}\n"
        f"data: little-endian float64 (re,im) pairs, C order\n"
    )
    flat = np.ascontiguousarray(g.values)
    pairs = np.empty(flat.shape + (2,), dtype="<f8")
    pairs[..., 0] = flat.real
    pairs[..., 1] = flat.imag
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(pairs.tobytes())


def load_grid(path) -> GridField:
    """Read back a grid written by save_grid; ValueError if the magic line
    or a header key is missing, or the payload does not fit the dims."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head, _, rest = blob.partition(b"data: little-endian float64 (re,im) pairs, C order\n")
    lines = head.decode("ascii").strip().splitlines()
    if not lines or lines[0] != GRID_MAGIC:
        raise ValueError("not a grid-field file")
    fields = {}
    for line in lines[1:]:
        key, _, val = line.partition(":")
        fields[key.strip()] = val.strip()
    for key in ("origin", "spacing", "dims"):
        if key not in fields:
            raise ValueError(f"grid-field header lacks the '{key}' line")
    origin = np.array([float(v) for v in fields["origin"].split()])
    spacing = np.array([float(v) for v in fields["spacing"].split()])
    dims = tuple(int(v) for v in fields["dims"].split())
    expected = int(np.prod(dims)) * 4 * 2 * 8
    if len(rest) != expected:
        raise ValueError(
            f"grid-field payload holds {len(rest)} bytes; dims {dims} "
            f"need {expected}"
        )
    pairs = np.frombuffer(rest, dtype="<f8").reshape(dims + (4, 2))
    values = pairs[..., 0] + 1j * pairs[..., 1]
    return GridField(origin=origin, spacing=spacing, dims=dims, values=values)
