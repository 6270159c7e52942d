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

import contextvars
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .clifford import _axis_angle_from_z, _flip, _spin_blocks, minkowski_dot
from .errors import MassMismatch, OffShell, OutOfBounds, PreconditionViolated

_AXES = ("t", "x", "y", "z")


@dataclass(frozen=True)
class AnalyticField:
    """Closed-form superposition sum_n c_n e^{-i p_n . x} a_n.

    Each amplitude a_n is the boosted rest spinor of an on-shell momentum,
    so the free Dirac equation holds term by term and hence for the sum.
    """

    mass: float
    momenta: np.ndarray  # (n, 4), upper index
    coefficients: np.ndarray  # (n,) complex
    amplitudes: np.ndarray  # (n, 4) complex

    def _phases(self, x) -> np.ndarray:
        """e^{-i p_n . x} at events x, shape (..., 4) -> (..., n), as cos
        and -sin in one complex array: the bits of np.exp(-1j * p.x)."""
        x = np.asarray(x, dtype=float)
        angle = x @ _flip(self.momenta).T
        out = np.empty(angle.shape, dtype=complex)
        out.real, out.imag = np.cos(angle), -np.sin(angle)
        return out

    def at(self, x) -> np.ndarray:
        """Spinor values at events x, shape (..., 4) -> (..., 4)."""
        return self._phases(x) @ (self.coefficients[:, None] * self.amplitudes)

    def derivative_at(self, x) -> np.ndarray:
        """Exact partial derivatives, shape (..., 4 spinor, 4 mu), lower mu."""
        # d_mu e^{-i p.x} = -i p_mu e^{-i p.x}: one (c, mu) table per wave
        terms = (-1j * self.coefficients[:, None, None]) * (
            self.amplitudes[:, :, None] * _flip(self.momenta)[:, None, :]
        )
        phases = self._phases(x)
        out = phases @ terms.reshape(len(terms), 16)
        return out.reshape(phases.shape[:-1] + (4, 4))


def plane_wave(p, spin_up: bool = True, m: float = 1.0) -> AnalyticField:
    """Positive-energy plane wave e^{-i p.x} u(p) with u(p) a boosted (1,0,1,0).

    Raises PreconditionViolated for a mass that is not finite and
    positive or a momentum entry that is not finite, and OffShell unless
    p^0 > 0 and p.p = m^2 to 1e-12 (relative above unit mass scale).
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise ValueError("momentum must be a 4-vector")
    if not 0.0 < m < math.inf:
        raise PreconditionViolated(
            f"plane_wave needs a finite mass m > 0, got m = {m}"
        )
    _require_finite(p, "plane_wave momentum entry", "p must be finite")
    norm2 = float(minkowski_dot(p, p))
    if p[0] <= 0.0 or abs(norm2 - m * m) > 1e-12 * max(1.0, m * m):
        raise OffShell(
            f"p.p = {norm2!r} with p0 = {p[0]!r}; need p.p = m^2 = {m * m!r}"
        )
    pvec = p[1:]
    pmag = np.linalg.norm(pvec)
    chi = np.arcsinh(pmag / m)
    axis = pvec / pmag if pmag > 0.0 else np.array([0.0, 0.0, 1.0])
    # B(chi) (1,0,1,0) or B(chi) (0,1,0,1): column 0 or 1 of each chiral block
    amp = _spin_blocks(chi * axis)[..., 0 if spin_up else 1].reshape(4)
    return AnalyticField(
        mass=float(m),
        momenta=p[None, :].copy(),
        coefficients=np.array([1.0 + 0.0j]),
        amplitudes=amp[None, :],
    )


def superpose(fields, coeffs) -> AnalyticField:
    """Linear combination of analytic fields sharing one mass."""
    fields = list(fields)
    coeffs = np.asarray(coeffs, dtype=complex)
    if len(fields) != len(coeffs):
        raise ValueError("one coefficient per field")
    if not fields:
        raise PreconditionViolated("superpose needs at least one field")
    mass = fields[0].mass
    for f in fields:
        if abs(f.mass - mass) > 1e-12 * max(1.0, abs(mass)):
            raise MassMismatch(f"masses {f.mass} and {mass} differ")
    momenta = np.concatenate([f.momenta for f in fields])
    amplitudes = np.concatenate([f.amplitudes for f in fields])
    coefficients = np.concatenate(
        [c * f.coefficients for c, f in zip(coeffs, fields)]
    )
    return AnalyticField(
        mass=mass,
        momenta=momenta,
        coefficients=coefficients,
        amplitudes=amplitudes,
    )


@dataclass(frozen=True)
class GridField:
    """Spinor values on a rectangular lattice.

    origin and spacing are per-axis (t, x, y, z); values has shape
    dims + (4,).  A non-finite entry of any of the three raises
    PreconditionViolated naming its index.  Immutable by convention after
    construction: _memo keeps, read-only and each computed on first use,
    the polar data and Goldstone derivatives (not L) that
    connections.polar_pipeline reads off the values, per q, and under the
    key "current" the observables of the current that the flow-line
    readers of trajectories interpolate (trajectories._current).
    """

    origin: np.ndarray
    spacing: np.ndarray
    dims: tuple
    values: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        lattice = _lattice(self.origin, self.spacing, self.dims)
        for name, value in zip(("origin", "spacing", "dims"), lattice):
            object.__setattr__(self, name, value)
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        if values.shape != self.dims + (4,):
            raise PreconditionViolated(
                f"values shape {values.shape} != dims {self.dims} + (4,)"
            )
        _require_finite(values, "GridField values entry",
                        "a grid field needs finite input")

    def meshgrid(self) -> np.ndarray:
        """Event coordinates at every site, shape dims + (4,)."""
        return _lattice_events(self.origin, self.spacing, self.dims)

    def at(self, x) -> np.ndarray:
        return self.interp(x)

    def interp(self, x) -> np.ndarray:
        """Multilinear interpolation at events x of shape (..., 4)."""
        return interp_values(self.origin, self.spacing, self.values, x)


def _lattice(origin, spacing, dims):
    """(origin, spacing, dims) as two float 4-vectors and an int 4-tuple.

    Raises PreconditionViolated naming the entry, axis or value of an
    origin or spacing that _lattice_vector refuses, dims without four
    entries or an axis of 2-4 sites.
    """
    origin = _lattice_vector(origin, "origin")
    spacing = _lattice_vector(spacing, "spacing")
    dims = tuple(int(d) for d in dims)
    if len(dims) != 4:
        raise PreconditionViolated(
            f"dims must have 4 entries (t, x, y, z), got {dims}"
        )
    for axis, d in zip(_AXES, dims):
        if d != 1 and d < 5:
            raise PreconditionViolated(
                f"lattice axis {axis} has {d} sites: a differentiated axis "
                "needs >= 5 sites (or 1, a constant direction)"
            )
    return origin, spacing, dims


def _lattice_vector(vec, name: str, entry: str = "lattice") -> np.ndarray:
    """vec, the origin or spacing (name) of a lattice, as a float 4-vector.

    Raises PreconditionViolated naming entry (what reads it), name and the
    shape, entry index or axis of a vec that is not a finite 4-vector, or
    of a spacing that is not positive.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (4,):
        raise PreconditionViolated(
            f"{entry} {name} must be a 4-vector (t, x, y, z), "
            f"got shape {vec.shape}"
        )
    _require_finite(vec, f"{entry} {name} entry", "a lattice needs finite input")
    if name == "spacing":
        for axis, h in zip(_AXES, vec):
            if h <= 0.0:
                raise PreconditionViolated(
                    f"{entry} spacing along {axis} is {h}: a spacing must be "
                    "positive"
                )
    return vec


def _lattice_events(origin, spacing, dims) -> np.ndarray:
    """Event coordinates (t, x, y, z) at every site of the lattice with
    that origin, spacing and dims, shape dims + (4,); the lattice is
    checked by _lattice."""
    origin, spacing, dims = _lattice(origin, spacing, dims)
    axes = [o + h * np.arange(n) for o, h, n in zip(origin, spacing, dims)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _require_finite(arr, what: str, why: str) -> None:
    """Raise PreconditionViolated, 'what (index) is value: why', at the
    first entry of arr that is not finite."""
    finite = np.isfinite(arr)
    if not finite.all():
        where = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise PreconditionViolated(f"{what} {where} is {arr[where]}: {why}")


def _site_location(index, origin=None, spacing=None) -> str:
    """'grid index (i, j, k, l)' of a site, with ', event (t, x, y, z) =
    [...]' when the lattice origin (and spacing) are given, for errors."""
    index = tuple(int(i) for i in index)
    where = f"grid index {index}"
    if origin is None:
        return where
    event = np.asarray(origin, dtype=float) + np.asarray(spacing) * index
    return f"{where}, event (t, x, y, z) = {event.tolist()}"


def _grid_array(arr, what: str) -> np.ndarray:
    """arr as an array; PreconditionViolated, naming what reads it and its
    shape, when it has fewer than the four grid axes (t, x, y, z)."""
    arr = np.asarray(arr)
    if arr.ndim < 4:
        raise PreconditionViolated(
            f"{what} needs the four grid axes (t, x, y, z), got an array of "
            f"shape {arr.shape}"
        )
    return arr


class _Lookup:
    """Multilinear interpolation of one grid array, its lattice constants
    computed once.

    arr carries the grid on its first four axes (PreconditionViolated,
    naming its shape, when it has fewer); trailing axes pass through
    unchanged.  Axes of extent 1 are constant directions.  The
    k axes longer than 1 are active: an event reads the 2^k corners of
    its lattice cell, corner c taking the upper site along active axis j
    where bit k - 1 - j of c is set.  frac maps events to lattice
    coordinates, inside is the hull rule and a call interpolates.

    With a site function fill, the table is filled lazily: arr starts
    unset (np.empty will do), and a call first sets the corners it reads
    that no earlier call read, in one fill(sites) with their flat site
    indices (sorted, each once), which returns their values (m,) + trail.
    Each site is then computed once for the life of the lookup, and a
    site no event reads never is.
    """

    def __init__(self, origin, spacing, arr, fill=None):
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = np.asarray(spacing, dtype=float)
        arr = _grid_array(arr, "a grid lookup")
        dims = np.array(arr.shape[:4])
        self.trail = arr.shape[4:]
        self.table = arr.reshape((math.prod(arr.shape[:4]),) + self.trail)
        self.fill = fill
        self.known = None if fill is None else np.zeros(len(self.table), bool)
        self.active = np.flatnonzero(dims > 1)
        self.constant = np.flatnonzero(dims == 1)
        self.top = dims[self.active, None] - 2  # the last lower corner
        self.bound = dims[self.active] - 1 + 1e-9  # the hull's upper face
        k = len(self.active)
        self.bits = (np.arange(2**k)[:, None] >> np.arange(k)[::-1]) & 1
        self.axis = np.arange(k)  # the active axis of each bits column
        # flat index strides of the sites along the active axes, and the
        # flat offset of each corner from the cell's lower corner
        self.strides = np.array(
            [math.prod(arr.shape[ax + 1:4]) for ax in self.active], dtype=int
        )
        self.offsets = self.bits @ self.strides

    def frac(self, x) -> np.ndarray:
        """Lattice coordinates (x - origin) / spacing of events x (..., 4)."""
        return (np.asarray(x, dtype=float) - self.origin) / self.spacing

    def inside(self, frac) -> np.ndarray:
        """True at the events of lattice coordinates frac (..., 4) inside
        the hull, with 1e-9 of slack: an active axis holds the coordinate
        to [0, n - 1], a constant axis to any finite one, and NaN fails
        both."""
        f = frac[..., self.active]
        inside = ((f >= -1e-9) & (f <= self.bound)).all(axis=-1)
        if len(self.constant):
            inside &= np.isfinite(frac[..., self.constant]).all(axis=-1)
        return inside

    def __call__(self, frac):
        """(inside, values): the hull mask of events of lattice coordinates
        frac (n, 4), and the values interpolated at the rows inside it,
        shape (inside.sum(),) + trail."""
        inside = self.inside(frac)
        if not inside.all():
            frac = frac[inside]
        f = frac[:, self.active].T  # (k, n)
        lower = np.floor(f).astype(int)
        np.maximum(lower, 0, out=lower)
        np.minimum(lower, self.top, out=lower)
        # each corner's weight is the product of its per-axis weights
        # (lower site 1 - t, upper t), in axis order; shape (2^k, n)
        pair = np.empty((2,) + f.shape)
        np.subtract(f, lower, out=pair[1])
        np.subtract(1.0, pair[1], out=pair[0])
        w = np.multiply.reduce(pair[self.bits, self.axis], axis=1)
        corners = self.offsets[:, None] + self.strides @ lower
        if self.fill is not None:
            new = np.unique(corners[~self.known[corners]])
            if len(new):
                self.table[new] = self.fill(new)
                self.known[new] = True
        terms = w.reshape(w.shape + (1,) * len(self.trail)) * self.table.take(
            corners, axis=0
        )
        # the corner sum in corner order from 0.0: add.reduce over the
        # leading axis adds the corners one by one, unless each is a lone
        # number, which it sums pairwise; a running sum plus 0.0 (for the
        # signs of zero) stands in there
        if terms[0].size == 1:
            return inside, np.add.accumulate(terms)[-1] + 0.0
        return inside, np.add.reduce(terms, axis=0, initial=0.0)


def interp_values(origin, spacing, arr, x) -> np.ndarray:
    """Multilinear interpolation of grid samples at events x of shape (..., 4).

    arr carries the grid on its first four axes (see _Lookup); trailing
    axes pass through unchanged.  Axes of extent 1 are constant directions
    and accept any finite coordinate; a NaN coordinate is outside the hull.
    Raises OutOfBounds naming the first event outside it, and
    PreconditionViolated naming an origin or spacing that _lattice_vector
    refuses, or the shape of events whose last axis is not 4.
    """
    origin = _lattice_vector(origin, "origin", "interp_values")
    spacing = _lattice_vector(spacing, "spacing", "interp_values")
    lookup = _Lookup(origin, spacing, arr)
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (4,):
        raise PreconditionViolated(
            f"interp_values needs events (t, x, y, z) on their last axis, "
            f"got shape {x.shape}"
        )
    pts = x.reshape(-1, 4)
    inside, out = lookup(lookup.frac(pts))
    if not inside.all():
        raise OutOfBounds(
            f"event {pts[np.argmin(inside)].tolist()} outside the grid hull"
        )
    return out[0] if x.ndim == 1 else out.reshape(x.shape[:-1] + lookup.trail)


# Every grid evaluator is site-local apart from the stencil of
# grid_gradient, so it splits over slabs of a grid axis with no change in
# the arithmetic at any site.  _slabs takes one of three paths.
# - Grids of _SLAB_MIN_SITES sites or more, when this process may run on
#   two CPUs or more: slabs of about _SLAB_SITES sites on one thread per
#   CPU (numpy releases the GIL in its array loops), the calling thread
#   included, started per call and joined before it returns: about
#   0.1 ms a call, and no thread outlives it.
# - Other grids with room for two slabs of about _SERIAL_SLAB_SITES
#   sites: those slabs one after another on the calling thread, so that
#   only one slab's temporaries are alive at a time.  On 2 CPUs this took
#   the peak RSS of a perfbench verify run from 70.0 to 57.8 MB (1,024
#   sites: 57.5), at about 8 % of its speed (more page faults), and on
#   one CPU that of a pipeline-33 op from 248 to 168 MB.  Threads cost
#   more here: verify's then whole 17^3 gauge fields threaded peaked at
#   71.7 MB and took 200-212 ms of CPU time an op, against 165-193 ms in
#   one call.  verify now builds 13^3 windows of them (2,197 sites), two
#   serial slabs each.
# - Everything else (fewer sites, arrays without four grid axes, a call
#   made inside a slab): one call over the whole grid.
_SLAB_MIN_SITES = 16384
_SLAB_SITES = 4096  # about this many sites per slab, and >= 1 slab per thread
_SERIAL_SLAB_SITES = 2048  # the same on the calling thread alone
_in_slab = contextvars.ContextVar("_in_slab", default=False)  # nested: inline


def _slab_workers() -> int:
    """Threads per _slabs call: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slab_edges(grid_shape, workers: int):
    """(axis, edges): _slabs cuts grid_shape along its first largest axis
    into the slabs edges[i] <= index < edges[i + 1], at least one per
    worker and about _SLAB_SITES sites each (_SERIAL_SLAB_SITES for one
    worker)."""
    axis = int(np.argmax(grid_shape))
    n = grid_shape[axis]
    sites = _SLAB_SITES if workers > 1 else _SERIAL_SLAB_SITES
    count = min(n, max(workers, -(-math.prod(grid_shape) // sites)))
    return axis, [n * i // count for i in range(count + 1)]


def _slabs(slab_fn, grid_shape):
    """slab_fn over slabs of the largest axis of grid_shape.

    slab_fn(sl) computes the part of a result on the sites sl, an index
    tuple (slice(None),) * axis + (slice(lo, hi),): an array or a tuple of
    arrays led by those sites' grid axes.  The parts fill outputs shaped
    grid_shape + their trailing axes, with the bits of slab_fn(()), the
    whole grid in one call.  That call is made instead for a grid_shape
    of other than 4 axes, in a nested call and where _slab_edges leaves
    one slab.  The slabs run on one thread per CPU from _SLAB_MIN_SITES
    sites up, and on the calling thread alone below that or on one CPU.
    The calling thread takes slab 0, starts the helper threads (if any),
    computes slab 0 and allocates the outputs from it, so none lands in a
    helper's allocator arena; a helper that finishes a slab before then
    waits.  Then it takes slabs like any helper.  Helpers run in a copy
    of the caller's context (its np.errstate holds).  An exception raised
    in slabs is raised here once all have stopped: the one of the lowest
    slab.
    """
    if len(grid_shape) != 4 or _in_slab.get():
        return slab_fn(())
    big = math.prod(grid_shape) >= _SLAB_MIN_SITES
    workers = _slab_workers() if big else 1
    axis, edges = _slab_edges(grid_shape, workers)
    if len(edges) < 3:  # one slab
        return slab_fn(())
    lead = (slice(None),) * axis
    slabs = [lead + (slice(*ends),) for ends in zip(edges, edges[1:])]
    todo = iter(range(1, len(slabs)))  # slab 0 is the calling thread's
    lock, allocated = threading.Lock(), threading.Event()
    outs, errors = [], {}

    def work():
        while True:
            with lock:
                i = next(todo, None)
                if i is None or errors:
                    return
            try:
                res = slab_fn(slabs[i])
            except Exception as exc:  # raised by the calling thread below
                with lock:
                    errors[i] = exc
                return
            allocated.wait()
            if not outs:  # slab 0 raised
                return
            for out, part in zip(outs, (res,) if single else res):
                out[slabs[i]] = part

    token = _in_slab.set(True)  # before the helpers copy the context
    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(work,))
        for _ in range(min(workers, len(slabs)) - 1)
    ]
    for thread in threads:
        thread.start()
    try:
        first = slab_fn(slabs[0])
        single = isinstance(first, np.ndarray)
        parts = (first,) if single else first
        outs.extend(
            np.empty(tuple(grid_shape) + p.shape[4:], p.dtype) for p in parts
        )
        allocated.set()
        for out, part in zip(outs, parts):
            out[slabs[0]] = part
        work()
    finally:
        allocated.set()  # also when slab 0 raised: no helper waits forever
        _in_slab.reset(token)
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return outs[0] if single else tuple(outs)


def _slab_gradient(arr: np.ndarray, spacing, sl) -> np.ndarray:
    """grid_gradient(arr, spacing)[sl] for the sites sl of a _slabs call
    (() for the whole grid), read from arr[sl] and a one-site halo along
    the slab axis."""
    spacing = np.asarray(spacing, dtype=float)
    dtype = arr.dtype if np.issubdtype(arr.dtype, np.inexact) else float
    out = np.zeros(arr[sl].shape + (4,), dtype=dtype)
    for ax in range(4):
        n = arr.shape[ax]
        if n == 1:
            continue
        if ax != len(sl) - 1:
            out[..., ax] = np.gradient(
                arr[sl], spacing[ax], axis=ax, edge_order=2
            )
            continue
        # along the slab axis, difference the slab widened by a site each
        # way within the grid, so that every stencil it keeps is whole; an
        # edge stencil reads three sites
        lo, hi = sl[ax].start, sl[ax].stop
        wide_lo, wide_hi = max(lo - 1, 0), min(hi + 1, n)
        if wide_hi - wide_lo < 3:  # a one-site slab at an edge
            wide_lo, wide_hi = min(wide_lo, n - 3), max(wide_hi, 3)
        wide = sl[:ax] + (slice(wide_lo, wide_hi),)
        keep = sl[:ax] + (slice(lo - wide_lo, hi - wide_lo),)
        out[..., ax] = np.gradient(
            arr[wide], spacing[ax], axis=ax, edge_order=2
        )[keep]
    return out


def _sitewise(kernel, grid_shape, *grids, gradients=(), spacing=None):
    """kernel(*grids) for a site-local kernel, computed by _slabs.

    grids are arrays led by the grid axes grid_shape; kernel must compute
    each site from that site's entries alone and return an array, or a
    tuple of arrays, led by the grid axes of its inputs.  Everything else
    kernel needs it takes from its closure, unsliced.  Kernels call no
    public function of the package: a slab may run on another thread.

    With gradients, a tuple of grid arrays, the kernel is called as
    kernel(*dgrads, *grids): first the grid_gradient by spacing of each,
    differenced on the slab alone (_slab_gradient), so that no whole-grid
    gradient is built.
    """
    def slab(sl):
        dgrads = [_slab_gradient(d, spacing, sl) for d in gradients]
        return kernel(*dgrads, *(g[sl] for g in grids))

    return _slabs(slab, grid_shape)


def grid_gradient(arr: np.ndarray, spacing) -> np.ndarray:
    """Per-axis 2nd-order derivatives of a grid array.

    The first four axes of arr are the grid; any trailing axes are carried
    along.  Returns arr.shape + (4,) with the coordinate index mu last;
    axes of extent 1 contribute zeros.  An array of fewer than four axes
    raises PreconditionViolated naming its shape, and a spacing that
    _lattice_vector refuses one naming its shape, entry or axis.
    """
    arr = _grid_array(arr, "grid_gradient")
    spacing = _lattice_vector(spacing, "spacing", "grid_gradient")
    return _slabs(lambda sl: _slab_gradient(arr, spacing, sl), arr.shape[:4])


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


def interior(dims) -> tuple:
    """Slices selecting points at least 2 sites from active-axis edges."""
    return tuple(slice(None) if d == 1 else slice(2, d - 2) for d in dims)


EXACT_FLOOR = 1e-12


def convergence_order(coarse: np.ndarray, fine: np.ndarray):
    """Measured order of a residual under grid halving.

    coarse and fine carry their grids on their first four axes, and the
    same trailing axes.  On each active coarse axis, of d >= 5 sites, fine
    holds the grid of 2d - 1 sites over the same extent, whose even sites
    are the coarse sites, less t sites at each end: 2d - 1 - 2t sites,
    with the same t in 0 ... 4 on every active axis and more than d sites
    left, so that a level paired with itself is no refinement.  An axis of
    extent 1 is 1 on both.  The two shapes fix t; any other pair raises
    PreconditionViolated naming both.  Maxima are then compared over the
    identical physical interior: coarse sites 2 ... d - 3, fine sites
    4 ... 2d - 6 (window index 4 - t ... 2d - 6 - t).  Returns (order,
    max_coarse, max_fine); order is None when both maxima are below
    EXACT_FLOOR, meaning the residual vanishes identically rather than at
    O(h^2), and otherwise finite: a maximum below EXACT_FLOOR counts as
    EXACT_FLOOR.  A maximum that is not finite raises PreconditionViolated
    naming its level.
    """
    dims = coarse.shape[:4]
    active = [d for d in dims if d > 1]
    # the fine shape of each t; t < d // 2 keeps every window wider than
    # its coarse axis, 2d - 1 - 2t > d
    windows = {
        tuple(1 if d == 1 else 2 * d - 1 - 2 * t for d in dims)
        + coarse.shape[4:]: t
        for t in range(min([5] + [d // 2 for d in active]))
    }
    t = windows.get(fine.shape)
    if len(dims) < 4 or any(d < 5 for d in active) or t is None:
        raise PreconditionViolated(
            f"convergence_order: fine shape {fine.shape} is no refinement "
            f"window of coarse shape {coarse.shape}"
        )
    slf = tuple(
        slice(None) if d == 1 else slice(4 - t, 2 * d - 5 - t, 2)
        for d in dims
    )
    mc = float(np.max(np.abs(coarse[interior(dims)])))
    mf = float(np.max(np.abs(fine[slf])))
    for level, value in (("coarse", mc), ("fine", mf)):
        if not math.isfinite(value):
            raise PreconditionViolated(
                f"convergence_order: the {level} maximum is {value}"
            )
    if mc < EXACT_FLOOR and mf < EXACT_FLOOR:
        return None, mc, mf
    ratio = max(mc, EXACT_FLOOR) / max(mf, EXACT_FLOOR)
    return float(np.log2(ratio)), mc, mf


def sample(f: AnalyticField, origin, spacing, dims) -> GridField:
    """Evaluate an analytic field on a lattice (exact at every site).

    f.at runs slab by slab (_sitewise), so its table of sites x modes
    phases exists one slab at a time.
    """
    events = _lattice_events(origin, spacing, dims)
    values = _sitewise(f.at, events.shape[:4], events)
    return GridField(origin=origin, spacing=spacing, dims=tuple(dims), values=values)


def gaussian_packet(
    k: float,
    K: float = 1.0,
    s_axis=(0.0, 0.0, 1.0),
    dims=(1, 25, 25, 25),
) -> GridField:
    """Static module bump phi = K exp(-k r^2 / 16) at rest with fixed spin.

    beta = 0, u = (1,0,0,0), spin along s_axis, no Goldstone boost and a
    constant spin-alignment rotation, zero phase.  The box spans +-2/sqrt(k)
    around the origin on each spatial axis.
    """
    for name, value in (("k", k), ("K", K)):
        if not value > 0.0:
            raise PreconditionViolated(
                f"gaussian_packet needs {name} > 0, got {name} = {value}"
            )
    s_axis = np.asarray(s_axis, dtype=float)
    norm = np.linalg.norm(s_axis)
    if not 0.0 < norm < math.inf:
        raise PreconditionViolated(
            "gaussian_packet needs a finite nonzero s_axis, got "
            f"{s_axis.tolist()}"
        )
    s_axis = s_axis / norm
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
    coords = _lattice_events(origin, spacing, dims)
    r2 = np.sum(coords[..., 1:] ** 2, axis=-1)
    phi = K * np.exp(-k * r2 / 16.0)
    theta = _axis_angle_from_z(s_axis)
    rest = _spin_blocks(1j * theta)[..., 0].reshape(4)  # R(theta) (1,0,1,0)
    values = phi[..., None] * rest
    return GridField(origin=origin, spacing=spacing, dims=dims, values=values)


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
    if len(dims) != 4:
        raise ValueError(f"grid-field dims must have 4 entries, got {dims}")
    expected = int(np.prod(dims)) * 4 * 2 * 8
    if len(rest) != expected:
        raise ValueError(
            f"grid-field payload holds {len(rest)} bytes; dims {dims} "
            f"need {expected}"
        )
    pairs = np.frombuffer(rest, dtype="<f8").reshape(dims + (4, 2))
    values = pairs[..., 0] + 1j * pairs[..., 1]
    return GridField(origin=origin, spacing=spacing, dims=dims, values=values)
