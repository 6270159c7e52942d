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

from .clifford import _axis_angle_from_z, _chiral_exp, _flip, minkowski_dot
from .errors import MassMismatch, OffShell, OutOfBounds, PreconditionViolated

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
    coefficients: np.ndarray  # (n,) complex
    amplitudes: np.ndarray  # (n, 4) complex

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
    amp = _chiral_exp(chi * axis) @ REST_SPINORS[bool(spin_up)]
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
    construction: _memo keeps the polar data and Goldstone derivatives
    (not L) that connections.polar_pipeline reads off the values, per q.
    """

    origin: np.ndarray
    spacing: np.ndarray
    dims: tuple
    values: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        for name in ("origin", "spacing", "values"):
            arr = getattr(self, name)
            finite = np.isfinite(arr)
            if not finite.all():
                where = tuple(int(i) for i in np.argwhere(~finite)[0])
                raise PreconditionViolated(
                    f"GridField {name} entry {where} is {arr[where]}: "
                    "a grid field needs finite input"
                )
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

    def meshgrid(self) -> np.ndarray:
        """Event coordinates at every site, shape dims + (4,)."""
        return _lattice_events(self.origin, self.spacing, self.dims)

    def at(self, x) -> np.ndarray:
        return self.interp(x)

    def interp(self, x) -> np.ndarray:
        """Multilinear interpolation at events x of shape (..., 4)."""
        return interp_values(self.origin, self.spacing, self.values, x)


def _lattice_events(origin, spacing, dims) -> np.ndarray:
    """Event coordinates (t, x, y, z) at every site of the lattice with
    that origin, spacing and dims, shape dims + (4,)."""
    origin = np.asarray(origin, dtype=float)
    spacing = np.asarray(spacing, dtype=float)
    if origin.shape != (4,) or spacing.shape != (4,) or len(dims) != 4:
        raise ValueError(
            "origin, spacing and dims need 4 entries (t, x, y, z), got "
            f"{origin.tolist()}, {spacing.tolist()} and {tuple(dims)}"
        )
    axes = [o + h * np.arange(n) for o, h, n in zip(origin, spacing, dims)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _site_location(index, origin=None, spacing=None) -> str:
    """'grid index (i, j, k, l)' of a site, with ', event (t, x, y, z) =
    [...]' when the lattice origin (and spacing) are given, for errors."""
    index = tuple(int(i) for i in index)
    where = f"grid index {index}"
    if origin is None:
        return where
    event = np.asarray(origin, dtype=float) + np.asarray(spacing) * index
    return f"{where}, event (t, x, y, z) = {event.tolist()}"


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
    pts = x.reshape(-1, 4)
    inside = in_hull(origin, spacing, arr.shape, pts)
    if not inside.all():
        raise OutOfBounds(
            f"event {pts[np.argmin(inside)].tolist()} outside the grid hull"
        )
    out = _interp(origin, spacing, arr, pts)
    return out[0] if x.ndim == 1 else out.reshape(x.shape[:-1] + arr.shape[4:])


def _interp(origin, spacing, arr, pts) -> np.ndarray:
    """interp_values at events pts (n, 4) already known to lie in the hull
    (see in_hull), shape (n,) + arr.shape[4:]."""
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
    return out


# Every grid evaluator is site-local apart from the stencil of
# grid_gradient, so it splits over slabs of a grid axis with no change in
# the arithmetic at any site.  _slabs runs the slabs on one thread per CPU
# this process may run on (numpy releases the GIL in its array loops),
# the calling thread included, started per call and joined before it
# returns: about 0.1 ms a call, and no thread outlives it.  Grids below
# _SLAB_MIN_SITES sites run inline.  Threads cost a few MB (stacks,
# allocator arenas) whatever the grid, and slabs save memory in
# proportion to it: on 2 CPUs the perfbench pipeline chain peaked 5 MB
# (6 %) higher threaded at 17^3 sites, the same at 21^3 and 4-9 % lower
# from 25^3 (15,625 sites) up.
_SLAB_MIN_SITES = 16384
_SLAB_SITES = 4096  # about this many sites per slab, and >= 1 slab per thread
_in_slab = contextvars.ContextVar("_in_slab", default=False)  # nested: inline


def _slab_workers() -> int:
    """Threads per _slabs call: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slab_edges(grid_shape, workers: int):
    """(axis, edges): _slabs cuts grid_shape along its first largest axis
    into the slabs edges[i] <= index < edges[i + 1], at least one per
    worker and about _SLAB_SITES sites each."""
    axis = int(np.argmax(grid_shape))
    n = grid_shape[axis]
    count = min(n, max(workers, -(-math.prod(grid_shape) // _SLAB_SITES)))
    return axis, [n * i // count for i in range(count + 1)]


def _slabs(slab_fn, grid_shape):
    """slab_fn over slabs of the largest axis of grid_shape, on threads.

    slab_fn(sl) computes the part of a result on the sites sl, an index
    tuple (slice(None),) * axis + (slice(lo, hi),): an array or a tuple of
    arrays led by those sites' grid axes.  The parts fill outputs shaped
    grid_shape + their trailing axes, with the bits of slab_fn(()), the
    whole grid in one call.  That call is made instead for a grid_shape
    of other than 4 axes or under _SLAB_MIN_SITES sites, on one CPU and
    in a nested call.  The calling thread takes slab 0, starts the helper
    threads, computes slab 0 and allocates the outputs from it, so none
    lands in a helper's allocator arena; a helper that finishes a slab
    before then waits.  Helpers run in a copy of the caller's context (its
    np.errstate holds).  An exception raised in slabs is raised here once
    all have stopped: the one of the lowest slab.
    """
    inline = len(grid_shape) != 4 or math.prod(grid_shape) < _SLAB_MIN_SITES
    if inline or _in_slab.get() or (workers := _slab_workers()) == 1:
        return slab_fn(())
    axis, edges = _slab_edges(grid_shape, workers)
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
    axes of extent 1 contribute zeros.
    """
    arr = np.asarray(arr)
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

    The coarse grid is read from the first four axes of coarse.  The fine
    grid must have 2d-1 sites per active axis over the same extent, so its
    even-index sites coincide with the coarse sites; maxima are then
    compared over the identical physical interior.  Returns
    (order, max_coarse, max_fine); order is None when both maxima are below
    EXACT_FLOOR, meaning the residual vanishes identically rather than at
    O(h^2).
    """
    dims = coarse.shape[:4]
    slf = tuple(slice(None) if d == 1 else slice(4, 2 * d - 5, 2) for d in dims)
    mc = float(np.max(np.abs(coarse[interior(dims)])))
    mf = float(np.max(np.abs(fine[slf])))
    if mc < EXACT_FLOOR and mf < EXACT_FLOOR:
        return None, mc, mf
    return float(np.log2(mc / mf)), mc, mf


def sample(f: AnalyticField, origin, spacing, dims) -> GridField:
    """Evaluate an analytic field on a lattice (exact at every site)."""
    values = f.at(_lattice_events(origin, spacing, dims))
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
    if k <= 0.0 or K <= 0.0:
        raise ValueError("k and K must be positive")
    s_axis = np.asarray(s_axis, dtype=float)
    s_axis = s_axis / np.linalg.norm(s_axis)
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
    rest = _chiral_exp(1j * theta) @ REST_SPINORS[True]
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
    expected = int(np.prod(dims)) * 4 * 2 * 8
    if len(rest) != expected:
        raise ValueError(
            f"grid-field payload holds {len(rest)} bytes; dims {dims} "
            f"need {expected}"
        )
    pairs = np.frombuffer(rest, dtype="<f8").reshape(dims + (4, 2))
    values = pairs[..., 0] + 1j * pairs[..., 1]
    return GridField(origin=origin, spacing=spacing, dims=dims, values=values)
