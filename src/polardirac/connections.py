"""Gauge-invariant tensorial connections built from Goldstone fields.

The polar form packs every non-physical degree of freedom of the spinor
into a local transformation L(x) = e^{i q xi} (spin part).  Its
logarithmic derivative lives in the algebra,

    L^{-1} d_mu L = i q (d_mu xi) I + (1/2) (d_mu xi)_{ab} sigma^{ab},

and combining those coefficients with the external gauge potential A_mu
and spin connection Omega_{ij mu} yields the two gauge-invariant tensors

    P_mu     = q (d_mu xi - A_mu)
    R_{ij mu} = (d_mu xi)_{ij} - Omega_{ij mu}.

Everything downstream (transport laws, curvatures, quantum potentials,
Hamilton-Jacobi form) is a function of P, R and the two scalars phi, beta.

Grid layout mirrors fields.py: leading axes (t, x, y, z), then tensor
indices, with the derivative index mu always last.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clifford import _EPS_PAIRS, _ETA_DIAG, BASIS, METRIC, _block_inverse, _flip
from .clifford import _block_product, _boost_rotation, _spin_blocks
from .errors import (
    BasisLeak,
    GridMismatch,
    NotAntisymmetric,
    PreconditionViolated,
)
from .fields import GridField, _lattice, _phase_gradient, _require_finite
from .fields import _site_location, _sitewise, grid_gradient
from .polar import PolarData, _require_charge, decompose

# the (i, j) of T_{ij mu} that the sl(2,C) 3-vector c_mu packs: the boost
# planes 01, 02, 03 in its real part, the rotation planes 23, 31, 12 in its
# imaginary part
_BOOST_ROWS, _BOOST_COLS = (0, 0, 0), (1, 2, 3)
_ROT_ROWS, _ROT_COLS = (2, 3, 1), (3, 1, 2)
# eps_{ijka} as an [a, (i j k)] matrix: eps_{ijka} B^a is one product with
# a single nonzero term per entry
_EPS_AXIAL = np.moveaxis(BASIS.epsilon, -1, 0).reshape(4, 64)
# R^{ijk} = R_{ijk} * _ETA_UP3[i, j, k]: all three frame indices raised
_ETA_UP3 = _ETA_DIAG[:, None, None] * _ETA_DIAG[None, :, None] * _ETA_DIAG
# the largest leak of L^{-1} dL out of the algebra, as a fraction of max|X|
_LEAK_FRACTION = 0.1
# sites per product table of _flatness, 2 MB: one table over a whole 17^3
# grid doubled the traced peak of curvatures(lfield=...) to 31 MB
_FLAT_CHUNK = 1024


def _require_on_grid(name, shape, grid_shape, tail) -> None:
    """Raise GridMismatch unless an array named name, shaped shape, lives
    on grid_shape with the tensor axes tail."""
    expected = tuple(grid_shape) + tail
    if tuple(shape) != expected:
        raise GridMismatch(
            f"{name} shaped {tuple(shape)} does not live on grid "
            f"{tuple(grid_shape)}; expected {expected}"
        )


def _amax_sites(a: np.ndarray, tail: int) -> np.ndarray:
    """max |a| over the last tail axes, per site."""
    return np.max(np.abs(a), axis=tuple(range(-tail, 0)))


def _amax_complex(a: np.ndarray, tail: int) -> np.ndarray:
    """max(max |Re a|, max |Im a|) over the last tail axes, per site."""
    return np.maximum(_amax_sites(a.real, tail), _amax_sites(a.imag, tail))


def _check_antisymmetric(t, message: str, origin=None, spacing=None) -> None:
    """Raise NotAntisymmetric(message) unless t_{ij...} = -t_{ji...} on the
    axes (-3, -2), to 1e-12 of max(1, max|t|): the two maxima are taken
    over the maxima of the sites of the grid t.shape[:-3].  The message
    names the first site that fails, with its event when the origin and
    spacing of the grid are given."""
    size, asym = _sitewise(
        lambda t: (
            _amax_sites(t, 3),
            _amax_sites(t + np.swapaxes(t, -3, -2), 3),
        ),
        t.shape[:-3],
        t,
    )
    scale = max(1.0, float(np.max(size)) if t.size else 1.0)
    bad = asym > 1e-12 * scale
    if np.any(bad):
        where = _site_location(np.argwhere(bad)[0], origin, spacing)
        raise NotAntisymmetric(f"{message}; it fails at {where}")


@dataclass(frozen=True)
class ExternalPotentials:
    """Prescribed background fields and couplings.

    A is the gauge 4-potential (lower index), Omega the spin connection
    Omega_{ij mu} (antisymmetric in ij), W the torsion axial vector.  Any
    of them may be None, meaning identically zero.  A given field is shaped
    grid + tensor axes; its accessor raises GridMismatch otherwise.
    """

    A: np.ndarray | None = None
    Omega: np.ndarray | None = None
    W: np.ndarray | None = None
    q: float = 1.0
    X: float = 0.0
    m: float = 1.0
    M_torsion: float = 1.0

    def __post_init__(self):
        _require_charge(self.q)
        if self.Omega is not None:
            omega = np.asarray(self.Omega, dtype=float)
            if omega.shape[-3:] != (4, 4, 4):
                raise GridMismatch(
                    f"external field Omega shaped {omega.shape} lacks the "
                    "tensor axes (4, 4, 4)"
                )
            _check_antisymmetric(
                omega, "spin connection must satisfy Omega_ij = -Omega_ji"
            )

    def _field(self, name, grid_shape, tail) -> np.ndarray:
        """The named field on the grid; GridMismatch if it lives elsewhere.
        An absent field is a read-only zero-stride view, not a zero grid."""
        value = getattr(self, name)
        if value is None:
            return np.broadcast_to(0.0, tuple(grid_shape) + tail)
        arr = np.asarray(value, dtype=float)
        _require_on_grid(f"external field {name}", arr.shape, grid_shape, tail)
        return arr

    def a_field(self, grid_shape) -> np.ndarray:
        return self._field("A", grid_shape, (4,))

    def omega_field(self, grid_shape) -> np.ndarray:
        return self._field("Omega", grid_shape, (4, 4, 4))

    def w_field(self, grid_shape) -> np.ndarray:
        return self._field("W", grid_shape, (4,))


@dataclass(frozen=True)
class TransformField:
    """The local transformation L(x) sampled on a grid; log_derivative is
    computed on first use and kept (read-only), as on PolarFields.

    Every e^{i q xi} exp((1/2) xi_{ab} sigma^{ab}) is block-diagonal in the
    chiral representation, diag(A, A^{-dagger}) e^{i q xi}, so L is held as
    its two diagonal 2x2 blocks: blocks has the grid shape + (2, 2, 2),
    layout [..., block, row, col], or GridMismatch names its shape.

    beta, when given, is the chiral angle of the spinor field that L was
    read from (grid shape, GridMismatch otherwise).  Where it wraps
    between two neighbours, alpha takes up its 2 pi as pi / q and L
    changes sign; log_derivative differences across such a cut with the
    sign undone, and keeps the plain grid_gradient bits everywhere else.
    """

    blocks: np.ndarray
    origin: np.ndarray
    spacing: np.ndarray
    q: float = 1.0
    beta: np.ndarray | None = None

    def __post_init__(self):
        shape = np.shape(self.blocks)
        if shape[-3:] != (2, 2, 2):
            raise GridMismatch(f"L blocks shaped {shape} lack the axes (2, 2, 2)")

    @property
    def grid_shape(self) -> tuple:
        return self.blocks.shape[:-3]

    def _wrap_sign(self, ax: int) -> np.ndarray | None:
        """(-1)^(wraps of beta before each site along axis ax), grid
        shape, which makes sign * L continuous along ax; None when beta is
        None or does not wrap along ax."""
        if self.beta is None:
            return None
        _require_on_grid("beta", np.shape(self.beta), self.grid_shape, ())
        jump = np.abs(np.diff(self.beta, axis=ax)) > np.pi
        if not jump.any():
            return None
        first = np.zeros_like(np.take(jump, [0], axis=ax))
        wraps = np.cumsum(np.concatenate([first, jump], axis=ax), axis=ax)
        return 1.0 - 2.0 * (wraps % 2)

    @cached_property
    def log_derivative(self) -> np.ndarray:
        """X_mu = L^{-1} d_mu L on the grid in chiral block layout
        [..., block, row, col, mu], differenced and inverted per block: the
        input of goldstone_derivatives and of the flatness in curvatures;
        read-only, as every reader shares it."""
        dl = grid_gradient(self.blocks, self.spacing)
        for ax in range(4):
            sign = self._wrap_sign(ax)
            if sign is not None:
                # a stencil on one side of every wrap keeps its bits, as
                # sign^2 = 1 exactly
                sign = sign[..., None, None, None]
                dl[..., ax] = sign * np.gradient(
                    sign * self.blocks, self.spacing[ax], axis=ax, edge_order=2
                )
        x = _sitewise(
            lambda b, d: np.einsum("...ij,...jkm->...ikm", _block_inverse(b), d),
            self.grid_shape,
            self.blocks,
            dl,
        )
        x.flags.writeable = False
        return x


def transform_from_polar(pd: PolarData, origin, spacing) -> TransformField:
    """L = e^{i q alpha} M^{-1} with M the boost-then-rotation of the polar form.

    With this wiring the rest plane wave e^{-imt}(1,0,1,0) has
    d_mu xi = (m/q) delta_mu^0 and hence P = (m, 0, 0, 0).
    """
    alpha = np.asarray(pd.alpha, dtype=float)

    def sites(goldstone, alpha):
        chi = goldstone[..., :3]
        theta = goldstone[..., 3:]
        # R(-theta) B(-chi)
        m_inv = _block_product(_spin_blocks(1j * -theta), _spin_blocks(-chi))
        phase = np.exp(1j * pd.q * alpha)
        return phase[..., None, None, None] * m_inv

    return TransformField(
        blocks=_sitewise(sites, alpha.shape, pd.goldstone, alpha),
        origin=np.asarray(origin, dtype=float),
        spacing=np.asarray(spacing, dtype=float),
        q=pd.q,
        beta=pd.beta,
    )


def transform_from_params(
    xi, params, origin, spacing, dims, q: float = 1.0
) -> TransformField:
    """Direct pure-gauge field L = e^{i q xi(x)} B(chi(x)) R(theta(x)).

    xi has the grid shape dims, params dims + (6,); GridMismatch names
    the shapes otherwise.  The lattice is checked as by sample, since
    log_derivative differences every active axis, and PreconditionViolated
    names the first entry of xi or params that is not finite.  Useful for
    constructing test configurations whose connections are known.  The
    blocks are one site-local pass.
    """
    origin, spacing, dims = _lattice(origin, spacing, dims)
    xi = np.asarray(xi, dtype=float)
    params = np.asarray(params, dtype=float)
    _require_on_grid("xi", xi.shape, dims, ())
    _require_on_grid("params", params.shape, dims, (6,))
    for name, arr in (("xi", xi), ("params", params)):
        _require_finite(arr, f"transform_from_params {name} entry",
                        "L needs finite input")

    def sites(xi, params):
        phase = np.exp(1j * q * xi)
        return phase[..., None, None, None] * _boost_rotation(params)

    return TransformField(
        blocks=_sitewise(sites, xi.shape, xi, params),
        origin=origin,
        spacing=spacing,
        q=q,
    )


@dataclass(frozen=True)
class GoldstoneDerivatives:
    """Coefficients of L^{-1} d_mu L on the {iI, sigma^{ab}} basis.

    dxi has grid shape + (4,); dxi_ab grid shape + (4, 4, 4) with layout
    [a, b, mu], antisymmetric in ab; leak records the Frobenius norm of
    whatever part of the numerical log-derivative falls outside the
    algebra span, per point and direction.  On the chiral blocks X_u and
    X_l of X that is the departure of X_l from -X_u^dag, which holds
    exactly in the algebra, so for a group-valued L the leak is
    discretization error (see _goldstone_sites).
    """

    dxi: np.ndarray
    dxi_ab: np.ndarray
    leak: np.ndarray
    origin: np.ndarray
    spacing: np.ndarray
    q: float

    @property
    def grid_shape(self) -> tuple:
        return self.dxi.shape[:-1]


def _spin_vectors(t: np.ndarray, axes=slice(None)) -> np.ndarray:
    """c_mu = (T_{01}, T_{02}, T_{03}) + i (T_{23}, T_{31}, T_{12}) of an
    antisymmetric T_{ij mu}, layout [..., k, mu] (pure indexing), for the
    mu of axes alone: a slice, or a sequence of indices.  In the chiral
    representation (1/2) T_{ab mu} sigma^{ab} is
    diag(-c_mu.sigma / 2, conj(c_mu).sigma / 2)."""
    br, bc, rr, rc = _BOOST_ROWS, _BOOST_COLS, _ROT_ROWS, _ROT_COLS
    if not isinstance(axes, slice):  # columns, broadcast against the axes
        br, bc, rr, rc = (np.array(ix)[:, None] for ix in (br, bc, rr, rc))
    boost = t[..., br, bc, axes]
    c = np.empty(boost.shape, dtype=complex)
    c.real = boost
    c.imag = t[..., rr, rc, axes]
    return c


def _pauli_components(e: np.ndarray) -> np.ndarray:
    """(a_0, a_1, a_2, a_3) of 2x2 matrices e = a_0 I + a_k sigma_k, on
    the first axis, from their entries (e_00, e_01, e_10, e_11) there:
    a_0 = (e_00 + e_11)/2, a_1 = (e_01 + e_10)/2, a_2 = i (e_01 - e_10)/2
    and a_3 = (e_00 - e_11)/2."""
    e00, e01, e10, e11 = e
    return 0.5 * np.stack((e00 + e11, e01 + e10, 1j * (e01 - e10), e00 - e11))


def _goldstone_sites(x: np.ndarray, q: float):
    """(dxi, dxi_ab, leak, |X_mu|) of goldstone_derivatives at the sites of
    a kernel, from X in chiral block layout [..., block, row, col, mu].

    With (a_0, a) the Pauli components of the upper block X_u and (b_0, b)
    those of the lower block X_l, an algebra element
    i q dxi I + (1/2) dxi_{ab} sigma^{ab} has a_0 = b_0 = i q dxi,
    a = -c / 2 and b = conj(c) / 2 for c = _spin_vectors(dxi_ab).  The
    projection onto it, orthogonal under Re tr(A^dag B), reads

        dxi = Im(a_0 + b_0) / (2 q),   c = conj(b) - a,

    that is dxi_{0k} = Re(b_k - a_k) and dxi_{ij} = -Im(a_k + b_k) for
    (i, j, k) cyclic.  The leak, the Frobenius norm of the part of X that
    it leaves out, is the departure of X_l from -X_u^dag:

        leak^2 = 2 (Re a_0)^2 + 2 (Re b_0)^2 + (Im a_0 - Im b_0)^2
                 + sum_k |a_k + conj(b_k)|^2,

    read here off the components of X_u + X_l and X_l - X_u (a + b and
    b - a), with no reconstruction of X.  The kernel first copies each
    entry of X to one contiguous [site, mu] array.
    """
    grid, dirs = x.shape[:-4], x.shape[-1]
    entries = np.ascontiguousarray(np.moveaxis(x.reshape((-1, 8, dirs)), 1, 0))
    upper, lower = entries[:4], entries[4:]
    plus = _pauli_components(upper + lower)
    minus = _pauli_components(lower - upper)
    dxi = plus[0].imag / (2.0 * q)
    boost, rot = minus[1:].real, -plus[1:].imag
    planes = np.zeros((4, 4) + boost.shape[1:])  # [a, b, site, mu]
    planes[_BOOST_ROWS, _BOOST_COLS] = boost
    planes[_BOOST_COLS, _BOOST_ROWS] = -boost
    planes[_ROT_ROWS, _ROT_COLS] = rot
    planes[_ROT_COLS, _ROT_ROWS] = -rot
    dxi_ab = np.ascontiguousarray(np.moveaxis(planes, 2, 0))
    leak = np.sqrt(
        np.sum(plus.real**2 + minus.imag**2, axis=0) + minus[0].real ** 2
    )
    norms = np.linalg.norm(entries, axis=0)
    return (
        dxi.reshape(grid + (dirs,)),
        dxi_ab.reshape(grid + (4, 4, dirs)),
        leak.reshape(grid + (dirs,)),
        norms.reshape(grid + (dirs,)),
    )


def _check_leak(norms, leak, lf: TransformField) -> None:
    """Raise BasisLeak where the out-of-algebra residual is too large.

    norms and leak are |X_mu| (the Frobenius norm of X_mu) and the leak,
    per site and mu, of the grid of lf.
    Finite differences of a genuine group field leak out of the algebra at
    O(h^2 |X|^2) through the quadratic exponential terms, so the per-axis
    tolerance scales with the largest |X_mu|, as 10 h^2 |X|^2 capped at
    _LEAK_FRACTION |X|: a leak is at most about |X|, so without the cap
    no leak of a coarse or rough field (10 h^2 |X| >= 1) could fail.  The
    floor 1e-8 h^2, outside the cap, covers the near-constant case.  The
    error names the grid index and event of the largest leak on the
    failing axis, or, where |X| or the leak is not finite (a NaN passes
    no tolerance test), those of the first such site; the maxima that
    the tolerance reads already show it, so that costs no pass when all
    is finite.
    """
    scale = float(np.max(norms)) if norms.size else 0.0
    worst = np.max(leak.reshape(-1, 4), axis=0)
    if not (np.isfinite(scale) and np.isfinite(worst).all()):
        bad = ~(np.isfinite(norms) & np.isfinite(leak)).all(axis=-1)
        site = np.unravel_index(np.argmax(bad), bad.shape)
        raise BasisLeak(
            "log-derivative |X_mu| or its leak is not finite at "
            f"{_site_location(site, lf.origin, lf.spacing)}; L is singular "
            "or not finite there"
        )
    h2 = lf.spacing**2
    tol = np.maximum(
        1e-8 * h2, np.minimum(10.0 * h2 * scale**2, _LEAK_FRACTION * scale)
    )
    for ax in range(4):
        if lf.grid_shape[ax] > 1 and worst[ax] > tol[ax]:
            on_axis = leak[..., ax]
            site = np.unravel_index(np.argmax(on_axis), on_axis.shape)
            raise BasisLeak(
                f"log-derivative leak {worst[ax]:.3e} along axis {ax} "
                f"exceeds {tol[ax]:.3e} at "
                f"{_site_location(site, lf.origin, lf.spacing)}; the grid "
                "does not resolve L, or L is not a group-valued field"
            )


def goldstone_derivatives(lf: TransformField) -> GoldstoneDerivatives:
    """Grid-wide Goldstone derivative extraction with basis-leak check,
    read off the Pauli components of the chiral blocks of
    lf.log_derivative (see _goldstone_sites).  PreconditionViolated unless
    lf.q is finite and nonzero."""
    _require_charge(lf.q)
    dxi, dxi_ab, leak, norms = _sitewise(
        lambda x: _goldstone_sites(x, lf.q), lf.grid_shape, lf.log_derivative
    )
    _check_leak(norms, leak, lf)
    return GoldstoneDerivatives(
        dxi=dxi,
        dxi_ab=dxi_ab,
        leak=leak,
        origin=lf.origin,
        spacing=lf.spacing,
        q=lf.q,
    )


@dataclass(frozen=True)
class SpinCurvature:
    """The curvature of R, see _spin_curvature: riemann, grid shaped, is
    max |riemann^i_{j mu nu}| per site; dr_max is max |d_nu R_{ij mu}|."""

    riemann: np.ndarray
    dr_max: float


@dataclass(frozen=True)
class ConnectionField:
    """P_mu and R_{ij mu} on a grid (layouts (..., 4) and (..., 4, 4, 4)),
    with the spin connection omega that was subtracted from R (None when
    there was none); the curvatures of R read it.  What derives from P or R
    alone (checked_R, curvature, split, dP) is computed on first use and
    kept; dataclasses.replace returns a new instance that computes it afresh.
    """

    P: np.ndarray
    R: np.ndarray
    origin: np.ndarray
    spacing: np.ndarray
    omega: np.ndarray | None = None

    @property
    def grid_shape(self) -> tuple:
        return self.P.shape[:-1]

    @cached_property
    def checked_R(self) -> np.ndarray:
        """R itself, checked once per field to be antisymmetric:
        NotAntisymmetric names the first site where it is not.  Every
        reader that takes R_ij = -R_ji for granted reads R here."""
        _check_antisymmetric(
            self.R, "R must satisfy R_ij = -R_ji", self.origin, self.spacing
        )
        return self.R

    @cached_property
    def curvature(self) -> SpinCurvature:
        """The curvature of checked_R, computed on first use and kept
        (read-only): curvatures and divergence_constraints both read it."""
        return _spin_curvature(self.checked_R, self.omega, self.spacing)

    @cached_property
    def split(self) -> IrreducibleSplit:
        """R_a and B_a of irreducible_split of checked_R; Pi, the full
        rank-3 part, is None here (irreducible_split returns it)."""
        vecs = _sitewise(_split_vectors, self.grid_shape, self.checked_R)
        return IrreducibleSplit(None, *vecs)

    @cached_property
    def dP(self) -> np.ndarray:
        """d_m P_n with layout [..., n, m]."""
        return grid_gradient(self.P, self.spacing)


def build_connections(
    gd: GoldstoneDerivatives, ext: ExternalPotentials
) -> ConnectionField:
    """P = q (dxi - A), R_{ij mu} = (dxi)_{ij mu} - Omega_{ij mu}.  Without
    Omega, R is gd.dxi_ab itself and shares its memory (read-only on the
    polar_pipeline chain)."""
    shape = gd.grid_shape
    dxi = gd.dxi if ext.A is None else gd.dxi - ext.a_field(shape)
    r, omega = gd.dxi_ab, None
    if ext.Omega is not None:
        omega = ext.omega_field(shape)
        r = _sitewise(np.subtract, shape, gd.dxi_ab, omega)
    return ConnectionField(
        P=gd.q * dxi, R=r, origin=gd.origin, spacing=gd.spacing, omega=omega
    )


def _goldstone_layer(g: GridField, q: float):
    """(PolarData, GoldstoneDerivatives) of g for charge q: decompose, L
    and L^{-1} dL, the part of polar_pipeline that A and Omega do not
    enter.  Kept per q in g._memo with every array read-only, so a second
    pipeline on the same grid repeats none of it and a write into a shared
    array raises instead of reaching the next reader.  L and its X are not
    kept; transform_from_polar(pd, g.origin, g.spacing) rebuilds L."""
    layer = g._memo.get(q)
    if layer is None:
        pd = decompose(g.values, q=q)
        lf = transform_from_polar(pd, g.origin, g.spacing)
        gd = goldstone_derivatives(lf)
        for arr in (
            pd.phi, pd.beta, pd.u, pd.s, pd.goldstone, pd.alpha,
            gd.dxi, gd.dxi_ab, gd.leak,
        ):
            arr.flags.writeable = False
        layer = g._memo[q] = (pd, gd)
    return layer


def polar_pipeline(g: GridField, ext: ExternalPotentials):
    """GridField -> (PolarData grid, GoldstoneDerivatives, ConnectionField):
    the standard route from spinor samples to tensors; the first two are
    kept per grid and charge (see _goldstone_layer), the last built per ext.
    Without Omega, R is the memo's read-only gd.dxi_ab, which
    _goldstone_sites writes as +x and -x on each pair of planes: exactly
    antisymmetric, so cf.checked_R is filled with it unchecked."""
    pd, gd = _goldstone_layer(g, ext.q)
    cf = build_connections(gd, ext)
    if ext.Omega is None:
        cf.__dict__["checked_R"] = cf.R
    return pd, gd, cf


@dataclass(frozen=True)
class CovariantChecks:
    """Pointwise residual norms of the derivative decomposition laws."""

    spinor: np.ndarray  # grid shape + (4,) : per direction
    s_transport: np.ndarray
    u_transport: np.ndarray


def _pauli_action(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(c_mu . sigma) v per direction mu, layout [..., row, mu], for
    3-vectors c [..., k, mu] and 2-spinors v [..., row]."""
    c1, c2, c3 = c[..., 0, :], c[..., 1, :], c[..., 2, :]
    v0, v1 = v[..., 0, None], v[..., 1, None]
    return np.stack(
        (c3 * v0 + (c1 - 1j * c2) * v1, (c1 + 1j * c2) * v0 - c3 * v1), axis=-2
    )


def _spin_action(t: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """(1/2) T_{ab m} sigma^{ab} psi per direction m, layout [..., k, m],
    for an antisymmetric T: [-(c.sigma) psi_L / 2; (conj(c).sigma) psi_R / 2]
    with c = _spin_vectors(T), no 4x4 matrix built."""
    c = _spin_vectors(t)
    return np.concatenate(
        (
            -0.5 * _pauli_action(c, psi[..., :2]),
            0.5 * _pauli_action(np.conj(c), psi[..., 2:]),
        ),
        axis=-2,
    )


def _covariant_gradient(dpsi, psi, a, q, *om) -> np.ndarray:
    """nabla_mu psi = (d_mu + (1/2) Omega_{ij mu} sigma^{ij} + i q A_mu) psi
    at the sites of a kernel, layout [..., k, mu], from the grid_gradient
    dpsi of psi; without om (Omega is None) the Omega term is skipped."""
    if om:
        dpsi = dpsi + _spin_action(om[0], psi)
    return dpsi + 1j * q * a[..., None, :] * psi[..., :, None]


def covariant_derivative_check(
    g: GridField, ext: ExternalPotentials
) -> CovariantChecks:
    """Check the three derivative decompositions on a sampled spinor field.

    (a) grad psi = (-(i/2) grad(beta) pi + grad(ln phi) I - i P_mu I
                    - (1/2) R_{ij mu} sigma^{ij}) psi,
    (b) grad s_i = R_{ji mu} s^j,   (c) grad u_i = R_{ji mu} u^j,
    all with the full covariant gradient (Omega and A included) on the
    left.  Returns per-point, per-direction norms.
    """
    pd, _, cf = polar_pipeline(g, ext)
    om = () if cf.omega is None else (cf.omega,)
    dbeta = _phase_gradient(pd.beta, g.spacing)

    def sites(dpsi, dlnphi, ds, du, psi, a, dbeta, p, r, s, u, *om):
        nabla_psi = _covariant_gradient(dpsi, psi, a, ext.q, *om)
        pi_psi = np.einsum("ij,...j->...i", BASIS.pi, psi)
        rhs = (
            -0.5j * dbeta[..., None, :] * pi_psi[..., :, None]
            + dlnphi[..., None, :] * psi[..., :, None]
            - 1j * p[..., None, :] * psi[..., :, None]
            - _spin_action(r, psi)
        )

        def transport(vec, dlow):
            if om:
                dlow = dlow - np.einsum("...jim,...j->...im", om[0], vec)
            rhs_t = np.einsum("...jim,...j->...im", r, vec)
            return np.linalg.norm(dlow - rhs_t, axis=-2)

        return (
            np.linalg.norm(nabla_psi - rhs, axis=-2),
            transport(s, ds),
            transport(u, du),
        )

    spinor, s_transport, u_transport = _sitewise(
        sites, g.dims, g.values, ext.a_field(g.dims), dbeta, cf.P, cf.R,
        pd.s, pd.u, *om,
        gradients=(g.values, np.log(pd.phi), _flip(pd.s), _flip(pd.u)),
        spacing=g.spacing,
    )
    return CovariantChecks(
        spinor=spinor, s_transport=s_transport, u_transport=u_transport
    )


def field_strength(dp: np.ndarray, q: float = 1.0) -> np.ndarray:
    """F_{mu nu} = -(d_mu P_nu - d_nu P_mu)/q, the gauge field strength.

    dp is the grid gradient of P, layout [..., nu, mu] = d_mu P_nu; the
    result has layout [..., mu, nu].
    """
    return -(np.swapaxes(dp, -1, -2) - dp) / q


def _flatness(dg, g) -> np.ndarray:
    """The Goldstone flatness of curvatures: the pointwise max over block,
    i, j, mu and nu of |d_mu G_nu - d_nu G_mu + [G_mu, G_nu]|, from
    matrices G [..., block, i, j, mu] and their grid gradient dg
    [..., block, i, j, nu, mu], both over the same axes mu; zero for
    G = L^{-1} dL of a group-valued L.  Per chunk of _FLAT_CHUNK sites,
    the products G_mu G_nu make one table Q and the difference is
    ((dg)^T - dg) + Q - Q^T over (mu, nu), so no whole-slab table exists."""
    sites = g.shape[:-4]
    g = g.reshape((-1,) + g.shape[-4:])
    dg = dg.reshape((-1,) + dg.shape[-5:])
    flat = np.empty(len(g))
    for lo in range(0, len(g), _FLAT_CHUNK):
        chunk = slice(lo, lo + _FLAT_CHUNK)
        d = np.swapaxes(dg[chunk], -1, -2) - dg[chunk]
        q = np.einsum("...ikm,...kjn->...ijmn", g[chunk], g[chunk])
        d += q
        d -= np.swapaxes(q, -1, -2)
        del q  # before |d| and the next chunk
        flat[chunk] = np.max(np.abs(d), axis=(-5, -4, -3, -2, -1))
    return flat.reshape(sites)


def _axes_index(axes):
    """axes, sorted axis indices, as the index of those axes: a slice
    where they are contiguous (a view), the list itself otherwise."""
    if axes[-1] - axes[0] == len(axes) - 1:
        return slice(axes[0], axes[-1] + 1)
    return axes


def _cross_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_mu x b_nu for 3-vectors [..., k, mu], layout [..., k, mu, nu]."""
    a1, a2 = a[..., (1, 2, 0), :, None], a[..., (2, 0, 1), :, None]
    b1, b2 = b[..., (1, 2, 0), None, :], b[..., (2, 0, 1), None, :]
    return a1 * b2 - a2 * b1


def _curvature_vectors(dc, c, *o) -> np.ndarray:
    """K_{mu nu} of _spin_curvature at the sites of a kernel, layout
    [..., k, mu, nu], from c_mu = _spin_vectors(R, axes), its grid
    gradient dc [..., k, mu, nu] = d_nu c_mu and the 3-vectors o_mu =
    _spin_vectors(omega, axes) of the omega of R, when there is one, all
    over the same axes mu and nu:

        K_{mu nu} = d_nu c_mu - d_mu c_nu + i c_mu x c_nu
                    + i (o_mu x c_nu - o_nu x c_mu).
    """
    k = dc - np.swapaxes(dc, -1, -2)
    quad = _cross_pairs(c, c)
    if o:
        oc = _cross_pairs(o[0], c)
        quad += oc - np.swapaxes(oc, -1, -2)
    quad *= 1j
    k += quad
    return k


def _spin_curvature(r, omega, spacing) -> SpinCurvature:
    """The curvature of R_{ij mu} (with the omega it carries, or None) as
    the sl(2,C) 3-vectors K of _curvature_vectors, kept as per-site maxima.

    K packs the Riemann tensor riemann_{ij mu nu}, its first index
    lowered, the way c packs R: riemann^0_{k mu nu} = riemann^k_{0 mu nu}
    = Re K_k and riemann^a_{b mu nu} = -Im K_c for (a, b, c) cyclic in
    (1, 2, 3), and every other entry is zero.  So the largest |riemann| of
    a site is the largest |Re K| or |Im K| there, taken in the slab pass
    that builds K, and K itself is a slab temporary.

    c, dc and K span the carried axes alone: those longer than 1, and
    those on which R or omega is not identically zero (NaN counts as
    nonzero); the t axis alone when there is none.  Along any other axis
    c and o are +-0 and every derivative is an exact zero, so each
    dropped entry of dc is +-0 and each dropped entry of K is +-0, or NaN
    only at a site where a kept diagonal entry K_{mu mu} is NaN too: the
    per-site maxima and dr_max keep the bits of the full 4 x 4 tables.  R
    must be antisymmetric (ConnectionField.checked_R) and omega live on
    its grid (GridMismatch).
    """
    grid = r.shape[:-3]
    if omega is not None:
        _require_on_grid("omega", np.shape(omega), grid, (4, 4, 4))
    om = () if omega is None else (omega,)
    axes = _axes_index([
        ax for ax in range(4)
        if grid[ax] > 1 or r[..., ax].any() or any(w[..., ax].any() for w in om)
    ] or [0])
    c = _sitewise(lambda r: _spin_vectors(r, axes), grid, r)

    def sites(dc, c, *om):
        dc = dc[..., axes]
        # dr before K: with K first, verify's peak RSS read 5 MB higher
        # (the same traced peak, another heap layout)
        dr = _amax_complex(dc, 3)
        o = [_spin_vectors(w, axes) for w in om]
        return _amax_complex(_curvature_vectors(dc, c, *o), 3), dr

    riemann, dr = _sitewise(
        sites, grid, c, *om, gradients=(c,), spacing=spacing
    )
    riemann.flags.writeable = False
    return SpinCurvature(riemann=riemann, dr_max=float(np.max(dr)))


@dataclass(frozen=True)
class CurvatureData:
    riemann: np.ndarray  # grid shape: max |riemann^i_{j mu nu}| per site
    F: np.ndarray  # grid + (4, 4), [mu, nu]
    goldstone_flat: np.ndarray | None  # grid shape, or None


def curvatures(
    cf: ConnectionField, q: float = 1.0, lfield: TransformField | None = None
) -> CurvatureData:
    """Curvature tensors of the connections.

    riemann^i_{j mu nu} = -(grad_mu R^i_{j nu} - grad_nu R^i_{j mu}
                            + R^i_{k mu} R^k_{j nu} - R^i_{k nu} R^k_{j mu}),
    with grad acting on frame indices through cf.omega when R carries one;
    it vanishes identically for pure-gauge R and reproduces the curvature
    of omega itself when the Goldstone part is trivial.  riemann holds its
    largest |entry| per site, grid shaped: the read-only
    cf.curvature.riemann itself, since every reader takes a max of it, and
    the dense tensor would take 256 reals per site.  It is built over the
    axes that carry R or omega (_spin_curvature) with the bits of the full
    table.

    F is the gauge field strength, see field_strength.

    goldstone_flat (when an L field is supplied) is the pointwise max of
    |dG - dG + [G, G]| for G = L^{-1} dL, the same Riemann formula, which
    is zero for any group-valued L up to discretization error; G is the
    cached lfield.log_derivative in chiral block layout, so the formula
    runs per 2x2 block and the max is over both blocks.  The table spans
    the active axes (those longer than 1) alone, and its max keeps the
    bits of the full 4 x 4 table: along a constant axis grid_gradient writes exact zeros, so G
    there is B^{-1} 0 = +-0, and every entry it enters is +-0, or NaN only
    at a site whose non-finite B^{-1} makes an active (nu, nu) entry NaN
    too.  A grid with no active axis gives zeros (its (t, t) entry, which
    every entry equals there).  cf.omega and the L field must live on the
    grid of cf, or GridMismatch is raised.
    """
    riemann = cf.curvature.riemann
    f = field_strength(cf.dP, q)

    flat = None
    if lfield is not None:
        _require_on_grid("L field", lfield.blocks.shape, cf.grid_shape, (2, 2, 2))
        # X_mu and its derivative on the axes longer than 1 (a slice where
        # they are contiguous); a grid with none keeps the t axis
        act = _axes_index(
            [ax for ax in range(4) if cf.grid_shape[ax] > 1] or [0]
        )
        gmat = lfield.log_derivative[..., act]
        flat = _sitewise(
            lambda dg, g: _flatness(dg[..., act], g), cf.grid_shape, gmat,
            gradients=(gmat,), spacing=lfield.spacing,
        )
    return CurvatureData(riemann=riemann, F=f, goldstone_flat=flat)


@dataclass(frozen=True)
class IrreducibleSplit:
    Pi: np.ndarray | None  # None on ConnectionField.split
    Ra: np.ndarray
    Ba: np.ndarray


def irreducible_split(r) -> IrreducibleSplit:
    """Split R_{ijk} into traceless/axial-free Pi, trace vector, axial vector.

    R_{ijk} = Pi_{ijk} + (1/3)(R_i eta_{jk} - R_j eta_{ik})
              + (1/3) eps_{ijka} B^a
    with R_a = R_{ac}{}^c and B_a = (1/2) eps_{aijk} R^{ijk}.  All indices
    are frame indices here; works pointwise or over grids.
    """
    r = np.asarray(r, dtype=float)
    _check_antisymmetric(
        r, "input must be antisymmetric in its first two indices"
    )
    return IrreducibleSplit(*_sitewise(_split_sites, r.shape[:-3], r))


def _split_vectors(r):
    """(R_a, B_a) of irreducible_split at the sites of a kernel, without
    Pi: the split that ConnectionField.split keeps."""
    ra = np.trace(_flip(r), axis1=-2, axis2=-1)
    r_all_up = r * _ETA_UP3
    ba_low = 0.5 * np.einsum("aijk,...ijk->...a", BASIS.epsilon, r_all_up)
    return ra, ba_low


def _split_sites(r):
    """(Pi, R_a, B_a) of irreducible_split at the sites of a kernel."""
    ra, ba_low = _split_vectors(r)
    trace_part, axial_part = _split_parts(ra, ba_low)
    return r - trace_part - axial_part, ra, ba_low


def _split_parts(ra, ba_low):
    """Trace part (R_i eta_jk - R_j eta_ik)/3 and axial part eps_ijka B^a/3."""
    trace_part = (
        ra[..., :, None, None] * METRIC - ra[..., None, :, None] * METRIC[:, None]
    ) / 3.0
    axial = (_flip(ba_low) @ _EPS_AXIAL).reshape(ba_low.shape[:-1] + (4, 4, 4))
    axial_part = axial / 3.0
    return trace_part, axial_part


def reassemble_split(sp: IrreducibleSplit) -> np.ndarray:
    """Inverse of irreducible_split."""
    trace_part, axial_part = _split_parts(sp.Ra, sp.Ba)
    return sp.Pi + trace_part + axial_part


@dataclass(frozen=True)
class DivergenceConstraints:
    resB: np.ndarray
    resR: np.ndarray
    riemann_max: float
    fd_tol: float


def divergence_constraints(
    cf: ConnectionField, fd_tol: float | None = None
) -> DivergenceConstraints:
    """The two flatness-induced divergence identities on B^mu and R^mu.

    resB = div B - (1/2) eps^{a s m n} R_{k a m} R^k_{s n}
    resR = div R + (1/2)((1/2) R^{a m n} R_{a m n} + B.B - R.R)

    Both vanish at O(h^2) whenever the curvature of R is zero, which is
    verified first; PreconditionViolated otherwise.  The default tolerance
    is 0.1 h^2 times the size a curved connection of this magnitude would
    have, max|dR| + max|R|^2, floored at the roundoff eps (max|P| + 1/h)^2
    of the inputs' natural scale, which decides when R is zero to roundoff.
    The error names the site of the largest curvature.  cf.omega must live
    on the grid of cf, or GridMismatch is raised.
    """
    curv = cf.curvature
    riemann = curv.riemann  # the max |riemann| per site of curvatures
    r_max, p_max = _sitewise(
        lambda r, p: (_amax_sites(r, 3), _amax_sites(p, 1)),
        cf.grid_shape,
        cf.R,
        cf.P,
    )
    riemann_max, r_max, p_max = (float(np.max(m)) for m in (riemann, r_max, p_max))
    tol = fd_tol
    if tol is None:
        active = [cf.spacing[ax] for ax in range(4) if cf.grid_shape[ax] > 1]
        h_min = min(active) if active else 1.0
        curv_scale = curv.dr_max + r_max**2
        p_scale = p_max + 1.0 / h_min
        tol = max(0.1 * h_min**2 * curv_scale, np.finfo(float).eps * p_scale**2)
    if riemann_max > 100.0 * tol:
        worst = np.unravel_index(np.argmax(riemann), riemann.shape)
        raise PreconditionViolated(
            f"curvature of R is {riemann_max:.3e}, beyond 100 x {tol:.3e}, "
            f"at {_site_location(worst, cf.origin, cf.spacing)}; "
            "the divergence identities only hold for flat connections"
        )
    ra, ba = cf.split.Ra, cf.split.Ba
    ba_up = _flip(ba)
    ra_up = _flip(ra)
    # div B and div R from one gradient of the stacked pair (B^a, R^a)
    div = np.trace(
        grid_gradient(np.stack((ba_up, ra_up), axis=-2), cf.spacing),
        axis1=-2,
        axis2=-1,
    )

    def sites(r, ba, ra, div):
        # eps^{asmn} = -eps^{amsn}: one (a m), (s n) pair contraction per k
        pairs = r.shape[:-3] + (4, 16)
        dual = r.reshape(pairs) @ _EPS_PAIRS
        r_first_up = r * _ETA_DIAG[:, None, None]
        quad_b = -np.sum(dual * r_first_up.reshape(pairs), axis=(-2, -1))
        rr = np.einsum("...amn,...amn->...", r * _ETA_UP3, r)
        bb = np.sum(_flip(ba) * ba, axis=-1)
        rvrv = np.sum(_flip(ra) * ra, axis=-1)
        res_b = div[..., 0] - 0.5 * quad_b
        res_r = div[..., 1] + 0.5 * (0.5 * rr + bb - rvrv)
        return res_b, res_r

    res_b, res_r = _sitewise(sites, cf.grid_shape, cf.R, ba, ra, div)
    return DivergenceConstraints(
        resB=res_b, resR=res_r, riemann_max=riemann_max, fd_tol=tol
    )
