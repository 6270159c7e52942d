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

from dataclasses import dataclass, replace

import numpy as np

from .clifford import (
    _ETA_DIAG,
    BASIS,
    METRIC,
    _flip,
    boost_matrices,
    rotation_matrices,
)
from .errors import (
    BasisLeak,
    GridMismatch,
    NotAntisymmetric,
    PreconditionViolated,
)
from .fields import GridField, grid_gradient
from .polar import PolarData, decompose

_SIGMA = BASIS.sigma
_SIGMA_CONJ = np.conj(BASIS.sigma)
# R^{ijk} = R_{ijk} * _ETA_UP3[i, j, k]: all three frame indices raised
_ETA_UP3 = _ETA_DIAG[:, None, None] * _ETA_DIAG[None, :, None] * _ETA_DIAG


@dataclass(frozen=True)
class ExternalPotentials:
    """Prescribed background fields and couplings.

    A is the gauge 4-potential (lower index), Omega the spin connection
    Omega_{ij mu} (antisymmetric in ij), W the torsion axial vector.  Any
    of them may be None, meaning identically zero.  Shapes must carry the
    grid axes first.
    """

    A: np.ndarray | None = None
    Omega: np.ndarray | None = None
    W: np.ndarray | None = None
    q: float = 1.0
    X: float = 0.0
    m: float = 1.0
    M_torsion: float = 1.0

    def __post_init__(self):
        if self.Omega is not None:
            om = np.asarray(self.Omega, dtype=float)
            skew = om + np.swapaxes(om, -3, -2)
            scale = max(1.0, float(np.max(np.abs(om))) if om.size else 1.0)
            if np.max(np.abs(skew)) > 1e-12 * scale:
                raise NotAntisymmetric(
                    "spin connection must satisfy Omega_ij = -Omega_ji"
                )

    @staticmethod
    def _field(value, grid_shape, tail) -> np.ndarray:
        if value is None:
            return np.zeros(tuple(grid_shape) + tail)
        return np.asarray(value, dtype=float)

    def a_field(self, grid_shape) -> np.ndarray:
        return self._field(self.A, grid_shape, (4,))

    def omega_field(self, grid_shape) -> np.ndarray:
        return self._field(self.Omega, grid_shape, (4, 4, 4))

    def w_field(self, grid_shape) -> np.ndarray:
        return self._field(self.W, grid_shape, (4,))


@dataclass(frozen=True)
class TransformField:
    """The local transformation L(x) sampled on a grid, as 4x4 matrices."""

    matrices: np.ndarray
    origin: np.ndarray
    spacing: np.ndarray
    dims: tuple
    q: float = 1.0

    @property
    def grid_shape(self) -> tuple:
        return self.matrices.shape[:-2]


def transform_from_polar(
    pd: PolarData, origin, spacing, dims
) -> TransformField:
    """L = e^{i q alpha} M^{-1} with M the boost-then-rotation of the polar form.

    With this wiring the rest plane wave e^{-imt}(1,0,1,0) has
    d_mu xi = (m/q) delta_mu^0 and hence P = (m, 0, 0, 0).
    """
    chi = pd.goldstone[..., :3]
    theta = pd.goldstone[..., 3:]
    rot_inv, _ = rotation_matrices(-theta)
    boost_inv, _ = boost_matrices(-chi)
    m_inv = rot_inv @ boost_inv
    phase = np.exp(1j * pd.q * np.asarray(pd.alpha, dtype=float))
    return TransformField(
        matrices=phase[..., None, None] * m_inv,
        origin=np.asarray(origin, dtype=float),
        spacing=np.asarray(spacing, dtype=float),
        dims=tuple(dims),
        q=pd.q,
    )


def transform_from_params(
    xi, params, origin, spacing, dims, q: float = 1.0
) -> TransformField:
    """Direct pure-gauge field L = e^{i q xi(x)} B(chi(x)) R(theta(x)).

    xi has the grid shape, params the grid shape + (6,).  Useful for
    constructing test configurations whose connections are known.
    """
    xi = np.asarray(xi, dtype=float)
    params = np.asarray(params, dtype=float)
    lb, _ = boost_matrices(params[..., :3])
    lr, _ = rotation_matrices(params[..., 3:])
    phase = np.exp(1j * q * xi)
    return TransformField(
        matrices=phase[..., None, None] * (lb @ lr),
        origin=np.asarray(origin, dtype=float),
        spacing=np.asarray(spacing, dtype=float),
        dims=tuple(dims),
        q=q,
    )


@dataclass(frozen=True)
class GoldstoneDerivatives:
    """Coefficients of L^{-1} d_mu L on the {iI, sigma^{ab}} basis.

    dxi has grid shape + (4,); dxi_ab grid shape + (4, 4, 4) with layout
    [a, b, mu], antisymmetric in ab; leak records the Frobenius norm of
    whatever part of the numerical log-derivative falls outside the
    algebra span, per point and direction.
    """

    dxi: np.ndarray
    dxi_ab: np.ndarray
    leak: np.ndarray
    origin: np.ndarray
    spacing: np.ndarray
    dims: tuple
    q: float

    @property
    def grid_shape(self) -> tuple:
        return self.dxi.shape[:-1]


def _log_derivative(lf: TransformField) -> np.ndarray:
    """X_mu = L^{-1} d_mu L on the grid, layout [..., row, col, mu]."""
    l_inv = np.linalg.inv(lf.matrices)
    dl = grid_gradient(lf.matrices, lf.spacing, lf.dims)
    return np.einsum("...ij,...jkm->...ikm", l_inv, dl)


def _project_log_derivative(x_mats: np.ndarray, q: float):
    """Split X_mu = L^{-1} d_mu L into phase, spin and leak parts.

    x_mats has shape (..., 4, 4, 4) with [row, col, mu].  The sigma^{ab}
    (a < b) are orthonormal under tr(A^dag B) and orthogonal to the
    identity, so the split is a plain projection.
    """
    tr = np.einsum("...iim->...m", x_mats)
    dxi = tr.imag / (4.0 * q)
    # tr(sigma^dag X) = conj(sigma_ji) X_ji, unit-norm basis elements
    dxi_ab = np.real(np.einsum("abji,...jim->...abm", _SIGMA_CONJ, x_mats))
    recon = 1j * q * np.einsum("...m,ij->...ijm", dxi, np.eye(4)) + 0.5 * (
        np.einsum("...abm,abij->...ijm", dxi_ab, _SIGMA)
    )
    leak = np.linalg.norm(x_mats - recon, axis=(-3, -2))
    return dxi, dxi_ab, leak


def _check_leak(x_mats, leak, lf: TransformField, override) -> None:
    """Raise BasisLeak where the out-of-algebra residual is too large.

    x_mats and leak come from one site or a whole grid.  Finite
    differences of a genuine group field leak out of the algebra at
    O(h^2 |X|^2) through the quadratic exponential terms, so the per-axis
    tolerance scales with the largest |X_mu|; the floor 1e-8 h^2 covers
    the near-constant case.  override replaces it on every axis.
    """
    if override is not None:
        tol = np.full(4, float(override))
    else:
        norms = np.linalg.norm(x_mats, axis=(-3, -2))
        scale = float(np.max(norms)) if norms.size else 0.0
        tol = lf.spacing**2 * max(1e-8, 10.0 * scale**2)
    worst = np.max(leak.reshape(-1, 4), axis=0)
    for ax in range(4):
        if lf.dims[ax] > 1 and worst[ax] > tol[ax]:
            raise BasisLeak(
                f"log-derivative leak {worst[ax]:.3e} along axis {ax} "
                f"exceeds {tol[ax]:.3e}; L is not a group-valued field"
            )


def goldstone_derivatives(
    lf: TransformField, leak_tol: float | None = None
) -> GoldstoneDerivatives:
    """Grid-wide Goldstone derivative extraction with basis-leak check."""
    x = _log_derivative(lf)
    dxi, dxi_ab, leak = _project_log_derivative(x, lf.q)
    _check_leak(x, leak, lf, leak_tol)
    return GoldstoneDerivatives(
        dxi=dxi,
        dxi_ab=dxi_ab,
        leak=leak,
        origin=lf.origin,
        spacing=lf.spacing,
        dims=lf.dims,
        q=lf.q,
    )


def goldstone_derivative(
    lf: TransformField, point, leak_tol: float | None = None
):
    """Single-site version: 2nd-order stencil at one grid index.

    Returns (dxi, dxi_ab, leak) for the four directions at that site.
    """
    mats = lf.matrices
    x_mats = np.zeros((4, 4, 4), dtype=complex)
    l_inv = np.linalg.inv(mats[tuple(point)])
    for ax in range(4):
        n = lf.dims[ax]
        if n == 1:
            continue
        h = lf.spacing[ax]
        i = point[ax]

        def grab(j, ax=ax):
            idx = list(point)
            idx[ax] = j
            return mats[tuple(idx)]

        if 0 < i < n - 1:
            dl = (grab(i + 1) - grab(i - 1)) / (2.0 * h)
        elif i == 0:
            dl = (-3.0 * grab(0) + 4.0 * grab(1) - grab(2)) / (2.0 * h)
        else:
            dl = (3.0 * grab(n - 1) - 4.0 * grab(n - 2) + grab(n - 3)) / (
                2.0 * h
            )
        x_mats[:, :, ax] = l_inv @ dl
    dxi, dxi_ab, leak = _project_log_derivative(x_mats, lf.q)
    _check_leak(x_mats, leak, lf, leak_tol)
    return dxi, dxi_ab, leak


@dataclass(frozen=True)
class ConnectionField:
    """P_mu and R_{ij mu} on a grid (layouts (..., 4) and (..., 4, 4, 4))."""

    P: np.ndarray
    R: np.ndarray
    origin: np.ndarray
    spacing: np.ndarray
    dims: tuple

    @property
    def grid_shape(self) -> tuple:
        return self.P.shape[:-1]


def build_connections(
    gd: GoldstoneDerivatives, ext: ExternalPotentials
) -> ConnectionField:
    """P = q (dxi - A), R_{ij mu} = (dxi)_{ij mu} - Omega_{ij mu}."""
    shape = gd.grid_shape
    a = ext.a_field(shape)
    om = ext.omega_field(shape)
    if a.shape != shape + (4,) or om.shape != shape + (4, 4, 4):
        raise GridMismatch(
            f"external potentials shaped {a.shape}/{om.shape} do not live "
            f"on grid {shape}"
        )
    return ConnectionField(
        P=gd.q * (gd.dxi - a),
        R=gd.dxi_ab - om,
        origin=gd.origin,
        spacing=gd.spacing,
        dims=gd.dims,
    )


def polar_pipeline(g: GridField, ext: ExternalPotentials):
    """GridField -> (PolarData grid, TransformField, GoldstoneDerivatives,
    ConnectionField): the standard route from spinor samples to tensors."""
    pd = decompose(g.values, q=ext.q)
    lf = transform_from_polar(pd, g.origin, g.spacing, g.dims)
    gd = goldstone_derivatives(lf)
    cf = build_connections(gd, ext)
    return pd, lf, gd, cf


@dataclass(frozen=True)
class CovariantChecks:
    """Pointwise residual norms of the derivative decomposition laws."""

    spinor: np.ndarray  # grid shape + (4,) : per direction
    s_transport: np.ndarray
    u_transport: np.ndarray


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
    pd, lf, gd, cf = polar_pipeline(g, ext)
    shape = g.dims
    a = ext.a_field(shape)
    om = ext.omega_field(shape)

    dpsi = grid_gradient(g.values, g.spacing, g.dims)
    omega_mat = _spin_matrix(om)
    nabla_psi = (
        dpsi
        + np.einsum("...klm,...l->...km", omega_mat, g.values)
        + 1j * ext.q * a[..., None, :] * g.values[..., :, None]
    )

    dbeta = grid_gradient(pd.beta, g.spacing, g.dims)
    dlnphi = grid_gradient(np.log(pd.phi), g.spacing, g.dims)
    pi_psi = np.einsum("ij,...j->...i", BASIS.pi, g.values)
    sig_psi = np.einsum("...ijm,ijkl,...l->...km", cf.R, _SIGMA, g.values)
    rhs = (
        -0.5j * dbeta[..., None, :] * pi_psi[..., :, None]
        + dlnphi[..., None, :] * g.values[..., :, None]
        - 1j * cf.P[..., None, :] * g.values[..., :, None]
        - 0.5 * sig_psi
    )
    res_spinor = np.linalg.norm(nabla_psi - rhs, axis=-2)

    def transport(vec):
        low = _flip(vec)
        dlow = grid_gradient(low, g.spacing, g.dims)
        dlow = dlow - np.einsum("...jim,...j->...im", om, vec)
        rhs_t = np.einsum("...jim,...j->...im", cf.R, vec)
        return np.linalg.norm(dlow - rhs_t, axis=-2)

    return CovariantChecks(
        spinor=res_spinor,
        s_transport=transport(pd.s),
        u_transport=transport(pd.u),
    )


def field_strength(dp: np.ndarray, q: float = 1.0) -> np.ndarray:
    """F_{mu nu} = -(d_mu P_nu - d_nu P_mu)/q, the gauge field strength.

    dp is the grid gradient of P, layout [..., nu, mu] = d_mu P_nu; the
    result has layout [..., mu, nu].
    """
    return -(np.swapaxes(dp, -1, -2) - dp) / q


@dataclass(frozen=True)
class CurvatureData:
    riemann: np.ndarray  # grid + (4, 4, 4, 4), [i, j, mu, nu]
    F: np.ndarray  # grid + (4, 4), [mu, nu]
    goldstone_flat: np.ndarray | None  # grid shape, or None


def curvatures(
    cf: ConnectionField,
    q: float = 1.0,
    omega: np.ndarray | None = None,
    lfield: TransformField | None = None,
) -> CurvatureData:
    """Curvature tensors of the connections.

    riemann^i_{j mu nu} = -(grad_mu R^i_{j nu} - grad_nu R^i_{j mu}
                            + R^i_{k mu} R^k_{j nu} - R^i_{k nu} R^k_{j mu}),
    with grad acting on frame indices through omega when provided; it
    vanishes identically for pure-gauge R and reproduces the curvature of
    omega itself when the Goldstone part is trivial.

    F is the gauge field strength, see field_strength.

    goldstone_flat (when an L field is supplied) is the pointwise norm of
    dG - dG + [G, G] for G = L^{-1} dL, which is zero for any group-valued
    L up to discretization error.
    """
    r_up = cf.R * _ETA_DIAG[:, None, None]
    dr = grid_gradient(r_up, cf.spacing, cf.dims)  # [i, j, nu, mu]
    cov = np.ascontiguousarray(np.swapaxes(dr, -1, -2))  # [i, j, mu, nu]
    if omega is not None:
        om_up = omega * _ETA_DIAG[:, None, None]
        cov = cov + np.einsum("...ikm,...kjn->...ijmn", om_up, r_up)
        cov = cov - np.einsum("...kjm,...ikn->...ijmn", om_up, r_up)
    quad = np.einsum("...ikm,...kjn->...ijmn", r_up, r_up)
    riemann = -(
        cov
        - np.swapaxes(cov, -1, -2)
        + quad
        - np.swapaxes(quad, -1, -2)
    )

    f = field_strength(grid_gradient(cf.P, cf.spacing, cf.dims), q)

    flat = None
    if lfield is not None:
        gmat = _log_derivative(lfield)
        dg = grid_gradient(gmat, lfield.spacing, lfield.dims)  # [i,j,mu,nu]
        comm = np.einsum("...ikm,...kjn->...ijmn", gmat, gmat)
        curv = (
            np.swapaxes(dg, -1, -2)
            - dg
            + comm
            - np.swapaxes(comm, -1, -2)
        )
        flat = np.max(np.abs(curv), axis=(-4, -3, -2, -1))
    return CurvatureData(riemann=riemann, F=f, goldstone_flat=flat)


@dataclass(frozen=True)
class IrreducibleSplit:
    Pi: np.ndarray
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
    scale = max(1.0, float(np.max(np.abs(r))) if r.size else 1.0)
    skew = r + np.swapaxes(r, -3, -2)
    if np.max(np.abs(skew)) > 1e-12 * scale:
        raise NotAntisymmetric("input must be antisymmetric in its first two indices")
    ra = np.einsum("...acd,cd->...a", r, METRIC)
    r_all_up = r * _ETA_UP3
    ba_low = 0.5 * np.einsum("aijk,...ijk->...a", BASIS.epsilon, r_all_up)
    trace_part, axial_part = _split_parts(ra, ba_low)
    return IrreducibleSplit(Pi=r - trace_part - axial_part, Ra=ra, Ba=ba_low)


def _split_parts(ra, ba_low):
    """Trace part (R_i eta_jk - R_j eta_ik)/3 and axial part eps_ijka B^a/3."""
    trace_part = (
        np.einsum("...i,jk->...ijk", ra, METRIC)
        - np.einsum("...j,ik->...ijk", ra, METRIC)
    ) / 3.0
    axial_part = np.einsum("ijka,...a->...ijk", BASIS.epsilon, _flip(ba_low)) / 3.0
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
    cf: ConnectionField,
    omega: np.ndarray | None = None,
    fd_tol: float | None = None,
) -> DivergenceConstraints:
    """The two flatness-induced divergence identities on B^mu and R^mu.

    resB = div B - (1/2) eps^{a s m n} R_{k a m} R^k_{s n}
    resR = div R + (1/2)((1/2) R^{a m n} R_{a m n} + B.B - R.R)

    Both vanish at O(h^2) whenever the curvature of R is zero, which is
    verified first; PreconditionViolated otherwise.
    """
    curv = curvatures(cf, omega=omega)
    riemann_max = float(np.max(np.abs(curv.riemann)))
    active = [cf.spacing[ax] for ax in range(4) if cf.dims[ax] > 1]
    h_min = min(active) if active else 1.0
    # natural magnitude a genuinely curved connection of this size would
    # have: derivative scale plus quadratic scale
    dr = grid_gradient(cf.R, cf.spacing, cf.dims)
    curv_scale = float(np.max(np.abs(dr))) + float(np.max(np.abs(cf.R))) ** 2
    curv_scale = max(curv_scale, 1e-30)
    tol = fd_tol if fd_tol is not None else 0.1 * h_min**2 * curv_scale
    if riemann_max > 100.0 * tol:
        raise PreconditionViolated(
            f"curvature of R is {riemann_max:.3e}, beyond 100 x {tol:.3e}; "
            "the divergence identities only hold for flat connections"
        )
    sp = irreducible_split(cf.R)
    ba_up = _flip(sp.Ba)
    ra_up = _flip(sp.Ra)
    div_b = np.trace(
        grid_gradient(ba_up, cf.spacing, cf.dims), axis1=-2, axis2=-1
    )
    div_r = np.trace(
        grid_gradient(ra_up, cf.spacing, cf.dims), axis1=-2, axis2=-1
    )
    r_first_up = cf.R * _ETA_DIAG[:, None, None]
    quad_b = np.einsum(
        "asmn,...kam,...ksn->...", BASIS.epsilon_upper, cf.R, r_first_up
    )
    r_all_up = cf.R * _ETA_UP3
    rr = np.einsum("...amn,...amn->...", r_all_up, cf.R)
    bb = np.sum(ba_up * sp.Ba, axis=-1)
    rvrv = np.sum(ra_up * sp.Ra, axis=-1)
    res_b = div_b - 0.5 * quad_b
    res_r = div_r + 0.5 * (0.5 * rr + bb - rvrv)
    return DivergenceConstraints(
        resB=res_b, resR=res_r, riemann_max=riemann_max, fd_tol=tol
    )


def _spin_matrix(t: np.ndarray) -> np.ndarray:
    """(1/2) T_{ab m} sigma^{ab} per direction m: the inverse of
    project_spin_matrix, with the direction index kept last."""
    return 0.5 * np.einsum("...ijm,ijkl->...klm", t, _SIGMA)


def project_spin_matrix(mats: np.ndarray) -> np.ndarray:
    """Components T_{ab} of T = (1/2) T_{ab} sigma^{ab} for algebra-valued T.

    Used to push transformed spin connections back to index form in the
    covariance tests.
    """
    return np.real(np.einsum("abji,...ji->...ab", _SIGMA_CONJ, mats))


def transform_connection_inputs(
    lf: TransformField,
    ext: ExternalPotentials,
    s_params: np.ndarray,
    zeta: np.ndarray,
    dzeta: np.ndarray,
    spacing,
    dims,
):
    """Apply a local frame/gauge change to (L, Omega, A).

    s_params (grid + (6,)) generates the spin transformation S(x); zeta is
    the local phase with analytic gradient dzeta.  The new field content is

        L' = e^{i q zeta} L S^{-1},  A' = A + d zeta,
        Omega'_mat = S Omega_mat S^{-1} - (dS) S^{-1},

    and the function returns (L', ext', V(S)) so the caller can verify
    P' = P and R'_{ab} = (V^{-1})^c_a (V^{-1})^d_b R_{cd}.
    """
    from .clifford import goldstone_matrices

    s_mat, v_mat = goldstone_matrices(s_params)
    s_inv = np.linalg.inv(s_mat)
    phase = np.exp(1j * lf.q * np.asarray(zeta, dtype=float))
    l_new = phase[..., None, None] * (lf.matrices @ s_inv)

    shape = lf.grid_shape
    om_mat = _spin_matrix(ext.omega_field(shape))
    ds = grid_gradient(s_mat, spacing, dims)
    om_new_mat = np.einsum(
        "...ij,...jkm,...kl->...ilm", s_mat, om_mat, s_inv
    ) - np.einsum("...ijm,...jk->...ikm", ds, s_inv)
    om_new = np.stack(
        [project_spin_matrix(om_new_mat[..., m]) for m in range(4)], axis=-1
    )
    ext_new = replace(ext, A=ext.a_field(shape) + dzeta, Omega=om_new)
    return replace(lf, matrices=l_new), ext_new, v_mat
