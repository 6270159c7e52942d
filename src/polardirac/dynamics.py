"""Dynamical equations as residual evaluators.

Every first- and second-order field equation of the polar formulation is
expressed here as "plug the fields in, get the left-hand side back": the
spinor-form wave equation, its polar first-order pair, the Hamilton-Jacobi
pair with quantum potentials, the explicit guidance momentum, the three
second-order scalar equations, the matter energy tensor with its Newton-law
reduction, and the non-relativistic Hamiltonian.

Index bookkeeping used throughout: vectors named *_low carry a lower index,
plain u/s are upper (they come straight from the bilinears); P, R, W, A and
all returned residual vectors are lower-index; epsilon with four lower
indices has eps_{0123} = +1.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clifford import _EPS_PAIRS, _ETA_DIAG, BASIS, METRIC, _flip
from .connections import (
    ConnectionField,
    ExternalPotentials,
    _amax_sites,
    _covariant_gradient,
    field_strength,
    polar_pipeline,
)
from .errors import PreconditionViolated
from .fields import GridField, _phase_gradient, _site_location, _sitewise
from .fields import grid_gradient

_GAMMA_PI = BASIS.gamma @ BASIS.pi  # gamma^m pi, layout [m, a, c]
# W^{mn} = W_{mn} * _ETA_UP2: both indices raised
_ETA_UP2 = _ETA_DIAG[:, None] * _ETA_DIAG
_R_TOL = 1e-8  # max |R| up to which second_order_residuals takes R = 0


def _mink_sq(vec):
    """eta^{mn} v_m v_n for a lower-index vector (same value for upper)."""
    return np.einsum("...m,...m->...", vec * _ETA_DIAG, vec)


def _box(scalar, spacing):
    """d^mu d_mu of a scalar grid: second time derivative minus Laplacian."""
    hess = grid_gradient(grid_gradient(scalar, spacing), spacing)
    diag = np.einsum("...mm->...m", hess)
    return np.einsum("m,...m->...", _ETA_DIAG, diag)


@dataclass(frozen=True)
class PolarFields:
    """Module, chiral angle, velocity and spin fields plus their connections.

    The derived fields (dbeta, dlnphi2, spin_plane, sigma_m, F) are
    computed on first use and kept for the life of the instance;
    dataclasses.replace returns a new instance that computes them afresh.
    sigma_m keeps only its vectors, the part the evaluators read: the full
    tensors (Sigma_full, M_full) are None here, and sigma_m_potentials
    returns them.  What derives from P or R alone (the split of R, dP)
    is kept on cf.
    """

    phi: np.ndarray
    beta: np.ndarray
    u: np.ndarray
    s: np.ndarray
    cf: ConnectionField
    ext: ExternalPotentials

    @classmethod
    def from_grid(cls, g: GridField, ext: ExternalPotentials | None = None):
        """Decompose a sampled spinor field and extract its connections."""
        if ext is None:
            ext = ExternalPotentials()
        pd, _, cf = polar_pipeline(g, ext)
        return cls(phi=pd.phi, beta=pd.beta, u=pd.u, s=pd.s, cf=cf, ext=ext)

    @property
    def spacing(self):
        return self.cf.spacing

    @property
    def grid_shape(self):
        return self.cf.grid_shape

    @cached_property
    def dbeta(self) -> np.ndarray:
        """d_m beta, grid + (4,), read across the branch cut of beta."""
        return _phase_gradient(self.beta, self.spacing)

    @cached_property
    def dlnphi2(self) -> np.ndarray:
        """d_m ln(phi^2), grid + (4,)."""
        return grid_gradient(np.log(self.phi**2), self.spacing)

    @cached_property
    def spin_plane(self) -> np.ndarray:
        """W_{ij} = eps_{ijab} u^a s^b, grid + (4, 4): the eps-dual of the
        plane u ^ s (not the torsion vector ext.W)."""
        return _sitewise(_spin_plane, self.grid_shape, self.u, self.s)

    @cached_property
    def sigma_m(self) -> "SigmaM":
        """Sigma_vec and M_vec of sigma_m_potentials of these fields."""
        vecs = _sitewise(
            lambda *a: _sigma_m_sites(*a)[2:],
            self.grid_shape, self.cf.P, self.cf.checked_R, self.spin_plane,
        )
        return SigmaM(None, None, *vecs)

    @cached_property
    def F(self) -> np.ndarray:
        """Field strength of the connection P, layout [..., m, n]."""
        return field_strength(self.cf.dP, self.ext.q)


def _spin_plane(u, s):
    """PolarFields.spin_plane of u and s."""
    us = u[..., :, None] * s[..., None, :]
    pairs = us.reshape(us.shape[:-2] + (16,))
    return -(pairs @ _EPS_PAIRS).reshape(us.shape)


def dirac_residual(g: GridField, ext: ExternalPotentials) -> np.ndarray:
    """Pointwise norm of i gamma^mu nabla_mu psi - X W_mu gamma^mu pi psi - m psi.

    The covariant derivative includes the external spin connection and
    gauge potential; plain grid differencing supplies the partials, so the
    result on an exact solution is pure O(h^2) discretization error.
    """
    def sites(dpsi, psi, a, w, *om):
        nabla = _covariant_gradient(dpsi, psi, a, ext.q, *om)
        kinetic = 1j * np.einsum("mab,...bm->...a", BASIS.gamma, nabla)
        w_slash = np.tensordot(w, _GAMMA_PI, axes=1)
        torsion = ext.X * np.einsum("...ac,...c->...a", w_slash, psi)
        lhs = kinetic - torsion - ext.m * psi
        return np.linalg.norm(lhs, axis=-1)

    om = () if ext.Omega is None else (ext.omega_field(g.dims),)
    a, w = ext.a_field(g.dims), ext.w_field(g.dims)
    return _sitewise(
        sites, g.dims, g.values, a, w, *om,
        gradients=(g.values,), spacing=g.spacing,
    )


@dataclass(frozen=True)
class SigmaM:
    """The combined potential, its dual, and their contracted vectors.

    Sigma_full[..., i, j, m] = R_{ij m} - 2 P_m W_{ij}
    M_full[..., a, b, m]     = (1/2) eps^{abij} Sigma_{ij m}
                             = (1/2) R_{ij m} eps^{ijab}
                               + 2 P_m (u^a s^b - u^b s^a)
    Sigma_vec_m = Sigma_{m n}{}^n   (lower index)
    M_vec_m     = eta_{ma} M^{a b}{}_b  (lower index)

    W is the spin plane of PolarFields.  The vector contractions are the
    trace over the second pair slot and the derivative slot; with them the
    polar first-order equations close on exact plane-wave solutions.
    """

    Sigma_full: np.ndarray | None  # None on PolarFields.sigma_m
    M_full: np.ndarray | None
    Sigma_vec: np.ndarray
    M_vec: np.ndarray


def sigma_m_potentials(pf: PolarFields) -> SigmaM:
    return SigmaM(*_sitewise(
        _sigma_m_sites, pf.grid_shape, pf.cf.P, pf.cf.checked_R, pf.spin_plane
    ))


def _sigma_m_sites(p, r, spin_plane):
    """(Sigma_full, M_full, Sigma_vec, M_vec) of sigma_m_potentials at the
    sites of a kernel."""
    sigma_full = r - 2.0 * p[..., None, None, :] * spin_plane[..., None]
    pairs = sigma_full.reshape(sigma_full.shape[:-3] + (16, 4))
    m_full = (0.5 * (_EPS_PAIRS @ pairs)).reshape(sigma_full.shape)
    sigma_vec = np.trace(_flip(sigma_full), axis1=-2, axis2=-1)
    m_vec = _flip(np.einsum("...abb->...a", m_full))
    return sigma_full, m_full, sigma_vec, m_vec


@dataclass(frozen=True)
class PolarDiracResiduals:
    res1: np.ndarray  # grid + (4,), lower index
    res2: np.ndarray


def polar_dirac_residuals(pf: PolarFields) -> PolarDiracResiduals:
    """First-order polar pair:

    res1_m = d_m beta - 2 X W_m + M_m + 2 m s_m cos(beta)
    res2_m = d_m ln(phi^2) + Sigma_m + 2 m s_m sin(beta)
    """
    sm = pf.sigma_m
    w = pf.ext.w_field(pf.grid_shape)
    s_low = _flip(pf.s)
    cos_b = np.cos(pf.beta)[..., None]
    sin_b = np.sin(pf.beta)[..., None]
    res1 = (
        pf.dbeta - 2.0 * pf.ext.X * w + sm.M_vec
        + 2.0 * pf.ext.m * s_low * cos_b
    )
    res2 = pf.dlnphi2 + sm.Sigma_vec + 2.0 * pf.ext.m * s_low * sin_b
    return PolarDiracResiduals(res1=res1, res2=res2)


@dataclass(frozen=True)
class QuantumPotentials:
    Y: np.ndarray  # grid + (4,), lower index
    Z: np.ndarray


def quantum_potentials(pf: PolarFields) -> QuantumPotentials:
    """2 Y_m = d_m beta - 2 X W_m + (1/2) eps_{mnas} R^{nas}
    -2 Z_m = d_m ln(phi^2) + R_{mn}{}^n

    The eps-contraction and the trace are the axial and trace vectors of
    the irreducible split of R, read from the connections' cached split.
    """
    w = pf.ext.w_field(pf.grid_shape)
    y = 0.5 * (pf.dbeta - 2.0 * pf.ext.X * w + pf.cf.split.Ba)
    z = -0.5 * (pf.dlnphi2 + pf.cf.split.Ra)
    return QuantumPotentials(Y=y, Z=z)


@dataclass(frozen=True)
class HJResiduals:
    res1: np.ndarray  # grid + (4,), lower index
    res2: np.ndarray


def hj_residuals(pf: PolarFields, qp: QuantumPotentials) -> HJResiduals:
    """Hamilton-Jacobi pair:

    res1_m = P^i (u_i s_m - u_m s_i) - Y_m - m s_m cos(beta)
    res2_m = P^r u^n s^a eps_{mrna} + Z_m - m s_m sin(beta)
           = W_{mr} P^r + Z_m - m s_m sin(beta),  W the spin plane

    Built independently of polar_dirac_residuals; the two agree exactly
    (res_hj = -res_polar / 2), which the tests assert as a cross-check.
    """
    m = pf.ext.m

    def sites(p, s, u, beta, y, z, spin_plane):
        p_up = _flip(p)  # raise the lower-index connection vector
        s_low = _flip(s)
        u_low = _flip(u)
        pu = np.einsum("...m,...m->...", p, u)
        ps = np.einsum("...m,...m->...", p, s)
        cos_b = np.cos(beta)
        sin_b = np.sin(beta)
        res1 = (
            pu[..., None] * s_low
            - ps[..., None] * u_low
            - y
            - m * s_low * cos_b[..., None]
        )
        res2 = (
            np.einsum("...mr,...r->...m", spin_plane, p_up)
            + z
            - m * s_low * sin_b[..., None]
        )
        return res1, res2

    return HJResiduals(*_sitewise(
        sites, pf.grid_shape, pf.cf.P, pf.s, pf.u, pf.beta, qp.Y, qp.Z,
        pf.spin_plane,
    ))


def guidance_momentum(pf: PolarFields, qp: QuantumPotentials) -> np.ndarray:
    """Explicit momentum, lower index:

    P^r = m cos(beta) u^r + (Y.u) s^r - (Y.s) u^r
          + Z_m u_n s_a eps^{mnra}     (= -Z_m W^{mr}, W the spin plane)

    For any configuration solving the first-order pair this reproduces the
    connection-derived P.
    """
    def sites(y, z, u, s, beta, spin_plane):
        yu = np.einsum("...m,...m->...", y, u)
        ys = np.einsum("...m,...m->...", y, s)
        cos_b = np.cos(beta)
        p_up = (
            pf.ext.m * cos_b[..., None] * u
            + yu[..., None] * s
            - ys[..., None] * u
            - np.einsum("...m,...mr->...r", z, spin_plane * _ETA_UP2)
        )
        return _flip(p_up)

    return _sitewise(
        sites, pf.grid_shape, qp.Y, qp.Z, pf.u, pf.s, pf.beta, pf.spin_plane
    )


@dataclass(frozen=True)
class SecondOrderResiduals:
    res_general: np.ndarray
    res_standard: np.ndarray
    res_effective: np.ndarray


def second_order_residuals(
    pf: PolarFields, qp: QuantumPotentials
) -> SecondOrderResiduals:
    """The three scalar second-order equations as pointwise residuals.

    res_general:  |d(beta)/2|^2 - m^2 - box(phi)/phi
                  + (1/4)(-2 div Sigma + Sigma.Sigma - M.M
                          + 4 X W.M - 4 X^2 W.W)
    res_standard: P.P - m^2 - (q/2) F_{mn} u_r s_s eps^{mnrs}
                  - box(phi)/phi          (requires R ~ 0)
    res_effective: box(phi) - 4 X^4 Mt^-4 phi^5 - 2 X^2 Mt^-2 (M.s) phi^3
                  + (1/4)(2 div Sigma - Sigma.Sigma + M.M + 4 m^2) phi
                  (torsion replaced by its effective value)

    Mt is the torsion mass, and F_{mn} u_r s_s eps^{mnrs} is read as
    F_{mn} W^{mn} with W_{mn} the spin plane (W.M and W.W are the torsion
    vector).  With X = 0 the effective equation is exactly
    -phi times the general one evaluated on zero-beta inputs.
    """
    cf = pf.cf
    r_sites = _sitewise(lambda r: _amax_sites(r, 3), pf.grid_shape, cf.R)
    r_max = float(np.max(r_sites))
    if r_max > _R_TOL:
        worst = np.unravel_index(np.argmax(r_sites), r_sites.shape)
        raise PreconditionViolated(
            f"max |R| = {r_max:.3e} > {_R_TOL:.3e} at "
            f"{_site_location(worst, cf.origin, cf.spacing)}: the standard "
            "balance equation assumes a vanishing tensorial connection"
        )
    sm = pf.sigma_m
    ext = pf.ext
    w = ext.w_field(pf.grid_shape)
    m, x_coup, mt = ext.m, ext.X, ext.M_torsion

    box_phi = _box(pf.phi, pf.spacing)
    sig_up = _flip(sm.Sigma_vec)
    div_sigma = np.trace(grid_gradient(sig_up, pf.spacing), axis1=-2, axis2=-1)

    def sites(box_phi, phi, div_sigma, sigma_vec, m_vec, w, dbeta, f,
              spin_plane, p, s):
        box_over_phi = box_phi / phi
        sig_sq = _mink_sq(sigma_vec)
        m_sq = _mink_sq(m_vec)
        wm = np.einsum("...m,...m->...", w, _flip(m_vec))
        w_sq = _mink_sq(w)

        res_general = (
            0.25 * _mink_sq(dbeta)
            - m**2
            - box_over_phi
            + 0.25 * (-2.0 * div_sigma + sig_sq - m_sq + 4.0 * x_coup * wm
                      - 4.0 * x_coup**2 * w_sq)
        )

        f_term = np.einsum("...mn,...mn->...", f, spin_plane * _ETA_UP2)
        res_standard = _mink_sq(p) - m**2 - 0.5 * ext.q * f_term - box_over_phi

        ms = np.einsum("...m,...m->...", _flip(m_vec), s)
        res_effective = (
            box_phi
            - 4.0 * x_coup**4 / mt**4 * phi**5
            - 2.0 * x_coup**2 / mt**2 * ms * phi**3
            + 0.25 * (2.0 * div_sigma - sig_sq + m_sq + 4.0 * m**2) * phi
        )
        return res_general, res_standard, res_effective

    return SecondOrderResiduals(*_sitewise(
        sites, pf.grid_shape, box_phi, pf.phi, div_sigma, sm.Sigma_vec,
        sm.M_vec, w, pf.dbeta, pf.F, pf.spin_plane, pf.cf.P, pf.s,
    ))


@dataclass(frozen=True)
class EnergyTensor:
    T: np.ndarray  # grid + (4, 4), upper indices
    E: np.ndarray  # grid + (4, 4, 4), upper indices [rho, sigma, kappa]


def _spin_energy(y, z, u, r, ba, phi) -> np.ndarray:
    """Spin part of the matter energy, symmetric in (r, s) by construction:
    E^{rsk} = phi^2 (H^{rsk} + H^{srk} - 2 Y^k u^r u^s), B the axial vector of R,
    H^{rsk} = eta^{rk} (Y - B/2)^s + u^r (Y.u eta^{sk} + eps^{mnsk} Z_m u_n)
              - (1/4) eps^{rank} R_{an}{}^s,
    from the quantum potentials Y, Z, the velocity u, R, B and phi."""
    y_up = _flip(y)
    yu = np.einsum("...m,...m->...", y, u)
    zu = z[..., :, None] * _flip(u)[..., None, :]
    eps_zu = (zu.reshape(yu.shape + (16,)) @ _EPS_PAIRS).reshape(zu.shape)
    inner = yu[..., None, None] * METRIC + eps_zu  # Y.u eta^{sk} + eps Z u
    dual = (  # eps^{rank} R_{an}{}^s / 4, eps^{rank} = eps^{anrk}, [s, r, k]
        np.swapaxes(_flip(r).reshape(yu.shape + (16, 4)), -1, -2)
        @ (0.25 * _EPS_PAIRS)
    ).reshape(r.shape)
    e = METRIC[:, None, :] * (y_up - 0.5 * _flip(ba))[..., None, :, None]
    e += u[..., :, None, None] * inner[..., None, :, :]
    e -= np.swapaxes(dual, -3, -2)
    e += np.swapaxes(e, -3, -2)  # H + H^T: numpy buffers the overlap
    uu = u[..., :, None] * u[..., None, :]
    e -= uu[..., None] * (2.0 * y_up)[..., None, None, :]
    return phi[..., None, None, None] ** 2 * e


def energy_and_newton(pf: PolarFields, qp: QuantumPotentials):
    """Matter energy tensor (plus field parts if external A/W given) and the
    spinless Newton-law residual u^n d_n P^s - q F^{s a} u_a (upper index).
    """
    ext = pf.ext

    def sites(y, z, u, r, ba, phi, beta, s, dp, f):
        e = _spin_energy(y, z, u, r, ba, phi)
        mass = 2.0 * phi**2 * ext.m * np.cos(beta)
        t = mass[..., None, None] * np.einsum(
            "...s,...r->...rs", u, u
        ) + np.einsum("...rsk,...k->...rs", e, _flip(s))
        dp_up = dp * _ETA_DIAG[:, None]  # [..., s, n] = d_n P^s
        advect = np.einsum("...sn,...n->...s", dp_up, u)
        f_conn_up = _flip(f * _ETA_DIAG[:, None])
        newton = advect - ext.q * np.einsum(
            "...sa,...a->...s", f_conn_up, _flip(u)
        )
        return e, t, newton

    e, t, newton = _sitewise(
        sites, pf.grid_shape, qp.Y, qp.Z, pf.u, pf.cf.R, pf.cf.split.Ba,
        pf.phi, pf.beta, pf.s, pf.cf.dP, pf.F,
    )

    def add_field_energy(t, v_low):
        """t + F^2 eta/4 - F^{ra} F^s_a for F_{mn} = d_m v_n - d_n v_m."""
        dv = grid_gradient(v_low, pf.spacing)
        f_low = np.swapaxes(dv, -1, -2) - dv
        f_mixed = f_low * _ETA_DIAG[:, None]  # F^r{}_n
        f_up = _flip(f_mixed)
        f_sq = np.einsum("...mn,...mn->...", f_up, f_low)
        return t + 0.25 * f_sq[..., None, None] * METRIC - np.einsum(
            "...ra,...sa->...rs", f_up, f_mixed
        )

    if ext.A is not None:
        t = add_field_energy(t, ext.a_field(pf.grid_shape))
    if ext.W is not None:
        w_low = ext.w_field(pf.grid_shape)
        t = add_field_energy(t, w_low)
        w_up = _flip(w_low)
        t = t + ext.M_torsion**2 * (
            np.einsum("...r,...s->...rs", w_up, w_up)
            - 0.5 * _mink_sq(w_low)[..., None, None] * METRIC
        )
    return EnergyTensor(T=t, E=e), newton


def nonrel_hamiltonian(
    p3,
    s3,
    b3,
    phi=None,
    spacing=None,
    q: float = 1.0,
    m: float = 1.0,
    index=None,
) -> float:
    """H = P.P/2m + (q/m)(s/2).B - (1/2m) lap(phi)/phi.

    p3, s3, b3 are spatial 3-vectors (B defined by F_IJ = -eps_IJK B^K).
    phi, when given, is a 3-d array of module samples with grid steps
    `spacing`; the quantum term is evaluated at `index` (default: center).
    """
    p3 = np.asarray(p3, dtype=float)
    s3 = np.asarray(s3, dtype=float)
    b3 = np.asarray(b3, dtype=float)
    h = float(p3 @ p3) / (2.0 * m) + (q / m) * 0.5 * float(s3 @ b3)
    if phi is not None:
        phi = np.asarray(phi, dtype=float)
        if index is None:
            index = tuple(n // 2 for n in phi.shape)
        # on a static (1,)+shape grid box(phi) is minus the Laplacian
        box = _box(phi[None], (1.0, *spacing))
        h += box[(0, *index)] / (2.0 * m * phi[index])
    return h
