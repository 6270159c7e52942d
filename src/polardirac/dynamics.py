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

from .clifford import _ETA_DIAG, BASIS, METRIC, _flip
from .connections import (
    ConnectionField,
    ExternalPotentials,
    field_strength,
    irreducible_split,
    polar_pipeline,
)
from .errors import PreconditionViolated
from .fields import GridField, grid_gradient

_SIGMA = BASIS.sigma


def _mink_sq(vec):
    """eta^{mn} v_m v_n for a lower-index vector (same value for upper)."""
    return np.einsum("...m,...m->...", vec * _ETA_DIAG, vec)


def _box(scalar, spacing, dims):
    """d^mu d_mu of a scalar grid: second time derivative minus Laplacian."""
    hess = grid_gradient(grid_gradient(scalar, spacing, dims), spacing, dims)
    diag = np.einsum("...mm->...m", hess)
    return np.einsum("m,...m->...", _ETA_DIAG, diag)


@dataclass(frozen=True)
class PolarFields:
    """Module, chiral angle, velocity and spin fields plus their connections.

    The derived fields (dbeta, dlnphi2, sigma_m, dP, F) are computed on
    first use and kept for the life of the instance; dataclasses.replace
    returns a new instance that computes them afresh.
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
        pd, lf, gd, cf = polar_pipeline(g, ext)
        return cls(phi=pd.phi, beta=pd.beta, u=pd.u, s=pd.s, cf=cf, ext=ext)

    @property
    def spacing(self):
        return self.cf.spacing

    @property
    def dims(self):
        return self.cf.dims

    @property
    def grid_shape(self):
        return self.cf.grid_shape

    @cached_property
    def dbeta(self) -> np.ndarray:
        """d_m beta, grid + (4,)."""
        return grid_gradient(self.beta, self.spacing, self.dims)

    @cached_property
    def dlnphi2(self) -> np.ndarray:
        """d_m ln(phi^2), grid + (4,)."""
        return grid_gradient(np.log(self.phi**2), self.spacing, self.dims)

    @cached_property
    def sigma_m(self) -> "SigmaM":
        """sigma_m_potentials of these fields."""
        return sigma_m_potentials(self)

    @cached_property
    def dP(self) -> np.ndarray:
        """d_m P_n with layout [..., n, m]."""
        return grid_gradient(self.cf.P, self.spacing, self.dims)

    @cached_property
    def F(self) -> np.ndarray:
        """Field strength of the connection P, layout [..., m, n]."""
        return field_strength(self.dP, self.ext.q)


def dirac_residual(g: GridField, ext: ExternalPotentials) -> np.ndarray:
    """Pointwise norm of i gamma^mu nabla_mu psi - X W_mu gamma^mu pi psi - m psi.

    The covariant derivative includes the external spin connection and
    gauge potential; plain grid differencing supplies the partials, so the
    result on an exact solution is pure O(h^2) discretization error.
    """
    shape = g.dims
    a = ext.a_field(shape)
    om = ext.omega_field(shape)
    w = ext.w_field(shape)

    dpsi = grid_gradient(g.values, g.spacing, g.dims)
    nabla = (
        dpsi
        + 0.5 * np.einsum("...ijm,ijkl,...l->...km", om, _SIGMA, g.values)
        + 1j * ext.q * a[..., None, :] * g.values[..., :, None]
    )
    kinetic = 1j * np.einsum("mab,...bm->...a", BASIS.gamma, nabla)
    torsion = ext.X * np.einsum(
        "...m,mab,bc,...c->...a", w, BASIS.gamma, BASIS.pi, g.values
    )
    lhs = kinetic - torsion - ext.m * g.values
    return np.linalg.norm(lhs, axis=-1)


@dataclass(frozen=True)
class SigmaM:
    """The combined potential, its dual, and their contracted vectors.

    Sigma_full[..., i, j, m] = R_{ij m} - 2 P_m u^a s^b eps_{ijab}
    M_full[..., a, b, m]     = (1/2) R_{ij m} eps^{ijab}
                               + 2 P_m (u^a s^b - u^b s^a)
    Sigma_vec_m = Sigma_{m n}{}^n   (lower index)
    M_vec_m     = eta_{ma} M^{a b}{}_b  (lower index)

    The vector contractions are the trace over the second pair slot and the
    derivative slot; with them the polar first-order equations close on
    exact plane-wave solutions, and M_full is exactly the eps-dual of
    Sigma_full.
    """

    Sigma_full: np.ndarray
    M_full: np.ndarray
    Sigma_vec: np.ndarray
    M_vec: np.ndarray


def sigma_m_potentials(pf: PolarFields) -> SigmaM:
    p, r = pf.cf.P, pf.cf.R
    eps, eps_up = BASIS.epsilon, BASIS.epsilon_upper

    spin_plane = np.einsum("ijab,...a,...b->...ij", eps, pf.u, pf.s)
    sigma_full = r - 2.0 * p[..., None, None, :] * spin_plane[..., None]

    dual_r = 0.5 * np.einsum("...ijm,ijab->...abm", r, eps_up)
    us = np.einsum("...a,...b->...ab", pf.u, pf.s)
    m_full = dual_r + 2.0 * p[..., None, None, :] * (
        us - np.swapaxes(us, -1, -2)
    )[..., None]

    sigma_vec = np.einsum("...ijm,jm->...i", sigma_full, METRIC)
    m_vec = _flip(np.einsum("...abb->...a", m_full))
    return SigmaM(
        Sigma_full=sigma_full, M_full=m_full, Sigma_vec=sigma_vec, M_vec=m_vec
    )


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
    the irreducible split of R, reused from the connection layer.
    """
    sp = irreducible_split(pf.cf.R)
    w = pf.ext.w_field(pf.grid_shape)
    y = 0.5 * (pf.dbeta - 2.0 * pf.ext.X * w + sp.Ba)
    z = -0.5 * (pf.dlnphi2 + sp.Ra)
    return QuantumPotentials(Y=y, Z=z)


@dataclass(frozen=True)
class HJResiduals:
    res1: np.ndarray  # grid + (4,), lower index
    res2: np.ndarray


def hj_residuals(pf: PolarFields, qp: QuantumPotentials) -> HJResiduals:
    """Hamilton-Jacobi pair:

    res1_m = P^i (u_i s_m - u_m s_i) - Y_m - m s_m cos(beta)
    res2_m = P^r u^n s^a eps_{mrna} + Z_m - m s_m sin(beta)

    Built independently of polar_dirac_residuals; the two agree exactly
    (res_hj = -res_polar / 2), which the tests assert as a cross-check.
    """
    p_up = _flip(pf.cf.P)  # raise the lower-index connection vector
    s_low = _flip(pf.s)
    u_low = _flip(pf.u)
    pu = np.einsum("...m,...m->...", pf.cf.P, pf.u)
    ps = np.einsum("...m,...m->...", pf.cf.P, pf.s)
    cos_b = np.cos(pf.beta)
    sin_b = np.sin(pf.beta)
    res1 = (
        pu[..., None] * s_low
        - ps[..., None] * u_low
        - qp.Y
        - pf.ext.m * s_low * cos_b[..., None]
    )
    res2 = (
        np.einsum("mrna,...r,...n,...a->...m", BASIS.epsilon, p_up, pf.u, pf.s)
        + qp.Z
        - pf.ext.m * s_low * sin_b[..., None]
    )
    return HJResiduals(res1=res1, res2=res2)


def guidance_momentum(pf: PolarFields, qp: QuantumPotentials) -> np.ndarray:
    """Explicit momentum, lower index:

    P^r = m cos(beta) u^r + (Y.u) s^r - (Y.s) u^r
          + Z_m u_n s_a eps^{mnra}

    For any configuration solving the first-order pair this reproduces the
    connection-derived P.
    """
    yu = np.einsum("...m,...m->...", qp.Y, pf.u)
    ys = np.einsum("...m,...m->...", qp.Y, pf.s)
    cos_b = np.cos(pf.beta)
    p_up = (
        pf.ext.m * cos_b[..., None] * pf.u
        + yu[..., None] * pf.s
        - ys[..., None] * pf.u
        + np.einsum(
            "mnra,...m,...n,...a->...r",
            BASIS.epsilon_upper,
            qp.Z,
            _flip(pf.u),
            _flip(pf.s),
        )
    )
    return _flip(p_up)


@dataclass(frozen=True)
class SecondOrderResiduals:
    res_general: np.ndarray
    res_standard: np.ndarray
    res_effective: np.ndarray


def second_order_residuals(
    pf: PolarFields, qp: QuantumPotentials, r_tol: float = 1e-8
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

    Mt is the torsion mass.  With X = 0 the effective equation is exactly
    -phi times the general one evaluated on zero-beta inputs.
    """
    r_max = float(np.max(np.abs(pf.cf.R)))
    if r_max > r_tol:
        raise PreconditionViolated(
            f"max |R| = {r_max:.3e} > {r_tol:.3e}: the standard balance "
            "equation assumes a vanishing tensorial connection"
        )
    sm = pf.sigma_m
    ext = pf.ext
    w = ext.w_field(pf.grid_shape)
    m, x_coup, mt = ext.m, ext.X, ext.M_torsion

    box_phi = _box(pf.phi, pf.spacing, pf.dims)
    box_over_phi = box_phi / pf.phi

    sig_up = _flip(sm.Sigma_vec)
    div_sigma = np.trace(
        grid_gradient(sig_up, pf.spacing, pf.dims), axis1=-2, axis2=-1
    )
    sig_sq = _mink_sq(sm.Sigma_vec)
    m_sq = _mink_sq(sm.M_vec)
    wm = np.einsum("...m,...m->...", w, _flip(sm.M_vec))
    w_sq = _mink_sq(w)

    res_general = (
        0.25 * _mink_sq(pf.dbeta)
        - m**2
        - box_over_phi
        + 0.25 * (-2.0 * div_sigma + sig_sq - m_sq + 4.0 * x_coup * wm
                  - 4.0 * x_coup**2 * w_sq)
    )

    f_term = np.einsum(
        "mnrs,...mn,...r,...s->...",
        BASIS.epsilon_upper,
        pf.F,
        _flip(pf.u),
        _flip(pf.s),
    )
    res_standard = (
        _mink_sq(pf.cf.P) - m**2 - 0.5 * ext.q * f_term - box_over_phi
    )

    ms = np.einsum("...m,...m->...", _flip(sm.M_vec), pf.s)
    res_effective = (
        box_phi
        - 4.0 * x_coup**4 / mt**4 * pf.phi**5
        - 2.0 * x_coup**2 / mt**2 * ms * pf.phi**3
        + 0.25 * (2.0 * div_sigma - sig_sq + m_sq + 4.0 * m**2) * pf.phi
    )
    return SecondOrderResiduals(
        res_general=res_general,
        res_standard=res_standard,
        res_effective=res_effective,
    )


@dataclass(frozen=True)
class EnergyTensor:
    T: np.ndarray  # grid + (4, 4), upper indices
    E: np.ndarray  # grid + (4, 4, 4), upper indices [rho, sigma, kappa]


def _spin_energy(pf: PolarFields, qp: QuantumPotentials) -> np.ndarray:
    """E^{rho sigma kappa}: the spin-coupled part of the matter energy."""
    eta_up = METRIC  # diagonal, so the inverse has the same entries
    eps_up = BASIS.epsilon_upper
    y_up = _flip(qp.Y)
    u_low = _flip(pf.u)
    yu = np.einsum("...m,...m->...", qp.Y, pf.u)
    r = pf.cf.R
    r_last_up = _flip(r)

    e = (
        np.einsum("rk,...s->...rsk", eta_up, y_up)
        + np.einsum("sk,...r->...rsk", eta_up, y_up)
        - 2.0 * np.einsum("...k,...s,...r->...rsk", y_up, pf.u, pf.u)
        + np.einsum("...,...r,sk->...rsk", yu, pf.u, eta_up)
        + np.einsum("...,...s,rk->...rsk", yu, pf.u, eta_up)
        + np.einsum("mnsk,...m,...n,...r->...rsk", eps_up, qp.Z, u_low, pf.u)
        + np.einsum("mnrk,...m,...n,...s->...rsk", eps_up, qp.Z, u_low, pf.u)
        - 0.25
        * (
            np.einsum("rank,...ans->...rsk", eps_up, r_last_up)
            + np.einsum("sank,...anr->...rsk", eps_up, r_last_up)
            + np.einsum("rnai,...nai,sk->...rsk", eps_up, r, eta_up)
            + np.einsum("snai,...nai,rk->...rsk", eps_up, r, eta_up)
        )
    )
    return pf.phi[..., None, None, None] ** 2 * e


def energy_and_newton(pf: PolarFields, qp: QuantumPotentials):
    """Matter energy tensor (plus field parts if external A/W given) and the
    spinless Newton-law residual u^n d_n P^s - q F^{s a} u_a (upper index).
    """
    e = _spin_energy(pf, qp)
    cos_b = np.cos(pf.beta)
    t = 2.0 * pf.phi[..., None, None] ** 2 * pf.ext.m * cos_b[
        ..., None, None
    ] * np.einsum("...s,...r->...rs", pf.u, pf.u) + np.einsum(
        "...rsk,...k->...rs", e, _flip(pf.s)
    )

    def add_field_energy(t, v_low):
        """t + F^2 eta/4 - F^{ra} F^s_a for F_{mn} = d_m v_n - d_n v_m."""
        dv = grid_gradient(v_low, pf.spacing, pf.dims)
        f_low = np.swapaxes(dv, -1, -2) - dv
        f_mixed = f_low * _ETA_DIAG[:, None]  # F^r{}_n
        f_up = _flip(f_mixed)
        f_sq = np.einsum("...mn,...mn->...", f_up, f_low)
        return t + 0.25 * f_sq[..., None, None] * METRIC - np.einsum(
            "...ra,...sa->...rs", f_up, f_mixed
        )

    ext = pf.ext
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

    dp_up = pf.dP * _ETA_DIAG[:, None]  # [..., s, n] = d_n P^s
    advect = np.einsum("...sn,...n->...s", dp_up, pf.u)
    f_conn_up = _flip(pf.F * _ETA_DIAG[:, None])
    newton = advect - ext.q * np.einsum(
        "...sa,...a->...s", f_conn_up, _flip(pf.u)
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
        lap = 0.0
        for ax in range(phi.ndim):
            g1 = np.gradient(phi, spacing[ax], axis=ax, edge_order=2)
            g2 = np.gradient(g1, spacing[ax], axis=ax, edge_order=2)
            lap += g2[index]
        h -= lap / (2.0 * m * phi[index])
    return h
