"""Oracles of the tests, independent of the package kernels.

Dense 4x4 routes beside the kernels that read sl(2,C) off the Pauli
components of the two chiral blocks: np.linalg.inv, a stencil written out
site by site, and einsums over the sigma^{ab} basis.  The csv module's
writer beside the joined lines of trajectories.write_csv.  The rest-frame
spinor and the 4x4 chiral phase that test inputs are built from.  And the
transform checks of verify's algebraic and roundtrip suites, one
exp_lorentz call per row, beside the suites' batched array expressions.
"""

import csv
import io
from dataclasses import replace

import numpy as np

from polardirac.clifford import (
    BASIS,
    METRIC,
    _chiral_join,
    _chiral_split,
    exp_lorentz,
    goldstone_matrices,
    induced_vector,
)
from polardirac.connections import _curvature_vectors, _spin_vectors
from polardirac.fields import grid_gradient
from polardirac.polar import decompose
from polardirac.trajectories import CSV_FIELDS

#: Rest-frame reference spinor: u = (1,0,0,0), s = (0,0,0,1), beta = 0, phi = 1.
REFERENCE = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)


def chiral_phase(beta):
    """e^{-i beta pi / 2} as a batched diagonal matrix, shape (..., 4, 4):
    pi = diag(-1, -1, 1, 1), so e^{i beta/2} twice, then its conjugate."""
    up = np.exp(0.5j * np.asarray(beta, dtype=float))[..., None]
    diag = np.concatenate((up, up, np.conj(up), np.conj(up)), axis=-1)
    return diag[..., None] * np.eye(4)


def site_fd(arr, axis, point, h):
    """2nd-order derivative along one axis at a site index of arr (grid on
    its first four axes): central in the interior, one-sided 2nd-order at
    the two edge layers; np.gradient's stencil, written out."""
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


def spin_matrix(t):
    """(1/2) T_{ab m} sigma^{ab}, layout [..., k, l, m] from [..., a, b, m]."""
    return 0.5 * np.einsum("...abm,abkl->...klm", t, BASIS.sigma)


def spin_components(mats):
    """T_{ab m} = Re tr(sigma^{ab dag} M_m), layout [..., a, b, m] from
    [..., row, col, m]: the inverse of spin_matrix on antisymmetric T, as
    the sigma^{ab} (a < b) are orthonormal and orthogonal to I."""
    return np.real(np.einsum("abji,...jim->...abm", np.conj(BASIS.sigma), mats))


def dense_projection(x_mats, q):
    """(dxi, dxi_ab, leak) of X_mu = L^{-1} d_mu L, dense [..., row, col, mu]:
    the trace, spin_components, and the Frobenius norm of what the two
    leave out of X."""
    dxi = np.einsum("...iim->...m", x_mats).imag / (4.0 * q)
    dxi_ab = spin_components(x_mats)
    recon = spin_matrix(dxi_ab) + 1j * q * np.einsum(
        "...m,ij->...ijm", dxi, np.eye(4)
    )
    leak = np.linalg.norm(x_mats - recon, axis=(-3, -2))
    return dxi, dxi_ab, leak


def _unwrapped(lf, mats, ax, point):
    """The 4x4 L of lf, mats, with the sign (-1)^(wraps of lf.beta between
    each site and point along ax) applied, so that L is continuous on that
    line."""
    if lf.beta is None:
        return mats
    line = list(point)
    line[ax] = slice(None)
    jumps = np.abs(np.diff(lf.beta[tuple(line)])) > np.pi
    wraps = np.concatenate([[0], np.cumsum(jumps)])
    shape = [1] * mats.ndim
    shape[ax] = -1
    sign = (-1.0) ** (wraps - wraps[point[ax]])
    return sign.reshape(shape) * mats


def goldstone_derivative(lf, point):
    """(dxi, dxi_ab, leak) at one grid index of a TransformField, by
    np.linalg.inv of the joined 4x4 L, site_fd across a wrap of lf.beta
    (_unwrapped) and dense_projection; no leak check."""
    full = _chiral_join(lf.blocks)
    x_mats = np.zeros((4, 4, 4), dtype=complex)
    l_inv = np.linalg.inv(full[tuple(point)])
    for ax in range(4):
        if lf.grid_shape[ax] > 1:
            mats = _unwrapped(lf, full, ax, point)
            x_mats[:, :, ax] = l_inv @ site_fd(mats, ax, point, lf.spacing[ax])
    return dense_projection(x_mats, lf.q)


def transform_connection_inputs(lf, ext, s_params, zeta, dzeta):
    """Apply a local frame/gauge change to (L, Omega, A).

    s_params (grid + (6,)) generates the spin transformation S(x); zeta is
    the local phase with analytic gradient dzeta, both on the grid of lf.
    Returns (L', ext', V(S)) for L' = e^{i q zeta} L S^{-1}, A' = A + d zeta
    and Omega'_mat = S Omega_mat S^{-1} - (dS) S^{-1}, so that a test can
    check P' = P and R'_{ab} = (V^{-1})^c_a (V^{-1})^d_b R_{cd}.
    """
    s_mat, v_mat = goldstone_matrices(s_params)
    s_inv = np.linalg.inv(s_mat)
    phase = np.exp(1j * lf.q * np.asarray(zeta, dtype=float))
    l_new = phase[..., None, None] * (_chiral_join(lf.blocks) @ s_inv)

    shape = lf.grid_shape
    om_mat = spin_matrix(ext.omega_field(shape))
    ds = grid_gradient(s_mat, lf.spacing)
    om_new_mat = np.einsum(
        "...ij,...jkm,...kl->...ilm", s_mat, om_mat, s_inv
    ) - np.einsum("...ijm,...jk->...ikm", ds, s_inv)
    ext_new = replace(
        ext, A=ext.a_field(shape) + dzeta, Omega=spin_components(om_new_mat)
    )
    return replace(lf, blocks=_chiral_split(l_new)), ext_new, v_mat


def csv_bytes(trajectories, combined):
    """The bytes of one write_csv file holding trajectories (one flow line
    unless combined), by csv.writer(lineterminator="\n") over the repr of
    every value."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow((("trajectory",) if combined else ()) + CSV_FIELDS)
    for k, traj in enumerate(trajectories):
        lead = [str(k)] if combined else []
        w.writerows(lead + [repr(v) for v in row] for row in traj.rows.tolist())
    return buf.getvalue().encode()


def transform_residuals(params):
    """(metric_preservation, vector_transform, homomorphism) residuals of
    verify's algebraic suite for the rows of params (n, 6), with one
    exp_lorentz call per row and running maxima; homomorphism compares
    each row with the one before it."""
    g = BASIS.gamma
    worst_metric = worst_vec = worst_hom = 0.0
    prev = None
    for row in params:
        st = exp_lorentz(row)
        v = st.vector
        worst_metric = max(
            worst_metric, float(np.max(np.abs(v.T @ METRIC @ v - METRIC)))
        )
        lam_inv = np.linalg.inv(st.lorentz)
        sandwich = np.einsum("ij,ajk,kl->ail", lam_inv, g, st.lorentz)
        worst_vec = max(
            worst_vec,
            float(np.max(np.abs(sandwich - np.einsum("ab,bij->aij", v, g)))),
        )
        if prev is not None:
            vv = induced_vector(prev.lorentz @ st.lorentz)
            worst_hom = max(
                worst_hom, float(np.max(np.abs(vv - prev.vector @ v)))
            )
        prev = st
    return worst_metric, worst_vec, worst_hom


def covariance_residual(psi, rows, q):
    """The covariance residual of verify's roundtrip suite: decompose psi
    (n, 4) once per row of rows (k, 6) after the row's exp_lorentz, and
    take the largest departure of u, s, phi and beta from the transformed
    polar variables of psi."""
    pd = decompose(psi, q=q)
    worst = 0.0
    for row in rows:
        st = exp_lorentz(row)
        pd2 = decompose(psi @ st.matrix.T, q=q)
        worst = max(
            worst,
            float(np.max(np.abs(pd2.u - pd.u @ st.vector.T))),
            float(np.max(np.abs(pd2.s - pd.s @ st.vector.T))),
            float(np.max(np.abs(pd2.phi - pd.phi))),
            float(np.max(np.abs(pd2.beta - pd.beta))),
        )
    return worst


def curvature_k(r, omega, spacing):
    """K of the curvature of R (with its omega, or None), [..., k, mu, nu],
    over all 16 (mu, nu) pairs: _curvature_vectors on the whole-grid
    gradient of c = _spin_vectors(R) and on o = _spin_vectors(omega), each
    over all four axes, the dense route beside _spin_curvature's carried
    axes."""
    c = _spin_vectors(r)
    om = () if omega is None else (_spin_vectors(omega),)
    return _curvature_vectors(grid_gradient(c, spacing), c, *om)


def spin_curvature(r, omega, spacing):
    """(riemann, dr_max) of _spin_curvature by the dense 16-pair route:
    the per-site max of |Re K| and |Im K| over all of curvature_k, and the
    max of |Re dc| and |Im dc| over the whole 4 x 4 gradient of c."""
    def site_max(a):
        tail = (-3, -2, -1)
        return np.maximum(
            np.max(np.abs(a.real), axis=tail), np.max(np.abs(a.imag), axis=tail)
        )

    dc = grid_gradient(_spin_vectors(r), spacing)
    return site_max(curvature_k(r, omega, spacing)), float(np.max(site_max(dc)))


def dirac_spinor_residual(f, x, m):
    """D = i gamma^mu d_mu psi - m psi of an AnalyticField f at events x,
    shape (..., 4), with d_mu psi exact from f.derivative_at: no A, W or
    Omega."""
    kinetic = np.einsum("mab,...bm->...a", BASIS.gamma, f.derivative_at(x))
    return 1j * kinetic - m * f.at(x)


def polar_pair_of_dirac(psi, d, phi, beta):
    """The polar first-order pair as a map of the Dirac residual D at
    spinors psi, with psibar = psi^dag gamma^0 and nu lowered by METRIC:

        res1_nu = -(sin beta Im psibar gamma_nu D
                    + cos beta Re psibar gamma_nu pi D) / phi^2,
        res2_nu = (cos beta Im psibar gamma_nu D
                   - sin beta Re psibar gamma_nu pi D) / phi^2,

    each shape (..., 4)."""
    bar = np.conj(psi) @ BASIS.gamma[0]
    gamma_low = np.einsum("mn,nab->mab", METRIC, BASIS.gamma)
    vec = np.einsum("...a,nab,...b->...n", bar, gamma_low, d)
    axial = np.einsum("...a,nab,...b->...n", bar, gamma_low @ BASIS.pi, d)
    sin_b, cos_b = np.sin(beta)[..., None], np.cos(beta)[..., None]
    phi2 = np.asarray(phi)[..., None] ** 2
    res1 = -(sin_b * vec.imag + cos_b * axial.real) / phi2
    res2 = (cos_b * vec.imag - sin_b * axial.real) / phi2
    return res1, res2
