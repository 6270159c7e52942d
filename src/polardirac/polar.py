"""Exact polar decomposition and reconstruction of Dirac and Pauli spinors.

A regular spinor (Theta^2 + Phi^2 > 0) is written as

    psi = phi * e^{-i q alpha} * e^{-i beta pi / 2} * M * (1, 0, 1, 0)^T

where M = B(chi) R(theta) is the canonical boost-then-rotation carrying the
rest-frame reference configuration (u = e_0, s = e_3) onto the actual
velocity u and spin s.  The six parameters (chi, theta) are the Goldstone
fields; alpha is the gauge phase with charge q.

Canonicalization: chi is the unique pure-boost rapidity with V(B) e_0 = u;
theta is the rotation taking e_3 to the boosted-back spin axis, about the
axis e_3 x n (tie-break: rotation about x by pi when n = -e_3); whatever
little-group phase remains is real on the reference spinor and is absorbed
into alpha, which makes the roundtrip exact rather than merely projective.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bilinears import compute_bilinears
from .clifford import PAULI, _axis_angle_from_z, _boost_rotation
from .clifford import _exp_pauli, minkowski_dot
from .errors import (
    InvalidPolar,
    PreconditionViolated,
    SingularSpinor,
    ZeroSpinor,
)
from .fields import _require_finite, _site_location, _sitewise

EPS_SINGULAR = 1e-24


@dataclass(frozen=True)
class PolarData:
    """Polar variables of one spinor or an array of them.

    phi, beta, alpha have the grid shape; u, s append a 4-axis and
    goldstone a 6-axis (rapidity vector then rotation vector).
    """

    phi: np.ndarray
    beta: np.ndarray
    u: np.ndarray
    s: np.ndarray
    goldstone: np.ndarray
    alpha: np.ndarray
    q: float = 1.0


@dataclass(frozen=True)
class PauliPolarData:
    phi: np.ndarray
    s3: np.ndarray
    rotation: np.ndarray


@dataclass(frozen=True)
class NonRelDeviation:
    beta_mag: np.ndarray
    speed: np.ndarray
    small_norm: np.ndarray


def _half_phases(beta) -> np.ndarray:
    """(e^{i beta/2}, e^{-i beta/2}): e^{-i beta pi/2} per chiral block."""
    up = np.exp(0.5j * np.asarray(beta, dtype=float))
    return np.stack((up, np.conj(up)), axis=-1)


def _frame_spinor(beta, m) -> np.ndarray:
    """e^{-i beta pi / 2} M (1, 0, 1, 0)^T, shape (..., 4), for M given as
    chiral blocks m [..., block, row, col]: the first column of each block
    times its half phase."""
    cols = _half_phases(beta)[..., None] * m[..., 0]
    return cols.reshape(cols.shape[:-2] + (4,))


def _require_charge(q) -> None:
    """Raise PreconditionViolated naming q unless the charge is finite and
    nonzero: the gauge phase alpha and the Goldstone phase derivative
    divide by q."""
    if q == 0.0 or not np.isfinite(q):
        raise PreconditionViolated(
            f"charge q = {q!r}: the gauge phase needs a finite nonzero q"
        )


def decompose(psi, q: float = 1.0) -> PolarData:
    """Split spinors into module, chiral angle, Goldstone parameters, phase.

    Accepts shape (..., 4).  Raises SingularSpinor, naming the site of the
    smallest Theta^2 + Phi^2, if any point has Theta^2 + Phi^2 <=
    EPS_SINGULAR (flag spinors are out of scope), and
    PreconditionViolated unless q is finite and nonzero and every spinor
    component is finite.
    The result satisfies reconstruct(decompose(psi)) == psi to roundoff.
    """
    _require_charge(q)
    psi = np.asarray(psi, dtype=complex)
    _require_finite(
        psi, "spinor component", "the polar decomposition needs finite input"
    )
    b = compute_bilinears(psi)
    mod2 = b.theta**2 + b.phi_scalar**2
    if np.any(mod2 <= EPS_SINGULAR):
        worst = np.unravel_index(np.argmin(mod2), mod2.shape)
        raise SingularSpinor(
            f"Theta^2 + Phi^2 down to {float(mod2[worst]):.3e} at "
            f"{_site_location(worst)}; polar decomposition undefined"
        )
    parts = _sitewise(
        functools.partial(_polar_sites, q=q),
        psi.shape[:-1], psi, b.theta, b.phi_scalar, b.U, b.S, mod2,
    )
    return PolarData(*parts, q=q)


def _chiral_angle(theta, phi) -> np.ndarray:
    """beta = arg(Phi + i Theta) in (-pi, pi]: -pi is read as pi."""
    beta = np.arctan2(theta, phi)
    return np.where(beta == -np.pi, np.pi, beta)


def _polar_sites(psi, big_theta, big_phi, U, S, mod2, q):
    """(phi, beta, u, s, goldstone, alpha) of decompose at each site, from
    the spinors, their bilinears Theta, Phi, U, S and Theta^2 + Phi^2,
    which must exceed EPS_SINGULAR."""
    rho = np.sqrt(mod2)  # = 2 phi^2 = sqrt(U.U)
    phi = np.sqrt(0.5 * rho)
    beta = _chiral_angle(big_theta, big_phi)
    u = U / rho[..., None]
    s = S / rho[..., None]

    uvec = u[..., 1:]
    umag = np.linalg.norm(uvec, axis=-1)
    chi_mag = np.arcsinh(umag)
    udir = np.where(umag[..., None] > 1e-300, uvec, [0.0, 0.0, 1.0])
    udir = udir / np.linalg.norm(udir, axis=-1, keepdims=True)
    chi = chi_mag[..., None] * udir

    # the rest-frame spin, s boosted by -u (exact as u.s = 0), and its axis
    n = s[..., 1:] - (s[..., 0] / (1.0 + u[..., 0]))[..., None] * uvec
    n = n / np.linalg.norm(n, axis=-1, keepdims=True)
    theta = _axis_angle_from_z(n)

    goldstone = np.concatenate([chi, theta], axis=-1)
    candidate = phi[..., None] * _frame_spinor(beta, _boost_rotation(goldstone))
    overlap = np.sum(np.conj(candidate) * psi, axis=-1)
    norm = np.sum(np.abs(candidate) ** 2, axis=-1)
    alpha = -np.angle(overlap / norm) / q
    return phi, beta, u, s, goldstone, alpha


def reconstruct(p: PolarData) -> np.ndarray:
    """Rebuild the spinor phi e^{-iq alpha} e^{-i beta pi/2} M (1,0,1,0)^T.

    Raises InvalidPolar, naming the worst site, unless u.u = 1, s.s = -1
    and u.s = 0 hold to 1e-6.
    """
    u = np.asarray(p.u, dtype=float)
    s = np.asarray(p.s, dtype=float)
    bad_u = np.abs(minkowski_dot(u, u) - 1.0)
    bad_s = np.abs(minkowski_dot(s, s) + 1.0)
    bad_us = np.abs(minkowski_dot(u, s))
    worst = max(
        float(np.max(bad_u)), float(np.max(bad_s)), float(np.max(bad_us))
    )
    if worst > 1e-6:
        bad = np.maximum(np.maximum(bad_u, bad_s), bad_us)
        site = np.unravel_index(np.argmax(bad), bad.shape)
        raise InvalidPolar(
            f"u/s normalization violated by {worst:.3e} (limit 1e-6) at "
            f"{_site_location(site)}"
        )
    psi = _frame_spinor(p.beta, _boost_rotation(p.goldstone))
    phase = np.exp(-1j * p.q * np.asarray(p.alpha, dtype=float))
    return np.asarray(p.phi, dtype=float)[..., None] * phase[..., None] * psi


def decompose_pauli(chi2) -> tuple[PauliPolarData, np.ndarray]:
    """Polar form of 2-component spinors: chi = e^{i delta} phi R(theta)(1,0)^T.

    Returns the polar data and the global phase delta separately.
    PreconditionViolated names the first component that is not finite,
    ZeroSpinor the first site where chi vanishes.
    """
    chi2 = np.asarray(chi2, dtype=complex)
    _require_finite(
        chi2, "spinor component", "the polar decomposition needs finite input"
    )
    norm2 = np.sum(np.abs(chi2) ** 2, axis=-1)
    zero = np.argwhere(norm2 == 0.0)
    if len(zero):
        where = _site_location(zero[0])
        raise ZeroSpinor(f"cannot decompose a vanishing Pauli spinor at {where}")
    phi = np.sqrt(norm2)
    svec = np.real(
        np.einsum("...i,kij,...j->...k", chi2.conj(), PAULI, chi2)
    ) / norm2[..., None]
    theta = _axis_angle_from_z(svec)
    rot = _exp_pauli(-0.5j * theta)
    candidate = phi[..., None] * rot[..., :, 0]
    overlap = np.sum(np.conj(candidate) * chi2, axis=-1)
    delta = np.angle(overlap)
    return PauliPolarData(phi=phi, s3=svec, rotation=theta), delta


def reconstruct_pauli(p: PauliPolarData, delta) -> np.ndarray:
    """Inverse of decompose_pauli."""
    theta = np.asarray(p.rotation, dtype=float)
    rot = _exp_pauli(-0.5j * theta)
    phase = np.exp(1j * np.asarray(delta, dtype=float))
    return (np.asarray(p.phi) * phase)[..., None] * rot[..., :, 0]


# Change of basis to the standard (Dirac) representation, in which the
# lower two components are the "small" ones suppressed at low velocity.
_TO_STANDARD = np.array(
    [
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [-1, 0, 1, 0],
        [0, -1, 0, 1],
    ],
    dtype=complex,
) / np.sqrt(2.0)


def small_component_fraction(psi) -> np.ndarray:
    """Norm fraction carried by the standard-representation small components."""
    psi = np.asarray(psi, dtype=complex)
    std = np.einsum("ij,...j->...i", _TO_STANDARD, psi)
    low = np.linalg.norm(std[..., 2:], axis=-1)
    full = np.linalg.norm(std, axis=-1)
    return low / np.where(full > 0.0, full, 1.0)


def nonrel_deviation(p: PolarData) -> NonRelDeviation:
    """Measures that must all vanish in the non-relativistic regime.

    beta_mag = |beta| and speed = |u_spatial| / u^0 are the two polar-side
    conditions; small_norm is the standard-representation small-component
    fraction of the reconstructed spinor, which vanishes only when both do.
    """
    beta_mag = np.abs(np.asarray(p.beta, dtype=float))
    u = np.asarray(p.u, dtype=float)
    speed = np.linalg.norm(u[..., 1:], axis=-1) / u[..., 0]
    small = small_component_fraction(reconstruct(p))
    return NonRelDeviation(beta_mag=beta_mag, speed=speed, small_norm=small)
