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

from dataclasses import dataclass

import numpy as np

from .bilinears import compute_bilinears
from .clifford import (
    PAULI,
    _exp_pauli,
    boost_matrices,
    goldstone_matrices,
    minkowski_dot,
)
from .errors import (
    InvalidPolar,
    PreconditionViolated,
    SingularSpinor,
    ZeroSpinor,
)

#: Rest-frame reference spinor: u = (1,0,0,0), s = (0,0,0,1), beta = 0, phi = 1.
REFERENCE = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)

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


def chiral_phase(beta) -> np.ndarray:
    """e^{-i beta pi / 2} as a batched diagonal matrix, shape (..., 4, 4)."""
    beta = np.asarray(beta, dtype=float)
    up = np.exp(0.5j * beta)
    out = np.zeros(beta.shape + (4, 4), dtype=complex)
    for k in range(2):
        out[..., k, k] = up
        out[..., k + 2, k + 2] = np.conj(up)
    return out


def _axis_angle_from_z(n: np.ndarray) -> np.ndarray:
    """Rotation vector theta with R(theta) e_3 = n for unit 3-vectors n.

    Rotates about e_3 x n; at the antipodal point n = -e_3 the axis is
    degenerate and the x axis is chosen.
    """
    axis = np.stack(
        [-n[..., 1], n[..., 0], np.zeros_like(n[..., 0])], axis=-1
    )
    mag = np.linalg.norm(axis, axis=-1)
    omega = np.arctan2(mag, n[..., 2])
    safe = np.where(mag[..., None] > 1e-300, axis, [1.0, 0.0, 0.0])
    safe = safe / np.linalg.norm(safe, axis=-1, keepdims=True)
    return omega[..., None] * safe


def _require_charge(q) -> None:
    """Raise PreconditionViolated naming q unless the charge is finite and
    nonzero: the gauge phase alpha and the Goldstone phase derivative
    divide by q."""
    if q == 0.0 or not np.isfinite(q):
        raise PreconditionViolated(
            f"charge q = {q!r}: the gauge phase needs a finite nonzero q"
        )


def decompose(psi, q: float = 1.0, eps_sing: float = EPS_SINGULAR) -> PolarData:
    """Split spinors into module, chiral angle, Goldstone parameters, phase.

    Accepts shape (..., 4).  Raises SingularSpinor if any point has
    Theta^2 + Phi^2 <= eps_sing (flag spinors are out of scope), and
    PreconditionViolated unless q is finite and nonzero and every spinor
    component is finite.
    The result satisfies reconstruct(decompose(psi)) == psi to roundoff.
    """
    _require_charge(q)
    psi = np.asarray(psi, dtype=complex)
    finite = np.isfinite(psi)
    if not finite.all():
        where = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise PreconditionViolated(
            f"spinor component {where} is {psi[where]}: "
            "the polar decomposition needs finite input"
        )
    b = compute_bilinears(psi)
    mod2 = b.theta**2 + b.phi_scalar**2
    if np.any(mod2 <= eps_sing):
        raise SingularSpinor(
            f"Theta^2 + Phi^2 down to {float(np.min(mod2)):.3e}; "
            "polar decomposition undefined"
        )
    rho = np.sqrt(mod2)  # = 2 phi^2 = sqrt(U.U)
    phi = np.sqrt(0.5 * rho)
    beta = np.arctan2(b.theta, b.phi_scalar)
    beta = np.where(beta == -np.pi, np.pi, beta)
    u = b.U / rho[..., None]
    s = b.S / rho[..., None]

    uvec = u[..., 1:]
    umag = np.linalg.norm(uvec, axis=-1)
    chi_mag = np.arcsinh(umag)
    udir = np.where(umag[..., None] > 1e-300, uvec, [0.0, 0.0, 1.0])
    udir = udir / np.linalg.norm(udir, axis=-1, keepdims=True)
    chi = chi_mag[..., None] * udir

    # boost the spin back to the rest frame and read off its axis
    _, v_inv = boost_matrices(-chi)
    s_rest = np.einsum("...ab,...b->...a", v_inv, s)
    n = s_rest[..., 1:]
    n = n / np.linalg.norm(n, axis=-1, keepdims=True)
    theta = _axis_angle_from_z(n)

    goldstone = np.concatenate([chi, theta], axis=-1)
    m, _ = goldstone_matrices(goldstone)
    candidate = phi[..., None] * np.einsum(
        "...ij,...j->...i", chiral_phase(beta) @ m, REFERENCE
    )
    overlap = np.sum(np.conj(candidate) * psi, axis=-1)
    norm = np.sum(np.abs(candidate) ** 2, axis=-1)
    alpha = -np.angle(overlap / norm) / q
    return PolarData(
        phi=phi, beta=beta, u=u, s=s, goldstone=goldstone, alpha=alpha, q=q
    )


def reconstruct(p: PolarData) -> np.ndarray:
    """Rebuild the spinor phi e^{-iq alpha} e^{-i beta pi/2} M (1,0,1,0)^T."""
    u = np.asarray(p.u, dtype=float)
    s = np.asarray(p.s, dtype=float)
    bad_u = np.abs(minkowski_dot(u, u) - 1.0)
    bad_s = np.abs(minkowski_dot(s, s) + 1.0)
    bad_us = np.abs(minkowski_dot(u, s))
    worst = max(
        float(np.max(bad_u)), float(np.max(bad_s)), float(np.max(bad_us))
    )
    if worst > 1e-6:
        raise InvalidPolar(
            f"u/s normalization violated by {worst:.3e} (limit 1e-6)"
        )
    m, _ = goldstone_matrices(np.asarray(p.goldstone, dtype=float))
    psi = np.einsum("...ij,...j->...i", chiral_phase(p.beta) @ m, REFERENCE)
    phase = np.exp(-1j * p.q * np.asarray(p.alpha, dtype=float))
    return np.asarray(p.phi, dtype=float)[..., None] * phase[..., None] * psi


def decompose_pauli(chi2) -> tuple[PauliPolarData, np.ndarray]:
    """Polar form of 2-component spinors: chi = e^{i delta} phi R(theta)(1,0)^T.

    Returns the polar data and the global phase delta separately.
    """
    chi2 = np.asarray(chi2, dtype=complex)
    norm2 = np.sum(np.abs(chi2) ** 2, axis=-1)
    if np.any(norm2 == 0.0):
        raise ZeroSpinor("cannot decompose a vanishing Pauli spinor")
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
