"""Real bilinear observables of a Dirac spinor and their algebraic identities.

For a spinor psi with adjoint psibar = psi^dagger gamma^0 the ten real
observables are

    Phi   = psibar psi                 (scalar)
    Theta = i psibar pi psi            (pseudo-scalar)
    U^a   = psibar gamma^a psi         (current)
    S^a   = psibar gamma^a pi psi      (spin axial-vector)

They obey U.S = 0 and U.U = -S.S = Theta^2 + Phi^2.  Everything here is
computed from exact matrix products so the module can serve as an
independent oracle for the polar decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import BASIS, minkowski_dot
from .errors import ImaginaryResidue
from .fields import _site_location, _sitewise

IMAG_TOL = 1e-10


def _sandwich_stack() -> np.ndarray:
    """The ten hermitian 4x4 matrices K with observable = psi^dag K psi.

    Order: Theta, Phi, U^0..U^3, S^0..S^3.  Hermiticity of every entry is
    what guarantees the observables are real.
    """
    g0 = BASIS.gamma[0]
    mats = [1j * g0 @ BASIS.pi, g0]
    mats += [g0 @ BASIS.gamma[a] for a in range(4)]
    mats += [g0 @ BASIS.gamma[a] @ BASIS.pi for a in range(4)]
    stack = np.stack(mats)
    for k, m in enumerate(stack):
        if not np.array_equal(m, m.conj().T):
            raise ImaginaryResidue(f"sandwich matrix {k} is not hermitian")
    return stack


_STACK = _sandwich_stack()


@dataclass(frozen=True)
class Bilinears:
    """The ten real observables; array-valued over leading grid axes."""

    theta: np.ndarray
    phi_scalar: np.ndarray
    U: np.ndarray
    S: np.ndarray


def _pair_weights(stack) -> np.ndarray:
    """Real (32, 20) matrix W with (psi_i^* psi_j, viewed as 32 floats) @ W
    = (Re, Im) of the observables psi^dag K psi of each K in stack
    (10, 4, 4): (re + i im)(a + i b) has real part re a - im b and
    imaginary part re b + im a."""
    k = stack.reshape(len(stack), 16).T  # [ij, observable]
    w = np.empty((16, 2, 2, len(stack)))
    w[:, 0, 0], w[:, 0, 1] = k.real, k.imag  # times Re psi_i^* psi_j
    w[:, 1, 0], w[:, 1, 1] = -k.imag, k.real  # times Im psi_i^* psi_j
    return w.reshape(32, 2 * len(stack))


def _observables(psi, modulus: bool = False,
                 locate=_site_location) -> np.ndarray:
    """Theta, Phi, U^0..U^3, S^0..S^3 of spinors psi (..., 4) as one real
    array (..., 10), or (..., 11) with Theta^2 + Phi^2 last when modulus
    is set; ImaginaryResidue as in compute_bilinears, naming the site
    locate(index) of its index into the leading axes of psi."""
    psi = np.asarray(psi, dtype=complex)
    weights = _pair_weights(_STACK)

    def sites(psi):
        # the real parts, and per site the largest |Im| where it
        # exceeds the tolerance (else 0), scaled by U^0 = psi^dag psi
        pairs = psi.conj()[..., :, None] * psi[..., None, :]
        vals = pairs.reshape(psi.shape[:-1] + (16,)).view(float) @ weights
        imag = np.max(np.abs(vals[..., 10:]), axis=-1)
        tol = IMAG_TOL * np.maximum(1.0, vals[..., 2])
        excess = np.where(imag > tol, imag, 0.0)
        obs = vals[..., :10]
        if modulus:
            mod2 = obs[..., :1] ** 2 + obs[..., 1:2] ** 2
            obs = np.concatenate((obs, mod2), axis=-1)
        return np.ascontiguousarray(obs), excess

    vals, excess = _sitewise(sites, psi.shape[:-1], psi)
    if np.any(excess):
        worst = np.unravel_index(np.argmax(excess), excess.shape)
        raise ImaginaryResidue(
            f"bilinear imaginary residue {excess[worst]:.3e} exceeds "
            f"tolerance at {locate(worst)}"
        )
    return vals


def compute_bilinears(psi) -> Bilinears:
    """Evaluate Theta, Phi, U, S for one spinor or a whole grid of them.

    psi has shape (..., 4).  Raises ImaginaryResidue, naming the site, if
    any observable picks up an imaginary part beyond tolerance (absolute
    for unit-scale spinors, relative above that), which would signal a
    broken basis.
    """
    vals = _observables(psi)
    return Bilinears(
        theta=vals[..., 0],
        phi_scalar=vals[..., 1],
        U=vals[..., 2:6],
        S=vals[..., 6:10],
    )


@dataclass(frozen=True)
class FierzResiduals:
    """Violations of the bilinear identities, raw and scale-normalized."""

    r1: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    r1_norm: np.ndarray
    r2_norm: np.ndarray
    r3_norm: np.ndarray


def fierz_residuals(b: Bilinears) -> FierzResiduals:
    """r1 = U.S, r2 = U.U - Theta^2 - Phi^2, r3 = S.S + Theta^2 + Phi^2.

    The evaluator is total: hand-built inconsistent inputs simply yield
    nonzero residuals.  Normalized values divide by Theta^2 + Phi^2 where
    that is nonzero and are left raw where it vanishes.
    """
    mod = b.theta**2 + b.phi_scalar**2
    r1 = minkowski_dot(b.U, b.S)
    r2 = minkowski_dot(b.U, b.U) - mod
    r3 = minkowski_dot(b.S, b.S) + mod
    denom = np.where(mod > 0.0, mod, 1.0)
    return FierzResiduals(
        r1=r1,
        r2=r2,
        r3=r3,
        r1_norm=r1 / denom,
        r2_norm=r2 / denom,
        r3_norm=r3 / denom,
    )
