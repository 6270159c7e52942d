"""Clifford algebra engine in a fixed chiral representation.

Conventions, pinned once for the whole package:

* metric signature (+, -, -, -), natural units hbar = c = 1;
* epsilon_{0123} = +1 for the rank-4 Levi-Civita symbol with lower
  indices (so epsilon^{0123} = -1 after raising with the metric);
* gamma^0 has off-diagonal identity blocks, gamma^k off-diagonal Pauli
  blocks, sigma^{ab} = (1/4)[gamma^a, gamma^b];
* pi = i gamma^0 gamma^1 gamma^2 gamma^3 = diag(-1, -1, +1, +1), the sign
  forced by the identity 2i sigma_{ab} = epsilon_{abcd} pi sigma^{cd},
  which is re-verified every time the basis is built.

Boost/rotation parameters are packed as six reals (chi_x, chi_y, chi_z,
theta_x, theta_y, theta_z) and enter the exponent through

    xi_{0k} = chi_k,   xi_{12} = theta_z,  xi_{23} = theta_x,  xi_{31} = theta_y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PolarDiracError

# Pauli matrices, indexed 0..2 for sigma^1..sigma^3.
PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
_ETA_DIAG = np.array([1.0, -1.0, -1.0, -1.0])


def _flip(vec):
    """Raise or lower the trailing index: a sign flip, as METRIC is diagonal."""
    return vec * _ETA_DIAG


def minkowski_dot(a, b) -> np.ndarray:
    """a.b with signature (+,-,-,-) over the trailing axis of length 4."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a[..., 0] * b[..., 0] - np.sum(a[..., 1:] * b[..., 1:], axis=-1)


def _levi_civita() -> np.ndarray:
    """Rank-4 totally antisymmetric symbol with eps[0,1,2,3] = +1."""
    eps = np.zeros((4, 4, 4, 4))
    from itertools import permutations

    for perm in permutations(range(4)):
        # parity by counting inversions
        inv = sum(
            1
            for i in range(4)
            for j in range(i + 1, 4)
            if perm[i] > perm[j]
        )
        eps[perm] = -1.0 if inv % 2 else 1.0
    return eps


@dataclass(frozen=True)
class CliffordBasis:
    """The fixed chiral-representation matrices and index symbols.

    gamma has shape (4, 4, 4): gamma[a] is the 4x4 matrix gamma^a.
    sigma has shape (4, 4, 4, 4): sigma[a, b] = (1/4)[gamma^a, gamma^b].
    epsilon carries lower indices (epsilon[0,1,2,3] = +1); epsilon_upper
    is the fully raised version, equal to -epsilon in this signature.
    """

    gamma: np.ndarray
    sigma: np.ndarray
    pi: np.ndarray
    metric: np.ndarray
    epsilon: np.ndarray
    epsilon_upper: np.ndarray

    @property
    def gamma_lower(self) -> np.ndarray:
        """gamma_a = eta_{ab} gamma^b, shape (4, 4, 4)."""
        return np.einsum("ab,bij->aij", self.metric, self.gamma)


def build_basis() -> CliffordBasis:
    """Construct the chiral-representation basis and verify its identities.

    Every invariant is checked with exact floating-point equality (all
    entries are representable in {0, +-1, +-i, +-1/2, +-i/2}), so a failure
    here means the module itself is broken, not a numerical issue.
    """
    gamma = np.zeros((4, 4, 4), dtype=complex)
    gamma[0, :2, 2:] = _I2
    gamma[0, 2:, :2] = _I2
    for k in range(3):
        gamma[k + 1, :2, 2:] = PAULI[k]
        gamma[k + 1, 2:, :2] = -PAULI[k]

    sigma = 0.25 * (
        np.einsum("aij,bjk->abik", gamma, gamma)
        - np.einsum("bij,ajk->abik", gamma, gamma)
    )

    pi = 1j * gamma[0] @ gamma[1] @ gamma[2] @ gamma[3]

    eps = _levi_civita()
    eps_upper = -eps  # det(eta) = -1

    basis = CliffordBasis(
        gamma=gamma,
        sigma=sigma,
        pi=pi,
        metric=METRIC.copy(),
        epsilon=eps,
        epsilon_upper=eps_upper,
    )
    _verify_basis(basis)
    return basis


def _verify_basis(b: CliffordBasis) -> None:
    g = b.gamma
    for a in range(4):
        for c in range(4):
            anti = g[a] @ g[c] + g[c] @ g[a]
            want = 2.0 * b.metric[a, c] * _I4
            if not np.array_equal(anti, want):
                raise PolarDiracError(
                    f"anticommutator identity failed at ({a},{c})"
                )
    if not np.array_equal(b.pi @ b.pi, _I4):
        raise PolarDiracError("pi^2 != identity")
    for a in range(4):
        if not np.array_equal(b.pi @ g[a] + g[a] @ b.pi, np.zeros((4, 4))):
            raise PolarDiracError(f"pi does not anticommute with gamma^{a}")
    # 2i sigma_{ab} = eps_{abcd} pi sigma^{cd}; lower indices via the metric.
    sigma_lower = np.einsum(
        "ac,bd,cdij->abij", b.metric, b.metric, b.sigma
    )
    rhs = np.einsum("abcd,cdij->abij", b.epsilon, b.sigma)
    rhs = np.einsum("ij,abjk->abik", b.pi, rhs)
    if not np.array_equal(2j * sigma_lower, rhs):
        raise PolarDiracError("duality identity for sigma failed")


# A shared immutable instance for internal use.  Callers must not mutate it.
BASIS = build_basis()


@dataclass(frozen=True)
class SpinorTransform:
    """A spinor transformation Lambda e^{i q alpha} with its vector image.

    matrix : the full 4x4 complex transformation including the phase.
    lorentz : Lambda alone, exp((1/2) xi_{ab} sigma^{ab}).
    vector : real 4x4 matrix V with Lambda^{-1} gamma^a Lambda = V^a_b gamma^b,
        acting on vectors as U' = V @ U.
    params : the six generating parameters (chi, theta).
    """

    matrix: np.ndarray
    lorentz: np.ndarray
    vector: np.ndarray
    params: np.ndarray
    alpha: float = 0.0
    q: float = 1.0


def assemble_generator(params) -> np.ndarray:
    """(1/2) xi_{ab} sigma^{ab} summed over all index pairs.

    params = (chi_x, chi_y, chi_z, theta_x, theta_y, theta_z).
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (6,):
        raise ValueError("expected 6 parameters (3 rapidities, 3 angles)")
    chi, theta = params[:3], params[3:]
    s = BASIS.sigma
    gen = np.zeros((4, 4), dtype=complex)
    for k in range(3):
        gen += chi[k] * s[0, k + 1]
    gen += theta[2] * s[1, 2] + theta[0] * s[2, 3] + theta[1] * s[3, 1]
    return gen


def induced_vector(lam: np.ndarray) -> np.ndarray:
    """Vector representation of a spinor transformation.

    V^a_b = (1/4) Re tr(gamma_b Lambda^{-1} gamma^a Lambda).  Any overall
    phase in lam cancels between Lambda^{-1} and Lambda.
    """
    lam_inv = np.linalg.inv(lam)
    sandwich = np.einsum("ij,ajk,kl->ail", lam_inv, BASIS.gamma, lam)
    v = 0.25 * np.einsum("bji,aij->ab", BASIS.gamma_lower, sandwich)
    return np.real(v)


def _exp_pauli(a) -> np.ndarray:
    """exp(a.sigma) for a batch of complex 3-vectors, shape (..., 3) -> (..., 2, 2).

    (a.sigma)^2 = (a.a) I, so exp(a.sigma) = cosh(z) I + (sinh z / z) a.sigma
    with z^2 = a.a; both factors are even in z, so either root serves, and
    sinh z / z = sinc(iz / pi) is 1 at z = 0.
    """
    a = np.asarray(a, dtype=complex)
    z = np.sqrt(np.sum(a * a, axis=-1))
    return (
        np.cosh(z)[..., None, None] * _I2
        + np.sinc(1j * z / np.pi)[..., None, None]
        * np.einsum("...k,kij->...ij", a, PAULI)
    )


def _chiral_exp(w) -> np.ndarray:
    """exp((1/2) xi_{ab} sigma^{ab}) for w = chi + i theta, shape (..., 3) -> (..., 4, 4).

    In the chiral representation the generator is diag(-w.sigma/2, conj(w).sigma/2).
    """
    w = np.asarray(w, dtype=complex)
    blocks = _exp_pauli(np.stack([-0.5 * w, 0.5 * np.conj(w)], axis=-2))
    lam = np.zeros(w.shape[:-1] + (4, 4), dtype=complex)
    lam[..., :2, :2] = blocks[..., 0, :, :]
    lam[..., 2:, 2:] = blocks[..., 1, :, :]
    return lam


def exp_lorentz(params, alpha: float = 0.0, q: float = 1.0) -> SpinorTransform:
    """Exponentiate boost/rotation parameters into a spinor transformation.

    Returns Lambda = exp((1/2) xi_{ab} sigma^{ab}) together with the phase
    factor e^{i q alpha} and the induced vector (Lorentz) matrix.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (6,):
        raise ValueError("expected 6 parameters (3 rapidities, 3 angles)")
    lam = _chiral_exp(params[:3] + 1j * params[3:])
    phase = np.exp(1j * q * alpha)
    return SpinorTransform(
        matrix=phase * lam,
        lorentz=lam,
        vector=induced_vector(lam),
        params=params,
        alpha=float(alpha),
        q=float(q),
    )


def _unit_axis(vec: np.ndarray):
    """Magnitude and safe unit axis of a batch of 3-vectors.

    Zero vectors get the z axis, which is harmless because every use
    multiplies the axis by a factor vanishing with the magnitude.
    """
    mag = np.linalg.norm(vec, axis=-1)
    safe = np.where(mag[..., None] > 0.0, vec, [0.0, 0.0, 1.0])
    axis = safe / np.linalg.norm(safe, axis=-1, keepdims=True)
    return mag, axis


def boost_matrices(chi) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form pure boost for a batch of rapidity vectors.

    chi has shape (..., 3).  Returns (Lambda, V) with shapes (..., 4, 4);
    Lambda is exp_lorentz((chi, 0)).lorentz batched over the grid, V is
    written in closed form.
    """
    chi = np.asarray(chi, dtype=float)
    lam = _chiral_exp(chi)
    mag, axis = _unit_axis(chi)
    chf, shf = np.cosh(mag), np.sinh(mag)
    v = np.zeros(chi.shape[:-1] + (4, 4), dtype=float)
    v[..., 0, 0] = chf
    v[..., 0, 1:] = shf[..., None] * axis
    v[..., 1:, 0] = shf[..., None] * axis
    v[..., 1:, 1:] = np.eye(3) + (chf - 1.0)[..., None, None] * np.einsum(
        "...i,...j->...ij", axis, axis
    )
    return lam, v


def rotation_matrices(theta) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form pure rotation for a batch of angle vectors.

    Active convention: theta = (0, 0, t) with t > 0 carries the x axis
    toward the y axis in the vector representation.
    """
    theta = np.asarray(theta, dtype=float)
    lam = _chiral_exp(1j * theta)
    mag, axis = _unit_axis(theta)
    cf, sf = np.cos(mag), np.sin(mag)
    cross = np.zeros(theta.shape[:-1] + (3, 3), dtype=float)
    cross[..., 0, 1] = -axis[..., 2]
    cross[..., 0, 2] = axis[..., 1]
    cross[..., 1, 0] = axis[..., 2]
    cross[..., 1, 2] = -axis[..., 0]
    cross[..., 2, 0] = -axis[..., 1]
    cross[..., 2, 1] = axis[..., 0]
    rot = (
        cf[..., None, None] * np.eye(3)
        + (1.0 - cf)[..., None, None]
        * np.einsum("...i,...j->...ij", axis, axis)
        + sf[..., None, None] * cross
    )
    v = np.zeros(theta.shape[:-1] + (4, 4), dtype=float)
    v[..., 0, 0] = 1.0
    v[..., 1:, 1:] = rot
    return lam, v


def goldstone_matrices(params) -> tuple[np.ndarray, np.ndarray]:
    """Boost-then-rotation transform M = B(chi) R(theta) for batched params.

    params has shape (..., 6).  Returns (M, V(M)); this is the canonical
    composition used by the polar decomposition, with the rotation acting
    first on the reference spinor and the boost after it.
    """
    params = np.asarray(params, dtype=float)
    lb, vb = boost_matrices(params[..., :3])
    lr, vr = rotation_matrices(params[..., 3:])
    return lb @ lr, vb @ vr
