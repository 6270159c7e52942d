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

Every spin transformation is block-diagonal here, diag(A, A^{-dagger}) with
A in SL(2,C); its vector image V is read off the upper block A alone, in
_block_vector.  The grid path keeps it as the two blocks [..., block, row,
col]; the public 4x4 builders join them once, at their return.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .errors import BasisLeak, PolarDiracError

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
    for perm in permutations(range(4)):
        # the sign of the permutation: -1 per inverted pair
        eps[perm] = np.prod([np.sign(b - a) for a, b in combinations(perm, 2)])
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
# eps^{abcd} as a symmetric [(a b), (c d)] matrix; eps_{abcd} is its negative.
# connections and dynamics contract index pairs of grid fields with it.
_EPS_PAIRS = BASIS.epsilon_upper.reshape(16, 16)
# V^a_b = (1/2) Re tr(sigmabar^a A sigmabar^b A^dagger), sigmabar = (I, -sigma_k),
# is linear in A (x) A*: this real matrix maps its [j, k, i, l] entries
# A_jk conj(A_il), as (real, imaginary) pairs, onto V flattened [a, b].
_SIGMA_BAR = np.concatenate([_I2[None], -PAULI])
_VECTOR_PAIRS = 0.5 * np.einsum("aij,bkl->jkilab", _SIGMA_BAR, _SIGMA_BAR)
_VECTOR_PAIRS = np.stack(
    (_VECTOR_PAIRS.real, -_VECTOR_PAIRS.imag), axis=4
).reshape(32, 16)


@dataclass(frozen=True)
class SpinorTransform:
    """A spinor transformation Lambda e^{i q alpha} with its vector image.

    matrix : the full 4x4 complex transformation including the phase.
    lorentz : Lambda alone, exp((1/2) xi_{ab} sigma^{ab}).
    vector : real 4x4 matrix V with Lambda^{-1} gamma^a Lambda = V^a_b gamma^b,
        acting on vectors as U' = V @ U.
    Built from a batch of parameters, each matrix is led by its axes.
    """

    matrix: np.ndarray
    lorentz: np.ndarray
    vector: np.ndarray
    alpha: float = 0.0
    q: float = 1.0


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


def _spin_blocks(w) -> np.ndarray:
    """exp((1/2) xi_{ab} sigma^{ab}) for w = chi + i theta as chiral blocks,
    shape (..., 3) -> (..., 2, 2, 2) with layout [..., block, row, col].

    In the chiral representation the generator is diag(-w.sigma/2, conj(w).sigma/2).
    """
    w = np.asarray(w, dtype=complex)
    return _exp_pauli(np.stack([-0.5 * w, 0.5 * np.conj(w)], axis=-2))


def _block_product(a, b) -> np.ndarray:
    """a @ b for stacks of 2x2 matrices [..., row, col], as two broadcast
    products over the inner index: numpy's matmul makes one BLAS call per
    2x2 pair, twice the calls of a 4x4 matmul over the same sites."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def _chiral_join(blocks) -> np.ndarray:
    """The block-diagonal 4x4 matrices of blocks [..., block, row, col]."""
    mats = np.zeros(blocks.shape[:-3] + (4, 4), dtype=blocks.dtype)
    mats[..., :2, :2] = blocks[..., 0, :, :]
    mats[..., 2:, 2:] = blocks[..., 1, :, :]
    return mats


def _chiral_split(mats) -> np.ndarray:
    """The two diagonal 2x2 blocks of chiral 4x4 matrices, (..., 4, 4) ->
    (..., 2, 2, 2) with layout [..., block, row, col].

    Every spin transformation exp((1/2) xi_{ab} sigma^{ab}) e^{i q alpha}
    is block-diagonal in this representation.  BasisLeak names the
    off-diagonal block and the first site where an entry is not exactly
    zero: such a matrix is not of that form.
    """
    mats = np.asarray(mats)
    upper, lower = mats[..., :2, 2:], mats[..., 2:, :2]
    for name, off in (("upper-right", upper), ("lower-left", lower)):
        if off.any():
            bad = np.any(off, axis=(-2, -1))
            site = tuple(int(i) for i in np.argwhere(bad)[0])
            raise BasisLeak(
                f"off-diagonal chiral block {name} is nonzero at site {site}; "
                "a spin transformation is block-diagonal"
            )
    return np.stack((mats[..., :2, :2], mats[..., 2:, 2:]), axis=-3)


def _block_inverse(blocks) -> np.ndarray:
    """Inverses of 2x2 matrices [..., row, col] by the adjugate over the
    determinant."""
    a, b = blocks[..., 0, 0], blocks[..., 0, 1]
    c, d = blocks[..., 1, 0], blocks[..., 1, 1]
    adj = np.stack((np.stack((d, -b), axis=-1), np.stack((-c, a), axis=-1)), axis=-2)
    return adj / (a * d - b * c)[..., None, None]


def _block_vector(a) -> np.ndarray:
    """Vector matrices V of upper chiral blocks A, (..., 2, 2) -> (..., 4, 4).

    V^a_b = (1/2) Re tr(sigmabar^a A sigmabar^b A^dagger) is the image of
    Lambda = diag(A, A^{-dagger}): Lambda^{-1} gamma^a Lambda = V^a_b gamma^b.
    A must have |det A| = 1; a phase of A cancels against A*.
    """
    a = np.asarray(a, dtype=complex)
    outer = a[..., :, :, None, None] * np.conj(a)[..., None, None, :, :]
    pairs = outer.reshape(a.shape[:-2] + (16,)).view(float)
    return (pairs @ _VECTOR_PAIRS).reshape(a.shape[:-2] + (4, 4))


def induced_vector(lam: np.ndarray) -> np.ndarray:
    """V of lam = e^{i q alpha} Lambda, (..., 4, 4) -> (..., 4, 4), with
    Lambda^{-1} gamma^a Lambda = V^a_b gamma^b for Lambda in the spin group.
    BasisLeak names a nonzero off-diagonal chiral block."""
    return _block_vector(_chiral_split(lam)[..., 0, :, :])


def _matrix_and_vector(blocks) -> tuple[np.ndarray, np.ndarray]:
    """(Lambda, V) of chiral blocks: the 4x4 matrices and V of the upper blocks."""
    return _chiral_join(blocks), _block_vector(blocks[..., 0, :, :])


def exp_lorentz(params, alpha: float = 0.0, q: float = 1.0) -> SpinorTransform:
    """Exponentiate boost/rotation parameters into a spinor transformation.

    Returns Lambda = exp((1/2) xi_{ab} sigma^{ab}) together with the phase
    factor e^{i q alpha} and the induced vector (Lorentz) matrix.  params
    (..., 6) is a batch of rows that share the one phase: matrix, lorentz
    and vector are then (..., 4, 4), each row bit for bit its own call.
    """
    params = np.asarray(params, dtype=float)
    if params.shape[-1:] != (6,):
        raise ValueError("expected 6 parameters (3 rapidities, 3 angles)")
    lam, vector = _matrix_and_vector(
        _spin_blocks(params[..., :3] + 1j * params[..., 3:])
    )
    phase = np.exp(1j * q * alpha)
    return SpinorTransform(
        matrix=phase * lam,
        lorentz=lam,
        vector=vector,
        alpha=float(alpha),
        q=float(q),
    )


def boost_matrices(chi) -> tuple[np.ndarray, np.ndarray]:
    """Pure boost (Lambda, V), each (..., 4, 4), for rapidities chi (..., 3):
    exp_lorentz((chi, 0)) batched over the grid."""
    return _matrix_and_vector(_spin_blocks(np.asarray(chi, dtype=float)))


def rotation_matrices(theta) -> tuple[np.ndarray, np.ndarray]:
    """Pure rotation (Lambda, V) for angle vectors theta (..., 3).  Active:
    theta = (0, 0, t), t > 0, carries the x axis toward the y axis."""
    return _matrix_and_vector(_spin_blocks(1j * np.asarray(theta, dtype=float)))


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


def _boost_rotation(params) -> np.ndarray:
    """M = B(chi) R(theta) as chiral blocks (..., 2, 2, 2), for params
    (..., 6) = (chi, theta): the canonical boost-then-rotation of the polar
    decomposition, the rotation acting first on the reference spinor and
    the boost after it."""
    params = np.asarray(params, dtype=float)
    boost = _spin_blocks(params[..., :3])
    return _block_product(boost, _spin_blocks(1j * params[..., 3:]))


def goldstone_matrices(params) -> tuple[np.ndarray, np.ndarray]:
    """M = B(chi) R(theta), (..., 4, 4), and V(M) for params (..., 6)."""
    return _matrix_and_vector(_boost_rotation(params))
