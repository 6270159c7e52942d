import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

import polardirac
from polardirac.clifford import (
    BASIS,
    _block_inverse,
    _block_product,
    _chiral_join,
    _chiral_split,
    boost_matrices,
    build_basis,
    exp_lorentz,
    goldstone_matrices,
    induced_vector,
    rotation_matrices,
)
from polardirac.errors import BasisLeak
from polardirac.polar import (
    PolarData,
    _axis_angle_from_z,
    decompose,
    reconstruct,
)

from oracles import REFERENCE, chiral_phase


def assemble_generator(params) -> np.ndarray:
    """(1/2) xi_{ab} sigma^{ab} summed over all index pairs: the exponent
    of the scipy expm oracle.

    params = (chi_x, chi_y, chi_z, theta_x, theta_y, theta_z).
    """
    params = np.asarray(params, dtype=float)
    chi, theta = params[:3], params[3:]
    s = BASIS.sigma
    gen = np.zeros((4, 4), dtype=complex)
    for k in range(3):
        gen += chi[k] * s[0, k + 1]
    gen += theta[2] * s[1, 2] + theta[0] * s[2, 3] + theta[1] * s[3, 1]
    return gen


def sandwich_vector(lam) -> np.ndarray:
    """Oracle for V: V^a_b = (1/4) Re tr(gamma_b Lambda^{-1} gamma^a Lambda)
    on the full 4x4 matrices, batched over (..., 4, 4)."""
    gamma_lower = np.einsum("ab,bij->aij", BASIS.metric, BASIS.gamma)
    sandwich = np.einsum(
        "...ij,ajk,...kl->...ail", np.linalg.inv(lam), BASIS.gamma, lam
    )
    return np.real(0.25 * np.einsum("bji,...aij->...ab", gamma_lower, sandwich))


def test_build_basis_anticommutators():
    b = build_basis()
    ident = np.eye(4)
    # {gamma^0, gamma^0} = 2 I
    assert np.array_equal(b.gamma[0] @ b.gamma[0] + b.gamma[0] @ b.gamma[0], 2 * ident)
    # {gamma^1, gamma^2} = 0
    zero = b.gamma[1] @ b.gamma[2] + b.gamma[2] @ b.gamma[1]
    assert np.array_equal(zero, np.zeros((4, 4)))
    for a in range(4):
        for c in range(4):
            anti = b.gamma[a] @ b.gamma[c] + b.gamma[c] @ b.gamma[a]
            assert np.array_equal(anti, 2 * b.metric[a, c] * ident)


def test_sigma_definition_and_pi():
    b = build_basis()
    for a in range(4):
        for c in range(4):
            want = 0.25 * (b.gamma[a] @ b.gamma[c] - b.gamma[c] @ b.gamma[a])
            assert np.array_equal(b.sigma[a, c], want)
    assert np.array_equal(b.pi @ b.pi, np.eye(4))
    for a in range(4):
        assert np.array_equal(b.pi @ b.gamma[a], -b.gamma[a] @ b.pi)
    # pi is diagonal (-1,-1,+1,+1) in this representation
    assert np.array_equal(b.pi, np.diag([-1, -1, 1, 1]).astype(complex))


def test_duality_identity_all_pairs():
    b = build_basis()
    sigma_lower = np.einsum("ac,bd,cdij->abij", b.metric, b.metric, b.sigma)
    for a in range(4):
        for c in range(4):
            rhs = np.einsum("cd,cdij->ij", b.epsilon[a, c], b.sigma)
            rhs = b.pi @ rhs
            npt.assert_allclose(2j * sigma_lower[a, c], rhs, atol=0.0)


def test_epsilon_conventions():
    b = build_basis()
    assert b.epsilon[0, 1, 2, 3] == 1.0
    assert b.epsilon[1, 0, 2, 3] == -1.0
    assert b.epsilon[0, 0, 2, 3] == 0.0
    npt.assert_allclose(b.epsilon_upper, -b.epsilon, atol=0.0)


def test_exp_lorentz_identity():
    t = exp_lorentz(np.zeros(6))
    npt.assert_allclose(t.matrix, np.eye(4), atol=1e-15)
    npt.assert_allclose(t.vector, np.eye(4), atol=1e-15)


def test_rotation_two_pi_is_minus_identity():
    t = exp_lorentz([0, 0, 0, 0, 0, 2 * np.pi])
    npt.assert_allclose(t.lorentz, -np.eye(4), atol=1e-12)
    npt.assert_allclose(t.vector, np.eye(4), atol=1e-12)


def test_boost_maps_rest_vector():
    chi = 0.7
    t = exp_lorentz([0, 0, chi, 0, 0, 0])
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    npt.assert_allclose(
        t.vector @ e0, [np.cosh(chi), 0.0, 0.0, np.sinh(chi)], atol=1e-12
    )


def test_rotation_active_direction():
    t = exp_lorentz([0, 0, 0, 0, 0, np.pi / 2])
    ex = np.array([0.0, 1.0, 0.0, 0.0])
    npt.assert_allclose(t.vector @ ex, [0.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_metric_preservation_and_homomorphism():
    rng = np.random.default_rng(42)
    eta = BASIS.metric
    for _ in range(200):
        p = rng.uniform(-1.5, 1.5, size=6)
        v = exp_lorentz(p).vector
        npt.assert_allclose(v.T @ eta @ v, eta, atol=1e-10)
    for _ in range(50):
        p1 = rng.uniform(-1.0, 1.0, size=6)
        p2 = rng.uniform(-1.0, 1.0, size=6)
        t1, t2 = exp_lorentz(p1), exp_lorentz(p2)
        v12 = induced_vector(t1.lorentz @ t2.lorentz)
        npt.assert_allclose(v12, t1.vector @ t2.vector, atol=1e-10)


def test_pi_is_invariant():
    rng = np.random.default_rng(7)
    for _ in range(25):
        lam = exp_lorentz(rng.uniform(-1.0, 1.0, size=6)).lorentz
        npt.assert_allclose(np.linalg.inv(lam) @ BASIS.pi @ lam, BASIS.pi, atol=1e-11)


def test_unit_modulus_determinant():
    rng = np.random.default_rng(3)
    for _ in range(25):
        t = exp_lorentz(rng.uniform(-1.0, 1.0, size=6), alpha=rng.uniform(-3, 3))
        assert abs(abs(np.linalg.det(t.matrix)) - 1.0) < 1e-10


def test_phase_factor():
    t = exp_lorentz(np.zeros(6), alpha=0.25, q=2.0)
    npt.assert_allclose(t.matrix, np.exp(0.5j) * np.eye(4), atol=1e-14)


def test_batched_exp_lorentz_is_bitwise_its_rows():
    # one call on (n, 6) rows, the identity and the 2 pi rotation among
    # them, gives each row's own single-matrix call bit for bit
    params = np.random.default_rng(28).uniform(-1.0, 1.0, size=(100, 6))
    params = np.concatenate((params, np.zeros((1, 6)), [[0, 0, 0, 0, 0, 2 * np.pi]]))
    batch = exp_lorentz(params, alpha=0.4, q=1.5)
    for name in ("matrix", "lorentz", "vector"):
        rows = [getattr(exp_lorentz(p, alpha=0.4, q=1.5), name) for p in params]
        assert np.array_equal(getattr(batch, name), np.stack(rows)), name
    grid = exp_lorentz(params[:100].reshape(4, 25, 6))
    assert np.array_equal(grid.vector.reshape(100, 4, 4), batch.vector[:100])


@pytest.mark.parametrize("shape", [(5,), (7,), (3, 5), (6, 4), ()])
def test_exp_lorentz_needs_six_parameters_on_the_last_axis(shape):
    with pytest.raises(ValueError, match="expected 6 parameters"):
        exp_lorentz(np.zeros(shape))


def test_closed_form_boost_matches_expm():
    rng = np.random.default_rng(11)
    chis = rng.uniform(-1.2, 1.2, size=(20, 3))
    lam_batch, v_batch = boost_matrices(chis)
    for n in range(20):
        lam = expm(assemble_generator(np.concatenate([chis[n], np.zeros(3)])))
        npt.assert_allclose(lam_batch[n], lam, atol=1e-12)
        npt.assert_allclose(v_batch[n], sandwich_vector(lam), atol=1e-12)


def test_closed_form_rotation_matches_expm():
    rng = np.random.default_rng(12)
    thetas = rng.uniform(-3.0, 3.0, size=(20, 3))
    lam_batch, v_batch = rotation_matrices(thetas)
    for n in range(20):
        lam = expm(assemble_generator(np.concatenate([np.zeros(3), thetas[n]])))
        npt.assert_allclose(lam_batch[n], lam, atol=1e-12)
        npt.assert_allclose(v_batch[n], sandwich_vector(lam), atol=1e-12)


def test_exp_lorentz_matches_expm():
    rng = np.random.default_rng(14)
    params = [np.zeros(6), np.array([0.0, 0.0, 0.0, 0.0, 0.0, 2 * np.pi])]
    params += list(rng.uniform(-2.0, 2.0, size=(40, 6)))
    # near-lightlike generators: chi orthogonal to theta, |chi| = |theta|,
    # where the complex a.a of the Pauli blocks is (nearly) zero
    for stretch in (0.0, 1e-12, 1e-8):
        chi = rng.normal(size=3)
        theta = np.cross(chi, rng.normal(size=3))
        theta *= (1.0 + stretch) * np.linalg.norm(chi) / np.linalg.norm(theta)
        params.append(np.concatenate([chi, theta]))
    for p in params:
        want = expm(assemble_generator(p))
        t = exp_lorentz(p)
        npt.assert_allclose(t.lorentz, want, rtol=1e-13,
                            atol=1e-13 * np.max(np.abs(want)))
        v_want = sandwich_vector(want)
        npt.assert_allclose(t.vector, v_want, rtol=1e-13,
                            atol=1e-13 * np.max(np.abs(v_want)))


def test_cli_import_leaves_scipy_out():
    code = (
        "import sys, polardirac.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(polardirac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


def test_zero_axis_is_safe():
    lam, v = boost_matrices(np.zeros(3))
    npt.assert_allclose(lam, np.eye(4), atol=0.0)
    npt.assert_allclose(v, np.eye(4), atol=0.0)
    lam, v = rotation_matrices(np.zeros(3))
    npt.assert_allclose(lam, np.eye(4), atol=0.0)
    npt.assert_allclose(v, np.eye(4), atol=0.0)


def test_goldstone_matrices_compose_boost_then_rotation():
    rng = np.random.default_rng(13)
    params = rng.uniform(-1.0, 1.0, size=(8, 6))
    m, v = goldstone_matrices(params)
    for n in range(8):
        lb, vb = boost_matrices(params[n, :3])
        lr, vr = rotation_matrices(params[n, 3:])
        npt.assert_allclose(m[n], lb @ lr, atol=1e-13)
        npt.assert_allclose(v[n], vb @ vr, atol=1e-13)
        # consistency with the gamma-sandwich oracle
        npt.assert_allclose(sandwich_vector(m[n]), v[n], atol=1e-11)
    # induced_vector reads the same V, batched, and an overall phase cancels
    npt.assert_allclose(induced_vector(np.exp(0.7j) * m), v, atol=1e-13)


def test_decompose_transform_matches_goldstone_matrices():
    # decompose and reconstruct build the chiral blocks of M as the block
    # products of the two exponentials, without V; goldstone_matrices
    # joins those same blocks, bit for bit.  The written-out block product
    # agrees with numpy's matmul to 4 eps of |B||R| (the entries of B and R
    # reach 3.6 here)
    rng = np.random.default_rng(14)
    params = rng.uniform(-1.5, 1.5, size=(33, 33, 33, 6))
    m, v = goldstone_matrices(params)
    lb, _ = boost_matrices(params[..., :3])
    lr, _ = rotation_matrices(params[..., 3:])
    b, r = _chiral_split(lb), _chiral_split(lr)
    assert np.array_equal(_block_product(b, r), _chiral_split(m))
    tol = 4 * np.finfo(float).eps * np.max(np.abs(b)) * np.max(np.abs(r))
    npt.assert_allclose(_block_product(b, r), b @ r, rtol=0.0, atol=tol)
    ones, zeros = np.ones(params.shape[:-1]), np.zeros(params.shape[:-1])
    pd = PolarData(phi=ones, beta=zeros, u=v[..., :, 0], s=v[..., :, 3],
                   goldstone=params, alpha=zeros)
    want = np.einsum("...ij,...j->...i", chiral_phase(zeros) @ m, REFERENCE)
    assert np.array_equal(reconstruct(pd), want)


def test_decompose_rest_spin_matches_boost_route():
    # decompose reads the rest-frame spin as s - s^0 u/(1 + u^0); the
    # boost route applies V(B(-chi)) to s.  With |chi| <= 2.6
    # (u^0 <= 6.8) the rotation vectors agree to 1e-13; the roundoff of
    # either route grows with u^0
    rng = np.random.default_rng(21)
    params = rng.uniform(-1.5, 1.5, size=(400, 6))
    beta = rng.uniform(-3.0, 3.0, 400)
    scale = rng.uniform(0.5, 2.0, 400) * np.exp(1j * rng.uniform(-3.0, 3.0, 400))
    psi = scale[:, None] * np.einsum(
        "nij,j->ni", chiral_phase(beta) @ goldstone_matrices(params)[0], REFERENCE
    )
    pd = decompose(psi)
    v_back = sandwich_vector(boost_matrices(-pd.goldstone[:, :3])[0])
    n = np.einsum("nab,nb->na", v_back, pd.s)[:, 1:]
    theta = _axis_angle_from_z(n / np.linalg.norm(n, axis=-1, keepdims=True))
    npt.assert_allclose(pd.goldstone[:, 3:], theta, rtol=0.0, atol=1e-13)


def test_chiral_split_inverse_and_join():
    rng = np.random.default_rng(15)
    params = rng.uniform(-1.0, 1.0, size=(5, 6))
    lam = np.exp(1j * rng.uniform(-3.0, 3.0, size=5))[:, None, None] * (
        goldstone_matrices(params)[0]
    )
    blocks = _chiral_split(lam)
    assert blocks.shape == (5, 2, 2, 2)
    assert np.array_equal(_chiral_join(blocks), lam)
    inv = _chiral_join(_block_inverse(blocks))
    npt.assert_allclose(inv, np.linalg.inv(lam), rtol=0.0, atol=1e-13)
    # the off-diagonal blocks of the inverse are exactly zero
    assert not inv[:, :2, 2:].any() and not inv[:, 2:, :2].any()
    lam[3, 2, 1] = 1e-300
    with pytest.raises(BasisLeak, match=r"lower-left is nonzero at site \(3,\)"):
        _chiral_split(lam)


def test_induced_vector_rejects_off_diagonal_block():
    lam = exp_lorentz([0.3, -0.2, 0.5, 0.1, 0.7, -0.4]).lorentz
    lam[0, 3] = 1e-3
    with pytest.raises(BasisLeak, match="upper-right is nonzero"):
        induced_vector(lam)


def test_vector_builders_make_no_inverse(monkeypatch):
    # V is read off the upper chiral block, with no np.linalg.inv on the
    # single-matrix or the grid path
    calls = []
    real = np.linalg.inv

    def counting(a):
        calls.append(1)
        return real(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    params = np.random.default_rng(16).uniform(-1.0, 1.0, size=(3, 5, 6))
    st = exp_lorentz(params[0, 0])
    induced_vector(st.lorentz)
    goldstone_matrices(params)
    assert calls == []


def test_generator_assembly_slots():
    b = BASIS
    g = assemble_generator([1.0, 0, 0, 0, 0, 0])
    npt.assert_allclose(g, b.sigma[0, 1], atol=0.0)
    g = assemble_generator([0, 0, 0, 1.0, 0, 0])
    npt.assert_allclose(g, b.sigma[2, 3], atol=0.0)
    g = assemble_generator([0, 0, 0, 0, 1.0, 0])
    npt.assert_allclose(g, b.sigma[3, 1], atol=0.0)
    g = assemble_generator([0, 0, 0, 0, 0, 1.0])
    npt.assert_allclose(g, b.sigma[1, 2], atol=0.0)
