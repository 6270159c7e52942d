import numpy as np
import numpy.testing as npt
import pytest

from polardirac.bilinears import Bilinears, compute_bilinears, fierz_residuals
from polardirac.clifford import BASIS, exp_lorentz
from polardirac.errors import ImaginaryResidue

REF = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)


def test_reference_spinor_values():
    b = compute_bilinears(REF)
    assert b.phi_scalar == 2.0
    assert b.theta == 0.0
    npt.assert_allclose(b.U, [2.0, 0.0, 0.0, 0.0], atol=0.0)
    # realized sign convention for the spin axis of (1,0,1,0): S^3 = +2
    npt.assert_allclose(b.S, [0.0, 0.0, 0.0, 2.0], atol=0.0)


def test_spin_down_partner():
    b = compute_bilinears(np.array([0.0, 1.0, 0.0, 1.0]))
    assert b.phi_scalar == 2.0
    npt.assert_allclose(b.S, [0.0, 0.0, 0.0, -2.0], atol=0.0)


def test_zero_spinor():
    b = compute_bilinears(np.zeros(4, dtype=complex))
    assert b.theta == 0.0
    assert b.phi_scalar == 0.0
    npt.assert_allclose(b.U, np.zeros(4), atol=0.0)
    npt.assert_allclose(b.S, np.zeros(4), atol=0.0)


def test_fierz_identities_random_spinors():
    rng = np.random.default_rng(2024)
    psi = rng.normal(size=(1000, 4)) + 1j * rng.normal(size=(1000, 4))
    b = compute_bilinears(psi)
    res = fierz_residuals(b)
    scale = b.theta**2 + b.phi_scalar**2
    tol = 1e-10 * np.maximum(1.0, scale)
    assert np.all(np.abs(res.r1) < tol)
    assert np.all(np.abs(res.r2) < tol)
    assert np.all(np.abs(res.r3) < tol)
    assert np.all(b.U[:, 0] >= 0.0)


def test_fierz_reference_exact():
    res = fierz_residuals(compute_bilinears(REF))
    assert res.r1 == 0.0
    assert res.r2 == 0.0
    assert res.r3 == 0.0


def test_fierz_evaluator_is_total():
    broken = Bilinears(
        theta=np.float64(0.0),
        phi_scalar=np.float64(2.0),
        U=np.array([3.0, 0.0, 0.0, 0.0]),
        S=np.array([0.0, 0.0, 0.0, 2.0]),
    )
    res = fierz_residuals(broken)
    assert res.r2 == pytest.approx(9.0 - 4.0)
    assert res.r2_norm == pytest.approx(5.0 / 4.0)


def test_covariance_under_transformations():
    rng = np.random.default_rng(5)
    for _ in range(40):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        t = exp_lorentz(rng.uniform(-1.0, 1.0, size=6))
        b0 = compute_bilinears(psi)
        b1 = compute_bilinears(t.lorentz @ psi)
        npt.assert_allclose(b1.theta, b0.theta, atol=1e-9)
        npt.assert_allclose(b1.phi_scalar, b0.phi_scalar, atol=1e-9)
        npt.assert_allclose(b1.U, t.vector @ b0.U, atol=1e-9)
        npt.assert_allclose(b1.S, t.vector @ b0.S, atol=1e-9)


def test_chiral_phase_action():
    from scipy.linalg import expm

    for beta0 in [0.3, -1.2, 2.5]:
        ph = expm(-0.5j * beta0 * BASIS.pi)
        b = compute_bilinears(ph @ REF)
        npt.assert_allclose(b.theta, 2.0 * np.sin(beta0), atol=1e-10)
        npt.assert_allclose(b.phi_scalar, 2.0 * np.cos(beta0), atol=1e-10)
        npt.assert_allclose(b.U, [2.0, 0.0, 0.0, 0.0], atol=1e-10)
        npt.assert_allclose(b.S, [0.0, 0.0, 0.0, 2.0], atol=1e-10)


def test_pair_product_matches_the_sandwich_einsum():
    # the real matrix product over the 16 pairs psi_i^* psi_j against the
    # direct psi^dag K psi of each sandwich matrix: the sums run in another
    # order, so they agree to a few ulps of |psi|^2
    import polardirac.bilinears as mod

    rng = np.random.default_rng(3)
    psi = rng.normal(size=(7, 9, 4)) + 1j * rng.normal(size=(7, 9, 4))
    want = np.einsum("...i,kij,...j->...k", psi.conj(), mod._STACK, psi)
    b = compute_bilinears(psi)
    got = np.concatenate((b.theta[..., None], b.phi_scalar[..., None], b.U, b.S), -1)
    scale = np.sum(np.abs(psi) ** 2, axis=-1, keepdims=True)
    assert np.all(np.abs(got - want.real) <= 8 * np.finfo(float).eps * scale)


def test_batched_matches_loop():
    rng = np.random.default_rng(8)
    psi = rng.normal(size=(3, 5, 4)) + 1j * rng.normal(size=(3, 5, 4))
    batch = compute_bilinears(psi)
    for i in range(3):
        for j in range(5):
            one = compute_bilinears(psi[i, j])
            npt.assert_allclose(batch.U[i, j], one.U, atol=0.0)
            npt.assert_allclose(batch.S[i, j], one.S, atol=0.0)
            npt.assert_allclose(batch.theta[i, j], one.theta, atol=0.0)


def test_large_spinor_uses_relative_tolerance():
    b = compute_bilinears(1e6 * REF)
    assert b.phi_scalar == pytest.approx(2e12)


def test_imaginary_residue_guard(monkeypatch):
    import polardirac.bilinears as mod

    broken = mod._STACK.copy()
    broken[1] = broken[1] + 1e-4j * np.eye(4)  # no longer hermitian
    monkeypatch.setattr(mod, "_STACK", broken)
    with pytest.raises(ImaginaryResidue):
        mod.compute_bilinears(REF)


def test_imaginary_residue_names_the_site(monkeypatch):
    # on a grid the error names the one site whose observables pick it up
    import polardirac.bilinears as mod

    broken = mod._STACK.copy()
    broken[1] = broken[1] + 1e-4j * np.eye(4)
    monkeypatch.setattr(mod, "_STACK", broken)
    psi = np.zeros((2, 3, 4, 4), dtype=complex)
    psi[1, 0, 2] = REF
    with pytest.raises(ImaginaryResidue, match=r"at grid index \(1, 0, 2\)$"):
        mod.compute_bilinears(psi)
