import numpy as np
import numpy.testing as npt
import pytest

from polardirac.bilinears import compute_bilinears
from polardirac.clifford import BASIS, exp_lorentz, minkowski_dot
from polardirac.errors import (
    InvalidPolar,
    PreconditionViolated,
    SingularSpinor,
    ZeroSpinor,
)
from polardirac.polar import (
    REFERENCE,
    PolarData,
    decompose,
    decompose_pauli,
    nonrel_deviation,
    reconstruct,
    reconstruct_pauli,
)


def random_regular_spinors(rng, n):
    psi = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    b = compute_bilinears(psi)
    keep = b.theta**2 + b.phi_scalar**2 > 1e-6
    return psi[keep]


def test_reference_spinor():
    p = decompose(REFERENCE)
    assert p.phi == pytest.approx(1.0)
    assert p.beta == pytest.approx(0.0)
    npt.assert_allclose(p.u, [1, 0, 0, 0], atol=1e-12)
    npt.assert_allclose(p.s, [0, 0, 0, 1], atol=1e-12)
    npt.assert_allclose(p.goldstone, np.zeros(6), atol=1e-12)
    assert p.alpha == pytest.approx(0.0)


def test_global_phase_goes_to_alpha():
    delta = 0.8
    p = decompose(np.exp(1j * delta) * REFERENCE)
    assert p.phi == pytest.approx(1.0)
    assert p.beta == pytest.approx(0.0, abs=1e-12)
    npt.assert_allclose(p.goldstone, np.zeros(6), atol=1e-12)
    assert p.alpha == pytest.approx(-delta)
    # and with charge q = 2 the phase divides by the charge
    p2 = decompose(np.exp(1j * delta) * REFERENCE, q=2.0)
    assert p2.alpha == pytest.approx(-delta / 2.0)


def test_chiral_phase_goes_to_beta():
    from scipy.linalg import expm

    beta0 = 0.9
    psi = expm(-0.5j * beta0 * BASIS.pi) @ REFERENCE
    p = decompose(psi)
    assert p.phi == pytest.approx(1.0)
    assert p.beta == pytest.approx(beta0)
    npt.assert_allclose(p.goldstone, np.zeros(6), atol=1e-12)
    npt.assert_allclose(reconstruct(p), psi, atol=1e-12)


def test_reconstruct_trivial():
    p = PolarData(
        phi=np.float64(1.0),
        beta=np.float64(0.0),
        u=np.array([1.0, 0, 0, 0]),
        s=np.array([0.0, 0, 0, 1.0]),
        goldstone=np.zeros(6),
        alpha=np.float64(0.0),
    )
    npt.assert_allclose(reconstruct(p), REFERENCE, atol=0.0)


def test_reconstruct_boosted_bilinears():
    chi = 0.6
    p = PolarData(
        phi=np.float64(2.0),
        beta=np.float64(0.0),
        u=np.array([np.cosh(chi), 0, 0, np.sinh(chi)]),
        s=np.array([np.sinh(chi), 0, 0, np.cosh(chi)]),
        goldstone=np.array([0, 0, chi, 0, 0, 0.0]),
        alpha=np.float64(0.0),
    )
    b = compute_bilinears(reconstruct(p))
    npt.assert_allclose(
        b.U, 8.0 * np.array([np.cosh(chi), 0, 0, np.sinh(chi)]), atol=1e-12
    )
    npt.assert_allclose(
        b.S, 8.0 * np.array([np.sinh(chi), 0, 0, np.cosh(chi)]), atol=1e-12
    )


def test_reconstruct_rejects_bad_normalization():
    p = PolarData(
        phi=np.float64(1.0),
        beta=np.float64(0.0),
        u=np.array([1.1, 0, 0, 0]),
        s=np.array([0.0, 0, 0, 1.0]),
        goldstone=np.zeros(6),
        alpha=np.float64(0.0),
    )
    with pytest.raises(InvalidPolar):
        reconstruct(p)


def test_roundtrip_500_random_spinors():
    rng = np.random.default_rng(99)
    psi = random_regular_spinors(rng, 600)[:500]
    assert len(psi) == 500
    p = decompose(psi)
    back = reconstruct(p)
    assert np.max(np.abs(back - psi)) < 1e-9
    # bilinears of the reconstruction match the polar block
    b = compute_bilinears(back)
    rho = 2.0 * p.phi**2
    npt.assert_allclose(b.theta, rho * np.sin(p.beta), atol=1e-9)
    npt.assert_allclose(b.phi_scalar, rho * np.cos(p.beta), atol=1e-9)
    npt.assert_allclose(b.U, rho[:, None] * p.u, atol=1e-9)
    npt.assert_allclose(b.S, rho[:, None] * p.s, atol=1e-9)


def test_polar_invariants_on_random_spinors():
    rng = np.random.default_rng(123)
    psi = random_regular_spinors(rng, 400)
    p = decompose(psi)
    npt.assert_allclose(minkowski_dot(p.u, p.u), 1.0, atol=1e-10)
    npt.assert_allclose(minkowski_dot(p.s, p.s), -1.0, atol=1e-10)
    npt.assert_allclose(minkowski_dot(p.u, p.s), 0.0, atol=1e-10)
    b = compute_bilinears(psi)
    npt.assert_allclose(
        2.0 * p.phi**2, np.sqrt(b.theta**2 + b.phi_scalar**2), atol=1e-10
    )


def test_beta_sign_flips_with_theta():
    rng = np.random.default_rng(17)
    psi = random_regular_spinors(rng, 50)
    p = decompose(psi)
    # complex conjugation in this representation flips Theta, keeps Phi
    b = compute_bilinears(psi)
    b_flip = compute_bilinears(psi.conj())
    npt.assert_allclose(b_flip.theta, -b.theta, atol=1e-10)
    npt.assert_allclose(b_flip.phi_scalar, b.phi_scalar, atol=1e-10)
    p_flip = decompose(psi.conj())
    npt.assert_allclose(p_flip.beta, -p.beta, atol=1e-10)


def test_singular_spinor_raises():
    # left-handed flag spinor: psi = (a, b, 0, 0) has Theta = Phi = 0
    with pytest.raises(SingularSpinor):
        decompose(np.array([1.0, 0.5j, 0.0, 0.0]))


def test_non_finite_spinor_raises():
    # NaN slips past the singular test mod2 <= eps_sing, so it is caught
    # where the data enters, naming the first bad index
    with pytest.raises(PreconditionViolated, match=r"component \(1,\)"):
        decompose([1.0, np.nan, 1.0, 0.0])
    psi = np.tile(REFERENCE, (2, 3, 1))
    psi[1, 2, 3] = np.inf
    psi[1, 1, 0] = np.nan * 1j
    with pytest.raises(PreconditionViolated, match=r"component \(1, 1, 0\)"):
        decompose(psi)


def test_transformed_spinor_roundtrip_and_covariance():
    rng = np.random.default_rng(31)
    psi = random_regular_spinors(rng, 30)
    for k in range(10):
        t = exp_lorentz(rng.uniform(-1.0, 1.0, size=6))
        moved = np.einsum("ij,...j->...i", t.lorentz, psi)
        p = decompose(moved)
        npt.assert_allclose(reconstruct(p), moved, atol=1e-9)
        p0 = decompose(psi)
        npt.assert_allclose(
            p.u, np.einsum("ab,...b->...a", t.vector, p0.u), atol=1e-9
        )
        npt.assert_allclose(
            p.s, np.einsum("ab,...b->...a", t.vector, p0.s), atol=1e-9
        )


def test_antipodal_spin_branch():
    # spin-down rest spinor: s = -e_3, the rotation axis is degenerate
    psi = np.array([0.0, 1.0, 0.0, 1.0], dtype=complex)
    p = decompose(psi)
    npt.assert_allclose(p.s, [0, 0, 0, -1], atol=1e-12)
    npt.assert_allclose(p.goldstone[:3], np.zeros(3), atol=1e-12)
    npt.assert_allclose(np.linalg.norm(p.goldstone[3:]), np.pi, atol=1e-12)
    npt.assert_allclose(reconstruct(p), psi, atol=1e-12)


def test_pauli_up_down():
    p, delta = decompose_pauli(np.array([1.0, 0.0]))
    assert p.phi == pytest.approx(1.0)
    npt.assert_allclose(p.s3, [0, 0, 1], atol=1e-12)
    assert delta == pytest.approx(0.0)
    p, delta = decompose_pauli(np.array([0.0, 1.0]))
    assert p.phi == pytest.approx(1.0)
    npt.assert_allclose(p.s3, [0, 0, -1], atol=1e-12)


def test_pauli_random_roundtrip():
    rng = np.random.default_rng(55)
    chi = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
    p, delta = decompose_pauli(chi)
    npt.assert_allclose(np.sum(p.s3**2, axis=-1), 1.0, atol=1e-12)
    npt.assert_allclose(p.phi**2, np.sum(np.abs(chi) ** 2, axis=-1), atol=1e-12)
    back = reconstruct_pauli(p, delta)
    npt.assert_allclose(back, chi, atol=1e-10)


def test_pauli_zero_raises():
    with pytest.raises(ZeroSpinor):
        decompose_pauli(np.zeros(2, dtype=complex))


def test_nonrel_deviation_rest():
    dev = nonrel_deviation(decompose(REFERENCE))
    assert dev.beta_mag == pytest.approx(0.0)
    assert dev.speed == pytest.approx(0.0)
    assert dev.small_norm == pytest.approx(0.0, abs=1e-14)


def test_nonrel_deviation_boost_family():
    prev = None
    for chi in [0.4, 0.2, 0.1, 0.05]:
        t = exp_lorentz([0, 0, chi, 0, 0, 0])
        dev = nonrel_deviation(decompose(t.lorentz @ REFERENCE))
        assert dev.speed == pytest.approx(np.tanh(chi), abs=1e-12)
        assert dev.beta_mag == pytest.approx(0.0, abs=1e-12)
        # small components match the closed form and shrink with the boost
        expected = np.sqrt(2.0) * np.sinh(chi / 2.0) / np.sqrt(2.0 * np.cosh(chi))
        assert dev.small_norm == pytest.approx(expected, abs=1e-12)
        if prev is not None:
            assert dev.small_norm < prev
        prev = dev.small_norm


def test_nonrel_deviation_chiral_angle_alone():
    from scipy.linalg import expm

    beta0 = 0.3
    psi = expm(-0.5j * beta0 * BASIS.pi) @ REFERENCE
    dev = nonrel_deviation(decompose(psi))
    assert dev.beta_mag == pytest.approx(0.3)
    assert dev.speed == pytest.approx(0.0, abs=1e-14)
    # beta != 0 keeps small components alive even at rest
    assert dev.small_norm == pytest.approx(abs(np.sin(beta0 / 2.0)), abs=1e-12)
