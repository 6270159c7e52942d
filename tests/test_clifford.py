import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
from scipy.linalg import expm

import polardirac
from polardirac.clifford import (
    BASIS,
    assemble_generator,
    boost_matrices,
    build_basis,
    exp_lorentz,
    goldstone_matrices,
    induced_vector,
    rotation_matrices,
)


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


def test_closed_form_boost_matches_expm():
    rng = np.random.default_rng(11)
    chis = rng.uniform(-1.2, 1.2, size=(20, 3))
    lam_batch, v_batch = boost_matrices(chis)
    for n in range(20):
        lam = expm(assemble_generator(np.concatenate([chis[n], np.zeros(3)])))
        npt.assert_allclose(lam_batch[n], lam, atol=1e-12)
        npt.assert_allclose(v_batch[n], induced_vector(lam), atol=1e-12)


def test_closed_form_rotation_matches_expm():
    rng = np.random.default_rng(12)
    thetas = rng.uniform(-3.0, 3.0, size=(20, 3))
    lam_batch, v_batch = rotation_matrices(thetas)
    for n in range(20):
        lam = expm(assemble_generator(np.concatenate([np.zeros(3), thetas[n]])))
        npt.assert_allclose(lam_batch[n], lam, atol=1e-12)
        npt.assert_allclose(v_batch[n], induced_vector(lam), atol=1e-12)


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
        npt.assert_allclose(exp_lorentz(p).lorentz, want, rtol=1e-13,
                            atol=1e-13 * np.max(np.abs(want)))


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
        # consistency with the generic exponential route
        npt.assert_allclose(induced_vector(m[n]), v[n], atol=1e-11)


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
