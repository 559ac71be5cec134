import numpy as np
import pytest
import scipy.linalg as la

from qmor import linalg
from qmor.errors import RankDeficiencyError, StructureError
from qmor.symplectic import skew_normal_form
from qmor.systems import symplectic_form


def test_normal_form_of_canonical_form():
    theta = symplectic_form(3)
    nf = skew_normal_form(theta)
    assert nf.residual <= 1e-12
    assert np.linalg.norm(nf.T @ theta @ nf.T.T - theta) <= 1e-12


def test_normal_form_scalar_scaling():
    theta = 2.0 * symplectic_form(1)
    nf = skew_normal_form(theta)
    assert np.linalg.norm(nf.T @ theta @ nf.T.T - symplectic_form(1)) <= 1e-12
    # (1/sqrt(2)) I is one valid witness; only the residual is contracted.
    assert nf.residual <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_normal_form_random_congruence(seed):
    rng = np.random.default_rng(seed)
    r = rng.integers(1, 4)
    s = rng.standard_normal((2 * r, 2 * r))
    theta = s @ symplectic_form(r) @ s.T
    nf = skew_normal_form(theta)
    assert nf.residual <= 1e-10 * np.linalg.norm(theta)


def test_normal_form_soundness_many():
    rng = np.random.default_rng(99)
    for _ in range(50):
        s = rng.standard_normal((4, 4))
        theta = s @ symplectic_form(2) @ s.T
        nf = skew_normal_form(theta)
        assert nf.residual <= 1e-10 * np.linalg.norm(theta)


def test_normal_form_inverse_direction():
    # The same routine covers the requirement T J T^T = N^-1 for skew N:
    # normalize N^-1 and invert the witness.
    rng = np.random.default_rng(4)
    s = rng.standard_normal((4, 4))
    n = s @ symplectic_form(2) @ s.T
    target = np.linalg.inv(-n)
    witness = skew_normal_form(target).T
    t2 = np.linalg.inv(witness)
    assert np.linalg.norm(t2 @ symplectic_form(2) @ t2.T - target) <= 1e-9 * np.linalg.norm(
        target
    )


def test_normal_form_rejects_non_skew():
    with pytest.raises(StructureError):
        skew_normal_form(np.eye(4))


def test_normal_form_rejects_singular():
    theta = np.zeros((4, 4))
    theta[0, 1], theta[1, 0] = 1.0, -1.0
    with pytest.raises(RankDeficiencyError):
        skew_normal_form(theta)


def test_normal_form_rejects_huge_condition():
    theta = np.kron(np.diag([1.0, 1e-13]), symplectic_form(1).reshape(2, 2))
    with pytest.raises(RankDeficiencyError):
        skew_normal_form(theta)


@pytest.mark.parametrize("imag", [0.0, 1e-14, 1.0])
def test_normal_form_rejects_complex_theta(imag):
    # Every caller passes the pairing matrix of a real basis; a complex
    # theta is rejected whatever its imaginary part.
    theta = symplectic_form(2) + 1j * imag * np.eye(4)
    with pytest.raises(StructureError, match="^theta must be real$"):
        skew_normal_form(theta)


def test_schur_form_matches_scipy_real_schur():
    # skew_normal_form reads linalg.schur, one gees call; it gives the T and Z
    # of scipy.linalg.schur(theta, output="real") bit for bit.
    rng = np.random.default_rng(5)
    for size in range(2, 17):
        m = rng.standard_normal((size, size))
        theta = (m - m.T) / 2
        t, z, _ = linalg.schur(theta)
        t_ref, z_ref = la.schur(theta, output="real")
        assert t.tobytes() == t_ref.tobytes() and z.tobytes() == z_ref.tobytes()
