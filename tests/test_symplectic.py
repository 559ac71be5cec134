import numpy as np
import pytest
import scipy.linalg as la

from qmor import linalg
from qmor.errors import RankDeficiencyError, StructureError
from qmor.symplectic import MAX_CONDITION, skew_normal_form
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


def _per_block_normal_form(theta):
    """Block scales of the normal form with one Schur block at a time, and ``(T, residual)``.

    ``(T, residual)`` is ``None`` for a singular ``theta``.
    """
    theta = (theta - theta.T) / 2
    t_schur, z, _ = linalg.schur(theta)
    betas = []
    for k in range(theta.shape[0] // 2):
        beta = t_schur[2 * k, 2 * k + 1]
        if beta < 0:
            z[:, [2 * k, 2 * k + 1]] = z[:, [2 * k + 1, 2 * k]]
            beta = -beta
        betas.append(beta)
    betas = np.array(betas)
    if betas.min() <= 0.0 or betas.max() / betas.min() > MAX_CONDITION:
        return betas, None
    t = np.repeat(1.0 / np.sqrt(betas), 2)[:, None] * z.T
    return betas, (t, np.linalg.norm(t @ theta @ t.T - symplectic_form(betas.size)))


def test_normal_form_flips_blocks_of_both_signs_as_one_block_at_a_time():
    # Random skew matrices, most with real Schur blocks of both signs: the one
    # column permutation gives the T and residual of the per-block swaps byte
    # for byte.
    mixed = 0
    for seed in range(10):
        for size in (4, 8, 12):
            m = np.random.default_rng(seed).standard_normal((size, size))
            theta = (m - m.T) / 2
            signs = set(np.sign(linalg.schur(theta)[0].diagonal(1)[::2]).tolist())
            mixed += signs == {-1.0, 1.0}
            _, (t, residual) = _per_block_normal_form(theta)
            nf = skew_normal_form(theta)
            assert nf.T.tobytes() == t.tobytes()
            assert np.float64(nf.residual).tobytes() == residual.tobytes()
    assert mixed >= 10


@pytest.mark.parametrize("scales", [[1.0, 1e-13], [1.0, 0.0], [1.0, -0.0], [-1.0, 1e-13, 2.0]])
def test_normal_form_singular_message_lists_the_block_scales(scales):
    # A block scale near zero among blocks of both signs, rotated or not: the
    # message lists the sorted scales of the per-block construction, whose
    # flips leave a -0.0 block scale as it is.
    for rotate in (False, True):
        theta = np.kron(np.diag(scales), symplectic_form(1))
        if rotate:
            q = np.linalg.qr(np.random.default_rng(len(scales)).standard_normal(theta.shape))[0]
            theta = q @ theta @ q.T
        betas, form = _per_block_normal_form(theta)
        assert form is None
        expected = f"theta is numerically singular; its canonical block scales are {np.sort(betas)}"
        with pytest.raises(RankDeficiencyError) as excinfo:
            skew_normal_form(theta)
        assert str(excinfo.value) == expected


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
