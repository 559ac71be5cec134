import re

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg as la

from conftest import largest_principal_angle, orthogonal_projector
from qmor import analysis, cases, linalg
from qmor.errors import RankDeficiencyError, SingularMatrixError, StabilityError
from qmor.reduction import reduce_passive, reduce_right


def test_rank_identity():
    rank, rng_basis, ker_basis = linalg.rank_and_bases(np.eye(4))
    assert rank == 4
    assert ker_basis.shape == (4, 0)


def test_rank_one_kernel_direction():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    rank, _, kernel = linalg.rank_and_bases(m)
    assert rank == 1
    assert kernel.shape == (2, 1)
    expected = np.array([2.0, -1.0]) / np.sqrt(5.0)
    overlap = abs(kernel[:, 0] @ expected)
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_rank_and_bases_residual_oracle():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 3))
    rank, rng_basis, kernel = linalg.rank_and_bases(m)
    assert rank == 3
    assert np.linalg.norm(m @ kernel) <= 1e-12 * np.linalg.norm(m)
    recon = rng_basis @ (rng_basis.conj().T @ m)
    assert np.linalg.norm(m - recon) <= 1e-12 * np.linalg.norm(m)


def test_rank_scale_invariance():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((5, 4)) @ np.diag([1, 1, 1, 0]) @ rng.standard_normal((4, 4))
    base_rank = linalg.rank_and_bases(m)[0]
    for scale in (1e-6, 1.0, 1e6):
        assert linalg.rank_and_bases(scale * m)[0] == base_rank


def test_projector_axis():
    p = orthogonal_projector(np.array([[1.0], [0.0]]))
    assert np.allclose(p, np.diag([1.0, 0.0]))


def test_projector_full_space():
    rng = np.random.default_rng(1)
    basis = rng.standard_normal((4, 4))
    assert np.allclose(orthogonal_projector(basis), np.eye(4), atol=1e-12)


def test_projector_idempotent_hermitian():
    rng = np.random.default_rng(11)
    for _ in range(5):
        basis = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        p = orthogonal_projector(basis)
        assert np.linalg.norm(p @ p - p) <= 1e-12
        assert np.linalg.norm(p - p.conj().T) <= 1e-12


def test_projector_rank_deficient_rejected():
    basis = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(RankDeficiencyError):
        orthogonal_projector(basis)


def test_eigenpairs_diagonal():
    values, vectors = linalg.eigenpairs(np.diag([-1.0, -2.0]))
    assert sorted(values.real) == pytest.approx([-2.0, -1.0])
    assert np.allclose(np.linalg.norm(vectors, axis=0), 1.0)


def test_eigenpairs_optomech_model():
    # Three-mode optomechanical fixture: two damped resonances and a fast
    # cavity pair.
    from qmor.cases import optomechanical_system

    values = linalg.eigenvalues(optomechanical_system().A)
    expected = [-1e5, -1e5, -50 + 1e4j, -50 - 1e4j, -50 + 1e4j, -50 - 1e4j]
    for target in expected:
        gaps = np.abs(values - target)
        assert gaps.min() <= 1e-6 * abs(target)


def test_eigenpairs_companion():
    companion = np.array([[0.0, 1.0], [-3.0, -4.0]])  # s^2 + 4 s + 3
    values = np.sort(linalg.eigenvalues(companion).real)
    assert values == pytest.approx([-3.0, -1.0], rel=1e-12)


def test_eigenpairs_residual():
    rng = np.random.default_rng(21)
    m = rng.standard_normal((7, 7))
    values, vectors = linalg.eigenpairs(m)
    for k in range(7):
        residual = np.linalg.norm(m @ vectors[:, k] - values[k] * vectors[:, k])
        assert residual <= 1e-10 * np.linalg.norm(m)


def _no_context(i, j):
    return None


def test_solve_identity():
    rhs = np.arange(6.0).reshape(3, 2)
    x, errors = linalg.solve_stacks(np.eye(3)[None, None], rhs[None, None], _no_context)
    assert errors == [None]
    assert np.array_equal(x[0, 0], rhs)


def test_solve_diagonal():
    x, errors = linalg.solve_stacks(np.diag([2.0, 4.0])[None, None], np.eye(2)[None, None], _no_context)
    assert errors == [None]
    assert np.allclose(x[0, 0], np.diag([0.5, 0.25]))


def test_solve_residual_oracle():
    rng = np.random.default_rng(30)
    m = rng.standard_normal((10, 10)) + 10 * np.eye(10)
    rhs = rng.standard_normal((10, 3))
    x, errors = linalg.solve_stacks(m[None, None], rhs[None, None], _no_context)
    assert errors == [None]
    x = x[0, 0]
    assert np.linalg.norm(m @ x - rhs) <= 1e-10 * np.linalg.norm(m) * np.linalg.norm(x)


def test_solve_singular_names_context():
    _, (error,) = linalg.solve_stacks(
        np.zeros((1, 1, 2, 2)), np.eye(2)[None, None], lambda i, j: "point 2j"
    )
    assert isinstance(error, SingularMatrixError)
    assert str(error) == "singular matrix while evaluating point 2j: Singular matrix"


def test_solve_stack_matches_item_solves():
    rng = np.random.default_rng(31)
    m = rng.standard_normal((5, 4, 4)) + 4 * np.eye(4) + 1j * rng.standard_normal((5, 4, 4))
    rhs = rng.standard_normal((5, 4, 2))
    x, errors = linalg.solve_stacks(m[None], rhs[None], lambda i, k: f"point {k}")
    assert errors == [None]
    assert x.shape == (1, 5, 4, 2)
    for k in range(5):
        assert np.allclose(x[0, k], np.linalg.solve(m[k], rhs[k]), rtol=1e-14, atol=0.0)
    # One right-hand side shared by the whole stack.
    shared, _ = linalg.solve_stacks(m[None], rhs[None, :1], _no_context)
    for k in range(5):
        assert np.allclose(shared[0, k], np.linalg.solve(m[k], rhs[0]), rtol=1e-14, atol=0.0)


def test_solve_stack_singular_item_names_its_context():
    m = np.stack([np.eye(3) * (k + 1.0) for k in range(4)])
    m[2] = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]])
    _, (error,) = linalg.solve_stacks(m[None], np.ones((1, 4, 3, 1)), lambda i, k: f"point {k}")
    assert isinstance(error, SingularMatrixError)
    assert str(error) == "singular matrix while evaluating point 2: Singular matrix"


def test_solve_stack_residual_check_names_the_failing_item():
    # Wilkinson's matrix: partial pivoting grows its entries by 2^(n-1), so
    # the solution is finite but its residual is far above 1e-8 |m| |x|.
    n = 60
    wilkinson = np.eye(n) - np.tril(np.ones((n, n)), -1)
    wilkinson[:, -1] = 1.0
    m = np.stack([np.eye(n), wilkinson, 2.0 * np.eye(n)])
    rhs = np.random.default_rng(0).standard_normal((3, n, 1))
    _, (error,) = linalg.solve_stacks(m[None], rhs[None], lambda i, k: f"item {k}")
    assert isinstance(error, SingularMatrixError)
    assert re.fullmatch(r"solve residual .* while evaluating item 1", str(error))
    # Each well-conditioned item alone passes the same check.
    for k in (0, 2):
        assert linalg.solve_stacks(m[k][None, None], rhs[k][None, None], _no_context)[1] == [None]


def _stacks_with_one_singular_item():
    """A (3, 4, 5, 5) stack whose item (1, 2) has a zero column, and one shared (1, 1, 5, 2) right-hand side."""
    rng = np.random.default_rng(33)
    m = rng.standard_normal((3, 4, 5, 5)) + 1j * rng.standard_normal((3, 4, 5, 5)) + 5 * np.eye(5)
    m[1, 2, :, 3] = 0.0
    return m, rng.standard_normal((1, 1, 5, 2))


def test_solve_singular_item_reads_nan():
    m, rhs = _stacks_with_one_singular_item()
    x = linalg.solve(m, rhs)
    assert x.shape == (3, 4, 5, 2)
    assert np.isnan(x[1, 2]).all()
    for i, j in np.ndindex(3, 4):
        if (i, j) != (1, 2):
            assert np.array_equal(x[i, j], np.linalg.solve(m[i, j], rhs[0, 0]))


def test_solve_stacks_names_the_singular_item():
    m, rhs = _stacks_with_one_singular_item()
    _, errors = linalg.solve_stacks(m, rhs, lambda i, j: f"item {(i, j)}")
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], SingularMatrixError)
    assert str(errors[1]) == "singular matrix while evaluating item (1, 2): Singular matrix"


def test_lyapunov_trivial_cases():
    assert np.allclose(linalg.lyapunov_solve(-np.eye(3), 2 * np.eye(3)), np.eye(3))
    assert np.allclose(
        linalg.lyapunov_solve(np.diag([-1.0, -2.0]), np.diag([2.0, 4.0])), np.eye(2)
    )


def _stable_pair():
    """A real Hurwitz 4x4 ``a`` and ``q = b b^T`` with two columns."""
    rng = np.random.default_rng(8)
    m = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 2))
    return -(m @ m.T) - 0.5 * np.eye(4), b @ b.T


def test_lyapunov_quadrature_oracle():
    # Cross-check against direct numerical integration of the Gramian
    # integral over [0, 40 / |min Re eig|].
    a, q = _stable_pair()
    p = linalg.lyapunov_solve(a, q)
    horizon = 40.0 / abs(np.max(np.linalg.eigvals(a).real))
    integral = scipy.integrate.quad_vec(
        lambda t: la.expm(a * t) @ q @ la.expm(a.T * t), 0.0, horizon, epsrel=1e-10
    )[0]
    assert np.linalg.norm(p - integral) <= 1e-6 * np.linalg.norm(p)
    residual = np.linalg.norm(a @ p + p @ a.T + q)
    assert residual <= 1e-9 * (np.linalg.norm(a) * np.linalg.norm(p) + np.linalg.norm(q))


def test_lyapunov_rejects_unstable():
    with pytest.raises(StabilityError):
        linalg.lyapunov_solve(np.diag([1.0, -2.0]), np.eye(2))


def _error_gramian_pair(system, result):
    a, b, _ = analysis.error_system(system, result)
    return a, b @ b.conj().T


LYAPUNOV_CASES = {
    "1x1": lambda: (np.array([[-2.5]]), np.array([[3.0]])),
    "real 4x4": _stable_pair,
    "ex1 error system": lambda: _error_gramian_pair(
        cases.optomechanical_system(),
        reduce_right(cases.optomechanical_system(), cases.ex1_interpolation_data()),
    ),
    "ex3 error system": lambda: _error_gramian_pair(
        cases.cascaded_cavity_system(),
        reduce_passive(cases.cascaded_cavity_system(), cases.ex3_interpolation_data()),
    ),
}


@pytest.mark.parametrize("label", sorted(LYAPUNOV_CASES))
def test_lyapunov_is_scipy_bit_for_bit(label):
    # The direct gees/trsyl calls are those of solve_continuous_lyapunov.
    a, q = LYAPUNOV_CASES[label]()
    assert np.iscomplexobj(a) == (label == "ex3 error system")
    expected = la.solve_continuous_lyapunov(a, -q)
    expected = (expected + expected.conj().T) / 2
    if np.isrealobj(a) and np.isrealobj(q):
        expected = expected.real
    assert np.array_equal(linalg.lyapunov_solve(a, q), expected)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", [float, complex])
def test_lyapunov_rejects_pole_pair_summing_to_zero(dtype):
    # trsyl perturbs a pole pair whose sum is zero to working precision; its
    # "solution" is not a Gramian, and h2_norm read -2.83e16 from it, a cost
    # that would win a search.
    a = np.diag([-1e-20, -1.0]).astype(dtype)
    message = "^state matrix has a pole pair whose sum is zero to working precision; [^\n]*$"
    with pytest.raises(StabilityError, match=message):
        linalg.lyapunov_solve(a, np.eye(2))
    with pytest.raises(StabilityError, match=message):
        analysis.h2_norm(a, np.eye(2), np.eye(2))


def test_largest_principal_angle_edges():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert largest_principal_angle(e1, e1) == pytest.approx(0.0, abs=1e-8)
    assert largest_principal_angle(e1, e2) == pytest.approx(np.pi / 2)
