import numpy as np
import pytest
import scipy.linalg as la

from qmor import analysis, cases, linalg, systems
from qmor.errors import SingularMatrixError, StructureError


def test_symplectic_form_single_mode():
    assert np.array_equal(systems.symplectic_form(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_symplectic_form_orthogonal():
    j3 = systems.symplectic_form(3)
    assert np.allclose(j3 @ j3.T, np.eye(6))


def test_symplectic_form_squares_to_minus_identity():
    j5 = systems.symplectic_form(5)
    assert np.allclose(j5 @ j5, -np.eye(10))


@pytest.mark.parametrize("n", range(1, 9))
def test_symplectic_form_is_shared_read_only_and_bit_exact(n):
    j = systems.symplectic_form(n)
    old = np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])
    assert j.dtype == old.dtype and j.shape == old.shape
    assert j.tobytes() == old.tobytes()  # the -0.0 entries included
    assert systems.symplectic_form(n) is j
    assert not j.flags.writeable
    with pytest.raises(ValueError):
        j[0, 0] = 1.0


def test_realizability_static_network():
    sys0 = systems.QuadratureSystem(
        A=np.zeros((2, 2)), B=np.zeros((2, 2)), C=np.zeros((2, 2)), D=np.eye(2)
    )
    report = systems.check_realizability(sys0)
    assert report.passes
    assert report.max_residual == 0.0


def test_realizability_optomech_fixture():
    report = systems.check_realizability(cases.optomechanical_system(), tol=1e-8)
    assert report.passes


def test_realizability_random_quadrature():
    for seed in range(5):
        sys_q = systems.random_realizable_quadrature(3, 2, 1, seed)
        assert systems.check_realizability(sys_q, tol=1e-10).passes


def test_quadrature_generator_identity():
    # The damping closure makes A J + J A^T = -B J B^T hold exactly.
    for seed in range(20):
        sys_q = systems.random_realizable_quadrature(2, 2, 2, seed)
        jn = systems.symplectic_form(2)
        jm = systems.symplectic_form(2)
        lhs = sys_q.A @ jn + jn @ sys_q.A.T
        rhs = -sys_q.B @ jm @ sys_q.B.T
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


def test_quadrature_generator_deterministic():
    a = systems.random_realizable_quadrature(3, 2, 1, 42)
    b = systems.random_realizable_quadrature(3, 2, 1, 42)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)


def test_realizability_single_cavity_annihilation():
    sys_a = systems.AnnihilationSystem(
        F=[[-0.5]], G=[[1.0]], H=[[-1.0]], K=[[1.0]]
    )
    assert systems.check_realizability(sys_a).passes


def test_realizability_cascade_fixture():
    report = systems.check_realizability(cases.cascaded_cavity_system(), tol=1e-8)
    assert report.passes


def test_realizability_random_annihilation():
    for seed in range(5):
        sys_a = systems.random_realizable_annihilation(5, 2, 2, seed)
        assert systems.check_realizability(sys_a, tol=1e-10).passes
        defect = sys_a.F + sys_a.F.conj().T + sys_a.G @ sys_a.G.conj().T
        assert np.linalg.norm(defect) <= 1e-12 * np.linalg.norm(sys_a.G @ sys_a.G.conj().T)


def test_transfer_feedthrough_only():
    sys_q = systems.QuadratureSystem(
        A=-np.eye(2), B=np.eye(2), C=np.zeros((2, 2)), D=np.diag([3.0, 4.0])
    )
    assert np.allclose(systems.transfer(sys_q, 1.7j), np.diag([3.0, 4.0]))


def test_transfer_single_cavity_dc_gain():
    sys_a = systems.AnnihilationSystem(F=[[-0.5]], G=[[1.0]], H=[[1.0]], K=[[1.0]])
    # K - H F^-1 G = 1 + 2 = 3 at s = 0.
    assert systems.transfer(sys_a, 0.0)[0, 0] == pytest.approx(3.0, rel=1e-12)


def test_transfer_dual_path_oracle():
    sys_q = cases.optomechanical_system()
    s = 1e4j
    direct = sys_q.D + sys_q.C @ np.linalg.inv(s * np.eye(6) - sys_q.A) @ sys_q.B
    assert np.allclose(systems.transfer(sys_q, s), direct, atol=1e-10 * np.abs(direct).max())


def test_transfer_conjugate_symmetry():
    sys_q = systems.random_realizable_quadrature(2, 2, 1, 3)
    s = 0.7 + 1.3j
    assert np.allclose(
        systems.transfer(sys_q, np.conj(s)), np.conj(systems.transfer(sys_q, s))
    )


def test_transfer_rejects_resonant_point():
    sys_q = systems.QuadratureSystem(
        A=systems.symplectic_form(1), B=np.eye(2), C=np.eye(2), D=np.eye(2)
    )
    with pytest.raises(SingularMatrixError):
        systems.transfer(sys_q, 1j)


@pytest.mark.parametrize("form", ["quadrature", "annihilation"])
def test_transfer_stack_equals_scalar_loop(form):
    if form == "quadrature":
        system = systems.random_realizable_quadrature(3, 2, 1, 17)
    else:
        system = systems.random_realizable_annihilation(4, 2, 2, 17)
    a, b, c, d = system.state_space()
    points = np.array([0.0, 0.7j, -0.7j, 2.5 + 1.0j, -3.0, 40j])
    stack = systems.transfer(system, points)
    assert stack.shape == (points.size,) + d.shape
    for k, s in enumerate(points):
        loop = d + c @ np.linalg.solve(s * np.eye(a.shape[0]) - a, b)
        assert np.linalg.norm(stack[k] - loop) <= 1e-14 * np.linalg.norm(loop)
        scalar = systems.transfer(system, s)
        assert scalar.shape == d.shape
        assert np.linalg.norm(scalar - loop) <= 1e-14 * np.linalg.norm(loop)


def test_transfer_stack_names_the_resonant_point():
    sys_q = systems.QuadratureSystem(
        A=systems.symplectic_form(1), B=np.eye(2), C=np.eye(2), D=np.eye(2)
    )
    with pytest.raises(SingularMatrixError, match=r"resolvent at s = 1j"):
        systems.transfer(sys_q, np.array([0.5j, 2j, 1j, 3j]))


def test_conversion_zero_system():
    sys_a = systems.AnnihilationSystem(
        F=np.zeros((2, 2)), G=np.zeros((2, 1)), H=np.zeros((1, 2)), K=np.zeros((1, 1))
    )
    quad = systems.annihilation_to_quadrature(sys_a)
    assert not quad.A.any() and not quad.B.any() and not quad.C.any() and not quad.D.any()


def test_conversion_single_cavity():
    sys_a = systems.AnnihilationSystem(F=[[-0.5]], G=[[1.0]], H=[[-1.0]], K=[[1.0]])
    quad = systems.annihilation_to_quadrature(sys_a)
    assert np.allclose(quad.A, -0.5 * np.eye(2))
    assert systems.check_realizability(quad, tol=1e-12).passes


def test_conversion_preserves_realizability():
    for seed in range(20):
        sys_a = systems.random_realizable_annihilation(3, 2, 1, seed)
        quad = systems.annihilation_to_quadrature(sys_a)
        assert systems.check_realizability(quad, tol=1e-9).passes


def test_conversion_cascade_fixture():
    quad = systems.annihilation_to_quadrature(cases.cascaded_cavity_system())
    assert systems.check_realizability(quad, tol=1e-8).passes


def _interleaved_doubling(m):
    out = np.zeros((2 * m.shape[0], 2 * m.shape[1]), dtype=complex)
    out[0::2, 0::2] = m
    out[1::2, 1::2] = np.conj(m)
    return out


def test_conversion_transfer_doubling_oracle():
    # Mode-wise change of basis (q, p) -> (a, a*) block-diagonalizes the
    # embedded system into the original and its conjugate.
    sys_a = systems.random_realizable_annihilation(3, 2, 2, 11)
    quad = systems.annihilation_to_quadrature(sys_a)
    tau = 0.5 * np.array([[1.0, 1j], [1.0, -1j]])
    lam_out = la.block_diag(*([tau] * sys_a.n_outputs))
    lam_in = la.block_diag(*([tau] * sys_a.n_inputs))
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = rng.standard_normal() + 1j * rng.standard_normal()
        doubled = _interleaved_doubling(systems.transfer(sys_a, s))
        doubled[1::2, 1::2] = np.conj(systems.transfer(sys_a, np.conj(s)))
        expected = np.linalg.inv(lam_out) @ doubled @ lam_in
        got = systems.transfer(quad, s)
        assert np.linalg.norm(got - expected) <= 1e-10 * max(1.0, np.linalg.norm(expected))


def test_complete_passivity_gramian_witness():
    for seed in range(20):
        sys_a = systems.random_realizable_annihilation(4, 2, 2, seed)
        if not linalg.is_hurwitz(sys_a.F):
            continue
        quad = systems.annihilation_to_quadrature(sys_a)
        gramian = analysis.prepare_model(quad).gramian
        assert np.linalg.norm(gramian - np.eye(gramian.shape[0])) <= 1e-8


def test_realizability_symplectic_change_of_coordinates():
    sys_q = systems.random_realizable_quadrature(3, 2, 1, 9)
    rng = np.random.default_rng(1)
    r_sym = rng.standard_normal((6, 6))
    r_sym = 0.3 * (r_sym + r_sym.T)
    s = la.expm(systems.symplectic_form(3) @ r_sym)
    transformed = systems.QuadratureSystem(
        A=s @ sys_q.A @ np.linalg.inv(s),
        B=s @ sys_q.B,
        C=sys_q.C @ np.linalg.inv(s),
        D=sys_q.D,
    )
    assert systems.check_realizability(transformed, tol=1e-8).passes


def test_closed_loop_block_diagonal_when_decoupled():
    a = np.diag([-1.0, -2.0])
    a_c = np.diag([-3.0, -4.0])
    loop = systems.closed_loop_state_matrix(
        (a, np.ones((2, 1)), np.ones((1, 2))),
        (a_c, np.zeros((2, 1)), np.zeros((1, 2))),
    )
    assert np.array_equal(loop, la.block_diag(a, a_c))


def test_closed_loop_dimension_mismatch():
    with pytest.raises(StructureError):
        systems.closed_loop_state_matrix(
            (np.eye(2), np.ones((2, 1)), np.ones((1, 2))),
            (np.eye(3), np.ones((3, 2)), np.ones((1, 3))),
        )


def test_closed_loop_control_fixture_placed_poles():
    fx = cases.control_case_fixture()
    loop = systems.closed_loop_state_matrix(fx["plant"], fx["controller"])
    eigs = np.linalg.eigvals(loop)
    for target in cases.EX2_REFERENCE["placed_poles"]:
        assert np.abs(eigs - target).min() <= 2e-2


def test_quadrature_rejects_bad_shapes():
    with pytest.raises(StructureError):
        systems.QuadratureSystem(
            A=np.zeros((3, 3)), B=np.zeros((3, 2)), C=np.zeros((2, 3)), D=np.zeros((2, 2))
        )
    with pytest.raises(StructureError):
        systems.QuadratureSystem(
            A=np.zeros((2, 2)), B=np.zeros((2, 2)), C=np.zeros((4, 2)), D=np.zeros((4, 2))
        )


@pytest.mark.parametrize(
    "cls, names, k",
    [(systems.QuadratureSystem, "ABCD", 2), (systems.AnnihilationSystem, "FGHK", 1)],
    ids=["quadrature", "annihilation"],
)
def test_systems_reject_bad_shapes(cls, names, k):
    # Two modes, two inputs, one output; k channels per port.
    a, b, c, d = names
    good = {a: (2, 2), b: (2, 2), c: (1, 2), d: (1, 2)}
    cases_ = [
        ({a: (2, 3)}, f"{a} must be square"),
        ({b: (3, 2)}, f"{b} has shape"),
        ({c: (1, 3)}, f"{c} has shape"),
        ({d: (1, 3)}, f"{d} has shape"),
        ({c: (3, 2), d: (3, 2)}, "output count exceeds input count"),
    ]
    cls(**{name: np.zeros((k * p, k * q)) for name, (p, q) in good.items()})
    for change, message in cases_:
        shapes = {**good, **change}
        with pytest.raises(StructureError, match=message):
            cls(**{name: np.zeros((k * p, k * q)) for name, (p, q) in shapes.items()})
    if k == 2:
        with pytest.raises(StructureError, match="quadrature dimensions must be even"):
            cls(**{name: np.zeros((3, 3)) for name in names})


def test_systems_reject_nonfinite():
    with pytest.raises(StructureError):
        systems.QuadratureSystem(
            A=np.array([[np.nan, 0.0], [0.0, 0.0]]),
            B=np.zeros((2, 2)),
            C=np.zeros((2, 2)),
            D=np.eye(2),
        )


def test_quadrature_construction_trivial_inputs():
    # With no Hamiltonian and no coupling the closure formulas give the
    # trivial static network.
    jn, jm = systems.symplectic_form(2), systems.symplectic_form(2)
    r_sym = np.zeros((4, 4))
    b = np.zeros((4, 4))
    d = np.eye(4)
    a = 2 * jn @ r_sym + 0.5 * b @ jm @ b.T @ jn
    c = (jn @ b @ jm @ d.T).T
    assert not a.any() and not c.any()
    sys_q = systems.QuadratureSystem(A=a, B=b, C=c, D=d)
    assert systems.check_realizability(sys_q, tol=1e-12).passes


def test_annihilation_degenerate_system_realizable():
    sys_a = systems.AnnihilationSystem(
        F=np.zeros((3, 3)), G=np.zeros((3, 2)), H=np.zeros((2, 3)), K=np.eye(2)
    )
    assert systems.check_realizability(sys_a, tol=1e-12).passes
