import numpy as np
import pytest

from conftest import (
    interpolation_passes,
    make_passive_data,
    make_quadrature_data,
    orthogonal_projector,
)
from qmor import cases, linalg, systems
from qmor.errors import DataValidationError, RankDeficiencyError
from qmor.reduction import (
    CONJUGATION_TOL,
    InterpolationData,
    ReductionResult,
    left_subspace_basis,
    passive_stability_certificate,
    passive_subspace_basis,
    projection,
    real_basis_from_conjugate_data,
    reduce_left,
    reduce_passive,
    reduce_right,
    right_subspace_basis,
)
from qmor.selection import conjugate_pair_points
from qmor.symplectic import skew_normal_form
from qmor.systems import symplectic_form, transfer


def complex_span_rank(*mats):
    return np.linalg.matrix_rank(np.hstack(mats).astype(complex), tol=1e-8)


def defining_vectors(system, side, data):
    """Oracle columns ``(s I - A)^-1 B d`` (right) or ``(s I - A)^-H C^H d``, one solve per point."""
    a, b, c, _ = system.state_space()
    columns = []
    for s, d in zip(data.points, data.directions):
        shifted = s * np.eye(a.shape[0]) - a
        if side == "right":
            columns.append(np.linalg.solve(shifted, b @ d))
        else:
            columns.append(np.linalg.solve(shifted.conj().T, c.conj().T @ d))
    return np.column_stack(columns)


# --------------------------------------------------------------------------
# real bases from conjugate data


def test_real_basis_single_conjugate_pair():
    v = np.array([1.0 + 1.0j, 0.0])
    points = np.array([1j, -1j])
    dirs = np.array([[1.0], [1.0]])
    vectors = np.column_stack([v, v.conj()])
    basis = real_basis_from_conjugate_data(points, dirs, vectors)
    assert basis.shape == (2, 2)
    assert np.isrealobj(basis)
    assert complex_span_rank(vectors, basis) == complex_span_rank(vectors)


def test_real_basis_real_input_unchanged():
    vectors = np.array([[1.0, 2.0], [3.0, 4.0]])
    basis = real_basis_from_conjugate_data(
        np.array([0.5, 2.0]), np.ones((2, 1)), vectors
    )
    assert np.array_equal(basis, vectors)


def test_real_basis_random_conjugate_closed_set():
    rng = np.random.default_rng(17)
    vectors = []
    points = []
    dirs = []
    for k in range(3):
        v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        sigma = rng.standard_normal() + 1j
        mu = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vectors += [v, v.conj()]
        points += [sigma, sigma.conjugate()]
        dirs += [mu, mu.conj()]
    vectors = np.column_stack(vectors)
    basis = real_basis_from_conjugate_data(np.array(points), np.array(dirs), vectors)
    assert basis.shape == (10, 6)
    rank_c = complex_span_rank(vectors)
    assert rank_c == 6
    assert complex_span_rank(basis) == 6
    assert complex_span_rank(vectors, basis) == 6


def test_real_basis_rejects_unpaired_data():
    with pytest.raises(DataValidationError):
        real_basis_from_conjugate_data(
            np.array([1j, 2j]), np.ones((2, 1)), np.ones((3, 2)) + 1j
        )


_TOL = CONJUGATION_TOL * 4.0  # the point tolerance of data whose largest |point| is 4

REAL_BASIS_ORDERS = {
    # name: (points, one-entry directions, expected columns as (item, part))
    "real item between a pair": (
        [2j, 0.5, -2j, 4.0],
        [1 + 1j, 2.0, 1 - 1j, 3.0],
        [(0, "re"), (0, "im"), (1, "re"), (3, "re")],
    ),
    "pair listed partner-first": (
        [0.5, -4j, 4j], [1.0, 2 - 1j, 2 + 1j], [(0, "re"), (1, "re"), (1, "im")]
    ),
    # Items 1 and 2 both match item 0; the first wins, and item 2 pairs with 3.
    "two candidate partners": (
        [1j, -1j, -1j, 1j], [1.0, 1.0, 1.0, 1.0], [(0, "re"), (0, "im"), (2, "re"), (2, "im")]
    ),
    # Items 2 and 3 both match item 1, but item 0 has taken item 2.
    "first unused partner": (
        [4j, 4j, -4j, -4j], [1.0, 1.0, 1.0, 1.0], [(0, "re"), (0, "im"), (1, "re"), (1, "im")]
    ),
    # Conjugates and a real item only within the point and direction tolerances.
    "matches within the tolerance": (
        [3j, -3j + 0.9 * _TOL, 4.0 + 0.9j * _TOL],
        [1 + 3j, 1 - 3j + 0.9j * CONJUGATION_TOL * abs(1 + 3j), 2.0 + 0.9j * CONJUGATION_TOL],
        [(0, "re"), (0, "im"), (2, "re")],
    ),
}


@pytest.mark.parametrize("name", list(REAL_BASIS_ORDERS))
def test_real_basis_column_order_and_partners_bit_for_bit(name):
    points, dirs, expected = REAL_BASIS_ORDERS[name]
    rng = np.random.default_rng(43)
    vectors = rng.standard_normal((5, len(points))) + 1j * rng.standard_normal((5, len(points)))
    reference = np.column_stack(
        [vectors[:, i].real if part == "re" else vectors[:, i].imag for i, part in expected]
    )
    basis = real_basis_from_conjugate_data(np.array(points), np.array(dirs)[:, None], vectors)
    assert basis.dtype == np.float64 and basis.tobytes() == reference.tobytes()


@pytest.mark.parametrize(
    "points, dirs, item",
    [
        ([2j, 1j], [1.0, 1.0], 0),
        ([1j, -1j, -1j], [1.0, 1.0, 1.0], 2),
        ([3j, -3j + 1.1 * _TOL, 4.0], [1.0, 1.0, 1.0], 0),
        ([3j, -3j, 4.0], [1.0, 1.0 + 1.1e-9j, 1.0], 0),
        ([4.0 + 1.1j * _TOL, 1.0], [1.0, 1.0], 0),
    ],
)
def test_real_basis_names_the_first_unpaired_item(points, dirs, item):
    vectors = np.ones((3, len(points)))
    with pytest.raises(DataValidationError) as excinfo:
        real_basis_from_conjugate_data(np.array(points), np.array(dirs)[:, None], vectors)
    assert str(excinfo.value) == (
        f"data item {item} (point {np.complex128(points[item])}) has no conjugate partner; "
        "quadrature-form reductions need conjugation-closed data"
    )


# --------------------------------------------------------------------------
# data checks


def _ex1_data(side, count=4):
    data = cases.ex1_interpolation_data()
    return InterpolationData(side, data.points[:count], data.directions[:count])


def _ex3_data(side="left", width=2):
    return InterpolationData(side, cases.ex3_interpolation_data().points, np.ones((3, width)))


DATA_REJECTIONS = {
    # InterpolationData itself.
    "side": (lambda: InterpolationData("up", [1j], [[1.0]]), "^side must be 'left' or 'right'"),
    "points-2d": (
        lambda: InterpolationData("left", [[1j, -1j]], np.ones((2, 1))),
        "^points must be a 1-D sequence$",
    ),
    "count": (lambda: InterpolationData("left", [1j, -1j], [[1.0]]), "^2 points but 1 directions$"),
    "nan-point": (
        lambda: InterpolationData("left", [1j, complex(np.nan, 1.0)], np.ones((2, 1))),
        "^point 1 is not finite$",
    ),
    "inf-point": (
        lambda: InterpolationData("left", [np.inf, 1j], np.ones((2, 1))),
        "^point 0 is not finite$",
    ),
    "nan-direction": (
        lambda: InterpolationData("right", [1j, -1j], [[1.0, 0.0], [0.0, np.nan]]),
        "^direction 1 is not finite$",
    ),
    "inf-direction": (
        lambda: InterpolationData("right", [1j, -1j], [[complex(0.0, np.inf)], [1.0]]),
        "^direction 0 is not finite$",
    ),
    "zero-direction": (
        lambda: InterpolationData("right", [1j, -1j], [[1.0, 0.0], [0.0, 0.0]]),
        "^direction 1 is the zero vector$",
    ),
    "underflowing-direction": (
        lambda: reduce_right(
            cases.optomechanical_system(),
            InterpolationData(
                "right",
                cases.ex1_interpolation_data().points,
                np.array(cases.ex1_interpolation_data().directions) * 1e-170,
            ),
        ),
        "^direction 0 is nonzero, but its squared entries underflow and its 2-norm reads "
        "zero; scale it up$",
    ),
    # check_data, through the reducers.
    "passive-form": (
        lambda: reduce_passive(cases.optomechanical_system(), _ex1_data("left")),
        "^passive reductions need an annihilation-form system$",
    ),
    "quadrature-form": (
        lambda: reduce_right(cases.cascaded_cavity_system(), _ex3_data("right")),
        "^right reductions need a quadrature-form system$",
    ),
    "data-side": (
        lambda: reduce_right(cases.optomechanical_system(), _ex1_data("left")),
        "^right reductions use right-side data, got left$",
    ),
    "passive-data-side": (
        lambda: reduce_passive(cases.cascaded_cavity_system(), _ex3_data("right")),
        "^passive reductions use left-side data, got right$",
    ),
    "unpaired-point": (
        lambda: reduce_right(
            cases.optomechanical_system(),
            InterpolationData("right", [1j, 2j], np.eye(6)[[4, 4]]),
        ),
        r"^data item 0 \(point 1j\) has no conjugate partner; quadrature-form reductions need "
        "conjugation-closed data$",
    ),
    "odd-count": (
        lambda: reduce_right(cases.optomechanical_system(), _ex1_data("right", count=3)),
        "^quadrature reductions need an even number of data items$",
    ),
    "quadrature-width": (
        lambda: reduce_left(cases.optomechanical_system(), _ex1_data("left")),
        r"^directions live in C\^6, the left side needs C\^2$",
    ),
    "passive-width": (
        lambda: reduce_passive(cases.cascaded_cavity_system(), _ex3_data(width=3)),
        r"^directions live in C\^3, the passive side needs C\^2$",
    ),
}


@pytest.mark.parametrize("case", sorted(DATA_REJECTIONS))
def test_invalid_data_rejected(case):
    # Every rejection of InterpolationData and check_data, the one check of
    # interpolation data for the reducers and the frequency search.
    build, message = DATA_REJECTIONS[case]
    with pytest.raises(DataValidationError, match=message):
        build()


def test_projection_keeps_an_unpaired_row_its_own_error():
    # In a stack of point rows, a row without conjugate partners fails alone.
    data = cases.ex1_interpolation_data()
    points = np.array([data.points, [1j, 2j, 3j, 4j]])
    _, _, errors, _ = projection(cases.optomechanical_system(), "right", points, data.directions)
    assert errors[0] is None and isinstance(errors[1], DataValidationError)
    assert str(errors[1]).startswith("data item 0 (point 1j) has no conjugate partner; ")


# --------------------------------------------------------------------------
# subspace bases


def test_left_basis_full_order_square():
    sys_q = systems.random_realizable_quadrature(2, 2, 2, 0)
    data = InterpolationData(
        side="left",
        points=conjugate_pair_points([1.0, 2.0]),
        directions=np.array([[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0]]),
    )
    basis = left_subspace_basis(sys_q, data)
    assert basis.shape == (4, 4)
    assert np.linalg.matrix_rank(basis) == 4


def test_left_basis_duplicate_data_rejected():
    sys_q = systems.random_realizable_quadrature(2, 2, 1, 1)
    data = InterpolationData(
        side="left",
        points=conjugate_pair_points([1.0, 1.0]),
        directions=np.array([[1, 0], [1, 0], [1, 0], [1, 0]]),
    )
    with pytest.raises(RankDeficiencyError):
        left_subspace_basis(sys_q, data)


def test_left_basis_spans_defining_vectors():
    sys_q = systems.random_realizable_quadrature(3, 2, 1, 42)
    data = InterpolationData(
        side="left",
        points=[1j, -1j, 2j, -2j],
        directions=np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float),
    )
    basis = left_subspace_basis(sys_q, data)
    assert basis.shape == (6, 4)
    vectors = defining_vectors(sys_q, "left", data)
    projector = orthogonal_projector(basis.astype(complex))
    for k in range(vectors.shape[1]):
        v = vectors[:, k]
        assert np.linalg.norm(v - projector @ v) <= 1e-10 * np.linalg.norm(v)


def test_right_basis_optomech_case():
    sys_q = cases.optomechanical_system()
    data = cases.ex1_interpolation_data()
    basis = right_subspace_basis(sys_q, data)
    assert basis.shape == (6, 4)
    assert np.linalg.matrix_rank(basis) == 4
    vectors = defining_vectors(sys_q, "right", data)
    projector = orthogonal_projector(basis.astype(complex))
    for k in range(4):
        v = vectors[:, k]
        assert np.linalg.norm(v - projector @ v) <= 1e-10 * np.linalg.norm(v)


def test_right_basis_duplicate_rejected():
    sys_q = systems.random_realizable_quadrature(2, 1, 1, 2)
    data = InterpolationData(
        side="right",
        points=conjugate_pair_points([1.0, 1.0]),
        directions=np.array([[1, 0], [1, 0], [1, 0], [1, 0]]),
    )
    with pytest.raises(RankDeficiencyError):
        right_subspace_basis(sys_q, data)


# --------------------------------------------------------------------------
# left/right reductions


def test_isotropic_right_subspace_has_a_singular_pairing():
    # The inputs drive only the q quadratures of a diagonal A, so every
    # resolvent column lies in span(q1, q2): a subspace of full rank 2 on
    # which the symplectic form vanishes, X^T J X = 0, and no symplectic
    # scaling exists.
    b = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    a = np.diag([-1.0, -2.0, -3.0, -4.0])
    system = systems.QuadratureSystem(A=a, B=b, C=b.T, D=np.eye(2))
    data = InterpolationData("right", [2j, -2j], [[1.0, 0.0], [1.0, 0.0]])
    basis = right_subspace_basis(system, data)
    assert np.linalg.matrix_rank(basis) == 2
    assert not (basis.T @ symplectic_form(2) @ basis).any()
    message = "skew pairing matrix of the right interpolation subspace is singular"
    with pytest.raises(RankDeficiencyError, match=message):
        reduce_right(system, data)


def test_reduce_left_full_order_transfer_identity():
    sys_q = systems.random_realizable_quadrature(2, 2, 2, 5)
    data = InterpolationData(
        side="left",
        points=conjugate_pair_points([1.0, 2.0]),
        directions=np.array([[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0]]),
    )
    result = reduce_left(sys_q, data)
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = rng.standard_normal() + 1j * rng.standard_normal()
        full = transfer(sys_q, s)
        red = transfer(result.reduced, s)
        assert np.linalg.norm(full - red) <= 1e-9 * max(1.0, np.linalg.norm(full))


def test_reduce_left_contract_random_system():
    sys_q = systems.random_realizable_quadrature(3, 2, 1, 42)
    data = InterpolationData(
        side="left",
        points=[1j, -1j],
        directions=np.array([[1.0, 0.5], [1.0, 0.5]]),
    )
    result = reduce_left(sys_q, data)
    diag = result.diagnostics
    assert diag.realizability.max_residual <= 1e-8
    assert interpolation_passes(diag)
    assert diag.biorthogonality <= 1e-9
    jn = symplectic_form(3)
    jr = symplectic_form(1)
    assert np.linalg.norm(result.w.T @ jn @ result.w - jr) <= 1e-10


def test_reduce_right_optomech_case():
    result = reduce_right(cases.optomechanical_system(), cases.ex1_interpolation_data())
    for target in (-50 + 1e4j, -50 - 1e4j):
        assert np.abs(result.diagnostics.poles - target).min() <= 0.01 * abs(target)
    refs = result.diagnostics.interpolation_references
    res = result.diagnostics.interpolation_residuals
    for r, ref in zip(res, refs):
        assert r <= 1e-6 * ref if ref > 1e-6 else r <= 1e-10


def test_reduce_right_control_case():
    fx = cases.control_case_fixture()
    result = reduce_right(fx["quantum_controller"], cases.ex2_interpolation_data())
    for target in cases.EX2_REFERENCE["reduced_poles"]:
        assert np.abs(result.diagnostics.poles - target).min() <= 2e-2


def test_reduction_contracts_randomized():
    for seed in range(10):
        sys_q = systems.random_realizable_quadrature(3, 2, 1, seed)
        for side, reducer in (("left", reduce_left), ("right", reduce_right)):
            result = reducer(sys_q, make_quadrature_data(sys_q, side, seed))
            diag = result.diagnostics
            assert diag.realizability.max_residual <= 1e-8
            assert interpolation_passes(diag)
            assert diag.biorthogonality <= 1e-9


def test_reduction_basis_independence():
    # Any basis of the interpolation subspace yields the same reduced
    # transfer function.
    sys_q = systems.random_realizable_quadrature(3, 2, 1, 7)
    data = make_quadrature_data(sys_q, "left", 4)
    w_hat = left_subspace_basis(sys_q, data)
    rng = np.random.default_rng(2)
    mix = rng.standard_normal((4, 4)) + np.eye(4)
    jn = symplectic_form(3)

    def reduced_transfer(basis, s):
        form = skew_normal_form(basis.T @ jn @ basis)
        w = basis @ form.T.T
        v = jn @ w @ np.linalg.inv(w.T @ jn @ w)
        reduced = systems.QuadratureSystem(
            A=w.T @ sys_q.A @ v, B=w.T @ sys_q.B, C=sys_q.C @ v, D=sys_q.D
        )
        return transfer(reduced, s)

    for _ in range(10):
        s = rng.standard_normal() + 1j * abs(rng.standard_normal())
        t1 = reduced_transfer(w_hat, s)
        t2 = reduced_transfer(w_hat @ mix, s)
        assert np.linalg.norm(t1 - t2) <= 1e-9 * max(1.0, np.linalg.norm(t1))


def _interpolation_cases():
    ex2 = cases.control_case_fixture()["quantum_controller"]
    ex1 = cases.optomechanical_system()
    rows = [
        (ex1, cases.ex1_interpolation_data(), reduce_right),
        (ex2, cases.ex2_interpolation_data(), reduce_right),
        (cases.cascaded_cavity_system(), cases.ex3_interpolation_data(), reduce_passive),
    ]
    for seed in range(3):
        quad = systems.random_realizable_quadrature(3, 2, 1, 40 + seed)
        rows.append((quad, make_quadrature_data(quad, "right", seed), reduce_right))
        rows.append((quad, make_quadrature_data(quad, "left", seed), reduce_left))
        passive = systems.random_realizable_annihilation(4, 2, 2, 40 + seed)
        rows.append((passive, make_passive_data(passive, seed), reduce_passive))
    return rows


def test_interpolation_residuals_below_gates():
    # The stacked transfer evaluation behind the diagnostics keeps every
    # residual under the existing gates, and the target norms equal those of a
    # point-by-point evaluation.
    for system, data, reducer in _interpolation_cases():
        diag = reducer(system, data).diagnostics
        assert interpolation_passes(diag)
        for k, (sigma, direction) in enumerate(zip(data.points, data.directions)):
            full = transfer(system, sigma)
            target = direction.conj() @ full if data.side == "left" else full @ direction
            ref = np.linalg.norm(target)
            assert abs(diag.interpolation_references[k] - ref) <= 1e-14 * ref


def test_reduction_solves_the_full_model_once(monkeypatch):
    # The interpolation targets come from the projection's resolvent columns:
    # one stacked solve of the full-order shifted matrices, then one of the
    # reduced model's for the residuals.
    solve, orders = linalg.solve, []

    def counting(m, b):
        orders.append(m.shape[-1])
        return solve(m, b)

    monkeypatch.setattr(linalg, "solve", counting)
    for system, data, reducer in _interpolation_cases():
        orders.clear()
        result = reducer(system, data)
        full, reduced = (model.state_space()[0].shape[0] for model in (system, result.reduced))
        assert orders == [full, reduced]


def test_reduced_matrices_are_real():
    sys_q = systems.random_realizable_quadrature(3, 2, 1, 13)
    result = reduce_right(sys_q, make_quadrature_data(sys_q, "right", 13))
    for m in (result.reduced.A, result.reduced.B, result.reduced.C, result.w, result.v):
        assert np.isrealobj(m)


@pytest.mark.parametrize(
    "shape, system_seed, side, data_seed",
    [
        ((3, 2, 1), 32, "right", 32),
        ((3, 2, 1), 42, "right", 6),
        ((2, 1, 1), 43, "left", 43),
    ],
    ids=["right-seed32", "right-seed42", "left-seed43"],
)
def test_realizability_residual_far_below_gate(shape, system_seed, side, data_seed):
    # Completing the scaled basis X as J_n X J_r^T inverts no pairing matrix.
    # Through an inverse the first case read 1.37e-8 (one BLAS thread), above
    # the 1e-8 gate, and the left case 6.6e-10.
    sys_q = systems.random_realizable_quadrature(*shape, system_seed)
    reducer = reduce_left if side == "left" else reduce_right
    result = reducer(sys_q, make_quadrature_data(sys_q, side, data_seed))
    assert result.diagnostics.realizability.max_residual <= 1e-10


def test_interpolation_point_on_eigenvalue_rejected():
    sys_q = systems.QuadratureSystem(
        A=systems.symplectic_form(1),
        B=np.eye(2),
        C=np.eye(2),
        D=np.eye(2),
    )
    data = InterpolationData(
        side="right",
        points=[1j, -1j],
        directions=np.array([[1.0, 0.0], [1.0, 0.0]]),
    )
    with pytest.raises(Exception) as err:
        right_subspace_basis(sys_q, data)
    assert "1j" in str(err.value) or "interpolation point" in str(err.value)


# --------------------------------------------------------------------------
# passive reductions


def test_passive_basis_full_order_unitary():
    sys_a = systems.random_realizable_annihilation(3, 2, 2, 3)
    data = make_passive_data(sys_a, 3, r=3)
    v_a = passive_subspace_basis(sys_a, data)
    assert v_a.shape == (3, 3)
    assert np.linalg.norm(v_a.conj().T @ v_a - np.eye(3)) <= 1e-12


def test_passive_basis_cascade_case():
    v_a = passive_subspace_basis(
        cases.cascaded_cavity_system(), cases.ex3_interpolation_data()
    )
    assert v_a.shape == (5, 3)
    assert np.linalg.norm(v_a.conj().T @ v_a - np.eye(3)) <= 1e-12


def test_passive_basis_defining_vector_oracle():
    sys_a = systems.random_realizable_annihilation(5, 2, 2, 8)
    data = make_passive_data(sys_a, 8, r=3)
    v_a = passive_subspace_basis(sys_a, data)
    vectors = defining_vectors(sys_a, "passive", data)
    projector = v_a @ v_a.conj().T
    for k in range(vectors.shape[1]):
        v = vectors[:, k]
        assert np.linalg.norm(v - projector @ v) <= 1e-10 * np.linalg.norm(v)


def test_reduce_passive_full_order_identity():
    sys_a = systems.random_realizable_annihilation(3, 2, 2, 5)
    data = make_passive_data(sys_a, 5, r=3)
    result = reduce_passive(sys_a, data)
    rng = np.random.default_rng(1)
    for _ in range(5):
        s = rng.standard_normal() + 1j * rng.standard_normal()
        diff = transfer(sys_a, s) - transfer(result.reduced, s)
        assert np.linalg.norm(diff) <= 1e-9


def test_reduce_passive_contract_randomized():
    for seed in range(10):
        sys_a = systems.random_realizable_annihilation(5, 2, 2, seed)
        result = reduce_passive(sys_a, make_passive_data(sys_a, seed))
        diag = result.diagnostics
        assert diag.realizability.max_residual <= 1e-10
        assert interpolation_passes(diag)
        assert diag.biorthogonality <= 1e-12


def test_reduce_passive_cascade_contract():
    result = reduce_passive(
        cases.cascaded_cavity_system(), cases.ex3_interpolation_data(), pr_tol=1e-8
    )
    diag = result.diagnostics
    assert diag.realizability.passes
    assert interpolation_passes(diag)
    cert = passive_stability_certificate(result, cases.cascaded_cavity_system().G)
    assert cert.stable and cert.minimal
    assert cert.separation_condition
    with pytest.raises(TypeError):
        passive_stability_certificate(result)  # the full-order coupling is required


def test_certificate_flags_unreachable_lossless_mode():
    # Block system with a lossless, uncoupled second mode: the reduced model
    # (here the identity projection) is not asymptotically stable and the
    # certificate pinpoints the offending eigenvector.
    omega0 = 2.0
    f = np.diag([-0.5, 1j * omega0])
    g = np.array([[1.0], [0.0]])
    h = -g.conj().T
    k = np.eye(1)
    sys_a = systems.AnnihilationSystem(F=f, G=g, H=h, K=k)
    assert systems.check_realizability(sys_a, tol=1e-12).passes
    data = InterpolationData(
        side="left", points=[1.0, 2.0], directions=np.array([[1.0], [1.0]])
    )
    synthetic = ReductionResult(
        w=np.eye(2, dtype=complex),
        v=np.eye(2, dtype=complex),
        reduced=sys_a,
        data=data,
        diagnostics=None,
    )
    cert = passive_stability_certificate(synthetic, g)
    assert not cert.stable
    assert not cert.minimal
    assert cert.condition_values.min() <= cert.threshold


def test_passive_and_quadrature_pipelines_agree_tangentially():
    # Reduce-then-convert matches convert-then-reduce on the tangential
    # responses at the shared interpolation data.
    sys_a = systems.random_realizable_annihilation(4, 2, 2, 12)
    data = make_passive_data(sys_a, 12, r=2)
    red_a = reduce_passive(sys_a, data)
    quad_of_red = systems.annihilation_to_quadrature(red_a.reduced)

    quad = systems.annihilation_to_quadrature(sys_a)
    tau = np.kron(np.eye(sys_a.n_outputs), 0.5 * np.array([[1.0, 1j], [1.0, -1j]]))

    def embed_direction(mu):
        slot = np.zeros(2 * sys_a.n_outputs, dtype=complex)
        slot[0::2] = mu
        return tau.conj().T @ slot

    q_points = np.concatenate([data.points, data.points.conj()])
    q_dirs = np.vstack(
        [
            [embed_direction(mu) for mu in data.directions],
            [embed_direction(mu).conj() for mu in data.directions],
        ]
    )
    q_data = InterpolationData(side="left", points=q_points, directions=q_dirs)
    red_q = reduce_left(quad, q_data)
    for sigma, mu_q in zip(q_points, q_dirs):
        lhs = mu_q.conj() @ transfer(red_q.reduced, sigma)
        rhs = mu_q.conj() @ transfer(quad_of_red, sigma)
        ref = np.linalg.norm(mu_q.conj() @ transfer(quad, sigma))
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(ref, 1e-6)
