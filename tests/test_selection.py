import numpy as np
import pytest

from conftest import stable_reduction_cases
from qmor import analysis, cases, linalg, selection, systems
from qmor.errors import InfeasiblePointError, QmorError, StructureError
from qmor.reduction import InterpolationData, reduce_passive, reduce_right
from qmor.selection import (
    SelectionProblem,
    conjugate_pair_points,
    cost_h2,
    cost_hinf,
    optimize_points,
    symmetric_dc_points,
    tangent_directions,
)


def _indicator(index, dim):
    e = np.zeros(dim)
    e[index] = 1.0
    return e


def test_tangent_directions_small_order():
    dirs = tangent_directions(2, 3)
    expected = np.vstack(
        [_indicator(0, 6), _indicator(0, 6), _indicator(1, 6), _indicator(1, 6)]
    )
    assert np.array_equal(dirs, expected)


def test_tangent_directions_wraparound():
    # r = 5 leaves a remainder of one pair after two full blocks of ell = 2.
    for r, pattern in [(4, [0, 0, 1, 1, 0, 0, 1, 1]), (5, [0, 0, 1, 1, 0, 0, 1, 1, 0, 0])]:
        dirs = tangent_directions(r, 2)
        expected = np.vstack([_indicator(k, 4) for k in pattern])
        assert np.array_equal(dirs, expected)


def test_tangent_directions_permutation():
    # Swapping output pairs 1 and 2 relocates the indicator indices.
    perm = np.zeros((4, 4))
    perm[0, 2] = perm[1, 3] = perm[2, 0] = perm[3, 1] = 1.0
    dirs = tangent_directions(1, 2, permutation=perm)
    assert np.array_equal(dirs[0], _indicator(2, 4))


def test_conjugate_pair_points_basic():
    pts = conjugate_pair_points([1.05e4, 1.05e4])
    assert np.array_equal(pts, [1.05e4j, -1.05e4j, 1.05e4j, -1.05e4j])


def test_conjugate_pair_points_degenerate_zero():
    assert np.array_equal(conjugate_pair_points([0.0]), [0.0 + 0.0j, 0.0 + 0.0j])


def test_conjugate_pair_points_closure():
    rng = np.random.default_rng(0)
    pts = conjugate_pair_points(rng.uniform(0, 10, size=5))
    assert sorted(pts.tolist(), key=lambda z: (z.real, z.imag)) == sorted(
        np.conj(pts).tolist(), key=lambda z: (z.real, z.imag)
    )


def test_symmetric_dc_template():
    pts = symmetric_dc_points([3.0])
    assert np.array_equal(pts, [3j, 0.0 + 0.0j, -3j])


def test_problem_validation():
    sys_q = systems.random_realizable_quadrature(2, 2, 1, 0)
    with pytest.raises(StructureError):
        SelectionProblem(
            system=sys_q, side="right", r=2, directions=np.ones((3, 4))
        )
    with pytest.raises(StructureError):
        SelectionProblem(
            system=sys_q,
            side="right",
            r=2,
            directions=np.ones((4, 4)),
            template="symmetric_with_dc",
        )
    for r in (0, -2):
        with pytest.raises(StructureError, match="at least 1"):
            SelectionProblem(system=sys_q, side="right", r=r, directions=np.ones((0, 4)))
    # An odd point count gives left/right data no even-dimensional real basis.
    for side in ("left", "right"):
        with pytest.raises(StructureError, match="passive selection only"):
            SelectionProblem(
                system=sys_q,
                side=side,
                r=3,
                directions=np.ones((6, 4)),
                template="symmetric_with_dc",
            )
    with pytest.raises(StructureError, match="quadrature-form"):
        SelectionProblem(
            system=cases.cascaded_cavity_system(), side="right", r=2, directions=np.ones((4, 4))
        )
    with pytest.raises(StructureError, match="annihilation-form"):
        SelectionProblem(system=sys_q, side="passive", r=2, directions=np.ones((2, 1)))
    with pytest.raises(StructureError, match=r"C\^5, the right side needs C\^4"):
        SelectionProblem(system=sys_q, side="right", r=2, directions=np.ones((4, 5)))


def test_passive_conjugate_pairs_expand_to_r_points():
    ex3 = cases.cascaded_cavity_system()
    # The command line's default pattern (e1, e1, e2, e2).
    directions = np.eye(ex3.n_outputs, dtype=complex)[[0, 0, 1, 1]]
    tied = SelectionProblem(system=ex3, side="passive", r=4, directions=directions)
    assert tied.n_free == 1
    assert np.array_equal(tied.expand_points([2.0]), [2j, -2j, 2j, -2j])
    untied = SelectionProblem(
        system=ex3, side="passive", r=4, directions=directions, tie_omegas=False
    )
    assert untied.n_free == 2
    assert np.array_equal(untied.expand_points([2.0, 3.0]), [2j, -2j, 3j, -3j])
    # The r points match the r directions, so the cost of a candidate is finite.
    two = SelectionProblem(system=ex3, side="passive", r=2, directions=directions[:2], cost="h2")
    assert np.isfinite(selection.cost_h2(two, [3.5e6]))
    for r in (1, 3):
        with pytest.raises(StructureError, match="even point count"):
            SelectionProblem(system=ex3, side="passive", r=r, directions=directions[:r])


def _ex1_right_case():
    problem = SelectionProblem(
        system=cases.optomechanical_system(),
        side="right",
        r=2,
        directions=cases.ex1_interpolation_data().directions,
        omega_bounds=cases.EX1_REFERENCE["selection_bounds"],
    )
    return problem, cases.EX1_REFERENCE["omega"], reduce_right


def _ex3_passive_case():
    problem = SelectionProblem(
        system=cases.cascaded_cavity_system(),
        side="passive",
        r=3,
        directions=cases.ex3_interpolation_data().directions,
        template="symmetric_with_dc",
    )
    return problem, cases.EX3_REFERENCE["omega"], reduce_passive


@pytest.mark.parametrize("case", [_ex1_right_case, _ex3_passive_case])
def test_selection_scores_the_reduced_model(case):
    # The cost is evaluated on the very model the reduction returns.
    problem, omega, reducer = case()
    points = problem.expand_points([omega])
    side = "right" if problem.side == "right" else "left"
    reduced = reducer(problem.system, InterpolationData(side, points, problem.directions)).reduced
    if problem.side == "passive":
        triple = (reduced.F, reduced.G, reduced.H)
    else:
        triple = (reduced.A, reduced.B, reduced.C)
    (a, b, c, _), (error,) = selection._reduced_models(problem, points[None])
    assert error is None
    projected = a[0], b[0], c[0]
    for got, expected in zip(projected, triple):
        assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)


def test_cost_hinf_full_order_vanishes():
    sys_q = systems.annihilation_to_quadrature(
        systems.random_realizable_annihilation(2, 2, 2, 1)
    )
    dirs = np.vstack(
        [_indicator(0, 4), _indicator(0, 4), _indicator(2, 4), _indicator(2, 4)]
    )
    problem = SelectionProblem(
        system=sys_q, side="right", r=2, directions=dirs, tie_omegas=False
    )
    assert cost_hinf(problem, [1.0, 2.0]) <= 1e-9


def test_cost_hinf_optomech_value():
    problem = SelectionProblem(
        system=cases.optomechanical_system(),
        side="right",
        r=2,
        directions=cases.ex1_interpolation_data().directions,
        omega_bounds=(1e3, 1e6),
        cost="hinf",
    )
    assert cost_hinf(problem, [1.05e4]) == pytest.approx(2.00, rel=0.02)


def test_cost_matches_real_basis_reduction():
    # The cost through the complex orthonormal basis equals the worst-case
    # error of the real-basis reduction at the same frequencies: the reduced
    # transfer depends only on the subspace.
    from conftest import stable_reduction_cases

    for quad, data, result in stable_reduction_cases(2):
        problem = SelectionProblem(
            system=quad,
            side="right",
            r=2,
            directions=data.directions,
            tie_omegas=False,
        )
        omegas = [data.points[0].imag, data.points[2].imag]
        est = analysis.hinf_error(quad, result)
        assert cost_hinf(problem, omegas) == pytest.approx(est.value, rel=1e-6)


def test_cost_h2_full_order_vanishes():
    sys_q = systems.annihilation_to_quadrature(
        systems.random_realizable_annihilation(2, 2, 2, 1)
    )
    dirs = np.vstack(
        [_indicator(0, 4), _indicator(0, 4), _indicator(2, 4), _indicator(2, 4)]
    )
    problem = SelectionProblem(
        system=sys_q, side="right", r=2, directions=dirs, tie_omegas=False, cost="h2"
    )
    assert cost_h2(problem, [1.0, 2.0]) <= 1e-8


def _rank_deficient_problem():
    sys_q = systems.random_realizable_quadrature(2, 2, 1, 2)
    dirs = np.vstack([_indicator(0, 4)] * 4)  # same direction four times
    return SelectionProblem(
        system=sys_q, side="right", r=2, directions=dirs, omega_bounds=(1.0, 2.0)
    )


def test_cost_infeasible_raises_or_penalizes():
    problem = _rank_deficient_problem()
    with pytest.raises(InfeasiblePointError) as raised:
        cost_hinf(problem, [1.0])
    # The search keeps each candidate's reason in the trace the error carries.
    with pytest.raises(InfeasiblePointError) as info:
        optimize_points(problem)
    first = info.value.trace[0]
    assert first["omegas"] == [1.0] and not first["feasible"]
    assert first["reason"] == str(raised.value)


def test_optimizer_deterministic():
    problem = SelectionProblem(
        system=cases.cascaded_cavity_system(),
        side="passive",
        r=3,
        directions=np.array([[1.0, 0.0]] * 3),
        omega_bounds=(1e5, 1e9),
        cost="h2",
        template="symmetric_with_dc",
    )
    first = optimize_points(problem)
    second = optimize_points(problem)
    assert np.array_equal(first.omegas, second.omegas)
    assert first.cost == second.cost
    # Scan argmin is a lattice-local minimum by construction.
    scan = [t for t in first.trace if t["phase"] == "scan"]
    best = min(range(len(scan)), key=lambda k: scan[k]["cost"])
    for neighbor in (best - 1, best + 1):
        if 0 <= neighbor < len(scan):
            assert scan[neighbor]["cost"] >= scan[best]["cost"]


def test_optimizer_all_infeasible():
    sys_q = systems.random_realizable_quadrature(2, 2, 1, 2)
    dirs = np.vstack([_indicator(0, 4)] * 4)
    problem = SelectionProblem(
        system=sys_q, side="right", r=2, directions=dirs, omega_bounds=(0.5, 2.0)
    )
    with pytest.raises(InfeasiblePointError, match="infeasible"):
        optimize_points(problem)


def test_optimizer_control_case():
    fx = cases.control_case_fixture()
    problem = SelectionProblem(
        system=fx["quantum_controller"],
        side="right",
        r=2,
        directions=cases.ex2_interpolation_data().directions,
        omega_bounds=(1e-2, 1e2),
        cost="hinf",
        tie_omegas=True,
    )
    chosen = optimize_points(problem)
    ref_cost = cost_hinf(problem, [0.29])
    assert (
        abs(chosen.omegas[0] - 0.29) <= 0.029
        or chosen.cost <= ref_cost * (1 + 1e-3)
    )


def test_optimizer_cascade_h2_no_worse_than_reference():
    problem = SelectionProblem(
        system=cases.cascaded_cavity_system(),
        side="passive",
        r=3,
        directions=np.array([[1.0, 0.0]] * 3),
        omega_bounds=(1e5, 1e9),
        cost="h2",
        template="symmetric_with_dc",
    )
    chosen = optimize_points(problem)
    ref_cost = cost_h2(problem, [1.48e7])
    assert (
        abs(chosen.omegas[0] - 1.48e7) <= 1.48e6
        or chosen.cost <= ref_cost * (1 + 1e-3)
    )


def _ex3_h2_problem():
    return SelectionProblem(
        system=cases.cascaded_cavity_system(),
        side="passive",
        r=3,
        directions=cases.ex3_interpolation_data().directions,
        omega_bounds=cases.EX3_REFERENCE["selection_bounds"],
        cost="h2",
        template="symmetric_with_dc",
    )


def _dense_h2_integral(full, reduced, panels=64, nodes=32):
    """Integral of |Xi(i w) - Xi_r(i w)|_F^2 over the whole axis.

    Composite Gauss-Legendre in t after w = 1e6 tan(t), t in (-pi/2, pi/2):
    the weight 1e6 sec(t)^2 keeps the transformed integrand bounded at both
    ends because the error decays like 1/w.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(-np.pi / 2, np.pi / 2, panels + 1)
    half = np.diff(edges)[:, None] / 2
    t = ((edges[:-1, None] + edges[1:, None]) / 2 + half * x).ravel()
    weights = (half * w).ravel() * 1e6 / np.cos(t) ** 2
    s = 1j * 1e6 * np.tan(t)
    error = full.H @ analysis.sweep(full.F, full.G, s) - reduced.H @ analysis.sweep(
        reduced.F, reduced.G, s
    )
    return float(np.sum(weights * np.sum(np.abs(error) ** 2, axis=(1, 2))))


@pytest.mark.parametrize("omega", [1e5, 1.48e7, 1e8])
def test_cost_h2_is_gramian_of_the_reduction(omega):
    problem = _ex3_h2_problem()
    result = reduce_passive(problem.system, cases.ex3_interpolation_data(omega))
    gramian = analysis.h2_error_gramian(problem.system, result)
    assert cost_h2(problem, [omega]) == pytest.approx(gramian, rel=1e-12)


@pytest.mark.parametrize("omega", [1e5, 1.48e7])
def test_cost_h2_matches_dense_integral(omega):
    problem = _ex3_h2_problem()
    reduced = reduce_passive(problem.system, cases.ex3_interpolation_data(omega)).reduced
    dense = _dense_h2_integral(problem.system, reduced)
    assert cost_h2(problem, [omega]) == pytest.approx(dense, rel=1e-9)


def _unstable_projection_problem(cost):
    passive = systems.random_realizable_annihilation(3, 2, 2, 100)
    quad = systems.annihilation_to_quadrature(passive)
    dirs = np.vstack(
        [_indicator(0, 4), _indicator(0, 4), _indicator(2, 4), _indicator(2, 4)]
    )
    problem = SelectionProblem(system=quad, side="right", r=2, directions=dirs, cost=cost)
    result = reduce_right(quad, InterpolationData("right", conjugate_pair_points([2.0, 2.0]), dirs))
    assert linalg.is_hurwitz(quad.A) and not linalg.is_hurwitz(result.reduced.A)
    return problem


def _assert_penalized(problem, cost):
    """A mixed scan: infeasible rows cost the penalty and keep the reason ``cost`` raises."""
    chosen = optimize_points(problem)
    scan = [row for row in chosen.trace if row["phase"] == "scan"]
    feasible = [row for row in scan if row["feasible"]]
    infeasible = [row for row in scan if not row["feasible"]]
    assert feasible and infeasible
    assert all(row["reason"] == "" for row in feasible)
    for row in infeasible:
        assert row["cost"] == selection.PENALTY_FACTOR * feasible[0]["cost"]
        with pytest.raises(InfeasiblePointError) as raised:
            cost(problem, row["omegas"])
        assert row["reason"] == str(raised.value)
    assert chosen.cost == min(row["cost"] for row in chosen.trace)


def test_cost_h2_unstable_projection_raises_or_penalizes():
    problem = _unstable_projection_problem("h2")
    with pytest.raises(InfeasiblePointError, match="unstable"):
        cost_h2(problem, [2.0])
    _assert_penalized(problem, cost_h2)


def test_cost_hinf_unstable_projection_raises_or_penalizes():
    # The grid supremum of an unstable error is finite; the H-infinity norm is not.
    problem = _unstable_projection_problem("hinf")
    with pytest.raises(InfeasiblePointError, match="unstable"):
        cost_hinf(problem, [2.0])
    _assert_penalized(problem, cost_hinf)


def test_optimizer_refine_rows_keep_the_reason(monkeypatch):
    # A cost that falls toward an infeasible edge, so the refinement crosses it.
    def cost(problem, candidates):
        return [
            InfeasiblePointError("beyond the edge") if omegas[0] > 1.0 else 2.0 - omegas[0]
            for omegas in candidates
        ]

    monkeypatch.setitem(selection.COST_FUNCTIONS, "h2", cost)
    chosen = optimize_points(_unstable_projection_problem("h2"))
    first = next(row["cost"] for row in chosen.trace if row["feasible"])
    refine = [row for row in chosen.trace if row["phase"] == "refine"]
    crossed = [row for row in refine if not row["feasible"]]
    assert crossed
    for row in crossed:
        assert row["reason"] == "beyond the edge"
        assert row["cost"] == selection.PENALTY_FACTOR * first
    assert chosen.omegas[0] <= 1.0 and chosen.cost == pytest.approx(1.0, rel=1e-3)


def test_optimizer_all_infeasible_message_is_one_line():
    # One direction four times: every untied candidate spans a 2-D subspace.
    problem = SelectionProblem(
        system=cases.optomechanical_system(),
        side="right",
        r=2,
        directions=np.vstack([_indicator(4, 6)] * 4),
        tie_omegas=False,
    )
    with pytest.raises(InfeasiblePointError) as info:
        optimize_points(problem)
    message = str(info.value)
    assert message.startswith("all 256 scanned candidates were infeasible; 256 raised")
    assert "\n" not in message
    assert len(message.encode()) < 1024


SCAN_PROBLEMS = {
    "ex3-passive-h2": _ex3_h2_problem,
    "ex1-right-hinf": lambda: SelectionProblem(
        cases.optomechanical_system(), "right", 2, cases.ex1_interpolation_data().directions,
        omega_bounds=(1e3, 1e6),
    ),
    "ex1-right-hinf-untied": lambda: SelectionProblem(
        cases.optomechanical_system(), "right", 2, cases.ex1_interpolation_data().directions,
        omega_bounds=(1e3, 1e6), tie_omegas=False,
    ),
    "left-hinf": lambda: SelectionProblem(
        stable_reduction_cases(1)[0][0], "left", 1, tangent_directions(1, 2)
    ),
    "unstable-h2": lambda: _unstable_projection_problem("h2"),
    "unstable-hinf": lambda: _unstable_projection_problem("hinf"),
    "rank-deficient": _rank_deficient_problem,
}


@pytest.mark.parametrize("label", sorted(SCAN_PROBLEMS))
def test_stacked_scan_rows_equal_single_candidate_costs(label):
    # The lattice is scored in one stacked pass and a revisited candidate
    # reuses its outcome; each row must be what the cost of that candidate
    # alone gives, bit for bit, reason text included.
    problem = SCAN_PROBLEMS[label]()
    cost_fn = cost_h2 if problem.cost == "h2" else cost_hinf
    try:
        trace = optimize_points(problem).trace
    except InfeasiblePointError as exc:
        trace = exc.trace
    d = problem.n_free
    per_dim = selection.SCAN_POINTS_1D if d == 1 else selection.SCAN_POINTS_ND
    assert len([row for row in trace if row["phase"] == "scan"]) == per_dim**d
    for row in trace:
        if row["feasible"]:
            assert row["cost"] == cost_fn(problem, row["omegas"])
        elif row["reason"] != "outside the search interval":
            with pytest.raises(QmorError) as raised:
                cost_fn(problem, row["omegas"])
            assert row["reason"] == str(raised.value)


def _counting(monkeypatch, name):
    """Record the shape of the matrix argument of every ``np.linalg.<name>`` call."""
    shapes = []
    original = getattr(np.linalg, name)

    def counting(m, *args):
        shapes.append(np.shape(m))
        return original(m, *args)

    monkeypatch.setattr(np.linalg, name, counting)
    return shapes


def test_cost_h2_eigensolves_the_error_system_once(monkeypatch):
    # The stacked Hurwitz test is the one eigenvalue call; the Lyapunov solve
    # reads its own test off the eigenvalues of its Schur form.
    shapes = _counting(monkeypatch, "eigvals")
    problem = _ex3_h2_problem()
    cost_h2(problem, [1.48e7])
    order = cases.cascaded_cavity_system().n_modes + problem.r
    assert shapes == [(1, order, order)]


def test_scan_resolvents_come_from_one_stacked_solve(monkeypatch):
    shapes = _counting(monkeypatch, "solve")
    chosen = optimize_points(_ex3_h2_problem())
    n = cases.cascaded_cavity_system().n_modes
    assert shapes[0] == (selection.SCAN_POINTS_1D, 3, n, n)
    # Every later solve is one refine candidate, each distinct one solved once.
    assert set(shapes[1:]) == {(1, 3, n, n)}
    scan = {tuple(row["omegas"]) for row in chosen.trace if row["phase"] == "scan"}
    refine = [tuple(row["omegas"]) for row in chosen.trace if row["phase"] == "refine"]
    assert len(shapes) - 1 == len(set(refine) - scan) < len(refine)


@pytest.mark.parametrize("label", ["ex3-passive-h2", "ex1-right-hinf-untied"])
def test_scan_blocks_leave_the_trace_unchanged(monkeypatch, label):
    # A working-memory budget of seven candidates splits the lattice into
    # passes of seven; no trace row may move at the block boundaries.
    problem = SCAN_PROBLEMS[label]()
    whole = optimize_points(problem).trace
    n = problem.state_matrix().shape[0]
    k = problem.expand_points(whole[0]["omegas"]).size
    monkeypatch.setattr(selection, "SCAN_BLOCK_BYTES", 7 * (2 * k + 1) * n * n * 16)
    shapes = _counting(monkeypatch, "solve")
    assert optimize_points(problem).trace == whole
    scan = sum(row["phase"] == "scan" for row in whole)
    blocks = [shape[0] for shape in shapes if len(shape) == 4][: -(-scan // 7)]
    assert blocks == [min(7, scan - start) for start in range(0, scan, 7)]


@pytest.mark.parametrize("side", ["passive", "left", "right"])
def test_problem_rejects_r_above_system_order(side):
    system = cases.cascaded_cavity_system()
    if side != "passive":
        system = systems.annihilation_to_quadrature(system)
    ports = system.n_inputs if side == "right" else system.n_outputs
    dirs = np.ones((6, ports)) if side == "passive" else tangent_directions(6, ports)
    with pytest.raises(StructureError, match="r = 6 exceeds the 5 modes"):
        SelectionProblem(system, side, 6, dirs)
