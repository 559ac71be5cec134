import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qmor

from conftest import stable_reduction_cases
from qmor import analysis, cases, linalg, selection, systems
from qmor.errors import (
    DataValidationError,
    InfeasiblePointError,
    QmorError,
    StabilityError,
    StructureError,
)
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


@pytest.mark.parametrize("side", ["passive", "right"])
def test_zero_direction_rejected_before_any_cost(monkeypatch, side):
    # The problem checks its directions when it is built: no candidate is
    # scored, and the search never starts.
    calls = []
    for cost in ("hinf", "h2"):
        monkeypatch.setitem(selection.COST_FUNCTIONS, cost, lambda *args: calls.append(args))
    if side == "passive":
        system, r, template = cases.cascaded_cavity_system(), 3, "symmetric_with_dc"
        directions = np.array(cases.ex3_interpolation_data().directions)
    else:
        system, r, template = cases.optomechanical_system(), 2, "conjugate_pairs"
        directions = np.array(cases.ex1_interpolation_data().directions)
    directions[1] = 0.0
    with pytest.raises(StructureError, match="^direction 1 is the zero vector$"):
        selection.optimize_points(
            SelectionProblem(system, side, r, directions, cost="h2", template=template)
        )
    # A non-finite row fails the same way, when the problem is built.
    directions[1] = np.nan
    with pytest.raises(DataValidationError, match="^direction 1 is not finite$"):
        SelectionProblem(system, side, r, directions, cost="h2", template=template)
    assert calls == []


def test_underflowing_direction_rejected_with_its_cause():
    # ex1's directions scaled by 1e-170 are nonzero, but their squares
    # underflow: the problem names that, not "the zero vector".
    directions = np.array(cases.ex1_interpolation_data().directions) * 1e-170
    with pytest.raises(DataValidationError, match="^direction 0 is nonzero, but its squared"):
        SelectionProblem(cases.optomechanical_system(), "right", 2, directions)


def test_non_finite_frequency_rejected():
    problem = _ex1_right_case()[0]
    for cost in (cost_hinf, cost_h2):
        for omega in (np.nan, np.inf, -1.0):
            with pytest.raises(StructureError, match="^template frequencies must be finite"):
                cost(problem, [omega])


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


def _non_hurwitz_ex3_problem(cost):
    f, g, h, k = cases.cascaded_cavity_system().state_space()
    shifted = systems.AnnihilationSystem(F=f + 1.5e6 * np.eye(f.shape[0]), G=g, H=h, K=k)
    return replace(_ex3_h2_problem(), system=shifted, cost=cost)


@pytest.mark.parametrize("cost", ["h2", "hinf"])
def test_non_hurwitz_full_model_fails_before_any_error_norm(monkeypatch, cost):
    # No candidate has a finite error norm: the search and both costs raise
    # one error that names the full model, and no candidate is scored.
    scored = []
    monkeypatch.setattr(selection, "h2_error_gramians", lambda *args: scored.append(args))
    monkeypatch.setattr(selection, "_hinf_norms", lambda *args: scored.append(args))
    eigensolves = _counting(monkeypatch, "eigvals")
    problem = _non_hurwitz_ex3_problem(cost)
    message = "^full model: " + linalg.NOT_HURWITZ + "$"
    with pytest.raises(StabilityError, match=message):
        optimize_points(problem)
    for cost_fn in (cost_h2, cost_hinf):
        with pytest.raises(StabilityError, match=message):
            cost_fn(problem, [1.48e7])
    assert scored == [] and eigensolves == []


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


STACK_PROBLEMS = {
    "ex3-h2": _ex3_h2_problem,
    "ex1-h2": lambda: replace(SCAN_PROBLEMS["ex1-right-hinf"](), cost="h2"),
    "ex1-hinf": SCAN_PROBLEMS["ex1-right-hinf"],
}


def _bits(outcome):
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return float(outcome).hex()


@pytest.mark.parametrize("label", sorted(STACK_PROBLEMS))
def test_costs_do_not_depend_on_the_stack(label):
    # The search reuses scored rows and splits its scan into blocks of
    # SCAN_BLOCK_BYTES: a row's cost must not depend on the rows scored
    # with it.  The 64-row lattice in one stack against 64 stacks of one.
    problem = STACK_PROBLEMS[label]()
    lo, hi = np.log10(problem.omega_bounds)
    lattice = np.logspace(lo, hi, selection.SCAN_POINTS_1D)[:, None]
    costs = selection.COST_FUNCTIONS[problem.cost]
    stacked = [_bits(outcome) for outcome in costs(problem, lattice)]
    assert stacked == [_bits(costs(problem, row[None])[0]) for row in lattice]
    assert sum(isinstance(bits, str) for bits in stacked) > len(lattice) // 2


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
        else:
            with pytest.raises(QmorError) as raised:
                cost_fn(problem, row["omegas"])
            assert row["reason"] == str(raised.value)


def _fingerprint_problem(label):
    """The searches of ``scripts/fingerprint.py`` that the scan problems above do not cover."""
    ex1, ex3 = cases.optomechanical_system(), cases.cascaded_cavity_system()
    ex1_dirs = cases.ex1_interpolation_data().directions
    ex3_dirs = cases.ex3_interpolation_data().directions
    return {
        "fingerprint-ex1-untied": SelectionProblem(ex1, "right", 2, ex1_dirs, tie_omegas=False),
        "fingerprint-ex1-h2": SelectionProblem(
            ex1, "right", 2, ex1_dirs, cost="h2", omega_bounds=(1e3, 1e6)
        ),
        "fingerprint-ex3-default-window": SelectionProblem(
            ex3, "passive", 3, ex3_dirs, cost="h2", template="symmetric_with_dc"
        ),
        "control-hinf": SelectionProblem(
            cases.control_case_fixture()["quantum_controller"], "right", 2,
            cases.ex2_interpolation_data().directions, omega_bounds=(1e-2, 1e2),
        ),
    }[label]


#: The costs that the Nelder-Mead refinement, which the compass poll replaced,
#: reached on each search of this file and of ``scripts/fingerprint.py`` (the
#: ex3 window search there is ``ex3-passive-h2``, its ex1 search
#: ``ex1-right-hinf``, its ``stable0-left`` search ``left-hinf``).
NELDER_MEAD_COSTS = {
    "ex3-passive-h2": 6607741.90566781,
    "ex1-right-hinf": 2.000247260644655,
    "ex1-right-hinf-untied": 2.0002472606446533,
    "left-hinf": 4.06468000885055,
    "unstable-h2": 1972.6524159909773,
    "unstable-hinf": 26.26974675825915,
    "fingerprint-ex1-untied": 2.0002472606446533,
    "fingerprint-ex1-h2": 2513584.8667371273,
    "fingerprint-ex3-default-window": 6607741.904539118,
    "control-hinf": 148.87199817050575,
}


@pytest.mark.parametrize("label", sorted(NELDER_MEAD_COSTS))
def test_refinement_no_worse_than_nelder_mead(label):
    problem = SCAN_PROBLEMS[label]() if label in SCAN_PROBLEMS else _fingerprint_problem(label)
    chosen = optimize_points(problem)
    assert chosen.cost <= NELDER_MEAD_COSTS[label] * (1 + 1e-8)
    assert chosen.cost == min(row["cost"] for row in chosen.trace)


#: The H2 searches of this file and of ``scripts/fingerprint.py``, with the
#: ex2 control problem of ``control-hinf`` under the H2 cost.
H2_SEARCHES = {
    "ex3-passive-h2": _ex3_h2_problem,
    "fingerprint-ex3-default-window": lambda: _fingerprint_problem(
        "fingerprint-ex3-default-window"
    ),
    "fingerprint-ex1-h2": lambda: _fingerprint_problem("fingerprint-ex1-h2"),
    "unstable-h2": lambda: _unstable_projection_problem("h2"),
    "control-h2": lambda: replace(_fingerprint_problem("control-hinf"), cost="h2"),
}


@pytest.mark.parametrize("label", sorted(H2_SEARCHES))
def test_stacked_h2_costs_match_the_error_system_norm(label):
    # Every lattice and poll candidate, scored in stacked passes from the
    # error Gramian's blocks, against h2_norm of its own order n + r error
    # system.
    problem = H2_SEARCHES[label]()
    trace = optimize_points(problem).trace
    omegas = np.array([row["omegas"] for row in trace])
    (a, b, c, d), errors = selection._reduced_models(problem, problem.expand_points(omegas))
    checked = 0
    for row, error, model in zip(trace, errors, zip(a, b, c)):
        if error is not None:
            assert not row["feasible"] and row["reason"] == str(error)
            continue
        try:
            oracle = analysis.h2_norm(*analysis.error_system(problem.system, (*model, d)))
        except StabilityError:
            assert not row["feasible"]
            continue
        assert row["feasible"] and row["cost"] == pytest.approx(oracle, rel=1e-11, abs=0)
        checked += 1
    assert checked > len(trace) // 2


def test_pole_pair_on_the_axis_is_a_penalized_row(monkeypatch):
    # A reduced pole at -1e-20 is Hurwitz, but it pairs with itself to zero
    # to working precision, where the Gramian is not defined: such a row is
    # infeasible with the Lyapunov solve's reason, never a huge cost.
    problem = _ex3_h2_problem()
    reduced_models = selection._reduced_models

    def pole_near_axis(problem, points):
        (a, b, c, d), errors = reduced_models(problem, points)
        a = a.copy()
        a[points[:, 0].imag > 1e8] = np.diag([-1e-20, -1.0, -2.0])
        return (a, b, c, d), errors

    monkeypatch.setattr(selection, "_reduced_models", pole_near_axis)
    chosen = optimize_points(problem)
    penalized = [row for row in chosen.trace if not row["feasible"]]
    assert penalized and all(row["omegas"][0] > 1e8 for row in penalized)
    assert all(row["reason"] == linalg.POLE_PAIR for row in penalized)
    first = next(row["cost"] for row in chosen.trace if row["feasible"])
    assert all(row["cost"] == selection.PENALTY_FACTOR * first for row in penalized)
    assert chosen.cost == min(row["cost"] for row in chosen.trace if row["feasible"])
    with pytest.raises(StabilityError, match=linalg.POLE_PAIR):
        cost_h2(problem, [5e8])


@pytest.mark.parametrize("cost", ["h2", "hinf"])
def test_mixed_stack_rows_equal_their_rows_alone(monkeypatch, cost):
    # One pass over every kind of row: a rank failure (omega = 0 puts all
    # three points at 0), an unstable projection, a pole pair on the axis
    # and scored rows.  Each outcome sits at its own row, the bits of that
    # row scored alone.
    problem = replace(_ex3_h2_problem(), cost=cost)
    reduced_models = selection._reduced_models
    patched = {2e6: np.diag([1.0, -1.0, -2.0]), 3e6: np.diag([-1e-20, -1.0, -2.0])}

    def unstable_and_pole_pair(problem, points):
        (a, b, c, d), errors = reduced_models(problem, points)
        a = a.copy()
        for omega, matrix in patched.items():
            a[points[:, 0].imag == omega] = matrix
        return (a, b, c, d), errors

    monkeypatch.setattr(selection, "_reduced_models", unstable_and_pole_pair)
    costs = selection.COST_FUNCTIONS[cost]
    stack = np.array([[1e6], [0.0], [1.5e6], [2e6], [3e6], [5e6], [0.0], [2e6]])
    outcomes = costs(problem, stack)
    assert [_bits(outcome) for outcome in outcomes] == [
        _bits(costs(problem, row[None])[0]) for row in stack
    ]
    rank, unstable = outcomes[1], outcomes[3]
    assert isinstance(rank, InfeasiblePointError) and "has dimension 1, expected 3" in str(rank)
    assert isinstance(unstable, InfeasiblePointError) and "unstable" in str(unstable)
    assert _bits(outcomes[6]) == _bits(rank) and _bits(outcomes[7]) == _bits(unstable)
    assert all(math.isfinite(outcomes[i]) for i in (0, 2, 5))
    if cost == "h2":
        assert isinstance(outcomes[4], StabilityError) and str(outcomes[4]) == linalg.POLE_PAIR


def test_import_leaves_scipy_optimize_out():
    # The refinement is the package's own poll, so importing it costs no optimizer.
    code = "import sys, qmor, qmor.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(qmor.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_default_directions_pick_the_paper_port_of_ex1():
    # Input pair 1 drives the cavity and has the largest Gramian share, but
    # its four tangent vectors span three dimensions; pair 3 is the next
    # ranked pair, the paper's e5/e6.
    ex1 = cases.optomechanical_system()
    directions = selection.default_directions(ex1, "right", 2)
    assert np.array_equal(directions, cases.ex1_interpolation_data().directions)
    # The passive default is the indicator pattern (e1, e1, e2, e2, ...).
    ex3 = cases.cascaded_cavity_system()
    assert np.array_equal(selection.default_directions(ex3, "passive", 3), np.eye(2)[[0, 0, 1]])
    with pytest.raises(StructureError, match="right selection needs a quadrature-form system"):
        selection.default_directions(ex3, "right", 2)


def _counting(monkeypatch, name):
    """Record the shape of the matrix argument of every ``np.linalg.<name>`` call."""
    shapes = []
    original = getattr(np.linalg, name)

    def counting(m, *args):
        shapes.append(np.shape(m))
        return original(m, *args)

    monkeypatch.setattr(np.linalg, name, counting)
    return shapes


def test_cost_h2_eigensolves_only_the_reduced_model(monkeypatch):
    # The full model's Hurwitz test reads the diagonal of its Schur form, so
    # the one eigenvalue call is the stacked one on the reduced state
    # matrices; nothing of order n + r is eigensolved.
    shapes = _counting(monkeypatch, "eigvals")
    problem = _ex3_h2_problem()
    cost_h2(problem, [1.48e7])
    assert shapes == [(1, problem.r, problem.r)]


def test_cost_hinf_eigensolves_no_error_system(monkeypatch):
    # Each row's level-set norm takes the full Schur diagonal and the row's
    # poles from the pass's one stacked eigenvalue call: besides that call,
    # only the 20 x 20 Hamiltonians are eigensolved, never the 10 x 10 A_e.
    shapes = _counting(monkeypatch, "eigvals")
    problem = SCAN_PROBLEMS["ex1-right-hinf"]()
    cost_hinf(problem, [1.05e4])
    assert shapes[0] == (1, 4, 4)
    assert set(shapes[1:]) == {(20, 20)}


def test_level_set_failures_are_row_outcomes(monkeypatch):
    # A level-set run that does not converge fails its own row: hinf_costs
    # returns the error for each row, and the stack of one raises it.
    monkeypatch.setattr(analysis, "MAX_LEVEL_SET_ITERATIONS", 0)
    problem = SCAN_PROBLEMS["ex1-right-hinf"]()
    message = "H-infinity level-set iteration did not converge in 0 steps"
    outcomes = selection.hinf_costs(problem, [[1.05e4], [2e4]])
    assert [(type(o), str(o)) for o in outcomes] == [(QmorError, message)] * 2
    with pytest.raises(QmorError, match=f"^{message}$"):
        cost_hinf(problem, [1.05e4])


def test_non_finite_compression_keeps_the_forms_message(monkeypatch):
    # A row whose projection succeeds but whose compressed matrices are not
    # finite is infeasible with the system form's own message; the other
    # rows are unaffected.
    problem = SCAN_PROBLEMS["ex1-right-hinf"]()
    compress = selection.compress

    def poisoned(system, w, v):
        a, b, c, d = compress(system, w, v)
        a = a.copy()
        a[1, 0, 0] = np.nan
        return a, b, c, d

    monkeypatch.setattr(selection, "compress", poisoned)
    points = problem.expand_points(np.array([[1.05e4], [2e4]]))
    _, errors = selection._reduced_models(problem, points)
    assert errors[0] is None
    assert isinstance(errors[1], InfeasiblePointError)
    assert str(errors[1]) == "A contains non-finite entries"
    first, second = selection.hinf_costs(problem, [[1.05e4], [2e4]])
    assert math.isfinite(first)
    assert isinstance(second, InfeasiblePointError)
    assert str(second) == "A contains non-finite entries"


def test_optimize_points_prepares_the_full_model_once(monkeypatch):
    # The full model's Schur form and Gramian term belong to the problem, not
    # to a pass: a whole H2 search, on a complex (ex3, passive) or a real (ex1,
    # right) state matrix, makes one Schur form of it and one Lyapunov solve,
    # on that form's pair.
    for label, make in (("ex3", _ex3_h2_problem), ("ex1", STACK_PROBLEMS["ex1-h2"])):
        problem = make()
        a = problem.state_matrix()
        solves, schurs, passes = [], [], []
        lyapunov_solve, schur = linalg.lyapunov_solve, linalg.schur
        h2_costs = selection.COST_FUNCTIONS["h2"]

        def counting_solve(t, u, q, solves=solves):
            solves.append(t)
            return lyapunov_solve(t, u, q)

        def counting_schur(m, schurs=schurs):
            schurs.append(m)
            return schur(m)

        def counting_costs(problem, candidates, passes=passes):
            passes.append(len(candidates))
            return h2_costs(problem, candidates)

        monkeypatch.setattr(linalg, "lyapunov_solve", counting_solve)
        monkeypatch.setattr(linalg, "schur", counting_schur)
        monkeypatch.setitem(selection.COST_FUNCTIONS, "h2", counting_costs)
        optimize_points(problem)
        monkeypatch.undo()
        assert len(passes) > 1, label
        full_order = [m for m in schurs if np.array_equal(m, a)]
        assert len(full_order) == 1, label
        assert len(solves) == 1 and solves[0] is problem.full_model.t, label


def test_error_report_and_hinf_search_factor_the_full_model_once(monkeypatch):
    # One prepared model serves the angle bounds and the H-infinity search:
    # one Schur form of the full state matrix, and no Gramian at all.
    system = cases.optomechanical_system()
    a = system.state_space()[0]
    result = reduce_right(system, cases.ex1_interpolation_data())
    runs = {
        "error_report": lambda: analysis.error_report(system, result),
        "hinf search": lambda: optimize_points(SCAN_PROBLEMS["ex1-right-hinf"]()),
    }
    for label, run in runs.items():
        calls = {"schur": [], "lyapunov_solve": []}
        for name, found in calls.items():
            def counting(m, *args, original=getattr(linalg, name), found=found):
                found.append(m)
                return original(m, *args)

            monkeypatch.setattr(linalg, name, counting)
        run()
        monkeypatch.undo()
        full_order = [m for m in calls["schur"] if np.array_equal(m, a)]
        assert (len(full_order), len(calls["lyapunov_solve"])) == (1, 0), label


@pytest.mark.parametrize("name", ["ex1", "ex3"])
def test_example_factors_the_full_model_once(monkeypatch, name):
    # One prepared model serves an example's error report, its costs and its
    # search: one Schur form of the full state matrix, and every row passes.
    system = {"ex1": cases.optomechanical_system, "ex3": cases.cascaded_cavity_system}[name]()
    a = system.state_space()[0]
    schurs, schur = [], linalg.schur
    monkeypatch.setattr(linalg, "schur", lambda m: schurs.append(m) or schur(m))
    outcome = cases.run_example(name)
    assert outcome.all_passed, outcome.table()
    assert [m.shape for m in schurs if np.array_equal(m, a)] == [a.shape]


def test_undefined_gramian_fails_only_an_h2_problem():
    # A Hurwitz full model with a pole pair summing to zero: an H2 problem
    # fails once, naming the full model; an H-infinity one never computes
    # the Gramian, so the same model has a finite H-infinity cost.
    _, g, h, k = systems.random_realizable_annihilation(3, 2, 2, 0).state_space()
    f = np.diag([-1e-20, -1.0, -2.0]).astype(complex)
    system = systems.AnnihilationSystem(F=f, G=g, H=h, K=k)
    directions = np.array([[1.0, 0.0], [1.0, 0.0]])
    problem = SelectionProblem(system, "passive", 2, directions, omega_bounds=(0.1, 100.0))
    message = "^full model: " + linalg.POLE_PAIR + "$"
    with pytest.raises(StabilityError, match=message):
        optimize_points(replace(problem, cost="h2"))
    with pytest.raises(StabilityError, match=message):
        cost_h2(replace(problem, cost="h2"), [1.0])
    assert math.isfinite(cost_hinf(problem, [1.0]))
    assert "full_term" not in vars(problem.full_model)


def test_scan_resolvents_come_from_one_stacked_solve(monkeypatch):
    shapes = _counting(monkeypatch, "solve")
    chosen = optimize_points(_ex3_h2_problem())
    n = cases.cascaded_cavity_system().n_modes
    assert shapes[0] == (selection.SCAN_POINTS_1D, 3, n, n)
    # The window keeps every poll point of this search, so each pass of the
    # tied refinement is 2 * POLL_RATIO consecutive rows.
    scan = [tuple(row["omegas"]) for row in chosen.trace if row["phase"] == "scan"]
    refine = [tuple(row["omegas"]) for row in chosen.trace if row["phase"] == "refine"]
    width = 2 * selection.POLL_RATIO
    assert refine and len(refine) % width == 0
    seen, fresh = set(scan), []
    for start in range(0, len(refine), width):
        poll = refine[start : start + width]
        new = [key for key in poll if key not in seen]
        seen.update(poll)
        if new:
            fresh.append(new)
    # Each pass with a fresh candidate is one stacked solve of exactly those
    # candidates, so each distinct candidate is solved once.
    resolvents = [shape for shape in shapes if len(shape) == 4]
    assert resolvents[1:] == [(len(new), 3, n, n) for new in fresh]
    assert sum(shape[0] for shape in resolvents) == len(set(scan + refine)) < len(scan + refine)
    # The other solves are the H2 cost's stacked Gramian blocks, per pass: the
    # n rows of the Sylvester block, order r, then the Kronecker system of
    # the reduced Gramian, order r^2.
    gramians = [shape[1:] for shape in shapes if len(shape) == 3]
    assert gramians == ([(3, 3)] * n + [(9, 9)]) * len(resolvents)


@pytest.mark.parametrize("label", ["ex3-passive-h2", "ex1-right-hinf-untied"])
def test_scan_blocks_leave_the_trace_unchanged(monkeypatch, label):
    # A working-memory budget of seven candidates splits the lattice into
    # passes of seven; no trace row may move at the block boundaries.
    problem = SCAN_PROBLEMS[label]()
    whole = optimize_points(problem).trace
    n = problem.state_matrix().shape[0]
    k = problem.expand_points(whole[0]["omegas"]).size
    monkeypatch.setattr(linalg, "SCAN_BLOCK_BYTES", 7 * (2 * k + 1) * n * n * 16)
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


def test_outer_ring_winner_keeps_the_step(monkeypatch):
    # A separable quadratic in log-frequency whose minimum lies off the
    # lattice: passes whose strictly cheaper winner is on the outer ring
    # (|k| = POLL_RATIO) move x and poll again at the same step h.
    problem = SelectionProblem(
        cases.optomechanical_system(),
        "right",
        2,
        cases.ex1_interpolation_data().directions,
        omega_bounds=(1e3, 1e6),
        cost="h2",
        tie_omegas=False,
    )
    h = 3.0 / (selection.SCAN_POINTS_ND - 1)
    target = np.array([3 + 5.4 * h, 3 + 9.45 * h])
    monkeypatch.setitem(
        selection.COST_FUNCTIONS,
        "h2",
        lambda problem, candidates: list(((np.log10(candidates) - target) ** 2).sum(axis=1)),
    )
    trace = optimize_points(problem).trace
    refine = np.log10([row["omegas"] for row in trace if row["phase"] == "refine"])
    costs = [row["cost"] for row in trace if row["phase"] == "refine"]
    # The minimum is inside the window, so every pass polls all 2 * 2 * POLL_RATIO points.
    size = 4 * selection.POLL_RATIO
    assert len(refine) % size == 0
    best = min(row["cost"] for row in trace if row["phase"] == "scan")
    ring_moves, pending = 0, None  # pending: the step and winner of a move to the ring
    for start in range(0, len(refine), size):
        poll, values = refine[start : start + size], costs[start : start + size]
        centre = poll.mean(axis=0)
        step = np.abs(poll - centre).max()
        if pending is not None:
            ring_moves += 1
            assert step == pytest.approx(pending[0], rel=1e-9)
            assert centre == pytest.approx(pending[1], rel=1e-12)
        j = int(np.argmin(values))
        on_ring = np.isclose(np.abs(poll[j] - centre).max(), step, rtol=1e-9)
        pending = (step, poll[j]) if values[j] < best and on_ring else None
        best = min(best, values[j])
    assert ring_moves >= 1
