"""Acceptance suite: every criterion printed as one pass/fail line.

The reduced-pole reference of the passive cascade case (criterion 4b) is
the root set of the exact characteristic polynomial of its Galerkin
compression; the published pole table lies outside the field of values of
the state matrix (real parts in [-5e6, 0]), which bounds the eigenvalues of
every orthonormal compression, so it cannot serve as that reference.
"""

import math
import time

import numpy as np

from conftest import (
    interpolation_passes,
    largest_principal_angle,
    make_passive_data,
    make_quadrature_data,
)
from qmor import analysis, cases, linalg, selection, systems
from qmor.reduction import (
    InterpolationData,
    ReductionResult,
    passive_stability_certificate,
    reduce_left,
    reduce_passive,
    reduce_right,
)


def _report(criterion, passed, detail=""):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    return passed


def test_criterion_01_optomech_reproduction():
    started = time.monotonic()
    outcome = cases.run_ex1()
    elapsed = time.monotonic() - started
    ok = outcome.all_passed and elapsed < 60.0
    detail = (
        f"{sum(r.passed for r in outcome.checks)}/{len(outcome.checks)} checks, "
        f"{elapsed:.1f}s"
    )
    assert _report(
        "1. optomechanical case: poles, error 2.00, bounds 2.45 / 3.96e3", ok, detail
    ), outcome.table()


def test_criterion_02_optomech_point_selection():
    system = cases.optomechanical_system()
    data = cases.ex1_interpolation_data()
    problem = selection.SelectionProblem(
        system=system,
        side="right",
        r=2,
        directions=data.directions,
        omega_bounds=cases.EX1_REFERENCE["selection_bounds"],
        cost="hinf",
        tie_omegas=True,
    )
    chosen = selection.optimize_points(problem)
    ref = cases.EX1_REFERENCE["omega"]
    ref_cost = selection.cost_hinf(problem, [ref])
    within = abs(chosen.omegas[0] - ref) <= 0.10 * ref
    no_worse = chosen.cost <= ref_cost * (1 + 1e-3)
    ok = within or no_worse
    assert _report(
        "2. optomechanical case: selected frequency near 1.05e4",
        ok,
        f"omega {chosen.omegas[0]:.4e}, cost {chosen.cost:.8f} vs {ref_cost:.8f}",
    )


def test_criterion_03_controller_reproduction():
    outcome = cases.run_ex2()
    names = {r.name: r.passed for r in outcome.checks}
    ok = (
        names["reduced controller poles"]
        and names["reduced loop is stable"]
        and names["reduced-loop poles"]
    )
    assert _report(
        "3. controller case: reduced poles, stable loop, ten loop poles",
        ok,
        f"{sum(r.passed for r in outcome.checks)}/{len(outcome.checks)} checks",
    ), outcome.table()


def test_criterion_04_cascade_reproduction():
    outcome = cases.run_ex3()
    names = {r.name: r.passed for r in outcome.checks}
    keep = [
        "worst-case error",
        "error within the passive ceiling",
        "error bound (left form)",
        "error bound (right form)",
        "sup-error cost flat at 2.00 across a decade",
        "reduced model stable",
    ]
    ok = all(names[k] for k in keep)
    assert _report(
        "4. cascade case: error 2.00, bounds 2.92/2.92, flat sup-error cost",
        ok,
        f"{sum(names[k] for k in keep)}/{len(keep)} sub-checks",
    ), outcome.table()


def test_criterion_04_cascade_recorded_poles():
    # The reference is derived in exact arithmetic (see cases.EX3_REFERENCE):
    # the Ritz values of F on the left interpolation subspace are the roots
    # of this monic characteristic polynomial.
    char_poly = [
        1.0,
        442983015e6 / 88612603,
        745573025e12 / 88612603,
        149114605e18 / 88612603,
    ]
    reference = np.asarray(cases.EX3_REFERENCE["reduced_poles"], dtype=complex)
    literal_gap, literals_ok = cases.match_bidirectional(
        reference, np.roots(char_poly), 1e-9, relative=True
    )
    assert literals_ok, literal_gap

    system = cases.cascaded_cavity_system()
    result = reduce_passive(system, cases.ex3_interpolation_data(), pr_tol=1e-8)
    poles = np.asarray(result.diagnostics.poles)

    # Field of values: Re(x^H F x) lies in the spectrum range of the Hermitian
    # part, so every compression pole does too.  The published pole table
    # (below) has real parts outside that range.
    hermitian = np.linalg.eigvalsh((system.F + system.F.conj().T) / 2)
    slack = 1e-12 * np.abs(hermitian).max()
    lo, hi = hermitian.min() - slack, hermitian.max() + slack
    assert np.all((poles.real >= lo) & (poles.real <= hi)), (poles, lo, hi)
    published = np.array([-5.1541e5, (-1.0780 + 0.8142j) * 1e7, (-1.0780 - 0.8142j) * 1e7])
    assert not np.all((published.real >= lo) & (published.real <= hi))

    worst, ok = cases.match_bidirectional(
        poles,
        cases.EX3_REFERENCE["reduced_poles"],
        0.01,
        relative=True,
    )
    assert _report(
        "4b. cascade case: reduced poles at the derived locations",
        ok,
        f"worst relative gap {worst:.3f}",
    )


def test_criterion_05_structure_preservation():
    started = time.monotonic()
    failures = []
    for seed in range(50):
        sys_q = systems.random_realizable_quadrature(3, 2, 1, seed)
        for side, reducer in (("left", reduce_left), ("right", reduce_right)):
            diag = reducer(sys_q, make_quadrature_data(sys_q, side, seed)).diagnostics
            if not (
                diag.realizability.max_residual <= 1e-8
                and interpolation_passes(diag)
                and diag.biorthogonality <= 1e-9
            ):
                failures.append((seed, side))
        sys_a = systems.random_realizable_annihilation(4, 2, 2, seed)
        diag = reduce_passive(sys_a, make_passive_data(sys_a, seed)).diagnostics
        if not (
            diag.realizability.max_residual <= 1e-8
            and interpolation_passes(diag)
            and diag.biorthogonality <= 1e-9
        ):
            failures.append((seed, "passive"))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 50.0
    assert _report(
        "5. structure preservation on 50 seeds (left/right/passive)",
        ok,
        f"failures {failures}, {elapsed:.1f}s total",
    )


def test_criterion_06_error_identities():
    worst_gap = 0.0
    worst_idem = 0.0
    for seed in range(50):
        sys_q = systems.random_realizable_quadrature(3, 2, 1, seed)
        result = reduce_right(sys_q, make_quadrature_data(sys_q, "right", seed))
        eigs = np.concatenate(
            [np.linalg.eigvals(sys_q.A), np.linalg.eigvals(result.reduced.A)]
        )
        rng = np.random.default_rng(seed + 60_000)
        drawn = 0
        while drawn < 10:
            s = 3 * rng.standard_normal() + 3j * rng.standard_normal()
            if np.abs(eigs - s).min() < 0.3:
                continue
            drawn += 1
            ee = analysis.error_exact(sys_q, result, s)
            scale = max(ee.direct, 1e-12)
            worst_gap = max(
                worst_gap,
                abs(ee.direct - ee.via_q) / scale,
                abs(ee.direct - ee.via_r) / scale,
            )
            worst_idem = max(worst_idem, ee.q_idempotency, ee.r_idempotency)
    ok = worst_gap <= 1e-8 and worst_idem <= 1e-8
    assert _report(
        "6. three exact error expressions agree; projectors idempotent",
        ok,
        f"worst agreement {worst_gap:.2e}, worst idempotency {worst_idem:.2e}",
    )


def test_criterion_07_bound_domination(stable_cases_20):
    violations = 0
    worst_angle_gap = 0.0
    for quad, _, result in stable_cases_20:
        grid = analysis.default_grid(quad.A, result.reduced.A, count=600)
        est = analysis.hinf_error(quad, result, grid=grid)
        left = analysis.hinf_bound_left(quad, result, grid=grid)
        right = analysis.hinf_bound_right(quad, result, grid=grid)
        if not (left >= est.value - 1e-9 and right >= est.value - 1e-9):
            violations += 1
    rng = np.random.default_rng(70_000)
    for _ in range(20):
        x = linalg.orthonormal_range(
            rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
        )
        y = linalg.orthonormal_range(
            rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
        )
        gap = linalg.spectral_norm(x @ x.conj().T - y @ y.conj().T)
        secant = 1.0 / math.sqrt(1.0 - gap**2)
        independent = 1.0 / math.cos(largest_principal_angle(x, y))
        worst_angle_gap = max(worst_angle_gap, abs(secant - independent) / independent)
    ok = violations == 0 and worst_angle_gap <= 1e-8
    assert _report(
        "7. both bounds dominate the error estimate; angle identity",
        ok,
        f"{violations} violations over 20 stable reductions, "
        f"angle gap {worst_angle_gap:.2e}",
    )


def test_criterion_08_passivity_suite():
    worst_gramian = 0.0
    worst_ceiling = 0.0
    unstable_generic = 0
    checked = 0
    seed = 500
    while checked < 50:
        sys_a = systems.random_realizable_annihilation(4, 2, 2, seed)
        seed += 1
        if not linalg.is_hurwitz(sys_a.F):
            continue
        checked += 1
        quad = systems.annihilation_to_quadrature(sys_a)
        gramian = analysis.prepare_model(quad).gramian
        worst_gramian = max(
            worst_gramian, np.linalg.norm(gramian - np.eye(gramian.shape[0]))
        )
        grid = analysis.default_grid(sys_a.F, count=300).frequencies()
        ceiling = max(
            linalg.spectral_norm(systems.transfer(sys_a, 1j * w)) for w in grid
        )
        worst_ceiling = max(worst_ceiling, ceiling - 1.0)
        result = reduce_passive(sys_a, make_passive_data(sys_a, seed))
        if not passive_stability_certificate(result, sys_a.G).stable:
            unstable_generic += 1

    # Engineered counterexample: an unreachable lossless mode.
    lossless = systems.AnnihilationSystem(
        F=np.diag([-0.5, 2.0j]), G=[[1.0], [0.0]], H=[[-1.0, 0.0]], K=[[1.0]]
    )
    data = InterpolationData(
        side="left", points=[1.0, 2.0], directions=np.array([[1.0], [1.0]])
    )
    synthetic = ReductionResult(
        w=np.eye(2, dtype=complex),
        v=np.eye(2, dtype=complex),
        reduced=lossless,
        data=data,
        diagnostics=None,
    )
    cert = passive_stability_certificate(synthetic, np.array([[1.0], [0.0]]))
    counterexample_flagged = (not cert.stable) and cert.condition_values.min() <= cert.threshold

    ok = (
        worst_gramian <= 1e-8
        and worst_ceiling <= 1e-9
        and unstable_generic == 0
        and counterexample_flagged
    )
    assert _report(
        "8. passivity: Gramian identity, bounded-real ceiling, certificates",
        ok,
        f"gramian dev {worst_gramian:.2e}, ceiling excess {worst_ceiling:.2e}, "
        f"{unstable_generic} unstable generic reductions, "
        f"counterexample flagged: {counterexample_flagged}",
    )


def test_criterion_09_dual_construction(stable_cases_20):
    worst = 0.0
    for quad, data, result in stable_cases_20:
        problem = selection.SelectionProblem(
            system=quad,
            side="right",
            r=2,
            directions=data.directions,
            tie_omegas=False,
        )
        omegas = [data.points[0].imag, data.points[2].imag]
        cost = selection.cost_hinf(problem, omegas)
        est = analysis.hinf_error(quad, result)
        worst = max(worst, abs(cost - est.value) / est.value)
    ok = worst <= 1e-6
    assert _report(
        "9. complex-basis cost equals real-basis reduction error",
        ok,
        f"worst relative gap {worst:.2e} over 20 seeds",
    )


def test_criterion_10_h2_dual_method(stable_cases_20):
    worst = 0.0
    for quad, _, result in stable_cases_20:
        by_quadrature = analysis.h2_error_quadrature(quad, result)
        by_gramian = analysis.h2_error_gramian(quad, result)
        worst = max(worst, abs(by_quadrature - by_gramian) / by_gramian)
    ok = worst <= 0.01
    assert _report(
        "10. frequency-integrated cost matches the Lyapunov identity",
        ok,
        f"worst relative gap {worst:.2e} over 20 seeds",
    )
