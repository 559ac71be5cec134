import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    largest_principal_angle,
    make_passive_data,
    make_quadrature_data,
    stable_reduction_cases,
)
from qmor import analysis, cases, linalg, systems
from qmor.errors import QmorError, SingularMatrixError, StabilityError
from qmor.reduction import InterpolationData, ReductionResult, reduce_passive, reduce_right
from qmor.selection import conjugate_pair_points


def _full_order_reduction(seed=5, stable=False):
    if stable:
        sys_q = systems.annihilation_to_quadrature(
            systems.random_realizable_annihilation(2, 2, 2, seed)
        )
    else:
        sys_q = systems.random_realizable_quadrature(2, 2, 2, seed)
    data = InterpolationData(
        side="right",
        points=conjugate_pair_points([1.0, 2.0]),
        directions=np.array([[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0]]),
    )
    return sys_q, reduce_right(sys_q, data)


def test_error_exact_full_order_vanishes():
    sys_q, result = _full_order_reduction()
    ee = analysis.error_exact(sys_q, result, 0.3 + 1.1j)
    assert ee.direct <= 1e-9
    assert ee.via_q <= 1e-9
    assert ee.via_r <= 1e-9


def test_error_exact_tangential_component_only():
    # At an interpolation point the tangential error vanishes while the full
    # matrix error stays finite.
    sys_q = cases.optomechanical_system()
    data = cases.ex1_interpolation_data()
    result = reduce_right(sys_q, data)
    sigma = data.points[2]
    nu = data.directions[2]
    full_gap = analysis.error_exact(sys_q, result, sigma).direct
    tangential = np.linalg.norm(
        (systems.transfer(sys_q, sigma) - systems.transfer(result.reduced, sigma)) @ nu
    )
    reference = np.linalg.norm(systems.transfer(sys_q, sigma) @ nu)
    assert tangential <= 1e-8 * max(reference, 1e-6)
    assert full_gap > 0.1


def test_error_exact_triple_agreement():
    for seed in range(10):
        sys_q = systems.random_realizable_quadrature(3, 2, 1, seed)
        result = reduce_right(sys_q, make_quadrature_data(sys_q, "right", seed))
        eigs = np.concatenate(
            [np.linalg.eigvals(sys_q.A), np.linalg.eigvals(result.reduced.A)]
        )
        rng = np.random.default_rng(seed + 600)
        drawn = 0
        while drawn < 10:
            s = 3 * rng.standard_normal() + 3j * rng.standard_normal()
            if np.abs(eigs - s).min() < 0.3:
                continue
            drawn += 1
            ee = analysis.error_exact(sys_q, result, s)
            scale = max(ee.direct, 1e-12)
            assert abs(ee.direct - ee.via_q) <= 1e-8 * scale
            assert abs(ee.direct - ee.via_r) <= 1e-8 * scale
            assert ee.q_idempotency <= 1e-8
            assert ee.r_idempotency <= 1e-8


def test_error_exact_pole_raises_singular_matrix_error():
    # s I - J is exactly singular at s = i, a pole of both models here.
    resonant = systems.QuadratureSystem(
        A=systems.symplectic_form(1), B=np.eye(2), C=np.eye(2), D=np.eye(2)
    )
    damped = systems.QuadratureSystem(A=-np.eye(2), B=np.eye(2), C=np.eye(2), D=np.eye(2))
    data = InterpolationData("right", [2j, -2j], [[1.0, 0.0], [1.0, 0.0]])
    result = ReductionResult(np.eye(2), np.eye(2), resonant, data, None)
    for full in (resonant, damped):
        with pytest.raises(SingularMatrixError, match="resolvent at s = 1j"):
            analysis.error_exact(full, result, 1j)


def test_hinf_error_full_order_zero():
    sys_q, result = _full_order_reduction(seed=8, stable=True)
    est = analysis.hinf_error(sys_q, result)
    assert est.value <= 1e-9


def test_hinf_error_optomech_value():
    sys_q = cases.optomechanical_system()
    result = reduce_right(sys_q, cases.ex1_interpolation_data())
    est = analysis.hinf_error(sys_q, result)
    assert est.value == pytest.approx(2.00, rel=0.02)


def test_hinf_error_cascade_value_and_ceiling():
    sys_a = cases.cascaded_cavity_system()
    result = reduce_passive(sys_a, cases.ex3_interpolation_data(), pr_tol=1e-8)
    est = analysis.hinf_error(sys_a, result)
    assert est.value == pytest.approx(2.00, rel=0.02)
    assert est.value <= 2.0 + 1e-6


def test_hinf_error_rejects_unstable():
    sys_q = systems.QuadratureSystem(
        A=np.diag([1.0, -1.0]), B=np.eye(2), C=np.eye(2), D=np.eye(2)
    )
    _, result = _full_order_reduction()
    with pytest.raises(StabilityError):
        analysis.hinf_error(sys_q, result)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    form=st.sampled_from(["quadrature", "annihilation"]),
    n=st.integers(1, 6),
    m=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_hinf_norm_certified_against_refined_grid(form, n, m, seed):
    # random_realizable_quadrature is Hurwitz in few draws, so the real form
    # is the quadrature conversion of a random annihilation-form system.
    passive = systems.random_realizable_annihilation(n, m, 1, seed)
    if form == "quadrature":
        quad = systems.annihilation_to_quadrature(passive)
        a, b, c = quad.A, quad.B, quad.C
    else:
        a, b, c = passive.F, passive.G, passive.H

    def curve(w):
        return np.linalg.norm(c @ analysis.sweep(a, b, 1j * np.asarray(w)), 2, axis=(1, 2))

    omegas = analysis.default_grid(a).frequencies()
    oracle = analysis.grid_suprema(lambda _, w: curve(w), omegas, [curve(omegas)])[0][0]
    norm = analysis.hinf_norm(a, b, c)
    assert norm.upper >= oracle
    assert abs(norm.value - oracle) <= 1e-6 * oracle
    assert curve([norm.peak_omega])[0] == pytest.approx(norm.value, rel=1e-12)
    assert norm.upper <= (1.0 + 2.0 * analysis.LEVEL_SET_TOL) * norm.value * (1.0 + 1e-15)


def test_hinf_norm_iteration_cap_raises(monkeypatch):
    system = cases.cascaded_cavity_system()
    result = reduce_passive(system, cases.ex3_interpolation_data(), pr_tol=1e-8)
    error = analysis.error_system(system, result)
    steps = analysis.hinf_norm(*error).iterations
    assert steps >= 2
    monkeypatch.setattr(analysis, "MAX_LEVEL_SET_ITERATIONS", steps - 1)
    with pytest.raises(QmorError, match=f"did not converge in {steps - 1} steps"):
        analysis.hinf_norm(*error)


def test_hinf_norm_pole_on_axis_is_inf():
    norm = analysis.hinf_norm(systems.symplectic_form(1), np.eye(2), np.eye(2))
    assert norm.value == norm.upper == math.inf
    assert norm.peak_omega == 1.0


def test_hinf_error_rejects_feedthrough_difference():
    sys_q, result = _full_order_reduction(seed=8, stable=True)
    shifted = (*analysis._abcd(result.reduced)[:3], result.reduced.D + 0.1)
    with pytest.raises(StabilityError, match="feedthrough"):
        analysis.hinf_error(sys_q, shifted)


def test_bounds_full_order_zero():
    sys_q, result = _full_order_reduction(seed=8, stable=True)
    grid = analysis.default_grid(sys_q.A, count=200)
    assert analysis.hinf_bound_left(sys_q, result, grid=grid) <= 1e-9
    assert analysis.hinf_bound_right(sys_q, result, grid=grid) <= 1e-9


def test_bounds_optomech_values():
    sys_q = cases.optomechanical_system()
    result = reduce_right(sys_q, cases.ex1_interpolation_data())
    assert analysis.hinf_bound_left(sys_q, result) == pytest.approx(2.45, rel=0.05)
    assert analysis.hinf_bound_right(sys_q, result) == pytest.approx(3.96e3, rel=0.10)


def _right_integrand_mpmath(mpmath, a, b, c, w, v, omega):
    """ex1 right-form integrand in 40 digits, straight from the projectors.

    ``sin(theta) = |P_perp - P_u|`` with ``P_u = I - G^H (G G^H)^-1 G`` for
    ``G = W^H (sI-A)``; at this precision ``1 - sin^2`` loses nothing that
    matters.
    """
    with mpmath.workdps(40):
        mat = lambda x: mpmath.matrix(x.astype(complex).tolist())  # noqa: E731
        a, b, c, w, v = (mat(x) for x in (a, b, c, w, v))
        eye = mpmath.eye(a.rows)
        shifted = 1j * mpmath.mpf(omega) * eye - a
        g = w.transpose_conj() * shifted
        p_u = eye - g.transpose_conj() * mpmath.inverse(g * g.transpose_conj()) * g
        p_perp = eye - v * mpmath.inverse(v.transpose_conj() * v) * v.transpose_conj()
        norm = lambda x: max(mpmath.svd_c(x, compute_uv=False))  # noqa: E731
        sin = norm(p_perp - p_u)
        t1 = norm(c * p_u)
        t2 = norm(p_perp * mpmath.inverse(shifted) * b)
        return float(t1 * t2 / mpmath.sqrt(1 - sin**2))


def test_angle_bound_right_integrand_matches_mpmath():
    # Near the ex1 right-bound peak cos(theta) is about 1e-3, where
    # 1 - |P_perp - P_u|^2 in double precision is off by 2.5e-9 relative.
    mpmath = pytest.importorskip("mpmath")
    sys_q = cases.optomechanical_system()
    result = reduce_right(sys_q, cases.ex1_interpolation_data())
    a, b, c = sys_q.A, sys_q.B, sys_q.C
    omegas = np.array([1e4, 10155.28, 2e4])
    f, _ = analysis._angle_terms(sys_q, [("right", result.w, result.v)])
    # A row of nine points takes the back-substitution, three single points the stacked solve.
    row = f(np.array([0]), np.tile(omegas, 3)[None])[0, :3]
    single = f(np.zeros(3, dtype=int), omegas)
    for values in (row, single):
        for omega, value in zip(omegas, values):
            expected = _right_integrand_mpmath(mpmath, a, b, c, result.w, result.v, omega)
            assert abs(value - expected) <= 1e-11 * expected


def test_angle_bound_degenerate_angle_is_inf():
    # ker(basis^H (sI-A)) = (sI-A)^-1 e1 = span(e1), orthogonal to U_perp = e2.
    eye = np.eye(2)
    e1, e2 = eye[:, :1], eye[:, 1:]
    f, _ = analysis._angle_terms((-eye, eye, eye, 0 * eye), [("right", e2, e1)])
    omegas = np.array([0.0, 1.0, 1e3])
    assert np.all(np.isposinf(f(np.array([0]), omegas[None])))
    assert all(np.isposinf(f(np.array([0]), np.array([w]))[0]) for w in omegas)


def test_bounds_passive_cascade_values():
    sys_a = cases.cascaded_cavity_system()
    result = reduce_passive(sys_a, cases.ex3_interpolation_data(), pr_tol=1e-8)
    left, right = analysis.hinf_bounds_passive(sys_a, result)
    assert left == pytest.approx(2.92, rel=0.05)
    assert right == pytest.approx(2.92, rel=0.05)


def test_bound_domination_sample():
    for quad, _, result in stable_reduction_cases(5):
        grid = analysis.default_grid(quad.A, result.reduced.A, count=400)
        est = analysis.hinf_error(quad, result, grid=grid)
        assert analysis.hinf_bound_left(quad, result, grid=grid) >= est.value - 1e-9
        assert analysis.hinf_bound_right(quad, result, grid=grid) >= est.value - 1e-9


def test_angle_identity_against_svd():
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = linalg.orthonormal_range(
            rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        )
        y = linalg.orthonormal_range(
            rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        )
        gap = linalg.spectral_norm(x @ x.conj().T - y @ y.conj().T)
        secant = 1.0 / math.sqrt(1.0 - gap**2)
        independent = 1.0 / math.cos(largest_principal_angle(x, y))
        assert secant == pytest.approx(independent, rel=1e-8)


def test_h2_scalar_analytic_value():
    # Integral of |1/(i w + 1)|^2 over the real line is pi.
    full = (np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]]))
    zero = (np.array([[-1.0]]), np.array([[0.0]]), np.array([[0.0]]), np.array([[0.0]]))
    value = analysis.h2_error_quadrature(full, zero)
    assert value == pytest.approx(math.pi, rel=0.01)


def test_h2_full_order_zero():
    sys_q, result = _full_order_reduction(seed=8, stable=True)
    assert analysis.h2_error_quadrature(sys_q, result) <= 1e-9


def test_h2_dual_method_sample():
    for quad, _, result in stable_reduction_cases(3):
        by_quadrature = analysis.h2_error_quadrature(quad, result)
        by_gramian = analysis.h2_error_gramian(quad, result)
        assert by_quadrature == pytest.approx(by_gramian, rel=0.01)


@pytest.mark.parametrize("omega", [1e5, 1.48e7])
def test_h2_quadrature_matches_gramian_ex3(omega):
    system = cases.cascaded_cavity_system()
    result = reduce_passive(system, cases.ex3_interpolation_data(omega))
    gramian = analysis.h2_error_gramian(system, result)
    assert analysis.h2_error_quadrature(system, result) == pytest.approx(gramian, rel=1e-9)


def _galerkin(system, basis):
    """The reduced ``(A_r, B_r, C_r, D)`` of ``system`` on an orthonormal ``basis``."""
    a, b, c, d = system.state_space()
    return basis.conj().T @ a @ basis, basis.conj().T @ b, c @ basis, d


@pytest.mark.parametrize("form", ["annihilation", "quadrature"])
def test_h2_error_gramians_match_the_error_system_norm(form):
    # Random realizable systems, reduced by Galerkin projections (stable: the
    # Hermitian part of A is negative semidefinite) to orders 1-8, so the
    # reduced Gramian's Kronecker system runs up to 64 x 64.
    rng = np.random.default_rng(7)
    for seed in range(3):
        modes = 9 if form == "annihilation" else 5
        full = systems.random_realizable_annihilation(modes, 2, 2, seed)
        if form == "quadrature":
            full = systems.annihilation_to_quadrature(full)
        n = full.state_space()[0].shape[0]
        for r in range(1, 9):
            basis = rng.standard_normal((n, r))
            if form == "annihilation":
                basis = basis + 1j * rng.standard_normal((n, r))
            reduced = _galerkin(full, np.linalg.qr(basis)[0])
            oracle = analysis.h2_norm(*analysis.error_system(full, reduced))
            assert analysis.h2_error_gramian(full, reduced) == pytest.approx(oracle, rel=1e-11)


def test_h2_error_gramians_rows_equal_their_stacks_of_one():
    full = systems.random_realizable_annihilation(6, 2, 2, 3)
    rng = np.random.default_rng(3)
    bases = [np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))[0]
             for _ in range(5)]
    models = [_galerkin(full, basis) for basis in bases]
    stacked = [np.stack(parts) for parts in zip(*(model[:3] for model in models))]
    rows = analysis.h2_error_gramians(full, stacked + [full.K])
    assert rows == [analysis.h2_error_gramian(full, model) for model in models]


@pytest.mark.parametrize("order", [2, 4], ids=["sylvester-rows", "kronecker"])
def test_h2_error_gramian_rejects_a_solve_off_its_residual(monkeypatch, order):
    # A Gramian block whose solve misses its equation by 1e-6 relative is
    # not a Gramian: the pair is infeasible, not a slightly wrong cost.
    full = systems.random_realizable_annihilation(4, 2, 2, 1)
    basis = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 2)) + 0j)[0]
    solve = linalg.solve

    def perturbed(m, b):
        x = solve(m, b)
        return x * (1 + 1e-6) if m.shape[-1] == order else x

    monkeypatch.setattr(linalg, "solve", perturbed)
    with pytest.raises(StabilityError, match=r"^Gramian residual \S+ exceeds 1e-8 of scale"):
        analysis.h2_error_gramian(full, _galerkin(full, basis))


def test_h2_error_gramian_rejects_a_pole_pair_on_the_axis():
    # A reduced pole at -1e-20 is Hurwitz, but its pair sums to zero to
    # working precision: the order n + r Lyapunov solve would be perturbed.
    full = systems.random_realizable_annihilation(3, 2, 2, 0)
    f, g, h, k = full.state_space()
    reduced = (np.diag([-1e-20, -1.0]).astype(complex), g[:2], h[:, :2], k)
    with pytest.raises(StabilityError, match="^" + linalg.POLE_PAIR + "$"):
        analysis.h2_error_gramian(full, reduced)
    with pytest.raises(StabilityError, match="^" + linalg.POLE_PAIR + "$"):
        analysis.h2_norm(*analysis.error_system(full, reduced))
    unstable = (np.diag([1e-3, -1.0]).astype(complex), g[:2], h[:, :2], k)
    with pytest.raises(StabilityError, match="^" + linalg.NOT_HURWITZ + "$"):
        analysis.h2_error_gramian(full, unstable)


def test_error_report_bounds_dominate_estimate():
    quad, _, result = stable_reduction_cases(1)[0]
    grid = analysis.default_grid(quad.A, result.reduced.A, count=400)
    report = analysis.error_report(quad, result, grid=grid)
    assert report.stable
    scale = max(report.hinf_error_estimate, 1.0)
    assert report.hinf_error_estimate <= min(
        report.hinf_bound_left, report.hinf_bound_right
    ) + 1e-9 * scale
    assert report.pointwise.shape[1] == 2


def test_error_report_unstable_notes():
    unstable = systems.QuadratureSystem(
        A=np.diag([0.5, -1.0]), B=np.eye(2), C=np.eye(2), D=np.eye(2)
    )
    from qmor.reduction import ReductionResult

    data = InterpolationData(
        side="right", points=[2.0, 3.0], directions=np.array([[1.0, 0], [0, 1.0]])
    )
    result = ReductionResult(
        w=np.eye(2), v=np.eye(2), reduced=unstable, data=data, diagnostics=None
    )
    report = analysis.error_report(unstable, result)
    assert not report.stable
    assert report.hinf_bound_left is None and report.hinf_bound_right is None
    assert report.notes


def test_error_report_pole_on_grid_frequency():
    # A = J has poles at +/- i, and omega = 1 lies on the grid: the error is
    # unbounded there, so the curve reads inf and the peak sits at the pole.
    full = systems.QuadratureSystem(
        A=systems.symplectic_form(1), B=np.eye(2), C=np.eye(2), D=np.eye(2)
    )
    from qmor.reduction import ReductionResult

    reduced = systems.QuadratureSystem(A=-np.eye(2), B=np.eye(2), C=np.eye(2), D=np.eye(2))
    data = InterpolationData(
        side="right", points=[2.0, 3.0], directions=np.array([[1.0, 0], [0, 1.0]])
    )
    result = ReductionResult(w=np.eye(2), v=np.eye(2), reduced=reduced, data=data, diagnostics=None)
    report = analysis.error_report(full, result, grid=analysis.GridSpec(0.1, 10.0, count=3))
    assert not report.stable
    assert report.hinf_error_estimate == math.inf
    assert report.peak_frequency == 1.0
    assert report.pointwise[:, 0].tolist() == [0.0, 0.1, 1.0, 10.0]
    assert np.isfinite(report.pointwise[[0, 1, 3], 1]).all()
    assert report.hinf_bound_left is None and report.notes


def test_error_report_eigensolves_error_system_once(monkeypatch):
    # The level-set norm's pole test is also the Hurwitz test of A_e, and of
    # the bounds: neither model's own state matrix is eigensolved again.
    system = cases.optomechanical_system()
    result = reduce_right(system, cases.ex1_interpolation_data())
    sizes = []
    eigvals = np.linalg.eigvals

    def counted(m):
        sizes.append(np.shape(m)[0])
        return eigvals(m)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    report = analysis.error_report(system, result, grid=analysis.GridSpec(1e3, 1e6, count=50))
    assert report.stable
    assert sizes.count(10) == 1
    assert sizes.count(6) == sizes.count(4) == 0
    sizes.clear()
    analysis.hinf_bound_left(system, result, grid=analysis.GridSpec(1e3, 1e6, count=50))
    assert sorted(sizes) == [4, 6]


def test_hinf_norm_breaks_a_near_tie_of_mirrored_peaks():
    # The ex3 error curve has flat tops at +/- 803422.58 rad/s that agree to
    # rounding, so which one holds the largest sample changes with the last
    # bit of the data.  The reported peak stays on the positive one; within
    # the flat top, whose samples tie to 1e-13, it moves by under 1e-9.
    system = cases.cascaded_cavity_system()
    data = cases.ex3_interpolation_data()
    peaks = []
    for k in range(-1, data.directions.size):
        directions = np.array(data.directions, dtype=complex)
        if k >= 0:
            entry = directions.flat[k]
            directions.flat[k] = complex(np.nextafter(entry.real, 2.0), entry.imag)
        result = reduce_passive(system, replace(data, directions=directions), pr_tol=1e-8)
        report = analysis.error_report(system, result)
        peak = report.peak_frequency
        gap = systems.transfer(system, 1j * peak) - systems.transfer(result.reduced, 1j * peak)
        assert linalg.spectral_norm(gap) >= (1 - 1e-13) * report.hinf_error_estimate
        peaks.append(peak)
    assert min(peaks) > 0
    assert max(peaks) - min(peaks) <= 1e-9 * min(peaks)


def test_frequency_response_feedthrough_only():
    sys_q = systems.QuadratureSystem(
        A=-np.eye(2), B=np.eye(2), C=np.zeros((2, 2)), D=np.diag([1.0, 2.0])
    )
    resp = analysis.frequency_response(sys_q, [0.1, 1.0, 10.0])
    for value in resp.values:
        assert np.allclose(value, np.diag([1.0, 2.0]))


def test_frequency_response_conjugate_symmetry():
    sys_q = systems.random_realizable_quadrature(2, 1, 1, 30)
    resp = analysis.frequency_response(sys_q, [-2.0, 2.0])
    assert np.allclose(resp.values[0], np.conj(resp.values[1]))


def test_frequency_response_skips_resonances():
    sys_q = systems.QuadratureSystem(
        A=systems.symplectic_form(1), B=np.eye(2), C=np.eye(2), D=np.eye(2)
    )
    resp = analysis.frequency_response(sys_q, [0.5, 1.0, 2.0])
    assert len(resp.skipped) == 1
    assert resp.skipped[0][0] == 1.0
    assert len(resp.omegas) == 2


def test_frequency_response_optomech_window():
    # Full and reduced magnitudes agree within 1 dB around the mechanical
    # resonance for the matched thermal-noise channels.
    sys_q = cases.optomechanical_system()
    result = reduce_right(sys_q, cases.ex1_interpolation_data())
    omegas = np.linspace(0.9e4, 1.1e4, 41)
    full = analysis.frequency_response(sys_q, omegas)
    red = analysis.frequency_response(result.reduced, omegas)
    for i, j in ((1, 2), (1, 5)):
        for vf, vr in zip(full.values, red.values):
            ratio_db = 20.0 * math.log10(abs(vf[i, j]) / abs(vr[i, j]))
            assert abs(ratio_db) <= 1.0


def test_h2_range_doubling_stability():
    quad, _, result = stable_reduction_cases(1)[0]
    eigs = np.concatenate(
        [np.linalg.eigvals(quad.A), np.linalg.eigvals(result.reduced.A)]
    )
    w_max = 1e2 * np.abs(eigs).max()
    base = analysis.h2_error_quadrature(quad, result, w_max=w_max)
    doubled = analysis.h2_error_quadrature(quad, result, w_max=2 * w_max)
    assert abs(doubled - base) <= 0.005 * base


def test_bounds_passive_full_order_zero():
    sys_a = systems.random_realizable_annihilation(3, 2, 2, 14)
    data = make_passive_data(sys_a, 14, r=3)
    result = reduce_passive(sys_a, data)
    grid = analysis.default_grid(sys_a.F, count=200)
    left, right = analysis.hinf_bounds_passive(sys_a, result, grid=grid)
    assert left <= 1e-9 and right <= 1e-9


def test_error_surface_full_order_vanishes():
    sys_q, result = _full_order_reduction(seed=8, stable=True)
    re_pts = np.array([0.5, 1.0])
    im_pts = np.array([-2.0, 0.0, 2.0])
    _, _, values = analysis.error_surface(sys_q, result, re_pts, im_pts)
    assert values.shape == (3, 2)
    assert values.max() <= 1e-9


def test_error_surface_marks_singular_points():
    # A rotation generator has poles exactly at +/- i, where the shifted
    # matrix is singular in exact float arithmetic.
    lossless = systems.QuadratureSystem(
        A=systems.symplectic_form(1), B=np.eye(2), C=np.eye(2), D=np.eye(2)
    )
    from qmor.reduction import ReductionResult

    data = InterpolationData(
        side="right", points=[2.0, 3.0], directions=np.array([[1.0, 0], [0, 1.0]])
    )
    self_result = ReductionResult(
        w=np.eye(2), v=np.eye(2), reduced=lossless, data=data, diagnostics=None
    )
    _, _, values = analysis.error_surface(
        lossless, self_result, np.array([0.0]), np.array([1.0, 0.5])
    )
    assert np.isnan(values[0, 0])
    assert values[1, 0] <= 1e-12


def test_error_surface_matches_direct_evaluation():
    sys_q = cases.optomechanical_system()
    result = reduce_right(sys_q, cases.ex1_interpolation_data())
    re_pts = np.array([-100.0, 0.0])
    im_pts = np.array([9.5e3])
    _, _, values = analysis.error_surface(sys_q, result, re_pts, im_pts)
    s = complex(-100.0, 9.5e3)
    direct = np.linalg.norm(
        systems.transfer(sys_q, s) - systems.transfer(result.reduced, s), 2
    )
    assert values[0, 0] == pytest.approx(direct, rel=1e-12)
