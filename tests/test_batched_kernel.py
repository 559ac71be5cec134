"""Parity of the batched frequency kernel with a per-point scalar oracle.

The oracle below solves one resolvent per frequency, evaluates the angle-bound
integrands with per-point kernel bases, and refines the grid maxima one at a
time with scipy's bounded Brent search, ``minimize_scalar(method="bounded")``.
The batched error curves, the angle-bound integrand on every grid point and
the angle bounds in ``qmor.analysis`` must agree with it to 1e-12 relative,
and a sequential golden-section refinement must reach the same bounds to
1e-9 relative.  The integrand is evaluated in Schur coordinates, by
back-substitution over a whole grid row and by one stacked solve at a few
points; the two forms must agree to 1e-12 relative too.  The level-set
H-infinity values must meet the certified gates against it: the upper value
is at least the oracle, the attained value is within ``CERTIFIED_REL`` of
it, and the error at the reported peak is that value.
"""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from conftest import (
    make_passive_data,
    make_quadrature_data,
    orthogonal_projector,
    stable_reduction_cases,
)
from qmor import analysis, cases, linalg, selection, systems
from qmor.reduction import (
    InterpolationData,
    ReductionResult,
    reduce_left,
    reduce_passive,
    reduce_right,
)

REL = 1e-12
CERTIFIED_REL = 1e-6
GOLDEN_REL = 1e-9
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


# --------------------------------------------------------------------------
# scalar oracle


def _matrices(obj):
    if isinstance(obj, systems.QuadratureSystem):
        return obj.A, obj.B, obj.C, obj.D
    if isinstance(obj, systems.AnnihilationSystem):
        return obj.F, obj.G, obj.H, obj.K
    return tuple(np.asarray(m) for m in obj)


def _resolvent(a, s, rhs):
    return np.linalg.solve(s * np.eye(a.shape[0]) - a, rhs)


def error_norm_oracle(full, reduced):
    """``omega -> |D + C (sI-A)^-1 B|`` of the error system, one point at a time."""
    a1, b1, c1, d1 = _matrices(full)
    a2, b2, c2, d2 = _matrices(reduced)
    a = scipy.linalg.block_diag(a1, a2)
    b, c = np.vstack([b1, b2]), np.hstack([c1, -c2])

    def norm(omega):
        return linalg.spectral_norm((d1 - d2) + c @ _resolvent(a, 1j * omega, b))

    return norm


def angle_bound_oracle(full, basis, perp, side):
    """One point of the principal-angle bound integrand, per-point kernel basis."""
    a, b, c, _ = _matrices(full)
    eye = np.eye(a.shape[0])
    p_perp = eye - orthogonal_projector(perp)
    u_perp = linalg.kernel_basis(perp.conj().T)

    def integrand(omega):
        shifted = 1j * omega * eye - a
        operator = shifted.conj().T if side == "left" else shifted
        kernel = linalg.kernel_basis(basis.conj().T @ operator)
        p_u = kernel @ kernel.conj().T
        # Cosine of the largest principal angle as a singular value (Bjorck & Golub):
        # 1 - |P_perp - P_u|^2 cancels near 90 degrees.
        cos = np.linalg.svd(u_perp.conj().T @ kernel, compute_uv=False).min()
        if cos <= 0.0:
            return math.inf
        if side == "left":
            t1 = linalg.spectral_norm(c @ np.linalg.solve(shifted, p_perp))
            t2 = linalg.spectral_norm(p_u @ b)
        else:
            t1 = linalg.spectral_norm(c @ p_u)
            t2 = linalg.spectral_norm(p_perp @ np.linalg.solve(shifted, b))
        return t1 * t2 / cos

    return integrand


def brent_max_oracle(f, a, b):
    """scipy's bounded Brent maximum on ``[a, b]``; also returns its number of evaluations."""
    xatol = analysis.REFINE_REL_WIDTH * max(1.0, abs(a), abs(b)) / 2
    res = scipy.optimize.minimize_scalar(
        lambda x: -f(x), bounds=(a, b), method="bounded", options={"xatol": xatol}
    )
    return -res.fun, res.x, res.nfev


def golden_max_oracle(f, a, b):
    """Sequential golden-section maximum, to a relative bracket width ``REFINE_REL_WIDTH``."""
    x1 = b - INV_PHI * (b - a)
    x2 = a + INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    evaluations = 2
    while (b - a) > analysis.REFINE_REL_WIDTH * max(1.0, abs(a), abs(b)):
        evaluations += 1
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + INV_PHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - INV_PHI * (b - a)
            f1 = f(x1)
    mid = (a + b) / 2
    return f(mid), mid, evaluations + 1


def supremum_oracle(f, omegas, top=3, maximize=brent_max_oracle):
    """Grid supremum refined around the best local maxima, one bracket at a time.

    Returns ``(value, omega, grid_values, evaluations per refined bracket)``.
    """
    values = np.array([f(w) for w in omegas])
    if np.any(np.isinf(values)):
        where = int(np.argmax(np.isinf(values)))
        return math.inf, float(omegas[where]), values, []
    n = values.size
    maxima = [
        i
        for i in range(n)
        if values[i] >= values[max(i - 1, 0)] and values[i] >= values[min(i + 1, n - 1)]
    ]
    maxima.sort(key=lambda i: (-values[i], omegas[i]))
    best = int(np.argmax(values))
    best_value, best_omega = float(values[best]), float(omegas[best])
    evaluations = []
    for i in maxima[:top]:
        lo, hi = omegas[max(i - 1, 0)], omegas[min(i + 1, n - 1)]
        if hi > lo:
            value, omega, count = maximize(f, lo, hi)
            evaluations.append(count)
        else:
            value, omega = values[i], omegas[i]
        if value > best_value or (value == best_value and omega < best_omega):
            best_value, best_omega = float(value), float(omega)
    return best_value, best_omega, values, evaluations


# --------------------------------------------------------------------------
# cases


def _ex1():
    system = cases.optomechanical_system()
    result = reduce_right(system, cases.ex1_interpolation_data())
    return "ex1", system, result, analysis.default_grid(system.A, result.reduced.A, count=300)


def _ex3():
    system = cases.cascaded_cavity_system()
    result = reduce_passive(system, cases.ex3_interpolation_data(), pr_tol=1e-8)
    return "ex3", system, result, analysis.default_grid(system.F, result.reduced.F, count=300)


def _stable(k):
    quad, _, result = stable_reduction_cases(3)[k]
    return f"stable{k}", quad, result, analysis.default_grid(quad.A, result.reduced.A, count=200)


REPORT_CASES = [_ex1, _ex3] + [lambda k=k: _stable(k) for k in range(3)]


def _close(actual, expected, rel=REL):
    return abs(actual - expected) <= rel * abs(expected)


def _assert_certified(value, peak, upper, oracle_value, error_at):
    """Certified gates of a level-set norm against the refined grid oracle."""
    assert upper >= oracle_value
    assert abs(value - oracle_value) <= CERTIFIED_REL * oracle_value
    assert _close(error_at(peak), value)


def _bound_terms(full, result):
    if isinstance(full, systems.AnnihilationSystem):
        return [("left", result.v, result.v), ("right", result.v, result.v)]
    return [("left", result.v, result.w), ("right", result.w, result.v)]


# --------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("build", REPORT_CASES, ids=["ex1", "ex3", "stable0", "stable1", "stable2"])
def test_error_report_matches_scalar_oracle(build):
    _, full, result, grid = build()
    omegas = grid.frequencies()
    report = analysis.error_report(full, result, grid=grid)

    norm_at = error_norm_oracle(full, result.reduced)
    value, _, curve, _ = supremum_oracle(norm_at, omegas)
    assert np.array_equal(report.pointwise[:, 0], omegas)
    assert np.all(np.abs(report.pointwise[:, 1] - curve) <= REL * np.abs(curve))
    estimate = report.hinf_error_estimate
    _assert_certified(estimate, report.peak_frequency, report.hinf_error_upper, value, norm_at)
    assert estimate >= curve.max()
    assert analysis.hinf_error(full, result, grid=grid).value == estimate

    bounds = (report.hinf_bound_left, report.hinf_bound_right)
    for (side, basis, perp), bound in zip(_bound_terms(full, result), bounds):
        # Cached: the golden-section pass reuses the grid values of the Brent pass.
        integrand = functools.lru_cache(maxsize=None)(angle_bound_oracle(full, basis, perp, side))
        assert _close(bound, supremum_oracle(integrand, omegas)[0])
        golden = supremum_oracle(integrand, omegas, maximize=golden_max_oracle)[0]
        assert _close(bound, golden, GOLDEN_REL)


def test_bounds_passive_matches_scalar_oracle():
    _, full, result, grid = _ex3()
    omegas = grid.frequencies()
    left, right = analysis.hinf_bounds_passive(full, result, grid=grid)
    expected = [
        supremum_oracle(angle_bound_oracle(full, result.v, result.v, side), omegas)[0]
        for side in ("left", "right")
    ]
    assert _close(left, expected[0])
    assert _close(right, expected[1])


def _cost_problems():
    problems = [
        (
            selection.SelectionProblem(
                system=cases.optomechanical_system(),
                side="right",
                r=2,
                directions=cases.ex1_interpolation_data().directions,
                omega_bounds=(1e3, 1e6),
            ),
            [1.05e4],
        ),
        (
            selection.SelectionProblem(
                system=cases.cascaded_cavity_system(),
                side="passive",
                r=3,
                directions=cases.ex3_interpolation_data().directions,
                template="symmetric_with_dc",
            ),
            [1.48e7],
        ),
    ]
    for quad, data, _ in stable_reduction_cases(3):
        problem = selection.SelectionProblem(
            system=quad, side="right", r=2, directions=data.directions, tie_omegas=False
        )
        problems.append((problem, [data.points[0].imag, data.points[2].imag]))
    return problems


def test_cost_hinf_matches_scalar_oracle():
    for problem, omegas in _cost_problems():
        points = problem.expand_points(omegas)
        full = problem.system.state_space()[:3]
        (a, b, c, _), (error,) = selection._reduced_models(problem, points[None])
        assert error is None
        reduced = a[0], b[0], c[0]
        zero = np.zeros((full[2].shape[0], full[1].shape[1]))
        spec = dataclasses.replace(
            analysis.default_grid(full[0], reduced[0]), two_sided=np.iscomplexobj(full[0])
        )
        norm_at = error_norm_oracle((*full, zero), (*reduced, zero))
        expected = supremum_oracle(norm_at, spec.frequencies())[0]
        error = analysis.error_system((*full, zero), (*reduced, zero))
        # The cost's poles: the full model's Schur diagonal and the reduced eigenvalues.
        poles = np.concatenate([problem.full_model.poles, linalg.eigenvalues(reduced[0])])
        norm = analysis.hinf_norm(*error, poles)
        assert selection.cost_hinf(problem, omegas) == norm.value
        _assert_certified(norm.value, norm.peak_omega, norm.upper, expected, norm_at)


def test_lockstep_refinement_matches_sequential_search():
    # A batched integrand with several close peaks; the scalar view calls the
    # same batched function, so every step of the bounded search is replayed.
    def f(w):
        w = np.asarray(w, dtype=float)
        return np.exp(-((w - 1.3) ** 2) / 0.02) + 0.999 * np.exp(-((w - 2.71) ** 2) / 0.5) + (
            0.7 / (1.0 + (w - 4.4) ** 2)
        )

    calls = []

    def counted(w):
        calls.append(np.asarray(w).size)
        return f(w)

    omegas = np.linspace(0.0, 6.0, 150)
    value, peak = analysis.grid_suprema(lambda _, w: counted(w), omegas, [f(omegas)])[0]
    expected_value, expected_peak, _, evaluations = supremum_oracle(
        lambda w: float(f([w])[0]), omegas
    )
    assert value == expected_value
    assert peak == expected_peak
    # One call per evaluation of the longest bracket search.
    assert len(calls) == max(evaluations)
    assert calls[0] == len(evaluations)


def test_stacked_terms_refine_in_one_lockstep_search():
    # Two terms with peaks in different places: each term's supremum is its
    # own sequential search, and one batched call per step serves both.
    shapes = [
        lambda w: np.exp(-((w - 1.3) ** 2) / 0.02) + 0.5 / (1.0 + (w - 4.4) ** 2),
        lambda w: 0.999 * np.exp(-((w - 2.71) ** 2) / 0.5) + 0.3 * np.cos(w) ** 2,
    ]
    calls = []

    def f(terms, w):
        calls.append(np.asarray(w).size)
        w = np.asarray(w, dtype=float)
        return np.where(np.asarray(terms) == 0, shapes[0](w), shapes[1](w))

    omegas = np.linspace(0.0, 6.0, 150)
    suprema = analysis.grid_suprema(f, omegas, [shape(omegas) for shape in shapes])
    evaluations = []
    for shape, (value, peak) in zip(shapes, suprema):
        expected_value, expected_peak, _, term_evaluations = supremum_oracle(
            lambda w: float(shape(np.array([w]))[0]), omegas
        )
        assert (value, peak) == (expected_value, expected_peak)
        evaluations += term_evaluations
    assert len(calls) == max(evaluations)
    assert calls[0] == len(evaluations)


def test_lockstep_brackets_match_the_bounded_search():
    # Every bracket's value and point equal scipy's sequential search, bit for
    # bit: smooth peaks (parabolic steps), kinks and plateaus (golden steps), a
    # maximum on the bracket's end and one far from 1 (the relative tolerance).
    shapes = [
        lambda w: np.exp(-((w - 1.3) ** 2) / 0.02) + 0.7 / (1.0 + (w - 4.4) ** 2),
        lambda w: np.abs(np.sin(3.0 * w)) + 0.1 * w,
        lambda w: w,
        lambda w: np.floor(5.0 * w),
        lambda w: 1.0 / (1.0 + ((w - 8.03e5) / 2e3) ** 2),
    ]

    def f(terms, w):
        return np.choose(terms, [shape(np.asarray(w, dtype=float)) for shape in shapes])

    terms = np.array([0, 0, 0, 1, 1, 2, 3, 4])
    lo = np.array([1.0, 2.5, 4.0, 0.1, 0.2, 1.0, 0.3, 7.9e5])
    hi = np.array([1.5, 2.9, 5.0, 1.1, 3.2, 3.0, 2.0, 8.1e5])
    values, points = analysis._lockstep_maxima(f, terms, lo, hi)
    for term, a, b, value, point in zip(terms, lo, hi, values, points):
        expected_value, expected_point, _ = brent_max_oracle(
            lambda w: float(shapes[term](np.array([w]))[0]), a, b
        )
        assert (value, point) == (expected_value, expected_point)


def test_lockstep_brackets_match_the_bounded_search_on_steps():
    # Rounded sines with a slope: ties and jumps reach the rarer branches of
    # the point bookkeeping.  Sixty searches of different lengths in one run.
    rng = np.random.default_rng(0)
    k = np.floor(rng.uniform(1.0, 6.0, 60))
    c, d, slope = rng.uniform(0.5, 20.0, 60), rng.uniform(0.0, 6.0, 60), rng.uniform(-0.2, 0.2, 60)

    def shape(t, w):
        return np.round(k[t] * np.sin(c[t] * w + d[t])) + slope[t] * w

    lo = rng.uniform(0.0, 2.0, 60)
    hi = lo + rng.uniform(0.1, 3.0, 60)
    terms = np.arange(60)
    values, points = analysis._lockstep_maxima(shape, terms, lo, hi)
    for t in terms:
        expected = brent_max_oracle(lambda w: float(shape(t, w)), lo[t], hi[t])
        assert (values[t], points[t]) == expected[:2]


def _count_integrand_calls(monkeypatch):
    """Record the number of points of every call of ``analysis._angle_integrand``.

    Refinement steps take ``analysis._angle_step``; its calls go in the same list.
    """
    calls = []
    for name in ("_angle_integrand", "_angle_step"):
        integrand = getattr(analysis, name)

        def counted(*args, integrand=integrand):
            calls.append(args[-1].size)
            return integrand(*args)

        monkeypatch.setattr(analysis, name, counted)
    return calls


def test_ex3_bound_refinement_takes_few_integrand_calls(monkeypatch):
    # One call evaluates both terms on the whole grid, and the refinement
    # takes 9 lockstep steps for both ex3 terms (25 with the golden-section
    # search it replaced).
    _, full, result, grid = _ex3()
    calls = _count_integrand_calls(monkeypatch)
    analysis.error_report(full, result, grid=grid)
    assert calls[0] == 2 * grid.frequencies().size
    assert len(calls) <= 1 + 9


def test_ex1_boundary_maximum_is_refined_on_a_mirrored_bracket(monkeypatch):
    # The ex1 left integrand is even in omega and peaks at the grid's first
    # point, omega = 0.  On [0, w1] the bounded search creeps toward that end
    # (33 steps) and ends within REL of the grid value; on [-w1, w1] it takes
    # 23 and reaches it.
    _, full, result, grid = _ex1()
    omegas = grid.frequencies()
    f, even = analysis._angle_terms(analysis.prepare_model(full), _bound_terms(full, result))
    exact = f(np.array([0]), omegas[None])[0]
    assert even and omegas[0] == 0.0 and np.argmax(exact) == 0
    steps, values = [], []
    for lo in (-omegas[1], 0.0):
        calls = []
        value, _ = analysis._lockstep_maxima(
            lambda t, w: calls.append(w.size) or f(t, w),
            np.array([0]), np.array([lo]), np.array([omegas[1]]),
        )
        steps.append(len(calls))
        values.append(value[0])
    mirrored, one_sided = steps
    assert mirrored <= 23 < one_sided
    assert values[0] >= exact[0]
    assert _close(values[1], exact[0])
    calls = _count_integrand_calls(monkeypatch)
    report = analysis.error_report(full, result, grid=grid)
    assert len(calls) <= 1 + mirrored
    assert report.hinf_bound_left >= exact[0]


def test_mirrored_bracket_reports_a_nonnegative_frequency():
    # An even integrand with peaks at +-0.03 and its grid maximum at 0: the
    # bracket [-0.1, 0.1] holds both peaks, and the search's point at -0.03
    # is reported as +0.03.
    def f(_, w):
        return np.exp(-((np.abs(np.asarray(w)) - 0.03) ** 2) / 0.001)

    omegas = np.linspace(0.0, 4.0, 41)
    _, point = analysis._lockstep_maxima(f, np.array([0]), np.array([-0.1]), np.array([0.1]))
    assert point[0] < 0.0
    ((value, peak),) = analysis.grid_suprema(f, omegas, [f(0, omegas)], even=True)
    assert abs(peak - 0.03) <= 1e-6 and value >= 1.0 - 1e-12


def _screen_cases():
    """``(label, full, result, grid)``: the report cases, ex2, and random reductions.

    The random ones are left and right reductions of quadrature systems of
    2 to 4 modes and passive reductions of the annihilation forms, kernels
    of 0 to 4 columns; not every one is Hurwitz, which the grid values do not need.
    The last, a passive 5-mode reduction to 2, has a kernel of 3 columns and
    2 outputs: ``|C U Q|`` takes the 2 x 2 closed form, the cosine the SVD.
    """
    built = [build() for build in REPORT_CASES]
    ex2 = cases.control_case_fixture()["quantum_controller"]
    result = reduce_right(ex2, cases.ex2_interpolation_data())
    built.append(("ex2", ex2, result, analysis.default_grid(ex2.A, result.reduced.A, count=200)))
    for seed in range(6):
        passive = systems.random_realizable_annihilation(2 + seed % 3, 2, 2, 400 + seed)
        quad = systems.annihilation_to_quadrature(passive)
        for side, reduce in (("left", reduce_left), ("right", reduce_right)):
            result = reduce(quad, make_quadrature_data(quad, side, seed))
            grid = analysis.default_grid(quad.A, result.reduced.A, count=200)
            built.append((f"{side}{seed}", quad, result, grid))
        result = reduce_passive(passive, make_passive_data(passive, seed))
        grid = analysis.default_grid(passive.F, result.reduced.F, count=200)
        built.append((f"passive{seed}", passive, result, grid))
    passive = systems.random_realizable_annihilation(5, 2, 2, 406)
    result = reduce_passive(passive, make_passive_data(passive, 406))
    grid = analysis.default_grid(passive.F, result.reduced.F, count=200)
    built.append(("passive-k3", passive, result, grid))
    return built


SCREEN_CASES = _screen_cases()
KERNEL_CASES = [case for case in SCREEN_CASES if case[2].v.shape[0] > case[2].v.shape[1]]


def _grid_values(f, n_terms, omegas):
    """Every term's integrand on the grid: one call, a row of points per term."""
    return f(np.arange(n_terms), np.broadcast_to(omegas, (n_terms, omegas.size)))


@pytest.mark.parametrize("case", KERNEL_CASES, ids=[case[0] for case in KERNEL_CASES])
def test_angle_grid_and_bounds_match_the_oracle(case):
    # Wherever a term reaches 1e-8 of its maximum, its grid value is within
    # REL of the per-point oracle, and it is infinite exactly where the
    # oracle's is; a stable report's bounds are within REL of the oracle's.
    _, full, result, grid = case
    omegas = grid.frequencies()
    terms = _bound_terms(full, result)
    f, _ = analysis._angle_terms(analysis.prepare_model(full), terms)
    report = analysis.error_report(full, result, grid=grid)
    bounds = (report.hinf_bound_left, report.hinf_bound_right)
    for (side, basis, perp), values, bound in zip(terms, _grid_values(f, 2, omegas), bounds):
        integrand = functools.lru_cache(maxsize=None)(angle_bound_oracle(full, basis, perp, side))
        expected = np.array([integrand(w) for w in omegas])
        assert np.array_equal(np.isinf(values), np.isinf(expected))
        finite = np.isfinite(expected)
        shown = finite & (expected > 1e-8 * expected[finite].max())
        assert np.all(np.abs(values[shown] - expected[shown]) <= REL * expected[shown])
        if report.stable:
            assert _close(bound, supremum_oracle(integrand, omegas)[0])


@pytest.mark.parametrize("case", SCREEN_CASES, ids=[case[0] for case in SCREEN_CASES])
def test_screened_grid_matches_the_integrand(case):
    # The grid values that screen each term for its brackets come from the
    # back-substitution over a whole row of points; the refinement's calls,
    # at most FEW_POINTS points, from one stacked solve.  Wherever a
    # term reaches 1e-8 of its maximum the two are within REL, an infinite
    # value is infinite in both, and a full-order term reads 0 in both.
    _, full, result, grid = case
    omegas = grid.frequencies()
    f, _ = analysis._angle_terms(analysis.prepare_model(full), _bound_terms(full, result))
    chunks = np.array_split(omegas, -(-omegas.size // analysis.FEW_POINTS))
    for term, row in enumerate(_grid_values(f, 2, omegas)):
        few = np.concatenate([f(np.full(chunk.size, term), chunk) for chunk in chunks])
        assert np.array_equal(np.isinf(row), np.isinf(few))
        finite = np.isfinite(few)
        if not finite.any() or few[finite].max() == 0.0:
            assert np.array_equal(row, few)
            continue
        shown = finite & (few > 1e-8 * few[finite].max())
        assert np.all(np.abs(row[shown] - few[shown]) <= REL * few[shown])


@pytest.mark.parametrize("case", SCREEN_CASES, ids=[case[0] for case in SCREEN_CASES])
def test_screened_bounds_match_the_integrands_own_grid(case):
    # Every supremum is at least its term's grid maximum, and the integrand
    # at the reported frequency is within REL of it: the value and the
    # frequency belong together.  A stable report's bounds are those suprema.
    _, full, result, grid = case
    omegas = grid.frequencies()
    terms = _bound_terms(full, result)
    f, even = analysis._angle_terms(analysis.prepare_model(full), terms)
    values = _grid_values(f, 2, omegas)
    suprema = analysis.grid_suprema(f, omegas, values, even)
    for term, (value, omega) in enumerate(suprema):
        assert value >= values[term].max()
        if math.isfinite(value):
            assert _close(f(np.array([term]), np.array([omega]))[0], value)
    report = analysis.error_report(full, result, grid=grid)
    if report.stable:
        assert [report.hinf_bound_left, report.hinf_bound_right] == [v for v, _ in suprema]


@pytest.mark.parametrize("build", REPORT_CASES, ids=["ex1", "ex3", "stable0", "stable1", "stable2"])
def test_screen_blocks_leave_the_bounds_unchanged(monkeypatch, build):
    # A working-memory budget of about seven points splits the grid into
    # many blocks: the grid values move only by rounding (the row products
    # are BLAS calls over a whole block), and no bound moves.
    _, full, result, grid = build()
    omegas = grid.frequencies()
    f, _ = analysis._angle_terms(analysis.prepare_model(full), _bound_terms(full, result))
    whole, report = _grid_values(f, 2, omegas), analysis.error_report(full, result, grid=grid)
    monkeypatch.setattr(linalg, "SCAN_BLOCK_BYTES", 7 * 16 * 8 * 30)
    blocked = _grid_values(f, 2, omegas)
    assert np.all(np.abs(blocked - whole) <= 1e-13 * whole)
    again = analysis.error_report(full, result, grid=grid)
    assert (again.hinf_bound_left, again.hinf_bound_right) == (
        report.hinf_bound_left, report.hinf_bound_right
    )


def _counting_sweeps(monkeypatch):
    """Record the points of every :func:`analysis.sweep` call that has any."""
    calls, sweep = [], analysis.sweep

    def counting(a, b, s):
        if s.size:
            calls.append(s)
        return sweep(a, b, s)

    monkeypatch.setattr(analysis, "sweep", counting)
    return calls


def _curve_sweeps(calls, omegas):
    """The sweeps of an error curve: those whose points all lie on the grid."""
    return [s for s in calls if np.isin(s, 1j * omegas).all()]


REPORT_FIELDS = (
    "hinf_error_estimate", "hinf_error_upper", "peak_frequency", "hinf_bound_left", "hinf_bound_right"
)


@pytest.mark.parametrize("build", [_ex1, _ex3], ids=["ex1", "ex3"])
def test_curve_blocks_leave_the_report_unchanged(monkeypatch, build):
    # A working-memory budget of a third of the curve's stacks sweeps it in
    # at least three blocks.  Each point is its own solve, so the curve, the
    # norm, its frequency and both bounds are those of one block, bit for bit.
    _, full, result, grid = build()
    omegas = grid.frequencies()
    whole = analysis.error_report(full, result, grid=grid)
    calls = _counting_sweeps(monkeypatch)
    analysis.error_report(full, result, grid=grid)
    assert [s.size for s in _curve_sweeps(calls, omegas)] == [omegas.size]
    b_e = analysis.error_system(full, result)[1]
    per_point = 16 * b_e.shape[0] * sum(b_e.shape)
    monkeypatch.setattr(linalg, "SCAN_BLOCK_BYTES", per_point * (omegas.size // 3))
    calls.clear()
    blocked = analysis.error_report(full, result, grid=grid)
    assert len(_curve_sweeps(calls, omegas)) >= 3
    assert np.array_equal(blocked.pointwise, whole.pointwise)
    fields = [(getattr(blocked, f), getattr(whole, f)) for f in REPORT_FIELDS]
    assert all(a == b for a, b in fields), fields


def test_a_401_point_curve_is_one_sweep(monkeypatch):
    # With the default budget the whole curve is one stacked solve, and the
    # level-set search solves each distinct frequency once: a real model's
    # start frequencies |Im lambda|, |lambda| and -|lambda| repeat.
    _, full, result, _ = _ex1()
    grid = analysis.default_grid(full.A, result.reduced.A, count=400)
    omegas = grid.frequencies()
    assert omegas.size == 401
    calls = _counting_sweeps(monkeypatch)
    analysis.error_report(full, result, grid=grid)
    assert [s.size for s in _curve_sweeps(calls, omegas)] == [401]
    assert all(np.unique(s).size == s.size for s in calls)


def test_level_set_search_sweeps_no_empty_frequency_set(monkeypatch):
    # A step whose axis test admits no Hamiltonian eigenvalue returns the
    # certified value at once: the last step of the ex1 report swept an
    # empty set of frequencies before.
    sizes, gains = [], analysis._gains
    monkeypatch.setattr(
        analysis, "_gains", lambda a, b, c, s, *r: sizes.append(s.size) or gains(a, b, c, s, *r)
    )
    for build in REPORT_CASES:
        _, full, result, grid = build()
        analysis.error_report(full, result, grid=grid)
    assert sizes and min(sizes) > 0


def _random_system(n, outputs, inputs, dtype, seed):
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if dtype is complex else x

    return draw(n, n), draw(n, inputs), draw(outputs, n)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize(("outputs", "inputs"), [(2, 5), (5, 2), (3, 3)], ids=["p<m", "p>m", "p=m"])
def test_gains_match_the_pointwise_norm_on_both_solve_sides(outputs, inputs, dtype):
    # Fewer outputs than inputs solve (sI - A)^T Y = C^T and take Y^T B, the
    # others (sI - A) X = B and C X: both within REL of a per-point solve, on
    # the imaginary axis and off it, on a rectangle as error_surface evaluates.
    a, b, c = _random_system(6, outputs, inputs, dtype, seed=10 * outputs + inputs)
    axis = 1j * np.linspace(-5.0, 5.0, 41)
    plane = (np.linspace(-4.0, 4.0, 9)[None, :] + 1j * np.linspace(-4.0, 4.0, 9)[:, None]).ravel()
    s = np.concatenate([axis, plane])
    gains = analysis._gains(a, b, c, s)
    expected = np.array([linalg.spectral_norm(c @ _resolvent(a, point, b)) for point in s])
    assert np.all(np.abs(gains - expected) <= REL * expected)


def test_each_kernel_basis_is_computed_once(monkeypatch):
    # The left and right terms of a report share their bases, (V, W) and
    # (W, V): one kernel basis, one SVD, for each.
    _, full, result, grid = _ex1()
    calls, kernel_basis = [], linalg.kernel_basis
    monkeypatch.setattr(linalg, "kernel_basis", lambda m: calls.append(m) or kernel_basis(m))
    analysis.error_report(full, result, grid=grid)
    assert len(calls) == 2


def _svd_stacks(rows, cols, seed, count=60):
    """Seeded complex ``(count, rows, cols)`` stacks over six decades of scale."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, rows, cols)) + 1j * rng.standard_normal((count, rows, cols))
    return x * 10.0 ** rng.uniform(-3.0, 3.0, size=(count, 1, 1))


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 5), (5, 2)])
def test_closed_form_singular_values_match_svd(shape):
    # The integrand's (rows, points, cols) layout; no LAPACK call at these sizes.
    x = _svd_stacks(*shape, seed=sum(shape))
    if shape == (2, 2):
        # Nearly singular: rank one plus 1e-9 of noise, where sqrt(det(M^H M)) would cancel.
        x[:20] = x[:20, :, :1] * x[:20, :1, :] + 1e-9 * x[20:40]
    sigma = np.linalg.svd(x, compute_uv=False)
    layout = np.moveaxis(x, 0, 1)
    assert np.all(np.abs(analysis._gram_norms(layout) - sigma[:, 0]) <= 1e-14 * sigma[:, 0])
    if shape[0] == shape[1]:
        low = analysis._sigma_min(x, lambda: analysis._gram_norms(layout))
        assert np.all(np.abs(low - sigma[:, -1]) <= 1e-14 * sigma[:, 0])


@pytest.mark.parametrize("width", [1, 2, 3])
def test_orthonormal_columns_of_nearly_dependent_stacks(width):
    # Columns 1e-8 apart: one Gram-Schmidt pass would leave them 1e-8 from
    # orthogonal; the second pass leaves them orthonormal to working precision.
    z = _svd_stacks(6, width, seed=width)
    z[:, :, -1] = z[:, :, 0] + 1e-8 * z[:, :, -1]
    q = analysis._orthonormal_columns(np.moveaxis(z, 0, 1))
    gram = np.einsum("npi,npj->pij", q.conj(), q)
    assert np.all(np.abs(gram - np.eye(width)) <= 1e-14)
    # The same column spaces: each column of z lies in the span of q.
    residual = z - np.moveaxis(q, 0, 1) @ np.einsum("npi,pnj->pij", q.conj(), z)
    assert np.all(np.abs(residual) <= 1e-12 * np.abs(z).max(axis=(1, 2), keepdims=True))


def test_narrowed_ports_keep_their_gram_matrix():
    # ex2's 16 inputs on 6 states: the integrand carries 6 columns with the
    # same m m^H; a block with no more columns than rows is left as it is.
    m = _svd_stacks(6, 16, seed=5, count=1)[0]
    narrow = analysis._narrow(m)
    assert narrow.shape == (6, 6)
    gram = m @ m.conj().T
    assert np.all(np.abs(narrow @ narrow.conj().T - gram) <= 1e-14 * np.abs(gram).max())
    square = m[:, :6]
    assert analysis._narrow(square) is square


def test_closed_forms_read_zero_on_singular_stacks():
    # Exactly 0, with no RuntimeWarning, so that the integrand reads inf there.
    rank_one = np.outer([1 + 2j, -3j], [2 - 1j, 1j])
    stack = np.moveaxis(np.array([rank_one, np.zeros((2, 2))]), 0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = analysis._gram_norms(stack)
        assert np.array_equal(analysis._sigma_min(np.moveaxis(stack, 1, 0), lambda: top), [0, 0])
        assert analysis._gram_norms(stack)[1] == 0.0
        e = np.eye(3)
        # ker(basis^H (sI-A)) = span(e1, e2); U_perp = [e1, e3] meets it at a right angle.
        model = analysis.prepare_model((-e, e, e, 0 * e))
        f, _ = analysis._angle_terms(model, [("right", e[:, 2:], e[:, 1:2])])
        omegas = np.array([0.0, 1.0, 1e3, 1e4])
        assert np.all(np.isposinf(f(np.array([0]), omegas[None])))
        assert np.all(np.isposinf(f(np.zeros(3, dtype=int), omegas[:3])))


STEP_CASES = [build() for build in REPORT_CASES] + [
    case for case in SCREEN_CASES if case[0] == "left2"
]


@pytest.mark.parametrize("case", STEP_CASES, ids=[case[0] for case in STEP_CASES])
def test_refinement_steps_match_the_grid_integrand(monkeypatch, case):
    # Every call of at most FEW_POINTS points, either term or both, takes
    # _angle_step in its solve's layout; the grid integrand's back-substitution
    # on the same stacks is within REL wherever a term reaches 1e-8 of its
    # grid maximum, and an infinite value is infinite in both.  left2 has a
    # 4-column kernel: stacked QR, eigvalsh and SVD.
    _, full, result, grid = case
    omegas = grid.frequencies()
    f, _ = analysis._angle_terms(analysis.prepare_model(full), _bound_terms(full, result))
    peaks = np.array([row[np.isfinite(row)].max() for row in _grid_values(f, 2, omegas)])
    calls, step = [], analysis._angle_step
    monkeypatch.setattr(analysis, "_angle_step", lambda *args: calls.append(args) or step(*args))
    rng = np.random.default_rng(7)
    for count in range(1, analysis.FEW_POINTS + 1):
        for first in (0, 1):
            labels = (first + np.arange(count)) % 2
            w = rng.choice(omegas, count) * rng.uniform(0.9, 1.1, count)
            values = f(labels, w)
            (args,) = calls
            calls.clear()
            expected = analysis._angle_integrand(*args).reshape(values.shape)
            assert np.array_equal(np.isinf(values), np.isinf(expected))
            shown = np.isfinite(expected) & (expected > 1e-8 * peaks[labels])
            assert np.all(np.abs(values[shown] - expected[shown]) <= REL * expected[shown])


def _counting_lapack(monkeypatch):
    """Record the name of every ``np.linalg`` QR, SVD and ``eigvalsh`` call on a stack."""
    calls = []
    for name in ("qr", "svd", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(m, *args, _name=name, _original=original, **kwargs):
            if np.ndim(m) > 2:
                calls.append(_name)
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.mark.parametrize(("label", "width"), [("ex1", 2), ("left2", 4)])
def test_only_wide_kernels_are_screened_by_lapack(monkeypatch, label, width):
    # A whole bound, grid and refinement, takes no QR, SVD or eigvalsh of a
    # stack of points when the kernel has at most two columns: closed forms
    # replace them (a refinement step's resolvent is one stacked LU solve).  A wider kernel takes stacked QR, SVD and eigvalsh.  The
    # kernel bases themselves are one SVD of one matrix each, per term.
    _, full, result, grid = next(case for case in SCREEN_CASES if case[0] == label)
    terms = _bound_terms(full, result)
    assert {basis.shape[0] - basis.shape[1] for _, basis, _ in terms} == {width}
    calls = _counting_lapack(monkeypatch)
    if width <= 2:
        analysis.hinf_bound_left(full, result, grid=grid)
        analysis.hinf_bound_right(full, result, grid=grid)
        assert calls == []
    else:
        f, _ = analysis._angle_terms(analysis.prepare_model(full), terms)
        _grid_values(f, 2, grid.frequencies())
        assert set(calls) == {"qr", "svd", "eigvalsh"}


def test_one_schur_form_serves_both_terms(monkeypatch):
    # The left term's triangular factor is the right one's, reversed and
    # conjugate-transposed: one Schur form per report.
    _, full, result, _ = _ex1()
    calls = []
    schur = linalg.schur

    def counted(a):
        calls.append(a.shape)
        return schur(a)

    monkeypatch.setattr(linalg, "schur", counted)
    analysis._angle_terms(analysis.prepare_model(full), _bound_terms(full, result))
    assert calls == [(6, 6)]


def test_grid_suprema_takes_an_infinite_grid_value_as_the_supremum():
    # An infinite grid value is its term's supremum, at the first such
    # frequency; that term is not refined, and f is never called for it.
    omegas = np.linspace(0.0, 4.0, 41)
    labels = []

    def f(terms, w):
        labels.extend(np.asarray(terms).tolist())
        return np.exp(-((np.asarray(w) - 2.0) ** 2))

    grid = [np.exp(-((omegas - 2.0) ** 2)), np.exp(-((omegas - 2.0) ** 2))]
    grid[0][30] = grid[0][35] = math.inf
    (inf_value, inf_omega), (value, peak) = analysis.grid_suprema(f, omegas, grid)
    assert (inf_value, inf_omega) == (math.inf, omegas[30])
    assert labels and set(labels) == {1}
    assert 1.0 - 1e-10 <= value <= 1.0
    assert abs(peak - 2.0) <= 1e-5


@pytest.mark.parametrize("case", ["every-term-infinite", "one-point-grid"])
def test_grid_suprema_without_a_bracket_returns_the_grid_maxima(case):
    # No term has a bracket to refine, so the lockstep search gets no
    # bracket and f is never called.
    def f(terms, w):
        raise AssertionError("f called without a bracket")

    if case == "every-term-infinite":
        omegas = np.linspace(0.0, 4.0, 41)
        grid = np.ones((2, omegas.size))
        grid[0, 7] = grid[1, 3] = grid[1, 9] = math.inf
        expected = [(math.inf, omegas[7]), (math.inf, omegas[3])]
    else:
        omegas = analysis.GridSpec(0.1, 10.0, count=0).frequencies()
        grid = [[0.5], [2.0]]
        expected = [(0.5, 0.0), (2.0, 0.0)]
    for even in (False, True):
        assert analysis.grid_suprema(f, omegas, grid, even) == expected


def test_error_report_on_a_one_point_grid():
    # The grid of count 0 is omega = 0 alone: each bound is its grid value.
    _, full, result, _ = _ex1()
    report = analysis.error_report(full, result, grid=analysis.GridSpec(0.1, 10.0, count=0))
    assert report.pointwise[:, 0].tolist() == [0.0]
    f, _ = analysis._angle_terms(analysis.prepare_model(full), _bound_terms(full, result))
    left, right = f(np.arange(2), np.zeros((2, 1)))
    assert (report.hinf_bound_left, report.hinf_bound_right) == (left[0], right[0])


def test_sweep_matches_pointwise_solves():
    system = cases.optomechanical_system()
    s = 1j * np.linspace(-2e4, 2e4, 150) - 30.0
    stacked = analysis.sweep(system.A, system.B, s)
    for k, point in enumerate(s):
        assert np.array_equal(stacked[k], _resolvent(system.A, point, system.B))


def test_sweep_marks_singular_points_only():
    a = systems.symplectic_form(1)  # eigenvalues +/- i
    b = np.eye(2)
    s = 1j * np.array([0.5, 1.0, 2.0])
    stacked = analysis.sweep(a, b, s)
    assert np.all(np.isnan(stacked[1]))
    for k in (0, 2):
        assert np.array_equal(stacked[k], _resolvent(a, s[k], b))


def test_error_surface_matches_scalar_oracle():
    _, full, result, _ = _ex1()
    re_pts = np.array([-300.0, -80.0, 0.0])
    im_pts = np.linspace(9e3, 1.1e4, 7)
    _, _, values = analysis.error_surface(full, result, re_pts, im_pts)
    a1, b1, c1, d1 = _matrices(full)
    a2, b2, c2, d2 = _matrices(result.reduced)
    for i, im in enumerate(im_pts):
        for j, re in enumerate(re_pts):
            s = complex(re, im)
            gap = (d1 - d2) + c1 @ _resolvent(a1, s, b1) - c2 @ _resolvent(a2, s, b2)
            assert _close(values[i, j], linalg.spectral_norm(gap))


def test_unstable_report_curve_matches_oracle():
    unstable = systems.QuadratureSystem(
        A=np.diag([0.5, -1.0]), B=np.eye(2), C=np.eye(2), D=np.eye(2)
    )
    reduced = systems.QuadratureSystem(
        A=np.diag([-2.0, -1.0]), B=np.eye(2), C=np.eye(2), D=np.eye(2)
    )
    data = InterpolationData(
        side="right", points=[2.0, 3.0], directions=np.array([[1.0, 0], [0, 1.0]])
    )
    result = ReductionResult(w=np.eye(2), v=np.eye(2), reduced=reduced, data=data, diagnostics=None)
    grid = analysis.default_grid(unstable.A, count=100)
    report = analysis.error_report(unstable, result, grid=grid)
    curve = [error_norm_oracle(unstable, reduced)(w) for w in grid.frequencies()]
    assert not report.stable
    assert np.array_equal(report.pointwise[:, 1], curve)
    assert report.hinf_error_estimate == max(curve)
