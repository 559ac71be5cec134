"""Property test of the single projection path behind every reduction side.

For random realizable systems and random conjugate-closed point sets, each
reduction either raises a ``QmorError`` or meets the structure gates, and the
selection search scores exactly the model the reduction returns.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import interpolation_passes
from qmor import linalg, selection, systems
from qmor.analysis import error_exact, h2_error_gramian
from qmor.errors import InfeasiblePointError, QmorError
from qmor.reduction import InterpolationData, reduce_left, reduce_passive, reduce_right

REDUCERS = {"left": reduce_left, "right": reduce_right, "passive": reduce_passive}
#: A generic evaluation point for the exact error identities.
PROBE = 0.731 + 2.417j


def _system(side, n, m, ell, embedded, seed):
    if side == "passive":
        return systems.random_realizable_annihilation(n, m, ell, seed)
    if embedded:
        passive = systems.random_realizable_annihilation(n, m, ell, seed)
        return systems.annihilation_to_quadrature(passive)
    return systems.random_realizable_quadrature(n, m, ell, seed)


def _problem(system, side, r, shifted, repeated, seed):
    """A selection problem with free frequencies, and the frequencies of one candidate.

    Left/right problems take ``r`` conjugate pairs ``(i w, -i w)`` with conjugate
    direction pairs, all equal when ``repeated`` (a degenerate set for ``r > 1``);
    passive ones the odd template ``(i w_1, ..., 0, ..., -i w_1)``.
    """
    rng = np.random.default_rng(seed)
    if side == "passive":
        omegas = rng.uniform(0.2, 5.0, size=(r - 1) // 2)
        directions = rng.standard_normal((r, system.n_outputs)) + 1j * rng.standard_normal(
            (r, system.n_outputs)
        )
        problem = selection.SelectionProblem(
            system, side, r, directions, tie_omegas=False, template="symmetric_with_dc"
        )
    else:
        omegas = rng.uniform(0.2, 5.0, size=r)
        ports = system.n_outputs if side == "left" else system.n_inputs
        base = rng.standard_normal((r, 2 * ports))
        if rng.integers(2):
            base = base + 1j * rng.standard_normal((r, 2 * ports))
        if repeated:
            omegas[:], base[:] = omegas[0], base[0]
        directions = np.empty((2 * r, 2 * ports), dtype=complex)
        directions[0::2], directions[1::2] = base, base.conj()
        problem = selection.SelectionProblem(system, side, r, directions, tie_omegas=False)
    # A real shift keeps the set conjugate-closed and moves it off the axis.
    shift = rng.uniform(-3.0, 3.0) if shifted else 0.0
    return problem, omegas, problem.expand_points(omegas) + shift


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    side=st.sampled_from(["left", "right", "passive"]),
    n=st.integers(1, 8),
    m=st.integers(1, 2),
    data=st.data(),
)
def test_every_side_takes_one_projection_path(side, n, m, data):
    ell = data.draw(st.integers(1, m), label="ell")
    embedded = data.draw(st.booleans(), label="embedded")
    shifted = data.draw(st.booleans(), label="shifted")
    repeated = data.draw(st.booleans(), label="repeated")
    seed = data.draw(st.integers(0, 10_000), label="seed")
    if side == "passive":
        r = data.draw(st.sampled_from([k for k in (1, 3) if k <= n]), label="r")
    else:
        r = data.draw(st.integers(1, n), label="r")
    system = _system(side, n, m, ell, embedded, seed)
    problem, omegas, points = _problem(system, side, r, shifted, repeated, seed + 1)
    data_side = "right" if side == "right" else "left"
    try:
        result = REDUCERS[side](system, InterpolationData(data_side, points, problem.directions))
    except QmorError as exc:
        event(f"{side}: raised {type(exc).__name__}")
        with pytest.raises(InfeasiblePointError):
            _, (error,) = selection._reduced_models(problem, points[None])
            raise error
        return

    diag = result.diagnostics
    assert diag.realizability.passes
    assert interpolation_passes(diag)
    assert diag.biorthogonality <= 1e-9
    exact = error_exact(system, result, PROBE)
    # A full-order reduction has no error; its three values are rounding of |Xi|.
    scale = max(exact.direct, linalg.spectral_norm(systems.transfer(system, PROBE)))
    assert abs(exact.via_q - exact.direct) <= 1e-8 * scale
    assert abs(exact.via_r - exact.direct) <= 1e-8 * scale

    full = problem.system.state_space()[:3]
    (a, b, c, _), (error,) = selection._reduced_models(problem, points[None])
    assert error is None
    projected = a[0], b[0], c[0]
    expected = system.state_space()[:3] + result.reduced.state_space()[:3]
    assert all(np.array_equal(got, want) for got, want in zip(full + projected, expected))
    stable = linalg.is_hurwitz(full[0]) and linalg.is_hurwitz(projected[0])
    event(f"{side}: built, {'' if stable else 'un'}stable, {'off' if shifted else 'on'} the axis")
    if stable and not shifted:
        assert selection.cost_h2(problem, omegas) == h2_error_gramian(system, result)
