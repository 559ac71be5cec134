"""Print one line per reduction, cost, search and error-report output, with digests.

Run it on two checkouts and diff the outputs to show that a refactor changed
no result bit:

    python scripts/fingerprint.py OLD_CHECKOUT > old.txt
    python scripts/fingerprint.py NEW_CHECKOUT > new.txt
    diff old.txt new.txt

Arrays are hashed (SHA-256 of dtype, shape and bytes); scalars are printed
with ``repr``.  ``W``, ``V`` and the reduced matrices depend on the reduced
coordinates, which the Schur vectors of the symplectic scaling fix only up to
rounding, so each reduction also prints coordinate-free values: the reduced
poles and the reduced transfer function at probe points set by the full
model's largest pole magnitude, each array as its largest magnitude times its
entries rounded to 10 decimals.  A diff of those lines stays quiet when only
the coordinates moved (a value on a rounding boundary can still flip a last
digit).  The inputs are ex1-ex3, ``stable_reduction_cases(5)`` with a
left reduction of each system, four random passive reductions, six
selection problems, and searches on the ex1 (right, H-infinity, tied and
untied; right, H2, tied), ``stable0-left`` and ex3 (passive, H2, in two
windows) problems, each with a digest of its trace costs (and, but for ex3,
of its trace reasons).  Run both sides with the same BLAS thread count
(``OPENBLAS_NUM_THREADS=1``), since threaded BLAS may round differently.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

CHECKOUT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parents[1])
sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT / "tests")]

from conftest import make_passive_data, make_quadrature_data, stable_reduction_cases  # noqa: E402
from qmor import analysis, cases, linalg, selection, systems  # noqa: E402
from qmor.errors import QmorError  # noqa: E402
from qmor.reduction import reduce_left, reduce_passive, reduce_right  # noqa: E402


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def values(array):
    """Entries of an array over its largest magnitude, rounded to 10 decimals."""
    z = np.ravel(array).astype(complex)
    scale = np.abs(z).max()
    parts = np.round(np.stack([z.real, z.imag], -1) / scale, 10) + 0.0  # no -0.0
    return f"{scale:.10e} x " + " ".join(f"{re:+.10f}{im:+.10f}j" for re, im in parts)


def state_space(system):
    names = ("A", "B", "C", "D") if hasattr(system, "A") else ("F", "G", "H", "K")
    return [getattr(system, k) for k in names]


ex1 = cases.optomechanical_system()
ex2 = cases.control_case_fixture()["quantum_controller"]
ex3 = cases.cascaded_cavity_system()
reductions = [
    ("ex1", ex1, cases.ex1_interpolation_data(), reduce_right),
    ("ex2", ex2, cases.ex2_interpolation_data(), reduce_right),
    ("ex3", ex3, cases.ex3_interpolation_data(), reduce_passive),
    ("ex1-left", ex1, make_quadrature_data(ex1, "left", 3), reduce_left),
]
for k, (quad, data, _) in enumerate(stable_reduction_cases(5)):
    reductions.append((f"stable{k}", quad, data, reduce_right))
    reductions.append((f"stable{k}-left", quad, make_quadrature_data(quad, "left", k), reduce_left))
for seed in range(4):
    passive = systems.random_realizable_annihilation(4, 2, 2, 300 + seed)
    reductions.append((f"passive{seed}", passive, make_passive_data(passive, seed), reduce_passive))

for label, system, data, reducer in reductions:
    try:
        result = reducer(system, data)
    except QmorError as exc:
        print(label, "raised", type(exc).__name__, exc)
        continue
    d = result.diagnostics
    print(
        label, type(result.reduced).__name__, "W", digest(result.w), "V", digest(result.v),
        "reduced", digest(*state_space(result.reduced)),
        "diagnostics", digest(
            d.interpolation_residuals, d.interpolation_references,
            np.array(d.realizability.residuals + (d.realizability.tol, d.biorthogonality)),
            d.poles,
        ),
    )
    # One point at a time, so that the script also runs on a scalar-only transfer.
    scale = np.abs(linalg.eigenvalues(state_space(system)[0])).max()
    probes = scale * np.array([0.3j, 1.1j, 0.5 + 3j])
    print(label, "poles", values(d.poles))
    print(label, "transfer", values([systems.transfer(result.reduced, s) for s in probes]))
    if not label.startswith(("ex", "passive", "stable0")) or label.endswith("left"):
        continue
    grid = analysis.default_grid(
        state_space(system)[0], state_space(result.reduced)[0], count=300
    )
    report = analysis.error_report(system, result, grid=grid)
    print(
        label, "error_report", repr(report.hinf_error_estimate), repr(report.hinf_error_upper),
        repr(report.hinf_bound_left), repr(report.hinf_bound_right),
        repr(report.peak_frequency), digest(report.pointwise),
    )

ex1_dirs = cases.ex1_interpolation_data().directions
ex3_dirs = cases.ex3_interpolation_data().directions
stable0 = stable_reduction_cases(1)[0][0]
problems = [
    ("ex1", selection.SelectionProblem(ex1, "right", 2, ex1_dirs, omega_bounds=(1e3, 1e6)), [1.05e4]),
    ("ex1-untied", selection.SelectionProblem(ex1, "right", 2, ex1_dirs, tie_omegas=False), [1.05e4, 2e3]),
    ("ex1-left", selection.SelectionProblem(ex1, "left", 1, selection.tangent_directions(1, 1)), [3e4]),
    ("ex2", selection.SelectionProblem(ex2, "right", 2, cases.ex2_interpolation_data().directions), [0.29]),
    ("ex3", selection.SelectionProblem(
        ex3, "passive", 3, ex3_dirs, cost="h2", template="symmetric_with_dc", omega_bounds=(1e5, 1e9)
    ), [1.48e7]),
    ("stable0-left", selection.SelectionProblem(
        stable0, "left", 1, selection.tangent_directions(1, 2)
    ), [1.3]),
]
for label, problem, omegas in problems:
    for cost in (selection.cost_hinf, selection.cost_h2):
        try:
            print(label, cost.__name__, repr(cost(problem, omegas)))
        except QmorError as exc:
            print(label, cost.__name__, "raised", type(exc).__name__, exc)
    try:
        points = problem.expand_points(omegas)
        full = problem.system.state_space()[:3]
        (a, b, c, _), (error,) = selection._reduced_models(problem, points[None])
        if error is not None:
            raise error
        print(label, "projected", digest(*full), digest(a[0], b[0], c[0]))
    except QmorError as exc:
        print(label, "projected raised", type(exc).__name__, exc)


def trace_digests(rows):
    """The row count and the digests of a search trace's costs and reasons."""
    reasons = np.array([f"{row['feasible']} {row['reason']}" for row in rows])
    return len(rows), digest(np.array([row["cost"] for row in rows])), digest(reasons)


# Searches on the right (tied, untied) and left sides, with trace-cost and trace-reason digests.
for label, problem, _ in problems:
    if label not in ("ex1", "ex1-untied", "stable0-left"):
        continue
    try:
        chosen = selection.optimize_points(problem)
        rows, head = chosen.trace, f"{chosen.omegas.tolist()!r} {chosen.cost!r}"
    except QmorError as exc:
        rows, head = exc.trace, f"raised {type(exc).__name__}"
    print(label, "optimize_points", head, *trace_digests(rows))

for window in ((1e5, 1e9), None):
    problem = selection.SelectionProblem(
        ex3, "passive", 3, ex3_dirs, cost="h2", template="symmetric_with_dc", omega_bounds=window
    )
    chosen = selection.optimize_points(problem)
    print("ex3 optimize_points", window, repr(chosen.omegas.tolist()), repr(chosen.cost),
          len(chosen.trace), digest(np.array([row["cost"] for row in chosen.trace])))

# The real (dgees/dtrsyl) Lyapunov path over a whole trace: ex1, right, tied, H2.
window = (1e3, 1e6)
problem = selection.SelectionProblem(ex1, "right", 2, ex1_dirs, cost="h2", omega_bounds=window)
chosen = selection.optimize_points(problem)
print("ex1 optimize_points h2", window, repr(chosen.omegas.tolist()), repr(chosen.cost),
      *trace_digests(chosen.trace))
