"""Seeded inputs, operations, output checks and layer probes of each workload.

Every workload is a fixed cycle of op inputs built from the seed and the
bundled fixtures.  Sizes are fixed per workload; the seed only draws matrix
entries, interpolation frequencies and tangent directions, so the work per
cycle barely depends on the seed.  The program receives only the generated
matrices.

Workloads:

* ``certify_small``: realizability check, reduction, error report, encoding
  and error-curve CSV for the bundled ex1/ex2/ex3 cases and for random
  stable systems of 3-4 modes (left, right and passive reductions);
* ``select``: one ``optimize_points`` per op, on ex3 (H2 cost, passive
  side) with its reference tangent directions and with output ports drawn by
  the seed.  Every ex3 draw, the reference included, gives the same search
  (94 evaluations, about 3 s).  The ex1 H-infinity search (about 15 s) is
  left out: with ops that long a run holds too few samples for a steady
  median on a drifting host.  ``cost_hinf`` is still probed on the
  ops' own problems;
* ``reduce_batch``: realizability check, reduction, JSON encode and decode
  of random stable systems of 3-8 modes; no frequency sweeps.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from qmor import analysis, cases, linalg, reduction, selection, serialization, symplectic, systems
from qmor.errors import QmorError
from qmor.reduction import InterpolationData

WORKLOADS = ("certify_small", "select", "reduce_batch")

# Output gates (the structure gates of the acceptance suite).
REALIZABILITY_TOL = 1e-8
BIORTHOGONALITY_TOL = 1e-9
BOUND_SLACK = 1e-9
INTERPOLATION_REL, INTERPOLATION_ABS, INTERPOLATION_REF_FLOOR = 1e-8, 1e-10, 1e-6
# The ex2 controller fixture is printed to four decimals, so it (and its
# reduction) is realizable only to the tolerance run_ex2 uses.
EX2_REALIZABILITY_TOL = 5e-2
# run_ex* accept a selected frequency within 10% of the reference or a cost
# no worse than the reference cost (with this relative slack).
SELECT_OMEGA_REL, SELECT_COST_SLACK = 0.10, 1e-3
FRESH_COST_REL = 1e-9

# Grid of the certify ops' error reports.  The package default is 2000
# points; with 200 each run times every case many times, which a steady
# median needs on a host whose speed drifts.  The per-point work is the same;
# the golden-section refinement takes a larger share (about a quarter of the
# transfer evaluations instead of 3%).
CERTIFY_GRID_COUNT = 200
SMOKE_GRID_COUNT = 100

MAX_DRAWS = 1000
RANDOM_PORTS = 2  # input and output channels of every random system
SMALL_MODES = {"left": 3, "right": 4, "passive": 4}
BATCH_MODES = (3, 4, 6, 8)

REDUCERS = {
    "left": reduction.reduce_left,
    "right": reduction.reduce_right,
    "passive": reduction.reduce_passive,
}
SUBSPACE_BASES = {
    "left": reduction.left_subspace_basis,
    "right": reduction.right_subspace_basis,
    "passive": reduction.passive_subspace_basis,
}


def state_matrix(system):
    return system.F if isinstance(system, systems.AnnihilationSystem) else system.A


def resolvent_flops(system):
    """Real flops of one transfer evaluation ``D + C (sI - A)^-1 B`` (computed).

    Complex LU (8/3 n^3), two triangular solves per right-hand side
    (8 n^2 m) and the output product (8 p n m); forming ``sI - A`` and adding
    ``D`` are ignored.
    """
    a = state_matrix(system)
    n = a.shape[0]
    m = (system.G if isinstance(system, systems.AnnihilationSystem) else system.B).shape[1]
    p = (system.H if isinstance(system, systems.AnnihilationSystem) else system.C).shape[0]
    return 8.0 * n**3 / 3.0 + 8.0 * n * n * m + 8.0 * p * n * m


# --------------------------------------------------------------------------
# verdicts


@dataclass
class Verdict:
    """Failed gates of one op, plus reference rows known to be unreachable."""

    failures: list = field(default_factory=list)
    unreachable: list = field(default_factory=list)

    def gate(self, name, ok):
        if not ok:
            self.failures.append(name)

    def known_unreachable(self, name, ok):
        if not ok:
            self.unreachable.append(name)

    def relative(self, name, computed, target, rel_tol):
        self.gate(name, abs(computed - target) <= rel_tol * abs(target))

    @property
    def passed(self):
        return not self.failures


def interpolation_passes(system, result):
    """Tangential interpolation, recomputed from the full and reduced models."""
    data = result.data
    for sigma, direction in zip(data.points, data.directions):
        full = systems.transfer(system, sigma)
        reduced = systems.transfer(result.reduced, sigma)
        if data.side == "left":
            target, got = direction.conj() @ full, direction.conj() @ reduced
        else:
            target, got = full @ direction, reduced @ direction
        residual, scale = np.linalg.norm(got - target), np.linalg.norm(target)
        limit = INTERPOLATION_REL * scale if scale > INTERPOLATION_REF_FLOOR else INTERPOLATION_ABS
        if not residual <= limit:
            return False
    return True


def check_structure(verdict, system, full_report, result, tol):
    """Structure gates, recomputed from the op's output rather than its diagnostics."""
    w, v = result.w, result.v
    reduced_report = systems.check_realizability(result.reduced, tol)
    verdict.gate("full-model realizability", full_report.max_residual <= tol)
    verdict.gate("reduced-model realizability", reduced_report.max_residual <= tol)
    verdict.gate("interpolation residuals", interpolation_passes(system, result))
    verdict.gate(
        "biorthogonality",
        np.linalg.norm(w.conj().T @ v - np.eye(v.shape[1])) <= BIORTHOGONALITY_TOL,
    )


def encode_reduction(result, method):
    return json.dumps(serialization.reduction_to_dict(result, method))


def decode_reduction(text):
    return serialization.reduction_from_dict(json.loads(text))


# --------------------------------------------------------------------------
# certify_small


@dataclass
class CertifyCase:
    label: str
    system: object
    data: InterpolationData
    method: str
    realizability_tol: float = REALIZABILITY_TOL
    reference: object = None  # callable(case, output, verdict) or None
    grid_count: int = CERTIFY_GRID_COUNT


@dataclass
class CertifyOutput:
    full: object
    result: object
    report: object
    encoded: str
    csv_path: str


def certify_op(case, tr, workdir):
    """check_realizability -> reduce_* -> error_report -> encode + CSV."""
    full = tr.call(
        "systems.check_realizability",
        systems.check_realizability,
        case.system,
        case.realizability_tol,
    )
    result = tr.call(
        f"reduction.reduce_{case.method}", REDUCERS[case.method], case.system, case.data
    )
    grid = analysis.default_grid(
        state_matrix(case.system), state_matrix(result.reduced), count=case.grid_count
    )
    report = tr.call("analysis.error_report", analysis.error_report, case.system, result, grid)
    encoded = tr.call("serialization.encode", encode_reduction, result, case.method)
    path = os.path.join(workdir, f"{case.label}_error_curve.csv")
    tr.call("serialization.csv", serialization.write_error_curve_csv, path, report.pointwise)
    return CertifyOutput(full=full, result=result, report=report, encoded=encoded, csv_path=path)


def certify_check(case, out):
    verdict = Verdict()
    check_structure(verdict, case.system, out.full, out.result, case.realizability_tol)
    report = out.report
    verdict.gate("stable full and reduced models", report.stable)
    if report.stable:
        estimate = report.hinf_error_estimate
        verdict.gate("left bound >= estimate", report.hinf_bound_left >= estimate - BOUND_SLACK)
        verdict.gate("right bound >= estimate", report.hinf_bound_right >= estimate - BOUND_SLACK)
    with open(out.csv_path, encoding="utf-8") as fh:
        rows = sum(1 for _ in fh)
    verdict.gate("error-curve CSV has one row per grid point", rows == len(report.pointwise) + 1)
    verdict.gate("encoded reduction names its method", json.loads(out.encoded)["method"] == case.method)
    if case.reference is not None:
        case.reference(case, out, verdict)
    return verdict


def certify_facts(case, out):
    return {
        "states": int(state_matrix(case.system).shape[0]),
        "grid_points": int(len(out.report.pointwise)),
        "two_sided": bool(out.report.grid.two_sided),
        "bytes": len(out.encoded) + os.path.getsize(out.csv_path),
    }


def _ex1_reference(case, out, verdict):
    ref = cases.EX1_REFERENCE
    poles = out.result.diagnostics.poles
    verdict.gate(
        "ex1 reduced poles",
        cases.match_bidirectional(poles, ref["reduced_poles"], 0.01, relative=True)[1],
    )
    verdict.relative("ex1 worst-case error", out.report.hinf_error_estimate, ref["hinf_error"], 0.02)
    verdict.relative("ex1 bound (left form)", out.report.hinf_bound_left, ref["bound_left"], 0.05)
    verdict.relative("ex1 bound (right form)", out.report.hinf_bound_right, ref["bound_right"], 0.10)


def _ex2_reference(case, out, verdict):
    ref = cases.EX2_REFERENCE
    reduced = out.result.reduced
    verdict.gate(
        "ex2 reduced controller poles",
        cases.match_bidirectional(
            out.result.diagnostics.poles, ref["reduced_poles"], 2e-2, relative=False
        )[1],
    )
    fixture = cases.control_case_fixture()
    ports = fixture["measurement_ports"]
    loop = systems.closed_loop_state_matrix(
        fixture["plant"], (reduced.A, reduced.B[:, ports], reduced.C)
    )
    eig = np.linalg.eigvals(loop)
    verdict.gate("ex2 reduced loop is stable", eig.real.max() < 0)
    verdict.gate(
        "ex2 reduced-loop poles",
        cases.match_bidirectional(eig, ref["closed_loop_poles"], 2e-2, relative=False)[1],
    )


def _ex3_reference(case, out, verdict):
    ref = cases.EX3_REFERENCE
    report = out.report
    # The recorded poles lie outside the field of values of F, so no
    # orthonormal compression reaches them (see the cases module); the row is
    # evaluated on every op and counted on its own.
    verdict.known_unreachable(
        "ex3 reduced poles (recorded values)",
        cases.match_bidirectional(
            out.result.diagnostics.poles, ref["reduced_poles"], 0.01, relative=True
        )[1],
    )
    certificate = reduction.passive_stability_certificate(out.result, case.system.G)
    verdict.gate("ex3 reduced model stable", certificate.stable)
    verdict.relative("ex3 worst-case error", report.hinf_error_estimate, ref["hinf_error"], 0.02)
    verdict.gate("ex3 error within the passive ceiling", report.hinf_error_estimate <= 2.0 + 1e-6)
    verdict.relative("ex3 bound (left form)", report.hinf_bound_left, ref["bounds"], 0.05)
    verdict.relative("ex3 bound (right form)", report.hinf_bound_right, ref["bounds"], 0.05)


def bundled_cases():
    controller = cases.control_case_fixture()["quantum_controller"]
    return [
        CertifyCase(
            "ex1",
            cases.optomechanical_system(),
            cases.ex1_interpolation_data(cases.EX1_REFERENCE["omega"]),
            "right",
            reference=_ex1_reference,
        ),
        CertifyCase(
            "ex2",
            controller,
            cases.ex2_interpolation_data(cases.EX2_REFERENCE["omega"]),
            "right",
            realizability_tol=EX2_REALIZABILITY_TOL,
            reference=_ex2_reference,
        ),
        CertifyCase(
            "ex3",
            cases.cascaded_cavity_system(),
            cases.ex3_interpolation_data(cases.EX3_REFERENCE["omega"]),
            "passive",
            reference=_ex3_reference,
        ),
    ]


# --------------------------------------------------------------------------
# seeded random inputs


class Draws:
    """Counts random draws and the ones discarded (unstable or failed)."""

    def __init__(self):
        self.draws = 0
        self.discarded = 0

    def first(self, rng, make):
        """Call ``make(rng)`` until it returns a value; ``None`` or a QmorError discards."""
        for _ in range(MAX_DRAWS):
            self.draws += 1
            try:
                value = make(rng)
            except QmorError:
                value = None
            if value is not None:
                return value
            self.discarded += 1
        raise RuntimeError(f"no acceptable random system in {MAX_DRAWS} draws")


def _omegas(rng, system, count):
    mags = np.abs(linalg.eigenvalues(state_matrix(system)))
    mags = mags[mags > 0]
    return 10.0 ** rng.uniform(np.log10(mags.min()), np.log10(mags.max()), size=count)


def _unit_rows(ports, dim):
    rows = np.zeros((len(ports), dim))
    rows[np.arange(len(ports)), list(ports)] = 1.0
    return rows


def _quadrature_data(rng, system, side, pairs=2):
    dim = 2 * (system.n_outputs if side == "left" else system.n_inputs)
    ports = rng.choice(dim, size=pairs, replace=False)
    directions = _unit_rows(np.repeat(ports, 2), dim)
    points = selection.conjugate_pair_points(_omegas(rng, system, pairs))
    return InterpolationData(side=side, points=points, directions=directions)


def _passive_data(rng, system, count):
    omegas = _omegas(rng, system, count) * rng.choice([-1.0, 1.0], size=count)
    ports = rng.integers(system.n_outputs, size=count)
    return InterpolationData(
        side="left", points=1j * omegas, directions=_unit_rows(ports, system.n_outputs)
    )


def _random_passive(rng, modes):
    seed = int(rng.integers(2**31))
    return systems.random_realizable_annihilation(modes, RANDOM_PORTS, RANDOM_PORTS, seed)


def _case_for(rng, passive, method, label):
    if method == "passive":
        return CertifyCase(label, passive, _passive_data(rng, passive, 2), method)
    quad = systems.annihilation_to_quadrature(passive)
    return CertifyCase(label, quad, _quadrature_data(rng, quad, method), method)


def _stable(case):
    """Both the full and the reduced model are Hurwitz."""
    result = REDUCERS[case.method](case.system, case.data)
    return linalg.is_hurwitz(state_matrix(case.system)) and linalg.is_hurwitz(
        state_matrix(result.reduced)
    )


def random_case(rng, draws, modes, method, label):
    def make(rng):
        case = _case_for(rng, _random_passive(rng, modes), method, label)
        return case if _stable(case) else None

    return draws.first(rng, make)


# --------------------------------------------------------------------------
# select


@dataclass
class SelectCase:
    label: str
    problem: selection.SelectionProblem
    reference_omega: float
    reference_cost: float


def _select_case(label, problem, reference_omega):
    cost = selection.cost_h2(problem, [reference_omega])
    return SelectCase(label, problem, reference_omega, float(cost))


def select_cases(rng):
    ref = cases.EX3_REFERENCE
    ex3 = cases.cascaded_cavity_system()

    def problem(directions):
        return selection.SelectionProblem(
            system=ex3,
            side="passive",
            r=3,
            directions=directions,
            omega_bounds=ref["selection_bounds"],
            cost="h2",
            tie_omegas=True,
            template="symmetric_with_dc",
        )

    seeded = _unit_rows(rng.integers(ex3.n_outputs, size=3), ex3.n_outputs)
    return [
        _select_case("ex3-h2-ref", problem(cases.ex3_interpolation_data().directions), ref["omega"]),
        _select_case("ex3-h2-seeded", problem(seeded), ref["omega"]),
    ]


def select_op(case, tr, workdir):
    return tr.call("selection.optimize_points", selection.optimize_points, case.problem)


def select_check(case, out):
    verdict = Verdict()
    near = abs(out.omegas[0] - case.reference_omega) <= SELECT_OMEGA_REL * case.reference_omega
    no_worse = out.cost <= case.reference_cost * (1 + SELECT_COST_SLACK)
    verdict.gate("selection no worse than the reference, or near it", near or no_worse)
    fresh = selection.cost_h2(case.problem, out.omegas)
    verdict.gate(
        "returned cost matches a fresh evaluation",
        abs(fresh - out.cost) <= FRESH_COST_REL * abs(out.cost),
    )
    return verdict


def select_facts(case, out):
    return {
        "states": int(case.problem.state_matrix().shape[0]),
        "evaluations": len(out.trace),
        "feasible": sum(1 for entry in out.trace if entry["feasible"]),
        "omega": float(out.omegas[0]),
        "cost": float(out.cost),
    }


# --------------------------------------------------------------------------
# reduce_batch


@dataclass
class ReduceOutput:
    full: object
    result: object
    encoded: str
    decoded: object


def reduce_op(case, tr, workdir):
    """check_realizability -> reduce_* -> JSON encode -> decode."""
    full = tr.call(
        "systems.check_realizability",
        systems.check_realizability,
        case.system,
        case.realizability_tol,
    )
    result = tr.call(
        f"reduction.reduce_{case.method}", REDUCERS[case.method], case.system, case.data
    )
    encoded = tr.call("serialization.encode", encode_reduction, result, case.method)
    decoded = tr.call("serialization.decode", decode_reduction, encoded)
    return ReduceOutput(full=full, result=result, encoded=encoded, decoded=decoded)


def _matrices(result):
    reduced = result.reduced
    names = ("F", "G", "H", "K") if isinstance(reduced, systems.AnnihilationSystem) else ("A", "B", "C", "D")
    mats = {name: getattr(reduced, name) for name in names}
    mats.update(W=result.w, V=result.v, points=result.data.points, directions=result.data.directions)
    return mats


def reduce_check(case, out):
    verdict = Verdict()
    check_structure(verdict, case.system, out.full, out.result, case.realizability_tol)
    before, after = _matrices(out.result), _matrices(out.decoded)
    for name, value in before.items():
        verdict.gate(
            f"{name} round-trips bit for bit",
            value.dtype == after[name].dtype and np.array_equal(value, after[name]),
        )
    return verdict


def reduce_facts(case, out):
    return {"states": int(state_matrix(case.system).shape[0]), "bytes": len(out.encoded)}


# --------------------------------------------------------------------------
# probes: single layer calls on an op's own inputs, as root spans


def basis_probes(tr, op_id, system, data, method):
    basis = tr.probe(op_id, "reduction.subspace_basis", SUBSPACE_BASES[method], system, data)
    if method != "passive":
        jn = systems.symplectic_form(system.n_modes)
        tr.probe(op_id, "symplectic.skew_normal_form", symplectic.skew_normal_form, basis.T @ jn @ basis)


def sweep_probe(tr, op_id, system, grid):
    omegas = grid.frequencies()
    tr.probe(
        op_id,
        "analysis.frequency_response",
        analysis.frequency_response,
        system,
        omegas,
        points=int(omegas.size),
        flops=float(omegas.size * resolvent_flops(system)),
    )


def certify_probes(tr, op_id, case, out):
    system, result, grid = case.system, out.result, out.report.grid
    sweep_probe(tr, op_id, system, grid)
    tr.probe(op_id, "analysis.hinf_error", analysis.hinf_error, system, result, grid)
    if case.method == "passive":
        tr.probe(op_id, "analysis.hinf_bounds_passive", analysis.hinf_bounds_passive, system, result, grid)
    else:
        tr.probe(op_id, "analysis.hinf_bound_left", analysis.hinf_bound_left, system, result, grid)
        tr.probe(op_id, "analysis.hinf_bound_right", analysis.hinf_bound_right, system, result, grid)
    basis_probes(tr, op_id, system, case.data, case.method)


def select_probes(tr, op_id, case, out):
    problem = case.problem
    omega = [case.reference_omega]
    tr.probe(op_id, "selection.cost_hinf", selection.cost_hinf, problem, omega)
    tr.probe(op_id, "selection.cost_h2", selection.cost_h2, problem, omega)
    data = InterpolationData(side="left", points=out.points, directions=problem.directions)
    result = tr.probe(op_id, "reduction.reduce_passive", reduction.reduce_passive, problem.system, data)
    basis_probes(tr, op_id, problem.system, data, "passive")
    tr.probe(op_id, "analysis.h2_error_gramian", analysis.h2_error_gramian, problem.system, result)
    tr.probe(op_id, "analysis.h2_error_quadrature", analysis.h2_error_quadrature, problem.system, result)
    grid = analysis.default_grid(problem.state_matrix(), state_matrix(result.reduced))
    sweep_probe(tr, op_id, problem.system, grid)


def reduce_probes(tr, op_id, case, out):
    basis_probes(tr, op_id, case.system, case.data, case.method)


def example_probes(tr):
    """Whole ``run_example`` calls, so the bundled-case timings can be regenerated."""
    outcomes = {}
    for name in cases.EXAMPLE_NAMES:
        outcome = tr.probe(None, "cases.run_example", cases.run_example, name, example=name)
        outcomes[name] = [row.name for row in outcome.checks if not row.passed]
    return outcomes


# --------------------------------------------------------------------------
# assembly


@dataclass
class Workload:
    name: str
    cases: list
    op: object
    check: object
    facts: object
    probes: object
    warmup: int  # index of the case whose op warms up the process
    draws: Draws
    run_examples: bool = False


def build(name, seed, smoke=False):
    """Inputs of one workload, drawn from ``seed`` and the bundled fixtures.

    ``smoke`` shrinks the certify grids for the benchmark's self-test.
    """
    rng = np.random.default_rng(seed)
    draws = Draws()
    if name == "certify_small":
        items = bundled_cases()
        for method in ("left", "right", "passive"):
            modes = SMALL_MODES[method]
            items.append(random_case(rng, draws, modes, method, f"small-{method}-n{modes}"))
        if smoke:
            for case in items:
                case.grid_count = SMOKE_GRID_COUNT
        return Workload(name, items, certify_op, certify_check, certify_facts, certify_probes,
                        warmup=1, draws=draws, run_examples=not smoke)
    if name == "select":
        return Workload(name, select_cases(rng), select_op, select_check, select_facts,
                        select_probes, warmup=0, draws=draws)
    if name == "reduce_batch":
        items = []
        for modes in BATCH_MODES[:2] if smoke else BATCH_MODES:
            for method in ("left", "right", "passive"):
                items.append(random_case(rng, draws, modes, method, f"batch-{method}-n{modes}"))
        return Workload(name, items, reduce_op, reduce_check, reduce_facts, reduce_probes,
                        warmup=0, draws=draws)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
