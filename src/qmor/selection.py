"""Heuristic tangent-direction templates and interpolation-frequency search.

Tangent directions are picked so the most important output (or input) pairs
are matched at the largest number of frequencies; interpolation points are
placed on the imaginary axis in conjugate pairs ``(i w_j, -i w_j)`` so a real
basis exists.  The frequencies themselves come from derivative-free local
minimization of either an H-infinity or an H2 error cost.  Both costs score
the error system (:func:`qmor.analysis.error_system`) of the very model the
reduction returns at the candidate points: the pair ``(W, V)`` of
:func:`qmor.reduction.projection` for the problem's side and its compression
by :func:`qmor.reduction.compress`.  A candidate whose reduction cannot be
built, or whose error system is not Hurwitz, is infeasible.  The H2 cost is
exact: :func:`qmor.analysis.h2_norm`, one Lyapunov solve of order ``n + r``
(one LAPACK ``gees`` Schur form and one ``trsyl``), with no frequency
quadrature.  The H-infinity cost is the level-set norm of
:func:`qmor.analysis.hinf_norm`, with no frequency grid.  Without explicit
bounds the search window is that of :func:`qmor.analysis.default_grid`: two
decades beyond the pole magnitudes.

The costs of :data:`COST_FUNCTIONS` score a stack of candidates in one
pass: one stacked resolvent solve, one stacked SVD, the compressions, the
error systems and one stacked eigenvalue call for the Hurwitz tests serve
every candidate at once, and only the Lyapunov solve or the level-set
iteration runs candidate by candidate.  A stable H2 candidate thus costs its
share of the stacked eigenvalue call plus one Schur form, whose eigenvalues
the Lyapunov solve reads for its own Hurwitz test.  The search scores its
scan lattice that way, in as few passes as ``SCAN_BLOCK_BYTES`` of working
memory allow (one for the bundled examples); :func:`cost_hinf` and
:func:`cost_h2` are stacks of one.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from . import linalg
from .analysis import default_grid, error_system, h2_norm, hinf_norm
from .errors import InfeasiblePointError, QmorError, StructureError
from .reduction import InterpolationData, check_data, compress, data_side, projection
from .systems import AnnihilationSystem, QuadratureSystem

SCAN_POINTS_1D = 64
SCAN_POINTS_ND = 16
SCAN_POINTS_CAP = 4096
#: Bytes of stacked working memory one block of scan candidates may take.
SCAN_BLOCK_BYTES = 2**24
PENALTY_FACTOR = 1e6
REFINE_REL_TOL = 1e-4


def tangent_directions(r, n_output_pairs, permutation=None):
    """Heuristic stack of ``2r`` tangent directions (rows) in ``R^{2l}``.

    With ``E_k = (e_1, e_1, e_2, e_2, ..., e_k, e_k)`` the pattern is ``E_r``
    when ``r <= l`` and ``(E_l, ..., E_l, e_1, e_1, ...)`` otherwise, then
    re-ordered by the output-importance permutation.  Real vectors, so the
    conjugate-closure requirement is trivially met.
    """
    ell = n_output_pairs
    dim = 2 * ell
    if r < 1 or ell < 1:
        raise StructureError("need r >= 1 and at least one output pair")
    directions = np.zeros((2 * r, dim))
    directions[np.arange(2 * r), np.repeat(np.arange(r) % ell, 2)] = 1.0
    if permutation is not None:
        permutation = linalg.as_matrix(permutation, "permutation")
        if permutation.shape != (dim, dim):
            raise StructureError(
                f"permutation has shape {permutation.shape}, expected ({dim}, {dim})"
            )
        directions = directions @ permutation  # rows become Pi^T e_i
    return directions


def _template_frequencies(omegas):
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if np.any(omegas < 0):
        raise StructureError("template frequencies must be nonnegative")
    return omegas


def conjugate_pair_points(omegas):
    """Interleaved conjugate template ``(i w_1, -i w_1, ..., i w_r, -i w_r)``.

    Built along the last axis, so a stack of frequency rows gives a stack of
    point rows.
    """
    omegas = _template_frequencies(omegas)
    points = np.empty(omegas.shape[:-1] + (2 * omegas.shape[-1],), dtype=complex)
    points[..., 0::2] = 1j * omegas
    points[..., 1::2] = -1j * omegas
    return points


def symmetric_dc_points(omegas):
    """Odd-count template ``(i w_1, ..., i w_k, 0, -i w_k, ..., -i w_1)``, along the last axis."""
    ups = 1j * _template_frequencies(omegas)
    dc = np.zeros(ups.shape[:-1] + (1,), dtype=complex)
    return np.concatenate([ups, dc, -ups[..., ::-1]], axis=-1)


@dataclass(frozen=True)
class SelectionProblem:
    """Specification of an interpolation-frequency search."""

    system: QuadratureSystem | AnnihilationSystem
    side: str
    r: int
    directions: np.ndarray
    omega_bounds: tuple | None = None
    cost: str = "hinf"
    tie_omegas: bool = True
    template: str = "conjugate_pairs"

    def __post_init__(self):
        if self.side not in ("left", "right", "passive"):
            raise StructureError(f"side must be left/right/passive, got {self.side!r}")
        if self.cost not in ("hinf", "h2"):
            raise StructureError(f"cost must be hinf or h2, got {self.cost!r}")
        if self.template not in ("conjugate_pairs", "symmetric_with_dc"):
            raise StructureError(f"unknown template {self.template!r}")
        if self.r < 1:
            raise StructureError(f"r must be at least 1, got {self.r}")
        if self.template == "symmetric_with_dc" and self.side != "passive":
            raise StructureError(
                "the symmetric-with-dc template is for passive selection only; its odd "
                "point count gives left/right data no even-dimensional real basis"
            )
        if self.template == "symmetric_with_dc" and self.r % 2 == 0:
            raise StructureError("the symmetric-with-dc template needs an odd point count")
        passive = self.side == "passive"
        if passive and self.template == "conjugate_pairs" and self.r % 2:
            raise StructureError(
                "passive selection with conjugate pairs needs an even point count r; "
                "use the symmetric-with-dc template for an odd one"
            )
        if not isinstance(self.system, AnnihilationSystem if passive else QuadratureSystem):
            form = "an annihilation" if passive else "a quadrature"
            raise StructureError(f"{self.side} selection needs {form}-form system")
        if self.r > self.system.n_modes:
            raise StructureError(
                f"r = {self.r} exceeds the {self.system.n_modes} modes of the system; "
                "a reduced model cannot have more modes than the full one"
            )
        directions = np.atleast_2d(np.array(self.directions, dtype=complex))
        expected = self.r if passive else 2 * self.r
        if directions.shape[0] != expected:
            raise StructureError(
                f"{directions.shape[0]} directions supplied, expected {expected}"
            )
        ports = self.system.n_inputs if self.side == "right" else self.system.n_outputs
        width = ports if passive else 2 * ports
        if directions.shape[1] != width:
            raise StructureError(
                f"directions live in C^{directions.shape[1]}, the {self.side} side needs C^{width}"
            )
        if self.omega_bounds is not None:
            lo, hi = self.omega_bounds
            if not (0 < lo < hi < math.inf):
                raise StructureError("omega bounds must satisfy 0 < lo < hi < inf")
        directions.setflags(write=False)
        object.__setattr__(self, "directions", directions)

    @property
    def _frequencies(self):
        # Distinct template frequencies: r conjugate pairs on the left or right side,
        # r / 2 pairs for r passive points, (r - 1) / 2 around the dc point.
        if self.template == "symmetric_with_dc":
            return (self.r - 1) // 2
        return self.r // 2 if self.side == "passive" else self.r

    @property
    def n_free(self):
        return 1 if self.tie_omegas else self._frequencies

    def expand_points(self, omegas):
        """The interpolation points of ``omegas``, or one row of points per row of a stack."""
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        tiled = np.repeat(omegas[..., :1], self._frequencies, -1) if self.tie_omegas else omegas
        if self.template == "symmetric_with_dc":
            return symmetric_dc_points(tiled)
        return conjugate_pair_points(tiled)

    def state_matrix(self):
        return self.system.state_space()[0]


def _reduced_models(problem, points):
    """The reduced models of ``reduce_*`` at every row of ``points``, stacked.

    Returns ``((A_r, B_r, C_r, D), errors)``: the matrices of
    :func:`~qmor.reduction.compress`, and the :class:`InfeasiblePointError`
    (or ``None``) of each row whose model cannot be built.  Data that fit no
    row raise it.
    """
    system = problem.system
    try:
        data = InterpolationData(data_side(problem.side), points[0], problem.directions)
        check_data(system, data, problem.side)
        w, v, errors = projection(system, problem.side, points, problem.directions)
    except QmorError as exc:
        raise InfeasiblePointError(str(exc)) from exc
    a, b, c, d = reduced = compress(system, w, v)
    finite = np.logical_and.reduce([np.isfinite(m).all(axis=(1, 2)) for m in (a, b, c)])
    for i in np.flatnonzero(~finite):
        if errors[i] is None:
            try:  # the form's own checks name the first non-finite matrix
                type(system)(a[i], b[i], c[i], d)
            except QmorError as exc:
                errors[i] = exc
    return reduced, [None if e is None else InfeasiblePointError(str(e)) for e in errors]


def _candidate_costs(problem, candidates, norm):
    """``norm`` of the error system of every candidate row, or the error that makes it infeasible.

    The reduced models, the error systems (:func:`~qmor.analysis.error_system`)
    and their Hurwitz tests are built for the whole stack at once; ``norm``
    runs row by row on the stable ones.  An unstable candidate is infeasible.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    try:
        reduced, outcomes = _reduced_models(problem, problem.expand_points(candidates))
    except QmorError as exc:
        return [exc] * len(candidates)
    a_e, b_e, c_e = error_system(problem.system, reduced)
    built = [i for i, error in enumerate(outcomes) if error is None]
    for i, stable in zip(built, linalg.is_hurwitz(a_e[built])):
        try:
            if not stable:
                raise InfeasiblePointError("projected model is unstable; the error norms diverge")
            outcomes[i] = norm(a_e[i], b_e[i], c_e[i])
        except QmorError as exc:
            outcomes[i] = exc
    return outcomes


def hinf_costs(problem, candidates):
    """:func:`cost_hinf` of every row of ``candidates``, or the error that makes it infeasible."""
    return _candidate_costs(problem, candidates, lambda *error: hinf_norm(*error).value)


def h2_costs(problem, candidates):
    """:func:`cost_h2` of every row of ``candidates``, or the error that makes it infeasible."""
    return _candidate_costs(problem, candidates, h2_norm)


def _one(outcomes):
    if isinstance(outcomes[0], Exception):
        raise outcomes[0]
    return outcomes[0]


def cost_hinf(problem, omegas):
    """H-infinity norm of the projected error for candidate ``omegas``.

    The level-set value the error attains; an infeasible candidate raises
    :class:`InfeasiblePointError`.
    """
    return _one(hinf_costs(problem, [omegas]))


def cost_h2(problem, omegas):
    """Frequency-integrated squared error for ``omegas``, exact by the Lyapunov identity."""
    return _one(h2_costs(problem, [omegas]))


#: The costs of a stack of candidate rows for each ``SelectionProblem.cost``:
#: one value, or the :class:`~qmor.errors.QmorError` that makes it infeasible, per row.
COST_FUNCTIONS = {"hinf": hinf_costs, "h2": h2_costs}


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the frequency search with its full evaluation trace."""

    omegas: np.ndarray
    cost: float
    points: np.ndarray
    trace: list = field(default_factory=list)


def optimize_points(problem):
    """Deterministic coarse-scan plus simplex refinement of the point cost.

    The scan uses a logarithmic lattice (64 points for one free frequency,
    16 per dimension otherwise, capped at 4096 evaluations) over
    ``problem.omega_bounds`` or the default grid's window, scored in stacked
    passes; the Lyapunov solve (one ``gees`` Schur form and one ``trsyl``)
    or level-set iteration still runs per candidate.  A candidate with ``k``
    points on an order-``n`` system takes about ``(2 k + 1) n^2`` complex
    entries of working memory (its ``k`` shifted matrices, their norms and
    its singular vectors), so one pass holds as many candidates as fit in
    ``SCAN_BLOCK_BYTES``: the whole lattice of a small system, one candidate
    at a time for a large one.  The best lattice point seeds a Nelder-Mead
    refinement in log-frequency space, one candidate at a time.  Every
    evaluation is one trace row, and a candidate the search revisits reuses
    its cost.  Infeasible candidates keep their reason and cost a large
    finite penalty, ``PENALTY_FACTOR`` times the first feasible scan cost,
    so the search continues; an all-infeasible scan raises, with the count
    and the first reason on one line and the trace attached.
    """
    cost_fn = COST_FUNCTIONS[problem.cost]
    if problem.omega_bounds is None:
        window = default_grid(problem.state_matrix())
        lo, hi = window.wmin, window.wmax
    else:
        lo, hi = problem.omega_bounds

    d = problem.n_free
    if d == 1:
        per_dim = SCAN_POINTS_1D
    else:
        per_dim = SCAN_POINTS_ND
        while per_dim**d > SCAN_POINTS_CAP:
            per_dim -= 1
    log_lo, log_hi = math.log10(lo), math.log10(hi)
    trace, penalty, scored = [], math.nan, {}

    def evaluate(phase, candidates, inside=True):
        """One trace row per candidate row, each distinct row scored once per search.

        Infeasible rows keep their reason and cost ``penalty``.
        """
        keys = [tuple(omegas) for omegas in candidates.tolist()]
        fresh = [k for k, key in enumerate(keys) if inside and key not in scored]
        if fresh:
            scored.update(zip([keys[k] for k in fresh], cost_fn(problem, candidates[fresh])))
        for key in keys:
            outcome = scored[key] if inside else InfeasiblePointError("outside the search interval")
            failed = isinstance(outcome, Exception)
            value = math.nan if failed else outcome
            feasible = math.isfinite(value)
            trace.append({
                "phase": phase,
                "omegas": list(key),
                "cost": value if feasible else penalty,
                "feasible": feasible,
                "reason": str(outcome) if failed else "",
            })
        return trace[-1]["cost"]

    lattice = np.array(list(itertools.product(np.logspace(log_lo, log_hi, per_dim), repeat=d)))
    n, k = problem.state_matrix().shape[0], problem.expand_points(lattice[0]).size
    block = max(1, SCAN_BLOCK_BYTES // ((2 * k + 1) * n * n * 16))
    for start in range(0, len(lattice), block):
        evaluate("scan", lattice[start : start + block])
    feasible_rows = [row for row in trace if row["feasible"]]
    if not feasible_rows:
        raised = [row for row in trace if row["reason"]]
        message = f"all {len(trace)} scanned candidates were infeasible"
        if raised:
            first = raised[0]
            where = np.array2string(np.array(first["omegas"]), precision=4, max_line_width=np.inf)
            message += f"; {len(raised)} raised, the first at omega={where}: {first['reason']}"
        raise InfeasiblePointError(message, trace)
    penalty = PENALTY_FACTOR * max(feasible_rows[0]["cost"], 1e-300)
    for row in trace:
        if not row["feasible"]:
            row["cost"] = penalty
    k = int(np.argmin([row["cost"] for row in trace]))
    best_omegas, best_cost = np.array(trace[k]["omegas"]), trace[k]["cost"]

    sol = scipy.optimize.minimize(
        lambda x: evaluate("refine", 10.0 ** x[None], np.all((log_lo <= x) & (x <= log_hi))),
        np.log10(best_omegas),
        method="Nelder-Mead",
        options={
            "xatol": math.log10(1.0 + REFINE_REL_TOL) / 2,
            "fatol": 1e-6 * max(abs(best_cost), 1e-300),
            "maxiter": 400 * d,
            "disp": False,
        },
    )
    refined = 10.0**sol.x
    refined_cost = float(sol.fun)
    if refined_cost < best_cost:
        best_omegas, best_cost = refined, refined_cost
    return SelectionResult(
        omegas=np.asarray(best_omegas, dtype=float),
        cost=float(best_cost),
        points=problem.expand_points(best_omegas),
        trace=trace,
    )
