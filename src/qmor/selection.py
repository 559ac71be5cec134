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
exact: :func:`qmor.analysis.h2_norm`, one Lyapunov solve of order ``n + r``,
with no frequency quadrature.  The H-infinity cost is the level-set norm of
:func:`qmor.analysis.hinf_norm`, with no frequency grid.  Without explicit
bounds the search window is that of :func:`qmor.analysis.default_grid`: two
decades beyond the pole magnitudes.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from . import linalg
from .analysis import default_grid, error_system, h2_norm, hinf_norm
from .errors import InfeasiblePointError, QmorError, StructureError
from .reduction import InterpolationData, compress, data_side, projection
from .systems import AnnihilationSystem, QuadratureSystem

SCAN_POINTS_1D = 64
SCAN_POINTS_ND = 16
SCAN_POINTS_CAP = 4096
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


def conjugate_pair_points(omegas):
    """Interleaved conjugate template ``(i w_1, -i w_1, ..., i w_r, -i w_r)``."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if np.any(omegas < 0):
        raise StructureError("template frequencies must be nonnegative")
    points = np.empty(2 * omegas.size, dtype=complex)
    points[0::2] = 1j * omegas
    points[1::2] = -1j * omegas
    return points


def symmetric_dc_points(omegas):
    """Odd-count template ``(i w_1, ..., i w_k, 0, -i w_k, ..., -i w_1)``."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if np.any(omegas < 0):
        raise StructureError("template frequencies must be nonnegative")
    ups = 1j * omegas
    return np.concatenate([ups, [0.0 + 0.0j], -ups[::-1]])


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
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        tiled = np.full(self._frequencies, omegas[0]) if self.tie_omegas else omegas
        if self.template == "symmetric_with_dc":
            return symmetric_dc_points(tiled)
        return conjugate_pair_points(tiled)

    def state_matrix(self):
        return self.system.state_space()[0]


def _reduced_model(problem, points):
    """The reduced model of ``reduce_*`` at ``points``; infeasible when it cannot be built."""
    system = problem.system
    try:
        data = InterpolationData(data_side(problem.side), points, problem.directions)
        return compress(system, *projection(system, data, problem.side))
    except QmorError as exc:
        raise InfeasiblePointError(str(exc)) from exc


def _candidate_error(problem, omegas):
    """:func:`~qmor.analysis.error_system` of the candidate; an unstable one is infeasible."""
    reduced = _reduced_model(problem, problem.expand_points(omegas))
    system = error_system(problem.system, reduced)
    if not linalg.is_hurwitz(system[0]):
        raise InfeasiblePointError("projected model is unstable; the error norms diverge")
    return system


def cost_hinf(problem, omegas):
    """H-infinity norm of the projected error for candidate ``omegas``.

    The level-set value the error attains; an infeasible candidate raises
    :class:`InfeasiblePointError`.
    """
    return hinf_norm(*_candidate_error(problem, omegas)).value


def cost_h2(problem, omegas):
    """Frequency-integrated squared error for ``omegas``, exact by the Lyapunov identity."""
    return h2_norm(*_candidate_error(problem, omegas))


#: The cost function for each ``SelectionProblem.cost``.
COST_FUNCTIONS = {"hinf": cost_hinf, "h2": cost_h2}


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
    ``problem.omega_bounds`` or the default grid's window; the best lattice
    point seeds a Nelder-Mead refinement in log-frequency space.  Every
    evaluation is one trace row.  Infeasible candidates keep their reason and
    cost a large finite penalty, ``PENALTY_FACTOR`` times the first feasible
    scan cost, so the search continues; an all-infeasible scan raises, with
    the count and the first reason on one line and the trace attached.
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
    trace, penalty = [], math.nan

    def evaluate(phase, omegas, inside=True):
        """The cost of one candidate, recorded as a trace row; infeasible ones cost ``penalty``."""
        value, reason = math.nan, "outside the search interval"
        if inside:
            try:
                value, reason = cost_fn(problem, omegas), ""
            except QmorError as exc:
                reason = str(exc)
        feasible = math.isfinite(value)
        trace.append({
            "phase": phase,
            "omegas": omegas.tolist(),
            "cost": value if feasible else penalty,
            "feasible": feasible,
            "reason": reason,
        })
        return trace[-1]["cost"]

    for combo in itertools.product(np.logspace(log_lo, log_hi, per_dim), repeat=d):
        evaluate("scan", np.array(combo))
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
        lambda x: evaluate("refine", 10.0**x, np.all((log_lo <= x) & (x <= log_hi))),
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
