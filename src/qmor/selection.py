"""Heuristic tangent-direction templates and interpolation-frequency search.

Tangent directions are picked so the most important output (or input) pairs
are matched at the largest number of frequencies; interpolation points are
placed on the imaginary axis in conjugate pairs ``(i w_j, -i w_j)`` so a real
basis exists.  The frequencies themselves come from derivative-free local
minimization of either an H-infinity or an H2 error cost.  Both costs score
the very model the reduction returns at the candidate points: the pair
``(W, V)`` of :func:`qmor.reduction.projection` for the problem's side and
its compression by :func:`qmor.reduction.compress`.  A candidate whose
reduction cannot be built is infeasible.  The H2 cost is exact: one Lyapunov
solve for the error system of order ``n + r``, with no frequency quadrature.
The H-infinity cost is the level-set norm of :func:`qmor.analysis.hinf_norm`,
with no frequency grid.  A candidate whose reduced model is unstable is
infeasible under either cost.  Without explicit bounds the search window is
that of :func:`qmor.analysis.default_grid`: two decades beyond the pole
magnitudes.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from . import linalg
from .analysis import default_grid, error_system, h2_error_gramian, hinf_norm
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
    indices = []
    if r <= ell:
        for k in range(r):
            indices += [k, k]
    else:
        full_blocks, remainder = divmod(r, ell)
        for _ in range(full_blocks):
            for k in range(ell):
                indices += [k, k]
        for k in range(remainder):
            indices += [k, k]
    directions = np.zeros((2 * r, dim))
    directions[np.arange(2 * r), indices] = 1.0
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


def _projected_difference(problem, points):
    """Full and projected ``(A, B, C)`` triples for the candidate points.

    The projected triple is the reduced model that ``reduce_left``,
    ``reduce_right`` or ``reduce_passive`` returns for the same data: the
    same :func:`~qmor.reduction.projection` and compression.  A candidate
    whose reduction cannot be built is infeasible.
    """
    system = problem.system
    try:
        data = InterpolationData(data_side(problem.side), points, problem.directions)
        reduced = compress(system, *projection(system, data, problem.side))
    except QmorError as exc:
        raise InfeasiblePointError(str(exc)) from exc
    return system.state_space()[:3], reduced.state_space()[:3]


def _stable_projection(problem, omegas):
    """Full and reduced ``(A, B, C, 0)`` of the candidate; an unstable pair is infeasible."""
    points = problem.expand_points(omegas)
    (a, b, c), (a_r, b_r, c_r) = _projected_difference(problem, points)
    if not (linalg.is_hurwitz(a) and linalg.is_hurwitz(a_r)):
        raise InfeasiblePointError("projected model is unstable; the error norms diverge")
    return (a, b, c, 0.0), (a_r, b_r, c_r, 0.0)


def cost_hinf(problem, omegas, penalty=None):
    """H-infinity norm of the projected error for candidate ``omegas``.

    The level-set value the error attains; infeasible candidates raise
    :class:`InfeasiblePointError` unless a finite ``penalty`` substitute is
    supplied (the optimizer does this).
    """
    try:
        return hinf_norm(*error_system(*_stable_projection(problem, omegas))).value
    except QmorError:
        if penalty is not None:
            return penalty
        raise


def cost_h2(problem, omegas, penalty=None):
    """Frequency-integrated squared error for ``omegas``, exact by the Lyapunov identity."""
    try:
        return h2_error_gramian(*_stable_projection(problem, omegas))
    except QmorError:
        if penalty is not None:
            return penalty
        raise


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
    point seeds a Nelder-Mead refinement in log-frequency space.  Candidates
    whose subspace construction fails receive a large finite penalty so the
    search continues; an all-infeasible scan raises with the count and the first
    reason, on one line.
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
    axis = np.logspace(math.log10(lo), math.log10(hi), per_dim)

    trace = []
    evaluations = []
    for combo in itertools.product(axis, repeat=d):
        omegas = np.array(combo)
        try:
            value = cost_fn(problem, omegas)
            feasible = True
            reason = ""
        except QmorError as exc:
            value = math.nan
            feasible = False
            reason = str(exc)
        evaluations.append((omegas, value, feasible, reason))

    feasible_values = [v for _, v, ok, _ in evaluations if ok and math.isfinite(v)]
    if not feasible_values:
        failed = [(o, r) for o, _, ok, r in evaluations if not ok]
        message = f"all {len(evaluations)} scanned candidates were infeasible"
        if failed:
            where = np.array2string(failed[0][0], precision=4, max_line_width=np.inf)
            message += f"; {len(failed)} raised, the first at omega={where}: {failed[0][1]}"
        raise InfeasiblePointError(message)
    baseline = feasible_values[0]
    penalty = PENALTY_FACTOR * max(baseline, 1e-300)

    best_omegas, best_cost = None, math.inf
    for omegas, value, feasible, reason in evaluations:
        effective = value if feasible and math.isfinite(value) else penalty
        trace.append(
            {
                "phase": "scan",
                "omegas": omegas.tolist(),
                "cost": effective,
                "feasible": bool(feasible and math.isfinite(value)),
                "reason": reason,
            }
        )
        if effective < best_cost:
            best_cost, best_omegas = effective, omegas

    log_lo, log_hi = math.log10(lo), math.log10(hi)

    def refine_objective(x):
        if np.any(x < log_lo) or np.any(x > log_hi):
            value, feasible, reason = penalty, False, "outside the search interval"
        else:
            omegas = 10.0**x
            value = cost_fn(problem, omegas, penalty=penalty)
            feasible = value < penalty
            reason = "" if feasible else "construction failed (penalized)"
        trace.append(
            {
                "phase": "refine",
                "omegas": (10.0**x).tolist(),
                "cost": float(value),
                "feasible": feasible,
                "reason": reason,
            }
        )
        return value

    sol = scipy.optimize.minimize(
        refine_objective,
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
