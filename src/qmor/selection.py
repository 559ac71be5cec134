"""Heuristic tangent-direction templates and interpolation-frequency search.

Tangent directions are picked so the most important output (or input) pairs
are matched at the largest number of frequencies; :func:`default_directions`
ranks the port pairs by their Gramian share and puts first the best one
whose directions give a full-rank interpolation subspace.  Interpolation
points are placed on the imaginary axis in conjugate pairs
``(i w_j, -i w_j)`` so a real basis exists.  The frequencies themselves come
from a derivative-free search of either an H-infinity or an H2 error cost: a
lattice scan, then a compass poll around its best point.  Both costs score
the error system (:func:`qmor.analysis.error_system`) of the very model the
reduction returns at the candidate points: the pair ``(W, V)`` of
:func:`qmor.reduction.projection` for the problem's side and its compression
by :func:`qmor.reduction.compress`.  A candidate whose reduction cannot be
built, or whose error system is not Hurwitz, is infeasible.  The H2 cost is
exact: :func:`qmor.analysis.h2_error_gramians`, the error Gramian assembled
from its full, cross and reduced blocks, with no frequency quadrature.  The
H-infinity cost is the level-set norm of :func:`qmor.analysis.hinf_norm`,
with no frequency grid, on the full Schur diagonal and the reduced poles.
Without explicit bounds the search window is that of
:func:`qmor.analysis.default_grid`: two decades beyond the pole magnitudes.

What belongs to the full model is built once per problem,
:attr:`SelectionProblem.full_model` (:func:`prepare_full_model`, whose model
also ranks the default directions): one complex Schur form of the full state
matrix, whose diagonal is the full half of every Hurwitz test, and for the
H2 cost its Gramian term.  A full model that is not Hurwitz, or an H2
problem's whose Gramian is undefined, fails the search, and each cost, with
one error that names it, before any error norm is computed; only a
candidate whose reduced model cannot be built keeps its own reason first.
The costs of :data:`COST_FUNCTIONS` score a stack of candidates in one
pass: one stacked resolvent solve, one stacked SVD and the compressions
serve every candidate at once, and one stacked eigenvalue call gives the
reduced poles.  The H2 cost adds, per pass, only the candidates' Gramian
blocks, in stacked solves; only the H-infinity level-set iteration runs
candidate by candidate.  The search scores its scan lattice and each poll
of its refinement that way, each in as few passes as
``linalg.SCAN_BLOCK_BYTES`` of working memory allow (one for the bundled
examples); :func:`cost_hinf` and :func:`cost_h2` are stacks of one.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .analysis import default_grid, error_system, h2_error_gramians, hinf_norm, prepare_model
from .errors import InfeasiblePointError, QmorError, StabilityError, StructureError
from .reduction import InterpolationData, check_data, compress, data_side, projection
from .systems import AnnihilationSystem, QuadratureSystem

SCAN_POINTS_1D = 64
SCAN_POINTS_ND = 16
SCAN_POINTS_CAP = 4096
PENALTY_FACTOR = 1e6
REFINE_REL_TOL = 1e-4
#: The poll of one refine pass steps ``h k / POLL_RATIO`` for ``k = +-1..+-POLL_RATIO``;
#: a pass without a cheaper outer-ring point shrinks ``h`` ``POLL_RATIO``-fold.
POLL_RATIO = 4


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


def default_directions(system, side, r):
    """The search's default directions: ``r`` passive rows, or ``2r`` left/right rows.

    Passive: the indicator pattern ``(e_1, e_1, e_2, e_2, ...)`` truncated
    to ``r`` rows.  Left/right: :func:`ranked_directions` on the system's
    :func:`~qmor.analysis.prepare_model`.
    """
    if side == "passive":
        ell = system.n_outputs
        return np.eye(ell, dtype=complex)[(np.arange(r) // 2) % ell]
    if not isinstance(system, QuadratureSystem):
        raise StructureError(f"{side} selection needs a quadrature-form system")
    return ranked_directions(system, side, r, prepare_model(system))


def ranked_directions(system, side, r, model):
    """:func:`tangent_directions` with a port-pair permutation; ``model`` is the system prepared.

    The pairs are ranked by their Gramian share: ``diag(C P C^T)`` per
    output pair on the left, ``P`` the model's Gramian, and ``diag(B^T Q
    B)`` per input pair on the right, ``Q`` the observability Gramian,
    solved on the model's adjoint Schur pair.  The best-ranked pair whose
    directions :func:`~qmor.reduction.projection` accepts at a probe
    frequency, the middle of the default grid's window in log scale, goes to
    the front, the others follow in rank order; when none passes, the
    ranking stands and the search reports the infeasible candidates.
    """
    _, b, c, _ = model.abcd
    if side == "left":
        share = np.diag(c @ model.gramian @ c.T)
    else:  # A^H Q + Q A + C^T C = 0, real for a quadrature system
        share = np.diag(b.T @ linalg.lyapunov_solve(*model.adjoint, c.T @ c).real @ b)
    pairs = share.size // 2
    ranked = np.argsort(-share.reshape(pairs, 2).sum(axis=1), kind="stable")

    def directions(first):
        order = np.concatenate([[first], ranked[ranked != first]])
        columns = np.stack([2 * order, 2 * order + 1], axis=1).ravel()
        return tangent_directions(r, pairs, np.eye(2 * pairs)[columns])

    if r <= system.n_modes:  # more points than modes fail every pair's rank test
        window = default_grid(system.state_space()[0])
        points = conjugate_pair_points(np.full(r, math.sqrt(window.wmin * window.wmax)))
        for pair in ranked:
            candidate = directions(pair)
            if projection(system, side, points[None], candidate)[2][0] is None:
                return candidate
    return directions(ranked[0])


def _template_frequencies(omegas):
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if not ((omegas >= 0) & (omegas < math.inf)).all():
        raise StructureError("template frequencies must be finite and nonnegative")
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
        if self.side == "passive" and self.template == "conjugate_pairs" and self.r % 2:
            raise StructureError(
                "passive selection with conjugate pairs needs an even point count r; "
                "use the symmetric-with-dc template for an odd one"
            )
        data = InterpolationData(
            data_side(self.side), self.expand_points(np.ones(self.n_free)), self.directions
        )
        check_data(self.system, data, self.side)
        if self.r > self.system.n_modes:
            raise StructureError(
                f"r = {self.r} exceeds the {self.system.n_modes} modes of the system; "
                "a reduced model cannot have more modes than the full one"
            )
        if self.omega_bounds is not None:
            lo, hi = self.omega_bounds
            if not (0 < lo < hi < math.inf):
                raise StructureError("omega bounds must satisfy 0 < lo < hi < inf")
        object.__setattr__(self, "directions", data.directions)

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

    @cached_property
    def full_model(self):
        """The full model prepared once for every pass: :func:`prepare_full_model`."""
        return prepare_full_model(self.system, self.cost)


def prepare_full_model(system, cost):
    """The search's :func:`~qmor.analysis.prepare_model`, with its Gramian term for the H2 cost.

    A full model that is not Hurwitz, or an H2 problem's whose Gramian is
    undefined, raises a :class:`~qmor.errors.StabilityError` that names it:
    no candidate of the problem has a finite error norm.
    """
    try:
        model = prepare_model(system)
        if cost == "h2":
            model.full_term  # noqa: B018 -- solved here, so it fails the problem once
        return model
    except StabilityError as exc:
        raise StabilityError(f"full model: {exc}") from None


def _reduced_models(problem, points):
    """The reduced models of ``reduce_*`` at every row of ``points``, stacked.

    Returns ``((A_r, B_r, C_r, D), errors)``: the matrices of
    :func:`~qmor.reduction.compress`, and the :class:`InfeasiblePointError`
    (or ``None``) of each row whose model cannot be built.  ``problem``
    checked its data when it was built, so every error belongs to a row.
    """
    system = problem.system
    w, v, errors, _ = projection(system, problem.side, points, problem.directions)
    a, b, c, d = reduced = compress(system, w, v)
    finite = (
        np.isfinite(a).all(axis=(1, 2))
        & np.isfinite(b).all(axis=(1, 2))
        & np.isfinite(c).all(axis=(1, 2))
    )
    for i in np.flatnonzero(~finite):
        if errors[i] is None:
            try:  # the form's own checks name the first non-finite matrix
                type(system)(a[i], b[i], c[i], d)
            except QmorError as exc:
                errors[i] = exc
    return reduced, [None if e is None else InfeasiblePointError(str(e)) for e in errors]


def _candidate_costs(problem, candidates, norms):
    """The cost of every candidate row, or the error that makes it infeasible.

    Per pass, the reduced models are built for the whole stack at once, and
    a row whose model cannot be built keeps that reason.  The full model's
    Schur diagonal, from ``problem.full_model``, is the full half of every
    Hurwitz test, so a pass makes no Schur form; a full model that fails it
    raises at the first pass with a built row, before any error norm.  The
    reduced poles come from one stacked eigenvalue call; an unstable
    candidate is infeasible.  ``norms(model, reduced, poles)`` scores the
    stable rows, one value or :class:`~qmor.errors.QmorError` per row.
    The outcomes are one list in row order: the stacks are indexed only when
    a row drops out, and an error is built only for a row that fails.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    reduced, outcomes = _reduced_models(problem, problem.expand_points(candidates))
    built = [i for i, error in enumerate(outcomes) if error is None]
    if not built:
        return outcomes
    model = problem.full_model
    a_r = reduced[0] if len(built) == len(outcomes) else reduced[0][built]
    reduced_poles = np.linalg.eigvals(a_r)
    stable = (reduced_poles.real < 0).all(axis=1)
    keep = []
    for i, row_stable in zip(built, stable.tolist()):
        if row_stable:
            keep.append(i)
        else:
            outcomes[i] = InfeasiblePointError(
                "projected model is unstable; the error norms diverge"
            )
    if keep:
        if len(keep) < len(outcomes):
            reduced = [m[keep] for m in reduced[:3]] + [reduced[3]]
        if len(keep) < len(built):
            reduced_poles = reduced_poles[stable]
        for i, score in zip(keep, norms(model, reduced, reduced_poles)):
            outcomes[i] = score
    return outcomes


def _hinf_norms(model, reduced, poles):
    """:func:`~qmor.analysis.hinf_norm` of each error system, on ``model.poles`` and its row's."""
    outcomes = []
    for error, row_poles in zip(zip(*error_system(model.abcd, reduced)), poles):
        try:
            outcomes.append(hinf_norm(*error, np.concatenate([model.poles, row_poles])).value)
        except QmorError as exc:
            outcomes.append(exc)
    return outcomes


def hinf_costs(problem, candidates):
    """:func:`cost_hinf` of every row of ``candidates``, or the error that makes it infeasible."""
    return _candidate_costs(problem, candidates, _hinf_norms)


def h2_costs(problem, candidates):
    """:func:`cost_h2` of every row of ``candidates``, or the error that makes it infeasible."""
    return _candidate_costs(problem, candidates, h2_error_gramians)


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
    """Frequency-integrated squared error for ``omegas``, exact by the Gramian identity."""
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
    """Deterministic coarse scan plus stacked compass-poll refinement of the point cost.

    The scan uses a logarithmic lattice (64 points for one free frequency,
    16 per dimension otherwise, capped at 4096 evaluations) over
    ``problem.omega_bounds`` or the default grid's window.  The refinement
    is a compass search in log-frequency space (Torczon 1997; Kolda, Lewis
    and Torczon 2003) that starts at the best lattice point with the lattice
    spacing as its step ``h``.  Each pass polls ``x + h k / POLL_RATIO e_i``
    for ``k = +-1..+-POLL_RATIO`` on every free axis ``i`` at once, dropping
    the points outside the window.  A strictly cheaper winner on the outer
    ring (``|k| = POLL_RATIO``) moves ``x`` and keeps ``h``; a cheaper one
    inside it moves ``x`` and shrinks ``h`` ``POLL_RATIO``-fold, as does a
    pass with no cheaper point.  The search stops once ``h`` falls below
    ``log10(1 + REFINE_REL_TOL) / 2``, so its finest passes poll at a
    spacing ``h / POLL_RATIO`` under that resolution.

    The lattice and each poll are scored by :data:`COST_FUNCTIONS` in
    stacked passes against ``problem.full_model``, built once per problem;
    a pass builds only what its candidates change, and only the H-infinity
    level-set iteration still runs per candidate.  A full model that is not
    Hurwitz raises its :class:`~qmor.errors.StabilityError`, with no trace,
    at the first pass that builds a reduced model, before any error norm.  A candidate with
    ``k`` points on an order-``n`` system takes about ``(2 k + 1) n^2``
    complex entries of working memory (its ``k`` shifted matrices, their
    norms and its singular vectors), so one pass holds as many candidates as
    fit in ``linalg.SCAN_BLOCK_BYTES``: the whole lattice of a small system,
    one candidate at a time for a large one.  Every evaluation is one trace row,
    and a candidate the search revisits reuses its cost.  Infeasible
    candidates keep their reason and cost a large finite penalty,
    ``PENALTY_FACTOR`` times the first feasible scan cost, so the search
    continues; an all-infeasible scan raises, with the count and the first
    reason on one line and the trace attached.
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
    axis = np.linspace(log_lo, log_hi, per_dim)
    lattice = np.array(list(itertools.product(axis, repeat=d)))
    n, k = problem.state_matrix().shape[0], problem.expand_points(10.0**lattice[0]).size
    block = max(1, linalg.SCAN_BLOCK_BYTES // ((2 * k + 1) * n * n * 16))
    trace, penalty, scored = [], math.nan, {}

    def evaluate(phase, logs):
        """One trace row per row of log-frequencies, each distinct row scored once per search.

        Fresh rows are scored in blocks of ``block``.  Infeasible rows keep
        their reason and cost ``penalty``.  Returns the new trace rows.
        """
        candidates = 10.0**logs
        keys = list(map(tuple, candidates.tolist()))
        fresh = [k for k, key in enumerate(keys) if key not in scored]
        for start in range(0, len(fresh), block):
            part = fresh[start : start + block]
            for key, outcome in zip([keys[k] for k in part], cost_fn(problem, candidates[part])):
                if isinstance(outcome, Exception):
                    scored[key] = math.nan, False, str(outcome)
                else:
                    scored[key] = outcome, math.isfinite(outcome), ""
        rows = []
        for key in keys:
            value, feasible, reason = scored[key]
            rows.append({
                "phase": phase,
                "omegas": list(key),
                "cost": value if feasible else penalty,
                "feasible": feasible,
                "reason": reason,
            })
        trace.extend(rows)
        return rows

    evaluate("scan", lattice)
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
    x, best = lattice[k], trace[k]

    # The poll directions: k = +-1..+-POLL_RATIO along every free axis, axis by axis.
    ring = np.concatenate([np.arange(-POLL_RATIO, 0), np.arange(1, POLL_RATIO + 1)])
    steps = np.kron(np.eye(d), ring[:, None])
    outer = np.abs(steps).max(axis=1) == POLL_RATIO
    h = (log_hi - log_lo) / max(per_dim - 1, 1)
    while h >= math.log10(1.0 + REFINE_REL_TOL) / 2:
        poll = x + h / POLL_RATIO * steps
        inside = np.all((log_lo <= poll) & (poll <= log_hi), axis=1)
        poll, on_ring = poll[inside], outer[inside]
        rows = evaluate("refine", poll)
        j = int(np.argmin([row["cost"] for row in rows]))
        if rows[j]["cost"] < best["cost"]:
            x, best = poll[j], rows[j]
            if on_ring[j]:
                continue
        h /= POLL_RATIO
    omegas = np.array(best["omegas"], dtype=float)
    return SelectionResult(
        omegas=omegas,
        cost=float(best["cost"]),
        points=problem.expand_points(omegas),
        trace=trace,
    )
