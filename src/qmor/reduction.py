"""Interpolatory projection reductions that keep the reduced model realizable.

Every reduction follows one recipe.  :func:`projection` turns the
interpolation data into a pair ``(W, V)`` with ``W^H V = I``, and
:func:`compress` forms the Petrov-Galerkin model ``(W^H A V, W^H B, C V, D)``,
whose transfer function matches the original tangentially at every data
point.  Both take a stack of point sets sharing one set of directions, so
the selection search builds the models of its whole scan lattice in one
pass; each reduction is a stack of one.  The three reductions differ only in
how ``(W, V)`` comes from the interpolation subspace:

* left data span ``{(sigma_i I - A)^-H C^H mu_i}``; with ``X`` a real basis
  of that span, ``(W, V) = (X, J_n X J_r^T)``;
* right data span ``{(sigma_i I - A)^-1 B nu_i}``; ``(V, W) = (X, J_n X J_r^T)``;
* passive (annihilation-form) models take ``W = V``, an orthonormal basis of
  the left span, which preserves realizability and passivity at once.

For the two quadrature-form sides the real basis ``Xhat`` is scaled to
``X = Xhat T^T`` with ``T (Xhat^T J_n Xhat) T^T = J_r``
(:func:`~qmor.symplectic.skew_normal_form`).  Since ``J_r^T = J_r^-1`` the
complement ``J_n X J_r^T`` equals the textbook ``J_n X (X^T J_n X)^-1``
without inverting the pairing matrix, so the pair is biorthogonal and ``X``
symplectic up to the rounding of the scaling alone.  These data must be
closed under complex conjugation; the real basis pairs ``(Re v, Im v)`` per
conjugate pair.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DataValidationError, QmorError, RankDeficiencyError
from .symplectic import skew_normal_form
from .systems import (
    AnnihilationSystem,
    QuadratureSystem,
    RealizabilityReport,
    check_realizability,
    symplectic_form,
    transfer,
)

#: Relative tolerance for matching conjugate partners in interpolation data.
CONJUGATION_TOL = 1e-9
#: Stability certificate: minimality threshold relative to ``|G|``, and the
#: relative distance from the imaginary axis below which an eigenvalue is on it.
CERTIFICATE_TOL, CERTIFICATE_AXIS_TOL = 1e-10, 1e-8


@dataclass(frozen=True)
class InterpolationData:
    """Interpolation points with matching tangent directions.

    ``side`` is ``"left"`` (output directions) or ``"right"`` (input
    directions).  ``points[i]`` pairs with the row ``directions[i]``.
    """

    side: str
    points: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise DataValidationError(f"side must be 'left' or 'right', got {self.side!r}")
        points = np.array(self.points, dtype=complex, ndmin=1)
        directions = np.array(self.directions, dtype=complex, ndmin=2)
        if points.ndim != 1:
            raise DataValidationError("points must be a 1-D sequence")
        if directions.shape[0] != points.shape[0]:
            raise DataValidationError(
                f"{points.shape[0]} points but {directions.shape[0]} directions"
            )
        if not np.isfinite(points).all():
            raise DataValidationError(f"point {np.argmin(np.isfinite(points))} is not finite")
        finite = np.isfinite(directions).all(axis=1)
        if not finite.all():
            raise DataValidationError(f"direction {np.argmin(finite)} is not finite")
        nonzero = directions.any(axis=1)
        if not nonzero.all():
            raise DataValidationError(f"direction {np.argmin(nonzero)} is the zero vector")
        underflow = linalg.frobenius_norms(directions, axis=-1) == 0.0
        if underflow.any():
            raise DataValidationError(
                f"direction {np.argmax(underflow)} is nonzero, but its squared entries "
                "underflow and its 2-norm reads zero; scale it up"
            )
        points.setflags(write=False)
        directions.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "directions", directions)

    def __len__(self):
        return self.points.shape[0]


@dataclass(frozen=True)
class ReductionDiagnostics:
    """Numerical evidence attached to every reduction result."""

    interpolation_residuals: np.ndarray
    interpolation_references: np.ndarray
    realizability: RealizabilityReport
    biorthogonality: float
    poles: np.ndarray


@dataclass(frozen=True)
class ReductionResult:
    """Projection pair, reduced model, and diagnostics.

    ``w`` and ``v`` carry the state maps (a reduced initial condition is
    ``w^H x``); no trajectory semantics are attached.  ``diagnostics`` is
    ``None`` for results reconstructed from serialized projection matrices;
    the reducers always populate it.
    """

    w: np.ndarray
    v: np.ndarray
    reduced: QuadratureSystem | AnnihilationSystem
    data: InterpolationData
    diagnostics: ReductionDiagnostics | None


def real_basis_from_conjugate_data(points, directions, vectors):
    """Real matrix spanning (over C) the same space as the complex columns.

    ``vectors[:, i]`` belongs to ``(points[i], directions[i])``.  In order of
    first appearance, each real datum contributes ``Re v`` and each conjugate
    pair ``(Re v, Im v)`` of its first item; the column count is preserved.
    Raises when the data are not closed under conjugation.
    """
    points = np.asarray(points, dtype=complex)
    directions = np.atleast_2d(np.asarray(directions, dtype=complex))
    p_tol = CONJUGATION_TOL * max(1.0, np.abs(points).max(initial=0.0))
    d_tol = CONJUGATION_TOL * max(1.0, np.abs(directions).max(initial=0.0))
    # real[i]: item i is its own conjugate; match[i][j]: item j is the conjugate
    # of item i.  A point gap is measured by hypot, as abs of a complex scalar
    # does; numpy's complex array loop can round it an ulp apart.
    real = ((np.abs(points.imag) <= p_tol) & (np.abs(directions.imag) <= d_tol).all(axis=1)).tolist()
    gap = points - points.conj()[:, None]
    match = (
        (np.hypot(gap.real, gap.imag) <= p_tol)
        & (np.abs(directions - directions.conj()[:, None]) <= d_tol).all(axis=2)
    ).tolist()
    k = points.shape[0]
    used = [False] * k
    columns = []
    for i in range(k):
        if used[i]:
            continue
        columns.append(2 * i)
        if real[i]:
            continue
        partner = next((j for j in range(i + 1, k) if match[i][j] and not used[j]), None)
        if partner is None:
            raise DataValidationError(
                f"data item {i} (point {points[i]}) has no conjugate partner; "
                "quadrature-form reductions need conjugation-closed data"
            )
        used[partner] = True
        columns.append(2 * i + 1)
    # Columns 2i and 2i + 1 of the float view are Re v_i and Im v_i.
    return np.ascontiguousarray(vectors, dtype=complex).view(float)[:, columns]


def _resolvent_columns(system, side, points, directions):
    """Defining vectors of the ``side`` interpolation subspace for every row of ``points``.

    Right data give ``(sigma_i I - A)^-1 B d_i``, left and passive data
    ``(sigma_i I - A)^-H C^H d_i``.  ``points`` is ``(g, k)``; returns the
    ``(g, n, k)`` stack of columns from one stacked solve and the
    :class:`SingularMatrixError` (or ``None``) of each row, whose columns are
    then zero.
    """
    a, b, c, _ = system.state_space()
    labels = points
    if side != "right":
        a, b, points = a.conj().T, c.conj().T, np.conj(points)
    x, errors = linalg.solve_stacks(
        linalg.shifted(a, points.ravel()).reshape(*points.shape, *a.shape),
        (directions @ b.T)[None, ..., None],
        lambda i, j: f"{side} interpolation point {labels[i, j]}",
    )
    x = x[..., 0]
    failed = [i for i, error in enumerate(errors) if error is not None]
    if failed:
        x[failed] = 0.0
    return x.transpose(0, 2, 1), errors


def _subspace_bases(system, side, points, directions):
    """Rank-checked bases of the ``side`` interpolation subspace for every row of ``points``.

    Left/right rows get the real basis of their unit-scaled defining vectors,
    ranked by its singular values alone; passive rows the orthonormal range
    of them, from the same stacked SVD that ranks them.  Returns ``(bases,
    errors, columns)``: one ``(n, k)`` basis and one error (or ``None``) per
    row, and the unscaled defining vectors of :func:`_resolvent_columns`;
    the basis of a failing row is meaningless but finite.
    """
    columns, errors = _resolvent_columns(system, side, points, directions)
    vectors = linalg.unit_columns(columns)
    k = vectors.shape[-1]
    if side == "passive":
        # The first k left singular vectors span the range of the k vectors.
        u, s, _ = np.linalg.svd(vectors)
        bases = u[..., :k]
    else:
        bases = np.zeros(vectors.shape)
        for i, error in enumerate(errors):
            if error is None:
                try:
                    bases[i] = real_basis_from_conjugate_data(points[i], directions, vectors[i])
                except DataValidationError as exc:
                    errors[i] = exc
        s = np.linalg.svd(bases, compute_uv=False)
    ranks = linalg.numerical_rank(s, vectors.shape)
    for i in np.flatnonzero(ranks < k).tolist():
        if errors[i] is None:
            errors[i] = RankDeficiencyError(
                f"{side} interpolation subspace spanned by points "
                f"{np.array2string(points[i], precision=6, max_line_width=np.inf)} has "
                f"dimension {ranks[i]}, expected {k}; interpolation data are degenerate"
            )
    return bases, errors, columns


def _subspace_basis(system, data, side):
    check_data(system, data, side)
    bases, (error,), _ = _subspace_bases(system, side, data.points[None], data.directions)
    if error is not None:
        raise error
    return bases[0]


def left_subspace_basis(system, data):
    """Real basis of the left interpolation subspace (columns unit-scaled)."""
    return _subspace_basis(system, data, "left")


def right_subspace_basis(system, data):
    """Real basis of the right interpolation subspace (columns unit-scaled)."""
    return _subspace_basis(system, data, "right")


def passive_subspace_basis(system, data):
    """Orthonormal complex basis used by the passivity-preserving reduction."""
    return _subspace_basis(system, data, "passive")


def check_data(system, data, side):
    """Raise :class:`DataValidationError` unless ``data`` fit a ``side`` reduction of ``system``."""
    passive = side == "passive"
    if not isinstance(system, AnnihilationSystem if passive else QuadratureSystem):
        form = "an annihilation" if passive else "a quadrature"
        raise DataValidationError(f"{side} reductions need {form}-form system")
    expected = data_side(side)
    if data.side != expected:
        raise DataValidationError(f"{side} reductions use {expected}-side data, got {data.side}")
    if len(data) % 2 and not passive:
        raise DataValidationError("quadrature reductions need an even number of data items")
    ports = system.n_inputs if side == "right" else system.n_outputs
    width = ports if passive else 2 * ports
    if data.directions.shape[1] != width:
        raise DataValidationError(
            f"directions live in C^{data.directions.shape[1]}, the {side} side needs C^{width}"
        )


def _interpolation_residuals(full, reduced, data, columns):
    """Tangential residuals ``|mu^H (Xi - Xi_r)|`` or ``|(Xi - Xi_r) nu|`` and target norms.

    The targets come from the full model's defining vectors ``columns``
    (``(n, k)``, unscaled): ``C x_i + D nu_i`` for right data and
    ``x_i^H B + mu_i^H D`` for left data, since ``x_i`` is
    ``(sigma_i I - A)^-1 B nu_i`` or ``(sigma_i I - A)^-H C^H mu_i``.  Only
    the reduced model is solved here.
    """
    _, b, c, d = full.state_space()
    red_tf = transfer(reduced, data.points)
    if data.side == "left":
        row = data.directions.conj()
        target, got = columns.conj().T @ b + row @ d, (row[:, None, :] @ red_tf)[:, 0]
    else:
        column = data.directions
        target, got = (c @ columns).T + column @ d.T, (red_tf @ column[:, :, None])[..., 0]
    return linalg.frobenius_norms(got - target, axis=-1), linalg.frobenius_norms(target, axis=-1)


def _sorted_poles(state_matrix):
    poles = linalg.eigenvalues(state_matrix)
    order = np.lexsort((poles.imag, poles.real))
    return poles[order]


def _symplectic_pair(basis, n_modes, side):
    """Scaled basis ``X`` with ``X^T J_n X = J_r`` and its complement ``J_n X J_r^T``.

    The pair is biorthogonal, ``(J_n X J_r^T)^T X = I`` up to the residual of
    the scaling, because ``J_r^T = J_r^-1``; no pairing matrix is inverted.
    """
    jn = symplectic_form(n_modes)
    try:
        t = skew_normal_form(basis.T @ jn @ basis).T
    except RankDeficiencyError as exc:
        raise RankDeficiencyError(
            f"the skew pairing matrix of the {side} interpolation subspace is singular; "
            "choose different points or directions"
        ) from exc
    x = basis @ t.T
    return x, jn @ x @ symplectic_form(x.shape[1] // 2).T


def data_side(method):
    """Side of the interpolation data a ``left``, ``right`` or ``passive`` reduction uses."""
    return "right" if method == "right" else "left"


def projection(system, side, points, directions):
    """Projection pairs ``(W, V)`` of a ``left``, ``right`` or ``passive`` reduction.

    One pair per row of ``points`` ``(g, k)``, all rows sharing
    ``directions``, for data that pass :func:`check_data`.  Left data:
    ``W = X``, ``V = J_n X J_r^T`` with ``X`` the scaled left basis.  Right
    data: the same with the roles of ``W`` and ``V`` swapped.  Passive data:
    ``W = V`` the orthonormal basis of the left interpolation subspace.  The
    resolvents, unit scalings and rank tests run once for the whole stack;
    only the symplectic scaling runs row by row.  Returns ``(w, v, errors,
    columns)``: the ``(g, n, k)`` stacks, one error (or ``None``) per row,
    and the ``(g, n, k)`` unscaled resolvent columns the subspaces were
    built from, which give a reduction its interpolation targets (the
    selection search ignores them); where a row has an error, its ``w`` and
    ``v`` are meaningless.
    """
    bases, errors, columns = _subspace_bases(system, side, points, directions)
    if side == "passive":
        return bases, bases, errors, columns
    x, complement = np.zeros((2,) + bases.shape)
    for i, error in enumerate(errors):
        if error is None:
            try:
                x[i], complement[i] = _symplectic_pair(bases[i], system.n_modes, side)
            except QmorError as exc:
                errors[i] = exc
    w, v = (x, complement) if side == "left" else (complement, x)
    return w, v, errors, columns


def compress(system, w, v):
    """The reduced matrices ``(W^H A V, W^H B, C V, D)`` of every pair of the stacks ``w``, ``v``.

    ``A``, ``B`` and ``C`` keep the leading axis of ``w`` and ``v``; ``D``
    is the shared feedthrough.
    """
    a, b, c, d = system.state_space()
    w_h = w.conj().swapaxes(-2, -1)
    return w_h @ a @ v, w_h @ b, c @ v, d


def _reduce(system, data, side, pr_tol):
    """The ``side`` reduction of ``system``: :func:`projection` and :func:`compress` on a stack of one.

    The full model is solved once, for the resolvent columns of the
    projection; the diagnostics take their interpolation targets from those
    columns and solve only the reduced model.
    """
    check_data(system, data, side)
    w, v, (error,), columns = projection(system, side, data.points[None], data.directions)
    if error is not None:
        raise error
    a, b, c, d = compress(system, w, v)
    w, v = w[0], v[0]
    reduced = type(system)(a[0], b[0], c[0], d)
    abs_res, refs = _interpolation_residuals(system, reduced, data, columns[0])
    diagnostics = ReductionDiagnostics(
        interpolation_residuals=abs_res,
        interpolation_references=refs,
        realizability=check_realizability(reduced, pr_tol),
        biorthogonality=linalg.frobenius_norm(w.conj().T @ v - np.eye(w.shape[1])),
        poles=_sorted_poles(reduced.state_space()[0]),
    )
    return ReductionResult(w=w, v=v, reduced=reduced, data=data, diagnostics=diagnostics)


def reduce_left(system, data, pr_tol=1e-8):
    """Left-tangential reduction of a quadrature-form system.

    The reduced transfer matches ``mu_i^H Xi(sigma_i)`` at every data item,
    and the reduced model satisfies the same realizability constraints as the
    original (up to the accuracy of the input model itself).
    """
    return _reduce(system, data, "left", pr_tol)


def reduce_right(system, data, pr_tol=1e-8):
    """Right-tangential reduction of a quadrature-form system.

    The reduced transfer matches ``Xi(sigma_i) nu_i`` at every data item.
    """
    return _reduce(system, data, "right", pr_tol)


def reduce_passive(system, data, pr_tol=1e-10):
    """Galerkin reduction of a passive annihilation-form system.

    Uses an orthonormal basis of the left interpolation subspace for both
    projection sides, so the reduced model stays realizable and completely
    passive.
    """
    return _reduce(system, data, "passive", pr_tol)


@dataclass(frozen=True)
class StabilityCertificate:
    """Stability/minimality evidence for a passive reduction.

    The reduced model is asymptotically stable (equivalently minimal) exactly
    when no eigenvector of the reduced state matrix is annihilated by
    ``G^H V_a``; ``condition_values`` holds those norms per eigenvector.
    """

    stable: bool
    minimal: bool
    eigenvalues: np.ndarray
    condition_values: np.ndarray
    threshold: float
    range_condition: bool
    separation_condition: bool


def passive_stability_certificate(result, g):
    """Evaluate the stability certificate of a passive reduction.

    ``g`` is the coupling matrix of the full-order system the reduction was
    built from.  Two sufficient conditions are also reported: containment of the
    projection subspace in the orthogonal complement of ``ker(G^H)``, and
    separation of every interpolation point from the imaginary-axis
    eigenvalues of the reduced state matrix.
    """
    g = np.asarray(g, dtype=complex)
    v_a = np.asarray(result.v, dtype=complex)
    f_r = result.reduced.F
    values, vectors = np.linalg.eig(f_r)
    condition_values = np.array(
        [np.linalg.norm(g.conj().T @ v_a @ vectors[:, k]) for k in range(values.size)]
    )
    threshold = CERTIFICATE_TOL * max(linalg.spectral_norm(g), 1e-300)
    stable = bool(np.all(values.real < 0.0))
    minimal = bool(np.all(condition_values > threshold))

    coupled_range = linalg.orthonormal_range(g)
    if coupled_range.shape[1] == 0:
        range_condition = False
    else:
        projector = coupled_range @ coupled_range.conj().T
        defect = linalg.spectral_norm(v_a - projector @ v_a)
        range_condition = bool(defect <= 1e-10 * max(1.0, linalg.spectral_norm(v_a)))

    scale = max(linalg.spectral_norm(f_r), 1e-300)
    axis_eigs = values[np.abs(values.real) <= CERTIFICATE_AXIS_TOL * scale]
    if axis_eigs.size == 0:
        separation_condition = True
    else:
        points = np.asarray(result.data.points, dtype=complex)
        gaps = np.abs(points[:, None] - axis_eigs[None, :])
        separation_condition = bool(gaps.min() > CERTIFICATE_AXIS_TOL * scale)

    return StabilityCertificate(
        stable=stable,
        minimal=minimal,
        eigenvalues=values,
        condition_values=condition_values,
        threshold=float(threshold),
        range_condition=range_condition,
        separation_condition=separation_condition,
    )
