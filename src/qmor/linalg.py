"""Dense linear-algebra kernel used by every other module.

All routines accept real or complex 2-D arrays; real input is simply the
imaginary-part-zero special case.  Matrices here are small (state dimension
of every target system is below twenty), so everything is dense and direct.
The kernels are numpy's LAPACK gufuncs, which solve, decompose and take norms
of a whole stack of matrices in one call.  Every resolvent solve is one call
of the stacked :func:`solve` on a stack built by :func:`shifted`, unchecked
(an exactly singular item reads NaN) or checked item by item through
:func:`solve_stacks`.  ``scipy.linalg`` serves only what numpy lacks: the
LAPACK ``gees`` Schur form of :func:`schur`, which also gives a Hurwitz test,
the ``trsyl`` call of :func:`lyapunov_solve`, and the real Schur form in
:mod:`qmor.symplectic`.
"""

import math

import numpy as np
import scipy.linalg as la

from .errors import SingularMatrixError, StabilityError, StructureError

#: Relative magnitude below which an imaginary part is considered rounding noise.
IMAG_NOISE = 1e-12
#: Bytes of working memory one block of a stacked pass may take: a selection
#: scan's candidates, or the frequencies of an angle-bound grid.
SCAN_BLOCK_BYTES = 2**24


def as_matrix(m, name="matrix", ndim=2):
    """Coerce to an inexact ndarray of ``ndim`` dimensions and reject non-finite entries."""
    arr = np.asarray(m)
    if not np.issubdtype(arr.dtype, np.inexact):
        arr = arr.astype(float)
    if arr.ndim != ndim:
        raise StructureError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise StructureError(f"{name} contains non-finite entries")
    return arr


def rank_and_bases(m):
    """Numerical rank plus orthonormal range and kernel bases via SVD.

    Returns ``(rank, range_basis, kernel_basis)`` where ``range_basis`` has
    ``rank`` orthonormal columns spanning the column space and
    ``kernel_basis`` has ``cols - rank`` orthonormal columns spanning the
    null space.  The rank counts singular values above the scale-invariant
    threshold ``max(rows, cols) * eps * sigma_max``.
    """
    m = as_matrix(m)
    if m.size == 0:
        return 0, np.zeros((m.shape[0], 0)), np.eye(m.shape[1])
    u, s, vh = np.linalg.svd(m)
    rank = int(numerical_rank(s, m.shape))
    return rank, u[:, :rank], vh[rank:].conj().T


def numerical_rank(s, shape):
    """Rank of matrices of ``shape`` from their singular values ``s`` (last axis, descending).

    Counts the values above the scale-invariant threshold
    ``max(rows, cols) * eps * sigma_max``; one rank per item of a stack.
    """
    return np.sum(s > max(shape[-2:]) * np.finfo(s.dtype).eps * s[..., :1], axis=-1)


def unit_columns(m):
    """``m`` with every nonzero column scaled to unit 2-norm, for one matrix or a stack."""
    norms = np.linalg.norm(m, axis=-2)
    return m / np.where(norms == 0.0, 1.0, norms)[..., None, :]


def orthonormal_range(m):
    """Orthonormal basis of the column space of ``m``."""
    return rank_and_bases(m)[1]


def kernel_basis(m):
    """Orthonormal basis of the null space of ``m``."""
    return rank_and_bases(m)[2]


def eigenpairs(m):
    """Eigenvalues and unit-norm eigenvectors of a square matrix.

    Returns ``(values, vectors)`` with ``vectors[:, k]`` the eigenvector of
    ``values[k]``.  No diagonalizability assumption is made by callers; for
    defective matrices the returned vectors are whatever the QR algorithm
    yields for each eigenvalue.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise StructureError(f"eigendecomposition needs a square matrix, got {m.shape}")
    values, vectors = np.linalg.eig(m)
    values, vectors = values.astype(complex, copy=False), vectors.astype(complex, copy=False)
    norms = np.linalg.norm(vectors, axis=0)
    norms[norms == 0] = 1.0
    return values, vectors / norms


def eigenvalues(m):
    """Eigenvalues of a square matrix, always complex."""
    return np.linalg.eigvals(as_matrix(m)).astype(complex, copy=False)


def shifted(a, s):
    """The stack ``s_k I - A_k`` over a 1-D array ``s``; ``a`` is one matrix or one per point."""
    s = np.asarray(s)
    n = a.shape[-1]
    # Copy -A and add s on the diagonals: s * I - A would cast through numpy's
    # large ufunc buffers.
    out = np.broadcast_to(-a.astype(np.result_type(s, a)), (s.size, n, n)).copy()
    out.reshape(s.size, n * n)[:, :: n + 1] += s[:, None]
    return out


def solve(m, b):
    """Solve ``m @ x = b`` for a stack ``m`` of shape ``(..., n, n)`` in one call.

    ``b`` is ``(..., n, p)``, broadcast over the leading axes of ``m``.  Only
    when the stacked call raises are the items solved one by one; an exactly
    singular item then reads NaN.  :func:`solve_stacks` checks the result.
    """
    try:
        return np.linalg.solve(m, b)
    except np.linalg.LinAlgError:
        lead = np.broadcast_shapes(m.shape[:-2], b.shape[:-2])
        m, b = np.broadcast_to(m, lead + m.shape[-2:]), np.broadcast_to(b, lead + b.shape[-2:])
        x = np.full(b.shape, math.nan, np.result_type(m, b))
        for i in np.ndindex(lead):
            try:
                x[i] = np.linalg.solve(m[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return x


def solve_stacks(m, b, context):
    """Solve many stacks of systems in one call, each stack with its own error.

    ``m`` is ``(g, k, n, n)``, ``g`` stacks of ``k`` items with finite entries,
    and ``b`` is ``(g or 1, k or 1, n, p)``.  Returns ``(x, errors)``:
    ``errors[i]`` is ``None`` or the :class:`SingularMatrixError` of stack
    ``i``, and a failing stack does not stop the others.  Each stack is
    checked as a whole, in this order: an exactly singular item (the first
    non-finite one with a zero determinant), a non-finite solution, and a
    residual above ``1e-8 |m_j| |x_j|``; the message names the first failing
    item ``j`` of the first failing check by ``context(i, j)``.
    """
    m = as_matrix(m, ndim=4)
    x = solve(m, b)
    errors = [None] * m.shape[0]

    def fail(i, j, reason, detail=""):
        item = context(i, j)
        label = f" while evaluating {item}" if item else ""
        errors[i] = SingularMatrixError(f"{reason}{label}{detail}")

    # Singular items are caught by the checks below; silence the NaN noise they produce.
    with np.errstate(all="ignore"):
        finite = np.isfinite(x).all(axis=(-2, -1))
        residual = np.linalg.norm(m @ x - b, axis=(-2, -1))
        scale = np.linalg.norm(m, axis=(-2, -1)) * np.maximum(
            np.linalg.norm(x, axis=(-2, -1)), 1e-300
        )
    bad = ~finite | (residual > 1e-8 * scale)
    if not bad.any():
        return x, errors
    for i in np.flatnonzero(bad.any(axis=-1)).tolist():
        nonfinite = np.flatnonzero(~finite[i])
        singular = nonfinite[np.linalg.det(m[i, nonfinite]) == 0]
        if singular.size:
            fail(i, int(singular[0]), "singular matrix", ": Singular matrix")
        elif nonfinite.size:
            fail(i, int(nonfinite[0]), "singular or ill-conditioned matrix")
        else:
            j = int(np.argmax(bad[i]))
            excess = f"solve residual {residual[i, j]:.3e} exceeds 1e-8 of scale {scale[i, j]:.3e}"
            fail(i, j, excess)
    return x, errors


def is_hurwitz(m):
    """True when every eigenvalue of a square matrix has a negative real part."""
    return bool(np.all(np.linalg.eigvals(as_matrix(m)).real < 0))


#: :func:`lyapunov_solve`'s :class:`StabilityError` texts, shared by the stacked H2 costs.
NOT_HURWITZ = "state matrix is not Hurwitz; Lyapunov solution undefined"
POLE_PAIR = (
    "state matrix has a pole pair whose sum is zero to working precision; "
    "Lyapunov solution undefined"
)


def schur(a):
    """Schur form ``a = u t u^H`` from one LAPACK ``gees`` call: ``(t, u, poles)``.

    The flavor follows ``a``'s dtype, as in ``scipy.linalg.schur``: complex
    ``a`` gives an upper triangular ``t`` and its diagonal as ``poles``,
    real ``a`` a quasi-triangular ``t`` and only the real parts of its
    eigenvalues as ``poles``, which is all a Hurwitz test reads.
    """
    (gees,) = la.get_lapack_funcs(("gees",), (a,))
    lwork = gees(_no_sort, a, lwork=-1)[-2][0].real.astype(np.int_)
    # (t, sdim, wr, wi, vs, work, info) for real a, (t, sdim, w, vs, work, info) for complex
    t, _, poles, *_, u, _, info = gees(_no_sort, a, lwork=lwork)
    if info:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return t, u, poles


def lyapunov_solve(a, q):
    """Solve ``a @ p + p @ a^H + q = 0`` for Hurwitz ``a`` and Hermitian ``q``.

    Bartels-Stewart on one Schur form ``a = u r u^H`` (:func:`schur`),
    whose eigenvalues are also the Hurwitz test, then ``trsyl`` on
    ``u^H (-q) u``: the calls of ``scipy.linalg.solve_continuous_lyapunov(a,
    -q)``, in its order, bit for bit.  The result is symmetrized before
    returning.  A non-Hurwitz ``a`` raises :class:`StabilityError` because
    the Gramian integral does not converge, and so does a pole pair whose sum
    is zero to working precision, which ``trsyl`` would perturb.
    """
    a = as_matrix(a, "state matrix")
    q = as_matrix(q, "right-hand side")
    if a.size == 0:  # gees rejects an empty matrix
        return np.zeros(a.shape, np.result_type(a, q))
    r, u, poles = schur(a)
    if not np.all(poles.real < 0):
        raise StabilityError(NOT_HURWITZ)
    f = u.conj().T.dot((-q).dot(u))
    (trsyl,) = la.get_lapack_funcs(("trsyl",), (r, f))
    real = np.isrealobj(a) and np.isrealobj(q)
    y, scale, info = trsyl(r, r, f, tranb="T" if real else "C")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of trsyl")
    if info == 1:
        raise StabilityError(POLE_PAIR)
    y *= scale
    p = u.dot(y).dot(u.conj().T)
    p = (p + p.conj().T) / 2
    if real:
        p = p.real
    return p


def _no_sort(*_):
    """The eigenvalue selector of an unsorted ``gees`` call, never called."""


def spectral_norm(m):
    """Largest singular value (operator 2-norm)."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def frobenius_norm(m):
    return float(np.linalg.norm(np.asarray(m)))


def real_if_close(m):
    """Drop an imaginary part that is below ``IMAG_NOISE`` relative to the matrix scale."""
    m = np.asarray(m)
    if np.isrealobj(m):
        return m
    scale = max(np.abs(m).max(initial=0.0), 1.0)
    if np.abs(m.imag).max(initial=0.0) <= IMAG_NOISE * scale:
        return np.ascontiguousarray(m.real)
    return m
