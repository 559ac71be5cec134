"""Dense linear-algebra kernel used by every other module.

All routines accept real or complex 2-D arrays; real input is simply the
imaginary-part-zero special case.  Matrices here are small (state dimension
of every target system is below twenty), so everything is dense and direct.
The kernels are numpy's LAPACK gufuncs, which solve, decompose and take norms
of a whole stack of matrices in one call: :func:`solve` checks every item of
a stack of resolvent matrices built by :func:`shifted`.  ``scipy.linalg``
serves only what numpy lacks: the Lyapunov solver here and the real Schur
form in :mod:`qmor.symplectic`.
"""

import numpy as np
import scipy.linalg as la

from .errors import SingularMatrixError, StabilityError, StructureError

#: Relative magnitude below which an imaginary part is considered rounding noise.
IMAG_NOISE = 1e-12


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
    rank = int(np.sum(s > max(m.shape) * np.finfo(m.dtype).eps * s[0]))
    return rank, u[:, :rank], vh[rank:].conj().T


def unit_columns(m):
    """``m`` with every nonzero column scaled to unit 2-norm."""
    norms = np.linalg.norm(m, axis=0)
    return m / np.where(norms == 0.0, 1.0, norms)


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


def solve(m, rhs, context=None):
    """Solve ``m @ x = rhs`` for square nonsingular ``m``, or for every item of a stack.

    ``m`` is ``(n, n)`` with ``rhs`` ``(n,)`` or ``(n, p)``, or a stack
    ``(k, n, n)`` with ``rhs`` ``(k, n)`` or ``(k, n, p)`` (or ``(1, n, p)``,
    shared), solved in one call.  Every item must give a finite solution with
    residual at most ``1e-8 |m_k| |x_k|``.  ``context`` (a sequence for a
    stack) names what produced each item, such as its interpolation point;
    the :class:`SingularMatrixError` of a failing item carries it.
    """
    stacked = np.ndim(m) == 3
    m = as_matrix(m, ndim=3 if stacked else 2)
    rhs = np.asarray(rhs)
    vector = rhs.ndim == m.ndim - 1
    # Explicit column and stack axes: numpy 1.x and 2.x read a (k, n) right-hand
    # side of a stack differently.
    ms = m if stacked else m[None]
    b = rhs[..., None] if vector else rhs
    b = b if stacked else b[None]

    def fail(k, reason, detail=""):
        item = context[k] if stacked and context is not None else context
        label = f" while evaluating {item}" if item else ""
        return SingularMatrixError(f"{reason}{label}{detail}")

    try:
        # Singular inputs are caught by the checks below; silence the
        # intermediate divide-by-zero noise they produce.
        with np.errstate(all="ignore"):
            x = np.linalg.solve(ms, b)
    except np.linalg.LinAlgError as exc:
        # The stacked call does not say which item has a zero pivot; det does.
        raise fail(int(np.argmax(np.linalg.det(ms) == 0)), "singular matrix", f": {exc}") from exc
    finite = np.isfinite(x).all(axis=(1, 2))
    if not finite.all():
        raise fail(int(np.argmin(finite)), "singular or ill-conditioned matrix")
    residual = np.linalg.norm(ms @ x - b, axis=(1, 2))
    scale = np.linalg.norm(ms, axis=(1, 2)) * np.maximum(np.linalg.norm(x, axis=(1, 2)), 1e-300)
    bad = residual > 1e-8 * scale
    if bad.any():
        k = int(np.argmax(bad))
        raise fail(k, f"solve residual {residual[k]:.3e} exceeds 1e-8 of scale {scale[k]:.3e}")
    x = x[..., 0] if vector else x
    return x if stacked else x[0]


def is_hurwitz(m):
    """True when every eigenvalue has a negative real part."""
    return bool(np.all(eigenvalues(m).real < 0))


def lyapunov_solve(a, q):
    """Solve ``a @ p + p @ a^H + q = 0`` for Hurwitz ``a`` and Hermitian ``q``.

    The result is symmetrized before returning.  A non-Hurwitz ``a`` raises
    :class:`StabilityError` because the Gramian integral does not converge.
    """
    a = as_matrix(a, "state matrix")
    q = as_matrix(q, "right-hand side")
    if not is_hurwitz(a):
        raise StabilityError("state matrix is not Hurwitz; Lyapunov solution undefined")
    p = la.solve_continuous_lyapunov(a, -q)
    p = (p + p.conj().T) / 2
    if np.isrealobj(a) and np.isrealobj(q):
        p = p.real
    return p


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
