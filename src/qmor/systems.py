"""System types for open harmonic-oscillator networks and their structure checks.

Two equivalent descriptions are supported.  The quadrature form uses real
matrices ``(A, B, C, D)`` acting on stacked position/momentum pairs, with
doubled dimensions ``2n, 2m, 2l``.  The annihilation-operator form uses
complex matrices ``(F, G, H, K)`` of plain dimensions ``n, m, l`` and exists
exactly for completely passive systems.

A system represents a genuine physical device only when its matrices satisfy
the realizability constraints checked by :func:`check_realizability`:

* quadrature:   ``A J_n + J_n A^T + B J_m B^T = 0``,
                ``J_n C^T + B J_m D^T = 0``,
                ``D J_m D^T = J_l``;
* annihilation: ``F + F^H + G G^H = 0``,
                ``H^H + G K^H = 0``,
                rows of ``K`` orthonormal (so ``K`` extends to a unitary).
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import StructureError


@functools.lru_cache(maxsize=64)
def symplectic_form(n):
    """Block-diagonal matrix of ``n`` copies of ``[[0, 1], [-1, 0]]``.

    Built once per ``n`` and shared by every caller, so the array is
    read-only; copy it before writing to it.
    """
    if n < 1:
        raise StructureError("symplectic form needs at least one mode")
    j = np.zeros((n, 2, n, 2))
    # The -0.0 entries of np.kron(np.eye(n), [[0, 1], [-1, 0]]), kept bit for bit.
    j[:, 1, :, 0] = -0.0
    k = np.arange(n)
    j[k, 0, k, 1] = 1.0
    j[k, 1, k, 0] = -1.0
    j = j.reshape(2 * n, 2 * n)
    j.setflags(write=False)
    return j


def _frozen_array(value, name, *, real):
    arr = linalg.as_matrix(value, name)
    if real:
        if arr.dtype.kind == "c":
            if np.abs(arr.imag).max(initial=0.0) > 0.0:
                raise StructureError(f"{name} must be real")
            arr = arr.real
        arr = arr.astype(float, copy=True)
    else:
        arr = arr.astype(complex, copy=True)
    arr.setflags(write=False)
    return arr


class _System:
    """Shape rules and port counts shared by both forms.

    A subclass is a frozen dataclass of four matrices in the roles of
    ``(A, B, C, D)``; it declares their names, whether they are real, and the
    channels per port (a quadrature pair is 2, an annihilation operator 1).
    """

    def __post_init__(self):
        names = self._names
        for k in names:
            object.__setattr__(self, k, _frozen_array(getattr(self, k), k, real=self._real))
        a, b, c, d = self.state_space()
        n, m, ell = a.shape[0], b.shape[1], c.shape[0]
        if a.shape != (n, n):
            raise StructureError(f"{names[0]} must be square, got {a.shape}")
        if n % self._per_port or m % self._per_port or ell % self._per_port:
            raise StructureError("quadrature dimensions must be even")
        for name, mat, shape in zip(names[1:], (b, c, d), ((n, m), (ell, n), (ell, m))):
            if mat.shape != shape:
                raise StructureError(f"{name} has shape {mat.shape}, expected {shape}")
        if ell > m:
            raise StructureError("output count exceeds input count")

    @property
    def n_modes(self):
        return self.state_space()[0].shape[0] // self._per_port

    @property
    def n_inputs(self):
        return self.state_space()[1].shape[1] // self._per_port

    @property
    def n_outputs(self):
        return self.state_space()[2].shape[0] // self._per_port


@dataclass(frozen=True)
class QuadratureSystem(_System):
    """Real state-space model ``(A, B, C, D)`` in quadrature coordinates.

    Shapes are ``A: 2n x 2n``, ``B: 2n x 2m``, ``C: 2l x 2n``, ``D: 2l x 2m``
    with ``l <= m``.  ``D`` is stored with its possibly non-square output
    block; selecting ``l < m`` output pairs just drops rows.
    """

    _names, _real, _per_port = "ABCD", True, 2

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def state_space(self):
        """The matrices ``(A, B, C, D)``."""
        return self.A, self.B, self.C, self.D


@dataclass(frozen=True)
class AnnihilationSystem(_System):
    """Complex state-space model ``(F, G, H, K)`` in annihilation operators.

    Shapes are ``F: n x n``, ``G: n x m``, ``H: l x n``, ``K: l x m`` with
    ``l <= m``.
    """

    _names, _real, _per_port = "FGHK", False, 1

    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    K: np.ndarray

    def state_space(self):
        """The matrices ``(F, G, H, K)``, in the roles of ``(A, B, C, D)``."""
        return self.F, self.G, self.H, self.K


@dataclass(frozen=True)
class RealizabilityReport:
    """Frobenius-norm residuals of the three realizability constraints."""

    residuals: tuple
    tol: float

    @property
    def passes(self):
        return max(self.residuals) <= self.tol

    @property
    def max_residual(self):
        return max(self.residuals)


def check_realizability(system, tol=1e-8):
    """Residuals of the physical-realizability constraints for either form."""
    if isinstance(system, QuadratureSystem):
        a, b, c, d = system.state_space()
        jn, jm, jl = map(symplectic_form, (a.shape[0] // 2, b.shape[1] // 2, c.shape[0] // 2))
        r1 = a @ jn + jn @ a.T + b @ jm @ b.T
        r2 = jn @ c.T + b @ jm @ d.T
        r3 = d @ jm @ d.T - jl
    elif isinstance(system, AnnihilationSystem):
        f, g, h, k = system.state_space()
        r1 = f + f.conj().T + g @ g.conj().T
        r2 = h.conj().T + g @ k.conj().T
        r3 = k @ k.conj().T - np.eye(h.shape[0])
    else:
        raise StructureError(f"unsupported system type {type(system).__name__}")
    residuals = tuple(map(linalg.frobenius_norm, (r1, r2, r3)))
    return RealizabilityReport(residuals=residuals, tol=float(tol))


def transfer(system, s):
    """Transfer function ``D + C (sI - A)^-1 B`` (or its annihilation analogue).

    ``s`` is one point, or a 1-D array of points for a stack of values from
    one :func:`~qmor.linalg.solve_stacks` on a stack of one; a pole at a
    point raises :class:`SingularMatrixError` naming it.
    """
    if not isinstance(system, _System):
        raise StructureError(f"unsupported system type {type(system).__name__}")
    a, b, c, d = system.state_space()
    points = np.atleast_1d(s)
    x, (error,) = linalg.solve_stacks(
        linalg.shifted(a, points)[None],
        b[None, None],
        lambda _, k: f"resolvent at s = {points[k]}",
    )
    if error is not None:
        raise error
    values = d + c @ x[0]
    return values if np.ndim(s) else values[0]


def real_embedding(m):
    """Real 2p x 2q image of a complex p x q matrix.

    Each entry ``x + iy`` becomes the 2x2 block ``[[x, -y], [y, x]]`` so the
    embedding is a ring homomorphism that commutes with the symplectic form.
    """
    m = np.asarray(m, dtype=complex)
    p, q = m.shape
    out = np.zeros((2 * p, 2 * q))
    out[0::2, 0::2] = m.real
    out[0::2, 1::2] = -m.imag
    out[1::2, 0::2] = m.imag
    out[1::2, 1::2] = m.real
    return out


def annihilation_to_quadrature(system):
    """Quadrature-form model of a passive system via the real embedding.

    With modes split as ``a_j = (q_j + i p_j) / 2`` and fields carried as
    doubled real quadrature pairs, the scale factors cancel and each matrix
    maps through :func:`real_embedding` unchanged; realizability is preserved
    exactly.
    """
    return QuadratureSystem(
        A=real_embedding(system.F),
        B=real_embedding(system.G),
        C=real_embedding(system.H),
        D=real_embedding(system.K),
    )


def random_realizable_quadrature(n, m, ell, seed):
    """Random exactly-realizable quadrature system (deterministic per seed).

    Construction: draw a symmetric Hamiltonian matrix ``R`` and arbitrary
    ``B``, pick an orthogonal-symplectic ``D`` (real embedding of a random
    unitary, truncated to ``2*ell`` rows), then set
    ``A = 2 J_n R + B J_m B^T J_n / 2`` and ``C^T = J_n B J_m D^T`` so all
    three constraints hold by algebra.
    """
    if ell > m:
        raise StructureError("need ell <= m")
    rng = np.random.default_rng(seed)
    jn = symplectic_form(n)
    jm = symplectic_form(m)
    r_sym = rng.standard_normal((2 * n, 2 * n))
    r_sym = (r_sym + r_sym.T) / 2
    b = rng.standard_normal((2 * n, 2 * m))
    unitary = np.linalg.qr(
        rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    )[0]
    d = real_embedding(unitary)[: 2 * ell, :]
    a = 2 * jn @ r_sym + 0.5 * b @ jm @ b.T @ jn
    c = (jn @ b @ jm @ d.T).T
    return QuadratureSystem(A=a, B=b, C=c, D=d)


def random_realizable_annihilation(n, m, ell, seed):
    """Random exactly-realizable annihilation-form system (deterministic per seed).

    Draws a Hermitian ``Omega`` and coupling ``G``, a ``K`` with orthonormal
    rows, and closes the constraints with ``F = -i Omega - G G^H / 2`` and
    ``H = -K G^H``.
    """
    if ell > m:
        raise StructureError("need ell <= m")
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    omega = (omega + omega.conj().T) / 2
    g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    unitary = np.linalg.qr(
        rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    )[0]
    k = unitary[:ell, :]
    f = -1j * omega - 0.5 * g @ g.conj().T
    h = -k @ g.conj().T
    return AnnihilationSystem(F=f, G=g, H=h, K=k)


def closed_loop_state_matrix(plant, controller):
    """State matrix of the feedback interconnection of a plant and controller.

    ``plant`` is ``(A, B_u, C)`` and ``controller`` is ``(A_c, B_c, C_c)``
    where the controller is driven by the plant output and its own output
    drives the actuation channel:  the loop matrix is
    ``[[A, B_u C_c], [B_c C, A_c]]``.
    """
    a, b_u, c = (linalg.as_matrix(m) for m in plant)
    a_c, b_c, c_c = (linalg.as_matrix(m) for m in controller)
    if b_u.shape[0] != a.shape[0] or c.shape[1] != a.shape[1]:
        raise StructureError("plant matrices have inconsistent dimensions")
    if b_c.shape[0] != a_c.shape[0] or c_c.shape[1] != a_c.shape[1]:
        raise StructureError("controller matrices have inconsistent dimensions")
    if b_u.shape[1] != c_c.shape[0] or b_c.shape[1] != c.shape[0]:
        raise StructureError("plant/controller port dimensions do not match")
    return np.block([[a, b_u @ c_c], [b_c @ c, a_c]])
