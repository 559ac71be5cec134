"""Error analysis: exact pointwise identities, H-infinity norms and bounds, H2 costs.

The reduction error admits exact expressions through two oblique projectors,

    ``Q(s) = (sI - A) V (sI - A_r)^-1 W^H``,
    ``R(s) = V (sI - A_r)^-1 W^H (sI - A)``,

namely ``|Xi(s) - Xi_r(s)| = |C (sI-A)^-1 (I - Q(s)) B| = |C (I - R(s))
(sI-A)^-1 B|``.  Splitting ``I - Q`` through orthogonal projectors onto the
interpolation subspace's complement and the frequency-dependent kernel of the
projector yields computable H-infinity upper bounds whose angle factor is the
secant of the largest principal angle between those subspaces.  Its cosine is
the smallest singular value of the product of their orthonormal bases
(Bjorck and Golub, Math. Comp. 1973), which stays accurate near 90 degrees,
where ``1 - sin^2`` cancels.

Every error value comes from one error system, :func:`error_system`, the
model ``Xi - Xi_r`` of order ``n + r``: its gain ``|C_e (sI - A_e)^-1 B_e|``
gives the grid curves, the surface and the level-set confirmations, and its
Gramian the exact H2 cost.  Its H-infinity norm is computed by the Hamiltonian
level-set method (Boyd and Balakrishnan; Bruinsma and Steinbuch; Systems &
Control Letters 1990): :func:`hinf_norm` returns a value the error attains,
its frequency, and a certified upper value within a relative ``2 tol`` of it.
Its poles, those of ``A_e = diag(A, A_r)``, are the full model's Schur
diagonal and one eigenvalue call on ``A_r`` (:func:`_stable_pair`).
The angle bounds are suprema of their integrands over a dense logarithmic
grid, refined around the best local maxima by Brent's bounded search
(parabolic steps, golden-section steps where a parabola is not acceptable),
so they are refined lower-bound estimates of the bound functions.  A real
model's integrand is even in frequency, so a maximum at ``omega = 0`` is
refined on a bracket mirrored about 0.

``A_e = diag(A, A_r)``, so the error Gramian splits into the full model's
Gramian ``P``, an ``n x r`` Sylvester block ``X`` and the reduced Gramian
``P_r``, and the H2 cost is ``2 pi [tr(C P C^H) - 2 Re tr(C X C_r^H) +
tr(C_r P_r C_r^H)]`` (Gugercin, Antoulas and Beattie, SIAM J. Matrix Anal.
Appl. 30(2), 2008).  Only ``X`` and ``P_r`` depend on the reduced model.
The rest is the full model's, from :func:`prepare_model`: one complex
Schur form, whose triangular factor turns ``X`` into row-by-row solves
(Golub, Nash and Van Loan, IEEE TAC 24(6), 1979), and ``tr(C P C^H)``, its
Gramian solved on that same pair when first read.  :func:`h2_error_gramians`
scores a stack of reduced models against it; :func:`h2_norm`, the test
oracle, is the Gramian term of a single system of any order.

Evaluation is batched: :func:`sweep` solves ``(s_k I - A) X_k = B`` for as
many points at once as ``linalg.SCAN_BLOCK_BYTES`` hold, a gain solves on
the narrow side of ``B`` and ``C``, and every frequency integrand maps an
array of frequencies to an array of values.  The angle bounds have one
integrand, evaluated in Schur coordinates: the same prepared Schur form of
``A`` serves the left and the right term, which are stacked on a leading
axis, and the resolvent is a back-substitution over the whole grid (Laub,
IEEE TAC 26(2), 1981).  The few points of a refinement step take their own
routine, :func:`_angle_step`: one broadcast LU solve, whose layout they
keep, and one product with each term's port rows ``[C U; U_perp^H U]``.  A
kernel of at most two columns takes closed forms, with no QR, SVD or
``eigvalsh`` per point: Gram-Schmidt applied twice, 2 x 2 Gram eigenvalues
and ``|det| / sigma_max`` for the cosine; a wider one takes stacked QR,
``eigvalsh`` and SVD.  The grid values are the integrand's own:
each term's grid maximum is its first estimate, and the brackets of its best
grid maxima advance, for every term at once, in one lockstep search.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import QmorError, StabilityError
from .systems import transfer

DEFAULT_GRID_COUNT = 2000
#: Bracket refinement: local grid maxima per term, relative final bracket width.
REFINE_TOP, REFINE_REL_WIDTH = 3, 1e-6
#: Angle-bound calls of at most this many points, all terms counted, take :func:`_angle_step`.
FEW_POINTS = 6
#: Relative gap between the certified upper and the attained lower H-infinity value.
LEVEL_SET_TOL = 1e-10
#: A Hamiltonian eigenvalue is a crossing candidate when ``|Re| <= AXIS_TOL (|lambda| + |H|_1)``.
AXIS_TOL = 1e-6
MAX_LEVEL_SET_ITERATIONS = 30
#: Samples within this relative gap of the largest one tie for :func:`hinf_norm`'s peak frequency.
PEAK_TIE_REL = 1e-13
#: Composite Gauss-Legendre rule of :func:`h2_error_quadrature`: panels, nodes per panel.
H2_PANELS, H2_NODES = 64, 32
#: Points per axis of :func:`error_surface`'s default rectangle.
SURFACE_COUNT = 41


def _abcd(system):
    """``system.state_space()``, or a plain ``(A, B, C, D)`` tuple as arrays."""
    if hasattr(system, "state_space"):
        return system.state_space()
    a, b, c, d = system
    return (np.asarray(a), np.asarray(b), np.asarray(c), np.asarray(d))


def _reduced_operand(obj):
    return getattr(obj, "reduced", obj)


@dataclass(frozen=True)
class GridSpec:
    """Logarithmic frequency grid, optionally mirrored to negative omega."""

    wmin: float
    wmax: float
    count: int = DEFAULT_GRID_COUNT
    two_sided: bool = False

    def frequencies(self):
        base = np.logspace(math.log10(self.wmin), math.log10(self.wmax), self.count)
        parts = [np.array([0.0]), base]
        if self.two_sided:
            parts.append(-base)
        return np.unique(np.concatenate(parts))


def default_grid(*state_matrices, count=DEFAULT_GRID_COUNT):
    """Grid spanning two decades beyond the eigenvalue magnitudes of the inputs."""
    mags = []
    two_sided = False
    for m in state_matrices:
        m = np.asarray(m)
        if m.size == 0:
            continue
        two_sided = two_sided or np.iscomplexobj(m)
        mags.append(np.abs(linalg.eigenvalues(m)))
    mags = np.concatenate(mags) if mags else np.array([])
    mags = mags[mags > 0]
    if mags.size == 0:
        wmin, wmax = 1e-2, 1e2
    else:
        wmin, wmax = 1e-2 * mags.min(), 1e2 * mags.max()
    return GridSpec(wmin=float(wmin), wmax=float(wmax), count=count, two_sided=two_sided)


def _grid_values(f, s, b):
    """``f`` over ``s`` in blocks of ``linalg.SCAN_BLOCK_BYTES``, ``n (n + m)`` entries a point."""
    block = max(1, linalg.SCAN_BLOCK_BYTES // (16 * b.shape[0] * sum(b.shape)))
    return np.concatenate([f(s[k : k + block]) for k in range(0, max(s.size, 1), block)])


def _bounded_brent(lo, hi):
    """Brent's bounded minimization on ``[lo, hi]`` as a coroutine.

    Scipy's ``minimize_scalar(method="bounded")`` step for step (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 5; the
    ``fmin`` of Forsythe, Malcolm and Moler): parabolic steps through the
    three best points where they are acceptable, golden-section steps
    elsewhere, and scipy's stopping test with the absolute tolerance
    ``xatol = REFINE_REL_WIDTH max(1, |lo|, |hi|) / 2``.  Yields each point
    to evaluate, takes the function's value there, and returns the best
    ``(value, point)``.
    """
    golden_mean, sqrt_eps = 0.5 * (3.0 - math.sqrt(5.0)), math.sqrt(2.2e-16)
    xatol = REFINE_REL_WIDTH * max(1.0, abs(lo), abs(hi)) / 2
    a, b = lo, hi
    # x is the best point so far, w the second best, v the previous w (scipy's xf, nfc, fulc).
    x = w = v = a + golden_mean * (b - a)
    fx = fw = fv = yield x
    e = rat = 0.0
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(x) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(x - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                rat = (p + 0.0) / q
                if (x + rat) - a < tol2 or b - (x + rat) < tol2:
                    rat = tol1 if xm >= x else -tol1
        if golden:
            e = (a if x >= xm else b) - x
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        u = x + step if rat >= 0 else x - step
        fu = yield u
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
    return fx, x


def _lockstep_maxima(f, terms, lo, hi):
    """Maxima of ``f(terms, .)`` on brackets ``[lo_j, hi_j]``: :func:`_bounded_brent` of ``-f``.

    The searches run in lockstep: each step makes one batched call of ``f``
    at the next point of every search that has not stopped.  Returns the
    best value of every bracket and the point where ``f`` took it.
    """
    searches = [_bounded_brent(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
    best = [None] * len(searches)
    active = list(range(len(searches)))
    points = [next(search) for search in searches]
    while active:
        values = f(terms[active], np.array(points))
        still, points = [], []
        for j, value in zip(active, (-values).tolist()):
            try:
                points.append(searches[j].send(value))
                still.append(j)
            except StopIteration as stop:
                best[j] = stop.value
        active = still
    value, point = (np.array(column) for column in zip(*best))
    return -value, point


def grid_suprema(f, omegas, grid, even=False):
    """Supremum of every term of ``f`` over the grid, refined around its best local maxima.

    ``f`` maps an array of term labels in ``range(len(grid))`` and an array
    of frequencies to an array of values, and ``grid[t]`` holds term ``t``'s
    values on ``omegas``.  Each term's grid maximum is its first estimate,
    and the brackets of its ``REFINE_TOP`` best local maxima advance in one
    lockstep bounded search for all terms (:func:`_lockstep_maxima`).  A
    term with an infinite grid value reads ``inf`` at the first one and is
    not refined.  With ``even``, ``f`` is even in frequency and a maximum at
    ``omegas[0] == 0`` is bracketed by ``[-omegas[1], omegas[1]]``: on ``[0,
    omegas[1]]`` the search, which never lands on an end, would only creep
    toward 0.  Ties break toward lower frequency.  Returns one ``(value,
    omega)`` pair per term.
    """
    omegas = np.asarray(omegas, dtype=float)
    grid = np.asarray(grid, dtype=float)
    n = grid.shape[1]
    top = np.argmax(grid, axis=1)
    best = list(zip(np.max(grid, axis=1).tolist(), omegas[top].tolist()))
    prev = np.maximum(np.arange(n) - 1, 0)
    after = np.minimum(np.arange(n) + 1, n - 1)
    labels, index = [], []
    for term, values in enumerate(grid):
        if math.isinf(best[term][0]):
            continue
        peaks = np.flatnonzero((values >= values[prev]) & (values >= values[after]))
        chosen = sorted(peaks, key=lambda i: (-values[i], omegas[i]))[:REFINE_TOP]
        labels += [term] * len(chosen)
        index += chosen
    labels, index = np.array(labels, dtype=int), np.array(index, dtype=int)
    lo = omegas[np.maximum(index - 1, 0)]
    hi = omegas[np.minimum(index + 1, n - 1)]
    mirror = even & (index == 0) & (lo == 0.0)
    lo[mirror] = -hi[mirror]
    # A one-point grid has no bracket; its only point is the grid maximum.
    refine = hi > lo
    if not refine.any():
        return best
    labels = labels[refine]
    values, points = _lockstep_maxima(f, labels, lo[refine], hi[refine])
    points = np.where(mirror[refine], np.abs(points), points)
    for term, value, omega in zip(labels.tolist(), values.tolist(), points.tolist()):
        best_value, best_omega = best[term]
        if value > best_value or (value == best_value and omega < best_omega):
            best[term] = (value, omega)
    return best


def sweep(a, b, s):
    """Stacked resolvent solves ``X[k] = (s_k I - A)^-1 B`` over a 1-D array ``s``.

    An exactly singular point reads NaN (:func:`~qmor.linalg.solve`).
    """
    # b[None]: a stack of one matrix on every numpy version, never a stack of vectors.
    return linalg.solve(linalg.shifted(a, s), b[None])


def _gains(a, b, c, s, singular=math.inf):
    """``|C (s_k I - A)^-1 B|`` over a 1-D ``s``, on the narrow side; ``singular`` where singular."""
    narrow = c.shape[0] < b.shape[1]  # p < m: Y_k^T B with (s_k I - A)^T Y_k = C^T, p right sides
    stack = sweep(a.T, c.T, s).swapaxes(1, 2) @ b if narrow else c @ sweep(a, b, s)
    finite = np.isfinite(stack).all(axis=(1, 2))
    out = np.full(stack.shape[0], singular)
    out[finite] = np.linalg.svd(stack[finite], compute_uv=False)[:, 0]
    return out


def _check_feedthrough(d1, d2):
    """Every reduction keeps the feedthrough; a difference raises :class:`StabilityError`."""
    if linalg.frobenius_norm(d1 - d2) > 0:
        raise StabilityError("feedthrough terms differ; the error system is not strictly proper")


def error_system(full, reduced):
    """``(A_e, B_e, C_e)`` of ``Xi - Xi_r``, a system of order ``n + r``.

    Every reduction keeps the feedthrough, so the error system is strictly
    proper; a feedthrough difference raises :class:`StabilityError`.  The
    reduced ``A``, ``B`` and ``C`` may carry a leading axis, a stack of
    reduced models, and so do the error matrices then.
    """
    a1, b1, c1, d1 = _abcd(full)
    a2, b2, c2, d2 = _abcd(_reduced_operand(reduced))
    _check_feedthrough(d1, d2)
    lead, n1 = a2.shape[:-2], a1.shape[0]
    a_e = np.zeros(lead + (n1 + a2.shape[-1],) * 2, np.result_type(a1, a2))
    a_e[..., :n1, :n1], a_e[..., n1:, n1:] = a1, a2
    b_e = np.concatenate([np.broadcast_to(b1, lead + b1.shape), b2], axis=-2)
    return a_e, b_e, np.concatenate([np.broadcast_to(c1, lead + c1.shape), -c2], axis=-1)


def _stable_pair(full, reduced):
    """:func:`prepare_model` of ``full`` and the poles of ``A_e = diag(A, A_r)``.

    The full poles are the Schur diagonal, the reduced ones one eigenvalue
    call.  A model that is not Hurwitz raises :class:`StabilityError`, and
    then a feedthrough difference.
    """
    model = prepare_model(full)
    a_r, _, _, d_r = _abcd(_reduced_operand(reduced))
    poles = np.concatenate([model.poles, linalg.eigenvalues(a_r)])
    if not np.all(poles.real < 0):
        raise StabilityError(linalg.NOT_HURWITZ)
    _check_feedthrough(model.abcd[3], d_r)
    return model, poles


@dataclass(frozen=True)
class HinfEstimate:
    """An H-infinity norm: a value the curve attains, its frequency, and a certified upper value."""

    value: float
    peak_omega: float
    upper: float
    iterations: int


def _peak_frequency(w, sampled, value):
    """Where the samples ``sampled`` at ``w`` reach ``value``, their maximum.

    Every sample within ``PEAK_TIE_REL`` of ``value`` ties for it: the
    nonnegative frequencies come first, then the smallest ``|w|``.  So the
    mirrored flat tops of a two-sided curve, which rounding orders at random,
    report one sign.
    """
    tied = w[sampled >= value * (1.0 - PEAK_TIE_REL)]
    return float(tied[np.lexsort((np.abs(tied), tied < 0))[0]])


def hinf_norm(a, b, c, poles, omegas=None, values=None):
    """H-infinity norm of ``C (sI - A)^-1 B`` by the Hamiltonian level-set method.

    ``poles`` are the eigenvalues of ``A``, from the caller: only the
    Hamiltonian is eigensolved here.  The lower value starts as the largest
    ``sigma_max`` at 0, at the poles' frequencies and magnitudes, and in
    ``values``, samples of the curve at ``omegas`` that the caller already
    holds.  Each step takes the eigenvalues of ``H = [[A, B B^H / g], [-C^H
    C / g, -A^H]]`` at ``g = (1 + 2 LEVEL_SET_TOL) lower``: ``i w`` is one
    exactly when ``g`` is a singular value at ``w`` (Boyd and Balakrishnan;
    Bruinsma and Steinbuch).  The candidates near the imaginary axis are
    confirmed by evaluating ``sigma_max`` at each of them and between
    neighbours, so the lower value is always attained.  When no candidate
    raises it, no interval of the curve lies above ``g``, which is returned
    as the certified upper value.  Not so when the axis test admits
    Hamiltonian eigenvalues of a repeated, lightly damped pole, which lie off
    the axis, and every sample among them lies below ``g``: the upper value
    can then lie below the curve (2.0440927879 against 2.0440928058 on one
    untied ex1 search row).  The peak frequency is that of the lower
    value among every sample taken, near ties broken by
    :func:`_peak_frequency`; real systems report ``w >= 0``.  Poles not all
    in the open left half-plane (one on the axis included) read ``inf``;
    ``MAX_LEVEL_SET_ITERATIONS`` steps without convergence raise
    :class:`QmorError`.
    """
    a, b, c, poles = (np.asarray(m) for m in (a, b, c, poles))
    real = not any(np.iscomplexobj(m) for m in (a, b, c))
    if not np.all(poles.real < 0):
        pole = poles[np.argmax(poles.real)]
        return HinfEstimate(math.inf, float(abs(pole.imag) if real else pole.imag), math.inf, 0)

    def curve(w):  # each distinct frequency once
        w = np.unique(np.abs(w) if real else w)
        return w, _gains(a, b, c, 1j * w)

    mags = np.abs(poles)
    w, sampled = curve(np.concatenate([[0.0], poles.imag, mags, -mags]))
    if omegas is not None:
        w, sampled = np.concatenate([omegas, w]), np.concatenate([values, sampled])
    lower = float(sampled.max())
    if lower == 0.0 or math.isinf(lower):
        return HinfEstimate(lower, _peak_frequency(w, sampled, lower), lower, 0)
    bb, cc, a_h = b @ b.conj().T, c.conj().T @ c, -a.conj().T
    for iteration in range(1, MAX_LEVEL_SET_ITERATIONS + 1):
        gamma = (1.0 + 2.0 * LEVEL_SET_TOL) * lower
        h = np.block([[a, bb / gamma], [-cc / gamma, a_h]])
        eig = np.linalg.eigvals(h)
        scale = np.abs(h).sum(axis=0).max()
        crossings = np.sort(eig.imag[np.abs(eig.real) <= AXIS_TOL * (np.abs(eig) + scale)])
        if crossings.size == 0:
            return HinfEstimate(lower, _peak_frequency(w, sampled, lower), gamma, iteration)
        step_w, step = curve(np.concatenate([crossings, (crossings[:-1] + crossings[1:]) / 2]))
        w, sampled = np.concatenate([w, step_w]), np.concatenate([sampled, step])
        if step.max() <= lower:
            return HinfEstimate(lower, _peak_frequency(w, sampled, lower), gamma, iteration)
        lower = float(step.max())
    raise QmorError(
        f"H-infinity level-set iteration did not converge in {MAX_LEVEL_SET_ITERATIONS} steps"
    )


def hinf_error(full, result, grid=None):
    """H-infinity norm of ``Xi - Xi_r`` (:func:`hinf_norm` of :func:`error_system`).

    Poles from :func:`_stable_pair`; samples on ``grid``, when given, seed the lower value.
    """
    model, poles = _stable_pair(full, result)
    system = error_system(model.abcd, result)
    if grid is None:
        return hinf_norm(*system, poles)
    omegas = grid.frequencies()
    values = _grid_values(lambda w: _gains(*system, 1j * w), omegas, system[1])
    return hinf_norm(*system, poles, omegas, values)


@dataclass(frozen=True)
class ExactErrorIdentity:
    """The three equivalent pointwise error expressions and projector residuals."""

    direct: float
    via_q: float
    via_r: float
    q_idempotency: float
    r_idempotency: float


def error_exact(full, result, s):
    """Evaluate the three exact error expressions at one complex point.

    The projectors ``Q(s)`` and ``R(s)`` are realized explicitly.  A pole of
    either model at ``s`` raises :class:`SingularMatrixError`.
    """
    direct = linalg.spectral_norm(transfer(full, s) - transfer(result.reduced, s))
    a, b, c, _ = full.state_space()
    a_r = result.reduced.state_space()[0]
    eye = np.eye(a.shape[0])
    shifted = s * eye - a
    core = result.v @ np.linalg.solve(s * np.eye(a_r.shape[0]) - a_r, result.w.conj().T)
    q, r = shifted @ core, core @ shifted
    via_q = linalg.spectral_norm(c @ np.linalg.solve(shifted, (eye - q) @ b))
    via_r = linalg.spectral_norm(c @ (eye - r) @ np.linalg.solve(shifted, b))
    q_scale = max(linalg.spectral_norm(q), 1e-300)
    r_scale = max(linalg.spectral_norm(r), 1e-300)
    return ExactErrorIdentity(
        direct=direct,
        via_q=via_q,
        via_r=via_r,
        q_idempotency=linalg.spectral_norm(q @ q - q) / q_scale,
        r_idempotency=linalg.spectral_norm(r @ r - r) / r_scale,
    )


def _dots(x, y):
    """``sum_i conj(x_i) y_i`` over the second last axis of two stacks (``np.sum``, unwrapped)."""
    return np.add.reduce(x.conj() * y, axis=-2)


def _orthonormal_columns(z):
    """An orthonormal basis of each matrix of an ``(..., n, points, k)`` stack, in that layout.

    Up to two columns, Gram-Schmidt applied twice, which leaves them
    orthonormal to working precision (Giraud, Langou and Rozloznik, Comput.
    Math. Appl. 50, 2005) in elementwise products over the state axis; wider
    stacks take one stacked QR.
    """
    if z.shape[-1] > 2:
        return np.moveaxis(np.linalg.qr(np.moveaxis(z, -3, -2))[0], -2, -3)
    q = np.empty(z.shape, complex)
    for j in range(z.shape[-1]):
        v = z[..., j]
        for _ in range(2):
            for i in range(j):
                v = v - q[..., i] * _dots(q[..., i], v)[..., None, :]
        q[..., j] = v / np.sqrt(_dots(v, v).real)[..., None, :]
    return q


def _gram_norms(stack):
    """Spectral norm of every matrix of an ``(..., rows, points, cols)`` stack.

    The square root of the top eigenvalue of its smaller Gram matrix: in
    closed form, ``(a + d) / 2 + hypot((a - d) / 2, |b|)``, when that matrix
    is 1 x 1 or 2 x 2, and from a stacked ``eigvalsh`` when it is larger.
    """
    if stack.shape[-3] < stack.shape[-1]:
        stack = np.swapaxes(stack, -3, -1)  # M^T: the same singular values
    width = stack.shape[-1]
    if width > 2:
        x = np.moveaxis(stack, -2, -3)
        return _gram_roots(np.swapaxes(x.conj(), -1, -2) @ x)
    x, y = stack[..., 0], stack[..., -1]
    a = _dots(x, x).real
    if width == 1:
        return np.sqrt(a)
    return _top_root(a, _dots(y, y).real, _dots(x, y))


def _top_root(a, d, b):
    """Square root of the top eigenvalue of the Hermitian ``[[a, b], [conj(b), d]]``."""
    return np.sqrt((a + d) / 2 + np.hypot((a - d) / 2, np.abs(b)))


def _gram_roots(gram):
    """Square root of the top eigenvalue of every ``k x k`` Hermitian matrix of a stack.

    The closed forms of :func:`_gram_norms` for ``k <= 2``, ``eigvalsh`` above.
    """
    k = gram.shape[-1]
    if k > 2:
        return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
    a = gram[..., 0, 0].real
    if k == 1:
        return np.sqrt(a)
    return _top_root(a, gram[..., 1, 1].real, gram[..., 0, 1])


def _sigma_min(m, top):
    """Smallest singular value of every matrix of a ``(..., k, k)`` stack; ``top()`` the largest.

    ``|x|`` for ``k = 1`` and ``|det| / top()`` for ``k = 2``, which is
    exactly 0 for a singular matrix and as accurate, absolutely, as an SVD;
    a stacked ``svd`` for wider ones.  Only ``k = 2`` calls ``top``, which
    the caller holds or computes in its own layout.
    """
    k = m.shape[-1]
    if k > 2:
        return np.linalg.svd(m, compute_uv=False)[..., -1]
    if k == 1:
        return np.abs(m[..., 0, 0])
    det, top = np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]), top()
    return np.divide(det, top, out=np.zeros_like(det), where=top > 0.0)


def _angle_integrand(t, rhs, ports, k, s):
    """Angle-bound integrand ``|C Q_u| |U_perp^H (sI-A)^-1 B| / cos(theta)`` in Schur coordinates.

    Row ``j`` of the frequencies ``s`` belongs to one term: ``t[j]`` is the
    triangular factor of a complex Schur form ``A = U T U^H``, ``rhs[j] =
    U^H [B | kernel]`` with ``kernel`` spanning ``ker(basis^H)``, and
    ``ports[j] = [C U; U_perp^H U]``, its last ``k`` rows for the ``k``
    kernel columns.  ``(sI - A)^-1 [B | kernel] = U Z`` with ``Z = (sI -
    T)^-1 rhs``, and ``Q``, an orthonormal basis of the kernel block of
    ``Z``, stands for ``U^H Q_u``, ``Q_u`` spanning ``ker(basis^H (sI-A))``:
    ``|C U Q|`` and ``|U_perp^H U Z_B|`` are :func:`_gram_norms`, and
    ``cos(theta)`` is the smallest singular value of ``U_perp^H U Q``
    (Bjorck and Golub, Math. Comp. 1973), :func:`_sigma_min`.  For ``k <=
    2`` all three are closed forms, with no QR, SVD or ``eigvalsh`` per
    point.  The value is ``inf`` where the cosine is 0.

    ``Z`` is a back-substitution over every point of every row in ``n``
    batched products (Laub, IEEE TAC 26(2), 1981), a block of points at a
    time: ``Z`` and ``Q``, about ``n (m + 2 k)`` complex entries per point,
    take at most ``linalg.SCAN_BLOCK_BYTES``.  A few points take
    :func:`_angle_step` instead.
    """
    g, n, width = rhs.shape
    m = width - k
    cu, pu = ports[:, :-k], ports[:, -k:]
    block = max(1, linalg.SCAN_BLOCK_BYTES // (16 * g * n * (width + k)))
    out = []
    for start in range(0, s.shape[1], block):
        sb = s[:, start : start + block]
        points = sb.shape[1]
        # Row i of Z at every point at once: (s - t_ii) z_i = rhs_i + t_i,i+1: Z_i+1:.
        z = np.empty((g, n, points, width), complex)
        for i in reversed(range(n)):
            row = t[:, i, None, i + 1 :] @ z[:, i + 1 :].reshape(g, n - i - 1, points * width)
            z[:, i] = rhs[:, i, None] + row.reshape(g, points, width)
            z[:, i] /= (sb - t[:, i, i, None])[..., None]
        q = _orthonormal_columns(z[..., m:])
        t1 = _gram_norms((cu @ q.reshape(g, n, -1)).reshape(g, -1, points, k))
        z[..., m:] = q
        perp = (pu @ z.reshape(g, n, -1)).reshape(g, k, points, width)  # U_perp^H U [Z_B | Q]
        t2, p_q = _gram_norms(perp[..., :m]), perp[..., m:]
        cos = _sigma_min(np.moveaxis(p_q, -2, -3), lambda: _gram_norms(p_q))
        out.append(np.divide(t1 * t2, cos, out=np.full(sb.shape, math.inf), where=cos > 0.0))
    return np.concatenate(out, axis=1)


def _angle_step(t, rhs, ports, k, s):
    """:func:`_angle_integrand` in a call of at most ``FEW_POINTS`` points, as every step is.

    One LU solve of the ``(points, g)`` stack of ``sI - T``, ``rhs``
    broadcast, is faster there than the back-substitution, at 5 to 30
    states.  ``Z`` keeps that solve's ``(points, g, n, width)`` layout, and
    its kernel block is orthonormalized on the trailing matrices.  One
    product ``ports [Z_B | Q]`` holds ``C U Q``, ``U_perp^H U Z_B`` and
    ``U_perp^H U Q``, and their ``k x k`` Gram matrices (``M^H M`` or ``M
    M^H``, with the top eigenvalue of the smaller one) are one stack, read
    by :func:`_gram_roots`; the last one is the ``sigma_max`` of
    :func:`_sigma_min`, the cosine.
    """
    m, p = rhs.shape[-1] - k, ports.shape[-2] - k
    z = linalg.solve(linalg.shifted(t, s.T), rhs[None])
    z[..., m:] = _orthonormal_columns(z[..., None, m:])[..., 0, :]
    prod = ports @ z
    c_q, p_b, p_q = prod[..., :p, m:], prod[..., p:, :m], prod[..., p:, m:]
    gram = np.empty((3,) + p_q.shape, complex)
    np.matmul(c_q.swapaxes(-1, -2).conj(), c_q, out=gram[0])
    np.matmul(p_b, p_b.swapaxes(-1, -2).conj(), out=gram[1])
    np.matmul(p_q.swapaxes(-1, -2).conj(), p_q, out=gram[2])
    roots = _gram_roots(gram)
    cos = _sigma_min(p_q, lambda: roots[2])
    return np.divide(roots[0] * roots[1], cos, out=np.full(cos.shape, math.inf), where=cos > 0.0).T


def _bound_suprema(full, result, grid, terms):
    """:func:`_angle_suprema` on ``grid``, or on the default grid, of a checked pair.

    The pair must pass :func:`_stable_pair`, whose prepared model the
    integrand reads; only a default grid eigensolves the models again.
    """
    model, _ = _stable_pair(full, result)
    spec = grid or default_grid(model.abcd[0], _abcd(result.reduced)[0])
    return _angle_suprema(model, spec.frequencies(), terms)


def _narrow(m):
    """``m``, or if it has more columns than rows ``R^H`` of ``m^H = Q R``: the same ``m m^H``."""
    return m if m.shape[1] <= m.shape[0] else np.linalg.qr(m.conj().T, mode="r").conj().T


def _angle_terms(model, terms):
    """The angle-bound integrand of each ``(side, basis, complement basis)``.

    ``model`` is the full model's :class:`PreparedModel`.  Returns ``(f,
    even)``: ``f(t, w)`` is :func:`_angle_integrand` of the terms ``t``, a
    1-D array of labels, at the frequencies ``w``, one per label or one row
    per label, or :func:`_angle_step` when they are at most ``FEW_POINTS``
    points.  ``even`` tells whether every matrix is real, which makes ``f``
    even in frequency.  The left integrand is the right one of the adjoint
    ``(A^H, C^H, B^H)`` at ``conj(s)``, on the model's
    :attr:`~PreparedModel.adjoint` pair ``(J T^H J, U J)``, so the model's
    ``U^H B`` and ``C U`` serve both sides: the left side's are ``J (C
    U)^H`` and ``(U^H B)^H J``.  Each term's ``U^H [B | kernel]`` and ``ports
    = [C U; U_perp^H U]``, the rows that multiply ``Z``, are built once, with
    ``U^H B`` and ``(C U)^H`` narrowed (:func:`_narrow`) and zero-padded to a
    common width: no norm changes.
    """
    cu_h = model.cu.conj().T
    forms = {
        "right": (model.t, model.u, model.ub, cu_h, 1j),
        "left": (*model.adjoint, cu_h[::-1], model.ub[::-1], -1j),
    }
    narrowed = {side: (_narrow(x), _narrow(y)) for side, (_, _, x, y, _) in forms.items()}
    widths = [max(narrowed[side][j].shape[1] for side, _, _ in terms) for j in (0, 1)]
    bases = {id(x): x for _, *pair in terms for x in pair}
    kernels = {key: linalg.kernel_basis(x.conj().T) for key, x in bases.items()}
    stacked = []
    for side, basis, perp in terms:
        t_s, u_s, _, _, unit = forms[side]
        ub_s, cu_h_s = (
            np.hstack([x, np.zeros((len(x), w - x.shape[1]))])
            for x, w in zip(narrowed[side], widths)
        )
        kernel, u_perp_h = u_s.conj().T @ kernels[id(basis)], kernels[id(perp)].conj().T
        rows = np.vstack([cu_h_s.conj().T, u_perp_h @ u_s])
        stacked.append((t_s, np.hstack([ub_s, kernel]), rows, unit))
    t, rhs, ports, unit = (np.array(x) for x in zip(*stacked))
    k = kernel.shape[1]
    even = not any(np.iscomplexobj(x) for x in (*model.abcd[:3], *bases.values()))

    def f(labels, w):
        if k == 0:
            return np.zeros(np.shape(w))
        s = unit[labels].reshape(-1, 1) * np.reshape(w, (len(labels), -1))
        integrand = _angle_step if s.size <= FEW_POINTS else _angle_integrand
        return integrand(t[labels], rhs[labels], ports[labels], k, s).reshape(np.shape(w))

    return f, even


def _angle_suprema(model, omegas, terms):
    """Supremum over ``omegas`` of the angle bound for each ``(side, basis, complement basis)``.

    Every term's grid is one call of the integrand, and :func:`grid_suprema`
    refines the brackets of all terms in a single lockstep search.
    """
    f, even = _angle_terms(model, terms)
    labels = np.arange(len(terms))
    grid = f(labels, np.broadcast_to(omegas, (labels.size, omegas.size)))
    return [value for value, _ in grid_suprema(f, omegas, grid, even)]


def hinf_bound_left(full, result, grid=None):
    """H-infinity error bound built from the left interpolation subspace.

    The supremum of ``sec(theta) |C (sI-A)^-1 U_perp| |Q_u^H B|``, with
    ``U_perp`` spanning ``ker(W^H)`` and ``Q_u`` ``ker(V^H (sI-A)^H)``;
    ``inf`` when the angle reaches 90 degrees.
    """
    return _bound_suprema(full, result, grid, [("left", result.v, result.w)])[0]


def hinf_bound_right(full, result, grid=None):
    """H-infinity error bound built from the right interpolation subspace.

    The supremum of ``sec(theta) |C Q_u| |U_perp^H (sI-A)^-1 B|``, with
    ``U_perp`` spanning ``ker(V^H)`` and ``Q_u`` ``ker(W^H (sI-A))``;
    ``inf`` when the angle reaches 90 degrees.
    """
    return _bound_suprema(full, result, grid, [("right", result.w, result.v)])[0]


def hinf_bounds_passive(full, result, grid=None):
    """Left and right bounds of a passive Galerkin reduction, ``W = V = V_a``."""
    v_a = result.v
    return tuple(_bound_suprema(full, result, grid, [("left", v_a, v_a), ("right", v_a, v_a)]))


def h2_error_quadrature(full, reduced, w_max=None):
    """H2-type error cost by a fixed composite Gauss-Legendre rule in frequency.

    The cross-check for :func:`h2_error_gramian`, which is exact and is what
    the selection search uses.  After ``omega = w_max tan t`` the integrand
    ``|Xi - Xi_r|_F^2 w_max sec^2 t`` is smooth and bounded on ``|t| < pi/2``
    (it tends to ``|C_e B_e|_F^2 / w_max`` at the ends), so ``H2_PANELS``
    panels of ``H2_NODES`` nodes need no breakpoints and no tail.  ``w_max``
    defaults to the largest magnitude of the poles of :func:`_stable_pair`.
    ``reduced`` may be a reduction result, a system, or a plain matrix tuple.
    """
    model, poles = _stable_pair(full, reduced)
    a_e, b_e, c_e = error_system(model.abcd, reduced)
    if w_max is None:
        w_max = float(np.abs(poles).max())
    # Real models have a curve symmetric in omega: integrate t > 0 and double.
    two_sided = any(np.iscomplexobj(m) for m in (a_e, b_e, c_e))
    edges = np.linspace(-math.pi / 2 if two_sided else 0.0, math.pi / 2, H2_PANELS + 1)
    nodes, weights = np.polynomial.legendre.leggauss(H2_NODES)
    half = (edges[1] - edges[0]) / 2
    t = (((edges[:-1] + edges[1:]) / 2)[:, None] + half * nodes).ravel()
    gap = _grid_values(lambda s: c_e @ sweep(a_e, b_e, s), 1j * w_max * np.tan(t), b_e)
    integrand = np.sum(np.abs(gap) ** 2, axis=(1, 2)) * w_max / np.cos(t) ** 2
    value = float(np.sum(np.tile(half * weights, H2_PANELS) * integrand))
    return value if two_sided else 2.0 * value


def h2_norm(a, b, c):
    """H2-type cost ``2 pi trace(C P C^H)`` of ``C (sI - A)^-1 B``, exact.

    The Gramian term of :func:`prepare_model`: ``P`` solves ``A P + P A^H +
    B B^H = 0``, and a non-Hurwitz ``A`` raises :class:`StabilityError`.
    """
    model = prepare_model((a, b, c, np.zeros((c.shape[0], b.shape[1]))))
    return float(2.0 * math.pi * model.full_term)


@dataclass(frozen=True)
class PreparedModel:
    """A full model prepared once for every analysis that reads it: what no reduced model changes.

    ``abcd`` is the model's ``(A, B, C, D)``; ``t``, ``u`` and ``poles`` are
    the complex Schur form ``A = U T U^H`` and its diagonal, :attr:`adjoint`
    that of ``A^H``; ``ub`` and ``cu`` are ``U^H B`` and ``C U``; ``t_max``
    and ``t_norm`` are ``max |T|`` and ``|T|_F``, the scales of the
    pole-pair and Sylvester residual tests.
    It stands in for its system in every analysis.  Built by :func:`prepare_model`.
    """

    abcd: tuple
    t: np.ndarray
    u: np.ndarray
    poles: np.ndarray
    ub: np.ndarray
    cu: np.ndarray
    t_max: float
    t_norm: float

    def state_space(self):
        return self.abcd

    @cached_property
    def adjoint(self):
        """The complex Schur pair ``(J T^H J, U J)`` of ``A^H``, ``J`` the index reversal."""
        return self.t.conj().T[::-1, ::-1], self.u[:, ::-1]

    @cached_property
    def gramian(self):
        """``P`` of ``A P + P A^H + B B^H = 0`` on the Schur pair; real for a real model."""
        a, b, _, _ = self.abcd
        p = linalg.lyapunov_solve(self.t, self.u, b @ b.conj().T)
        return p.real if np.isrealobj(a) and np.isrealobj(b) else p

    @cached_property
    def full_term(self):
        """``tr(C P C^H)``, ``P`` the :attr:`gramian`."""
        c = self.abcd[2]
        return np.trace(c @ self.gramian @ c.conj().T).real


def prepare_model(full):
    """The :class:`PreparedModel` of ``full``: one complex Schur form.

    The Schur diagonal is the Hurwitz test: a full model that is not Hurwitz
    raises :class:`StabilityError`.  A :class:`PreparedModel` is returned as it is.
    """
    if isinstance(full, PreparedModel):
        return full
    a, b, c, _ = abcd = _abcd(full)
    t, u, poles = linalg.schur(a.astype(complex))
    if not np.all(poles.real < 0):
        raise StabilityError(linalg.NOT_HURWITZ)
    return PreparedModel(
        abcd=abcd,
        t=t,
        u=u,
        poles=poles,
        ub=u.conj().T @ b,
        cu=c @ u,
        t_max=np.abs(t).max(),
        t_norm=np.linalg.norm(t),
    )


def h2_error_gramian(full, reduced):
    """The same H2-type cost, exactly: :func:`h2_norm` of :func:`error_system`.

    From the blocks of the error Gramian (module docstring): the stack of one
    of :func:`h2_error_gramians` on :func:`prepare_model` of ``full``.  A
    feedthrough difference raises first, then an infeasible pair's
    :class:`StabilityError`.
    """
    a, b, c, d = _abcd(_reduced_operand(reduced))
    _check_feedthrough(_abcd(full)[3], d)
    stack = (a[None], b[None], c[None], d)
    (value,) = h2_error_gramians(prepare_model(full), stack, np.linalg.eigvals(stack[0]))
    if isinstance(value, Exception):
        raise value
    return value


def h2_error_gramians(model, reduced, poles):
    """:func:`h2_error_gramian` of the full ``model`` against each of a stack of reduced models.

    ``model`` is the full model's :class:`PreparedModel`, built once for
    every stack; ``reduced`` is ``(A_r, B_r, C_r, D)`` with a leading axis
    of ``K`` on the first three, as :func:`~qmor.reduction.compress` returns
    it, and ``poles`` the ``(K, r)`` eigenvalues of the ``A_r``.  A stack
    adds only what its candidates change.  ``X = U Y``: ``T Y + Y A_r^H =
    -U^H B B_r^H`` is solved bottom row first, each row one stacked solve of
    ``t_ii I + conj(A_r)``, the shifts of every row built in one
    :func:`~qmor.linalg.shifted` call.  ``P_r`` is one stacked solve of its
    ``r^2 x r^2`` Kronecker system ``(A_r kron I + I kron conj(A_r))
    vec(P_r) = -vec(B_r B_r^H)``, with ``vec`` stacking rows.

    Returns one float or :class:`StabilityError` per row, in row order: a
    row whose ``A_r`` is not Hurwitz, that has a full-reduced or
    reduced-reduced pole pair ``|lambda + conj(mu)|`` within ``eps`` of the
    matrix scale (where LAPACK ``trsyl`` would perturb the order-``n + r``
    solve), or whose Sylvester or Lyapunov residual (Frobenius norms by
    :func:`~qmor.linalg.frobenius_norms`) exceeds ``1e-8 |M| |X|``.  The
    first two tests drop a row before any solve; the stacks are indexed only
    when a row drops, and an error is built only for a row that fails.  A
    feedthrough difference, or a full model whose Gramian is undefined, raises.
    """
    a_r, b_r, c_r, d_r = reduced
    _check_feedthrough(model.abcd[3], d_r)
    t, lam, mu, full_term = model.t, model.poles, poles, model.full_term
    scale = np.maximum(model.t_max, np.abs(a_r).max(axis=(1, 2)))
    mu_conj = mu.conj()[:, None, :]
    gap = np.minimum(
        np.abs(lam[:, None] + mu_conj).min(axis=(1, 2)),
        np.abs(mu[:, :, None] + mu_conj).min(axis=(1, 2)),
    )
    hurwitz = (mu.real < 0).all(axis=1)
    solvable = hurwitz & (gap > np.finfo(float).eps * scale)
    k, n, r = int(np.count_nonzero(solvable)), t.shape[0], a_r.shape[-1]
    if k == 0:
        return [_unsolvable(row) for row in hurwitz.tolist()]
    if k < solvable.size:
        a_r, b_r, c_r = a_r[solvable], b_r[solvable], c_r[solvable]
    conj_r, b_h = a_r.conj(), b_r.conj().swapaxes(1, 2)
    with np.errstate(all="ignore"):  # a singular row reads NaN and fails its residual test
        # X = U Y with T Y + Y A_r^H = F, bottom row first:
        # y_i (t_ii I + A_r^H) = f_i - sum_{j > i} t_ij y_j.
        f = -(model.ub @ b_h)
        y = np.empty(f.shape, complex)
        shifts = linalg.shifted(-conj_r, np.repeat(lam[:, None], k, axis=1))
        for i in reversed(range(n)):
            g = f[:, i] - t[i, i + 1 :] @ y[:, i + 1 :]
            y[:, i] = linalg.solve(shifts[i], g[..., None])[..., 0]
        # (A_r kron I + I kron conj(A_r)) vec(P_r) = -vec(B_r B_r^H), rows of P_r stacked.
        eye = np.eye(r)
        kron = a_r[:, :, None, :, None] * eye[:, None, :]
        kron = (kron + eye[:, None, :, None] * conj_r[:, None, :, None, :]).reshape(k, r * r, -1)
        rhs = -(b_r @ b_h).reshape(k, r * r, 1)
        p_r = linalg.solve(kron, rhs)
        norm = linalg.frobenius_norms
        residuals = np.array([norm(t @ y + y @ conj_r.swapaxes(1, 2) - f), norm(kron @ p_r - rhs)])
        scales = np.array([(model.t_norm + norm(a_r)) * norm(y), norm(kron) * norm(p_r)])
        cross = ((model.cu @ y) * c_r.conj()).sum(axis=(1, 2)).real
        reduced_term = ((c_r @ p_r.reshape(k, r, r)) * c_r.conj()).sum(axis=(1, 2)).real
        values = 2.0 * math.pi * (full_term - 2.0 * cross + reduced_term)
    passed = residuals <= 1e-8 * scales
    solved = values.tolist()
    for j in np.flatnonzero(~passed.all(axis=0)).tolist():
        check = int(np.argmin(passed[:, j]))  # the first failing residual test
        solved[j] = StabilityError(
            f"Gramian residual {residuals[check, j]:.3e} exceeds 1e-8 of scale "
            f"{scales[check, j]:.3e}; Lyapunov solution undefined"
        )
    solved = iter(solved)
    return [
        next(solved) if row_solvable else _unsolvable(row_hurwitz)
        for row_hurwitz, row_solvable in zip(hurwitz.tolist(), solvable.tolist())
    ]


def _unsolvable(hurwitz):
    """The :class:`StabilityError` of a row that :func:`h2_error_gramians` does not solve."""
    return StabilityError(linalg.POLE_PAIR if hurwitz else linalg.NOT_HURWITZ)


@dataclass(frozen=True)
class FrequencyResponse:
    """Transfer-function samples along the imaginary axis."""

    omegas: np.ndarray
    values: list
    skipped: list


def frequency_response(system, omegas):
    """Evaluate the transfer function at ``i * omega`` for every grid entry.

    Frequencies where the resolvent is singular are collected in ``skipped``
    instead of raising.
    """
    a, b, c, d = _abcd(system)
    omegas = np.asarray(omegas, dtype=float)
    values = _grid_values(lambda s: d + c @ sweep(a, b, s), 1j * omegas, b)
    finite = np.isfinite(values).all(axis=(1, 2))
    skipped = [(float(w), "resolvent singular") for w in omegas[~finite]]
    return FrequencyResponse(
        omegas=omegas[finite], values=list(values[finite]), skipped=skipped
    )


def error_surface(full, reduced, real_points=None, imag_points=None):
    """Error norm over a rectangle of complex evaluation points.

    Returns ``(real_points, imag_points, values)`` where ``values[i, j]`` is
    the error norm at ``s = real_points[j] + 1j * imag_points[i]``.  Points
    where either resolvent is singular yield NaN.  Default ranges are
    ``SURFACE_COUNT`` points spanning twice the largest eigenvalue magnitude
    of the two state matrices.
    """
    a1 = _abcd(full)[0]
    a2 = _abcd(_reduced_operand(reduced))[0]
    if real_points is None or imag_points is None:
        eigs = np.concatenate([linalg.eigenvalues(a1), linalg.eigenvalues(a2)])
        radius = 2.0 * float(np.abs(eigs).max())
        if real_points is None:
            real_points = np.linspace(-radius, radius, SURFACE_COUNT)
        if imag_points is None:
            imag_points = np.linspace(-radius, radius, SURFACE_COUNT)
    real_points = np.asarray(real_points, dtype=float)
    imag_points = np.asarray(imag_points, dtype=float)
    points = (real_points[None, :] + 1j * imag_points[:, None]).ravel()
    system = error_system(full, reduced)
    values = _grid_values(lambda s: _gains(*system, s, math.nan), points, system[1])
    return real_points, imag_points, values.reshape(imag_points.size, real_points.size)


@dataclass(frozen=True)
class ErrorReport:
    """Pointwise error curve plus H-infinity norm and bounds.

    ``hinf_error_estimate`` is a value the error attains (at
    ``peak_frequency``) and ``hinf_error_upper`` a certified upper value of
    the norm (but see :func:`hinf_norm` on repeated, lightly damped poles);
    ``hinf_iterations`` counts the level-set steps.  The three are
    the grid peak, ``None`` and 0 for an unstable pair.
    """

    hinf_error_estimate: float
    hinf_error_upper: float | None
    hinf_iterations: int
    hinf_bound_left: float | None
    hinf_bound_right: float | None
    peak_frequency: float
    pointwise: np.ndarray
    grid: GridSpec
    stable: bool
    notes: tuple = ()


def error_report(full, result, grid=None):
    """Assemble the full error analysis for a reduction result.

    The grid is swept once: the pointwise curve also seeds the level-set
    H-infinity norm, and both angle bounds come from one stacked search.  The
    pair's poles and the prepared full model come from :func:`_stable_pair`.
    For a pair that fails it the curve and its grid peak are still reported,
    but the norm and the bounds are omitted with an explanatory note; a pole
    on a grid frequency reads ``inf`` there and becomes the peak.
    """
    spec = grid or default_grid(_abcd(full)[0], _abcd(_reduced_operand(result))[0])
    omegas = spec.frequencies()
    system = error_system(full, result)
    values = _grid_values(lambda w: _gains(*system, 1j * w), omegas, system[1])
    curve = np.column_stack([omegas, values])
    try:
        model, poles = _stable_pair(full, result)
    except StabilityError:  # error_system has shown the pair fitting: a model is not Hurwitz
        peak = float(values.max())
        return ErrorReport(
            hinf_error_estimate=peak,
            hinf_error_upper=None,
            hinf_iterations=0,
            hinf_bound_left=None,
            hinf_bound_right=None,
            peak_frequency=_peak_frequency(omegas, values, peak),
            pointwise=curve,
            grid=spec,
            stable=False,
            notes=(
                "state matrices are not Hurwitz: the peak value is a grid "
                "supremum, not an H-infinity norm, and the bounds are omitted",
            ),
        )
    norm = hinf_norm(*system, poles, omegas, values)
    terms = [("left", result.v, result.w), ("right", result.w, result.v)]
    bound_left, bound_right = _angle_suprema(model, omegas, terms)
    return ErrorReport(
        hinf_error_estimate=norm.value,
        hinf_error_upper=norm.upper,
        hinf_iterations=norm.iterations,
        hinf_bound_left=bound_left,
        hinf_bound_right=bound_right,
        peak_frequency=norm.peak_omega,
        pointwise=curve,
        grid=spec,
        stable=True,
    )
