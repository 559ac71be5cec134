"""Error analysis: exact pointwise identities, H-infinity bounds, H2 costs.

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

Suprema over frequency are estimated on a dense logarithmic grid followed by
golden-section refinement around the best local maxima, so every H-infinity
figure here is a refined lower-bound estimator; the same estimator is used on
both sides of any bound comparison.

Evaluation is batched: :func:`sweep` solves ``(s_k I - A) X = B`` for a whole
block of ``GRID_BLOCK`` points at once, every frequency integrand maps an array
of frequencies to an array of values (stacked SVDs for norms, one stacked
solve and QR per block for an angle bound), and the golden-section searches
advance in lockstep.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate

from . import linalg
from .errors import StabilityError
from .systems import AnnihilationSystem, QuadratureSystem

DEFAULT_GRID_COUNT = 2000
REFINE_REL_WIDTH = 1e-6
#: Points per stacked evaluation; bounds the size of the live resolvent stacks.
GRID_BLOCK = 64
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _abcd(system):
    if isinstance(system, QuadratureSystem):
        return system.A, system.B, system.C, system.D
    if isinstance(system, AnnihilationSystem):
        return system.F, system.G, system.H, system.K
    a, b, c, d = system
    return (np.asarray(a), np.asarray(b), np.asarray(c), np.asarray(d))


def _reduced_operand(obj):
    if hasattr(obj, "reduced"):
        return obj.reduced
    return obj


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


def _grid_values(f, points):
    """``f`` over ``points`` in blocks of ``GRID_BLOCK`` (at least one call)."""
    starts = range(0, max(points.size, 1), GRID_BLOCK)
    return np.concatenate([f(points[k : k + GRID_BLOCK]) for k in starts])


def _golden_lockstep(f, lo, hi, rel_width):
    """Golden-section maxima of ``f`` on every bracket ``[lo_j, hi_j]`` at once.

    Each step makes one batched call over the brackets that are still wider
    than ``rel_width`` (relative); each bracket stops on its own.  Returns the
    values at, and the midpoints of, the final brackets.
    """
    a, b = lo.copy(), hi.copy()
    x1 = b - INV_PHI * (b - a)
    x2 = a + INV_PHI * (b - a)
    f1, f2 = np.split(f(np.concatenate([x1, x2])), 2)
    while True:
        active = (b - a) > rel_width * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        if not active.any():
            break
        up = active & (f1 < f2)
        down = active & ~(f1 < f2)
        a[up], x1[up], f1[up] = x1[up], x2[up], f2[up]
        x2[up] = a[up] + INV_PHI * (b[up] - a[up])
        b[down], x2[down], f2[down] = x2[down], x1[down], f1[down]
        x1[down] = b[down] - INV_PHI * (b[down] - a[down])
        fresh = f(np.where(up, x2, x1)[active])
        f2[up] = fresh[up[active]]
        f1[down] = fresh[down[active]]
    mid = (a + b) / 2
    return f(mid), mid


def grid_supremum(f, omegas, top=3, rel_width=REFINE_REL_WIDTH, values=None):
    """Supremum of ``f`` over the grid, refined around the best local maxima.

    ``f`` maps an array of frequencies to an array of values; ``values`` may
    carry ``f(omegas)`` when the caller has already swept the grid.  Ties
    break toward lower frequency.  An infinite sample short-circuits and is
    returned as-is together with its frequency.
    """
    omegas = np.asarray(omegas, dtype=float)
    if values is None:
        values = _grid_values(f, omegas)
    if np.any(np.isinf(values)):
        where = int(np.argmax(np.isinf(values)))
        return math.inf, float(omegas[where])
    n = values.size
    prev = np.maximum(np.arange(n) - 1, 0)
    after = np.minimum(np.arange(n) + 1, n - 1)
    peaks = np.flatnonzero((values >= values[prev]) & (values >= values[after]))
    maxima = np.array(sorted(peaks, key=lambda i: (-values[i], omegas[i]))[:top], dtype=int)
    # The raw grid maximum is a floor: refinement can only improve on it.
    grid_best = int(np.argmax(values))
    best_value = float(values[grid_best])
    best_omega = float(omegas[grid_best])
    lo = omegas[np.maximum(maxima - 1, 0)]
    hi = omegas[np.minimum(maxima + 1, n - 1)]
    peak_values, peak_omegas = values[maxima].astype(float), omegas[maxima]
    refine = hi > lo
    if refine.any():
        peak_values[refine], peak_omegas[refine] = _golden_lockstep(
            f, lo[refine], hi[refine], rel_width
        )
    for value, omega in zip(peak_values, peak_omegas):
        if value > best_value or (value == best_value and omega < best_omega):
            best_value, best_omega = float(value), float(omega)
    return best_value, best_omega


def sweep(a, b, s):
    """Stacked resolvent solves ``X[k] = (s_k I - A)^-1 B`` over a 1-D array ``s``.

    A block that holds an exactly singular point is solved point by point,
    and the singular points get NaN.
    """
    s = np.asarray(s)
    n = a.shape[0]
    # Copy -A and add s on the diagonals: s * I - A would cast through numpy's
    # large ufunc buffers.
    shifted = np.broadcast_to(-a.astype(np.result_type(s, a)), (s.size, n, n)).copy()
    shifted.reshape(s.size, n * n)[:, :: n + 1] += s[:, None]
    try:
        # b[None]: a stack of one matrix on every numpy version, never a stack of vectors.
        return np.linalg.solve(shifted, b[None])
    except np.linalg.LinAlgError:
        out = np.full(shifted.shape[:2] + b.shape[1:], math.nan, np.result_type(shifted, b))
        for k, m in enumerate(shifted):
            try:
                out[k] = np.linalg.solve(m, b)
            except np.linalg.LinAlgError:
                pass
        return out


def _norms(stack):
    """Spectral norm of every matrix in a stack."""
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def _finite_norms(stack, singular):
    """:func:`_norms`, with ``singular`` for the matrices :func:`sweep` left NaN."""
    finite = np.isfinite(stack).all(axis=(1, 2))
    out = np.full(stack.shape[0], singular)
    out[finite] = _norms(stack[finite])
    return out


def _difference(full, reduced):
    """Batched ``s -> Xi(s) - Xi_r(s)`` over a 1-D array of points."""
    a1, b1, c1, d1 = _abcd(full)
    a2, b2, c2, d2 = _abcd(_reduced_operand(reduced))
    d_diff = d1 - d2
    return lambda s: d_diff + c1 @ sweep(a1, b1, s) - c2 @ sweep(a2, b2, s)


def _error_norms(full, reduced):
    """Batched ``omegas -> |Xi(i w) - Xi_r(i w)|``; ``inf`` at a pole on the axis."""
    diff = _difference(full, reduced)
    return lambda omegas: _finite_norms(diff(1j * omegas), math.inf)


def _resolve(a, s, rhs):
    return np.linalg.solve(s * np.eye(a.shape[0]) - a, rhs)


def _require_hurwitz(*mats):
    for m in mats:
        if not linalg.is_hurwitz(m):
            raise StabilityError(
                "state matrix is not Hurwitz; H-infinity quantities are undefined"
            )


@dataclass(frozen=True)
class HinfEstimate:
    value: float
    peak_omega: float
    grid: GridSpec


def hinf_error(full, result, grid=None):
    """Refined grid estimate of the H-infinity norm of ``Xi - Xi_r``."""
    a1 = _abcd(full)[0]
    a2 = _abcd(_reduced_operand(result))[0]
    _require_hurwitz(a1, a2)
    spec = grid or default_grid(a1, a2)
    value, peak = grid_supremum(_error_norms(full, result), spec.frequencies())
    return HinfEstimate(value=value, peak_omega=peak, grid=spec)


@dataclass(frozen=True)
class ExactErrorIdentity:
    """The three equivalent pointwise error expressions and projector residuals."""

    direct: float
    via_q: float
    via_r: float
    q_idempotency: float
    r_idempotency: float


def oblique_projectors(full, result, s):
    """The projectors ``Q(s)`` and ``R(s)`` realized explicitly."""
    a = _abcd(full)[0]
    a_r = _abcd(result.reduced)[0]
    w, v = result.w, result.v
    eye = np.eye(a.shape[0])
    shifted = s * eye - a
    core = v @ np.linalg.solve(s * np.eye(a_r.shape[0]) - a_r, w.conj().T)
    q = shifted @ core
    r = core @ shifted
    return q, r


def error_exact(full, result, s):
    """Evaluate the three exact error expressions at one complex point."""
    a, b, c, d = _abcd(full)
    a_r, b_r, c_r, d_r = _abcd(result.reduced)
    eye = np.eye(a.shape[0])
    shifted = s * eye - a
    q, r = oblique_projectors(full, result, s)
    full_tf = d + c @ _resolve(a, s, b)
    red_tf = d_r + c_r @ _resolve(a_r, s, b_r)
    direct = linalg.spectral_norm(full_tf - red_tf)
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


def _angle_bound(a, b, c, kernel, u_perp, s):
    """Angle-bound integrand ``|C Q_u| |U_perp^H (sI-A)^-1 B| / cos(theta)`` over ``s``.

    ``kernel`` spans ``ker(basis^H)``, so ``Q_u``, an orthonormal basis of
    ``(sI-A)^-1 kernel``, spans ``ker(basis^H (sI-A))``; both come from one
    stacked solve with ``B``.  ``cos(theta) = sigma_min(U_perp^H Q_u)``: the
    integrand is ``inf`` where it is 0, and 0 at full order.
    """
    if kernel.shape[1] == 0:
        return np.zeros(s.size)
    m = b.shape[1]
    x = sweep(a, np.hstack([b, kernel]), s)
    q_u = np.linalg.qr(x[:, :, m:])[0]
    u_perp_h = u_perp.conj().T
    t1 = _norms(c @ q_u)
    t2 = _norms(u_perp_h @ x[:, :, :m])
    cos = np.linalg.svd(u_perp_h @ q_u, compute_uv=False)[:, -1]
    with np.errstate(divide="ignore"):
        return np.where(cos > 0.0, t1 * t2 / cos, math.inf)


def _bound_suprema(full, result, grid, terms):
    """Grid supremum of the angle bound for each ``(side, basis, complement basis)``."""
    a, b, c, _ = _abcd(full)
    a_r = _abcd(result.reduced)[0]
    _require_hurwitz(a, a_r)
    omegas = (grid or default_grid(a, a_r)).frequencies()
    # The left integrand is the right one of the adjoint (A^H, C^H, B^H) at conj(s).
    forms = {"right": ((a, b, c), 1j), "left": ((a.conj().T, c.conj().T, b.conj().T), -1j)}
    suprema = []
    for side, basis, perp in terms:
        system, unit = forms[side]
        kernel = linalg.kernel_basis(basis.conj().T)
        u_perp = linalg.kernel_basis(perp.conj().T)
        f = lambda w: _angle_bound(*system, kernel, u_perp, unit * w)  # noqa: E731
        suprema.append(grid_supremum(f, omegas)[0])
    return suprema


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
    """H2-type error cost by adaptive frequency-domain quadrature.

    The cross-check for :func:`h2_error_gramian`, which is exact and is what
    the selection search uses.  ``reduced`` may be a reduction result, a
    system, or a plain matrix tuple.
    """
    a1, b1, c1, d1 = _abcd(full)
    a2, b2, c2, d2 = _abcd(_reduced_operand(reduced))
    if linalg.frobenius_norm(d1 - d2) > 0:
        raise StabilityError("feedthrough terms differ; the H2 error integral diverges")
    _require_hurwitz(a1, a2)
    two_sided = np.iscomplexobj(a1) or np.iscomplexobj(b1) or np.iscomplexobj(c1)
    eigs = np.concatenate([linalg.eigenvalues(a1), linalg.eigenvalues(a2)])
    if w_max is None:
        w_max = 1e2 * float(np.abs(eigs).max())

    def g(omega):
        e = c1 @ _resolve(a1, 1j * omega, b1) - c2 @ _resolve(a2, 1j * omega, b2)
        return float(np.linalg.norm(e) ** 2)

    breaks = np.unique(np.abs(eigs.imag))
    breaks = [float(x) for x in breaks if 0.0 < x < w_max]
    probes = [g(w) for w in ([0.0] + breaks)]
    eps_abs = max(1e-290, 1e-13 * max(probes) * w_max)
    kwargs = dict(limit=500, epsrel=1e-9, epsabs=eps_abs, full_output=1)
    if two_sided:
        points = sorted({-x for x in breaks} | set(breaks))
        value = scipy.integrate.quad(g, -w_max, w_max, points=points, **kwargs)[0]
    else:
        value = 2.0 * scipy.integrate.quad(g, 0.0, w_max, points=breaks, **kwargs)[0]
    # The integrand decays like |C_e B_e / omega|^2 past the grid edge.
    lead = c1 @ b1 - c2 @ b2
    tail = float(np.linalg.norm(lead) ** 2) / w_max
    return value + 2.0 * tail


def h2_error_gramian(full, reduced):
    """The same H2-type cost, exactly, through the Lyapunov-equation identity.

    ``2 pi trace(C_e P C_e^H)`` with ``A_e P + P A_e^H + B_e B_e^H = 0``.
    """
    a1, b1, c1, d1 = _abcd(full)
    a2, b2, c2, d2 = _abcd(_reduced_operand(reduced))
    if linalg.frobenius_norm(d1 - d2) > 0:
        raise StabilityError("feedthrough terms differ; the H2 error integral diverges")
    n1, n2 = a1.shape[0], a2.shape[0]
    a_e = np.block(
        [[a1, np.zeros((n1, n2))], [np.zeros((n2, n1)), a2]]
    ).astype(complex if np.iscomplexobj(a1) or np.iscomplexobj(a2) else float)
    b_e = np.vstack([b1, b2])
    c_e = np.hstack([c1, -c2])
    p = linalg.lyapunov_solve(a_e, b_e @ b_e.conj().T)
    return float(2.0 * math.pi * np.trace(c_e @ p @ c_e.conj().T).real)


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
    values = _grid_values(lambda s: d + c @ sweep(a, b, s), 1j * omegas)
    finite = np.isfinite(values).all(axis=(1, 2))
    skipped = [(float(w), "resolvent singular") for w in omegas[~finite]]
    return FrequencyResponse(
        omegas=omegas[finite], values=list(values[finite]), skipped=skipped
    )


def error_surface(full, reduced, real_points=None, imag_points=None, count=41):
    """Error norm over a rectangle of complex evaluation points.

    Returns ``(real_points, imag_points, values)`` where ``values[i, j]`` is
    the error norm at ``s = real_points[j] + 1j * imag_points[i]``.  Points
    where either resolvent is singular yield NaN.  Default ranges span twice
    the largest eigenvalue magnitude of the two state matrices.
    """
    a1 = _abcd(full)[0]
    a2 = _abcd(_reduced_operand(reduced))[0]
    if real_points is None or imag_points is None:
        eigs = np.concatenate([linalg.eigenvalues(a1), linalg.eigenvalues(a2)])
        radius = 2.0 * float(np.abs(eigs).max())
        if real_points is None:
            real_points = np.linspace(-radius, radius, count)
        if imag_points is None:
            imag_points = np.linspace(-radius, radius, count)
    real_points = np.asarray(real_points, dtype=float)
    imag_points = np.asarray(imag_points, dtype=float)
    points = (real_points[None, :] + 1j * imag_points[:, None]).ravel()
    values = _finite_norms(_grid_values(_difference(full, reduced), points), math.nan)
    return real_points, imag_points, values.reshape(imag_points.size, real_points.size)


@dataclass(frozen=True)
class ErrorReport:
    """Pointwise error curve plus H-infinity estimate and bounds."""

    hinf_error_estimate: float
    hinf_bound_left: float | None
    hinf_bound_right: float | None
    peak_frequency: float
    pointwise: np.ndarray
    grid: GridSpec
    stable: bool
    notes: tuple = ()


def error_report(full, result, grid=None):
    """Assemble the full error analysis for a reduction result.

    The grid is swept once: the pointwise curve also seeds the refined
    H-infinity estimate.  For unstable pairs the curve and its grid peak are
    still reported, but the bounds are omitted with an explanatory note; a
    pole on a grid frequency reads ``inf`` there and becomes the peak.
    """
    a1 = _abcd(full)[0]
    a2 = _abcd(_reduced_operand(result))[0]
    spec = grid or default_grid(a1, a2)
    omegas = spec.frequencies()
    error_norms = _error_norms(full, result)
    values = _grid_values(error_norms, omegas)
    curve = np.column_stack([omegas, values])
    stable = linalg.is_hurwitz(a1) and linalg.is_hurwitz(a2)
    if not stable:
        k = int(np.argmax(values))
        return ErrorReport(
            hinf_error_estimate=float(values[k]),
            hinf_bound_left=None,
            hinf_bound_right=None,
            peak_frequency=float(omegas[k]),
            pointwise=curve,
            grid=spec,
            stable=False,
            notes=(
                "state matrices are not Hurwitz: the peak value is a grid "
                "supremum, not an H-infinity norm, and the bounds are omitted",
            ),
        )
    estimate, peak = grid_supremum(error_norms, omegas, values=values)
    if isinstance(full, AnnihilationSystem):
        bound_left, bound_right = hinf_bounds_passive(full, result, grid=spec)
    else:
        bound_left = hinf_bound_left(full, result, grid=spec)
        bound_right = hinf_bound_right(full, result, grid=spec)
    return ErrorReport(
        hinf_error_estimate=estimate,
        hinf_bound_left=bound_left,
        hinf_bound_right=bound_right,
        peak_frequency=peak,
        pointwise=curve,
        grid=spec,
        stable=True,
    )
