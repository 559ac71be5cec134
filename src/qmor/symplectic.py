"""Constructive normal form of nonsingular real skew-symmetric matrices.

Any full-rank real skew-symmetric ``Theta`` can be scaled into the canonical
symplectic form: there is a nonsingular real ``T`` with ``T Theta T^T = J_r``.
The construction here is deterministic: a real Schur reduction brings
``Theta`` to 2x2 skew blocks ``[[0, beta], [-beta, 0]]`` by an orthogonal
similarity, the block signs are normalized, and a diagonal ``1/sqrt(beta)``
scaling finishes the job.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import RankDeficiencyError, StructureError
from .systems import symplectic_form

#: Condition-number ceiling beyond which Theta is treated as singular.
MAX_CONDITION = 1e12
#: Asymmetry of Theta, relative to its norm, accepted as rounding.
SKEW_TOL = 1e-9


@dataclass(frozen=True)
class SkewNormalForm:
    """Transformation ``T`` with ``T @ theta @ T.T = J_r`` and its residual."""

    T: np.ndarray
    residual: float


def skew_normal_form(theta):
    """Compute ``T`` with ``T Theta T^T = J_r`` for nonsingular skew ``Theta``.

    ``Theta`` is symmetrized when its asymmetry is below ``SKEW_TOL`` relative to
    its norm (products like ``W^T J W`` are skew only up to rounding); larger
    asymmetry, or a complex ``Theta``, raises :class:`StructureError`.
    Near-singular input (condition number above ``MAX_CONDITION``) raises
    :class:`RankDeficiencyError`.
    """
    theta = linalg.as_matrix(theta, "theta")
    if theta.shape[0] != theta.shape[1] or theta.shape[0] % 2:
        raise StructureError(f"theta must be square of even size, got {theta.shape}")
    if theta.dtype.kind == "c":
        raise StructureError("theta must be real")
    scale = linalg.frobenius_norm(theta)
    if scale == 0.0:
        raise RankDeficiencyError("theta is zero, hence singular")
    asymmetry = linalg.frobenius_norm(theta + theta.T)
    if asymmetry > SKEW_TOL * scale:
        raise StructureError(
            f"theta is not skew-symmetric: asymmetry {asymmetry:.3e} vs scale {scale:.3e}"
        )
    theta = (theta - theta.T) / 2

    # Real Schur form of a skew-symmetric (hence normal) matrix is block
    # diagonal with 2x2 blocks [[0, beta], [-beta, 0]].
    t_schur, z, _ = linalg.schur(theta)
    size = theta.shape[0]
    betas = t_schur.diagonal(1)[::2]
    # Swap the two Schur vectors (columns 2k and 2k ^ 1) of every negative
    # block to flip its sign.
    flip = betas < 0
    z = z[:, np.arange(size) ^ flip.repeat(2)]
    betas = np.where(flip, -betas, betas)
    if betas.min() <= 0.0 or betas.max() / betas.min() > MAX_CONDITION:
        raise RankDeficiencyError(
            "theta is numerically singular; its canonical block scales are "
            f"{np.sort(betas)}"
        )
    inv_sqrt = (1.0 / np.sqrt(betas)).repeat(2)
    t = inv_sqrt[:, None] * z.T
    residual = linalg.frobenius_norm(t @ theta @ t.T - symplectic_form(size // 2))
    return SkewNormalForm(T=t, residual=residual)
