"""Shared test oracles and builders for randomized test inputs (all seeds fixed)."""

import numpy as np
import pytest

from qmor import linalg, systems
from qmor.errors import RankDeficiencyError
from qmor.reduction import InterpolationData, reduce_right
from qmor.selection import conjugate_pair_points


def orthogonal_projector(basis):
    """Orthogonal projector onto the column span of a full-column-rank basis.

    Raises :class:`RankDeficiencyError` when the columns are dependent, since
    the projector onto a degenerate "subspace" is ill-defined for callers.
    """
    basis = linalg.as_matrix(basis, "basis")
    if basis.shape[1] == 0:
        return np.zeros((basis.shape[0], basis.shape[0]), dtype=basis.dtype)
    rank, rng, _ = linalg.rank_and_bases(basis)
    if rank < basis.shape[1]:
        raise RankDeficiencyError(
            f"basis has {basis.shape[1]} columns but numerical rank {rank}"
        )
    return rng @ rng.conj().T


def largest_principal_angle(x_basis, y_basis):
    """Largest principal angle (radians) between two subspaces.

    Inputs are matrices whose columns span the subspaces; they are
    orthonormalized internally, so any bases may be passed.
    """
    qx = linalg.orthonormal_range(linalg.as_matrix(x_basis))
    qy = linalg.orthonormal_range(linalg.as_matrix(y_basis))
    if qx.shape[1] == 0 or qy.shape[1] == 0:
        return 0.0 if qx.shape[1] == qy.shape[1] else np.pi / 2
    cosines = np.linalg.svd(qx.conj().T @ qy, compute_uv=False)
    c = float(np.clip(cosines.min(), -1.0, 1.0))
    return float(np.arccos(c))


def make_quadrature_data(system, side, seed):
    """Conjugate-closed interpolation data for a quadrature system.

    Even seeds use real direction pairs, odd seeds complex conjugate pairs,
    so both branches of the real-basis construction are exercised.
    """
    rng = np.random.default_rng(seed + 10_000)
    dim = 2 * (system.n_outputs if side == "left" else system.n_inputs)
    points = conjugate_pair_points(rng.uniform(0.5, 5.0, size=2))
    if seed % 2 == 0:
        base = rng.standard_normal((2, dim))
        directions = np.vstack([base[0], base[0], base[1], base[1]])
    else:
        base = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
        directions = np.vstack([base[0], base[0].conj(), base[1], base[1].conj()])
    return InterpolationData(side=side, points=points, directions=directions)


def make_passive_data(system, seed, r=2):
    rng = np.random.default_rng(seed + 20_000)
    ell = system.n_outputs
    points = rng.uniform(0.5, 5.0, size=r) * np.exp(
        1j * rng.uniform(-np.pi / 2, np.pi / 2, size=r)
    )
    directions = rng.standard_normal((r, ell)) + 1j * rng.standard_normal((r, ell))
    return InterpolationData(side="left", points=points, directions=directions)


def interpolation_passes(diag, rel=1e-8, absolute=1e-10, ref_floor=1e-6):
    """Relative check with an absolute fallback for vanishing references."""
    return all(
        (res <= rel * ref) if ref > ref_floor else (res <= absolute)
        for res, ref in zip(diag.interpolation_residuals, diag.interpolation_references)
    )


def stable_reduction_cases(count, start_seed=100):
    """Deterministic list of (system, data, result) with Hurwitz reduced models.

    Quadrature reductions of converted passive systems are always stable on
    the full side but not necessarily after reduction; seeds are consumed in
    order until ``count`` stable reductions are collected.
    """
    cases = []
    seed = start_seed
    while len(cases) < count:
        passive = systems.random_realizable_annihilation(3, 2, 2, seed)
        seed += 1
        if not linalg.is_hurwitz(passive.F):
            continue
        quad = systems.annihilation_to_quadrature(passive)
        data = make_quadrature_data(quad, "right", seed)
        result = reduce_right(quad, data)
        if not linalg.is_hurwitz(result.reduced.A):
            continue
        cases.append((quad, data, result))
    return cases


@pytest.fixture(scope="session")
def stable_cases_20():
    return stable_reduction_cases(20)
