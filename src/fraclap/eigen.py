"""Dense symmetric eigendecomposition and eigenvector post-processing.

Eigenvectors follow a fixed sign convention (largest-magnitude component
positive) and numerically degenerate clusters are rotated onto parity
eigenvectors so that even/odd labels stay well defined, e.g. for the free
periodic modes that appear in the Mathieu problem at q = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import (
    BasisKind,
    Grid,
    coefficients,
    interpolate,
    mode_matrix,
    mode_numbers,
    quadrature_weights,
)
from .errors import ContractError, DimensionError, NumericalError
from .operators import OperatorMatrix

# Relative eigenvalue gap below which two states are treated as degenerate.
_DEGENERACY_GAP = 1e-9
# Overlap with the minority parity above which a state is called mixed.
_MIXED_THRESHOLD = 0.1


@dataclass
class Spectrum:
    """Ascending eigenvalues with orthonormal eigenvectors (as columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    grid: Grid
    labels: list | None = None


def parity_map(grid: Grid):
    """Signed permutation realizing x -> -x on sampled values.

    Returns (perm, signs) such that (Pv)[i] = signs[i] * v[perm[i]].  On the
    antiperiodic grid the point -L has no mirror node; its mirror value at
    +L is supplied by the boundary relation f(L) = -f(-L).
    """
    dim = grid.dim
    if grid.kind == BasisKind.ANTIPERIODIC:
        perm = np.concatenate(([0], np.arange(dim - 1, 0, -1)))
        signs = np.ones(dim)
        signs[0] = -1.0
    else:
        perm = np.arange(dim - 1, -1, -1)
        signs = np.ones(dim)
    return perm, signs


def _apply_parity(grid: Grid, V: np.ndarray) -> np.ndarray:
    perm, signs = parity_map(grid)
    return signs[:, None] * V[perm, :]


def _fix_signs(V: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(V), axis=0)
    flip = V[idx, np.arange(V.shape[1])] < 0
    V[:, flip] *= -1.0
    return V


def _degenerate_clusters(w: np.ndarray):
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    clusters = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > _DEGENERACY_GAP * scale:
            if i - start > 1:
                clusters.append(slice(start, i))
            start = i
    return clusters


def eigendecompose(H: OperatorMatrix) -> Spectrum:
    """Full spectrum of a real symmetric operator matrix.

    Degenerate clusters are re-orthogonalized against the parity operator,
    then every eigenvector gets the positive-largest-component sign.
    """
    A = np.asarray(H.entries, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractError(f"matrix must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NumericalError(
            "matrix has non-finite entries, most likely an overflow of "
            "|p|^alpha or V(x); lower alpha or N"
        )
    scale = max(1.0, float(np.abs(A).max()))
    asym = float(np.abs(A - A.T).max())
    if asym > 1e-10 * scale:
        raise ContractError(f"matrix asymmetry {asym:.3e} exceeds tolerance")

    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigendecomposition failed: {exc}")

    if H.grid is not None:
        for cl in _degenerate_clusters(w):
            Vc = V[:, cl]
            S = Vc.T @ _apply_parity(H.grid, Vc)
            S = 0.5 * (S + S.T)
            _, W = np.linalg.eigh(S)
            V[:, cl] = Vc @ W

    V = _fix_signs(V)
    return Spectrum(eigenvalues=w, eigenvectors=V, grid=H.grid)


def classify_parity(spec: Spectrum) -> list:
    """Label each state 'even', 'odd' or 'mixed'; add a period tag on periodic grids.

    The period tag compares the mass of each state on the free modes with
    n/2 odd (minimal period 2L) against those with n/2 even (period L):
    '2L' or 'L' for the dominant one, 'mixed' when both carry more than the
    threshold share; None for non-periodic grids.  Results are stored on
    ``spec.labels`` and returned.
    """
    V = spec.eigenvectors
    PV = _apply_parity(spec.grid, V)
    even_w = 0.25 * np.sum((V + PV) ** 2, axis=0)
    odd_w = 0.25 * np.sum((V - PV) ** 2, axis=0)
    periods = [None] * V.shape[1]
    if spec.grid.kind == BasisKind.PERIODIC:
        mass = (mode_matrix(spec.grid).T @ V) ** 2
        full_period = (mode_numbers(spec.grid) // 2) % 2 == 1
        full = mass[full_period].sum(axis=0)
        half = mass[~full_period].sum(axis=0)
        total = full + half
        periods = [
            "mixed" if f > _MIXED_THRESHOLD * t and h > _MIXED_THRESHOLD * t
            else ("2L" if f >= h else "L")
            for f, h, t in zip(full, half, total)
        ]
    labels = []
    for e, o, period in zip(even_w, odd_w, periods):
        if e > _MIXED_THRESHOLD and o > _MIXED_THRESHOLD:
            parity = "mixed"
        else:
            parity = "even" if e >= o else "odd"
        labels.append((parity, period))
    spec.labels = labels
    return labels


def reconstruct(spec: Spectrum, i: int, resolution: int):
    """State i interpolated on a uniform grid of ``resolution`` points.

    The vector is rescaled to continuum normalization,
    sum_k w_k v(x_k)**2 = 1 with the basis quadrature weights.  Returns
    (x values, wavefunction values).
    """
    if resolution < 2:
        raise DimensionError(f"resolution must be >= 2, got {resolution}")
    v = spec.eigenvectors[:, i]
    coeffs = coefficients(spec.grid)
    w = quadrature_weights(coeffs)
    norm = float(w @ v**2)
    if norm <= 0:
        raise NumericalError("state has non-positive quadrature norm")
    v = v / np.sqrt(norm)
    xs = np.linspace(-spec.grid.L, spec.grid.L, resolution)
    return xs, interpolate(coeffs, v, xs)


def evolve(spec: Spectrum, psi0, hbar: float, t: float) -> np.ndarray:
    """Propagate grid samples psi0 to time t through the eigenbasis.

    Expansion coefficients are the Euclidean projections c_n = v_n . psi0,
    the exact discrete analogue of the continuum overlap integrals; each is
    carried forward by the phase exp(-i t E_n / hbar).  At t = 0 this
    returns psi0 itself (the eigenbasis is complete on the grid).
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (spec.grid.dim,):
        raise DimensionError(
            f"expected {spec.grid.dim} samples, got shape {psi0.shape}"
        )
    c = spec.eigenvectors.T @ psi0
    phases = np.exp(-1j * t * spec.eigenvalues / hbar)
    return spec.eigenvectors @ (phases * c)


def evolution_coefficients(spec: Spectrum, psi0) -> np.ndarray:
    """Eigenbasis expansion coefficients of grid samples psi0."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (spec.grid.dim,):
        raise DimensionError(
            f"expected {spec.grid.dim} samples, got shape {psi0.shape}"
        )
    return spec.eigenvectors.T @ psi0
