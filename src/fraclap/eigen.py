"""Dense symmetric eigendecomposition and eigenvector post-processing.

A ``Hamiltonian`` with an even potential is solved in its free modes: every
mode column of the grid has a definite parity (``basis.mode_parities``), so
the even and odd mode columns give two blocks, each solved on its own, and
every eigenvector has an exact parity, also inside the free periodic cos/sin
pairs that are degenerate in the Mathieu problem at q = 0.  No dense grid
matrix is formed on that route.  Eigenvectors follow a fixed sign convention
(largest-magnitude component positive).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisKind,
    Grid,
    coefficients,
    interpolate,
    mode_matrix,
    mode_numbers,
    mode_parities,
    quadrature_weights,
)
from .errors import ContractError, DimensionError, NumericalError
from .hamiltonian import Hamiltonian
from .operators import OperatorMatrix

# Largest |V(-x_k) - V(x_k)|, relative to max(1, max|V|), for which a
# Hamiltonian is solved in parity blocks.
_PARITY_TOL = 1e-14
# Overlap with the minority parity above which a state is called mixed.
_MIXED_THRESHOLD = 0.1


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with orthonormal eigenvectors (as columns).

    ``parities`` holds +1 (even) or -1 (odd) per state when the spectrum
    came from a parity-block solve, which fixes every state's parity
    exactly; it is None after a full ``eigh``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    grid: Grid
    parities: np.ndarray | None = None


def parity_map(grid: Grid):
    """Signed permutation realizing x -> -x on sampled values.

    Returns (perm, signs) such that (Pv)[i] = signs[i] * v[perm[i]].  On the
    antiperiodic grid the point -L has no mirror node; its mirror value at
    +L is supplied by the boundary relation f(L) = -f(-L).
    """
    perm = np.arange(grid.dim - 1, -1, -1)
    signs = np.ones(grid.dim)
    if grid.kind == BasisKind.ANTIPERIODIC:
        perm = np.roll(perm, 1)  # 0, dim - 1, ..., 1
        signs[0] = -1.0
    return perm, signs


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Flip each column whose first largest-magnitude component is negative.

    Works from the column maxima and minima, in place; a column-major V is not copied.
    """
    cols = np.arange(V.shape[1])
    hi, lo = V.argmax(axis=0), V.argmin(axis=0)
    top, bottom = V[hi, cols], -V[lo, cols]
    flip = (bottom > top) | ((bottom == top) & (lo < hi))
    V *= np.where(flip, -1.0, 1.0)
    return V


def _eigh(A: np.ndarray):
    try:
        return np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigendecomposition failed: {exc}")


def eigendecompose(H: Hamiltonian | OperatorMatrix) -> Spectrum:
    """Full spectrum of a Hamiltonian or of a real symmetric operator matrix.

    A ``Hamiltonian`` whose potential is even under the grid reflection is
    solved in its free modes, as one block of even mode columns and one of
    odd ones (``_mode_block_eigh``); the spectra merge in ascending order by
    a stable sort, so an exact tie puts the even state first.  Any other
    input takes one full ``eigh`` of its dense entries.  Every eigenvector
    gets the positive-largest-component sign.
    """
    if isinstance(H, Hamiltonian):
        if not np.all(np.isfinite(H.kinetic)):
            raise NumericalError(
                f"|p|^alpha overflows at alpha = {H.spec.alpha:g}, N = {H.grid.N}, "
                f"L = {H.grid.L:g}: the box is too small for its mode momenta; "
                "use a larger L (or a lower alpha or N)"
            )
        perm, _ = parity_map(H.grid)
        V = H.potential
        if np.abs(V[perm] - V).max() <= _PARITY_TOL * max(1.0, float(np.abs(V).max())):
            return _mode_block_eigh(H)
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
    w, vectors = _eigh(A)
    return Spectrum(eigenvalues=w, eigenvectors=_fix_signs(vectors), grid=H.grid)


def _mode_block(H: Hamiltonian, rows, cols, weight) -> np.ndarray:
    """diag(kinetic[cols]) + X^T diag(weight V[rows]) X; X = S[rows, cols] dies before the eigh."""
    X = H.modes[np.ix_(rows, cols)]
    A = (X.T * (weight * H.potential[rows])) @ X
    A.flat[:: len(cols) + 1] += H.kinetic[cols]
    return A


def _mode_block_eigh(H: Hamiltonian) -> Spectrum:
    """Eigenpairs of a Hamiltonian with an even potential, one parity block at a time.

    Block b is diag(kinetic_b) + X_b^T diag(w V) X_b with X_b = S[rows, cols_b]:
    cols_b are the mode columns of parity b, rows one node a of each mirror
    pair (a, P a), with w = 2, then the fixed nodes of parity b, with w = 1.
    The grid vectors are formed on those rows and copied, times the parity,
    to the mirror nodes, straight into the columns their eigenvalues take
    in the merged ascending order.  A state of the even block gets parity
    +1, one of the odd block -1.
    """
    grid = H.grid
    perm, signs = parity_map(grid)
    nodes = np.arange(grid.dim)
    fixed = perm == nodes
    pairs = nodes[perm > nodes]
    blocks = []
    for sign in (1, -1):
        rows = np.concatenate((pairs, nodes[fixed & (signs == sign)]))
        cols = np.flatnonzero(mode_parities(grid) == sign)
        weight = np.where(np.arange(len(rows)) < len(pairs), 2.0, 1.0)
        blocks.append((sign, rows, cols, *_eigh(_mode_block(H, rows, cols, weight))))
    n_even = len(blocks[0][3])
    w = np.concatenate((blocks[0][3], blocks[1][3]))
    order = np.argsort(w, kind="stable")
    vectors = np.zeros((grid.dim, grid.dim), order="F")  # _fix_signs reduces columns uncopied
    for (sign, rows, cols, _, Y), at in zip(blocks, np.split(np.argsort(order), [n_even])):
        G = H.modes[np.ix_(rows, cols)] @ Y
        vectors[np.ix_(rows, at)] = G
        G[: len(pairs)] *= sign
        vectors[np.ix_(perm[pairs], at)] = G[: len(pairs)]
    return Spectrum(w[order], _fix_signs(vectors), grid, parities=np.where(order < n_even, 1, -1))


def parity_signs(spec: Spectrum) -> np.ndarray:
    """+1 for each even state, -1 for each odd one and 0 for a mixed one.

    A parity-block spectrum carries its signs.  Otherwise each state's
    weights on the even and odd subspaces, |v + Pv|^2 / 4 and |v - Pv|^2 / 4,
    decide: mixed when both exceed the threshold, else the larger one.
    """
    if spec.parities is not None:
        return spec.parities
    V = spec.eigenvectors
    perm, signs = parity_map(spec.grid)
    PV = signs[:, None] * V[perm, :]
    even_w = 0.25 * np.sum((V + PV) ** 2, axis=0)
    odd_w = 0.25 * np.sum((V - PV) ** 2, axis=0)
    mixed = (even_w > _MIXED_THRESHOLD) & (odd_w > _MIXED_THRESHOLD)
    return np.where(mixed, 0, np.where(even_w >= odd_w, 1, -1))


def classify_parity(spec: Spectrum) -> list:
    """Label each state 'even', 'odd' or 'mixed'; add a period tag on periodic grids.

    The parity comes from ``parity_signs``.  The period tag compares the
    mass of each state on the free modes with n/2 odd (minimal period 2L)
    against those with n/2 even (period L): '2L' or 'L' for the dominant
    one, 'mixed' when both carry more than the threshold share; None for
    non-periodic grids.  Returns one (parity, period) pair per state.
    """
    V = spec.eigenvectors
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
    names = {1: "even", -1: "odd", 0: "mixed"}
    return [(names[int(sign)], period) for sign, period in zip(parity_signs(spec), periods)]


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


def _times_complex(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A @ z for a real matrix A and a complex vector z, by two real matvecs.

    numpy would otherwise cast the whole of A to complex on every call.
    """
    out = np.empty(A.shape[0], dtype=complex)
    out.real = A @ z.real
    out.imag = A @ z.imag
    return out


def evolve(spec: Spectrum, psi0, hbar: float, t: float) -> np.ndarray:
    """Propagate grid samples psi0 to time t through the eigenbasis.

    Expansion coefficients are the Euclidean projections c_n = v_n . psi0,
    the exact discrete analogue of the continuum overlap integrals; each is
    carried forward by the phase exp(-i t E_n / hbar).  At t = 0 this
    returns psi0 itself (the eigenbasis is complete on the grid).
    """
    c = evolution_coefficients(spec, psi0)
    phases = np.exp(-1j * t * spec.eigenvalues / hbar)
    return _times_complex(spec.eigenvectors, phases * c)


def evolution_coefficients(spec: Spectrum, psi0) -> np.ndarray:
    """Eigenbasis expansion coefficients of grid samples psi0."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (spec.grid.dim,):
        raise DimensionError(
            f"expected {spec.grid.dim} samples, got shape {psi0.shape}"
        )
    return _times_complex(spec.eigenvectors.T, psi0)
