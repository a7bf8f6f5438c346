"""Dense symmetric eigendecomposition and eigenvector post-processing.

When H commutes with the grid reflection x -> -x (every even potential does)
it is folded into its even and odd blocks, each solved on its own, so every
eigenvector has an exact parity, also inside the free periodic cos/sin pairs
that are degenerate in the Mathieu problem at q = 0.  Eigenvectors follow a
fixed sign convention (largest-magnitude component positive).
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
    quadrature_weights,
)
from .errors import ContractError, DimensionError, NumericalError
from .operators import OperatorMatrix

# Largest |PHP - H| entry, relative to max|H|, for which H is split into
# parity blocks; the reflection-odd rounding of even Hamiltonians is ~1e-15.
_PARITY_TOL = 1e-14
# Overlap with the minority parity above which a state is called mixed.
_MIXED_THRESHOLD = 0.1
_SQRT_HALF = 1.0 / np.sqrt(2.0)


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
    """Flip each column whose first largest-magnitude component is negative.

    Works from the column maxima and minima, in place, with no |V| copy.
    """
    cols = np.arange(V.shape[1])
    hi, lo = V.argmax(axis=0), V.argmin(axis=0)
    top, bottom = V[hi, cols], -V[lo, cols]
    flip = (bottom > top) | ((bottom == top) & (lo < hi))
    V *= np.where(flip, -1.0, 1.0)
    return V


def _parity_orbits(grid: Grid):
    """Orbits of the grid reflection: fixed nodes by sign, and mirror pairs.

    Returns (even_fixed, odd_fixed, a, b).  The centre node x = 0 is even;
    the antiperiodic -L node is odd (P e_0 = -e_0).  Every other node a_i
    (ascending) is paired with its mirror b_i.
    """
    perm, signs = parity_map(grid)
    nodes = np.arange(grid.dim)
    fixed = perm == nodes
    a = nodes[perm > nodes]
    return nodes[fixed & (signs > 0)], nodes[fixed & (signs < 0)], a, perm[a]


def _commutes_with_parity(A: np.ndarray, grid: Grid, scale: float) -> bool:
    perm, signs = parity_map(grid)
    D = A.take(perm, axis=0).take(perm, axis=1)
    D *= signs[:, None]
    D *= signs
    D -= A
    return float(np.abs(D, out=D).max()) <= _PARITY_TOL * scale


def _fold(A: np.ndarray, fixed, a, b, sign: float) -> np.ndarray:
    """Block of A on the parity-``sign`` vectors e_f and (e_a + sign e_b)/sqrt2.

    Fixed nodes come first, then the pairs; the pair-pair part is the 4-term
    sum scaled once by 0.5, the fixed-pair part one 2-term sum times 1/sqrt2.
    """
    pp = 0.5 * (A[np.ix_(a, a)] + sign * A[np.ix_(a, b)] + sign * A[np.ix_(b, a)] + A[np.ix_(b, b)])
    fp = (A[np.ix_(fixed, a)] + sign * A[np.ix_(fixed, b)]) * _SQRT_HALF
    E = np.block([[A[np.ix_(fixed, fixed)], fp], [fp.T, pp]])
    return 0.5 * (E + E.T)


def _unfold(V: np.ndarray, Y: np.ndarray, cols, fixed, a, b, sign: float) -> None:
    """Scatter block eigenvectors Y back onto the grid, into columns ``cols``."""
    f = len(fixed)
    V[np.ix_(fixed, cols)] = Y[:f]
    half = Y[f:] * _SQRT_HALF
    V[np.ix_(a, cols)] = half
    V[np.ix_(b, cols)] = sign * half


def _eigh(A: np.ndarray):
    try:
        return np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigendecomposition failed: {exc}")


def eigendecompose(H: OperatorMatrix) -> Spectrum:
    """Full spectrum of a real symmetric operator matrix.

    If H carries a grid and commutes with its reflection P (an even
    potential), the even and odd blocks are solved separately and the two
    spectra merged in ascending order by a stable sort, so an exact tie puts
    the even state first; each eigenvector is then exactly even or odd.
    Otherwise one full ``eigh`` is used.  Every eigenvector gets the
    positive-largest-component sign.
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

    parities = None
    if H.grid is not None and _commutes_with_parity(A, H.grid, scale):
        w, V, parities = _parity_block_eigh(A, H.grid)
    else:
        w, V = _eigh(A)
    return Spectrum(eigenvalues=w, eigenvectors=_fix_signs(V), grid=H.grid, parities=parities)


def _parity_block_eigh(A: np.ndarray, grid: Grid):
    """Eigenpairs of a reflection-symmetric A from its even and odd blocks.

    Returns (eigenvalues, eigenvectors, parities), parity +1 for a state of
    the even block and -1 for one of the odd block.
    """
    even_fixed, odd_fixed, a, b = _parity_orbits(grid)
    w_even, Y_even = _eigh(_fold(A, even_fixed, a, b, 1.0))
    w_odd, Y_odd = _eigh(_fold(A, odd_fixed, a, b, -1.0))
    w = np.concatenate((w_even, w_odd))
    order = np.argsort(w, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(len(order))
    V = np.zeros_like(A)
    _unfold(V, Y_even, column[: len(w_even)], even_fixed, a, b, 1.0)
    _unfold(V, Y_odd, column[len(w_even):], odd_fixed, a, b, -1.0)
    parities = np.where(order < len(w_even), 1, -1)
    return w[order], V, parities


def parity_signs(spec: Spectrum) -> np.ndarray:
    """+1 for each even state, -1 for each odd one and 0 for a mixed one.

    A parity-block spectrum carries its signs.  Otherwise each state's
    weights on the even and odd subspaces, |v + Pv|^2 / 4 and |v - Pv|^2 / 4,
    decide: mixed when both exceed the threshold, else the larger one.
    """
    if spec.parities is not None:
        return spec.parities
    V = spec.eigenvectors
    PV = _apply_parity(spec.grid, V)
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
