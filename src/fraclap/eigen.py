"""Dense symmetric eigendecomposition, eigenvector post-processing and evolution.

A ``Hamiltonian`` with an even potential is solved in its free modes: every
mode column of the grid has a definite parity (``basis.mode_parities``), so
the even and odd mode columns give two blocks, each solved on its own, and
every eigenvector has an exact parity, also inside the free periodic cos/sin
pairs that are degenerate in the Mathieu problem at q = 0.  No dense grid
matrix is formed on that route, and the ``Spectrum`` keeps the states as
mode coefficients: the grid vectors (``Spectrum.eigenvectors``, with a fixed
sign convention: largest-magnitude component positive) are formed only when
something reads them.  ``evolve`` never does; it works in the modes, for
every requested time at once.  ``mode_state`` reads one state's coefficients
over all mode columns, which is what the Mathieu q-sweep compares from step
to step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
class ModeBlock:
    """States solved together over some columns of the mode matrix.

    ``vectors`` holds their coefficients over the columns ``cols``, one
    state per column, and ``at`` their positions in the ascending spectrum.
    """

    cols: np.ndarray
    at: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with orthonormal states held in the free modes.

    State ``at[j]`` of a block is, up to its sign, the grid vector
    S[:, cols] @ vectors[:, j] with S = ``modes``, the mode matrix of the
    Hamiltonian (shared, not copied).  A full ``eigh`` has ``modes`` None
    (S = I) and one block that holds the grid vectors themselves.
    ``parities`` holds +1 (even) or -1 (odd) per state when the spectrum
    came from a parity-block solve, which fixes every state's parity
    exactly; it is None after a full ``eigh``.
    """

    eigenvalues: np.ndarray
    grid: Grid
    blocks: tuple[ModeBlock, ...]
    modes: np.ndarray | None = None
    parities: np.ndarray | None = None

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """The states as grid vectors (columns), each with its largest component positive.

        After a block solve each block's vectors are formed on its rows (one
        node of each mirror pair, then the fixed nodes) and copied, times the
        block parity, to the mirror nodes.
        """
        if self.modes is None:
            return self.blocks[0].vectors
        perm, pairs, layout = _parity_layout(self.grid)
        dim = len(self.eigenvalues)
        vectors = np.zeros((dim, dim), order="F")  # _fix_signs reduces columns uncopied
        for (sign, rows, _, _), block in zip(layout, self.blocks):
            G = self.modes[np.ix_(rows, block.cols)] @ block.vectors
            vectors[np.ix_(rows, block.at)] = G
            G[: len(pairs)] *= sign
            vectors[np.ix_(perm[pairs], block.at)] = G[: len(pairs)]
        return _fix_signs(vectors)


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
    states = np.arange(len(w))
    # eigh returns row-major vectors; _fix_signs would copy them twice
    block = ModeBlock(states, states, _fix_signs(np.asfortranarray(vectors)))
    return Spectrum(eigenvalues=w, grid=H.grid, blocks=(block,))


def _mode_block(H: Hamiltonian, rows, cols, weight) -> np.ndarray:
    """diag(kinetic[cols]) + X^T diag(weight V[rows]) X; X = S[rows, cols] dies before the eigh."""
    X = H.modes[np.ix_(rows, cols)]
    A = (X.T * (weight * H.potential[rows])) @ X
    A.flat[:: len(cols) + 1] += H.kinetic[cols]
    return A


def _parity_layout(grid: Grid):
    """Rows and mode columns of the even and the odd block of ``grid``.

    Returns (perm, pairs, layout): the grid reflection of ``parity_map``, the
    lower node of each mirror pair, and one (sign, rows, cols, weight) per
    block, even first.  The rows are the pair nodes, with weight 2, then the
    fixed nodes of the block's parity, with weight 1; the columns are the
    mode columns of that parity.
    """
    perm, signs = parity_map(grid)
    nodes = np.arange(grid.dim)
    fixed = perm == nodes
    pairs = nodes[perm > nodes]
    layout = []
    for sign in (1, -1):
        rows = np.concatenate((pairs, nodes[fixed & (signs == sign)]))
        cols = np.flatnonzero(mode_parities(grid) == sign)
        weight = np.where(np.arange(len(rows)) < len(pairs), 2.0, 1.0)
        layout.append((sign, rows, cols, weight))
    return perm, pairs, layout


def _mode_block_eigh(H: Hamiltonian) -> Spectrum:
    """Eigenpairs of a Hamiltonian with an even potential, one parity block at a time.

    Block b is diag(kinetic_b) + X_b^T diag(w V) X_b with X_b = S[rows, cols_b]
    on the rows and columns of ``_parity_layout``.  Its eigenvectors stay
    mode coefficients; their eigenvalues merge in ascending order by a
    stable sort.  A state of the even block gets parity +1, one of the odd
    block -1.
    """
    _, _, layout = _parity_layout(H.grid)
    solved = [(cols, *_eigh(_mode_block(H, rows, cols, weight))) for _, rows, cols, weight in layout]
    n_even = len(solved[0][1])
    w = np.concatenate((solved[0][1], solved[1][1]))
    order = np.argsort(w, kind="stable")
    blocks = tuple(
        ModeBlock(cols, at, Y)
        for (cols, _, Y), at in zip(solved, np.split(np.argsort(order), [n_even]))
    )
    return Spectrum(
        w[order], H.grid, blocks, modes=H.modes, parities=np.where(order < n_even, 1, -1)
    )


def mode_state(spec: Spectrum, i: int) -> np.ndarray:
    """Coefficients of state i over all mode columns, with no grid vector formed.

    Its block's column of Y_b, scattered to the block's ``cols``, zeros
    elsewhere; after a full ``eigh`` (S = I) it is the grid vector itself.
    It keeps the sign of the block solution, so it equals S^T v_i for the
    grid vector v_i of ``Spectrum.eigenvectors`` only up to sign.
    """
    y = np.zeros(len(spec.eigenvalues))
    for block in spec.blocks:
        j = np.flatnonzero(block.at == i)
        if len(j):
            y[block.cols] = block.vectors[:, j[0]]
            return y
    raise DimensionError(f"no state {i} in a spectrum of {len(spec.eigenvalues)}")


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
    """A @ z for a real matrix A and a complex vector or matrix z, by two real products.

    numpy would otherwise cast the whole of A to complex on every call.
    """
    out = np.empty(A.shape[:1] + z.shape[1:], dtype=complex)
    out.real = A @ z.real
    out.imag = A @ z.imag
    return out


def _grid_samples(spec: Spectrum, psi0) -> np.ndarray:
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (len(spec.eigenvalues),):
        raise DimensionError(
            f"expected {len(spec.eigenvalues)} samples, got shape {psi0.shape}"
        )
    return psi0


def mode_coefficients(spec: Spectrum, psi0) -> np.ndarray:
    """Expansion coefficients of grid samples psi0, state by state, from the modes.

    c = Y_b^T (S^T psi0)[cols_b] for each block, so no grid vector is
    formed.  Each state keeps the sign of its block solution, so c equals
    ``evolution_coefficients`` up to one sign per state, and |c| is the same.
    """
    psi0 = _grid_samples(spec, psi0)
    a = psi0 if spec.modes is None else _times_complex(spec.modes.T, psi0)
    c = np.empty(len(spec.eigenvalues), dtype=complex)
    for block in spec.blocks:
        c[block.at] = _times_complex(block.vectors.T, a[block.cols])
    return c


def evolve(spec: Spectrum, psi0, hbar: float, t) -> np.ndarray:
    """Propagate grid samples psi0 to time t, or to each time of a 1-D sequence t.

    Expansion coefficients are the Euclidean projections c_n = v_n . psi0,
    the exact discrete analogue of the continuum overlap integrals; each is
    carried forward by the phase exp(-i t E_n / hbar).  The work stays in
    the modes: c from ``mode_coefficients``, then the mode amplitudes
    Z[cols_b] = Y_b (exp(-i E_b t / hbar) c_b) for every t, then S Z, each a
    pair of real matrix products.  A scalar t gives shape (dim,), a sequence
    (dim, len(t)).  At t = 0 this returns psi0 itself (the eigenbasis is
    complete on the grid).
    """
    c = mode_coefficients(spec, psi0)
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise DimensionError(f"t must be a number or a 1-D sequence, got shape {times.shape}")
    phases = np.exp(-1j * times.reshape(-1) * spec.eigenvalues[:, None] / hbar)
    Z = np.empty(phases.shape, dtype=complex)
    for block in spec.blocks:
        Z[block.cols] = _times_complex(block.vectors, phases[block.at] * c[block.at, None])
    psi = Z if spec.modes is None else _times_complex(spec.modes, Z)
    return psi if times.ndim else psi[:, 0]


def evolution_coefficients(spec: Spectrum, psi0) -> np.ndarray:
    """Eigenbasis expansion coefficients v_n . psi0 of grid samples psi0.

    They follow the sign convention of ``Spectrum.eigenvectors``, which this
    forms if nothing has read it yet.
    """
    return _times_complex(spec.eigenvectors.T, _grid_samples(spec, psi0))
