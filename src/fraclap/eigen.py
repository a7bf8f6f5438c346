"""Eigendecomposition of a Hamiltonian in its free modes, state post-processing and evolution.

Every mode column of the grid has a definite parity (``basis.mode_parities``),
so a ``Hamiltonian`` is solved over its even and its odd mode columns: two
independent blocks when V is even, or one coupled matrix of the two when it
is not.  Every product runs on the two half-blocks of S that the
Hamiltonian holds (``basis.parity_halves``); neither S nor a dense grid
matrix is formed.  For an even V every eigenvector has an exact parity, also
inside the free periodic cos/sin pairs that are degenerate in the Mathieu
problem at q = 0.  The ``Spectrum`` keeps the
states as mode coefficients: the grid vectors (``Spectrum.eigenvectors``,
with a fixed sign convention: largest-magnitude component positive) are
formed only when something reads them.  ``evolve`` never does; it works in
the modes, for every requested time at once.

``eigendecompose(H, vectors=False)`` solves for the eigenvalues only
(``eigvalsh``); its ``Spectrum`` still places each state in its block, so
an even V's parities are known, but every reader of the states raises a
``ContractError``.  The Mathieu q-sweep takes each step that way and asks
``block_vectors`` for one block's states only where its eigenvalues cannot
prove a branch continuous.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import (
    BasisKind,
    Grid,
    HalfBlock,
    ParityHalves,
    coefficients,
    interpolate,
    mode_matrix,
    mode_numbers,
    quadrature_weights,
)
from .errors import ContractError, DimensionError, NumericalError
from .hamiltonian import Hamiltonian

# Largest |V(-x_k) - V(x_k)|, relative to max(1, max|V|), for which the even
# and the odd block of a Hamiltonian are solved apart.
_PARITY_TOL = 1e-14
# Overlap with the minority parity above which a state is called mixed.
_MIXED_THRESHOLD = 0.1


@dataclass(frozen=True)
class ModeBlock:
    """Some states of a spectrum over the mode columns of one parity.

    ``at`` holds the states' positions in the ascending spectrum and
    ``vectors`` their coefficients over the columns ``cols`` of the matching
    ``ParityHalves`` block, one state per column; None after a values-only
    solve.
    """

    at: np.ndarray
    vectors: np.ndarray | None


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with orthonormal states held in the free modes.

    ``halves`` are the mode half-blocks of the Hamiltonian (shared, not
    copied) and ``blocks`` the states over their even and their odd mode
    columns, in that order.  Up to its sign, the grid vector of state i is
    the sum over the blocks of S[:, cols] @ vectors[:, j] with at[j] = i, for
    the mode matrix S.  An even V puts each state in one block; any other V
    puts every state in both.  A values-only solve keeps the ``at`` of each
    block and no ``vectors``.
    """

    eigenvalues: np.ndarray
    grid: Grid
    blocks: tuple[ModeBlock, ...]
    halves: ParityHalves

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """The states as grid vectors (columns), each with its largest component positive.

        Each block's part X_b @ Y_b is formed on its half-block rows (one
        node of each mirror pair, then the fixed nodes) and put there and,
        times the block parity, at the mirror nodes.  A block of a coupled
        solve holds every state, in order, and adds its part to the other
        block's; a block of an even V holds states of its own and writes its
        part in place, about twice as fast as a fancy-indexed add (18 against
        32 ms at N = 500).
        """
        _require_vectors(self, "eigenvectors")
        mirror, n_pairs = self.halves.mirror, len(self.halves.pairs)
        dim = len(self.eigenvalues)
        vectors = np.zeros((dim, dim), order="F")  # _fix_signs reduces columns uncopied
        for half, block in zip(self.halves.blocks, self.blocks):
            G = half.modes @ block.vectors
            if len(block.at) == dim:
                vectors[half.rows] += G
                vectors[mirror] += half.sign * G[:n_pairs]
            else:
                vectors[np.ix_(half.rows, block.at)] = G
                G[:n_pairs] *= half.sign
                vectors[np.ix_(mirror, block.at)] = G[:n_pairs]
        return _fix_signs(vectors)


def _require_vectors(spec: Spectrum, reader: str) -> None:
    """A ContractError unless ``spec`` holds its states (not a values-only solve)."""
    if spec.blocks[0].vectors is None:
        raise ContractError(
            f"{reader} reads the states, and this spectrum holds eigenvalues only; "
            "solve with eigendecompose(H) to keep them"
        )


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


def _eigh(A: np.ndarray, vectors: bool = True):
    try:
        return np.linalg.eigh(A) if vectors else (np.linalg.eigvalsh(A), None)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigendecomposition failed: {exc}")


def eigendecompose(H: Hamiltonian, vectors: bool = True) -> Spectrum:
    """Spectrum of a Hamiltonian, solved over its even and its odd mode columns.

    On the half-blocks X_b = S[rows_b, cols_b] of ``H.halves`` the even-even
    and the odd-odd blocks are diag(kinetic_b) + X_b^T diag(V+) X_b, with
    V+ = V_a + V_Pa on a mirror pair (a, Pa) and V on a fixed node.  The
    even-odd block is X_e^T diag(V-) X_o over the pairs only, with
    V- = V_a - V_Pa, since one of the two parities vanishes on a fixed node.
    An even V has V- = 0 (to ``_PARITY_TOL``): its two blocks are solved
    apart, with V+ = 2 V_a, and their spectra merge in ascending order by a
    stable sort, so an exact tie puts the even state first.  Any other V takes
    one ``eigh`` of the coupled matrix [[A_ee, C], [C^T, A_oo]], whose
    eigenvectors are kept as their even and their odd rows.  With
    ``vectors=False`` each solve is an ``eigvalsh`` (the same levels to
    rounding, about twice as fast) and the blocks keep no states.
    """
    if not isinstance(H, Hamiltonian):
        raise ContractError(f"eigendecompose takes a Hamiltonian, got {type(H).__name__}")
    if not np.all(np.isfinite(H.kinetic)):
        raise NumericalError(
            f"|p|^alpha overflows at alpha = {H.spec.alpha:g}, N = {H.grid.N}, "
            f"L = {H.grid.L:g}: the box is too small for its mode momenta; "
            "use a larger L (or a lower alpha or N)"
        )
    halves = H.halves
    minus, weights = _block_weights(H)
    if minus is None:
        # each block matrix is formed just before its solve and dropped after it
        solved = [
            _eigh(_mode_block(half, H.kinetic, wV), vectors)
            for half, wV in zip(halves.blocks, weights)
        ]
        w = np.concatenate((solved[0][0], solved[1][0]))
        order = np.argsort(w, kind="stable")
        at = np.split(np.argsort(order), [len(solved[0][0])])
        blocks = tuple(ModeBlock(at_b, Y) for (_, Y), at_b in zip(solved, at))
        return Spectrum(w[order], H.grid, blocks, halves)
    even_half, odd_half = halves.blocks
    A_ee, A_oo = (_mode_block(half, H.kinetic, wV) for half, wV in zip(halves.blocks, weights))
    n_pairs = len(halves.pairs)
    C = (even_half.modes[:n_pairs].T * minus) @ odd_half.modes[:n_pairs]
    w, Y = _eigh(np.block([[A_ee, C], [C.T, A_oo]]), vectors)
    states = np.arange(len(w))
    Y_e, Y_o = np.split(Y, [len(even_half.cols)]) if vectors else (None, None)
    return Spectrum(w, H.grid, (ModeBlock(states, Y_e), ModeBlock(states, Y_o)), halves)


def _block_weights(H: Hamiltonian):
    """(V-, [V+ on the even half-block rows, V+ on the odd ones]); V- is None for an even V."""
    halves = H.halves
    pairs, mirror = halves.pairs, halves.mirror
    V = H.potential
    minus = V[pairs] - V[mirror]
    even = np.abs(minus).max(initial=0.0) <= _PARITY_TOL * max(1.0, float(np.abs(V).max()))
    plus = 2.0 * V[pairs] if even else V[pairs] + V[mirror]
    weights = [np.concatenate((plus, V[half.rows[len(pairs):]])) for half in halves.blocks]
    return (None if even else minus), weights


def block_vectors(H: Hamiltonian, b: int) -> np.ndarray:
    """The states of block b (0 even, 1 odd) of an even-V Hamiltonian, ascending.

    The same bits as ``eigendecompose(H).blocks[b].vectors``, from one block
    matrix and one ``eigh``; the other block is not formed.
    """
    minus, weights = _block_weights(H)
    if minus is not None:
        raise ContractError("block_vectors needs an even potential; this one couples the blocks")
    return _eigh(_mode_block(H.halves.blocks[b], H.kinetic, weights[b]))[1]


def _mode_block(half: HalfBlock, kinetic: np.ndarray, wV: np.ndarray) -> np.ndarray:
    """diag(kinetic[cols]) + X^T diag(wV) X for the half-block X of ``half``."""
    X = half.modes
    A = (X.T * wV) @ X
    A.flat[:: len(half.cols) + 1] += kinetic[half.cols]
    return A


def parity_signs(spec: Spectrum) -> np.ndarray:
    """+1 for each even state, -1 for each odd one and 0 for a mixed one.

    Each state's mass on the even mode columns and on the odd ones decides:
    mixed when both exceed the threshold, else the larger one.  S is
    orthogonal, so the two masses are the reflection weights |v + Pv|^2 / 4
    and |v - Pv|^2 / 4 of the grid vector v.
    """
    _require_vectors(spec, "parity_signs")
    mass = np.zeros((2, len(spec.eigenvalues)))
    for m, block in zip(mass, spec.blocks):
        m[block.at] = np.einsum("ij,ij->j", block.vectors, block.vectors)
    even_w, odd_w = mass
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
    _require_vectors(spec, "classify_parity")
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
    _require_vectors(spec, "reconstruct")
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


def mode_coefficients(spec: Spectrum, psi0) -> np.ndarray:
    """Expansion coefficients of grid samples psi0, state by state, from the modes.

    c is the sum over the blocks of Y_b^T a_b, with a_b = X_b^T u_b the mode
    amplitudes of psi0 over the block's columns: u_b is psi0 folded onto the
    half-block rows, psi0[a] + s psi0[Pa] on a pair node a (s the block
    parity) and psi0 on a fixed node.  No grid vector is formed.  Each state
    keeps the sign of its solution, so c equals the projections v_n . psi0
    on the grid vectors of ``Spectrum.eigenvectors`` up to one sign per
    state, and |c| is the same.
    """
    _require_vectors(spec, "mode_coefficients")
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (len(spec.eigenvalues),):
        raise DimensionError(
            f"expected {len(spec.eigenvalues)} samples, got shape {psi0.shape}"
        )
    mirror, n_pairs = spec.halves.mirror, len(spec.halves.pairs)
    c = np.zeros(len(spec.eigenvalues), dtype=complex)
    for half, block in zip(spec.halves.blocks, spec.blocks):
        u = psi0[half.rows]
        u[:n_pairs] += half.sign * psi0[mirror]
        a = _times_complex(half.modes.T, u)
        c[block.at] += _times_complex(block.vectors.T, a)
    return c


def evolve(spec: Spectrum, psi0, hbar: float, t) -> np.ndarray:
    """Propagate grid samples psi0 to time t, or to each time of a 1-D sequence t.

    Expansion coefficients are the Euclidean projections c_n = v_n . psi0,
    the exact discrete analogue of the continuum overlap integrals; each is
    carried forward by the phase exp(-i t E_n / hbar).  The work stays in
    the modes: c from ``mode_coefficients``, then the mode amplitudes
    Z_b = Y_b (exp(-i E_b t / hbar) c_b) for every t, then X_b Z_b on each
    half-block's rows and, times the block parity, on the mirrors of its
    pair rows, each a pair of real matrix products.  A scalar t gives shape
    (dim,), a sequence (dim, len(t)).  At t = 0 this returns psi0 itself
    (the eigenbasis is complete on the grid).
    """
    _require_vectors(spec, "evolve")
    c = mode_coefficients(spec, psi0)
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise DimensionError(f"t must be a number or a 1-D sequence, got shape {times.shape}")
    phases = np.exp(-1j * times.reshape(-1) * spec.eigenvalues[:, None] / hbar)
    mirror, n_pairs = spec.halves.mirror, len(spec.halves.pairs)
    psi = np.zeros(phases.shape, dtype=complex)
    for half, block in zip(spec.halves.blocks, spec.blocks):
        Z = _times_complex(block.vectors, phases[block.at] * c[block.at, None])
        G = _times_complex(half.modes, Z)
        psi[half.rows] += G
        psi[mirror] += half.sign * G[:n_pairs]
    return psi if times.ndim else psi[:, 0]
