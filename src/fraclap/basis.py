"""Little-sinc sampling sets on [-L, L] for four boundary-condition families.

Each basis kind carries a uniform grid of sampling points and a family of
cardinal sampling functions s_k, stored through their expansion coefficients
C_n(k, N) in the exponentials exp(i n pi x / (2L)), n = -2N..2N.  The
coefficients are independent of L; only the grid points and the exponential
frequencies scale with it.

The same sampling set is also a set of free modes with momenta n pi / (2L)
(``mode_numbers``) and an orthogonal real transform from modes to grid
samples (``mode_matrix``): a DST-I for Dirichlet, a DCT-II for Neumann, a
real DFT for periodic and an odd-harmonic real DFT for antiperiodic grids.
Every even spectral multiplier m(|p|) is diagonal in these modes, so the
Dirichlet kind discretizes the *spectral* fractional Laplacian of the box
(exact levels ``reference.exact_box_energy``), not the whole-line
|p|^alpha restricted to the well.  Every mode is even or odd under
x -> -x, so solves hold S as its two half-blocks (``parity_halves``): the
even and the odd mode columns on one node of each mirror pair plus the
fixed nodes, from which the mirror rows follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError

# Maximum imaginary residue tolerated when a sampling-function sum is
# collapsed to its real part.
_IMAG_TOL = 1e-12

# i**m evaluated exactly, indexed by m mod 4.
_IPOW = np.array([1.0, 1.0j, -1.0, -1.0j])


class BasisKind(Enum):
    PERIODIC = "periodic"  # f(-L) = f(L)
    DIRICHLET = "dirichlet"  # f(-L) = f(L) = 0
    ANTIPERIODIC = "antiperiodic"  # f(-L) = -f(L)
    NEUMANN = "neumann"  # f'(-L) = f'(L) = 0


@dataclass(frozen=True)
class Grid:
    """Uniform sampling grid of one basis kind.

    ``indices`` are the integer labels k of the sampling points and
    ``points`` the abscissae x_k; both are ordered increasingly.
    """

    kind: BasisKind
    N: int
    L: float
    indices: np.ndarray
    points: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.indices)

    def position(self, k: int) -> int:
        """Array position of grid index k."""
        pos = int(k - self.indices[0])
        if pos < 0 or pos >= self.dim or self.indices[pos] != k:
            raise IndexError(f"grid index {k} outside {self.kind.value} index set")
        return pos


@dataclass(frozen=True)
class SpectralCoefficients:
    """Expansion coefficients C_n(k, N) of every sampling function.

    ``values[p, q]`` is the coefficient of exp(i n pi x / (2L)) in s_k,
    with k = grid.indices[p] and n = n_values[q].
    """

    grid: Grid
    values: np.ndarray  # complex, shape (dim, 4N + 1)
    n_values: np.ndarray  # integers -2N..2N


def make_grid(kind: BasisKind, N: int, L: float) -> Grid:
    """Build the sampling grid for a basis kind.

    Periodic and Neumann sets use x_k = 2Lk/(2N+1), k = -N..N.  Dirichlet
    uses x_k = Lk/N with the endpoints dropped (they carry f = 0), and the
    antiperiodic set uses x_k = Lk/N for k = -N..N-1 (the value at +L is
    determined by the one at -L).
    """
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise ParameterError(f"N must be an integer >= 2, got {N!r}")
    if not np.isfinite(L) or L <= 0:
        raise ParameterError(f"L must be a positive real, got {L!r}")

    if kind in (BasisKind.PERIODIC, BasisKind.NEUMANN):
        indices = np.arange(-N, N + 1)
        points = 2.0 * L * indices / (2 * N + 1)
    elif kind == BasisKind.DIRICHLET:
        indices = np.arange(-(N - 1), N)
        points = L * indices / N
    elif kind == BasisKind.ANTIPERIODIC:
        indices = np.arange(-N, N)
        points = L * indices / N
    else:  # pragma: no cover - enum is exhaustive
        raise ParameterError(f"unknown basis kind {kind!r}")

    return Grid(kind=kind, N=int(N), L=float(L), indices=indices, points=points)


def mode_numbers(grid: Grid) -> np.ndarray:
    """Mode number n of each free mode, one per column of ``mode_matrix``.

    Mode n has momentum n pi / (2L).  Periodic modes 2r > 0 and antiperiodic
    modes come in cosine/sine pairs, so their numbers appear twice.
    """
    N = grid.N
    if grid.kind == BasisKind.DIRICHLET:
        return np.arange(1, 2 * N)
    if grid.kind == BasisKind.NEUMANN:
        return np.arange(0, 2 * N + 1)
    if grid.kind == BasisKind.PERIODIC:
        return np.concatenate(([0], np.repeat(np.arange(2, 2 * N + 1, 2), 2)))
    return np.repeat(np.arange(1, 2 * N, 2), 2)  # ANTIPERIODIC


def mode_momenta(grid: Grid) -> np.ndarray:
    """Momentum n pi / (2L) >= 0 of each free mode."""
    return mode_numbers(grid) * np.pi / (2.0 * grid.L)


def _table(fn, period: int) -> np.ndarray:
    """fn(2 pi m / period) for m = 0..period-1."""
    return fn(2.0 * np.pi * np.arange(period) / period)


def _mode_columns(grid: Grid, rows: np.ndarray, sign: int) -> np.ndarray:
    """mode_matrix(grid)[np.ix_(rows, cols)] for the mode columns cols of parity ``sign``.

    All columns of one parity sample one scaled sine or cosine table (the
    cosines of a periodic or antiperiodic pair are its even columns, the
    sines its odd ones), so the entries asked for are the only ones looked
    up.  The result is C-contiguous.
    """
    N, M = grid.N, 2 * grid.N + 1
    n = mode_numbers(grid)[mode_parities(grid) == sign]
    k = grid.indices[rows]
    if grid.kind == BasisKind.DIRICHLET:
        a, period, table = k + N, 4 * N, _table(np.sin, 4 * N) / np.sqrt(N)
    elif grid.kind == BasisKind.NEUMANN:
        a, period, table = 2 * k + M, 4 * M, _table(np.cos, 4 * M) * np.sqrt(2.0 / M)
    else:
        fn = np.cos if sign == 1 else np.sin
        if grid.kind == BasisKind.PERIODIC:
            a, period, scale = k, 2 * M, np.sqrt(2.0 / M)
        else:  # ANTIPERIODIC
            a, period, scale = k, 4 * N, 1.0 / np.sqrt(N)
        table = _table(fn, period) * scale
    phase = a[:, None] * n
    phase %= period
    X = table[phase]
    if n[0] == 0:  # the constant mode of a Neumann or periodic grid
        X[:, 0] = 1.0 / np.sqrt(M)
    return X


def mode_matrix(grid: Grid) -> np.ndarray:
    """Orthogonal matrix S whose column i samples free mode i on the grid.

    Columns follow ``mode_numbers``.  Dirichlet and Neumann phases count
    rows from the left end, j = k + N; periodic and antiperiodic phases use
    j = k, centred on x = 0, so every column is even or odd under the grid
    reflection (``mode_parities``).  Each phase is the integer j n
    (2j + 1 for Neumann) reduced modulo its period before the lookup in a
    scaled sine or cosine table, so no large trig argument and no rounded
    multiple of pi enters, and only the real table each column needs is
    gathered.  Solves hold S as its two ``parity_halves`` instead; the dense
    S serves the oracles.
    """
    S = np.empty((grid.dim, grid.dim))
    rows = np.arange(grid.dim)
    parities = mode_parities(grid)
    for sign in (1, -1):
        S[:, parities == sign] = _mode_columns(grid, rows, sign)
    return S


def mode_parities(grid: Grid) -> np.ndarray:
    """+1 for each even column of ``mode_matrix``, -1 for each odd one.

    Dirichlet sin(n pi (x + L) / 2L) is even for odd n, Neumann
    cos(n pi (x + L) / 2L) for even n; centred pairs are cosine and sine.
    """
    n = mode_numbers(grid)
    if grid.kind == BasisKind.DIRICHLET:
        return np.where(n % 2 == 1, 1, -1)
    if grid.kind == BasisKind.NEUMANN:
        return np.where(n % 2 == 0, 1, -1)
    signs = np.ones(len(n), dtype=int)
    signs[1 - 2 * grid.N::2] = -1
    return signs


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


@dataclass(frozen=True)
class HalfBlock:
    """The mode columns of one parity, on the grid rows that determine them.

    ``rows`` are the lower node of each mirror pair, then the fixed nodes of
    parity ``sign``; ``cols`` are the mode columns of that parity, and
    ``modes`` is mode_matrix(grid)[np.ix_(rows, cols)], C-contiguous.  A
    column's sample at the mirror of a pair node is ``sign`` times its
    sample there, and it vanishes (to rounding) on the fixed nodes of the
    other parity.
    """

    sign: int
    rows: np.ndarray
    cols: np.ndarray
    modes: np.ndarray


@dataclass(frozen=True)
class ParityHalves:
    """The mode matrix S of a grid held as its even and its odd half-block.

    ``perm`` is the grid reflection of ``parity_map``, ``pairs`` the lower
    node of each mirror pair and ``blocks`` the two ``HalfBlock``s, even
    first.  Together they give every entry of S to rounding, in about half
    its memory.
    """

    perm: np.ndarray
    pairs: np.ndarray
    blocks: tuple[HalfBlock, HalfBlock]

    @property
    def mirror(self) -> np.ndarray:
        """The mirror node of each pair node."""
        return self.perm[self.pairs]


def parity_halves(grid: Grid) -> ParityHalves:
    """The even and the odd half-block of ``mode_matrix(grid)``, built without S.

    Each is looked up from its integer phases, as ``mode_matrix`` does, over
    its own rows and columns only: about half the table work of S, and the
    same bits as the gathers S[np.ix_(rows, cols)].
    """
    perm, signs = parity_map(grid)
    nodes = np.arange(grid.dim)
    fixed = perm == nodes
    pairs = nodes[perm > nodes]
    parities = mode_parities(grid)
    blocks = []
    for sign in (1, -1):
        rows = np.concatenate((pairs, nodes[fixed & (signs == sign)]))
        cols = np.flatnonzero(parities == sign)
        blocks.append(HalfBlock(sign, rows, cols, _mode_columns(grid, rows, sign)))
    return ParityHalves(perm, pairs, tuple(blocks))


def phase_period(grid: Grid) -> int:
    """Integer period P with x_k = 4 L k / P on the grid.

    So exp(i n pi x_k / (2L)) = exp(2 pi i n k / P): every exponential of
    the expansion, sampled on the grid, is a P-th root of unity raised to the
    integer power n k.
    """
    if grid.kind in (BasisKind.PERIODIC, BasisKind.NEUMANN):
        return 2 * (2 * grid.N + 1)
    return 4 * grid.N


def coefficients(grid: Grid) -> SpectralCoefficients:
    """Coefficients C_n(k, N) of s_k in exp(i n pi x / (2L)), n = -2N..2N.

    These depend only on the kind and on N, never on L.  Every C_n(k, N) is
    a sine or cosine of 2 pi m / period for an integer phase m, so, as in
    ``mode_matrix``, the phases are reduced modulo their period and gathered
    from one pre-scaled sine or cosine table:

    - periodic, even n: exp(-2 pi i n k / P) / (2N + 1), odd n vanish;
    - antiperiodic, odd n: exp(-2 pi i n k / P) / (2N), even n vanish;
    - Dirichlet: i^(n-1) sin(2 pi n (k + N) / 4N) / (2N);
    - Neumann: i^n cos(2 pi n (2k + 2N + 1) / (4(2N + 1))) / (2N + 1);

    with P = ``phase_period(grid)``.
    """
    N = grid.N
    n = np.arange(-2 * N, 2 * N + 1)
    k = grid.indices[:, None]
    M = 2 * N + 1

    if grid.kind in (BasisKind.PERIODIC, BasisKind.ANTIPERIODIC):
        period = phase_period(grid)
        if grid.kind == BasisKind.PERIODIC:
            cols, scale = n % 2 == 0, 1.0 / M
        else:
            cols, scale = n % 2 == 1, 1.0 / (2 * N)
        phase = k * n[cols]
        phase %= period
        values = np.zeros((grid.dim, len(n)), dtype=complex)
        values.real[:, cols] = (_table(np.cos, period) * scale)[phase]
        values.imag[:, cols] = (_table(np.sin, period) * -scale)[phase]
    elif grid.kind == BasisKind.DIRICHLET:
        phase = (k + N) * n
        phase %= 4 * N
        values = _IPOW[(n - 1) % 4] * (_table(np.sin, 4 * N) / (2 * N))[phase]
    else:  # NEUMANN
        phase = (2 * k + M) * n
        phase %= 4 * M
        values = _IPOW[n % 4] * (_table(np.cos, 4 * M) / M)[phase]

    return SpectralCoefficients(grid=grid, values=values, n_values=n)


def _exponential_table(coeffs: SpectralCoefficients, x) -> np.ndarray:
    """exp(i n pi x / (2L)) for all n, shape (4N+1, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    freq = coeffs.n_values[:, None] * np.pi / (2.0 * coeffs.grid.L)
    return np.exp(1j * freq * x[None, :])


def _collapse_real(z: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.abs(z).max(initial=0.0)))
    resid = float(np.abs(z.imag).max(initial=0.0))
    if resid > _IMAG_TOL * scale:
        raise NumericalError(f"imaginary residue {resid:.3e} exceeds tolerance")
    return np.ascontiguousarray(z.real)


def eval_sampling_function(coeffs: SpectralCoefficients, k: int, x) -> float | np.ndarray:
    """Evaluate s_k at x (scalar or array); the result is real."""
    row = coeffs.values[coeffs.grid.position(k)]
    vals = _collapse_real(row @ _exponential_table(coeffs, x))
    return float(vals[0]) if np.isscalar(x) else vals


def interpolate(coeffs: SpectralCoefficients, samples, x) -> float | np.ndarray:
    """Evaluate sum_k samples[k] * s_k(x) at x (scalar or array)."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (coeffs.grid.dim,):
        raise DimensionError(
            f"expected {coeffs.grid.dim} samples, got shape {samples.shape}"
        )
    row = samples @ coeffs.values
    vals = _collapse_real(row @ _exponential_table(coeffs, x))
    return float(vals[0]) if np.isscalar(x) else vals


def quadrature_weights(coeffs: SpectralCoefficients) -> np.ndarray:
    """Weights w_k = integral of s_k over [-L, L], computed term by term.

    The n = 0 exponential integrates to 2L, every other one to
    (4L / (n pi)) sin(n pi / 2).
    """
    N = coeffs.grid.N
    L = coeffs.grid.L
    n = coeffs.n_values.astype(float)
    term = np.empty_like(n)
    nz = n != 0
    term[~nz] = 2.0 * L
    term[nz] = (4.0 * L / (n[nz] * np.pi)) * np.sin(n[nz] * np.pi / 2.0)
    return _collapse_real(coeffs.values @ term)
