"""Dense collocation matrices of spectral multipliers m(p) on LSF grids.

Two assembly routes are provided.  ``multiplier_matrix`` evaluates the
generic complex sum over the exponential expansion and works for any finite
real even multiplier; it is kept as the independent reference.  Every
sampling function is a shifted (Dirichlet and Neumann: also reflected) copy
of one kernel, so the route takes one inverse FFT of the multiplier values
and gathers the matrix from it, without the C_n table.
``fractional_laplacian_matrix`` (and ``abs_power_entries``, which the dense
``entries`` of a ``hamiltonian.Hamiltonian`` use) diagonalizes |p|^alpha in
the free modes of the grid: with the orthogonal mode matrix S of
``basis.mode_matrix`` the matrix is S diag(|p_n|^alpha) S^T, in plain double
precision.  These dense matrices are references and test oracles:
``eigen.eigendecompose`` takes only a ``Hamiltonian``, solved in its modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import BasisKind, Grid, SpectralCoefficients, mode_matrix, mode_momenta, phase_period
from .errors import MultiplierDomainError, NumericalError, ParameterError


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense real matrix of an operator on a sampling grid."""

    grid: Grid
    entries: np.ndarray


def multiplier_matrix(coeffs: SpectralCoefficients, m: Callable[[float], float]) -> OperatorMatrix:
    """Collocation matrix of m(p) through the exponential expansion.

    Entry (k, j) is sum_n C_n(k, N) m(n pi / 2L) exp(i n pi x_j / 2L).  m is
    called once per momentum, as a Python float; an exception from m, or a
    complex or non-finite value, raises ``MultiplierDomainError`` for the
    first such momentum (chained to the exception).

    On the grid the exponential is exp(2 pi i n j / P) with the integer
    period P of ``basis.phase_period``, and every sampling function is a
    shifted (Dirichlet and Neumann: also reflected) copy of one kernel
    T[d] = (1/Z) sum_n m(p_n) exp(2 pi i n d / P), the sum over the n whose
    C_n do not vanish.  So the whole matrix is one inverse FFT of length P
    of the multiplier values folded by n mod P, then Toeplitz (and Hankel)
    windows over T:

    - periodic (even n, Z = 2N + 1), antiperiodic (odd n, Z = 2N):
      T[(j - k) mod P];
    - Dirichlet (Z = 4N): T[(j - k) mod P] - T[(j + k + 2N) mod P];
    - Neumann (Z = 2(2N + 1)): T[(j - k) mod P] + T[(j + k + 2N + 1) mod P].

    The imaginary part of T must vanish (it does for an even m) and is
    dropped after a residue check; an odd m raises ``NumericalError``.  The
    C_n table itself is never read.
    """
    grid = coeffs.grid
    n = coeffs.n_values
    momenta = (n * np.pi / (2.0 * grid.L)).tolist()
    raw = []
    try:
        for p in momenta:
            raw.append(m(p))
    except Exception as exc:
        raise MultiplierDomainError(p, exc, "raised") from exc
    values = np.array(raw)
    if values.dtype != float or not np.isfinite(values).all():
        for p, v in zip(momenta, raw):  # the first complex or non-finite value
            if np.iscomplexobj(v) or not np.isfinite(v):
                raise MultiplierDomainError(p, v)
        values = values.astype(float)

    N, period, kind = grid.N, phase_period(grid), grid.kind
    if kind == BasisKind.PERIODIC:
        terms, Z = n % 2 == 0, period // 2
    elif kind == BasisKind.ANTIPERIODIC:
        terms, Z = n % 2 == 1, period // 2
    else:
        terms, Z = slice(None), period
    folded = np.bincount(n[terms] % period, weights=values[terms], minlength=period)
    kernel = np.fft.ifft(folded, norm="forward") / Z
    scale = max(1.0, float(np.abs(kernel).max()))
    resid = float(np.abs(kernel.imag).max())
    if resid > 1e-12 * scale:
        raise NumericalError(
            f"imaginary residue {resid:.3e} left after multiplier assembly"
        )
    # Rows r and columns c hold consecutive indices, so j - k = c - r; on the
    # symmetric Dirichlet and Neumann index sets j + k = r + c - (dim - 1).
    # Both terms are sliding windows over one run of T, d = 1 - dim..dim - 1.
    T, dim = kernel.real, grid.dim
    d = np.arange(1 - dim, dim)
    entries = sliding_window_view(T[d % period], dim)[::-1].copy()
    if kind == BasisKind.DIRICHLET:
        entries -= sliding_window_view(T[(d + 2 * N) % period], dim)
    elif kind == BasisKind.NEUMANN:
        entries += sliding_window_view(T[(d + 2 * N + 1) % period], dim)
    return OperatorMatrix(grid=grid, entries=entries)


def abs_power_entries(grid: Grid, alpha: float) -> np.ndarray:
    """Dense matrix of |p|^alpha on ``grid``, through its free modes.

    With S = ``basis.mode_matrix(grid)`` and p_n the mode momenta the matrix
    is S diag(p_n**alpha) S^T.  It is formed as B B^T with
    B = S diag(p_n**(alpha/2)), which makes it exactly symmetric.  An
    overflow (alpha = 200, say) yields inf/nan entries without a numpy
    warning, for the caller to check.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        B = mode_matrix(grid) * mode_momenta(grid) ** (0.5 * alpha)
        return B @ B.T


def fractional_laplacian_matrix(coeffs: SpectralCoefficients, alpha: float) -> OperatorMatrix:
    """Matrix of (-Laplacian)^(alpha/2) = |p|^alpha through the free modes.

    The n = 0 term is zero for every alpha > 0; alpha <= 0 is rejected.
    """
    if not np.isfinite(alpha) or alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha!r}")
    grid = coeffs.grid
    return OperatorMatrix(grid=grid, entries=abs_power_entries(grid, alpha))


def fractional_multiplier(alpha: float) -> Callable[[float], float]:
    """|p|^alpha as a generic multiplier (the slow, general route)."""
    if not np.isfinite(alpha) or alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha!r}")
    return lambda p: abs(p) ** alpha if p != 0 else 0.0
