"""Dense collocation matrices of spectral multipliers m(p) on LSF grids.

Two assembly routes are provided.  ``multiplier_matrix`` evaluates the
generic complex sum over the exponential expansion and works for any finite
real multiplier; it is kept as the independent reference.
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

from .basis import BasisKind, Grid, SpectralCoefficients, mode_matrix, mode_momenta, phase_period
from .errors import MultiplierDomainError, NumericalError, ParameterError


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense real matrix of an operator on a sampling grid."""

    grid: Grid
    entries: np.ndarray


def multiplier_matrix(coeffs: SpectralCoefficients, m: Callable[[float], float]) -> OperatorMatrix:
    """Collocation matrix of m(p) through the exponential expansion.

    Entry (k, j) is sum_n C_n(k, N) m(n pi / 2L) exp(i n pi x_j / 2L); the
    imaginary parts must cancel and are dropped after a residue check.  m is
    called once per momentum, as a Python float; an exception from m, or a
    complex or non-finite value, raises ``MultiplierDomainError`` for the
    first such momentum (chained to the exception).  On
    the grid the exponential is exp(2 pi i n j / P) with the integer period
    P of ``basis.phase_period``, so each row is one inverse DFT of length P
    over the terms summed by n mod P, written straight into place: n < 0 at
    P + n, n >= 0 at n, and where P = 4N the terms of n = 2N add onto those
    of n = -2N.  Terms with C_n = 0 cost nothing.  On a periodic grid every
    odd n has C_n = 0, and n = 2m gives exp(2 pi i m j / (P/2)), so the even
    terms fold over m modulo P/2 = 2N + 1 instead, half the DFT length.
    """
    grid = coeffs.grid
    momenta = (coeffs.n_values * np.pi / (2.0 * grid.L)).tolist()
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

    step = 2 if grid.kind == BasisKind.PERIODIC else 1  # fold n = step * m over m
    period = phase_period(grid) // step
    C, values = coeffs.values[:, ::step], values[::step]
    neg = 2 * grid.N // step  # m < 0 come first
    free = min(neg + 1, period - neg)  # m = 0 .. free - 1 land on empty residues
    folded = np.zeros((grid.dim, period), dtype=complex)
    np.multiply(C[:, :neg], values[:neg], out=folded[:, period - neg:])
    np.multiply(C[:, neg:neg + free], values[neg:neg + free], out=folded[:, :free])
    folded[:, free:neg + 1] += C[:, neg + free:] * values[neg + free:]
    np.fft.ifft(folded, axis=1, norm="forward", out=folded)
    raw = folded[:, grid.indices % period]
    scale = max(1.0, float(np.abs(raw).max()))
    resid = float(np.abs(raw.imag).max())
    if resid > 1e-12 * scale:
        raise NumericalError(
            f"imaginary residue {resid:.3e} left after multiplier assembly"
        )
    return OperatorMatrix(grid=grid, entries=np.ascontiguousarray(raw.real))


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
