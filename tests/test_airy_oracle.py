"""An exact whole-line oracle at alpha = 1: |p| + x^2 against the Airy zeros.

By Fourier transform, |p| + x^2 is p^2 + |x|.  On each half-line that is an
Airy equation, so the even levels of p^2 + |x| (psi'(0) = 0) are -a'_k, the
zeros of Ai' negated, and the odd levels (psi(0) = 0) are -a_k.  mpmath
computes both to any precision.

The box [-L, L] leaves an error that falls as L^-(1 + alpha) on even states
and as L^-(3 + alpha) on odd states, while the grid error at a fixed spacing
h = L / N is far below it.  Richardson extrapolation in L, per parity, from
two values-only solves at h = 0.1 cancels the leading box error.
"""

import mpmath
import numpy as np
import pytest

from fraclap import BasisKind, HamiltonianSpec, assemble, eigendecompose, parse

ALPHA = 1.0
SOLVES = ((200, 20.0), (400, 40.0))  # (N, L) at h = 0.1
LEVELS = 3  # per parity: E0, E2, E4 even and E1, E3, E5 odd
# the leading box-error exponent of each block, even then odd
EXPONENTS = (1.0 + ALPHA, 3.0 + ALPHA)


def _block_levels(N: int, L: float):
    """The lowest even and the lowest odd levels of |p| + x^2 on the Dirichlet grid."""
    spec = HamiltonianSpec(alpha=ALPHA, potential=parse("x^2"), kind=BasisKind.DIRICHLET, N=N)
    spectrum = eigendecompose(assemble(spec, L), vectors=False)
    return [spectrum.eigenvalues[block.at[:LEVELS]] for block in spectrum.blocks]


@pytest.fixture(scope="module")
def levels():
    """{(N, L): (even levels, odd levels)} of both solves."""
    return {solve: _block_levels(*solve) for solve in SOLVES}


def _airy_levels():
    """-a'_k for the even and -a_k for the odd states, k = 1..LEVELS."""
    return [
        np.array([-float(mpmath.airyaizero(k, derivative=d)) for k in range(1, LEVELS + 1)])
        for d in (1, 0)
    ]


def test_extrapolated_levels_match_airy_zeros(levels):
    (_, L1), (_, L2) = SOLVES
    for block, (p, exact) in enumerate(zip(EXPONENTS, _airy_levels())):
        E1, E2 = (levels[solve][block] for solve in SOLVES)
        extrapolated = (L2**p * E2 - L1**p * E1) / (L2**p - L1**p)
        error = np.abs(extrapolated - exact)
        assert error.max() <= 2e-6, f"{('even', 'odd')[block]} levels: errors {error}"


def test_box_error_is_what_extrapolation_removes(levels):
    # the raw L = 40 even levels miss the oracle by far more than 2e-6
    even = levels[SOLVES[1]][0]
    assert np.all(np.abs(even - _airy_levels()[0]) > 5e-5)
