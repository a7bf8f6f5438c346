import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap import (
    BasisKind,
    HamiltonianSpec,
    MultiplierDomainError,
    ParameterError,
    coefficients,
    fractional_laplacian_matrix,
    fractional_multiplier,
    assemble,
    make_grid,
    multiplier_matrix,
)
from fraclap.basis import mode_numbers, parity_map

ALL_KINDS = list(BasisKind)


def _coeffs(kind, N, L):
    return coefficients(make_grid(kind, N, L))


@pytest.fixture(scope="module")
def dirichlet_alpha3_exact():
    """Dirichlet |p|^3 matrix at N = 50, L = pi from 40-digit sums.

    Oracle: the Toeplitz-minus-Hankel cosine sums of the Dirichlet kinetic
    matrix, entry (k, j) = A(k - j) - B(k + j).  Returns (grid, entries).
    """
    N, alpha, L = 50, 3, math.pi
    with mpmath.workdps(40):
        p = [n * mpmath.pi / (2 * mpmath.mpf(L)) for n in range(1, 2 * N)]
        m = [x**alpha for x in p]

        def cosine_sum(d, sign):
            return sum(
                sign**n * m[n - 1] * mpmath.cos(mpmath.pi * d * n / (2 * N))
                for n in range(1, 2 * N)
            ) / (2 * N)

        A = {d: cosine_sum(d, 1) for d in range(0, 2 * N - 1)}
        B = {s: cosine_sum(s, -1) for s in range(2 - 2 * N, 2 * N - 1)}
        grid = make_grid(BasisKind.DIRICHLET, N, L)
        exact = np.array(
            [[float(A[abs(k - j)] - B[k + j]) for j in grid.indices] for k in grid.indices]
        )
    return grid, exact


class TestMultiplierMatrix:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_identity_multiplier(self, kind):
        M = multiplier_matrix(_coeffs(kind, 5, 2.0), lambda p: 1.0)
        assert np.abs(M.entries - np.eye(M.grid.dim)).max() <= 1e-12

    def test_p_squared_dirichlet_oracle(self):
        # oracle: the Dirichlet p^2 matrix must have the exact infinite-well
        # spectrum (n pi / 2L)^2, n = 1..dim
        L = 1.7
        grid = make_grid(BasisKind.DIRICHLET, 8, L)
        M = multiplier_matrix(coefficients(grid), lambda p: p * p)
        ev = np.linalg.eigvalsh(M.entries)
        exact = ((np.arange(1, grid.dim + 1) * np.pi) / (2 * L)) ** 2
        assert np.abs(ev - exact).max() / exact.max() <= 1e-12

    def test_abs_p_periodic_spectrum(self):
        # |p| on the periodic grid at L = pi: {0, 1, 1, 2, 2, ..., N, N}
        grid = make_grid(BasisKind.PERIODIC, 3, math.pi)
        M = multiplier_matrix(coefficients(grid), lambda p: abs(p))
        ev = np.sort(np.linalg.eigvalsh(M.entries))
        np.testing.assert_allclose(ev, [0, 1, 1, 2, 2, 3, 3], atol=1e-12)

    def test_entries_match_mpmath(self, dirichlet_alpha3_exact):
        grid, exact = dirichlet_alpha3_exact
        # measured 3.1e-16 relative
        M = multiplier_matrix(coefficients(grid), fractional_multiplier(3)).entries
        assert np.abs(M - exact).max() <= 1e-15 * np.abs(exact).max()

    def test_periodic_entries_match_mpmath(self):
        # the periodic route folds n = 2m over m mod 2N + 1; the oracle is the
        # cosine sum (2 / M) sum_{m=1..N} (m pi / L)^alpha cos(2 pi m d / M) at
        # d = j - k, M = 2N + 1, from 40-digit sums
        N, alpha, L = 10, 1.5, 1.3
        M = 2 * N + 1
        grid = make_grid(BasisKind.PERIODIC, N, L)
        with mpmath.workdps(40):
            p = [m * mpmath.pi / mpmath.mpf(L) for m in range(1, N + 1)]
            row = [
                float(2 * sum(pm ** mpmath.mpf(alpha) * mpmath.cos(2 * mpmath.pi * m * d / M)
                              for m, pm in enumerate(p, start=1)) / M)
                for d in range(M)
            ]
        exact = np.array([[row[(j - k) % M] for j in grid.indices] for k in grid.indices])
        # measured 2.8e-16 relative
        entries = multiplier_matrix(coefficients(grid), fractional_multiplier(alpha)).entries
        assert np.abs(entries - exact).max() <= 1e-15 * np.abs(exact).max()

    def test_rejects_nonfinite_multiplier(self):
        coeffs = _coeffs(BasisKind.PERIODIC, 3, 1.0)
        with pytest.raises(MultiplierDomainError):
            # singular at p = 0
            multiplier_matrix(coeffs, lambda p: 1.0 / p if p != 0 else float("inf"))

    def test_rejects_complex_multiplier(self):
        coeffs = _coeffs(BasisKind.DIRICHLET, 3, 1.0)
        with pytest.raises(MultiplierDomainError):
            multiplier_matrix(coeffs, lambda p: 1j * p)

    def test_domain_error_names_the_first_bad_momentum(self):
        # the momenta run n pi / 2L for n = -2N..2N; n = -6 is the first with
        # |p| > 4, and the one the error names, as a plain float
        coeffs = _coeffs(BasisKind.NEUMANN, 3, 1.0)
        with pytest.raises(MultiplierDomainError) as info:
            multiplier_matrix(coeffs, lambda p: math.inf if abs(p) > 4 else 1.0)
        assert info.value.momentum == -6 * math.pi / 2
        assert str(info.value) == f"multiplier is not finite at momentum {-3 * math.pi!r}: got inf"
        with pytest.raises(MultiplierDomainError) as info:
            multiplier_matrix(coeffs, lambda p: complex(p) if p > 0 else p)
        assert info.value.momentum == math.pi / 2

    def test_exception_from_the_multiplier_is_typed(self):
        # 1 / p raises at p = 0 on Python floats; the error names p and chains the cause
        coeffs = _coeffs(BasisKind.DIRICHLET, 5, 1.0)
        with pytest.raises(MultiplierDomainError) as info:
            multiplier_matrix(coeffs, lambda p: 1 / p)
        assert info.value.momentum == 0.0
        assert isinstance(info.value.__cause__, ZeroDivisionError)
        assert str(info.value) == (
            "multiplier raised at momentum 0.0: got ZeroDivisionError('float division by zero')"
        )


class TestFractionalLaplacian:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_closed_form_matches_generic(self, kind, alpha):
        coeffs = _coeffs(kind, 5, 2.3)
        closed = fractional_laplacian_matrix(coeffs, alpha).entries
        generic = multiplier_matrix(coeffs, fractional_multiplier(alpha)).entries
        assert np.abs(closed - generic).max() <= 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_symmetry(self, kind):
        M = fractional_laplacian_matrix(_coeffs(kind, 8, 1.0), 1.5).entries
        assert np.abs(M - M.T).max() <= 1e-13

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_positive_semidefinite(self, kind):
        M = fractional_laplacian_matrix(_coeffs(kind, 6, 1.4), 1.2).entries
        ev = np.linalg.eigvalsh(M)
        assert ev.min() >= -1e-12 * max(1.0, ev.max())

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("alpha", [0.7, 1.5, 2.0])
    def test_length_scaling(self, kind, alpha):
        # momenta scale as 1/L, so the whole matrix scales as L**(-alpha)
        a = fractional_laplacian_matrix(_coeffs(kind, 5, 1.0), alpha).entries
        b = fractional_laplacian_matrix(_coeffs(kind, 5, 2.5), alpha).entries
        assert np.abs(a - b * 2.5**alpha).max() <= 1e-11 * np.abs(a).max()

    def test_alpha_two_is_second_derivative(self):
        # cross-check against the p^2 multiplier route
        coeffs = _coeffs(BasisKind.DIRICHLET, 6, 1.0)
        closed = fractional_laplacian_matrix(coeffs, 2.0).entries
        direct = multiplier_matrix(coeffs, lambda p: p * p).entries
        assert np.abs(closed - direct).max() <= 1e-11

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_commutes_with_parity(self, kind):
        # |p|^alpha is even, so [M, P] = 0 for the signed reflection P
        grid = make_grid(kind, 5, 1.0)
        M = fractional_laplacian_matrix(coefficients(grid), 1.5).entries
        perm, signs = parity_map(grid)
        P = np.zeros_like(M)
        P[np.arange(grid.dim), perm] = signs
        assert np.abs(P @ M - M @ P).max() <= 1e-11

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_free_spectrum_alpha_general(self, kind):
        # the free levels |n pi / 2L|^alpha over each kind's modes are exact
        # for LSF collocation (for Dirichlet: the fractional box levels)
        alpha, L, N = 1.3, 2.0, 10
        modes = {
            BasisKind.DIRICHLET: np.arange(1, 2 * N),
            BasisKind.NEUMANN: np.arange(0, 2 * N + 1),
            BasisKind.PERIODIC: np.arange(-2 * N, 2 * N + 1, 2),
            BasisKind.ANTIPERIODIC: np.arange(1 - 2 * N, 2 * N, 2),
        }[kind]
        M = fractional_laplacian_matrix(_coeffs(kind, N, L), alpha)
        ev = np.linalg.eigvalsh(M.entries)
        exact = np.sort(np.abs(modes * np.pi / (2 * L)) ** alpha)
        assert np.abs(ev - exact).max() / exact.max() <= 1e-12

    def test_dirichlet_entries_match_mpmath(self, dirichlet_alpha3_exact):
        grid, exact = dirichlet_alpha3_exact
        M = fractional_laplacian_matrix(coefficients(grid), 3).entries
        assert np.abs(M - exact).max() <= 1e-15 * np.abs(exact).max()

    def test_antiperiodic_free_spectrum(self):
        # surviving momenta are the odd half-integers (2n-1) pi / 2L, doubled
        alpha, L = 1.5, math.pi / 2
        grid = make_grid(BasisKind.ANTIPERIODIC, 4, L)
        M = fractional_laplacian_matrix(coefficients(grid), alpha)
        ev = np.sort(np.linalg.eigvalsh(M.entries))
        base = ((2 * np.arange(1, grid.N + 1) - 1) * np.pi / (2 * L)) ** alpha
        exact = np.sort(np.repeat(base, 2))
        assert np.abs(ev - exact).max() / exact.max() <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_rejects_bad_alpha(self, bad):
        coeffs = _coeffs(BasisKind.DIRICHLET, 3, 1.0)
        with pytest.raises(ParameterError):
            fractional_laplacian_matrix(coeffs, bad)
        with pytest.raises(ParameterError):
            fractional_multiplier(bad)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    N=st.integers(2, 40),
    L=st.floats(0.5, 20.0),
    alpha=st.floats(0.5, 3.0),
)
def test_free_spectrum_is_the_multiplier_on_the_modes(kind, N, L, alpha):
    # with V = 0 the dense matrix of the pipeline and the generic multiplier
    # route both have the levels D hbar^alpha |n pi / 2L|^alpha of the modes
    spec = HamiltonianSpec(alpha=alpha, potential=lambda x: 0.0, kind=kind, N=N,
                           d_alpha=0.7, hbar=1.3)
    H = assemble(spec, L)
    assert np.array_equal(H.entries, H.entries.T)
    p = mode_numbers(H.grid) * np.pi / (2 * L)
    exact = np.sort(spec.kinetic_prefactor * np.abs(p) ** alpha)
    generic = multiplier_matrix(coefficients(H.grid), fractional_multiplier(alpha)).entries
    for ev in (np.linalg.eigvalsh(H.entries), spec.kinetic_prefactor * np.linalg.eigvalsh(generic)):
        assert np.abs(ev - exact).max() / exact.max() <= 1e-12
