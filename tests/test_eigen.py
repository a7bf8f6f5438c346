import math

import numpy as np
import pytest
import scipy.linalg

from fraclap import (
    BasisKind,
    ContractError,
    DimensionError,
    HamiltonianSpec,
    NumericalError,
    OperatorMatrix,
    Spectrum,
    assemble,
    classify_parity,
    eigendecompose,
    evolution_coefficients,
    evolve,
    make_grid,
    mode_coefficients,
    mode_state,
    parity_map,
    reconstruct,
)

FREE = lambda x: 0.0


def _matrix(entries, grid=None):
    return OperatorMatrix(grid=grid, entries=np.asarray(entries, dtype=float))


class TestEigendecompose:
    def test_two_by_two_analytic(self):
        # [[a, b], [b, a]] has eigenvalues a -+ b with (1, -+1)/sqrt(2)
        spec = eigendecompose(_matrix([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-14)
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose(np.abs(spec.eigenvectors), [[s, s], [s, s]], atol=1e-14)

    def test_diagonal_matrix(self):
        spec = eigendecompose(_matrix(np.diag([3.0, -1.0, 2.0])))
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 2.0, 3.0], atol=0)

    def test_random_self_consistency(self):
        rng = np.random.default_rng(20240817)
        A = rng.standard_normal((20, 20))
        A = 0.5 * (A + A.T)
        spec = eigendecompose(_matrix(A))
        # residuals and orthonormality
        resid = A @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
        assert np.abs(resid).max() <= 1e-12
        gram = spec.eigenvectors.T @ spec.eigenvectors
        assert np.abs(gram - np.eye(20)).max() <= 1e-12
        # independent oracle: det(A) from an LU factorization must equal
        # the eigenvalue product
        lu_det = np.prod(np.diag(scipy.linalg.lu(A)[2]))
        # LU permutation sign
        P = scipy.linalg.lu(A)[0]
        lu_det *= np.linalg.det(P)
        assert np.prod(spec.eigenvalues) == pytest.approx(float(lu_det), rel=1e-10)

    def test_ascending_order(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((12, 12))
        spec = eigendecompose(_matrix(A + A.T))
        assert np.all(np.diff(spec.eigenvalues) >= 0)

    def test_sign_convention(self):
        rng = np.random.default_rng(99)
        A = rng.standard_normal((10, 10))
        spec = eigendecompose(_matrix(A + A.T))
        for i in range(10):
            v = spec.eigenvectors[:, i]
            assert v[np.argmax(np.abs(v))] > 0

    def test_sign_convention_on_magnitude_ties(self):
        # odd states carry +-m at mirror nodes: the first of them is made positive
        from fraclap.eigen import _fix_signs

        V = np.array([[-0.5, 0.5, 0.1], [0.1, 0.0, -0.2], [0.5, -0.5, 0.2]])
        expected = V.copy()
        for j in range(V.shape[1]):
            if expected[np.argmax(np.abs(expected[:, j])), j] < 0:
                expected[:, j] *= -1.0
        np.testing.assert_array_equal(_fix_signs(V.copy()), expected)
        np.testing.assert_array_equal(expected[0, :2], [0.5, 0.5])

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractError):
            eigendecompose(_matrix([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ContractError):
            eigendecompose(_matrix(np.zeros((3, 4))))

    def test_rejects_nan_on_diagonal(self):
        # NaN compares False, so the symmetry check alone lets it through
        A = np.eye(3)
        A[1, 1] = np.nan
        with pytest.raises(NumericalError):
            eigendecompose(_matrix(A))

    def test_rejects_inf_off_diagonal(self):
        # an inf makes the symmetry tolerance infinite as well
        A = np.eye(3)
        A[0, 1] = A[1, 0] = np.inf
        with pytest.raises(NumericalError):
            eigendecompose(_matrix(A))

    def test_degenerate_pair_gets_definite_parity(self):
        # the free periodic problem is doubly degenerate above the ground
        # state; solved in parity blocks, every state is pure even or odd
        spec_h = HamiltonianSpec(alpha=2.0, potential=FREE, kind=BasisKind.PERIODIC, N=8)
        spectrum = eigendecompose(assemble(spec_h, math.pi))
        labels = classify_parity(spectrum)
        assert all(parity in ("even", "odd") for parity, _ in labels)


class TestParityBlocks:
    def _mathieu_q20(self):
        spec_h = HamiltonianSpec(
            alpha=2.0,
            potential=lambda x: 40.0 * math.cos(2.0 * x),
            kind=BasisKind.PERIODIC,
            N=200,
        )
        return assemble(spec_h, math.pi)

    def test_mathieu_q20_residuals(self):
        # a0 and b1 differ by 3.9e-6 at q = 20: both lowest pairs must be
        # eigenpairs of H, not a rotation of them
        H = self._mathieu_q20()
        spectrum = eigendecompose(H)
        V, w = spectrum.eigenvectors[:, :8], spectrum.eigenvalues[:8]
        resid = np.linalg.norm(H.entries @ V - V * w, axis=0)
        assert resid.max() <= 1e-9

    def test_mathieu_q20_labels_follow_scipy(self):
        from scipy import special

        spectrum = eigendecompose(self._mathieu_q20())
        labels = classify_parity(spectrum)
        assert [p for p, _ in labels[:2]] == ["even", "odd"]
        assert spectrum.eigenvalues[0] == pytest.approx(special.mathieu_a(0, 20.0), abs=1e-10)
        assert spectrum.eigenvalues[1] == pytest.approx(special.mathieu_b(1, 20.0), abs=1e-10)

    def test_free_periodic_pairs_split_by_parity(self):
        # at q = 0 every level above the ground state holds one even and
        # one odd state, whichever the rounding puts first
        spec_h = HamiltonianSpec(alpha=2.0, potential=FREE, kind=BasisKind.PERIODIC, N=8)
        spectrum = eigendecompose(assemble(spec_h, math.pi))
        labels = [p for p, _ in classify_parity(spectrum)]
        assert labels[0] == "even"
        for i in range(1, len(labels), 2):
            assert sorted(labels[i : i + 2]) == ["even", "odd"]
            assert spectrum.eigenvalues[i + 1] - spectrum.eigenvalues[i] <= 1e-12

    def test_uneven_potential_takes_full_route(self):
        spec_h = HamiltonianSpec(
            alpha=1.5, potential=lambda x: x + x * x, kind=BasisKind.DIRICHLET, N=12
        )
        H = assemble(spec_h, 4.0)
        spectrum = eigendecompose(H)
        assert spectrum.parities is None
        np.testing.assert_allclose(
            spectrum.eigenvalues, np.linalg.eigvalsh(H.entries), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_even_potential_forms_no_grid_matrix(self, kind):
        spec_h = HamiltonianSpec(alpha=1.5, potential=lambda x: x * x, kind=kind, N=12)
        H = assemble(spec_h, 4.0)
        assert eigendecompose(H).parities is not None
        assert "entries" not in vars(H)


class TestModeState:
    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_even_potential_is_mode_transform_up_to_sign(self, kind):
        H = assemble(HamiltonianSpec(alpha=1.5, potential=lambda x: x * x, kind=kind, N=24), 5.0)
        spectrum = eigendecompose(H)
        assert spectrum.modes is not None
        states = [mode_state(spectrum, i) for i in range(len(spectrum.eigenvalues))]
        assert "eigenvectors" not in vars(spectrum)
        for i, y in enumerate(states):
            ref = H.modes.T @ spectrum.eigenvectors[:, i]
            assert min(np.abs(y - ref).max(), np.abs(y + ref).max()) <= 1e-13

    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_full_eigh_gives_the_grid_vector(self, kind):
        H = assemble(HamiltonianSpec(alpha=1.5, potential=lambda x: x * x + 0.7 * x, kind=kind, N=24), 5.0)
        spectrum = eigendecompose(H)
        assert spectrum.modes is None
        for i in range(len(spectrum.eigenvalues)):
            np.testing.assert_array_equal(mode_state(spectrum, i), spectrum.eigenvectors[:, i])

    def test_rejects_a_missing_state(self):
        spectrum = eigendecompose(_matrix([[2.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(DimensionError):
            mode_state(spectrum, 2)


class TestMathieuA0Scatter:
    def test_alpha_1_a0_over_n(self):
        # a0 of 2 cos 2x at alpha = 1 has converged to double precision by
        # N = 25, so from there on the computed a0 may move only by rounding.
        # Oracle: the cos 2kx sector in Fourier modes, diag (2k)^alpha, q
        # next to the diagonal (sqrt2 q next to k = 0), 40 modes, 40 digits.
        import mpmath

        with mpmath.workdps(40):
            A = mpmath.matrix(40, 40)
            for k in range(40):
                A[k, k] = mpmath.mpf(2 * k)
                if k:
                    A[k - 1, k] = A[k, k - 1] = mpmath.sqrt(2) if k == 1 else mpmath.mpf(1)
            exact = float(min(mpmath.eigsy(A, eigvals_only=True)))
        assert exact == -0.7800201067971547
        a0 = []
        for N in range(25, 61):
            spec_h = HamiltonianSpec(
                alpha=1.0, potential=lambda x: 2.0 * math.cos(2.0 * x), kind=BasisKind.PERIODIC, N=N
            )
            a0.append(eigendecompose(assemble(spec_h, math.pi)).eigenvalues[0])
        a0 = np.array(a0)
        assert a0.max() - a0.min() <= 1e-14
        assert np.abs(a0 - exact).max() <= 4e-15


class TestParityMap:
    @pytest.mark.parametrize("kind", [BasisKind.PERIODIC, BasisKind.DIRICHLET, BasisKind.NEUMANN])
    def test_plain_reversal_is_involution(self, kind):
        grid = make_grid(kind, 4, 1.0)
        perm, signs = parity_map(grid)
        np.testing.assert_array_equal(signs, 1.0)
        # applying twice gives the identity
        assert np.array_equal(perm[perm], np.arange(grid.dim))
        # mirrored points are negatives of each other
        np.testing.assert_allclose(grid.points[perm], -grid.points, atol=1e-15)

    def test_antiperiodic_reflection_is_involution(self):
        # the unpaired -L node maps to itself with sign -1, so applying the
        # reflection twice multiplies it by (-1)^2 = 1: P^2 is the identity
        grid = make_grid(BasisKind.ANTIPERIODIC, 4, 1.0)
        perm, signs = parity_map(grid)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(grid.dim)
        once = signs * v[perm]
        twice = signs * once[perm]
        np.testing.assert_allclose(twice[1:], v[1:], atol=1e-15)
        assert twice[0] == pytest.approx(v[0])


class TestClassifyParity:
    def test_mathieu_labels(self):
        spec_h = HamiltonianSpec(
            alpha=2.0,
            potential=lambda x: 2.0 * math.cos(2.0 * x),
            kind=BasisKind.PERIODIC,
            N=20,
        )
        spectrum = eigendecompose(assemble(spec_h, math.pi))
        labels = classify_parity(spectrum)
        assert [p for p, _ in labels[:4]] == ["even", "odd", "even", "odd"]

    def test_period_tags_only_on_periodic(self):
        spec_h = HamiltonianSpec(
            alpha=2.0, potential=lambda x: x * x, kind=BasisKind.DIRICHLET, N=10
        )
        spectrum = eigendecompose(assemble(spec_h, 5.0))
        labels = classify_parity(spectrum)
        assert all(period is None for _, period in labels)
        assert [p for p, _ in labels[:4]] == ["even", "odd", "even", "odd"]

    def test_free_periodic_periods(self):
        # free modes cos(nx), sin(nx) on L = pi: even n repeats with period
        # L = pi, odd n only with 2L
        spec_h = HamiltonianSpec(alpha=2.0, potential=FREE, kind=BasisKind.PERIODIC, N=8)
        spectrum = eigendecompose(assemble(spec_h, math.pi))
        labels = classify_parity(spectrum)
        # state 0: constant (n=0) -> period L; states 1,2: n=1 -> 2L;
        # states 3,4: n=2 -> L
        assert labels[0][1] == "L"
        assert labels[1][1] == "2L" and labels[2][1] == "2L"
        assert labels[3][1] == "L" and labels[4][1] == "L"

    def test_mixed_detection(self):
        # break the symmetry hard: an asymmetric potential mixes parities
        spec_h = HamiltonianSpec(
            alpha=2.0,
            potential=lambda x: 5.0 * x,
            kind=BasisKind.DIRICHLET,
            N=12,
        )
        spectrum = eigendecompose(assemble(spec_h, 4.0))
        labels = classify_parity(spectrum)
        assert any(p == "mixed" for p, _ in labels)


class TestReconstruct:
    def test_box_modes_match_exact_sines(self):
        from fraclap import box_eigenfunction

        L = 1.5
        spec_h = HamiltonianSpec(alpha=2.0, potential=FREE, kind=BasisKind.DIRICHLET, N=25)
        spectrum = eigendecompose(assemble(spec_h, L))
        for i in range(3):
            xs, psi = reconstruct(spectrum, i, 201)
            exact = np.array([box_eigenfunction(L, i + 1, float(x)) for x in xs])
            # overall sign is conventional
            if np.sign(psi[np.argmax(np.abs(psi))]) != np.sign(
                exact[np.argmax(np.abs(psi))]
            ):
                exact = -exact
            # the diagonal quadrature normalization is accurate to ~1e-5
            assert np.abs(psi - exact).max() <= 1e-4

    def test_continuum_normalization(self):
        # trapezoid integral of psi^2 over [-L, L] should be ~1
        spec_h = HamiltonianSpec(
            alpha=2.0, potential=lambda x: x * x, kind=BasisKind.DIRICHLET, N=30
        )
        spectrum = eigendecompose(assemble(spec_h, 8.0))
        xs, psi = reconstruct(spectrum, 0, 4001)
        assert np.trapezoid(psi**2, xs) == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_ground_state(self):
        # alpha = 2 harmonic oscillator ground state is pi^(-1/4) exp(-x^2/2)
        spec_h = HamiltonianSpec(
            alpha=2.0, potential=lambda x: x * x, kind=BasisKind.DIRICHLET, N=30
        )
        spectrum = eigendecompose(assemble(spec_h, 8.0))
        xs, psi = reconstruct(spectrum, 0, 801)
        exact = math.pi ** (-0.25) * np.exp(-(xs**2) / 2.0)
        assert np.abs(np.abs(psi) - exact).max() <= 1e-6

    def test_resolution_validation(self):
        spec_h = HamiltonianSpec(alpha=2.0, potential=FREE, kind=BasisKind.DIRICHLET, N=5)
        spectrum = eigendecompose(assemble(spec_h, 1.0))
        with pytest.raises(DimensionError):
            reconstruct(spectrum, 0, 1)


class TestEvolve:
    def _spectrum(self):
        spec_h = HamiltonianSpec(
            alpha=1.5, potential=lambda x: x * x, kind=BasisKind.DIRICHLET, N=20
        )
        return eigendecompose(assemble(spec_h, 6.0))

    def test_t_zero_is_identity(self):
        spectrum = self._spectrum()
        psi0 = np.exp(-spectrum.grid.points**2)
        out = evolve(spectrum, psi0, 1.0, 0.0)
        assert np.abs(out - psi0).max() <= 1e-10

    def test_stationary_state_phase(self):
        spectrum = self._spectrum()
        v = spectrum.eigenvectors[:, 2]
        t, hbar = 0.7, 1.3
        out = evolve(spectrum, v, hbar, t)
        expected = v * np.exp(-1j * t * spectrum.eigenvalues[2] / hbar)
        assert np.abs(out - expected).max() <= 1e-10

    def test_norm_conservation(self):
        spectrum = self._spectrum()
        psi0 = np.exp(-10 * (spectrum.grid.points - 0.5) ** 2)
        n0 = np.sum(np.abs(evolution_coefficients(spectrum, psi0)) ** 2)
        for t in (0.5, 3.0, 20.0):
            psi_t = evolve(spectrum, psi0, 1.0, t)
            n_t = np.sum(np.abs(evolution_coefficients(spectrum, psi_t)) ** 2)
            assert abs(n_t - n0) <= 1e-12 * n0

    def test_linearity(self):
        spectrum = self._spectrum()
        x = spectrum.grid.points
        a, b = np.exp(-(x**2)), np.sin(x) * np.exp(-(x**2))
        t = 1.1
        combo = evolve(spectrum, 2.0 * a + 3.0 * b, 1.0, t)
        separate = 2.0 * evolve(spectrum, a, 1.0, t) + 3.0 * evolve(spectrum, b, 1.0, t)
        assert np.abs(combo - separate).max() <= 1e-12

    def test_matches_complex_matvec_reference(self):
        # evolve works from two real matvecs; the reference casts V to complex
        spectrum = self._spectrum()
        x = spectrum.grid.points
        psi0 = np.exp(-(x**2)) * (1.0 + 0.5j * np.sin(3.0 * x))
        V = spectrum.eigenvectors.astype(complex)
        c = V.T @ psi0
        assert np.abs(evolution_coefficients(spectrum, psi0) - c).max() <= 1e-14
        t = 2.3
        expected = V @ (np.exp(-1j * t * spectrum.eigenvalues) * c)
        assert np.abs(evolve(spectrum, psi0, 1.0, t) - expected).max() <= 1e-14

    def test_batched_times_equal_single_calls(self):
        spectrum = self._spectrum()
        psi0 = np.exp(-((spectrum.grid.points - 0.4) ** 2))
        times = [0.0, 0.3, 2.5, 11.0]
        batched = evolve(spectrum, psi0, 1.3, times)
        assert batched.shape == (spectrum.grid.dim, len(times))
        for j, t in enumerate(times):
            single = evolve(spectrum, psi0, 1.3, t)
            assert single.shape == (spectrum.grid.dim,)
            assert np.abs(batched[:, j] - single).max() <= 1e-14
        assert evolve(spectrum, psi0, 1.3, []).shape == (spectrum.grid.dim, 0)

    @pytest.mark.parametrize("kind", list(BasisKind))
    @pytest.mark.parametrize("potential", [lambda x: x * x, lambda x: x * x + 0.7 * x])
    def test_mode_space_evolution_matches_grid_vectors(self, kind, potential):
        # even V: two parity blocks in the modes; uneven V: one full eigh (S = I)
        spec_h = HamiltonianSpec(alpha=1.5, potential=potential, kind=kind, N=24)
        spectrum = eigendecompose(assemble(spec_h, 5.0))
        assert (spectrum.modes is None) == (potential(1.0) != potential(-1.0))
        x = spectrum.grid.points
        psi0 = np.exp(-((x - 0.5) ** 2)) * (1.0 + 0.3j * np.sin(2.0 * x))
        V = spectrum.eigenvectors.astype(complex)
        times = [0.0, 0.7, 3.1]
        psi = evolve(spectrum, psi0, 0.8, times)
        for j, t in enumerate(times):
            expected = V @ (np.exp(-1j * t * spectrum.eigenvalues / 0.8) * (V.T @ psi0))
            assert np.abs(psi[:, j] - expected).max() <= 1e-13
        # the mode coefficients are the grid-vector ones up to a sign per state
        c, ref = mode_coefficients(spectrum, psi0), evolution_coefficients(spectrum, psi0)
        assert np.abs(np.abs(c) - np.abs(ref)).max() <= 1e-14

    def test_evolution_leaves_the_grid_vectors_unformed(self):
        spectrum = self._spectrum()
        psi0 = np.exp(-(spectrum.grid.points**2))
        evolve(spectrum, psi0, 1.0, [0.0, 1.0])
        mode_coefficients(spectrum, psi0)
        assert "eigenvectors" not in vars(spectrum)
        V = spectrum.eigenvectors
        assert spectrum.eigenvectors is V  # formed once, then kept

    def test_rejects_two_dimensional_times(self):
        spectrum = self._spectrum()
        with pytest.raises(DimensionError):
            evolve(spectrum, np.exp(-(spectrum.grid.points**2)), 1.0, [[0.0, 1.0]])

    def test_shape_validation(self):
        spectrum = self._spectrum()
        with pytest.raises(DimensionError):
            evolve(spectrum, np.zeros(5), 1.0, 0.0)
        with pytest.raises(DimensionError):
            evolution_coefficients(spectrum, np.zeros(5))
        with pytest.raises(DimensionError):
            mode_coefficients(spectrum, np.zeros(5))
