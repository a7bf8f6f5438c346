import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from fraclap import (
    BasisKind,
    ContractError,
    DimensionError,
    HamiltonianSpec,
    OperatorMatrix,
    Spectrum,
    assemble,
    block_vectors,
    classify_parity,
    eigendecompose,
    evolve,
    make_grid,
    mode_coefficients,
    parity_map,
    reconstruct,
)
from fraclap.basis import mode_matrix, mode_parities
from fraclap.eigen import parity_signs

FREE = lambda x: 0.0


EVEN = lambda x: x * x
UNEVEN = lambda x: x * x + 0.7 * x


def _hamiltonian(potential, kind=BasisKind.DIRICHLET, N=12, L=4.0, alpha=1.5):
    return assemble(HamiltonianSpec(alpha=alpha, potential=potential, kind=kind, N=N), L)


class TestEigendecompose:
    def test_two_by_two_analytic(self):
        # Dirichlet N = 2 on [-pi, pi]: nodes -pi/2, 0, pi/2 and the modes
        # sin(k (x + pi) / 2), k = 1, 2, 3.  V = -3/4 cos 2x samples to
        # (3/4, -3/4, 3/4): the odd k = 2 level is 1 + 3/4, and the even k = 1, 3
        # block is [[1/4, 3/4], [3/4, 9/4]], with eigenvalues 0 and 5/2 and
        # states (3, -1)/sqrt(10) and (1, 3)/sqrt(10) over its two modes
        spec_h = HamiltonianSpec(
            alpha=2.0, potential=lambda x: -0.75 * np.cos(2.0 * x), kind=BasisKind.DIRICHLET, N=2
        )
        spec = eigendecompose(assemble(spec_h, math.pi))
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 1.75, 2.5], rtol=0, atol=1e-14)
        r2, r10 = math.sqrt(2.0), math.sqrt(10.0)
        states = [[1.0, 2.0 * r2, 1.0], [r10 / r2, 0.0, -r10 / r2], [2.0, -r2, 2.0]]
        np.testing.assert_allclose(spec.eigenvectors, np.array(states).T / r10, rtol=0, atol=1e-14)

    def test_diagonal_matrix(self):
        # with V = 0 the Hamiltonian is diagonal in its free modes: the
        # levels are the kinetic diagonal and the states the mode columns
        for kind in BasisKind:
            H = _hamiltonian(FREE, kind=kind)
            spectrum = eigendecompose(H)
            order = np.argsort(H.kinetic, kind="stable")
            np.testing.assert_array_equal(spectrum.eigenvalues, H.kinetic[order])
            # a degenerate periodic cos/sin pair splits by parity, even (cos) first
            overlaps = np.abs(mode_matrix(H.grid).T @ spectrum.eigenvectors)
            np.testing.assert_allclose(overlaps[order, np.arange(H.grid.dim)], 1.0, rtol=0, atol=1e-14)

    def test_random_self_consistency(self):
        # random V samples, once made even and once as drawn; the dense grid
        # matrix H.entries, formed apart from the mode solve, is the oracle
        rng = np.random.default_rng(20240817)
        free = _hamiltonian(FREE)
        V = rng.standard_normal(free.grid.dim)
        perm, _ = parity_map(free.grid)
        for samples in (0.5 * (V + V[perm]), V):
            H = dataclasses.replace(free, potential=samples)
            spec = eigendecompose(H)
            A = H.entries
            scale = max(1.0, float(np.abs(A).max()))
            resid = A @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
            assert np.abs(resid).max() <= 1e-12 * scale
            gram = spec.eigenvectors.T @ spec.eigenvectors
            assert np.abs(gram - np.eye(H.grid.dim)).max() <= 1e-12
            # det(A) from an LU factorization must equal the eigenvalue product
            P, _, U = scipy.linalg.lu(A)
            lu_det = np.prod(np.diag(U)) * np.linalg.det(P)
            assert np.prod(spec.eigenvalues) == pytest.approx(float(lu_det), rel=1e-10)

    def test_ascending_order(self):
        for potential in (EVEN, UNEVEN):
            spec = eigendecompose(_hamiltonian(potential, kind=BasisKind.PERIODIC))
            assert np.all(np.diff(spec.eigenvalues) >= 0)

    def test_sign_convention(self):
        for potential in (EVEN, UNEVEN):
            spec = eigendecompose(_hamiltonian(potential, kind=BasisKind.NEUMANN))
            for i in range(len(spec.eigenvalues)):
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

    def test_rejects_an_operator_matrix(self):
        # an if/raise, not an assert: it must hold under python -O too
        code = (
            "import numpy as np\n"
            "from fraclap import ContractError, OperatorMatrix, eigendecompose\n"
            "try:\n"
            "    eigendecompose(OperatorMatrix(grid=None, entries=np.eye(3)))\n"
            "except ContractError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "eigendecompose takes a Hamiltonian, got OperatorMatrix"

    def test_degenerate_pair_gets_definite_parity(self):
        # the free periodic problem is doubly degenerate above the ground
        # state; solved in parity blocks, every state is pure even or odd
        spec_h = HamiltonianSpec(alpha=2.0, potential=FREE, kind=BasisKind.PERIODIC, N=8)
        spectrum = eigendecompose(assemble(spec_h, math.pi))
        labels = classify_parity(spectrum)
        assert all(parity in ("even", "odd") for parity, _ in labels)


_READERS = {
    "eigenvectors": lambda spec: spec.eigenvectors,
    "parity_signs": lambda spec: parity_signs(spec),
    "classify_parity": lambda spec: classify_parity(spec),
    "mode_coefficients": lambda spec: mode_coefficients(spec, np.ones(spec.grid.dim)),
    "evolve": lambda spec: evolve(spec, np.ones(spec.grid.dim), 1.0, 0.5),
    "reconstruct": lambda spec: reconstruct(spec, 0, 10),
}


class TestValuesOnly:
    @pytest.mark.parametrize("kind", list(BasisKind))
    @pytest.mark.parametrize("potential", [EVEN, UNEVEN])
    def test_levels_and_blocks_match_the_full_solve(self, kind, potential):
        H = _hamiltonian(potential, kind=kind, N=30)
        full, levels = eigendecompose(H), eigendecompose(H, vectors=False)
        # eigvalsh against eigh: rounding only (measured up to 2e-15 of the largest level)
        scale = float(np.abs(full.eigenvalues).max())
        assert np.abs(levels.eigenvalues - full.eigenvalues).max() <= 1e-14 * scale
        for got, want in zip(levels.blocks, full.blocks):
            np.testing.assert_array_equal(got.at, want.at)
            assert got.vectors is None
        assert levels.halves is H.halves

    @pytest.mark.parametrize("reader", sorted(_READERS))
    def test_state_readers_refuse_a_values_only_spectrum(self, reader):
        spec = eigendecompose(_hamiltonian(EVEN), vectors=False)
        with pytest.raises(ContractError, match=f"^{reader} reads the states"):
            _READERS[reader](spec)

    def test_readers_refuse_under_python_O(self):
        # if/raise, not asserts: the refusals hold under python -O too
        code = (
            "import numpy as np\n"
            "from fraclap import *\n"
            "from fraclap.eigen import parity_signs\n"
            "H = assemble(HamiltonianSpec(alpha=1.5, potential=lambda x: x * x,"
            " kind=BasisKind.DIRICHLET, N=6), 4.0)\n"
            "s = eigendecompose(H, vectors=False)\n"
            "u = np.ones(s.grid.dim)\n"
            "calls = [lambda: s.eigenvectors, lambda: parity_signs(s),"
            " lambda: classify_parity(s), lambda: mode_coefficients(s, u),"
            " lambda: evolve(s, u, 1.0, 0.5), lambda: reconstruct(s, 0, 10)]\n"
            "for call in calls:\n"
            "    try:\n"
            "        call()\n"
            "    except ContractError as exc:\n"
            "        print(str(exc).split()[0])\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [
            "eigenvectors", "parity_signs", "classify_parity",
            "mode_coefficients", "evolve", "reconstruct",
        ]

    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_block_vectors_are_the_full_solve_s(self, kind):
        H = _hamiltonian(EVEN, kind=kind, N=25)
        full = eigendecompose(H)
        for b in (0, 1):
            np.testing.assert_array_equal(block_vectors(H, b), full.blocks[b].vectors)

    def test_block_vectors_need_an_even_potential(self):
        with pytest.raises(ContractError, match="even potential"):
            block_vectors(_hamiltonian(UNEVEN), 0)


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

    def test_uneven_potential_takes_coupled_solve(self):
        H = _hamiltonian(lambda x: x + x * x)
        spectrum = eigendecompose(H)
        # every state has coefficients on both the even and the odd mode columns
        assert all(np.array_equal(block.at, np.arange(H.grid.dim)) for block in spectrum.blocks)
        assert "entries" not in vars(H)
        np.testing.assert_allclose(
            spectrum.eigenvalues, np.linalg.eigvalsh(H.entries), rtol=0, atol=1e-12
        )

    def test_parity_tolerance_applies_to_the_mirror_differences(self):
        # eps x makes |V_a - V_Pa| <= 8 eps; against 1e-14 max|V| (~1e-13 here)
        # eps = 1e-15 leaves the blocks apart, each state of exact parity,
        # and eps = 1e-12 couples them
        for eps, apart in ((1e-15, True), (1e-12, False)):
            spectrum = eigendecompose(_hamiltonian(lambda x: x * x + eps * x))
            assert (sum(len(b.at) for b in spectrum.blocks) == spectrum.grid.dim) == apart
            perm, signs = parity_map(spectrum.grid)
            V = spectrum.eigenvectors
            PV = signs[:, None] * V[perm]
            impurity = np.minimum(np.abs(V - PV).max(axis=0), np.abs(V + PV).max(axis=0))
            assert (impurity.max() == 0.0) == apart

    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_even_potential_forms_no_grid_matrix(self, kind):
        H = _hamiltonian(EVEN, kind=kind)
        spectrum = eigendecompose(H)
        # two independent blocks: each state sits in one of them
        assert sum(len(block.at) for block in spectrum.blocks) == H.grid.dim
        assert "entries" not in vars(H)


def _gather_route_eigenvalues(H):
    """The levels of ``eigendecompose`` from np.ix_ gathers of the dense S.

    This is the route the solve took while the Hamiltonian held S: the same
    block products on gathered half-blocks, then the same eigh calls.
    """
    S = mode_matrix(H.grid)
    perm, signs = parity_map(H.grid)
    nodes = np.arange(H.grid.dim)
    pairs, fixed = nodes[perm > nodes], perm == nodes
    V = H.potential
    minus = V[pairs] - V[perm[pairs]]
    even = np.abs(minus).max(initial=0.0) <= 1e-14 * max(1.0, float(np.abs(V).max()))
    plus = 2.0 * V[pairs] if even else V[pairs] + V[perm[pairs]]
    blocks = []
    for sign in (1, -1):
        rows = np.concatenate((pairs, nodes[fixed & (signs == sign)]))
        cols = np.flatnonzero(mode_parities(H.grid) == sign)
        X = S[np.ix_(rows, cols)]
        A = (X.T * np.concatenate((plus, V[rows[len(pairs):]]))) @ X
        A.flat[:: len(cols) + 1] += H.kinetic[cols]
        blocks.append((A, S[np.ix_(pairs, cols)]))
    if even:
        w = np.concatenate([np.linalg.eigh(A)[0] for A, _ in blocks])
        return w[np.argsort(w, kind="stable")]
    (A_ee, X_e), (A_oo, X_o) = blocks
    C = (X_e.T * minus) @ X_o
    return np.linalg.eigh(np.block([[A_ee, C], [C.T, A_oo]]))[0]


class TestHalfBlocks:
    @pytest.mark.parametrize("kind", list(BasisKind))
    @pytest.mark.parametrize("N", [7, 60, 200])
    @pytest.mark.parametrize("potential", [EVEN, UNEVEN], ids=["even", "uneven"])
    def test_levels_match_the_gather_route_bit_for_bit(self, kind, N, potential):
        H = _hamiltonian(potential, kind=kind, N=N, L=6.0)
        got = [float(e).hex() for e in eigendecompose(H).eigenvalues]
        assert got == [float(e).hex() for e in _gather_route_eigenvalues(H)]

    def test_dirichlet_solve_holds_no_dense_mode_matrix(self):
        # assemble plus eigendecompose at N = 500 (dim 999): 10.1 MB peak under
        # tracemalloc with the half-blocks, 16.0 MB while S (8.0 MB) was held
        spec = HamiltonianSpec(alpha=1.5, potential=EVEN, kind=BasisKind.DIRICHLET, N=500)
        tracemalloc.start()
        try:
            eigendecompose(assemble(spec, 10.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6


def _check_mode_transform_up_to_sign(potential, kind):
    # each block's Y_b, placed on its mode columns and at its states, is
    # S^T v_i state by state up to one sign; mode_coefficients, evolve and
    # the q-sweep's overlaps all rest on this
    H = _hamiltonian(potential, kind=kind, N=24, L=5.0)
    spectrum = eigendecompose(H)
    dim = len(spectrum.eigenvalues)
    Y = np.zeros((dim, dim))
    for half, block in zip(spectrum.halves.blocks, spectrum.blocks):
        Y[np.ix_(half.cols, block.at)] = block.vectors
    ref = mode_matrix(H.grid).T @ spectrum.eigenvectors
    assert np.minimum(np.abs(Y - ref).max(axis=0), np.abs(Y + ref).max(axis=0)).max() <= 1e-13


class TestModeState:
    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_even_potential_is_mode_transform_up_to_sign(self, kind):
        _check_mode_transform_up_to_sign(EVEN, kind)

    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_uneven_potential_is_mode_transform_up_to_sign(self, kind):
        _check_mode_transform_up_to_sign(UNEVEN, kind)


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
        V = spectrum.eigenvectors
        n0 = np.sum(np.abs(V.T @ psi0) ** 2)
        for t in (0.5, 3.0, 20.0):
            psi_t = evolve(spectrum, psi0, 1.0, t)
            n_t = np.sum(np.abs(V.T @ psi_t) ** 2)
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
        # the mode coefficients are these projections up to one sign per state
        got = mode_coefficients(spectrum, psi0)
        assert np.minimum(np.abs(got - c), np.abs(got + c)).max() <= 1e-14
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
        # even V: two independent parity blocks; uneven V: one coupled solve
        spec_h = HamiltonianSpec(alpha=1.5, potential=potential, kind=kind, N=24)
        spectrum = eigendecompose(assemble(spec_h, 5.0))
        x = spectrum.grid.points
        psi0 = np.exp(-((x - 0.5) ** 2)) * (1.0 + 0.3j * np.sin(2.0 * x))
        V = spectrum.eigenvectors.astype(complex)
        times = [0.0, 0.7, 3.1]
        psi = evolve(spectrum, psi0, 0.8, times)
        for j, t in enumerate(times):
            expected = V @ (np.exp(-1j * t * spectrum.eigenvalues / 0.8) * (V.T @ psi0))
            assert np.abs(psi[:, j] - expected).max() <= 1e-13
        # the mode coefficients are the grid-vector ones up to a sign per state
        c, ref = mode_coefficients(spectrum, psi0), V.T @ psi0
        assert np.minimum(np.abs(c - ref), np.abs(c + ref)).max() <= 1e-14

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
            mode_coefficients(spectrum, np.zeros(5))
