import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fraclap import (
    BasisKind,
    DimensionError,
    ParameterError,
    coefficients,
    eval_sampling_function,
    interpolate,
    make_grid,
    parity_map,
    quadrature_weights,
)
from fraclap.basis import mode_matrix, mode_numbers, mode_parities, parity_halves

ALL_KINDS = list(BasisKind)

EXPECTED_DIM = {
    BasisKind.PERIODIC: lambda N: 2 * N + 1,
    BasisKind.DIRICHLET: lambda N: 2 * N - 1,
    BasisKind.ANTIPERIODIC: lambda N: 2 * N,
    BasisKind.NEUMANN: lambda N: 2 * N + 1,
}


class TestMakeGrid:
    def test_periodic_points_n2(self):
        grid = make_grid(BasisKind.PERIODIC, 2, math.pi)
        expected = [-4 * math.pi / 5, -2 * math.pi / 5, 0.0, 2 * math.pi / 5, 4 * math.pi / 5]
        assert grid.dim == 5
        np.testing.assert_allclose(grid.points, expected, atol=1e-15)

    def test_dirichlet_paper_count(self):
        # N = 50 corresponds to 99 sampling points
        assert make_grid(BasisKind.DIRICHLET, 50, 8.518).dim == 99

    def test_antiperiodic_points_n3(self):
        grid = make_grid(BasisKind.ANTIPERIODIC, 3, 1.0)
        np.testing.assert_allclose(
            grid.points, [-1.0, -2 / 3, -1 / 3, 0.0, 1 / 3, 2 / 3], atol=1e-15
        )
        assert grid.dim == 6

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("N", [2, 3, 5, 8])
    def test_dimensions_and_ordering(self, kind, N):
        grid = make_grid(kind, N, 2.5)
        assert grid.dim == EXPECTED_DIM[kind](N)
        assert np.all(np.diff(grid.points) > 0)
        assert np.all(np.abs(grid.points) <= 2.5 + 1e-15)

    @pytest.mark.parametrize("bad_N", [0, 1, -3])
    def test_rejects_bad_N(self, bad_N):
        with pytest.raises(ParameterError):
            make_grid(BasisKind.PERIODIC, bad_N, 1.0)

    @pytest.mark.parametrize("bad_L", [0.0, -1.0, float("nan")])
    def test_rejects_bad_L(self, bad_L):
        with pytest.raises(ParameterError):
            make_grid(BasisKind.DIRICHLET, 5, bad_L)


def _float_phase_coefficients(grid):
    """C_n(k, N) from complex exp and sin/cos of float phases (the closed forms)."""
    N = grid.N
    nn = np.arange(-2 * N, 2 * N + 1)[None, :]
    k = grid.indices[:, None]
    ipow = np.array([1.0, 1.0j, -1.0, -1.0j])
    if grid.kind == BasisKind.PERIODIC:
        sel = (1.0 + (-1.0) ** nn) / (2.0 * (2 * N + 1))
        return sel * np.exp(-1j * nn * k * np.pi / (2 * N + 1))
    if grid.kind == BasisKind.DIRICHLET:
        return ipow[(nn - 1) % 4] * np.sin((0.5 + k / (2.0 * N)) * nn * np.pi) / (2.0 * N)
    if grid.kind == BasisKind.ANTIPERIODIC:
        sel = (1.0 - (-1.0) ** nn) / (4.0 * N)
        return sel * np.exp(-1j * nn * k * np.pi / (2 * N))
    return ipow[nn % 4] * np.cos((0.5 + k / (2.0 * N + 1)) * nn * np.pi) / (2.0 * N + 1)


class TestCoefficients:
    def test_periodic_k0_values(self):
        coeffs = coefficients(make_grid(BasisKind.PERIODIC, 2, 1.0))

        def c(k, n):
            return coeffs.values[coeffs.grid.position(k), n + 2 * coeffs.grid.N]

        # at k = 0 the phase drops: even n give 1/(2N+1), odd n vanish
        assert c(0, 0) == pytest.approx(1 / 5)
        assert c(0, 1) == 0 and c(0, -1) == 0
        assert c(0, 2) == pytest.approx(1 / 5)
        assert c(0, -2) == pytest.approx(1 / 5)
        assert c(0, 4) == pytest.approx(1 / 5)

    def test_antiperiodic_even_n_vanish(self):
        for N in (2, 3, 5):
            coeffs = coefficients(make_grid(BasisKind.ANTIPERIODIC, N, 1.0))
            even = coeffs.values[:, coeffs.n_values % 2 == 0]
            assert np.abs(even).max() == 0

    def test_dirichlet_value(self):
        coeffs = coefficients(make_grid(BasisKind.DIRICHLET, 2, 1.0))
        got = coeffs.values[coeffs.grid.position(1), 1 + 4]  # k = 1, n = 1
        assert got == pytest.approx(math.sqrt(2) / 8, abs=1e-15)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_independent_of_length(self, kind):
        a = coefficients(make_grid(kind, 4, 1.0)).values
        b = coefficients(make_grid(kind, 4, 7.3)).values
        assert np.abs(a - b).max() <= 1e-15

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_float_phase_formula(self, kind):
        # the integer-phase tables agree with the closed forms on float phases
        for N in range(2, 61):
            grid = make_grid(kind, N, 1.0)
            got = coefficients(grid).values
            assert np.abs(got - _float_phase_coefficients(grid)).max() <= 1e-15, N


class TestModes:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("N", [2, 7, 100])
    def test_mode_matrix_orthogonal(self, kind, N):
        grid = make_grid(kind, N, 1.3)
        S = mode_matrix(grid)
        assert S.shape == (grid.dim, len(mode_numbers(grid)))
        assert np.abs(S.T @ S - np.eye(grid.dim)).max() <= 1e-13

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("N", [2, 7, 50])
    def test_mode_matrix_matches_complex_table_route(self, kind, N):
        # reference: gather exp(2 pi i phase / period) from one complex
        # table and keep the real or imaginary part; the real gathers must
        # reproduce it exactly.  Periodic and antiperiodic phases are centred
        # on x = 0 (j = k), the others count from the left end (j = k + N).
        grid = make_grid(kind, N, 1.3)
        j = (grid.indices + N)[:, None]
        if kind in (BasisKind.PERIODIC, BasisKind.ANTIPERIODIC):
            j = grid.indices[:, None]
        n = mode_numbers(grid)[None, :]

        def unit_circle(phase, period):
            angle = 2.0 * np.pi * np.arange(period) / period
            return (np.cos(angle) + 1j * np.sin(angle))[phase % period]

        M = 2 * N + 1
        if kind == BasisKind.DIRICHLET:
            expected = unit_circle(j * n, 4 * N).imag / np.sqrt(N)
        elif kind == BasisKind.NEUMANN:
            expected = unit_circle((2 * j + 1) * n, 4 * M).real * np.sqrt(2.0 / M)
            expected[:, 0] = 1.0 / np.sqrt(M)
        else:
            expected = np.empty((grid.dim, grid.dim))
            if kind == BasisKind.PERIODIC:
                expected[:, 0] = 1.0 / np.sqrt(M)
                z = unit_circle(j * n[:, 1::2], 2 * M) * np.sqrt(2.0 / M)
            else:
                z = unit_circle(j * n[:, ::2], 4 * N) / np.sqrt(N)
            expected[:, -2 * N::2] = z.real
            expected[:, 1 - 2 * N::2] = z.imag
        np.testing.assert_array_equal(mode_matrix(grid), expected)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("N", [2, 3, 7, 50, 500])
    def test_half_blocks_are_gathers_of_the_mode_matrix(self, kind, N):
        # each half-block, looked up on its own, has the bits of the np.ix_
        # gather of S, in C order: the block products' rounding depends on both
        grid = make_grid(kind, N, 1.3)
        S = mode_matrix(grid)
        halves = parity_halves(grid)
        for half, sign in zip(halves.blocks, (1, -1)):
            assert half.sign == sign
            np.testing.assert_array_equal(half.cols, np.flatnonzero(mode_parities(grid) == sign))
            np.testing.assert_array_equal(half.modes, S[np.ix_(half.rows, half.cols)])
            assert half.modes.flags.c_contiguous
        # every node is a pair node, its mirror, or a fixed node of one block
        perm, _ = parity_map(grid)
        np.testing.assert_array_equal(halves.mirror, perm[halves.pairs])
        fixed = [half.rows[len(halves.pairs):] for half in halves.blocks]
        nodes = np.concatenate((halves.pairs, halves.mirror, *fixed))
        np.testing.assert_array_equal(np.sort(nodes), np.arange(grid.dim))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("N", [2, 3, 7, 50])
    def test_mode_columns_have_their_parities(self, kind, N):
        # P S = S diag(mode_parities), with P the signed reflection of parity_map
        grid = make_grid(kind, N, 1.3)
        S = mode_matrix(grid)
        perm, signs = parity_map(grid)
        assert np.abs(signs[:, None] * S[perm] - S * mode_parities(grid)).max() <= 1e-15


def test_collapse_real_raises_under_optimize():
    # the residue check must survive python -O, which strips asserts
    code = (
        "import numpy as np\n"
        "from fraclap.basis import _collapse_real\n"
        "from fraclap.errors import NumericalError\n"
        "try:\n"
        "    _collapse_real(np.array([1.0 + 1.0j]))\n"
        "except NumericalError:\n"
        "    print('raised')\n"
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
    assert out.stdout.strip() == "raised"


class TestSamplingFunctions:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("N", [2, 3, 5, 8])
    @pytest.mark.parametrize("L", [1.0, math.pi])
    def test_cardinality(self, kind, N, L):
        grid = make_grid(kind, N, L)
        coeffs = coefficients(grid)
        worst = 0.0
        for k in grid.indices:
            vals = eval_sampling_function(coeffs, int(k), grid.points)
            delta = (grid.indices == k).astype(float)
            worst = max(worst, np.abs(vals - delta).max())
        assert worst <= 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_realness_on_fine_grid(self, kind):
        grid = make_grid(kind, 5, 1.0)
        coeffs = coefficients(grid)
        xs = np.linspace(-1.0, 1.0, 101)
        table = np.exp(1j * coeffs.n_values[:, None] * np.pi * xs[None, :] / 2.0)
        resid = np.abs((coeffs.values @ table).imag).max()
        assert resid <= 1e-12

    @pytest.mark.parametrize("kind, N", [(k, n) for k in [BasisKind.PERIODIC, BasisKind.NEUMANN] for n in (2, 3, 5)])
    def test_partition_of_unity(self, kind, N):
        grid = make_grid(kind, N, 1.0)
        coeffs = coefficients(grid)
        xs = np.linspace(-1.0, 1.0, 101)
        total = sum(eval_sampling_function(coeffs, int(k), xs) for k in grid.indices)
        assert np.abs(total - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_dirichlet_vanishes_at_walls(self, N):
        grid = make_grid(BasisKind.DIRICHLET, N, 1.0)
        coeffs = coefficients(grid)
        for k in grid.indices:
            assert abs(eval_sampling_function(coeffs, int(k), -1.0)) <= 1e-12
            assert abs(eval_sampling_function(coeffs, int(k), 1.0)) <= 1e-12

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_antiperiodic_boundary_relation(self, N):
        grid = make_grid(BasisKind.ANTIPERIODIC, N, 1.0)
        coeffs = coefficients(grid)
        for k in grid.indices:
            left = eval_sampling_function(coeffs, int(k), -1.0)
            right = eval_sampling_function(coeffs, int(k), 1.0)
            assert abs(left + right) <= 1e-12

    def test_periodic_translation_invariance(self):
        # all surviving exponentials have period 2L, so s_k(x + 2L) = s_k(x);
        # check it through the expansion directly at a few points
        grid = make_grid(BasisKind.PERIODIC, 3, 1.0)
        coeffs = coefficients(grid)
        row = coeffs.values[grid.position(1)]
        for x in (-1.0, -0.5, 0.0):
            here = row @ np.exp(1j * coeffs.n_values * np.pi * x / 2.0)
            there = row @ np.exp(1j * coeffs.n_values * np.pi * (x + 2.0) / 2.0)
            assert abs(here - there) <= 1e-12

    def test_index_out_of_range(self):
        grid = make_grid(BasisKind.DIRICHLET, 3, 1.0)
        coeffs = coefficients(grid)
        with pytest.raises(IndexError):
            eval_sampling_function(coeffs, 3, 0.0)


class TestInterpolation:
    def test_unit_vector_cardinality(self):
        grid = make_grid(BasisKind.NEUMANN, 4, 1.0)
        coeffs = coefficients(grid)
        e = np.zeros(grid.dim)
        e[2] = 1.0
        assert interpolate(coeffs, e, float(grid.points[2])) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_in_span(self):
        L = 2.0
        grid = make_grid(BasisKind.PERIODIC, 5, L)
        coeffs = coefficients(grid)
        samples = np.cos(np.pi * grid.points / L)
        got = interpolate(coeffs, samples, L / 7)
        assert got == pytest.approx(math.cos(math.pi / 7), abs=1e-12)

    def test_zero_samples(self):
        grid = make_grid(BasisKind.DIRICHLET, 4, 1.0)
        coeffs = coefficients(grid)
        xs = np.linspace(-1.0, 1.0, 17)
        assert np.abs(interpolate(coeffs, np.zeros(grid.dim), xs)).max() == 0

    def test_length_mismatch(self):
        coeffs = coefficients(make_grid(BasisKind.DIRICHLET, 4, 1.0))
        with pytest.raises(DimensionError):
            interpolate(coeffs, np.zeros(5), 0.0)


class TestQuadratureWeights:
    def test_periodic_uniform(self):
        for N in (2, 5):
            grid = make_grid(BasisKind.PERIODIC, N, 1.5)
            w = quadrature_weights(coefficients(grid))
            np.testing.assert_allclose(w, 3.0 / (2 * N + 1), atol=1e-13)

    def test_dirichlet_total_against_trapezoid(self):
        # oracle: 1e4-point trapezoid integration of sum_k s_k(x)
        grid = make_grid(BasisKind.DIRICHLET, 2, 1.0)
        coeffs = coefficients(grid)
        xs = np.linspace(-1.0, 1.0, 10001)
        total = sum(eval_sampling_function(coeffs, int(k), xs) for k in grid.indices)
        oracle = np.trapezoid(total, xs)
        assert quadrature_weights(coeffs).sum() == pytest.approx(oracle, abs=1e-7)

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_antiperiodic_weights_real(self, N):
        # realness is enforced inside quadrature_weights; also cross-check
        # each weight against trapezoid integration of its s_k
        grid = make_grid(BasisKind.ANTIPERIODIC, N, 1.0)
        coeffs = coefficients(grid)
        w = quadrature_weights(coeffs)
        assert w.dtype.kind == "f"
        xs = np.linspace(-1.0, 1.0, 10001)
        for i, k in enumerate(grid.indices):
            oracle = np.trapezoid(eval_sampling_function(coeffs, int(k), xs), xs)
            assert w[i] == pytest.approx(oracle, abs=1e-6)
