"""End-to-end acceptance checks against published benchmark values.

Each check prints one ``ACCEPTANCE <id>: PASS/FAIL`` line (visible with
``pytest -s`` and in the captured output of failures) and then asserts.

Two checks rest on independent oracles, because the benchmark statements
leave their exact form open or state it wrongly, and 2a, which sits at the
rounding level of the eigensolver, has an mpmath oracle check beside it:

* 6b fits the quartic alpha = 4/3 levels over n = 1..10.  H = |p|^(4/3) + x^4
  is unitarily equivalent, by Fourier transform, to |p|^4 + |x|^(4/3); a
  numpy Fourier collocation of that dual problem gives the levels to about
  5e-5.  Its n = 0..10 intercept is 0.956, outside 0.941 +- 0.01, while its
  n = 1..10 line 0.938 + 1.886 n meets both bounds: the published line is
  the WKB line C (n + 1/2) of the excited states, and the ground state
  sits 0.054 above it.
* 8b expects the period tags (pi, 2pi, 2pi, pi) for the four lowest q = 1
  states at L = pi.  |p|^alpha is diagonal in exp(ikx) and 2q cos 2x couples
  k only to k +- 2, so the even- and odd-harmonic sectors decouple for every
  alpha.  The a0 branch lies in the cos 2kx sector (period pi) and b1 in the
  sin (2k+1)x sector (period 2 pi), as DLMF 28.2(vi) states for ce_2n,
  se_2n+2 (period pi) and ce_2n+1, se_2n+1 (period 2 pi).  The suite checks
  the states against scipy.special Mathieu functions at alpha = 2 and the
  tags against a plain FFT of the grid samples at every alpha.
* 2a bounds |a0(40) - a0(30)| by 1e-14, the rounding level of the
  eigensolver.  Beside it, a0 at N = 30 and 40 is compared with the 34-digit
  mpmath eigenvalue of the even block of the same float64 matrix.
"""

import math

import numpy as np
import pytest
from scipy import special

from fraclap import (
    BasisKind,
    HamiltonianSpec,
    WkbModel,
    assemble,
    classify_parity,
    coefficients,
    eigendecompose,
    evolve,
    exact_box_energy,
    find_pms_length,
    fractional_laplacian_matrix,
    fractional_multiplier,
    make_grid,
    mode_coefficients,
    multiplier_matrix,
    parse,
)
from fraclap.basis import eval_sampling_function
from fraclap.jobs import fit_levels


def _report(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"ACCEPTANCE {tag}: FAIL ({detail})"


def _mathieu_spectrum(alpha, N, q=1.0):
    spec = HamiltonianSpec(
        alpha=alpha,
        potential=lambda x: 2.0 * q * math.cos(2.0 * x),
        kind=BasisKind.PERIODIC,
        N=N,
    )
    return eigendecompose(assemble(spec, math.pi))


# four lowest characteristic values (a0, b1, a1, b2) at q = 1, N = 50
MATHIEU_TABLE = {
    1.0: (-0.78002010679715466708, -0.31981501215423234713,
          1.2959422293970261239, 1.5491290256879243036),
    1.5: (-0.60337681905490085109, -0.18880108186701679596,
          1.7046089276653617549, 2.6389530962188063857),
    2.0: (-0.45513860410741354823, -0.11024881699209516991,
          1.8591080725143634723, 3.9170247729984711867),
    2.5: (-0.33549116582363455500, -0.06396091681659914089,
          1.9267035413113906794, 5.6189308675791269007),
    3.0: (-0.24308662756250760871, -0.03699729990815279808,
          1.9600508496994480694, 7.9821470161415594702),
}


@pytest.fixture(scope="module")
def mathieu_n50():
    return {alpha: _mathieu_spectrum(alpha, 50) for alpha in MATHIEU_TABLE}


class TestAcceptance1MathieuGoldenValues:
    def test_table_entries(self, mathieu_n50):
        worst = 0.0
        for alpha, expected in MATHIEU_TABLE.items():
            got = mathieu_n50[alpha].eigenvalues[:4]
            worst = max(worst, float(np.abs(got - np.array(expected)).max()))
        _report("1", worst <= 1e-10, f"20 characteristic values, max |delta| = {worst:.2e}")


class TestAcceptance2MathieuConvergence:
    # a0 at q = 1 for increasing N, truncated to double precision
    ALPHA1 = {10: -0.7800201074990995, 30: -0.7800201067971547}
    ALPHA15 = {10: -0.6033768190551050, 20: -0.6033768190549009}

    def test_alpha_1_column(self):
        a0 = {N: _mathieu_spectrum(1.0, N).eigenvalues[0] for N in (10, 30, 40)}
        d10 = abs(a0[10] - self.ALPHA1[10])
        d30 = abs(a0[30] - self.ALPHA1[30])
        d_conv = abs(a0[40] - a0[30])
        ok = d10 <= 1e-12 and d30 <= 1e-12 and d_conv <= 1e-14
        _report(
            "2a",
            ok,
            f"alpha=1: |d(N=10)| = {d10:.2e}, |d(N=30)| = {d30:.2e}, "
            f"|a0(40) - a0(30)| = {d_conv:.2e}",
        )

    def test_alpha_1_a0_matches_even_block_oracle(self):
        # beside the convergence check above: a0 of the float64 matrix itself,
        # against the 34-digit eigenvalue of its even block, where the
        # (k, -k) mirror pairs are read from the grid indices
        import mpmath

        worst = 0.0
        for N in (30, 40):
            spec = HamiltonianSpec(
                alpha=1.0,
                potential=lambda x: 2.0 * math.cos(2.0 * x),
                kind=BasisKind.PERIODIC,
                N=N,
            )
            H = assemble(spec, math.pi)
            pos = {int(k): p for p, k in enumerate(H.grid.indices)}
            # even basis vectors: e_0 and (e_k + e_-k)/sqrt2, k = 1..N
            basis = [[pos[0]]] + [[pos[k], pos[-k]] for k in range(1, N + 1)]
            with mpmath.workdps(34):
                A = [[mpmath.mpf(float(v)) for v in row] for row in H.entries]
                weight = [1 / mpmath.sqrt(len(vec)) for vec in basis]
                M = mpmath.matrix(len(basis), len(basis))
                for i, vi in enumerate(basis):
                    for j, vj in enumerate(basis):
                        M[i, j] = weight[i] * weight[j] * mpmath.fsum(
                            A[p][q] for p in vi for q in vj
                        )
                oracle = min(mpmath.eigsy(M, eigvals_only=True))
                a0 = _mathieu_spectrum(1.0, N).eigenvalues[0]
                worst = max(worst, abs(float(mpmath.mpf(float(a0)) - oracle)))
        _report("2a-oracle", worst <= 4e-14, f"alpha=1: max |a0 - mpmath a0| = {worst:.2e}")

    def test_alpha_3_2_column(self):
        a0 = {N: _mathieu_spectrum(1.5, N).eigenvalues[0] for N in (10, 20)}
        d10 = abs(a0[10] - self.ALPHA15[10])
        d20 = abs(a0[20] - self.ALPHA15[20])
        ok = d10 <= 1e-12 and d20 <= 1e-12
        _report("2b", ok, f"alpha=3/2: |d(N=10)| = {d10:.2e}, |d(N=20)| = {d20:.2e}")


# fractional oscillator alpha = 3/2: published box size and three lowest levels
OSC_TABLE = {
    10: (4.366, (1.010039766, 2.710385528, 4.18329885)),
    50: (8.518, (1.002691899, 2.708181518, 4.17784097)),
    100: (11.43, (1.001895574, 2.708115301, 4.17745573)),
}


def _oscillator_spec(N):
    return HamiltonianSpec(
        alpha=1.5, potential=lambda x: x * x, kind=BasisKind.DIRICHLET, N=N
    )


class TestAcceptance3FractionalOscillator:
    def test_levels_at_published_box_size(self):
        worst = 0.0
        for N in (10, 50):
            L, expected = OSC_TABLE[N]
            ev = eigendecompose(assemble(_oscillator_spec(N), L)).eigenvalues[:3]
            worst = max(worst, float(np.abs(ev - np.array(expected)).max()))
        _report("3a", worst <= 1e-6, f"N=10,50 levels at published L, max |delta| = {worst:.2e}")

    def test_pms_search_recovers_box_size(self):
        worst = 0.0
        for N in (10, 50, 100):
            L_pub = OSC_TABLE[N][0]
            res = find_pms_length(_oscillator_spec(N))
            worst = max(worst, abs(res.L_pms - L_pub) / L_pub)
        _report("3b", worst <= 5e-3, f"max relative L deviation = {worst:.2e}")


class TestAcceptance4MomentumSpaceCrossCheck:
    def test_n500(self):
        # |p|^1.5 + x^2 in the momentum representation is p^2 + |x|^1.5
        spec = HamiltonianSpec(
            alpha=2.0, potential=parse(f"abs(x)^{1.5!r}"), kind=BasisKind.DIRICHLET, N=500
        )
        res = find_pms_length(spec, bracket=(0.5, 150.0))
        ev = eigendecompose(assemble(spec, res.L_pms)).eigenvalues
        expected = np.array([1.000989809, 2.708093424, 4.17706229])
        worst = float(np.abs(ev[:3] - expected).max())
        _report("4", worst <= 1e-6, f"N=500 momentum solve, max |delta| = {worst:.2e}")


class TestAcceptance5OrdinaryOscillatorSanity:
    def test_alpha2_levels(self):
        spec = HamiltonianSpec(
            alpha=2.0, potential=lambda x: x * x, kind=BasisKind.DIRICHLET, N=10
        )
        res = find_pms_length(spec)
        ev = eigendecompose(assemble(spec, res.L_pms)).eigenvalues
        d0 = abs(float(ev[0]) - 1.0)
        d_rest = max(abs(float(ev[n]) - (2 * n + 1)) for n in range(5))
        ok = d0 <= 1e-9 and d_rest <= 1e-6
        _report("5", ok, f"|E0 - 1| = {d0:.2e}, max |E_n - (2n+1)| = {d_rest:.2e}")


@pytest.fixture(scope="module")
def quartic_levels():
    spec = HamiltonianSpec(
        alpha=4.0 / 3.0, potential=lambda x: x**4, kind=BasisKind.DIRICHLET, N=50
    )
    res = find_pms_length(spec)
    return eigendecompose(assemble(spec, res.L_pms)).eigenvalues[:11]


@pytest.fixture(scope="module")
def quartic_dual_oracle():
    """Lowest 11 levels of |p|^4 + |x|^(4/3), the Fourier dual of H = |p|^(4/3) + x^4.

    Plain Fourier collocation on 512 points of [-16, 16), numpy only; the
    levels move by at most 5e-5 when the box or the point count is raised.
    """
    M, half = 512, 16.0
    x = -half + 2.0 * half * np.arange(M) / M
    k = 2.0 * np.pi * np.fft.fftfreq(M, d=2.0 * half / M)
    K = np.fft.ifft(k[:, None] ** 4 * np.fft.fft(np.eye(M), axis=0), axis=0).real
    H = 0.5 * (K + K.T) + np.diag(np.abs(x) ** (4.0 / 3.0))
    return np.linalg.eigvalsh(H)[:11]


class TestAcceptance6QuarticOscillator:
    def test_fit_slope(self, quartic_levels):
        _, slope, _ = fit_levels(np.arange(11), quartic_levels)
        ok = abs(slope - 1.886) <= 0.01
        _report("6a", ok, f"fit slope over n=0..10 is {slope:.4f}, target 1.886 +- 0.01")

    def test_fit_intercept(self, quartic_levels):
        # the published line describes the excited states n = 1..10; the
        # ground state sits above it (see module docstring and the oracle
        # checks below)
        intercept, _, _ = fit_levels(np.arange(1, 11), quartic_levels[1:])
        ok = abs(intercept - 0.941) <= 0.01
        _report("6b", ok, f"fit intercept over n=1..10 is {intercept:.4f}, target 0.941 +- 0.01")

    def test_wkb_slope(self):
        model = WkbModel(alpha=4.0 / 3.0, beta=4.0)
        ok = abs(model.prefactor - 1.88562) <= 1e-4
        _report("6c", ok, f"WKB slope = {model.prefactor:.6f}, target 1.88562 +- 1e-4")

    def test_published_line_recovered_without_ground_state(self, quartic_levels):
        # supplementary: fitting n = 1..10 reproduces the published line
        intercept, slope, _ = fit_levels(np.arange(1, 11), quartic_levels[1:])
        assert abs(intercept - 0.941) <= 0.01
        assert abs(slope - 1.886) <= 0.01

    def test_levels_match_dual_space_oracle(self, quartic_levels, quartic_dual_oracle):
        dev = np.abs(quartic_levels[1:] - quartic_dual_oracle[1:])
        assert dev.max() <= 1e-2, f"worst |delta| = {dev.max():.2e} at n = {dev.argmax() + 1}"

    def test_oracle_fixes_fit_range(self, quartic_dual_oracle):
        # the converged levels miss 0.941 +- 0.01 over n = 0..10 and meet it
        # over n = 1..10, which is why 6b fits the excited states
        full, _, _ = fit_levels(np.arange(11), quartic_dual_oracle)
        excited, slope, _ = fit_levels(np.arange(1, 11), quartic_dual_oracle[1:])
        assert abs(full - 0.941) > 0.01, full
        assert abs(excited - 0.941) <= 0.01, excited
        assert abs(slope - 1.886) <= 0.01, slope


class TestAcceptance7PropertySuite:
    def test_cardinality(self):
        worst = 0.0
        for kind in BasisKind:
            for N in (2, 3, 5, 8):
                grid = make_grid(kind, N, 1.0)
                coeffs = coefficients(grid)
                for k in grid.indices:
                    vals = eval_sampling_function(coeffs, int(k), grid.points)
                    delta = (grid.indices == k).astype(float)
                    worst = max(worst, float(np.abs(vals - delta).max()))
        _report("7a", worst <= 1e-12, f"cardinality max deviation = {worst:.2e}")

    def test_symmetry(self):
        worst = 0.0
        for kind in BasisKind:
            M = fractional_laplacian_matrix(coefficients(make_grid(kind, 8, 1.0)), 1.5).entries
            worst = max(worst, float(np.abs(M - M.T).max()))
        _report("7b", worst <= 1e-13, f"max asymmetry = {worst:.2e}")

    def test_closed_form_vs_general(self):
        worst = 0.0
        for kind in BasisKind:
            for alpha in (1.0, 1.5, 2.5):
                coeffs = coefficients(make_grid(kind, 5, 1.7))
                closed = fractional_laplacian_matrix(coeffs, alpha).entries
                generic = multiplier_matrix(coeffs, fractional_multiplier(alpha)).entries
                worst = max(worst, float(np.abs(closed - generic).max()))
        _report("7c", worst <= 1e-12, f"max route disagreement = {worst:.2e}")

    def test_dirichlet_free_spectrum(self):
        grid = make_grid(BasisKind.DIRICHLET, 10, 1.7)
        M = fractional_laplacian_matrix(coefficients(grid), 1.5)
        ev = np.sort(np.linalg.eigvalsh(M.entries))
        exact = np.array(
            [exact_box_energy(1.5, 1.0, 1.0, 1.7, n) for n in range(1, grid.dim + 1)]
        )
        dev = float(np.abs(ev - exact).max() / exact.max())
        _report("7d", dev <= 1e-10, f"max relative deviation = {dev:.2e}")

    def test_periodic_free_spectrum(self):
        alpha = 1.5
        grid = make_grid(BasisKind.PERIODIC, 8, math.pi)
        M = fractional_laplacian_matrix(coefficients(grid), alpha)
        ev = np.sort(np.linalg.eigvalsh(M.entries))
        exact = np.sort(
            np.concatenate([[0.0], np.repeat(np.arange(1, 9, dtype=float) ** alpha, 2)])
        )
        dev = float(np.abs(ev - exact).max())
        _report("7e", dev <= 1e-12, f"{{0}} + doubly degenerate n^alpha, max |delta| = {dev:.2e}")

    def test_evolution_norm_conservation(self):
        spec = HamiltonianSpec(
            alpha=1.5, potential=lambda x: x * x, kind=BasisKind.DIRICHLET, N=12
        )
        spectrum = eigendecompose(assemble(spec, 5.0))
        psi0 = np.exp(-4.0 * spectrum.grid.points**2)
        n0 = float(np.sum(np.abs(mode_coefficients(spectrum, psi0)) ** 2))
        drift = 0.0
        for t in (0.0, 1.0, 10.0):
            c = mode_coefficients(spectrum, evolve(spectrum, psi0, 1.0, t))
            drift = max(drift, abs(float(np.sum(np.abs(c) ** 2)) - n0))
        _report("7f", drift <= 1e-12, f"max coefficient-norm drift = {drift:.2e}")

    def test_mathieu_q0_degeneracy(self):
        worst = 0.0
        for alpha in (1.0, 1.5, 2.0):
            ev = _mathieu_spectrum(alpha, 10, q=0.0).eigenvalues
            worst = max(worst, abs(float(ev[1]) - 1.0), abs(float(ev[2]) - 1.0))
        _report("7g", worst <= 1e-12, f"a1 = b1 = 1 at q = 0, max |delta| = {worst:.2e}")


class TestAcceptance8ParityAndPeriodLabels:
    def test_parity_labels(self, mathieu_n50):
        expected = ("even", "odd", "even", "odd")
        bad = []
        for alpha, spectrum in mathieu_n50.items():
            got = tuple(p for p, _ in classify_parity(spectrum)[:4])
            if got != expected:
                bad.append(f"alpha={alpha:g}: {got}")
        _report("8a", not bad, "parity (even, odd, even, odd)" if not bad else "; ".join(bad))

    def test_period_labels(self, mathieu_n50):
        # a0, b1, a1, b2 have periods (pi, 2pi, 2pi, pi), DLMF 28.2(vi); with
        # L = pi the tag 'L' means period pi and '2L' period 2 pi
        expected = ("L", "2L", "2L", "L")
        bad = []
        for alpha, spectrum in mathieu_n50.items():
            got = tuple(period for _, period in classify_parity(spectrum)[:4])
            if got != expected:
                bad.append(f"alpha={alpha:g}: {got}")
        _report(
            "8b",
            not bad,
            "period (pi, 2pi, 2pi, pi)" if not bad else "; ".join(bad),
        )

    def test_states_match_scipy_mathieu_functions(self, mathieu_n50):
        # at alpha = 2 the states are ce_0, se_1, ce_1, se_2 at q = 1
        spectrum = mathieu_n50[2.0]
        degrees = np.degrees(spectrum.grid.points)
        oracle = [
            special.mathieu_cem(0, 1.0, degrees)[0],
            special.mathieu_sem(1, 1.0, degrees)[0],
            special.mathieu_cem(1, 1.0, degrees)[0],
            special.mathieu_sem(2, 1.0, degrees)[0],
        ]
        for i, y in enumerate(oracle):
            cos = abs(float(y @ spectrum.eigenvectors[:, i])) / float(np.linalg.norm(y))
            assert cos >= 1.0 - 1e-10, f"state {i}: |cos| = {cos!r}"

    def test_period_tags_match_fft_sectors(self, mathieu_n50):
        # the 2N+1 samples span one period 2 pi: odd harmonics have period
        # 2 pi ('2L'), even harmonics period pi ('L')
        for alpha, spectrum in mathieu_n50.items():
            V = spectrum.eigenvectors[:, :4]
            dim = V.shape[0]
            power = np.abs(np.fft.fft(V, axis=0)) ** 2
            power /= power.sum(axis=0)
            odd = np.rint(np.fft.fftfreq(dim) * dim).astype(int) % 2 == 1
            for i, (_, period) in enumerate(classify_parity(spectrum)[:4]):
                assert period in ("L", "2L"), f"alpha={alpha:g}, state {i}: {period!r}"
                stray = power[~odd, i] if period == "2L" else power[odd, i]
                assert stray.sum() <= 1e-20, f"alpha={alpha:g}, state {i} ({period}): {stray.sum():.2e}"
