import math

import numpy as np
import pytest

from fraclap import (
    ParameterError,
    WkbModel,
    beta_function,
    box_eigenfunction,
    exact_box_energy,
    wkb_energy,
)


class TestBetaFunction:
    def test_symmetric(self):
        assert beta_function(0.4, 1.9) == pytest.approx(beta_function(1.9, 0.4), rel=1e-14)

    def test_known_values(self):
        assert beta_function(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert beta_function(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)
        assert beta_function(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)

    def test_against_quadrature(self):
        # oracle: B(a, b) = integral of t^(a-1) (1-t)^(b-1) over (0, 1)
        a, b = 2.5, 3.5
        ts = np.linspace(0.0, 1.0, 200001)
        integrand = ts ** (a - 1) * (1 - ts) ** (b - 1)
        assert beta_function(a, b) == pytest.approx(np.trapezoid(integrand, ts), abs=1e-8)

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan")])
    def test_domain(self, bad):
        for args in ((bad, 1.5), (1.5, bad)):
            with pytest.raises(ParameterError):
                beta_function(*args)


class TestWkb:
    def test_harmonic_oscillator_exact(self):
        # alpha = beta = 2 with D = q = hbar = 1: levels 2n + 1 exactly
        model = WkbModel(alpha=2.0, beta=2.0)
        for n in range(6):
            assert wkb_energy(model, n) == pytest.approx(2 * n + 1, rel=1e-13)

    def test_quartic_fractional_slope(self):
        # alpha = 4/3, beta = 4 gives linear levels with slope
        # 2 pi / (Gamma(1/4) Gamma(7/4))
        model = WkbModel(alpha=4.0 / 3.0, beta=4.0)
        assert model.exponent == pytest.approx(1.0, rel=1e-14)
        slope = 2 * math.pi / (math.gamma(0.25) * math.gamma(1.75))
        assert model.prefactor == pytest.approx(slope, rel=1e-12)
        assert model.prefactor == pytest.approx(1.88562, abs=1e-4)

    def test_level_spacing_grows_with_exponent(self):
        model = WkbModel(alpha=2.0, beta=4.0)  # exponent 4/3 > 1
        gaps = [wkb_energy(model, n + 1) - wkb_energy(model, n) for n in range(5)]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_prefactor_scaling_in_d(self):
        # E scales as (D^(1/alpha))^exponent
        base = WkbModel(alpha=1.5, beta=2.0)
        scaled = WkbModel(alpha=1.5, beta=2.0, d_alpha=8.0)
        ratio = scaled.prefactor / base.prefactor
        assert ratio == pytest.approx(8.0 ** (base.exponent / 1.5), rel=1e-13)

    def test_rejects_negative_level(self):
        with pytest.raises(ParameterError):
            wkb_energy(WkbModel(alpha=2.0, beta=2.0), -1)

    def test_rejects_bad_model(self):
        with pytest.raises(ParameterError):
            WkbModel(alpha=0.0, beta=2.0)
        with pytest.raises(ParameterError):
            WkbModel(alpha=2.0, beta=-1.0)


class TestBox:
    def test_alpha_two_levels(self):
        # standard infinite well of half-width a: E_n = (n pi / 2a)^2
        for n in range(1, 5):
            assert exact_box_energy(2.0, 1.0, 1.0, 1.0, n) == pytest.approx(
                (n * math.pi / 2.0) ** 2, rel=1e-14
            )

    def test_alpha_power_relation(self):
        # E_n(alpha) = E_n(2)^(alpha/2) for D = hbar = 1
        alpha, a = 1.3, 2.7
        for n in range(1, 6):
            e2 = exact_box_energy(2.0, 1.0, 1.0, a, n)
            assert exact_box_energy(alpha, 1.0, 1.0, a, n) == pytest.approx(
                e2 ** (alpha / 2.0), rel=1e-13
            )

    def test_eigenfunction_normalization(self):
        # oracle: 1e4-point trapezoid integral of psi_n^2 over the well
        a = 1.4
        xs = np.linspace(-a, a, 10001)
        for n in (1, 2, 5):
            psi = np.array([box_eigenfunction(a, n, float(x)) for x in xs])
            assert np.trapezoid(psi**2, xs) == pytest.approx(1.0, abs=1e-7)

    def test_eigenfunction_nodes_and_walls(self):
        a = 2.0
        assert box_eigenfunction(a, 1, -a) == pytest.approx(0.0, abs=1e-15)
        assert box_eigenfunction(a, 1, a) == pytest.approx(0.0, abs=1e-12)
        # mode n has n - 1 interior nodes; check mode 2 at the center
        assert box_eigenfunction(a, 2, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_eigenfunction_parity(self):
        a = 1.0
        for x in (0.2, 0.7):
            assert box_eigenfunction(a, 1, -x) == pytest.approx(
                box_eigenfunction(a, 1, x), abs=1e-14
            )
            assert box_eigenfunction(a, 2, -x) == pytest.approx(
                -box_eigenfunction(a, 2, x), abs=1e-14
            )

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            exact_box_energy(1.5, 1.0, 1.0, 1.0, 0)
        with pytest.raises(ParameterError):
            exact_box_energy(1.5, 1.0, 1.0, -1.0, 1)
        with pytest.raises(ParameterError):
            box_eigenfunction(1.0, 1, 1.5)
        with pytest.raises(ParameterError):
            box_eigenfunction(1.0, 0, 0.0)
