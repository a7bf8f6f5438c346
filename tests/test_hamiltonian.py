import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap import (
    BasisKind,
    ConfigError,
    EvaluationError,
    HamiltonianSpec,
    ParameterError,
    assemble,
    coefficients,
    eigendecompose,
    find_pms_length,
    fractional_laplacian_matrix,
    make_grid,
    parse,
)
from fraclap.basis import mode_momenta
from fraclap.hamiltonian import _UNBOUNDED_BELOW, _minimize_scan
from fraclap.operators import abs_power_entries

FREE = lambda x: 0.0
HARMONIC = lambda x: x * x


class TestAssemble:
    def test_free_equals_kinetic(self):
        spec = HamiltonianSpec(alpha=1.5, potential=FREE, kind=BasisKind.DIRICHLET, N=6)
        H = assemble(spec, 2.0)
        K = fractional_laplacian_matrix(coefficients(make_grid(BasisKind.DIRICHLET, 6, 2.0)), 1.5)
        assert np.abs(H.entries - K.entries).max() == 0

    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_entries_match_the_mode_route(self, kind):
        # H holds only the half-blocks of S; entries build S afresh from the
        # grid, with the bits of the free-mode route plus the V diagonal
        spec = HamiltonianSpec(
            alpha=1.3, potential=lambda x: x * x + 0.3 * x, kind=kind, N=9, d_alpha=0.7, hbar=1.9
        )
        H = assemble(spec, 2.5)
        expected = abs_power_entries(H.grid, 1.3) * (0.7 * 1.9**1.3) + np.diag(H.potential)
        np.testing.assert_array_equal(H.entries.view(np.uint64), expected.view(np.uint64))

    def test_potential_on_diagonal(self):
        spec = HamiltonianSpec(alpha=2.0, potential=HARMONIC, kind=BasisKind.DIRICHLET, N=5)
        H = assemble(spec, 3.0)
        free = assemble(
            HamiltonianSpec(alpha=2.0, potential=FREE, kind=BasisKind.DIRICHLET, N=5), 3.0
        )
        diff = H.entries - free.entries
        assert np.abs(diff - np.diag(np.diag(diff))).max() == 0
        np.testing.assert_allclose(np.diag(diff), H.grid.points**2, atol=1e-14)

    def test_prefactor_scaling(self):
        base = assemble(
            HamiltonianSpec(alpha=1.5, potential=FREE, kind=BasisKind.DIRICHLET, N=5), 1.0
        )
        scaled = assemble(
            HamiltonianSpec(
                alpha=1.5, potential=FREE, kind=BasisKind.DIRICHLET, N=5, d_alpha=3.0, hbar=2.0
            ),
            1.0,
        )
        factor = 3.0 * 2.0**1.5
        assert np.abs(scaled.entries - factor * base.entries).max() <= 1e-12 * np.abs(
            scaled.entries
        ).max()

    def test_trace_identity(self):
        # S is orthogonal: the dense matrix has the trace of the mode-space form
        spec = HamiltonianSpec(alpha=1.3, potential=HARMONIC, kind=BasisKind.DIRICHLET, N=8)
        H = assemble(spec, 2.5)
        assert float(np.trace(H.entries)) == pytest.approx(
            float(H.kinetic.sum() + H.potential.sum()), rel=1e-15
        )

    def test_parsed_potential_accepted(self):
        from fraclap import parse

        spec = HamiltonianSpec(
            alpha=2.0, potential=parse("x^2"), kind=BasisKind.DIRICHLET, N=5
        )
        H = assemble(spec, 3.0)
        np.testing.assert_allclose(
            np.diag(H.entries)
            - np.diag(
                assemble(
                    HamiltonianSpec(alpha=2.0, potential=FREE, kind=BasisKind.DIRICHLET, N=5),
                    3.0,
                ).entries
            ),
            H.grid.points**2,
            atol=1e-14,
        )

    def test_nonfinite_potential_rejected(self):
        spec = HamiltonianSpec(
            alpha=1.5,
            potential=lambda x: float("inf") if x > 0 else 0.0,
            kind=BasisKind.DIRICHLET,
            N=5,
        )
        with pytest.raises(EvaluationError):
            assemble(spec, 1.0)

    def test_failing_potential_names_point(self):
        def bad(x):
            raise ValueError("boom")

        spec = HamiltonianSpec(alpha=1.5, potential=bad, kind=BasisKind.DIRICHLET, N=4)
        with pytest.raises(EvaluationError):
            assemble(spec, 1.0)

    @pytest.mark.parametrize("field, value", [("alpha", 0.0), ("d_alpha", -1.0), ("hbar", 0.0)])
    def test_spec_validation(self, field, value):
        kwargs = dict(alpha=1.5, potential=FREE, kind=BasisKind.DIRICHLET, N=5)
        kwargs[field] = value
        with pytest.raises(ParameterError):
            HamiltonianSpec(**kwargs)

    @pytest.mark.parametrize(
        "d_alpha, hbar, alpha",
        [(1.0, 1e300, 1.5), (1e300, 1e10, 2.0), (1e308, 10.0, 1.0)],
    )
    def test_overflowing_prefactor_is_a_parameter_error(self, d_alpha, hbar, alpha):
        # 1e300**1.5 raises OverflowError in Python; 1e300 * 1e20 is inf
        with pytest.raises(ParameterError, match="overflows") as info:
            HamiltonianSpec(alpha=alpha, potential=FREE, kind=BasisKind.DIRICHLET, N=5,
                            d_alpha=d_alpha, hbar=hbar)
        assert f"D = {d_alpha:g}, hbar = {hbar:g}, alpha = {alpha:g}" in str(info.value)

    def test_underflowing_prefactor_leaves_the_potential(self):
        # D hbar^alpha underflows to 0: H is diag(V), and nothing fails
        spec = HamiltonianSpec(alpha=1.5, potential=HARMONIC, kind=BasisKind.DIRICHLET, N=5,
                               hbar=1e-300)
        assert spec.kinetic_prefactor == 0.0
        H = assemble(spec, 3.0)
        assert np.all(H.kinetic == 0.0)
        np.testing.assert_allclose(
            eigendecompose(H).eigenvalues, np.sort(H.grid.points**2), rtol=0, atol=1e-14
        )

    def test_prefactor_has_the_bits_of_the_formula(self):
        spec = HamiltonianSpec(alpha=1.37, potential=FREE, kind=BasisKind.NEUMANN, N=6,
                               d_alpha=0.7, hbar=1.9)
        assert spec.kinetic_prefactor == 0.7 * 1.9**1.37
        H = assemble(spec, 2.0)
        np.testing.assert_array_equal(H.kinetic, 0.7 * 1.9**1.37 * mode_momenta(H.grid) ** 1.37)


def _dirichlet_pms(alpha, c, beta, N):
    # on the Dirichlet grid trace(H(L)) = A L^-alpha + c B L^beta, with A, B
    # sums over the modes and the grid indices; it is stationary where
    # alpha A L^-alpha = beta c B L^beta
    A = sum((n * math.pi / 2) ** alpha for n in range(1, 2 * N))
    B = sum(abs(k / N) ** beta for k in range(1 - N, N))
    return (alpha * A / (beta * c * B)) ** (1 / (alpha + beta))


class TestPms:
    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_trace_matches_full_assembly(self, kind):
        # the O(N) mode-sum trace must agree with the trace of the assembled matrix
        spec = HamiltonianSpec(alpha=1.5, potential=HARMONIC, kind=kind, N=10)
        from fraclap.hamiltonian import _trace_of

        for L in (2.0, 5.0, 9.0):
            dense = np.trace(assemble(spec, L).entries)
            assert _trace_of(spec, L) == pytest.approx(dense, rel=1e-12)

    def test_minimum_property(self):
        # trace at L_pms must not exceed the trace anywhere on the scan
        spec = HamiltonianSpec(alpha=1.5, potential=HARMONIC, kind=BasisKind.DIRICHLET, N=10)
        res = find_pms_length(spec)
        assert res.converged
        assert all(res.trace_at_min <= t + 1e-9 * abs(t) for _, t in res.scan)

    def test_alpha2_harmonic_analytic_check(self):
        # for alpha = 2 the harmonic-oscillator trace is sum (n pi/2L)^2 + sum x_k^2,
        # minimized where the two scale terms balance; verify stationarity numerically
        spec = HamiltonianSpec(alpha=2.0, potential=HARMONIC, kind=BasisKind.DIRICHLET, N=10)
        from fraclap.hamiltonian import _trace_of

        res = find_pms_length(spec)
        L = res.L_pms
        h = 1e-4
        deriv = (_trace_of(spec, L + h) - _trace_of(spec, L - h)) / (2 * h)
        curvature = (_trace_of(spec, L + h) - 2 * _trace_of(spec, L) + _trace_of(spec, L - h)) / h**2
        assert abs(deriv) <= 1e-2 * abs(curvature * L)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from([BasisKind.DIRICHLET, BasisKind.NEUMANN, BasisKind.ANTIPERIODIC]),
        alpha=st.floats(0.5, 2.0),
        beta=st.floats(1.0, 4.0),
        N=st.integers(4, 60),
        stretch=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
    )
    def test_l_pms_is_stable_under_small_bracket_changes(self, kind, alpha, beta, N, stretch):
        # the trace A L^-alpha + B L^beta of |x|^beta has one minimum; the
        # golden-section search ends on an interval of width <= tol around
        # it from any bracket, so two brackets give L_pms at most tol apart
        # (measured: 4.8e-4 over 400 random draws)
        spec = HamiltonianSpec(alpha=alpha, potential=parse(f"abs(x)^{beta!r}"), kind=kind, N=N)
        tol = 1e-3
        lo, hi = 0.5 * (1.0 + stretch[0]), 40.0 * (1.0 + stretch[1])
        base = find_pms_length(spec, tol=tol).L_pms
        assert abs(find_pms_length(spec, bracket=(lo, hi), tol=tol).L_pms - base) <= tol

    def test_edge_minimum_widens_bracket(self):
        # a bracket entirely to the left of the optimum puts the minimum on
        # the right edge: the scan is widened past it and the search converges
        spec = HamiltonianSpec(alpha=1.5, potential=HARMONIC, kind=BasisKind.DIRICHLET, N=10)
        res = find_pms_length(spec, bracket=(0.5, 2.0))
        assert res.converged
        assert res.scan[-1][0] > 2.0
        assert res.L_pms == pytest.approx(_dirichlet_pms(1.5, 1.0, 2.0, 10), abs=2e-3)

    @pytest.mark.parametrize(
        "c, beta",
        [
            (1.0, 1.5),  # minimum near L = 41, past the default upper edge
            (0.001, 2.0),  # near L = 141: two widenings
            (1e6, 2.0),  # near L = 0.79, on the lower edge of the first scan
        ],
    )
    def test_widened_search_finds_closed_form_minimum(self, c, beta):
        spec = HamiltonianSpec(
            alpha=2.0,
            potential=lambda x: c * abs(x) ** beta,
            kind=BasisKind.DIRICHLET,
            N=200,
        )
        res = find_pms_length(spec)
        assert res.converged
        assert res.L_pms == pytest.approx(_dirichlet_pms(2.0, c, beta, 200), abs=2e-3)

    def test_interior_minimum_keeps_single_scan(self):
        spec = HamiltonianSpec(alpha=1.5, potential=HARMONIC, kind=BasisKind.DIRICHLET, N=10)
        res = find_pms_length(spec)
        assert len(res.scan) == 32
        assert (res.scan[0][0], res.scan[-1][0]) == (0.5, 40.0)

    def test_unbounded_below_is_config_error(self):
        spec = HamiltonianSpec(
            alpha=1.5, potential=lambda x: -x * x, kind=BasisKind.DIRICHLET, N=8
        )
        with pytest.raises(ConfigError, match="unbounded below"):
            find_pms_length(spec)

    def test_bad_bracket(self):
        spec = HamiltonianSpec(alpha=1.5, potential=HARMONIC, kind=BasisKind.DIRICHLET, N=5)
        with pytest.raises(ParameterError):
            find_pms_length(spec, bracket=(3.0, 1.0))

    def test_eigenvalues_insensitive_near_pms(self):
        # the whole point of the construction: E_0 varies slowly in L at L_pms
        spec = HamiltonianSpec(alpha=1.5, potential=HARMONIC, kind=BasisKind.DIRICHLET, N=10)
        res = find_pms_length(spec)
        e = lambda L: eigendecompose(assemble(spec, L)).eigenvalues[0]
        e0 = e(res.L_pms)
        near = max(abs(e(res.L_pms * 1.05) - e0), abs(e(res.L_pms * 0.95) - e0))
        far = abs(e(res.L_pms * 0.5) - e0)
        assert near <= 2e-3
        assert near < 0.1 * far


def _momentum_spec(alpha, N):
    """|p|^alpha + x^2 in the momentum representation: kinetic p^2, potential |x|^alpha."""
    return HamiltonianSpec(
        alpha=2.0, potential=parse(f"abs(x)^{alpha!r}"), kind=BasisKind.DIRICHLET, N=N
    )


class TestMomentumSpace:
    def test_alpha2_gives_harmonic_levels(self):
        # alpha = 2 in the momentum representation is again p^2 + p^2-type
        # oscillator: levels 2n + 1 after the x <-> p swap
        ev = eigendecompose(assemble(_momentum_spec(2.0, 40), 8.0)).eigenvalues[:5]
        np.testing.assert_allclose(ev, [1, 3, 5, 7, 9], atol=1e-8)

    def test_matches_position_space(self):
        # alpha = 3/2 oscillator: both representations converge to the same
        # spectrum; compare moderately converged values loosely
        pos_spec = HamiltonianSpec(
            alpha=1.5, potential=HARMONIC, kind=BasisKind.DIRICHLET, N=60
        )
        L = find_pms_length(pos_spec).L_pms
        pos = eigendecompose(assemble(pos_spec, L)).eigenvalues[:3]
        mom_spec = _momentum_spec(1.5, 60)
        mom_L = find_pms_length(mom_spec, bracket=(0.5, 40.0)).L_pms
        mom = eigendecompose(assemble(mom_spec, mom_L)).eigenvalues[:3]
        assert np.abs(pos - mom).max() <= 5e-3

    @pytest.mark.parametrize("alpha, N", [(1.2, 100), (1.5, 60), (1.5, 500), (2.0, 40)])
    def test_general_route_matches_dedicated_formulas(self, alpha, N):
        # the p^2 matrix plus the |x|^alpha diagonal, and the mode-sum trace,
        # written out directly: the general route must give the same bits
        def dedicated_trace(L):
            grid = make_grid(BasisKind.DIRICHLET, N, L)
            kin = np.sum(mode_momenta(grid) ** 2)
            return float(kin + np.sum(np.abs(grid.points) ** alpha))

        spec = _momentum_spec(alpha, N)
        res = find_pms_length(spec, bracket=(0.5, 150.0))
        assert res == _minimize_scan(dedicated_trace, (0.5, 150.0), 1e-3, _UNBOUNDED_BELOW)
        grid = make_grid(BasisKind.DIRICHLET, N, res.L_pms)
        dedicated = abs_power_entries(grid, 2.0) + np.diag(np.abs(grid.points) ** alpha)
        np.testing.assert_array_equal(assemble(spec, res.L_pms).entries, dedicated)
