"""Property tests of the mode-space eigensolve over (kind, N, L, alpha).

Even potentials are solved as two parity blocks; the result must be the
spectrum of the whole matrix, orthonormal, and of exact parity state by
state.  An uneven potential couples the blocks; it must give the same
spectrum and still be labelled state by state.  With V = 0 the levels are
the kinetic diagonal itself.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap import BasisKind, HamiltonianSpec, assemble, classify_parity, eigendecompose, parity_map
from fraclap.eigen import parity_signs


def _even_potential(beta, q):
    if beta is None:
        return lambda x: 2.0 * q * math.cos(2.0 * x)
    return lambda x: abs(x) ** beta


cases = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(list(BasisKind)),
        "N": st.integers(2, 60),
        "L": st.floats(0.5, 20.0),
        "alpha": st.floats(0.5, 3.0),
        # beta None selects 2q cos 2x
        "beta": st.one_of(st.none(), st.floats(0.5, 4.0)),
        "q": st.floats(-5.0, 5.0),
    }
)


def _hamiltonian(case, potential=None):
    spec = HamiltonianSpec(
        alpha=case["alpha"],
        potential=potential or _even_potential(case["beta"], case["q"]),
        kind=case["kind"],
        N=case["N"],
    )
    return assemble(spec, case["L"])


def _scale(H):
    return max(1.0, float(np.abs(H.entries).max()))


def _commutes_with_reflection(H):
    """Whether P H P = H to 1e-14 of max|H|, with P the signed grid reflection."""
    perm, signs = parity_map(H.grid)
    PHP = signs[:, None] * H.entries[np.ix_(perm, perm)] * signs
    return np.abs(PHP - H.entries).max() <= 1e-14 * _scale(H)


def _reflection_weights(spectrum):
    """Weights |v + Pv|^2 / 4 and |v - Pv|^2 / 4 of each state on the even and odd subspaces."""
    perm, signs = parity_map(spectrum.grid)
    V = spectrum.eigenvectors
    PV = signs[:, None] * V[perm]
    return 0.25 * np.sum((V + PV) ** 2, axis=0), 0.25 * np.sum((V - PV) ** 2, axis=0)


@settings(max_examples=60, deadline=None)
@given(cases)
def test_blocks_give_the_whole_spectrum(case):
    H = _hamiltonian(case)
    spectrum = eigendecompose(H)
    expected = np.linalg.eigvalsh(H.entries)
    assert np.abs(spectrum.eigenvalues - expected).max() <= 1e-12 * _scale(H)


@settings(max_examples=60, deadline=None)
@given(cases)
def test_eigenvectors_orthonormal(case):
    V = eigendecompose(_hamiltonian(case)).eigenvectors
    assert np.abs(V.T @ V - np.eye(V.shape[1])).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(cases)
def test_every_state_has_exact_parity(case):
    # the unfolded vectors copy one block entry to both mirror nodes, so
    # v - Pv or v + Pv vanishes exactly
    spectrum = eigendecompose(_hamiltonian(case))
    perm, signs = parity_map(spectrum.grid)
    V = spectrum.eigenvectors
    PV = signs[:, None] * V[perm]
    impurity = np.minimum(np.abs(V - PV).max(axis=0), np.abs(V + PV).max(axis=0))
    assert impurity.max() == 0.0


@settings(max_examples=60, deadline=None)
@given(cases)
def test_block_parities_match_reflection_weights(case):
    spectrum = eigendecompose(_hamiltonian(case))
    even_w, odd_w = _reflection_weights(spectrum)
    np.testing.assert_array_equal(parity_signs(spectrum), np.where(even_w > odd_w, 1, -1))


@settings(max_examples=60, deadline=None)
@given(cases)
def test_uneven_potential_takes_coupled_solve(case):
    H = _hamiltonian(case, potential=lambda x: x + x * x)
    assert not _commutes_with_reflection(H)
    spectrum = eigendecompose(H)
    expected = np.linalg.eigvalsh(H.entries)
    assert np.abs(spectrum.eigenvalues - expected).max() <= 1e-12 * _scale(H)
    V = spectrum.eigenvectors
    assert np.abs(V.T @ V - np.eye(V.shape[1])).max() <= 1e-12
    # the labels come from the mode masses; the grid reflection weights are the oracle
    even_w, odd_w = _reflection_weights(spectrum)
    mixed = (even_w > 0.1) & (odd_w > 0.1)
    parities = np.where(mixed, "mixed", np.where(even_w >= odd_w, "even", "odd"))
    assert [parity for parity, _ in classify_parity(spectrum)] == parities.tolist()


@settings(max_examples=60, deadline=None)
@given(cases)
def test_free_spectrum_is_the_kinetic_diagonal(case):
    # V = 0 leaves each block diagonal, so eigh returns its entries as they are
    H = _hamiltonian(case, potential=lambda x: 0.0)
    np.testing.assert_array_equal(eigendecompose(H).eigenvalues, np.sort(H.kinetic))
