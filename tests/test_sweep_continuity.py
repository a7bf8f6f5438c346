"""The q-sweep's continuity check: a gap bound on the levels, and vectors only where it fails.

Each sweep step is a values-only solve.  ``jobs._gap_proves_continuity``
proves from two steps' levels that a branch's states overlap by at least
0.5 (the sin-theta bound); only a block it cannot prove has its states
solved.  The soundness property checks the bound against overlaps of
eigenvectors of the dense grid matrix, solved independently of the block
route.  The oracle test runs the check that the sweep made before the gap
bound existed: a full solve at every step, branches picked by
``parity_signs`` and compared by the overlaps of their grid vectors.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap import BasisKind, HamiltonianSpec, eigendecompose
from fraclap import jobs
from fraclap.basis import mode_matrix
from fraclap.config import build_job_config
from fraclap.eigen import parity_signs
from fraclap.hamiltonian import assemble_sweep
from fraclap.jobs import run_q_sweep


def _cfg(alpha, N, q_max, steps):
    return build_job_config(
        {"mode": "q-sweep", "potential": "mathieu(0)", "alpha": str(alpha), "N": str(N),
         "q_min": "0", "q_max": str(q_max), "q_steps": str(steps)}
    )


def _mathieu_steps(alpha, N, qs):
    spec = HamiltonianSpec(alpha=alpha, potential=jobs._mathieu(0.0), kind=BasisKind.PERIODIC, N=N)
    return list(assemble_sweep(spec, math.pi, (jobs._mathieu(float(q)) for q in qs)))


def _dense_block_states(H, b):
    """Block b's states from the dense grid matrix, rotated by a freshly built S."""
    S = mode_matrix(H.grid)
    cols = H.halves.blocks[b].cols
    return np.linalg.eigh(S[:, cols].T @ H.entries @ S[:, cols])[1]


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(1.0, 2.0),
    N=st.integers(8, 40),
    q0=st.floats(0.0, 60.0),
    dq=st.floats(1e-3, 30.0),
)
def test_gap_bound_is_sound(alpha, N, q0, dq):
    H0, H1 = _mathieu_steps(alpha, N, (q0, q0 + dq))
    dV = float(np.abs(H1.potential - H0.potential).max())
    spectra = [eigendecompose(H, vectors=False) for H in (H0, H1)]
    for b, labels in enumerate(jobs._BLOCK_LABELS):
        levels = [s.eigenvalues[s.blocks[b].at] for s in spectra]
        proved = jobs._gap_proves_continuity(*levels, dV, len(labels))
        Y0, Y1 = _dense_block_states(H0, b), _dense_block_states(H1, b)
        for r in np.flatnonzero(proved):
            assert abs(float(Y1[:, r] @ Y0[:, r])) >= 0.5


def _oracle_warnings(alpha, N, q_max, steps):
    """The continuity warnings from a full solve and grid-vector overlaps at every step."""
    qs = np.linspace(0.0, q_max, steps)
    warnings, prev = [], None
    for q, H in zip(qs, _mathieu_steps(alpha, N, qs)):
        spectrum = eigendecompose(H)
        signs = parity_signs(spectrum)
        even, odd = np.flatnonzero(signs == 1), np.flatnonzero(signs == -1)
        picks = dict(zip(jobs._SWEEP_LABELS, (even[0], odd[0], even[1], odd[1], even[2], odd[2], even[3])))
        states = {label: spectrum.eigenvectors[:, i] for label, i in picks.items()}
        if prev is not None:
            for label in jobs._SWEEP_LABELS:
                overlap = abs(float(states[label] @ prev[label]))
                if overlap < 0.5:
                    warnings.append(
                        f"branch {label} lost continuity at q = {q:.6g} (overlap {overlap:.3f})"
                    )
        prev = states
    return "; ".join(warnings)


def _counted_block_solves(monkeypatch):
    calls = []

    def counted(H, b):
        calls.append(b)
        return block_vectors(H, b)

    block_vectors = jobs.block_vectors
    monkeypatch.setattr(jobs, "block_vectors", counted)
    return calls


class TestWarningsMatchTheOracle:
    # (alpha, N, q_max, steps): three sweeps that lose continuity (6, 6 and
    # 5 warnings) and one smooth sweep
    CASES = [(1.0, 60, 40.0, 3), (1.5, 60, 200.0, 4), (2.0, 60, 60.0, 2), (1.5, 20, 20.0, 12)]

    def test_warnings_are_the_oracle_s(self):
        counts = []
        for case in self.CASES + [(1.0, 20, 8.0, 12)]:
            got = run_q_sweep(_cfg(*case)).metadata.get("warnings", "")
            assert got == _oracle_warnings(*case)
            counts.append(got.count("lost continuity"))
        assert counts == [6, 6, 5, 0, 0]

    def test_small_steps_solve_no_block(self, monkeypatch):
        # q = 0 -> 4 in 11 steps: the level gaps prove every branch at every step
        calls = _counted_block_solves(monkeypatch)
        run_q_sweep(_cfg(1.5, 20, 4.0, 12))
        assert calls == []

    def test_lost_branches_are_solved_at_both_steps(self, monkeypatch):
        calls = _counted_block_solves(monkeypatch)
        run_q_sweep(_cfg(2.0, 60, 60.0, 2))
        assert sorted(calls) == [0, 0, 1, 1]

    def test_each_step_solves_a_block_at_most_once(self, monkeypatch):
        # alpha = 1, q = 0 -> 8 in 11 steps: the even levels lie ~1 apart and
        # each step moves V by 1.45, so no gap proves anything; a block solved
        # as the later step of one pair serves as the earlier step of the next
        calls = _counted_block_solves(monkeypatch)
        run_q_sweep(_cfg(1.0, 20, 8.0, 12))
        assert sorted(calls) == [0] * 12 + [1] * 12
