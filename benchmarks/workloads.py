"""Seeded job generation and correctness gates for the three workloads.

A workload is a stream of batch-job configs: the flat key/value pairs that
``fraclap.config.build_job_config`` takes.  Job ``i`` of a stream depends on
(workload, seed, i) alone, so fraclap receives only the generated pairs and a
stream can be cut at any length.  The gates judge the files a job wrote
against routes that do not share the job's kinetic assembly or eigensolver.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from fraclap import (
    BasisKind,
    coefficients,
    fractional_multiplier,
    make_grid,
    multiplier_matrix,
)

# Each gate bound is the bound of the acceptance check it mirrors
# (tests/test_acceptance.py); none is looser.
LEVEL_TOL = 1e-10  # acceptance 1: eigenvalues, absolute
L_PMS_REL_TOL = 5e-3  # acceptance 3b: relative distance of L_pms from the trace minimum
NORM_TOL = 1e-12  # acceptance 7f: coefficient-norm drift, and psi(t = 0) against psi0


@dataclass(frozen=True)
class Draw:
    low: float
    high: float
    reason: str


DRAWS = {
    "pms-spectrum": {
        "alpha": Draw(1.0, 2.0, "fractional range of the paper's oscillator tables, up to ordinary QM"),
        "beta": Draw(
            2.0,
            4.0,
            "beta >= 2 keeps the PMS minimum inside the fixed (0.5, 40) bracket at N = 200 "
            "for every alpha in range (L_pms = 3.3 .. 25 at the corners); alpha = 2 with "
            "beta = 1.5 dead-ends and runs only as the traced edge probe",
        ),
    },
    "mathieu-sweep": {
        "alpha": Draw(1.0, 2.0, "fractional range of the paper's Mathieu tables, up to ordinary QM"),
        "q_max": Draw(
            2.0,
            8.0,
            "wide enough for near-degenerate a_n/b_(n+1) pairs at the top, small enough that "
            "all seven branches stay pure-parity at N = 200",
        ),
    },
    "evolve-full": {
        "alpha": Draw(1.0, 2.0, "same kinetic range as the other workloads; cost does not depend on it"),
        "c": Draw(0.0, 2.0, "x^4 - c x^2 from a single well (c = 0) to a shallow double well"),
        "x0": Draw(-1.0, 1.0, "packet centre; the packet stays far from the wall at L = 8"),
    },
}

# Jobs per full rotation of the non-random choices; a timed run stops on a
# rotation boundary so every run sees the same mix.
CYCLE = {"pms-spectrum": 6, "mathieu-sweep": 1, "evolve-full": 1}

# Parts of the speed calibration kernel (speed.py) per workload.  The
# labelling that dominates mathieu-sweep streams complex vector products
# through memory.  On the 2-vCPU baseline box, over blocks of one run's
# worth of jobs, the "stream" part cut the spread of mathieu-sweep's scaled
# job time from 4.7% to 2.1%, and widened it on pms-spectrum (1.0% -> 4.9%)
# and evolve-full (0.6% -> 2.9%).
CALIBRATION = {
    "pms-spectrum": ("loop", "longdouble", "eigh", "matmul"),
    "mathieu-sweep": ("loop", "longdouble", "eigh", "stream"),
    "evolve-full": ("loop", "longdouble", "eigh", "matmul"),
}

SPECTRUM_KINDS = ("dirichlet", "neumann", "antiperiodic")
SWEEP_STEPS = 12
EVOLVE_TIMES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)

# A known defect: the fixed (0.5, 40) PMS bracket dead-ends on this input.
# The traced run reports whether it still does; it is not a gate.
EDGE_PROBE = {
    "mode": "spectrum",
    "basis": "dirichlet",
    "potential": "oscillator(1.5)",
    "alpha": "2",
    "N": "200",
    "L": "pms",
}


@dataclass(frozen=True)
class Job:
    workload: str
    index: int
    pairs: dict  # what fraclap receives
    params: dict  # the drawn values exactly as written into ``pairs``

    @property
    def label(self) -> str:
        """Basis kind; the traced run breaks its layer shares down by it."""
        return self.pairs["basis"]


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def make_job(workload: str, seed: int, index: int) -> Job:
    rng = random.Random(f"{workload}/{seed}/{index}")
    params = {
        name: float(_fmt(rng.uniform(d.low, d.high))) for name, d in DRAWS[workload].items()
    }
    alpha = _fmt(params["alpha"])
    if workload == "pms-spectrum":
        beta = _fmt(params["beta"])
        potential = f"oscillator({beta})" if (index // 3) % 2 == 0 else f"abs(x)^{beta}"
        pairs = {
            "mode": "spectrum",
            "basis": SPECTRUM_KINDS[index % 3],
            "potential": potential,
            "alpha": alpha,
            "N": "200",
            "L": "pms",
            "n_states": "4",
        }
    elif workload == "mathieu-sweep":
        q_max = _fmt(params["q_max"])
        pairs = {
            "mode": "q-sweep",
            "basis": "periodic",
            "potential": f"mathieu({q_max})",
            "alpha": alpha,
            "N": "200",
            "q_min": "0",
            "q_max": q_max,
            "q_steps": str(SWEEP_STEPS),
        }
    elif workload == "evolve-full":
        x0 = params["x0"]
        shift = f"x - {_fmt(x0)}" if x0 >= 0 else f"x + {_fmt(-x0)}"
        pairs = {
            "mode": "evolve",
            "basis": "dirichlet",
            "potential": f"x^4 - {_fmt(params['c'])}*x^2",
            "alpha": alpha,
            "N": "500",
            "L": "8",
            "psi0": f"exp(-({shift})^2)",
            "times": ",".join(f"{t:g}" for t in EVOLVE_TIMES),
        }
    else:
        raise KeyError(f"unknown workload {workload!r}")
    return Job(workload, index, pairs, params)


# ---- output files -----------------------------------------------------------


@dataclass(frozen=True)
class Table:
    metadata: dict
    values: np.ndarray  # numeric columns only; text columns are dropped


def parse_csv(text: str) -> Table:
    """A CSV file as fraclap writes it: '# key = value' lines, a header, rows."""
    metadata, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            metadata[key] = value
        elif line:
            body.append(line.split(","))
    columns, rows = body[0], body[1:]
    numeric = [j for j, name in enumerate(columns) if name not in ("parity", "period", "wkb_energy")]
    values = np.array([[float(row[j]) for j in numeric] for row in rows])
    return Table(metadata, values)


def pairs_used(job: Job, tables: dict) -> int:
    """Eigenpairs the job's output depends on."""
    if job.workload == "pms-spectrum":
        return len(tables["spectrum.csv"].values)
    if job.workload == "mathieu-sweep":
        values = tables["sweep.csv"].values
        return values.shape[0] * (values.shape[1] - 1)
    # evolution expands psi0 over every eigenpair of the grid
    return len(tables[f"evolve_t{EVOLVE_TIMES[0]:g}.csv"].values)


# ---- gates --------------------------------------------------------------------


def _oracle_levels(kind: BasisKind, N: int, L: float, alpha: float, potential, count: int):
    """Lowest levels by the generic complex multiplier route and numpy's eigvalsh."""
    grid = make_grid(kind, N, L)
    kinetic = multiplier_matrix(coefficients(grid), fractional_multiplier(alpha)).entries
    H = kinetic + np.diag(potential(grid.points))
    return np.linalg.eigvalsh(H)[:count]


def _mode_sum_trace(kind: BasisKind, N: int, L: float, alpha: float, beta: float) -> float:
    """trace H(L) from the free spectrum.

    The kinetic matrix is orthogonally similar to diag(|n pi / 2L|^alpha) over
    the basis modes, so its trace needs no matrix at all.
    """
    modes = {
        BasisKind.DIRICHLET: np.arange(1, 2 * N),
        BasisKind.NEUMANN: np.arange(0, 2 * N + 1),
        BasisKind.ANTIPERIODIC: np.arange(1 - 2 * N, 2 * N, 2),
    }[kind]
    x = make_grid(kind, N, L).points
    return float(np.sum(np.abs(modes * np.pi / (2 * L)) ** alpha) + np.sum(np.abs(x) ** beta))


def _check_spectrum(job: Job, tables: dict) -> list:
    table = tables["spectrum.csv"]
    kind, N = BasisKind(job.pairs["basis"]), int(job.pairs["N"])
    alpha, beta = job.params["alpha"], job.params["beta"]
    L = float(table.metadata["L"])
    if table.metadata.get("L_pms") != table.metadata["L"]:
        return [f"L = {table.metadata['L']} is not the PMS length {table.metadata.get('L_pms')}"]
    levels = table.values[:, 1]
    if len(levels) != int(job.pairs["n_states"]):
        return [f"{len(levels)} levels written, {job.pairs['n_states']} asked for"]
    errors = []
    oracle = _oracle_levels(kind, N, L, alpha, lambda x: np.abs(x) ** beta, len(levels))
    worst = float(np.abs(levels - oracle).max())
    if not worst <= LEVEL_TOL:
        errors.append(f"levels differ from the oracle by {worst:.2e} > {LEVEL_TOL:g}")
    lo, mid, hi = (
        _mode_sum_trace(kind, N, L * f, alpha, beta)
        for f in (1 - L_PMS_REL_TOL, 1.0, 1 + L_PMS_REL_TOL)
    )
    if not mid <= min(lo, hi):
        errors.append(f"L_pms = {L:g} is not within {L_PMS_REL_TOL:g} of a trace minimum")
    return errors


def _check_sweep(job: Job, tables: dict) -> list:
    values = tables["sweep.csv"].values
    alpha, q_max = job.params["alpha"], job.params["q_max"]
    if values.shape != (SWEEP_STEPS, 8):
        return [f"sweep table has shape {values.shape}, expected ({SWEEP_STEPS}, 8)"]
    errors = []
    # q = 0: free periodic levels 0, 1, 1, 2^a, 2^a, 3^a, 3^a in the order a0 b1 a1 b2 a2 b3 a3
    free = np.array([0.0, 1.0, 1.0, 2.0**alpha, 2.0**alpha, 3.0**alpha, 3.0**alpha])
    worst = float(np.abs(values[0, 1:] - free).max())
    if values[0, 0] != 0.0 or not worst <= LEVEL_TOL:
        errors.append(f"q = 0 row differs from the free levels by {worst:.2e} > {LEVEL_TOL:g}")
    # q = q_max: with a0 < b1 < a1 < ... the seven labelled branches are the seven lowest levels
    if abs(values[-1, 0] - q_max) > 1e-12 * q_max:
        errors.append(f"last row is at q = {values[-1, 0]!r}, expected {q_max!r}")
    oracle = _oracle_levels(
        BasisKind.PERIODIC, int(job.pairs["N"]), math.pi, alpha,
        lambda x: 2.0 * q_max * np.cos(2.0 * x), 7,
    )
    worst = float(np.abs(np.sort(values[-1, 1:]) - oracle).max())
    if not worst <= LEVEL_TOL:
        errors.append(f"q = q_max row differs from the oracle by {worst:.2e} > {LEVEL_TOL:g}")
    return errors


def _check_evolve(job: Job, tables: dict) -> list:
    errors = []
    dim = 2 * int(job.pairs["N"]) - 1
    for t in EVOLVE_TIMES:
        table = tables[f"evolve_t{t:g}.csv"]
        x, re, im = table.values[:, 0], table.values[:, 1], table.values[:, 2]
        if len(x) != dim:
            errors.append(f"t = {t:g}: {len(x)} rows, expected {dim}")
            continue
        # sum |psi|^2 over the grid equals sum |c_n|^2 for orthonormal eigenvectors
        drift = abs(float(np.sum(re**2 + im**2)) - float(table.metadata["coeff_norm"]))
        if not drift <= NORM_TOL:
            errors.append(f"t = {t:g}: coefficient-norm drift {drift:.2e} > {NORM_TOL:g}")
        if t == 0.0:
            psi0 = np.exp(-((x - job.params["x0"]) ** 2))
            worst = max(float(np.abs(re - psi0).max()), float(np.abs(im).max()))
            if not worst <= NORM_TOL:
                errors.append(f"psi(t = 0) differs from psi0 by {worst:.2e} > {NORM_TOL:g}")
    return errors


_GATES = {
    "pms-spectrum": _check_spectrum,
    "mathieu-sweep": _check_sweep,
    "evolve-full": _check_evolve,
}


def check(job: Job, tables: dict) -> list:
    """Failure messages for one job's parsed output files; empty when correct."""
    try:
        return _GATES[job.workload](job, tables)
    except (KeyError, ValueError, IndexError) as exc:  # missing file, column or key
        return [f"malformed output: {type(exc).__name__}: {exc}"]
