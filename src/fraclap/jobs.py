"""Batch job runners and machine-readable table output.

Every runner returns one or more ``ResultTable`` objects; the writers emit
them as CSV (with a '#'-prefixed metadata header) or JSON (same fields,
numbers as 15-significant-digit decimal strings).  Output is deterministic:
identical configs produce byte-identical files on one numpy/BLAS build at a
fixed BLAS thread count.  The eigensolver's rounding depends on the thread
count (e.g. OPENBLAS_NUM_THREADS), so a different count can change the last
written digits.

Built-in potentials (free, oscillator, mathieu) are expression trees like
parsed ones, so every potential and every psi0 is sampled over the whole
grid in one call.  An evolve job stays in the free modes: one ``evolve``
call for all its times, with no grid eigenvector formed.  Convergence,
wkb-compare and q-sweep jobs write levels only and solve for eigenvalues
only; a q-sweep solves each step as four parity x period blocks, unless a
check at its largest |q| finds the split off the two whole parity blocks by
more than rounding, and forms one block's states only at a step where the
level gaps cannot prove its branches continuous.  A time whose
phases t E_n / hbar would overflow, or carry more than 1e-6 rad of rounding,
is a ConfigError.  The CSV writer formats a whole table with one %-format:
the row format is built once from the cell types and repeated over the rows,
with the bytes of the per-value ``_fmt``, which the JSON writer calls cell by
cell.  An evolve job builds its rows from whole columns (``tolist``,
``np.hypot``), not cell by cell.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .basis import BasisKind
from .config import JobConfig, Preset, evolve_table_name
from .eigen import Spectrum, block_vectors, classify_parity, eigendecompose, evolve, period_classes

# The evolve layer's coefficients, under the name that benchmarks/tracing.py
# swaps to time it with ``evolve``; only |c| is read here.
from .eigen import mode_coefficients as evolution_coefficients
from .errors import ConfigError, NumericalError
from .hamiltonian import HamiltonianSpec, assemble, assemble_sweep, find_pms_length, sample_on_grid
from .potential import BinOp, Call, Number, PotentialExpr, Variable, parse, to_source
from .reference import WkbModel, wkb_energy

_DIGITS = 15
_NUMBER = f"%.{_DIGITS}g"
# Largest phase rounding, in radians, that an evolution time may carry.
_PHASE_TOL = 1e-6


def _fmt(value) -> str:
    """15-significant-digit decimal rendering used in every output file."""
    if isinstance(value, str):
        return value
    return f"{value:.{_DIGITS}g}"


def _shared_specs(rows) -> list | None:
    """The %-spec of each column, if every row can share one row format.

    That holds when the rows have one length and no column mixes text
    ('%s') with numbers (``_NUMBER``); the test runs at C speed over each
    column's set of cell types.  Otherwise None.
    """
    if len(set(map(len, rows))) != 1:
        return None
    specs = []
    for column in zip(*rows):
        text = {issubclass(t, str) for t in set(map(type, column))}
        if len(text) != 1:
            return None
        specs.append("%s" if text.pop() else _NUMBER)
    return specs


def _format_table(rows, sep: str, end: str) -> str:
    """Every cell as ``_fmt`` renders it, joined by ``sep``, each row followed by ``end``.

    The whole table is one %-format.  A table whose rows share one row
    format repeats it; a ragged table, or one with a column that mixes text
    and numbers, gets each row's format from its cells' types.
    """
    specs = _shared_specs(rows)
    if specs is not None:
        fmt = (sep.join(specs) + end) * len(rows)
    else:
        fmt = "".join(
            sep.join(["%s" if isinstance(v, str) else _NUMBER for v in row]) + end for row in rows
        )
    return fmt % tuple(chain.from_iterable(rows))


@dataclass
class ResultTable:
    name: str  # output file stem, e.g. 'spectrum'
    columns: list
    rows: list  # sequences of numbers/strings, one per row
    metadata: dict


def _expr(ast) -> PotentialExpr:
    return PotentialExpr(ast=ast, source=to_source(ast))


def _mathieu(q: float) -> PotentialExpr:
    """2q cos(2x), multiplied as (2 q) cos(2 x)."""
    return _expr(BinOp("*", Number(2.0 * q), Call("cos", BinOp("*", Number(2.0), Variable()))))


def _potential_callable(cfg: JobConfig):
    """The potential as an expression tree, plus a printable description."""
    pot = cfg.potential
    if isinstance(pot, Preset):
        if pot.name == "free":
            return _expr(Number(0.0)), "free"
        if pot.name == "oscillator":
            beta = pot.parameter
            return _expr(BinOp("^", Call("abs", Variable()), Number(beta))), f"oscillator({beta:g})"
        q = pot.parameter
        return _mathieu(q), f"mathieu({q:g})"
    return parse(pot), pot


def _base_metadata(cfg: JobConfig, potential_text: str) -> dict:
    return {
        "mode": cfg.mode,
        "basis": cfg.basis.value,
        "alpha": _fmt(cfg.alpha),
        "D": _fmt(cfg.d_alpha),
        "hbar": _fmt(cfg.hbar),
        "potential": potential_text,
        "precision": f"{_DIGITS} significant digits (double precision)",
        "version": __version__,
    }


def _spec(cfg: JobConfig, N: int, potential, kind: BasisKind) -> HamiltonianSpec:
    return HamiltonianSpec(
        alpha=cfg.alpha, potential=potential, kind=kind, N=N, d_alpha=cfg.d_alpha, hbar=cfg.hbar
    )


def _solve(cfg: JobConfig, N: int, vectors: bool = True):
    """Assemble and diagonalize for one N; resolves L by PMS when needed.

    ``vectors=False`` solves for the eigenvalues only.
    """
    fn, pot_text = _potential_callable(cfg)
    spec = _spec(cfg, N, fn, cfg.basis)
    if cfg.L is None:
        pms = find_pms_length(spec)
        L_used = pms.L_pms
    else:
        pms = None
        L_used = cfg.L
    return eigendecompose(assemble(spec, L_used), vectors), L_used, pms, pot_text


def _wkb_model(cfg: JobConfig) -> WkbModel | None:
    if cfg.is_oscillator:
        return WkbModel(
            alpha=cfg.alpha,
            beta=cfg.potential.parameter,
            d_alpha=cfg.d_alpha,
            hbar=cfg.hbar,
        )
    return None


def run_spectrum(cfg: JobConfig) -> ResultTable:
    """Lowest n_states levels with parity/period labels and a WKB column."""
    spectrum, L_used, pms, pot_text = _solve(cfg, cfg.N)
    labels = classify_parity(spectrum)
    model = _wkb_model(cfg)
    rows = []
    for n in range(min(cfg.n_states, spectrum.grid.dim)):
        parity, period = labels[n]
        rows.append(
            [
                n,
                float(spectrum.eigenvalues[n]),
                float(wkb_energy(model, n)) if model else "",
                parity,
                period if period else "",
            ]
        )
    metadata = _base_metadata(cfg, pot_text)
    metadata["N"] = str(cfg.N)
    metadata["L"] = _fmt(L_used)
    if pms is not None:
        metadata["L_pms"] = _fmt(pms.L_pms)
    return ResultTable(
        name="spectrum",
        columns=["n", "energy", "wkb_energy", "parity", "period"],
        rows=rows,
        metadata=metadata,
    )


def run_convergence(cfg: JobConfig) -> ResultTable:
    """One row per N; L is re-optimized per N when PMS is requested."""
    rows = []
    pot_text = ""
    for N in cfg.n_list:
        spectrum, L_used, _, pot_text = _solve(cfg, N, vectors=False)
        m = min(cfg.n_states, spectrum.grid.dim)
        rows.append([N, float(L_used)] + [float(e) for e in spectrum.eigenvalues[:m]])
    metadata = _base_metadata(cfg, pot_text)
    metadata["N"] = ",".join(str(N) for N in cfg.n_list)
    columns = ["N", "L_used"] + [f"e{i}" for i in range(cfg.n_states)]
    return ResultTable(name="convergence", columns=columns, rows=rows, metadata=metadata)


def run_pms_scan(cfg: JobConfig) -> ResultTable:
    """The coarse (L, trace) scan together with the refined minimum."""
    fn, pot_text = _potential_callable(cfg)
    pms = find_pms_length(_spec(cfg, cfg.N, fn, cfg.basis))
    metadata = _base_metadata(cfg, pot_text)
    metadata["N"] = str(cfg.N)
    metadata["L_pms"] = _fmt(pms.L_pms)
    metadata["trace_at_min"] = _fmt(pms.trace_at_min)
    metadata["converged"] = str(pms.converged).lower()
    rows = [[float(L), float(t)] for L, t in pms.scan]
    return ResultTable(name="pms_scan", columns=["L", "trace"], rows=rows, metadata=metadata)


_SWEEP_LABELS = ("a0", "b1", "a1", "b2", "a2", "b3", "a3")
# The swept branches of the even and of the odd block, by rank in the block.
_BLOCK_LABELS = (("a0", "a1", "a2", "a3"), ("b1", "b2", "b3"))
# Largest share of a level gap that the step in V may take for the gap to
# prove a branch continuous; the sin-theta bound needs less than sqrt(3)/2.
_GAP_SHARE = 0.85
# Largest move of a swept level, relative to the largest |level|, for which a
# q-sweep keeps the period split: the eigensolvers' own rounding.
_SPLIT_TOL = 1e-14


def _mathieu_picks(spectrum: Spectrum) -> dict:
    """Spectrum index of each swept branch: a_n is the n-th even state, b_n the (n-1)-th odd one.

    The Mathieu potential is even, so each state lies in one block, its
    parity, and no state needs to be read.
    """
    picks = {}
    for block, labels, name in zip(spectrum.blocks, _BLOCK_LABELS, ("even", "odd")):
        family = block.at
        if len(family) < len(labels):
            raise NumericalError(
                f"not enough {name} states to label {labels[len(family)]} "
                f"({len(family)} at N = {spectrum.grid.N}); increase N"
            )
        picks.update(zip(labels, family.tolist()))
    return picks


def _gap_proves_continuity(before: np.ndarray, after: np.ndarray, dV: float, k: int) -> np.ndarray:
    """For each of a block's k lowest branches, whether its levels at two steps prove it continuous.

    ``before`` and ``after`` are the block's ascending levels at the two steps.
    A step changes the block matrix by the compression of diag(V' - V) to
    the block's orthonormal mode columns, of 2-norm at most dV = max|V' - V|.
    For the branch of rank r, let delta be the least |lambda_r - lambda'_j|
    over j != r, or the same with the two steps swapped if that is larger.
    The sin-theta theorem (Davis & Kahan, SIAM J. Numer. Anal. 7 (1970) 1)
    bounds the angle between the branch's two states by sin theta <= dV /
    delta, so their overlap is at least 0.5 when dV < sqrt(3)/2 delta.  Each
    gap is first cut by twice an eigenvalue rounding of dim * eps * max|lambda|;
    a tie never proves anything.
    """
    slack = 2.0 * len(before) * np.finfo(float).eps * max(np.abs(before).max(), np.abs(after).max())
    ranks = np.arange(k)
    delta = np.zeros(k)
    for a, b in ((before, after), (after, before)):
        gaps = np.abs(a[:k, None] - b)
        gaps[ranks, ranks] = np.inf
        delta = np.maximum(delta, gaps.min(axis=1))
    return dV < _GAP_SHARE * (delta - slack)


def _unproven_overlaps(before, H, spectrum):
    """|y . y_prev| of the branches of each block whose levels cannot prove them continuous.

    ``before`` is the (Hamiltonian, values-only spectrum, solved states) of
    the previous step, and H and ``spectrum`` are this step's.  Such a
    block's tracked states are solved at both steps (``block_vectors``), or
    taken from ``before`` where the previous pair already solved them; every
    step shares the orthogonal S, so the overlap of two mode-coefficient
    vectors is that of the grid vectors.  Returns the overlaps and this
    step's solved states, {block: its tracked columns}.
    """
    H0, spec0, states0 = before
    dV = float(np.abs(H.potential - H0.potential).max())
    overlaps, states = {}, {}
    for b, labels in enumerate(_BLOCK_LABELS):
        k = len(labels)
        levels = [s.eigenvalues[s.blocks[b].at] for s in (spec0, spectrum)]
        if _gap_proves_continuity(*levels, dV, k).all():
            continue
        Y0 = states0[b] if b in states0 else block_vectors(H0, b)[:, :k]
        Y1 = states[b] = block_vectors(H, b)[:, :k].copy()  # not the whole block
        overlaps.update((label, abs(float(Y1[:, r] @ Y0[:, r]))) for r, label in enumerate(labels))
    return overlaps, states


def _split_is_rounding(whole: Spectrum, split: Spectrum) -> bool:
    """Whether each swept level of ``split`` lies within _SPLIT_TOL max|level| of ``whole``'s."""
    picks, split_picks = _mathieu_picks(whole), _mathieu_picks(split)
    bound = _SPLIT_TOL * float(np.abs(whole.eigenvalues).max())
    return all(
        abs(whole.eigenvalues[picks[l]] - split.eigenvalues[split_picks[l]]) <= bound
        for l in _SWEEP_LABELS
    )


def run_q_sweep(cfg: JobConfig) -> ResultTable:
    """Characteristic-value branches over a q range, labels tracked by overlap.

    |p|^alpha + 2q cos(2z) on the periodic grid at L = pi; the mode
    half-blocks, with their parity layout, and the kinetic diagonal are built
    once for the whole sweep, and so are their ``period_classes``.  Each step
    is a values-only solve of four class blocks, parity times period (a_2k,
    a_2k+1, b_2k+1, b_2k+2): a_n and b_n are picked by rank in the even and
    in the odd block.  The split drops one aliasing entry of size q, so the
    step with the largest |q| is also solved as two whole parity blocks; if
    a swept level there moves by more than ``_SPLIT_TOL`` times the largest
    |level|, the grid under-resolves the states and the whole sweep solves
    two whole blocks per step instead.  A branch is continuous when its
    states at consecutive steps overlap by at least 0.5.  Most steps prove
    that from the levels alone (``_gap_proves_continuity``); only a block
    where they cannot has its states solved, each step at most once, and a
    measured overlap below 0.5 is a warning in the metadata.  No grid
    eigenvector is formed, and no block matrix outlives its solve.
    """
    q_min, q_max, steps = cfg.sweep
    qs = np.linspace(q_min, q_max, steps)
    spec = _spec(cfg, cfg.N, _mathieu(q_min), BasisKind.PERIODIC)
    top = int(np.argmax(np.abs(qs)))
    # the largest |q| first, for the check, then every step in order
    hamiltonians = assemble_sweep(spec, math.pi, (_mathieu(float(q)) for q in chain([qs[top]], qs)))
    H_top = next(hamiltonians)
    classes = period_classes(H_top)
    whole = eigendecompose(H_top, vectors=False)
    split = eigendecompose(H_top, vectors=False, classes=classes)
    if not _split_is_rounding(whole, split):  # the grid under-resolves the states
        classes, split = None, whole
    rows = []
    warnings = []
    prev = None
    for i, (q, H) in enumerate(zip(qs, hamiltonians)):
        spectrum = split if i == top else eigendecompose(H, vectors=False, classes=classes)
        picks = _mathieu_picks(spectrum)
        states = {}
        if prev is not None:
            overlaps, states = _unproven_overlaps(prev, H, spectrum)
            for label in _SWEEP_LABELS:
                if overlaps.get(label, 1.0) < 0.5:
                    warnings.append(
                        f"branch {label} lost continuity at q = {q:.6g} "
                        f"(overlap {overlaps[label]:.3f})"
                    )
        prev = H, spectrum, states
        rows.append(
            [float(q)] + [float(spectrum.eigenvalues[picks[l]]) for l in _SWEEP_LABELS]
        )
    _, pot_text = _potential_callable(cfg)
    metadata = _base_metadata(cfg, pot_text)
    metadata["N"] = str(cfg.N)
    metadata["L"] = _fmt(math.pi)
    if warnings:
        metadata["warnings"] = "; ".join(warnings)
    return ResultTable(
        name="sweep",
        columns=["q"] + list(_SWEEP_LABELS),
        rows=rows,
        metadata=metadata,
    )


def fit_levels(ns, energies):
    """Ordinary least squares E_n = intercept + slope * n.

    Returns (intercept, slope, residuals).
    """
    ns = np.asarray(ns, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if len(ns) < 3:
        raise ConfigError(f"need at least 3 levels for a fit, got {len(ns)}")
    if np.ptp(ns) == 0:
        raise ConfigError("degenerate fit design: all level indices equal")
    slope, intercept = np.polyfit(ns, energies, 1)
    residuals = energies - (intercept + slope * ns)
    return float(intercept), float(slope), residuals


def run_wkb_compare(cfg: JobConfig) -> ResultTable:
    """Computed levels next to the WKB closed form, plus a straight-line fit."""
    spectrum, L_used, pms, pot_text = _solve(cfg, cfg.N, vectors=False)
    model = _wkb_model(cfg)
    if model is None:
        raise ConfigError("wkb-compare needs an oscillator(beta) preset")
    m = min(cfg.n_states, spectrum.grid.dim)
    rows = []
    for n in range(m):
        e = float(spectrum.eigenvalues[n])
        w = float(wkb_energy(model, n))
        rows.append([n, e, w, e - w])
    intercept, slope, residuals = fit_levels(
        np.arange(m), spectrum.eigenvalues[:m]
    )
    metadata = _base_metadata(cfg, pot_text)
    metadata["N"] = str(cfg.N)
    metadata["L"] = _fmt(L_used)
    if pms is not None:
        metadata["L_pms"] = _fmt(pms.L_pms)
    metadata["fit_intercept"] = _fmt(intercept)
    metadata["fit_slope"] = _fmt(slope)
    metadata["fit_max_residual"] = _fmt(float(np.abs(residuals).max()))
    metadata["wkb_slope"] = _fmt(model.prefactor) if model.exponent == 1.0 else ""
    return ResultTable(
        name="wkb_compare",
        columns=["n", "energy", "wkb_energy", "difference"],
        rows=rows,
        metadata=metadata,
    )


def _max_evolution_time(spectrum: Spectrum, c: np.ndarray, hbar: float) -> float:
    """Largest |t| whose phases t E_n / hbar are finite and rounded by at most _PHASE_TOL.

    A phase is rounded to about |t| 2^-53 |E_n| / hbar; the rms of |E_n|
    over the weights |c_n|^2 stands for the states that carry the norm.
    Energies and weights are scaled by their largest magnitudes first, so
    nothing overflows on the way.  A psi0 of zero has no phase to round.
    """
    E = np.abs(spectrum.eigenvalues)
    E_max, c_max = float(E.max()), float(np.abs(c).max())
    if E_max == 0.0:
        return math.inf
    t_max = sys.float_info.max / E_max * min(1.0, hbar)  # t E, then t E / hbar, stay finite
    if c_max > 0.0:
        w = (np.abs(c) / c_max) ** 2
        E_rms = E_max * math.sqrt(float(w @ (E / E_max) ** 2 / w.sum()))
        t_max = min(t_max, _PHASE_TOL * hbar * 2.0**53 / E_rms)
    return t_max


def run_evolve(cfg: JobConfig) -> list[ResultTable]:
    """Time evolution of an initial packet; one table per requested time.

    All times are propagated by one ``evolve`` call.  The x column is
    formatted once, and each table's rows are zipped from whole columns.
    Every cell keeps the bits that per-value Python gave: ``np.hypot``
    rounds as ``abs`` of a Python complex, and ``h ** 2`` is Python's pow
    (``h * h`` and ``np.square`` round differently).
    """
    spectrum, L_used, _, pot_text = _solve(cfg, cfg.N)
    points = spectrum.grid.points
    psi0 = sample_on_grid(parse(cfg.psi0), points, "psi0")
    c = evolution_coefficients(spectrum, psi0)
    t_max = _max_evolution_time(spectrum, c, cfg.hbar)
    for t in cfg.times:
        if not abs(t) <= t_max:
            raise ConfigError(
                f"time t = {t:g} is too large: its phases t*E/hbar would overflow or "
                f"carry more than {_PHASE_TOL:g} rad of rounding; the largest usable "
                f"time for this psi0 is {t_max:.3g}"
            )
    coeff_norm = float(np.sum(np.abs(c) ** 2))
    psi = evolve(spectrum, psi0, cfg.hbar, cfg.times)
    x_cells = [_NUMBER % x for x in points.tolist()]
    tables = []
    for t, psi_t in zip(cfg.times, psi.T):
        re, im = psi_t.real, psi_t.imag
        abs2 = [h ** 2 for h in np.hypot(re, im).tolist()]
        rows = list(zip(x_cells, re.tolist(), im.tolist(), abs2))
        metadata = _base_metadata(cfg, pot_text)
        metadata["N"] = str(cfg.N)
        metadata["L"] = _fmt(L_used)
        metadata["t"] = _fmt(float(t))
        metadata["psi0"] = cfg.psi0
        metadata["coeff_norm"] = _fmt(coeff_norm)
        tables.append(
            ResultTable(
                name=evolve_table_name(t),
                columns=["x", "re", "im", "abs2"],
                rows=rows,
                metadata=metadata,
            )
        )
    return tables


def run_job(cfg: JobConfig) -> list[ResultTable]:
    """Dispatch a validated config to its runner."""
    if cfg.mode == "spectrum":
        return [run_spectrum(cfg)]
    if cfg.mode == "convergence":
        return [run_convergence(cfg)]
    if cfg.mode == "pms-scan":
        return [run_pms_scan(cfg)]
    if cfg.mode == "q-sweep":
        return [run_q_sweep(cfg)]
    if cfg.mode == "wkb-compare":
        return [run_wkb_compare(cfg)]
    if cfg.mode == "evolve":
        return run_evolve(cfg)
    raise ConfigError(f"unknown mode {cfg.mode!r}")  # pragma: no cover


def write_csv(table: ResultTable, directory) -> Path:
    path = Path(directory) / f"{table.name}.csv"
    head = "".join(f"# {key} = {value}\n" for key, value in table.metadata.items())
    path.write_text(head + ",".join(table.columns) + "\n" + _format_table(table.rows, ",", "\n"))
    return path


def write_json(table: ResultTable, directory) -> Path:
    path = Path(directory) / f"{table.name}.json"
    rows = [[_fmt(v) for v in row] for row in table.rows]
    payload = {"metadata": table.metadata, "columns": table.columns, "rows": rows}
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def write_tables(tables: list[ResultTable], directory, out_format: str) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    writer = write_csv if out_format == "csv" else write_json
    return [writer(t, directory) for t in tables]
