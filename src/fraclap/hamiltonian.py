"""Hamiltonian assembly and box-size selection by minimal sensitivity.

The Hamiltonian is H = D * hbar**alpha * |p|^alpha + diag(V(x_k)).  The
kinetic matrix is orthogonally similar to diag(|p_n|^alpha) over the free
modes of the grid, so ``assemble`` returns a ``Hamiltonian`` that keeps the
mode matrix S as its even and its odd half-block (``basis.parity_halves``),
that diagonal and the potential samples; S itself and the dense grid matrix
are formed only when something reads ``entries``.  The box half-length L is
an unphysical parameter of the sampling set; it is chosen at the minimum of
trace(H(L)), a sum over the mode momenta plus the potential samples, with no
matrix built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator

import numpy as np

from .basis import BasisKind, Grid, ParityHalves, make_grid, mode_momenta, parity_halves
from .errors import ConfigError, EvaluationError, NumericalError, ParameterError
from .operators import abs_power_entries
from .potential import PotentialExpr

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Points of the coarse box-size scan, and of each widening beyond its edge.
_SCAN_POINTS = 32
# Doublings of the box-size search beyond each edge of its bracket.
_MAX_WIDENINGS = 8
# Why a trace can still fall past the upper limit of the box-size search.
_UNBOUNDED_BELOW = (
    "The potential is most likely unbounded below (e.g. -x^2) or too weak to "
    "confine the states; check it, or set L explicitly"
)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Physical model and discretization, everything except the box size."""

    alpha: float
    potential: Callable[[float], float]
    kind: BasisKind
    N: int
    d_alpha: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "d_alpha", "hbar"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ParameterError(f"{name} must be positive, got {v!r}")
        self.kinetic_prefactor  # an overflow fails here, at construction

    @cached_property
    def kinetic_prefactor(self) -> float:
        """D * hbar**alpha, the factor of |p|^alpha in H.

        An overflow is a ParameterError that names D, hbar and alpha; an
        underflow to 0 is not, since the kinetic term is then below double
        precision.
        """
        try:
            prefactor = self.d_alpha * self.hbar**self.alpha
        except OverflowError:
            prefactor = math.inf
        if not math.isfinite(prefactor):
            raise ParameterError(
                f"the kinetic prefactor D * hbar^alpha overflows at D = {self.d_alpha:g}, "
                f"hbar = {self.hbar:g}, alpha = {self.alpha:g}; rescale the units so "
                "that it is finite"
            )
        return prefactor


@dataclass(frozen=True)
class PmsResult:
    """Outcome of the trace-minimizing box-size search."""

    L_pms: float
    trace_at_min: float
    scan: tuple  # (L, trace) pairs of the coarse scan and its widenings, L ascending
    converged: bool


def sample_on_grid(fn, points, name: str = "potential") -> np.ndarray:
    """fn at every grid point, raising EvaluationError at the first bad one.

    A ``PotentialExpr`` is evaluated over all points in one call; any other
    callable is called once per point.  A non-finite value fails too.
    """
    if isinstance(fn, PotentialExpr):
        values = fn.evaluate(points)
    else:
        values = np.empty(len(points))
        for i, x in enumerate(points):
            try:
                values[i] = fn(float(x))
            except EvaluationError:
                raise
            except Exception as exc:
                raise EvaluationError(f"{name} evaluation failed: {exc}", float(x))
            if not np.isfinite(values[i]):
                break  # reported below, as the first non-finite value
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise EvaluationError(f"{name} is not finite (got {float(values[i])!r})", float(points[i]))
    return values


@dataclass(frozen=True)
class Hamiltonian:
    """H = S diag(kinetic) S^T + diag(potential), held in the free modes of its grid.

    ``halves`` holds the orthogonal mode matrix S of ``basis.mode_matrix`` as
    its even and its odd half-block, ``kinetic`` the diagonal
    D * hbar**alpha * |p_n|^alpha over the columns of S (from
    (-hbar**2 Laplacian)^(alpha/2) = hbar**alpha |p|^alpha) and
    ``potential`` the samples V(x_k).  The dense grid matrix ``entries`` is
    the oracle of tests and checks, formed from a fresh S only when
    something reads it; no solve does.
    """

    spec: HamiltonianSpec
    grid: Grid
    halves: ParityHalves
    kinetic: np.ndarray
    potential: np.ndarray

    @cached_property
    def entries(self) -> np.ndarray:
        """D * hbar**alpha * |p|^alpha + diag(V(x_k)) as a dense grid matrix."""
        entries = abs_power_entries(self.grid, self.spec.alpha)
        entries *= self.spec.kinetic_prefactor
        entries.flat[:: self.grid.dim + 1] += self.potential
        return entries


def assemble(spec: HamiltonianSpec, L: float) -> Hamiltonian:
    """Hamiltonian D * hbar**alpha * |p|^alpha + diag(V(x_k)) on the (kind, N, L) grid."""
    return next(assemble_sweep(spec, L, (spec.potential,)))


def assemble_sweep(spec: HamiltonianSpec, L: float, potentials: Iterable) -> Iterator[Hamiltonian]:
    """``assemble`` on one grid for each potential in turn, in place of ``spec.potential``.

    The mode half-blocks, with their parity layout, and the kinetic diagonal
    do not depend on V, so every step shares them.  An overflow of
    |p_n|^alpha is left as inf here; ``eigen.eigendecompose`` rejects it with
    a NumericalError.
    """
    grid = make_grid(spec.kind, spec.N, L)
    halves = parity_halves(grid)
    with np.errstate(over="ignore"):
        kinetic = spec.kinetic_prefactor * mode_momenta(grid) ** spec.alpha
    for potential in potentials:
        V = sample_on_grid(potential, grid.points)
        yield Hamiltonian(replace(spec, potential=potential), grid, halves, kinetic, V)


def _trace_of(spec: HamiltonianSpec, L: float) -> float:
    """The trace of ``assemble(spec, L).entries`` as a sum over the free modes, in O(N)."""
    grid = make_grid(spec.kind, spec.N, L)
    kin = np.sum(mode_momenta(grid) ** spec.alpha)
    return float(spec.kinetic_prefactor * kin + sample_on_grid(spec.potential, grid.points).sum())


def _golden_minimize(f, a: float, b: float, c: float, tol: float) -> float:
    """Golden-section minimum of f on a bracket a < b < c with f(b) lowest."""
    lo, hi = a, c
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def _scan(trace_fn, Ls) -> np.ndarray:
    traces = np.array([trace_fn(L) for L in Ls])
    if not np.all(np.isfinite(traces)):
        bad = Ls[~np.isfinite(traces)][0]
        raise NumericalError(f"trace is not finite at L = {bad:g}")
    return traces


def _minimize_scan(trace_fn, bracket, tol, lower_cause: str) -> PmsResult:
    """Coarse scan over ``bracket``, widened while its minimum sits on an edge.

    Each widening scans ``_SCAN_POINTS`` more points out to twice the upper
    edge (or half the lower one), up to ``_MAX_WIDENINGS`` times per side.
    The lowest scanned point and its two neighbours then bracket the
    golden-section refinement.  A trace that still falls at a limit is a
    ConfigError, which gives ``lower_cause`` at the lower limit and
    ``_UNBOUNDED_BELOW`` at the upper one.
    """
    lo, hi = bracket
    if not (0 < lo < hi):
        raise ParameterError(f"need 0 < L_lo < L_hi, got {bracket!r}")
    Ls = np.linspace(lo, hi, _SCAN_POINTS)
    traces = _scan(trace_fn, Ls)
    widened = {"upper": 0, "lower": 0}
    while True:
        i = int(np.argmin(traces))
        if 0 < i < len(Ls) - 1:
            break
        side = "upper" if i else "lower"
        if widened[side] == _MAX_WIDENINGS:
            raise ConfigError(
                f"trace(H(L)) still falls at L = {Ls[i]:g}, the {side} limit of "
                "the box-size search: no box size minimizes it. "
                + (_UNBOUNDED_BELOW if i else lower_cause)
            )
        widened[side] += 1
        edge = Ls[i]
        new = np.linspace(edge, 2.0 * edge if i else 0.5 * edge, _SCAN_POINTS + 1)[1:]
        new_traces = _scan(trace_fn, new)
        if i:
            Ls, traces = np.concatenate((Ls, new)), np.concatenate((traces, new_traces))
        else:
            Ls, traces = np.concatenate((new[::-1], Ls)), np.concatenate((new_traces[::-1], traces))
    L_best = _golden_minimize(trace_fn, Ls[i - 1], Ls[i], Ls[i + 1], tol)
    return PmsResult(
        L_pms=float(L_best),
        trace_at_min=float(trace_fn(L_best)),
        scan=tuple(zip(Ls.tolist(), traces.tolist())),
        converged=True,
    )


def find_pms_length(
    spec: HamiltonianSpec,
    bracket: tuple[float, float] = (0.5, 40.0),
    tol: float = 1e-3,
) -> PmsResult:
    """Box size at the trace minimum (principle of minimal sensitivity).

    A 32-point coarse scan over ``bracket`` locates the minimum, which is
    then refined by golden-section search to ``tol`` in L.  A minimum on a
    bracket edge widens the scan geometrically beyond that edge; if the trace
    still falls after ``_MAX_WIDENINGS`` doublings (L up to 256 times the
    upper edge, or down to 1/256 of the lower one) a ``ConfigError`` names
    the likely cause: an unbounded-below potential at the upper limit, and at
    the lower one a kinetic prefactor D * hbar^alpha so small that the
    minimum lies at a box far below the bracket.  A returned result always
    has converged=True.
    """
    lower_cause = (
        f"The kinetic prefactor D * hbar^alpha = {spec.kinetic_prefactor:g} (D = "
        f"{spec.d_alpha:g}, hbar = {spec.hbar:g}, alpha = {spec.alpha:g}) is most "
        "likely too small beside the potential; rescale the units so that it is "
        "nearer 1, or set L explicitly"
    )
    return _minimize_scan(lambda L: _trace_of(spec, L), bracket, tol, lower_cause)
