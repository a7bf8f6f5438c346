"""Batch command-line front-end.

    fraclap run --config job.cfg [--set key=value ...] [--out results/]
    fraclap check

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import math
import sys

import click
import numpy as np

from .basis import BasisKind, coefficients, eval_sampling_function, make_grid
from .config import build_job_config, parse_config_text
from .eigen import eigendecompose, evolve, mode_coefficients
from .errors import ConfigError, EvaluationError, FraclapError, ParameterError, ParseError
from .hamiltonian import HamiltonianSpec, assemble
from .jobs import run_job, write_tables
from .operators import fractional_laplacian_matrix, fractional_multiplier, multiplier_matrix
from .reference import exact_box_energy

EXIT_CONFIG_ERROR = 1
EXIT_NUMERICAL_ERROR = 2


@click.group()
def main():
    """Fractional Schrodinger eigenproblems by little-sinc collocation."""


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--set", "overrides", multiple=True, help="Override a config key, e.g. --set N=30.")
@click.option("--out", "out_dir", default=".", type=click.Path(file_okay=False))
def run_command(config_path, overrides, out_dir):
    """Run the job described by a key = value config file."""
    try:
        with open(config_path) as fh:
            pairs = parse_config_text(fh.read())
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--set needs key=value, got {item!r}")
            key, _, value = item.partition("=")
            pairs[key.strip()] = value.strip()
        cfg = build_job_config(pairs)
    except (ConfigError, ParseError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)

    try:
        tables = run_job(cfg)
        paths = write_tables(tables, out_dir, cfg.out_format)
    # inside a job a ParameterError can only come from a config value (alpha, D, N, L)
    except (ConfigError, ParseError, EvaluationError, ParameterError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    except FraclapError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL_ERROR)

    for path in paths:
        click.echo(str(path))


def _property_checks():
    """The built-in sanity suite behind ``fraclap check``.

    Yields (name, passed, detail) triples.
    """
    # cardinality of every sampling set
    worst = 0.0
    for kind in BasisKind:
        for N in (2, 3, 5):
            grid = make_grid(kind, N, 1.3)
            coeffs = coefficients(grid)
            for k in grid.indices:
                vals = eval_sampling_function(coeffs, int(k), grid.points)
                expect = (grid.indices == k).astype(float)
                worst = max(worst, float(np.abs(vals - expect).max()))
    yield "cardinality s_k(x_j) = delta_kj", worst <= 1e-12, f"max dev {worst:.2e}"

    # free-mode route S diag(|p|^alpha) S^T vs the generic multiplier route
    worst = 0.0
    for kind in BasisKind:
        for alpha in (1.0, 1.5, 2.0):
            grid = make_grid(kind, 4, 2.0)
            coeffs = coefficients(grid)
            modal = fractional_laplacian_matrix(coeffs, alpha).entries
            generic = multiplier_matrix(coeffs, fractional_multiplier(alpha)).entries
            worst = max(worst, float(np.abs(modal - generic).max()))
    yield "free-mode matrix matches generic multiplier", worst <= 1e-12, f"max dev {worst:.2e}"

    # symmetry of the operator matrices
    worst = 0.0
    for kind in BasisKind:
        M = fractional_laplacian_matrix(coefficients(make_grid(kind, 6, 1.0)), 1.5).entries
        worst = max(worst, float(np.abs(M - M.T).max()))
    yield "operator matrix symmetry", worst <= 1e-13, f"max asym {worst:.2e}"

    # Dirichlet free spectrum against the exact fractional box
    grid = make_grid(BasisKind.DIRICHLET, 8, 1.7)
    M = fractional_laplacian_matrix(coefficients(grid), 1.5)
    ev = np.linalg.eigvalsh(M.entries)
    exact = [exact_box_energy(1.5, 1.0, 1.0, 1.7, n) for n in range(1, grid.dim + 1)]
    dev = float(np.abs(ev - np.array(exact)).max() / max(exact))
    yield "Dirichlet free spectrum = exact box levels", dev <= 1e-10, f"max rel dev {dev:.2e}"

    # an uneven V couples the even and the odd mode columns
    worst = 0.0
    for kind in BasisKind:
        spec = HamiltonianSpec(alpha=1.5, potential=lambda x: x * x + 0.3 * x, kind=kind, N=12)
        H = assemble(spec, 4.0)
        dev = np.abs(eigendecompose(H).eigenvalues - np.linalg.eigvalsh(H.entries)).max()
        worst = max(worst, float(dev / np.abs(H.entries).max()))
    yield "uneven V: mode solve matches dense eigvalsh", worst <= 1e-12, f"max rel dev {worst:.2e}"

    # evolution conserves the coefficient norm
    spec = HamiltonianSpec(
        alpha=1.5, potential=lambda x: 0.0, kind=BasisKind.DIRICHLET, N=8
    )
    spectrum = eigendecompose(assemble(spec, 1.0))
    psi0 = np.exp(-10.0 * spectrum.grid.points**2)
    norm = float(np.sum(np.abs(mode_coefficients(spectrum, psi0)) ** 2))
    drift = 0.0
    for t in (0.0, 1.0, 10.0):
        psi_t = evolve(spectrum, psi0, 1.0, t)
        c = mode_coefficients(spectrum, psi_t)
        drift = max(drift, abs(float(np.sum(np.abs(c) ** 2)) - norm))
    yield "evolution coefficient-norm conservation", drift <= 1e-12, f"max drift {drift:.2e}"

    # Mathieu q = 0 degeneracy a_1 = b_1 = 1
    worst = 0.0
    for alpha in (1.0, 1.5, 2.0):
        spec = HamiltonianSpec(
            alpha=alpha, potential=lambda x: 0.0, kind=BasisKind.PERIODIC, N=10
        )
        ev = eigendecompose(assemble(spec, math.pi)).eigenvalues
        worst = max(worst, abs(float(ev[1]) - 1.0), abs(float(ev[2]) - 1.0))
    yield "Mathieu q = 0 degeneracy a1 = b1 = 1", worst <= 1e-12, f"max dev {worst:.2e}"


@main.command("check")
def check_command():
    """Run the built-in property suite."""
    failed = False
    for name, passed, detail in _property_checks():
        status = "PASS" if passed else "FAIL"
        click.echo(f"{status}  {name} ({detail})")
        if not passed:
            failed = True
    if failed:
        sys.exit(EXIT_NUMERICAL_ERROR)


if __name__ == "__main__":  # pragma: no cover
    main()
