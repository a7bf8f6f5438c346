"""The evolve job, the table writers and the kinetic prefactor's limits.

The evolve job solves once, propagates every requested time in one call and
never forms the grid eigenvectors.  A time whose phases t E_n / hbar would
overflow or be mostly rounding is a config error, and so is a kinetic
prefactor D hbar^alpha that overflows, also under ``python -O``.  The
writers format each table in one call, with the same bytes as formatting value
by value.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclap
from fraclap import jobs
from fraclap.cli import main
from fraclap.config import build_job_config

EVOLVE_CFG = (
    "mode = evolve\nbasis = dirichlet\npotential = x^2\nalpha = 1.5\nN = 20\nL = 6\n"
    "psi0 = exp(-x^2)\ntimes = 0\n"
)


def _run(tmp_path, *overrides):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(EVOLVE_CFG)
    out = tmp_path / "out"
    args = ["run", "--config", str(cfg), "--out", str(out)]
    for item in overrides:
        args += ["--set", item]
    return CliRunner().invoke(main, args), out


def _table(path):
    """(metadata, rows as floats) of a written CSV table."""
    lines = path.read_text().splitlines()
    meta = dict(l[2:].split(" = ", 1) for l in lines if l.startswith("# "))
    body = [l for l in lines if not l.startswith("#")][1:]
    return meta, np.array([[float(v) for v in l.split(",")] for l in body])


class TestEvolutionTimeLimit:
    @pytest.mark.parametrize("t", ["1e308", "1e17", "-1e17"])
    def test_meaningless_phases_are_a_config_error(self, tmp_path, t):
        # t = 1e308 made every row nan; t = 1e17 rounds each phase by ~10 rad
        result, out = _run(tmp_path, f"times=0,{t}")
        assert result.exit_code == 1, result.output
        assert f"time t = {float(t):g} is too large" in result.output
        assert "largest usable time for this psi0 is 7.19e+09" in result.output
        assert not out.exists()

    def test_times_in_use_pass(self, tmp_path):
        result, out = _run(tmp_path, "times=0,0.25,16,20,-20,1e9")
        assert result.exit_code == 0, result.output
        assert len(list(out.glob("*.csv"))) == 6

    def test_zero_psi0_passes(self, tmp_path):
        result, out = _run(tmp_path, "psi0=0", "times=0,20")
        assert result.exit_code == 0, result.output
        meta, rows = _table(out / "evolve_t20.csv")
        assert float(meta["coeff_norm"]) == 0.0
        assert np.all(rows[:, 1:] == 0.0)

    def test_overflowing_phase_with_zero_psi0_is_a_config_error(self, tmp_path):
        # nothing to round, but t E would overflow to inf and the rows to nan
        result, out = _run(tmp_path, "psi0=0", "times=1e308")
        assert result.exit_code == 1, result.output
        assert not out.exists()

    def test_limit_holds_under_python_O(self, tmp_path):
        # the check is an if, not an assert, so it survives -O
        proc, out = _run_optimized(tmp_path, EVOLVE_CFG, "times=1e308")
        assert proc.returncode == 1, proc.stderr
        assert "config error: time t = 1e+308 is too large" in proc.stderr
        assert not out.exists()


def _run_optimized(tmp_path, text, *overrides):
    """``fraclap run`` on config ``text`` in a ``python -O`` subprocess."""
    cfg = tmp_path / "job.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    src = str(Path(fraclap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    args = [sys.executable, "-O", "-m", "fraclap.cli", "run", "--config", str(cfg), "--out", str(out)]
    for item in overrides:
        args += ["--set", item]
    return subprocess.run(args, capture_output=True, text=True, env=env, timeout=120), out


class TestKineticPrefactorOverflow:
    @pytest.mark.parametrize(
        "mode, overrides",
        [
            ("spectrum", ["hbar=1e300"]),
            ("pms-scan", ["hbar=1e300", "L=pms"]),
            ("spectrum", ["D=1e300", "hbar=1e10", "alpha=2"]),
        ],
    )
    def test_is_a_config_error(self, tmp_path, mode, overrides):
        result, out = _run(tmp_path, f"mode={mode}", *overrides)
        assert result.exit_code == 1, result.output
        assert "config error: the kinetic prefactor D * hbar^alpha overflows" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()

    def test_is_a_config_error_under_python_O(self, tmp_path):
        proc, out = _run_optimized(tmp_path, EVOLVE_CFG, "mode=spectrum", "hbar=1e300")
        assert proc.returncode == 1, proc.stderr
        assert "config error: the kinetic prefactor" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_tiny_hbar_still_runs(self, tmp_path):
        result, out = _run(tmp_path, "mode=spectrum", "hbar=1e-300")
        assert result.exit_code == 0, result.output
        body = [l for l in (out / "spectrum.csv").read_text().splitlines() if not l.startswith("#")]
        energies = [float(l.split(",")[1]) for l in body[1:]]
        # the kinetic term is below double precision: the levels are V at the nodes
        np.testing.assert_allclose(energies, [0.0, 0.09, 0.09, 0.36], rtol=0, atol=1e-14)


class TestEvolveJob:
    def test_job_never_forms_grid_vectors(self, monkeypatch):
        solved = []

        def keep(H, vectors=True):
            assert vectors  # evolution reads every state
            solved.append(fraclap.eigendecompose(H, vectors))
            return solved[-1]

        monkeypatch.setattr(jobs, "eigendecompose", keep)
        tables = jobs.run_evolve(build_job_config(
            {"mode": "evolve", "potential": "x^2", "alpha": "1.5", "N": "20", "L": "6",
             "psi0": "exp(-x^2)", "times": "0, 1, 2"}
        ))
        assert [t.name for t in tables] == ["evolve_t0", "evolve_t1", "evolve_t2"]
        assert "eigenvectors" not in vars(solved[0])

    @pytest.mark.parametrize("seed", range(8))
    def test_norm_drift_at_n500(self, tmp_path, seed):
        # the benchmark's evolve draws: sum |psi|^2 of every written table
        # against the coefficient norm, as read back from the files
        rng = np.random.default_rng(seed)
        alpha, c, x0 = rng.uniform(1.0, 2.0), rng.uniform(0.0, 2.0), rng.uniform(-1.0, 1.0)
        cfg = build_job_config(
            {"mode": "evolve", "potential": f"x^4 - {c!r}*x^2", "alpha": repr(alpha),
             "N": "500", "L": "8", "psi0": f"exp(-(x - {x0!r})^2)",
             "times": "0, 0.25, 0.5, 1, 2, 4, 8, 16"}
        )
        drift = 0.0
        for path in jobs.write_tables(jobs.run_evolve(cfg), tmp_path, "csv"):
            meta, rows = _table(path)
            norm = float(np.sum(rows[:, 1] ** 2 + rows[:, 2] ** 2))
            drift = max(drift, abs(norm - float(meta["coeff_norm"])))
        assert drift <= 5e-13


_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.7976931348623157e308]
numbers = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from(_SPECIAL + [np.float64(v) for v in _SPECIAL]),
    st.integers(-(10**300), 10**300),
)
# text the formats must pass through: separators, format specs and the JSON cell end
texts = st.one_of(st.text(), st.sampled_from(["\n", "%", "%s", "%.15g", ",", "a,b", jobs._CELL_SEP, ""]))


@st.composite
def tables(draw):
    """Rows whose columns each hold text or numbers; one row may be redrawn.

    The redrawn row has the table's width, which can mix text and numbers
    in a column, or any width, which makes the table ragged.
    """
    is_text = draw(st.lists(st.booleans(), max_size=5))
    rows = draw(st.lists(st.tuples(*[texts if t else numbers for t in is_text]).map(list), max_size=6))
    if rows:
        cells = st.one_of(numbers, texts)
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = draw(
            st.one_of(
                st.just(rows[i]),
                st.lists(cells, min_size=len(is_text), max_size=len(is_text)),
                st.lists(cells, max_size=7),
            )
        )
    return rows


@settings(deadline=None)
@given(tables())
def test_whole_table_format_matches_per_value_format(rows):
    expected = [[jobs._fmt(v) for v in row] for row in rows]
    assert jobs._format_table(rows, ",", "\n") == "".join(",".join(r) + "\n" for r in expected)
    assert jobs._json_rows(rows) == expected


class TestEvolveOutput:
    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_files_match_per_cell_rendering(self, tmp_path, out_format):
        # the rows zipped from whole columns against psi taken cell by cell;
        # at N = 40, h * h for |psi|^2 would differ from abs(p) ** 2 in 2 cells
        cfg = build_job_config(
            {"mode": "evolve", "potential": "x^4 - 0.7*x^2", "alpha": "1.3", "N": "40", "L": "8",
             "psi0": "exp(-(x - 0.3)^2)", "times": "0, 0.25, 0.5, 1, 2, 4, 8, 16",
             "format": out_format}
        )
        spectrum = jobs._solve(cfg, cfg.N)[0]
        points = spectrum.grid.points
        psi0 = jobs.sample_on_grid(jobs.parse(cfg.psi0), points, "psi0")
        psi = jobs.evolve(spectrum, psi0, cfg.hbar, cfg.times)
        tables = jobs.run_evolve(cfg)
        paths = jobs.write_tables(tables, tmp_path, out_format)
        assert len(paths) == 8
        for table, path, psi_t in zip(tables, paths, psi.T):
            cells = [(x, p.real, p.imag, abs(p) ** 2) for x, p in zip(points.tolist(), psi_t.tolist())]
            assert [tuple(row[1:]) for row in table.rows] == [c[1:] for c in cells]
            expected = [[jobs._fmt(v) for v in c] for c in cells]
            text = path.read_text()
            if out_format == "csv":
                assert text.split("x,re,im,abs2\n")[1] == "".join(",".join(r) + "\n" for r in expected)
            else:
                assert json.loads(text)["rows"] == expected
