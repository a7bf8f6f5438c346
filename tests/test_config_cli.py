import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from fraclap import (
    BasisKind,
    ConfigError,
    HamiltonianSpec,
    NumericalError,
    assemble,
    block_vectors,
    classify_parity,
    eigendecompose,
    find_pms_length,
    parse,
)
from fraclap import config, jobs
from fraclap.cli import main
from fraclap.config import Preset, build_job_config, parse_config_text
from fraclap.jobs import _potential_callable, fit_levels, run_q_sweep, run_spectrum


class TestParseConfigText:
    def test_basic(self):
        pairs = parse_config_text("# comment\nmode = spectrum\n\nalpha=1.5\n")
        assert pairs == {"mode": "spectrum", "alpha": "1.5"}

    def test_later_key_wins(self):
        assert parse_config_text("a = 1\na = 2")["a"] == "2"

    def test_value_may_contain_equals(self):
        assert parse_config_text("note = a=b")["note"] == "a=b"

    def test_rejects_bare_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words")

    def test_rejects_empty_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("= 3")


BASE = {"mode": "spectrum", "alpha": "1.5", "N": "10", "potential": "oscillator(2)"}


def _cfg(**overrides):
    pairs = dict(BASE)
    pairs.update({k: str(v) for k, v in overrides.items()})
    return build_job_config(pairs)


class TestBuildJobConfig:
    def test_defaults(self):
        cfg = _cfg()
        assert cfg.mode == "spectrum"
        assert cfg.basis.value == "dirichlet"
        assert cfg.L is None  # PMS
        assert cfg.n_states == 4
        assert cfg.out_format == "csv"
        assert cfg.potential == Preset("oscillator", 2.0)

    def test_mathieu_defaults(self):
        cfg = _cfg(potential="mathieu(1)")
        assert cfg.basis.value == "periodic"
        assert cfg.L == pytest.approx(math.pi)

    def test_mathieu_rejects_pms(self):
        with pytest.raises(ConfigError):
            _cfg(potential="mathieu(1)", L="pms")

    def test_periodic_needs_explicit_L(self):
        with pytest.raises(ConfigError):
            _cfg(potential="free", basis="periodic")
        assert _cfg(potential="free", basis="periodic", L="3.0").L == 3.0

    @pytest.mark.parametrize("mode", ["spectrum", "convergence", "evolve", "wkb-compare"])
    def test_L_pi_on_every_job(self, mode):
        extra = {"convergence": {"N": "10,12"},
                 "evolve": {"psi0": "exp(-x^2)", "times": "0"}}.get(mode, {})
        assert _cfg(mode=mode, L="pi", **extra).L == math.pi
        assert _cfg(mode=mode, L="PI", **extra).L == math.pi

    def test_mathieu_rejects_non_positive_L(self):
        with pytest.raises(ConfigError):
            _cfg(potential="mathieu(1)", L="-1")

    def test_expression_potential_passes_through(self):
        assert _cfg(potential="x^4 + x^2").potential == "x^4 + x^2"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mode": "nope"},
            {"alpha": "abc"},
            {"N": ""},
            {"N": "10,20"},  # spectrum takes one N
            {"L": "-2"},
            {"n_states": "0"},
            {"format": "xml"},
            {"potential": "oscillator(-1)"},
            {"potential": "oscillator(two)"},
        ],
    )
    def test_validation_errors(self, overrides):
        with pytest.raises(ConfigError):
            _cfg(**overrides)

    def test_convergence_needs_n_list(self):
        with pytest.raises(ConfigError):
            _cfg(mode="convergence", N="10")
        cfg = _cfg(mode="convergence", N="10, 20, 30")
        assert cfg.n_list == (10, 20, 30)

    def test_q_sweep_validation(self):
        with pytest.raises(ConfigError):
            _cfg(mode="q-sweep", q_max="5", q_steps="3")  # not mathieu
        with pytest.raises(ConfigError):
            _cfg(mode="q-sweep", potential="mathieu(1)", q_max="5", q_steps="1")
        cfg = _cfg(mode="q-sweep", potential="mathieu(1)", q_max="5", q_steps="3")
        assert cfg.sweep == (0.0, 5.0, 3)

    @pytest.mark.parametrize("steps", ["10001", "100000000"])
    def test_q_steps_are_capped(self, steps):
        # refused while parsing: no q grid is made and no step is solved
        with pytest.raises(ConfigError, match=f"q_steps must be between 2 and 10000, got {steps}"):
            _cfg(mode="q-sweep", potential="mathieu(1)", q_max="5", q_steps=steps)
        assert _cfg(mode="q-sweep", potential="mathieu(1)", q_max="5", q_steps="10000").sweep[2] == 10000

    def test_evolve_validation(self):
        with pytest.raises(ConfigError):
            _cfg(mode="evolve", times="0,1")  # missing psi0
        with pytest.raises(ConfigError):
            _cfg(mode="evolve", psi0="exp(-x^2)")  # missing times
        cfg = _cfg(mode="evolve", psi0="exp(-x^2)", times="0, 0.5", L="6")
        assert cfg.times == (0.0, 0.5)

    def test_wkb_compare_needs_oscillator(self):
        with pytest.raises(ConfigError):
            _cfg(mode="wkb-compare", potential="free")

    @pytest.mark.parametrize("key, closest", [("n_state", "n_states"), ("fromat", "format"),
                                              ("n", "N"), ("qmax", "q_max")])
    def test_unknown_key_names_the_closest_known_one(self, key, closest):
        match = f"unknown key '{key}' \\(closest known key: '{closest}'\\)"
        with pytest.raises(ConfigError, match=match):
            _cfg(**{key: "2"})

    def test_a_key_of_another_mode_is_allowed(self):
        # a spectrum job ignores the sweep and evolve keys
        assert _cfg(q_max="5", psi0="exp(-x^2)", times="0").mode == "spectrum"

    @pytest.mark.parametrize("times, first, second, name", [
        ("0.1, 0.1000001, 2", "0.1", "0.1000001", "evolve_t0.1.csv"),
        ("0, 0", "0.0", "0.0", "evolve_t0.csv"),
    ])
    def test_evolve_times_that_share_a_file_are_refused(self, times, first, second, name):
        # both times format to one file name, so the later table would overwrite the earlier
        match = f"t = {first} and t = {second} would both write {name}"
        with pytest.raises(ConfigError, match=match):
            _cfg(mode="evolve", psi0="exp(-x^2)", times=times, L="6")
        distinct = _cfg(mode="evolve", psi0="exp(-x^2)", times="0.1, 0.100001", L="6")
        assert distinct.times == (0.1, 0.100001)

    def test_memory_preflight_refuses_a_large_N(self, monkeypatch):
        # 7 dense 10001 x 10001 matrices are 5.2 GiB, against 1 GiB of memory;
        # N = 1000 needs 0.21 GiB; nothing is allocated either way
        monkeypatch.setattr(config, "_physical_memory", lambda: 2**30)
        with pytest.raises(ConfigError) as info:
            _cfg(N="5000")
        message = str(info.value)
        assert "N = 5000 needs about 5.22 GiB" in message
        assert "10001 x 10001" in message and "1 GiB of physical memory" in message
        assert _cfg(N="1000").N == 1000
        # a convergence run is as large as its largest N
        with pytest.raises(ConfigError, match="N = 5000"):
            _cfg(mode="convergence", N="10, 5000, 20")
        # an estimate past the float range still gives a message
        with pytest.raises(ConfigError, match="needs about inf GiB"):
            _cfg(N=str(10**400))

    def test_memory_preflight_skipped_without_a_memory_figure(self, monkeypatch):
        monkeypatch.setattr(config, "_physical_memory", lambda: None)
        assert _cfg(N="5000").N == 5000


class TestFitLevels:
    def test_exact_line(self):
        intercept, slope, resid = fit_levels([0, 1, 2, 3], [1.0, 3.0, 5.0, 7.0])
        assert intercept == pytest.approx(1.0, abs=1e-12)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert abs(resid).max() <= 1e-12

    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            fit_levels([0, 1], [1.0, 2.0])


SPECTRUM_CFG = """\
mode = spectrum
potential = mathieu(1)
alpha = 2
N = 20
n_states = 4
"""


@pytest.fixture
def runner():
    return CliRunner()


def _write_cfg(tmp_path, text, name="job.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestPresetPotentials:
    # presets are expression trees, sampled over the grid in one call, in the
    # arithmetic order of their formulas
    def test_mathieu_matches_formula_bit_for_bit(self):
        q = 1.7
        expr, text = _potential_callable(_cfg(potential=f"mathieu({q})"))
        x = np.linspace(-math.pi, math.pi, 401)
        want = np.array([2.0 * q * math.cos(2.0 * v) for v in x])
        np.testing.assert_array_equal(expr.evaluate(x), want)
        assert text == "mathieu(1.7)"

    def test_oscillator_and_free(self):
        x = np.linspace(-3.0, 3.0, 61)
        expr, text = _potential_callable(_cfg(potential="oscillator(1.5)"))
        np.testing.assert_allclose(expr.evaluate(x), np.abs(x) ** 1.5, rtol=1e-15, atol=0)
        assert text == "oscillator(1.5)"
        free, text = _potential_callable(_cfg(potential="free"))
        np.testing.assert_array_equal(free.evaluate(x), np.zeros_like(x))
        assert text == "free"


def _sweep_hamiltonians(alpha, N, q_max, steps):
    for q in np.linspace(0.0, q_max, steps):
        spec = HamiltonianSpec(
            alpha=alpha,
            potential=parse(f"{2.0 * float(q)!r}*cos(2*x)"),
            kind=BasisKind.PERIODIC,
            N=N,
        )
        yield float(q), assemble(spec, math.pi)


class TestQSweep:
    @pytest.mark.parametrize("N", [20, 200])
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_rows_match_per_q_public_route(self, alpha, N):
        # one kinetic diagonal per sweep and block ranks give the same bits
        # as assembling each q on its own and solving it values-only, and the
        # full solve labelled by classify_parity picks the same states, whose
        # eigh levels differ from the eigvalsh ones by rounding only
        q_max, steps = 20.0, 5
        table = run_q_sweep(
            build_job_config(
                {"mode": "q-sweep", "potential": "mathieu(0)", "alpha": str(alpha),
                 "N": str(N), "q_min": "0", "q_max": str(q_max), "q_steps": str(steps)}
            )
        )
        expected, full, scale = [], [], 0.0
        for q, H in _sweep_hamiltonians(alpha, N, q_max, steps):
            levels = eigendecompose(H, vectors=False)
            even, odd = (levels.blocks[b].at for b in (0, 1))
            picks = [even[0], odd[0], even[1], odd[1], even[2], odd[2], even[3]]
            expected.append([q] + [float(levels.eigenvalues[i]) for i in picks])
            spectrum = eigendecompose(H)
            labels = classify_parity(spectrum)
            even = [i for i, (p, _) in enumerate(labels) if p == "even"]
            odd = [i for i, (p, _) in enumerate(labels) if p == "odd"]
            picks = [even[0], odd[0], even[1], odd[1], even[2], odd[2], even[3]]
            full.append([q] + [float(spectrum.eigenvalues[i]) for i in picks])
            scale = max(scale, float(np.abs(spectrum.eigenvalues).max()))
        assert [[v.hex() for v in row] for row in table.rows] == [
            [v.hex() for v in row] for row in expected
        ]
        # both solvers are backward stable: a level moves by a few eps times
        # the largest one (measured: up to 1.9e-15 of it over these spectra)
        assert np.abs(np.array(table.rows) - np.array(full)).max() <= 1e-14 * scale


def _sweep_cfg(alpha, N, q_max=20.0, steps=12):
    return build_job_config(
        {"mode": "q-sweep", "potential": "mathieu(0)", "alpha": str(alpha), "N": str(N),
         "q_min": "0", "q_max": str(q_max), "q_steps": str(steps)}
    )


def _record_spectra(monkeypatch):
    """(Hamiltonian, spectrum) of every step the q-sweep solves, in step order."""
    solved = []

    def keep(H, vectors=True):
        solved.append((H, eigendecompose(H, vectors)))
        return solved[-1][1]

    monkeypatch.setattr(jobs, "eigendecompose", keep)
    return solved


class TestQSweepInModes:
    def test_no_step_forms_grid_vectors(self, monkeypatch):
        solved = _record_spectra(monkeypatch)
        run_q_sweep(_sweep_cfg(1.5, 20))
        assert len(solved) == 12
        assert all(s.blocks[0].vectors is None for _, s in solved)
        assert all("eigenvectors" not in vars(s) for _, s in solved)

    @pytest.mark.parametrize("N", [20, 200])
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_mode_overlaps_equal_grid_overlaps(self, monkeypatch, alpha, N):
        # every step shares the orthogonal S, so the overlap of two block
        # states is that of their grid vectors
        solved = _record_spectra(monkeypatch)
        run_q_sweep(_sweep_cfg(alpha, N))
        worst = 0.0
        for (H0, _), (H1, _) in zip(solved, solved[1:]):
            full0, full1 = eigendecompose(H0), eigendecompose(H1)
            picks0, picks1 = jobs._mathieu_picks(full0), jobs._mathieu_picks(full1)
            for b, labels in enumerate(jobs._BLOCK_LABELS):
                Y0, Y1 = block_vectors(H0, b), block_vectors(H1, b)
                for r, label in enumerate(labels):
                    modal = abs(float(Y1[:, r] @ Y0[:, r]))
                    i, j = picks1[label], picks0[label]
                    grid = abs(float(full1.eigenvectors[:, i] @ full0.eigenvectors[:, j]))
                    worst = max(worst, abs(modal - grid))
        assert worst <= 1e-13

    def test_forced_continuity_loss_is_reported(self):
        # N = 60, q = 0 -> 200 in three steps of 66.7: each branch but b1
        # jumps to another state, and the gap bound cannot hide it
        table = run_q_sweep(_sweep_cfg(1.5, 60, q_max=200.0, steps=4))
        warnings = table.metadata["warnings"].split("; ")
        lost = [w.split(" (overlap ")[0] for w in warnings]
        assert lost == [
            f"branch {label} lost continuity at q = 66.6667"
            for label in ("a0", "a1", "b2", "a2", "b3", "a3")
        ]
        assert all(float(w.split(" (overlap ")[1].rstrip(")")) < 0.5 for w in warnings)

    def test_smooth_sweep_has_no_warnings(self):
        assert "warnings" not in run_q_sweep(_sweep_cfg(1.5, 20)).metadata

    def test_too_few_states_is_a_numerical_error(self):
        # N = 2: the even block holds 3 states, and a3 needs a fourth
        with pytest.raises(NumericalError, match="not enough even states to label a3 .3 at N = 2."):
            run_q_sweep(_sweep_cfg(1.5, 2, q_max=1.0, steps=3))


class TestSpectrumRows:
    @pytest.mark.parametrize(
        "basis, L, potential",
        [
            ("dirichlet", "pms", "x^2"),
            ("neumann", "pms", "x^2"),
            ("antiperiodic", "pms", "x^2"),
            ("periodic", "3", "x^2"),
            ("dirichlet", "4", "5*x"),  # uneven: some states are mixed
        ],
    )
    def test_rows_match_public_route(self, basis, L, potential):
        # the job labels its spectrum with the same bits as assembling,
        # solving and classifying through the public functions
        table = run_spectrum(
            build_job_config(
                {"mode": "spectrum", "basis": basis, "alpha": "1.5", "N": "12",
                 "L": L, "potential": potential, "n_states": "100"}
            )
        )
        spec = HamiltonianSpec(alpha=1.5, potential=parse(potential), kind=BasisKind(basis), N=12)
        L_used = find_pms_length(spec).L_pms if L == "pms" else float(L)
        spectrum = eigendecompose(assemble(spec, L_used))
        before = {name: np.copy(getattr(spectrum, name)) for name in ("eigenvalues", "eigenvectors")}
        labels = classify_parity(spectrum)
        for name, value in before.items():
            np.testing.assert_array_equal(getattr(spectrum, name), value)
        expected = [
            [n, float(e).hex(), "", parity, period or ""]
            for n, (e, (parity, period)) in enumerate(zip(spectrum.eigenvalues, labels))
        ]
        assert [[n, e.hex(), w, p, t] for n, e, w, p, t in table.rows] == expected
        assert ("mixed" in [p for p, _ in labels]) == (potential == "5*x")


class TestCliRun:
    def test_spectrum_csv_schema(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, SPECTRUM_CFG)
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        text = (out / "spectrum.csv").read_text()
        lines = text.splitlines()
        meta = [l for l in lines if l.startswith("# ")]
        body = [l for l in lines if not l.startswith("#")]
        assert any(l.startswith("# alpha = 2") for l in meta)
        assert any(l.startswith("# basis = periodic") for l in meta)
        assert body[0] == "n,energy,wkb_energy,parity,period"
        assert len(body) == 5
        first = body[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(-0.45513860410741355, abs=1e-9)
        assert first[3] in ("even", "odd", "mixed")

    def test_json_format(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, SPECTRUM_CFG)
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["run", "--config", cfg, "--set", "format=json", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "spectrum.json").read_text())
        assert payload["columns"][0] == "n"
        # numbers are serialized as decimal strings
        assert isinstance(payload["rows"][0][1], str)
        assert float(payload["rows"][0][1]) == pytest.approx(-0.455138604107414, abs=1e-9)

    def test_deterministic_output(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, SPECTRUM_CFG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(main, ["run", "--config", cfg, "--out", str(out)])
            assert result.exit_code == 0
            outs.append((out / "spectrum.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_set_override(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, SPECTRUM_CFG)
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["run", "--config", cfg, "--set", "n_states=2", "--out", str(out)]
        )
        assert result.exit_code == 0
        body = [
            l
            for l in (out / "spectrum.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert len(body) == 3  # header + two states

    def test_periodic_expression_at_L_pi_matches_mathieu_preset(self, runner, tmp_path):
        # 2*cos(2*x) parses to the preset's own tree, so the energies agree byte for byte
        energies = []
        for name, text in [
            ("preset", "potential = mathieu(1)\n"),
            ("expr", "potential = 2*cos(2*x)\nbasis = periodic\nL = pi\n"),
        ]:
            cfg = _write_cfg(tmp_path, "mode = spectrum\nalpha = 1.5\nN = 20\n" + text, f"{name}.cfg")
            result = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path / name)])
            assert result.exit_code == 0, result.output
            body = (tmp_path / name / "spectrum.csv").read_text().splitlines()
            energies.append([line.split(",")[1] for line in body if not line.startswith("#")])
        assert energies[0] == energies[1]
        assert len(energies[0]) == 5  # header + n_states rows

    def test_config_error_exit_code(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, "mode = bogus\nalpha = 1\nN = 5\n")
        result = runner.invoke(main, ["run", "--config", cfg])
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "base, override",
        [
            ("spectrum", "n_states=inf"),
            ("spectrum", "n_states=nan"),
            ("spectrum", "n_states=2.7"),
            ("q-sweep", "q_steps=inf"),
            ("spectrum", "alpha=-1"),
            ("spectrum", "alpha=nan"),
            ("spectrum", "D=0"),
            ("spectrum", "N=1"),
            ("spectrum", "L=inf"),
            ("evolve", "times=0,nan"),
            ("evolve", "times=inf"),
        ],
    )
    def test_out_of_domain_value_exit_code(self, runner, tmp_path, base, override):
        text = {
            "spectrum": "mode = spectrum\npotential = x^2\nalpha = 1.5\nN = 8\n",
            "q-sweep": "mode = q-sweep\npotential = mathieu(1)\nalpha = 1.5\nN = 8\nq_max = 2\nq_steps = 3\n",
            "evolve": "mode = evolve\npotential = x^2\nalpha = 1.5\nN = 8\nL = 5\npsi0 = exp(-x^2)\ntimes = 0\n",
        }[base]
        cfg = _write_cfg(tmp_path, text)
        result = runner.invoke(main, ["run", "--config", cfg, "--set", override, "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "config error:" in result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("text, override", [
        (SPECTRUM_CFG + "n_state = 2\nfromat = json\n", ()),
        (SPECTRUM_CFG, ("--set", "n_state=2")),
    ])
    def test_unknown_key_exit_code(self, runner, tmp_path, text, override):
        cfg = _write_cfg(tmp_path, text)
        result = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path), *override])
        assert result.exit_code == 1
        assert "config error: unknown key 'n_state' (closest known key: 'n_states')" in result.output
        assert not list(tmp_path.rglob("*.csv")) and not list(tmp_path.rglob("*.json"))

    def test_bad_set_exit_code(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, SPECTRUM_CFG)
        result = runner.invoke(main, ["run", "--config", cfg, "--set", "oops"])
        assert result.exit_code == 1

    def test_bad_potential_expression_exit_code(self, runner, tmp_path):
        cfg = _write_cfg(
            tmp_path, "mode = spectrum\nalpha = 1.5\nN = 8\npotential = x +\nL = 5\n"
        )
        result = runner.invoke(main, ["run", "--config", cfg])
        assert result.exit_code == 1

    def test_unbounded_below_potential_exit_code(self, runner, tmp_path):
        # the box-size search widens its bracket while the trace falls; an
        # unbounded-below potential never stops falling: a config error
        cfg = _write_cfg(
            tmp_path,
            "mode = spectrum\nalpha = 1.5\nN = 8\npotential = -x^2\n",
        )
        result = runner.invoke(main, ["run", "--config", cfg])
        assert result.exit_code == 1
        assert "upper limit" in result.output and "unbounded below" in result.output
        assert "D * hbar^alpha" not in result.output

    def test_tiny_kinetic_prefactor_names_it(self, runner, tmp_path):
        # at hbar = 1e-100 the trace minimum lies near L = 8e-43, far below the
        # lower limit of the box-size search: the message names D * hbar^alpha
        cfg = _write_cfg(
            tmp_path,
            "mode = spectrum\nalpha = 1.5\nN = 20\nhbar = 1e-100\npotential = x^2\nL = pms\n",
        )
        result = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "lower limit" in result.output
        assert "D * hbar^alpha = 1e-150" in result.output and "rescale the units" in result.output
        assert "unbounded below" not in result.output
        assert not (tmp_path / "spectrum.csv").exists()

    def test_too_many_q_steps_exit_code(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(jobs, "assemble_sweep", None)  # a started sweep would fail here
        cfg = _write_cfg(
            tmp_path, "mode = q-sweep\npotential = mathieu(1)\nalpha = 1.5\nN = 8\nq_max = 2\n"
            "q_steps = 100000000\n",
        )
        result = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "config error: q_steps must be between 2 and 10000" in result.output
        assert "Traceback" not in result.output

    def test_memory_preflight_exit_code(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(config, "_physical_memory", lambda: 2**30)
        cfg = _write_cfg(tmp_path, "mode = spectrum\nalpha = 1.5\nN = 1000000\nL = 5\n")
        result = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "config error: N = 1000000 needs about" in result.output
        assert "Traceback" not in result.output

    def test_overflowing_kinetic_term_exit_code(self, runner, tmp_path):
        # (n pi / 2)^200 overflows double precision: a numerical failure,
        # not a table of nan energies
        cfg = _write_cfg(
            tmp_path,
            "mode = spectrum\nalpha = 200\nN = 20\nL = 1\npotential = x^2\n",
        )
        result = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert not (tmp_path / "spectrum.csv").exists()

    def test_tiny_box_overflow_names_the_box(self, runner, tmp_path):
        # (n pi / 2L)^1.5 overflows at L = 1e-300: the message blames the
        # box size, not alpha or N
        cfg = _write_cfg(
            tmp_path,
            "mode = spectrum\nalpha = 1.5\nN = 8\nL = 1e-300\npotential = x^2\n",
        )
        result = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "L = 1e-300" in result.output
        assert "larger L" in result.output
        assert not (tmp_path / "spectrum.csv").exists()

    def test_overflow_emits_no_runtime_warning(self):
        # the overflow is reported once, as a NumericalError, not preceded
        # by numpy RuntimeWarnings
        import warnings

        from fraclap import NumericalError
        from fraclap.jobs import run_job

        cfg = _cfg(alpha="200", N="20", L="1", potential="x^2")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError):
                run_job(cfg)

    def test_convergence_table(self, runner, tmp_path):
        cfg = _write_cfg(
            tmp_path,
            "mode = convergence\npotential = mathieu(1)\nalpha = 1\nN = 10, 20\nn_states = 1\n",
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        body = [
            l
            for l in (out / "convergence.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert body[0] == "N,L_used,e0"
        assert float(body[1].split(",")[2]) == pytest.approx(-0.7800201074990995, abs=1e-10)
        assert float(body[2].split(",")[2]) == pytest.approx(-0.7800201067971547, abs=1e-10)

    def test_pms_scan_table(self, runner, tmp_path):
        cfg = _write_cfg(
            tmp_path,
            "mode = pms-scan\npotential = oscillator(2)\nalpha = 1.5\nN = 10\n",
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        text = (out / "pms_scan.csv").read_text()
        meta = dict(
            l[2:].split(" = ", 1) for l in text.splitlines() if l.startswith("# ")
        )
        assert float(meta["L_pms"]) == pytest.approx(4.366, abs=0.05)
        assert meta["converged"] == "true"

    def test_evolve_tables(self, runner, tmp_path):
        cfg = _write_cfg(
            tmp_path,
            "mode = evolve\npotential = oscillator(2)\nalpha = 2\nN = 15\nL = 6\n"
            "psi0 = exp(-x^2)\ntimes = 0, 0.5\n",
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "evolve_t0.csv").exists()
        assert (out / "evolve_t0.5.csv").exists()
        body = [
            l
            for l in (out / "evolve_t0.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert body[0] == "x,re,im,abs2"
        # at t = 0 the propagated samples are the initial data
        x, re, im, abs2 = (float(v) for v in body[1].split(","))
        assert re == pytest.approx(math.exp(-x * x), abs=1e-9)
        assert im == pytest.approx(0.0, abs=1e-9)

    def test_non_finite_psi0_exit_code(self, runner, tmp_path):
        # exp(x + 700) is finite on the grid, its square is not: a config
        # error naming the first grid point, and no table of nan rows
        cfg = _write_cfg(
            tmp_path,
            "mode = evolve\npotential = oscillator(2)\nalpha = 2\nN = 15\nL = 8\n"
            "psi0 = exp(x+700)*exp(x+700)\ntimes = 0, 0.5\n",
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert "psi0 is not finite" in result.output
        assert f"x = {-8.0 * 14 / 15!r}" in result.output
        assert not list(tmp_path.rglob("*.csv"))

    def test_q_sweep_table(self, runner, tmp_path):
        cfg = _write_cfg(
            tmp_path,
            "mode = q-sweep\npotential = mathieu(0)\nalpha = 2\nN = 15\n"
            "q_min = 0\nq_max = 2\nq_steps = 3\n",
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        body = [
            l for l in (out / "sweep.csv").read_text().splitlines() if not l.startswith("#")
        ]
        assert body[0] == "q,a0,b1,a1,b2,a2,b3,a3"
        # q = 0 row: a0 = 0, b1 = a1 = 1, b2 = a2 = 4
        row0 = [float(v) for v in body[1].split(",")]
        assert row0[1] == pytest.approx(0.0, abs=1e-10)
        assert row0[2] == pytest.approx(1.0, abs=1e-10)
        assert row0[3] == pytest.approx(1.0, abs=1e-10)
        assert row0[4] == pytest.approx(4.0, abs=1e-10)
        # q = 2 row must bracket the q = 0 degeneracies apart
        row2 = [float(v) for v in body[3].split(",")]
        assert row2[2] < row2[3]

    def test_q_sweep_strong_coupling_matches_scipy(self, runner, tmp_path):
        # at q = 20 a0 and b1 lie 3.9e-6 apart; each must carry its own value
        from scipy import special

        cfg = _write_cfg(
            tmp_path,
            "mode = q-sweep\npotential = mathieu(0)\nalpha = 2\nN = 200\n"
            "q_min = 0\nq_max = 20\nq_steps = 3\n",
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        body = [
            l for l in (out / "sweep.csv").read_text().splitlines() if not l.startswith("#")
        ]
        q, a0, b1 = (float(v) for v in body[3].split(",")[:3])
        assert q == 20.0
        assert a0 < b1
        assert a0 == pytest.approx(special.mathieu_a(0, 20.0), abs=1e-10)
        assert b1 == pytest.approx(special.mathieu_b(1, 20.0), abs=1e-10)

    def test_wkb_compare_metadata(self, runner, tmp_path):
        cfg = _write_cfg(
            tmp_path,
            "mode = wkb-compare\npotential = oscillator(2)\nalpha = 2\nN = 15\nn_states = 5\n",
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        text = (out / "wkb_compare.csv").read_text()
        meta = dict(
            l[2:].split(" = ", 1) for l in text.splitlines() if l.startswith("# ")
        )
        assert float(meta["fit_slope"]) == pytest.approx(2.0, abs=1e-4)
        assert float(meta["fit_intercept"]) == pytest.approx(1.0, abs=1e-4)
        assert float(meta["wkb_slope"]) == pytest.approx(2.0, abs=1e-10)


class TestCliCheck:
    def test_check_passes(self, runner):
        result = runner.invoke(main, ["check"])
        assert result.exit_code == 0, result.output
        lines = [l for l in result.output.splitlines() if l]
        assert len(lines) >= 6
        assert all(l.startswith("PASS") for l in lines)
