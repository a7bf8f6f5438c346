"""Tests of the benchmark's own machinery: job generation, gates, tracing, output."""

import json
import shutil
import subprocess
import sys
import time

import pytest

import checkout
import run
import tracing
import workloads
from fraclap.config import build_job_config
from fraclap.jobs import run_job, write_tables

WORKLOADS = list(workloads.CYCLE)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_generation_is_deterministic_per_seed(workload):
    first = [workloads.make_job(workload, 7, i) for i in range(8)]
    again = [workloads.make_job(workload, 7, i) for i in reversed(range(8))][::-1]
    other = [workloads.make_job(workload, 8, i) for i in range(8)]
    assert first == again
    assert [j.pairs for j in first] != [j.pairs for j in other]
    for job in first:
        assert all(isinstance(v, str) for v in job.pairs.values())
        build_job_config(job.pairs)  # fraclap accepts every generated config
        for name, draw in workloads.DRAWS[workload].items():
            assert draw.low <= job.params[name] <= draw.high


def test_pms_spectrum_rotates_kinds_and_potentials():
    jobs = [workloads.make_job("pms-spectrum", 3, i) for i in range(1, 7)]
    combos = {(j.pairs["basis"], j.pairs["potential"].startswith("oscillator")) for j in jobs}
    assert len(combos) == workloads.CYCLE["pms-spectrum"]


def _files_of(job, directory):
    cfg = build_job_config(job.pairs)
    paths = write_tables(run_job(cfg), directory, cfg.out_format)
    return {p.name: p.read_text() for p in paths}


def _parsed(files):
    return {name: workloads.parse_csv(text) for name, text in files.items()}


def _nudge_value(text, line_no, column, delta):
    """Add delta to one number of a CSV line, counted after the '#' header lines."""
    lines = text.splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    cells = lines[body[line_no]].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[body[line_no]] = ",".join(cells)
    return "\n".join(lines) + "\n"


# (workload, job index, file, data row, column) of one output eigenvalue or sample
PERTURBATIONS = [
    ("pms-spectrum", 2, "spectrum.csv", 0, 1),  # antiperiodic ground level
    ("mathieu-sweep", 1, "sweep.csv", 0, 3),  # a1 at q = 0
    ("mathieu-sweep", 1, "sweep.csv", 11, 2),  # b1 at q = q_max
    ("evolve-full", 1, "evolve_t0.csv", 500, 1),  # Re psi(t = 0)
]


@pytest.mark.parametrize("workload,index,name,row,column", PERTURBATIONS)
def test_gate_catches_a_perturbed_value(tmp_path, workload, index, name, row, column):
    job = workloads.make_job(workload, 11, index)
    files = _files_of(job, tmp_path)
    assert workloads.check(job, _parsed(files)) == []
    files[name] = _nudge_value(files[name], row + 1, column, 1e-9)
    assert workloads.check(job, _parsed(files)) != []


def test_gate_reports_a_missing_file():
    job = workloads.make_job("evolve-full", 1, 1)
    assert workloads.check(job, {}) != []


def test_self_time_excludes_children_and_leaf_calls():
    tracer = tracing.Tracer()
    tracer.job = "a"
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.02)
        tracer.leaf(0.005)
    inner, outer = tracer.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    expected = outer["end"] - outer["start"] - (inner["end"] - inner["start"]) - 0.005
    assert outer["self_s"] == pytest.approx(expected, abs=1e-9)
    assert tracer.leaf_s["a"] == 0.005


def test_instrumentation_restores_fraclap():
    from fraclap import hamiltonian, jobs, potential

    before = (jobs.assemble, hamiltonian.make_grid, potential.PotentialExpr.evaluate)
    with tracing.instrumented(tracing.Tracer()) as tracer:
        assert jobs.assemble is not before[0]
    assert (jobs.assemble, hamiltonian.make_grid, potential.PotentialExpr.evaluate) == before
    assert tracer.missing == []


def test_metric_tables_match_benchmark_json():
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS


def _bench(*args, cwd=checkout.ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace,table", [("0", run.END_TO_END), ("1", run.PER_LAYER)])
def test_printed_metrics_match_benchmark_json(trace, table):
    proc = _bench("--workload", "evolve-full", "--seed", "5", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, (unit, _) in table.items()
    }


def test_refuses_a_checkout_without_source(tmp_path):
    shutil.copytree(checkout.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "evolve-full", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
