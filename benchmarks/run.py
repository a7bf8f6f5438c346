"""fraclap job benchmark: whole batch jobs through the public job API.

    python3 benchmarks/run.py --workload pms-spectrum --seed 1 --seconds 25 --trace 0

One process runs one job at a time in a closed loop (one client, no think
time): ``build_job_config`` -> ``run_job`` -> ``write_tables``, every job
writing to a directory of its own.  Job configs come from the seed
(workloads.py).  Job 0 is an untimed warm-up; jobs 1, 2, ... are timed until
they have taken ``--seconds`` of wall time and the last rotation of the
workload's job mix is complete.  The outputs are then read back and checked
by the workload's correctness gate, outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every job
twice, traced and untraced, alternating which goes first; it reports the
per-layer metrics, runs the layer probes and the PMS edge probe, and writes
the spans to ``.bench_out/``.

Standard output ends with one JSON line {correct, attempted, failed, metrics}.
A report with the environment fingerprint, sample counts, draw ranges, the
failure fraction and any failure messages is printed before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checkout

END_TO_END = {
    "jobs_per_s": ("1/s", "higher"),
    "job_s_p50": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Layers whose self time is reported as a share of traced job time.
SELF_LAYERS = (
    "jobs.run_job",
    "hamiltonian.pms",
    "hamiltonian.assemble",
    "eigen.eigh",
    "eigen.classify",
    "eigen.evolve",
    "potential.eval",
    "jobs.write",
)

PER_LAYER = {
    "jobs.job_s": ("s", "lower"),
    "hamiltonian.pms_s": ("s", "lower"),
    "hamiltonian.pms_evals": ("count", "lower"),
    "hamiltonian.pms_eval_ms": ("ms", "lower"),
    "hamiltonian.pms_converged_frac": ("fraction", "higher"),
    "hamiltonian.pms_edge_probe": ("count", "lower"),
    "hamiltonian.assemble_s": ("s", "lower"),
    "hamiltonian.assemble_calls": ("count", "lower"),
    "operators.kinetic_ms": ("ms", "lower"),
    "operators.kinetic_peak_mb": ("MB", "lower"),
    "basis.coefficients_ms": ("ms", "lower"),
    "eigen.eigh_s": ("s", "lower"),
    "eigen.eigh_calls": ("count", "lower"),
    "eigen.pairs_used_frac": ("fraction", "higher"),
    "eigen.classify_s": ("s", "lower"),
    "eigen.evolve_s": ("s", "lower"),
    "jobs.write_s": ("s", "lower"),
    "jobs.bytes_written": ("B", "lower"),
    "potential.evals": ("count", "lower"),
    "potential.eval_s": ("s", "lower"),
    "trace_overhead_frac": ("fraction", "lower"),
    **{f"self_frac.{layer}": ("fraction", "lower") for layer in SELF_LAYERS},
}

SETUP_PROBES = 3
PROBE_REPEATS = 3
# The job-time tail is the highest percentile with this many jobs beyond it.
# A run holds 7 to 28 jobs, so the tail is at most a second median, and it
# does not exist on mathieu-sweep: it is reported, not gated.
TAIL_BEYOND = 10


@dataclass
class Outcome:
    job: object  # workloads.Job
    seconds: float  # wall time
    directory: Path
    traced: bool
    error: str | None = None
    scaled: float = 0.0  # wall time at the box's nominal speed (speed.py)
    pairs_used: int = 0
    bytes_written: int = 0


def _run_one(job, directory: Path, tracer=None) -> Outcome:
    """One job, timed from run_job to the last table written."""
    from fraclap.config import build_job_config
    from fraclap.jobs import run_job, write_tables
    from tracing import instrumented

    cfg = build_job_config(job.pairs)
    start = time.perf_counter()
    try:
        if tracer is None:
            write_tables(run_job(cfg), directory, cfg.out_format)
        else:
            tracer.job = directory.name
            with instrumented(tracer), tracer.span("job"):
                with tracer.span("jobs.run_job"):
                    tables = run_job(cfg)
                with tracer.span("jobs.write"):
                    write_tables(tables, directory, cfg.out_format)
    except Exception as exc:  # a job that raises is a counted failure; the run goes on
        return Outcome(job, time.perf_counter() - start, directory, tracer is not None,
                       f"{type(exc).__name__}: {exc}")
    return Outcome(job, time.perf_counter() - start, directory, tracer is not None)


def _timed_loop(workload: str, seed: int, seconds: float, runs, calibration) -> list:
    """Jobs 1, 2, ... until they took ``seconds`` and a rotation of the mix is complete.

    ``runs(job)`` gives the runs to make of one job, as callables; the
    calibration kernel is timed between consecutive runs.
    """
    import workloads

    cycle = workloads.CYCLE[workload]
    outcomes, busy, index = [], 0.0, 1
    loop_start = time.perf_counter()
    before = calibration.seconds()
    while True:
        for run in runs(workloads.make_job(workload, seed, index)):
            outcome = run()
            after = calibration.seconds()
            outcome.scaled = outcome.seconds / calibration.factor(before, after)
            before = after
            outcomes.append(outcome)
            busy += outcome.seconds
        overdue = time.perf_counter() - loop_start > 2 * seconds
        if busy >= seconds and (index % cycle == 0 or overdue):
            return outcomes
        index += 1


def _gate(outcomes: list) -> None:
    """Read back every job's files and record the gate's verdict on the outcome."""
    import workloads

    for outcome in outcomes:
        if outcome.error is not None:
            continue
        paths = sorted(outcome.directory.glob("*.csv"))
        outcome.bytes_written = sum(p.stat().st_size for p in paths)
        try:
            tables = {p.name: workloads.parse_csv(p.read_text()) for p in paths}
        except (ValueError, IndexError) as exc:
            outcome.error = f"unreadable output: {exc}"
            continue
        errors = workloads.check(outcome.job, tables)
        if errors:
            outcome.error = "; ".join(errors)
        else:
            outcome.pairs_used = workloads.pairs_used(outcome.job, tables)


def _setup_samples(workload: str, seed: int, calibration) -> list:
    """Set-up times of fresh processes, scaled to the box's nominal speed."""
    samples = []
    before = calibration.seconds()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=checkout.ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr.strip()[-2000:]}")
        after = calibration.seconds()
        seconds = json.loads(proc.stdout.splitlines()[-1])["setup_s"]
        samples.append(seconds / calibration.factor(before, after))
        before = after
    return samples


def _job_time_metrics(times: list, correct: int) -> dict:
    times = sorted(times)
    n = len(times)
    return {
        "jobs_per_s": correct / sum(times),
        "job_s_p50": statistics.median(times),
        "job_s_tail": times[n - TAIL_BEYOND - 1] if n > TAIL_BEYOND else None,
    }


def end_to_end(outcomes: list, setup_samples: list, peak_rss_kb: int):
    """The end-to-end metrics and the sample details reported beside them.

    Job times are scaled to the box's nominal speed; the same figures from
    raw wall time are reported beside them.
    """
    n = len(outcomes)
    correct = sum(o.error is None for o in outcomes)
    metrics = _job_time_metrics([o.scaled for o in outcomes], correct)
    metrics["setup_s"] = statistics.median(setup_samples)
    metrics["peak_rss_mb"] = peak_rss_kb / 1024.0
    details = {
        "job_s_samples": n,
        "job_s_tail": metrics.pop("job_s_tail"),
        "job_s_tail_percentile": round(100.0 * (n - TAIL_BEYOND) / n, 1) if n > TAIL_BEYOND else None,
        "setup_s_samples": setup_samples,
        "wall_time": _job_time_metrics([o.seconds for o in outcomes], correct),
        "speed_factor_median": statistics.median(o.seconds / o.scaled for o in outcomes),
    }
    return metrics, details


def _layer_totals(tracer, job_ids) -> tuple[Counter, Counter, Counter]:
    """Span time, self time and span count per name over the given jobs."""
    from tracing import LEAF

    total, own, calls = Counter(), Counter(), Counter()
    for span in tracer.spans:
        if span["job"] in job_ids:
            total[span["name"]] += span["end"] - span["start"]
            own[span["name"]] += span["self_s"]
            calls[span["name"]] += 1
    own[LEAF] = sum(tracer.leaf_s[j] for j in job_ids)
    return total, own, calls


def _self_shares(tracer, job_ids) -> dict:
    total, own, _ = _layer_totals(tracer, job_ids)
    return {layer: own[layer] / total["job"] for layer in SELF_LAYERS}


def per_layer(tracer, outcomes: list, probes: dict):
    """The per-layer metrics from the traced jobs, and a per-basis-kind breakdown."""
    from tracing import LEAF

    traced = [o for o in outcomes if o.traced]
    untraced = [o for o in outcomes if not o.traced]
    ids = {o.directory.name for o in traced}
    jobs = len(traced)
    total, own, calls = _layer_totals(tracer, ids)
    c = tracer.counts
    searches, evals = c["hamiltonian.pms_searches"], c["hamiltonian.pms_evals"]
    metrics = {
        "jobs.job_s": total["job"] / jobs,
        "hamiltonian.pms_s": total["hamiltonian.pms"] / jobs,
        "hamiltonian.pms_evals": evals / searches if searches else 0.0,
        "hamiltonian.pms_eval_ms": 1e3 * total["hamiltonian.pms"] / evals if evals else 0.0,
        "hamiltonian.pms_converged_frac": c["hamiltonian.pms_converged"] / searches if searches else 0.0,
        "hamiltonian.pms_edge_probe": probes["edge_dead_ends"],
        "hamiltonian.assemble_s": total["hamiltonian.assemble"] / jobs,
        "hamiltonian.assemble_calls": calls["hamiltonian.assemble"] / jobs,
        "operators.kinetic_ms": probes["kinetic_ms"],
        "operators.kinetic_peak_mb": probes["kinetic_peak_mb"],
        "basis.coefficients_ms": probes["coefficients_ms"],
        "eigen.eigh_s": total["eigen.eigh"] / jobs,
        "eigen.eigh_calls": calls["eigen.eigh"] / jobs,
        "eigen.pairs_used_frac": (
            sum(o.pairs_used for o in traced) / c["eigen.pairs_computed"]
            if c["eigen.pairs_computed"] else 0.0
        ),
        "eigen.classify_s": total["eigen.classify"] / jobs,
        "eigen.evolve_s": total["eigen.evolve"] / jobs,
        "jobs.write_s": total["jobs.write"] / jobs,
        "jobs.bytes_written": sum(o.bytes_written for o in traced) / jobs,
        "potential.evals": c[LEAF] / jobs,
        "potential.eval_s": own[LEAF] / jobs,
        "trace_overhead_frac": (
            sum(o.scaled for o in traced) / sum(o.scaled for o in untraced) - 1.0
        ),
    }
    metrics.update({f"self_frac.{k}": v for k, v in _self_shares(tracer, ids).items()})
    by_kind = {}
    for kind in sorted({o.job.label for o in traced}):
        kind_ids = {o.directory.name for o in traced if o.job.label == kind}
        by_kind[kind] = {
            "jobs": len(kind_ids),
            "job_s": _layer_totals(tracer, kind_ids)[0]["job"] / len(kind_ids),
            "self_frac": {k: round(v, 4) for k, v in _self_shares(tracer, kind_ids).items()},
        }
    return metrics, by_kind


def _probes(job) -> dict:
    """Single-layer probes on the workload's kind, N and alpha, plus the PMS edge probe."""
    import workloads
    from fraclap import BasisKind, NumericalError, coefficients, fractional_laplacian_matrix, make_grid
    from fraclap.config import build_job_config
    from fraclap.jobs import run_job

    grid = make_grid(BasisKind(job.pairs["basis"]), int(job.pairs["N"]), 1.0)
    alpha = job.params["alpha"]
    coeff_s, kinetic_s = [], []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        coeffs = coefficients(grid)
        coeff_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        fractional_laplacian_matrix(coeffs, alpha)
        kinetic_s.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        fractional_laplacian_matrix(coeffs, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    try:
        run_job(build_job_config(workloads.EDGE_PROBE))
        dead_ends = 0
    except NumericalError:
        dead_ends = 1
    return {
        "coefficients_ms": 1e3 * statistics.median(coeff_s),
        "kinetic_ms": 1e3 * statistics.median(kinetic_s),
        "kinetic_peak_mb": peak / 2**20,
        "edge_dead_ends": dead_ends,
    }


def _git_commit() -> str | None:
    if not (checkout.ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(checkout.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def fingerprint() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((checkout.SRC / "fraclap").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": checkout.BLAS_THREADS,
        "affinity": sorted(os.sched_getaffinity(0)),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result line, report)."""
    import workloads
    from speed import Calibration
    from tracing import Tracer

    checkout.OUT.mkdir(exist_ok=True)
    calibration = Calibration(workloads.CALIBRATION[workload])
    setup = [] if trace else _setup_samples(workload, seed, calibration)
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=checkout.OUT, prefix="jobs-") as tmp:
        out = Path(tmp)
        _run_one(workloads.make_job(workload, seed, 0), out / "warmup")

        def runs(job):
            plain = lambda: _run_one(job, out / f"{job.index}u")
            if not trace:
                return [plain]
            traced = lambda: _run_one(job, out / f"{job.index}t", tracer)
            return [traced, plain] if job.index % 2 else [plain, traced]

        outcomes = _timed_loop(workload, seed, seconds, runs, calibration)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _gate(outcomes)
        if trace:
            probes = _probes(workloads.make_job(workload, seed, 0))

    failed = [o for o in outcomes if o.error is not None]
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loop": "closed: one process, one job at a time",
        "failed_frac": len(failed) / len(outcomes),
        "failures": [f"job {o.job.index}: {o.error}" for o in failed[:5]],
        "draw_ranges": {
            name: {"low": d.low, "high": d.high, "why": d.reason}
            for name, d in workloads.DRAWS[workload].items()
        },
        "fingerprint": fingerprint(),
    }
    if trace:
        metrics, report["by_kind"] = per_layer(tracer, outcomes, probes)
        report["untraced_targets"] = tracer.missing
        trace_file = checkout.OUT / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps({"report": report, "spans": tracer.spans,
                                          "leaf_s": dict(tracer.leaf_s)}) + "\n")
        report["trace_file"] = str(trace_file.relative_to(checkout.ROOT))
        units = PER_LAYER
    else:
        metrics, report["samples"] = end_to_end(outcomes, setup, peak_rss_kb)
        units = END_TO_END
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fraclap job benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout.pin_blas_threads()
    try:
        checkout.use_checkout_source()
        import fraclap

        checkout.check_loaded(fraclap)
    except checkout.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.CYCLE:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.CYCLE)}")
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
