"""Set-up cost of a workload in a fresh process: import fraclap, then its first job.

The first job pays the cold start of the BLAS library as well as fraclap's
own imports.  run.py starts this script a few times per measured run and
reports the median; it prints one JSON line:

    python3 benchmarks/setup_probe.py --workload pms-spectrum --seed 1
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time

import checkout


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    checkout.pin_blas_threads()
    checkout.use_checkout_source()
    start = time.perf_counter()
    import fraclap
    from fraclap.config import build_job_config
    from fraclap.jobs import run_job, write_tables

    import_s = time.perf_counter() - start
    checkout.check_loaded(fraclap)

    import workloads

    job = workloads.make_job(args.workload, args.seed, 0)
    checkout.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=checkout.OUT) as out:
        start = time.perf_counter()
        cfg = build_job_config(job.pairs)
        write_tables(run_job(cfg), out, cfg.out_format)
        first_job_s = time.perf_counter() - start
    print(json.dumps({"setup_s": import_s + first_job_s, "import_s": import_s, "first_job_s": first_job_s}))


if __name__ == "__main__":
    main()
