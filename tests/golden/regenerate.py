"""Run the golden job configs and write, or print, the SHA-256 of every output file.

    python tests/golden/regenerate.py          # rewrite tests/golden/digests.json
    python tests/golden/regenerate.py --print  # print the digests as JSON, write nothing

Each config of ``jobs.json`` runs through the public job API
(``build_job_config`` -> ``run_job`` -> ``write_tables``) of this checkout's
``src/fraclap``, on one BLAS thread, since the eigensolver's rounding depends
on the thread count.  The bits also depend on the numpy and BLAS build, so
the digests are stored with the build that made them.
"""

from __future__ import annotations

import os

# before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np

from fraclap.config import build_job_config
from fraclap.jobs import run_job, write_tables

JOBS = HERE / "jobs.json"
DIGESTS = HERE / "digests.json"


def build() -> dict:
    """The numpy version, BLAS build and CPU that output bits depend on.

    The CPU features pick numpy's SIMD loops and the BLAS kernels at run
    time, so one build can round differently on another CPU.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy too old to report its build as a dict
        blas = {}
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
        "cpu_features": sorted(name for name, found in features.items() if found),
        "blas_threads": 1,
    }


def digests() -> dict:
    """{"<job>/<file>": SHA-256 hex} over every file the golden jobs write."""
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, pairs in json.loads(JOBS.read_text()).items():
            cfg = build_job_config(pairs)
            for path in write_tables(run_job(cfg), Path(tmp) / name, cfg.out_format):
                files[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return files


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--print", action="store_true", help="print the digests instead of writing them")
    args = parser.parse_args()
    text = json.dumps({"build": build(), "files": digests()}, indent=1, sort_keys=True) + "\n"
    if args.print:
        sys.stdout.write(text)
    else:
        DIGESTS.write_text(text)


if __name__ == "__main__":
    main()
