"""Byte-identity of job outputs, checked against committed SHA-256 digests.

``tests/golden/jobs.json`` holds small jobs of every mode and basis kind,
with even and uneven potentials, CSV and JSON output, and q-sweeps on both
sides of the period-split guard (one sweep at N = 200).
``tests/golden/digests.json`` holds the digest of every file they write,
with the numpy/BLAS build that wrote them.  The jobs run in a subprocess on
one BLAS thread.  Output bits depend on the numpy/BLAS build, so on another
build the test skips and says why; it does not compare.  A change that moves
output bits on purpose regenerates the digests with
``python tests/golden/regenerate.py``, and the diff names the changed files.

The digests cover the bytes of these files only: not other N, potentials or
thread counts, and not the benchmark workloads' own jobs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fraclap.basis import BasisKind
from fraclap.config import MODES, build_job_config

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_jobs_cover_every_mode_kind_and_format():
    configs = [build_job_config(pairs) for pairs in json.loads((GOLDEN / "jobs.json").read_text()).values()]
    assert {c.mode for c in configs} == set(MODES)
    assert {c.basis for c in configs} == set(BasisKind)
    assert {c.out_format for c in configs} == {"csv", "json"}


def test_outputs_match_digests():
    want = json.loads((GOLDEN / "digests.json").read_text())
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, str(GOLDEN / "regenerate.py"), "--print"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    got = json.loads(result.stdout)
    if got["build"] != want["build"]:
        pytest.skip(
            f"output bits depend on the numpy/BLAS build: the digests were made on "
            f"{want['build']} and this is {got['build']}, so they are not compared; "
            "regenerate them on this build from a known-good commit to compare"
        )
    changed = sorted(
        name for name in want["files"].keys() | got["files"].keys()
        if want["files"].get(name) != got["files"].get(name)
    )
    assert not changed, f"{len(changed)} output files differ from tests/golden/digests.json: {changed}"
