"""Locate the checkout the benchmark runs in and load fraclap from its source.

The benchmark always measures the ``src/fraclap`` of the checkout that holds
this directory, never an installed copy, so a checkout without the source
tree is an error rather than a silent measurement of something else.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # job outputs and trace files; removed or ignored

# One BLAS thread: the box has 2 cores shared with other tenants, and a
# single-threaded eigensolver is far less sensitive to a busy neighbour.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    pass


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is first imported."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on sys.path; fraclap is not imported yet."""
    if not (SRC / "fraclap" / "__init__.py").is_file():
        raise MissingSource(f"no fraclap source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_loaded(module) -> None:
    """Refuse a fraclap that was imported from anywhere but this checkout."""
    if Path(module.__file__).resolve().parent != SRC / "fraclap":
        raise MissingSource(f"fraclap was imported from {module.__file__}, not {SRC}")
