"""Tests of the benchmark itself; run them with ``python -m pytest benchmarks``."""

import checkout

checkout.pin_blas_threads()
checkout.use_checkout_source()
