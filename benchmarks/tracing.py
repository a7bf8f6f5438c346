"""In-memory spans around the calls that fraclap's job runners make into its layers.

Nothing in fraclap is edited: ``instrumented`` swaps the names that
``fraclap.jobs`` (and ``fraclap.hamiltonian``) look up at call time for
wrappers that open a span, and puts the originals back on exit.  A span is
(id, name, start, end, parent, job, self_s); self time is the span's length
minus the time of its child spans and of the untraced leaf calls inside it.

Potential evaluations run tens of thousands of times per job, so they are
not spans: each call adds its time to a per-job total and to the enclosing
span's child time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

LEAF = "potential.eval"


class _Frame:
    __slots__ = ("id", "name", "child")

    def __init__(self, span_id: int, name: str):
        self.id, self.name, self.child = span_id, name, 0.0


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.leaf_s: Counter = Counter()  # job id -> seconds in leaf calls
        self.job = None  # id stamped on every span until changed
        self.missing: list[str] = []  # targets that no longer exist, left untraced
        self._open: list[_Frame] = []
        self._started = 0
        self._t0 = time.perf_counter()

    def innermost(self) -> str | None:
        return self._open[-1].name if self._open else None

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        frame = _Frame(self._started, name)
        self._started += 1
        self._open.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                parent.child += end - start
            self.spans.append(
                {
                    "id": frame.id,
                    "name": name,
                    "start": start - self._t0,
                    "end": end - self._t0,
                    "parent": parent.id if parent is not None else None,
                    "job": self.job,
                    "self_s": end - start - frame.child,
                }
            )

    def leaf(self, seconds: float) -> None:
        self.counts[LEAF] += 1
        self.leaf_s[self.job] += seconds
        if self._open:
            self._open[-1].child += seconds


def _spanned(tracer: Tracer, name: str, after=None):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    return wrap


def _leaf(tracer: Tracer):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leaf(time.perf_counter() - start)

        return wrapper

    return wrap


def _counted_inside(tracer: Tracer, span_name: str, counter: str):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.innermost() == span_name:
                tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    return wrap


@contextmanager
def instrumented(tracer: Tracer):
    """Trace every call the job runners make into the layers while the block runs."""
    from fraclap import hamiltonian, jobs, potential

    def pms_done(result):
        tracer.counts["hamiltonian.pms_searches"] += 1
        tracer.counts["hamiltonian.pms_converged"] += bool(result.converged)

    def eigh_done(spectrum):
        tracer.counts["eigen.pairs_computed"] += len(spectrum.eigenvalues)

    targets = [
        (jobs, "find_pms_length", _spanned(tracer, "hamiltonian.pms", pms_done)),
        (jobs, "assemble", _spanned(tracer, "hamiltonian.assemble")),
        (jobs, "eigendecompose", _spanned(tracer, "eigen.eigh", eigh_done)),
        (jobs, "classify_parity", _spanned(tracer, "eigen.classify")),
        (jobs, "evolve", _spanned(tracer, "eigen.evolve")),
        (jobs, "evolution_coefficients", _spanned(tracer, "eigen.evolve")),
        # one sampling grid per trace evaluation of the box-size search
        (hamiltonian, "make_grid", _counted_inside(tracer, "hamiltonian.pms", "hamiltonian.pms_evals")),
        (potential.PotentialExpr, "evaluate", _leaf(tracer)),
    ]
    saved = []
    try:
        for owner, attr, wrap in targets:
            original = getattr(owner, attr, None)
            if original is None:
                name = f"{owner.__name__}.{attr}"
                if name not in tracer.missing:
                    tracer.missing.append(name)
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
