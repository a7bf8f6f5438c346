"""Flat key = value job configuration.

One ``key = value`` per line, no sections; blank lines and lines starting
with '#' are ignored.  Values stay strings until ``JobConfig`` interprets
them, so command-line overrides can be applied uniformly.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

from .basis import BasisKind
from .errors import ConfigError

MODES = ("spectrum", "convergence", "pms-scan", "q-sweep", "evolve", "wkb-compare")
# Every key that ``build_job_config`` reads, in any mode.
KEYS = (
    "mode", "basis", "potential", "alpha", "D", "hbar", "N", "L", "n_states",
    "q_min", "q_max", "q_steps", "psi0", "times", "format",
)

_PRESET_RE = re.compile(r"^(oscillator|mathieu)\(([^()]*)\)$")

# Peak memory of one job in dense dim x dim float64 matrices (dim = 2N + 1).
# The largest measured peak is an uneven-V spectrum job's: 6.8 of them in
# RSS growth at N = 1000 (4.5 under tracemalloc, which misses the LAPACK
# workspace); an even-V spectrum job peaks at 2.6, an evolve job at 2.2.
_PEAK_MATRICES = 7
# Most q steps a sweep may take: one solve each, about 5 ms at N = 200.
_MAX_Q_STEPS = 10_000


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(N: int) -> None:
    """Refuse an N whose job would need more than the physical memory."""
    limit = _physical_memory()
    dim = 2 * N + 1
    estimate = _PEAK_MATRICES * dim * dim * 8
    if limit is not None and estimate > limit:
        gib = estimate / 2**30 if estimate < 2**1000 else math.inf  # an int past float range
        raise ConfigError(
            f"N = {N} needs about {gib:.3g} GiB ({_PEAK_MATRICES} dense "
            f"{dim} x {dim} matrices), more than the {limit / 2**30:.3g} GiB of "
            "physical memory; use a smaller N"
        )


def parse_config_text(text: str) -> dict[str, str]:
    """Key/value pairs from config text; later keys override earlier ones."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        pairs[key] = value
    return pairs


@dataclass(frozen=True)
class Preset:
    """A built-in potential: oscillator(beta), mathieu(q) or free."""

    name: str  # 'oscillator' | 'mathieu' | 'free'
    parameter: float = 0.0


def _parse_potential(text: str):
    """Either a Preset or the raw expression text."""
    text = text.strip()
    if text == "free":
        return Preset("free")
    m = _PRESET_RE.match(text)
    if m:
        name, arg = m.group(1), m.group(2).strip()
        try:
            value = float(arg)
        except ValueError:
            raise ConfigError(f"preset {name}() needs a numeric argument, got {arg!r}")
        if name == "oscillator" and value <= 0:
            raise ConfigError(f"oscillator exponent must be positive, got {value!r}")
        return Preset(name, value)
    return text


def _check_keys(pairs) -> None:
    """Refuse a key that no mode reads, naming the closest known one."""
    for key in pairs:
        if key not in KEYS:
            import difflib  # on the error path only: it adds ~0.2 MB to every job process
            by_case = {k.lower(): k for k in KEYS}
            closest = by_case[difflib.get_close_matches(key.lower(), by_case, n=1, cutoff=0.0)[0]]
            raise ConfigError(
                f"unknown key {key!r} (closest known key: {closest!r}); "
                f"the keys are {', '.join(KEYS)}"
            )


def evolve_table_name(t: float) -> str:
    """File stem of the evolve table at time t."""
    return f"evolve_t{t:g}"


def _parse_number(pairs, key, default=None, cast=float):
    if key not in pairs:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return cast(pairs[key])
    except ValueError:
        what = "an integer" if cast is int else "a number"
        raise ConfigError(f"key {key!r}: expected {what}, got {pairs[key]!r}")


def _parse_list(text: str, key: str, cast) -> list:
    try:
        return [cast(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        what = "integers" if cast is int else "numbers"
        raise ConfigError(f"key {key!r}: expected {what}, got {text!r}")


@dataclass(frozen=True)
class JobConfig:
    """A fully validated batch job."""

    mode: str
    basis: BasisKind
    alpha: float
    d_alpha: float
    hbar: float
    potential: object  # Preset or expression text
    n_list: tuple[int, ...]
    L: float | None  # None means PMS-optimized
    n_states: int
    sweep: tuple[float, float, int] | None
    psi0: str | None
    times: tuple[float, ...]
    out_format: str

    @property
    def N(self) -> int:
        return self.n_list[0]

    @property
    def is_oscillator(self) -> bool:
        return isinstance(self.potential, Preset) and self.potential.name == "oscillator"


def build_job_config(pairs: dict[str, str]) -> JobConfig:
    """Validate raw key/value pairs into a JobConfig."""
    _check_keys(pairs)
    mode = pairs.get("mode", "").strip()
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {', '.join(MODES)}; got {mode!r}")
    out_format = pairs.get("format", "csv").strip().lower()
    if out_format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {out_format!r}")

    potential = _parse_potential(pairs.get("potential", "free"))
    is_mathieu = isinstance(potential, Preset) and potential.name == "mathieu"

    basis_text = pairs.get("basis", "").strip().lower()
    if basis_text:
        try:
            basis = BasisKind(basis_text)
        except ValueError:
            raise ConfigError(f"unknown basis {basis_text!r}")
    elif is_mathieu:
        basis = BasisKind.PERIODIC
    else:
        basis = BasisKind.DIRICHLET

    alpha = _parse_number(pairs, "alpha")
    d_alpha = _parse_number(pairs, "D", 1.0)
    hbar = _parse_number(pairs, "hbar", 1.0)

    if "N" not in pairs:
        raise ConfigError("missing required key 'N'")
    n_list = tuple(_parse_list(pairs["N"], "N", int))
    if not n_list:
        raise ConfigError("key 'N': empty list")
    if mode == "convergence" and len(n_list) < 2:
        raise ConfigError("convergence mode needs a list of at least two N values")
    if mode != "convergence" and len(n_list) != 1:
        raise ConfigError(f"mode {mode!r} takes a single N value")
    _check_memory(max(n_list))

    L_text = pairs.get("L", "").strip().lower()
    if is_mathieu and L_text == "pms":
        raise ConfigError("the mathieu preset fixes L = pi; L = pms is not allowed")
    if L_text == "pi" or (is_mathieu and not L_text):
        # the mathieu box is pinned to the potential period
        L = math.pi
    elif L_text in ("", "pms"):
        if basis == BasisKind.PERIODIC:
            raise ConfigError("periodic problems fix L by the potential period; give L explicitly")
        L = None
    else:
        L = _parse_number(pairs, "L")
        if L <= 0:
            raise ConfigError(f"L must be positive, got {L!r}")

    n_states = _parse_number(pairs, "n_states", 4, int)
    if n_states < 1:
        raise ConfigError(f"n_states must be >= 1, got {n_states}")

    sweep = None
    if mode == "q-sweep":
        if not is_mathieu:
            raise ConfigError("q-sweep mode needs potential = mathieu(q)")
        q_min = _parse_number(pairs, "q_min", 0.0)
        q_max = _parse_number(pairs, "q_max")
        steps = _parse_number(pairs, "q_steps", cast=int)
        if not 2 <= steps <= _MAX_Q_STEPS:
            raise ConfigError(f"q_steps must be between 2 and {_MAX_Q_STEPS}, got {steps}")
        if not q_min < q_max:
            raise ConfigError(f"need q_min < q_max, got {q_min!r} >= {q_max!r}")
        sweep = (q_min, q_max, steps)

    psi0 = None
    times: tuple[float, ...] = ()
    if mode == "evolve":
        if basis != BasisKind.DIRICHLET:
            raise ConfigError("evolve mode needs the dirichlet basis")
        psi0 = pairs.get("psi0", "").strip()
        if not psi0:
            raise ConfigError("evolve mode needs a psi0 expression")
        if "times" not in pairs:
            raise ConfigError("evolve mode needs a times list")
        times = tuple(_parse_list(pairs["times"], "times", float))
        if not times:
            raise ConfigError("key 'times': empty list")
        if not all(math.isfinite(t) for t in times):
            raise ConfigError(f"key 'times': every time must be finite, got {pairs['times']!r}")
        written = {}
        for t in times:
            name = evolve_table_name(t)
            if name in written:
                raise ConfigError(
                    f"key 'times': t = {written[name]!r} and t = {t!r} would both write "
                    f"{name}.{out_format}; give times that differ in their first 6 "
                    "significant digits"
                )
            written[name] = t

    if mode == "wkb-compare" and not (
        isinstance(potential, Preset) and potential.name == "oscillator"
    ):
        raise ConfigError("wkb-compare mode needs potential = oscillator(beta)")

    return JobConfig(
        mode=mode,
        basis=basis,
        alpha=alpha,
        d_alpha=d_alpha,
        hbar=hbar,
        potential=potential,
        n_list=n_list,
        L=L,
        n_states=n_states,
        sweep=sweep,
        psi0=psi0,
        times=times,
        out_format=out_format,
    )
