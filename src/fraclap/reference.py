"""Closed-form reference results: WKB levels and the exact fractional box.

These are used to validate the collocation spectra and to build comparison
tables; none of them involve the sampling bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


def beta_function(a: float, b: float) -> float:
    """Euler beta B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) for a, b > 0."""
    for name, v in (("a", a), ("b", b)):
        if not np.isfinite(v) or v <= 0:
            raise ParameterError(f"beta_function needs {name} > 0, got {v!r}")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


@dataclass(frozen=True)
class WkbModel:
    """Semiclassical model D |p|^alpha + q^2 |x|^beta."""

    alpha: float
    beta: float
    d_alpha: float = 1.0
    q: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "d_alpha", "q", "hbar"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ParameterError(f"{name} must be positive, got {v!r}")

    @property
    def exponent(self) -> float:
        """Growth exponent alpha*beta / (alpha + beta) of the level sequence."""
        return self.alpha * self.beta / (self.alpha + self.beta)

    @property
    def prefactor(self) -> float:
        inner = (
            math.pi
            * self.hbar
            * self.beta
            * self.d_alpha ** (1.0 / self.alpha)
            * self.q ** (2.0 / self.beta)
            / (2.0 * beta_function(1.0 / self.beta, 1.0 / self.alpha + 1.0))
        )
        return inner ** self.exponent


def wkb_energy(model: WkbModel, n: int) -> float:
    """Semiclassical level n = 0, 1, 2, ... of the model."""
    if n < 0:
        raise ParameterError(f"level index must be >= 0, got {n!r}")
    return model.prefactor * (n + 0.5) ** model.exponent


def exact_box_energy(alpha: float, d_alpha: float, hbar: float, a: float, n: int) -> float:
    """Exact level D (hbar n pi / 2a)**alpha of the spectral fractional Laplacian of the box.

    This is Laskin's fractional infinite well: the modes sin(n pi (x + a) / 2a)
    do not depend on alpha, so the spectrum follows from the alpha = 2 one;
    modes are counted from n = 1.  The Dirichlet basis discretizes this
    operator, and these are its exact levels.  They are not the levels of
    the whole-line |p|^alpha restricted to the well, whose modes depend on
    alpha: on (-1, 1) at alpha = 1 its lowest level is 1.1577738836977,
    against pi/2 here.
    """
    if n < 1:
        raise ParameterError(f"box modes start at n = 1, got {n!r}")
    if a <= 0:
        raise ParameterError(f"half-width must be positive, got {a!r}")
    return d_alpha * (hbar * n * math.pi / (2.0 * a)) ** alpha


def box_eigenfunction(a: float, n: int, x: float) -> float:
    """Normalized infinite-well mode sin(n pi (x + a) / 2a) / sqrt(a)."""
    if n < 1:
        raise ParameterError(f"box modes start at n = 1, got {n!r}")
    if abs(x) > a:
        raise ParameterError(f"|x| = {abs(x)!r} exceeds the half-width {a!r}")
    return math.sin(n * math.pi * (x + a) / (2.0 * a)) / math.sqrt(a)
