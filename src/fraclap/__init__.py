"""Little-sinc collocation for 1D fractional Schrodinger eigenproblems.

The Hamiltonian H = D (-hbar^2 Laplacian)^(alpha/2) + V(x) is discretized
on a bounded interval [-L, L] with cardinal sampling functions adapted to
periodic, Dirichlet, antiperiodic or Neumann boundary conditions.  The
fractional kinetic term acts as the spectral multiplier |p|^alpha.  Each
sampling set is also a set of free modes with an orthogonal real transform
to the grid samples (DST-I, DCT-II, real DFT, odd-harmonic real DFT), so the
kinetic matrix is S diag(|p_n|^alpha) S^T, its trace a sum over the modes.
Every Hamiltonian goes through one route: ``HamiltonianSpec`` -> ``assemble``
-> ``eigendecompose``, with ``find_pms_length`` for the box size.
``assemble`` returns a ``Hamiltonian`` held in those modes, with S kept as
its even and its odd half-block, always solved over those two sets of mode
columns: two independent blocks when V is even, one coupled matrix of them
otherwise.  The ``Spectrum`` keeps its states in the modes and forms grid
eigenvectors only when they are read; ``mode_coefficients`` and ``evolve``
never read them, and ``eigendecompose(H, vectors=False)`` solves for the
eigenvalues alone (on a periodic grid, with ``classes=period_classes(H)``,
as four parity x period blocks).  On the Dirichlet grid |p|^alpha is the
spectral fractional Laplacian of the box, whose exact levels are Laskin's
``exact_box_energy``.  The momentum representation of |p|^alpha + x^2 is
the same route with kinetic exponent 2 and potential |x|^alpha.

Typical use:

>>> import fraclap
>>> spec = fraclap.HamiltonianSpec(alpha=1.5, potential=lambda x: x * x,
...                                kind=fraclap.BasisKind.DIRICHLET, N=50)
>>> H = fraclap.assemble(spec, 8.518)
>>> fraclap.eigendecompose(H).eigenvalues[:3]
array([1.00269171, 2.70818149, 4.17784088])
"""

__version__ = "0.1.0"

from .basis import (
    BasisKind,
    Grid,
    SpectralCoefficients,
    coefficients,
    eval_sampling_function,
    interpolate,
    make_grid,
    parity_map,
    quadrature_weights,
)
from .eigen import (
    ModeBlock,
    Spectrum,
    block_vectors,
    classify_parity,
    eigendecompose,
    evolve,
    mode_coefficients,
    period_classes,
    reconstruct,
)
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    EvaluationError,
    FraclapError,
    MultiplierDomainError,
    NumericalError,
    ParameterError,
    ParseError,
)
from .hamiltonian import (
    Hamiltonian,
    HamiltonianSpec,
    PmsResult,
    assemble,
    find_pms_length,
)
from .operators import (
    OperatorMatrix,
    fractional_laplacian_matrix,
    fractional_multiplier,
    multiplier_matrix,
)
from .potential import PotentialExpr, parse, to_source
from .reference import (
    WkbModel,
    beta_function,
    box_eigenfunction,
    exact_box_energy,
    wkb_energy,
)

__all__ = [
    "BasisKind",
    "Grid",
    "SpectralCoefficients",
    "coefficients",
    "eval_sampling_function",
    "interpolate",
    "make_grid",
    "quadrature_weights",
    "ModeBlock",
    "Spectrum",
    "block_vectors",
    "classify_parity",
    "eigendecompose",
    "evolve",
    "mode_coefficients",
    "parity_map",
    "period_classes",
    "reconstruct",
    "FraclapError",
    "ParameterError",
    "DimensionError",
    "MultiplierDomainError",
    "ContractError",
    "NumericalError",
    "ParseError",
    "EvaluationError",
    "ConfigError",
    "Hamiltonian",
    "HamiltonianSpec",
    "PmsResult",
    "assemble",
    "find_pms_length",
    "OperatorMatrix",
    "fractional_laplacian_matrix",
    "fractional_multiplier",
    "multiplier_matrix",
    "PotentialExpr",
    "parse",
    "to_source",
    "WkbModel",
    "beta_function",
    "box_eigenfunction",
    "exact_box_energy",
    "wkb_energy",
    "__version__",
]
