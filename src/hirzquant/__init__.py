"""Exact lattice-point quantization counts for toric projective families.

The package builds the moment polytopes of scaled projective spaces and of
twisted projective-line bundles over CP^d, counts their lattice points by
independent routes (row-bounded brute-force scan, per-slice simplex sums, closed
forms), and verifies the recurrence, volume, and Bernoulli-density asymptotics
of the count function with exact integer and rational arithmetic throughout.
"""

from .analysis import (
    AsymptoticSeries,
    BernoulliConvention,
    ConvergencePoint,
    ExactRational,
    RecurrenceReport,
    asymptotic_series,
    bernoulli,
    finite_difference,
    ratio_convergence,
    recurrence_residual,
    symplectic_volume,
)
from .combinat import binomial
from .counting import (
    CountMethod,
    CountResult,
    MonomialBasis,
    brute_force_slice_counts,
    count_brute_force,
    count_simplex_closed_form,
    count_slice_sum,
    monomial_basis,
)
from .polytope import (
    FibrationParams,
    HPolytope,
    LatticePoint,
    SimplexParams,
    UnboundedPolytopeError,
    VertexSet,
    bounding_box,
    box_cell_count,
    build_hirzebruch_polytope,
    build_simplex,
    contains,
    dilate,
    slice_simplex,
    vertices,
)
from .quantization import (
    IdentityName,
    IdentityReport,
    QuantizationRecord,
    blowup_count_formula,
    blowup_decomposition,
    hirzebruch_surface_closed_form,
    quantization_dimension,
    untwisted_product_formula,
)
from .sweep import SweepSpec, render_sweep
from .verify import ScanBudget, VerifyReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "AsymptoticSeries",
    "BernoulliConvention",
    "ConvergencePoint",
    "CountMethod",
    "CountResult",
    "ExactRational",
    "FibrationParams",
    "HPolytope",
    "IdentityName",
    "IdentityReport",
    "LatticePoint",
    "MonomialBasis",
    "QuantizationRecord",
    "RecurrenceReport",
    "ScanBudget",
    "SimplexParams",
    "SweepSpec",
    "UnboundedPolytopeError",
    "VerifyReport",
    "VertexSet",
    "asymptotic_series",
    "bernoulli",
    "binomial",
    "bounding_box",
    "box_cell_count",
    "brute_force_slice_counts",
    "build_hirzebruch_polytope",
    "build_simplex",
    "blowup_count_formula",
    "blowup_decomposition",
    "contains",
    "count_brute_force",
    "count_simplex_closed_form",
    "count_slice_sum",
    "dilate",
    "finite_difference",
    "hirzebruch_surface_closed_form",
    "monomial_basis",
    "quantization_dimension",
    "ratio_convergence",
    "recurrence_residual",
    "render_sweep",
    "run_verification",
    "slice_simplex",
    "symplectic_volume",
    "untwisted_product_formula",
    "vertices",
]
