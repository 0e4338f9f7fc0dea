"""Exact dimension counts for linear systems of hypersurfaces with fat
base points on P^2 and P^3.

The package answers one question several independent ways: does a system
of degree-d hypersurfaces with prescribed vanishing orders at general
points have the dimension naive condition counting predicts?

- syscore: system literals, virtual/expected dimension counting, residuals.
- gfprime: exact linear algebra over large prime fields (rank, nullspace).
- interp: Monte Carlo effective dimension via interpolation matrices at
  random points, with optional on-quadric point constraints.
- blowup: intersection numbers, Euler characteristics and speciality
  defects on blow-ups; Cremona reduction and (-1)-class searches.
- quadricmap: restriction of spatial systems to a smooth quadric and the
  double-cover reading of quadric curve classes as planar systems.
- pipeline/cli: a nine-check reproduction of the quadric-splitting
  counterexample, with deterministic seeded reports.
"""

from __future__ import annotations

from .blowup import (
    ChowContext,
    DivisorClass,
    EnumBounds,
    HHPrediction,
    NegCurveHit,
    canonical,
    chi_rr,
    cremona,
    cremona_reduce,
    derive_search_bounds,
    enumerate_neg_curves,
    format_class,
    genus_planar,
    hh_predict_special,
    intersect2,
    intersect3,
    is_minus_one_class,
    parse_class,
    speciality_defect,
    vdim_planar,
    vdim_rr,
)
from .gfprime import (
    DEFAULT_PRIME,
    MERSENNE61,
    ConsumedMatrixError,
    PrimeField,
    PrimeFieldMatrix,
    is_prime,
)
from .interp import (
    DegenerateConfigurationError,
    OnQuadric,
    QuadricSampleError,
    RankReport,
    VirtualBoundError,
    effective_dim,
    fixed_component_test,
    monomial_exponents,
    on_quadric,
    quadric_through,
)
from .pipeline import (
    CheckResult,
    CounterexampleReport,
    RunConfig,
    render_text,
    report_from_json,
    report_to_json,
    run_counterexample,
)
from .quadricmap import (
    QuadricSystem,
    format_quadric_system,
    parse_quadric_system,
    restrict_to_quadric,
    to_planar,
)
from .syscore import (
    FatPointSystem,
    SystemParseError,
    conditions_at_point,
    edim_expected,
    format_system,
    parse_system,
    residual,
    vdim,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # syscore
    "FatPointSystem",
    "SystemParseError",
    "conditions_at_point",
    "vdim",
    "edim_expected",
    "residual",
    "parse_system",
    "format_system",
    # gfprime
    "DEFAULT_PRIME",
    "MERSENNE61",
    "is_prime",
    "PrimeField",
    "PrimeFieldMatrix",
    "ConsumedMatrixError",
    # interp
    "RankReport",
    "OnQuadric",
    "DegenerateConfigurationError",
    "QuadricSampleError",
    "VirtualBoundError",
    "monomial_exponents",
    "effective_dim",
    "quadric_through",
    "on_quadric",
    "fixed_component_test",
    # blowup
    "DivisorClass",
    "ChowContext",
    "canonical",
    "intersect2",
    "intersect3",
    "chi_rr",
    "vdim_rr",
    "vdim_planar",
    "speciality_defect",
    "genus_planar",
    "is_minus_one_class",
    "cremona",
    "cremona_reduce",
    "EnumBounds",
    "NegCurveHit",
    "derive_search_bounds",
    "enumerate_neg_curves",
    "HHPrediction",
    "hh_predict_special",
    "parse_class",
    "format_class",
    # quadricmap
    "QuadricSystem",
    "restrict_to_quadric",
    "to_planar",
    "parse_quadric_system",
    "format_quadric_system",
    # pipeline
    "RunConfig",
    "CheckResult",
    "CounterexampleReport",
    "run_counterexample",
    "render_text",
    "report_to_json",
    "report_from_json",
]
