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

from . import blowup, gfprime, interp, pipeline, quadricmap, syscore
from .syscore import *
from .gfprime import *
from .interp import *
from .blowup import *
from .quadricmap import *
from .pipeline import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *syscore.__all__,
    *gfprime.__all__,
    *interp.__all__,
    *blowup.__all__,
    *quadricmap.__all__,
    *pipeline.__all__,
]
