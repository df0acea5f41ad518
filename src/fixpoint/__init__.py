"""Alternating projections fixed-point lab.

Exact projectors onto a catalog of convex and nonconvex sets, fixed-point
iteration with full trace recording, sequence-level convergence
classification, and sampled estimation of the regularity constants that
govern linear convergence.
"""

from . import diagnostics, engine, geometry, regularity, scenarios
from .engine import (
    AlternatingProjections,
    DouglasRachford,
    Trace,
    residual_map,
    run,
)
from .geometry import (
    AffineSubspace,
    Ball,
    Box,
    Epigraph,
    FinitePointSet,
    Halfspace,
    LinearPiece,
    ParabolicPiece,
    PiecewiseCurve,
    SetSpec,
    SetUnion,
    Sphere,
    WholeSpace,
    distance,
    project_one,
)
from .scenarios import Scenario, build, builtin_names, random_convex_pair

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
