"""Numerical generating-family cohomology.

Scalar fields built from a small expression language drive every stage:
difference functions of linear-at-infinity generating families, their
extended three-slot variants, positive gradient flow, trajectory and
flow-tree counting over Z2, and the resulting cohomology ring with its
product.  The `gftrees` command line wraps the pipeline.
"""

__version__ = "0.1.0"

from .expr import parse, ParseError, DomainError
from .family import (
    GeneratingFamily,
    QuadraticLike,
    ScalarField,
    difference,
    extend,
    stabilize,
    precompose_fpd,
    morse_mode_fields,
)
from .critical import CriticalPoint, RhoBound, find_critical_points, iota, rho_and_perturbation_bound
from .flow import Trajectory, ManifoldChart, integrate, chart_point, LineSource, count_lines
from .trees import TreeProblem, FlowTree, PerturbationTriple, tree_residual, solve_trees
from .complexes import ChordComplex, CohomologyRing, verify_algebra, cohomology, compare_rings
from .continuation import FamilyPath, continuation_matrix, isotopy_compare

__all__ = [
    "parse", "ParseError", "DomainError",
    "GeneratingFamily", "QuadraticLike", "ScalarField",
    "difference", "extend", "stabilize", "precompose_fpd", "morse_mode_fields",
    "CriticalPoint", "RhoBound", "find_critical_points", "iota", "rho_and_perturbation_bound",
    "Trajectory", "ManifoldChart", "integrate", "chart_point", "LineSource", "count_lines",
    "TreeProblem", "FlowTree", "PerturbationTriple", "tree_residual", "solve_trees",
    "ChordComplex", "CohomologyRing", "verify_algebra", "cohomology", "compare_rings",
    "FamilyPath", "continuation_matrix", "isotopy_compare",
]
