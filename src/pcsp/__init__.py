"""Toolkit for fixed-template promise CSPs.

Local-consistency strategies, the Sherali-Adams LP hierarchy over exact
rationals, polymorphism analysis, a structural template classifier, sparse
random hard instances, and width-based approximate graph coloring.
"""

from .core import (
    Signature,
    Structure,
    complete_graph,
    cycle,
    path,
    exactly_template,
    nae_template,
    hom_search,
    enumerate_homomorphisms,
)
from .errors import (
    PcspError,
    BudgetExceededError,
    PromiseViolationError,
    StructureParseError,
)

__all__ = [
    "Signature",
    "Structure",
    "complete_graph",
    "cycle",
    "path",
    "exactly_template",
    "nae_template",
    "hom_search",
    "enumerate_homomorphisms",
    "PcspError",
    "BudgetExceededError",
    "PromiseViolationError",
    "StructureParseError",
]

__version__ = "0.1.0"
