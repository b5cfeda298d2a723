"""Exact symbolic blowup sequences for monomial morphisms to a surface.

The package represents a dominant morphism from an n-fold to a surface,
near a chosen base point, as a finite set of exact local monomial
presentations.  It drives permissible codimension-2 blowups until the
pulled-back point ideal is principal everywhere, lifts the result through
the blowup of the base point, and certifies that every local form matches
a toroidal template.
"""

from .forms import (
    Form,
    FormError,
    MonomialPresentation,
    NoTemplateMatchError,
    NotPrincipalError,
    is_principal,
    monomial_free,
    monomial_pair,
    monomial_unit,
    nested,
    power_unit,
    transverse,
    transverse_product,
    transverse_unit,
)
from .invariants import Snapshot, centers, locus_report, summarize
from .transform import (
    Center,
    ChartPoint,
    DescendantSet,
    PermissibilityError,
    blowup,
)
from .principalize import (
    NoCenterError,
    Scenario,
    StepBudgetExceededError,
    default_budget,
    make_scenario,
    run,
    step,
    step_lower_bound,
)
from .descent import (
    ClassifiedLeaf,
    LiftedPresentation,
    SurfaceChart,
    classify_global,
    classify_scenario,
    lift,
    reseed,
)
from .oracle import (
    BoundExceededError,
    SearchBound,
    SearchResult,
    exhaustive_search,
    oracle_principal,
    oracle_rank,
)

__version__ = "0.1.0"
