"""Knot diagram invariants: PD codes, quandle colorings, Reidemeister
moves, and knot group presentations."""

from .diagram import (
    Corner,
    Crossing,
    Diagram,
    DiagramError,
    EdgeDegreeError,
    MalformedTokenError,
    MultiComponentError,
    NonPlanarError,
    canonical_pd,
    parse_pd,
)
from .groups import (
    FiniteGroup,
    alternating_group,
    conjugate,
    cyclic_group,
    group_by_name,
    symmetric_group,
)
from .quandle import (
    AxiomReport,
    ColoringCount,
    FiniteQuandle,
    check_axioms,
    conjugation_quandle,
    count_colorings,
    dihedral,
    is_isomorphic,
    list_colorings,
    quandle_by_name,
    tetrahedral,
)
from .moves import (
    KINDS,
    MoveSite,
    StaleSiteError,
    find_sites,
    random_walk,
)
from .moves import apply as apply_move
from .presentation import (
    Generator,
    GroupPresentation,
    NoCrossingsError,
    abelianize,
    alexander_briggs,
    hom_count,
    tietze_simplify,
    wirtinger,
)
from .db import (
    InvariantReport,
    KnotRecord,
    UnknownKnotError,
    Verdict,
    builtin,
    builtin_names,
    distinguish,
    report,
)

__version__ = "0.1.0"

__all__ = [
    "Corner", "Crossing", "Diagram", "DiagramError",
    "EdgeDegreeError", "MalformedTokenError", "MultiComponentError",
    "NonPlanarError", "canonical_pd", "parse_pd",
    "FiniteGroup", "alternating_group", "conjugate", "cyclic_group",
    "group_by_name", "symmetric_group",
    "AxiomReport", "ColoringCount", "FiniteQuandle",
    "check_axioms", "conjugation_quandle", "count_colorings", "dihedral",
    "is_isomorphic", "list_colorings", "quandle_by_name", "tetrahedral",
    "KINDS", "MoveSite", "StaleSiteError", "find_sites", "random_walk",
    "apply_move",
    "Generator", "GroupPresentation", "NoCrossingsError",
    "abelianize", "alexander_briggs", "hom_count", "tietze_simplify",
    "wirtinger",
    "InvariantReport", "KnotRecord", "UnknownKnotError", "Verdict",
    "builtin", "builtin_names", "distinguish", "report",
    "__version__",
]
