"""Quantitative analysis of attack trees over exact attribute algebras.

The usual round trip: parse a model file, pick a builtin domain, run
`analyze` and let it dispatch, or call one of the algorithms directly.

    >>> from atquant import analyze, AnalysisRequest, builtin, parse_model
    >>> doc = parse_model(text)
    >>> req = AnalysisRequest(doc.tree, doc.attributions["cost"], builtin("min-cost"))
    >>> analyze(req).value
"""

from .analysis import (
    AnalysisRequest,
    AnalysisResult,
    analyze,
    bu_bdd,
    bu_dat,
    bu_sat,
    k_top,
    total_probability_tree,
)
from .bdd import Bdd, VarOrder, default_order, from_structure_function, minimise
from .domains import (
    INF,
    BUILTIN_NAMES,
    AttributeDomain,
    LawReport,
    ValueKind,
    builtin,
    check_semiring_laws,
    pareto_product,
)
from .errors import AtError
from .io import ModelDocument, emit_dot, emit_model, emit_result, parse_model
from .semantics import (
    PosetAttack,
    is_well_formed,
    minimal_attacks_dynamic,
    minimal_attacks_static,
    oracle_metric_dynamic,
    oracle_metric_static,
    ordering_graph,
    structure_function,
)
from .tree import AttackTree, NodeType, StructureKind, bas_of, build, classify, static_projection

__version__ = "0.1.0"

__all__ = [
    "AnalysisRequest",
    "AnalysisResult",
    "AtError",
    "AttackTree",
    "AttributeDomain",
    "Bdd",
    "BUILTIN_NAMES",
    "INF",
    "LawReport",
    "ModelDocument",
    "NodeType",
    "PosetAttack",
    "StructureKind",
    "ValueKind",
    "VarOrder",
    "analyze",
    "bas_of",
    "bu_bdd",
    "bu_dat",
    "bu_sat",
    "build",
    "builtin",
    "check_semiring_laws",
    "classify",
    "default_order",
    "emit_dot",
    "emit_model",
    "emit_result",
    "from_structure_function",
    "is_well_formed",
    "k_top",
    "minimal_attacks_dynamic",
    "minimal_attacks_static",
    "minimise",
    "oracle_metric_dynamic",
    "oracle_metric_static",
    "ordering_graph",
    "parse_model",
    "static_projection",
    "structure_function",
    "total_probability_tree",
]
