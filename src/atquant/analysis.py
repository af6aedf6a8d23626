"""Metric computation: efficient algorithms plus the dispatcher.

One table, `_ROUTES`, holds the routing rule: which structure classes each
algorithm serves, and for each class the law sets (of domains.LAWS) of
which a domain must declare one for the algorithm to be exact there. The
auto route, the one check every engine makes (`_check`), the explicit
algorithm choices of `analyze` and of the CLI, and the differential
harness all read it, so a new route is one entry.

The fold over a decision diagram is the or_op over its root-to-TRUE paths
of the and_op of the values of the path's high-edge variables, and the law
or-absorbs-and alone picks the diagram `bu_bdd` folds. The high set of a
TRUE-path of the compiled diagram satisfies the structure function, so it
contains a minimal attack; and each minimal attack, read as an assignment,
follows a TRUE-path whose high set it contains, so is that set. Every path
is thus a minimal attack or adds to one, and by absorption, x or (x and y)
= x, the added paths change nothing: an absorbing domain folds the
compiled diagram. Any other domain, such as max-damage or max-challenge,
whose or_op prefers the larger attack, folds the minimal-solutions
diagram, whose paths are exactly the minimal attacks. A domain that also
declares and-is-plus takes the fold as the shortest root-to-TRUE path,
summed over integers. k_top, which needs distinct minimal attacks, always
minimises.
"""

from __future__ import annotations

import functools
import math
import time
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple, Optional

from .bdd import FALSE, STATIC_ONLY, TRUE, Bdd, VarOrder, from_structure_function, minimise
from .domains import INF, AttributeDomain
from .errors import (
    AtError,
    BadAttributeValue,
    DagRejected,
    DynamicTreeRejected,
    InvalidRequest,
    MissingNeutrals,
    NotProbability,
    NotSemiring,
    NotSemiringDynamic,
    UnsupportedDomainForKTop,
)
from .semantics import (
    DEFAULT_BUDGET,
    _attr,
    is_well_formed,  # read only by perfbench's per-layer tracer
    oracle_metric_dynamic,
    oracle_metric_static,
)
from .record import Record
from .tree import AttackTree, Dynamics, NodeType, Shape, StructureKind, bas_of, classify, fold


STATIC_TREE = StructureKind(Shape.TREE, Dynamics.STATIC)
STATIC_DAG = StructureKind(Shape.DAG, Dynamics.STATIC)
DYNAMIC_TREE = StructureKind(Shape.TREE, Dynamics.DYNAMIC)

_SEMIRING = (({"and-over-or"},), NotSemiring, "is not a semiring")
_ADDITIVE = (({"and-is-plus"},), UnsupportedDomainForKTop,
             "does not reduce to additive shortest paths")

# algorithm -> structure class it serves -> (the law sets of which a domain
# must declare one for it to be exact there, the error and reason that
# refuse any other domain); algorithms cheapest first
_ROUTES = {
    "bu": {
        STATIC_TREE: _SEMIRING,
        DYNAMIC_TREE: (({"and-over-or", "seq-over-and", "seq-over-or", "and-idempotent"},
                        {"and-over-or", "seq-is-and"}),
                       NotSemiringDynamic, "does not support bottom-up dynamic evaluation"),
    },
    "bdd": {STATIC_TREE: _SEMIRING, STATIC_DAG: _SEMIRING},
    "ktop": {STATIC_TREE: _ADDITIVE, STATIC_DAG: _ADDITIVE},
}

# the routes a metric request may name
ALGORITHMS = ("auto", *(a for a in _ROUTES if a != "ktop"), "oracle")


def _refusal(algorithm: str, kind: StructureKind, d: AttributeDomain) -> Optional[AtError]:
    """Why the algorithm cannot answer for a model of the class in the
    domain, or None: a class its row does not serve, then a domain whose
    laws that class's law sets do not cover."""
    row = _ROUTES[algorithm]
    if kind not in row:
        if kind.dynamics not in {c.dynamics for c in row}:
            return DynamicTreeRejected(STATIC_ONLY)
        return DagRejected(f"{algorithm} is only sound on proper trees; shared nodes double-count")
    law_sets, error, reason = row[kind]
    if not any(laws <= d.laws for laws in law_sets):
        return error(f"domain {d.name} {reason}")
    if algorithm == "bdd" and not d.has_neutrals:
        return MissingNeutrals(f"domain {d.name} lacks neutral elements for the BDD fold")
    return None


def _check(algorithm: str, t: AttackTree, alpha: dict, domain: AttributeDomain) -> None:
    """Raise why the algorithm cannot answer the request, the one check of
    every engine: the class, then the domain (see `_refusal`), then the
    values."""
    refusal = _refusal(algorithm, classify(t), domain)
    if refusal is not None:
        raise refusal
    validate_attribution(t, alpha, domain)


def validate_attribution(t: AttackTree, alpha: dict, domain: AttributeDomain) -> None:
    """Attributions must cover every BAS with a value the domain accepts;
    the first offence in `bas_of` order is named. Each distinct value object
    is checked once (a parsed block holds one per numeral), and the BAS are
    gone through one at a time only to name an offence."""
    bas = bas_of(t)
    try:
        distinct = {id(v): v for v in map(alpha.__getitem__, bas)}
        for v in distinct.values():
            domain.validate_value(v)
        return
    except (KeyError, BadAttributeValue):
        pass
    for b in bas:
        value = _attr(alpha, t, b)
        try:
            domain.validate_value(value)
        except BadAttributeValue as e:
            raise BadAttributeValue(f"{e} for basic action {t.label_of(b)!r}") from None


_EXTREMA = (min, max)  # the builtins, which a fold calls on a gate's whole iterable
_ADDS = frozenset({"and-is-plus", "seq-is-and"})  # and_op and seq_op both add


def _plus(weights):
    """The sum of scaled weights; inf plus an int past the float range is inf."""
    try:
        return sum(weights)
    except OverflowError:
        return math.inf


def _fold(t: AttackTree, alpha: dict, domain: AttributeDomain):
    """Memoized bottom-up fold, once `_check` has passed the request for
    `bu`; the memoization is what makes it naive on DAGs (a shared node
    contributes one value to every parent). A domain whose gates all add,
    and whose or_op is the builtin min or max, folds integers over one
    common denominator, as `_shortest_path` does. The builtin min or max
    of an iterable is the first of its least or greatest values, as its
    fold by pairs is, so either is called on a gate's children at once."""
    leaves = list(map(alpha.__getitem__, t.bas))
    if _ADDS <= domain.laws and domain.or_op in _EXTREMA:
        scale, weight = _scaled_weights(leaves, 1)
        plus = {NodeType.OR: domain.or_op, NodeType.AND: _plus, NodeType.SAND: _plus}
        return _unscaled(fold(t, weight, plus), 1, scale)
    ops = {NodeType.OR: domain.or_op, NodeType.AND: domain.and_op, NodeType.SAND: domain.seq_op}
    return fold(t, leaves, {k: op if op in _EXTREMA else functools.partial(functools.reduce, op)
                            for k, op in ops.items()})


def bu(t: AttackTree, alpha: dict, domain: AttributeDomain):
    """Bottom-up metric on a proper tree, static or well-formed dynamic.

    Exact on a static tree for a semiring. On a dynamic tree, exact when
    the domain is a dynamic semiring whose conjunctive operator is
    idempotent: SAND(l, r) folds to seq_op(l's value, r's value), and as
    seq_op distributes over and_op and or_op, that is the critical path the
    oracle takes through every attack, r's part starting once all of l's
    maximal steps are done. Exact also when the sequential operator gives
    the conjunctive one's values: then this computes the static fold of
    the projection, and the oracle the flat fold of each attack.
    """
    # no well-formedness check: `is_well_formed` answers True on every
    # proper tree, whose ordering edges all run left to right in leaf order
    _check("bu", t, alpha, domain)
    return _fold(t, alpha, domain)


def _scaled_weights(values: list, sgn: int) -> tuple[int, list]:
    """(scale, weight): each value signed, a finite one as an integer over
    the common denominator scale and INF as sgn * math.inf. Scaling by
    scale > 0 keeps every sum, comparison and tie."""
    scale = math.lcm(*{a.denominator for a in values if a is not INF})
    return scale, [sgn * math.inf if a is INF else sgn * a.numerator * (scale // a.denominator)
                   for a in values]


def _unscaled(w, sgn: int, scale: int):
    """The metric of a path of scaled weight w, exactly."""
    if isinstance(w, float):
        return INF
    return sgn * w if scale == 1 else Fraction(sgn * w, scale)


def bu_bdd_detailed(
    t: AttackTree, alpha: dict, domain: AttributeDomain, order: Optional[VarOrder] = None
) -> tuple[object, Bdd]:
    """(metric, the diagram folded): see `bu_bdd`."""
    _check("bdd", t, alpha, domain)
    m = from_structure_function(t, order)
    at_rank = list(map(alpha.__getitem__, m.order.bas))
    if "or-absorbs-and" not in domain.laws:
        m = minimise(m)
    elif "and-is-plus" in domain.laws:
        scale, weight = _scaled_weights(at_rank, 1)
        return _shortest_path(m, weight, scale)
    ranks, lows, highs = m.store.ranks, m.store.lows, m.store.highs
    or_op, and_op = domain.or_op, domain.and_op
    vals: dict[int, object] = {FALSE: domain.or_neutral, TRUE: domain.and_neutral}
    for v in m.postorder:
        if v >= 2:
            vals[v] = or_op(vals[lows[v]], and_op(vals[highs[v]], at_rank[ranks[v]]))
    return vals[m.root], m


def _shortest_path(b: Bdd, weight: list, scale: int) -> tuple[object, Bdd]:
    """The least weight of a root-to-TRUE path of the compiled diagram,
    high edges weighing their rank's non-negative weight: the fold of a
    domain declaring or-absorbs-and and and-is-plus (see the module
    docstring)."""
    ranks, lows, highs = b.store.ranks, b.store.lows, b.store.highs
    dist = [math.inf, 0] + [None] * (len(ranks) - 2)
    for v in b.postorder:
        if v >= 2:
            lo = dist[lows[v]]
            try:
                hi = dist[highs[v]] + weight[ranks[v]]
            except OverflowError:  # inf + an int past the float range
                hi = math.inf
            dist[v] = lo if lo <= hi else hi
    return _unscaled(dist[b.root], 1, scale), b


def bu_bdd(t: AttackTree, alpha: dict, domain: AttributeDomain, order: Optional[VarOrder] = None):
    """Metric through a decision diagram of the structure function, exact
    on shared structures: the compiled one for a domain declaring
    or-absorbs-and, else the minimal-solutions one. The values are checked
    once the model and the domain pass: absorption only holds inside the
    domain's carrier."""
    return bu_bdd_detailed(t, alpha, domain, order)[0]


def k_top(
    t: AttackTree,
    alpha: dict,
    domain: AttributeDomain,
    k: int,
    order: Optional[VarOrder] = None,
) -> list:
    """The k best (metric, attack) pairs, best first.

    High edges carry the signed attribute of their variable, low edges are
    free, and the k shortest root-to-TRUE paths of the minimal-solutions
    diagram, found in one bottom-up pass, are the k best attacks; the sign
    flips max domains into min problems. Ties break on the least decision
    sequence, low edge before high, so k=1 is the first pair of any larger
    k; as an infinite weight ties every path through its high edge, each
    node keeps its k lexicographically least paths beside its k shortest.
    Returns fewer than k pairs exactly when fewer minimal attacks exist.
    Finite weights are summed as integers over one common denominator, the
    least common multiple of the attributes' denominators; scaling by it
    keeps every sum, comparison and tie, so the metrics (divided back,
    exactly) and the attacks are those of rational arithmetic. The values
    are checked once k, the model and the domain pass.
    """
    return k_top_detailed(t, alpha, domain, k, order)[0]


def k_top_detailed(
    t: AttackTree,
    alpha: dict,
    domain: AttributeDomain,
    k: int,
    order: Optional[VarOrder] = None,
) -> tuple[list, Bdd]:
    if k < 1:
        raise InvalidRequest("k must be at least 1")
    _check("ktop", t, alpha, domain)
    sgn = 1 if domain.sense == "min" else -1
    m = minimise(from_structure_function(t, order))
    ranks, lows, highs, bas_at = m.store.ranks, m.store.lows, m.store.highs, m.order.bas
    # signed edge weights, finite ones as integers over one common
    # denominator: scaling by scale > 0 keeps every sum, comparison and tie
    at_rank = list(map(alpha.__getitem__, bas_at))
    scale, weight = _scaled_weights(at_rank, sgn)
    # a path is (weight, attack), an attack nested (bas, rest) pairs; a
    # node's lists are dropped once its last parent has read them. The lex
    # lists are read only under an infinite weight, so kept only if one is.
    best: dict[int, list] = {FALSE: [], TRUE: [(0, ())]}
    lex: Optional[dict[int, list]] = None
    if any(a is INF for a in at_rank):
        lex = {FALSE: [], TRUE: [()]}
    parents = [0] * len(lows)
    for v in m.postorder:
        if v >= 2:
            parents[lows[v]] += 1
            parents[highs[v]] += 1
    for v in m.postorder:
        if v >= 2:
            lo, hi, r = lows[v], highs[v], ranks[v]
            bas, a = bas_at[r], weight[r]
            if at_rank[r] is INF:
                up = [(a, (bas, rest)) for rest in lex[hi]]
            else:
                try:
                    up = [(w + a, (bas, rest)) for w, rest in best[hi]]
                except OverflowError:  # inf + an int past the float range
                    up = [(w if isinstance(w, float) else w + a, (bas, rest))
                          for w, rest in best[hi]]
            best[v] = sorted(best[lo] + up, key=itemgetter(0))[:k]
            if lex is not None:
                lex[v] = (lex[lo] + [(bas, rest) for rest in lex[hi]])[:k]
            for c in (lo, hi):
                parents[c] -= 1
                if not parents[c]:
                    del best[c]
                    if lex is not None:
                        del lex[c]

    out = []
    for w, attack in best[m.root]:
        taken = []
        while attack:
            b, attack = attack
            taken.append(b)
        out.append((_unscaled(w, sgn, scale), frozenset(taken)))
    return out, m


def total_probability_tree(t: AttackTree, alpha: dict) -> Fraction:
    """Probability that the root succeeds when each BAS fires independently.

    Needs a proper static tree: gate inputs are then independent, so AND
    multiplies and OR complements the product of complements. Sharing would
    break independence and SAND would need timing, so both are rejected.
    """
    kind = classify(t)
    if kind.shape is Shape.DAG:
        raise DagRejected("shared subtrees break the independence argument")
    if kind.dynamics is Dynamics.DYNAMIC:
        raise DynamicTreeRejected("total probability is defined for static trees")

    def leaf(b: int) -> Fraction:
        p = _attr(alpha, t, b)
        if isinstance(p, bool) or not isinstance(p, (int, Fraction)) or not 0 <= p <= 1:
            raise NotProbability(f"value {p!r} for {t.labels[b]!r} is not a probability")
        return Fraction(p)

    return fold(t, [leaf(b) for b in t.bas], {
        NodeType.AND: lambda ps: math.prod(ps, start=Fraction(1)),
        NodeType.OR: lambda ps: 1 - math.prod((1 - p for p in ps), start=Fraction(1)),
    })


class AnalysisRequest(NamedTuple):
    tree: AttackTree
    alpha: dict
    domain: AttributeDomain
    algorithm: str = "auto"  # one of ALGORITHMS
    k: Optional[int] = None
    order: Optional[VarOrder] = None
    budget: int = DEFAULT_BUDGET


class AnalysisResult(Record):
    """What `analyze` found: `value` is the metric, for k-top that of the
    best attack, and `witnesses` k-top's (metric, frozenset of BAS ids)
    pairs; `stats` is a fresh dict unless one is passed."""

    _compared = ("metric", "value", "algorithm", "warnings", "witnesses", "stats")

    def __init__(self, metric: str, value: object, algorithm: str, warnings: tuple[str, ...],
                 witnesses: Optional[tuple] = None, stats: Optional[dict] = None):
        self.__dict__.update(metric=metric, value=value, algorithm=algorithm,
                             warnings=warnings, witnesses=witnesses,
                             stats={} if stats is None else stats)


_ORACLE_WARNING = "definitional oracle is exponential in the number of basic actions"
_NO_ROUTE_WARNING = ("no efficient algorithm is known for dynamic models with shared "
                     "subtrees; falling back to the exponential definitional oracle")


def auto_route(kind: StructureKind, domain: AttributeDomain) -> tuple[str, Optional[str]]:
    """(algorithm, warning): the first algorithm but k-top that serves the
    class and is exact for the domain, else the oracle with a warning that
    says why."""
    served = [a for a, row in _ROUTES.items() if a != "ktop" and kind in row]
    for algorithm in served:
        if _refusal(algorithm, kind, domain) is None:
            return algorithm, None
    return "oracle", _ORACLE_WARNING if served else _NO_ROUTE_WARNING


def analyze(req: AnalysisRequest) -> AnalysisResult:
    """Route a request to the cheapest sound algorithm and time it.

    The auto route reads `_ROUTES` (see `auto_route`) and falls back to the
    exhaustive oracle with a warning. Explicit algorithm choices are
    honored or rejected, never silently downgraded. Each engine checks the
    request itself (see `_check`); the oracle's values are checked here.
    """
    started = time.perf_counter()
    t, domain, alpha = req.tree, req.domain, req.alpha
    warning = witnesses = None
    stats: dict = {"nodes": len(t)}

    if req.k is not None:
        if req.algorithm != "auto":
            raise InvalidRequest(f"k-top has no algorithm choice, got {req.algorithm!r}")
        pairs, diagram = k_top_detailed(t, alpha, domain, req.k, req.order)
        value: object = pairs[0][0]  # every model has a successful attack
        witnesses = tuple(pairs)
        algorithm = "ktop"
        stats["bdd_nodes"] = diagram.node_count()
    else:
        algorithm = req.algorithm
        if algorithm == "auto":
            algorithm, warning = auto_route(classify(t), domain)
        if algorithm == "bu":
            value = bu(t, alpha, domain)
        elif algorithm == "bdd":
            value, diagram = bu_bdd_detailed(t, alpha, domain, req.order)
            stats["bdd_nodes"] = diagram.node_count()
        elif algorithm == "oracle":
            validate_attribution(t, alpha, domain)
            dynamic = classify(t).dynamics is Dynamics.DYNAMIC
            oracle = oracle_metric_dynamic if dynamic else oracle_metric_static
            value = oracle(t, alpha, domain, req.budget)
        else:
            raise InvalidRequest(f"unknown algorithm {algorithm!r}")

    stats["millis"] = int((time.perf_counter() - started) * 1000)
    return AnalysisResult(
        metric=domain.name,
        value=value,
        algorithm=algorithm,
        warnings=() if warning is None else (warning,),
        witnesses=witnesses,
        stats=stats,
    )
