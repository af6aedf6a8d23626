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
diagram, whose paths are exactly the minimal attacks. k_top, which needs
distinct minimal attacks, always minimises. Neither diagram of a model
has a high edge into FALSE or a low edge into TRUE (see `minimise`), and
its root is a decision node, so the fold reads no terminal: a node of
variable value x holds x when its high child is TRUE, else and_op of the
high child's value and x, joined by or_op to its low child's value unless
that child is FALSE. No domain needs neutral elements for it.

The tree fold (`_fold`) and the diagram fold hold a domain's values as
`_kernel` decides by its operators: scaled integers with INF as one
integer cap (`_scaled_weights`, which k_top also sums), integer pairs, or
the values themselves.
"""

from __future__ import annotations

import functools
import math
import time
from fractions import Fraction
from operator import itemgetter, mul
from typing import NamedTuple, Optional

from .bdd import FALSE, STATIC_ONLY, TRUE, Bdd, VarOrder, from_structure_function, minimise
from .domains import INF, AttributeDomain, ValueKind, nat_add
from .errors import (
    AtError,
    BadAttributeValue,
    DagRejected,
    DynamicTreeRejected,
    InvalidRequest,
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
from .tree import AttackTree, Dynamics, Shape, StructureKind, bas_of, classify, fold


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


def _pair_product(pairs):
    """The product of (numerator, denominator) pairs, unnormalised."""
    num = den = 1
    for n, d in pairs:
        num *= n
        den *= d
    return num, den


def _pair_extreme(greatest: bool):
    """The builtin max (greatest) or min over (numerator, denominator)
    pairs with positive denominators, compared by cross-multiplication:
    the first of the greatest or least values wins, as with the builtin."""
    def pick(pairs):
        it = iter(pairs)
        num, den = next(it)
        for n, d in it:
            if (n * den > num * d) if greatest else (n * den < num * d):
                num, den = n, d
        return num, den
    return pick


# an operator -> its gate operator over each integer kernel's held values;
# builtin min and max pick the first least or greatest value, as pairs do
_SCALED = {min: min, max: max, nat_add: sum}
_PAIRED = {min: _pair_extreme(False), max: _pair_extreme(True), mul: _pair_product}


def _kernel(domain: AttributeDomain, values: list) -> tuple:
    """(or, and and seq gate operators, values as held, back), the one
    place that decides how a fold holds a domain's values, by the identity
    of its operators. An or_op of min or max picks one attack, which holds
    each value at most once, so when every operator is min, max or nat_add
    the values are the integers of `_scaled_weights`, INF held as its cap;
    in a probability domain of min, max and mul they are unnormalised
    (numerator, denominator) pairs, and back makes one `Fraction`, as
    normalising every product costs a gcd of ever longer integers; any
    other domain folds its values by its operators. A gate operator
    combines the iterable of its operands' held values."""
    ops = (domain.or_op, domain.and_op, domain.seq_op or domain.and_op)
    if domain.or_op in (min, max):
        if all(op in _SCALED for op in ops):
            scale, cap, held = _scaled_weights(values, 1)
            return [_SCALED[op] for op in ops], held, lambda w: _unscaled(w, 1, scale, cap)
        if domain.kind is ValueKind.PROBABILITY and all(op in _PAIRED for op in ops):
            pairs = [a.as_integer_ratio() for a in values]  # ints and Fractions
            return [_PAIRED[op] for op in ops], pairs, lambda p: Fraction(*p)
    return [functools.partial(functools.reduce, op) for op in ops], values, lambda v: v


def _fold(t: AttackTree, alpha: dict, domain: AttributeDomain):
    """Memoized bottom-up fold of `_kernel`'s held values, once `_check`
    has passed the request for `bu`; the memoization is what makes it
    naive on DAGs (a shared node contributes one value to every parent)."""
    ops, held, back = _kernel(domain, list(map(alpha.__getitem__, t.bas)))
    return back(fold(t, held, *ops))


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


def _scaled_weights(values: list, sgn: int) -> tuple[int, int, list]:
    """(scale, cap, weight), the one place that decides how INF looks in
    an integer fold: each value signed by sgn, a finite one as an integer
    over the common denominator scale and INF as cap, 1 plus the sum of
    all finite ones. Scaling by scale > 0 keeps every sum, comparison and
    tie. An attack holds each value at most once, as a leaf of a proper
    tree or as a variable on a diagram path, so the unsigned sum of its
    weights is below cap when it holds no INF and at least cap when it
    holds one: no comparison that tells a finite attack from an infinite
    one changes, and `_unscaled` reads a sum of cap or more as INF."""
    scale = math.lcm(*{a.denominator for a in values if a is not INF})
    scaled = [None if a is INF else a.numerator * (scale // a.denominator) for a in values]
    cap = 1 + sum(filter(None, scaled))  # drops INF's None (and zeros)
    return scale, cap, [sgn * (cap if w is None else w) for w in scaled]


def _unscaled(w: int, sgn: int, scale: int, cap: int):
    """The metric of an attack of scaled weight w, exactly."""
    if sgn * w >= cap:
        return INF
    return sgn * w if scale == 1 else Fraction(sgn * w, scale)


def bu_bdd_detailed(
    t: AttackTree, alpha: dict, domain: AttributeDomain, order: Optional[VarOrder] = None
) -> tuple[object, Bdd]:
    """(metric, the diagram folded): see `bu_bdd`."""
    _check("bdd", t, alpha, domain)
    m = from_structure_function(t, order)
    if "or-absorbs-and" not in domain.laws:
        m = minimise(m)
    (or_, and_, _), at_rank, back = _kernel(domain, list(map(alpha.__getitem__, m.order.bas)))
    vals: dict[int, object] = {}
    ranks, lows, highs = m.store.ranks, m.store.lows, m.store.highs
    for v in m.postorder:
        if v >= 2:
            x, lo, hi = at_rank[ranks[v]], lows[v], highs[v]
            if hi != TRUE:
                x = and_((vals[hi], x))
            vals[v] = x if lo == FALSE else or_((vals[lo], x))
    return back(vals[m.root]), m


def bu_bdd(t: AttackTree, alpha: dict, domain: AttributeDomain, order: Optional[VarOrder] = None):
    """Metric through a decision diagram of the structure function, exact
    on shared structures: the compiled one for a domain declaring
    or-absorbs-and, else the minimal-solutions one, folded over the values
    `_kernel` holds. No terminal holds a value (see the module docstring),
    so the domain's neutral elements are never read. The values are
    checked once the model and the domain pass: absorption only holds
    inside the domain's carrier."""
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
    Weights are the integers of `_scaled_weights`, over the least common
    multiple of the attributes' denominators, so the metrics (divided
    back, exactly) and the attacks are those of rational arithmetic. A
    path through an INF weighs sgn * cap and is held there, so INF ties
    stay ties. The values are checked once k, the model and the domain
    pass.
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
    # signed edge weights; top is the weight of every path through an INF
    scale, cap, weight = _scaled_weights(list(map(alpha.__getitem__, bas_at)), sgn)
    top = sgn * cap
    # a path is (weight, attack), an attack nested (bas, rest) pairs; a
    # node's lists are dropped once its last parent has read them. The lex
    # lists are read only under an infinite weight, so kept only if one is.
    best: dict[int, list] = {FALSE: [], TRUE: [(0, ())]}
    lex: Optional[dict[int, list]] = None
    if top in weight:
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
            if a == top:
                up = [(a, (bas, rest)) for rest in lex[hi]]
            else:  # a path held at top stays there, so INF ties stay ties
                up = [(w if w == top else w + a, (bas, rest)) for w, rest in best[hi]]
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
        out.append((_unscaled(w, sgn, scale, cap), frozenset(taken)))
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

    return fold(t, [leaf(b) for b in t.bas],
                lambda ps: 1 - math.prod((1 - p for p in ps), start=Fraction(1)),
                lambda ps: math.prod(ps, start=Fraction(1)))


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
