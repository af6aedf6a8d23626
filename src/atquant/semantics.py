"""Definitional semantics: the exhaustive oracle.

Everything here is deliberately brute force. Minimal attacks come from
the full truth table of the structure function, one big int with a bit per
row: every row goes through the single-removal test, a whole-table mask
operation per basic action, and the set bits left are the minimal attacks.
Metrics come from folding the domain operators over that enumeration
exactly as the definitions state. The efficient algorithms in analysis.py
are tested against these functions, never the other way around.

A static attack is a frozenset of BAS ids. A dynamic one is a
`PosetAttack`: its BAS ids and its execution order, transitively reduced,
so each pair of the order is an immediate predecessor and successor.
`attack_value` gives a poset attack's value: the flat conjunctive fold of
its values for a domain whose sequential operator is its conjunctive one
(seq-is-and), else the critical path, where ordered steps compose through
the sequential operator and unordered ones meet in the idempotent
conjunctive one. `ordering_graph` remains the definition of the
precedence that SAND gates impose: the frozenset of (earlier, later) BAS
pairs, materialised pair by pair. `is_well_formed` alone does not build
it: it decides the graph's acyclicity in linear time on a port graph
whose paths between basic actions are exactly the ordering graph's
paths, and the tests compare it with a search over `ordering_graph`.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, NamedTuple, Optional

from .errors import (
    DynamicTreeRejected,
    IllFormed,
    IncompatibleDomain,
    MissingAttribution,
)
from .domains import DEFAULT_BUDGET, AttributeDomain, check_budget
from .tree import (AttackTree, Dynamics, NodeType, Shape, bas_of, classify, descendants,
                   find_cycle, fold, static_projection)


class PosetAttack(NamedTuple):
    """An attack set together with the execution order imposed on it.

    The order is stored as a transitive reduction, so two poset attacks are
    equal iff they constrain execution identically.
    """

    nodes: frozenset
    order: frozenset  # of (id, id), transitively reduced


def structure_function(t: AttackTree, attack: Iterable[int]) -> bool:
    """Does the given set of performed BAS make the root succeed?

    SAND gates are evaluated as AND: reachability ignores order, which only
    matters for which posets count as attacks, not for set-level success.
    """
    chosen = set(attack)
    return fold(t, [b in chosen for b in t.bas], any, all)


def _truth_table(t: AttackTree) -> tuple[int, list[int]]:
    """The truth table of the structure function and its BAS columns, each
    one big int: bit m of a table is its value at the assignment whose bit j
    selects t.bas[j], and columns[j] is the table of t.bas[j] alone."""
    rows = 1 << len(t.bas)
    columns = []
    for j in range(len(t.bas)):
        period = 1 << j
        block = ((1 << period) - 1) << period  # one low run, one high run
        width = period * 2
        while width < rows:
            block |= block << width
            width *= 2
        columns.append(block)
    # SAND is AND here, as in structure_function
    return fold(t, columns, functools.partial(functools.reduce, operator.or_),
                functools.partial(functools.reduce, operator.and_)), columns


def minimal_attacks_static(t: AttackTree, budget: int = DEFAULT_BUDGET) -> frozenset:
    """All subset-minimal successful attacks, by exhaustive enumeration.

    A row of the truth table is minimal when it succeeds and dropping any
    one BAS it takes makes it fail; single-element removal coincides with
    subset-minimality because structure functions are monotone (a property
    test cross-checks this against the literal all-subsets filter). The
    test runs on the whole table at once: (table & ~columns[j]) << 2**j
    marks every row taking bas[j] that still succeeds without it, and the
    minimal rows are the table less the union of these n masks, read in
    ascending order.
    """
    if classify(t).dynamics is Dynamics.DYNAMIC:
        raise DynamicTreeRejected("minimal_attacks_static needs a static model; project first")
    bas = bas_of(t)
    n = len(bas)
    check_budget(2 ** n, budget, f"{n} basic actions exceed the oracle budget of {budget}")
    table, columns = _truth_table(t)
    redundant = 0
    for j, column in enumerate(columns):
        redundant |= (table & ~column) << (1 << j)
    bits = bin(table & ~redundant)[:1:-1]  # bits[m] is row m
    out = []
    m = bits.find("1")
    while m >= 0:
        out.append(frozenset(bas[j] for j in range(n) if (m >> j) & 1))
        m = bits.find("1", m + 1)
    return frozenset(out)


def ordering_graph(t: AttackTree) -> frozenset:
    """BAS precedence as (earlier, later) pairs: each SAND gate orders all
    basic actions under one child before all basic actions under the next."""
    edges = set()
    for ty, kids in zip(t.types, t.children):
        if ty is not NodeType.SAND:
            continue
        for left, right in zip(kids, kids[1:]):
            later = descendants(t, right)
            for a in descendants(t, left):
                for b in later:
                    edges.add((a, b))
    return frozenset(edges)


def is_well_formed(t: AttackTree) -> tuple[bool, Optional[list[int]]]:
    """A dynamic model is well-formed iff its ordering graph is acyclic.

    A static model and a proper tree are well-formed without a search: the
    first has no ordering edges, and in the second every ordering edge runs
    left to right in leaf order.

    Returns (True, None) or (False, witness) where the witness is a BAS id
    cycle of the ordering graph with first == last (a self-loop shows up as
    [b, b]).

    The ordering graph can be quadratic in the model, so this decides its
    acyclicity on a port graph of linear size instead. Every node v has an
    in-port (id v) and an out-port (id n + v); a BAS's two ports are one
    vertex, its id. A gate's in-port has an edge to each child's in-port,
    each child's out-port to its gate's out-port, and under a SAND the
    out-port of child i to the in-port of child i + 1. In-port edges lead
    down and out-port edges up, so a port path from a BAS a that meets no
    other BAS climbs out-ports to some child l of a SAND, crosses to the
    next child r, and descends in-ports to a BAS b: a lies under l and b
    under r, which is exactly the ordering edge (a, b), and every ordering
    edge is such a path. Port paths between BAS are thus ordering-graph
    paths, and every port cycle passes through a BAS, as only a BAS joins
    an in-port to an out-port. One iterative depth-first search from the
    root's in-port, which reaches every BAS, meets a port on its own stack
    exactly when the ordering graph has a cycle; the BAS on that port
    cycle, in order, are the witness.
    """
    kind = classify(t)
    if kind.dynamics is Dynamics.STATIC or kind.shape is Shape.TREE:
        return True, None
    types, children = t.types, t.children
    n = len(types)
    out = [v if ty is NodeType.BAS else n + v for v, ty in enumerate(types)]
    # a gate's in-port leads to its children; a BAS port and every out-port
    # collect their successors below
    succ = [kids or [] for kids in children]
    succ += [[] for _ in range(n)]
    for g, (ty, kids) in enumerate(zip(types, children)):
        sand = ty is NodeType.SAND
        for i, c in enumerate(kids):
            up = succ[out[c]]
            up.append(n + g)
            if sand and i + 1 < len(kids):
                up.append(kids[i + 1])
    ports = find_cycle(t.root, succ)
    if ports is None:
        return True, None
    cycle = [p for p in ports if p < n and out[p] == p]
    return False, cycle + cycle[:1]


# -- tiny relation utilities ---------------------------------------------------

def transitive_closure(nodes: Iterable[int], edges: Iterable[tuple[int, int]]) -> frozenset:
    succs: dict[int, set[int]] = {v: set() for v in nodes}
    for a, b in edges:
        succs[a].add(b)
    closure = set()
    for start in succs:
        seen: set[int] = set()
        stack = list(succs[start])
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(succs.get(v, ()))
        closure.update((start, v) for v in seen)
    return frozenset(closure)


def transitive_reduction(nodes: Iterable[int], edges: Iterable[tuple[int, int]]) -> frozenset:
    """Unique minimal relation with the same closure (input must be acyclic)."""
    nodes = list(nodes)
    closure = transitive_closure(nodes, edges)
    kept = set()
    for a, b in closure:
        if not any((a, w) in closure and (w, b) in closure for w in nodes if w != a and w != b):
            kept.add((a, b))
    return frozenset(kept)


def minimal_attacks_dynamic(t: AttackTree, budget: int = DEFAULT_BUDGET) -> frozenset:
    """Poset attacks: each minimal attack of the static projection carries
    the ordering-graph restriction as its execution order."""
    ok, cycle = is_well_formed(t)
    if not ok:
        labels = " -> ".join(t.label_of(v) for v in cycle)
        raise IllFormed(f"ordering graph has a cycle: {labels}", cycle=cycle)
    suite = minimal_attacks_static(static_projection(t), budget)  # budget check before og
    og = ordering_graph(t)
    out = []
    for attack in suite:
        restricted = [(a, b) for a, b in og if a in attack and b in attack]
        out.append(PosetAttack(attack, transitive_reduction(attack, restricted)))
    return frozenset(out)


# -- definitional metrics ------------------------------------------------------

def _attr(alpha: dict, t: AttackTree, v: int):
    try:
        return alpha[v]
    except KeyError:
        raise MissingAttribution(f"no value for basic action {t.labels[v]!r}") from None


def oracle_metric_static(
    t: AttackTree, alpha: dict, domain: AttributeDomain, budget: int = DEFAULT_BUDGET
):
    """Disjunctive fold over minimal attacks of the conjunctive fold of
    attribute values. Works for any commutative/associative pair of
    operators; the domain does not have to be a semiring."""
    suite = minimal_attacks_static(t, budget)
    per_attack = [
        functools.reduce(domain.and_op, [_attr(alpha, t, v) for v in sorted(attack)])
        for attack in sorted(suite, key=lambda a: sorted(a))
    ]
    return functools.reduce(domain.or_op, per_attack)


def attack_value(domain: AttributeDomain, nodes: frozenset, order: frozenset, alpha):
    """The value of one poset attack: `nodes`, its BAS ids, executed in
    `order`, a transitively reduced set of (earlier, later) pairs, with
    alpha(v) the value of BAS v.

    A domain declaring seq-is-and folds and_op over the attack's values, as
    does any domain on an unordered attack. Otherwise the attack's value is
    its critical path (series-parallel semantics of SAND; Jhawar et al.,
    "Attack trees with sequential conjunction", IFIP SEC 2015): a BAS with
    no predecessor is worth alpha(v), any other v is worth seq_op(and_op
    over its immediate predecessors' worths, alpha(v)), and the attack is
    worth and_op over its maximal elements. Ordered steps add up through
    seq_op and unordered ones meet in and_op, which must be idempotent, as
    one predecessor can reach two maximal elements along two paths: a
    domain declaring neither seq-is-and nor and-idempotent is refused.
    """
    if not order or "seq-is-and" in domain.laws:
        return functools.reduce(domain.and_op, [alpha(v) for v in sorted(nodes)])
    if domain.seq_op is None:
        raise IncompatibleDomain(
            f"domain {domain.name} has no sequential operator for a chained component"
        )
    if "and-idempotent" not in domain.laws:
        raise IncompatibleDomain(
            f"domain {domain.name} declares neither seq-is-and nor and-idempotent, "
            "so an ordered attack has no critical path"
        )
    preds: dict[int, list[int]] = {v: [] for v in nodes}
    for a, b in sorted(order):
        preds[b].append(a)
    worth: dict[int, object] = {}
    while len(worth) < len(nodes):  # the order is acyclic: each pass settles one more
        for v in sorted(nodes):
            if v not in worth and all(p in worth for p in preds[v]):
                if preds[v]:
                    before = functools.reduce(domain.and_op, [worth[p] for p in preds[v]])
                    worth[v] = domain.seq_op(before, alpha(v))
                else:
                    worth[v] = alpha(v)
    maximal = nodes - {a for a, _ in order}
    return functools.reduce(domain.and_op, [worth[v] for v in sorted(maximal)])


def oracle_metric_dynamic(
    t: AttackTree, alpha: dict, domain: AttributeDomain, budget: int = DEFAULT_BUDGET
):
    """Disjunctive fold over poset attacks of `attack_value`: the flat
    conjunctive fold of an attack's values for a domain declaring
    seq-is-and, the critical path through its execution order for any
    other. Static models degenerate to the static fold."""
    value = functools.partial(_attr, alpha, t)
    suite = minimal_attacks_dynamic(t, budget)
    per_attack = [attack_value(domain, p.nodes, p.order, value)
                  for p in sorted(suite, key=lambda p: sorted(p.nodes))]
    return functools.reduce(domain.or_op, per_attack)
