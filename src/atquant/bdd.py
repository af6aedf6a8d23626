"""Reduced ordered binary decision diagrams over basic actions.

A store hash-conses nodes as (rank, low, high) triples with two fixed
terminals, FALSE=0 and TRUE=1; ranks follow a variable order over the BAS.
Structure functions compile bottom-up with a memoized apply. On top of the
plain ROBDD sits the minimal-solutions transform: a second diagram whose
TRUE-paths (read as the set of variables taken on a high edge) are exactly
the subset-minimal successful attacks. That diagram is meaningful under
path semantics, not boolean semantics, so it is built with its own node
constructor whose reduction rule drops nodes with a FALSE high child
instead of merging equal children.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from typing import Iterable, Optional

from .errors import DynamicTreeRejected, InvalidBdd, OrderMismatch
from .tree import AttackTree, Dynamics, NodeType, bas_of, classify, fold, postorder

FALSE = 0
TRUE = 1


@dataclass(frozen=True)
class VarOrder:
    """Bijection between BAS ids and ranks 0..n-1 (rank = position)."""

    bas: tuple[int, ...]
    _rank: dict = field(compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if len(set(self.bas)) != len(self.bas):
            raise OrderMismatch("variable order repeats a basic action")
        self._rank.update({b: i for i, b in enumerate(self.bas)})

    def __len__(self):
        return len(self.bas)

    def rank_of(self, bas_id: int) -> int:
        try:
            return self._rank[bas_id]
        except KeyError:
            raise OrderMismatch(f"basic action id {bas_id} not in the order") from None

    def bas_at(self, rank: int) -> int:
        return self.bas[rank]


class _Store:
    """Unique table shared by every diagram built from one model/order."""

    def __init__(self, order: VarOrder):
        self.order = order
        # parallel arrays indexed by node id; slots 0/1 are terminal padding
        self.ranks = [-1, -1]
        self.lows = [FALSE, FALSE]
        self.highs = [FALSE, FALSE]
        self.unique: dict[tuple[int, int, int], int] = {}
        self.apply_memo: dict[tuple[str, int, int], int] = {}

    def node(self, rank: int, low: int, high: int) -> int:
        """Hash-cons a raw node; callers enforce their own reduction rule."""
        key = (rank, low, high)
        found = self.unique.get(key)
        if found is not None:
            return found
        for child in (low, high):
            if child >= 2 and self.ranks[child] <= rank:
                raise InvalidBdd("child rank must exceed parent rank")
        nid = len(self.ranks)
        self.ranks.append(rank)
        self.lows.append(low)
        self.highs.append(high)
        self.unique[key] = nid
        return nid

    def mk(self, rank: int, low: int, high: int) -> int:
        if low == high:
            return low
        return self.node(rank, low, high)

    def apply(self, op: str, f: int, g: int) -> int:
        if f > g:
            f, g = g, f  # both ops commute
        if op == "or":
            if f == TRUE or g == TRUE:
                return TRUE
            if f == FALSE:
                return g
        else:
            if f == FALSE or g == FALSE:
                return FALSE
            if f == TRUE:
                return g
        if f == g:
            return f
        key = (op, f, g)
        found = self.apply_memo.get(key)
        if found is not None:
            return found
        rf = self.ranks[f] if f >= 2 else None
        rg = self.ranks[g] if g >= 2 else None
        if rg is None or (rf is not None and rf < rg):
            top, f0, f1, g0, g1 = rf, self.lows[f], self.highs[f], g, g
        elif rf is None or rg < rf:
            top, f0, f1, g0, g1 = rg, f, f, self.lows[g], self.highs[g]
        else:
            top, f0, f1, g0, g1 = rf, self.lows[f], self.highs[f], self.lows[g], self.highs[g]
        out = self.mk(top, self.apply(op, f0, g0), self.apply(op, f1, g1))
        self.apply_memo[key] = out
        return out


@dataclass(frozen=True)
class Bdd:
    store: _Store = field(repr=False)
    order: VarOrder
    root: int

    def var_at(self, node_id: int) -> int:
        """BAS id labelling a nonterminal node."""
        return self.order.bas_at(self.store.ranks[node_id])

    @cached_property
    def postorder(self) -> tuple[int, ...]:
        """Reachable node ids, terminals included, each after both of its
        children; the low side is walked first."""
        lows, highs = self.store.lows, self.store.highs
        return postorder(self.root, lambda v: (highs[v], lows[v]) if v >= 2 else ())

    def node_count(self) -> int:
        """Nonterminal nodes reachable from the root."""
        return sum(1 for v in self.postorder if v >= 2)

    def evaluate(self, attack: Iterable[int]) -> bool:
        chosen = set(attack)
        v = self.root
        while v >= 2:
            v = self.store.highs[v] if self.var_at(v) in chosen else self.store.lows[v]
        return v == TRUE

    def canonical(self) -> tuple:
        """Store-independent serialization for cross-store comparison."""
        s = self.store
        index: dict[int, int] = {FALSE: 0, TRUE: 1}
        triples: list[tuple[int, int, int]] = []
        for v in self.postorder:
            if v >= 2:
                index[v] = len(triples) + 2
                triples.append((s.ranks[v], index[s.lows[v]], index[s.highs[v]]))
        return (index[self.root], tuple(triples))


def default_order(t: AttackTree) -> VarOrder:
    """Depth-first leftmost first-occurrence order over the BAS."""
    return VarOrder(bas_of(t))


def from_structure_function(t: AttackTree, order: Optional[VarOrder] = None) -> Bdd:
    """Compile a static model's structure function to a canonical ROBDD."""
    if classify(t).dynamics is Dynamics.DYNAMIC:
        raise DynamicTreeRejected("BDD construction needs a static model; project first")
    if order is None:
        order = default_order(t)
    if set(order.bas) != set(bas_of(t)):
        raise OrderMismatch("order must cover exactly the model's basic actions")
    store = _Store(order)
    ops = {NodeType.OR: partial(store.apply, "or"), NodeType.AND: partial(store.apply, "and")}
    root = fold(
        t,
        lambda n: store.node(order.rank_of(n.id), FALSE, TRUE),
        lambda n, kids: reduce(ops[n.type], kids),
    )
    return Bdd(store, order, root)


def minimise(b: Bdd) -> Bdd:
    """Minimal-solutions diagram: TRUE-paths = subset-minimal solutions.

    For a node f = (x, f0, f1) of a MONOTONE function, the minimal solutions
    are those of f0 (x not needed) plus x joined onto the minimal solutions
    of f1 that do not already satisfy f0. The subtraction runs against the
    original sub-diagram f0, a monotone function we can evaluate on each
    candidate path; subtracting against the transformed low branch would
    test membership in a path family instead, which is a different (wrong)
    predicate. Node construction drops FALSE high children, so afterwards
    no high edge reaches FALSE, and for monotone input no low edge reaches
    TRUE (f0 = TRUE would force f1 = f0 and the node away).
    """
    store = b.store
    without_memo: dict[tuple[int, int], int] = {}

    def mk_path(rank: int, low: int, high: int) -> int:
        if high == FALSE:
            return low  # a node whose high side died adds no paths
        if low == TRUE or low == high:
            raise InvalidBdd("minimise input was not monotone")
        return store.node(rank, low, high)

    def without(m: int, g: int) -> int:
        """Drop the TRUE-paths of m whose positive set satisfies g."""
        if m == FALSE or g == TRUE:
            return FALSE
        if g == FALSE:
            return m
        if m == TRUE:
            # the empty path survives iff g(all-false) is FALSE, which holds
            # for every monotone g not identical to TRUE
            v = g
            while v >= 2:
                v = store.lows[v]
            if v == TRUE:
                raise InvalidBdd("minimise input was not monotone")
            return TRUE
        key = (m, g)
        out = without_memo.get(key)
        if out is not None:
            return out
        rm, rg = store.ranks[m], store.ranks[g]
        if rg < rm:
            # g branches on a variable no path of m mentions: it reads false
            out = without(m, store.lows[g])
        elif rm < rg:
            out = mk_path(rm, without(store.lows[m], g), without(store.highs[m], g))
        else:
            out = mk_path(
                rm,
                without(store.lows[m], store.lows[g]),
                without(store.highs[m], store.highs[g]),
            )
        without_memo[key] = out
        return out

    # minimal solutions of each node, children before parents and the low
    # side first; this order fixes the ids of the nodes it creates
    minsol: dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
    for f in b.postorder:
        if f >= 2:
            f0, f1 = store.lows[f], store.highs[f]
            minsol[f] = mk_path(store.ranks[f], minsol[f0], without(minsol[f1], f0))
    return Bdd(store, b.order, minsol[b.root])


def top_paths(b: Bdd) -> frozenset:
    """TRUE-paths as frozensets of the BAS taken on high edges.

    On a minimised diagram this is exactly the suite of minimal attacks.
    Exponential in the worst case, like the suite itself.
    """
    paths: dict[int, frozenset] = {
        FALSE: frozenset(),
        TRUE: frozenset({frozenset()}),
    }
    for v in b.postorder:
        if v >= 2:
            var = b.var_at(v)
            high = frozenset(p | {var} for p in paths[b.store.highs[v]])
            paths[v] = paths[b.store.lows[v]] | high
    return paths[b.root]


def validate(b: Bdd) -> None:
    """Walk every reachable node and assert the structural invariants:
    strictly increasing ranks, no low==high, no duplicate triples, only the
    two fixed terminals. Raises InvalidBdd on the first violation."""
    seen_triples: set[tuple[int, int, int]] = set()
    n = len(b.order)
    for v in b.postorder:
        if v < 2:
            continue
        rank, low, high = b.store.ranks[v], b.store.lows[v], b.store.highs[v]
        if not 0 <= rank < n:
            raise InvalidBdd(f"node {v} has rank {rank} outside the order")
        if low == high:
            raise InvalidBdd(f"node {v} has equal children")
        triple = (rank, low, high)
        if triple in seen_triples:
            raise InvalidBdd(f"duplicate node for triple {triple}")
        seen_triples.add(triple)
        for child in (low, high):
            if child >= 2:
                if b.store.ranks[child] <= rank:
                    raise InvalidBdd(f"rank does not increase from {v} to {child}")
            elif child not in (FALSE, TRUE):
                raise InvalidBdd(f"node {v} points at unknown terminal {child}")


def check_minimised_shape(b: Bdd) -> None:
    """Post-minimise structural property: TRUE never hangs on a low edge and
    FALSE never hangs on a high edge."""
    for v in b.postorder:
        if v < 2:
            continue
        if b.store.lows[v] == TRUE:
            raise InvalidBdd(f"node {v} has TRUE as low child")
        if b.store.highs[v] == FALSE:
            raise InvalidBdd(f"node {v} has FALSE as high child")
