"""Reduced ordered binary decision diagrams over basic actions.

A store hash-conses nodes as (rank, low, high) triples with two fixed
terminals, FALSE=0 and TRUE=1; ranks follow a variable order over the BAS.
Structure functions compile bottom-up with a memoized apply. A gate with
one parent, of its own type, hands its operands up to that parent, so a
chain of same-type gates compiles as one gate. A gate folds its distinct
operands from the deepest root rank up, `acc = f op acc`. By Bryant (IEEE
TC 1986) f op g costs O(|f|) when every variable of f precedes those of g,
so where operands overlap little each is walked about once; pairing the
children, or a left fold, applies a growing diagram again at every step,
which made a left-deep chain of n binary gates cost n^2/2 nodes. An
operand that is one variable ranked above the accumulator needs no apply:
f op acc is then a single node, (x, FALSE, acc) for AND and (x, acc, TRUE)
for OR, made directly, so a gate over basic actions is built as its chain.

`apply` and `minimise` run on explicit work stacks, in the style of Brace,
Rudell and Bryant (DAC 1990), and no function here calls itself, so a
diagram's depth is not bounded by the interpreter's recursion limit.
Every node is made by `_Store.node`, one find-or-add on the unique
table: a (rank, low, high) triple already there is reused, and a new one
takes the next id. Each caller applies its own reduction rule first.
`Bdd.postorder` walks the store's child arrays itself. On top of the plain
ROBDD sits the minimal-solutions transform: a second diagram whose
TRUE-paths (read as the set of variables taken on a high edge) are exactly
the subset-minimal successful attacks. That diagram is meaningful under
path semantics, not boolean semantics, so its reduction rule drops nodes
with a FALSE high child instead of merging equal children. Only the folds
that need distinct minimal attacks, or a non-absorbing domain, build it
(see `analysis`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from .errors import DynamicTreeRejected, InvalidBdd, OrderMismatch
from .record import Record
from .tree import AttackTree, Dynamics, NodeType, bas_of, classify

FALSE = 0
TRUE = 1
# Rank slot marker on the work stacks of `apply` and `minimise`: _EXPAND is
# a pair still to be solved, and a real rank makes that node once both halves
# are done. In `minimise`'s g slot it marks a make step for an input node.
_EXPAND = -1


class VarOrder(Record):
    """Bijection between BAS ids and ranks 0..n-1 (rank = position).
    `_rank`, BAS id -> rank, is built here from `bas` alone."""

    _compared = ("bas",)

    def __init__(self, bas: tuple[int, ...]):
        rank = {b: i for i, b in enumerate(bas)}
        if len(rank) != len(bas):
            raise OrderMismatch("variable order repeats a basic action")
        self.__dict__.update(bas=bas, _rank=rank)

    def __len__(self):
        return len(self.bas)


class _Store:
    """Unique table shared by every diagram built from one model/order."""

    def __init__(self):
        # parallel arrays indexed by node id; slots 0/1 are terminal padding
        self.ranks = [-1, -1]
        self.lows = [FALSE, FALSE]
        self.highs = [FALSE, FALSE]
        self.unique: dict[tuple[int, int, int], int] = {}
        self.apply_memo: dict[tuple[str, int, int], int] = {}

    def node(self, rank: int, low: int, high: int) -> int:
        """The id of the node (rank, low, high): the one in the unique
        table, or a new node with the next id. The only writer of the
        table and the node arrays; it applies no reduction rule."""
        key = (rank, low, high)
        nid = self.unique.get(key)
        if nid is None:
            nid = self.unique[key] = len(self.ranks)
            self.ranks.append(rank)
            self.lows.append(low)
            self.highs.append(high)
        return nid

    def apply(self, op: str, f: int, g: int) -> int:
        """f op g for op "or" or "and", by Shannon expansion on the top
        variable; runs on an explicit stack, the low side first, so nodes
        are made in the order a recursive apply would make them. Equal
        children reduce to one; other nodes come from `node`."""
        node, ranks, lows, highs = self.node, self.ranks, self.lows, self.highs
        memo = self.apply_memo
        absorbing, neutral = (TRUE, FALSE) if op == "or" else (FALSE, TRUE)
        out: list[int] = []
        stack = [(f, g, _EXPAND)]
        while stack:
            f, g, top = stack.pop()
            if top != _EXPAND:
                high = out.pop()
                low = out.pop()
                r = low if low == high else node(top, low, high)
                memo[(op, f, g)] = r
                out.append(r)
                continue
            if f > g:
                f, g = g, f  # both ops commute
            if f == absorbing or g == absorbing:
                out.append(absorbing)
                continue
            if f == neutral or f == g:
                out.append(g)
                continue
            found = memo.get((op, f, g))
            if found is not None:
                out.append(found)
                continue
            # past the shortcuts, f and g are distinct nonterminals
            rf, rg = ranks[f], ranks[g]
            if rf < rg:
                top, f0, f1, g0, g1 = rf, lows[f], highs[f], g, g
            elif rg < rf:
                top, f0, f1, g0, g1 = rg, f, f, lows[g], highs[g]
            else:
                top, f0, f1, g0, g1 = rf, lows[f], highs[f], lows[g], highs[g]
            stack += ((f, g, top), (f1, g1, _EXPAND), (f0, g0, _EXPAND))
        return out[0]


class Bdd(Record):
    """The diagram rooted at `root` in `store`, ranked by `order`."""

    _compared = ("store", "order", "root")

    def __init__(self, store: _Store, order: VarOrder, root: int):
        self.__dict__.update(store=store, order=order, root=root)

    def __repr__(self):
        return f"Bdd(order={self.order!r}, root={self.root!r})"

    def var_at(self, node_id: int) -> int:
        """BAS id labelling a nonterminal node."""
        return self.order.bas[self.store.ranks[node_id]]

    @cached_property
    def postorder(self) -> tuple[int, ...]:
        """Reachable node ids, terminals included, each after both of its
        children: a depth-first walk from the root, the low side first,
        that finishes each node once. `minimise` numbers its nodes in this
        order and `io.emit_dot_bdd` names them by it, so it must not
        change; the stack holds only the path to the current node."""
        lows, highs = self.store.lows, self.store.highs
        done = bytearray(len(lows))
        out: list[int] = []
        path = [self.root]
        while path:
            v = path[-1]
            if v >= 2:
                low = lows[v]
                if not done[low]:
                    path.append(low)
                    continue
                high = highs[v]
                if not done[high]:
                    path.append(high)
                    continue
            path.pop()
            done[v] = 1
            out.append(v)
        return tuple(out)

    def node_count(self) -> int:
        """Nonterminal nodes reachable from the root."""
        return sum(1 for v in self.postorder if v >= 2)


# the refusal of every diagram engine on a model with SAND gates
STATIC_ONLY = "decision diagrams take static models only; this model has SAND gates"


def default_order(t: AttackTree) -> VarOrder:
    """Depth-first leftmost first-occurrence order over the BAS."""
    return VarOrder(bas_of(t))


def from_structure_function(t: AttackTree, order: Optional[VarOrder] = None) -> Bdd:
    """Compile a static model's structure function to a canonical ROBDD.

    One pass over the nodes counts each node's parents and notes the type
    of a parent. A gate with exactly one parent, of its own type, is not
    compiled: it hands its operand list up, so a chain of same-type gates
    becomes one list. A gate with two or more parents (a repeat inside one
    gate counts twice) is compiled once for all of them. Lists merge small
    into large: the longest list a child hands up is extended, never
    copied. A compiled gate sorts its distinct operands by the rank of
    their roots and folds `acc = f op acc` from the deepest one up, so f's
    root is never below acc's; when all of f's variables precede acc's in
    the order, apply copies f once, with acc below it. The apply memo lives
    for the whole compile, so a tail of late-ranked actions that several
    operands share is combined with the accumulator once. An operand that
    is a single variable ranked above acc's root is not applied: the one
    node apply would make is made directly, as is each basic action's. A
    left-deep chain of n binary AND gates makes 2n+1 nodes, where pairing
    the children made about n^2/2."""
    if classify(t).dynamics is Dynamics.DYNAMIC:
        raise DynamicTreeRejected(STATIC_ONLY)
    if order is None:
        order = default_order(t)
    elif set(order.bas) != set(bas_of(t)):
        raise OrderMismatch("order must cover exactly the model's basic actions")
    store = _Store()
    ranks, lows, highs = store.ranks, store.lows, store.highs
    node, apply, rank_of = store.node, store.apply, order._rank
    types, children = t.types, t.children
    and_type = NodeType.AND
    # a gate with one parent, of its own type, hands its operands up to it
    parents = [0] * len(types)
    parent_type = [None] * len(types)
    for ty, kids in zip(types, children):
        for c in kids:
            parents[c] += 1
            parent_type[c] = ty
    up = [p == 1 and pt is ty for p, pt, ty in zip(parents, parent_type, types)]
    # vals[v]: the diagram of v, or the operand list a handed-up gate keeps
    vals: list = [None] * len(types)
    for v in t.postorder:
        kids = children[v]
        if not kids:  # a basic action: its variable's node
            vals[v] = node(rank_of[v], FALSE, TRUE)
            continue
        lists = [c for c in kids if up[c]]
        if lists:
            # small into large: the longest list is extended, not copied
            big = max(lists, key=lambda c: len(vals[c]))
            ops = vals[big]
            for c in kids:
                if not up[c]:
                    ops.append(vals[c])
                elif c != big:
                    ops.extend(vals[c])
        else:
            ops = [vals[c] for c in kids]
        if up[v]:
            vals[v] = ops
            continue
        # deepest root first, repeats dropped: each operand then sits above
        # the accumulator
        ops = sorted(dict.fromkeys(ops), key=ranks.__getitem__, reverse=True)
        conj = types[v] is and_type  # else OR: a static model has no SAND
        acc = ops[0]
        for f in ops[1:]:
            r = ranks[f]
            if r < ranks[acc] and lows[f] == FALSE and highs[f] == TRUE:
                # f is one variable above acc: f op acc is the single node
                # apply would make; its ranks increase
                acc = node(r, FALSE, acc) if conj else node(r, acc, TRUE)
            else:
                acc = apply("and" if conj else "or", f, acc)
        vals[v] = acc
    store.apply_memo.clear()  # nothing reads it once the diagram is built
    return Bdd(store, order, vals[t.root])


def minimise(b: Bdd) -> Bdd:
    """Minimal-solutions diagram: TRUE-paths = subset-minimal solutions.

    For a node f = (x, f0, f1) of a MONOTONE function, the minimal solutions
    are those of f0 (x not needed) plus x joined onto the minimal solutions
    of f1 that do not already satisfy f0. The subtraction runs against the
    original sub-diagram f0, a monotone function we can evaluate on each
    candidate path; subtracting against the transformed low branch would
    test membership in a path family instead, which is a different (wrong)
    predicate. One loop over `b.postorder` runs every subtraction on one
    work stack, low side first like `_Store.apply`, with one memo. Nodes are
    made under the path rule, which drops FALSE high children, so no high
    edge reaches FALSE. In a monotone input no low edge reaches TRUE
    (f0 = TRUE would force f1 = f0 and the node away), so the pass refuses
    a node with one when it reaches it (InvalidBdd). Every g the
    subtraction meets has been checked by then, so g reads FALSE at
    all-false and the empty path survives it without a walk to find out.
    """
    store = b.store
    node, ranks, lows, highs = store.node, store.ranks, store.lows, store.highs
    minsol: dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
    # memo[(m, g)]: the TRUE-paths of m whose positive set does not satisfy g
    memo: dict[tuple[int, int], int] = {}
    out: list[int] = []
    stack: list[tuple[int, int, int]] = []
    # children before parents and the low side first; this order fixes the
    # ids of the nodes made
    for f in b.postorder:
        if f < 2:
            continue
        f0 = lows[f]
        if f0 == TRUE:
            # f reads TRUE at all-false without being TRUE
            raise InvalidBdd("minimise input was not monotone")
        # f's make step (g slot _EXPAND) waits, low side on `out`, for minsol[f1] without f0
        out.append(minsol[f0])
        stack += ((f, _EXPAND, ranks[f]), (minsol[highs[f]], f0, _EXPAND))
        while stack:
            m, g, rank = stack.pop()
            if rank != _EXPAND:
                # the path rule: a node whose high side died adds no paths
                high, low = out.pop(), out.pop()
                r = low if high == FALSE else node(rank, low, high)
                if g != _EXPAND:
                    memo[(m, g)] = r
                out.append(r)
                continue
            if m >= 2 and g >= 2 and ranks[g] < ranks[m]:
                # g branches on a variable no path of m mentions: it reads false
                stack.append((m, lows[g], _EXPAND))
                continue
            if m == FALSE or g == TRUE:
                out.append(FALSE)
                continue
            if g == FALSE or m == TRUE:
                # TRUE's one path is the empty one, and every g met here was
                # checked, so reads FALSE at all-false
                out.append(m)
                continue
            found = memo.get((m, g))
            if found is not None:
                out.append(found)
                continue
            rm, rg = ranks[m], ranks[g]
            if rm < rg:
                stack += ((m, g, rm), (highs[m], g, _EXPAND), (lows[m], g, _EXPAND))
            else:
                stack += ((m, g, rm), (highs[m], highs[g], _EXPAND), (lows[m], lows[g], _EXPAND))
        minsol[f] = out.pop()
    return Bdd(store, b.order, minsol[b.root])
