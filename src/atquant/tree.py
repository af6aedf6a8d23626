"""Attack tree core model.

Nodes live in integer-id columns of labels, types and child-id tuples, so
the same structure type covers proper trees and DAGs with shared subtrees.
All traversals are iterative: models with 10^5 nodes (or degenerate chains)
must not hit the interpreter recursion limit.

`freeze` takes every node's child ids in one flat list, with the offset
at which each node's run starts, and checks the store with one run of
Kahn's algorithm. It slices a node's children out of the flat list when
it pops the node, and records the structure kind and the pop order,
`AttackTree.topological`: the root first, every node after all of its
parents, and on a proper tree the left-to-right preorder. Read backwards
it is the bottom-up order (`AttackTree.postorder`) of trees and DAGs
alike, so no further walk is needed; on a proper tree the BAS order
(`AttackTree.bas`) is picked out of it too, and on a DAG a depth-first
first-occurrence walk gives the BAS order and `descendants`. `find_cycle`
names the cycles of `freeze` and of the well-formedness check. Every
bottom-up evaluation follows `AttackTree.postorder`: tree folds go through
`fold`, and `bdd` compiles in that order.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    BasWithChildren,
    CyclicStructure,
    DanglingReference,
    DuplicateLabel,
    GateWithoutChildren,
    MultipleRoots,
    NoRoot,
    TreeBuildError,
    UnknownNode,
)
from .record import Record


class NodeType(Enum):
    BAS = "bas"
    OR = "or"
    AND = "and"
    SAND = "sand"


class Shape(Enum):
    TREE = "tree"
    DAG = "dag"


class Dynamics(Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"


class StructureKind(NamedTuple):
    shape: Shape
    dynamics: Dynamics

    def __str__(self):
        return f"({self.shape.value}, {self.dynamics.value})"


class AttackTree(Record):
    """Columns indexed by node id. Made by `freeze` or `static_projection`,
    which pass the structure kind and `topological`, the order in which
    `freeze` popped the nodes: the root first and every node after all of
    its parents, on a proper tree the left-to-right preorder. Both follow
    from the columns, so equality, hash and repr leave them out."""

    _compared = ("labels", "types", "children", "root")

    def __init__(self, labels: tuple[str, ...], types: tuple[NodeType, ...],
                 children: tuple[tuple[int, ...], ...], root: int,
                 kind: StructureKind, topological: tuple[int, ...]):
        self.__dict__.update(labels=labels, types=types, children=children, root=root,
                             kind=kind, topological=topological)

    def __len__(self):
        return len(self.labels)

    def id_of(self, label: str) -> int:
        try:
            return self._by_label[label]
        except KeyError:
            raise UnknownNode(f"no node labelled {label!r}") from None

    def label_of(self, node_id: int) -> str:
        if not 0 <= node_id < len(self.labels):
            raise UnknownNode(f"no node with id {node_id}")
        return self.labels[node_id]

    # structural facts: computed on first use, then kept on the frozen instance

    @cached_property
    def _by_label(self) -> dict[str, int]:
        return dict(zip(self.labels, range(len(self.labels))))

    @cached_property
    def postorder(self) -> tuple[int, ...]:
        """Every node after all of its children: `topological` read
        backwards. Tree folds and diagram node ids follow this order."""
        return self.topological[::-1]

    @cached_property
    def bas(self) -> tuple[int, ...]:
        if self.kind.shape is Shape.TREE:
            types, bas = self.types, NodeType.BAS
            return tuple([v for v in self.topological if types[v] is bas])
        return tuple(_bas_below(self.types, self.children, self.root))


def build(defs: Iterable[tuple[str, NodeType, Sequence[str]]], root_label: str) -> AttackTree:
    """Validate and freeze a node store from (label, type, child labels) triples.

    Ids are assigned in definition order. Rejects, in this order: labels
    holding a `"`, a newline or a carriage return, which a model file
    cannot hold; duplicate labels; dangling child references and BAS with
    children / gates without, node by node; cycles (with a concrete
    witness); an undefined root; more than one parentless node; a root
    that is not the parentless node. No node can then be unreachable: in an
    acyclic graph every node lies below a parentless node, and the root is
    the only one. Repeated children inside one gate are accepted; they make
    the model a DAG and the dynamic well-formedness pass deals with the
    consequences.
    """
    defs = list(defs)
    by_label: dict[str, int] = {}
    for i, (label, _, _) in enumerate(defs):
        if '"' in label or "\n" in label or "\r" in label:
            raise TreeBuildError(
                f"label {label!r} holds a quote, a newline or a carriage return")
        if label in by_label:
            raise DuplicateLabel(f"node {label!r} defined twice")
        by_label[label] = i

    flat: list[int] = []  # every node's child ids, node after node
    offsets = [0]
    for label, ntype, child_labels in defs:
        kids = []
        for c in child_labels:
            if c not in by_label:
                raise DanglingReference(f"node {label!r} references undefined node {c!r}")
            kids.append(by_label[c])
        if ntype is NodeType.BAS and kids:
            raise BasWithChildren(f"basic action {label!r} has children")
        if ntype is not NodeType.BAS and not kids:
            raise GateWithoutChildren(f"gate {label!r} has no children")
        flat += kids
        offsets.append(len(flat))
    labels = [label for label, _, _ in defs]
    types = [ntype for _, ntype, _ in defs]
    return freeze(labels, types, flat, offsets, root_label, by_label.get(root_label))


def freeze(labels: Sequence[str], types: Sequence[NodeType], flat: Sequence[int],
           offsets: Sequence[int], root_label: str, root: Optional[int]) -> AttackTree:
    """`build`'s checks from cycles on, for columns with resolved child
    ids: node v's children are flat[offsets[v]:offsets[v + 1]], so offsets
    holds one entry more than there are nodes. root is root_label's id,
    None if no node has it. One run of Kahn's algorithm finds the cycles
    and the parentless nodes, and slices each node's children out of flat
    as it pops the node. It pops the least parentless id first and pushes
    freed children last to first, so on a proper tree it pops the
    left-to-right preorder; the tree records the pop order of every model
    as `topological`. On a proper tree, where no id occurs twice in flat, a
    node's one parent frees it, so no in-degree is counted."""
    # slices of a tuple are tuples
    labels, types, flat = tuple(labels), tuple(types), tuple(flat)
    n = len(labels)
    has_parent = set(flat)
    parentless = [v for v in range(n) if v not in has_parent]
    tree = len(has_parent) == len(flat)  # no node has two parent edges
    kind = StructureKind(
        Shape.TREE if tree else Shape.DAG,
        Dynamics.DYNAMIC if NodeType.SAND in types else Dynamics.STATIC,
    )
    children: list[tuple[int, ...]] = [()] * n
    ends = offsets[1:]
    order = []
    stack = parentless[::-1]
    if tree:  # popping a node frees all its children: it is their one parent
        while stack:
            v = stack.pop()
            order.append(v)
            lo, hi = offsets[v], ends[v]
            if lo != hi:
                kids = children[v] = flat[lo:hi]
                stack += kids[::-1]
    else:
        indeg = [0] * n
        for c in flat:
            indeg[c] += 1
        while stack:  # any discipline leaves the same nodes and in-degrees behind
            v = stack.pop()
            order.append(v)
            lo, hi = offsets[v], ends[v]
            if lo != hi:
                kids = children[v] = flat[lo:hi]
                for c in reversed(kids):
                    indeg[c] -= 1
                    if indeg[c] == 0:
                        stack.append(c)
    if len(order) != n:
        # Kahn never pops the nodes on a cycle or below one; a search from
        # each of them in turn, least first, inside that set finds a cycle.
        popped = set(order)
        left = [v for v in range(n) if v not in popped]
        succ = [[c for c in flat[lo:hi] if c not in popped]
                for lo, hi in zip(offsets, ends)] + [left]
        cycle = find_cycle(n, succ)
        cycle.append(cycle[0])
        names = " -> ".join(repr(labels[i]) for i in cycle)
        raise CyclicStructure(f"cycle in child relation: {names}", cycle=cycle)

    if root is None:
        raise DanglingReference(f"declared root {root_label!r} is not defined")
    if len(parentless) > 1:
        names = ", ".join(repr(labels[i]) for i in parentless)
        raise MultipleRoots(f"more than one root candidate: {names}")
    if parentless[0] != root:
        raise NoRoot(f"declared root {root_label!r} is not the unique parentless node")
    return AttackTree(labels, types, tuple(children), root, kind, tuple(order))


def find_cycle(start: int, succ: Sequence[Iterable[int]]) -> Optional[list[int]]:
    """The nodes of a cycle reachable from start, in order, or None; node v has
    the successors succ[v]. The search is depth first, successors in order, and
    the first edge back to a node on the search path closes the cycle."""
    state = bytearray(len(succ))  # 0 unseen, 1 on the path, 2 finished
    state[start] = 1
    path = [start]
    pending = [iter(succ[start])]
    while pending:
        for w in pending[-1]:
            if state[w] == 1:
                return path[path.index(w):]
            if state[w] == 0:
                state[w] = 1
                path.append(w)
                pending.append(iter(succ[w]))
                break
        else:
            state[path.pop()] = 2
            pending.pop()
    return None


def fold(t: AttackTree, leaves: Sequence, or_op, and_op, seq_op=None):
    """Bottom-up evaluation at the root: leaves[i] is the value of the i-th
    BAS in `bas_of` order, and or_op, and_op and seq_op (and_op if None)
    each combine the iterable of the values of an OR, AND and SAND gate's
    children. A shared node is evaluated once and its value reused by
    every parent. The gate type is told apart by identity, which costs no
    hash of the enum member."""
    types, children = t.types, t.children
    disj, conj = NodeType.OR, NodeType.AND
    if seq_op is None:
        seq_op = and_op
    vals: list = [None] * len(t)
    for b, a in zip(t.bas, leaves):
        vals[b] = a
    get = vals.__getitem__
    for v in t.postorder:
        kids = children[v]
        if kids:
            ty = types[v]
            op = or_op if ty is disj else and_op if ty is conj else seq_op
            vals[v] = op(map(get, kids))
    return vals[t.root]


def classify(t: AttackTree) -> StructureKind:
    """Tree vs DAG (any node referenced twice, same-gate repeats included)
    and static vs dynamic (any SAND present), as `freeze` recorded them."""
    return t.kind


def bas_of(t: AttackTree) -> tuple[int, ...]:
    """BAS ids in depth-first leftmost order, first occurrence only."""
    return t.bas


def descendants(t: AttackTree, node_id: int) -> frozenset[int]:
    """BAS ids reachable at or below the given node."""
    t.label_of(node_id)  # raises UnknownNode
    return frozenset(_bas_below(t.types, t.children, node_id))


def _bas_below(types: Sequence[NodeType], children: Sequence[Sequence[int]],
               start: int) -> list[int]:
    """BAS ids at or below start in depth-first leftmost order, first
    occurrence only: a node is marked seen when it is popped."""
    out: list[int] = []
    seen = bytearray(len(types))
    stack = [start]
    bas = NodeType.BAS
    while stack:
        v = stack.pop()
        if seen[v]:
            continue
        seen[v] = 1
        if types[v] is bas:
            out.append(v)
        else:
            stack.extend(reversed(children[v]))
    return out


def static_projection(t: AttackTree) -> AttackTree:
    """Retype every SAND gate as AND; ids, labels and children are kept.

    Idempotent, and the identity on static models (same object back).
    """
    if t.kind.dynamics is Dynamics.STATIC:
        return t
    sand, conj = NodeType.SAND, NodeType.AND
    types = tuple([conj if ty is sand else ty for ty in t.types])
    return AttackTree(t.labels, types, t.children, t.root,
                      StructureKind(t.kind.shape, Dynamics.STATIC), t.topological)
