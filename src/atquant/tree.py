"""Attack tree core model.

Nodes live in a contiguous integer-id store; children are id tuples, so the
same structure type covers proper trees and DAGs with shared subtrees. All
traversals are iterative: models with 10^5 nodes (or degenerate chains) must
not hit the interpreter recursion limit.

An `AttackTree` records its structure kind when it is made: `freeze` reads
it off the in-degrees and node types it checks anyway, and
`static_projection` derives it from the kind of its input. Four walks
answer every structural question. `freeze` runs Kahn's algorithm, and on a
proper tree its pop order is the left-to-right preorder, which the tree
records: the bottom-up order (`AttackTree.postorder`, the preorder read
backwards) and the BAS order (`AttackTree.bas`, its BAS in turn) then cost
no further walk. On a DAG, `AttackTree.postorder` walks the children
tuples itself, in the order the generic `postorder` function gives, and
the depth-first first-occurrence BAS walk gives the BAS order; the BAS
walk also answers `descendants`. `find_cycle` names the cycles of `freeze`
and of the well-formedness check. The generic `postorder` function is the
reference for the one order behind every bottom-up evaluation: tree folds
go through `fold`, and the decision diagrams of `bdd` walk their nodes in
the order it gives, each with a walk of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import (
    BasWithChildren,
    CyclicStructure,
    DanglingReference,
    DuplicateLabel,
    GateWithoutChildren,
    MultipleRoots,
    NoRoot,
    UnknownNode,
)


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


@dataclass(frozen=True)
class StructureKind:
    shape: Shape
    dynamics: Dynamics

    def __str__(self):
        return f"({self.shape.value}, {self.dynamics.value})"


class Node(NamedTuple):
    """A named tuple, not a frozen dataclass: as immutable, compared by value
    too, and less than half as costly to build, which counts at 10^5 nodes.
    Like any tuple it also equals a plain tuple of its four fields."""

    id: int
    label: str
    type: NodeType
    children: tuple[int, ...]


@dataclass(frozen=True)
class AttackTree:
    """Made by `build` and `io.parse_model`, both through `freeze`, or by
    `static_projection`; each passes the structure kind on as `kind`, and
    on a proper tree its left-to-right preorder as `preorder` (None on a
    DAG)."""

    nodes: tuple[Node, ...]  # index == node id
    root: int
    kind: StructureKind = field(compare=False, repr=False)
    preorder: Optional[tuple[int, ...]] = field(compare=False, repr=False)

    def __len__(self):
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        if not 0 <= node_id < len(self.nodes):
            raise UnknownNode(f"no node with id {node_id}")
        return self.nodes[node_id]

    def id_of(self, label: str) -> int:
        try:
            return self._by_label[label]
        except KeyError:
            raise UnknownNode(f"no node labelled {label!r}") from None

    def label_of(self, node_id: int) -> str:
        return self.node(node_id).label

    # structural facts: computed on first use, then kept on the frozen instance

    @cached_property
    def _by_label(self) -> dict[str, int]:
        return {n.label: n.id for n in self.nodes}

    @cached_property
    def postorder(self) -> tuple[int, ...]:
        """Every node after all of its children: the proper tree's preorder
        read backwards, or on a DAG the order of `postorder(root, lambda v:
        nodes[v].children)` from a walk of its own. The path holds each
        gate on it with an iterator over its children, last first; a BAS
        is finished as soon as it is met."""
        if self.preorder is not None:
            return self.preorder[::-1]
        nodes = self.nodes
        done = bytearray(len(nodes))
        out: list[int] = []
        path = [self.root]
        pending = [reversed(nodes[self.root].children)]
        while pending:
            for c in pending[-1]:
                if not done[c]:
                    kids = nodes[c].children
                    if kids:
                        path.append(c)
                        pending.append(reversed(kids))
                        break
                    done[c] = 1
                    out.append(c)
            else:
                v = path.pop()
                pending.pop()
                done[v] = 1
                out.append(v)
        return tuple(out)

    @cached_property
    def bas(self) -> tuple[int, ...]:
        if self.preorder is not None:
            nodes, bas = self.nodes, NodeType.BAS
            return tuple([v for v in self.preorder if nodes[v].type is bas])
        return tuple(_bas_below(self.nodes, self.root))


def build(defs: Iterable[tuple[str, NodeType, Sequence[str]]], root_label: str) -> AttackTree:
    """Validate and freeze a node store from (label, type, child labels) triples.

    Ids are assigned in definition order. Rejects, in this order: duplicate
    labels; dangling child references and BAS with children / gates without,
    node by node; cycles (with a concrete witness); an undefined root; more
    than one parentless node; a root that is not the parentless node. No
    node can then be unreachable: in an acyclic graph every node lies below
    a parentless node, and the root is the only one. Repeated children
    inside one gate are accepted; they make the model a DAG and the dynamic
    well-formedness pass deals with the consequences.
    """
    defs = list(defs)
    by_label: dict[str, int] = {}
    for i, (label, _, _) in enumerate(defs):
        if label in by_label:
            raise DuplicateLabel(f"node {label!r} defined twice")
        by_label[label] = i

    nodes = []
    for i, (label, ntype, child_labels) in enumerate(defs):
        kids = []
        for c in child_labels:
            if c not in by_label:
                raise DanglingReference(f"node {label!r} references undefined node {c!r}")
            kids.append(by_label[c])
        if ntype is NodeType.BAS and kids:
            raise BasWithChildren(f"basic action {label!r} has children")
        if ntype is not NodeType.BAS and not kids:
            raise GateWithoutChildren(f"gate {label!r} has no children")
        nodes.append(Node(i, label, ntype, tuple(kids)))
    return freeze(nodes, root_label, by_label.get(root_label))


def freeze(nodes: Sequence[Node], root_label: str, root: Optional[int]) -> AttackTree:
    """`build`'s checks from cycles on, for nodes whose labels are resolved:
    node i has id i and children in range; root is root_label's id, None if
    no node has it. One run of Kahn's algorithm finds the cycles and, as its
    initial stack, the parentless nodes. The in-degrees and the node types
    also give the structure kind the tree records. The stack pops the least
    parentless id first and pushes a node's freed children last to first,
    so on a proper tree it pops the left-to-right preorder, which the tree
    records."""
    indeg = [0] * len(nodes)
    for n in nodes:
        for c in n.children:
            indeg[c] += 1
    kind = StructureKind(
        Shape.DAG if max(indeg, default=0) > 1 else Shape.TREE,
        Dynamics.DYNAMIC if NodeType.SAND in map(attrgetter("type"), nodes) else Dynamics.STATIC,
    )
    parentless = [n.id for n in nodes if indeg[n.id] == 0]
    stack = parentless[::-1]
    order = []
    while stack:  # any discipline leaves the same nodes and in-degrees behind
        v = stack.pop()
        order.append(v)
        for c in reversed(nodes[v].children):
            indeg[c] -= 1
            if indeg[c] == 0:
                stack.append(c)
    if len(order) != len(nodes):
        # Kahn leaves the nodes on a cycle or below one; a search from each
        # of them in turn, least first, inside that set finds a cycle.
        left = [v for v in range(len(nodes)) if indeg[v] > 0]
        succ = [[c for c in n.children if indeg[c] > 0] for n in nodes] + [left]
        cycle = find_cycle(len(nodes), succ)
        cycle.append(cycle[0])
        names = " -> ".join(repr(nodes[i].label) for i in cycle)
        raise CyclicStructure(f"cycle in child relation: {names}", cycle=cycle)

    if root is None:
        raise DanglingReference(f"declared root {root_label!r} is not defined")
    if len(parentless) > 1:
        names = ", ".join(repr(nodes[i].label) for i in parentless)
        raise MultipleRoots(f"more than one root candidate: {names}")
    if parentless[0] != root:
        raise NoRoot(f"declared root {root_label!r} is not the unique parentless node")
    preorder = tuple(order) if kind.shape is Shape.TREE else None
    return AttackTree(tuple(nodes), root, kind, preorder)


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


def postorder(start: int, children: Callable[[int], Sequence[int]]) -> tuple[int, ...]:
    """Ids reachable from start through children(v), each after all of its
    children; the last child listed is walked first, and the graph must be
    acyclic. Tree folds and BDD node ids follow this order, so it must not
    change."""
    done: set[int] = set()
    out: list[int] = []
    stack = [start]
    while stack:
        v = stack.pop()
        if v in done:
            continue
        pending = [c for c in children(v) if c not in done]
        if pending:
            stack.append(v)
            stack.extend(pending)
            continue
        done.add(v)
        out.append(v)
    return tuple(out)


def fold(t: AttackTree, leaf: Callable[[Node], Any], gate: Callable[[Node, list], Any]):
    """Bottom-up evaluation at the root: leaf(node) gives a BAS its value,
    gate(node, child values) combines a gate's. A shared node is evaluated
    once and its value reused by every parent."""
    nodes, bas = t.nodes, NodeType.BAS
    vals: list[Any] = [None] * len(nodes)
    for v in t.postorder:
        n = nodes[v]
        vals[v] = leaf(n) if n.type is bas else gate(n, [vals[c] for c in n.children])
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
    t.node(node_id)  # raises UnknownNode
    return frozenset(_bas_below(t.nodes, node_id))


def _bas_below(nodes: Sequence[Node], start: int) -> list[int]:
    """BAS ids at or below start in depth-first leftmost order, first
    occurrence only: a node is marked seen when it is popped. `NodeType.BAS`
    is read once, as looking up an enum member costs about ten global reads."""
    out: list[int] = []
    seen = bytearray(len(nodes))
    stack = [start]
    bas = NodeType.BAS
    while stack:
        v = stack.pop()
        if seen[v]:
            continue
        seen[v] = 1
        node = nodes[v]
        if node.type is bas:
            out.append(v)
        else:
            stack.extend(reversed(node.children))
    return out


def static_projection(t: AttackTree) -> AttackTree:
    """Retype every SAND gate as AND; ids, labels and children are kept.

    Idempotent, and the identity on static models (same object back).
    """
    if t.kind.dynamics is Dynamics.STATIC:
        return t
    nodes = tuple(
        Node(n.id, n.label, NodeType.AND, n.children) if n.type is NodeType.SAND else n
        for n in t.nodes
    )
    return AttackTree(nodes, t.root, StructureKind(t.kind.shape, Dynamics.STATIC), t.preorder)
