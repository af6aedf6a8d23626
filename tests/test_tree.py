import random
from pathlib import Path

import pytest

from atquant import (ModelDocument, bas_of, build, classify, emit_model, parse_model,
                     static_projection, structure_function)
from atquant.errors import (
    BasWithChildren,
    CyclicStructure,
    DanglingReference,
    DuplicateLabel,
    GateWithoutChildren,
    MultipleRoots,
    NoRoot,
    UnknownNode,
)
from atquant.tree import Dynamics, NodeType, Shape, StructureKind, descendants, postorder

from helpers import overlap, labels, rand_dag, rand_tree, exploit, treasure, tt

B, O, A, S = NodeType.BAS, NodeType.OR, NodeType.AND, NodeType.SAND


def test_build_assigns_ids_in_definition_order():
    t = build([("r", O, ["x", "y"]), ("x", B, []), ("y", B, [])], "r")
    assert [n.label for n in t.nodes] == ["r", "x", "y"]
    assert t.root == 0
    assert t.node(1).label == "x"
    assert t.id_of("y") == 2
    assert t.label_of(0) == "r"


def test_build_rejects_duplicate_labels():
    with pytest.raises(DuplicateLabel):
        build([("r", O, ["a"]), ("a", B, []), ("a", B, [])], "r")


def test_build_rejects_dangling_child():
    with pytest.raises(DanglingReference):
        build([("r", O, ["ghost"])], "r")


def test_build_rejects_dangling_root():
    with pytest.raises(DanglingReference):
        build([("r", O, ["a"]), ("a", B, [])], "nope")


def test_build_rejects_bas_with_children():
    with pytest.raises(BasWithChildren):
        build([("r", O, ["a"]), ("a", B, ["r"])], "r")


def test_build_rejects_childless_gate():
    with pytest.raises(GateWithoutChildren):
        build([("r", O, [])], "r")


def test_build_rejects_cycle_with_witness():
    with pytest.raises(CyclicStructure) as ei:
        build([("a", O, ["b"]), ("b", O, ["a"]), ("r", B, [])], "r")
    assert "'a' -> 'b' -> 'a'" in str(ei.value) or "'b' -> 'a' -> 'b'" in str(ei.value)
    assert len(ei.value.cycle) == 3
    assert ei.value.cycle[0] == ei.value.cycle[-1]


def test_cycle_witness_skips_nodes_below_the_cycle():
    # a and the chain b -> c hang below the self-loop on r and reach no cycle
    defs = [("r", O, ["a", "b", "r"]), ("a", B, []), ("b", O, ["c"]), ("c", B, [])]
    with pytest.raises(CyclicStructure) as ei:
        build(defs, "r")
    assert ei.value.cycle == [0, 0]
    assert "'r' -> 'r'" in str(ei.value)


def test_build_rejects_multiple_roots():
    defs = [("r", O, ["a"]), ("s", O, ["a"]), ("a", B, [])]
    with pytest.raises(MultipleRoots):
        build(defs, "r")


def test_build_rejects_wrong_root():
    # a is the declared root but sits below g, and g itself is parentless
    defs = [("g", O, ["a"]), ("a", B, [])]
    with pytest.raises(NoRoot):
        build(defs, "a")


def test_classify_golden_shapes():
    assert classify(treasure()).shape is Shape.TREE
    assert classify(treasure()).dynamics is Dynamics.STATIC
    assert classify(overlap()).shape is Shape.DAG
    assert classify(exploit()).shape is Shape.DAG
    assert classify(exploit()).dynamics is Dynamics.DYNAMIC
    assert str(classify(treasure())) == "(tree, static)"


def test_same_gate_repetition_is_a_dag():
    t = build([("r", A, ["a", "a"]), ("a", B, [])], "r")
    assert classify(t).shape is Shape.DAG


def test_single_bas_model():
    t = build([("a", B, [])], "a")
    assert classify(t).shape is Shape.TREE
    assert bas_of(t) == (0,)
    assert structure_function(t, {0})
    assert not structure_function(t, set())


def test_bas_of_is_leftmost_first_occurrence():
    t = treasure()
    assert [t.label_of(b) for b in bas_of(t)] == ["n", "t", "p"]
    d = exploit()
    assert [d.label_of(b) for b in bas_of(d)] == ["ff", "w", "cc"]


def test_descendants_collects_bas_only():
    d = exploit()
    seq = next(n for n in d.nodes if n.type is S)
    assert labels(d, descendants(d, seq.id)) == {"w", "cc"}
    assert labels(d, descendants(d, d.root)) == {"ff", "w", "cc"}
    assert descendants(d, d.id_of("cc")) == frozenset({d.id_of("cc")})


def test_static_projection_retypes_sand_only():
    d = exploit()
    p = static_projection(d)
    assert classify(p).dynamics is Dynamics.STATIC
    assert [n.label for n in p.nodes] == [n.label for n in d.nodes]
    assert all(n.children == m.children for n, m in zip(p.nodes, d.nodes))
    kinds = {n.label: n.type for n in p.nodes}
    assert kinds[d.node(d.id_of("cc")).label] is B


def test_static_projection_is_identity_on_static_trees():
    t = treasure()
    assert static_projection(t) is t
    p = static_projection(exploit())
    assert static_projection(p) is p


def test_unknown_node_lookups_raise():
    t = treasure()
    with pytest.raises(UnknownNode):
        t.node(99)
    with pytest.raises(UnknownNode):
        t.id_of("zzz")


def test_build_rejects_parentless_island():
    # An acyclic store whose root is its only parentless node reaches every
    # node, so a node the root misses shows up as a second parentless node.
    defs = [("r", O, ["a"]), ("a", B, []), ("x", O, ["y"]), ("y", B, [])]
    with pytest.raises(MultipleRoots, match="'r', 'x'"):
        build(defs, "r")


def test_build_reports_cycles_before_root_problems():
    cyclic = [("a", O, ["b"]), ("b", O, ["a"]), ("r", O, ["c"]), ("c", B, [])]
    with pytest.raises(CyclicStructure):
        build(cyclic, "nope")  # undefined root
    with pytest.raises(CyclicStructure):
        build(cyclic + [("s", O, ["c"])], "r")  # two parentless nodes


def test_random_trees_are_trees_and_dags_are_dags():
    rng = random.Random(7)
    for _ in range(50):
        t = rand_tree(rng, 8)
        assert classify(t).shape is Shape.TREE
        refs = [c for n in t.nodes for c in n.children]
        assert len(refs) == len(set(refs))
    for _ in range(50):
        g = rand_dag(rng, 8)
        assert classify(g).shape is Shape.DAG


def test_tuple_tree_builder_shares_repeated_leaves():
    t = tt(("and", ("or", "a", "b"), ("or", "b", "c")))
    assert classify(t).shape is Shape.DAG
    assert len([n for n in t.nodes if n.type is B]) == 3


def test_postorder_finishes_children_first_once_each():
    rng = random.Random(11)
    for t in [overlap(), exploit()] + [rand_dag(rng) for _ in range(30)]:
        order = t.postorder
        assert sorted(order) == list(range(len(t))) and order[-1] == t.root
        pos = {v: i for i, v in enumerate(order)}
        for n in t.nodes:
            assert all(pos[c] < pos[n.id] for c in n.children)
            below = postorder(n.id, lambda v: t.nodes[v].children)
            assert below[-1] == n.id
            assert {v for v in below if t.nodes[v].type is B} == descendants(t, n.id)


def test_structural_facts_are_computed_once():
    t = overlap()
    assert t.postorder is t.postorder
    assert classify(t) is classify(t) and bas_of(t) is bas_of(t)
    assert t == tt(("and", ("or", "a", "b"), ("or", "b", "c")))


def _reference_kind(t) -> StructureKind:
    """Shape by a seen-set over every child reference, dynamics by any SAND."""
    seen: set[int] = set()
    shape = Shape.TREE
    for n in t.nodes:
        for c in n.children:
            if c in seen:
                shape = Shape.DAG
            seen.add(c)
    sand = any(n.type is S for n in t.nodes)
    return StructureKind(shape, Dynamics.DYNAMIC if sand else Dynamics.STATIC)


def _reference_bas_below(nodes, start) -> list[int]:
    """BAS at or below start in depth-first leftmost order, first occurrence
    only, by a walk with a seen-set."""
    out: list[int] = []
    seen: set[int] = set()
    stack = [start]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        if nodes[v].type is B:
            out.append(v)
        else:
            stack.extend(reversed(nodes[v].children))
    return out


def _reference_bas(t) -> tuple[int, ...]:
    """BAS in depth-first leftmost order, first occurrence only."""
    return tuple(_reference_bas_below(t.nodes, t.root))


def _facts_models():
    rng = random.Random(23)
    models = [build([("r", A, ["a", "a"]), ("a", B, [])], "r"),
              build([("r", O, ["g", "b"]), ("g", S, ["a", "b", "a"]), ("a", B, []),
                     ("b", B, [])], "r")]
    for _ in range(150):
        models += [rand_tree(rng, 12), rand_tree(rng, 12, dynamic=True),
                   rand_dag(rng, 9), rand_dag(rng, 9, dynamic=True)]
    models += [parse_model(p.read_text()).tree
               for p in sorted((Path(__file__).parent.parent / "models").glob("*.at"))]
    return models + [static_projection(t) for t in models]


def _reference_descendants(t, order) -> list[frozenset]:
    """Each node's BAS at or below it, unioned over a bottom-up order."""
    below: list = [None] * len(t)
    for v in order:
        n = t.nodes[v]
        below[v] = frozenset({v}) if n.type is B else frozenset().union(
            *(below[c] for c in n.children))
    return below


def test_recorded_facts_match_brute_force_walks():
    for t in _facts_models():
        assert classify(t) == _reference_kind(t)
        order = postorder(t.root, lambda v: t.nodes[v].children)
        assert t.postorder == order
        assert bas_of(t) == _reference_bas(t)
        below = _reference_descendants(t, order)
        assert all(descendants(t, v) == below[v] for v in range(len(t)))
    repeat = build([("r", A, ["a", "a"]), ("a", B, [])], "r")
    assert classify(repeat).shape is Shape.DAG
    assert classify(static_projection(exploit())) == StructureKind(Shape.DAG, Dynamics.STATIC)


def test_proper_trees_take_their_orders_from_freeze(monkeypatch):
    from atquant import tree

    rng = random.Random(31)
    static = [rand_tree(rng, 12) for _ in range(40)]
    dynamic = [rand_tree(rng, 12, dynamic=True) for _ in range(40)]
    trees = static + [parse_model(emit_model(ModelDocument(t))).tree for t in static + dynamic]
    trees += [static_projection(t) for t in dynamic if classify(t).dynamics is Dynamics.DYNAMIC]
    assert all(classify(t).shape is Shape.TREE for t in trees)
    expected = [(postorder(t.root, lambda v: t.nodes[v].children), _reference_bas(t))
                for t in trees]

    def walked(*args):
        raise AssertionError("a proper tree walked again after freeze")

    monkeypatch.setattr(tree, "postorder", walked)
    monkeypatch.setattr(tree, "_bas_below", walked)
    assert [(t.postorder, bas_of(t)) for t in trees] == expected


def _walked_dags() -> list:
    """400 random DAGs and one 3,000 levels deep."""
    rng = random.Random(41)
    dags = [rand_dag(rng, 10) for _ in range(300)] + [rand_dag(rng, 8, True) for _ in range(100)]
    # g_i = OR(g_i-1, b_i) down 3,000 levels, b0 shared by the root too
    n = 3000
    defs = [(f"b{i}", B, []) for i in range(n)] + [("g0", O, ["b0", "b1"])]
    defs += [(f"g{i}", O if i % 2 else A, [f"g{i - 1}", f"b{i}"]) for i in range(1, n)]
    dags += [build(defs + [("r", A, ["b0", f"g{n - 1}", "b0"])], "r")]
    assert all(classify(t).shape is Shape.DAG for t in dags)
    return dags


def test_dag_postorder_is_the_generic_walk(monkeypatch):
    # a DAG walks its children tuples with a walk of its own, which must
    # give exactly the generic order: folds and diagram ids follow it
    from atquant import tree

    dags = _walked_dags()
    expected = [postorder(t.root, lambda v: t.nodes[v].children) for t in dags]

    def walked(*args):
        raise AssertionError("a DAG walked by the generic function")

    monkeypatch.setattr(tree, "postorder", walked)
    assert [t.postorder for t in dags] == expected


def test_dag_bas_walk_matches_the_seen_set_walk():
    # the BAS order of a DAG, and descendants, come from one walk with a
    # bytearray of seen marks; a seen-set walk is the reference
    from atquant.tree import _bas_below

    for t in _walked_dags():
        starts = range(len(t)) if len(t) < 100 else [t.root, *range(0, len(t), 97)]
        for v in starts:
            want = _reference_bas_below(t.nodes, v)
            assert _bas_below(t.nodes, v) == want
            assert descendants(t, v) == frozenset(want)
        assert bas_of(t) == tuple(_reference_bas_below(t.nodes, t.root))


def test_node_is_a_named_tuple():
    n = treasure().node(0)
    assert n._fields == ("id", "label", "type", "children")
    assert n == (n.id, n.label, n.type, n.children)
