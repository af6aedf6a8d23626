import math
import operator
import random
import re
from itertools import accumulate
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
    TreeBuildError,
    UnknownNode,
)
from atquant.io import _match, _parse_tokens
from atquant.tree import (Dynamics, NodeType, Shape, StructureKind, descendants,
                          find_cycle, freeze)

from helpers import overlap, labels, postorder, rand_dag, rand_tree, exploit, treasure, tt

B, O, A, S = NodeType.BAS, NodeType.OR, NodeType.AND, NodeType.SAND


def test_build_assigns_ids_in_definition_order():
    t = build([("r", O, ["x", "y"]), ("x", B, []), ("y", B, [])], "r")
    assert t.labels == ("r", "x", "y")
    assert t.types == (O, B, B)
    assert t.children == ((1, 2), (), ())
    assert t.root == 0
    assert t.id_of("y") == 2
    assert t.label_of(0) == "r"


def test_build_rejects_duplicate_labels():
    with pytest.raises(DuplicateLabel):
        build([("r", O, ["a"]), ("a", B, []), ("a", B, [])], "r")


def test_build_rejects_labels_a_model_file_cannot_hold():
    # emit_model writes a label between quotes, one definition a line, and
    # a file read with universal newlines turns a carriage return into one
    for bad in ('a"b', "c\nd", "e\rf", "g\r\nh"):
        with pytest.raises(TreeBuildError, match=re.escape(repr(bad))):
            build([("r", O, [bad, "x"]), (bad, B, []), ("x", B, [])], "r")
    # comment marks, backslashes, spaces and non-ASCII letters read back
    odd = ["a//b", "// c", "d\\", "\\e", "two  words", " ", "naïve", "日本"]
    t = build([("r//", A, odd), *((label, B, []) for label in odd)], "r//")
    again = parse_model(emit_model(ModelDocument(t))).tree
    assert again == t and again.labels == ("r//", *odd)


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
    seq = d.types.index(S)
    assert labels(d, descendants(d, seq)) == {"w", "cc"}
    assert labels(d, descendants(d, d.root)) == {"ff", "w", "cc"}
    assert descendants(d, d.id_of("cc")) == frozenset({d.id_of("cc")})


def test_static_projection_retypes_sand_only():
    d = exploit()
    p = static_projection(d)
    assert classify(p).dynamics is Dynamics.STATIC
    assert p.labels == d.labels
    assert p.children == d.children
    assert p.types == tuple(A if ty is S else ty for ty in d.types)
    assert p.types[d.id_of("cc")] is B


def test_static_projection_is_identity_on_static_trees():
    t = treasure()
    assert static_projection(t) is t
    p = static_projection(exploit())
    assert static_projection(p) is p


def test_exports_resolve_and_leave_out_the_removed_names():
    import atquant
    from atquant import analysis, bdd, domains, errors, semantics, tree

    assert all(hasattr(atquant, name) for name in atquant.__all__)
    removed = {tree: ("Node", "postorder"), analysis: ("naive_bottom_up", "BuBddRun"),
               semantics: ("coherence_check", "successful_poset", "HasseDiagram",
                           "OrderingGraph", "hasse", "Attack", "AttackSuite"),
               errors: ("EmptySuite",),
               domains: ("KTopMode", "_Infinity", "nat_min", "nat_max", "prob_max",
                         "prob_mul"),
               bdd: ("validate", "check_minimised_shape", "top_paths")}
    for module, names in removed.items():
        assert not set(names) & set(atquant.__all__)
        assert not any(hasattr(module, name) for name in names)
    assert not any(hasattr(tree.AttackTree, name) for name in ("nodes", "node"))
    assert not any(hasattr(bdd.Bdd, name) for name in ("evaluate", "canonical"))
    assert not any(hasattr(bdd.VarOrder, name) for name in ("rank_of", "bas_at"))
    flags = ("is_semiring", "is_semiring_dynamic", "ktop_mode", "directions", "seq_equals_and")
    assert not any(hasattr(atquant.builtin("min-cost"), name) for name in flags)
    assert atquant.INF is math.inf
    for name in atquant.BUILTIN_NAMES:
        d = atquant.builtin(name)
        for op in (d.or_op, d.and_op, d.seq_op):
            assert op in (None, min, max, operator.mul, domains.nat_add), (name, op)


def test_unknown_node_lookups_raise():
    t = treasure()
    with pytest.raises(UnknownNode):
        t.label_of(99)
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
        refs = [c for kids in t.children for c in kids]
        assert len(refs) == len(set(refs))
    for _ in range(50):
        g = rand_dag(rng, 8)
        assert classify(g).shape is Shape.DAG


def test_tuple_tree_builder_shares_repeated_leaves():
    t = tt(("and", ("or", "a", "b"), ("or", "b", "c")))
    assert classify(t).shape is Shape.DAG
    assert t.types.count(B) == 3


def test_postorder_finishes_children_first_once_each():
    rng = random.Random(11)
    for t in [overlap(), exploit()] + [rand_dag(rng) for _ in range(30)]:
        order = t.postorder
        assert sorted(order) == list(range(len(t))) and order[-1] == t.root
        pos = {v: i for i, v in enumerate(order)}
        for v, kids in enumerate(t.children):
            assert all(pos[c] < pos[v] for c in kids)
            below = postorder(v, t.children.__getitem__)
            assert below[-1] == v
            assert {w for w in below if t.types[w] is B} == descendants(t, v)


def test_structural_facts_are_computed_once():
    t = overlap()
    assert t.postorder is t.postorder
    assert classify(t) is classify(t) and bas_of(t) is bas_of(t)
    assert t == tt(("and", ("or", "a", "b"), ("or", "b", "c")))


def _reference_kind(t) -> StructureKind:
    """Shape by a seen-set over every child reference, dynamics by any SAND."""
    seen: set[int] = set()
    shape = Shape.TREE
    for kids in t.children:
        for c in kids:
            if c in seen:
                shape = Shape.DAG
            seen.add(c)
    sand = any(ty is S for ty in t.types)
    return StructureKind(shape, Dynamics.DYNAMIC if sand else Dynamics.STATIC)


def _reference_bas_below(types, children, start) -> list[int]:
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
        if types[v] is B:
            out.append(v)
        else:
            stack.extend(reversed(children[v]))
    return out


def _reference_bas(t) -> tuple[int, ...]:
    """BAS in depth-first leftmost order, first occurrence only."""
    return tuple(_reference_bas_below(t.types, t.children, t.root))


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
        below[v] = frozenset({v}) if t.types[v] is B else frozenset().union(
            *(below[c] for c in t.children[v]))
    return below


def test_recorded_facts_match_brute_force_walks():
    for t in _facts_models():
        assert classify(t) == _reference_kind(t)
        order = _reference_kahn(t)[::-1]
        assert t.postorder == order
        if classify(t).shape is Shape.TREE:
            assert order == postorder(t.root, t.children.__getitem__)
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
    expected = [(postorder(t.root, t.children.__getitem__), _reference_bas(t))
                for t in trees]

    def walked(*args):
        raise AssertionError("a proper tree walked again after freeze")

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


def test_dag_postorder_is_the_kahn_order_reversed():
    # a DAG's bottom-up order is freeze's pop order read backwards, as a
    # proper tree's is: folds and diagram ids follow it
    dags = _walked_dags()
    assert [t.postorder for t in dags] == [_reference_kahn(t)[::-1] for t in dags]


def test_dag_bas_walk_matches_the_seen_set_walk():
    # the BAS order of a DAG, and descendants, come from one walk with a
    # bytearray of seen marks; a seen-set walk is the reference
    from atquant.tree import _bas_below

    for t in _walked_dags():
        starts = range(len(t)) if len(t) < 100 else [t.root, *range(0, len(t), 97)]
        for v in starts:
            want = _reference_bas_below(t.types, t.children, v)
            assert _bas_below(t.types, t.children, v) == want
            assert descendants(t, v) == frozenset(want)
        assert bas_of(t) == tuple(_reference_bas_below(t.types, t.children, t.root))


def _reference_freeze(labels, types, children, root_label, root):
    """`freeze` node by node: in-degrees counted edge by edge, the kind read
    off them, and Kahn's algorithm decrementing every child. Returns (kind,
    pop order) or raises what `freeze` raises."""
    n = len(labels)
    indeg = [0] * n
    for kids in children:
        for c in kids:
            indeg[c] += 1
    kind = StructureKind(
        Shape.DAG if max(indeg, default=0) > 1 else Shape.TREE,
        Dynamics.DYNAMIC if any(ty is S for ty in types) else Dynamics.STATIC,
    )
    parentless = [v for v in range(n) if indeg[v] == 0]
    stack = parentless[::-1]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for c in reversed(children[v]):
            indeg[c] -= 1
            if indeg[c] == 0:
                stack.append(c)
    if len(order) != n:
        left = [v for v in range(n) if indeg[v] > 0]
        succ = [[c for c in kids if indeg[c] > 0] for kids in children] + [left]
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
    return kind, tuple(order)


def _reference_kahn(t) -> tuple[int, ...]:
    """The order in which `_reference_freeze` pops the nodes of t."""
    return _reference_freeze(t.labels, t.types, t.children, t.labels[t.root], t.root)[1]


def _random_store(rng, case=None):
    """(labels, types, children, case): a store of one of nine cases, or of
    the case named, its child ids in range; BAS get no children, gates at
    least one."""
    case = case or rng.choice(("tree", "dag", "repeat", "cycle-below", "cycle-island",
                               "tree-island", "self-loop", "parentless", "any"))
    n = rng.randint(1, 10)
    if case == "tree-island":
        # a proper tree on the nodes below m and a ring among the others,
        # with the ring's remaining nodes hung below it: every node has at
        # most one parent, but the ring has none outside itself
        n = rng.randint(3, 10)
        m = rng.randint(1, n - 2)
        kids = [[] for _ in range(n)]
        for v in range(1, m):
            kids[rng.randrange(v)].append(v)
        island = rng.sample(range(m, n), n - m)
        ring = island[:rng.randint(2, n - m)]
        for u, v in zip(ring, ring[1:] + ring[:1]):
            kids[u].append(v)
        for i in range(len(ring), len(island)):
            kids[rng.choice(island[:i])].append(island[i])
        kids = [rng.sample(k, len(k)) for k in kids]
    elif case in ("tree", "parentless"):
        # node i > 0 hangs below a random earlier node; "parentless" cuts
        # some of them loose
        kids = [[] for _ in range(n)]
        for v in range(1, n):
            if case == "tree" or rng.random() < 0.7:
                kids[rng.randrange(v)].append(v)
        kids = [rng.sample(k, len(k)) for k in kids]
    elif case == "any":
        kids = [[rng.randrange(n) for _ in range(rng.randint(0, 3))] for _ in range(n)]
    else:
        # children only among later ids: acyclic, and shared at random
        kids = [rng.sample(range(v + 1, n), min(n - v - 1, rng.randint(0, 3)))
                for v in range(n)]
        if case in ("dag", "repeat"):
            listed = {c for k in kids for c in k}
            for v in range(1, n):
                if v not in listed and rng.random() < 0.9:
                    kids[rng.randrange(v)].append(v)  # mostly one parentless node
        gates = [v for v in range(n) if kids[v]]
        if case == "repeat" and gates:
            g = rng.choice(gates)
            kids[g].insert(rng.randint(0, len(kids[g])), rng.choice(kids[g]))
        if case.startswith("cycle") and n > 2:
            # u -> v -> u; "below" hangs the cycle under node 0, "island"
            # leaves it no parent outside itself
            u, v = sorted(rng.sample(range(1, n), 2))
            kids[u].append(v)
            kids[v].append(u)
            if case == "cycle-below":
                kids[0].append(u)
            else:
                kids = [k if w in (u, v) else [c for c in k if c not in (u, v)]
                        for w, k in enumerate(kids)]
        if case == "self-loop":
            v = rng.randrange(n)
            kids[v].insert(rng.randint(0, len(kids[v])), v)
    types = [rng.choice((O, A, S)) if k else B for k in kids]
    labels = [f"n{v}" for v in range(n)]
    return labels, types, [tuple(k) for k in kids], case


def _outcome(fn):
    try:
        return fn(), None
    except CyclicStructure as e:
        return None, (CyclicStructure, str(e), e.cycle)
    except (DanglingReference, MultipleRoots, NoRoot) as e:
        return None, (type(e), str(e), None)


def _flat(children) -> tuple[list[int], list[int]]:
    """(flat, offsets) of a store's child tuples, as `freeze` takes them."""
    return [c for kids in children for c in kids], [0, *accumulate(map(len, children))]


def test_column_freeze_matches_the_node_list_kahn():
    rng = random.Random(53)
    seen_errors, seen_kinds, cyclic_cases = set(), set(), set()
    for _ in range(3000):
        labels, types, children, case = _random_store(rng)
        flat, offsets = _flat(children)
        if case == "tree-island":
            assert len(set(flat)) == len(flat)  # freeze walks it as a proper tree
        pick = rng.random()
        if pick < 0.1:
            root_label, root = "ghost", None  # an undefined root
        else:
            root = rng.randrange(len(labels)) if pick < 0.4 else 0
            root_label = labels[root]
        got, got_error = _outcome(lambda: freeze(labels, types, flat, offsets, root_label, root))
        want, want_error = _outcome(lambda: _reference_freeze(labels, types, children, root_label, root))
        assert got_error == want_error, (case, labels, types, children, root)
        if want_error is not None:
            seen_errors.add(want_error[0])
            if want_error[0] is CyclicStructure:
                cyclic_cases.add(case)
            continue
        kind, order = want
        t = got
        assert (t.kind, t.topological, t.root) == (kind, order, root)
        assert (t.labels, t.types, t.children) == (tuple(labels), tuple(types), tuple(children))
        assert t.postorder == order[::-1]
        if kind.shape is Shape.TREE:
            assert t.postorder == postorder(root, lambda v: children[v])
        assert t.bas == tuple(_reference_bas_below(types, children, root))
        seen_kinds.add((case, kind))
    assert seen_errors == {CyclicStructure, DanglingReference, MultipleRoots, NoRoot}
    assert cyclic_cases >= {"cycle-below", "cycle-island", "tree-island", "self-loop"}
    assert {case for case, k in seen_kinds if k.shape is Shape.TREE} >= {"tree", "parentless"}
    assert {case for case, k in seen_kinds if k.shape is Shape.DAG} >= {"dag", "repeat"}


def test_a_ring_beside_a_proper_tree_is_named_by_both_readers():
    # every in-degree is at most 1, so freeze walks the store as a proper
    # tree; the ring it never reaches is its cycle, read from a file too
    rng = random.Random(59)
    for _ in range(200):
        labels, types, children, _ = _random_store(rng, "tree-island")
        with pytest.raises(CyclicStructure) as want:
            _reference_freeze(labels, types, children, labels[0], 0)
        with pytest.raises(CyclicStructure) as got:
            freeze(labels, types, *_flat(children), labels[0], 0)
        assert (str(got.value), got.value.cycle) == (str(want.value), want.value.cycle)
        text = f'toplevel "{labels[0]}";\n' + "".join(
            f'"{label}" {ty.value}' + "".join(f' "{labels[c]}"' for c in kids) + ";\n"
            for label, ty, kids in zip(labels, types, children))
        assert _match(text) is not None
        errors = []
        for parse in (parse_model, _parse_tokens):
            with pytest.raises(CyclicStructure) as read:
                parse(text)
            errors.append((str(read.value), read.value.line, read.value.col, read.value.cycle))
        assert errors[0] == errors[1]
        assert errors[0][0].startswith(str(want.value) + " at line ")
        assert errors[0][3] == want.value.cycle
