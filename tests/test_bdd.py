import ast
import gc
import inspect
import random
import weakref
from functools import partial, reduce
from itertools import chain, combinations

import pytest

from atquant import (
    analysis,
    bas_of,
    bdd,
    bu_bdd,
    build,
    builtin,
    default_order,
    from_structure_function,
    k_top,
    minimal_attacks_static,
    minimise,
    structure_function,
    top_paths,
)
from atquant.bdd import FALSE, TRUE, Bdd, VarOrder, _Store, check_minimised_shape, validate
from atquant.errors import DynamicTreeRejected, InvalidBdd, MissingAttribution, OrderMismatch
from atquant.tree import NodeType, fold, postorder

from helpers import overlap, rand_alpha, rand_dag, rand_tree, suite_labels, exploit, treasure, tt


def powerset(xs):
    xs = list(xs)
    return chain.from_iterable(combinations(xs, r) for r in range(len(xs) + 1))


def shuffled_order(rng, t):
    bas = list(bas_of(t))
    rng.shuffle(bas)
    return VarOrder(tuple(bas))


def test_var_order_rejects_repeats_and_unknowns():
    with pytest.raises(OrderMismatch):
        VarOrder((1, 2, 1))
    order = VarOrder((3, 1))
    assert order.rank_of(3) == 0 and order.bas_at(1) == 1
    with pytest.raises(OrderMismatch):
        order.rank_of(7)
    assert len(order) == 2


def test_from_structure_function_preconditions():
    with pytest.raises(DynamicTreeRejected):
        from_structure_function(exploit())
    t = treasure()
    with pytest.raises(OrderMismatch):
        from_structure_function(t, VarOrder((t.root,)))


def test_bdd_agrees_with_structure_function_everywhere():
    rng = random.Random(5)
    for i in range(60):
        t = rand_tree(rng, 6) if i % 2 else rand_dag(rng, 6)
        orders = [default_order(t)] + [shuffled_order(rng, t) for _ in range(3)]
        for order in orders:
            b = from_structure_function(t, order)
            validate(b)
            for s in powerset(bas_of(t)):
                assert b.evaluate(s) == structure_function(t, frozenset(s))


def test_canonicity_across_stores():
    b1 = from_structure_function(overlap())
    b2 = from_structure_function(overlap())
    assert b1.store is not b2.store
    assert b1.canonical() == b2.canonical()
    # a different formula gives a different canonical form
    assert b1.canonical() != from_structure_function(treasure()).canonical()


def test_apply_hash_consing_never_duplicates():
    # same (rank, low, high) gets one id even via different apply routes
    f = overlap()
    b = from_structure_function(f)
    triples = set()
    for v in b.postorder:
        if v >= 2:
            triple = (b.store.ranks[v], b.store.lows[v], b.store.highs[v])
            assert triple not in triples
            triples.add(triple)
    # the post-order lists each reachable id once, both children first
    assert len(set(b.postorder)) == len(b.postorder) and b.postorder[-1] == b.root
    pos = {v: i for i, v in enumerate(b.postorder)}
    for v in b.postorder:
        if v >= 2:
            assert pos[b.store.lows[v]] < pos[v] and pos[b.store.highs[v]] < pos[v]


def test_postorder_is_the_generic_walk_on_random_diagrams():
    # `minimise` numbers the nodes it makes in this order, so the dedicated
    # walk must give exactly the generic one, shared nodes included
    rng = random.Random(1212)
    for _ in range(150):
        t = rand_dag(rng, 8)
        for order in [default_order(t)] + [shuffled_order(rng, t) for _ in range(3)]:
            b = from_structure_function(t, order)
            for d in (b, minimise(b)):
                s = d.store
                walk = postorder(d.root, lambda v: (s.highs[v], s.lows[v]) if v >= 2 else ())
                assert d.postorder == walk
    for root in (FALSE, TRUE):
        assert Bdd(_Store(VarOrder(())), VarOrder(()), root).postorder == (root,)


def test_folds_look_up_only_the_basic_actions_the_diagram_reaches():
    # b is absorbed: a OR (a AND b) is a, so no node branches on b
    t = tt(("or", "a", ("and", "a", "b")))
    a = {t.id_of("a"): 3}
    assert bu_bdd(t, a, builtin("min-cost")) == 3
    assert k_top(t, a, builtin("min-cost"), 2) == [(3, frozenset({t.id_of("a")}))]
    assert k_top(t, a, builtin("max-damage"), 1) == [(3, frozenset({t.id_of("a")}))]
    # a BAS the diagram does reach is still required
    for fold_call in (partial(bu_bdd, t, {}, builtin("min-cost")),
                      partial(k_top, t, {}, builtin("min-cost"), 1)):
        with pytest.raises(MissingAttribution, match="'a'"):
            fold_call()


def test_store_node_rejects_rank_inversions():
    order = VarOrder((0, 1))
    store = _Store(order)
    deep = store.node(1, FALSE, TRUE)
    store.node(0, FALSE, deep)  # increasing rank is fine
    with pytest.raises(InvalidBdd):
        store.node(1, FALSE, deep)  # equal rank child
    shallow = store.node(0, FALSE, TRUE)
    with pytest.raises(InvalidBdd):
        store.node(1, shallow, TRUE)  # decreasing rank child


def test_validate_catches_equal_children():
    order = VarOrder((0,))
    store = _Store(order)
    broken = store.node(0, TRUE, TRUE)
    with pytest.raises(InvalidBdd):
        validate(Bdd(store, order, broken))


def test_ts_bdd_has_three_decision_nodes():
    b = from_structure_function(treasure())
    assert b.node_count() == 3
    m = minimise(b)
    assert m.node_count() == 3
    validate(m)
    check_minimised_shape(m)


def test_and_chain_bdd_shape():
    t = tt(("and", "a", "b"))
    b = minimise(from_structure_function(t))
    assert b.node_count() == 2
    assert top_paths(b) == frozenset({frozenset(bas_of(t))})


def test_minimise_overlap_golden():
    f = overlap()
    m = minimise(from_structure_function(f))
    assert suite_labels(f, top_paths(m)) == {frozenset({"b"}), frozenset({"a", "c"})}
    assert m.node_count() == 3
    check_minimised_shape(m)


def test_minimise_keeps_already_minimal_functions():
    # OR of distinct leaves: every solution is already minimal
    t = tt(("or", "a", "b", "c"))
    b = from_structure_function(t)
    m = minimise(b)
    assert top_paths(m) == {frozenset({v}) for v in bas_of(t)}


def test_deep_diagrams_are_walked_without_recursion():
    # 2,000-level chains are deeper than the interpreter's recursion limit
    n = 2000
    order = VarOrder(tuple(range(n)))
    store = _Store(order)
    conj, disj = TRUE, FALSE
    for rank in reversed(range(n)):
        conj = store.node(rank, FALSE, conj)  # x0 and x1 and ...
        disj = store.node(rank, disj, TRUE)  # x0 or x1 or ...
    both, any_one = Bdd(store, order, conj), Bdd(store, order, disj)
    for b in (both, any_one):
        assert b.node_count() == n
        canon = b.canonical()
        assert len(canon[1]) == n and canon[0] == n + 1
        m = minimise(b)
        assert m.canonical() == canon
    assert top_paths(both) == {frozenset(range(n))}
    assert top_paths(any_one) == {frozenset({v}) for v in range(n)}


def test_top_paths_on_terminals():
    order = VarOrder((0,))
    store = _Store(order)
    assert top_paths(Bdd(store, order, FALSE)) == frozenset()
    assert top_paths(Bdd(store, order, TRUE)) == frozenset({frozenset()})


def test_minimised_paths_equal_minimal_attacks_everywhere():
    rng = random.Random(77)
    for i in range(80):
        t = rand_tree(rng, 7) if i % 2 else rand_dag(rng, 7)
        suite = minimal_attacks_static(t)
        for order in (default_order(t), shuffled_order(rng, t)):
            m = minimise(from_structure_function(t, order))
            validate(m)
            check_minimised_shape(m)
            assert top_paths(m) == suite


def test_minimised_diagram_is_an_antichain_of_paths():
    rng = random.Random(3)
    for _ in range(30):
        t = rand_dag(rng, 7)
        paths = top_paths(minimise(from_structure_function(t)))
        for p in paths:
            for q in paths:
                assert not (p < q)


def test_root_is_never_terminal_for_built_models():
    rng = random.Random(21)
    for _ in range(20):
        t = rand_tree(rng, 5)
        b = from_structure_function(t)
        assert b.root >= 2
        # full set succeeds, empty set fails: the function is not constant
        assert b.evaluate(bas_of(t)) and not b.evaluate(())


def left_fold_compile(t, order=None):
    """Reference compile: each gate's children folded left to right, the
    accumulator applied to one child at a time."""
    order = order or default_order(t)
    store = _Store(order)
    ops = {NodeType.OR: partial(store.apply, "or"), NodeType.AND: partial(store.apply, "and")}
    root = fold(
        t,
        lambda n: store.node(order.rank_of(n.id), FALSE, TRUE),
        lambda n, kids: reduce(ops[n.type], kids),
    )
    return Bdd(store, order, root)


def test_balanced_compile_matches_left_fold(monkeypatch):
    rng = random.Random(11)
    dom = builtin("min-cost")
    wide = 0
    for _ in range(300):
        t = rand_dag(rng, 8)
        wide += any(len(n.children) >= 4 for n in t.nodes)
        a = rand_alpha(rng, t, dom)
        for order in (default_order(t), shuffled_order(rng, t)):
            new = from_structure_function(t, order)
            assert new.canonical() == left_fold_compile(t, order).canonical()
            got = bu_bdd(t, a, dom, order), k_top(t, a, dom, 3, order)
            with monkeypatch.context() as m:
                m.setattr(analysis, "from_structure_function", left_fold_compile)
                assert got == (bu_bdd(t, a, dom, order), k_top(t, a, dom, 3, order))
    assert wide > 0  # gates of four or more children pair up differently


def test_minimise_deep_chains_without_recursion():
    # OR(AND(x0..x1500), AND(x1..x1501)): `without` subtracts one 1,500-level
    # chain from the other, deeper than the interpreter's recursion limit
    n = 1502
    defs = [(f"x{i}", NodeType.BAS, []) for i in range(n)]
    defs += [
        ("left", NodeType.AND, [f"x{i}" for i in range(n - 1)]),
        ("right", NodeType.AND, [f"x{i}" for i in range(1, n)]),
        ("root", NodeType.OR, ["left", "right"]),
    ]
    t = build(defs, "root")
    m = minimise(from_structure_function(t))
    validate(m)
    check_minimised_shape(m)
    ids = [t.id_of(f"x{i}") for i in range(n)]
    assert top_paths(m) == {frozenset(ids[:-1]), frozenset(ids[1:])}


def test_minimised_store_is_freed_without_cycle_collection():
    t = overlap()
    gc.disable()
    try:
        m = minimise(from_structure_function(t))
        store = weakref.ref(m.store)
        del m
        assert store() is None
    finally:
        gc.enable()


def test_no_function_in_bdd_calls_itself():
    # a recursive helper would bound diagram depth by the recursion limit
    module = ast.parse(inspect.getsource(bdd))
    methods = {
        f for c in ast.walk(module) if isinstance(c, ast.ClassDef)
        for f in c.body if isinstance(f, ast.FunctionDef)
    }
    for fn in ast.walk(module):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for call in ast.walk(fn):
            f = getattr(call, "func", None)
            if fn in methods:  # self.name(...)
                hit = isinstance(f, ast.Attribute) and f.attr == fn.name \
                    and isinstance(f.value, ast.Name) and f.value.id == "self"
            else:  # name(...)
                hit = isinstance(f, ast.Name) and f.id == fn.name
            assert not hit, f"{fn.name} calls itself"
