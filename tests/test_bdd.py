import ast
import gc
import inspect
import random
import weakref
from pathlib import Path
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, combinations

import pytest

from atquant import (
    AnalysisRequest,
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
    parse_model,
    structure_function,
)
from atquant.bdd import FALSE, TRUE, Bdd, VarOrder, _Store
from atquant.cli import main
from atquant.errors import DynamicTreeRejected, InvalidBdd, MissingAttribution, OrderMismatch
from atquant.io import emit_dot_bdd
from atquant.tree import Dynamics, NodeType, classify, fold, static_projection

from helpers import (canonical, check_minimised_shape, evaluate, node, overlap, postorder,
                     rand_alpha, rand_dag, rand_tree, suite_labels, exploit, top_paths, treasure,
                     tt, validate)

MODELS = Path(__file__).resolve().parent.parent / "models"


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
    assert order.bas == (3, 1)
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
                assert evaluate(b, s) == structure_function(t, frozenset(s))


def test_canonicity_across_stores():
    b1 = from_structure_function(overlap())
    b2 = from_structure_function(overlap())
    assert b1.store is not b2.store
    assert canonical(b1) == canonical(b2)
    # a different formula gives a different canonical form
    assert canonical(b1) != canonical(from_structure_function(treasure()))


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
        assert Bdd(_Store(), VarOrder(()), root).postorder == (root,)


def test_folds_need_a_value_for_every_basic_action():
    # b is absorbed: a OR (a AND b) is a, so no node branches on b; the
    # diagram engines check every value first all the same. bu_bdd and
    # k_top reach their engines through `analysis._run`, as `analyze` does,
    # so these calls cover that path too
    t = tt(("or", "a", ("and", "a", "b")))
    a = {t.id_of("a"): 3}
    for fold_call in (partial(bu_bdd, t, a, builtin("min-cost")),
                      partial(k_top, t, a, builtin("min-cost"), 2)):
        with pytest.raises(MissingAttribution, match="'b'"):
            fold_call()
    for fold_call in (partial(bu_bdd, t, {}, builtin("min-cost")),
                      partial(k_top, t, {}, builtin("min-cost"), 1)):
        with pytest.raises(MissingAttribution, match="'a'"):
            fold_call()


def test_store_node_rejects_rank_inversions():
    store = _Store()
    deep = node(store, 1, FALSE, TRUE)
    node(store, 0, FALSE, deep)  # increasing rank is fine
    with pytest.raises(InvalidBdd):
        node(store, 1, FALSE, deep)  # equal rank child
    shallow = node(store, 0, FALSE, TRUE)
    with pytest.raises(InvalidBdd):
        node(store, 1, shallow, TRUE)  # decreasing rank child


def test_validate_catches_equal_children():
    order = VarOrder((0,))
    store = _Store()
    broken = node(store, 0, TRUE, TRUE)
    with pytest.raises(InvalidBdd):
        validate(Bdd(store, order, broken))


def test_minimise_refuses_non_monotone_input():
    # each diagram has a node that reads TRUE at all-false without being
    # TRUE: not x = (x, TRUE, FALSE); not x or y = (x, TRUE, y); and x or
    # not y, whose low child not y has a low edge to TRUE
    order = VarOrder((0, 1))
    store = _Store()
    y = node(store, 1, FALSE, TRUE)
    not_y = node(store, 1, TRUE, FALSE)
    for root in (node(store, 0, TRUE, FALSE), node(store, 0, TRUE, y),
                 node(store, 0, not_y, TRUE)):
        with pytest.raises(InvalidBdd, match="not monotone"):
            minimise(Bdd(store, order, root))


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
    store = _Store()
    conj, disj = TRUE, FALSE
    for rank in reversed(range(n)):
        conj = node(store, rank, FALSE, conj)  # x0 and x1 and ...
        disj = node(store, rank, disj, TRUE)  # x0 or x1 or ...
    both, any_one = Bdd(store, order, conj), Bdd(store, order, disj)
    for b in (both, any_one):
        assert b.node_count() == n
        canon = canonical(b)
        assert len(canon[1]) == n and canon[0] == n + 1
        m = minimise(b)
        assert canonical(m) == canon
    assert top_paths(both) == {frozenset(range(n))}
    assert top_paths(any_one) == {frozenset({v}) for v in range(n)}


def test_top_paths_on_terminals():
    order = VarOrder((0,))
    store = _Store()
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
        assert evaluate(b, bas_of(t)) and not evaluate(b, ())


def left_fold_compile(t, order=None):
    """Reference compile: each gate's children folded left to right, the
    accumulator applied to one child at a time."""
    order = order or default_order(t)
    store = _Store()
    rank = {b: r for r, b in enumerate(order.bas)}
    root = fold(t, [node(store, rank[b], FALSE, TRUE) for b in bas_of(t)],
                *(partial(reduce, partial(store.apply, op)) for op in ("or", "and")))
    return Bdd(store, order, root)


def test_a_dump_depends_only_on_the_diagram():
    # the two compiles make the same diagrams in stores of different ids
    rng = random.Random(29)
    runs = []
    for p in sorted(MODELS.glob("*.at")):
        doc = parse_model(p.read_text(encoding="utf-8"))
        if classify(doc.tree).dynamics is Dynamics.STATIC:
            orders = [default_order(doc.tree)] + [VarOrder(o) for _, o in sorted(doc.orders.items())]
            runs.append((doc.tree, orders))
    runs += [(t, [default_order(t)]) for t in (rand_dag(rng, 8) for _ in range(200))]
    renamed = 0
    for t, orders in runs:
        for order in orders:
            new, old = from_structure_function(t, order), left_fold_compile(t, order)
            assert canonical(new) == canonical(old)
            renamed += new.postorder != old.postorder
            for a, b in ((new, old), (minimise(new), minimise(old))):
                dot = emit_dot_bdd(a, t)
                assert dot == emit_dot_bdd(b, t)
                assert '  n0 [shape=box, label="0"];\n  n1 [shape=box, label="1"];\n' in dot
    # some pairs hold their nodes under different store ids
    assert renamed > 0


def handed_up_and_shared_same_type(t):
    """Gates with one parent, of their own type (compiled as part of that
    parent), and gates of a parent's type with two or more parents
    (compiled once, on their own)."""
    parents = [[] for _ in t.types]
    for ty, kids in zip(t.types, t.children):
        for c in kids:
            parents[c].append(ty)
    same = [ty is not NodeType.BAS and ty in parents[v] for v, ty in enumerate(t.types)]
    handed = sum(s and len(parents[v]) == 1 for v, s in enumerate(same))
    return handed, sum(s and len(parents[v]) > 1 for v, s in enumerate(same))


def rand_nested(rng, max_bas=8):
    """Random static DAG whose gates often take a gate of their own type,
    once or from several parents."""
    n = rng.randint(2, max_bas)
    defs = [(f"b{i}", NodeType.BAS, []) for i in range(n)]
    pool = [f"b{i}" for i in range(n)]
    for gi in range(rng.randint(2, 6)):
        kids = rng.sample(pool, rng.randint(1, min(4, len(pool))))
        kind = rng.choice((NodeType.AND, NodeType.OR))
        defs.append((f"g{gi}", kind, kids))
        pool.append(f"g{gi}")
    has_parent = {c for _, _, cs in defs for c in cs}
    orphans = [lbl for lbl, _, _ in defs if lbl not in has_parent]
    if len(orphans) > 1:
        defs.append(("root", rng.choice((NodeType.AND, NodeType.OR)), orphans))
    return build(defs, defs[-1][0] if len(orphans) > 1 else orphans[0])


def test_deepest_first_compile_matches_left_fold(monkeypatch):
    rng = random.Random(11)
    dom = builtin("min-cost")
    wide = handed = shared = 0
    models = [rand_dag(rng, 8) for _ in range(150)] + [rand_tree(rng, 8) for _ in range(50)]
    models += [rand_nested(rng) for _ in range(150)]
    for t in models:
        wide += any(len(kids) >= 4 for kids in t.children)
        h, s = handed_up_and_shared_same_type(t)
        handed, shared = handed + h, shared + s
        a = rand_alpha(rng, t, dom)
        orders = (default_order(t), VarOrder(bas_of(t)[::-1]), shuffled_order(rng, t))
        for order in orders:
            new = from_structure_function(t, order)
            assert canonical(new) == canonical(left_fold_compile(t, order))
            got = bu_bdd(t, a, dom, order), k_top(t, a, dom, 3, order)
            with monkeypatch.context() as m:
                m.setattr(analysis, "from_structure_function", left_fold_compile)
                assert got == (bu_bdd(t, a, dom, order), k_top(t, a, dom, 3, order))
    # gates of four or more children, nested same-type gates handed up to
    # their parent, and same-type gates shared by two parents all came up
    assert wide > 0 and handed > 0 and shared > 0


def ladder(rungs):
    """AND of rungs ORs, OR(b_i, b_i+1): each inner action is in two ORs."""
    defs = [(f"b{i}", NodeType.BAS, []) for i in range(rungs + 1)]
    defs += [(f"o{i}", NodeType.OR, [f"b{i}", f"b{i + 1}"]) for i in range(rungs)]
    defs.append(("root", NodeType.AND, [f"o{i}" for i in range(rungs)]))
    return build(defs, "root")


def interval_dag(windows, nested):
    """AND of one OR per window of consecutive actions: flat, as one AND of
    every OR, or nested, as a balanced binary tree of ANDs over them."""
    n_bas = max(hi for _, hi in windows) + 1
    defs = [(f"b{i}", NodeType.BAS, []) for i in range(n_bas)]
    defs += [(f"o{i}", NodeType.OR, [f"b{b}" for b in range(lo, hi + 1)])
             for i, (lo, hi) in enumerate(windows)]
    layer = [f"o{i}" for i in range(len(windows))]
    if not nested:
        defs.append(("a", NodeType.AND, layer))
        return build(defs, "a")
    while len(layer) > 1:
        pairs = [layer[i:i + 2] for i in range(0, len(layer), 2)]
        layer = [p[0] if len(p) == 1 else f"a{len(defs) + i}" for i, p in enumerate(pairs)]
        defs += [(lbl, NodeType.AND, p) for lbl, p in zip(layer, pairs) if len(p) == 2]
    return build(defs, layer[0])


def and_chain(gates):
    """Left-deep AND chain, AND(AND(AND(b0, b1), b2), b3)..."""
    defs = [(f"b{i}", NodeType.BAS, []) for i in range(gates + 1)]
    defs.append(("g1", NodeType.AND, ["b0", "b1"]))
    defs += [(f"g{i}", NodeType.AND, [f"g{i - 1}", f"b{i}"]) for i in range(2, gates + 1)]
    return build(defs, f"g{gates}")


def and_of_or_c(n):
    """AND(OR(b0, c), ..., OR(b_n-1, c)), and the order that ranks c last."""
    defs = [(f"b{i}", NodeType.BAS, []) for i in range(n)] + [("c", NodeType.BAS, [])]
    defs += [(f"o{i}", NodeType.OR, [f"b{i}", "c"]) for i in range(n)]
    defs.append(("root", NodeType.AND, [f"o{i}" for i in range(n)]))
    t = build(defs, "root")
    return t, VarOrder(tuple(t.id_of(f"b{i}") for i in range(n)) + (t.id_of("c"),))


def deep_chain(n):
    """g_i = OR(AND(b_i, b_i+1), g_i+1) down n levels, g_n-1 = AND(b_n-1, b_n):
    each level shares b_i+1 with the one below."""
    defs = [(f"b{i}", NodeType.BAS, []) for i in range(n + 1)]
    for i in range(n - 1):
        defs += [(f"g{i}", NodeType.OR, [f"a{i}", f"g{i + 1}"]),
                 (f"a{i}", NodeType.AND, [f"b{i}", f"b{i + 1}"])]
    defs.append((f"g{n - 1}", NodeType.AND, [f"b{n - 1}", f"b{n}"]))
    return build(defs, "g0")


def test_compile_makes_few_nodes_beyond_the_diagram():
    # node counts are deterministic: a compile that copies its operands
    # more than a bounded number of times shows here, not in a timing
    for rungs in (256, 1024, 4096):
        t = ladder(rungs)
        b = from_structure_function(t)
        assert len(b.store.unique) <= 2 * b.node_count() + len(bas_of(t))
    # one function, two shapes: the nested ANDs are flattened into one
    rng = random.Random(8)
    windows, lo = [], 0
    while lo < 300:
        windows.append((lo, lo + rng.randint(1, 3)))
        lo += rng.randint(1, 2)
    flat, nested = (from_structure_function(interval_dag(windows, nest)) for nest in (False, True))
    assert canonical(flat) == canonical(nested)
    assert len(flat.store.unique) == len(nested.store.unique)
    # a left-deep chain, AND(AND(AND(b0, b1), b2), b3)...: linear, not quadratic
    n = 20000
    chain = from_structure_function(and_chain(n))
    assert chain.node_count() == n + 1
    assert len(chain.store.unique) <= 2 * (n + 1)
    # doubling a family at most doubles, plus a constant, the compiled
    # diagram's reachable nodes, its unique-table entries and the entries
    # minimise adds; applying a growing accumulator again at every step
    # would make about four times as many
    def nested_interval(n):  # windows of 2 to 4 actions, each 1 or 2 past the last
        starts = (j + (j + 1) // 2 for j in range(n))
        windows = [(lo, min(lo + 1 + j % 3, n - 1)) for j, lo in enumerate(starts) if lo < n - 1]
        return interval_dag(windows, nested=True), None

    families = {
        "ladder": lambda n: (ladder(n), None),
        "AND chain": lambda n: (and_chain(n), None),
        "nested interval": nested_interval,
        "AND of OR(b_i, c), c last": and_of_or_c,
        "deep chain": lambda n: (deep_chain(n), None),
    }
    for name, make in families.items():
        counts = []
        for n in (512, 1024):
            b = from_structure_function(*make(n))
            reachable, compiled = b.node_count(), len(b.store.unique)
            minimise(b)
            counts.append((reachable, compiled, len(b.store.unique) - compiled))
        for small, large in zip(*counts):
            assert large <= 2 * small + 8, (name, counts)


def test_min_cost_fold_makes_no_node_beyond_the_compile():
    # counted, not timed: an absorbing domain's fold walks the compiled
    # diagram and builds nothing; max-damage, which does not absorb, and
    # k-top still build the minimal-solutions diagram
    for rungs in (256, 1024):
        t = ladder(rungs)
        a = {b: 1 + b % 5 for b in bas_of(t)}
        p = {b: Fraction(1, v) for b, v in a.items()}
        compiled = len(from_structure_function(t).store.unique)
        for name, values in (("min-cost", a), ("min-skill", a), ("prob-max", p)):
            _, diagram, _ = analysis._run("bdd", AnalysisRequest(t, values, builtin(name)))
            assert len(diagram.store.unique) == compiled, name
        _, m, _ = analysis._run("bdd", AnalysisRequest(t, a, builtin("max-damage")))
        assert len(m.store.unique) > compiled
        _, m, _ = analysis._run("ktop", AnalysisRequest(t, a, builtin("min-cost"), k=5))
        assert len(m.store.unique) > compiled


def apply_fold_compile(t, order=None):
    """Reference compile: `from_structure_function` with every operand
    folded in by apply, a single variable too."""
    order = order or default_order(t)
    store = _Store()
    rank = {b: r for r, b in enumerate(order.bas)}
    types, children = t.types, t.children
    parents = [0] * len(types)
    parent_type = [None] * len(types)
    for ty, kids in zip(types, children):
        for c in kids:
            parents[c] += 1
            parent_type[c] = ty
    up = [p == 1 and pt is ty for p, pt, ty in zip(parents, parent_type, types)]
    vals = [None] * len(types)
    for v in t.postorder:
        ty, kids = types[v], children[v]
        if ty is NodeType.BAS:
            vals[v] = node(store, rank[v], FALSE, TRUE)
            continue
        lists = [c for c in kids if up[c]]
        ops = []
        if lists:
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
        ops = sorted(dict.fromkeys(ops), key=store.ranks.__getitem__, reverse=True)
        vals[v] = reduce(lambda acc, f: store.apply(ty.value, f, acc), ops[1:], ops[0])
    return Bdd(store, order, vals[t.root])


def test_single_variable_operands_make_the_nodes_apply_makes(monkeypatch):
    # node ids must not change: the whole store, in creation order, equals
    # the one a compile applying every operand makes
    rng = random.Random(23)
    models = [rand_tree(rng, 9) for _ in range(100)] + [rand_dag(rng, 9) for _ in range(100)]
    models += [rand_nested(rng) for _ in range(50)]
    models += [static_projection(parse_model(p.read_text(encoding="utf-8")).tree)
               for p in sorted(MODELS.glob("*.at"))]
    runs = [(t, (default_order(t), shuffled_order(rng, t))) for t in models]
    # a ladder's diagram is exponential under a random order, linear reversed
    runs += [(t, (default_order(t), VarOrder(bas_of(t)[::-1]))) for t in (ladder(300),)]
    for t, orders in runs:
        for order in orders:
            got, want = from_structure_function(t, order), apply_fold_compile(t, order)
            assert got.root == want.root
            assert got.store.ranks == want.store.ranks
            assert (got.store.lows, got.store.highs) == (want.store.lows, want.store.highs)
            assert got.store.unique == want.store.unique
    # a gate over basic actions calls apply for none of them
    calls = []
    monkeypatch.setattr(_Store, "apply", lambda self, *args: calls.append(args))
    for kind in ("and", "or"):
        b = from_structure_function(tt((kind, "a", "b", "c", "d")))
        assert calls == [] and b.node_count() == 4



def interleaving(n):
    """OR(S, g_0 ... g_n-1), S = AND(x_0 ... x_n-1, z) and g_i = AND(x_i, y_i):
    the default order ranks every x above every y, so the compiled diagram
    is exponential in n while the minimised one is linear."""
    defs = [(f"{v}{i}", NodeType.BAS, []) for i in range(n) for v in "xy"]
    defs.append(("z", NodeType.BAS, []))
    defs.append(("S", NodeType.AND, [f"x{i}" for i in range(n)] + ["z"]))
    defs += [(f"g{i}", NodeType.AND, [f"x{i}", f"y{i}"]) for i in range(n)]
    defs.append(("root", NodeType.OR, ["S"] + [f"g{i}" for i in range(n)]))
    return build(defs, "root")


def test_every_node_is_made_by_the_store_node_constructor(monkeypatch):
    # `_Store.node` is the store's one writer: the ids it hands out as new
    # are every id past the terminals, in order, and each node is in the
    # unique table once
    made = []
    store_node = _Store.node

    def recording(store, rank, low, high):
        size = len(store.ranks)
        nid = store_node(store, rank, low, high)
        if nid >= size:
            made.append(nid)
        return nid

    monkeypatch.setattr(_Store, "node", recording)

    sizes = []  # store sizes after compiling and after minimising

    def compile_and_minimise(t, order=None):
        made.clear()
        b = from_structure_function(t, order)
        s = b.store
        compiled = len(s.ranks)
        m = minimise(b)
        sizes.append((compiled, len(s.ranks)))
        assert made == list(range(2, len(s.ranks)))
        assert len(s.unique) == len(s.ranks) - 2 == len(s.lows) - 2 == len(s.highs) - 2
        return b, m

    rng = random.Random(31)
    t = ladder(300)
    runs = [(t, None), (t, VarOrder(bas_of(t)[::-1]))]
    runs += [(rand_dag(rng, 9), None) for _ in range(50)]
    runs += [(static_projection(parse_model(p.read_text(encoding="utf-8")).tree), None)
             for p in sorted(MODELS.glob("*.at"))]
    for t, order in runs:
        compile_and_minimise(t, order)
    # the sizes repeat exactly, so a change to which nodes are made fails:
    # the ladder under both orders, draw 31 (the one draw whose minimised
    # diagram adds nodes) and the models, blackout.at to treasure.at
    assert sizes[:2] == [(1200, 1796)] * 2
    assert sizes[2 + 31] == (18, 22)
    assert sizes[52:] == [(17, 18), (7, 7), (12, 13), (8, 8), (7, 7), (5, 5), (8, 9), (7, 7)]
    # the counts a node budget on this family would bound
    for n in range(3, 11):
        b, m = compile_and_minimise(interleaving(n))
        assert (b.node_count(), m.node_count()) == (2 ** (n + 1) - 1, 3 * n), n


NESTED_MODEL = """toplevel "r";
"r" and "s" "c" "t";
"s" and "a" "u";
"u" or "b" "d";
"t" or "e" "f" "v";
"v" or "d" "g";
"a" bas;
"b" bas;
"c" bas;
"d" bas;
"e" bas;
"f" bas;
"g" bas;
"""
# the nested AND "s" and OR "v" join the operands of their parents, and
# three-operand gates fold deepest first
NESTED_BDD_DUMP = (
    'digraph bdd {\n'
    '  rankdir=TB;\n'
    '  n0 [shape=box, label="0"];\n'
    '  n1 [shape=box, label="1"];\n'
    '  n2 [shape=circle, label="c"];\n'
    '  n3 [shape=circle, label="d"];\n'
    '  n4 [shape=circle, label="g"];\n'
    '  n5 [shape=circle, label="f"];\n'
    '  n6 [shape=circle, label="e"];\n'
    '  n7 [shape=circle, label="c"];\n'
    '  n8 [shape=circle, label="d"];\n'
    '  n9 [shape=circle, label="b"];\n'
    '  n10 [shape=circle, label="a"];\n'
    '  n2 -> n0 [style=dashed];\n'
    '  n2 -> n1 [style=solid];\n'
    '  n3 -> n0 [style=dashed];\n'
    '  n3 -> n2 [style=solid];\n'
    '  n4 -> n0 [style=dashed];\n'
    '  n4 -> n1 [style=solid];\n'
    '  n5 -> n4 [style=dashed];\n'
    '  n5 -> n1 [style=solid];\n'
    '  n6 -> n5 [style=dashed];\n'
    '  n6 -> n1 [style=solid];\n'
    '  n7 -> n0 [style=dashed];\n'
    '  n7 -> n6 [style=solid];\n'
    '  n8 -> n7 [style=dashed];\n'
    '  n8 -> n2 [style=solid];\n'
    '  n9 -> n3 [style=dashed];\n'
    '  n9 -> n8 [style=solid];\n'
    '  n10 -> n0 [style=dashed];\n'
    '  n10 -> n9 [style=solid];\n'
    '}\n'
)


def test_dump_bdd_golden_for_nested_same_type_gates(capsys, tmp_path):
    model = tmp_path / "nested.at"
    model.write_text(NESTED_MODEL)
    assert main(["dump", str(model), "--what", "bdd"]) == 0
    assert capsys.readouterr().out == NESTED_BDD_DUMP
    t = parse_model(NESTED_MODEL).tree
    assert canonical(from_structure_function(t)) == canonical(left_fold_compile(t))


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
