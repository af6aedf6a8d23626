import random
from fractions import Fraction
from itertools import chain, combinations, product

import pytest

from atquant import (
    bas_of,
    builtin,
    is_well_formed,
    minimal_attacks_dynamic,
    minimal_attacks_static,
    oracle_metric_dynamic,
    oracle_metric_static,
    ordering_graph,
    structure_function,
)
from atquant import semantics
from atquant.errors import (BudgetExceeded, DynamicTreeRejected, IllFormed, IncompatibleDomain,
                            MissingAttribution)
from atquant.semantics import (
    PosetAttack,
    transitive_closure,
    transitive_reduction,
)
from atquant.tree import NodeType

from helpers import (
    alpha,
    overlap,
    ill_cross,
    ill_repeat,
    labels,
    rand_dag,
    rand_tree,
    rand_tree_dat,
    suite_labels,
    chains,
    coherence_check,
    exploit,
    successful_poset,
    treasure,
    tt,
)


def ids(t, *names):
    return frozenset(t.id_of(n) for n in names)


def powerset(xs):
    xs = list(xs)
    return chain.from_iterable(combinations(xs, r) for r in range(len(xs) + 1))


def test_structure_function_treasure():
    t = treasure()
    assert structure_function(t, ids(t, "n"))
    assert structure_function(t, ids(t, "t", "p"))
    assert structure_function(t, ids(t, "n", "t", "p"))
    assert not structure_function(t, ids(t, "t"))
    assert not structure_function(t, ids(t, "p"))
    assert not structure_function(t, frozenset())


def test_structure_function_reads_sand_as_and():
    d = exploit()
    assert structure_function(d, ids(d, "w", "cc"))
    assert structure_function(d, ids(d, "ff", "w"))
    assert not structure_function(d, ids(d, "ff", "cc"))


def test_minimal_attacks_ts_and_overlap():
    t = treasure()
    assert suite_labels(t, minimal_attacks_static(t)) == {
        frozenset({"n"}),
        frozenset({"t", "p"}),
    }
    f = overlap()
    assert suite_labels(f, minimal_attacks_static(f)) == {
        frozenset({"b"}),
        frozenset({"a", "c"}),
    }


def test_minimal_attacks_rejects_dynamic_trees():
    with pytest.raises(DynamicTreeRejected):
        minimal_attacks_static(exploit())


def test_budget_guard():
    wide = tt(tuple(["or"] + [f"x{i}" for i in range(21)]))
    with pytest.raises(BudgetExceeded):
        minimal_attacks_static(wide)
    assert len(minimal_attacks_static(wide, budget=21)) == 21
    # at the default budget: columns up to j = 19, and many rows set
    flat = tt(tuple(["or"] + [f"x{i}" for i in range(20)]))
    assert suite_labels(flat, minimal_attacks_static(flat)) == {
        frozenset({f"x{i}"}) for i in range(20)
    }
    pairs = tt(tuple(["and"] + [("or", f"a{i}", f"b{i}") for i in range(10)]))
    assert suite_labels(pairs, minimal_attacks_static(pairs)) == {
        frozenset(pick) for pick in product(*[(f"a{i}", f"b{i}") for i in range(10)])
    }
    narrow = tt(tuple(["or"] + [f"x{i}" for i in range(9)]))
    with pytest.raises(BudgetExceeded):
        minimal_attacks_static(narrow, budget=8)


def test_dynamic_budget_is_checked_before_the_ordering_graph(monkeypatch):
    def refuse(_):
        raise AssertionError("ordering graph built for a model over budget")

    monkeypatch.setattr(semantics, "ordering_graph", refuse)
    wide = tt(("sand", ("or", "a", "b"), ("and", "c", "d", "e")))
    with pytest.raises(BudgetExceeded):
        minimal_attacks_dynamic(wide, budget=4)


def test_minimality_against_full_subset_filter():
    # independent definition: successful sets none of whose proper subsets succeed
    rng = random.Random(42)

    def sized(n, dag):
        # random models over exactly n BAS; a DAG needs two
        while True:
            t = rand_dag(rng, n) if dag and n > 1 else rand_tree(rng, n)
            if len(bas_of(t)) == n:
                return t

    models = [tt("a"), tt(("or", ("and", "a", "a"), ("and", "b", ("or", "c", "a", "c"))))]
    models += [sized(1 + i % 10, i // 10 % 2) for i in range(160)]
    for t in models:
        succ = [
            frozenset(s) for s in powerset(bas_of(t)) if structure_function(t, frozenset(s))
        ]
        expected = {a for a in succ if not any(b < a for b in succ)}
        assert minimal_attacks_static(t) == frozenset(expected)


def test_ordering_graph_goldens():
    d = exploit()
    og = ordering_graph(d)
    assert isinstance(og, frozenset)
    assert {(d.label_of(a), d.label_of(b)) for a, b in og} == {("w", "cc")}
    assert len(og) <= len(bas_of(d)) ** 2

    g3 = chains()
    assert {(g3.label_of(a), g3.label_of(b)) for a, b in ordering_graph(g3)} == {
        ("a", "b"),
        ("b", "c"),
    }

    assert ordering_graph(treasure()) == frozenset()


def test_ordering_graph_uses_consecutive_pairs_only():
    t = tt(("sand", "a", "b", "c"))
    shown = {(t.label_of(a), t.label_of(b)) for a, b in ordering_graph(t)}
    assert shown == {("a", "b"), ("b", "c")}  # (a, c) only via transitivity


def test_well_formedness_goldens():
    ok, cycle = is_well_formed(exploit())
    assert ok and cycle is None
    ok, cycle = is_well_formed(chains())
    assert ok and cycle is None
    ok, cycle = is_well_formed(treasure())
    assert ok

    bad = ill_repeat()
    ok, cycle = is_well_formed(bad)
    assert not ok
    assert [bad.label_of(v) for v in cycle] == ["a", "b", "a"]

    cross = ill_cross()
    ok, cycle = is_well_formed(cross)
    assert not ok
    assert [cross.label_of(v) for v in cycle] == ["b", "b"]
    assert cycle[0] == cycle[-1]


def test_ordering_graph_edge_ceiling():
    # at most one edge per ordered pair of basic actions, self-loops included
    rng = random.Random(9)
    cases = [rand_tree_dat(rng, 8) for _ in range(30)]
    cases += [rand_dag(rng, 8, dynamic=True) for _ in range(30)]
    cases.append(tt(("sand", "a", "b", "c", "d", "e", "f")))
    cases.append(exploit())
    cases.append(ill_cross())
    for t in cases:
        assert len(ordering_graph(t)) <= len(bas_of(t)) ** 2


def _reference_well_formed(t):
    """Depth-first search over the materialised ordering graph: the
    definition of well-formedness, kept as the reference for the port-graph
    search in is_well_formed."""
    bas = bas_of(t)
    succs = {v: [] for v in bas}
    for a, b in sorted(ordering_graph(t)):
        succs[a].append(b)
    color = {}  # 1 on stack, 2 done
    for start in bas:
        if color.get(start):
            continue
        stack = [(start, iter(succs[start]))]
        color[start] = 1
        path = [start]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color.get(w) == 1:
                    return False, path[path.index(w):] + [w]
                if not color.get(w):
                    color[w] = 1
                    path.append(w)
                    stack.append((w, iter(succs[w])))
                    advanced = True
                    break
            if not advanced:
                color[v] = 2
                path.pop()
                stack.pop()
    return True, None


def test_well_formedness_matches_ordering_graph_search():
    rng = random.Random(2024)
    ill = 0
    for i in range(3200):
        if i % 4 == 3:
            t = rand_tree(rng, 10, dynamic=True)
        else:
            t = rand_dag(rng, 3 + i % 8, dynamic=True)
        ok, cycle = is_well_formed(t)
        assert ok == _reference_well_formed(t)[0]
        if ok:
            assert cycle is None
            continue
        ill += 1
        edges = ordering_graph(t)
        assert all(t.types[v] is NodeType.BAS for v in cycle)
        assert len(cycle) >= 2 and cycle[0] == cycle[-1]
        assert all(pair in edges for pair in zip(cycle, cycle[1:]))
    assert ill >= 500  # the corpus exercises the witness, not only the verdict


def test_transitive_closure_and_reduction():
    nodes = {1, 2, 3, 4}
    chain_edges = {(1, 2), (2, 3), (3, 4)}
    closure = transitive_closure(nodes, chain_edges)
    assert closure == {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)}
    assert transitive_reduction(nodes, closure) == frozenset(chain_edges)

    diamond = {(1, 2), (1, 3), (2, 4), (3, 4)}
    assert transitive_reduction(nodes, diamond) == frozenset(diamond)
    assert (1, 4) in transitive_closure(nodes, diamond)


def test_minimal_attacks_dynamic_exploit():
    d = exploit()
    suite = minimal_attacks_dynamic(d)
    shown = {
        (labels(d, p.nodes), frozenset((d.label_of(a), d.label_of(b)) for a, b in p.order))
        for p in suite
    }
    assert shown == {
        (frozenset({"w", "cc"}), frozenset({("w", "cc")})),
        (frozenset({"ff", "w"}), frozenset()),
    }


def test_minimal_attacks_dynamic_t3_is_reduced():
    g = chains()
    (p,) = minimal_attacks_dynamic(g)
    assert labels(g, p.nodes) == {"a", "b", "c"}
    shown = {(g.label_of(a), g.label_of(b)) for a, b in p.order}
    assert shown == {("a", "b"), ("b", "c")}  # no (a, c): transitively reduced


def test_minimal_attacks_dynamic_rejects_ill_formed():
    with pytest.raises(IllFormed) as ei:
        minimal_attacks_dynamic(ill_repeat())
    assert "a -> b -> a" in str(ei.value)
    assert ei.value.cycle


def test_minimal_attacks_dynamic_on_static_tree_degenerates():
    t = treasure()
    suite = minimal_attacks_dynamic(t)
    assert {p.nodes for p in suite} == minimal_attacks_static(t)
    assert all(p.order == frozenset() for p in suite)


def test_attack_value_folds_flat_or_along_the_critical_path():
    # 1 before 2, and 3 alone: the maximal elements are 2 and 3
    p = PosetAttack(frozenset({1, 2, 3}), frozenset({(1, 2)}))
    value = {1: 2, 2: 3, 3: 4}.__getitem__
    # seq-is-and: one flat fold, 2 + 3 + 4
    assert semantics.attack_value(builtin("min-cost"), p.nodes, p.order, value) == 9
    # the critical path: 2 ends at 2 + 3 = 5, beside 3 at 4
    assert semantics.attack_value(builtin("min-time-par"), p.nodes, p.order, value) == 5
    # no order, no chain: and_op alone, whatever the domain
    assert semantics.attack_value(builtin("min-time-par"), p.nodes, frozenset(), value) == 4
    with pytest.raises(IncompatibleDomain, match="has no sequential operator for a chained component$"):
        semantics.attack_value(builtin("cost-to-defend"), p.nodes, p.order, value)


def test_oracle_static_goldens():
    t = treasure()
    assert oracle_metric_static(t, alpha(t, {"n": 1, "t": 100, "p": 0}), builtin("min-time-seq")) == 1
    pm = builtin("prob-max")
    a = alpha(t, {"n": Fraction(7, 100), "t": Fraction(19, 20), "p": Fraction(1, 100)})
    assert oracle_metric_static(t, a, pm) == Fraction(7, 100)
    f = overlap()
    assert oracle_metric_static(f, alpha(f, {"a": 3, "b": 1, "c": 4}), builtin("min-cost")) == 1


def test_oracle_handles_non_semirings():
    f = overlap()
    ctd = builtin("cost-to-defend")
    # attacks {b} and {a,c}: min within, sum across: min(1) + min(3,4) = 4
    assert oracle_metric_static(f, alpha(f, {"a": 3, "b": 1, "c": 4}), ctd) == 4


def test_oracle_dynamic_goldens():
    d = exploit()
    assert oracle_metric_dynamic(d, alpha(d, {"ff": 3, "w": 15, "cc": 1}), builtin("min-time-par")) == 15
    assert oracle_metric_dynamic(d, alpha(d, {"ff": 42, "w": 10, "cc": 0}), builtin("min-skill")) == 10
    g = chains()
    assert oracle_metric_dynamic(g, alpha(g, {"a": 1, "b": 4, "c": 8}), builtin("min-cost")) == 13


def test_oracle_dynamic_on_static_tree_matches_static():
    t = treasure()
    a = alpha(t, {"n": 10, "t": 2, "p": 3})
    mc = builtin("min-cost")
    assert oracle_metric_dynamic(t, a, mc) == oracle_metric_static(t, a, mc)


def test_oracles_name_a_missing_value_by_label():
    t = treasure()
    a = alpha(t, {"n": 1, "p": 1})
    for oracle in (oracle_metric_static, oracle_metric_dynamic):
        with pytest.raises(MissingAttribution, match="^no value for basic action 't'$"):
            oracle(t, a, builtin("min-cost"))


def test_oracle_dynamic_needs_seq_for_chains():
    t = tt(("sand", "a", "b"))
    par = builtin("pareto(min-cost,min-skill)")
    a = {b: par.random_value(random.Random(1)) for b in bas_of(t)}
    with pytest.raises(IncompatibleDomain, match="^domain pareto\\(min-cost,min-skill\\) has no "
                       "sequential operator for a chained component$"):
        oracle_metric_dynamic(t, a, par)


def test_successful_poset():
    d = exploit()
    w, cc, ff = d.id_of("w"), d.id_of("cc"), d.id_of("ff")
    assert successful_poset(d, frozenset({w, cc}), {(w, cc)})
    assert not successful_poset(d, frozenset({w, cc}), {(cc, w)})
    assert successful_poset(d, frozenset({ff, w}), frozenset())
    assert not successful_poset(d, frozenset({cc}), frozenset())
    # order implied transitively still counts
    g = chains()
    a, b, c = (g.id_of(x) for x in "abc")
    assert successful_poset(g, frozenset({a, b, c}), {(a, b), (b, c)})
    assert not successful_poset(g, frozenset({a, b, c}), {(a, b), (c, b)})


def test_minimal_dynamic_attacks_are_successful_posets():
    rng = random.Random(13)
    for _ in range(40):
        t = rand_tree_dat(rng, 7)
        for p in minimal_attacks_dynamic(t):
            assert successful_poset(t, p.nodes, p.order)
            assert p.order == transitive_reduction(p.nodes, p.order)


def test_coherence_clean_on_goldens_and_random_dats():
    for t in (treasure(), overlap(), exploit(), chains()):
        assert coherence_check(t, trials=60, seed=5) == []
    rng = random.Random(99)
    for _ in range(20):
        t = rand_tree_dat(rng, 7)
        assert coherence_check(t, trials=30, seed=rng.randrange(10**6)) == []


def test_coherence_fails_for_unrestricted_orders():
    # supersets that invent their own execution order can break the ordering
    # constraints, so this variant must find violations
    t = tt(("or", "c", ("sand", "a", "b")))
    violations = coherence_check(t, trials=100, seed=0, restrict_order=False)
    assert violations
    attack, sup, order = violations[0]
    assert attack < sup
    assert not successful_poset(t, sup, order)
