import math
import random
from decimal import Decimal
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations
from pathlib import Path

import pytest

from atquant import (
    INF,
    AnalysisRequest,
    ModelDocument,
    analyze,
    bas_of,
    bu,
    bu_bdd,
    builtin,
    emit_model,
    k_top,
    minimal_attacks_dynamic,
    parse_model,
    oracle_metric_dynamic,
    oracle_metric_static,
    structure_function,
    total_probability_tree,
)
from atquant.analysis import bu_bdd_detailed, validate_attribution
from atquant.bdd import FALSE, TRUE, VarOrder, from_structure_function, minimise
from atquant.domains import (
    BUILTIN_NAMES, AttributeDomain, ValueKind, nat_add, render_value,
)
from atquant.errors import (
    AtError,
    BadAttributeValue,
    DagRejected,
    DynamicTreeRejected,
    IncompatibleDomain,
    InvalidRequest,
    MissingAttribution,
    NotProbability,
    NotSemiring,
    NotSemiringDynamic,
    UnsupportedDomainForKTop,
)
from atquant.tree import NodeType, fold

from helpers import (
    alpha,
    canonical,
    domain_with,
    overlap,
    labels,
    rand_alpha,
    rand_dag,
    rand_tree,
    rand_tree_dat,
    sand_over_and,
    chains,
    exploit,
    exploit_tree,
    naive_bottom_up,
    top_paths,
    treasure,
    tt,
)


def test_bu_static_tree_goldens():
    t = treasure()
    assert bu(t, alpha(t, {"n": 1, "t": 100, "p": 0}), builtin("min-time-seq")) == 1
    a = alpha(t, {"n": Fraction(7, 100), "t": Fraction(19, 20), "p": Fraction(1, 100)})
    assert bu(t, a, builtin("prob-max")) == Fraction(7, 100)


def test_bu_static_tree_preconditions():
    f = overlap()
    with pytest.raises(DagRejected):
        bu(f, alpha(f, {"a": 3, "b": 1, "c": 4}), builtin("min-cost"))
    # one fold serves dynamic trees too
    s = tt(("sand", "a", "b"))
    a = alpha(s, {"a": 3, "b": 15})
    assert bu(s, a, builtin("min-cost")) == oracle_metric_dynamic(s, a, builtin("min-cost")) == 18
    t = treasure()
    with pytest.raises(NotSemiring):
        bu(t, alpha(t, {"n": 1, "t": 2, "p": 3}), builtin("cost-to-defend"))


def test_naive_fold_overcounts_shared_leaves():
    f = overlap()
    a = alpha(f, {"a": 3, "b": 1, "c": 4})
    # b is priced twice along the two OR branches: min(3,1) + min(1,4) = 2
    assert naive_bottom_up(f, a, builtin("min-cost")) == 2
    assert oracle_metric_static(f, a, builtin("min-cost")) == 1


def test_bu_bdd_goldens():
    f = overlap()
    assert bu_bdd(f, alpha(f, {"a": 3, "b": 1, "c": 4}), builtin("min-cost")) == 1
    a = alpha(f, {"a": Fraction(1, 10), "b": Fraction(1, 20), "c": Fraction(3, 5)})
    assert bu_bdd(f, a, builtin("prob-max")) == Fraction(3, 50)


def test_bu_bdd_respects_explicit_orders():
    f = overlap()
    a = alpha(f, {"a": 3, "b": 1, "c": 4})
    ids = {f.label_of(b): b for b in bas_of(f)}
    for perm in (("a", "b", "c"), ("c", "b", "a"), ("b", "c", "a")):
        order = VarOrder(tuple(ids[x] for x in perm))
        assert bu_bdd(f, a, builtin("min-cost"), order) == 1


def test_bu_bdd_preconditions():
    t = treasure()
    a = alpha(t, {"n": 1, "t": 2, "p": 3})
    with pytest.raises(NotSemiring):
        bu_bdd(t, a, builtin("cost-to-defend"))
    # no terminal holds a value, so a domain without neutrals, or with one
    # outside its carrier (float("inf") is not INF), folds like any other
    bare = AttributeDomain(
        "bare-min-cost", ValueKind.NATURAL, min, nat_add, laws=frozenset({"and-over-or"})
    )
    for d in (bare, domain_with(builtin("min-cost"), or_neutral=float("inf"))):
        assert bu_bdd(t, a, d) == oracle_metric_static(t, a, d) == 1
    with pytest.raises(MissingAttribution):
        bu_bdd(t, {t.id_of("n"): 1}, builtin("min-cost"))


def test_bu_bdd_checks_values_before_folding_the_compiled_diagram():
    # a probability of 2 breaks absorption: the compiled diagram's
    # non-minimal path {a, c} would read 1 where the oracle reads 1/2
    t = tt(("or", ("and", "a", "b"), "c"))
    a = alpha(t, {"a": 2, "b": Fraction(1, 10), "c": Fraction(1, 2)})
    with pytest.raises(BadAttributeValue, match="basic action 'a'"):
        bu_bdd(t, a, builtin("prob-max"))


def test_tree_folds_and_k_top_check_values_once_their_guards_pass():
    # unchecked, a float reached the integer scaling of the weights, and
    # costs of -1 folded to -2
    t = treasure()  # BAS n, t, p
    for bad in (1.5, True, -1):
        a = alpha(t, {"n": 1, "t": bad, "p": bad})
        for fold_call in (bu, lambda *args: k_top(*args, k=2)):
            with pytest.raises(BadAttributeValue, match="basic action 't'"):
                fold_call(t, a, builtin("min-cost"))


def test_bu_bdd_visits_every_diagram_node_once():
    rng = random.Random(31)
    for _ in range(40):
        t = rand_dag(rng, 7)
        a = {b: rng.randint(0, 9) for b in bas_of(t)}
        _, diagram = bu_bdd_detailed(t, a, builtin("min-cost"))
        assert len(diagram.postorder) == diagram.node_count() + 2


def _min_additive_value(rng):
    x = rng.random()
    if x < 0.15:
        return INF
    if x < 0.3:
        return 0
    if x < 0.65:
        return Fraction(rng.randint(1, 300), rng.choice((1, 2, 3, 7, 10, 97)))
    return rng.randint(1, 40)


def test_min_additive_shortest_path_agrees_with_minimise_and_the_oracle():
    # the integer fold of the compiled diagram, against the same integer fold
    # of the minimal-solutions diagram (the domain declaring neither
    # and-is-plus nor or-absorbs-and), the compiled diagram's fold of the
    # domain's own operators (a wrapped or_op, which takes no integer
    # kernel) and the oracle
    rng = random.Random(1717)
    cases = 0
    for name in ("min-cost", "min-time-seq"):
        d = builtin(name)
        minimising = domain_with(d, laws=d.laws - {"and-is-plus", "or-absorbs-and"})
        wrapped = domain_with(d, or_op=lambda x, y, op=d.or_op: op(x, y))
        for i in range(1000):
            t = (rand_dag if i % 2 else rand_tree)(rng, 9)
            bas = bas_of(t)
            huge = [2**1100 + rng.randint(0, 10**6) for _ in bas]
            draws = [
                {b: _min_additive_value(rng) for b in bas},
                {b: INF for b in bas},
                # past the float range beside infinite weights
                {b: INF if rng.random() < 0.4 else h for b, h in zip(bas, huge)},
            ]
            for a in draws:
                got = bu_bdd(t, a, d)
                for want in (bu_bdd(t, a, minimising), bu_bdd(t, a, wrapped),
                             oracle_metric_static(t, a, d)):
                    assert got == want and render_value(got) == render_value(want)
                cases += 1
    assert cases == 6000


def test_additive_tree_folds_over_integers_agree_with_the_operator_fold():
    # the integer fold of a domain whose or_op is the builtin min or max and
    # whose operators are min, max or nat_add, on static and dynamic trees
    # (bu) and on static DAGs (bu_bdd), against the same domain with a
    # wrapped or_op, which folds the operators, and the oracle
    rng = random.Random(2048)
    cases = 0
    for name in ("min-cost", "min-time-seq", "max-damage", "min-time-par", "min-skill",
                 "max-challenge"):
        d = builtin(name)
        wrapped = domain_with(d, or_op=lambda x, y, op=d.or_op: op(x, y))
        for i in range(300):
            if i % 3 == 2:
                t, engine, oracle = rand_dag(rng, 9), bu_bdd, oracle_metric_static
            else:
                t, engine = rand_tree(rng, 9, dynamic=i % 3 == 1), bu
                oracle = oracle_metric_dynamic if i % 3 else oracle_metric_static
            bas = bas_of(t)
            draws = [
                {b: _min_additive_value(rng) for b in bas},
                # past the float range beside infinite values
                {b: INF if rng.random() < 0.4 else 2**1100 + rng.randint(0, 9) for b in bas},
            ]
            for a in draws:
                got = engine(t, a, d)
                for want in (engine(t, a, wrapped), oracle(t, a, d)):
                    assert got == want and render_value(got) == render_value(want)
                cases += 1
    assert cases == 3600


def _operator_fold(t, a: dict, d):
    """The tree fold of the domain's operators, each gate reduced by pairs."""
    return fold(t, [a[b] for b in bas_of(t)],
                *(partial(reduce, op) for op in (d.or_op, d.and_op, d.seq_op)))


def _probability(rng):
    """0, 1 or a ratio in between, as an int or a Fraction."""
    pick = rng.random()
    if pick < 0.3:
        return rng.choice((0, 1, Fraction(0), Fraction(1)))
    den = rng.randint(1, 12)
    return Fraction(rng.randint(0, den), den)


def test_product_tree_folds_over_integer_pairs_agree_with_the_operator_fold():
    # prob-max, and a prob-min beside it, fold (numerator, denominator)
    # pairs and make one Fraction at the root, in the tree fold and in the
    # diagram fold, which a wrapped or_op and the oracle check on DAGs;
    # min's neutral in [0, 1] is 1
    rng = random.Random(4096)
    prob_max = builtin("prob-max")
    prob_min = domain_with(prob_max, name="prob-min", or_op=min, or_neutral=Fraction(1),
                           sense="min", laws={"and-over-or", "seq-is-and"})
    cases = 0
    for d in (prob_max, prob_min):
        wrapped = domain_with(d, or_op=lambda x, y, op=d.or_op: op(x, y))
        for i in range(300):
            t = rand_tree(rng, 9 if i % 3 else 40, dynamic=i % 2 == 1)
            a = {b: _probability(rng) for b in bas_of(t)}
            got, want = bu(t, a, d), _operator_fold(t, a, d)
            assert got == want and render_value(got) == render_value(want)
            t = rand_dag(rng, 9)
            a = {b: _probability(rng) for b in bas_of(t)}
            got = bu_bdd(t, a, d)
            for want in (bu_bdd(t, a, wrapped), oracle_metric_static(t, a, d)):
                assert got == want and render_value(got) == render_value(want)
            cases += 1
    assert cases == 600


def test_the_prob_max_tree_fold_makes_one_fraction(monkeypatch):
    rng = random.Random(2000)
    t = rand_tree(rng, 1500, min_bas=1500)
    assert len(t) >= 2000
    table = {b: Fraction(rng.randint(1, 9), 10) for b in bas_of(t)}
    doc = parse_model(emit_model(ModelDocument(t, {"p": table})))
    a, d = doc.attributions["p"], builtin("prob-max")
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    got = bu(doc.tree, a, d)
    assert len(made) <= 1
    # the operator fold, the control, makes one per product of two values
    del made[:]
    want = _operator_fold(doc.tree, a, d)
    products = sum(len(kids) - 1 for ty, kids in zip(t.types, t.children) if ty is NodeType.AND)
    assert len(made) >= products > 500
    assert got == want
    # the diagram fold of a static DAG, a ladder of ORs over shared actions
    # under one AND, makes one too
    dag = tt(("and", *(("or", f"x{i}", f"x{i + 1}") for i in range(60))))
    a = {b: Fraction(rng.randint(1, 9), 10) for b in bas_of(dag)}
    del made[:]
    got, diagram = bu_bdd_detailed(dag, a, d)
    assert len(made) <= 1 and diagram.node_count() > 60
    assert got == bu_bdd(dag, a, domain_with(d, or_op=lambda x, y: max(x, y)))


def test_only_absorbing_domains_fold_the_compiled_diagram():
    # order a < b < c: the compiled diagram of (a AND b) OR c also has the
    # non-minimal path {a, c}, which only absorption makes harmless
    t = tt(("or", ("and", "a", "b"), "c"))
    a = alpha(t, {"a": 10, "b": 1, "c": 5})
    compiled = from_structure_function(t)
    minimal = {frozenset(map(t.id_of, "ab")), frozenset({t.id_of("c")})}
    assert frozenset(map(t.id_of, "ac")) in top_paths(compiled)
    value, diagram = bu_bdd_detailed(t, a, builtin("min-cost"))
    assert value == 5 and canonical(diagram) == canonical(compiled)
    # max is not absorbing over +: {a, c} would read 15
    value, diagram = bu_bdd_detailed(t, a, builtin("max-damage"))
    assert value == 11 and top_paths(diagram) == minimal
    # nor is min over a negative value, where {a, c} would read -5: the
    # values are checked before any diagram is folded
    with pytest.raises(BadAttributeValue, match="negative value -10 for basic action 'a'"):
        bu_bdd(t, alpha(t, {"a": -10, "b": 20, "c": 5}), builtin("min-cost"))
    # every domain declaring or-absorbs-and folds the compiled diagram, and
    # every other one the minimal attacks
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = {
        "min-skill": ({"a": 10, "b": 1, "c": 5}, 5),
        "min-time-par": ({"a": 10, "b": 1, "c": 5}, 5),
        "prob-max": ({"a": half, "b": half, "c": third}, third),
        "pareto(min-cost,prob-max)": (
            {"a": {(10, half)}, "b": {(1, half)}, "c": {(5, third)}}, {(5, third)}),
        "max-challenge": ({"a": 10, "b": 1, "c": 5}, 10),
        # {a, c} would add the point (15, 15), which neither point dominates
        "pareto(min-cost,max-damage)": (
            {"a": {(10, 10)}, "b": {(1, 1)}, "c": {(5, 5)}}, {(11, 11), (5, 5)}),
    }
    for name, (table, want) in cases.items():
        d = builtin(name)
        if d.kind is ValueKind.PARETO:
            table = {k: frozenset(v) for k, v in table.items()}
            want = frozenset(want)
        value, diagram = bu_bdd_detailed(t, alpha(t, table), d)
        assert value == want, name
        if "or-absorbs-and" in d.laws:
            assert canonical(diagram) == canonical(compiled), name
        else:
            assert top_paths(diagram) == minimal, name
    assert {n for n in cases if "or-absorbs-and" in builtin(n).laws} == {
        "min-skill", "min-time-par", "prob-max", "pareto(min-cost,prob-max)"}
    # no terminal holds a value, so every semiring builtin folds alike
    # without its neutrals or with the two swapped, on either diagram
    rng = random.Random(47)
    semirings = [d for d in map(builtin, BUILTIN_NAMES) if "and-over-or" in d.laws]
    for d in semirings:
        for variant in (domain_with(d, or_neutral=None, and_neutral=None),
                        domain_with(d, or_neutral=d.and_neutral, and_neutral=d.or_neutral)):
            for f in [t, overlap()] + [rand_dag(rng, max_bas=6) for _ in range(10)]:
                a = rand_alpha(rng, f, d)
                assert bu_bdd(f, a, variant) == oracle_metric_static(f, a, d), d.name
    # a wrong or_neutral left in place changes no value: prob-max with
    # or_op min keeps its neutral 0, which min would have read
    f = overlap()
    a = alpha(f, {"a": half, "b": third, "c": Fraction(1, 4)})
    least = domain_with(builtin("prob-max"), or_op=min)
    assert least.or_neutral == 0
    assert bu_bdd(f, a, least) == oracle_metric_static(f, a, least) == Fraction(1, 8)


def test_k_top_overlap_golden():
    f = overlap()
    a = alpha(f, {"a": 3, "b": 1, "c": 4})
    pairs = k_top(f, a, builtin("min-cost"), k=2)
    assert [(v, labels(f, s)) for v, s in pairs] == [
        (1, frozenset({"b"})),
        (7, frozenset({"a", "c"})),
    ]
    # k beyond the number of minimal attacks returns what exists
    assert len(k_top(f, a, builtin("min-cost"), k=10)) == 2
    assert k_top(f, a, builtin("min-cost"), k=1) == pairs[:1]


def test_k_top_max_domain_ranks_descending():
    f = overlap()
    a = alpha(f, {"a": 3, "b": 1, "c": 4})
    pairs = k_top(f, a, builtin("max-damage"), k=2)
    assert [(v, labels(f, s)) for v, s in pairs] == [
        (7, frozenset({"a", "c"})),
        (1, frozenset({"b"})),
    ]


def test_k_top_handles_infinite_weights():
    f = overlap()
    a = alpha(f, {"a": 3, "b": INF, "c": 4})
    pairs = k_top(f, a, builtin("min-cost"), k=2)
    assert pairs[0] == (7, frozenset({f.id_of("a"), f.id_of("c")}))
    assert pairs[1][0] is INF and labels(f, pairs[1][1]) == {"b"}
    assert bu_bdd(f, a, builtin("min-cost")) == 7


def test_k_top_rejects_non_additive_domains():
    t = treasure()
    a = alpha(t, {"n": 1, "t": 2, "p": 3})
    for name in ("min-skill", "max-challenge", "prob-max", "min-time-par", "cost-to-defend"):
        with pytest.raises(UnsupportedDomainForKTop):
            k_top(t, a, builtin(name), k=1)
    with pytest.raises(ValueError):
        k_top(t, a, builtin("min-cost"), k=0)


def test_k_top_full_enumeration_matches_oracle_per_attack():
    from atquant import minimal_attacks_static

    rng = random.Random(8)
    for _ in range(40):
        t = rand_tree(rng, 6)
        a = {b: rng.randint(0, 9) for b in bas_of(t)}
        suite = minimal_attacks_static(t)
        pairs = k_top(t, a, builtin("min-cost"), k=len(suite) + 5)
        assert len(pairs) == len(suite)
        assert {s for _, s in pairs} == suite
        for v, s in pairs:
            assert v == sum(a[b] for b in s)
        assert [v for v, _ in pairs] == sorted(v for v, _ in pairs)


def test_k_top_breaks_ties_deterministically():
    t = tt(("or", "a", "b", "c"))
    a = {b: 5 for b in bas_of(t)}
    pairs = k_top(t, a, builtin("min-cost"), k=3)
    assert [v for v, _ in pairs] == [5, 5, 5]
    assert pairs == k_top(t, a, builtin("min-cost"), k=3)


def _ranked_paths(t, a, d) -> list:
    """Every root-to-TRUE path of the minimal-solutions diagram as
    (metric, attack), sorted best first by (weight, decision sequence): the
    brute-force reading of k_top's contract."""
    m = minimise(from_structure_function(t))
    s = m.store
    flip = -1 if d.sense == "max" else 1
    paths = []
    stack = [(m.root, 0, (), frozenset())]
    while stack:
        v, w, dec, attack = stack.pop()
        if v == TRUE:
            paths.append((w, dec, attack))
        elif v != FALSE:
            x = a[m.var_at(v)]
            w1 = INF if w is INF or x is INF else w + x
            stack.append((s.lows[v], w, dec + ((s.ranks[v], 0),), attack))
            stack.append((s.highs[v], w1, dec + ((s.ranks[v], 1),), attack | {m.var_at(v)}))
    paths.sort(key=lambda p: (flip * (math.inf if p[0] is INF else p[0]), p[1]))
    return [(w, attack) for w, _, attack in paths]


def test_k_top_matches_brute_force_path_sort():
    rng = random.Random(2105)
    cases = 0
    for _ in range(300):
        for gen in (rand_tree, rand_dag):
            t = gen(rng, 8)
            for name in ("min-cost", "max-damage"):
                d = builtin(name)
                a = rand_alpha(rng, t, d)
                ranked = _ranked_paths(t, a, d)
                for k in (1, 3, 8):
                    assert k_top(t, a, d, k) == ranked[:k], (t, a, name, k)
                    cases += 1
    assert cases == 3600


# value pools for the exact-rational k-top differential, one model each
_RATIONAL_POOLS = {
    "integers": lambda rng: rng.randint(0, 20),
    "small denominators": lambda rng: Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 4, 6))),
    "coprime denominators":
        lambda rng: Fraction(rng.randint(1, 40), rng.choice((2, 3, 5, 7, 11, 13))),
    "decimals": lambda rng: Fraction(Decimal(f"{rng.randint(0, 9)}.{rng.randint(0, 99):02d}")),
    "ties": lambda rng: rng.choice((0, Fraction(1, 2), 1, Fraction(3, 2), 2)),
    "mixed": lambda rng: rng.choice((rng.randint(0, 5), Fraction(rng.randint(0, 9), 7),
                                     Fraction(Decimal("0.25")), INF)),
    # no float holds these, so INF ties are ranked beside them exactly
    "past the float range": lambda rng: 2**1100 + rng.randint(0, 9),
}


def test_k_top_with_exact_rationals_matches_brute_force_path_sort():
    # path weights are integers over one common denominator inside k_top;
    # the ranking, the ties and the printed values must be those of the
    # exact rational sums
    rng = random.Random(1207)
    cases = 0
    for _ in range(40):
        for gen in (rand_tree, rand_dag):
            for pool_name, draw in _RATIONAL_POOLS.items():
                t = gen(rng, 8)
                a = {b: INF if rng.random() < 0.1 else draw(rng) for b in bas_of(t)}
                for name in ("min-cost", "min-time-seq", "max-damage"):
                    d = builtin(name)
                    ranked = _ranked_paths(t, a, d)
                    for k in (1, 3, 8):
                        got = k_top(t, a, d, k)
                        assert got == ranked[:k], (t, a, name, k, pool_name)
                        assert [render_value(v) for v, _ in got] == \
                            [render_value(v) for v, _ in ranked[:k]]
                        cases += 1
    assert cases == 40 * 2 * len(_RATIONAL_POOLS) * 3 * 3


def test_k_top_common_denominator_past_float_range():
    # a denominator of 2**1100 scales the cost 1 past the largest float, and
    # {c, x} adds that integer to x's infinite weight
    t = tt(("or", ("and", "c", "x"), "d"))
    tiny = Fraction(1, 2**1100)
    a = alpha(t, {"c": 1, "x": INF, "d": tiny})
    for name in ("min-cost", "max-damage"):
        d = builtin(name)
        assert k_top(t, a, d, 2) == _ranked_paths(t, a, d)
    assert k_top(t, a, builtin("min-cost"), 2) == [
        (tiny, frozenset({t.id_of("d")})),
        (INF, frozenset({t.id_of("c"), t.id_of("x")})),
    ]


def test_k_top_breaks_infinite_ties_on_decisions():
    # order b0 < b2 < b1: {b1, b2} leaves b0 low, so it precedes {b0, b1},
    # although b0's finite cost makes the prefix to b1 look dearer
    t = tt(("and", ("or", "b0", "b2"), "b1"))
    a = alpha(t, {"b0": 3, "b1": INF, "b2": INF})
    first = (INF, frozenset({t.id_of("b1"), t.id_of("b2")}))
    assert k_top(t, a, builtin("min-cost"), k=1) == [first]
    assert k_top(t, a, builtin("min-cost"), k=2) == [
        first,
        (INF, frozenset({t.id_of("b0"), t.id_of("b1")})),
    ]


def test_bu_dynamic_tree_goldens():
    d = exploit_tree()
    a = alpha(d, {"ff": 3, "w1": 15, "w2": 15, "cc": 1})
    assert bu(d, a, builtin("min-time-par")) == 15
    s = tt(("sand", "w", "cc"))
    assert bu(s, alpha(s, {"w": 15, "cc": 1}), builtin("min-time-par")) == 16
    assert bu(s, alpha(s, {"w": 15, "cc": 1}), builtin("min-skill")) == 15


def test_bu_dynamic_tree_preconditions():
    g = chains()
    a = alpha(g, {"a": 1, "b": 4, "c": 8})
    with pytest.raises(DagRejected):
        bu(g, a, builtin("min-cost"))
    s = tt(("sand", "a", "b"))
    with pytest.raises(NotSemiringDynamic):
        bu(s, alpha(s, {"a": 1, "b": 2}), builtin("cost-to-defend"))
    with pytest.raises(NotSemiringDynamic):
        bu(s, alpha(s, {"a": 1, "b": 2}), builtin("pareto(min-cost,min-skill)"))


def test_bu_accepts_seq_equals_and_domains():
    s = tt(("sand", "a", "b"))
    a = alpha(s, {"a": 1, "b": 2})
    assert bu(s, a, builtin("min-cost")) == 3
    assert bu(s, a, builtin("max-damage")) == 3
    assert oracle_metric_dynamic(s, a, builtin("min-cost")) == 3


def test_a_declared_seq_is_and_routes_bu_without_the_same_function():
    # the sequential operator is a function of its own with and_op's values;
    # the declared law, not the identity of the functions, routes bu
    d = AttributeDomain(
        "min-cost-own-seq", ValueKind.NATURAL, min, nat_add, lambda x, y: nat_add(x, y),
        INF, 0, laws=frozenset({"and-over-or", "seq-is-and"}), sense="min",
    )
    assert d.seq_op is not d.and_op
    rng = random.Random(26)
    for t in [sand_over_and(), exploit_tree()] + [rand_tree_dat(rng, 7) for _ in range(40)]:
        a = rand_alpha(rng, t, d)
        res = analyze(AnalysisRequest(t, a, d))
        assert res.algorithm == "bu" and res.warnings == ()
        assert res.value == oracle_metric_dynamic(t, a, d)


def test_parallel_time_takes_the_critical_path():
    # SAND over AND: a and b overlap, then c follows, so the oracle's
    # critical path and the bottom-up pass both read max(1, 2) + 4 = 6,
    # where serialising the whole chain component would read 7
    t = sand_over_and()
    a = alpha(t, {"a": 1, "b": 2, "c": 4})
    par = builtin("min-time-par")
    assert oracle_metric_dynamic(t, a, par) == 6
    assert bu(t, a, par) == 6
    # domains folding chains with the conjunctive operator cannot diverge
    for name in ("min-cost", "min-skill", "max-damage"):
        d = builtin(name)
        assert bu(t, a, d) == oracle_metric_dynamic(t, a, d)
    # a diamond, a before b and c, both before d: b ends at 1 + 3 = 4, c at
    # 1 + 5 = 6, and d at max(4, 6) + 2 = 8; a counts once, by idempotence
    diamond = tt(("sand", "a", ("and", "b", "c"), "d"))
    a = alpha(diamond, {"a": 1, "b": 3, "c": 5, "d": 2})
    (attack,) = minimal_attacks_dynamic(diamond)
    assert len(attack.order) == 4
    assert oracle_metric_dynamic(diamond, a, par) == bu(diamond, a, par) == 8
    # an N, a and b before c, b before d, which no proper tree orders (its
    # posets are series-parallel): c ends at max(5, 1) + 2 = 7 and d at
    # 1 + 10 = 11, so the attack takes 11; only the oracle can say
    n = tt(("and", ("sand", "a", "c"), ("sand", "b", "c"), ("sand", "b", "d")))
    a = alpha(n, {"a": 5, "b": 1, "c": 2, "d": 10})
    (attack,) = minimal_attacks_dynamic(n)
    assert {(n.label_of(x), n.label_of(y)) for x, y in attack.order} == {
        ("a", "c"), ("b", "c"), ("b", "d")}
    assert oracle_metric_dynamic(n, a, par) == 11
    res = analyze(AnalysisRequest(n, a, par))
    assert (res.algorithm, res.value) == ("oracle", 11)


def test_an_ordered_attack_needs_seq_is_and_or_an_idempotent_and():
    # + after max, but max declared not idempotent: the critical path could
    # count a shared predecessor twice, so the oracle and bu both refuse
    par = builtin("min-time-par")
    d = domain_with(par, name="min-time-par-no-idem", laws=par.laws - {"and-idempotent"})
    t = tt(("sand", "a", "b"))
    a = alpha(t, {"a": 1, "b": 2})
    with pytest.raises(IncompatibleDomain, match="declares neither seq-is-and nor and-idempotent"):
        oracle_metric_dynamic(t, a, d)
    with pytest.raises(NotSemiringDynamic):
        bu(t, a, d)
    with pytest.raises(IncompatibleDomain):
        analyze(AnalysisRequest(t, a, d))
    # an unordered attack has no critical path to take
    lone = tt(("or", "a", ("sand", "b")))
    assert oracle_metric_dynamic(lone, alpha(lone, {"a": 1, "b": 2}), d) == 1


def test_total_probability_golden_and_bruteforce():
    t = treasure()
    a = alpha(t, {"n": Fraction(7, 100), "t": Fraction(95, 100), "p": Fraction(1, 100)})
    got = total_probability_tree(t, a)
    assert got == Fraction(78835, 1000000)

    bas = bas_of(t)
    total = Fraction(0)
    for r in range(len(bas) + 1):
        for s in combinations(bas, r):
            if structure_function(t, frozenset(s)):
                p = Fraction(1)
                for b in bas:
                    p *= a[b] if b in s else 1 - a[b]
                total += p
    assert got == total


def test_total_probability_preconditions():
    f = overlap()
    with pytest.raises(DagRejected):
        total_probability_tree(f, {b: Fraction(1, 2) for b in bas_of(f)})
    s = tt(("sand", "a", "b"))
    with pytest.raises(DynamicTreeRejected):
        total_probability_tree(s, {b: Fraction(1, 2) for b in bas_of(s)})
    t = treasure()
    with pytest.raises(NotProbability):
        total_probability_tree(t, {b: 2 for b in bas_of(t)})
    with pytest.raises(MissingAttribution):
        total_probability_tree(t, {})


def test_validate_attribution():
    t = treasure()
    mc = builtin("min-cost")
    validate_attribution(t, {b: 1 for b in bas_of(t)}, mc)
    with pytest.raises(MissingAttribution):
        validate_attribution(t, {t.id_of("n"): 1}, mc)
    with pytest.raises(BadAttributeValue):
        validate_attribution(t, {b: -5 for b in bas_of(t)}, mc)


def _first_offence(t, a, domain):
    """(class, message) of the first offence met checking BAS by BAS."""
    for b in bas_of(t):
        if b not in a:
            return MissingAttribution, f"no value for basic action {t.label_of(b)!r}"
        try:
            domain.validate_value(a[b])
        except BadAttributeValue as e:
            return BadAttributeValue, f"{e} for basic action {t.label_of(b)!r}"
    return None


def _assert_names_first_offence(t, a, domain):
    want = _first_offence(t, a, domain)
    assert want is not None
    for check in (lambda: validate_attribution(t, a, domain),
                  lambda: analyze(AnalysisRequest(t, a, domain))):
        with pytest.raises(want[0]) as ei:
            check()
        assert str(ei.value) == want[1]


def test_validation_names_the_first_offence_in_bas_order():
    t = tt(("or", "n", ("and", "t", "p"), ("and", "q", "r")))  # BAS n, t, p, q, r
    mc, pm = builtin("min-cost"), builtin("prob-max")
    bad, good = Fraction(-1, 2), Fraction(1, 2)
    # several BAS share one bad value object; the first of them is named
    shared = alpha(t, {"n": good, "t": good, "p": bad, "q": good, "r": bad})
    _assert_names_first_offence(t, shared, mc)
    _assert_names_first_offence(t, alpha(t, {"n": 2, "t": 2, "p": good, "q": 2, "r": 2}), pm)
    # a missing BAS after a bad value, then a bad value after a missing BAS
    _assert_names_first_offence(t, alpha(t, {"n": 1, "t": bad, "q": 1, "r": 1}), mc)
    _assert_names_first_offence(t, alpha(t, {"n": 1, "p": bad, "q": 1, "r": 1}), mc)
    # pareto fronts: every BAS holds its own front object
    par = builtin("pareto(min-cost,min-skill)")
    fronts = {b: frozenset({(1, 2)}) for b in bas_of(t)}
    fronts[t.id_of("q")] = frozenset({(1, -2)})
    fronts[t.id_of("r")] = frozenset({(1, 2, 3)})
    _assert_names_first_offence(t, fronts, par)
    del fronts[t.id_of("p")]
    _assert_names_first_offence(t, fronts, par)


def test_validation_agrees_with_a_per_bas_loop_on_random_attributions():
    rng = random.Random(17)
    mc = builtin("min-cost")
    bad = [-1, Fraction(-3, 2), "x", True, 1.5]
    for _ in range(300):
        t = (rand_tree if rng.random() < 0.5 else rand_dag)(rng, 8)
        bas = bas_of(t)
        a = {b: rng.choice((1, 2, Fraction(1, 3), INF)) for b in bas}
        for b in rng.sample(bas, rng.randint(0, min(2, len(bas)))):
            if rng.random() < 0.5:
                del a[b]
            else:
                a[b] = rng.choice(bad)
        if _first_offence(t, a, mc) is None:
            validate_attribution(t, a, mc)
        else:
            _assert_names_first_offence(t, a, mc)


def test_tree_folds_name_the_first_missing_value_in_bas_order():
    t = tt(("or", "n", ("and", "t", "p"), ("sand", "q", "r")))  # BAS n, t, p, q, r
    a = alpha(t, {"n": 1, "p": 1, "q": 1})
    static = tt(("or", "n", ("and", "t", "p"), ("and", "q", "r")))
    for fold_call in (lambda: bu(t, a, builtin("min-cost")),
                      lambda: bu(static, a, builtin("min-cost")),
                      lambda: total_probability_tree(static, a)):
        with pytest.raises(MissingAttribution, match="^no value for basic action 't'$"):
            fold_call()


def test_analyze_routing_matrix():
    mc = builtin("min-cost")
    ctd = builtin("cost-to-defend")

    t = treasure()
    a = alpha(t, {"n": 1, "t": 100, "p": 0})
    assert analyze(AnalysisRequest(t, a, mc)).algorithm == "bu"
    res = analyze(AnalysisRequest(t, alpha(t, {"n": 1, "t": 2, "p": 3}), ctd))
    assert res.algorithm == "oracle" and res.warnings

    f = overlap()
    af = alpha(f, {"a": 3, "b": 1, "c": 4})
    assert analyze(AnalysisRequest(f, af, mc)).algorithm == "bdd"
    assert analyze(AnalysisRequest(f, af, ctd)).algorithm == "oracle"

    dtree = exploit_tree()
    at = alpha(dtree, {"ff": 3, "w1": 15, "w2": 15, "cc": 1})
    assert analyze(AnalysisRequest(dtree, at, builtin("min-time-par"))).algorithm == "bu"
    # a seq-less domain on a dynamic tree routes to the oracle, which is the
    # one to complain about the chained component (bu would say non-semiring)
    par = builtin("pareto(min-cost,min-skill)")
    ap = {b: frozenset({(1, 2)}) for b in bas_of(dtree)}
    with pytest.raises(IncompatibleDomain):
        analyze(AnalysisRequest(dtree, ap, par))
    # with no multi-element chain the oracle route completes
    lone = tt(("or", "x", ("sand", "y")))
    al = {b: frozenset({(1, 2)}) for b in bas_of(lone)}
    res = analyze(AnalysisRequest(lone, al, par))
    assert res.algorithm == "oracle" and res.value == frozenset({(1, 2)})

    d = exploit()
    ad = alpha(d, {"ff": 3, "w": 15, "cc": 1})
    res = analyze(AnalysisRequest(d, ad, builtin("min-time-par")))
    assert res.algorithm == "oracle"
    assert any("shared subtrees" in w for w in res.warnings)
    assert res.value == 15


def test_analyze_never_runs_the_tree_fold_on_dags():
    f = overlap()
    af = alpha(f, {"a": 3, "b": 1, "c": 4})
    for name in ("min-cost", "min-skill", "max-damage", "prob-max", "cost-to-defend"):
        d = builtin(name)
        a = af if d.kind is ValueKind.NATURAL else {
            b: Fraction(1, 2) for b in bas_of(f)
        }
        res = analyze(AnalysisRequest(f, a, d))
        assert res.algorithm != "bu"
        if "and-over-or" in d.laws:
            assert res.value == oracle_metric_static(f, a, d)


def test_analyze_honors_and_rejects_explicit_choices():
    f = overlap()
    a = alpha(f, {"a": 3, "b": 1, "c": 4})
    mc = builtin("min-cost")
    assert analyze(AnalysisRequest(f, a, mc, algorithm="oracle")).algorithm == "oracle"
    assert analyze(AnalysisRequest(f, a, mc, algorithm="bdd")).value == 1
    with pytest.raises(DagRejected):
        analyze(AnalysisRequest(f, a, mc, algorithm="bu"))
    with pytest.raises(ValueError):
        analyze(AnalysisRequest(f, a, mc, algorithm="quantum"))


MODELS = Path(__file__).resolve().parent.parent / "models"

# algorithm -> (the public engine, the same request through analyze)
_SAME_REQUEST = {
    "bu": (bu, lambda t, a, d: analyze(AnalysisRequest(t, a, d, "bu")).value),
    "bdd": (bu_bdd, lambda t, a, d: analyze(AnalysisRequest(t, a, d, "bdd")).value),
    **{f"ktop k={k}": (lambda t, a, d, k=k: k_top(t, a, d, k),
                       lambda t, a, d, k=k: list(analyze(AnalysisRequest(t, a, d, k=k)).witnesses))
       for k in (1, 0)},
}


def _answer(call, *args):
    """The value of a call, or the class and message of its AtError."""
    try:
        return call(*args)
    except AtError as e:
        return type(e), str(e)


def test_engines_and_analyze_refuse_alike():
    # every engine checks a request in one order, the class, then the
    # domain, then the values, and analyze calls the engines, so a library
    # caller and the CLI get one answer or one refusal
    answers = {}
    for path in sorted(MODELS.glob("*.at")):
        doc = parse_model(path.read_text(encoding="utf-8-sig"))
        for name in sorted(doc.attributions):
            a = doc.attributions[name]
            for d in map(builtin, ("min-cost", "cost-to-defend", "prob-max")):
                for algorithm, (library, request) in _SAME_REQUEST.items():
                    cell = (path.stem, name, d.name, algorithm)
                    answers[cell] = _answer(library, doc.tree, a, d)
                    assert _answer(request, doc.tree, a, d) == answers[cell], cell
    assert len(answers) == 13 * 3 * 4  # thirteen declared attributions
    # prob-max reads costs and times as probabilities: the class and the
    # domain are refused before any value
    assert answers["treasure", "time", "prob-max", "ktop k=1"][0] is UnsupportedDomainForKTop
    assert answers["overlap", "cost", "prob-max", "bu"][0] is DagRejected
    assert answers["treasure", "time", "prob-max", "bdd"][0] is BadAttributeValue


def test_analyze_rejects_an_algorithm_choice_with_k():
    f = overlap()
    a = alpha(f, {"a": 3, "b": 1, "c": 4})
    mc = builtin("min-cost")
    for algorithm in ("nonsense", "bdd", "bu", "oracle"):
        with pytest.raises(InvalidRequest, match=repr(algorithm)):
            analyze(AnalysisRequest(f, a, mc, algorithm=algorithm, k=2))
    assert analyze(AnalysisRequest(f, a, mc, k=2)).algorithm == "ktop"


def test_analyze_ktop_and_stats():
    f = overlap()
    a = alpha(f, {"a": 3, "b": 1, "c": 4})
    res = analyze(AnalysisRequest(f, a, builtin("min-cost"), k=2))
    assert res.algorithm == "ktop"
    assert res.value == res.witnesses[0][0]
    assert [v for v, _ in res.witnesses] == [1, 7]
    assert res.stats["nodes"] == len(f)
    assert res.stats["bdd_nodes"] == 3
    assert isinstance(res.stats["millis"], int) and res.stats["millis"] >= 0


def test_invalid_requests_are_reported_as_at_errors():
    f = overlap()
    a = alpha(f, {"a": 3, "b": 1, "c": 4})
    for req in (
        AnalysisRequest(f, a, builtin("min-cost"), algorithm="quantum"),
        AnalysisRequest(f, a, builtin("min-cost"), k=0),
    ):
        with pytest.raises(AtError) as caught:
            analyze(req)
        assert isinstance(caught.value, ValueError)


def _exact_value(v) -> bool:
    """An int, a Fraction, INF itself, or a front of tuples of those."""
    if isinstance(v, frozenset):
        return all(type(vec) is tuple and all(map(_exact_value, vec)) for vec in v)
    return v is INF or type(v) in (int, Fraction)


def test_values_hold_no_float_but_inf():
    # INF is math.inf, and the package tests for it by identity: a fold, a
    # scaled path weight or an overflow that made a float of its own would
    # leak a value no `is INF` test recognises
    assert nat_add(10**400, INF) is INF and nat_add(INF, Fraction(10**400, 3)) is INF
    rng = random.Random(27)
    huge = (10**400, Fraction(10**400, 3))
    domains = [builtin(n) for n in BUILTIN_NAMES + ("pareto(min-cost,max-damage)",)]
    answered = set()
    for i in range(160):
        t = (rand_dag if i % 2 else rand_tree)(rng, 7, dynamic=i % 4 >= 2)
        for d in domains:
            a = {b: rng.choice(huge) + rng.randint(0, 3)
                 if d.kind is ValueKind.NATURAL and rng.random() < 0.3
                 else d.random_value(rng) for b in bas_of(t)}
            requests = [AnalysisRequest(t, a, d, algorithm) for algorithm in ("bu", "bdd", "oracle")]
            for req in requests + [AnalysisRequest(t, a, d, k=3)]:
                try:
                    res = analyze(req)
                except AtError:  # the algorithm refuses the model or the domain
                    continue
                answered.add(res.algorithm)
                assert _exact_value(res.value), (d.name, res.algorithm, res.value)
                for metric, _ in res.witnesses or ():
                    assert _exact_value(metric), (d.name, metric)
    assert answered == {"bu", "bdd", "oracle", "ktop"}
