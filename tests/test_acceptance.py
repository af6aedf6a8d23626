"""Acceptance gate: one test per numbered criterion.

`pytest tests/test_acceptance.py -v` prints exactly one pass/fail line per
criterion. The random differential corpora are built once in a module-scoped
fixture and shared by the criteria that quantify over them (5, 6 and 9).
"""

import time
from collections import Counter
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import pytest

from atquant import (
    AnalysisRequest,
    VarOrder,
    analyze,
    bas_of,
    bu_bdd,
    bu_dat,
    bu_sat,
    build,
    builtin,
    check_semiring_laws,
    classify,
    from_structure_function,
    is_well_formed,
    k_top,
    minimal_attacks_dynamic,
    minimal_attacks_static,
    minimise,
    oracle_metric_dynamic,
    oracle_metric_static,
    ordering_graph,
    structure_function,
    total_probability_tree,
)
from atquant.analysis import _EXACT, _refusal, auto_route, bu_bdd_detailed
from atquant.cli import main
from atquant.domains import BUILTIN_NAMES, LAWS, nat_add
from atquant.errors import AtError, InvalidBdd
from atquant.tree import Dynamics, NodeType, Shape, StructureKind, find_cycle

from helpers import (
    alpha,
    domain_with,
    overlap,
    ill_cross,
    ill_repeat,
    labels,
    law_triples,
    rand_alpha,
    rand_dag,
    rand_tree,
    rand_tree_dat,
    suite_labels,
    chains,
    check_minimised_shape,
    coherence_check,
    exploit,
    naive_bottom_up,
    top_paths,
    treasure,
    validate,
)

N_TREE_SAT = 500
N_DAG_SAT = 500
N_TREE_DAT = 500
N_DAG_DAT = 50
N_ORDERS = 3  # random variable orders per static model, on top of the default
SUITE_SECONDS_LIMIT = 300.0


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# -- the differential harness --------------------------------------------------
#
# Every random model of every structure class, in every domain, goes through
# every engine of the table `analysis._EXACT`. An engine on a class it serves
# must give the oracle's value where `_refusal` finds the domain exact, and
# raise exactly that refusal elsewhere; on any other class it must raise an
# AtError. `analyze` must take `auto_route`'s route, which is a fast path
# exactly when the class's engine is exact for the domain, and give the
# oracle's value, or its error where the oracle refuses.

STATIC_TREE = StructureKind(Shape.TREE, Dynamics.STATIC)
STATIC_DAG = StructureKind(Shape.DAG, Dynamics.STATIC)
DYNAMIC_TREE = StructureKind(Shape.TREE, Dynamics.DYNAMIC)
DYNAMIC_DAG = StructureKind(Shape.DAG, Dynamics.DYNAMIC)

# every builtin, and a pareto product that absorbs and one that does not
DOMAINS = BUILTIN_NAMES + ("pareto(min-cost,min-skill)", "pareto(min-cost,max-damage)")

# engine of `_EXACT` -> (the classes it serves, whether it runs under every
# variable order, its value under one)
ENGINES = {
    "bu_sat": ({STATIC_TREE}, False, lambda t, a, d, order: bu_sat(t, a, d)),
    "bu_bdd": ({STATIC_TREE, STATIC_DAG}, True, bu_bdd),
    "bu_dat": ({STATIC_TREE, DYNAMIC_TREE}, False, lambda t, a, d, order: bu_dat(t, a, d)),
    "ktop": ({STATIC_TREE, STATIC_DAG}, False,
             lambda t, a, d, order: k_top(t, a, d, 1, order)[0][0]),
}

# class -> (the algorithm the auto route names, the engine it runs); dynamic
# DAGs always go to the oracle
AUTO = {STATIC_TREE: ("bu", "bu_sat"), STATIC_DAG: ("bdd", "bu_bdd"),
        DYNAMIC_TREE: ("bu", "bu_dat")}


def _well_formed_dynamic_dag(rng: Random):
    # a draw may hold no SAND gate, and sharing under one can cycle the
    # ordering graph: reject both
    while True:
        t = rand_dag(rng, dynamic=True)
        if NodeType.SAND in t.types and is_well_formed(t)[0]:
            return t


def _random_orders(rng: Random, t) -> list:
    orders = [None]
    bas = list(bas_of(t))
    for _ in range(N_ORDERS):
        seq = list(bas)
        rng.shuffle(seq)
        orders.append(VarOrder(tuple(seq)))
    return orders


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AtError as e:
        return e


def _same(got, want) -> bool:
    """Equal values, or errors of one class with one message."""
    if isinstance(want, AtError) or isinstance(got, AtError):
        return type(got) is type(want) and got.args == want.args
    return got == want


def _check_diagrams(t, orders, rep) -> None:
    """Each order's compiled and minimised diagrams are well formed, and the
    minimised one's paths are the minimal attacks."""
    suite = minimal_attacks_static(t)
    for order in orders:
        try:
            b = from_structure_function(t, order)
            validate(b)
            rep.bdds_validated += 1
            m = minimise(b)
            validate(m)
            check_minimised_shape(m)
            rep.bdds_validated += 1
        except InvalidBdd as e:
            rep.bdd_failures.append(f"{len(t)} nodes: {e}")
            continue
        if top_paths(m) == suite:
            rep.paths_matched += 1
        else:
            rep.bdd_failures.append(f"{len(t)} nodes: top_paths != minimal attacks")


def _check_cells(t, rng, domains, rep) -> None:
    """Every cell of one model: each domain through each engine, the auto
    route and `analyze`. `domains` holds (domain, engine -> its refusal)."""
    kind = classify(t)
    static = kind.dynamics is Dynamics.STATIC
    orders = _random_orders(rng, t) if static else [None]
    if static:
        _check_diagrams(t, orders, rep)
    oracle = oracle_metric_static if static else oracle_metric_dynamic

    def cell(d, what, got, want):
        rep.cells[kind] += 1
        if not _same(got, want):
            rep.mismatches.append(f"{kind} model of {len(t)} nodes, {d.name}, {what}: "
                                  f"got {got!r}, want {want!r}")

    for d, refusals in domains:
        a = rand_alpha(rng, t, d)
        want = _outcome(oracle, t, a, d)
        for engine, (serves, ordered, run) in ENGINES.items():
            expected = want if refusals[engine] is None else refusals[engine]
            for i, order in enumerate(orders if ordered else [None]):
                got = _outcome(run, t, a, d, order)
                what = f"{engine} under order {i}" if i else engine
                if kind in serves:
                    cell(d, what, got, expected)
                else:
                    cell(d, what, isinstance(got, AtError), True)
        algorithm, warning = auto_route(kind, d)
        fast = kind in AUTO and refusals[AUTO[kind][1]] is None
        cell(d, "auto_route", (algorithm, warning is None),
             (AUTO[kind][0] if fast else "oracle", fast))
        res = _outcome(analyze, AnalysisRequest(t, a, d))
        if not isinstance(res, AtError):
            res = (res.algorithm, res.warnings, res.value)
        if not (isinstance(want, AtError) and algorithm == "oracle"):
            want = (algorithm, () if warning is None else (warning,), want)
        cell(d, "analyze", res, want)


@pytest.fixture(scope="module")
def suites():
    rng = Random(0xA77AC)
    assert ENGINES.keys() == _EXACT.keys()  # a new engine enters the harness here
    domains = [(d, {engine: _refusal(engine, d) for engine in _EXACT})
               for d in map(builtin, DOMAINS)]
    rep = SimpleNamespace(
        mismatches=[],
        bdd_failures=[],
        cells=Counter(),
        bdds_validated=0,
        paths_matched=0,
        trees=0,
        dags=0,
        dats=0,
        static_dag_samples=[],
        dynamic_dag_samples=[],
        dat_trees=[],
        elapsed=0.0,
    )
    t0 = time.perf_counter()
    for _ in range(N_TREE_SAT):
        _check_cells(rand_tree(rng), rng, domains, rep)
        rep.trees += 1
    for i in range(N_DAG_SAT):
        t = rand_dag(rng)
        if i < 50:
            rep.static_dag_samples.append(t)
        _check_cells(t, rng, domains, rep)
        rep.dags += 1
    for _ in range(N_DAG_DAT):
        t = _well_formed_dynamic_dag(rng)
        rep.dynamic_dag_samples.append(t)
        _check_cells(t, rng, domains, rep)
    for _ in range(N_TREE_DAT):
        t = rand_tree_dat(rng)
        assert is_well_formed(t)[0]  # proper dynamic trees never cycle; bu_dat relies on it
        assert _ordering_cycle(t) is None  # the relation agrees; is_well_formed skips the search
        rep.dat_trees.append(t)
        _check_cells(t, rng, domains, rep)
        rep.dats += 1
    rep.elapsed = time.perf_counter() - t0
    return rep


def _ordering_cycle(t):
    """A cycle of the ordering graph itself, or None: one search from an
    extra vertex with an edge to every BAS."""
    succ = [[] for _ in range(len(t))] + [list(bas_of(t))]
    for a, b in sorted(ordering_graph(t)):
        succ[a].append(b)
    return find_cycle(len(t), succ)


# -- the criteria ---------------------------------------------------------------


def test_criterion_01_golden_metric_values():
    cases = []

    def record(name, fn, want, check=None):
        got, dt = timed(fn)
        assert got == want, f"{name}: {got!r} != {want!r}"
        assert dt < 1.0, f"{name} took {dt:.3f}s"
        if check:
            check(got)
        cases.append(name)

    t = treasure()
    a_time = alpha(t, {"n": 1, "t": 100, "p": 0})
    a_prob = alpha(t, {"n": Fraction(7, 100), "t": Fraction(19, 20), "p": Fraction(1, 100)})
    record("treasure min-time", lambda: bu_sat(t, a_time, builtin("min-time-seq")), 1)
    record("treasure prob", lambda: bu_sat(t, a_prob, builtin("prob-max")), Fraction(7, 100))

    g = overlap()
    g_cost = alpha(g, {"a": 3, "b": 1, "c": 4})
    g_prob = alpha(g, {"a": Fraction(1, 10), "b": Fraction(1, 20), "c": Fraction(3, 5)})
    res, dt = timed(
        analyze, AnalysisRequest(g, g_cost, builtin("min-cost"))
    )
    assert res.value == 1 and res.algorithm == "bdd" and dt < 1.0
    cases.append("overlap min-cost via the shared-structure diagram")
    record("overlap prob", lambda: bu_bdd(g, g_prob, builtin("prob-max")), Fraction(3, 50))

    pairs, dt = timed(k_top, g, g_cost, builtin("min-cost"), 2)
    assert dt < 1.0
    assert [(w, labels(g, s)) for w, s in pairs] == [
        (1, frozenset({"b"})),
        (7, frozenset({"a", "c"})),
    ]
    cases.append("overlap k_top(2)")

    d = exploit()
    record(
        "exploit min-time",
        lambda: analyze(
            AnalysisRequest(d, alpha(d, {"ff": 3, "w": 15, "cc": 1}), builtin("min-time-par"))
        ).value,
        15,
    )
    record(
        "exploit min-skill",
        lambda: analyze(
            AnalysisRequest(d, alpha(d, {"ff": 42, "w": 10, "cc": 0}), builtin("min-skill"))
        ).value,
        10,
    )

    h = chains()
    record(
        "chains min-cost",
        lambda: analyze(
            AnalysisRequest(h, alpha(h, {"a": 1, "b": 4, "c": 8}), builtin("min-cost"))
        ).value,
        13,
    )
    assert len(cases) == 8
    print("criterion 1 PASS: 8 golden metric values exact, each under 1s")


def test_criterion_02_semantics_goldens():
    t = treasure()
    assert suite_labels(t, minimal_attacks_static(t)) == {
        frozenset({"n"}),
        frozenset({"t", "p"}),
    }

    d = exploit()
    got = {
        (labels(d, p.nodes), frozenset((d.label_of(x), d.label_of(y)) for x, y in p.order))
        for p in minimal_attacks_dynamic(d)
    }
    assert got == {
        (frozenset({"w", "cc"}), frozenset({("w", "cc")})),
        (frozenset({"ff", "w"}), frozenset()),
    }

    og = ordering_graph(d)
    assert {(d.label_of(x), d.label_of(y)) for x, y in og} == {("w", "cc")}
    print("criterion 2 PASS: attack-suite and ordering-graph goldens match exactly")


def test_criterion_03_well_formedness_goldens():
    bad_repeat = ill_repeat()
    ok, cycle = is_well_formed(bad_repeat)
    assert not ok and [bad_repeat.label_of(v) for v in cycle] == ["a", "b", "a"]

    bad_cross = ill_cross()
    ok, cycle = is_well_formed(bad_cross)
    assert not ok and [bad_cross.label_of(v) for v in cycle] == ["b", "b"]

    for good in (chains(), exploit()):
        ok, cycle = is_well_formed(good)
        assert ok and cycle is None
    print("criterion 3 PASS: both ill-formed models rejected with cycle witnesses; chains, exploit accepted")


def test_criterion_04_negative_control(suites):
    g = overlap()
    a = alpha(g, {"a": 3, "b": 1, "c": 4})
    dom = builtin("min-cost")
    assert naive_bottom_up(g, a, dom) == 2
    assert oracle_metric_static(g, a, dom) == 1

    checked = 0
    for t in suites.static_dag_samples + suites.dynamic_dag_samples:
        for name in ("min-cost", "max-damage"):
            d = builtin(name)
            res = analyze(AnalysisRequest(t, rand_alpha(Random(checked), t, d), d))
            assert res.algorithm != "bu", "dispatcher picked the tree fold for a DAG"
            checked += 1
    assert checked >= 100
    print(
        "criterion 4 PASS: tree fold overcounts the shared DAG (2 != 1); "
        f"dispatcher avoided it on {checked} DAG runs"
    )


def test_criterion_05_oracle_equivalence_suites(suites):
    assert suites.trees == N_TREE_SAT
    assert suites.dags == N_DAG_SAT
    assert suites.dats == N_TREE_DAT
    assert len(suites.dynamic_dag_samples) == N_DAG_DAT
    assert not suites.mismatches, (
        f"{len(suites.mismatches)} cells failed; the first: {suites.mismatches[0]}")
    # every engine runs on every class, so each class has been seen whole
    assert suites.cells.keys() == {STATIC_TREE, STATIC_DAG, DYNAMIC_TREE, DYNAMIC_DAG}
    assert suites.elapsed < SUITE_SECONDS_LIMIT, f"suites took {suites.elapsed:.0f}s"
    per_class = ", ".join(f"{kind} {suites.cells[kind]}"
                          for kind in (STATIC_TREE, STATIC_DAG, DYNAMIC_TREE, DYNAMIC_DAG))
    print(
        f"criterion 5 PASS: {sum(suites.cells.values())} harness cells ({per_class}) over "
        f"{suites.trees}+{suites.dags}+{suites.dats}+{len(suites.dynamic_dag_samples)} "
        f"random models, {len(DOMAINS)} domains and {len(ENGINES)} engines held in "
        f"{suites.elapsed:.0f}s"
    )


def test_criterion_06_bdd_invariants(suites):
    assert suites.bdd_failures == []
    expected_pairs = (suites.trees + suites.dags) * (N_ORDERS + 1)
    assert suites.bdds_validated == 2 * expected_pairs
    assert suites.paths_matched == expected_pairs
    print(
        f"criterion 6 PASS: {suites.bdds_validated} diagrams validated; "
        f"{suites.paths_matched} minimised diagrams had the right shape and "
        "path set"
    )


def test_criterion_07_algebra_suite():
    flagged = None
    for name in BUILTIN_NAMES:
        d = builtin(name)
        report = check_semiring_laws(d, law_triples(d, 1000, 7))
        # every declared law is probed, so all_hold covers each of them
        assert d.laws <= {r.law for r in report.results}
        if name == "cost-to-defend":
            assert "and-over-or" not in d.laws
            assert not report.result("and-over-or").holds
            # the classic witness: 1 min (2+3) = 1 but (1 min 2) + (1 min 3) = 2
            targeted = check_semiring_laws(d, triples=[(1, 2, 3)])
            assert targeted.result("and-over-or").counterexample == (1, 2, 3)
            assert d.and_op(1, d.or_op(2, 3)) == 1
            assert d.or_op(d.and_op(1, 2), d.and_op(1, 3)) == 2
            flagged = name
        else:
            assert report.all_hold, f"{name}: {[r.law for r in report.results if not r.holds]}"
    assert flagged
    pareto = builtin("pareto(min-cost,prob-max)")
    assert check_semiring_laws(pareto, law_triples(pareto, 1000, 7)).all_hold
    # each law declared falsely is caught with a counterexample
    ctd, mc = builtin("cost-to-defend"), builtin("min-cost")
    par, skill, dmg = builtin("min-time-par"), builtin("min-skill"), builtin("max-damage")
    false_claims = {
        "and-over-or": domain_with(ctd, laws=frozenset({"and-over-or"})),  # min over +
        "seq-over-and": domain_with(mc, laws=frozenset({"seq-over-and"})),  # + over +
        "seq-over-or": domain_with(ctd, seq_op=nat_add, laws=frozenset({"seq-over-or"})),  # + over +
        "seq-is-and": domain_with(par, laws=par.laws | {"seq-is-and"}),  # + is not max
        "and-is-plus": domain_with(skill, laws=skill.laws | {"and-is-plus"}),  # max is not +
        "or-absorbs-and": domain_with(dmg, laws=dmg.laws | {"or-absorbs-and"}),  # max(x, x + y)
        "and-idempotent": domain_with(mc, laws=mc.laws | {"and-idempotent"}),  # x + x
    }
    assert false_claims.keys() == LAWS
    for law, d in false_claims.items():
        caught = check_semiring_laws(d, law_triples(d, 1000, 7)).result(law)
        assert not caught.holds and len(caught.counterexample) == 3, law
    print(
        "criterion 7 PASS: 1000-triple law checks hold for every law a builtin "
        "declares; cost-to-defend flagged with counterexample (1, 2, 3); each of "
        f"the {len(LAWS)} laws declared falsely is caught"
    )


def test_criterion_08_total_probability_vs_brute_force():
    t = treasure()
    a = alpha(t, {"n": Fraction(7, 100), "t": Fraction(19, 20), "p": Fraction(1, 100)})
    bas = bas_of(t)
    want = Fraction(0)
    for bits in range(2 ** len(bas)):
        chosen = {b for i, b in enumerate(bas) if bits >> i & 1}
        weight = Fraction(1)
        for b in bas:
            weight *= a[b] if b in chosen else 1 - a[b]
        if structure_function(t, chosen):
            want += weight
    got = total_probability_tree(t, a)
    assert got == want == Fraction(78835, 1000000)
    print("criterion 8 PASS: total probability equals the 2^3-subset sum exactly")


def test_criterion_09_coherence(suites):
    violations = 0
    for i, t in enumerate(suites.dat_trees):
        violations += len(coherence_check(t, trials=100, seed=i))
    assert violations == 0
    print(
        f"criterion 9 PASS: 0 coherence violations over "
        f"{100 * len(suites.dat_trees)} superset trials"
    )


def _balanced_tree(leaf_power: int):
    defs = []
    layer = []
    for i in range(2 ** leaf_power):
        lbl = f"b{i}"
        defs.append((lbl, NodeType.BAS, []))
        layer.append(lbl)
    gi = 0
    depth = 0
    while len(layer) > 1:
        gate = NodeType.AND if depth % 2 == 0 else NodeType.OR
        nxt = []
        for j in range(0, len(layer), 2):
            lbl = f"g{gi}"
            gi += 1
            defs.append((lbl, gate, [layer[j], layer[j + 1]]))
            nxt.append(lbl)
        layer = nxt
        depth += 1
    return build(defs, layer[0])


def _ladder_text(rungs: int) -> tuple[str, int]:
    """AND(OR(b0,b1), OR(b1,b2), ...) with costs 1-5, and its min-cost: a
    cheapest set of actions touching every adjacent pair, by a DP along the
    chain (take[i], skip[i]: cheapest cover of the first i rungs with b_i
    taken or not)."""
    cost = [1 + (7 * i) % 5 for i in range(rungs + 1)]
    lines = ['toplevel "root";', '"root" and ' + " ".join(f'"o{i}"' for i in range(rungs)) + ";"]
    lines += [f'"o{i}" or "b{i}" "b{i + 1}";' for i in range(rungs)]
    lines += [f'"b{i}" bas;' for i in range(rungs + 1)]
    lines += ['attribution "cost" {', *(f'  "b{i}" = {c};' for i, c in enumerate(cost)), "}"]
    take, skip = cost[0], 0
    for c in cost[1:]:
        take, skip = c + min(take, skip), take
    return "\n".join(lines) + "\n", min(take, skip)


def _balanced_dynamic_text(leaf_power: int) -> str:
    """A balanced binary tree over 2^leaf_power actions whose gate layers
    cycle SAND, OR, AND from the bottom up."""
    kinds = ("sand", "or", "and")
    layer = [f"b{i}" for i in range(2 ** leaf_power)]
    lines = [f'"{b}" bas;' for b in layer]
    gi = depth = 0
    while len(layer) > 1:
        nxt = []
        for j in range(0, len(layer), 2):
            lines.append(f'"g{gi}" {kinds[depth % 3]} "{layer[j]}" "{layer[j + 1]}";')
            nxt.append(f"g{gi}")
            gi += 1
        layer = nxt
        depth += 1
    return f'toplevel "{layer[0]}";\n' + "\n".join(lines) + "\n"


def _sand_chain_text(levels: int) -> str:
    """s0 = SAND(b0, s1), s1 = SAND(b1, s2), ...: one SAND per level, so
    both the tree and its ordering graph are levels deep."""
    lines = ['toplevel "s0";']
    lines += [f'"s{i}" sand "b{i}" "s{i + 1}";' for i in range(levels - 1)]
    lines.append(f'"s{levels - 1}" sand "b{levels - 1}" "b{levels}";')
    lines += [f'"b{i}" bas;' for i in range(levels + 1)]
    return "\n".join(lines) + "\n"


def test_criterion_10_scalability_smoke(suites, tmp_path, capsys):
    t = _balanced_tree(16)
    assert len(t) >= 100_000
    a = {b: 1 for b in bas_of(t)}
    value, dt = timed(bu_sat, t, a, builtin("min-cost"))
    assert value == 256  # eight AND layers double the unit cost, ORs keep it
    assert dt < 1.0, f"fold over {len(t)} nodes took {dt:.3f}s"

    visited = 0
    for s in suites.static_dag_samples[:25]:
        _, diagram = bu_bdd_detailed(s, {b: 1 for b in bas_of(s)}, builtin("min-cost"))
        assert len(diagram.postorder) == diagram.node_count() + 2
        visited += len(diagram.postorder)

    # a 2,000-rung ladder through the CLI: 2,001 variables deep, past the
    # interpreter's recursion limit, and one 2,000-child gate over shared actions
    text, best = _ladder_text(2000)
    path = tmp_path / "ladder.at"
    path.write_text(text)
    code, ladder_dt = timed(main, ["metric", str(path), "--domain", "min-cost", "--attribution", "cost"])
    out = capsys.readouterr().out
    assert code == 0 and out == f"metric: min-cost\nvalue: {best}\nalgorithm: bdd\n"
    assert ladder_dt < 1.0, f"2000-rung ladder took {ladder_dt:.3f}s"

    # the five cheapest attacks on the same ladder, one bottom-up pass
    argv = ["ktop", str(path), "--domain", "min-cost", "--attribution", "cost", "--k", "5"]
    code, ktop_dt = timed(main, argv)
    rows = capsys.readouterr().out.splitlines()
    costs = [int(row.split(" ", 1)[0]) for row in rows]
    assert code == 0 and len(set(rows)) == len(rows) == 5
    assert costs[0] == best and costs == sorted(costs)
    assert ktop_dt < 1.0, f"k-top on the 2000-rung ladder took {ktop_dt:.3f}s"

    # well-formedness through the CLI on a 2^17 - 1 node dynamic tree and a
    # SAND chain 10^5 levels deep; the bounds mostly pay for parsing, while a
    # check quadratic in the model would not finish within them
    checks = []
    for name, text in (("balanced", _balanced_dynamic_text(16)), ("chain", _sand_chain_text(100_000))):
        path = tmp_path / f"{name}.at"
        path.write_text(text)
        code, check_dt = timed(main, ["check", str(path)])
        assert code == 0 and capsys.readouterr().out == "tree, dynamic, well-formed\n"
        assert check_dt < 30.0, f"check on the {name} model took {check_dt:.3f}s"
        checks.append(check_dt)
    print(
        f"criterion 10 PASS: {len(t)}-node fold in {dt * 1000:.0f}ms; "
        f"diagram fold visited exactly the {visited} reachable nodes; "
        f"2000-rung ladder metric in {ladder_dt * 1000:.0f}ms "
        f"and k-top in {ktop_dt * 1000:.0f}ms; "
        f"check on the {2 ** 17 - 1}-node tree in {checks[0]:.1f}s "
        f"and the 10^5-level SAND chain in {checks[1]:.1f}s"
    )
