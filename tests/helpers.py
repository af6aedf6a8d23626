"""Shared test machinery: tuple-tree construction, golden models, random
model generators for the differential suites, the reference walks and
diagram builders the suites compare the package with, and the checkers
they run on its results."""

from functools import partial, reduce
from itertools import count
from random import Random
from typing import Callable, Iterable, Sequence

from atquant import (bas_of, build, classify, minimal_attacks_static, ordering_graph,
                     static_projection, structure_function)
from atquant.bdd import FALSE, TRUE, Bdd, _Store
from atquant.domains import AttributeDomain, _dominates
from atquant.errors import InvalidBdd
from atquant.semantics import DEFAULT_BUDGET, transitive_closure
from atquant.tree import AttackTree, Dynamics, NodeType, Shape, fold

GATE = {"or": NodeType.OR, "and": NodeType.AND, "sand": NodeType.SAND}


def tt(shape) -> AttackTree:
    """Nested tuples to AttackTree; bare strings are BAS, repeats shared.

    tt(("or", "n", ("and", "t", "p")))
    """
    defs = []
    seen = set()
    gi = count()

    def walk(node) -> str:
        if isinstance(node, str):
            if node not in seen:
                seen.add(node)
                defs.append((node, NodeType.BAS, []))
            return node
        kind, *kids = node
        kid_labels = [walk(k) for k in kids]
        label = f"g{next(gi)}"
        defs.append((label, GATE[kind], kid_labels))
        return label

    return build(defs, walk(shape))


def treasure() -> AttackTree:
    return tt(("or", "n", ("and", "t", "p")))


def overlap() -> AttackTree:
    return tt(("and", ("or", "a", "b"), ("or", "b", "c")))


def exploit() -> AttackTree:
    return tt(("or", ("and", "ff", "w"), ("sand", "w", "cc")))


def exploit_tree() -> AttackTree:
    """The dynamic golden with its shared action split in two, making it a tree."""
    return tt(("or", ("and", "ff", "w1"), ("sand", "w2", "cc")))


def chains() -> AttackTree:
    return tt(("and", ("sand", "a", "b"), ("sand", "b", "c")))


def sand_over_and() -> AttackTree:
    """SAND(AND(a, b), c): the shape where a sequential step follows
    genuinely parallel work."""
    return tt(("sand", ("and", "a", "b"), "c"))


def ill_repeat() -> AttackTree:
    return tt(("sand", "a", "b", "a"))


def ill_cross() -> AttackTree:
    return tt(("sand", ("and", "a", "b"), ("and", "b", "c")))


def alpha(t: AttackTree, table: dict) -> dict:
    return {t.id_of(k): v for k, v in table.items()}


def labels(t: AttackTree, ids) -> frozenset:
    return frozenset(t.label_of(i) for i in ids)


def suite_labels(t: AttackTree, suite) -> set:
    return {labels(t, a) for a in suite}


def rand_tree(rng: Random, max_bas: int = 8, dynamic: bool = False,
              min_bas: int = 1) -> AttackTree:
    """Random proper tree; every BAS referenced once."""
    n = rng.randint(min_bas, max_bas)
    defs = [(f"b{i}", NodeType.BAS, []) for i in range(n)]
    avail = [f"b{i}" for i in range(n)]
    kinds = [NodeType.OR, NodeType.AND] + ([NodeType.SAND] if dynamic else [])
    gi = 0
    while len(avail) > 1:
        k = min(len(avail), rng.choice((2, 2, 2, 3)))
        rng.shuffle(avail)
        kids, avail = avail[:k], avail[k:]
        defs.append((f"g{gi}", rng.choice(kinds), kids))
        avail.append(f"g{gi}")
        gi += 1
    return build(defs, avail[0])


def rand_tree_dat(rng: Random, max_bas: int = 8) -> AttackTree:
    """Random tree with at least one SAND gate. Tree-shaped ordering graphs
    are always acyclic, so no well-formedness rejection loop is needed."""
    while True:
        t = rand_tree(rng, max_bas, dynamic=True)
        if NodeType.SAND in t.types:
            return t


def rand_dag(rng: Random, max_bas: int = 8, dynamic: bool = False) -> AttackTree:
    """Random single-rooted DAG with at least one shared reference."""
    n = rng.randint(2, max_bas)
    defs = [(f"b{i}", NodeType.BAS, []) for i in range(n)]
    pool = [f"b{i}" for i in range(n)]
    kinds = [NodeType.OR, NodeType.AND] + ([NodeType.SAND] if dynamic else [])
    for gi in range(rng.randint(1, 4)):
        kids = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        if rng.random() < 0.15:
            kids = kids + [rng.choice(kids)]  # same-gate repetition is a DAG too
        defs.append((f"g{gi}", rng.choice(kinds), kids))
        pool.append(f"g{gi}")
    has_parent = {c for _, _, cs in defs for c in cs}
    orphans = [lbl for lbl, _, _ in defs if lbl not in has_parent]
    if len(orphans) > 1:
        defs.append(("root", rng.choice(kinds), orphans))
    root = defs[-1][0] if len(orphans) > 1 else orphans[0]

    t = build(defs, root)
    if classify(t).shape is Shape.DAG:
        return t
    # Tree came out: force one share. Children must be defined earlier than
    # the gate that adopts them, which keeps the child relation acyclic.
    order = {lbl: i for i, (lbl, _, _) in enumerate(defs)}
    for gidx in rng.sample(range(len(defs)), len(defs)):
        lbl, kind, kids = defs[gidx]
        if kind is NodeType.BAS:
            continue
        candidates = [x for x, _, _ in defs if order[x] < gidx and x not in kids]
        extra = rng.choice(candidates) if candidates else kids[0]
        defs[gidx] = (lbl, kind, list(kids) + [extra])
        return build(defs, root)
    raise AssertionError("unreachable: a 2+ BAS model always has a gate")


def rand_alpha(rng: Random, t: AttackTree, domain) -> dict:
    return {b: domain.random_value(rng) for b in bas_of(t)}


# -- references -----------------------------------------------------------------


def postorder(start: int, children: Callable[[int], Sequence[int]]) -> tuple[int, ...]:
    """Ids reachable from start through children(v), each after all of its
    children; the last child listed is walked first, and the graph must be
    acyclic. `AttackTree.postorder` and `Bdd.postorder` must give this order."""
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


def domain_with(domain: AttributeDomain, **changes) -> AttributeDomain:
    """The domain with the named fields changed, rebuilt through its
    constructor, so the InvalidDomain checks run on the result. A domain
    compares every field, in the constructor's order."""
    fields = {name: getattr(domain, name) for name in domain._compared}
    return AttributeDomain(**{**fields, **changes})


def law_triples(domain, n: int, seed: int) -> list[tuple]:
    """n triples of `domain.random_value` draws from Random(seed), the
    generator `check_semiring_laws` uses for its default triples."""
    rng = Random(seed)
    return [tuple(domain.random_value(rng) for _ in range(3)) for _ in range(n)]


def pairwise_prune(front: frozenset, directions: Sequence[str]) -> frozenset:
    """The points of front that no other point dominates, each point tested
    against every other; `domains.pareto_prune` must give this front."""
    return frozenset(u for u in front
                     if not any(_dominates(w, u, directions) for w in front if w != u))


def node(store: _Store, rank: int, low: int, high: int) -> int:
    """Hash-cons a raw node into a diagram store, as `_Store.node` does;
    callers enforce their own reduction rule."""
    key = (rank, low, high)
    found = store.unique.get(key)
    if found is not None:
        return found
    for child in (low, high):
        if child >= 2 and store.ranks[child] <= rank:
            raise InvalidBdd("child rank must exceed parent rank")
    nid = len(store.ranks)
    store.ranks.append(rank)
    store.lows.append(low)
    store.highs.append(high)
    store.unique[key] = nid
    return nid


def canonical(b: Bdd) -> tuple:
    """Store-independent serialization for cross-store comparison."""
    s = b.store
    index: dict[int, int] = {FALSE: 0, TRUE: 1}
    triples: list[tuple[int, int, int]] = []
    for v in b.postorder:
        if v >= 2:
            index[v] = len(triples) + 2
            triples.append((s.ranks[v], index[s.lows[v]], index[s.highs[v]]))
    return (index[b.root], tuple(triples))


def top_paths(b: Bdd) -> frozenset:
    """TRUE-paths as frozensets of the BAS taken on high edges.

    On a minimised diagram this is exactly the suite of minimal attacks
    (Rauzy, RESS 1993). Exponential in the worst case, like the suite itself.
    """
    paths: dict[int, frozenset] = {
        FALSE: frozenset(),
        TRUE: frozenset({frozenset()}),
    }
    for v in b.postorder:
        if v >= 2:
            var = b.var_at(v)
            high = frozenset(p | {var} for p in paths[b.store.highs[v]])
            paths[v] = paths[b.store.lows[v]] | high
    return paths[b.root]


# -- checkers -------------------------------------------------------------------


def naive_bottom_up(t: AttackTree, alpha: dict, domain):
    """The tree fold applied without checking for sharing, over OR/AND
    models: the negative control, wrong on DAGs, where a shared node's
    value reaches every parent."""
    return fold(t, [alpha[b] for b in bas_of(t)], partial(reduce, domain.or_op),
                partial(reduce, domain.and_op))


def evaluate(b: Bdd, attack) -> bool:
    """The diagram's value when exactly the given BAS are performed."""
    chosen = set(attack)
    v = b.root
    while v >= 2:
        v = b.store.highs[v] if b.var_at(v) in chosen else b.store.lows[v]
    return v == TRUE


def validate(b: Bdd) -> None:
    """Walk every reachable node and assert the structural invariants:
    strictly increasing ranks, no low==high, no duplicate triples, only the
    two fixed terminals. Raises InvalidBdd on the first violation."""
    seen_triples: set[tuple[int, int, int]] = set()
    n = len(b.order)
    for v in b.postorder:
        if v < 2:
            continue
        rank, low, high = b.store.ranks[v], b.store.lows[v], b.store.highs[v]
        if not 0 <= rank < n:
            raise InvalidBdd(f"node {v} has rank {rank} outside the order")
        if low == high:
            raise InvalidBdd(f"node {v} has equal children")
        triple = (rank, low, high)
        if triple in seen_triples:
            raise InvalidBdd(f"duplicate node for triple {triple}")
        seen_triples.add(triple)
        for child in (low, high):
            if child >= 2:
                if b.store.ranks[child] <= rank:
                    raise InvalidBdd(f"rank does not increase from {v} to {child}")
            elif child not in (FALSE, TRUE):
                raise InvalidBdd(f"node {v} points at unknown terminal {child}")


def check_minimised_shape(b: Bdd) -> None:
    """Post-minimise structural property: TRUE never hangs on a low edge and
    FALSE never hangs on a high edge."""
    for v in b.postorder:
        if v < 2:
            continue
        if b.store.lows[v] == TRUE:
            raise InvalidBdd(f"node {v} has TRUE as low child")
        if b.store.highs[v] == FALSE:
            raise InvalidBdd(f"node {v} has FALSE as high child")


def successful_poset(
    t: AttackTree, nodes: frozenset, order: Iterable[tuple[int, int]], budget: int = DEFAULT_BUDGET
) -> bool:
    """Is (nodes, order) a successful attack: the set succeeds statically and
    the declared order implies every ordering-graph constraint inside it."""
    if not structure_function(static_projection(t), nodes):
        return False
    og = ordering_graph(t)
    closure = transitive_closure(nodes, order)
    return all(
        (a, b) in closure for a, b in og if a in nodes and b in nodes
    )


def coherence_check(
    t: AttackTree,
    trials: int = 100,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    restrict_order: bool = True,
) -> list:
    """Sample successful attacks and random supersets; report violations.

    With restrict_order (the actual semantics: a superset attack takes the
    ordering-graph restriction as its order) the result must be empty.
    With restrict_order=False the superset keeps only the original order
    plus random orientations for the new elements, reproducing the known
    failure of coherence for order-carrying attacks.
    """
    rng = Random(seed)
    proj = static_projection(t)
    dynamic = classify(t).dynamics is Dynamics.DYNAMIC
    suite = sorted(minimal_attacks_static(proj, budget), key=lambda a: sorted(a))
    bas = bas_of(t)
    og = ordering_graph(t) if dynamic else None
    violations = []
    for _ in range(trials):
        attack = set(rng.choice(suite))
        extra = [b for b in bas if b not in attack and rng.random() < 0.5]
        sup = frozenset(attack | set(extra))
        if restrict_order or not dynamic:
            ok = structure_function(proj, sup)
            order = frozenset((a, b) for a, b in og if a in sup and b in sup) if dynamic else frozenset()
        else:
            base = {(a, b) for a, b in og if a in attack and b in attack}
            for x in extra:
                others = sorted(sup - {x})
                y = rng.choice(others)
                pair = (x, y) if rng.random() < 0.5 else (y, x)
                trial = base | {pair}
                if all((b, a) not in transitive_closure(sup, trial) for a, b in trial):
                    base = trial
            order = frozenset(base)
            ok = successful_poset(t, sup, order, budget=budget)
        if not ok:
            violations.append((frozenset(attack), sup, order))
    return violations
