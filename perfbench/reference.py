"""Reference results, computed by the benchmark itself and never by atquant.

- Trees: one plain fold (SAND folds like AND; the workloads only use
  domains whose sequential operator equals the conjunctive one).
- Interval DAGs and ladders: minimum-weight interval hitting set by DP.
- Small models: the minimal-attack family by bottom-up set composition,
  cross-checked against subset enumeration in the self-test.
- Dynamic models: the ordering graph and its acyclicity.

Each `expect_*` function returns a checker: called with (exit code,
stdout), it returns None for a correct answer or a one-line reason.
"""

from __future__ import annotations

import json
from fractions import Fraction

from corpus import INF, Model, render


def parse_value(text: str):
    if text == "inf":
        return INF
    return Fraction(text)


def nat_add(x, y):
    return INF if x == INF or y == INF else x + y


# -- folds and DP ----------------------------------------------------------------

def tree_fold(m: Model, attr: str, or_op, and_op):
    """Bottom-up over a proper tree; children always sit at higher ids."""
    table = m.attrs[attr]
    vals: list = [None] * len(m)
    for v in range(len(m) - 1, -1, -1):
        kids = m.children[v]
        if not kids:
            vals[v] = table[v][1]
            continue
        op = or_op if m.kinds[v] == "or" else and_op
        acc = vals[kids[0]]
        for c in kids[1:]:
            acc = op(acc, vals[c])
        vals[v] = acc
    return vals[0]


def interval_optimum(m: Model):
    """Cheapest set of BAS hitting every window (all windows are intervals
    over consecutive BAS ids). cost[p] is the cheapest choice whose last
    pick is p and that hits every window ending before p; the pick before
    p must not lie before any window that ends before p."""
    bas = m.bas_order()
    pos = {b: i for i, b in enumerate(bas)}
    n = len(bas)
    spans = [(pos[w[0]], pos[w[-1]]) for w in m.windows]
    need = [-1] * (n + 1)  # need[p] = max lo over windows with hi < p
    for lo, hi in spans:
        if need[hi + 1] < lo:
            need[hi + 1] = lo
    for p in range(1, n + 1):
        need[p] = max(need[p], need[p - 1])
    w = [m.attrs["cost"][b][1] for b in bas]
    cost: list = [None] * n
    for p in range(n):
        if need[p] < 0:
            best = 0
        else:
            best = min((cost[q] for q in range(need[p], p) if cost[q] is not None), default=None)
        cost[p] = None if best is None else best + w[p]
    return min(cost[q] for q in range(need[n], n) if cost[q] is not None)


# -- minimal attacks ---------------------------------------------------------------

def _minimise(family) -> list[int]:
    kept: list[int] = []
    for s in sorted(set(family), key=lambda s: (bin(s).count("1"), s)):
        if not any(k & s == k for k in kept):
            kept.append(s)
    return kept


def minimal_attacks(m: Model) -> list[int]:
    """Minimal successful BAS sets as bitmasks over bas_order() positions.

    Families compose bottom-up: OR takes the union, AND and SAND take all
    pairwise unions; each is minimised. A gate's children are BAS or gates
    at higher ids, so a reverse id sweep sees children first."""
    bit = {b: 1 << i for i, b in enumerate(m.bas_order())}
    fam: dict[int, list[int]] = {b: [s] for b, s in bit.items()}
    for v in range(len(m) - 1, -1, -1):
        if m.kinds[v] == "bas":
            continue
        kids = m.children[v]
        if m.kinds[v] == "or":
            fam[v] = _minimise(s for c in kids for s in fam[c])
        else:
            acc = fam[kids[0]]
            for c in kids[1:]:
                acc = _minimise(a | b for a in acc for b in fam[c])
            fam[v] = acc
    return fam[0]


def minimal_attacks_brute(m: Model) -> list[int]:
    """Subset enumeration: every successful set none of whose one-smaller
    subsets succeeds. Exponential; the self-test runs it on small models."""
    bas = m.bas_order()
    pos = {b: i for i, b in enumerate(bas)}

    def succeeds(mask: int) -> bool:
        vals: dict[int, bool] = {}
        for v in range(len(m) - 1, -1, -1):
            if m.kinds[v] == "bas":
                vals[v] = bool(mask >> pos[v] & 1)
        for v in range(len(m) - 1, -1, -1):
            if m.kinds[v] != "bas":
                kids = [vals[c] for c in m.children[v]]
                vals[v] = any(kids) if m.kinds[v] == "or" else all(kids)
        return vals[0]

    ok = [succeeds(mask) for mask in range(1 << len(bas))]
    return sorted(
        (mask for mask in range(1 << len(bas))
         if ok[mask] and not any(ok[mask ^ (1 << j)] for j in range(len(bas)) if mask >> j & 1)),
        key=lambda s: (bin(s).count("1"), s),
    )


def _members(mask: int, bas: list[int]) -> list[int]:
    return [b for i, b in enumerate(bas) if mask >> i & 1]


def ordering_edges(m: Model) -> set[tuple[int, int]]:
    """(a, b): a SAND orders BAS a before BAS b."""
    below: dict[int, frozenset] = {}
    for v in range(len(m) - 1, -1, -1):
        if m.kinds[v] == "bas":
            below[v] = frozenset((v,))
    for v in range(len(m) - 1, -1, -1):
        if m.kinds[v] != "bas":
            below[v] = frozenset().union(*(below[c] for c in m.children[v]))
    edges = set()
    for v, kind in enumerate(m.kinds):
        if kind == "sand":
            kids = m.children[v]
            for left, right in zip(kids, kids[1:]):
                edges.update((a, b) for a in below[left] for b in below[right])
    return edges


def acyclic(nodes, edges) -> bool:
    succ: dict[int, list[int]] = {v: [] for v in nodes}
    indeg = {v: 0 for v in nodes}
    for a, b in edges:
        succ[a].append(b)
        indeg[b] += 1
    ready = [v for v in nodes if indeg[v] == 0]
    done = 0
    while ready:
        v = ready.pop()
        done += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return done == len(indeg)


def _reduction(nodes: list[int], edges) -> list[tuple[int, int]]:
    reach = {v: set() for v in nodes}
    for a, b in edges:
        reach[a].add(b)
    changed = True
    while changed:  # closure by fixpoint; attacks are small
        changed = False
        for v in nodes:
            extra = set().union(*(reach[w] for w in reach[v])) - reach[v]
            if extra:
                reach[v] |= extra
                changed = True
    return sorted(
        (a, b) for a in nodes for b in reach[a]
        if not any(b in reach[w] for w in reach[a] if w != b)
    )


# -- checkers ----------------------------------------------------------------------

def expect_exact(text: str, code: int = 0):
    def check(exit_code: int, out: str):
        if exit_code != code:
            return f"exit {exit_code}, expected {code}"
        if out != text:
            return f"output differs: got {out[:80]!r}, expected {text[:80]!r}"
        return None
    return check


def metric_text(metric: str, value, algorithm: str, warnings=()) -> str:
    lines = [f"metric: {metric}", f"value: {value}", f"algorithm: {algorithm}"]
    lines += [f"warning: {w}" for w in warnings]
    return "\n".join(lines) + "\n"


def expect_metric_json(metric: str, value: str, algorithm: str, nodes: int):
    """JSON metric output; stats may only carry the node count and a
    millisecond timing whose value is never read."""
    def check(exit_code: int, out: str):
        if exit_code != 0:
            return f"exit {exit_code}"
        try:
            got = json.loads(out)
        except ValueError as e:
            return f"not JSON: {e}"
        want = {"metric": metric, "value": value, "algorithm": algorithm, "warnings": []}
        if list(got) != ["metric", "value", "algorithm", "warnings", "stats"]:
            return f"keys {list(got)}"
        for key, v in want.items():
            if got[key] != v:
                return f"{key} {str(got[key])[:80]!r}, expected {str(v)[:80]!r}"
        if sorted(got["stats"]) != ["millis", "nodes"] or got["stats"]["nodes"] != nodes:
            return f"stats {got['stats']}"
        return None
    return check


def _ktop_lines(out: str, labels: dict[str, int]):
    rows = []
    for line in out.splitlines():
        value, _, rest = line.partition(" {")
        if not rest.endswith("}"):
            raise ValueError(f"bad ktop line {line!r}")
        names = rest[:-1].split(",") if rest != "}" else []
        if names != sorted(names):
            raise ValueError(f"labels not sorted in {line!r}")
        rows.append((parse_value(value), frozenset(labels[n] for n in names)))
    return rows


def expect_ktop_intervals(m: Model, k: int, optimum):
    """Each witness hits every window, loses that property when any one
    member is dropped, costs what it claims; costs never decrease and the
    first equals the DP optimum."""
    labels = {m.labels[b]: b for b in m.bas_order()}
    cost = m.attrs["cost"]
    windows = [frozenset(w) for w in m.windows]

    def check(exit_code: int, out: str):
        if exit_code != 0:
            return f"exit {exit_code}"
        try:
            rows = _ktop_lines(out, labels)
        except (ValueError, KeyError) as e:
            return f"unreadable: {e}"
        if len(rows) != k:
            return f"{len(rows)} witnesses, expected {k}"
        if rows[0][0] != optimum:
            return f"best {render(rows[0][0])}, optimum {render(optimum)}"
        for i, (value, chosen) in enumerate(rows):
            if i and value < rows[i - 1][0]:
                return "witness costs decrease"
            hits = [len(w & chosen) for w in windows]
            if 0 in hits:
                return f"witness {i} misses a window"
            needed = {b for w, h in zip(windows, hits) if h == 1 for b in w & chosen}
            if needed != chosen:
                return f"witness {i} is not minimal"
            if sum(cost[b][1] for b in chosen) != value:
                return f"witness {i} costs differ"
        if len({chosen for _, chosen in rows}) != k:
            return "repeated witness"
        return None
    return check


def expect_ktop_suite(m: Model, k: int, suite: list[int]):
    """Witnesses are distinct minimal attacks, with exactly the k lowest
    costs of the suite in non-decreasing order."""
    bas = m.bas_order()
    labels = {m.labels[b]: b for b in bas}
    cost = m.attrs["cost"]
    attacks = {frozenset(_members(s, bas)) for s in suite}
    costs = sorted(_sum_cost(a, cost) for a in attacks)[:k]

    def check(exit_code: int, out: str):
        if exit_code != 0:
            return f"exit {exit_code}"
        try:
            rows = _ktop_lines(out, labels)
        except (ValueError, KeyError) as e:
            return f"unreadable: {e}"
        if [v for v, _ in rows] != costs:
            return f"costs {[render(v) for v, _ in rows]}, expected {[render(c) for c in costs]}"
        for value, chosen in rows:
            if chosen not in attacks or _sum_cost(chosen, cost) != value:
                return f"witness {sorted(m.labels[b] for b in chosen)} is wrong"
        if len({chosen for _, chosen in rows}) != len(rows):
            return "repeated witness"
        return None
    return check


def _sum_cost(attack, cost):
    total = 0
    for b in attack:
        total = nat_add(total, cost[b][1])
    return total


def expect_check_ill_formed(m: Model, edges: set):
    """First line is fixed; the cycle must be a closed walk of ordering edges."""
    head = f"{'tree' if m.is_tree else 'DAG'}, dynamic, ill-formed"
    ids = {m.labels[b]: b for b in m.bas_order()}

    def check(exit_code: int, out: str):
        if exit_code != 2:
            return f"exit {exit_code}, expected 2"
        lines = out.splitlines()
        if len(lines) != 2 or lines[0] != head or not lines[1].startswith("cycle: "):
            return f"output {out[:80]!r}"
        try:
            walk = [ids[n] for n in lines[1][len("cycle: "):].split(" -> ")]
        except KeyError as e:
            return f"cycle names unknown node {e}"
        if len(walk) < 2 or walk[0] != walk[-1]:
            return "cycle is not closed"
        if any((a, b) not in edges for a, b in zip(walk, walk[1:])):
            return "cycle uses a pair the model does not order"
        return None
    return check


# -- small-model expectations ----------------------------------------------------

ORACLE_WARNING = "definitional oracle is exponential in the number of basic actions"
DYNAMIC_DAG_WARNING = (
    "no efficient algorithm is known for dynamic models with shared "
    "subtrees; falling back to the exponential definitional oracle"
)


def semantics_text(m: Model, suite: list[int], edges: set) -> str:
    bas = m.bas_order()
    pos = {b: i for i, b in enumerate(bas)}
    rows = []
    for s in suite:
        members = _members(s, bas)
        key = (len(members), tuple(sorted(pos[b] for b in members)))
        names = "{" + ", ".join(m.labels[b] for b in members) + "}"
        if not m.dynamic:
            rows.append((key, (), names))
            continue
        inside = set(members)
        order = _reduction(members, [(a, b) for a, b in edges if a in inside and b in inside])
        chain = ", ".join(f"{m.labels[a]} < {m.labels[b]}" for a, b in order) or "-"
        rows.append((key, order, f"{names} : {chain}"))
    rows.sort(key=lambda r: (r[0], r[1]))
    return "\n".join(r[2] for r in rows) + "\n"


def min_cost(m: Model, suite: list[int]):
    bas = m.bas_order()
    return min(_sum_cost(_members(s, bas), m.attrs["cost"]) for s in suite)


def cost_to_defend(m: Model, suite: list[int]):
    bas = m.bas_order()
    cost = m.attrs["cost"]
    total = 0
    for s in suite:
        total = nat_add(total, min(cost[b][1] for b in _members(s, bas)))
    return total


def pareto_cost_prob(m: Model, suite: list[int]) -> str:
    """Front of (min cost, max probability) over the minimal attacks, in
    the CLI's rendering: sorted [cost, prob] string pairs as JSON."""
    bas = m.bas_order()
    vecs = set()
    for s in suite:
        members = _members(s, bas)
        p = Fraction(1)
        for b in members:
            p *= m.attrs["prob"][b][1]
        vecs.add((_sum_cost(members, m.attrs["cost"]), p))
    front = [
        u for u in vecs
        if not any(w != u and w[0] <= u[0] and w[1] >= u[1] for w in vecs)
    ]
    return json.dumps(sorted([render(c), render(p)] for c, p in front))
