"""Seeded model generators for the benchmark workloads.

Every model is built as a plain node table (root at id 0, gate children at
higher ids; only the BAS that small DAGs share can sit lower) and written
to model text by this module; nothing here
imports atquant, so the corpus and its references do not depend on the code
under test. The same seed gives byte-identical model files.
"""

from __future__ import annotations

import random
from fractions import Fraction

INF = float("inf")  # the one non-finite attribute value; never mixed with other floats


class Model:
    """A generated model: node kinds, labels, children and attributions.

    `attrs[name]` maps BAS id -> (text as written in the file, exact value).
    `windows` is set for interval DAGs (ladders included): the BAS-id
    interval each OR gate covers, which the reference checker reads.
    """

    def __init__(self, name: str, kinds: list, labels: list, children: list):
        self.name = name
        self.kinds = kinds
        self.labels = labels
        self.children = children
        self.attrs: dict[str, dict[int, tuple[str, object]]] = {}
        self.windows: list[tuple[int, ...]] | None = None
        self._bas_order: list[int] | None = None

    def __len__(self):
        return len(self.kinds)

    @property
    def dynamic(self) -> bool:
        return "sand" in self.kinds

    @property
    def is_tree(self) -> bool:
        seen: set[int] = set()
        for kids in self.children:
            for c in kids:
                if c in seen:
                    return False
                seen.add(c)
        return True

    def bas_order(self) -> list[int]:
        """BAS in depth-first, leftmost, first-occurrence order from the root."""
        if self._bas_order is None:
            out, seen, stack = [], set(), [0]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                if self.kinds[v] == "bas":
                    out.append(v)
                else:
                    stack.extend(reversed(self.children[v]))
            self._bas_order = out
        return self._bas_order

    def text(self, canonical: bool = False) -> str:
        """Model file text. With canonical=True values are written the way
        `atquant dump --what model` must print them."""
        labels = self.labels
        lines = [f'toplevel "{labels[0]}";']
        for v, kind in enumerate(self.kinds):
            if kind == "bas":
                lines.append(f'"{labels[v]}" bas;')
            else:
                kids = " ".join(f'"{labels[c]}"' for c in self.children[v])
                lines.append(f'"{labels[v]}" {kind} {kids};')
        for name in sorted(self.attrs):
            table = self.attrs[name]
            lines.append("")
            lines.append(f'attribution "{name}" {{')
            for b in self.bas_order():
                raw, value = table[b]
                lines.append(f'  "{labels[b]}" = {render(value) if canonical else raw};')
            lines.append("}")
        return "\n".join(lines) + "\n"


def render(v) -> str:
    """Exact canonical rendering: inf, an integer, or p/q in lowest terms."""
    if v == INF:
        return "inf"
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


# -- attribute values ----------------------------------------------------------

def cost_value(rng: random.Random, inf_share: float = 0.0) -> tuple[str, object]:
    """Non-negative cost: mostly integers, some ratios and exact decimals."""
    r = rng.random()
    if r < inf_share:
        return "inf", INF
    if r < 0.6:
        n = rng.randint(1, 20)
        return str(n), n
    if r < 0.8:
        p, q = rng.randint(1, 40), rng.randint(2, 9)
        return f"{p}/{q}", Fraction(p, q)
    raw = f"{rng.randint(0, 20)}.{rng.randint(1, 99):02d}" if rng.random() < 0.5 else \
        f"{rng.randint(0, 20)}.{rng.randint(1, 9)}"
    return raw, Fraction(raw)


def prob_value(rng: random.Random) -> tuple[str, object]:
    """Probability in (0, 1]: ratios, decimals and the odd certain 1."""
    r = rng.random()
    if r < 0.4:
        q = rng.randint(2, 10)
        p = rng.randint(1, q)
        return f"{p}/{q}", Fraction(p, q)
    if r < 0.9:
        raw = f"0.{rng.randint(1, 99):02d}"
        return raw, Fraction(raw)
    return "1", 1


def skill_value(rng: random.Random) -> tuple[str, object]:
    if rng.random() < 0.8:
        n = rng.randint(0, 50)
        return str(n), n
    p, q = rng.randint(1, 100), rng.randint(2, 5)
    return f"{p}/{q}", Fraction(p, q)


def attribute(m: Model, name: str, make, rng: random.Random) -> None:
    m.attrs[name] = {b: make(rng) for b in m.bas_order()}


# -- shapes --------------------------------------------------------------------

def _finish(name: str, kinds: list, children: list) -> Model:
    labels = [f"b{v}" if k == "bas" else f"g{v}" for v, k in enumerate(kinds)]
    labels[0] = "root" if kinds[0] != "bas" else labels[0]
    return Model(name, kinds, labels, children)


def balanced_tree(levels: int, gate_cycle: tuple[str, ...]) -> Model:
    """Complete binary tree with 2^levels - 1 nodes; gate type by depth."""
    n = (1 << levels) - 1
    first_leaf = (1 << (levels - 1)) - 1
    kinds, children = [], []
    for v in range(n):
        if v >= first_leaf:
            kinds.append("bas")
            children.append(())
        else:
            depth = (v + 1).bit_length() - 1
            kinds.append(gate_cycle[depth % len(gate_cycle)])
            children.append((2 * v + 1, 2 * v + 2))
    return _finish(f"balanced-{n}", kinds, children)


def random_tree(n: int, gates: tuple[str, ...], rng: random.Random) -> Model:
    """Proper tree of exactly n nodes (n >= 3): repeatedly expand a random
    leaf into a gate of arity 2-4 until the node budget is spent."""
    kinds: list = ["bas"]
    children: list = [()]
    leaves = [0]
    while len(kinds) < n:
        room = n - len(kinds)
        i = rng.randrange(len(leaves))
        v = leaves[i]
        leaves[i] = leaves[-1]
        leaves.pop()
        arity = min(rng.randint(2, 4), room)
        if arity < 2:  # one node left over: widen an existing gate instead
            leaves.append(v)
            g = next(u for u in range(len(kinds)) if kinds[u] != "bas")
            children[g] = children[g] + (len(kinds),)
            leaves.append(len(kinds))
            kinds.append("bas")
            children.append(())
            continue
        kinds[v] = rng.choice(gates)
        first = len(kinds)
        children[v] = tuple(range(first, first + arity))
        for c in range(first, first + arity):
            kinds.append("bas")
            children.append(())
            leaves.append(c)
    return _finish(f"random-{n}", kinds, children)


def sand_pairs(m: Model) -> int:
    """BAS pairs that SAND gates order (adjacent children only): the size of
    the ordering graph that the well-formedness check builds."""
    under = [0] * len(m)
    for v in range(len(m) - 1, -1, -1):
        under[v] = 1 if m.kinds[v] == "bas" else sum(under[c] for c in m.children[v])
    return sum(
        under[a] * under[b]
        for v, kind in enumerate(m.kinds) if kind == "sand"
        for a, b in zip(m.children[v], m.children[v][1:])
    )


def steady_dynamic_tree(n: int, rng: random.Random) -> Model:
    """Random SAND/OR/AND tree of n nodes whose SAND-ordered pair count is
    near n^2/30, the median for random trees of this shape. Left free, the
    count spans a factor of ten between seeds, and so would the run time."""
    target = n * n / 30
    while True:
        m = random_tree(n, ("sand", "or", "and"), rng)
        if abs(sand_pairs(m) - target) <= max(0.05 * target, 2):
            return m


def interval_dag(windows: list[tuple[int, int]], n_bas: int, nested: bool, name: str) -> Model:
    """AND over OR gates, one per window [lo, hi] of consecutive BAS.

    Flat: the root AND lists every OR. Nested: a balanced binary tree of
    ANDs over the same ORs, so the structure function is the same.
    """
    kinds: list = []
    children: list = []
    m = len(windows)
    if nested:
        # BFS over index ranges of the OR list; ANDs first, then ORs, then BAS.
        ranges = [(0, m)]
        ands: list[tuple[int, int]] = []
        while ranges:
            nxt = []
            for lo, hi in ranges:
                if hi - lo > 1:
                    ands.append((lo, hi))
                    mid = (lo + hi) // 2
                    nxt.extend(((lo, mid), (mid, hi)))
            ranges = nxt
        and_id = {r: i for i, r in enumerate(ands)}
        base = len(ands)

        def ref(lo, hi):
            return base + lo if hi - lo == 1 else and_id[(lo, hi)]

        for lo, hi in ands:
            mid = (lo + hi) // 2
            kinds.append("and")
            children.append((ref(lo, mid), ref(mid, hi)))
    else:
        base = 1
        kinds.append("and")
        children.append(tuple(range(1, m + 1)))
    bas0 = base + m
    for lo, hi in windows:
        kinds.append("or")
        children.append(tuple(bas0 + b for b in range(lo, hi + 1)))
    for _ in range(n_bas):
        kinds.append("bas")
        children.append(())
    labels = ["root"] + [f"a{v}" for v in range(1, base)] + [f"o{i}" for i in range(m)] \
        + [f"b{b}" for b in range(n_bas)]
    model = Model(name, kinds, labels, children)
    model.windows = [tuple(bas0 + b for b in range(lo, hi + 1)) for lo, hi in windows]
    return model


def ladder(rungs: int, rng: random.Random) -> Model:
    """AND(OR(b0,b1), OR(b1,b2), ...): every inner BAS is shared by two rungs."""
    m = interval_dag([(i, i + 1) for i in range(rungs)], rungs + 1, False, f"ladder-{rungs}")
    attribute(m, "cost", cost_value, rng)
    return m


def _block_shuffle(items: list, block: int, rng: random.Random) -> list:
    out = []
    for i in range(0, len(items), block):
        part = items[i:i + block]
        rng.shuffle(part)
        out += part
    return out


def random_windows(n_bas: int, rng: random.Random) -> list[tuple[int, int]]:
    """Windows of 2-4 consecutive BAS whose union covers 0..n_bas-1.

    Each window starts 1 or 2 past the previous start, which keeps coverage
    contiguous because every window is at least 2 wide. Steps and widths
    are drawn by shuffling small fixed blocks ([1, 2, 1, 2] and [2, 3, 4]),
    so every stretch of the DAG has the same mix and the diagram's cost
    hardly moves between seeds; only the local arrangement is random."""
    twos = (n_bas - 2) // 3
    ones = n_bas - 2 - 2 * twos
    steps = _block_shuffle([1 + i % 2 for i in range(2 * min(ones, twos))], 4, rng)
    steps += [1] * (ones - min(ones, twos)) + [2] * (twos - min(ones, twos))
    widths = _block_shuffle([2 + i % 3 for i in range(len(steps) + 1)], 3, rng)
    out, start = [], 0
    for step, width in zip(steps + [0], widths):
        out.append((start, min(start + width - 1, n_bas - 1)))
        start += step
    return out


def interval_pair(n_bas: int, rng: random.Random) -> tuple[Model, Model]:
    """The same interval function twice: one flat AND and one nested."""
    windows = random_windows(n_bas, rng)
    flat = interval_dag(windows, n_bas, False, f"interval-{n_bas}-flat")
    nested = interval_dag(windows, n_bas, True, f"interval-{n_bas}-nested")
    attribute(flat, "cost", cost_value, rng)
    nested.attrs["cost"] = {
        nested.windows[0][0] - flat.windows[0][0] + b: v for b, v in flat.attrs["cost"].items()
    }
    return flat, nested


# -- small models ---------------------------------------------------------------

def small_model(n_bas: int, family: str, rng: random.Random) -> Model:
    """A model with exactly n_bas BAS of one family: static-tree,
    static-dag, dynamic-tree, dynamic-dag or ill-formed.

    DAGs come from a proper tree by letting a few gates also take an
    existing BAS from elsewhere. Ill-formed models force a cycle in the
    ordering graph: a SAND whose two children both reach one shared BAS.
    """
    dynamic = family in ("dynamic-tree", "dynamic-dag", "ill-formed")
    gates = ("and", "or", "sand") if dynamic else ("and", "or")
    for _ in range(1000):
        m = _small_tree(n_bas, gates, rng)
        if family in ("static-tree", "dynamic-tree"):
            ok = True
        elif family == "ill-formed":
            ok = _force_ill_formed(m, rng)
        else:
            ok = _add_sharing(m, rng, avoid_sand_clash=(family == "dynamic-dag"))
        if ok and (not dynamic or m.dynamic):
            m.name = f"{family}-{n_bas}"
            attribute(m, "cost", lambda r: cost_value(r, inf_share=0.05), rng)
            if not dynamic:
                attribute(m, "prob", prob_value, rng)
            return m
    raise RuntimeError(f"could not draw a {family} model with {n_bas} BAS")


def _small_tree(n_bas: int, gates: tuple[str, ...], rng: random.Random) -> Model:
    """Random proper tree with exactly n_bas leaves (gate arity 2-3)."""
    kinds: list = ["bas"]
    children: list = [()]
    leaves = [0]
    while len(leaves) < n_bas:
        arity = min(rng.randint(2, 3), n_bas - len(leaves) + 1)
        i = rng.randrange(len(leaves))
        v = leaves.pop(i)
        kinds[v] = rng.choice(gates)
        first = len(kinds)
        children[v] = tuple(range(first, first + arity))
        for c in range(first, first + arity):
            kinds.append("bas")
            children.append(())
            leaves.append(c)
    return _finish("small", kinds, children)


def _below(m: Model, v: int) -> set[int]:
    out, stack = set(), [v]
    while stack:
        u = stack.pop()
        if u not in out:
            out.add(u)
            stack.extend(m.children[u])
    return out


def _add_sharing(m: Model, rng: random.Random, avoid_sand_clash: bool) -> bool:
    """Give 1-3 gates one extra child: a BAS they do not already reach.
    For well-formed dynamic DAGs, skip any edge that would put one BAS
    on both sides of a SAND gate."""
    gates = [v for v, k in enumerate(m.kinds) if k != "bas"]
    bas = [v for v, k in enumerate(m.kinds) if k == "bas"]
    added = 0
    for _ in range(rng.randint(1, 3) * 4):
        g = rng.choice(gates)
        b = rng.choice(bas)
        if b in _below(m, g):
            continue
        m.children[g] = m.children[g] + (b,)
        if avoid_sand_clash and _sand_clash(m):
            m.children[g] = m.children[g][:-1]
            continue
        added += 1
        if added == 3:
            break
    m._bas_order = None
    return added > 0


def _sand_clash(m: Model) -> bool:
    for v, k in enumerate(m.kinds):
        if k == "sand":
            seen: set[int] = set()
            for c in m.children[v]:
                under = {u for u in _below(m, c) if m.kinds[u] == "bas"}
                if under & seen:
                    return True
                seen |= under
    return False


def _force_ill_formed(m: Model, rng: random.Random) -> bool:
    sands = [v for v, k in enumerate(m.kinds) if k == "sand"]
    if not sands:
        return False
    s = rng.choice(sands)
    left, right = m.children[s][0], m.children[s][1]
    target = [u for u in _below(m, left) if m.kinds[u] == "bas"]
    hosts = [u for u in _below(m, right) if m.kinds[u] != "bas"]
    if not hosts:
        return False
    h = rng.choice(hosts)
    b = rng.choice(target)
    m.children[h] = m.children[h] + (b,)
    m._bas_order = None
    return True
