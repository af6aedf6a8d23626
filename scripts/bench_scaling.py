#!/usr/bin/env python3
"""Timing smoke for the three complexity claims worth watching.

Experiment 1: the min-cost bottom-up fold over balanced static trees,
doubling node counts, once with every cost 1 and once with ratio costs
p/q, q from 1 to 9; both columns should grow linearly.

Experiment 2: the shared-structure diagram fold on ladder DAGs
AND(OR(b1,b2), OR(b2,b3), ...) where every inner action is shared by two
gates, doubling from 4 to 2048 rungs, against the exponential subset oracle
up to its default BAS budget, with the five cheapest attacks (k-top, k = 5)
beside it. Every diagram timing includes compiling. The min-cost fold
is the shortest path of the compiled diagram; the min-skill and prob-max
folds (probability 1/c for cost c) walk the compiled diagram too, as both
domains declare or-absorbs-and; max-damage, which does not, is the
control that minimises first, and so does k-top. A second k-top column
costs the i-th action 1/p_i for the i-th prime p_i: k-top
sums path weights as integers over the common denominator of the costs,
and pairwise coprime denominators make that the product of all of them,
its worst case (about 3,500 digits at 1,024 rungs). Next to the
reachable node count of the diagram min-cost folds it prints the size of
the unique table those nodes live in, which counts every node made while
compiling. A second table compiles and minimises four
more families, doubling their size from 256 (or the largest ladder, if
that is smaller) to 8 times the largest ladder: a left-deep AND chain
AND(AND(AND(b0, b1), b2), ...), a nested interval DAG (a balanced binary
tree of ANDs over ORs of 2 to 4 consecutive actions), AND(OR(b1, c),
OR(b2, c), ...) under an order that ranks c last, and the deep chain
g_i = OR(AND(b_i, b_i+1), g_i+1), whose n levels nest deeper than the
interpreter's recursion limit at the default sizes. For each it prints the
reachable nodes of the compiled diagram, the unique-table size after
compiling, the compile time and the minimise time: a compile that copies
intermediate diagrams shows as a unique column growing faster than the
reachable one, and every minimise column should grow linearly.

Experiment 3: the well-formedness check over balanced trees whose gate
layers cycle SAND, OR, AND, doubling node counts up to 2^max-power - 1; the
column should grow linearly.

Experiment 4: parse_model over the model files of balanced static trees with
two attributions, integer and ratio costs and ratio probabilities, doubling
node counts up to 2^max-power - 1 (131,071 nodes, 5.3 MB at the default);
it prints the best of three parses, the best of three runs of the statement
matcher alone (io._match, which reads the statements into a draft; the rest
of a parse is _assemble), with the collector paused as parse_model pauses
it, the megabytes read per second and the number of cyclic-collector passes
that start during the three parses: parse_model pauses the collector, so it
should read 0. parse_model checks the attribution blocks but leaves their
numerals as text, so neither column converts them. Beside
them come the stages a metric request runs next, each timed (best of three)
on a freshly parsed tree, its blocks converted before the clock starts, so
that no cached fact is shared between them:
classify, bas_of, validate_attribution of the costs for min-cost, the
min-cost fold (bu_sat), the prob-max fold over the probabilities, and the
canonical model text (emit_model, what `dump --what model` writes).
parse_model already orders a fresh tree, as its
check of the structure records the order in which Kahn's algorithm takes
the nodes (`AttackTree.topological`), so the bas_of and fold columns pay
for no walk on a proper tree: bas_of picks the BAS out of that order, which
there is the left-to-right preorder, and the fold reads it backwards.

Experiment 5: the cold start of a command, `import atquant.cli` in
COLD_STARTS fresh interpreters, each run as `python -c` on a copy of the
package that has no bytecode cache, with PYTHONDONTWRITEBYTECODE=1 so that
none is written: every run compiles the package from source, as the first
run of a new checkout does, while the standard library keeps its cache. It
prints the median time of the import, timed inside the child, and the
number of modules the import adds to sys.modules.

    python3 scripts/bench_scaling.py [--max-power 17] [--ladder-max 2048]
"""

import argparse
import gc
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"
sys.path.insert(0, str(SRC))

from atquant import (
    ModelDocument,
    VarOrder,
    bas_of,
    bu_sat,
    build,
    builtin,
    classify,
    emit_model,
    from_structure_function,
    is_well_formed,
    k_top,
    minimise,
    oracle_metric_static,
    parse_model,
)
from atquant.analysis import bu_bdd_detailed, validate_attribution
from atquant.io import _match
from atquant.semantics import DEFAULT_BUDGET
from atquant.tree import NodeType

COLD_STARTS = 11  # fresh interpreters that import atquant.cli

@dataclass(frozen=True)
class BenchConfig:
    max_power: int = 17  # balanced trees up to 2^max_power - 1 nodes
    ladder_max: int = 2048  # largest ladder, in rungs


def balanced_tree(leaf_power: int, gates=(NodeType.AND, NodeType.OR)):
    """Binary tree over 2^leaf_power actions; gate layers cycle through
    gates from the bottom up."""
    defs = [(f"b{i}", NodeType.BAS, []) for i in range(2 ** leaf_power)]
    layer = [d[0] for d in defs]
    gi = 0
    depth = 0
    while len(layer) > 1:
        gate = gates[depth % len(gates)]
        nxt = []
        for j in range(0, len(layer), 2):
            lbl = f"g{gi}"
            gi += 1
            defs.append((lbl, gate, [layer[j], layer[j + 1]]))
            nxt.append(lbl)
        layer = nxt
        depth += 1
    return build(defs, layer[0])


def ladder_dag(rungs: int):
    """AND of rungs ORs over a chain of shared basic actions."""
    defs = [(f"b{i}", NodeType.BAS, []) for i in range(rungs + 1)]
    for i in range(rungs):
        defs.append((f"o{i}", NodeType.OR, [f"b{i}", f"b{i + 1}"]))
    defs.append(("root", NodeType.AND, [f"o{i}" for i in range(rungs)]))
    return build(defs, "root")


def and_chain(gates: int):
    """Left-deep AND chain: g1 = AND(b0, b1), g_i = AND(g_i-1, b_i)."""
    defs = [(f"b{i}", NodeType.BAS, []) for i in range(gates + 1)]
    defs.append(("g1", NodeType.AND, ["b0", "b1"]))
    defs += [(f"g{i}", NodeType.AND, [f"g{i - 1}", f"b{i}"]) for i in range(2, gates + 1)]
    return build(defs, f"g{gates}"), None


def nested_interval_dag(n_bas: int):
    """A balanced binary tree of ANDs over ORs of 2-4 consecutive actions,
    each window starting 1 or 2 past the previous one."""
    defs = [(f"b{i}", NodeType.BAS, []) for i in range(n_bas)]
    layer, lo = [], 0
    while lo < n_bas - 1:
        hi = min(lo + 1 + len(layer) % 3, n_bas - 1)
        layer.append(f"o{len(layer)}")
        defs.append((layer[-1], NodeType.OR, [f"b{b}" for b in range(lo, hi + 1)]))
        lo += 1 + len(layer) % 2
    while len(layer) > 1:
        nxt = []
        for j in range(0, len(layer) - 1, 2):
            nxt.append(f"a{len(defs)}")
            defs.append((nxt[-1], NodeType.AND, layer[j:j + 2]))
        layer = nxt + layer[len(nxt) * 2:]
    return build(defs, layer[0]), None


def and_of_or_c(n: int):
    """AND(OR(b1, c), ..., OR(bn, c)) with c ranked after every b_i."""
    defs = [(f"b{i}", NodeType.BAS, []) for i in range(n)] + [("c", NodeType.BAS, [])]
    defs += [(f"o{i}", NodeType.OR, [f"b{i}", "c"]) for i in range(n)]
    defs.append(("root", NodeType.AND, [f"o{i}" for i in range(n)]))
    t = build(defs, "root")
    return t, VarOrder(tuple(t.id_of(f"b{i}") for i in range(n)) + (t.id_of("c"),))


def deep_chain(n: int):
    """g_i = OR(AND(b_i, b_i+1), g_i+1) down n levels, g_n-1 = AND(b_n-1, b_n):
    each level shares b_i+1 with the one below."""
    defs = [(f"b{i}", NodeType.BAS, []) for i in range(n + 1)]
    for i in range(n - 1):
        defs += [(f"g{i}", NodeType.OR, [f"a{i}", f"g{i + 1}"]),
                 (f"a{i}", NodeType.AND, [f"b{i}", f"b{i + 1}"])]
    defs.append((f"g{n - 1}", NodeType.AND, [f"b{n - 1}", f"b{n}"]))
    return build(defs, "g0"), None


def primes(n: int) -> list[int]:
    """The first n primes, by trial division against the smaller ones."""
    out: list[int] = []
    c = 2
    while len(out) < n:
        if all(c % p for p in out if p * p <= c):
            out.append(c)
        c += 1
    return out


def clock(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def bench_fold(cfg: BenchConfig) -> None:
    print("balanced static trees, min-cost fold of unit and of ratio costs")
    print(f"{'nodes':>9} {'unit ms':>9} {'ratio ms':>9}")
    rng = random.Random(1)
    dom = builtin("min-cost")
    power = 10
    while power <= cfg.max_power:
        t = balanced_tree(power - 1)  # 2^power - 1 nodes total
        unit = {b: 1 for b in bas_of(t)}
        ratio = {b: Fraction(rng.randint(1, 40), rng.randint(1, 9)) for b in bas_of(t)}
        _, dt = clock(bu_sat, t, unit, dom)
        _, dt_ratio = clock(bu_sat, t, ratio, dom)
        print(f"{len(t):>9} {dt * 1000:>9.1f} {dt_ratio * 1000:>9.1f}")
        power += 1
    print()


def bench_ladder(cfg: BenchConfig) -> None:
    print("ladder DAGs, min-cost: diagram fold and k-top vs subset oracle; the diagram")
    print("fold (bdd ms) in min-skill, prob-max and, minimising, max-damage")
    print(f"{'BAS':>5} {'bdd nodes':>10} {'unique':>8} {'bdd ms':>8} {'ktop ms':>8} "
          f"{'ktop 1/p':>9} {'oracle ms':>10} {'agree':>6} {'skill ms':>9} {'pmax ms':>9} "
          f"{'dmg ms':>9}")
    dom = builtin("min-cost")
    rungs = 4
    while rungs <= cfg.ladder_max:
        t = ladder_dag(rungs)
        n = len(bas_of(t))
        a = {b: 1 + (b % 3) for b in bas_of(t)}
        p = {b: Fraction(1, c) for b, c in a.items()}
        (value, diagram), dt_bdd = clock(bu_bdd_detailed, t, a, dom)
        folds = [clock(bu_bdd_detailed, t, values, builtin(name))[1]
                 for name, values in (("min-skill", a), ("prob-max", p), ("max-damage", a))]
        top, dt_ktop = clock(k_top, t, a, dom, 5)
        assert top[0][0] == value, "the cheapest attack costs the metric"
        coprime = {b: Fraction(1, p) for b, p in zip(bas_of(t), primes(n))}
        _, dt_coprime = clock(k_top, t, coprime, dom, 5)
        if n <= DEFAULT_BUDGET:
            want, dt_oracle = clock(oracle_metric_static, t, a, dom)
            agree = "yes" if want == value else "NO"
            oracle_col = f"{dt_oracle * 1000:>10.1f}"
        else:
            agree = "-"
            oracle_col = f"{'skipped':>10}"
        print(f"{n:>5} {diagram.node_count():>10} {len(diagram.store.unique):>8} "
              f"{dt_bdd * 1000:>8.1f} {dt_ktop * 1000:>8.1f} {dt_coprime * 1000:>9.1f} "
              f"{oracle_col} {agree:>6}" + "".join(f" {dt * 1000:>9.1f}" for dt in folds))
        rungs *= 2
    print()
    families = (("AND chain", and_chain), ("nested interval", nested_interval_dag),
                ("AND of OR(b_i, c)", and_of_or_c), ("deep chain", deep_chain))
    print("compile and minimise: reachable nodes, unique-table size, compile and")
    print("minimise time")
    print(f"{'n':>6}" + "".join(f" | {name:^32}" for name, _ in families))
    print(f"{'':>6}" + f" | {'reach':>8} {'unique':>8} {'ms':>6} {'min ms':>6}" * len(families))
    n = min(256, cfg.ladder_max)
    while n <= cfg.ladder_max * 8:
        row = f"{n:>6}"
        for _, make in families:
            b, dt = clock(from_structure_function, *make(n))
            reach, unique = b.node_count(), len(b.store.unique)
            _, dt_min = clock(minimise, b)
            row += f" | {reach:>8} {unique:>8} {dt * 1000:>6.1f} {dt_min * 1000:>6.1f}"
        print(row)
        n *= 2
    print()


def bench_well_formed(cfg: BenchConfig) -> None:
    print("balanced SAND/OR/AND trees, well-formedness check")
    print(f"{'nodes':>9} {'check ms':>9}")
    power = 10
    while power <= cfg.max_power:
        t = balanced_tree(power - 1, (NodeType.SAND, NodeType.OR, NodeType.AND))
        (ok, _), dt = clock(is_well_formed, t)
        assert ok, "a proper tree is always well-formed"
        print(f"{len(t):>9} {dt * 1000:>9.1f}")
        power += 1
    print()


def fresh_stage(text: str, stage) -> float:
    """Best of three timings of stage(doc), each on a newly parsed document
    whose attribution blocks are converted before the clock starts."""
    times = []
    for _ in range(3):
        doc = parse_model(text)
        doc.attributions  # reading it converts every block
        times.append(clock(stage, doc)[1])
    return min(times)


def collector_passes(fn, *args) -> tuple[list, int]:
    """Three calls of fn(*args), each with its result and time, and the
    number of cyclic-collector passes that started inside them; a pass that
    the first allocation after a call starts is not counted."""
    started = []

    def note(phase, info):
        if phase == "start":
            started.append(info["generation"])

    runs, passes = [], 0
    gc.callbacks.append(note)
    try:
        for _ in range(3):
            before = len(started)
            t0 = time.perf_counter()
            out = fn(*args)
            took = time.perf_counter() - t0
            passes += len(started) - before
            runs.append((out, took))
    finally:
        gc.callbacks.remove(note)
    return runs, passes


def bench_parse(cfg: BenchConfig) -> None:
    print("balanced static trees with two attributions, parse_model, then the")
    print("stages of metric and dump requests, each on a freshly parsed tree")
    print(f"{'nodes':>9} {'MB':>6} {'parse ms':>9} {'match ms':>9} {'MB/s':>6} {'gc':>3} "
          f"{'classify':>9} {'bas_of':>7} {'validate':>9} {'fold ms':>8} {'prob ms':>8} "
          f"{'dump ms':>8}")
    rng = random.Random(1)
    dom, prob_max = builtin("min-cost"), builtin("prob-max")
    stages = (
        lambda doc: classify(doc.tree),
        lambda doc: bas_of(doc.tree),
        lambda doc: validate_attribution(doc.tree, doc.attributions["cost"], dom),
        lambda doc: bu_sat(doc.tree, doc.attributions["cost"], dom),
        lambda doc: bu_sat(doc.tree, doc.attributions["prob"], prob_max),
        emit_model,
    )
    power = 10
    while power <= cfg.max_power:
        t = balanced_tree(power - 1)
        cost = {b: rng.choice((rng.randint(1, 20), Fraction(rng.randint(1, 40), rng.randint(2, 9))))
                for b in bas_of(t)}
        prob = {b: Fraction(rng.randint(1, 10), 10) for b in bas_of(t)}
        text = emit_model(ModelDocument(t, {"cost": cost, "prob": prob}))
        runs, passes = collector_passes(parse_model, text)
        assert runs[0][0].tree == t, "a model file reads back as the tree it was written from"
        dt = min(took for _, took in runs)
        gc.disable()
        try:
            match = min(clock(_match, text)[1] for _ in range(3))
        finally:
            gc.enable()
        mb = len(text.encode()) / 1e6
        ms = [fresh_stage(text, stage) * 1000 for stage in stages]
        print(f"{len(t):>9} {mb:>6.2f} {dt * 1000:>9.1f} {match * 1000:>9.1f} {mb / dt:>6.1f} "
              f"{passes:>3} {ms[0]:>9.2f} {ms[1]:>7.1f} {ms[2]:>9.1f} {ms[3]:>8.1f} "
              f"{ms[4]:>8.1f} {ms[5]:>8.1f}")
        power += 1
    print()


def bench_cold_start() -> None:
    print("cold start: import atquant.cli in fresh interpreters, no bytecode cache")
    print(f"{'runs':>5} {'import ms':>10} {'modules':>8}")
    code = ("import sys, time; before = set(sys.modules); t0 = time.perf_counter(); "
            "import atquant.cli; took = time.perf_counter() - t0; "
            "print(took, len(set(sys.modules) - before))")
    imports, added = [], []
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(SRC / "atquant", Path(tmp) / "atquant",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}
        for _ in range(COLD_STARTS):
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True)
            took, modules = run.stdout.split()
            imports.append(float(took))
            added.append(int(modules))
    print(f"{COLD_STARTS:>5} {statistics.median(imports) * 1000:>10.1f} {max(added):>8}")
    print()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-power", type=int, default=17)
    ap.add_argument("--ladder-max", type=int, default=2048)
    ns = ap.parse_args()
    cfg = BenchConfig(ns.max_power, ns.ladder_max)
    bench_fold(cfg)
    bench_ladder(cfg)
    bench_well_formed(cfg)
    bench_parse(cfg)
    bench_cold_start()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
