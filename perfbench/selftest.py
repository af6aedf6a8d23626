#!/usr/bin/env python3
"""Self-test of the benchmark itself, at tiny scale (a few seconds).

    python3 perfbench/selftest.py

Checks that
1. two builds of each workload's corpus from one seed are byte-identical,
   and a different seed gives different models;
2. the fast references agree with subset enumeration: minimal attacks by
   set composition, the interval DP, and the tree folds;
3. every checker accepts atquant's actual output for its request, and
   rejects that output after one character is corrupted, or with another
   exit code;
4. a run in which a request raises is judged incorrect, unless the
   exception is the one that request is known to raise.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus as gen  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from workloads import FAMILIES, WORKLOADS, Request  # noqa: E402


def corrupt(out: str) -> str:
    """Bump the first digit, or failing that swap the case of the first letter."""
    for i, c in enumerate(out):
        if c.isdigit():
            return out[:i] + str((int(c) + 1) % 10) + out[i + 1:]
    for i, c in enumerate(out):
        if c.isalpha():
            return out[:i] + c.swapcase() + out[i + 1:]
    return out + "x"


def brute_min_cost(m: gen.Model):
    bas = m.bas_order()
    cost = m.attrs["cost"]
    best = ref.INF
    for s in ref.minimal_attacks_brute(m):
        total = 0
        for i, b in enumerate(bas):
            if s >> i & 1:
                total = ref.nat_add(total, cost[b][1])
        best = min(best, total)
    return best


def judged(requests: list, raised: list, outputs: list) -> dict:
    """run.judge over one pass in which request i raised the exception types
    raised[i], or else answered outputs[i] (exit code, stdout)."""
    result = {"variants": [], "errors": [], "records": [], "probes": [[0.0, 0.016]]}
    for i, (errors, answer) in enumerate(zip(raised, outputs)):
        result["errors"].append(list(errors))
        result["variants"].append([] if errors else [list(answer)])
        result["records"].append([i, 0.01, -1 if errors else 0, False, 1.0])
    return run.judge(requests, result)


def judge_problems() -> tuple[int, list[str]]:
    """Inject exceptions and wrong answers into a made-up worker result."""
    good = (0, "tree, static\n")
    plain = Request(["check", "a.at"], ref.expect_exact(good[1]))
    deep = Request(["check", "b.at"], ref.expect_exact(good[1]), "RecursionError")
    cases = [  # (raised per request, outputs per request, correct, failed)
        ([[], []], [good, good], True, 0),
        ([["KeyError"], []], [None, good], False, 1),
        ([["SystemExit"], []], [None, good], False, 1),
        ([[], ["RecursionError"]], [good, None], True, 1),
        ([["RecursionError"], []], [None, good], False, 1),
        ([[], ["RecursionError", "TypeError"]], [good, None], False, 1),
        ([[], []], [(0, "tree, dynamic\n"), good], False, 1),
        ([[], []], [(1, good[1]), good], False, 1),
    ]
    problems = []
    for raised, outputs, correct, failed in cases:
        v = judged([plain, deep], raised, outputs)
        if (v["correct"], v["failed"]) != (correct, failed):
            problems.append(f"judge: raised {raised}, answered {outputs}: got correct "
                            f"{v['correct']}, failed {v['failed']}; want {correct}, {failed}")
    return len(cases), problems


def main() -> int:
    problems: list[str] = []
    checks = 0

    for name, build in WORKLOADS.items():
        a, b, other = build(5, "tiny"), build(5, "tiny"), build(6, "tiny")
        checks += 1
        if a.files != b.files or [r.argv for r in a.requests] != [r.argv for r in b.requests]:
            problems.append(f"{name}: one seed gave two different corpora")
        if a.files == other.files:
            problems.append(f"{name}: seeds 5 and 6 gave the same corpus")

    rng = random.Random(1)
    small = [gen.small_model(n, family, rng) for n in range(3, 10) for family in FAMILIES]
    for m in small:
        checks += 1
        if ref.minimal_attacks(m) != ref.minimal_attacks_brute(m):
            problems.append(f"{m.name}: set composition disagrees with enumeration")
    for seed in range(5):
        rng = random.Random(seed)
        for m in [gen.ladder(r, rng) for r in (4, 7)] + list(gen.interval_pair(11, rng)):
            checks += 1
            if ref.interval_optimum(m) != brute_min_cost(m):
                problems.append(f"{m.name}: interval DP disagrees with enumeration")
        for m in (gen.random_tree(15, ("and", "or", "sand"), rng),
                  gen.balanced_tree(4, ("sand", "or", "and"))):
            gen.attribute(m, "cost", gen.cost_value, rng)
            checks += 1
            if ref.tree_fold(m, "cost", min, ref.nat_add) != brute_min_cost(m):
                problems.append(f"{m.name}: tree fold disagrees with enumeration")

    # a request is rescaled by the probes around it, not by distant ones
    probes = [[t, 0.032 if t < 10 else 0.016] for t in range(20)]
    factors = run.speed_factors([[0, 1.0, 0, False, 2.5], [0, 1.0, 0, False, 17.5]], probes)
    checks += 1
    if factors != [run.REF_NOMINAL_S / 0.032, run.REF_NOMINAL_S / 0.016]:
        problems.append(f"speed_factors: got {factors} for probes of 32 ms, then 16 ms")

    cases, judge_failures = judge_problems()
    checks += cases
    problems += judge_failures

    from atquant.cli import main as cli

    tmp = HERE.parent / ".perfbench_work" / f"selftest-{os.getpid()}"
    tmp.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for name, build in WORKLOADS.items():
            c = build(5, "tiny")
            for fname, text in c.files.items():
                Path(fname).write_text(text)
            for req in c.requests:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli(req.argv)
                got = out.getvalue()
                checks += 3
                why = req.check(code, got)
                if why:
                    problems.append(f"{name} {req.argv}: correct output rejected: {why}")
                if req.check(code, corrupt(got)) is None:
                    problems.append(f"{name} {req.argv}: corrupted output accepted")
                if req.check(code + 1, got) is None:
                    problems.append(f"{name} {req.argv}: wrong exit code accepted")
    finally:
        os.chdir(cwd)
        shutil.rmtree(tmp, ignore_errors=True)

    for p in problems:
        print(p)
    print(f"selftest: {checks - len(problems)} of {checks} checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
