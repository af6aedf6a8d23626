"""Every failure reaches the user as a message and an exit code, never as a
Python traceback: mutated model files through every command, and every
command on models deeper than the interpreter's recursion limit."""

import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest

from atquant.analysis import ALGORITHMS
from atquant.cli import main
from atquant.domains import BUILTIN_NAMES

ROOT = Path(__file__).resolve().parent.parent
MODELS = sorted((ROOT / "models").glob("*.at"))

# what a mutation inserts: the grammar's tokens and a few bytes it refuses
_TOKENS = ['"', ";", "{", "}", "=", "<", "/", "or", "and", "sand", "bas", "toplevel",
           "attribution", "order", "inf", "1/0", "0/3", "-1", "2.5", "1e9", "//", "\n",
           '"a"', '"root"', '"x" bas;', "﻿", "\x00", "é", "9" * 30]
_PARETO = ("pareto(min-cost,prob-max)", "pareto(min-cost,max-damage)")


def _mutate(rng: Random, text: str) -> str:
    """Up to three mutations; one text in five is left whole, so that the
    random options reach the engines, whose refusals are tested too."""
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        lines = text.split("\n")
        pick = rng.randrange(5)
        if pick == 0 and text:  # delete a run of characters
            i = rng.randrange(len(text))
            text = text[:i] + text[i + rng.randint(1, 20):]
        elif pick == 1:  # insert a token
            i = rng.randint(0, len(text))
            text = text[:i] + rng.choice(_TOKENS) + text[i:]
        elif pick == 2:  # duplicate a line
            i = rng.randrange(len(lines))
            text = "\n".join(lines[:i + 1] + lines[i:])
        elif pick == 3:  # shuffle the lines
            rng.shuffle(lines)
            text = "\n".join(lines)
        else:  # drop a line
            del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
    return text


def _argv(rng: Random, path: str, names: list) -> list:
    """A random command with random options; names are the attribution
    names the unmutated model declares."""
    cmd = rng.choice(("check", "semantics", "metric", "ktop", "dump"))
    argv = [cmd, path]
    if cmd != "dump":
        argv += ["--format", rng.choice(("text", "json"))]
    if cmd in ("semantics", "metric") and rng.random() < 0.5:
        argv += ["--budget", str(rng.randint(0, 12))]
    if cmd in ("metric", "ktop"):
        domain = rng.choice(BUILTIN_NAMES + _PARETO)
        pool = names + ["nope"]
        name = ",".join(rng.choice(pool) for _ in range(1 + domain.startswith("pareto")))
        argv += ["--domain", domain, "--attribution", name]
    if cmd == "metric":
        argv += ["--algorithm", rng.choice(ALGORITHMS)]
    if cmd == "ktop":
        argv += ["--k", str(rng.randint(-1, 6))]
    if cmd == "dump":
        argv += ["--what", rng.choice(("at", "bdd", "bdd-min", "model"))]
    if cmd in ("metric", "ktop", "dump") and rng.random() < 0.3:
        argv += ["--order", rng.choice(("abc", "cba", "left", "nope"))]
    return argv


def test_mutated_models_never_raise_a_traceback(tmp_path, capsys):
    rng = Random(14)
    texts = [p.read_text(encoding="utf-8") for p in MODELS]
    path = tmp_path / "mutated.at"
    codes = Counter()
    for _ in range(4000):
        text = _mutate(rng, rng.choice(texts))
        path.write_text(text, encoding="utf-8")
        names = re.findall(r'^attribution "(\w+)"', text, re.M)
        argv = _argv(rng, str(path), names)
        try:
            code = main(argv)
        except SystemExit as e:  # a usage error
            code = ("usage", e.code)
        except Exception as e:  # pragma: no cover - the failure this test reports
            pytest.fail(f"{argv} on {text!r} raised {type(e).__name__}: {e}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2, ("usage", 2)), (argv, text, code)
        assert "Traceback" not in err, (argv, text, err)
        codes[code] += 1
    # many requests are answered, and many more refused
    assert codes[0] > 300 and codes[1] > 2000, codes


def _chain(n: int, gates: tuple, pair: str = None) -> str:
    """A model n gate levels deep, every action costing 1: g_i =
    gates[i % 2](b_i, g_i+1) and, last, g_n-1 over b_n-1 and b_n. With a
    pair gate, g_i's first child is p_i = pair(b_i, b_i+1) and g_n-1 is a
    pair gate, so each action but the two ends is shared by two gates."""
    lines = ['toplevel "g0";']
    for i in range(n - 1):
        lines.append(f'"g{i}" {gates[i % 2]} "{"p" if pair else "b"}{i}" "g{i + 1}";')
        if pair:
            lines.append(f'"p{i}" {pair} "b{i}" "b{i + 1}";')
    lines.append(f'"g{n - 1}" {pair or gates[(n - 1) % 2]} "b{n - 1}" "b{n}";')
    lines += [f'"b{i}" bas;' for i in range(n + 1)]
    lines += ['attribution "cost" {', *(f'"b{i}" = 1;' for i in range(n + 1)), "}"]
    return "\n".join(lines) + "\n"


DEPTH = 5000  # gate levels, past the default recursion limit of 1,000
HALF = DEPTH // 2

# structure class -> (the gate pair and pair gate of `_chain`, check's
# line, min-cost and max-damage through metric, None where the oracle
# refuses; then for a static class, where the diagrams answer, the
# decision nodes of the compiled and of the minimised diagram, and the
# values of the three attacks ktop ranks first in each domain)
_CLASSES = {
    # b0 and (b1 or (b2 and ...)): each attack stops at an OR level, and
    # each diagram has one node per variable
    "static tree": (("and", "or"), None, "tree, static", (2, HALF + 1),
                    (DEPTH + 1, [2, 3, 4], [HALF + 1, HALF + 1, HALF])),
    # the minimal attacks are the pairs {b_i, b_i+1}, and each diagram has
    # one node at each end and two per variable between
    "static DAG": (("or", "or"), "and", "DAG, static", (2, 2), (2 * DEPTH, [2, 2, 2], [2, 2, 2])),
    "dynamic tree": (("sand", "or"), None, "tree, dynamic, well-formed", (2, HALF + 1), None),
    "dynamic DAG": (("or", "or"), "sand", "DAG, dynamic, well-formed", (None, None), None),
}


@pytest.mark.parametrize("name", list(_CLASSES))
def test_every_command_on_a_model_deeper_than_the_recursion_limit(name, tmp_path, capsys):
    gates, pair, checked, values, diagrams = _CLASSES[name]
    path = tmp_path / "deep.at"
    path.write_text(_chain(DEPTH, gates, pair))
    assert sys.getrecursionlimit() < DEPTH

    def run(*argv):
        code = main([argv[0], str(path), *argv[1:]])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        return code, out, err

    assert run("check") == (0, checked + "\n", "")
    code, out, _ = run("dump", "--what", "at")
    assert code == 0 and out.count("shape=") == (3 * DEPTH if pair else 2 * DEPTH + 1)
    code, out, _ = run("dump", "--what", "model")
    assert code == 0 and out.count(" bas;") == DEPTH + 1
    code, _, err = run("semantics")  # more actions than the oracle's budget
    assert code == 1 and "budget" in err

    for domain, want in zip(("min-cost", "max-damage"), values):
        code, out, err = run("metric", "--domain", domain, "--attribution", "cost")
        if want is None:
            assert code == 1 and "budget" in err
        else:
            assert (code, out.splitlines()[1]) == (0, f"value: {want}"), (domain, err)

    if diagrams is None:
        for argv in (("dump", "--what", "bdd"), ("dump", "--what", "bdd-min"),
                     ("ktop", "--domain", "max-damage", "--attribution", "cost", "--k", "3")):
            code, out, err = run(*argv)
            assert (code, out) == (1, "") and "static models only" in err
        return
    decisions, *ranked = diagrams
    for what in ("bdd", "bdd-min"):
        code, out, _ = run("dump", "--what", what)
        assert code == 0 and out.count("shape=circle") == decisions
    # min-cost's auto route folds the tree, so the diagram fold is asked for
    code, out, _ = run("metric", "--domain", "min-cost", "--attribution", "cost",
                       "--algorithm", "bdd")
    assert (code, out.splitlines()[1]) == (0, f"value: {values[0]}")
    for domain, want in zip(("min-cost", "max-damage"), ranked):
        code, out, _ = run("ktop", "--domain", domain, "--attribution", "cost", "--k", "3")
        assert code == 0 and [int(row.split()[0]) for row in out.splitlines()] == want


def test_python_dash_m_runs_the_command_line():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv, code in ((["-h"], 0), (["check", str(ROOT / "models" / "illformed_cross.at")], 2)):
        run = subprocess.run([sys.executable, "-m", "atquant", *argv], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == code and "Traceback" not in run.stderr, run.stderr
    assert run.stdout.startswith("DAG, dynamic, ill-formed\n")
