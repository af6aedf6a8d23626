"""The scripts under scripts/ import the package, some of its private names
included, so each is run once on a tiny input: a rename that breaks one
fails here rather than when someone next needs it."""

import importlib.util
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import BDD_DUMPS

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


DIAGRAM = BDD_DUMPS["overlap.at"]


def _load_compare_outputs():
    path = ROOT / "scripts" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _renumber(dot: str, new: dict) -> str:
    """dot with node n<v> renamed n<new[v]>, its node lines and edge lines
    each sorted by id as `emit_dot_bdd` lists them."""
    head, *body, tail = dot.splitlines()
    body = [re.sub(r"n(\d+)", lambda m: f"n{new[int(m[1])]}", line) for line in body[1:]]
    first_id = lambda line: int(re.match(r"  n(\d+)", line)[1])
    nodes = sorted((line for line in body if "->" not in line), key=first_id)
    edges = sorted((line for line in body if "->" in line), key=first_id)
    return "\n".join([head, "  rankdir=TB;", *nodes, *edges, tail]) + "\n"


def test_renumbered_tells_a_renumbering_from_a_difference():
    renumbered = _load_compare_outputs().renumbered
    canonical = renumbered(DIAGRAM)
    assert canonical is not None
    ids = [0, 1, 2, 3, 4, 7]
    rng = random.Random(3)
    for _ in range(20):
        permuted = _renumber(DIAGRAM, dict(zip(ids, rng.sample(range(10), len(ids)))))
        assert renumbered(permuted) == canonical
    # a changed label, a changed edge target, the root's two edges swapped
    swapped = DIAGRAM.replace("n7 -> n3", "n7 -> nX").replace("n7 -> n4", "n7 -> n3")
    for changed in (DIAGRAM.replace('label="c"', 'label="d"'),
                    DIAGRAM.replace("n4 -> n2", "n4 -> n3"),
                    swapped.replace("n7 -> nX", "n7 -> n4")):
        assert changed != DIAGRAM and renumbered(changed) not in (None, canonical)
    # text no diagram dump prints
    for text in ("metric: min-cost\nvalue: 1\nalgorithm: bdd\n", "",
                 DIAGRAM.replace("digraph bdd", "digraph attack_tree"),
                 DIAGRAM.replace("n7 -> n4", "n7 -> n9")):
        assert renumbered(text) is None


def test_compare_outputs_finds_no_difference_between_a_tree_and_itself():
    run = script("compare_outputs.py", SRC, SRC, str(ROOT / "models" / "treasure.at"))
    assert run.returncode == 0, run.stderr
    assert run.stdout == "404 requests on 1 models, 0 renumbered, 0 differ\n"


@pytest.mark.parametrize("name, args", [
    ("bench_scaling.py", ("--max-power", "11", "--ladder-max", "8")),
    ("run_examples.py", ()),
])
def test_script_runs(name, args):
    run = script(name, *args)
    assert run.returncode == 0, run.stderr
    assert run.stdout
    if name == "bench_scaling.py":
        # the compile and minimise table starts at the largest ladder, 8
        table = run.stdout.split("compile and minimise")[1]
        assert re.search(r"^ +8 \|", table, re.M), table
