"""scripts/compare_outputs.py imports the package, so it is run once on two
small models, and the README's Python examples are run as written: a
rename that breaks either fails here rather than when someone next needs
it."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def test_compare_outputs_finds_no_difference_between_a_tree_and_itself():
    # overlap.at is a DAG with two declared orders: the diagrams two
    # processes dump and fold under each must match byte for byte
    models = [str(ROOT / "models" / name) for name in ("treasure.at", "overlap.at")]
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "compare_outputs.py"),
                          SRC, SRC, *models], cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "848 requests on 2 models, 0 differ\n"


def test_the_readme_python_examples_run_and_print_what_they_say(monkeypatch):
    # every fenced python block, in order, in one namespace, from the repo
    # root; a last line `expr  # repr` states what expr evaluates to
    readme = (ROOT / "README.md").read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", readme, re.S | re.M))
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    shown = []
    for m in blocks:
        block = m[1]
        # padded so that a traceback names the README's own line
        padding = "\n" * readme.count("\n", 0, m.start(1))
        exec(compile(padding + block, "README.md", "exec"), namespace)
        stated = re.fullmatch(r"(.*?)\s+# (.*)", block.rstrip().rsplit("\n", 1)[-1])
        if stated:
            shown.append((repr(eval(stated[1], namespace)), stated[2]))
    assert len(blocks) == readme.count("```python") == 3
    assert shown == [("(1, 'bdd')", "(1, 'bdd')")]
