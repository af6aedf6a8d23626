"""scripts/compare_outputs.py imports the package, so it is run once on two
small models: a rename that breaks it fails here rather than when someone
next needs it."""

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
    assert run.stdout == "832 requests on 2 models, 0 differ\n"
