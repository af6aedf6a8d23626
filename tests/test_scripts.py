"""The scripts under scripts/ import the package, some of its private names
included, so each is run once on a tiny input: a rename that breaks one
fails here rather than when someone next needs it."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_compare_outputs_finds_no_difference_between_a_tree_and_itself():
    # overlap.at is a DAG with two declared orders: the diagrams two
    # processes dump under each must match byte for byte
    models = [str(ROOT / "models" / name) for name in ("treasure.at", "overlap.at")]
    run = script("compare_outputs.py", SRC, SRC, *models)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "770 requests on 2 models, 0 differ\n"


@pytest.mark.parametrize("name, args", [
    ("bench_scaling.py", ("--max-power", "11", "--ladder-max", "8")),
])
def test_script_runs(name, args):
    run = script(name, *args)
    assert run.returncode == 0, run.stderr
    assert run.stdout
    if name == "bench_scaling.py":
        # the compile and minimise table starts at the largest ladder, 8
        table = run.stdout.split("compile and minimise")[1]
        assert re.search(r"^ +8 \|", table, re.M), table
        # the cold-start row: runs, import ms, modules added
        spec = importlib.util.spec_from_file_location("bench_scaling", run.args[1])
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        cold = run.stdout.split("cold start")[1]
        row = rf"^ +{bench.COLD_STARTS} +\d+\.\d +[1-9]\d*$"
        assert re.search(row, cold, re.M), cold
