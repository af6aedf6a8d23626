"""The benchmark's per-layer tracer (perfbench/spans.py) swaps named
functions in atquant modules by attribute lookup. A refactor that drops or
renames one of those names breaks traced runs; this catches it here."""

import importlib
import importlib.util
from pathlib import Path

from atquant.cli import main

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_spans_and_uninstalls(capsys):
    spans = _load_spans()
    sites = [site for group in spans.SITES.values() for site in group]
    originals = {(m, a): getattr(importlib.import_module(f"atquant.{m}"), a) for m, a in sites}

    tracer = spans.Tracer()
    try:
        tracer.install()
        assert main(["metric", "models/overlap.at", "--domain", "min-cost",
                     "--attribution", "cost"]) == 0
        assert main(["ktop", "models/overlap.at", "--domain", "min-cost",
                     "--attribution", "cost", "--k", "2"]) == 0
        assert main(["check", "models/exploit.at"]) == 0
        tracer.settle()
    finally:
        tracer.uninstall()
    capsys.readouterr()

    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(f"atquant.{m}"), a) is fn
    names = {span[1] for span in tracer.spans}
    assert {"io.parse", "io.emit", "tree.classify", "analysis.validate", "analysis.analyze",
            "bdd.compile", "bdd.minimise", "semantics.well_formed"} <= names
    assert tracer.counts["analysis.route.bdd"] == tracer.counts["analysis.route.ktop"] == 1
    assert tracer.counts["bdd.reachable_nodes"] > 0
