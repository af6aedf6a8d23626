#!/usr/bin/env python3
"""Drive every model in models/ through the full pipeline and print a digest.

For each .at file: classification, well-formedness, the minimal attack
suite, and one metric per declared attribution (domain picked by the
attribution's name). A quick way to eyeball the whole corpus after a change:

    python3 scripts/run_examples.py [--models DIR]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from atquant import (
    AnalysisRequest,
    analyze,
    bas_of,
    classify,
    is_well_formed,
    minimal_attacks_static,
    builtin,
    parse_model,
    static_projection,
)
from atquant.errors import AtError
from atquant.domains import render_value
from atquant.tree import Dynamics

# Attribution names in the corpus map onto domains by convention; the pair
# (name, dynamics) picks the algebra.
DOMAIN_FOR = {
    ("cost", False): "min-cost",
    ("cost", True): "min-cost",
    ("time", False): "min-time-seq",
    ("time", True): "min-time-par",
    ("prob", False): "prob-max",
    ("prob", True): "prob-max",
    ("likelihood", False): "prob-max",
    ("likelihood", True): "prob-max",
    ("skill", False): "min-skill",
    ("skill", True): "min-skill",
}


def digest(path: Path) -> None:
    doc = parse_model(path.read_text())
    t = doc.tree
    kind = classify(t)
    dynamic = kind.dynamics is Dynamics.DYNAMIC
    ok, cycle = is_well_formed(t)

    print(f"== {path.name}: {kind} ==")
    if not ok:
        labels = " -> ".join(t.label_of(v) for v in cycle)
        print(f"   ill-formed, ordering cycle: {labels}")
        print()
        return

    suite = minimal_attacks_static(static_projection(t))
    shown = sorted(sorted(t.label_of(b) for b in a) for a in suite)
    print(f"   {len(bas_of(t))} basic actions, {len(suite)} minimal attacks: "
          + " ".join("{" + ",".join(a) + "}" for a in shown))

    for name in sorted(doc.attributions):
        domain_name = DOMAIN_FOR.get((name, dynamic))
        if domain_name is None:
            print(f"   {name}: no domain convention, skipped")
            continue
        domain = builtin(domain_name)
        try:
            res = analyze(AnalysisRequest(t, dict(doc.attributions[name]), domain))
        except AtError as e:
            print(f"   {name} via {domain_name}: {e}")
            continue
        val = render_value(res.value)
        print(f"   {name} via {domain_name}: {val} [{res.algorithm}]")
    print()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--models", default=Path(__file__).parent.parent / "models",
                    type=Path)
    args = ap.parse_args()
    paths = sorted(args.models.glob("*.at"))
    if not paths:
        print(f"no .at files under {args.models}", file=sys.stderr)
        return 1
    for path in paths:
        digest(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
