"""Command-line front end: check | semantics | metric | ktop | dump.

Results go to stdout (or --output), diagnostics to stderr. Exit codes:
0 success, 1 parse/validation/analysis failure, 2 ill-formed dynamic
structure (check only). Output is deterministic; the JSON stats block's
millis field is the single exception.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .analysis import DEFAULT_BUDGET, AnalysisRequest, analyze
from .bdd import VarOrder, from_structure_function, minimise
from .domains import ValueKind, builtin
from .errors import AtError, BudgetExceeded
from .io import emit_dot, emit_dot_bdd, emit_model, emit_result, parse_model
from .semantics import (
    is_well_formed,
    minimal_attacks_dynamic,
    minimal_attacks_static,
)
from .tree import Dynamics, Shape, bas_of, classify


def _load(path: str):
    """Parse a model file; a leading UTF-8 byte-order mark is skipped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise AtError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})") from None
    return parse_model(text)


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _order(doc, name):
    if name is None:
        return None
    if name not in doc.orders:
        known = ", ".join(sorted(doc.orders)) or "(none declared)"
        raise AtError(f"unknown order {name!r}; declared: {known}")
    return VarOrder(doc.orders[name])


def _alpha(doc, domain, name: str) -> dict:
    """Attribution table for the domain. Pareto products take one name per
    component, comma-joined, zipped into vector singletons."""
    if domain.kind is ValueKind.PARETO:
        parts = [p.strip() for p in name.split(",")]
        if len(parts) != len(domain.components):
            raise AtError(
                f"{domain.name} needs {len(domain.components)} comma-joined "
                f"attribution names, got {len(parts)}"
            )
        tables = []
        for part in parts:
            if part not in doc.attributions:
                raise AtError(f"model declares no attribution {part!r}")
            tables.append(doc.attributions[part])
        return {
            b: frozenset({tuple(tab[b] for tab in tables)}) for b in bas_of(doc.tree)
        }
    if name not in doc.attributions:
        known = ", ".join(sorted(doc.attributions)) or "(none declared)"
        raise AtError(f"model declares no attribution {name!r}; declared: {known}")
    return doc.attributions[name]


def _shape_text(kind) -> str:
    return "DAG" if kind.shape is Shape.DAG else "tree"


def cmd_check(args) -> int:
    try:
        doc = _load(args.model)
    except (AtError, OSError) as e:
        if args.format == "json":
            _write(args, json.dumps({"valid": False, "error": str(e)}, indent=2) + "\n")
        else:
            print(f"invalid: {e}", file=sys.stderr)
        return 1
    kind = classify(doc.tree)
    well, cycle = is_well_formed(doc.tree)
    cycle_labels = [doc.tree.label_of(v) for v in cycle] if cycle else None
    if args.format == "json":
        payload = {
            "valid": True,
            "shape": kind.shape.value,
            "dynamics": kind.dynamics.value,
            "well_formed": well,
            "cycle": cycle_labels,
        }
        _write(args, json.dumps(payload, indent=2) + "\n")
    else:
        line = f"{_shape_text(kind)}, {kind.dynamics.value}"
        if kind.dynamics is Dynamics.DYNAMIC:
            line += ", well-formed" if well else ", ill-formed"
        out = line + "\n"
        if not well:
            out += "cycle: " + " -> ".join(cycle_labels) + "\n"
        _write(args, out)
    return 0 if well else 2


def cmd_semantics(args) -> int:
    """The minimal attacks, fewest BAS first, then by their BAS positions;
    a dynamic model's attacks with their order, a static model's without."""
    doc = _load(args.model)
    t = doc.tree
    kind = classify(t)
    pos = {b: i for i, b in enumerate(bas_of(t))}  # BAS id -> leftmost position
    if kind.dynamics is Dynamics.STATIC:
        suite = [(a, None) for a in minimal_attacks_static(t, args.budget)]
    else:
        suite = [(p.nodes, p.order) for p in minimal_attacks_dynamic(t, args.budget)]
    suite.sort(key=lambda pair: (len(pair[0]), sorted(pos[b] for b in pair[0])))
    rows = []
    for attack, order in suite:
        row = {"bas": [t.label_of(b) for b in sorted(attack, key=pos.__getitem__)]}
        if order is not None:
            row["order"] = [[t.label_of(a), t.label_of(b)] for a, b in sorted(order)]
        rows.append(row)
    if args.format == "json":
        payload = {"kind": f"{_shape_text(kind)}, {kind.dynamics.value}", "attacks": rows}
        _write(args, json.dumps(payload, indent=2) + "\n")
        return 0
    lines = []
    for row in rows:
        line = "{" + ", ".join(row["bas"]) + "}"
        if "order" in row:
            line += " : " + (", ".join(f"{a} < {b}" for a, b in row["order"]) or "-")
        lines.append(line)
    _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_metric(args) -> int:
    """metric and ktop: one analysis request; ktop sets k."""
    doc = _load(args.model)
    domain = builtin(args.domain)
    alpha = _alpha(doc, domain, args.attribution)
    req = AnalysisRequest(
        doc.tree,
        alpha,
        domain,
        algorithm=args.algorithm,
        k=args.k,
        order=_order(doc, args.order),
        budget=args.budget,
    )
    res = analyze(req)
    _write(args, emit_result(res, doc.tree, args.format))
    return 0


def cmd_dump(args) -> int:
    doc = _load(args.model)
    if args.what == "at":
        _write(args, emit_dot(doc.tree))
    elif args.what == "model":
        _write(args, emit_model(doc))
    else:
        b = from_structure_function(doc.tree, _order(doc, args.order))
        if args.what == "bdd-min":
            b = minimise(b)
        _write(args, emit_dot_bdd(b, doc.tree))
    return 0


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="atquant", description="Quantitative attack-tree analysis."
    )
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p, fmt=True):
        p.add_argument("model", help="path to a .at model file")
        if fmt:
            p.add_argument("--format", choices=["json", "text"], default="text")
        p.add_argument("--output", help="write to this file instead of stdout")

    p = sub.add_parser("check", help="validate structure and well-formedness")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("semantics", help="enumerate the minimal attacks")
    common(p)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max BAS count for enumeration")
    p.set_defaults(fn=cmd_semantics)

    p = sub.add_parser("metric", help="compute a metric value")
    common(p)
    p.add_argument("--domain", required=True)
    p.add_argument("--attribution", required=True,
                   help="attribution name; comma-joined names for pareto products")
    p.add_argument("--algorithm", choices=["auto", "bu", "bdd", "oracle"], default="auto")
    p.add_argument("--order", help="declared variable order to use for BDDs")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max BAS count for the oracle")
    p.set_defaults(fn=cmd_metric, k=None)

    p = sub.add_parser("ktop", help="rank the k best attacks")
    common(p)
    p.add_argument("--domain", required=True)
    p.add_argument("--attribution", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", help="declared variable order to use")
    p.set_defaults(fn=cmd_metric, algorithm="auto", budget=DEFAULT_BUDGET)

    p = sub.add_parser("dump", help="emit DOT (or the canonical model text)")
    common(p, fmt=False)
    p.add_argument("--what", choices=["at", "bdd", "bdd-min", "model"], default="at")
    p.add_argument("--order", help="declared variable order for BDD dumps")
    p.set_defaults(fn=cmd_dump)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as e:
        print(f"error: {e}; pass --budget to acknowledge the exponential cost",
              file=sys.stderr)
        return 1
    except (AtError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
