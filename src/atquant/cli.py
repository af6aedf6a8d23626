"""Command-line front end: check | semantics | metric | ktop | dump.

Results go to stdout (or --output), diagnostics to stderr. Exit codes:
0 success, 1 parse/validation/analysis failure, 2 ill-formed dynamic
structure (check only), and 2 for a usage error. Output is deterministic;
the JSON stats block's millis field is the single exception.

The command line is read from one table, `_COMMANDS`, by one loop that
accepts what argparse accepted and words its usage errors as argparse did.
The calls the handlers make are looked up as module globals at call time,
so a tracer may swap them.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

from .analysis import ALGORITHMS, DEFAULT_BUDGET, AnalysisRequest, analyze
from .bdd import VarOrder, from_structure_function, minimise
from .domains import ValueKind, builtin
from .errors import AtError, BudgetExceeded
from .io import (collector_paused, emit_dot, emit_dot_bdd, emit_json, emit_model, emit_result,
                 parse_model)
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
            _write(args, emit_json({"valid": False, "error": str(e)}))
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
        _write(args, emit_json(payload))
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
        _write(args, emit_json(payload))
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
    domain = builtin(args.domain, args.budget)
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


_FORMAT = ("--format", ("json", "text"), "text", False, "print text or JSON")
_OUTPUT = ("--output", str, None, False, "write to this file instead of stdout")
_DOMAIN = ("--domain", str, None, True,
           "attribute domain, e.g. min-cost or pareto(min-cost,prob-max)")

# command -> (handler, help, values the command fixes, options). An option
# is (flag, kind, default, required, help); its kind is str, int or the
# tuple of its choices. Every command also takes the model path.
_COMMANDS = {
    "check": (cmd_check, "validate structure and well-formedness", {}, (_FORMAT, _OUTPUT)),
    "semantics": (cmd_semantics, "enumerate the minimal attacks", {}, (
        _FORMAT, _OUTPUT,
        ("--budget", int, DEFAULT_BUDGET, False, "max BAS count for enumeration"),
    )),
    "metric": (cmd_metric, "compute a metric value", {"k": None}, (
        _FORMAT, _OUTPUT, _DOMAIN,
        ("--attribution", str, None, True,
         "attribution name; comma-joined names for pareto products"),
        ("--algorithm", ALGORITHMS, "auto", False,
         "engine; auto routes to the cheapest exact one"),
        ("--order", str, None, False, "declared variable order to use for BDDs"),
        ("--budget", int, DEFAULT_BUDGET, False,
         "max BAS count for the oracle, and 2**budget points per pareto conjunction"),
    )),
    "ktop": (cmd_metric, "rank the k best attacks",
             {"algorithm": "auto", "budget": DEFAULT_BUDGET}, (
        _FORMAT, _OUTPUT, _DOMAIN,
        ("--attribution", str, None, True, "attribution name"),
        ("--k", int, None, True, "number of attacks to rank"),
        ("--order", str, None, False, "declared variable order to use"),
    )),
    "dump": (cmd_dump, "emit DOT (or the canonical model text)", {}, (
        _OUTPUT,
        ("--what", ("at", "bdd", "bdd-min", "model"), "at", False,
         "the tree, its compiled or minimised diagram, or the model text"),
        ("--order", str, None, False, "declared variable order for BDD dumps"),
    )),
}
_HELP = {"-h": None, "--help": None}
# per command: each flag, help first, -> its option (None for help), in
# the order in which an ambiguous prefix names its matches
_FLAGS = {cmd: _HELP | {o[0]: o for o in spec[3]} for cmd, spec in _COMMANDS.items()}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # read as a value, not as a flag


def _metavar(flag: str, kind) -> str:
    return "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else flag[2:].upper()


def _usage(cmd) -> str:
    if cmd is None:
        return "atquant [-h] {" + ",".join(_COMMANDS) + "} ..."
    shown = [f"atquant {cmd} [-h]"]
    for flag, kind, _, required, _ in _COMMANDS[cmd][3]:
        part = f"{flag} {_metavar(flag, kind)}"
        shown.append(part if required else f"[{part}]")
    return " ".join(shown + ["model"])


def _row(left: str, text: str) -> str:
    left = "  " + left
    return f"{left:<24}{text}\n" if len(left) <= 22 else f"{left}\n{'':24}{text}\n"


def _help_text(cmd) -> str:
    helps = _row("-h, --help", "show this help message and exit")
    if cmd is None:
        commands = "".join(_row(name, spec[1]) for name, spec in _COMMANDS.items())
        return (f"usage: {_usage(cmd)}\n\nQuantitative attack-tree analysis.\n\n"
                f"commands:\n{commands}\noptions:\n{helps}")
    _, text, _, options = _COMMANDS[cmd]
    flags = "".join(_row(f"{flag} {_metavar(flag, kind)}", line)
                    for flag, kind, _, _, line in options)
    return (f"usage: {_usage(cmd)}\n\n{text}\n\npositional arguments:\n"
            f"{_row('model', 'path to a .at model file')}\noptions:\n{helps}{flags}")


def _fail(cmd, message: str):
    """A usage error, worded as argparse worded it: exit 2."""
    prog = "atquant" if cmd is None else f"atquant {cmd}"
    sys.stderr.write(f"usage: {_usage(cmd)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _help(cmd, flag: str, value) -> None:
    """Print the help and exit 0. As with argparse, -hh is -h twice, and
    any other text after the flag is refused."""
    if flag == "-h" and value:
        value = value.lstrip("h") or None
    if value is not None:
        _fail(cmd, f"argument -h/--help: ignored explicit argument {value!r}")
    sys.stdout.write(_help_text(cmd))
    raise SystemExit(0)


def _flag(token: str, flags: dict, cmd):
    """How argparse read one token: None for a value, else (flag, the text
    after '=' or after a short flag, None without one); flag None is an
    unknown option. A prefix of two long flags is an error."""
    if token[:1] != "-" or token == "-":
        return None
    if token in flags:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in flags:
        return name, value
    if token[1] == "-":
        hits = [flag for flag in flags if flag.startswith(name)]
        value = value if eq else None
    else:
        hits = [token[:2]] if token[:2] in flags else []
        value = token[2:]
    if len(hits) > 1:
        _fail(cmd, f"ambiguous option: {token} could match {', '.join(hits)}")
    if hits:
        return hits[0], value
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def _read(argv: list) -> tuple:
    """(handler, args) for argv, read as argparse read it: exact flags,
    `--flag=value` and unique prefixes, options on either side of the model,
    the last repeat winning, and "--" ending the options. Help and usage
    errors exit through SystemExit, with 0 and 2."""
    extras = []  # unknown options and surplus values, in argv order
    i = 0
    while True:  # before the command only -h is known
        if argv[i:] in ([], ["--"]):
            _fail(None, "the following arguments are required: cmd")
        hit = None if argv[i] == "--" else _flag(argv[i], _HELP, None)
        if hit is None:
            break
        if hit[0] is None:
            extras.append(argv[i])
        else:
            _help(None, *hit)
        i += 1
    cmd, rest = argv[i], argv[i + 1:]
    if cmd not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _fail(None, f"argument cmd: invalid choice: {cmd!r} (choose from {choices})")
    handler, _, fixed, options = _COMMANDS[cmd]
    flags = _FLAGS[cmd]
    values = {flag[2:]: default for flag, _, default, _, _ in options} | fixed
    # every token before "--" is read first: an ambiguous prefix fails first
    end = rest.index("--") if "--" in rest else len(rest)
    hits = [_flag(token, flags, cmd) for token in rest[:end]]
    model, seen, j = None, set(), 0
    while j < len(rest):
        hit = hits[j] if j < end else None
        if hit is None:  # a value, or the "--"
            if model is not None:
                extras.append(rest[j])
            elif j != end:
                model = rest[j]
                if j + 1 == end:
                    j += 1  # a "--" right after the model goes with it
            elif j + 1 < len(rest):
                j += 1  # and so does one right before it
                model = rest[j]
            j += 1
            continue
        flag, value = hit
        if flag is None:
            extras.append(rest[j])
        elif flags[flag] is None:
            _help(cmd, flag, value)
        else:
            kind = flags[flag][1]
            if value is None:
                if j + 1 >= end or hits[j + 1] is not None:
                    _fail(cmd, f"argument {flag}: expected one argument")
                j += 1
                value = rest[j]
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _fail(cmd, f"argument {flag}: invalid int value: {value!r}")
            elif kind is not str and value not in kind:
                choices = ", ".join(map(repr, kind))
                _fail(cmd, f"argument {flag}: invalid choice: {value!r} (choose from {choices})")
            values[flag[2:]] = value
            seen.add(flag)
        j += 1
    missing = ["model"] * (model is None)
    missing += [flag for flag, _, _, required, _ in options if required and flag not in seen]
    if missing:
        _fail(cmd, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    return handler, SimpleNamespace(model=model, **values)


def main(argv=None) -> int:
    """Run one command. Its handler runs with the cyclic collector paused
    (`io.collector_paused`): a request leaves next to no garbage cycles, and
    collections during it would only rescan the model it built."""
    handler, args = _read(sys.argv[1:] if argv is None else list(argv))
    return collector_paused(_run, handler, args)


def _run(handler, args) -> int:
    try:
        return handler(args)
    except BudgetExceeded as e:
        print(f"error: {e}; pass --budget to acknowledge the exponential cost",
              file=sys.stderr)
        return 1
    except (AtError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
