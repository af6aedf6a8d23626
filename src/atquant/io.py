"""Model files, result serialization, DOT export.

The model format is Galileo-flavoured: quoted node labels, one declaration
per line, `//` comments. Beyond the tree itself a file may carry named
attribution blocks (BAS label -> value) and named variable orders:

    toplevel "root";
    "root" or "n" "crypto";
    "crypto" and "t" "p";
    "n" bas;  "t" bas;  "p" bas;

    attribution "cost" { "n" = 10; "t" = 2; "p" = inf; }
    order "left" = "n" < "t" < "p";

Values are exact: integers, ratios p/q, decimals (read as exact rationals),
or inf. Emission is canonical, so emit(parse(emit(doc))) == emit(doc).

Tokens: keywords are ASCII words (`toplevel`, `bas`, `inf`, ...), numbers
are ASCII digits with dots, punctuation is one of `;{}=<>/(),`, and a quoted
label may hold any character but `"` and newline. Spaces, tabs, CR, LF and
`//` comments separate tokens; any other character is an error.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Optional

from .analysis import AnalysisResult
from .bdd import FALSE, TRUE, Bdd
from .domains import INF
from .errors import (
    BasWithChildren,
    CyclicStructure,
    DanglingReference,
    DuplicateDefinition,
    GateWithoutChildren,
    ModelSyntaxError,
    TreeBuildError,
    UnknownNode,
)
from .tree import AttackTree, Node, NodeType, bas_of, freeze

_KINDS = {"bas": NodeType.BAS, "or": NodeType.OR, "and": NodeType.AND, "sand": NodeType.SAND}

# Unnamed alternatives (whitespace, comments) are skipped; BAD is any
# character that starts no token.
_TOKEN = re.compile(
    r'[ \t\r\n]+|//[^\n]*'
    r'|"(?P<STR>[^"\n]*)"'
    r"|(?P<NUM>[0-9][0-9.]*)"
    r"|(?P<WORD>[A-Za-z_][\w-]*)"
    r"|(?P<PUNCT>[;{}=<>/(),])"
    r"|(?P<BAD>.)",
    re.DOTALL,
)
_Tok = tuple[str, str, int]  # (kind, text, offset), kind STR NUM WORD PUNCT or EOF


@dataclass(frozen=True)
class ModelDocument:
    tree: AttackTree
    attributions: dict = field(default_factory=dict)  # name -> {bas id -> value}
    orders: dict = field(default_factory=dict)  # name -> tuple of bas ids


def _where(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of a character offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _scan(text: str) -> list[_Tok]:
    """All tokens, then EOF at the end of the text. A string's text excludes
    its quotes; its offset is the opening quote's."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "BAD":
            c = m[kind]
            msg = "unterminated string" if c == '"' else f"unexpected character {c!r}"
            raise ModelSyntaxError(msg, *_where(text, m.start()))
        if kind:
            out.append((kind, m[kind], m.start()))
    out.append(("EOF", "", len(text)))
    return out


def _locate(e: TreeBuildError, text: str, offset: int) -> TreeBuildError:
    """Rebuild a structural error so its message names the source position."""
    line, col = _where(text, offset)
    msg = f"{e} at line {line}, col {col}"
    out = CyclicStructure(msg, cycle=e.cycle) if isinstance(e, CyclicStructure) else type(e)(msg)
    out.line, out.col = line, col
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _scan(text)
        self.pos = 0

    def error(self, msg: str, offset: int, cls=ModelSyntaxError) -> ModelSyntaxError:
        return cls(msg, *_where(self.text, offset))

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> _Tok:
        tok = self.next()
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            raise self.error(f"expected {want!r}, found {tok[1]!r}", tok[2])
        return tok

    def value(self):
        kind, num, at = self.next()
        if kind == "WORD" and num == "inf":
            return INF
        if kind != "NUM":
            raise self.error(f"expected a value, found {num!r}", at)
        if self.peek()[:2] == ("PUNCT", "/"):
            self.next()
            _, den, den_at = self.expect("NUM")
            if "." in num or "." in den:
                raise self.error("ratio parts must be integers", at)
            if not den.strip("0"):
                raise self.error("zero denominator", den_at)
            return Fraction(self.integer(num, at), self.integer(den, den_at))
        if "." in num:
            if num.count(".") > 1 or num.endswith("."):
                raise self.error(f"bad number {num!r}", at)
            whole, frac = num.split(".")
            return Fraction(self.integer(whole + frac, at), 10 ** len(frac))  # exact decimal
        return self.integer(num, at)

    def integer(self, digits: str, at: int) -> int:
        try:
            return int(digits)
        except ValueError:  # digits are ASCII, so only their number can be refused
            limit = f"the interpreter's limit of {sys.get_int_max_str_digits()}"
            raise self.error(f"numeral of {len(digits)} digits exceeds {limit}", at) from None


def parse_model(text: str) -> ModelDocument:
    p = _Parser(text)
    toplevel: Optional[_Tok] = None
    defs: list[tuple[str, NodeType, list[_Tok], int]] = []  # (label, type, children, offset)
    ids: dict[str, int] = {}  # label -> node id, the index of its definition
    raw_attr: list[tuple[str, int, list]] = []  # (name, offset, [(label token, value)])
    raw_orders: list[tuple[str, int, list]] = []  # (name, offset, [label token])

    while p.peek()[0] != "EOF":
        kind, word, at = p.next()
        if kind == "WORD" and word == "toplevel":
            name = p.expect("STR")
            p.expect("PUNCT", ";")
            if toplevel is not None:
                raise p.error("second toplevel declaration", name[2], DuplicateDefinition)
            toplevel = name
        elif kind == "WORD" and word == "attribution":
            _, name, name_at = p.expect("STR")
            if any(name == n for n, _, _ in raw_attr):
                raise p.error(f"attribution {name!r} defined twice", name_at, DuplicateDefinition)
            p.expect("PUNCT", "{")
            bindings = []
            while p.peek()[:2] != ("PUNCT", "}"):
                label = p.expect("STR")
                p.expect("PUNCT", "=")
                v = p.value()
                p.expect("PUNCT", ";")
                bindings.append((label, v))
            p.next()  # the closing brace
            raw_attr.append((name, name_at, bindings))
        elif kind == "WORD" and word == "order":
            _, name, name_at = p.expect("STR")
            if any(name == n for n, _, _ in raw_orders):
                raise p.error(f"order {name!r} defined twice", name_at, DuplicateDefinition)
            p.expect("PUNCT", "=")
            labels = [p.expect("STR")]
            while p.peek()[:2] == ("PUNCT", "<"):
                p.next()
                labels.append(p.expect("STR"))
            p.expect("PUNCT", ";")
            raw_orders.append((name, name_at, labels))
        elif kind == "STR":
            _, gate, gate_at = p.expect("WORD")
            if gate not in _KINDS:
                raise p.error(f"expected one of bas/or/and/sand, found {gate!r}", gate_at)
            children = []
            while p.peek()[0] == "STR":
                children.append(p.next())
            p.expect("PUNCT", ";")
            if word in ids:
                raise p.error(f"node {word!r} defined twice", at, DuplicateDefinition)
            ids[word] = len(defs)
            node_type = _KINDS[gate]
            if node_type is NodeType.BAS and children:
                raise _locate(BasWithChildren(f"basic action {word!r} lists children"), text, at)
            if node_type is not NodeType.BAS and not children:
                raise _locate(GateWithoutChildren(f"gate {word!r} has no children"), text, at)
            defs.append((word, node_type, children, at))
        else:
            raise p.error(f"unexpected token {word!r}", at)

    if toplevel is None:
        raise p.error("missing toplevel declaration", 0)
    _, root, root_at = toplevel
    if root not in ids:
        raise p.error(f"toplevel {root!r} is never defined", root_at)
    nodes = []
    for i, (label, node_type, children, _) in enumerate(defs):
        for _, child, at in children:
            if child not in ids:
                raise _locate(
                    DanglingReference(f"node {label!r} references undefined node {child!r}"),
                    text, at,
                )
        nodes.append(Node(i, label, node_type, tuple([ids[c] for _, c, _ in children])))
    try:
        tree = freeze(nodes, root, ids[root])
    except CyclicStructure as e:
        raise _locate(e, text, defs[e.cycle[0]][3]) from None
    except TreeBuildError as e:
        raise _locate(e, text, root_at) from None

    # freeze leaves no node unreachable, so the BAS are the nodes of that type
    def bas_id(block: str, name: str, tok: _Tok) -> int:
        _, label, at = tok
        b = ids.get(label)
        if b is None or nodes[b].type is not NodeType.BAS:
            raise p.error(f"{block} {name!r} names {label!r}, which is not a basic action", at)
        return b

    n_bas = sum(n.type is NodeType.BAS for n in nodes)
    attributions: dict[str, dict[int, object]] = {}
    for name, name_at, bindings in raw_attr:
        table: dict[int, object] = {}
        for tok, v in bindings:
            b = bas_id("attribution", name, tok)
            if b in table:
                raise p.error(
                    f"attribution {name!r} binds {tok[1]!r} twice", tok[2], DuplicateDefinition
                )
            table[b] = v
        if len(table) != n_bas:
            missing = [n.label for n in nodes if n.type is NodeType.BAS and n.id not in table]
            raise p.error(
                f"attribution {name!r} misses basic actions: {', '.join(sorted(missing))}",
                name_at,
            )
        attributions[name] = table

    orders: dict[str, tuple[int, ...]] = {}
    for name, name_at, labels in raw_orders:
        seq = [bas_id("order", name, tok) for tok in labels]
        if len(seq) != n_bas or len(set(seq)) != n_bas:
            raise p.error(f"order {name!r} is not a permutation of the basic actions", name_at)
        orders[name] = tuple(seq)

    return ModelDocument(tree, attributions, orders)


def render_value(v) -> object:
    """Exact, canonical rendering: inf, integer, p/q, or a sorted front. Integers
    go through Decimal, as str() refuses more than sys.get_int_max_str_digits()."""
    if v is INF:
        return "inf"
    if isinstance(v, (int, Fraction)):
        num = str(Decimal(v.numerator))
        return num if v.denominator == 1 else f"{num}/{Decimal(v.denominator)}"
    if isinstance(v, frozenset):
        return sorted([render_value(x) for x in vec] for vec in v)
    raise ValueError(f"unrenderable value {v!r}")


def emit_model(doc: ModelDocument) -> str:
    t = doc.tree
    lines = [f'toplevel "{t.label_of(t.root)}";']
    for node in t.nodes:
        if node.type is NodeType.BAS:
            lines.append(f'"{node.label}" bas;')
        else:
            kids = " ".join(f'"{t.label_of(c)}"' for c in node.children)
            lines.append(f'"{node.label}" {node.type.value} {kids};')
    for name in sorted(doc.attributions):
        lines.append("")
        lines.append(f'attribution "{name}" {{')
        table = doc.attributions[name]
        for b in bas_of(t):
            lines.append(f'  "{t.label_of(b)}" = {_value_text(table[b])};')
        lines.append("}")
    for name in sorted(doc.orders):
        lines.append("")
        chain = " < ".join(f'"{t.label_of(b)}"' for b in doc.orders[name])
        lines.append(f'order "{name}" = {chain};')
    return "\n".join(lines) + "\n"


def _value_text(v) -> str:
    rendered = render_value(v)
    if not isinstance(rendered, str):
        raise ValueError("model files hold scalar values only")
    return rendered


def emit_result(res: AnalysisResult, t: AttackTree, fmt: str = "json") -> str:
    """Result record as stable JSON or terse text.

    JSON keeps field order fixed and renders every number exactly; BAS sets
    become sorted label lists. Text drops the stats block (and with it the
    only nondeterministic field, millis), so text output is byte-stable.
    """
    if res.algorithm == "ktop":
        value = render_value(res.value[0][0]) if res.value else None
    else:
        value = render_value(res.value)
    if fmt == "text":
        lines = []
        if res.algorithm == "ktop":
            for v, attack in res.witnesses or ():
                labels = ",".join(sorted(t.label_of(b) for b in attack))
                lines.append(f"{render_value(v)} {{{labels}}}")
        else:
            lines.append(f"metric: {res.metric}")
            rendered = value if isinstance(value, str) else json.dumps(value)
            lines.append(f"value: {rendered}")
            lines.append(f"algorithm: {res.algorithm}")
        for w in res.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"
    if fmt != "json":
        raise ValueError(f"unknown format {fmt!r}")
    payload: dict = {
        "metric": res.metric,
        "value": value,
        "algorithm": res.algorithm,
        "warnings": list(res.warnings),
    }
    if res.witnesses is not None:
        payload["witnesses"] = [
            {"value": render_value(v), "attack": sorted(t.label_of(b) for b in attack)}
            for v, attack in res.witnesses
        ]
    payload["stats"] = res.stats
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _dot_escape(label: str) -> str:
    """A model label inside a DOT string: labels hold no `"` or newline, so
    only the backslash needs escaping."""
    return label.replace("\\", "\\\\")


def emit_dot(t: AttackTree) -> str:
    """The model as a GraphViz digraph; SAND edges are numbered since their
    child order is semantic."""
    lines = ["digraph attack_tree {", "  rankdir=TB;"]
    for node in t.nodes:
        label = _dot_escape(node.label)
        if node.type is NodeType.BAS:
            lines.append(f'  n{node.id} [shape=box, label="{label}"];')
        else:
            lines.append(
                f'  n{node.id} [shape=ellipse, label="{label}\\n[{node.type.value.upper()}]"];'
            )
    for node in t.nodes:
        for pos, c in enumerate(node.children):
            if node.type is NodeType.SAND:
                lines.append(f'  n{node.id} -> n{c} [label="{pos + 1}"];')
            else:
                lines.append(f"  n{node.id} -> n{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot_bdd(b: Bdd, t: AttackTree) -> str:
    """Decision diagram as a digraph: dashed low edges, solid high edges,
    boxed terminals."""
    lines = ["digraph bdd {", "  rankdir=TB;"]
    reachable = sorted(b.postorder)
    for v in reachable:
        if v == FALSE:
            lines.append('  n0 [shape=box, label="0"];')
        elif v == TRUE:
            lines.append('  n1 [shape=box, label="1"];')
        else:
            try:
                label = t.label_of(b.var_at(v))
            except UnknownNode:
                label = str(b.var_at(v))
            lines.append(f'  n{v} [shape=circle, label="{_dot_escape(label)}"];')
    for v in reachable:
        if v >= 2:
            lines.append(f"  n{v} -> n{b.store.lows[v]} [style=dashed];")
            lines.append(f"  n{v} -> n{b.store.highs[v]} [style=solid];")
    lines.append("}")
    return "\n".join(lines) + "\n"
