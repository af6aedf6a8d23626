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
label may hold any character but `"`, newline and carriage return, as a file
read with universal newlines would turn a carriage return into a newline.
Spaces, tabs, CR, LF and `//` comments separate tokens; any other character
is an error.

Two front ends read a file into the same draft: the node labels and types
in definition order, every node's child labels in one flat list, and where
each node's children start in it. The statement matcher checks a whole
statement with one pattern per kind: a run of node definitions, a
`toplevel`, an attribution block, an `order`. Labels hold no quote, so a
matched statement split on quotes gives its labels and, between them, each
node's kind and each binding's value. The text after a label names the
node's kind, or is blank or ends a definition after a child's label; a
file has few distinct such separators, and each is classified once. The
matcher accepts whitespace only inside a statement and comments only
between statements, and declines a basic action with children, a gate
without, a name declared twice and a numeral the token parser refuses. The
token parser reads one token at a time and is the only source of syntax
diagnostics. It reads the whole text again when the matcher declines any
of it or when the matched statements break a rule below, so every error,
with its line and column, is the token parser's. Both front ends hand
their draft to `_assemble`, which resolves the child labels with one
lookup pass, rejects dangling children, and hands the flat child ids and
the offsets to `freeze`, which slices each node's children as its walk
pops the node. It then resolves each attribution's and each order's labels
to basic action ids once, and checks that they cover the basic actions.
The token parser converts numerals as it reads them. The matcher keeps each
block's split text and ids instead: once `_assemble` has checked its
bindings, the conversion cannot fail, so it waits until a request first
reads the block from the document's attributions (`_Tables`).
"""

from __future__ import annotations

import gc
import json
import re
import sys
from bisect import bisect_right
from collections.abc import Mapping
from fractions import Fraction
from itertools import compress, count, repeat
from operator import is_, not_, sub
from typing import TYPE_CHECKING, Optional

from .bdd import FALSE, TRUE, Bdd
from .domains import INF, render_value
from .errors import (
    AtError,
    BasWithChildren,
    CyclicStructure,
    DanglingReference,
    DuplicateDefinition,
    GateWithoutChildren,
    ModelSyntaxError,
    TreeBuildError,
)
from .record import Record
from .tree import AttackTree, NodeType, bas_of, freeze

if TYPE_CHECKING:
    from .analysis import AnalysisResult

_KINDS = {"bas": NodeType.BAS, "or": NodeType.OR, "and": NodeType.AND, "sand": NodeType.SAND}

# Unnamed alternatives (whitespace, comments) are skipped; BAD is any
# character that starts no token.
_TOKEN = re.compile(
    r'[ \t\r\n]+|//[^\n]*'
    r'|"(?P<STR>[^"\r\n]*)"'
    r"|(?P<NUM>[0-9][0-9.]*)"
    r"|(?P<WORD>[A-Za-z_][\w-]*)"
    r"|(?P<PUNCT>[;{}=<>/(),])"
    r"|(?P<BAD>.)",
    re.DOTALL,
)
_Tok = tuple[str, str, int]  # (kind, text, offset), kind STR NUM WORD PUNCT or EOF

# The statement grammar: the token grammar with whitespace only inside a
# statement, so a comment cannot hide a quote from `_match`. A keyword or
# inf ends where the token grammar's word would (`basé` is not `bas`), a
# numeral where its numeral would. A decimal has digits both sides of its
# dot, a ratio is of integers over a nonzero one: the matcher declines each
# numeral `_number` refuses. Repeats are possessive (`*+`, `++`): what
# follows a repeat never starts like what it repeats, so handing characters
# back could not help a match. A greedy repeat keeps a place to hand back to
# for every definition or binding it reads: on a 32k-node file, 26 MB of
# matcher stack for the node run, 42 MB for one attribution block, and a
# parse 40% slower.
_W = r"[ \t\r\n]*+"
_END = r"(?![\w-])"
_LABEL = r'"[^"\r\n]*+"'
_VALUE = rf"(?:inf{_END}|[0-9]++(?:\.[0-9]++|{_W}/{_W}0*+[1-9][0-9]*+)?+(?![\w.-]))"
# what separates statements
_GAP = re.compile(r"(?:[ \t\r\n]++|//[^\n]*+)*+")
_STATEMENT = re.compile(
    # a run of node definitions, each basic action without children and
    # each gate with some
    rf"(?:(?P<nodes>(?:{_LABEL}{_W}"
    rf"(?:bas{_END}|(?:or|and|sand){_END}(?:{_W}{_LABEL})++){_W};{_W})++)"
    rf'|toplevel{_END}{_W}"(?P<toplevel>[^"\r\n]*+)"{_W};'
    rf'|attribution{_END}{_W}"(?P<attribution>[^"\r\n]*+)"{_W}'
    rf"\{{(?P<bindings>(?:{_W}{_LABEL}{_W}={_W}{_VALUE}{_W};)*+){_W}\}}"
    rf'|order{_END}{_W}"(?P<order>[^"\r\n]*+)"{_W}='
    rf"(?P<chain>{_W}{_LABEL}(?:{_W}<{_W}{_LABEL})*+){_W};)"
    + _GAP.pattern
)
_SEPARATORS = str.maketrans("", "", " \t\r\n=;")


class ModelDocument(Record):
    """A model: its tree, its attributions (name -> {bas id -> value}) and
    its orders (name -> tuple of bas ids); each omitted table is a fresh
    dict, and a dict a caller passes is kept as it is. A parsed model's
    attributions are a `_Tables`, which converts each block's numerals when
    the block is first read."""

    _compared = ("tree", "attributions", "orders")

    def __init__(self, tree: AttackTree, attributions: Optional[Mapping] = None,
                 orders: Optional[dict] = None):
        self.__dict__.update(tree=tree,
                             attributions={} if attributions is None else attributions,
                             orders={} if orders is None else orders)


class _Tables(Mapping):
    """A parsed model's attributions, name -> {bas id -> value}, in
    declaration order, read-only. A block the statement matcher read stays
    a `(parts, ids)` pair until it is first read, and `_convert` makes and
    keeps its table then. `in`, iteration and len read names only;
    equality, repr and items() read every table, so a parsed document
    equals one built with converted tables."""

    def __init__(self, entries: dict):
        self._entries = entries  # name -> table, or a (parts, ids) pair

    def __getitem__(self, name: str) -> dict:
        table = self._entries[name]
        if type(table) is tuple:
            table = self._entries[name] = _convert(*table)
        return table

    def __contains__(self, name) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _convert(parts: list[str], ids: list[int]) -> dict:
    """bas id -> value of an attribution block the statement matcher read
    and `_assemble` checked, given the block split on quotes, whose odd
    parts are its labels and whose even parts hold the values between them,
    and the ids of the basic actions its labels name. One object per
    distinct numeral: the text after a label holds its binding's `=`,
    numeral and `;`, and each distinct such text is read once."""
    after = parts[2::2]
    numeral = {sep: sep.translate(_SEPARATORS) for sep in set(after)}
    value = {w: INF if w == "inf" else _exact(*w.split("/")) for w in set(numeral.values())}
    of = {sep: value[w] for sep, w in numeral.items()}
    return dict(zip(ids, map(of.__getitem__, after)))


class _Draft:
    """A model's statements as a front end read them, labels unresolved.

    `at` maps what an error can cite to its offset in the text: "toplevel",
    ("node", i), ("child", i, j), ("attribution", k), ("binding", k, j),
    ("order", k) and ("link", k, j). Only the token parser fills it; the
    statement matcher hands every error to the token parser.
    """

    def __init__(self):
        self.root: Optional[str] = None
        self.labels: list[str] = []  # node labels, in definition order
        self.types: list[NodeType] = []
        self.flat: list[str] = []  # every node's child labels, node after node
        # node i's children are flat[offsets[i]:offsets[i + 1]]
        self.offsets: list[int] = [0]
        self.ids: dict[str, int] = {}  # label -> index; labels are distinct
        # (name, labels, values); the matcher's values are its block split on quotes
        self.attributions: list[tuple[str, list[str], list]] = []
        self.numerals = False  # whether the values are the matcher's unconverted text
        self.orders: list[tuple[str, list[str]]] = []  # (name, labels)
        self.at: dict = {}


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


def _number(num: str, den: str, text: str, at: int, den_at: int):
    """The exact value of numeral num, or of ratio num/den if den is not
    empty. Errors cite offset at, or den_at for den, in text."""
    if den:
        if "." in num or "." in den:
            raise ModelSyntaxError("ratio parts must be integers", *_where(text, at))
        if not den.strip("0"):
            raise ModelSyntaxError("zero denominator", *_where(text, den_at))
    elif num.count(".") > 1 or num.endswith("."):
        raise ModelSyntaxError(f"bad number {num!r}", *_where(text, at))
    try:
        return _exact(num, den)
    except ValueError:  # digits are ASCII, so only their number can be refused
        limit, digits = sys.get_int_max_str_digits(), num.replace(".", "")
        if len(digits) <= limit:
            digits, at = den, den_at
        msg = f"numeral of {len(digits)} digits exceeds the interpreter's limit of {limit}"
        raise ModelSyntaxError(msg, *_where(text, at)) from None


def _exact(num: str, den: str = ""):
    """The value of numeral num, or ratio num/den, that the grammar has
    checked; int raises ValueError past its digit limit."""
    if den:
        return Fraction(int(num), int(den))
    if "." in num:
        whole, frac = num.split(".")
        return Fraction(int(whole + frac), 10 ** len(frac))  # exact decimal
    return int(num)


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
        den, den_at = "", at
        if self.peek()[:2] == ("PUNCT", "/"):
            self.next()
            _, den, den_at = self.expect("NUM")
        return _number(num, den, self.text, at, den_at)


def collector_paused(fn, *args):
    """fn(*args) with the cyclic collector paused, then left on or off as it
    was found, also when fn raises. For work that builds many objects but
    no garbage cycles: a collection during it could free nothing and would
    only rescan the growing heap; what an error path leaves behind is
    collected once the collector runs again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return fn(*args)
    finally:
        if enabled:
            gc.enable()


def parse_model(text: str) -> ModelDocument:
    """The document a model file holds. The statement matcher reads it where
    it can; the token parser reads it otherwise and raises every error.

    The cyclic collector is paused while the document is built
    (`collector_paused`): a document holds strings, numbers, tuples and
    dicts that refer to one another without cycles."""
    return collector_paused(_read_model, text)


def _read_model(text: str) -> ModelDocument:
    try:
        d = _match(text)
        if d is not None:
            return _assemble(d, text)
    except AtError:
        pass  # the token parser raises it again, with its position
    return _parse_tokens(text)


def _match(text: str) -> Optional[_Draft]:
    """The statements of text, or None if the statement matcher declines
    some of it."""
    d = _Draft()
    d.numerals = True
    runs = []
    pos = _GAP.match(text).end()
    while pos < len(text):
        m = _STATEMENT.match(text, pos)
        if m is None:
            return None
        if m["nodes"] is not None:
            runs.append(m["nodes"])
        elif m["toplevel"] is not None:
            if d.root is not None:
                return None
            d.root = m["toplevel"]
        elif m["attribution"] is not None:
            name = m["attribution"]
            if any(name == n for n, _, _ in d.attributions):
                return None
            parts = m["bindings"].split('"')  # labels hold no quote
            # a numeral past int's digit limit, which the token parser
            # refuses, lies in a stretch between labels longer than that
            limit = sys.get_int_max_str_digits()
            if limit and max(map(len, parts[::2])) > limit:
                return None
            d.attributions.append((name, parts[1::2], parts))
        else:
            name = m["order"]
            if any(name == n for n, _ in d.orders):
                return None
            d.orders.append((name, m["chain"].split('"')[1::2]))  # labels hold no quote
        pos = m.end()
    # labels hold no quote: the odd parts are the labels, and each even part
    # the separator after one, which names its kind after a node's label
    # and is blank, or ends a definition, after a child's
    parts = "".join(runs).split('"')
    labels, after = parts[1::2], parts[2::2]
    kind_of = {sep: _KINDS.get(sep.translate(_SEPARATORS)) for sep in set(after)}
    kinds = list(map(kind_of.__getitem__, after))
    d.labels = list(compress(labels, kinds))
    d.types = list(compress(kinds, kinds))
    d.flat = list(compress(labels, map(not_, kinds)))
    # a node's children are the labels up to the next node's, and the i-th
    # node's label at[i] follows i node labels
    at = list(compress(range(len(kinds)), kinds))
    d.offsets = [*map(sub, at, count()), len(d.flat)]
    d.ids = dict(zip(d.labels, range(len(at))))
    return d if len(d.ids) == len(at) else None


def _parse_tokens(text: str) -> ModelDocument:
    """The token parser: statement syntax, the names declared twice and the
    node shapes, checked in document order, then `_assemble`."""
    p = _Parser(text)
    d = _Draft()
    while p.peek()[0] != "EOF":
        kind, word, at = p.next()
        if kind == "WORD" and word == "toplevel":
            _, name, name_at = p.expect("STR")
            p.expect("PUNCT", ";")
            if d.root is not None:
                raise p.error("second toplevel declaration", name_at, DuplicateDefinition)
            d.root = name
            d.at["toplevel"] = name_at
        elif kind == "WORD" and word == "attribution":
            _, name, name_at = p.expect("STR")
            if any(name == n for n, _, _ in d.attributions):
                raise p.error(f"attribution {name!r} defined twice", name_at, DuplicateDefinition)
            p.expect("PUNCT", "{")
            k = len(d.attributions)
            d.at["attribution", k] = name_at
            labels, values = [], []
            while p.peek()[:2] != ("PUNCT", "}"):
                _, label, label_at = p.expect("STR")
                p.expect("PUNCT", "=")
                values.append(p.value())
                p.expect("PUNCT", ";")
                d.at["binding", k, len(labels)] = label_at
                labels.append(label)
            p.next()  # the closing brace
            d.attributions.append((name, labels, values))
        elif kind == "WORD" and word == "order":
            _, name, name_at = p.expect("STR")
            if any(name == n for n, _ in d.orders):
                raise p.error(f"order {name!r} defined twice", name_at, DuplicateDefinition)
            p.expect("PUNCT", "=")
            k = len(d.orders)
            d.at["order", k] = name_at
            labels = [p.expect("STR")]
            while p.peek()[:2] == ("PUNCT", "<"):
                p.next()
                labels.append(p.expect("STR"))
            p.expect("PUNCT", ";")
            for j, (_, _, label_at) in enumerate(labels):
                d.at["link", k, j] = label_at
            d.orders.append((name, [label for _, label, _ in labels]))
        elif kind == "STR":
            _, gate, gate_at = p.expect("WORD")
            if gate not in _KINDS:
                raise p.error(f"expected one of bas/or/and/sand, found {gate!r}", gate_at)
            children = []
            while p.peek()[0] == "STR":
                children.append(p.next())
            p.expect("PUNCT", ";")
            if word in d.ids:
                raise p.error(f"node {word!r} defined twice", at, DuplicateDefinition)
            node_type = _KINDS[gate]
            if node_type is NodeType.BAS and children:
                raise _locate(BasWithChildren(f"basic action {word!r} lists children"), text, at)
            if node_type is not NodeType.BAS and not children:
                raise _locate(GateWithoutChildren(f"gate {word!r} has no children"), text, at)
            i = d.ids[word] = len(d.labels)
            d.at["node", i] = at
            for j, (_, _, child_at) in enumerate(children):
                d.at["child", i, j] = child_at
            d.labels.append(word)
            d.types.append(node_type)
            d.flat += [child for _, child, _ in children]
            d.offsets.append(len(d.flat))
        else:
            raise p.error(f"unexpected token {word!r}", at)
    return _assemble(d, text)


def _assemble(d: _Draft, text: str) -> ModelDocument:
    """The document of a draft, checked by the rules both front ends share:
    the root, dangling children, the tree's structure (`freeze`), then each
    attribution and each order against the basic actions. Within a rule the
    first offence in document order is raised."""

    def where(key) -> int:
        return d.at.get(key, 0)

    def error(msg: str, key=None, cls=ModelSyntaxError) -> ModelSyntaxError:
        return cls(msg, *_where(text, where(key)))

    ids = d.ids
    if d.root is None:
        raise error("missing toplevel declaration")
    if d.root not in ids:
        raise error(f"toplevel {d.root!r} is never defined", "toplevel")
    try:
        flat = tuple(map(ids.__getitem__, d.flat))
    except KeyError:
        # the first undefined child in document order, as node i's child j
        k = next(k for k, child in enumerate(d.flat) if child not in ids)
        i = bisect_right(d.offsets, k) - 1
        msg = f"node {d.labels[i]!r} references undefined node {d.flat[k]!r}"
        raise _locate(DanglingReference(msg), text, where(("child", i, k - d.offsets[i]))) from None
    try:
        tree = freeze(d.labels, d.types, flat, d.offsets, d.root, ids[d.root])
    except CyclicStructure as e:
        raise _locate(e, text, where(("node", e.cycle[0]))) from None
    except TreeBuildError as e:
        raise _locate(e, text, where("toplevel")) from None

    # freeze leaves no node unreachable, so the BAS are the nodes of that type
    bas = dict(compress(zip(d.labels, count()), map(is_, d.types, repeat(NodeType.BAS))))

    def not_bas(block: str, name: str, label: str, key) -> ModelSyntaxError:
        return error(f"{block} {name!r} names {label!r}, which is not a basic action", key)

    attributions: dict[str, object] = {}  # name -> table, or (parts, ids)
    for k, (name, labels, values) in enumerate(d.attributions):
        # every label names a basic action, none twice, and every one is
        # named; the labels are gone through in document order only to name
        # the first offence
        seq = list(map(bas.get, labels))
        named = set(seq)
        if len(seq) != len(bas) or len(named) != len(bas) or None in named:
            seen = set()
            for j, label in enumerate(labels):
                if label not in bas:
                    raise not_bas("attribution", name, label, ("binding", k, j))
                if label in seen:
                    raise error(f"attribution {name!r} binds {label!r} twice",
                                ("binding", k, j), DuplicateDefinition)
                seen.add(label)
            missing = sorted(bas.keys() - seen)
            raise error(f"attribution {name!r} misses basic actions: {', '.join(missing)}",
                        ("attribution", k))
        attributions[name] = (values, seq) if d.numerals else dict(zip(seq, values))

    orders: dict[str, tuple[int, ...]] = {}
    for k, (name, labels) in enumerate(d.orders):
        seq = tuple(map(bas.get, labels))
        if None in seq:
            j = seq.index(None)
            raise not_bas("order", name, labels[j], ("link", k, j))
        if len(seq) != len(bas) or len(set(seq)) != len(bas):
            raise error(f"order {name!r} is not a permutation of the basic actions", ("order", k))
        orders[name] = seq

    return ModelDocument(tree, _Tables(attributions), orders)


def emit_model(doc: ModelDocument) -> str:
    t = doc.tree
    quoted = [f'"{label}"' for label in t.labels]
    lines = [f"toplevel {quoted[t.root]};"]
    bas, keyword, quote = NodeType.BAS, {k: k.value for k in NodeType}, quoted.__getitem__
    lines += [f"{q} bas;" if ty is bas else f"{q} {keyword[ty]} {' '.join(map(quote, kids))};"
              for q, ty, kids in zip(quoted, t.types, t.children)]
    for name in sorted(doc.attributions):
        lines.append("")
        lines.append(f'attribution "{name}" {{')
        table = doc.attributions[name]
        values = [table[b] for b in bas_of(t)]
        # rendered once per value object: a parsed block holds one object per
        # distinct numeral, and hashing a Fraction costs more than id()
        distinct = {id(v): v for v in values}
        text = {key: _value_text(v) for key, v in distinct.items()}
        lines += [f"  {quoted[b]} = {text[id(v)]};" for b, v in zip(bas_of(t), values)]
        lines.append("}")
    for name in sorted(doc.orders):
        lines.append("")
        chain = " < ".join([quoted[b] for b in doc.orders[name]])
        lines.append(f'order "{name}" = {chain};')
    return "\n".join(lines) + "\n"


def _value_text(v) -> str:
    rendered = render_value(v)
    if not isinstance(rendered, str):
        raise ValueError("model files hold scalar values only")
    return rendered


def emit_json(payload: dict) -> str:
    """A command's JSON output: indented, one trailing newline, and labels
    written as they are, not as \\u escapes."""
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def emit_result(res: AnalysisResult, t: AttackTree, fmt: str = "json") -> str:
    """Result record as stable JSON or terse text.

    JSON keeps field order fixed and renders every number exactly; BAS sets
    become sorted label lists. Text drops the stats block (and with it the
    only nondeterministic field, millis), so text output is byte-stable.
    """
    value = render_value(res.value)
    if fmt == "text":
        lines = []
        if res.witnesses is not None:  # only k-top ranks witnesses
            for v, attack in res.witnesses:
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
    return emit_json(payload)


def _dot_escape(label: str) -> str:
    """A model label inside a DOT string: neither the model format nor
    `build` lets a label hold a `"`, a newline or a carriage return, so
    only the backslash needs escaping."""
    return label.replace("\\", "\\\\")


def emit_dot(t: AttackTree) -> str:
    """The model as a GraphViz digraph; SAND edges are numbered since their
    child order is semantic."""
    lines = ["digraph attack_tree {", "  rankdir=TB;"]
    bas, sand, tag = NodeType.BAS, NodeType.SAND, {k: k.value.upper() for k in NodeType}
    for v, (label, ty) in enumerate(zip(t.labels, t.types)):
        label = _dot_escape(label)
        if ty is bas:
            lines.append(f'  n{v} [shape=box, label="{label}"];')
        else:
            lines.append(f'  n{v} [shape=ellipse, label="{label}\\n[{tag[ty]}]"];')
    for v, (ty, kids) in enumerate(zip(t.types, t.children)):
        for pos, c in enumerate(kids):
            if ty is sand:
                lines.append(f'  n{v} -> n{c} [label="{pos + 1}"];')
            else:
                lines.append(f"  n{v} -> n{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot_bdd(b: Bdd, t: AttackTree) -> str:
    """Decision diagram as a digraph: dashed low edges, solid high edges,
    boxed terminals. Each node is named by its position in `b.postorder`,
    so the text depends only on the diagram and its variable order, not on
    the ids the store gave its nodes; on a non-constant monotone diagram
    FALSE is `n0` and TRUE is `n1`."""
    lines = ["digraph bdd {", "  rankdir=TB;"]
    name = {v: i for i, v in enumerate(b.postorder)}
    for v, i in name.items():
        if v == FALSE:
            lines.append(f'  n{i} [shape=box, label="0"];')
        elif v == TRUE:
            lines.append(f'  n{i} [shape=box, label="1"];')
        else:
            label = _dot_escape(t.label_of(b.var_at(v)))
            lines.append(f'  n{i} [shape=circle, label="{label}"];')
    for v, i in name.items():
        if v >= 2:
            lines.append(f"  n{i} -> n{name[b.store.lows[v]]} [style=dashed];")
            lines.append(f"  n{i} -> n{name[b.store.highs[v]]} [style=solid];")
    lines.append("}")
    return "\n".join(lines) + "\n"
