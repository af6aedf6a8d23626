import gc
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import atquant.io
from atquant import (
    INF,
    AnalysisRequest,
    ModelDocument,
    analyze,
    bas_of,
    build,
    builtin,
    emit_dot,
    emit_model,
    emit_result,
    parse_model,
)
from atquant.bdd import from_structure_function, minimise
from atquant.errors import (
    AtError,
    BasWithChildren,
    CyclicStructure,
    DanglingReference,
    DuplicateDefinition,
    GateWithoutChildren,
    ModelSyntaxError,
    MultipleRoots,
    NoRoot,
)
from atquant.io import _match, _parse_tokens, emit_dot_bdd, render_value
from atquant.tree import NodeType

from helpers import rand_dag, rand_tree

MODELS = Path(__file__).parent.parent / "models"
CORPUS = sorted(MODELS.glob("*.at"))


def parse_file(name: str):
    return parse_model((MODELS / name).read_text())


def test_corpus_exists_and_parses():
    assert {p.name for p in CORPUS} >= {
        "treasure.at",
        "overlap.at",
        "exploit.at",
        "chains.at",
        "illformed_repeat.at",
        "illformed_cross.at",
    }
    for path in CORPUS:
        parse_model(path.read_text())


def test_parse_ts_document():
    doc = parse_file("treasure.at")
    t = doc.tree
    assert t.label_of(t.root) == "root"
    assert [t.label_of(b) for b in bas_of(t)] == ["n", "t", "p"]
    assert t.types[t.id_of("crypto")] is NodeType.AND

    time = doc.attributions["time"]
    assert time[t.id_of("n")] == 1 and time[t.id_of("p")] == 0
    prob = doc.attributions["prob"]
    assert prob[t.id_of("t")] == Fraction(19, 20)
    # decimals land as exact rationals
    like = doc.attributions["likelihood"]
    assert like[t.id_of("n")] == Fraction(7, 100)
    assert doc.orders["left"] == tuple(bas_of(t))


def test_parse_value_forms():
    doc = parse_model(
        'toplevel "r";\n"r" or "a" "b";\n"a" bas;\n"b" bas;\n'
        'attribution "x" { "a" = inf; "b" = 12; }\n'
        'attribution "y" { "a" = 2/3; "b" = 0.125; }\n'
    )
    t = doc.tree
    assert doc.attributions["x"][t.id_of("a")] is INF
    assert doc.attributions["x"][t.id_of("b")] == 12
    assert doc.attributions["y"][t.id_of("a")] == Fraction(2, 3)
    assert doc.attributions["y"][t.id_of("b")] == Fraction(1, 8)


def test_comments_and_whitespace_are_ignored():
    doc = parse_model('// lead\ntoplevel "a"; // trail\n\n  "a" bas;\n')
    assert len(doc.tree) == 1


SYNTAX_ERRORS = [
    ('toplevel "r";\n"r" bas\n', ModelSyntaxError, 3, 1),  # missing semicolon hits EOF
    ('toplevel "r";\n"r" xor "a";\n"a" bas;\n', ModelSyntaxError, 2, 5),
    ('toplevel "r";\n"r" bas;\n"r" bas;\n', DuplicateDefinition, 3, 1),
    ('toplevel "r";\ntoplevel "r";\n"r" bas;\n', DuplicateDefinition, 2, 10),
    ('"r" bas;\n', ModelSyntaxError, 1, 1),  # no toplevel
    ('toplevel "ghost";\n"r" bas;\n', ModelSyntaxError, 1, 10),
    ('toplevel "r";\n"r" or "a";\n"a" bas;\nattribution "c" { "a" = 1; }\n'
     'attribution "c" { "a" = 2; }\n', DuplicateDefinition, 5, 13),
    ('toplevel "r";\n"r" bas;\nattribution "c" { "zz" = 1; }\n', ModelSyntaxError, 3, 19),
    ('toplevel "r";\n"r" bas;\nattribution "c" { "r" = 1; "r" = 2; }\n',
     DuplicateDefinition, 3, 28),
    ('toplevel "r";\n"r" or "a" "b";\n"a" bas;\n"b" bas;\n'
     'attribution "c" { "a" = 1; }\n', ModelSyntaxError, 5, 13),  # not total
    ('toplevel "r";\n"r" bas;\nattribution "c" { "r" = 1/0; }\n', ModelSyntaxError, 3, 27),
    ('toplevel "r";\n"r" bas;\nattribution "c" { "r" = 1.2.3; }\n', ModelSyntaxError, 3, 25),
    ('toplevel "r";\n"r" bas;\nattribution "c" { "r" = oops; }\n', ModelSyntaxError, 3, 25),
    ('toplevel "r";\n"r" or "a" "b";\n"a" bas;\n"b" bas;\n'
     'order "o" = "a" < "a";\n', ModelSyntaxError, 5, 7),  # not a permutation
    ('toplevel "r";\n"r" bas;\norder "o" = "zz";\n', ModelSyntaxError, 3, 13),
    ('toplevel "r";\n"r" bas;\n"x" bas\n"y" bas;\n', ModelSyntaxError, 4, 5),
    ('toplevel "r";\n"r bas;\n', ModelSyntaxError, 2, 1),  # unterminated string
    ('toplevel "r";\n"r" bas; $\n', ModelSyntaxError, 2, 10),
    ('toplevel "r";\n"r" bas;\nattribution "c" { "r" = ²; }\n', ModelSyntaxError, 3, 25),
    ('toplevel "r";\n\t"r"\tbas\t$;\n', ModelSyntaxError, 2, 10),  # a tab is one column
    ('toplevel "r";\r\n"r" bas;\r\n"r" bas;\r\n', DuplicateDefinition, 3, 1),
    ('toplevel "r";\r\n"r" xor;\r\n', ModelSyntaxError, 2, 5),
    ('toplevel "r";\n"r" bas // x', ModelSyntaxError, 2, 13),  # EOF after a comment
    # numerals longer than the interpreter's int conversion limit (4,300 digits)
    ('toplevel "r";\n"r" bas;\nattribution "c" { "r" = ' + "9" * 5000 + '; }\n',
     ModelSyntaxError, 3, 25),
    ('toplevel "r";\n"r" bas;\nattribution "c" { "r" = 0.' + "3" * 5000 + '; }\n',
     ModelSyntaxError, 3, 25),
    ('toplevel "r";\n"r" bas;\nattribution "c" { "r" = 1/' + "7" * 5000 + '; }\n',
     ModelSyntaxError, 3, 27),
]


def _case_id(case) -> str:
    """Text, error class and line: a case's name does not depend on its column.
    Long texts are cut to their head and length."""
    text, exc, line, _ = case
    if len(text) > 200:
        text = f"{text[:60]}...({len(text)} chars)"
    return f"{text}-{exc.__name__}-{line}"


@pytest.mark.parametrize("text,exc,line,col", SYNTAX_ERRORS, ids=map(_case_id, SYNTAX_ERRORS))
def test_syntax_errors_carry_locations(text, exc, line, col):
    with pytest.raises(exc) as ei:
        parse_model(text)
    assert (ei.value.line, ei.value.col) == (line, col), str(ei.value)


def test_build_errors_surface_with_locations():
    with pytest.raises(DanglingReference) as ei:
        parse_model('toplevel "g";\n"g" or "a" "zzz";\n"a" bas;\n')
    assert "line 2" in str(ei.value) and ei.value.col == 12

    with pytest.raises(CyclicStructure) as ei:
        parse_model('toplevel "g";\n"g" or "a";\n"a" or "g";\n')
    assert "line 2" in str(ei.value)
    assert ei.value.cycle
    with pytest.raises(CyclicStructure) as ei:
        parse_model('toplevel "g";\n"g" sand "a" "g";\n"a" bas;\n')
    assert (ei.value.line, ei.value.col, ei.value.cycle) == (2, 1, [0, 0])

    with pytest.raises(BasWithChildren):
        parse_model('toplevel "g";\n"g" bas "a";\n"a" bas;\n')
    with pytest.raises(GateWithoutChildren):
        parse_model('toplevel "g";\n"g" or;\n')
    with pytest.raises(MultipleRoots) as ei:
        parse_model('toplevel "g";\n"g" or "a";\n"a" bas;\n"h" or "a";\n')
    assert "line 1" in str(ei.value)
    with pytest.raises(NoRoot) as ei:
        parse_model('toplevel "a";\n"g" or "a";\n"a" bas;\n')
    assert (ei.value.line, ei.value.col) == (1, 10)
    assert str(ei.value) == (
        "declared root 'a' is not the unique parentless node at line 1, col 10"
    )


# The first undefined child in document order is the one cited, however
# many there are and wherever its node definition stands.
DANGLING = [
    # two gates each naming an undefined child
    ('toplevel "r";\n"r" or "g" "x";\n"g" and "a" "y";\n"a" bas;\n', "r", "x", 2, 12),
    # one gate naming the same undefined child twice
    ('toplevel "r";\n"r" or "a" "z" "z";\n"a" bas;\n', "r", "z", 2, 12),
    # a node run after an attribution block
    ('toplevel "r";\n"a" bas;\n"g" or "a" "b";\nattribution "c" { "a" = 1; "b" = 2; }\n'
     '"r" and "g" "b" "q";\n"b" bas;\n"s" or "w";\n', "r", "q", 5, 17),
]


@pytest.mark.parametrize("parse", [parse_model, _parse_tokens])
@pytest.mark.parametrize("text,node,child,line,col", DANGLING)
def test_the_first_dangling_child_is_cited(parse, text, node, child, line, col):
    with pytest.raises(DanglingReference) as ei:
        parse(text)
    assert (ei.value.line, ei.value.col) == (line, col)
    assert str(ei.value) == (
        f"node {node!r} references undefined node {child!r} at line {line}, col {col}"
    )


def test_no_label_holds_a_carriage_return():
    # a file read with universal newlines would turn it into a newline; the
    # CRLF line ends outside quotes still separate tokens
    text = 'toplevel "r";\r\n"r" or "a\rb";\r\n"a\rb" bas;\r\n'
    assert _match(text) is None
    with pytest.raises(ModelSyntaxError, match="unterminated string") as ei:
        parse_model(text)
    assert (ei.value.line, ei.value.col) == (2, 8)


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_model_leaves_the_collector_as_found(enabled):
    parsed = 'toplevel "r";\n"r" or "a";\n"a" bas;\n'
    declined = parsed + 'attribution "c" { "a" = 1; // 2;\n}\n'
    rejected = parsed + '"b" bas\n'
    assert _match(parsed) is not None and _match(declined) is None
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        parse_model(parsed)
        assert gc.isenabled() is enabled
        parse_model(declined)
        assert gc.isenabled() is enabled
        with pytest.raises(ModelSyntaxError):
            parse_model(rejected)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_a_large_model_reads_back_without_a_collection():
    # a balanced static tree of 2^17 - 1 nodes, node i over nodes 2i+1, 2i+2
    n = 2**17 - 1
    defs = [(f"n{i}", NodeType.BAS, []) if 2 * i + 1 >= n else
            (f"n{i}", NodeType.AND if i % 2 else NodeType.OR, [f"n{2 * i + 1}", f"n{2 * i + 2}"])
            for i in range(n)]
    t = build(defs, "n0")
    cost = {b: b % 7 for b in bas_of(t)}
    text = emit_model(ModelDocument(t, {"cost": cost}))
    collections = []

    def note(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(note)
    try:
        doc = parse_model(text)
    finally:
        gc.callbacks.remove(note)
        (gc.enable if was else gc.disable)()
    assert collections == []
    assert doc.tree == t and doc.attributions == {"cost": cost}


def test_roundtrip_is_structural_and_byte_stable():
    for path in CORPUS:
        doc = parse_model(path.read_text())
        text = emit_model(doc)
        again = parse_model(text)
        assert again.tree == doc.tree
        assert again.attributions == doc.attributions
        assert again.orders == doc.orders
        assert emit_model(again) == text


def test_model_files_hold_no_pareto_fronts():
    doc = parse_model((MODELS / "treasure.at").read_text())
    fronts = {b: frozenset({(v, 1)}) for b, v in doc.attributions["time"].items()}
    with pytest.raises(ValueError, match="^model files hold scalar values only$"):
        emit_model(ModelDocument(doc.tree, {"time": fronts}))


def test_random_models_round_trip_through_the_text_format():
    rng = random.Random(5)
    models = [rand_tree(rng, 10, dynamic=True) for _ in range(40)]
    models += [rand_dag(rng, 10, dynamic=True) for _ in range(40)]
    for t in models:
        again = parse_model(emit_model(ModelDocument(t))).tree
        assert again == t
        assert all(again.id_of(label) == v for v, label in enumerate(t.labels))


def outcome(parse, text: str):
    """What parse makes of text: the document with the order and type of every
    value, or the error's class, message, position and cycle witness."""
    try:
        doc = parse(text)
    except AtError as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "col", None), \
            getattr(e, "cycle", None)
    tables = [(name, list(table.items()), [type(v) for v in table.values()])
              for name, table in doc.attributions.items()]
    return doc.tree, tables, list(doc.orders.items())


def emitted_models(rng: random.Random, count: int) -> list[str]:
    """`emit_model` texts of random trees and DAGs with two attributions and
    an order."""
    texts = []
    for i in range(count):
        t = (rand_tree if i % 2 else rand_dag)(rng, 8, dynamic=i % 3 == 0)
        bas = list(bas_of(t))
        attributions = {
            name: {b: builtin(domain).random_value(rng) for b in bas}
            for name, domain in (("cost", "min-cost"), ("prob", "prob-max"))
        }
        orders = {"o": tuple(rng.sample(bas, len(bas)))}
        texts.append(emit_model(ModelDocument(t, attributions, orders)))
    return texts


def test_blocks_convert_when_read_to_the_token_parser_tables():
    for text in emitted_models(random.Random(38), 40):
        assert _match(text) is not None
        eager = _parse_tokens(text)
        for name in ("cost", "prob"):
            want = eager.attributions[name]
            got = parse_model(text).attributions[name]
            assert list(got.items()) == list(want.items())
            assert list(map(type, got.values())) == list(map(type, want.values()))
        # a document with unconverted blocks equals its converted twin
        pending, half_read = parse_model(text), parse_model(text)
        half_read.attributions["cost"]
        assert pending == eager and eager == half_read and repr(pending) == repr(eager)


def test_only_a_table_read_converts_its_block(monkeypatch):
    [text] = emitted_models(random.Random(45), 1)
    converted, convert = [], atquant.io._convert

    def counted(parts, ids):
        converted.append(parts)
        return convert(parts, ids)

    monkeypatch.setattr(atquant.io, "_convert", counted)
    doc = parse_model(text)
    assert "cost" in doc.attributions and "time" not in doc.attributions
    assert list(doc.attributions) == ["cost", "prob"] and len(doc.attributions) == 2
    assert converted == []
    assert doc.attributions["cost"] is doc.attributions["cost"]
    assert len(converted) == 1
    with pytest.raises(KeyError):
        doc.attributions["time"]
    with pytest.raises(TypeError):
        doc.attributions["time"] = {}
    assert doc == _parse_tokens(text)
    assert len(converted) == 2
    # items() and repr read every table too
    for read in (lambda d: list(d.attributions.items()), repr):
        converted.clear()
        read(parse_model(text))
        assert len(converted) == 2


def _outside_labels(text: str, edit) -> str:
    """text with edit applied to every stretch between quoted labels."""
    parts = re.split(r'("[^"\n]*")', text)
    parts[::2] = [edit(part) for part in parts[::2]]
    return "".join(parts)


# Layouts of an emitted model (which has no comments) that the statement
# matcher reads itself.
MATCHED_LAYOUTS = {
    "canonical": lambda text: text,
    "no spaces": lambda text: _outside_labels(text, lambda s: re.sub(r"[ \n]+", "", s)),
    "tabs": lambda text: _outside_labels(text, lambda s: re.sub(r"[ \n]+", "\t", s)),
    "CRLF": lambda text: text.replace("\n", "\r\n"),
    # a comment line before every statement, quotes and all
    "comments between statements": lambda text: re.sub(
        r'^(?=["ao])', '// "x" bas; "y" = 1; }\n', text, flags=re.M),
}


def _comment_inside(text: str) -> str:
    """A comment inside the first gate and the first binding, naming a label
    of the model: read as a child, it would change the tree."""
    text = re.sub(r'^("[^"]*" (?:or|and|sand) ("[^"]*"))', r'\1 // \2\n', text, count=1,
                  flags=re.M)
    return re.sub(r"^(  \S+ =)", "\\1 // 1;\n", text, count=1, flags=re.M)


# Beside SYNTAX_ERRORS: texts that break one rule the statement matcher
# enforces itself, and values on the edge of what it converts.
_R = 'toplevel "r";\n"r" or "a";\n"a" bas;\n'
MATCHER_EDGES = [
    'toplevel "g";\n"g" bas "a";\n"a" bas;\n',  # a basic action with children
    'toplevel "g";\n"g" or;\n',  # a gate without
    _R + '"a" bas;\n',
    _R + 'toplevel "a";\n',
    _R + 'order "o" = "a";\norder "o" = "a";\n',
    _R + 'attribution "c" { "a" = 1; }\nattribution "c" { "a" = 1; }\n',
    # whitespace to Python but not to the token grammar
    _R.replace(" bas", "\fbas"), _R.replace(" bas", "\vbas"), _R.replace(" bas", "\x1cbas"),
    _R.replace(" bas", "\u00a0bas"), _R.replace(" or", "\u2003or"),
    # a keyword, inf or numeral running into a word
    _R.replace("bas", "basé"), _R.replace("bas", "bas_"), _R.replace("or ", "or-x "),
    _R.replace("toplevel", "toplevelé"), _R + 'order_ "o" = "a";\n',
    *(_R + f'attribution "c" {{ "a" = {v}; }}\n' for v in (
        "infé", "inf2", "inf_", "inf/2", "2é", "2_", "1/2x", "1.5é", "1 / 2", "1.5/2", "1.",
        "1..2", "0/0", "007", "1/007", "\t3\r\n/\n4 ",
    )),
    _R + 'attribution "c" { "a" = 1; // 2;\n}\n',  # a comment inside a statement
    _R + 'order "o" = "a" // < "r"\n;\n',
]


def test_statement_matcher_agrees_with_the_token_parser():
    """The token parser is the reference: parse_model must give its document,
    or its error with the same message, line, column and cycle, on every text."""
    rng = random.Random(10)
    emitted = emitted_models(rng, 60)
    for text in emitted:
        for name, layout in MATCHED_LAYOUTS.items():
            laid_out = layout(text)
            assert _match(laid_out) is not None, name
            assert outcome(parse_model, laid_out) == outcome(_parse_tokens, laid_out), name
        inside = _comment_inside(text)
        assert _match(inside) is None
        assert outcome(parse_model, inside) == outcome(_parse_tokens, inside)
    sources = [path.read_text() for path in CORPUS] + emitted[:20]
    for text in sources[: len(CORPUS)] + [case[0] for case in SYNTAX_ERRORS] + MATCHER_EDGES:
        assert outcome(parse_model, text) == outcome(_parse_tokens, text)

    # one to three characters inserted, deleted or replaced, from an alphabet
    # of the grammar's characters and some it refuses
    alphabet = ' \t\r\n"/;{}=<>.0123456789abdefilnoprst_-é²$'
    for _ in range(3000):
        chars = list(rng.choice(sources))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(chars) + 1)
            op = rng.randrange(3)
            if op == 0 and i < len(chars):
                del chars[i]
            elif op == 1 or i == len(chars):
                chars.insert(i, rng.choice(alphabet))
            else:
                chars[i] = rng.choice(alphabet)
        text = "".join(chars)
        assert outcome(parse_model, text) == outcome(_parse_tokens, text), repr(text)


# Labels made of the grammar's characters: a split that read inside a label
# would take its text for a kind, a value or a separator.
GRAMMAR_LABELS = [";", "=", " bas;", "or", "{", "}", "<", "//x", "1/0", "", " ", "a b",
                  "\tx\t", " and ;", "bas", "sand", "inf", "= 1;", "toplevel", "order",
                  "attribution", "/", "< >", "1.5", "{ }", " or\t", "\\", "é"]


def _relabelled(t, names: list[str]):
    """t with node v named names[v]."""
    defs = [(names[v], ty, [names[c] for c in kids])
            for v, (ty, kids) in enumerate(zip(t.types, t.children))]
    return build(defs, names[t.root])


def test_labels_made_of_grammar_characters_read_back():
    rng = random.Random(19)
    pool = GRAMMAR_LABELS + [a + b for a in GRAMMAR_LABELS[:12] for b in GRAMMAR_LABELS[:12]]
    pool = list(dict.fromkeys(pool))
    hand = (
        'toplevel "or";\n"or" or ";" "=" " bas;";\n";" and "{" "}";\n"=" bas;\n'
        '" bas;" sand "<" "//x" "1/0" "";\n"{" bas; "}" bas; "<" bas; "//x" bas;\n'
        '"1/0"\tbas ;\n"" bas;\n'
        'attribution "=" { "=" = 1; "{" = 2/3; "}" = inf; "<" = 0.5; "//x" = 7;\n'
        '  "1/0" = 1/1; "" = 0; }\n'
        'order "<" = "" < "1/0" < "//x" < "<" < "}" < "{" < "=";\n'
    )
    texts = [hand]
    for i in range(40):
        t = (rand_tree if i % 2 else rand_dag)(rng, 9, dynamic=i % 3 == 0)
        t = _relabelled(t, rng.sample(pool, len(t)))
        bas = list(bas_of(t))
        cost = {b: builtin("min-cost").random_value(rng) for b in bas}
        doc = ModelDocument(t, {"cost": cost}, {"o": tuple(rng.sample(bas, len(bas)))})
        text = emit_model(doc)
        again = parse_model(text)
        assert (again.tree, again.attributions, again.orders) == (t, doc.attributions, doc.orders)
        texts += [layout(text) for layout in MATCHED_LAYOUTS.values()]
    for text in texts:
        assert _match(text) is not None, repr(text)
        assert outcome(parse_model, text) == outcome(_parse_tokens, text), repr(text)
    doc = parse_model(hand)
    assert [doc.tree.label_of(c) for c in doc.tree.children[doc.tree.root]] == [";", "=", " bas;"]
    again = parse_model(emit_model(doc))
    assert (again.tree, again.attributions, again.orders) == (doc.tree, doc.attributions, doc.orders)


_VALUED = _R + 'attribution "c" {{ "a" = {}; }}\n'


@pytest.mark.parametrize("value", [
    "1.", "1..2", "1.5/2", "2/0.5", "0/0", "1/00", ".5",
    # past the interpreter's limit of 4,300 digits
    pytest.param("9" * 5000, id="long integer"),
    pytest.param("0." + "3" * 5000, id="long decimal"),
    pytest.param("1/" + "7" * 5000, id="long denominator"),
])
def test_the_matcher_declines_numerals_the_token_parser_refuses(value):
    text = _VALUED.format(value)
    assert _match(text) is None
    assert outcome(parse_model, text) == outcome(_parse_tokens, text)


@pytest.mark.parametrize("value,expected", [
    ("007", 7), ("1/007", Fraction(1, 7)), ("40/4", Fraction(10)), ("1.50", Fraction(3, 2)),
    ("0/5", Fraction(0)), ("inf", INF), ("\t3\r\n/\n4 ", Fraction(3, 4)),
])
def test_the_matcher_reads_numerals_as_the_token_parser_does(value, expected):
    text = _VALUED.format(value)
    assert _match(text) is not None
    [matched] = parse_model(text).attributions["c"].values()
    [parsed] = _parse_tokens(text).attributions["c"].values()
    assert (matched, type(matched)) == (parsed, type(parsed)) == (expected, type(expected))


def test_render_value_forms():
    assert render_value(INF) == "inf"
    assert render_value(7) == "7"
    assert render_value(Fraction(19, 20)) == "19/20"
    assert render_value(Fraction(6, 2)) == "3"
    assert render_value(frozenset({(1, Fraction(1, 2)), (0, 3)})) == [
        ["0", "3"],
        ["1", "1/2"],
    ]
    # exact past the interpreter's int-to-str limit of 4,300 digits
    assert render_value(10**5000) == "1" + "0" * 5000
    assert render_value(Fraction(1, 10**5000)) == "1/1" + "0" * 5000
    with pytest.raises(ValueError):
        render_value(object())


def test_emit_result_json_golden():
    doc = parse_file("overlap.at")
    res = analyze(
        AnalysisRequest(doc.tree, doc.attributions["cost"], builtin("min-cost"))
    )
    out = emit_result(res, doc.tree)
    assert '"metric": "min-cost"' in out
    assert '"value": "1"' in out
    assert '"algorithm": "bdd"' in out
    assert '"bdd_nodes": 4' in out
    assert out.index('"metric"') < out.index('"value"') < out.index('"algorithm"')


def test_emit_result_ktop_and_text():
    doc = parse_file("overlap.at")
    res = analyze(
        AnalysisRequest(doc.tree, doc.attributions["cost"], builtin("min-cost"), k=2)
    )
    text = emit_result(res, doc.tree, "text")
    assert text == "1 {b}\n7 {a,c}\n"
    js = emit_result(res, doc.tree, "json")
    assert '"witnesses"' in js and '"attack"' in js

    scalar = analyze(
        AnalysisRequest(doc.tree, doc.attributions["cost"], builtin("min-cost"))
    )
    assert emit_result(scalar, doc.tree, "text") == (
        "metric: min-cost\nvalue: 1\nalgorithm: bdd\n"
    )
    with pytest.raises(ValueError):
        emit_result(scalar, doc.tree, "yaml")


def test_emit_dot_tree():
    doc = parse_file("exploit.at")
    dot = emit_dot(doc.tree)
    assert dot.startswith("digraph attack_tree {")
    assert '[shape=box, label="w"]' in dot
    assert "[OR]" in dot and "[SAND]" in dot
    # SAND child order is semantic, so those edges are numbered
    assert '[label="1"]' in dot and '[label="2"]' in dot
    assert dot == emit_dot(doc.tree)


def test_emit_dot_bdd_styles():
    doc = parse_file("treasure.at")
    b = minimise(from_structure_function(doc.tree))
    dot = emit_dot_bdd(b, doc.tree)
    assert dot.count("style=dashed") == 3
    assert dot.count("style=solid") == 3
    assert 'n0 [shape=box, label="0"]' in dot
    assert 'n1 [shape=box, label="1"]' in dot


def test_reading_analysing_and_emitting_build_no_per_node_view():
    # a tree is its columns alone: reading a tree or a DAG, the two metrics
    # and every emitter leave no per-node object view on it
    rng = random.Random(61)
    for t in (rand_tree(rng, 12), rand_dag(rng, 9)):
        costs = {b: rng.choice((rng.randint(0, 9), Fraction(rng.randint(1, 9), 4), INF))
                 for b in bas_of(t)}
        probs = {b: Fraction(rng.randint(0, 10), 10) for b in bas_of(t)}
        doc = parse_model(emit_model(ModelDocument(t, {"cost": costs, "prob": probs})))
        for domain, name in (("min-cost", "cost"), ("prob-max", "prob")):
            res = analyze(AnalysisRequest(doc.tree, doc.attributions[name], builtin(domain)))
            emit_result(res, doc.tree)
            emit_result(res, doc.tree, "text")
        emit_model(doc)
        emit_dot(doc.tree)
        assert not hasattr(doc.tree, "nodes")
        assert doc.tree == t
