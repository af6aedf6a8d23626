import json
import re
from decimal import Decimal
from pathlib import Path

import pytest

from atquant.cli import main
from atquant.domains import BUILTIN_NAMES
from atquant.io import parse_model

MODELS = "models"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def normalize(js: str) -> str:
    """Blank out the wall-clock field, the only nondeterministic output."""
    return re.sub(r'"millis": \d+', '"millis": 0', js)


def test_check_exit_codes_and_text(capsys):
    # well-formedness is a SAND-ordering property; static models don't get the tag
    code, out, _ = run(capsys, "check", f"{MODELS}/treasure.at")
    assert code == 0 and out == "tree, static\n"

    code, out, _ = run(capsys, "check", f"{MODELS}/exploit.at")
    assert code == 0 and out == "DAG, dynamic, well-formed\n"

    code, out, _ = run(capsys, "check", f"{MODELS}/illformed_repeat.at")
    assert code == 2
    assert "ill-formed" in out
    assert "cycle: a -> b -> a" in out

    code, out, _ = run(capsys, "check", f"{MODELS}/illformed_cross.at")
    assert code == 2 and "cycle: b -> b" in out


def test_check_searches_for_ordering_cycles_on_dynamic_dags_only(tmp_path, capsys, monkeypatch):
    # a proper dynamic tree cannot cycle, so check answers without the search
    from atquant import semantics

    searched = []
    search = semantics.find_cycle
    monkeypatch.setattr(semantics, "find_cycle",
                        lambda start, succ: searched.append(start) or search(start, succ))
    tree = tmp_path / "tree.at"
    tree.write_text('toplevel "r";\n"r" sand "a" "b";\n"a" bas;\n"b" bas;\n')
    code, out, _ = run(capsys, "check", str(tree))
    assert code == 0 and out == "tree, dynamic, well-formed\n"
    code, out, _ = run(capsys, "check", str(tree), "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["well_formed"] is True and doc["cycle"] is None
    assert not searched
    code, out, _ = run(capsys, "check", f"{MODELS}/exploit.at")
    assert code == 0 and out == "DAG, dynamic, well-formed\n" and len(searched) == 1


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", f"{MODELS}/illformed_cross.at", "--format", "json")
    assert code == 2
    doc = json.loads(out)
    assert doc == {
        "valid": True,
        "shape": "dag",
        "dynamics": "dynamic",
        "well_formed": False,
        "cycle": ["b", "b"],
    }


def test_check_rejects_broken_model(tmp_path, capsys):
    bad = tmp_path / "bad.at"
    bad.write_text('toplevel "r";\n"r" or "ghost";\n')
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1 and "ghost" in err

    code, out, _ = run(capsys, "check", str(bad), "--format", "json")
    assert code == 1
    assert json.loads(out)["valid"] is False


_TWO_BLOCKS = ('toplevel "r";\n"r" and "a" "b";\n"a" bas;\n"b" bas;\n\n'
               'attribution "cost" {\n  "a" = 1;\n  "b" = 2;\n}\n\nattribution "prob" {\n')


@pytest.mark.parametrize("bindings,message", [
    ('  "a" = 1/2;\n  "r" = 1/3;\n}\n',
     "attribution 'prob' names 'r', which is not a basic action at line 13, col 3"),
    ('  "b" = 1/3;\n}\n', "attribution 'prob' misses basic actions: a at line 11, col 13"),
])
def test_a_bad_block_fails_requests_that_do_not_read_it(tmp_path, capsys, bindings, message):
    # bindings are checked when the file is read, not when a request reads
    # their block
    path = tmp_path / "model.at"
    path.write_text(_TWO_BLOCKS + bindings)
    assert run(capsys, "check", str(path)) == (1, "", f"invalid: {message}\n")
    assert run(capsys, "metric", str(path), "--domain", "min-cost", "--attribution", "cost") \
        == (1, "", f"error: {message}\n")


def test_non_utf8_model_is_reported_with_its_byte_offset(tmp_path, capsys):
    latin = tmp_path / "latin.at"
    latin.write_bytes('toplevel "r";\n"r" bas; // café\n'.encode("latin-1"))
    where = f"{latin}: not UTF-8 text (byte 29"
    code, out, err = run(capsys, "check", str(latin))
    assert code == 1 and out == "" and err.startswith(f"invalid: {where}")
    code, out, err = run(capsys, "metric", str(latin), "--domain", "min-cost",
                         "--attribution", "c")
    assert code == 1 and out == "" and err.startswith(f"error: {where}")


def test_a_utf8_byte_order_mark_starts_a_model_file(tmp_path, capsys):
    plain = f"{MODELS}/treasure.at"
    marked = tmp_path / "treasure.at"
    marked.write_bytes("\ufeff".encode() + Path(plain).read_bytes())
    for argv in (["check"], ["metric", "--domain", "min-cost", "--attribution", "time"],
                 ["dump", "--what", "model"]):
        code, out, err = run(capsys, argv[0], plain, *argv[1:])
        assert code == 0 and out and not err
        assert run(capsys, argv[0], str(marked), *argv[1:]) == (code, out, err)
    # only the first character may be the mark
    marked.write_text('\ufefftoplevel "r";\n"r" or "a" \ufeff"b";\n"a" bas;\n"b" bas;\n',
                      encoding="utf-8")
    code, out, err = run(capsys, "check", str(marked))
    assert (code, out, err) == (1, "", "invalid: unexpected character '\\ufeff' at line 2, col 12\n")


def test_semantics_text_golden(capsys):
    code, out, _ = run(capsys, "semantics", f"{MODELS}/treasure.at")
    assert code == 0 and out == "{n}\n{t, p}\n"

    # ties on size break by leftmost BAS position, so {ff, w} leads
    code, out, _ = run(capsys, "semantics", f"{MODELS}/exploit.at")
    assert code == 0
    assert out == "{ff, w} : -\n{w, cc} : w < cc\n"


def test_semantics_json(capsys):
    code, out, _ = run(capsys, "semantics", f"{MODELS}/exploit.at", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "DAG, dynamic"
    assert {"bas": ["w", "cc"], "order": [["w", "cc"]]} in doc["attacks"]
    assert {"bas": ["ff", "w"], "order": []} in doc["attacks"]

    code, out, _ = run(capsys, "semantics", f"{MODELS}/treasure.at", "--format", "json")
    assert code == 0
    assert out == (
        '{\n  "kind": "tree, static",\n  "attacks": [\n'
        '    {\n      "bas": [\n        "n"\n      ]\n    },\n'
        '    {\n      "bas": [\n        "t",\n        "p"\n      ]\n    }\n  ]\n}\n'
    )


def test_metric_text_and_json(capsys):
    code, out, _ = run(
        capsys, "metric", f"{MODELS}/overlap.at", "--domain", "min-cost",
        "--attribution", "cost",
    )
    assert code == 0
    assert out == "metric: min-cost\nvalue: 1\nalgorithm: bdd\n"

    code, out, _ = run(
        capsys, "metric", f"{MODELS}/overlap.at", "--domain", "min-cost",
        "--attribution", "cost", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "1" and doc["algorithm"] == "bdd"
    # the compiled diagram the min-additive fold walks, (a or b) and (b or c)
    assert doc["stats"]["bdd_nodes"] == 4


def test_numbers_past_the_int_digit_limit(tmp_path, capsys):
    # Python refuses int <-> str conversions of more than 4,300 digits by default.
    n = 10_000
    model = tmp_path / "wide.at"
    model.write_text(
        'toplevel "r";\n"r" and ' + " ".join(f'"b{i}"' for i in range(n)) + ";\n"
        + "".join(f'"b{i}" bas;\n' for i in range(n))
        + 'attribution "p" {\n' + "".join(f'  "b{i}" = 1/3;\n' for i in range(n)) + "}\n"
    )
    code, out, _ = run(capsys, "metric", str(model), "--domain", "prob-max",
                       "--attribution", "p")
    assert code == 0
    assert out.startswith("metric: prob-max\nvalue: 1/")
    den = out.split("\n")[1].removeprefix("value: 1/")
    assert Decimal(den) == 3**n
    code, out, _ = run(capsys, "metric", str(model), "--domain", "prob-max",
                       "--attribution", "p", "--format", "json")
    assert code == 0 and json.loads(out)["value"] == f"1/{den}"

    model.write_text('toplevel "r";\n"r" bas;\nattribution "p" { "r" = 1' + "0" * 5000 + "; }\n")
    for argv in (["check", str(model)],
                 ["metric", str(model), "--domain", "min-cost", "--attribution", "p"]):
        code, _, err = run(capsys, *argv)
        assert code == 1 and "numeral of 5001 digits" in err


def test_huge_costs_beside_inf_print_exactly(tmp_path, capsys):
    big = 10**399 + 7  # past the float range, which ends near 1.8e308
    model = tmp_path / "huge.at"
    model.write_text(
        'toplevel "r";\n"r" or "g" "h";\n"g" and "a" "b";\n"h" and "c" "d";\n'
        '"a" bas;\n"b" bas;\n"c" bas;\n"d" bas;\n'
        f'attribution "cost" {{ "a" = {big}; "b" = 1; "c" = {big}; "d" = inf; }}\n'
    )
    for algorithm in ("bu", "bdd"):
        code, out, _ = run(capsys, "metric", str(model), "--domain", "min-cost",
                           "--attribution", "cost", "--algorithm", algorithm)
        assert code == 0
        assert out == f"metric: min-cost\nvalue: {big + 1}\nalgorithm: {algorithm}\n"


def test_metric_dynamic_goldens(capsys):
    for domain, attribution, want in [
        ("min-time-par", "time", "15"),
        ("min-skill", "skill", "10"),
    ]:
        code, out, _ = run(
            capsys, "metric", f"{MODELS}/exploit.at", "--domain", domain,
            "--attribution", attribution,
        )
        assert code == 0
        assert f"value: {want}" in out
        # shared dynamic subtrees have no efficient algorithm
        assert "algorithm: oracle" in out
        assert "warning: " in out


def test_metric_pareto_vector_attribution(capsys):
    code, out, _ = run(
        capsys, "metric", f"{MODELS}/overlap.at",
        "--domain", "pareto(min-cost,prob-max)",
        "--attribution", "cost,prob", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    # {b} costs 1 at probability 1/20; {a,c} costs 7 at 3/50; neither dominates
    assert doc["value"] == [["1", "1/20"], ["7", "3/50"]]

    for domain, names, err in (
        ("pareto(min-cost,prob-max)", "cost",
         "error: pareto(min-cost,prob-max) needs 2 comma-joined attribution names, got 1\n"),
        ("pareto(min-cost,prob-max)", "cost, prob,cost",
         "error: pareto(min-cost,prob-max) needs 2 comma-joined attribution names, got 3\n"),
        ("pareto(min-cost,prob-max)", "cost,nope", "error: model declares no attribution 'nope'\n"),
        ("pareto(cost-to-defend)", "cost",
         "error: pareto component cost-to-defend has no optimisation sense\n"),
        ("pareto(min-cost,pareto(max-damage))", "cost,cost",
         "error: pareto products do not nest\n"),
    ):
        code, out, stderr = run(capsys, "metric", f"{MODELS}/overlap.at",
                                "--domain", domain, "--attribution", names)
        assert (code, out, stderr) == (1, "", err)


def test_metric_explicit_algorithm_and_order(capsys):
    code, out, _ = run(
        capsys, "metric", f"{MODELS}/overlap.at", "--domain", "min-cost",
        "--attribution", "cost", "--algorithm", "oracle",
    )
    assert code == 0 and "algorithm: oracle" in out
    # explicit oracle is what the user asked for: no fallback warning
    assert "warning" not in out

    for order in ("abc", "cba"):
        code, out, _ = run(
            capsys, "metric", f"{MODELS}/overlap.at", "--domain", "min-cost",
            "--attribution", "cost", "--order", order,
        )
        assert code == 0 and "value: 1" in out

    code, _, err = run(
        capsys, "metric", f"{MODELS}/overlap.at", "--domain", "min-cost",
        "--attribution", "cost", "--algorithm", "bu",
    )
    assert code == 1 and "shared" in err


def test_metric_error_reporting(capsys):
    code, _, err = run(
        capsys, "metric", f"{MODELS}/overlap.at", "--domain", "min-cost",
        "--attribution", "nope",
    )
    assert code == 1 and "nope" in err and "cost" in err

    code, _, err = run(
        capsys, "metric", f"{MODELS}/overlap.at", "--domain", "quantum",
        "--attribution", "cost",
    )
    assert code == 1 and "quantum" in err

    code, _, err = run(
        capsys, "metric", f"{MODELS}/overlap.at", "--domain", "min-cost",
        "--attribution", "cost", "--order", "nope",
    )
    assert code == 1 and "nope" in err

    code, _, err = run(capsys, "metric", "no/such/file.at", "--domain", "min-cost",
                       "--attribution", "cost")
    assert code == 1 and err.startswith("error: ")


def test_bad_values_name_their_basic_action(tmp_path, capsys):
    model = tmp_path / "bad.at"
    model.write_text(
        'toplevel "r";\n"r" or "a" "b";\n"a" bas;\n"b" bas;\n'
        'attribution "p" { "a" = 1/2; "b" = 3/2; }\n'
        'attribution "q" { "a" = inf; "b" = 1; }\n'
    )
    code, _, err = run(capsys, "metric", str(model), "--domain", "prob-max", "--attribution", "p")
    assert (code, err) == (
        1, "error: prob-max: probability 3/2 outside [0, 1] for basic action 'b'\n"
    )
    code, _, err = run(capsys, "metric", str(model), "--domain", "prob-max", "--attribution", "q")
    assert (code, err) == (
        1, "error: prob-max: expected an exact rational, got inf for basic action 'a'\n"
    )


def test_ktop_golden(capsys):
    code, out, _ = run(
        capsys, "ktop", f"{MODELS}/overlap.at", "--domain", "min-cost",
        "--attribution", "cost", "--k", "2",
    )
    assert code == 0 and out == "1 {b}\n7 {a,c}\n"

    code, _, err = run(
        capsys, "ktop", f"{MODELS}/overlap.at", "--domain", "prob",
        "--attribution", "prob", "--k", "2",
    )
    assert code == 1 and "prob" in err


def test_ktop_rejects_k_below_one(capsys):
    code, out, err = run(
        capsys, "ktop", f"{MODELS}/overlap.at", "--domain", "min-cost",
        "--attribution", "cost", "--k", "0",
    )
    assert code == 1 and out == ""
    assert err == "error: k must be at least 1\n"


def test_decision_diagram_commands_name_the_static_only_rule(capsys):
    # a CLI user cannot project a dynamic model, so the message names the rule
    err_text = "error: decision diagrams take static models only; this model has SAND gates\n"
    model, time = f"{MODELS}/exploit.at", ("--domain", "min-time-seq", "--attribution", "time")
    for argv in (("ktop", model, *time, "--k", "2"),
                 ("metric", model, *time, "--algorithm", "bdd"),
                 ("dump", model, "--what", "bdd"), ("dump", model, "--what", "bdd-min")):
        assert run(capsys, *argv) == (1, "", err_text), argv


_TREE_FOLD_ON_A_DAG = "error: bu is only sound on proper trees; shared nodes double-count\n"
_NOT_A_SEMIRING = "error: domain cost-to-defend is not a semiring\n"
_NOT_ADDITIVE = "error: domain cost-to-defend does not reduce to additive shortest paths\n"
_STATIC_ONLY = "error: decision diagrams take static models only; this model has SAND gates\n"


# one model per structure class, each request in a domain every engine takes
# and in one none does: every engine refuses the class, then the domain,
# then the values
@pytest.mark.parametrize("model, attribution, domain, asked, err", [
    ("treasure", "time", "min-cost", "bu", ""),
    ("treasure", "time", "min-cost", "bdd", ""),
    ("treasure", "time", "min-cost", "ktop", ""),
    ("treasure", "time", "cost-to-defend", "bu", _NOT_A_SEMIRING),
    ("treasure", "time", "cost-to-defend", "bdd", _NOT_A_SEMIRING),
    ("treasure", "time", "cost-to-defend", "ktop", _NOT_ADDITIVE),
    ("overlap", "cost", "min-cost", "bu", _TREE_FOLD_ON_A_DAG),
    ("overlap", "cost", "min-cost", "bdd", ""),
    ("overlap", "cost", "min-cost", "ktop", ""),
    ("overlap", "cost", "cost-to-defend", "bu", _TREE_FOLD_ON_A_DAG),
    ("overlap", "cost", "cost-to-defend", "bdd", _NOT_A_SEMIRING),
    ("overlap", "cost", "cost-to-defend", "ktop", _NOT_ADDITIVE),
    ("datacenter", "cost", "min-cost", "bu", ""),
    ("datacenter", "cost", "min-cost", "bdd", _STATIC_ONLY),
    ("datacenter", "cost", "min-cost", "ktop", _STATIC_ONLY),
    ("datacenter", "cost", "cost-to-defend", "bu",
     "error: domain cost-to-defend does not support bottom-up dynamic evaluation\n"),
    ("datacenter", "cost", "cost-to-defend", "bdd", _STATIC_ONLY),
    ("datacenter", "cost", "cost-to-defend", "ktop", _STATIC_ONLY),
    ("exploit", "time", "min-cost", "bu", _TREE_FOLD_ON_A_DAG),
    ("exploit", "time", "min-cost", "bdd", _STATIC_ONLY),
    ("exploit", "time", "min-cost", "ktop", _STATIC_ONLY),
    ("exploit", "time", "cost-to-defend", "bu", _TREE_FOLD_ON_A_DAG),
    ("exploit", "time", "cost-to-defend", "bdd", _STATIC_ONLY),
    ("exploit", "time", "cost-to-defend", "ktop", _STATIC_ONLY),
])
def test_each_engine_refuses_class_then_domain_then_values(
        capsys, model, attribution, domain, asked, err):
    argv = [f"{MODELS}/{model}.at", "--domain", domain, "--attribution", attribution]
    argv = ["ktop", *argv, "--k", "1"] if asked == "ktop" else [
        "metric", *argv, "--algorithm", asked]
    code, _, got = run(capsys, *argv)
    assert (code, got) == (1 if err else 0, err)


def test_budget_flag(capsys, tmp_path):
    wide = tmp_path / "wide.at"
    leaves = [f'"b{i}"' for i in range(21)]
    wide.write_text(
        'toplevel "r";\n"r" or ' + " ".join(leaves) + ";\n"
        + "".join(f"{q} bas;\n" for q in leaves)
    )
    code, _, err = run(capsys, "semantics", str(wide))
    assert code == 1
    assert err.endswith("; pass --budget to acknowledge the exponential cost\n")

    code, out, _ = run(capsys, "semantics", str(wide), "--budget", "21")
    assert code == 0 and out.count("\n") == 21

    code, _, err = run(capsys, "semantics", str(wide), "--budget", "3")
    assert code == 1 and "--budget" in err


def test_dump_model_roundtrip(capsys):
    code, out, _ = run(capsys, "dump", f"{MODELS}/treasure.at", "--what", "model")
    assert code == 0
    assert out.startswith('toplevel "root";\n')
    # canonical form is a fixed point
    import atquant

    doc = atquant.parse_model(out)
    assert atquant.emit_model(doc) == out


def test_dump_dot_variants(capsys):
    code, out, _ = run(capsys, "dump", f"{MODELS}/treasure.at", "--what", "at")
    assert code == 0 and out.startswith("digraph attack_tree {")

    code, out, _ = run(capsys, "dump", f"{MODELS}/treasure.at", "--what", "bdd-min")
    assert code == 0
    assert out.count("shape=circle") == 3  # minimised diagram has 3 decision nodes

    code, _, err = run(capsys, "dump", f"{MODELS}/exploit.at", "--what", "bdd")
    assert code == 1 and "static" in err


# Diagram nodes are named by their place in the diagram's low-first
# postorder. Pinned on a static tree and on a static DAG.
BDD_DUMPS = {
    "treasure.at": (
        'digraph bdd {\n'
        '  rankdir=TB;\n'
        '  n0 [shape=box, label="0"];\n'
        '  n1 [shape=box, label="1"];\n'
        '  n2 [shape=circle, label="p"];\n'
        '  n3 [shape=circle, label="t"];\n'
        '  n4 [shape=circle, label="n"];\n'
        '  n2 -> n0 [style=dashed];\n'
        '  n2 -> n1 [style=solid];\n'
        '  n3 -> n0 [style=dashed];\n'
        '  n3 -> n2 [style=solid];\n'
        '  n4 -> n3 [style=dashed];\n'
        '  n4 -> n1 [style=solid];\n'
        '}\n'
    ),
    "overlap.at": (
        'digraph bdd {\n'
        '  rankdir=TB;\n'
        '  n0 [shape=box, label="0"];\n'
        '  n1 [shape=box, label="1"];\n'
        '  n2 [shape=circle, label="b"];\n'
        '  n3 [shape=circle, label="c"];\n'
        '  n4 [shape=circle, label="b"];\n'
        '  n5 [shape=circle, label="a"];\n'
        '  n2 -> n0 [style=dashed];\n'
        '  n2 -> n1 [style=solid];\n'
        '  n3 -> n0 [style=dashed];\n'
        '  n3 -> n1 [style=solid];\n'
        '  n4 -> n3 [style=dashed];\n'
        '  n4 -> n1 [style=solid];\n'
        '  n5 -> n2 [style=dashed];\n'
        '  n5 -> n4 [style=solid];\n'
        '}\n'
    ),
}
# the minimal attacks {b} and {a, c}: the compiled path through a and b,
# which holds {b}, is gone and a's high side tests c alone
OVERLAP_BDD_MIN_DUMP = (
    'digraph bdd {\n'
    '  rankdir=TB;\n'
    '  n0 [shape=box, label="0"];\n'
    '  n1 [shape=box, label="1"];\n'
    '  n2 [shape=circle, label="b"];\n'
    '  n3 [shape=circle, label="c"];\n'
    '  n4 [shape=circle, label="a"];\n'
    '  n2 -> n0 [style=dashed];\n'
    '  n2 -> n1 [style=solid];\n'
    '  n3 -> n0 [style=dashed];\n'
    '  n3 -> n1 [style=solid];\n'
    '  n4 -> n2 [style=dashed];\n'
    '  n4 -> n3 [style=solid];\n'
    '}\n'
)


@pytest.mark.parametrize("model", sorted(BDD_DUMPS))
def test_dump_bdd_node_ids_golden(capsys, model):
    code, out, _ = run(capsys, "dump", f"{MODELS}/{model}", "--what", "bdd")
    assert code == 0 and out == BDD_DUMPS[model]


def test_dump_bdd_min_golden(capsys):
    code, out, _ = run(capsys, "dump", f"{MODELS}/overlap.at", "--what", "bdd-min")
    assert code == 0 and out == OVERLAP_BDD_MIN_DUMP


def test_dump_dot_escapes_backslashes(capsys, tmp_path):
    # a quoted label may end in a backslash; DOT needs it doubled, or the
    # closing quote would be escaped and the string left open
    model = tmp_path / "slash.at"
    model.write_text('toplevel "r\\";\n"r\\" or "x\\" "y";\n"x\\" bas;\n"y" bas;\n')
    code, out, _ = run(capsys, "dump", str(model), "--what", "at")
    assert code == 0 and '  n1 [shape=box, label="x\\\\"];\n' in out
    assert '  n0 [shape=ellipse, label="r\\\\\\n[OR]"];\n' in out
    code, out, _ = run(capsys, "dump", str(model), "--what", "bdd")
    assert code == 0 and '[shape=circle, label="x\\\\"];\n' in out
    assert '[shape=circle, label="y"];\n' in out


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.txt"
    code, out, _ = run(
        capsys, "metric", f"{MODELS}/overlap.at", "--domain", "min-cost",
        "--attribution", "cost", "--output", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text() == "metric: min-cost\nvalue: 1\nalgorithm: bdd\n"


def test_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "metric", f"{MODELS}/exploit.at", "--domain", "min-time-par",
            "--attribution", "time", "--format", "json",
        )
        assert code == 0
        runs.append(normalize(out))
    assert runs[0] == runs[1]

    texts = set()
    for _ in range(2):
        _, out, _ = run(capsys, "semantics", f"{MODELS}/exploit.at")
        texts.add(out)
    assert len(texts) == 1


def test_calls_in_one_process_share_no_argument_state(capsys):
    # main carries nothing from one call to the next: neither a usage error
    # nor another subcommand's defaults may leak into the next call
    ktop = ("ktop", f"{MODELS}/overlap.at", "--domain", "min-cost", "--attribution", "cost", "--k", "2")
    first = run(capsys, *ktop)
    with pytest.raises(SystemExit) as ei:
        main(["metric", f"{MODELS}/overlap.at", "--domain", "min-cost"])
    assert ei.value.code == 2
    assert "--attribution" in capsys.readouterr().err
    code, out, _ = run(capsys, "metric", f"{MODELS}/overlap.at", "--domain", "min-cost", "--attribution", "cost")
    assert code == 0 and out == "metric: min-cost\nvalue: 1\nalgorithm: bdd\n"
    assert run(capsys, *ktop) == first == (0, "1 {b}\n7 {a,c}\n", "")


OVERLAP = f"{MODELS}/overlap.at"
PLAIN = ["metric", OVERLAP, "--domain", "min-cost", "--attribution", "cost"]
CHOICES = "(choose from 'check', 'semantics', 'metric', 'ktop', 'dump')"


@pytest.mark.parametrize("kind, argv, want", [
    # usage errors exit 2 with argparse's wording, after a usage line
    ("error", [], "atquant: error: the following arguments are required: cmd"),
    ("error", ["metric", OVERLAP],
     "atquant metric: error: the following arguments are required: --domain, --attribution"),
    ("error", ["ktop", "--k", "2"],
     "atquant ktop: error: the following arguments are required: model, --domain, --attribution"),
    ("error", ["nope", OVERLAP], f"atquant: error: argument cmd: invalid choice: 'nope' {CHOICES}"),
    ("error", ["check", OVERLAP, "--format", "xml"],
     "atquant check: error: argument --format: invalid choice: 'xml' (choose from 'json', 'text')"),
    ("error", ["semantics", OVERLAP, "--budget=x"],
     "atquant semantics: error: argument --budget: invalid int value: 'x'"),
    ("error", ["check", OVERLAP, "--bogus", "extra"],
     "atquant: error: unrecognized arguments: --bogus extra"),
    ("error", [*PLAIN, "--order"], "atquant metric: error: argument --order: expected one argument"),
    # "--" goes with the model only next to it
    ("error", [*PLAIN, "--", OVERLAP], f"atquant: error: unrecognized arguments: -- {OVERLAP}"),
    # a value may not look like a flag
    ("error", ["metric", OVERLAP, "--domain", "--attribution", "cost"],
     "atquant metric: error: argument --domain: expected one argument"),
    ("error", ["metric", OVERLAP, "--a", "cost"],
     "atquant metric: error: ambiguous option: --a could match --attribution, --algorithm"),
    ("error", ["dump", OVERLAP, "--o=x"],
     "atquant dump: error: ambiguous option: --o=x could match --output, --order"),
    ("error", ["check", OVERLAP, "--help=x"],
     "atquant check: error: argument -h/--help: ignored explicit argument 'x'"),
    # other spellings of PLAIN print what it prints
    ("same", ["metric", OVERLAP, "--domain=min-cost", "--attribution=cost"], None),
    ("same", ["metric", OVERLAP, "--dom", "min-cost", "--attr", "cost"], None),
    ("same", ["metric", OVERLAP, "--do=min-cost", "--attr=cost", "--al", "auto"], None),
    ("same", ["metric", "--domain", "min-cost", "--attribution", "cost", OVERLAP], None),
    ("same", ["metric", "--domain", "min-cost", "--attribution", "cost", "--", OVERLAP], None),
    ("same", ["metric", "--domain", "min-cost", "--attribution", "cost", OVERLAP, "--"], None),
    ("same", ["metric", OVERLAP, "--domain", "max-damage", "--domain", "min-cost",
              "--attribution", "cost"], None),
    # -h lists every flag of the command and exits 0
    ("help", ["-h"], ["check", "semantics", "metric", "ktop", "dump"]),
    ("help", ["check", "-h"], ["--format", "--output"]),
    ("help", ["semantics", OVERLAP, "--help"], ["--format", "--output", "--budget"]),
    ("help", ["metric", "--he"], ["--format", "--output", "--domain", "--attribution",
                                  "--algorithm", "--order", "--budget"]),
    ("help", ["ktop", "-hh"], ["--format", "--output", "--domain", "--attribution", "--k",
                               "--order"]),
    ("help", ["dump", "-h", "--bogus"], ["--output", "--what", "--order"]),
])
def test_the_command_line_reader(capsys, kind, argv, want):
    if kind == "same":
        assert run(capsys, *argv) == run(capsys, *PLAIN) == (
            0, "metric: min-cost\nvalue: 1\nalgorithm: bdd\n", "")
        return
    with pytest.raises(SystemExit) as ei:
        main(argv)
    out = capsys.readouterr()
    if kind == "error":
        lines = out.err.splitlines()
        usage, error = lines[0], lines[-1]
        assert (ei.value.code, out.out, error) == (2, "", want)
        assert usage.startswith("usage: " + error.split(":")[0])
    else:
        assert ei.value.code == 0 and out.err == ""
        assert out.out.startswith("usage: atquant") and all(w in out.out for w in want)


def test_a_negative_k_reaches_the_analysis(capsys):
    code, out, err = run(capsys, "ktop", OVERLAP, "--domain", "min-cost",
                         "--attribution", "cost", "--k", "-1")
    assert (code, out, err) == (1, "", "error: k must be at least 1\n")


def test_a_static_dag_deeper_than_the_recursion_limit(capsys, tmp_path):
    # g_i = OR(AND(b_i, b_i+1), g_i+1) down 10,000 levels, each level sharing
    # b_i+1 with the one below: the minimal attacks are the pairs
    # {b_i, b_i+1}, and over the order b_0 < b_1 < ... the minimised diagram
    # of their union has one node at each end and two per variable between
    n, m = 10_000, 5_000
    cost = [3 * abs(i - m) + (i > m) for i in range(n + 1)]
    lines = ['toplevel "g0";']
    for i in range(n - 1):
        lines += [f'"g{i}" or "a{i}" "g{i + 1}";', f'"a{i}" and "b{i}" "b{i + 1}";']
    lines += [f'"g{n - 1}" and "b{n - 1}" "b{n}";', *(f'"b{i}" bas;' for i in range(n + 1))]
    lines += ['attribution "cost" {', *(f'"b{i}" = {c};' for i, c in enumerate(cost)), "}"]
    model = tmp_path / "deep.at"
    model.write_text("\n".join(lines) + "\n")
    pairs = sorted((cost[i] + cost[i + 1], i) for i in range(n))
    assert pairs[:3] == [(3, m - 1), (4, m), (9, m - 2)]  # no ties among the first three

    code, out, _ = run(capsys, "metric", str(model), "--domain", "min-cost",
                       "--attribution", "cost", "--algorithm", "bdd")
    assert (code, out) == (0, f"metric: min-cost\nvalue: {pairs[0][0]}\nalgorithm: bdd\n")
    code, out, _ = run(capsys, "ktop", str(model), "--domain", "min-cost",
                       "--attribution", "cost", "--k", "3")
    assert (code, out) == (0, "".join(f"{v} {{b{i},b{i + 1}}}\n" for v, i in pairs[:3]))
    code, out, _ = run(capsys, "dump", str(model), "--what", "bdd-min")
    decisions = re.findall(r'\[shape=circle, label="b(\d+)"\]', out)
    assert code == 0 and len(decisions) == 2 * n
    assert sorted(map(int, decisions)) == [0] + sorted(2 * list(range(1, n))) + [n]


def test_every_algorithm_that_answers_gives_one_value(capsys):
    # one question, one answer: every model, builtin domain and declared
    # attribution, asked of each algorithm; those that refuse exit non-zero
    requests, differ = 0, []
    for path in sorted(Path(MODELS).glob("*.at")):
        names = parse_model(path.read_text()).attributions
        for domain in BUILTIN_NAMES:
            for name in names:
                values = {}
                for algorithm in ("auto", "bu", "bdd", "oracle"):
                    code, out, _ = run(capsys, "metric", str(path), "--domain", domain,
                                       "--attribution", name, "--algorithm", algorithm,
                                       "--format", "json")
                    requests += 1
                    if code == 0:
                        values[algorithm] = json.loads(out)["value"]
                if len(set(values.values())) > 1:
                    differ.append((path.name, domain, name, values))
    assert requests == 352 and differ == []
