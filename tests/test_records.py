"""The package's records: plain values are NamedTuples, and the records a
tuple cannot carry subclass `record.Record`. These tests pin what callers
may rely on: which fields equality, hash and repr read, that fields cannot
be written, fresh default tables, and an import of the package and its
command line that loads none of `dataclasses`, `inspect`, `argparse` and
`gettext`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from atquant import (
    BUILTIN_NAMES, AnalysisResult, AttackTree, ModelDocument, PosetAttack, StructureKind,
    VarOrder, bas_of, builtin, from_structure_function, static_projection,
)
from atquant.tree import Dynamics, Shape

from helpers import domain_with, exploit, overlap, treasure

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_importing_the_package_and_its_cli_loads_no_dataclasses_inspect_argparse_or_gettext():
    code = ("import sys; import atquant; import atquant.cli; "
            "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_tree_equality_hash_and_repr_ignore_kind_and_topological():
    t = treasure()
    twin = AttackTree(t.labels, t.types, t.children, t.root,
                      StructureKind(Shape.DAG, Dynamics.DYNAMIC), t.topological[::-1])
    assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
    assert repr(t) == (f"AttackTree(labels={t.labels!r}, types={t.types!r}, "
                       f"children={t.children!r}, root={t.root!r})")
    assert AttackTree(t.labels, t.types, t.children, 0, t.kind, t.topological) != t
    assert static_projection(exploit()) != exploit()
    assert t != tuple(getattr(t, name) for name in t._compared)


def test_records_refuse_assignment_and_deletion():
    t = overlap()
    order = VarOrder(bas_of(t))
    diagram = from_structure_function(t, order)
    postorders = t.postorder, diagram.postorder  # cached on the instance
    fields = [(t, "root"), (t, "kind"), (t, "postorder"), (diagram, "store"),
              (diagram, "root"), (diagram, "postorder"), (order, "bas"), (order, "_rank"),
              (builtin("min-cost"), "laws"), (builtin("min-cost"), "name")]
    for record, name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is before
    assert (t.postorder, diagram.postorder) == postorders


def test_omitted_tables_are_fresh_dicts():
    t = treasure()
    first, second = ModelDocument(t), ModelDocument(t)
    assert first.attributions == first.orders == {}
    assert first.attributions is not second.attributions and first.orders is not second.orders
    assert first == second
    results = [AnalysisResult("min-cost", 1, "bu", ()) for _ in range(2)]
    assert results[0].stats == {} and results[0].stats is not results[1].stats
    cost = {b: 1 for b in bas_of(t)}
    assert ModelDocument(t, cost).attributions is cost


def test_builtin_domains_are_shared_and_hashable():
    for name in BUILTIN_NAMES:
        d = builtin(name)
        assert d is builtin(name)
        assert {d: name}[builtin(name)] == name
        rebuilt = domain_with(d)
        assert rebuilt is not d and rebuilt == d and hash(rebuilt) == hash(d)
    assert domain_with(builtin("min-skill"), laws=()) != builtin("min-skill")


def test_var_order_takes_its_ranks_from_bas_alone():
    ranks = {7: 0}
    with pytest.raises(TypeError):
        VarOrder((3, 1), ranks)
    assert ranks == {7: 0}
    order = VarOrder((3, 1))
    assert order._rank == {3: 0, 1: 1}
    assert order == VarOrder((3, 1)) and hash(order) == hash(VarOrder((3, 1)))
    assert order != VarOrder((1, 3))
    assert repr(order) == "VarOrder(bas=(3, 1))"


def test_diagram_repr_leaves_the_store_out_and_equality_keeps_it():
    t = treasure()
    order = VarOrder(bas_of(t))
    diagram = from_structure_function(t, order)
    assert repr(diagram) == f"Bdd(order={order!r}, root={diagram.root!r})"
    again = from_structure_function(t, order)  # a second store
    assert again.root == diagram.root and again != diagram


def test_value_records_are_tuples():
    kind = StructureKind(Shape.TREE, Dynamics.STATIC)
    assert str(kind) == "(tree, static)" and kind == (Shape.TREE, Dynamics.STATIC)
    attack = PosetAttack(frozenset({0, 1}), frozenset({(0, 1)}))
    nodes, order = attack
    assert attack == (nodes, order) and attack._replace(order=frozenset()).order == frozenset()
