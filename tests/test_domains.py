from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atquant import BUILTIN_NAMES, INF, builtin, check_semiring_laws, pareto_product
from atquant.domains import (
    KTopMode,
    ValueKind,
    nat_add,
    nat_max,
    nat_min,
    pareto_prune,
)
from atquant.errors import BadAttributeValue, EmptyProduct, UnknownDomain

nat = st.one_of(st.integers(min_value=0, max_value=50), st.just(INF))


def test_infinity_is_a_saturating_top_element():
    assert INF == INF and not (INF < INF)
    assert 5 < INF and INF > 5 and not (INF <= 5)
    assert Fraction(1, 2) < INF
    assert nat_add(INF, 3) is INF and nat_add(3, INF) is INF
    assert nat_min(5, INF) == 5 and nat_min(INF, 5) == 5
    assert nat_max(5, INF) is INF
    assert repr(INF) == "inf"
    assert len({INF, INF}) == 1


def test_builtin_names_and_lookup():
    assert BUILTIN_NAMES == (
        "cost-to-defend",
        "max-challenge",
        "max-damage",
        "min-cost",
        "min-skill",
        "min-time-par",
        "min-time-seq",
        "prob-max",
    )
    for name in BUILTIN_NAMES:
        assert builtin(name).name == name
    with pytest.raises(UnknownDomain):
        builtin("min-price")


def test_builtin_flags_match_their_algebra():
    flags = {name: builtin(name) for name in BUILTIN_NAMES}
    assert all(flags[n].is_semiring for n in BUILTIN_NAMES if n != "cost-to-defend")
    assert not flags["cost-to-defend"].is_semiring
    # seq distributing over both and/or singles out these three
    assert {n for n in BUILTIN_NAMES if flags[n].is_semiring_dynamic} == {
        "min-time-par",
        "min-skill",
        "max-challenge",
    }
    assert flags["min-cost"].seq_equals_and
    assert flags["min-skill"].seq_equals_and
    assert not flags["min-time-par"].seq_equals_and
    assert flags["cost-to-defend"].seq_op is None
    assert flags["min-cost"].ktop_mode is KTopMode.MIN_ADDITIVE
    assert flags["max-damage"].ktop_mode is KTopMode.MAX_ADDITIVE
    assert flags["prob-max"].ktop_mode is KTopMode.UNSUPPORTED


def test_validate_value_accepts_and_rejects():
    mc = builtin("min-cost")
    mc.validate_value(0)
    mc.validate_value(INF)
    mc.validate_value(Fraction(3, 2))
    with pytest.raises(BadAttributeValue):
        mc.validate_value(-1)
    with pytest.raises(BadAttributeValue):
        mc.validate_value(True)
    with pytest.raises(BadAttributeValue):
        mc.validate_value(0.5)

    pm = builtin("prob-max")
    pm.validate_value(Fraction(1, 2))
    pm.validate_value(1)
    with pytest.raises(BadAttributeValue):
        pm.validate_value(Fraction(3, 2))
    with pytest.raises(BadAttributeValue):
        pm.validate_value(INF)


def test_all_semiring_builtins_pass_their_laws():
    for name in BUILTIN_NAMES:
        d = builtin(name)
        report = check_semiring_laws(d, n_triples=300, seed=11)
        if name == "cost-to-defend":
            assert not report.all_hold
        else:
            assert report.all_hold, (name, [r for r in report.results if not r.holds])


def test_cost_to_defend_counterexample_is_the_classic_one():
    d = builtin("cost-to-defend")
    x, y, z = 1, 2, 3
    lhs = d.and_op(x, d.or_op(y, z))  # 1 min (2+3)
    rhs = d.or_op(d.and_op(x, y), d.and_op(x, z))  # (1 min 2) + (1 min 3)
    assert lhs == 1 and rhs == 2 and lhs != rhs
    report = check_semiring_laws(d, triples=[(x, y, z)])
    failed = report.result("and-over-or")
    assert not failed.holds
    assert failed.counterexample == (x, y, z)


def test_dynamic_semiring_laws_cover_seq():
    report = check_semiring_laws(builtin("min-time-par"), n_triples=300, seed=3)
    for law in ("seq-over-and", "seq-over-or", "and-over-or"):
        assert report.result(law).holds


def test_pareto_dominance_and_prune():
    dirs = ("min", "min")
    front = frozenset({(1, 5), (2, 2), (3, 3), (1, 5)})
    pruned = pareto_prune(front, dirs)
    assert pruned == frozenset({(1, 5), (2, 2)})
    # a maximising coordinate flips the comparison
    assert pareto_prune(frozenset({(1, 5), (2, 2)}), ("min", "max")) == frozenset({(1, 5)})


def test_pareto_product_construction():
    d = pareto_product([builtin("min-cost"), builtin("min-skill")])
    assert d.name == "pareto(min-cost,min-skill)"
    assert d.kind is ValueKind.PARETO
    assert d.directions == ("min", "min")
    assert d.is_semiring and not d.is_semiring_dynamic
    assert d.seq_op is None
    assert builtin("pareto(min-cost, prob-max)").directions == ("min", "max")
    with pytest.raises(EmptyProduct):
        pareto_product([])
    with pytest.raises(EmptyProduct):
        pareto_product([d, builtin("min-cost")])  # no nesting
    with pytest.raises(EmptyProduct, match="^component without an optimisation sense$"):
        pareto_product([builtin("min-cost"), builtin("cost-to-defend")])


def test_pareto_ops_golden():
    d = pareto_product([builtin("min-cost"), builtin("min-skill")])
    f = frozenset({(1, 10)})
    g = frozenset({(2, 2)})
    assert d.or_op(f, g) == frozenset({(1, 10), (2, 2)})
    # and: costs add, skills max, then prune
    assert d.and_op(f, g) == frozenset({(3, 10)})
    assert d.or_op(f, d.or_neutral) == f
    assert d.and_op(f, d.and_neutral) == f


def test_pareto_product_is_a_semiring_on_random_fronts():
    d = pareto_product([builtin("min-cost"), builtin("min-skill")])
    report = check_semiring_laws(d, n_triples=300, seed=5)
    assert report.all_hold, [r for r in report.results if not r.holds]


def test_law_checker_accepts_explicit_triples():
    d = builtin("min-cost")
    report = check_semiring_laws(d, triples=[(1, 2, 3), (INF, 0, 7)])
    assert report.all_hold


@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_min_cost_distributivity_exhaustive_ints(x, y, z):
    d = builtin("min-cost")
    assert d.and_op(x, d.or_op(y, z)) == d.or_op(d.and_op(x, y), d.and_op(x, z))


@given(nat, nat, nat)
def test_min_time_par_seq_distributes(x, y, z):
    d = builtin("min-time-par")
    assert d.seq_op(x, d.and_op(y, z)) == d.and_op(d.seq_op(x, y), d.seq_op(x, z))
    assert d.seq_op(x, d.or_op(y, z)) == d.or_op(d.seq_op(x, y), d.seq_op(x, z))


@settings(max_examples=200)
@given(st.randoms(use_true_random=False))
def test_random_values_validate(rand):
    for name in BUILTIN_NAMES + ("pareto(min-cost,max-damage)",):
        d = builtin(name)
        v = d.random_value(rand)
        d.validate_value(v)


@given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=8))
def test_prune_is_an_idempotent_antichain_map(vs):
    from atquant.domains import _dominates

    dirs = ("min", "min")
    front = frozenset(vs)
    pruned = pareto_prune(front, dirs)
    assert pruned == pareto_prune(pruned, dirs)
    assert pruned <= front
    for u in pruned:
        for w in pruned:
            assert not _dominates(u, w, dirs)
    # everything dropped was dominated by something kept
    for u in front - pruned:
        assert any(_dominates(w, u, dirs) for w in pruned)
