import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atquant import (
    BUILTIN_NAMES, INF, AttributeDomain, builtin, check_semiring_laws, pareto_product,
)
from atquant.domains import (
    LAWS,
    ValueKind,
    check_budget,
    nat_add,
    pareto_prune,
)
from atquant.errors import (
    BadAttributeValue, BudgetExceeded, EmptyProduct, InvalidDomain, UnknownDomain,
)

from helpers import domain_with, law_triples, pairwise_prune

nat = st.one_of(st.integers(min_value=0, max_value=50), st.just(INF))


def test_infinity_is_a_saturating_top_element():
    assert INF == INF and not (INF < INF)
    assert 5 < INF and INF > 5 and not (INF <= 5)
    assert Fraction(1, 2) < INF
    assert nat_add(INF, 3) is INF and nat_add(3, INF) is INF
    assert min(5, INF) == 5 and min(INF, 5) == 5
    assert max(5, INF) is INF
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


def test_builtins_are_shared_and_pareto_products_are_not():
    for name in BUILTIN_NAMES:
        assert builtin(name) is builtin(name) is builtin(f" {name} ")
    name = "pareto(min-cost,max-damage)"
    assert builtin(name) is not builtin(name)
    assert builtin(name).components[0] is builtin("min-cost")


def test_builtin_flags_match_their_algebra():
    flags = {name: builtin(name) for name in BUILTIN_NAMES}
    semirings = [n for n in BUILTIN_NAMES if n != "cost-to-defend"]
    assert all("and-over-or" in flags[n].laws for n in semirings)
    assert "and-over-or" not in flags["cost-to-defend"].laws
    # seq distributing over both and/or singles out these three
    assert {n for n in BUILTIN_NAMES if {"seq-over-and", "seq-over-or"} <= flags[n].laws} == {
        "min-time-par",
        "min-skill",
        "max-challenge",
    }
    assert "seq-is-and" in flags["min-cost"].laws
    assert "seq-is-and" in flags["min-skill"].laws
    assert "seq-is-and" not in flags["min-time-par"].laws
    assert flags["cost-to-defend"].seq_op is None
    assert "and-is-plus" in flags["min-cost"].laws
    assert flags["min-cost"].sense == "min"
    assert "and-is-plus" in flags["max-damage"].laws
    assert flags["max-damage"].sense == "max"
    assert "and-is-plus" not in flags["prob-max"].laws
    additive = {"and-over-or", "seq-is-and", "and-is-plus"}
    dynamic = {"and-over-or", "seq-over-and", "seq-over-or", "and-idempotent"}
    absorbs = {"or-absorbs-and"}
    assert {n: flags[n].laws for n in BUILTIN_NAMES} == {
        "min-cost": additive | absorbs,
        "min-time-seq": additive | absorbs,
        "max-damage": additive,
        "min-time-par": dynamic | absorbs,
        "min-skill": dynamic | absorbs | {"seq-is-and"},
        "max-challenge": dynamic | {"seq-is-and"},
        "prob-max": {"and-over-or", "seq-is-and"} | absorbs,
        "cost-to-defend": {"and-idempotent"},
    }


def test_a_domain_refuses_laws_it_cannot_declare():
    mc = builtin("min-cost")
    with pytest.raises(InvalidDomain, match="^min-cost: unknown law 'and-over-0r'; laws: "):
        domain_with(mc, laws=frozenset({"and-over-or", "and-over-0r"}))
    # k-top and pareto pruning read any sense but "min" as "max", so a
    # misspelt one would rank the worst attack first
    unknown = "^min-cost: unknown sense 'minimum'; senses: min, max$"
    with pytest.raises(InvalidDomain, match=unknown):
        domain_with(mc, sense="minimum")
    for law in ("seq-over-and", "seq-over-or", "seq-is-and"):
        needs_seq = f"^min-cost: law '{law}' needs a sequential operator$"
        with pytest.raises(InvalidDomain, match=needs_seq):
            domain_with(mc, seq_op=None, laws=frozenset({law}))
    # k-top ranks by the sense, so addition alone is not enough to go on
    with pytest.raises(InvalidDomain, match="^plus: law 'and-is-plus' needs a sense$"):
        AttributeDomain("plus", ValueKind.NATURAL, nat_add, nat_add, laws={"and-is-plus"})
    # a string is refused whole: its characters are no laws, and a sense
    # passed in laws' place would read as the laws 'm', 'i' and 'n'
    for laws in ("and-over-or", "min", ""):
        one_string = f"^plus: laws '{laws}' is one string; give a collection of law names$"
        with pytest.raises(InvalidDomain, match=one_string):
            AttributeDomain("plus", ValueKind.NATURAL, min, nat_add, None, laws)
    # any iterable of law names is kept as a frozenset
    sensed = AttributeDomain("plus", ValueKind.NATURAL, nat_add, nat_add, laws=["and-is-plus"],
                             sense="min")
    assert type(sensed.laws) is frozenset and sensed.laws == {"and-is-plus"}
    assert LAWS == {"and-over-or", "seq-over-and", "seq-over-or", "seq-is-and", "and-is-plus",
                    "or-absorbs-and", "and-idempotent"}


def test_a_domain_refuses_a_kind_that_is_no_value_kind():
    # a string kind would validate no value it is given
    with pytest.raises(InvalidDomain, match="^s: kind 'natural' is no ValueKind; "
                                            "kinds: natural, probability, pareto$"):
        AttributeDomain("s", "natural", min, nat_add, laws={"and-over-or"})


def test_a_pareto_domain_needs_components():
    # a front's points are checked component by component
    for components in (None, ()):
        with pytest.raises(InvalidDomain, match="^p: kind pareto needs components$"):
            AttributeDomain("p", ValueKind.PARETO, min, max, components=components)


def test_a_scalar_domain_takes_no_components():
    mc = builtin("min-cost")
    for kind in (ValueKind.NATURAL, ValueKind.PROBABILITY):
        with pytest.raises(InvalidDomain, match=f"^s: components need kind pareto, "
                                                f"not {kind.value}$"):
            AttributeDomain("s", kind, min, nat_add, components=(mc,))


def test_a_sense_may_not_contradict_a_builtin_or_op():
    # k-top ranks by the sense: min with sense max would rank the costliest
    # attack first, where the metric is the cheapest
    laws = {"and-over-or", "and-is-plus", "seq-is-and", "or-absorbs-and"}
    for or_op, sense in ((min, "max"), (max, "min")):
        with pytest.raises(InvalidDomain, match=f"^x: or_op {or_op.__name__} "
                                                f"contradicts sense '{sense}'$"):
            AttributeDomain("x", ValueKind.NATURAL, or_op, nat_add, nat_add, laws, sense=sense)
    # a sense that agrees, or no sense, is kept; an or_op of its own is not judged
    for or_op, sense in ((min, "min"), (max, "max"), (min, None), (lambda x, y: min(x, y), "max")):
        assert AttributeDomain("x", ValueKind.NATURAL, or_op, nat_add, sense=sense).sense == sense
    for name in BUILTIN_NAMES:
        d = builtin(name)
        assert d.sense == {min: "min", max: "max"}.get(d.or_op, d.sense), name

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
    # a float is refused by its type, even where its value is one that
    # INF or an int would have: the message names what is accepted
    for bad in (float("inf"), 1.5):
        with pytest.raises(BadAttributeValue) as e:
            mc.validate_value(bad)
        assert str(e.value) == (f"min-cost: got float {bad!r}; values are ints, "
                                "Fractions and atquant.INF")

    pm = builtin("prob-max")
    pm.validate_value(Fraction(1, 2))
    pm.validate_value(1)
    with pytest.raises(BadAttributeValue):
        pm.validate_value(Fraction(3, 2))
    with pytest.raises(BadAttributeValue):
        pm.validate_value(INF)

    pp = builtin("pareto(min-cost,prob-max)")
    pp.validate_value(frozenset({(INF, Fraction(1, 2))}))
    # a set that is not frozen, and elements of the wrong type or length
    for bad in ({(1, 1)}, frozenset({"ab"}), frozenset({(1,)}), frozenset({(1, 1, 1)})):
        with pytest.raises(BadAttributeValue):
            pp.validate_value(bad)


def test_all_semiring_builtins_pass_their_laws():
    for name in BUILTIN_NAMES:
        d = builtin(name)
        report = check_semiring_laws(d, law_triples(d, 300, 11))
        if name == "cost-to-defend":
            assert not report.all_hold
        else:
            assert report.all_hold, (name, [r for r in report.results if not r.holds])


def test_the_default_probe_fails_only_cost_to_defends_distributivity():
    # the default triples: 1,000 drawn by random_value from Random(0)
    for name in BUILTIN_NAMES:
        report = check_semiring_laws(builtin(name))
        failed = [r.law for r in report.results if not r.holds]
        assert failed == (["and-over-or"] if name == "cost-to-defend" else []), name
        # a domain holds no identity element, so none is probed
        assert not [r.law for r in report.results if r.law.endswith("-neutral")], name


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
    # a law the checker did not probe has no result: it is not reported held
    assert "seq-over-and" not in {r.law for r in report.results}
    with pytest.raises(KeyError):
        report.result("seq-over-and")


def test_dynamic_semiring_laws_cover_seq():
    d = builtin("min-time-par")
    report = check_semiring_laws(d, law_triples(d, 300, 3))
    for law in ("seq-over-and", "seq-over-or", "and-over-or"):
        assert report.result(law).holds


def test_pareto_conjunction_builds_at_most_two_to_the_budget_points():
    # a front of (i, i) points under (min, max) has no dominated point, so
    # f and g make |f| * |g| combined points before the prune
    def front(n):
        return frozenset((i, i) for i in range(n))

    for budget in (0, 3, 5):
        d = pareto_product([builtin("min-cost"), builtin("max-damage")], budget)
        at = 2 ** budget
        assert d.and_op(front(at), front(1)) == front(at)
        assert builtin("pareto(min-cost,max-damage)", budget).and_op(front(1), front(at)) == front(at)
        with pytest.raises(BudgetExceeded, match=rf"^a pareto conjunction of {at + 1} x 1 points "
                                                 rf"exceeds 2\*\*{budget}$"):
            d.and_op(front(at + 1), front(1))
    # by default, the oracle's budget of 20
    d = builtin("pareto(min-cost,max-damage)")
    assert d.and_op(front(2 ** 5), front(2 ** 5)) == front(2 ** 6 - 1)
    with pytest.raises(BudgetExceeded, match=r"^a pareto conjunction of 1025 x 1024 points "
                                             r"exceeds 2\*\*20$"):
        d.and_op(front(2 ** 10 + 1), front(2 ** 10))


def test_check_budget_agrees_with_the_power_it_may_skip():
    # the test reads size's bit length before any power of two, and gives
    # the answer of size > 2**budget for every size and budget, a negative
    # budget included
    for budget in range(-3, 41):
        limit = 2 ** budget
        for size in range(2 ** 12 + 2):
            try:
                check_budget(size, budget, "x")
                refused = False
            except BudgetExceeded:
                refused = True
            assert refused == (size > limit), (size, budget)


def test_check_budget_builds_no_power_of_a_large_budget():
    # 2**(1 << 26) alone is an 8 MB integer; a pareto conjunction checks
    # its budget once per call
    tracemalloc.start()
    try:
        check_budget(5, 1 << 26, "x")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

def test_pareto_dominance_and_prune():
    dirs = ("min", "min")
    front = frozenset({(1, 5), (2, 2), (3, 3), (1, 5)})
    pruned = pareto_prune(front, dirs)
    assert pruned == frozenset({(1, 5), (2, 2)})
    # a maximising coordinate flips the comparison
    assert pareto_prune(frozenset({(1, 5), (2, 2)}), ("min", "max")) == frozenset({(1, 5)})


def test_prune_matches_the_pairwise_reference():
    # fronts of 1-3 components in either direction, with INF, ratios and ties
    rng = random.Random(27)
    draws = (0, 1, 2, 3, Fraction(1, 2), Fraction(5, 2), INF)
    for _ in range(3000):
        dirs = tuple(rng.choice(("min", "max")) for _ in range(rng.randint(1, 3)))
        front = frozenset(tuple(rng.choice(draws) for _ in dirs)
                          for _ in range(rng.randint(0, 12)))
        assert pareto_prune(front, dirs) == pairwise_prune(front, dirs)


def test_pareto_product_construction():
    d = pareto_product([builtin("min-cost"), builtin("min-skill")])
    assert d.name == "pareto(min-cost,min-skill)"
    assert d.kind is ValueKind.PARETO
    assert tuple(c.sense for c in d.components) == ("min", "min")
    assert "and-over-or" in d.laws and not {"seq-over-and", "seq-over-or"} <= d.laws
    assert d.seq_op is None
    mixed = builtin("pareto(min-cost, prob-max)")
    assert tuple(c.sense for c in mixed.components) == ("min", "max")
    # a product is a semiring, and absorbing, only when every component is
    assert d.laws == {"and-over-or", "or-absorbs-and"}
    assert mixed.laws == {"and-over-or", "or-absorbs-and"}
    damage = builtin("pareto(min-cost,max-damage)")
    assert damage.laws == {"and-over-or"}
    plain = domain_with(builtin("min-skill"), laws=frozenset())
    assert pareto_product([builtin("min-cost"), plain]).laws == frozenset()
    # and the law checker refuses the claim where a component is not absorbing
    for false_claim in (builtin("max-challenge"), damage):
        claimed = domain_with(false_claim, laws=false_claim.laws | {"or-absorbs-and"})
        caught = check_semiring_laws(claimed, law_triples(claimed, 300, 5))
        assert not caught.result("or-absorbs-and").holds, false_claim.name
    # no product is idempotent, not even of idempotent components: points
    # combine across, and with two max components (2, 2) beats both
    challenges = builtin("pareto(max-challenge,max-challenge)")
    front = frozenset({(1, 2), (2, 1)})
    assert challenges.and_op(front, front) == {(2, 2)}
    assert "and-idempotent" not in challenges.laws
    claimed = domain_with(challenges, laws=challenges.laws | {"and-idempotent"})
    caught = check_semiring_laws(claimed, [(front, front, front)]).result("and-idempotent")
    assert not caught.holds
    for empty in (lambda: pareto_product([]), lambda: builtin("pareto()"),
                  lambda: builtin("pareto( )")):
        with pytest.raises(EmptyProduct, match=r"^pareto product needs at least one component$"):
            empty()
    # a blank component is refused by name, not dropped from the product
    for name in ("pareto(min-cost,,)", "pareto(,min-cost)"):
        with pytest.raises(UnknownDomain, match=r"^unknown domain ''; builtins: "):
            builtin(name)
    for nested in (lambda: pareto_product([d, builtin("min-cost")]),
                   lambda: builtin("pareto(min-cost,pareto(max-damage))"),
                   lambda: builtin("pareto(pareto(min-cost,min-skill),max-damage)")):
        with pytest.raises(EmptyProduct, match=r"^pareto products do not nest$"):
            nested()
    with pytest.raises(EmptyProduct,
                       match=r"^pareto component cost-to-defend has no optimisation sense$"):
        pareto_product([builtin("min-cost"), builtin("cost-to-defend")])
    with pytest.raises(EmptyProduct,
                       match=r"^pareto component cost-to-defend has no optimisation sense$"):
        builtin("pareto(cost-to-defend,min-cost)")


def test_pareto_ops_golden():
    d = pareto_product([builtin("min-cost"), builtin("min-skill")])
    f = frozenset({(1, 10)})
    g = frozenset({(2, 2)})
    assert d.or_op(f, g) == frozenset({(1, 10), (2, 2)})
    # and: costs add, skills max, then prune
    assert d.and_op(f, g) == frozenset({(3, 10)})


def test_pareto_product_is_a_semiring_on_random_fronts():
    d = pareto_product([builtin("min-cost"), builtin("min-skill")])
    report = check_semiring_laws(d, law_triples(d, 300, 5))
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
