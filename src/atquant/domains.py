"""Attribute domains: the algebra the metrics are computed in.

A domain bundles a value kind with a disjunctive operator (folded across
alternative attacks), a conjunctive operator (folded within one attack) and,
for dynamic models, a sequential operator. It holds no identity element,
as no engine reads one: the tree fold combines children, and the diagram
fold reads no terminal (see analysis). Scalar values are exact: python
ints and fractions.Fraction, plus math.inf as INF, which orders above every
one of them; only addition needs a guard (nat_add) to saturate at INF.
Pareto fronts are frozensets of component tuples; a product's
conjunction refuses to build more than 2**budget points, through the
oracle's own guard, check_budget.

A domain declares, in `laws`, which laws of the vocabulary LAWS its
operators satisfy: and-over-or (and_op distributes over or_op: a
semiring), seq-over-and and seq-over-or (seq_op distributes over each),
seq-is-and (seq_op gives and_op's values), and-is-plus (and_op is
addition), or-absorbs-and (or_op(x, and_op(x, y)) is x: adding to an
attack never makes it preferred) and and-idempotent (and_op(x, x) is x).
The engine table of analysis reads them, bu_bdd reads or-absorbs-and to
fold the compiled diagram, and the dynamic oracle reads seq-is-and and
and-idempotent to pick an attack's fold; nothing else says which engine
is exact. The declarations are honest: integer addition does not
distribute over itself, so min-cost, whose sequential operator is its
conjunctive one, declares seq-is-and and not seq-over-and; and
max-damage and max-challenge, whose or_op prefers a larger attack value,
do not declare or-absorbs-and. check_semiring_laws probes what a domain
declares.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from functools import partial
from operator import itemgetter, mul
from random import Random
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import BadAttributeValue, BudgetExceeded, EmptyProduct, InvalidDomain, UnknownDomain
from .record import Record


INF = math.inf  # the one infinity a value holds; compared by identity


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


def nat_add(x, y):
    """x + y saturating at INF: an int or Fraction plus a float would make a
    new float, or overflow past the float range."""
    if x is INF or y is INF:
        return INF
    return x + y


class ValueKind(Enum):
    NATURAL = "natural"  # N ∪ {inf}, exact rationals tolerated
    PROBABILITY = "probability"  # Fraction in [0, 1]
    PARETO = "pareto"  # frozenset of component tuples


def _distributes(outer, inner, x, y, z) -> bool:
    return outer(x, inner(y, z)) == inner(outer(x, y), outer(x, z))


# law -> whether it holds of the triple x, y, z in domain d
_LAW_PROBES = {
    "and-over-or": lambda d, x, y, z: _distributes(d.and_op, d.or_op, x, y, z),
    "seq-over-and": lambda d, x, y, z: _distributes(d.seq_op, d.and_op, x, y, z),
    "seq-over-or": lambda d, x, y, z: _distributes(d.seq_op, d.or_op, x, y, z),
    "seq-is-and": lambda d, x, y, z: d.seq_op(x, y) == d.and_op(x, y),
    "and-is-plus": lambda d, x, y, z: d.and_op(x, y) == nat_add(x, y),
    "or-absorbs-and": lambda d, x, y, z: d.or_op(x, d.and_op(x, y)) == x,
    "and-idempotent": lambda d, x, y, z: d.and_op(x, x) == x,
}
LAWS = frozenset(_LAW_PROBES)


class AttributeDomain(Record):
    """(V, or_op, and_op[, seq_op]), with no identity elements.

    or_op is the fold across alternative attacks, and_op the fold within an
    attack, seq_op the fold along a sequential chain (dynamic models only;
    None when sequential composition is undefined for this domain). laws,
    any iterable of law names but a string, is kept as the frozenset of the
    laws of LAWS that the operators satisfy; a seq-* law needs a seq_op,
    and and-is-plus a sense, "min" or "max" (else None), by which k-top
    ranks attacks, and which a builtin min or max or_op may not
    contradict. kind is a ValueKind, and components, the component
    domains, are given exactly when it is PARETO. Every field is compared,
    in the order of the constructor's parameters.
    """

    _compared = ("name", "kind", "or_op", "and_op", "seq_op", "laws", "sense", "components")

    def __init__(self, name: str, kind: ValueKind, or_op: Callable, and_op: Callable,
                 seq_op: Optional[Callable] = None, laws: Iterable[str] = frozenset(),
                 sense: Optional[str] = None,  # "min" | "max": what or_op optimises
                 components: Optional[tuple[AttributeDomain, ...]] = None):  # pareto only
        if isinstance(laws, str):  # else read as its characters
            raise InvalidDomain(f"{name}: laws {laws!r} is one string; "
                                "give a collection of law names")
        laws = frozenset(laws)
        for law in sorted(laws):
            if law not in LAWS:
                known = ", ".join(sorted(LAWS))
                raise InvalidDomain(f"{name}: unknown law {law!r}; laws: {known}")
            if law.startswith("seq-") and seq_op is None:
                raise InvalidDomain(f"{name}: law {law!r} needs a sequential operator")
        if not isinstance(kind, ValueKind):
            kinds = ", ".join(k.value for k in ValueKind)
            raise InvalidDomain(f"{name}: kind {kind!r} is no ValueKind; kinds: {kinds}")
        if kind is ValueKind.PARETO and not components:
            raise InvalidDomain(f"{name}: kind pareto needs components")
        if kind is not ValueKind.PARETO and components is not None:
            raise InvalidDomain(f"{name}: components need kind pareto, not {kind.value}")
        if sense not in (None, "min", "max"):
            raise InvalidDomain(f"{name}: unknown sense {sense!r}; senses: min, max")
        # k-top ranks by the sense: one that contradicts a builtin or_op
        # would rank the worst attack first
        if (or_op is min and sense == "max") or (or_op is max and sense == "min"):
            raise InvalidDomain(f"{name}: or_op {or_op.__name__} contradicts sense {sense!r}")
        if "and-is-plus" in laws and sense is None:
            raise InvalidDomain(f"{name}: law 'and-is-plus' needs a sense")
        self.__dict__.update(name=name, kind=kind, or_op=or_op, and_op=and_op, seq_op=seq_op,
                             laws=laws, sense=sense, components=components)

    def validate_value(self, v) -> None:
        if self.kind is ValueKind.NATURAL:
            if v is INF:
                return
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise BadAttributeValue(f"{self.name}: got {type(v).__name__} {v!r}; values "
                                        "are ints, Fractions and atquant.INF")
            # signs and bounds on numerator and denominator (always positive):
            # comparing a Fraction runs Fraction._richcmp in Python
            if v.numerator < 0:
                raise BadAttributeValue(f"{self.name}: negative value {render_value(v)}")
        elif self.kind is ValueKind.PROBABILITY:
            if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
                raise BadAttributeValue(f"{self.name}: expected an exact rational, got {v!r}")
            if not 0 <= v.numerator <= v.denominator:
                raise BadAttributeValue(
                    f"{self.name}: probability {render_value(v)} outside [0, 1]"
                )
        else:
            if not isinstance(v, frozenset):
                raise BadAttributeValue(f"{self.name}: expected a pareto front, got {v!r}")
            for vec in v:
                if not isinstance(vec, tuple) or len(vec) != len(self.components):
                    raise BadAttributeValue(f"{self.name}: bad front element {vec!r}")
                for comp, x in zip(self.components, vec):
                    comp.validate_value(x)

    def random_value(self, rng: Random):
        """Small exact values for randomized law checking and oracles."""
        if self.kind is ValueKind.NATURAL:
            if rng.random() < 0.1:
                return INF
            return rng.randint(0, 20)
        if self.kind is ValueKind.PROBABILITY:
            den = rng.choice([1, 2, 3, 4, 5, 8, 10, 100])
            return Fraction(rng.randint(0, den), den)
        vecs = []
        for _ in range(rng.randint(1, 3)):
            vecs.append(tuple(c.random_value(rng) for c in self.components))
        return pareto_prune(frozenset(vecs), tuple(c.sense for c in self.components))


def _dominates(u: tuple, w: tuple, directions: Sequence[str]) -> bool:
    """u at least as good everywhere and strictly better somewhere."""
    strict = False
    for a, b, d in zip(u, w, directions):
        if d == "min":
            if a > b:
                return False
            strict = strict or a < b
        else:
            if a < b:
                return False
            strict = strict or a > b
    return strict


def pareto_prune(front: frozenset, directions: Sequence[str]) -> frozenset:
    """The points of front that no other point dominates. One stable sort
    per component, last component first, orders the points
    lexicographically, better first, so a point that dominates another
    comes before it; and a dominated point is dominated by a kept one, as
    dominance is transitive. Each point is tested against the kept points
    only, newest first."""
    points = list(front)
    for i in reversed(range(len(directions))):
        points.sort(key=itemgetter(i), reverse=directions[i] == "max")
    kept: list[tuple] = []
    for u in points:
        if not any(_dominates(w, u, directions) for w in reversed(kept)):
            kept.append(u)
    return frozenset(kept)


# the basic actions the oracle enumerates unless told otherwise
DEFAULT_BUDGET = 20


def check_budget(size: int, budget: int, message: str) -> None:
    """Refuse exponential work: raise BudgetExceeded(message) when `size`,
    the rows or points about to be built, is past 2**budget, the rows of
    the oracle's truth table at `budget` basic actions."""
    # size > 2**budget needs size.bit_length() > budget, so the power is
    # built only when it is at most twice size
    if budget < size.bit_length() and size > 2 ** budget:
        raise BudgetExceeded(message)


def builtin(name: str, budget: int = DEFAULT_BUDGET) -> AttributeDomain:
    """Look up a builtin domain by name; pareto(a,b,...) builds a product
    whose conjunctions refuse past `budget` (see `pareto_product`)."""
    m = re.fullmatch(r"pareto\((.*)\)", name.strip())
    if m:
        if "pareto(" in m.group(1):
            raise EmptyProduct("pareto products do not nest")
        # only pareto() is empty: a blank name between commas is an unknown domain
        parts = [p.strip() for p in m.group(1).split(",")] if m.group(1).strip() else []
        return pareto_product([builtin(p) for p in parts], budget)
    try:
        return _BUILTINS[name.strip()]
    except KeyError:
        known = ", ".join(sorted(_BUILTINS))
        raise UnknownDomain(f"unknown domain {name!r}; builtins: {known}, pareto(...)") from None


def pareto_product(
    components: Sequence[AttributeDomain], budget: int = DEFAULT_BUDGET
) -> AttributeDomain:
    """Product domain over vectors of the component values.

    Disjunction is union-then-prune of fronts; conjunction combines fronts
    pairwise with the componentwise conjunctive ops, then prunes, and
    refuses (BudgetExceeded) to build more than 2**budget points; each
    component's `sense` says which way it optimises. Sequential composition
    is left undefined (open problem for the dynamic case). The product
    declares and-over-or, and or-absorbs-and, when every component does; it
    never declares and-idempotent, as a front's points combine across: with
    two max components, {(1, 2), (2, 1)} and itself make {(2, 2)}.
    """
    components = tuple(components)
    if not components:
        raise EmptyProduct("pareto product needs at least one component")
    for c in components:
        if c.kind is ValueKind.PARETO:
            raise EmptyProduct("pareto products do not nest")
        if c.sense is None:
            raise EmptyProduct(f"pareto component {c.name} has no optimisation sense")
    directions = tuple(c.sense for c in components)

    def or_op(f, g):
        return pareto_prune(f | g, directions)

    def and_op(f, g):
        check_budget(len(f) * len(g), budget,
                     f"a pareto conjunction of {len(f)} x {len(g)} points exceeds 2**{budget}")
        combined = frozenset(
            tuple(c.and_op(a, b) for c, a, b in zip(components, u, w)) for u in f for w in g
        )
        return pareto_prune(combined, directions)

    name = "pareto(" + ",".join(c.name for c in components) + ")"
    return AttributeDomain(
        name=name,
        kind=ValueKind.PARETO,
        or_op=or_op,
        and_op=and_op,
        seq_op=None,
        laws={law for law in ("and-over-or", "or-absorbs-and")
              if all(law in c.laws for c in components)},
        components=components,
    )


def _nat(name, or_op, and_op, seq_op, laws, sense) -> AttributeDomain:
    return AttributeDomain(name, ValueKind.NATURAL, or_op, and_op, seq_op, laws, sense)


# addition within an attack, sequential or not; a dynamic semiring whose
# and_op is max; and absorption, declared by a domain whose or_op keeps x
# over x and_op y
_ADDITIVE = {"and-over-or", "seq-is-and", "and-is-plus"}
_DYNAMIC = {"and-over-or", "seq-over-and", "seq-over-or", "and-idempotent"}
_ABSORBS = {"or-absorbs-and"}

# built once: a domain is frozen, so every lookup shares it
_BUILTINS: dict[str, AttributeDomain] = {d.name: d for d in (
    # (N∞, min, +), seq +: cheapest attack; + over + is not distributive,
    # so not a dynamic semiring even though seq composition is well defined.
    _nat("min-cost", min, nat_add, nat_add, _ADDITIVE | _ABSORBS, "min"),
    # (N∞, min, +), seq +: shortest one-at-a-time schedule.
    _nat("min-time-seq", min, nat_add, nat_add, _ADDITIVE | _ABSORBS, "min"),
    # (N∞, min, max), seq +: shortest schedule with unbounded parallelism;
    # + distributes over max and min, so this IS a dynamic semiring.
    _nat("min-time-par", min, max, nat_add, _DYNAMIC | _ABSORBS, "min"),
    # (N∞, min, max), seq max: weakest adversary that still gets through.
    _nat("min-skill", min, max, max, _DYNAMIC | _ABSORBS | {"seq-is-and"}, "min"),
    # (N∞, max, max), seq max: hardest single obstacle on the best path;
    # max(x, max(x, y)) is not x once y > x, so no absorption.
    _nat("max-challenge", max, max, max, _DYNAMIC | {"seq-is-and"}, "max"),
    # (N∞, max, +), seq +: worst-case cumulative damage; max(x, x + y) is
    # not x once y > 0, so no absorption.
    _nat("max-damage", max, nat_add, nat_add, _ADDITIVE, "max"),
    # ([0,1], max, *), seq *: probability of the most likely attack; a
    # product of probabilities is at most each factor, so or absorbs and.
    AttributeDomain("prob-max", ValueKind.PROBABILITY, max, mul, mul,
                    {"and-over-or", "seq-is-and"} | _ABSORBS, "max"),
    # (N∞, +, min): cost to defend against every attack. min does NOT
    # distribute over +; kept as the stock non-semiring example, usable
    # only through the definitional oracle.
    AttributeDomain("cost-to-defend", ValueKind.NATURAL, nat_add, min, None, {"and-idempotent"}),
)}


BUILTIN_NAMES = tuple(sorted(_BUILTINS))


# -- law checking -------------------------------------------------------------

class LawResult(NamedTuple):
    law: str
    holds: bool
    counterexample: Optional[tuple] = None


class LawReport(NamedTuple):
    domain: str
    results: tuple[LawResult, ...]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.results)

    def result(self, law: str) -> LawResult:
        for r in self.results:
            if r.law == law:
                return r
        raise KeyError(law)


def check_semiring_laws(
    domain: AttributeDomain,
    triples: Optional[Sequence[tuple]] = None,
) -> LawReport:
    """Probe the declared algebra laws on concrete value triples.

    Checks associativity/commutativity of every present operator
    unconditionally, and each law of LAWS the domain declares;
    and-over-or, the law every route but the oracle needs, is probed even
    when undeclared, so a non-semiring's failure is visible. Reports one
    pass/fail per law with the first counterexample found. The default
    triples are 1,000 drawn by `random_value` from Random(0).
    """
    if triples is None:
        rng = Random(0)
        triples = [tuple(domain.random_value(rng) for _ in range(3)) for _ in range(1000)]

    ops = [("or", domain.or_op), ("and", domain.and_op)]
    if domain.seq_op is not None:
        ops.append(("seq", domain.seq_op))

    results: list[LawResult] = []
    for opname, op in ops:
        results.append(_probe(f"{opname}-associative", triples,
                              lambda x, y, z, op=op: op(op(x, y), z) == op(x, op(y, z))))
        results.append(_probe(f"{opname}-commutative", triples,
                              lambda x, y, z, op=op: op(x, y) == op(y, x)))
    for law, holds in _LAW_PROBES.items():
        if law in domain.laws or law == "and-over-or":
            results.append(_probe(law, triples, partial(holds, domain)))
    return LawReport(domain.name, tuple(results))


def _probe(law: str, triples, pred) -> LawResult:
    for t in triples:
        x, y, z = t
        if not pred(x, y, z):
            return LawResult(law, False, t)
    return LawResult(law, True, None)
