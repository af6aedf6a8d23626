"""The four workloads: which models, which requests, and the expected answers.

A workload builds a `Corpus` from a seed. Sizes are fixed per workload and
only the shapes and values are drawn, so every seed gives the same request
mix at the same model sizes. `scale="tiny"` shrinks every size for the
self-test; the benchmark always runs "full".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import corpus as gen
import reference as ref


@dataclass
class Request:
    argv: list[str]
    check: object  # (exit code, stdout) -> None | reason
    # the type name of the one exception this request may raise without
    # making the run incorrect; it still counts as a failed request
    known_error: str | None = None


@dataclass
class Corpus:
    files: dict[str, str] = field(default_factory=dict)  # file name -> model text
    requests: list[Request] = field(default_factory=list)

    def add(self, m: gen.Model) -> str:
        name = f"m{len(self.files):04d}-{m.name}.at"
        self.files[name] = m.text()
        return name


SIZES = {
    "full": {
        "static-levels": (14,),
        "static-random": (8192, 32768),
        "dynamic-levels": (9, 10, 11),
        "dynamic-random": (1024, 2048),
        # sizes a factor of about 1.5 apart, so that request times lie
        # close together and the percentiles do not jump across a gap
        "ladders": (64, 96, 128, 192, 256, 384, 512, 1024),
        "intervals": (128, 192, 256, 384, 512, 768, 1024),
        "small-models": 240,
        "small-bas": (6, 18),
    },
    "tiny": {
        "static-levels": (4,),
        "static-random": (9, 17),
        "dynamic-levels": (3, 4),
        "dynamic-random": (9, 17),
        "ladders": (6, 9),
        "intervals": (10, 14),
        "small-models": 20,
        "small-bas": (3, 7),
    },
}


def static_tree(seed: int, scale: str = "full") -> Corpus:
    """Large static AND/OR trees: parsing dominates every request."""
    rng = random.Random(seed)
    size = SIZES[scale]
    models = [gen.balanced_tree(k, ("and", "or")) for k in size["static-levels"]]
    models += [gen.random_tree(n, ("and", "or"), rng) for n in size["static-random"]]
    c = Corpus()
    for m in models:
        gen.attribute(m, "cost", gen.cost_value, rng)
        gen.attribute(m, "prob", gen.prob_value, rng)
        path = c.add(m)
        cost = ref.tree_fold(m, "cost", min, ref.nat_add)
        prob = ref.tree_fold(m, "prob", max, lambda x, y: x * y)
        c.requests += [
            Request(["metric", path, "--domain", "min-cost", "--attribution", "cost"],
                    ref.expect_exact(ref.metric_text("min-cost", gen.render(cost), "bu"))),
            Request(["metric", path, "--domain", "prob-max", "--attribution", "prob",
                     "--format", "json"],
                    ref.expect_metric_json("prob-max", gen.render(prob), "bu", len(m))),
            Request(["check", path], ref.expect_exact("tree, static\n")),
            Request(["dump", path, "--what", "model"], ref.expect_exact(m.text(canonical=True))),
        ]
    return c


# ladders this long recursed past the interpreter's default limit while
# compiling when the benchmark was written
RECURSION_RUNGS = 1024


def shared_dag(seed: int, scale: str = "full") -> Corpus:
    """Ladders and interval DAGs: compiling the decision diagram dominates.
    The largest ladder is past the size where compilation recursed too
    deep when this benchmark was written; it stays in the mix on purpose."""
    rng = random.Random(seed)
    size = SIZES[scale]
    models = [(gen.ladder(r, rng), r >= RECURSION_RUNGS) for r in size["ladders"]]
    for n in size["intervals"]:
        models += [(m, False) for m in gen.interval_pair(n, rng)]
    c = Corpus()
    for m, too_deep in models:
        path = c.add(m)
        best = ref.interval_optimum(m)
        known = "RecursionError" if too_deep else None
        c.requests += [
            Request(["metric", path, "--domain", "min-cost", "--attribution", "cost"],
                    ref.expect_exact(ref.metric_text("min-cost", gen.render(best), "bdd")),
                    known),
            Request(["ktop", path, "--domain", "min-cost", "--attribution", "cost", "--k", "5"],
                    ref.expect_ktop_intervals(m, 5, best), known),
        ]
    return c


def dynamic_tree(seed: int, scale: str = "full") -> Corpus:
    """Dynamic proper trees: the well-formedness check dominates."""
    rng = random.Random(seed)
    size = SIZES[scale]
    gates = ("sand", "or", "and")
    models = [gen.balanced_tree(k, gates) for k in size["dynamic-levels"]]
    models += [gen.steady_dynamic_tree(n, rng) for n in size["dynamic-random"]]
    c = Corpus()
    for m in models:
        gen.attribute(m, "cost", gen.cost_value, rng)
        gen.attribute(m, "skill", gen.skill_value, rng)
        path = c.add(m)
        cost = ref.tree_fold(m, "cost", min, ref.nat_add)
        skill = ref.tree_fold(m, "skill", min, max)
        c.requests += [
            Request(["check", path], ref.expect_exact(
                "tree, dynamic, well-formed\n" if m.dynamic else "tree, static\n")),
            Request(["metric", path, "--domain", "min-cost", "--attribution", "cost"],
                    ref.expect_exact(ref.metric_text("min-cost", gen.render(cost), "bu"))),
            Request(["metric", path, "--domain", "min-skill", "--attribution", "skill"],
                    ref.expect_exact(ref.metric_text("min-skill", gen.render(skill), "bu"))),
        ]
    return c


FAMILIES = ("static-tree", "static-dag", "dynamic-tree", "dynamic-dag", "ill-formed")


def small_batch(seed: int, scale: str = "full") -> Corpus:
    """Hundreds of small models through all five commands; per-request
    overhead dominates except for the oracle requests, which form the tail."""
    rng = random.Random(seed)
    size = SIZES[scale]
    lo, hi = size["small-bas"]
    c = Corpus()
    for i in range(size["small-models"]):
        family = FAMILIES[i % len(FAMILIES)]
        n_bas = lo + (i // len(FAMILIES)) % (hi - lo + 1)
        m = gen.small_model(n_bas, family, rng)
        c.requests += small_requests(m, c.add(m))
    return c


def small_requests(m: gen.Model, path: str) -> list[Request]:
    shape = "tree" if m.is_tree else "DAG"
    out = [Request(["dump", path, "--what", "model"], ref.expect_exact(m.text(canonical=True)))]
    cost = ["--domain", "min-cost", "--attribution", "cost"]
    suite = ref.minimal_attacks(m)
    if not m.dynamic:
        algorithm = "bu" if m.is_tree else "bdd"
        out += [
            Request(["check", path], ref.expect_exact(f"{shape}, static\n")),
            Request(["semantics", path], ref.expect_exact(ref.semantics_text(m, suite, set()))),
            Request(["metric", path] + cost, ref.expect_exact(
                ref.metric_text("min-cost", gen.render(ref.min_cost(m, suite)), algorithm))),
            Request(["metric", path, "--domain", "cost-to-defend", "--attribution", "cost"],
                    ref.expect_exact(ref.metric_text(
                        "cost-to-defend", gen.render(ref.cost_to_defend(m, suite)), "oracle",
                        [ref.ORACLE_WARNING]))),
            Request(["metric", path, "--domain", "pareto(min-cost,prob-max)",
                     "--attribution", "cost,prob"],
                    ref.expect_exact(ref.metric_text(
                        "pareto(min-cost,prob-max)", ref.pareto_cost_prob(m, suite), algorithm))),
            Request(["ktop", path, "--k", "3"] + cost, ref.expect_ktop_suite(m, 3, suite)),
        ]
        return out
    edges = ref.ordering_edges(m)
    if not ref.acyclic(m.bas_order(), edges):
        out.append(Request(["check", path], ref.expect_check_ill_formed(m, edges)))
        return out
    algorithm, warnings = ("bu", []) if m.is_tree else ("oracle", [ref.DYNAMIC_DAG_WARNING])
    out += [
        Request(["check", path], ref.expect_exact(f"{shape}, dynamic, well-formed\n")),
        Request(["semantics", path], ref.expect_exact(ref.semantics_text(m, suite, edges))),
        Request(["metric", path] + cost, ref.expect_exact(ref.metric_text(
            "min-cost", gen.render(ref.min_cost(m, suite)), algorithm, warnings))),
    ]
    return out


# Passes a run makes per 20 seconds of --seconds: about as many as fit in
# 20 seconds at the seed, counting the untimed work between requests and
# leaving out shared-dag's failing ladder, which a run sends once. The count
# is fixed, not timed, so that every run of a workload sends the same
# requests whatever the host's speed.
PASSES_PER_20_S = {
    "static-tree": 2,
    "shared-dag": 2,
    "dynamic-tree": 5,
    "small-batch": 2,
}

WORKLOADS = {
    "static-tree": static_tree,
    "shared-dag": shared_dag,
    "dynamic-tree": dynamic_tree,
    "small-batch": small_batch,
}
