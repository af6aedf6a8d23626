"""Per-layer spans taken from outside the package.

`Tracer.install()` swaps each public function on the CLI path for a timing
wrapper in every atquant module that calls it, and `uninstall()` puts the
originals back. Nothing inside `src/atquant` changes. Spans nest: a span's
self time is its duration minus that of the spans opened inside it.
Counters that cost a walk (reachable diagram nodes, oracle rows) are read
after the request's clock has stopped, from the objects the calls returned.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

# span name -> the (module, attribute) sites that reach the call
SITES = {
    "io.parse": [("cli", "parse_model")],
    "io.emit": [("cli", "emit_result"), ("cli", "emit_model")],
    "tree.classify": [(m, "classify") for m in ("cli", "analysis", "bdd", "semantics")],
    "tree.bas_of": [(m, "bas_of") for m in ("cli", "io", "analysis", "bdd", "semantics")],
    "analysis.validate": [("analysis", "validate_attribution")],
    "analysis.analyze": [("cli", "analyze")],
    "bdd.compile": [("analysis", "from_structure_function"), ("cli", "from_structure_function")],
    "bdd.minimise": [("analysis", "minimise"), ("cli", "minimise")],
    "semantics.well_formed": [(m, "is_well_formed") for m in ("cli", "analysis", "semantics")],
    "semantics.oracle": [
        ("analysis", "oracle_metric_static"),
        ("analysis", "oracle_metric_dynamic"),
        ("cli", "minimal_attacks_static"),
        ("cli", "minimal_attacks_dynamic"),
    ],
}

ROUTES = ("bu", "bdd", "ktop", "oracle")


class Tracer:
    def __init__(self):
        self.spans: list = []  # (request, name, start, end, parent index)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.top_s = 0.0  # summed duration of spans with no parent
        self.counts: Counter = Counter()
        self.request = -1
        self._open: list[list] = []  # [span index, child seconds]
        self._deferred: list = []
        self._saved: list = []

    def install(self) -> None:
        from atquant.tree import bas_of

        def compiled(args, b):
            self.counts["bdd.unique_nodes"] += len(b.store.unique)
            self.counts["bdd.apply_memo_entries"] += len(b.store.apply_memo)
            self._deferred.append(lambda: self.counts.update({"bdd.reachable_nodes": b.node_count()}))

        def parsed(args, doc):
            self.counts["io.parse_chars"] += len(args[0])

        def analysed(args, res):
            self.counts[f"analysis.route.{res.algorithm}"] += 1

        def enumerated(args, out):
            t = args[0]
            self._deferred.append(
                lambda: self.counts.update({"semantics.oracle_rows": 1 << len(bas_of(t))}))

        hooks = {"bdd.compile": compiled, "io.parse": parsed,
                 "analysis.analyze": analysed, "semantics.oracle": enumerated}
        for name, sites in SITES.items():
            for mod, attr in sites:
                module = importlib.import_module(f"atquant.{mod}")
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            self._open.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except RecursionError:
                if name.startswith("bdd."):
                    self.counts["bdd.recursion_failures"] += 1
                raise
            finally:
                end = perf_counter()
                self._open.pop()
                took = end - start
                if self._open:
                    self._open[-1][1] += took
                else:
                    self.top_s += took
                self.self_s[name] += took - frame[1]
                self.total_s[name] += took
                self.spans[index] = (self.request, name, start, end, parent)
            if hook is not None:
                hook(args, out)
            return out
        return traced

    def settle(self) -> None:
        """Read the deferred counters; call between requests, off the clock."""
        for read in self._deferred:
            read()
        self._deferred.clear()
        self._open.clear()


def layer_metrics(tr: Tracer, requests: int, passes: int, traced_s: float,
                  overhead_ratio: float) -> dict:
    """Per-layer figures: times in ms per request (self time unless named
    otherwise), counts per traced pass over the corpus. traced_s is the
    traced passes' raw request time; overhead_ratio is their time over the
    untraced passes', both rescaled by the host's speed.

    cli.overhead_ms is the traced request time that no span covers
    (argument parsing, file reads, attribution assembly). It is taken from
    the traced passes themselves: subtracting spans from the untraced
    passes' time mixes two passes' noise and can come out negative."""
    def ms(seconds):
        return seconds * 1000 / requests

    def per_pass(key):
        return tr.counts[key] / passes

    out = {
        "io.parse_ms": ms(tr.self_s["io.parse"]),
        "io.parse_mb_per_s": (tr.counts["io.parse_chars"] / 1e6 / tr.total_s["io.parse"]
                              if tr.total_s["io.parse"] else 0.0),
        "io.emit_ms": ms(tr.self_s["io.emit"]),
        "cli.overhead_ms": ms(traced_s - tr.top_s),
        "tree.classify_ms": ms(tr.self_s["tree.classify"]),
        "tree.bas_of_ms": ms(tr.self_s["tree.bas_of"]),
        "analysis.validate_ms": ms(tr.self_s["analysis.validate"]),
        "analysis.analyze_ms": ms(tr.total_s["analysis.analyze"]),
        "analysis.engine_self_ms": ms(tr.self_s["analysis.analyze"]),
    }
    for route in ROUTES:
        out[f"analysis.route.{route}"] = per_pass(f"analysis.route.{route}")
    unique = tr.counts["bdd.unique_nodes"]
    oracle_s = tr.total_s["semantics.oracle"]
    out.update({
        "bdd.compile_ms": ms(tr.self_s["bdd.compile"]),
        "bdd.minimise_ms": ms(tr.self_s["bdd.minimise"]),
        "bdd.unique_nodes": per_pass("bdd.unique_nodes"),
        "bdd.reachable_nodes": per_pass("bdd.reachable_nodes"),
        "bdd.useful_ratio": tr.counts["bdd.reachable_nodes"] / unique if unique else 0.0,
        "bdd.apply_memo_entries": per_pass("bdd.apply_memo_entries"),
        "bdd.recursion_failures": per_pass("bdd.recursion_failures"),
        "semantics.well_formed_ms": ms(tr.self_s["semantics.well_formed"]),
        "semantics.oracle_ms": ms(tr.self_s["semantics.oracle"]),
        "semantics.oracle_rows": per_pass("semantics.oracle_rows"),
        "semantics.oracle_rows_per_s": (tr.counts["semantics.oracle_rows"] / oracle_s
                                        if oracle_s else 0.0),
        "trace.overhead_ratio": overhead_ratio,
    })
    return out
