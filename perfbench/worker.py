"""Request loop, run in a process of its own so that its peak memory is the
program's and not the corpus generator's.

    python3 worker.py WORKDIR probe
    python3 worker.py WORKDIR run PASSES TRACE

Both modes import atquant from the checkout's `src` and run the warm-up
requests. `probe` then prints the monotonic clock reading at which it is
ready and the median time of SETUP_REFERENCE_LOOPS reference loops run
after that, and stops. `run` drives `atquant.cli.main(argv)` in a closed loop,
one request at a time, over PASSES whole passes of the corpus. With
TRACE=1 it first makes one untimed full pass, so that heap growth and
first-touch page faults fall on neither side, and then PASSES // 2 pairs
(at least one) of an untraced and a traced pass, the order swapped from
pair to pair. Without tracing, a request that is expected to raise (the
spec's "once" list) is sent in the first pass only, because at the seed
each such request took seconds to fail. Each distinct
(exit code, output) of a request is kept once,
and so is each type of exception it raised; the parent checks them all.

Before a request, whenever PROBE_EVERY_S has passed since the last probe,
the worker times `reference_loop`, a fixed piece of plain Python that does
not touch atquant. The host this benchmark was written on is shared and
its speed drifts; the probes rescale request times (speed_factors,
README.md).
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE_EVERY_S = 0.25
SETUP_REFERENCE_LOOPS = 3
# the reference loop's usual time on the baseline host; a rescaled time
# reads as the milliseconds the request would take there at that speed
REF_NOMINAL_S = 0.016
NEAREST_PROBES = 5


def reference_loop() -> int:
    """Fixed work that builds and reads ints, strings, lists, sets and dicts,
    independent of atquant: about 16 ms on the baseline host. Of the loops
    tried, the ratio of one request's time to the probes around it varied
    least with this one, on static-tree and on shared-dag requests; the
    others were loops over prebuilt data that allocate only small objects
    (both workloads) and random reads from a 32 MB buffer (shared-dag)."""
    rng = random.Random(5)
    total = 0
    for _ in range(4):
        xs = [rng.randrange(1 << 20) for _ in range(4000)]
        seen = set(xs)
        index = {x: i for i, x in enumerate(xs)}
        xs.sort()
        words = " ".join(f"n{x}" for x in xs[::4]).split()
        total += sum(index[x] & 7 for x in xs[::3] if x in seen) + len(words)
    return total


def probe() -> list:
    """[start, seconds] of one reference loop, with the collector off so
    that the size of the program's heap does not enter its time."""
    gc.disable()
    start = time.perf_counter()
    reference_loop()
    took = time.perf_counter() - start
    gc.enable()
    return [start, took]


def speed_factors(records: list, probes: list) -> list[float]:
    """Per record: REF_NOMINAL_S over the median time of the NEAREST_PROBES
    reference loops around the request's start (the last ones before it and
    the first after it), so that a stretch in which the shared host ran
    slow or fast does not enter the rescaled time."""
    starts = [p[0] for p in probes]
    times = [p[1] for p in probes]
    k = min(NEAREST_PROBES, len(probes))
    factors = []
    for rec in records:
        before = bisect.bisect_right(starts, rec[4])
        lo = min(max(0, before - (k + 1) // 2), len(probes) - k)
        factors.append(REF_NOMINAL_S / statistics.median(times[lo:lo + k]))
    return factors


def call(main, argv):
    """One request: (seconds, exit code or None, stdout, error type or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code, raised = main(argv), None
        except (Exception, SystemExit) as e:  # a failed request, judged by the parent
            code, raised = None, type(e).__name__
        took = time.perf_counter() - start
    return took, code, out.getvalue(), raised


def schedule(passes: int, trace: bool) -> list:
    """Per pass: None for the untimed warm pass, else whether it is traced."""
    if not trace:
        return [False] * passes
    order = [None]
    for pair in range(max(1, passes // 2)):
        order += [True, False] if pair % 2 else [False, True]
    return order


def run(main, requests: list, once: set, passes: int, trace: bool) -> dict:
    from spans import Tracer, layer_metrics

    variants: list = [[] for _ in requests]  # per request: distinct [exit code, stdout]
    errors: list = [[] for _ in requests]  # per request: distinct exception type names
    # [request index, seconds, variant or -1 if raised, traced or None, start]
    records = []
    probes = []  # [start, seconds] of each reference loop
    tracer = Tracer() if trace else None
    order = schedule(passes, trace)
    for n, traced in enumerate(order):
        if traced:
            tracer.install()
        for i, argv in enumerate(requests):
            if n and not trace and i in once:
                continue
            if traced:
                tracer.request = i
            # off the clock: each request starts, like a fresh CLI process,
            # without the garbage of the requests before it
            gc.collect()
            if not probes or time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
                probes.append(probe())
            start = time.perf_counter()
            took, code, out, raised = call(main, argv)
            if traced:
                tracer.settle()
            if raised:
                if raised not in errors[i]:
                    errors[i].append(raised)
                variant = -1
            else:
                if [code, out] not in variants[i]:
                    variants[i].append([code, out])
                variant = variants[i].index([code, out])
            records.append([i, took, variant, traced, start])
        if traced:
            tracer.uninstall()

    result = {
        "passes": len(order),
        "records": records,
        "probes": probes,
        "variants": variants,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        busy_s = {False: 0.0, True: 0.0}  # rescaled, like the end-to-end times
        traced_s = 0.0  # raw, like the spans
        for r, factor in zip(records, speed_factors(records, probes)):
            if r[3] is not None:
                busy_s[r[3]] += r[1] * factor
                traced_s += r[1] if r[3] else 0.0
        pairs = max(1, passes // 2)
        result["layers"] = layer_metrics(tracer, pairs * len(requests), pairs,
                                         traced_s, busy_s[True] / busy_s[False])
        result["spans"] = tracer.spans
    return result


def main() -> int:
    workdir = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(workdir)
    from atquant.cli import main as cli_main

    spec = json.loads((workdir / "requests.json").read_text())
    for argv in spec["warmup"]:
        call(cli_main, argv)
    ready = time.monotonic()
    if sys.argv[2] == "probe":
        loops = sorted(probe()[1] for _ in range(SETUP_REFERENCE_LOOPS))
        print(json.dumps({"ready": ready, "reference_s": loops[len(loops) // 2]}))
        return 0
    result = run(cli_main, spec["requests"], set(spec["once"]), int(sys.argv[3]),
                 sys.argv[4] == "1")
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
