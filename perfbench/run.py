#!/usr/bin/env python3
"""Benchmark for the atquant CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload static-tree --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Builds the workload's models and reference answers from the seed (see
workloads.py), writes the models to a scratch directory in the checkout,
times the set-up of a fresh worker process several times, and has one more
worker drive `atquant.cli.main` in a closed loop: one client, one request
at a time (worker.py), over a fixed number of whole passes of the corpus
that takes about --seconds at the seed (workloads.PASSES_PER_20_S). Every
output is checked against the benchmark's own reference. With --trace 0
the run reports the end-to-end metrics, with request times rescaled by the
host's speed as the worker's reference loop measured it around each request
(speed_factors), and set-up times by the loops each set-up worker times
once it is ready; with --trace 1 it adds a warm pass, alternates untraced
and traced passes, reports the per-layer metrics instead, in raw time but
for trace.overhead_ratio, and writes the spans to .perfbench_out/. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import REF_NOMINAL_S, speed_factors  # noqa: E402
from workloads import PASSES_PER_20_S, WORKLOADS  # noqa: E402

SETUP_PROBES = 8
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "norm_latency_ms_p50": "ms",
    "norm_latency_ms_p90": "ms",
    "norm_throughput_rps": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def worker(workdir: Path, *args: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), str(workdir), *args]


def worker_env() -> dict:
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")


def prepare(workload: str, seed: int, workdir: Path) -> list:
    """Write the corpus, a warm-up corpus and the request list; return the
    requests in the order the worker will send them."""
    main = WORKLOADS[workload](seed)
    warm = WORKLOADS[workload](seed, "tiny")
    requests = list(main.requests)
    random.Random(seed).shuffle(requests)
    (workdir / "warmup").mkdir(parents=True)
    for name, text in main.files.items():
        (workdir / name).write_text(text)
    for name, text in warm.files.items():
        (workdir / "warmup" / name).write_text(text)
    warm_argv = [[a if a not in warm.files else f"warmup/{a}" for a in r.argv]
                 for r in warm.requests]
    spec = {"requests": [r.argv for r in requests], "warmup": warm_argv,
            "once": [i for i, r in enumerate(requests) if r.known_error]}
    (workdir / "requests.json").write_text(json.dumps(spec))
    return requests


def set_up_once(workdir: Path) -> tuple[float, float]:
    """Seconds from starting a worker to its first possible request, raw and
    rescaled by the reference loops the same worker timed once ready."""
    start = time.monotonic()
    done = subprocess.run(worker(workdir, "probe"), capture_output=True, text=True,
                          timeout=60, env=worker_env())
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    reply = json.loads(done.stdout.splitlines()[-1])
    raw = reply["ready"] - start
    return raw, raw * REF_NOMINAL_S / reply["reference_s"]


def drive(workdir: Path, passes: int, trace: bool) -> dict:
    proc = subprocess.Popen(worker(workdir, "run", str(passes), "1" if trace else "0"),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            env=worker_env())
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past its time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err}")
    return json.loads((workdir / "result.json").read_text())


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between the order statistics around q (sorted input)."""
    pos = q * (len(values) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if values[hi] == math.inf:
        return math.inf
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def judge(requests: list, result: dict) -> dict:
    """Check every answer and exception the worker saw. A request fails if
    it raised, exited with an unexpected code or printed a wrong answer.
    The run is correct unless some answer was wrong or some request raised
    anything but its known error."""
    # per request, the verdict on each distinct answer: None or what is wrong
    verdicts = [[req.check(code, out) for code, out in answers]
                for req, answers in zip(requests, result["variants"])]
    problems = []
    correct = True
    for req, vs, errors in zip(requests, verdicts, result["errors"]):
        why = [f"raised {e}" + ("" if e == req.known_error else " (unexpected)") for e in errors]
        why += [v for v in vs if v is not None]
        correct &= all(e == req.known_error for e in errors) and all(v is None for v in vs)
        if why:
            problems.append(f"failed: {req.argv}: {'; '.join(why)}")
    attempted = failed = ok = 0
    latencies, raw, busy_s = [], [], 0.0  # rescaled, raw seconds of untraced requests
    factors = speed_factors(result["records"], result["probes"])
    for (i, took, variant, traced, _), factor in zip(result["records"], factors):
        bad = variant < 0 or verdicts[i][variant] is not None
        attempted += 1
        failed += bad
        if traced is False:
            latencies.append(math.inf if bad else took * factor)
            raw.append(math.inf if bad else took)
            ok += not bad
            busy_s += took * factor
    return {"correct": correct, "attempted": attempted, "failed": failed, "ok": ok,
            "latencies": sorted(latencies), "raw": sorted(raw), "busy_s": busy_s,
            "probe_ms": statistics.median(p[1] for p in result["probes"]) * 1000,
            "problems": problems}


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    passes = max(1, round(PASSES_PER_20_S[workload] * seconds / 20))
    try:
        requests = prepare(workload, seed, workdir)
        # half the set-up probes before the timed run and half after it,
        # so that their median does not hang on one moment of the host
        setups = [set_up_once(workdir) for _ in range(SETUP_PROBES // 2)]
        result = drive(workdir, passes, trace)
        setups += [set_up_once(workdir) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdict = judge(requests, result)
    for line in verdict["problems"]:
        print(line, file=sys.stderr)
    if trace:
        metrics = result["layers"]
        units = {name: layer_unit(name) for name in metrics}
        spans_out = ROOT / ".perfbench_out"
        spans_out.mkdir(exist_ok=True)
        (spans_out / f"spans-{workload}.json").write_text(json.dumps({
            "workload": workload, "seed": seed,
            "requests": [r.argv for r in requests],
            "span_fields": ["request", "name", "start", "end", "parent"],
            "spans": result["spans"],
        }))
    else:
        latencies, busy_s = verdict["latencies"], verdict["busy_s"]

        def pct(q):
            # a failed request is slower than every success: it reads as the whole run
            v = percentile(latencies, q)
            return busy_s * 1000 if v == math.inf else v * 1000

        metrics = {
            "norm_latency_ms_p50": pct(0.5),
            "norm_latency_ms_p90": pct(0.9),
            "norm_throughput_rps": verdict["ok"] / busy_s,
            "peak_rss_mb": result["maxrss_kb"] / 1024,
            "setup_s": statistics.median(rescaled for _, rescaled in setups),
        }
        units = END_TO_END_UNITS
    return {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "_passes": result["passes"],
        "_samples": len(verdict["latencies"]),
        "_raw_p50_ms": percentile(verdict["raw"], 0.5) * 1000,
        "_probe_ms": verdict["probe_ms"],
        "_raw_setup_s": statistics.median(raw for raw, _ in setups),
    }


def summary(workload: str, res: dict) -> str:
    lines = [f"{workload}: {res['attempted']} requests in {res['_passes']} passes, "
             f"{res['failed']} failed, error_rate {res['failed'] / res['attempted']:.4f}, "
             f"correct {res['correct']}, {res['_samples']} latency samples",
             f"  raw latency p50 {res['_raw_p50_ms']:.4f} ms; raw set-up "
             f"{res['_raw_setup_s']:.4f} s; reference loop median "
             f"{res['_probe_ms']:.4f} ms against {REF_NOMINAL_S * 1000:g} ms nominal"]
    for name, m in res["metrics"].items():
        lines.append(f"  {name:28} {m['value']:14.4f} {m['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ns = ap.parse_args(argv)
    if not (ROOT / "src" / "atquant" / "cli.py").is_file():
        print(f"error: no atquant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if ns.workload == "all" else [ns.workload]
    results = {}
    for name in names:
        try:
            res = measure(name, ns.seed, ns.seconds, bool(ns.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        print(summary(name, res))
        results[name] = {k: v for k, v in res.items() if not k.startswith("_")}
    print(json.dumps(results[ns.workload] if ns.workload != "all" else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
