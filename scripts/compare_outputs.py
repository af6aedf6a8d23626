#!/usr/bin/env python3
"""Compare what two source trees print for a fixed battery of CLI requests.

    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC [MODEL|DIR ...]

Each side runs in a child process of its own with its source directory
first on sys.path, and calls `atquant.cli.main(argv)` in-process for every
request, recording the exit code, stdout and stderr; the JSON "millis"
value, the one field that differs from run to run, is blanked. A directory
stands for its *.at files; the default is models/*.at. The battery, per
model, with the domains, attributions and orders the model declares and
the algorithms (`atquant.analysis.ALGORITHMS`) each side offers:

- check and semantics, text and JSON, and semantics with --budget 1;
- dump of all four kinds, and bdd/bdd-min under each declared order;
- metric for every builtin domain x every attribution x every --algorithm,
  text and JSON;
- metric in pareto(min-cost,max-damage), which does not absorb, and in
  pareto(min-cost,min-skill), which does, over the first two attributions
  in sorted order, comma-joined, for every --algorithm, text and JSON, if
  the model declares two or more;
- each of those metric requests once more by the bdd algorithm under each
  declared order, in JSON;
- ktop with k 1 and 3 for every builtin domain x every attribution, under
  the default and each declared order, text and JSON, so the refusals of
  the domains k-top does not take are compared too;
- ktop with k 0 for every builtin domain over the first attribution in
  sorted order, so the order of the checks is compared: k first, then the
  class, then the domain;
- metric in min-cost over the first attribution in sorted order by the
  oracle with --budget 1, if the model declares one;
- one request with every option spelled four more ways: `--flag=value`,
  abbreviated flags, options before the model, and "--" before the model.
  It is metric in min-cost over the first attribution, with --algorithm,
  --format, --budget and the first declared order, or semantics for a
  model that declares no attribution.

The two --budget 1 requests refuse every model of two or more basic
actions, so the budget error and its hint are compared too.

It prints the number of requests and of differences, then each differing
request, and exits 1 if any request differs. A differing request whose
two outputs are both JSON objects is printed with the keys whose values
differ: top-level keys, and those of the stats block as stats.<key>. Any
other differing request is run once more on each side, and printed with
the first line of its stdout, then stderr, that differs: old, then new.
"""

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("text", "json")
PARETOS = ("pareto(min-cost,max-damage)", "pareto(min-cost,min-skill)")
MILLIS = re.compile(r'"millis": [-+.\deE]+')


def battery(model: str, attributions, orders, domains, algorithms) -> list[list[str]]:
    out = [[cmd, model, "--format", fmt] for cmd in ("check", "semantics") for fmt in FORMATS]
    out.append(["semantics", model, "--budget", "1"])
    out += [["dump", model, "--what", what] for what in ("at", "model", "bdd", "bdd-min")]
    out += [["dump", model, "--what", what, "--order", order]
            for what in ("bdd", "bdd-min") for order in orders]
    asked = [(domain, name) for domain in domains for name in attributions]
    if len(attributions) >= 2:
        asked += [(pareto, ",".join(attributions[:2])) for pareto in PARETOS]
    out += [["metric", model, "--domain", domain, "--attribution", name,
             "--algorithm", algorithm, "--format", fmt]
            for domain, name in asked for algorithm in algorithms for fmt in FORMATS]
    out += [["metric", model, "--domain", domain, "--attribution", name,
             "--algorithm", "bdd", "--format", "json", "--order", order]
            for domain, name in asked for order in orders]
    out += [["ktop", model, "--domain", domain, "--attribution", name, "--k", k,
             "--format", fmt, *order]
            for domain in domains for name in attributions for k in ("1", "3")
            for order in [[]] + [["--order", o] for o in orders] for fmt in FORMATS]
    out += [["ktop", model, "--domain", domain, "--attribution", name, "--k", "0"]
            for domain in domains for name in attributions[:1]]
    out += [["metric", model, "--domain", "min-cost", "--attribution", name,
             "--algorithm", "oracle", "--budget", "1"] for name in attributions[:1]]
    if attributions:
        options = ["--domain", "min-cost", "--attribution", attributions[0], "--algorithm",
                   "auto", "--format", "json", "--budget", "20"]
        options += ["--order", orders[0]] if orders else []
        out += respelled("metric", model, options)
    else:
        out += respelled("semantics", model, ["--format", "json", "--budget", "20"])
    return out


def respelled(cmd: str, model: str, options: list[str]) -> list[list[str]]:
    """The request [cmd, model, *options] spelled four other ways."""
    pairs = list(zip(options[::2], options[1::2]))
    return [
        [cmd, model, *(f"{flag}={value}" for flag, value in pairs)],
        [cmd, model, *(part for flag, value in pairs for part in (flag[:5], value))],
        [cmd, *options, model],
        [cmd, *options, "--", model],
    ]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def json_digests(text: str):
    """A digest of each top-level value of a JSON object, and of each value
    of its stats block under "stats.<key>"; None if text is no JSON object."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    if not isinstance(doc, dict):
        return None
    stats = doc.pop("stats", None)
    if isinstance(stats, dict):
        doc.update({f"stats.{key}": value for key, value in stats.items()})
    elif stats is not None:
        doc["stats"] = stats
    return {key: digest(json.dumps(value, sort_keys=True)) for key, value in doc.items()}


def run(main, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr) of one in-process request, millis blanked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # a usage error (2) or -h (0)
            code = e.code
        except Exception as e:  # a traceback the user would see
            code = f"raised {type(e).__name__}: {e}"
    return code, *(MILLIS.sub('"millis": 0', s.getvalue()) for s in (out, err))


def call(main, argv: list[str]) -> list:
    """[exit code, stdout digest, stderr digest, JSON key digests] of one
    in-process request; the last is None unless stdout is a JSON object."""
    code, *texts = run(main, argv)
    return [code, *map(digest, texts), json_digests(texts[0])]


def lines(src: str, keys: list[str]) -> dict:
    """The lines of stdout, then of stderr, of each request (argv as JSON)
    run against the package under src."""
    sys.path.insert(0, src)
    from atquant.cli import main

    return {key: [line for text in run(main, json.loads(key))[1:] for line in text.splitlines()]
            for key in keys}


def side(src: str, models: list[str]) -> dict:
    """Run the battery against the package under src: argv as JSON -> record."""
    sys.path.insert(0, src)
    from atquant.analysis import ALGORITHMS
    from atquant.cli import main
    from atquant.domains import BUILTIN_NAMES
    from atquant.errors import AtError
    from atquant.io import parse_model

    records = {}
    for model in models:
        try:
            doc = parse_model(Path(model).read_text(encoding="utf-8-sig"))
            attributions, orders = sorted(doc.attributions), sorted(doc.orders)
        except (AtError, OSError, UnicodeDecodeError):
            attributions, orders = [], []
        for argv in battery(model, attributions, orders, BUILTIN_NAMES, ALGORITHMS):
            records[json.dumps(argv)] = call(main, argv)
    return records


def model_paths(args: list[str]) -> list[str]:
    paths = []
    for arg in args or [str(ROOT / "models")]:
        p = Path(arg)
        paths += sorted(str(m) for m in p.glob("*.at")) if p.is_dir() else [arg]
    return paths


def children(mode: str, srcs: tuple, args: list[str], stdin: str = "") -> list | None:
    """The JSON reply of one child per source tree, run in the given mode;
    None if a child failed."""
    procs = [subprocess.Popen([sys.executable, __file__, mode, src, *args],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
             for src in srcs]
    replies = [proc.communicate(stdin)[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        print("a side failed to run", file=sys.stderr)
        return None
    return list(map(json.loads, replies))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--side"]:
        json.dump(side(argv[1], argv[2:]), sys.stdout)
        return 0
    if argv[:1] == ["--lines"]:
        json.dump(lines(argv[1], json.load(sys.stdin)), sys.stdout)
        return 0
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    srcs, models = (argv[0], argv[1]), model_paths(argv[2:])
    sides = children("--side", srcs, models)
    if sides is None:
        return 1
    old, new = sides
    keys = sorted(old.keys() | new.keys())
    differing = [key for key in keys if old.get(key) != new.get(key)]
    print(f"{len(keys)} requests on {len(models)} models, {len(differing)} differ")
    json_parts = {key: [side[key][3] if key in side else None for side in sides]
                  for key in differing}
    plain = [key for key in differing if None in json_parts[key]]
    texts = children("--lines", srcs, [], json.dumps(plain)) if plain else [{}, {}]
    if texts is None:
        return 1
    for key in differing:
        line = "differs: " + " ".join(json.loads(key))
        parts = json_parts[key]
        if None not in parts:
            keys = sorted(k for k in parts[0].keys() | parts[1].keys()
                          if parts[0].get(k) != parts[1].get(k))
            line += f" (JSON keys: {', '.join(keys)})"
        else:
            first = next(((o, n) for o, n in zip_longest(*(t[key] for t in texts), fillvalue="")
                          if o != n), None)
            if first is not None:
                line += "".join(f"\n  {which}: {text}"
                                for which, text in zip(("old", "new"), first))
        print(line)
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
