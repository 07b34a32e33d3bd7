"""The benchmark's in-process side: runs kleinfib commands through
`kleinfib.cli.main` inside one child process and prints one JSON result.

    python3 perfbench/child.py '<json spec>'

Spec keys:
  mode     "cli": run `argv` once; "warm": run one unmutated
           `reproduce-paper --seed <seed>`, then mutated reproductions
           drawn from `seed` while they fit in `seconds`.
  argv     command line for "cli".
  seed, seconds   seed and time budget for "warm".
  trace    path of the span file to append to, or null to run untraced.
           In "warm" mode the mutated reproductions are then run a second
           time, traced.
  run      run id recorded with the spans.

The result holds each operation's exit code, wall time and certificate
text, and the `cache_info()` of the `orbits` lru caches before and after
the operations; with tracing on, also the per-span totals.  Certificates
are checked by run.py, not here.
"""

import contextlib
import io
import json
import random
import sys
import time
import traceback

import tracer as spantracer  # the benchmark's tracer, next to this file

DELTAS = ["1", "-1", "1/2", "2"]


def run_cli(main, argv):
    """One kleinfib command; an uncaught exception exits 1, as it would
    from the console script."""
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = 1
            traceback.print_exc()
    return {"argv": argv, "code": code, "start": start,
            "wall_s": time.monotonic() - start,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def orbit_caches():
    """The lru caches of kleinfib.orbits, found before any wrapping."""
    from kleinfib import orbits
    return {name: fn for name, fn in sorted(vars(orbits).items())
            if hasattr(fn, "cache_info")}


def cache_state(caches):
    return {name: fn.cache_info()._asdict() for name, fn in caches.items()}


def draw_mutations(seed, count):
    """Mutations drawn from build_catalog() as the fault-injection
    acceptance test draws them."""
    from kleinfib.geometry import build_catalog
    catalog = build_catalog()
    names = sorted(catalog)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        name = rng.choice(names)
        surface = catalog[name]
        chart = rng.randrange(len(surface.equations))
        term = rng.randrange(len(surface.equations[chart].terms))
        out.append("%s,%d,%d,%s" % (name, chart, term, rng.choice(DELTAS)))
    return out


def main(spec):
    import kleinfib.cli
    caches = orbit_caches()
    tracer = spantracer.Tracer() if spec.get("trace") else None
    result = {}
    if spec["mode"] == "cli":
        if tracer:
            tracer.install()
            tracer.run_id = spec.get("run")
        result["cache_before"] = cache_state(caches)
        result["ops"] = [run_cli(kleinfib.cli.main, spec["argv"])]
    else:
        seed = str(spec["seed"])
        result["warmup"] = run_cli(kleinfib.cli.main,
                                   ["reproduce-paper", "--seed", seed])
        result["cache_before"] = cache_state(caches)
        result["ops"] = []
        begin, last = time.monotonic(), 0.0
        # as run.py: start another mutation only if one as long as the last
        # still ends within the budget
        for mutation in draw_mutations(spec["seed"], 64):
            if time.monotonic() - begin + last > spec["seconds"]:
                break
            op = run_cli(kleinfib.cli.main, ["reproduce-paper", "--mutate",
                                             mutation, "--seed", seed])
            result["ops"].append(op)
            last = op["wall_s"]
        if tracer:
            tracer.install()
            result["traced_ops"] = []
            for i, op in enumerate(result["ops"]):
                tracer.run_id = "%s/%d" % (spec.get("run"), i)
                result["traced_ops"].append(
                    run_cli(kleinfib.cli.main, op["argv"]))
    result["cache_after"] = cache_state(caches)
    if tracer:
        tracer.uninstall()
        tracer.write_spans(spec["trace"])
        result["totals"] = tracer.totals
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
