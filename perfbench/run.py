"""kleinfib benchmark runner (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kleinfib checkout: the program is imported from
./src.  One closed-loop client drives kleinfib from outside, one child
process at a time, and checks every output.  The last line of standard
output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it describe the environment and the
operations.  See perfbench/README.md for the workloads and metrics.

The machine this runs on may be shared, and its speed drifts by tens of
percent over seconds to minutes.  So the children run on one CPU, a
background thread times a fixed reference task on that CPU throughout the
run, and times are reported in reference seconds: what an interval would
have taken had the reference task taken REFERENCE_S throughout.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
CHILD = os.path.join(HERE, "child.py")

# what the `kleinfib` console script runs
CONSOLE = "import sys; from kleinfib.cli import main; sys.exit(main())"
SETUP = ("import kleinfib.cli, numpy; from kleinfib.geometry import "
         "build_catalog; build_catalog(); print(numpy.__version__)")
SETUP_REPEATS = 5
RUN_LIMIT_S = 170          # a run must end within 180 s
PROBE_PERIOD_S = 0.1
REFERENCE_S = 0.001        # the scale of reference seconds

# errors a failed check may carry; any other type is an internal error
CHECK_ERRORS = {"VerificationError", "GeometryError"}

# command_mix: (argv, expected exit code, expected fields).  A field path
# is a dotted key into the certificate.
MIX = [
    ("curves s7", 0, {"count": 56}),
    ("curves s8", 0, {"count": 240}),
    ("curves dn:12", 0, {"count": 24}),
    ("verdict dn:12 --ext 3", 0, {"verdict.rational": False,
                                  "verdict.a": 2}),
    ("verdict dn:6 --ext 6", 0, {"verdict.rational": True, "verdict.a": 2,
                                 "verdict.rule": "conic-bundle-le-1-fibre-"
                                                 "with-point-rational"}),
    ("verdict e8 --ext 30", 0, {"verdict.rational": True,
                                "verdict.a": 30}),
    ("lattice 8", 0, {"label": "E8", "coxeter_number": 30,
                      "root_count": 240, "minus_one_count": 240}),
    ("audit s8 --t 3", 0, {"report.count": 240}),
    ("audit dn:9 --t 5", 0, {"report.count": 18}),
    ("autos an --n 3 --poly 1+y", 0, {"report.verified": True}),
]

# Known defects, in the same form as MIX.  Each is run once per run after
# the measured operations, outside every metric and outside `correct`, and
# its outcome is printed on a line of its own.  `verdict dn:12 --ext 4`
# exits 2 with "error: 'dn:12'": _rational_point builds the default
# catalog, which stops at dn:9.  The mix covers the same rule with
# `verdict dn:6 --ext 6`.  Once a defect is fixed, move it into MIX.
KNOWN_DEFECTS = [
    ("verdict dn:12 --ext 4", 0, {"verdict.rational": True,
                                  "verdict.a": 2}),
]

PER_LAYER = [
    ("tower.mul.calls", "count"), ("tower.pow.calls", "count"),
    ("tower.invert.calls", "count"), ("tower.add_sub.calls", "count"),
    ("tower.mul.self_s", "s"), ("tower.pow.self_s", "s"),
    ("tower.invert.self_s", "s"), ("tower.add_sub.self_s", "s"),
    ("tower.self_s", "s"),
    ("multipoly.mul.calls", "count"), ("multipoly.substitute.calls", "count"),
    ("multipoly.evaluate.calls", "count"), ("multipoly.self_s", "s"),
    ("univariate.subresultant_prs.calls", "count"),
    ("univariate.cyclotomic_poly.calls", "count"), ("univariate.self_s", "s"),
    ("geometry.build_catalog.calls", "count"),
    ("geometry.on_surface.calls", "count"), ("geometry.self_s", "s"),
    ("curves.enumerate_s", "s"), ("curves.self_s", "s"),
    ("orbits.s6_intersections_s", "s"), ("orbits.dn_intersections_s", "s"),
    ("orbits.verdict_grid_s", "s"), ("orbits.conjugation.calls", "count"),
    ("orbits.conjugation_s", "s"), ("orbits.cache_hit_ratio", "ratio"),
    ("orbits.self_s", "s"),
    ("numeric.durand_kerner.calls", "count"), ("numeric.self_s", "s"),
    ("lattice.self_s", "s"), ("autos.self_s", "s"),
    ("cli.failed_checks_per_mutation", "count/op"),
    ("cli.internal_errors", "count/op"),
    ("trace_overhead_ratio", "ratio"),
]
CURVE_ENUMERATORS = ("curves.certify_s6_lines", "curves.enumerate_s7",
                     "curves.enumerate_s8", "curves.enumerate_an",
                     "curves.enumerate_dn")
CONJUGATIONS = ("orbits.s7_conjugation", "orbits.s8_conjugation")


class Client:
    """Runs child processes one at a time, all within the run's time limit."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def run(self, argv):
        """(exit code or None on timeout, stdout, stderr, start, wall s)."""
        start = time.monotonic()
        timeout = self.deadline - start
        if timeout <= 0:
            return None, "", "run time limit reached", start, 0.0
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self.env,
                                cwd=ROOT, text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            code, err = None, "killed at the run time limit"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return code, out, err, start, time.monotonic() - start

    def kleinfib(self, command):
        return self.run([sys.executable, "-c", CONSOLE] + command)

    def child(self, spec):
        code, out, err, start, wall = self.run(
            [sys.executable, "-B", CHILD, json.dumps(spec)])
        if code != 0:
            raise RuntimeError("benchmark child failed (%s): %s"
                               % (code, err.strip()[-500:]))
        return json.loads(out), start, wall


# ---------------------------------------------------------------------------
# machine speed

REFERENCE_OPERANDS = {i: Fraction(3 * i + 1, 2 * i + 3) for i in range(12)}


def reference_task():
    """A fixed sample of the arithmetic kleinfib spends its time on: the
    product of two dense polynomials with Fraction coefficients in dicts."""
    prod = {}
    for i, x in REFERENCE_OPERANDS.items():
        for j, y in REFERENCE_OPERANDS.items():
            prod[i + j] = prod.get(i + j, 0) + x * y
    return prod


def pin_to_one_cpu():
    """Pin this thread, and so every thread and child started from it, to
    one CPU; returns the CPU, or None where affinity cannot be set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class SpeedProbe:
    """Times reference_task() every PROBE_PERIOD_S in a background thread.
    Started after pin_to_one_cpu(), it shares the children's CPU and takes
    about 1% of it."""

    def __init__(self):
        self.samples = []          # (monotonic start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            start = time.monotonic()
            reference_task()
            self.samples.append((start, time.monotonic() - start))

    def normalize(self, start, wall):
        """An interval's wall time in reference seconds."""
        return wall * REFERENCE_S / self.reference_s(start, wall)

    def reference_s(self, start, wall):
        """Mean time of the reference task over an interval, widened to at
        least three samples."""
        pad = 0.0
        while True:
            xs = [d for t, d in self.samples
                  if start - pad <= t <= start + wall + pad]
            if len(xs) >= 3 or len(xs) == len(self.samples):
                return statistics.mean(xs) if xs else float("nan")
            pad += PROBE_PERIOD_S


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is
# as expected

def parse_cert(text):
    try:
        return json.loads(text), []
    except ValueError:
        return None, ["stdout is not a JSON certificate"]


def failed_checks(cert):
    """(name, error type) of every failed check in a certificate."""
    out = []
    for c in cert.get("checks", []):
        if c.get("status") == "failed":
            kind = str(c.get("error", "")).split(":", 1)[0] or "none"
            out.append((c.get("name"), kind))
    return out


def check_reproduction(code, text):
    if code != 0:
        return ["exit code %s, expected 0" % code]
    cert, problems = parse_cert(text)
    if cert is None:
        return problems
    checks = cert.get("checks", [])
    status = [c.get("status") for c in checks]
    if (len(checks), status.count("verified"), status.count("assumed")) != \
            (66, 64, 2):
        problems.append("expected 66 checks, 64 verified and 2 assumed; got "
                        "%d, %d, %d" % (len(checks), status.count("verified"),
                                        status.count("assumed")))
    by_name = {c.get("name"): c for c in checks}
    want = {("curves-s6", "count"): 27, ("curves-s7", "count"): 56,
            ("curves-s8", "count"): 240,
            ("lattice-classes", "counts"): [27, 56, 240],
            ("verdict-grid", "cells"): 150}
    for (name, key), value in want.items():
        got = by_name.get(name, {}).get(key)
        if got != value:
            problems.append("%s %s is %r, expected %r"
                            % (name, key, got, value))
    return problems


def check_mutation(code, text):
    if code != 1:
        return ["exit code %s, expected 1" % code]
    cert, problems = parse_cert(text)
    if cert is None:
        return problems
    if cert.get("status") != "failed" or not failed_checks(cert):
        problems.append("mutation not detected: no failed check")
    return problems


def field(cert, path):
    for key in path.split("."):
        if not isinstance(cert, dict) or key not in cert:
            return "<missing>"
        cert = cert[key]
    return cert


def check_command(expected_code, fields, code, text, err):
    if code != expected_code:
        return ["exit code %s, expected %d (%s)"
                % (code, expected_code, err.strip()[-200:])]
    cert, problems = parse_cert(text)
    if cert is None:
        return problems
    for path, value in fields.items():
        got = field(cert, path)
        if got != value:
            problems.append("%s is %r, expected %r" % (path, got, value))
    return problems


class Digests:
    """sha256 of each unmutated reproduce-paper certificate, per seed and
    source tree.  Two reproductions with the same seed, in one run or in
    earlier runs in this checkout, must print the same bytes."""

    def __init__(self, source):
        self.path = os.path.join(OUT, "reproduce-%s.json" % source[:16])
        try:
            with open(self.path) as fh:
                self.known = json.load(fh)
        except (OSError, ValueError):
            self.known = {}

    def check(self, seed, text):
        digest = hashlib.sha256(text.encode()).hexdigest()
        known = self.known.setdefault(str(seed), digest)
        if known != digest:
            return ["certificate differs from an earlier reproduction with "
                    "seed %s" % seed]
        return []

    def save(self):
        with open(self.path + ".tmp", "w") as fh:
            json.dump(self.known, fh, sort_keys=True)
        os.replace(self.path + ".tmp", self.path)


# ---------------------------------------------------------------------------
# workloads.  `run()` fills the lists of checked operations, each
# {"argv", "start", "wall_s", "problems", "failed_checks"}, and
# `windows`, the (start, wall) of each unit op_s is the median of.  In
# trace mode `traced` repeats `ops` with the tracer installed.

class Workload:
    def __init__(self, client, seed, seconds, trace, digests):
        self.client, self.seed, self.seconds = client, seed, seconds
        self.trace, self.digests = trace, digests
        self.setup_ops = []       # checked operations done in set-up
        self.ops = []             # untraced operations
        self.traced = []          # the same operations, traced
        self.windows = []         # (start, wall) per unit of op_s
        self.results = []         # child results of traced operations
        self.setup_spans = []     # (start, wall) of set-up in the child
        self.spans = os.path.join(OUT, "spans-%s-%d.jsonl"
                                  % (self.name, seed))

    def record(self, target, argv, span, problems, cert_text=None):
        cert = parse_cert(cert_text)[0] if cert_text else None
        target.append({"argv": argv, "start": span[0], "wall_s": span[1],
                       "problems": problems,
                       "failed_checks": failed_checks(cert)
                       if isinstance(cert, dict) else []})

    def traced_child(self, argv, index):
        result, start, wall = self.client.child(
            {"mode": "cli", "argv": argv, "trace": self.spans,
             "run": "%s-%d-%d" % (self.name, self.seed, index)})
        self.results.append(result)
        return result["ops"][0], (start, wall)

    def repeat(self, one):
        """Start operations while one more, as long as the last, would end
        within --seconds; at least one.  `one` returns False to stop."""
        begin = time.monotonic()
        last = 0.0
        while time.monotonic() - begin + last <= self.seconds:
            start = time.monotonic()
            if not one():
                break
            last = time.monotonic() - start


class ColdReproduce(Workload):
    name = "cold_reproduce"

    def argv(self):
        return ["reproduce-paper", "--seed", str(self.seed)]

    def run(self):
        def one():
            code, out, err, start, wall = self.client.kleinfib(self.argv())
            problems = check_reproduction(code, out) or \
                self.digests.check(self.seed, out)
            self.record(self.ops, self.argv(), (start, wall), problems, out)
            self.windows.append((start, wall))
            return code is not None
        self.repeat(one)
        if self.trace:
            for i in range(len(self.ops)):
                op, span = self.traced_child(self.argv(), i)
                problems = check_reproduction(op["code"], op["stdout"]) or \
                    self.digests.check(self.seed, op["stdout"])
                self.record(self.traced, self.argv(), span, problems,
                            op["stdout"])


class WarmMutate(Workload):
    name = "warm_mutate"

    def run(self):
        spec = {"mode": "warm", "seed": self.seed, "seconds": self.seconds,
                "trace": self.spans if self.trace else None,
                "run": "%s-%d" % (self.name, self.seed)}
        result, _start, _wall = self.client.child(spec)
        warm = result["warmup"]
        self.setup_spans.append((warm["start"], warm["wall_s"]))
        self.record(self.setup_ops, warm["argv"],
                    (warm["start"], warm["wall_s"]),
                    check_reproduction(warm["code"], warm["stdout"]) or
                    self.digests.check(self.seed, warm["stdout"]),
                    warm["stdout"])
        for op in result["ops"]:
            self.record(self.ops, op["argv"], (op["start"], op["wall_s"]),
                        check_mutation(op["code"], op["stdout"]),
                        op["stdout"])
            self.windows.append((op["start"], op["wall_s"]))
        if self.trace:
            self.results.append(result)
            for op in result["traced_ops"]:
                self.record(self.traced, op["argv"],
                            (op["start"], op["wall_s"]),
                            check_mutation(op["code"], op["stdout"]),
                            op["stdout"])


class CommandMix(Workload):
    name = "command_mix"

    def run(self):
        def one():
            start, code = time.monotonic(), 0
            for text, code_expected, fields in MIX:
                argv = text.split()
                code, out, err, cstart, wall = self.client.kleinfib(argv)
                self.record(self.ops, argv, (cstart, wall),
                            check_command(code_expected, fields, code, out,
                                          err), out)
                if code is None:
                    break
            self.windows.append((start, time.monotonic() - start))
            return code is not None
        self.repeat(one)
        if self.trace:
            for i, op in enumerate(self.ops):
                _text, code_expected, fields = MIX[i % len(MIX)]
                res, span = self.traced_child(op["argv"], i)
                self.record(self.traced, op["argv"], span,
                            check_command(code_expected, fields, res["code"],
                                          res["stdout"], res["stderr"]),
                            res["stdout"])


WORKLOADS = {w.name: w for w in (ColdReproduce, WarmMutate, CommandMix)}


# ---------------------------------------------------------------------------
# environment and set-up

def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "kleinfib")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def probe_known_defects(client):
    """(command, problems) of each known defect; no problems once fixed."""
    out = []
    for text, code_expected, fields in KNOWN_DEFECTS:
        code, stdout, err, _start, _wall = client.kleinfib(text.split())
        out.append((text, check_command(code_expected, fields, code, stdout,
                                        err)))
    return out


def measure_setup(client):
    """Fresh-process import of kleinfib.cli plus build_catalog(), several
    times; returns the (start, wall) of each and the numpy version."""
    spans, numpy_version = [], None
    for _ in range(SETUP_REPEATS):
        code, out, err, start, wall = client.run(
            [sys.executable, "-c", SETUP])
        if code != 0:
            raise RuntimeError("set-up failed: %s" % err.strip()[-500:])
        spans.append((start, wall))
        numpy_version = out.strip()
    return spans, numpy_version


# ---------------------------------------------------------------------------
# metrics

def cache_hit_ratio(results):
    hits = misses = 0
    for r in results:
        for name, after in r["cache_after"].items():
            before = r["cache_before"][name]
            hits += after["hits"] - before["hits"]
            misses += after["misses"] - before["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(work, probe):
    """Per-layer values per operation, from the traced children; times in
    reference seconds, scaled by the probe over each child's traced ops."""
    totals = {}
    for r in work.results:
        traced = r.get("traced_ops") or r["ops"]
        start = traced[0]["start"]
        wall = traced[-1]["start"] + traced[-1]["wall_s"] - start
        scale = probe.normalize(start, wall) / wall
        for name, (calls, incl, self_s) in r["totals"].items():
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += incl * scale
            t[2] += self_s * scale
    n = max(1, len(work.windows))

    def calls(*names):
        return sum(totals.get(x, (0, 0, 0))[0] for x in names) / n

    def incl(*names):
        return sum(totals.get(x, (0, 0, 0))[1] for x in names) / n

    def self_of(prefix):
        return sum(t[2] for x, t in totals.items()
                   if x.startswith(prefix + ".")) / n

    values = {}
    for op in ("mul", "pow", "invert", "add_sub"):
        values["tower.%s.calls" % op] = calls("tower." + op)
        values["tower.%s.self_s" % op] = \
            totals.get("tower." + op, (0, 0, 0))[2] / n
    for layer in ("tower", "multipoly", "univariate", "geometry", "curves",
                  "orbits", "numeric", "lattice", "autos"):
        values[layer + ".self_s"] = self_of(layer)
    for name in ("multipoly.mul", "multipoly.substitute",
                 "multipoly.evaluate", "univariate.subresultant_prs",
                 "univariate.cyclotomic_poly", "geometry.build_catalog",
                 "geometry.on_surface", "numeric.durand_kerner"):
        values[name + ".calls"] = calls(name)
    values["curves.enumerate_s"] = incl(*CURVE_ENUMERATORS)
    for name in ("s6_intersections", "dn_intersections", "verdict_grid"):
        values["orbits.%s_s" % name] = incl("orbits." + name)
    values["orbits.conjugation.calls"] = calls(*CONJUGATIONS)
    values["orbits.conjugation_s"] = incl(*CONJUGATIONS)
    values["orbits.cache_hit_ratio"] = cache_hit_ratio(work.results)
    mutated = [op for op in work.traced if "--mutate" in op["argv"]]
    values["cli.failed_checks_per_mutation"] = (
        sum(len(op["failed_checks"]) for op in mutated) / len(mutated)
        if mutated else 0.0)
    values["cli.internal_errors"] = sum(
        1 for op in work.traced for _name, kind in op["failed_checks"]
        if kind not in CHECK_ERRORS) / max(1, len(work.traced))

    def cost(ops):
        return sum(probe.normalize(op["start"], op["wall_s"]) for op in ops)
    untraced = cost(work.ops[:len(work.traced)])
    values["trace_overhead_ratio"] = (cost(work.traced) / untraced
                                      if untraced else 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kleinfib", "cli.py")):
        sys.stderr.write("error: no kleinfib source under %s; run from the "
                         "root of a kleinfib checkout\n" % SRC)
        return 2
    os.makedirs(OUT, exist_ok=True)
    source = source_digest()
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu": pin_to_one_cpu(), "git_sha": git_sha(),
           "source_sha256": source, "loadavg_start": os.getloadavg()}
    client = Client()
    digests = Digests(source)
    work = WORKLOADS[args.workload](client, args.seed, args.seconds,
                                    bool(args.trace), digests)
    if args.trace and os.path.exists(work.spans):
        os.remove(work.spans)
    try:
        with SpeedProbe() as probe:
            setup_spans, env["numpy"] = measure_setup(client)
            work.run()
    except RuntimeError as ex:
        sys.stderr.write("error: %s\n" % ex)
        return 1
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    defects = probe_known_defects(client) if work.name == "command_mix" \
        else []
    digests.save()
    env["loadavg_end"] = os.getloadavg()

    ops = work.setup_ops + work.ops + work.traced
    failed = [op for op in ops if op["problems"]]
    kinds = {}
    for op in ops:
        for name, kind in op["failed_checks"]:
            key = "%s: %s" % (name, kind)
            kinds[key] = kinds.get(key, 0) + 1
    refs = [d for _t, d in probe.samples]
    op_s = [probe.normalize(*span) for span in work.windows]
    setup_s = statistics.median(probe.normalize(*span)
                                for span in setup_spans) + \
        sum(probe.normalize(*span) for span in work.setup_spans)
    print("env " + json.dumps(env, sort_keys=True))
    print("setup " + json.dumps({
        "import_catalog_wall_s": [w for _s, w in setup_spans],
        "warmup_wall_s": [w for _s, w in work.setup_spans]}))
    print("reference_task " + json.dumps({
        "samples": len(refs),
        "mean_s": statistics.mean(refs) if refs else None,
        "min_s": min(refs, default=None), "max_s": max(refs, default=None)}))
    print("operations " + json.dumps({
        "wall_s": [w for _s, w in work.windows], "reference_s": op_s}))
    print("failed_checks_in_certificates " + json.dumps(kinds,
                                                        sort_keys=True))
    for op in failed:
        print("FAILED %s: %s" % (" ".join(op["argv"]),
                                 "; ".join(op["problems"])))
    for text, problems in defects:
        print("KNOWN DEFECT %s: %s" % (
            text, "; ".join(problems) if problems
            else "now passes; move it into MIX"))
    if args.trace:
        metrics = layer_metrics(work, probe)
    else:
        metrics = {
            "op_s": {"value": statistics.median(op_s), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "ok_ops_ratio": {"value": (len(ops) - len(failed)) / len(ops),
                             "unit": "ratio"},
        }
    for name, m in metrics.items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
