"""Command-line front end: JSON verification certificates for every
pipeline, plus the one-shot `reproduce-paper` suite.

Exit codes: 0 all checks verified, 1 a verification failed (the JSON
names it), 2 usage or input error.  Output is byte-identical across runs
with the same inputs and seed (canonical key ordering, no timestamps
unless --timings is given)."""

import argparse
import dataclasses
import json
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .multipoly import MultiPoly
from .curves import (VerificationError, certify_s6_lines, enumerate_an,
                     enumerate_dn, enumerate_s7, enumerate_s8, q_cubic,
                     q1_quartic, q2_quartic)
from .geometry import (AN_RANGE, DN_RANGE, GeometryError, build_catalog,
                       build_surface, charts_compatible,
                       chart_transition_check, verify_contraction_S6)
from .orbits import (BaseExtension, an_intersections, case_surface,
                     dn_intersections, rationality_degree,
                     rationality_verdict, s6_intersections, s7_conjugation,
                     s7_e0_intersection, s8_conjugation, verdict_grid)
from .lattice import (build_root_system, coxeter_number,
                      dn_boundary_selfintersection, minus_one_classes)
from .autos import autos_report
from .univariate import count_real_roots
from .numeric import (NumericConfig, full_audit, numeric_curve_audit,
                      sturm_vs_numeric)

SCHEMA = "kleinfib-certificate/1"

# the largest n accepted in an:<n>, dn:<n> and --n: the D_n witnesses live
# in Q(zeta_M)(mu) with M = lcm(4, 2(n-1)), and the wild shears expand
# (x + yP)^n, so the cost grows steeply with n
MAX_FAMILY_INDEX = 32

# --poly: an expanded sum of terms c, y, y^k, c*y or c*y^k (c, k decimal)
POLY_MAX_DEGREE = 64
_TERM = r"(?:(\d+)\s*\*\s*)?(y)(?:\s*\^\s*(\d+))?|(\d+)"
_POLY = re.compile(r"\s*[+-]?\s*(?:%s)(?:\s*[+-]\s*(?:%s))*\s*"
                   % (_TERM, _TERM))
_SIGNED_TERM = re.compile(r"([+-]?)\s*(?:%s)" % _TERM)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# serialization

def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, MultiPoly):
        return repr(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    return str(obj)


def _curve_entry(c):
    data = {k: _jsonable(v) for k, v in sorted(c.data.items())
            if isinstance(v, (str, int, bool, Fraction))}
    return {"surface": c.surface, "family": c.family, "branch": c.branch,
            "index": c.index, "chart": c.chart, "parameter": c.parameter,
            "equations": [repr(e) for e in c.equations],
            "relation": repr(c.relation) if c.relation is not None else None,
            "data": data}


def emit(cert, out=None):
    text = json.dumps(cert, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def certificate(command, inputs, checks, payload=None, elapsed=None):
    status = "verified"
    if any(c["status"] == "failed" for c in checks):
        status = "failed"
    cert = {"schema": SCHEMA, "engine": "kleinfib %s" % __version__,
            "command": command, "inputs": _jsonable(inputs),
            "status": status, "checks": checks, "elapsed": elapsed}
    if payload:
        cert.update(_jsonable(payload))
    return cert


def check(name, ref, status="verified", **extra):
    entry = {"name": name, "status": status, "ref": ref}
    entry.update(_jsonable(extra))
    return entry


# ---------------------------------------------------------------------------
# subcommands

def cmd_curves(args):
    s = _surface(args.surface)
    checks, payload = [], {}
    if s.name == "s6":
        curves = certify_s6_lines(s)
        expected = 27
    elif s.name == "s7":
        curves, trace, residual = enumerate_s7(s)
        expected = 56
        payload["residual_Q"] = [str(c) for c in q_cubic()]
    elif s.name == "s8":
        curves, trace, residuals = enumerate_s8(s)
        expected = 240
        payload["residual_Q1"] = [str(c) for c in q1_quartic()]
        payload["residual_Q2"] = [str(c) for c in q2_quartic()]
    elif s.name.startswith("an:"):
        curves = enumerate_an(s)
        expected = 2 * s.index
    elif s.name.startswith("dn:"):
        curves = enumerate_dn(s)
        expected = 2 + 2 * (s.index - 1)
    else:
        raise UsageError("no curve enumeration for %r" % s.name)
    checks.append(check("membership-residues-zero",
                        "every listed curve lies on the surface",
                        curves=len(curves)))
    checks.append(check(
        "curve-count", "expected exceptional-curve count",
        status="verified" if len(curves) == expected else "failed",
        count=len(curves), expected=expected))
    payload["count"] = len(curves)
    payload["curves"] = [_curve_entry(c) for c in curves]
    return checks, payload


def _family_index(name):
    """n of an:<n> or dn:<n> (also klein-an:<n>, klein-dn:<n>), checked
    against 2 <= n <= MAX_FAMILY_INDEX before any arithmetic; None for
    other names."""
    family, sep, index = name.replace("klein-", "").partition(":")
    if not sep or family not in ("an", "dn"):
        return None
    try:
        n = int(index)
    except ValueError:
        raise UsageError("bad surface index in %r" % name)
    if not 2 <= n <= MAX_FAMILY_INDEX:
        raise UsageError("index out of range in %r (2..%d)"
                         % (name, MAX_FAMILY_INDEX))
    return n


def _surface(name):
    """The catalog surface called `name`, built here at the edge; an index
    out of range or a name that is no surface is a usage error."""
    _family_index(name)
    try:
        return build_surface(name)
    except GeometryError as ex:
        raise UsageError(str(ex))


def _klein_name(case):
    """The affine Klein surface of an automorphism case: e6 -> klein-e6."""
    return "klein-" + case.replace("klein-", "")


def cmd_verdict(args):
    if args.ext < 1:
        raise UsageError("--ext must be >= 1")
    try:
        name = case_surface(args.case)
    except ValueError as ex:
        raise UsageError(str(ex))
    verdict = rationality_verdict(args.case, BaseExtension(args.ext),
                                  _surface(name))
    checks = [check("rationality-verdict",
                    "rule table over the radical extension",
                    rational=verdict.rational, a=verdict.a,
                    rule=verdict.rule),
              check("rule-table", "minimal-model rule table",
                    status="assumed",
                    note="the contraction endpoint table is theory-"
                         "sourced; orbit and intersection inputs are "
                         "machine-verified")]
    return checks, {"verdict": verdict}


def cmd_verdict_grid(args):
    cells = verdict_grid(build_catalog())
    bad = [c for c in cells if c["rational"] != c["divisibility"]]
    checks = [check("grid-consistency",
                    "verdict == divisibility a | m on all cells",
                    status="failed" if bad else "verified",
                    cells=len(cells), mismatches=len(bad))]
    return checks, {"grid": cells}


def cmd_lattice(args):
    r = args.r
    if not 3 <= r <= 8:
        raise UsageError("r must be in 3..8")
    rs = build_root_system(r)
    classes = minus_one_classes(r)
    checks = [check("root-system", "orthogonal complement of K in Pic",
                    label=rs.label, roots=len(rs.roots)),
              check("coxeter-two-ways",
                    "reflection-product order vs root count per rank",
                    h=rs.coxeter_number),
              check("minus-one-classes", "exceptional classes v^2 = Kv = -1",
                    count=len(classes))]
    payload = {"label": rs.label, "coxeter_number": rs.coxeter_number,
               "root_count": len(rs.roots),
               "roots": [list(v) for v in rs.roots],
               "minus_one_count": len(classes)}
    return checks, payload


def cmd_autos(args):
    case = args.surface
    if case == "an":
        if args.n is None:
            raise UsageError("autos an requires --n")
        case = "an:%d" % args.n
    s = _surface(_klein_name(case))
    wild = None
    if args.poly is not None:
        if not case.startswith("an:"):
            raise UsageError("--poly only applies to the an family")
        wild = [_parse_poly(args.poly)]
    report = autos_report(s, seed=args.seed, wild_polys=wild)
    status = "verified" if report["verified"] else "failed"
    checks = [check("automorphisms", "exhibited groups preserve the surface",
                    status=status),
              check("completeness", "no further automorphisms",
                    status="assumed", note=report["completeness"])]
    return checks, {"report": report}


def _parse_poly(text):
    """A polynomial in y with integer coefficients, written as an expanded
    sum such as '1+y+y^3' or '-2*y^2+7', of degree <= POLY_MAX_DEGREE."""
    if not _POLY.fullmatch(text):
        raise UsageError("cannot parse polynomial %r: expected a sum of "
                         "terms c, y^k or c*y^k" % text)
    terms = {}
    for sign, coeff, y, exp, const in _SIGNED_TERM.findall(text):
        k = (int(exp) if exp else 1) if y else 0
        if k > POLY_MAX_DEGREE:
            raise UsageError("degree %d exceeds %d in polynomial %r"
                             % (k, POLY_MAX_DEGREE, text))
        c = Fraction(int(coeff or const or 1)) * (-1 if sign == "-" else 1)
        terms[(0, k, 0)] = terms.get((0, k, 0), 0) + c
    return MultiPoly(("x", "y", "z"), terms)


def cmd_audit(args):
    try:
        t = Fraction(args.t)
    except (ValueError, ZeroDivisionError):
        raise UsageError("--t must be a rational number")
    if t == 0:
        raise UsageError("t = 0 lies on every discriminant locus")
    try:
        representable = float(t) != 0      # too large raises OverflowError
    except OverflowError:
        representable = False
    if not representable:
        raise UsageError("--t must be nonzero and within the range of a "
                         "double")
    try:
        cfg = NumericConfig(t=t, tol=args.tol, seed=args.seed)
    except ValueError as ex:
        raise UsageError(str(ex))
    if not (args.surface in ("s6", "s7", "s8")
            or args.surface.startswith(("an:", "dn:"))):
        raise UsageError("no numeric audit for %r" % args.surface)
    report = numeric_curve_audit(_surface(args.surface), cfg)
    checks = [check("numeric-audit", "floating-point oracle at t = %s" % t,
                    count=report["count"],
                    max_residue=report["max_residue"])]
    return checks, {"report": report}


# ---------------------------------------------------------------------------
# reproduce-paper

def _dehomogenize_pairs(catalog):
    """Exact consistency between each compactified model and its affine
    Klein equation: restricting the fibre coordinate to 1 must reproduce
    +-(f - t) term for term."""
    pairs = [("s6prime", "klein-e6", "W", {"X": "x", "Y": "y", "Z": "z"}),
             ("s7", "klein-e7", "W", {"X": "x", "Y": "y", "Z": "z"}),
             ("s8", "klein-e8", "W", {"X": "x", "Y": "y", "Z": "z"})]
    pairs += [("an:%d" % n, "klein-an:%d" % n, "w", {}) for n in AN_RANGE]
    pairs += [("dn:%d" % n, "klein-dn:%d" % n, "w", {}) for n in DN_RANGE]
    for model, klein, fibre_var, rename in pairs:
        eq = catalog[model].equations[0]
        one = MultiPoly.const(eq.vars, Fraction(1))
        deh = eq.substitute({fibre_var: one})
        kv = list(catalog[klein].equation.vars) + ["t"]
        f = catalog[klein].equation.rename(kv)
        target = f - MultiPoly.var(kv, "t")
        # compare termwise over the common variable names
        gterms = _named_terms(deh, rename)
        tterms = _named_terms(target, {})
        if gterms != tterms and gterms != _negate(tterms):
            raise VerificationError(
                "%s does not dehomogenize to %s" % (model, klein))
    return len(pairs)


def _named_terms(p, rename):
    out = {}
    for exps, c in p.terms.items():
        key = tuple(sorted((rename.get(v, v), e)
                           for v, e in zip(p.vars, exps) if e))
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v != 0}


def _negate(terms):
    return {k: -v for k, v in terms.items()}


def _failure(ex):
    """The error fields of a failed check: a refuted mathematical check is a
    verification failure, any other exception an internal error."""
    kind = "verification" if isinstance(
        ex, (VerificationError, GeometryError)) else "internal"
    return {"error": "%s: %s" % (type(ex).__name__, ex), "error_kind": kind}


def _run_reproduction(catalog, seed=0, timings=False):
    """Every check of the paper, each reading its surfaces from `catalog`;
    with `timings`, each check carries its wall time as `elapsed`."""
    checks = []

    def step(name, ref, fn, status="verified", **extra):
        started = time.monotonic()
        try:
            fn_extra = fn()
        except Exception as ex:
            entry = check(name, ref, status="failed", **_failure(ex), **extra)
        else:
            entry = check(name, ref, status=status, **extra)
            if isinstance(fn_extra, dict):
                entry.update(_jsonable(fn_extra))
        if timings:
            entry["elapsed"] = time.monotonic() - started
        checks.append(entry)

    # 1-2. curve enumerations and the displayed residual polynomials
    step("curves-s6", "27 lines on the cubic model",
         lambda: {"count": _expect(len(certify_s6_lines(catalog["s6"])), 27)})
    step("curves-s7", "56 exceptional curves; residual cubic Q",
         lambda: {"count": _expect(len(enumerate_s7(catalog["s7"])[0]), 56),
                  "Q": [str(c) for c in q_cubic()]})
    step("curves-s8", "240 exceptional curves; residual quartics Q1, Q2",
         lambda: {"count": _expect(len(enumerate_s8(catalog["s8"])[0]), 240),
                  "Q1": [str(c) for c in q1_quartic()],
                  "Q2": [str(c) for c in q2_quartic()]})
    for n in AN_RANGE:
        step("curves-an:%d" % n, "2n fibre components",
             lambda n=n: {"count": _expect(
                 len(enumerate_an(catalog["an:%d" % n])), 2 * n)})
    for n in DN_RANGE:
        step("curves-dn:%d" % n, "2 + 2(n-1) fibre components",
             lambda n=n: {"count": _expect(
                 len(enumerate_dn(catalog["dn:%d" % n])), 2 * n)})

    # catalog self-consistency
    step("dehomogenization", "models restrict to the Klein equations",
         lambda: {"pairs": _dehomogenize_pairs(catalog)})
    for name in ["an:%d" % n for n in AN_RANGE] + \
                ["dn:%d" % n for n in DN_RANGE]:
        step("charts-%s" % name, "atlas gluing and chart-oo equation",
             lambda name=name: {
                 "transition": _expect(chart_transition_check(
                     catalog[name].ambient), True),
                 "compatible": _expect(charts_compatible(catalog[name]),
                                       True)})

    # 8. contraction identity in both charts
    step("contraction-s6", "quartic model contracts onto the cubic",
         lambda: {"ok": _expect(verify_contraction_S6(
             catalog["s6"], catalog["s6prime"])["ok"], True)})

    # 3. Sturm counts and the numeric cross-check
    step("sturm", "real-root counts of Q, Q1, Q2",
         lambda: {"counts": _expect(
             [count_real_roots(q) for q in
              (q_cubic(), q1_quartic(), q2_quartic())], [3, 4, 4]),
             "numeric": sturm_vs_numeric(NumericConfig(seed=seed))})

    # 4. rationality-degree table and the 150-cell grid
    table = {"e6": 12, "e7": 18, "e8": 30, "an:2": 1, "an:5": 1,
             "dn:4": 2, "dn:5": 8, "dn:6": 2, "dn:9": 16}
    step("a-table", "minimal radical extension degrees",
         lambda: {"a": _expect({c: rationality_degree(c) for c in table},
                               table)})
    step("verdict-grid", "150 cells: verdict == divisibility a | m",
         lambda: {"cells": _expect(
             sum(1 for c in verdict_grid(catalog)
                 if c["rational"] == c["divisibility"]), 150)})
    step("rule-table", "minimal-model endpoints per orbit pattern",
         lambda: {}, status="assumed")

    # 5. intersection witnesses
    step("intersections-s6", "conjugate line meetings on the cubic",
         lambda: {"pairs": len(s6_intersections(catalog["s6"])["pairs"])})
    for order in (2, 3):
        step("conjugation-s7-order%d" % order,
             "S7 conjugate pairs share a point",
             lambda order=order: {"ok": _expect(
                 s7_conjugation(catalog["s7"], order)["verified"], True)})
    for order in (2, 3, 5):
        step("conjugation-s8-order%d" % order,
             "S8 conjugate pairs for xi of order 2, 3, 5",
             lambda order=order: {"ok": _expect(
                 s8_conjugation(catalog["s8"], order)["verified"], True)})
    step("intersections-s7-e0", "the two e = 0 curves meet at (0:1:0:0)",
         lambda: {"ok": _expect(
             s7_e0_intersection(catalog["s7"])["intersect"], True)})
    for n in DN_RANGE:
        step("intersections-dn:%d" % n, "z = +-iymu components meet",
             lambda n=n: {"pairs": len(
                 dn_intersections(catalog["dn:%d" % n])["pairs"])})
    for n in AN_RANGE:
        step("intersections-an:%d" % n, "contractible orbit is disjoint",
             lambda n=n: {"pairs": len(
                 an_intersections(catalog["an:%d" % n])["pairs"])})

    # 6. lattice cross-checks
    step("lattice-classes", "(-1)-classes for r = 6, 7, 8",
         lambda: {"counts": _expect(
             [len(minus_one_classes(r)) for r in (6, 7, 8)],
             [27, 56, 240])})
    step("lattice-coxeter", "Coxeter numbers by two computations",
         lambda: {"h": _expect(
             {lbl: coxeter_number(lbl)
              for lbl in ("E6", "E7", "E8", "D4", "D9")},
             {"E6": 12, "E7": 18, "E8": 30, "D4": 6, "D9": 16})})
    step("lattice-dn-boundary", "boundary self-intersection 3 - n",
         lambda: {"values": _expect(
             [dn_boundary_selfintersection(n) for n in DN_RANGE],
             [3 - n for n in DN_RANGE])})

    # 7. automorphism suite
    for case in ["e6", "e7", "e8"] + ["dn:%d" % n for n in DN_RANGE] + \
                ["an:%d" % n for n in (2, 3, 5)]:
        step("autos-%s" % case, "exhibited automorphism groups",
             lambda case=case: {"ok": _expect(
                 autos_report(catalog[_klein_name(case)],
                              seed=seed)["verified"], True)})
    step("autos-completeness", "no further automorphisms",
         lambda: {}, status="assumed")

    # 9. numeric oracle at t in {2, 3, 5}
    step("numeric-oracle", "counts, residues and the S6 line graph",
         lambda: {"audit": full_audit(catalog, seed=seed)})

    return checks


def _expect(value, expected):
    if value != expected:
        raise VerificationError("expected %r, found %r" % (expected, value))
    return value


def cmd_reproduce(args):
    mutation = None
    if args.mutate:
        parts = args.mutate.split(",")
        if len(parts) != 4:
            raise UsageError("--mutate takes surface,chart,term,delta")
        try:
            mutation = (parts[0], int(parts[1]), int(parts[2]),
                        Fraction(parts[3]))
        except (ValueError, ZeroDivisionError):
            raise UsageError("bad --mutate argument %r" % args.mutate)
    try:
        catalog = build_catalog(mutation)
    except GeometryError as ex:     # unknown surface or chart, zero delta
        raise UsageError(str(ex))
    checks = _run_reproduction(catalog, seed=args.seed,
                               timings=args.timings)
    return checks, {"suite": "reproduce-paper", "check_count": len(checks)}


# ---------------------------------------------------------------------------
# entry point

def build_parser():
    p = argparse.ArgumentParser(
        prog="kleinfib",
        description="exact verification certificates for exceptional "
                    "curves on ADE fibrations")
    _output_options(p)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curves", help="enumerate exceptional curves")
    c.add_argument("surface")
    c.set_defaults(fn=cmd_curves)

    v = sub.add_parser("verdict", help="rationality verdict for a case")
    v.add_argument("case")
    v.add_argument("--ext", type=int, required=True,
                   help="degree m of the radical extension")
    v.set_defaults(fn=cmd_verdict)

    g = sub.add_parser("verdict-grid", help="the 150-cell verdict table")
    g.set_defaults(fn=cmd_verdict_grid)

    l = sub.add_parser("lattice", help="root system and (-1)-classes")
    l.add_argument("r", type=int)
    l.set_defaults(fn=cmd_lattice)

    a = sub.add_parser("autos", help="automorphism verification")
    a.add_argument("surface")
    a.add_argument("--n", type=int, help="index for the an family")
    a.add_argument("--poly", help="shear polynomial P(y) for the an family")
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(fn=cmd_autos)

    d = sub.add_parser("audit", help="numeric oracle audit")
    d.add_argument("surface")
    d.add_argument("--t", default="2")
    d.add_argument("--tol", type=float, default=1e-8)
    d.add_argument("--seed", type=int, default=0)
    d.set_defaults(fn=cmd_audit)

    r = sub.add_parser("reproduce-paper",
                       help="run the full verification suite")
    r.add_argument("--mutate",
                   help="inject a fault: surface,chart,term,delta")
    r.add_argument("--seed", type=int, default=0)
    r.set_defaults(fn=cmd_reproduce)
    # the options also follow the subcommand; there they have no default,
    # so that one given before it survives
    for command in sub.choices.values():
        _output_options(command, default=argparse.SUPPRESS)
    return p


def _output_options(parser, **default):
    parser.add_argument("--out", help="also write the JSON certificate here",
                        **default)
    parser.add_argument("--timings", action="store_true",
                        help="include elapsed wall time, for reproduce-paper "
                             "also per check (breaks byte-identical output)",
                        **default)


def _attach_poly_value(argv):
    """Rewrite "--poly VALUE" as "--poly=VALUE", so that a polynomial such as
    -2*y^2+7 is not taken for an option."""
    out = []
    it = iter(argv)
    for arg in it:
        if arg == "--poly":
            arg = "--poly=" + next(it, "")
        out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    argv = _attach_poly_value(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    started = time.monotonic()
    try:
        checks, payload = args.fn(args)
    except UsageError as ex:
        sys.stderr.write("error: %s\n" % ex)
        return 2
    except Exception as ex:
        cert = certificate(args.command, _inputs(args),
                           [check("pipeline", "plumbing", status="failed",
                                  **_failure(ex))])
        emit(cert, args.out)
        return 1
    elapsed = time.monotonic() - started if args.timings else None
    cert = certificate(args.command, _inputs(args), checks, payload,
                       elapsed=elapsed)
    emit(cert, args.out)
    return 0 if cert["status"] == "verified" else 1


def _inputs(args):
    skip = {"fn", "command", "out", "timings"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


if __name__ == "__main__":
    sys.exit(main())
