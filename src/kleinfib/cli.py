"""Command-line front end: JSON verification certificates for every
pipeline, plus the one-shot `reproduce-paper` suite.

Exit codes: 0 all checks verified, 1 a verification failed (the JSON
names it), 2 usage or input error.  Output is byte-identical across runs
with the same inputs and seed (canonical key ordering, no timestamps
unless --timings is given)."""

import argparse
import gc
import json
import math
import re
import sys
import time
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

from . import __version__
from .base import GeometryError, VerificationError, _surface_cache
from .multipoly import MultiPoly
# module level holds only base and multipoly, which every command shares;
# each command imports geometry and its own pipeline as it runs

SCHEMA = "kleinfib-certificate/1"

# the largest n accepted in an:<n>, dn:<n> and --n: the D_n families live
# in Q(zeta_M)(mu) with M = lcm(4, 2(n-1)), and the wild shears expand
# (x + yP)^n (bounded further by SHEAR_MAX_TERMS and SHEAR_MAX_BITS), so
# the cost grows steeply with n
MAX_FAMILY_INDEX = 32

# the |t| accepted by audit: the oracle evaluates powers of t and of each
# curve's parameter in doubles, and far out they overflow (S8 at |t| =
# 1e300), which would read as a refuted check; every audited surface
# verifies at 2^+-20, so the range has room to spare
AUDIT_T_RANGE = (Fraction(1, 2**12), Fraction(2**12))

# the --tol accepted by audit: every audited surface verifies across it at
# every t tried in AUDIT_T_RANGE; a tighter tolerance refutes correct
# surfaces on rounding error, a looser one lets wrong curves pass: an S7 or
# S8 graph with one coefficient off by a relative 1e-6 leaves largest
# residues of 2.5e-8 to 6e-7 (and --tol 1 cannot fail: a relative residue
# never exceeds 1)
AUDIT_TOL_RANGE = (1e-10, 1e-8)

# --poly: an expanded sum of terms c, y, y^k, c*y or c*y^k (c, k decimal)
POLY_MAX_DEGREE = 64
_TERM = r"(?:(\d+)\s*\*\s*)?(y)(?:\s*\^\s*(\d+))?|(\d+)"
_POLY = r"\s*[+-]?\s*(?:%s)(?:\s*[+-]\s*(?:%s))*\s*" % (_TERM, _TERM)
_SIGNED_TERM = r"([+-]?)\s*(?:%s)" % _TERM

# the largest shear autos an verifies: (x + yP)^n, which it expands twice,
# with at most SHEAR_MAX_TERMS terms and coefficients of at most
# SHEAR_MAX_BITS bits (_shear_size).  The time grows about as the square of
# the terms and with the bits: the slowest input found within both bounds,
# n = 8 and P = c (1 + y + ... + y^64) with c = 2^249, takes about 1.2 s
# (one 2-vCPU machine, CPython 3.11); n = 32 with P = 1 + y + ... + y^64
# (33825 terms) ran past 120 s
SHEAR_MAX_TERMS = 2500
SHEAR_MAX_BITS = 2048


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# serialization

def _jsonable(obj):
    """obj as JSON values; a record (a class with a ``_fields`` tuple of
    attribute names, namedtuples too) becomes the dict of its fields."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, MultiPoly):
        return repr(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    fields = getattr(type(obj), "_fields", None)
    if fields is not None:
        return {f: _jsonable(getattr(obj, f)) for f in fields}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def _curve_entry(c):
    """The certificate entry of c, a family of c.count curves."""
    data = {k: _jsonable(v) for k, v in sorted(c.data.items())
            if isinstance(v, (str, int, bool, Fraction))}
    return {"surface": c.surface, "family": c.family, "branch": c.branch,
            "chart": 0, "parameter": c.parameter,
            "count": c.count, "equations": [repr(e) for e in c.equations],
            "relation": repr(c.relation) if c.relation is not None else None,
            "data": data}


def emit(cert, out=None):
    """Print cert (and write it to `out`) as json.dumps(cert, sort_keys=True,
    indent=2) + "\n", splicing in the text each check keeps."""
    text = json.dumps(dict(cert, checks=[]), sort_keys=True, indent=2) + "\n"
    if cert["checks"]:
        text = text.replace('\n  "checks": []', '\n  "checks": [\n    %s\n  ]'
                            % ",\n    ".join(c.text for c in cert["checks"]))
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


class _Entry(dict):
    """A check of a certificate with its JSON `text`, indented to its place
    there; a memoized one is shared, so every mutator raises TypeError."""
    __slots__ = ("text",)

    def __init__(self, fields):
        super().__init__(fields)
        self.text = json.dumps(self, sort_keys=True, indent=2).replace(
            "\n", "\n    ")

    def _frozen(self, *args, **kwargs):
        raise TypeError("a check entry is shared; change a copy of it")
    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = \
        setdefault = update = _frozen


def check(name, ref, status="verified", **extra):
    return _Entry(dict(name=name, status=status, ref=ref, **_jsonable(extra)))


# ---------------------------------------------------------------------------
# subcommands

def _families(s, command):
    """curves.surface_families(s).  A surface without curves
    (curves.has_curves, decided before any arithmetic) has no `command`, a
    usage error; a failure inside an enumeration is not one."""
    from .curves import has_curves, surface_families
    if not has_curves(s):
        raise UsageError("no %s for %r" % (command, s.name))
    return surface_families(s)


def _paper_curves(s):
    """The curve families certified on s, and the number of curves the
    paper counts there: 2n on an:<n>, and 2 + 2(n - 1) on dn:<n>."""
    return (list(_families(s, "curve enumeration").values()),
            {"s6": 27, "s7": 56, "s8": 240}.get(s.name) or 2 * s.index)


def _residuals(name):
    """The displayed residual polynomials of the curves of s7 and s8, by
    label."""
    from .curves import q_cubic, q1_quartic, q2_quartic
    qs = {"s7": {"Q": q_cubic}, "s8": {"Q1": q1_quartic, "Q2": q2_quartic}}
    return {label: [str(c) for c in q()]
            for label, q in qs.get(name, {}).items()}


def cmd_curves(args):
    s = _surface(args.surface)
    curves, expected = _paper_curves(s)
    count = sum(c.count for c in curves)
    checks = [check("membership-residues-zero",
                    "every listed curve lies on the surface", curves=count),
              check("curve-count", "expected exceptional-curve count",
                    status="verified" if count == expected else "failed",
                    count=count, expected=expected)]
    payload = {"residual_" + k: v for k, v in _residuals(s.name).items()}
    payload["count"] = count
    payload["curves"] = [_curve_entry(c) for c in curves]
    return checks, payload


def _family_index(name):
    """n of an:<n> or dn:<n> (also klein-an:<n>, klein-dn:<n>), checked
    against its family's range, 2 <= n <= MAX_FAMILY_INDEX for an and
    4 <= n <= MAX_FAMILY_INDEX for dn, before any arithmetic; None for
    other names."""
    family, sep, index = name.replace("klein-", "").partition(":")
    if not sep or family not in ("an", "dn"):
        return None
    try:
        n = int(index)
    except ValueError:
        raise UsageError("bad surface index in %r" % name)
    low = 2 if family == "an" else 4
    if not low <= n <= MAX_FAMILY_INDEX:
        raise UsageError("index out of range in %r (%d..%d)"
                         % (name, low, MAX_FAMILY_INDEX))
    return n


def _surface(name):
    """The catalog surface called `name`, built here at the edge; an index
    out of range or a name that is no surface is a usage error."""
    from .geometry import build_surface
    _family_index(name)
    try:
        return build_surface(name)
    except GeometryError as ex:
        raise UsageError(str(ex))


def _klein_surface(case):
    """The affine Klein surface of an automorphism case: e6 -> klein-e6.  A
    case that names none is a usage error that names the case as given and
    lists the accepted ones."""
    base = case.replace("klein-", "")
    try:
        if base in ("e6", "e7", "e8") or _family_index(base):
            return _surface("klein-" + base)
    except UsageError:
        pass
    raise UsageError("no automorphism case %r: autos accepts e6, e7, e8, "
                     "an:<n> (2 <= n <= %d) and dn:<n> (4 <= n <= %d)"
                     % (case, MAX_FAMILY_INDEX, MAX_FAMILY_INDEX))


def cmd_verdict(args):
    if args.ext < 1:
        raise UsageError("--ext must be >= 1")
    from .orbits import (AXIOM, BaseExtension, case_surface,
                         rationality_verdict)
    try:
        name = case_surface(args.case)
    except ValueError as ex:
        raise UsageError(str(ex))
    verdict = rationality_verdict(args.case, BaseExtension(args.ext),
                                  _surface(name))
    note = ("minimal: no Galois orbit of pairwise-disjoint (-1)-curves; "
            "rational iff K^2 >= 5 (Iskovskikh); each Galois orbit of "
            "curves is matched to the one c-cycle whose meeting numbers are "
            "its exact row") if args.case[0] == "e" \
        else ("%s: minimal: no Galois orbit of pairwise-disjoint "
              "(-1)-curves; a conic bundle (K^2 = 8 - its singular fibres) "
              "with <= 1 singular fibre and a point is rational, one with "
              ">= 4 is not (Iskovskikh); orbit and intersection inputs are "
              "machine-verified" % AXIOM)
    checks = [check("rationality-verdict",
                    "rule table over the radical extension",
                    rational=verdict.rational, a=verdict.a,
                    rule=verdict.rule),
              check("rule-table", "minimal-model rule table",
                    status="assumed", note=note)]
    return checks, {"verdict": verdict}


def cmd_verdict_grid(args):
    from .geometry import build_catalog
    from .orbits import verdict_grid
    cells = verdict_grid(build_catalog())
    checks = [check("grid-verdicts", "a verdict from the minimal model on "
                    "every cell", cells=len(cells))]
    return checks, {"grid": cells}


def cmd_lattice(args):
    r = args.r
    if not 3 <= r <= 8:
        raise UsageError("r must be in 3..8")
    from .lattice import build_root_system, minus_one_classes
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
    if case in ("an", "dn"):
        if args.n is None:
            raise UsageError("autos %s requires --n" % case)
        case = "%s:%d" % (case, args.n)
    elif args.n is not None:
        raise UsageError("--n only applies to the an and dn families, "
                         "given without an index")
    s = _klein_surface(case)
    wild = None
    if args.poly is not None:
        if not s.name.startswith("klein-an:"):
            raise UsageError("--poly only applies to the an family")
        wild = [_parse_poly(args.poly)]
        terms, bits = _shear_size(s.index, wild[0])
        if terms > SHEAR_MAX_TERMS or bits > SHEAR_MAX_BITS:
            raise UsageError(
                "--poly: the shear is too large to verify: (x + yP)^%d has "
                "up to %d terms (at most %d) with coefficients of up to %d "
                "bits (at most %d)" % (s.index, terms, SHEAR_MAX_TERMS, bits,
                                       SHEAR_MAX_BITS))
    from .autos import autos_report
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
    if not re.fullmatch(_POLY, text):
        raise UsageError("cannot parse polynomial %r: expected a sum of "
                         "terms c, y^k or c*y^k" % text)
    terms = {}
    for sign, coeff, y, exp, const in re.findall(_SIGNED_TERM, text):
        try:
            k = (int(exp) if exp else 1) if y else 0
            c = Fraction(int(coeff or const or 1)) * (-1 if sign == "-" else 1)
        except ValueError:      # past sys.get_int_max_str_digits() digits
            raise UsageError("a number in polynomial %r has too many digits"
                             % text) from None
        if k > POLY_MAX_DEGREE:
            raise UsageError("degree %d exceeds %d in polynomial %r"
                             % (k, POLY_MAX_DEGREE, text))
        terms[(0, k, 0)] = terms.get((0, k, 0), 0) + c
    return MultiPoly(("x", "y", "z"), terms)


def _shear_size(n, P):
    """(terms, bits): bounds on the number of terms of (x + yP)^n and on
    the bits of its coefficients, from n, deg P, the number m of terms of P
    and their 1-norm |P|: (yP)^k has at most min(k deg P + 1,
    C(m + k - 1, k)) terms, one per degree or per multiset of k terms of P,
    and no coefficient of (x + yP)^n exceeds (1 + |P|)^n."""
    d, m = max(P.degree("y"), 0), len(P.terms)
    norm = sum(abs(c) for c in P.terms.values())
    return (sum(min(k * d + 1, math.comb(m + k - 1, k))
                for k in range(1, n + 1)) + 1,
            n * int(1 + norm).bit_length())


def _rational(text):
    """Fraction(text), with a decimal exponent beyond
    sys.get_int_max_str_digits() (4300, CPython's default, where the limit
    is off or, before 3.10.7, absent) refused by ValueError before Fraction
    builds 10^exponent, which takes 0.2 s for 1e1000000 and 8 s for
    1e10000000."""
    exponent = re.search(r"[eE]([-+]?\d[\d_]*)\s*\Z", text)
    limit = getattr(sys, "get_int_max_str_digits", int)() or 4300
    if exponent and abs(int(exponent.group(1))) > limit:
        raise ValueError("the exponent of %r is beyond +-%d" % (text, limit))
    return Fraction(text)


def cmd_audit(args):
    try:
        t = _rational(args.t)
    except (ValueError, ZeroDivisionError) as ex:
        raise UsageError("--t must be a rational number: %s" % ex)
    if t == 0:
        raise UsageError("t = 0 lies on every discriminant locus")
    low, high = AUDIT_T_RANGE
    if not low <= abs(t) <= high:
        raise UsageError("|t| must lie in [%s, %s], where the oracle's "
                         "samples stay within the range of a double"
                         % AUDIT_T_RANGE)
    low, high = AUDIT_TOL_RANGE
    if not low <= args.tol <= high:
        raise UsageError("--tol must lie in [%g, %g], where the oracle "
                         "verifies every audited surface" % AUDIT_TOL_RANGE)
    from .numeric import NumericConfig, numeric_curve_audit
    cfg = NumericConfig(t=t, tol=args.tol, seed=args.seed)
    s = _surface(args.surface)
    _families(s, "numeric audit")
    report = numeric_curve_audit(s, cfg)
    checks = [check("numeric-audit", "floating-point oracle at t = %s" % t,
                    count=report["count"],
                    max_residue=report["max_residue"])]
    return checks, {"report": report}


# ---------------------------------------------------------------------------
# reproduce-paper

def _dehomogenize_pairs(catalog):
    """Exact consistency between each compactified model and its affine
    Klein equation, pair by pair."""
    from .geometry import AN_RANGE, DN_RANGE
    xyz = (("X", "x"), ("Y", "y"), ("Z", "z"))
    pairs = [("s6prime", "klein-e6", "W", xyz), ("s7", "klein-e7", "W", xyz),
             ("s8", "klein-e8", "W", xyz)]
    pairs += [("an:%d" % n, "klein-an:%d" % n, "w", ()) for n in AN_RANGE]
    pairs += [("dn:%d" % n, "klein-dn:%d" % n, "w", ()) for n in DN_RANGE]
    for model, klein, fibre_var, rename in pairs:
        _dehomogenizes(catalog[model], catalog[klein], fibre_var, rename)
    return len(pairs)


@_surface_cache
def _dehomogenizes(model, klein, fibre_var, rename):
    """Restricting the fibre coordinate of the model surface to 1 must
    reproduce +-(f - t), f the equation of the Klein surface, as a
    polynomial; `rename` holds the (model, Klein) pairs of variable names
    that differ."""
    eq = model.equations[0]
    one = MultiPoly.const(eq.vars, Fraction(1))
    deh = eq.substitute({fibre_var: one})
    # relabel to the Klein names; the fibre coordinate no longer occurs
    names = dict(rename)
    kv = klein.equation.vars + ("t",)
    deh = MultiPoly(tuple(names.get(v, v) for v in deh.vars),
                    deh.terms).rename(kv)
    target = klein.equation.rename(kv) - MultiPoly.var(kv, "t")
    if deh != target and deh != -target:
        raise VerificationError(
            "%s does not dehomogenize to %s" % (model.name, klein.name))


def _failure(ex):
    """The error fields of a failed check: a refuted mathematical check is a
    verification failure, any other exception an internal error."""
    kind = "verification" if isinstance(
        ex, (VerificationError, GeometryError)) else "internal"
    detail = getattr(ex, "detail", None)
    return dict(error="%s: %s" % (type(ex).__name__, ex), error_kind=kind,
                **({} if detail is None else {"detail": str(detail)[:200]}))


class _ReadLog(Mapping):
    """The catalog as a check sees it: the name of each surface looked up
    is logged, and iterating logs them all, so no surface is read unseen."""

    def __init__(self, surfaces):
        self.surfaces, self.names = surfaces, set()

    def __getitem__(self, name):
        surface = self.surfaces[name]
        self.names.add(name)
        return surface

    def __iter__(self):
        self.names.update(self.surfaces)
        return iter(self.surfaces)

    def __len__(self):
        return len(self.surfaces)


# a catalog surface's hash, computed once when it is built
_surface_hash = attrgetter("_hash")


class _CheckMemo(dict):
    """(check name, seed) -> {(names, hashes): [(surfaces, entry), ...]}:
    an entry, failed or not, is reused while the surfaces its run read are
    the catalog's.  Runs are found by the surfaces' cached hash ints
    (SurfaceSpec._hash), not through the Python-level __hash__, and a run
    holds only if each of its surfaces is the catalog's or equals it.  Runs
    whose surfaces share their hashes share one list: unequal surfaces can
    (CPython hashes -1 and -2 alike, so a coefficient -1 mutated by -1
    keeps the surface's hash).  `names` keeps each key's distinct sorted
    names read, one dict lookup each."""

    def __init__(self):
        super().__init__()
        self.names = {}

    def lookup(self, key, surfaces):
        runs = self.get(key, {})
        for names in self.names.get(key, ()):
            read = tuple(map(surfaces.get, names))
            for stored, entry in runs.get(
                    (names, tuple(map(_surface_hash, read))), ()):
                if stored == read:
                    return names, entry
        return None

    def add(self, key, names, surfaces, entry):
        read = tuple(map(surfaces.get, names))
        self.setdefault(key, {}).setdefault(
            (names, tuple(map(_surface_hash, read))), []).append(
                (read, entry))
        self.names.setdefault(key, {})[names] = None

    def cache_clear(self):
        self.clear()
        self.names.clear()


_check_memo = _CheckMemo()


def _run_reproduction(catalog, seed=0, timings=False):
    """Every check of the paper, each reading its surfaces from `catalog`,
    reused from _check_memo while they are unchanged; with `timings`, each
    carries its wall time, `elapsed`, and its surfaces' names, `reads`."""
    from .autos import autos_report
    from .geometry import (AN_RANGE, DN_RANGE, boundary_selfintersection,
                           charts_compatible, verify_contraction_S6)
    from .lattice import coxeter_number, minus_one_classes
    from .numeric import NumericConfig, full_audit, sturm_vs_numeric
    from .orbits import (case_surface, dn_intersections, family_rows,
                         fibre_rows, rationality_degree, s6_intersections,
                         s7_conjugation, s8_conjugation, verdict_grid)
    checks = []
    catalog = _ReadLog(catalog)

    def step(name, ref, fn, status="verified"):
        started = time.monotonic()
        hit = _check_memo.lookup((name, seed), catalog.surfaces)
        if hit is None:
            catalog.names.clear()
            try:
                fn_extra = fn()
            except Exception as ex:
                entry = check(name, ref, status="failed", **_failure(ex))
            else:
                entry = check(name, ref, status=status, **(fn_extra or {}))
            reads = tuple(sorted(catalog.names))
            _check_memo.add((name, seed), reads, catalog.surfaces, entry)
        else:
            reads, entry = hit
        if timings:
            entry = _Entry(dict(entry, elapsed=time.monotonic() - started,
                                reads=list(reads)))
        checks.append(entry)

    # 1-2. curve enumerations and the displayed residual polynomials
    def curve_count(name):
        curves, expected = _paper_curves(catalog[name])
        return dict(_residuals(name), count=_expect(
            sum(c.count for c in curves), expected))
    step("curves-s6", "27 lines on the cubic model",
         lambda: curve_count("s6"))
    step("curves-s7", "56 exceptional curves; residual cubic Q",
         lambda: curve_count("s7"))
    step("curves-s8", "240 exceptional curves; residual quartics Q1, Q2",
         lambda: curve_count("s8"))
    for n in AN_RANGE:
        step("curves-an:%d" % n, "2n fibre components",
             lambda n=n: curve_count("an:%d" % n))
    for n in DN_RANGE:
        step("curves-dn:%d" % n, "2 + 2(n-1) fibre components",
             lambda n=n: curve_count("dn:%d" % n))

    # catalog self-consistency
    step("dehomogenization", "models restrict to the Klein equations",
         lambda: {"pairs": _dehomogenize_pairs(catalog)})
    for name in ["an:%d" % n for n in AN_RANGE] + \
                ["dn:%d" % n for n in DN_RANGE]:
        step("charts-%s" % name, "atlas gluing and chart-oo equation",
             lambda name=name: {
                 "compatible": charts_compatible(catalog[name])})

    # 8. contraction identity in both charts
    step("contraction-s6", "quartic model contracts onto the cubic",
         lambda: {"ok": verify_contraction_S6(
             catalog["s6"], catalog["s6prime"])["ok"]})

    # 3. Sturm counts of the residuals of s7 and s8 and the numeric
    # cross-check; sturm_vs_numeric refuses a count other than 3, 4, 4
    step("sturm", "real-root counts of Q, Q1, Q2",
         lambda: {"numeric": sturm_vs_numeric(
             catalog["s7"], catalog["s8"], NumericConfig(seed=seed))})

    # 4. the paper's degrees a against the verdicts and h, and the 150 cells
    table = {"e6": 12, "e7": 18, "e8": 30, "an:2": 1, "an:5": 1,
             "dn:4": 2, "dn:5": 8, "dn:6": 2, "dn:9": 16}

    def a_table():
        a = {c: rationality_degree(c, catalog[case_surface(c)]) for c in table}
        h = {e: coxeter_number(e.upper()) for e in ("e6", "e7", "e8")}
        return {"a": _expect(_expect(a, dict(table, **h)), table)}
    step("a-table", "minimal radical extension degrees", a_table)
    step("verdict-grid", "150 cells: verdict == divisibility a | m",
         lambda: {"cells": _expect(
             sum(1 for c in verdict_grid(catalog)
                 if c["rational"] == (c["m"] % c["a"] == 0)), 150)})
    step("rule-table", "minimal-model endpoints per orbit pattern",
         lambda: {}, status="assumed")

    # 5. intersection rows
    step("intersections-s6", "conjugate line meetings on the cubic",
         lambda: {k: v for k, v in s6_intersections(catalog["s6"]).items()
                  if k != "surface"})
    for order in (2, 3):
        step("conjugation-s7-order%d" % order,
             "S7 conjugate pairs share a point",
             lambda order=order: {"ok": _expect(
                 s7_conjugation(catalog["s7"], order)["verified"], True)})
    for order in (2, 3, 5):
        step("conjugation-s8-order%d" % order,
             "S8 conjugate pairs for xi of order 2, 3, 5",
             lambda order=order: {"ok": _expect(all(
                 s8_conjugation(catalog["s8"], order, branch)["verified"]
                 for branch in ("P1", "P2")), True)})
    step("intersections-s7-e0", "the two e = 0 curves meet at (0:1:0:0)",
         lambda: {"ok": _expect(
             family_rows(catalog["s7"])["rows"]["e0"][1][1] > 0, True)})
    for n in DN_RANGE:
        step("intersections-dn:%d" % n, "z = +-iymu components meet",
             lambda n=n: {"rows": dn_intersections(
                 catalog["dn:%d" % n])["rows"]})
    for n in AN_RANGE:
        step("intersections-an:%d" % n, "contractible orbit is disjoint",
             lambda n=n: {"rows": fibre_rows(
                 catalog["an:%d" % n], "y0", 0)["rows"]})

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
             [boundary_selfintersection(catalog["dn:%d" % n])
              for n in DN_RANGE], [3 - n for n in DN_RANGE])})

    # 7. automorphism suite
    for case in ["e6", "e7", "e8"] + ["dn:%d" % n for n in DN_RANGE] + \
                ["an:%d" % n for n in (2, 3, 5)]:
        step("autos-%s" % case, "exhibited automorphism groups",
             lambda case=case: {"ok": _expect(
                 autos_report(catalog["klein-" + case],
                              seed=seed)["verified"], True)})
    step("autos-completeness", "no further automorphisms",
         lambda: {}, status="assumed")

    # 9. numeric oracle at t in {2, 3, 5}
    step("numeric-oracle", "counts, residues and real-root counts",
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
                        _rational(parts[3]))
        except (ValueError, ZeroDivisionError) as ex:
            raise UsageError("bad --mutate argument %r: %s"
                             % (args.mutate, ex))
    from .geometry import build_catalog
    try:
        catalog = build_catalog(mutation)
    except GeometryError as ex:     # unknown surface or chart, zero delta
        raise UsageError(str(ex))
    checks = _run_reproduction(catalog, seed=args.seed,
                               timings=args.timings)
    return checks, {"suite": "reproduce-paper", "check_count": len(checks)}


# ---------------------------------------------------------------------------
# entry point

@lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built once per process; each parse_args
    call fills a fresh namespace, so calls share no options."""
    p = argparse.ArgumentParser(
        prog="kleinfib",
        description="exact verification certificates for exceptional "
                    "curves on ADE fibrations")
    _output_options(p)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curves", help="enumerate exceptional curves")
    c.add_argument("surface")
    c.set_defaults(fn="cmd_curves")

    v = sub.add_parser("verdict", help="rationality verdict for a case")
    v.add_argument("case")
    v.add_argument("--ext", type=int, required=True,
                   help="degree m of the radical extension")
    v.set_defaults(fn="cmd_verdict")

    g = sub.add_parser("verdict-grid", help="the 150-cell verdict table")
    g.set_defaults(fn="cmd_verdict_grid")

    l = sub.add_parser("lattice", help="root system and (-1)-classes")
    l.add_argument("r", type=int)
    l.set_defaults(fn="cmd_lattice")

    a = sub.add_parser("autos", help="automorphism verification")
    a.add_argument("surface")
    a.add_argument("--n", type=int,
                   help="index for the an and dn families: an --n 3 is an:3")
    a.add_argument("--poly", help="shear polynomial P(y) for the an family")
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(fn="cmd_autos")

    d = sub.add_parser("audit", help="numeric oracle audit")
    d.add_argument("surface")
    d.add_argument("--t", default="2")
    d.add_argument("--tol", type=float, default=1e-8)
    d.add_argument("--seed", type=int, default=0)
    d.set_defaults(fn="cmd_audit")

    r = sub.add_parser("reproduce-paper",
                       help="run the full verification suite")
    r.add_argument("--mutate",
                   help="inject a fault: surface,chart,term,delta")
    r.add_argument("--seed", type=int, default=0)
    r.set_defaults(fn="cmd_reproduce")
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


def _attach_values(argv):
    """Rewrite "--poly VALUE" and "--t VALUE" as "--poly=VALUE" and
    "--t=VALUE", so that a value with a leading minus, such as the
    polynomial -2*y^2+7 or t = -1/4096, is not taken for an option."""
    out = []
    it = iter(argv)
    for arg in it:
        if arg in ("--poly", "--t"):
            arg += "=" + next(it, "")
        out.append(arg)
    return out


def main(argv=None):
    """Run one command; without argv, the process's own, as its entry point
    (the console script, python -m kleinfib.cli).  Everything such a run
    builds lives until the process exits, so the cyclic collector is off
    while it runs (gc.disable: an automatic collection would only walk it)
    and it is frozen out of the collector before returning (gc.freeze): the
    interpreter's exit-time collections would only walk it too.  main(argv)
    leaves the collector as it is, for callers that go on running."""
    if argv is not None:
        return _main(argv)
    gc.disable()
    try:
        return _main(sys.argv[1:])
    finally:
        gc.freeze()


def _main(argv):
    parser = build_parser()
    argv = _attach_values(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    started = time.monotonic()
    try:
        if args.out:
            _check_writable(args.out)
        # looked up by name on each call, so that a command function rebound
        # on this module after the parser was built (by a test or a tracer)
        # is the one that runs
        checks, payload = globals()[args.fn](args)
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


def _check_writable(path):
    """Refuse, as a usage error, an --out that cannot be opened for writing,
    before the command runs; opening it to append changes no file that
    exists."""
    try:
        open(path, "a").close()
    except OSError as ex:
        raise UsageError("cannot write --out %s: %s" % (path, ex.strerror))


def _inputs(args):
    skip = {"fn", "command", "out", "timings"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


if __name__ == "__main__":
    sys.exit(main())
