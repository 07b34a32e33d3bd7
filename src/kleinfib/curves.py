"""Exceptional-curve enumeration via exact elimination replays.

The fibred surfaces carry finitely many exceptional curves cut out by one
or two auxiliary forms; their coefficients satisfy a triangular system
obtained by equating the W/X-coefficients of the substituted surface
equation to zero.  This module replays those chains exactly over Q,
extracts the residual polynomials, and certifies every curve's membership
modulo the residual relation.
"""

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, wraps
from math import gcd, lcm

from .multipoly import MultiPoly
from .tower import FieldTower, cyclotomic, root_of_unity
from .univariate import (from_multipoly, poly_gcd, resultant_poly,
                         subresultant_prs)


class VerificationError(AssertionError):
    """An exact check that the verification pipeline expected to pass
    came out false; carries the offending polynomial or detail."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


def _surface_cache(fn):
    """Cache fn on its (frozen, hashable) arguments, such as surfaces,
    failures too: a raised exception is kept, without its traceback, and a
    copy of it is raised on every later call with the same arguments (the
    kept one would gather the traceback of each raise, and with it the
    frames of its callers).  A cached value is shared by every caller, so
    none may mutate it.  ``cache_info`` and ``cache_clear`` are those of
    the underlying lru cache."""
    @lru_cache(maxsize=None)
    def outcome(*args):
        try:
            return True, fn(*args)
        except Exception as ex:
            return False, ex.with_traceback(None)

    @wraps(fn)
    def cached(*args):
        ok, value = outcome(*args)
        if ok:
            return value
        raise copy.copy(value)

    cached.cache_info, cached.cache_clear = \
        outcome.cache_info, outcome.cache_clear
    return cached


@dataclass
class CurveSpec:
    surface: str
    family: str
    branch: str
    index: int
    equations: tuple           # forms cutting the curve in its chart
    parameter: str = None      # generator name of the defining relation
    relation: MultiPoly = None
    chart: int = 0
    data: dict = field(default_factory=dict)

    def label(self):
        return (self.surface, self.family, self.branch, self.index)


@dataclass
class EliminationTrace:
    steps: list = field(default_factory=list)
    residual: object = None

    def record(self, name, **info):
        self.steps.append({"name": name, **info})


# ---------------------------------------------------------------------------
# residual polynomial targets (nested forms replayed verbatim)

def q_cubic():
    """X^3 - 29496 X^2 + 401808 X - 64, as a coefficient list (low first)."""
    return [Fraction(-64), Fraction(401808), Fraction(-29496), Fraction(1)]


def _nested_quartic(c2, c1, c0):
    # 108000*X*(5400*X^3 + c2*X^2 + c1*X + c0) + 1, low coefficients first
    inner = [Fraction(c0), Fraction(c1), Fraction(c2), Fraction(5400)]
    return [Fraction(1)] + [Fraction(108000) * c for c in inner]


def q1_quartic():
    """108000 X (5400 X^3 - 20154789349200 X^2 + 522900235 X + 1254) + 1."""
    return _nested_quartic(-20154789349200, 522900235, 1254)


def q2_quartic():
    """108000 X (5400 X^3 - 10810800 X^2 - 44551045 X - 611864) + 1."""
    return _nested_quartic(-10810800, -44551045, -611864)


# ---------------------------------------------------------------------------
# generic helpers

def subs_fraction(p: MultiPoly, name: str, num: MultiPoly, den: MultiPoly):
    """Substitute name -> num/den and clear denominators: returns
    p(..., num/den, ...) * den^deg_name(p), a polynomial."""
    buckets = p.as_univariate(name)
    if not buckets:
        return p
    D = max(buckets)
    if D == 0:
        return buckets[0]
    if num.vars != p.vars:
        num = num.rename(p.vars)
    if den.vars != p.vars:
        den = den.rename(p.vars)
    npow, dpow = [MultiPoly.const(p.vars, 1)], [MultiPoly.const(p.vars, 1)]
    for _ in range(D):
        npow.append(npow[-1] * num)
        dpow.append(dpow[-1] * den)
    out = MultiPoly.zero(p.vars)
    for k, c in buckets.items():
        out = out + c * npow[k] * dpow[D - k]
    return out


def rational_content(p: MultiPoly) -> Fraction:
    num = 0
    den = 1
    for c in p.terms.values():
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    if num == 0:
        return Fraction(1)
    return Fraction(num, den)


def strip_content(p: MultiPoly) -> MultiPoly:
    """Divide out the monomial content and the rational content; normalize
    the graded-lex leading coefficient to be positive."""
    if p.is_zero():
        return p
    p = p.divide_by_term(p.monomial_content())
    c = rational_content(p)
    _, lead = p.leading_term()
    if lead < 0:
        c = -c
    return p.scale(Fraction(1) / c)


def reduce_pair(num: MultiPoly, den: MultiPoly):
    """Strip the common monomial/rational content of a fraction pair,
    preserving its value."""
    mc = tuple(min(a, b) for a, b in
               zip(num.monomial_content(), den.monomial_content()))
    num, den = num.divide_by_term(mc), den.divide_by_term(mc)
    cn, cd = rational_content(num), rational_content(den)
    g = Fraction(gcd(cn.numerator, cd.numerator),
                 (cn.denominator * cd.denominator
                  // gcd(cn.denominator, cd.denominator)))
    _, lead = den.leading_term()
    if lead < 0:
        g = -g
    inv = Fraction(1) / g
    return num.scale(inv), den.scale(inv)


def solve_linear(p: MultiPoly, name: str):
    """Solve p = 0 for `name` (p must be degree 1 in it): returns the
    fraction pair (num, den) with name = num/den."""
    if p.degree(name) != 1:
        raise VerificationError("expected a linear equation in %s" % name,
                                detail=p)
    den = p.coeff_of(name, 1)
    num = -p.coeff_of(name, 0)
    return reduce_pair(num, den)


def chain_subs(p: MultiPoly, solved, strip=True):
    """Apply an ordered list of (name, num, den) fraction substitutions,
    clearing denominators at each step and (by default) stripping content."""
    for name, num, den in solved:
        if p.degree(name) > 0:
            p = subs_fraction(p, name, num, den)
            if strip:
                p = strip_content(p)
    return p


def wx_coefficients(p: MultiPoly, degree: int):
    """Coefficients of W^(degree-j) X^j for j = 0..degree; asserts p is
    exactly the sum of these terms (homogeneous of the given degree)."""
    out = []
    total = MultiPoly.zero(p.vars)
    iW, iX = p.vars.index("W"), p.vars.index("X")
    for j in range(degree + 1):
        c = p.coeff_of("W", degree - j).coeff_of("X", j)
        out.append(c)
        mono = [0] * len(p.vars)
        mono[iW], mono[iX] = degree - j, j
        total = total + c * MultiPoly(p.vars, {tuple(mono): Fraction(1)})
    if total != p:
        raise VerificationError("substituted equation is not homogeneous of "
                                "degree %d in (W, X)" % degree, detail=p)
    return out


def coprime_at_t2(f: MultiPoly, g: MultiPoly, name: str) -> bool:
    """Coprimality certificate over Q(t): specialize t = 2 and take a
    univariate gcd.  Hypothesis, checked here: the leading coefficient of f
    in `name` does not vanish at t = 2.  Then Res(f, g) at t = 2 is a
    nonzero multiple of Res(f(2), g(2)), so a unit gcd at the specialization
    forces a unit generic gcd."""
    two = Fraction(2)
    fs = f.substitute({"t": two}) if "t" in f.vars else f
    gs = g.substitute({"t": two}) if "t" in g.vars else g
    if fs.degree(name) != f.degree(name):
        raise VerificationError("coprimality at t = 2: the leading "
                                "coefficient in %s vanishes there" % name,
                                detail=f)
    fu = from_multipoly(fs, name)
    gu = from_multipoly(gs, name)
    return len(poly_gcd(fu, gu)) == 1


def univariate_from_pure(p: MultiPoly, var_block: str, block: int,
                         tvar: str, sign_flip: bool):
    """Interpret a (mu, t)-polynomial supported on (mu^(block*k), t^k) as a
    univariate polynomial in X = (+-mu^block * t); returns the coefficient
    list or raises if the support is not of that shape."""
    imu = p.vars.index(var_block)
    it = p.vars.index(tvar)
    coeffs = {}
    for e, c in p.terms.items():
        k = e[it]
        if e[imu] != block * k or any(
                v for i, v in enumerate(e) if i not in (imu, it)):
            raise VerificationError(
                "residual is not a polynomial in %s^%d*%s"
                % (var_block, block, tvar), detail=p)
        coeffs[k] = c * (Fraction(-1) ** k if sign_flip else Fraction(1))
    deg = max(coeffs)
    return [coeffs.get(k, Fraction(0)) for k in range(deg + 1)]


# ---------------------------------------------------------------------------
# S7: 56 curves, residual cubic Q

@_surface_cache
def enumerate_s7(s7):
    V = ("W", "X", "Y", "Z", "a", "b", "c", "d", "e", "t")
    eq = s7.equation.rename(V)
    Wv, Xv = (MultiPoly.var(V, v) for v in ("W", "X"))
    av, bv, cv, dv, ev, tv = (MultiPoly.var(V, v)
                              for v in ("a", "b", "c", "d", "e", "t"))
    YS = av * Wv + bv * Xv
    ZS = cv * Wv ** 2 + dv * Wv * Xv + ev * Xv ** 2
    P = -eq.substitute({"Y": YS, "Z": ZS})
    trace = EliminationTrace()
    co = wx_coefficients(P, 4)

    # the five displayed coefficient polynomials
    display = [cv ** 2 + av ** 3 - tv,
               av ** 2 * bv * 3 + cv * dv * 2,
               av * bv ** 2 * 3 + cv * ev * 2 + dv ** 2,
               av + bv ** 3 + dv * ev * 2,
               bv + ev ** 2]
    for j, (got, want) in enumerate(zip(co, display)):
        if got != want:
            raise VerificationError("S7 coefficient of W^%d X^%d deviates"
                                    % (4 - j, j), detail=got - want)
    trace.record("coefficients", count=5, matched_display=True)

    solved = []
    # b = -e^2  (from the X^4 coefficient)
    nb, db = solve_linear(co[4], "b")
    if not (db == MultiPoly.const(V, 1) and nb == -ev ** 2):
        raise VerificationError("b-step deviates from -e^2", detail=(nb, db))
    solved.append(("b", nb, db))
    trace.record("solve b", value="-e^2")

    # a = e^6 - 2de  (from the W X^3 coefficient)
    na, da = solve_linear(chain_subs(co[3], solved), "a")
    if not (da == MultiPoly.const(V, 1) and na == ev ** 6 - 2 * dv * ev):
        raise VerificationError("a-step deviates from e^6 - 2de",
                                detail=(na, da))
    solved.append(("a", na, da))
    trace.record("solve a", value="e^6 - 2de")

    # c = -(d^2 - 6de^5 + 3e^10) / (2e)  (from the W^2 X^2 coefficient)
    nc, dc = solve_linear(chain_subs(co[2], solved), "c")
    if not (dc == 2 * ev and
            nc == -(dv ** 2 - 6 * dv * ev ** 5 + 3 * ev ** 10)):
        raise VerificationError("c-step deviates", detail=(nc, dc))
    solved.append(("c", nc, dc))
    trace.record("solve c", value="-(d^2 - 6de^5 + 3e^10)/(2e)")

    # remaining system in (d, e, t): cleared numerators of co0, co1
    # (unstripped: C0 = 4e^2 * co0 since deg_c(co0) = 2, C1 = 2e * co1)
    C0 = chain_subs(co[0], solved, strip=False)
    C1 = chain_subs(co[1], solved, strip=False)

    # the displayed linear combination eliminating d^2, d^3
    M0 = ev * (28 * dv + 204 * ev ** 5)
    M1 = 7 * dv ** 2 - 299 * dv * ev ** 5 + 243 * ev ** 10
    # co0*M0 + co1*M1 = (C0*M0 + 2e*C1*M1) / (4e^2)
    combo = strip_content(C0 * M0 + 2 * ev * C1 * M1)
    target = ev * (115 * ev ** 18 - 28 * tv) * dv \
        - 6 * ev ** 6 * (11 * ev ** 18 + 34 * tv)
    cof = strip_content(target)
    if combo != cof:
        raise VerificationError("linear combination does not reproduce the "
                                "displayed d-equation", detail=combo - cof)
    nd, dd = solve_linear(target, "d")
    dden_display = 115 * ev ** 18 - 28 * tv
    if dd != dden_display:
        raise VerificationError("d-denominator is not 115e^18 - 28t",
                                detail=dd)
    if nd != 6 * ev ** 5 * (11 * ev ** 18 + 34 * tv):
        raise VerificationError("d-numerator deviates", detail=nd)
    solved.append(("d", nd, dd))
    trace.record("solve d", numerator="6e^5(11e^18 + 34t)",
                 denominator="115e^18 - 28t")

    # residual: t^3 * Q(e^18 / t)
    qc = q_cubic()
    core = MultiPoly.zero(V)
    for k, c in enumerate(qc):
        mono = {"e": 18 * k, "t": 3 - k}
        core = core + MultiPoly.const(V, c) * \
            MultiPoly.var(V, "e", 18 * k) * MultiPoly.var(V, "t", 3 - k)

    R0 = chain_subs(co[0], solved)
    R1 = chain_subs(co[1], solved)
    extracted = strip_content(R1)
    # peel off any leftover powers of the d-denominator
    while extracted.degree("e") > 54:
        extracted = strip_content(extracted.exact_div(dd))
    if extracted != strip_content(core):
        raise VerificationError("extracted S7 residual deviates from Q",
                                detail=extracted)
    for name, R in (("W^4", R0), ("W^3X", R1)):
        if not R.reduce_mod(core, "e").is_zero():
            raise VerificationError("S7 %s coefficient does not vanish on "
                                    "the residual locus" % name, detail=R)
    # extract the cubic itself from the (e^18, t)-support
    qx = univariate_from_pure(
        _homog_to_pure(extracted, 18, 3), "e", 18, "t", sign_flip=False)
    if qx != qc:
        raise VerificationError("residual cubic coefficients deviate",
                                detail=qx)
    trace.record("residual", cubic=[str(c) for c in qc],
                 display="-111 e^14 (e^54 - 29496 e^36 t + 401808 e^18 t^2 "
                         "- 64 t^3) / (115 e^18 - 28 t)^3")
    trace.residual = core

    # Vieta cross-check on Q: sum of roots, product of roots
    if -qc[2] / qc[3] != 29496 or -qc[0] / qc[3] != 64:
        raise VerificationError("Vieta check on Q failed")

    # secondary path: d-resultant of the two remaining coefficients
    res = strip_content(resultant_poly(C0, C1, "d"))
    probe = res
    hits = 0
    while True:
        try:
            probe = strip_content(probe.exact_div(core))
            hits += 1
        except ArithmeticError:
            break
    if hits < 1:
        raise VerificationError("resultant cross-check: residual does not "
                                "divide Res_d", detail=res)
    trace.record("resultant cross-check", core_multiplicity=hits,
                 leftover_degree_e=probe.degree("e"))

    # full replay of all five original coefficients
    for j in range(5):
        R = chain_subs(co[j], solved)
        if not (R.is_zero() or R.reduce_mod(core, "e").is_zero()):
            raise VerificationError("replay of coefficient %d nonzero" % j,
                                    detail=R)
    trace.record("replay", coefficients=5, residue="0")

    # denominators invertible on the residual locus (specialized gcd cert)
    for dpoly, label in ((2 * ev, "2e"), (dd, "115e^18 - 28t")):
        if not coprime_at_t2(dpoly, core, "e"):
            raise VerificationError("denominator %s not invertible modulo "
                                    "the residual" % label)
    trace.record("denominator certificates", specialization="t=2", ok=True)

    curves = _s7_curves(s7, solved, core, V)
    if len(curves) != 56:
        raise VerificationError("S7 curve count %d != 56" % len(curves))
    return curves, trace, core


def _homog_to_pure(p: MultiPoly, block: int, deg: int):
    """Check p is supported on e^(block*k) t^(deg-k), return it re-supported
    on (e^(block*k), t^k) so univariate_from_pure can read off Q."""
    ie = p.vars.index("e")
    it = p.vars.index("t")
    out = {}
    for e, c in p.terms.items():
        k, j = e[ie], e[it]
        if k % block or k // block + j != deg:
            raise VerificationError("residual support is not homogeneous in "
                                    "(e^%d, t)" % block, detail=p)
        e2 = list(e)
        e2[it] = k // block
        out[tuple(e2)] = c
    return MultiPoly(p.vars, out)


def _s7_curves(s7, solved, core, V):
    """CurveSpecs: 2 curves on the e = 0 branch, 54 on the main branch."""
    curves = []
    # e = 0 branch: a = b = d = 0, c^2 = t; curves Y = 0, Z = +-sqrt(t) W^2.
    T, t = s7_e0_tower()
    r = T.gen("r")
    cvars = ("W", "X", "Y", "Z")
    Y = MultiPoly.var(cvars, "Y")
    Z = MultiPoly.var(cvars, "Z")
    W2 = MultiPoly.var(cvars, "W", 2)
    rel = MultiPoly(("r", "t"), {(2, 0): Fraction(1), (0, 1): Fraction(-1)})
    for idx, sgn in enumerate((1, -1)):
        eqs = (Y, Z - W2.scale(T.lift(sgn) * r))
        _certify_membership(s7, T, {"Y": MultiPoly.zero(cvars),
                                    "Z": W2.scale(T.lift(sgn) * r)}, t)
        curves.append(CurveSpec("s7", "S7-e0", "e0", idx, eqs,
                                parameter="r", relation=rel,
                                data={"c": "+-sqrt(t)", "sign": sgn}))
    # main branch: 54 roots of the residual; equations symbolic in e.
    pairs = {name: (num, den) for name, num, den in solved}
    data = {"coeff_pairs": pairs, "relation": core}
    cvars6 = ("W", "X", "Y", "Z", "e", "t")
    for j in range(54):
        curves.append(CurveSpec("s7", "S7-main", "main", j,
                                _s7_symbolic_equations(pairs, cvars6),
                                parameter="e", relation=core, data=data))
    return curves


def s7_e0_tower():
    """Q(r), the field of the two e = 0 curves Z = +-r W^2 on S7, with
    t = r^2.  Returns (tower, t)."""
    T = FieldTower.rationals().extend_ratfunc("r")
    return T, T.gen("r") ** 2


def project_vars(p: MultiPoly, variables) -> MultiPoly:
    """Reinterpret over a smaller variable tuple; the dropped variables must
    not occur in p."""
    variables = tuple(variables)
    keep = []
    for v in p.vars:
        if v in variables:
            keep.append(p.vars.index(v))
        elif p.degree(v) > 0:
            raise ValueError("variable %s still occurs" % v)
        else:
            keep.append(None)
    out = {}
    idx = {v: i for i, v in enumerate(variables)}
    for e, c in p.terms.items():
        e2 = [0] * len(variables)
        for v, k in zip(p.vars, e):
            if k:
                e2[idx[v]] = k
        out[tuple(e2)] = c
    return MultiPoly(variables, out)


def _s7_symbolic_equations(pairs, cvars):
    """Cleared forms of Y = aW + bX and Z = cW^2 + dWX + eX^2 with the
    solved fractions substituted; coefficients polynomial in (e, t)."""
    W, X, Y, Z, E = (MultiPoly.var(cvars, v) for v in
                     ("W", "X", "Y", "Z", "e"))
    nb, db = pairs["b"]
    na, da = pairs["a"]
    nc, dc = pairs["c"]
    nd, dd = pairs["d"]
    # a, b have trivial denominators; d enters a and c via substitution
    aN = subs_fraction(na, "d", nd, dd)
    aD = dd ** max(na.degree("d"), 0) if na.degree("d") > 0 else None
    cN = subs_fraction(nc, "d", nd, dd)
    cDeg = max(nc.degree("d"), 1)
    pj = lambda p: project_vars(p, cvars)
    aN, nd_, dd_, nb_, dc_ = map(pj, (aN, nd, dd, nb, dc))
    cN = pj(cN)
    aD = pj(aD) if aD is not None else MultiPoly.const(cvars, 1)
    cD = dc_ * dd_ ** cDeg
    eqY = aD * Y - aN * W - nb_ * aD * X
    eqZ = cD * Z - cN * W ** 2 - nd_ * dc_ * dd_ ** (cDeg - 1) * W * X \
        - E * cD * X ** 2
    return (strip_content(eqY), strip_content(eqZ))


def _certify_membership(surface, tower, substitution, t):
    """Substitute curve forms and the value t (an element of the tower) into
    the chart-0 surface equation and require the exact zero polynomial."""
    eqvars = surface.equation.vars
    sub = {k: (v.rename(eqvars) if v.vars != eqvars else v)
           for k, v in substitution.items()}
    eq = surface.equation.map_coeffs(tower.lift)
    eq = eq.substitute(sub)
    eq = eq.substitute({"t": MultiPoly.const(eqvars, t)})
    if not eq.is_zero():
        raise VerificationError("membership residue nonzero", detail=eq)


# ---------------------------------------------------------------------------
# S8: 240 curves, residual quartics Q1, Q2

def s8_branch_quartics(V):
    """The two displayed quartics P1, P2 in (b, mu) splitting the X^2 W^4
    coefficient after the a-elimination."""
    b = MultiPoly.var(V, "b")
    m4 = MultiPoly.var(V, "mu", 4)
    P1 = 5 * b ** 4 * m4 ** 4 - 690 * b ** 3 * m4 ** 3 \
        - 260 * b ** 2 * m4 ** 2 - 30 * b * m4 - 1
    P2 = 5 * b ** 4 * m4 ** 4 + 10 * b ** 3 * m4 ** 3 \
        - 20 * b ** 2 * m4 ** 2 - 10 * b * m4 - 1
    return P1, P2


@_surface_cache
def enumerate_s8(s8):
    """Replay the S8 elimination chain and certify both residual quartics.

    Convention (see the curve display): the curve forms are
        Y = a W^2 + b WX - mu^2 X^2,   Z = d W^3 + e W^2X + f WX^2 - mu^3 X^3,
    i.e. c = mu^2 and g = -mu^3, under which the X^6 coefficient vanishes
    identically, f = (1 + 3 mu^4 b)/(2 mu^3) comes out verbatim and the
    X^2 W^4 coefficient splits as P1 * P2 verbatim.  The signs of the
    intermediate e/d/a displays are not trusted: the chain re-derives them
    and certifies the final residuals bit-for-bit.
    """
    V = ("W", "X", "Y", "Z", "a", "b", "d", "e", "f", "mu", "t")
    eq = s8.equation.rename(V)
    var = lambda v, k=1: MultiPoly.var(V, v, k)
    Wv, Xv = var("W"), var("X")
    av, bv, dv, ev, fv, mv, tv = (var(v) for v in
                                  ("a", "b", "d", "e", "f", "mu", "t"))
    YS = av * Wv ** 2 + bv * Wv * Xv - mv ** 2 * Xv ** 2
    ZS = dv * Wv ** 3 + ev * Wv ** 2 * Xv + fv * Wv * Xv ** 2 \
        - mv ** 3 * Xv ** 3
    P = eq.substitute({"Y": YS, "Z": ZS})
    trace = EliminationTrace()
    co = wx_coefficients(P, 6)

    if not co[6].is_zero():
        raise VerificationError("X^6 coefficient c^3 - g^2 nonzero",
                                detail=co[6])
    trace.record("X^6 coefficient", value="mu^6 - mu^6 = 0")

    solved = []
    # f from the X^5 W coefficient; must match (1 + 3 mu^4 b)/(2 mu^3)
    nf, df = solve_linear(co[5], "f")
    if nf * (2 * mv ** 3) != (1 + 3 * mv ** 4 * bv) * df:
        raise VerificationError("f-step deviates from (1+3mu^4 b)/(2mu^3)",
                                detail=(nf, df))
    solved.append(("f", nf, df))
    trace.record("solve f", value="(1 + 3 mu^4 b)/(2 mu^3)")

    # e, d: linear solves with monomial denominators (signs engine-derived)
    ne, de = solve_linear(chain_subs(co[4], solved), "e")
    if len(de.terms) != 1:
        raise VerificationError("e-denominator is not a monomial", detail=de)
    solved.append(("e", ne, de))
    nd, dd = solve_linear(chain_subs(co[3], solved), "d")
    if len(dd.terms) != 1:
        raise VerificationError("d-denominator is not a monomial", detail=dd)
    solved.append(("d", nd, dd))
    trace.record("solve e,d", denominators=[repr(de), repr(dd)],
                 note="intermediate signs engine-derived")

    # quadratics in a from the X^2 W^4 and X W^5 coefficients
    K = chain_subs(co[2], solved)
    M = chain_subs(co[1], solved)
    if K.degree("a") != 2 or M.degree("a") != 2:
        raise VerificationError("expected quadratics in a",
                                detail=(K.degree("a"), M.degree("a")))
    K2, M2 = K.coeff_of("a", 2), M.coeff_of("a", 2)
    combi = K * M2 - M * K2
    na_raw, da_raw = solve_linear(combi, "a")

    # reduce the a-fraction against the displayed denominator
    guard = bv ** 2 * mv ** 8 + 4 * bv * mv ** 4 + 1
    da_disp = 30 * mv ** 10 * guard
    try:
        cof = da_raw.exact_div(da_disp)
        na = na_raw.exact_div(cof)
    except ArithmeticError as ex:
        raise VerificationError("a-denominator does not reduce to "
                                "30 mu^10 (b^2 mu^8 + 4 b mu^4 + 1)",
                                detail=da_raw) from ex
    da = da_disp
    # displayed numerator matches only up to a global sign (a -> -a)
    disp_num = 10 * bv ** 4 * mv ** 16 + 85 * bv ** 3 * mv ** 12 \
        + 90 * bv ** 2 * mv ** 8 + 25 * bv * mv ** 4 + 2
    if na != -disp_num:
        raise VerificationError("a-numerator deviates from the displayed "
                                "form up to sign", detail=na)
    solved.append(("a", na, da))
    trace.record("solve a", denominator="30 mu^10 (b^2 mu^8 + 4 b mu^4 + 1)",
                 note="numerator = -(displayed); sign engine-derived")

    # branch split: X^2 W^4 numerator factors exactly as P1 * P2
    P1, P2 = s8_branch_quartics(V)
    Ksub = strip_content(subs_fraction(K, "a", na, da))
    try:
        rest = Ksub.exact_div(P1).exact_div(P2)
    except ArithmeticError as ex:
        raise VerificationError("X^2 W^4 coefficient does not split as "
                                "P1 * P2", detail=Ksub) from ex
    if not rest.is_constant():
        raise VerificationError("extra non-constant factor in the branch "
                                "split", detail=rest)
    Msub = strip_content(subs_fraction(M, "a", na, da))
    mres = Msub.exact_div(P1).exact_div(P2)
    trace.record("branch split", factors=["P1", "P2"],
                 xw5_cofactor=repr(mres))

    # guard coprimality: incompatible with either branch quartic
    for Pi, lab in ((P1, "P1"), (P2, "P2")):
        rg = resultant_poly(Pi, guard, "b")
        if rg.is_zero():
            raise VerificationError("guard %s-resultant vanished" % lab)
    trace.record("guard", poly="b^2 mu^8 + 4 b mu^4 + 1",
                 resultants_nonzero=True)

    # the W^6 coefficient, fully substituted: degree 18 in b
    W6n = chain_subs(co[0], solved)
    trace.record("W^6 coefficient", degree_b=W6n.degree("b"))

    residuals = []
    branches = []
    qtargets = (q1_quartic(), q2_quartic())
    originals = [co[j] for j in range(6)]
    for bi, (Pi, qt) in enumerate(zip((P1, P2), qtargets), start=1):
        Fi, bnum, bden = _s8_branch_residual(W6n, Pi, qt, V, trace, bi)
        _s8_branch_replay(originals, solved, Pi, Fi, bnum, bden, V,
                          trace, bi)
        residuals.append(Fi)
        branches.append((Pi, bnum, bden, Fi))

    curves = _s8_curves(s8, solved, branches, V)
    if len(curves) != 240:
        raise VerificationError("S8 curve count %d != 240" % len(curves))
    trace.residual = tuple(residuals)
    return curves, trace, tuple(residuals)


def _s8_branch_residual(W6n, Pi, qtarget, V, trace, bi):
    """Resultant of the W^6 coefficient with the branch quartic: extracts
    b = -B/A from the degree-1 subresultant and certifies the residual
    quartic (in X = -mu^30 t) bit-for-bit."""
    prs = subresultant_prs(W6n, Pi, "b")
    blin = next((p for p in prs if p.degree("b") == 1), None)
    if blin is None:
        raise VerificationError("no degree-1 subresultant in branch %d" % bi)
    bnum, bden = solve_linear(blin, "b")
    res = prs[-1]
    if res.degree("b") != 0:
        raise VerificationError("branch %d resultant did not reach degree 0"
                                % bi, detail=res.degree("b"))
    prim = strip_content(res)
    gamma = prim.constant()
    if gamma == 0:
        raise VerificationError("branch %d residual lost its constant term"
                                % bi)
    norm = prim.scale(Fraction(1) / gamma)
    qx = univariate_from_pure(norm, "mu", 30, "t", sign_flip=True)
    if qx != qtarget:
        raise VerificationError("branch %d residual quartic deviates "
                                "from the displayed coefficients" % bi,
                                detail=qx)
    trace.record("branch %d residual" % bi,
                 quartic=[str(c) for c in qtarget],
                 variable="X = -mu^30 t",
                 b_degrees=(bnum.degree("mu"), bden.degree("mu")))
    return norm, bnum, bden


def _s8_branch_replay(originals, solved, Pi, Fi, bnum, bden, V, trace, bi):
    """Soundness replay: every original W/X coefficient, after the full
    substitution chain and with b = bnum/bden, vanishes modulo Fi.

    Route: reduce each chained coefficient modulo Pi in b first (the
    quartic's leading coefficient is the monomial 5 mu^16), then substitute
    the b-fraction and reduce modulo Fi; Pi(b) itself is certified to
    vanish modulo Fi, and all denominators are certified invertible."""
    # Pi(bnum/bden) = 0 modulo Fi
    pib = subs_fraction(Pi, "b", bnum, bden)
    if not pib.reduce_mod(Fi, "mu").is_zero():
        raise VerificationError("branch %d: P%d(b) does not vanish on the "
                                "residual locus" % (bi, bi), detail=pib)
    for j, coj in enumerate(originals):
        D = chain_subs(coj, solved)
        rem = D.reduce_mod(Pi, "b")
        val = subs_fraction(rem, "b", bnum, bden)
        if not val.reduce_mod(Fi, "mu").is_zero():
            raise VerificationError(
                "branch %d: coefficient of X^%d W^%d does not vanish"
                % (bi, j, 6 - j), detail=rem)
    # invertibility certificates for every denominator used
    dens = [("b-denominator", bden)]
    dens += [("den(%s)" % n, d) for n, _, d in solved]
    for lab, d in dens:
        db = d if d.degree("b") == 0 else d.reduce_mod(Pi, "b")
        db = subs_fraction(db, "b", bnum, bden) if db.degree("b") else db
        if not coprime_at_t2(db, Fi, "mu"):
            raise VerificationError("branch %d: %s not invertible modulo "
                                    "the residual" % (bi, lab))
    trace.record("branch %d replay" % bi, coefficients=6, residue="0",
                 denominator_certificates="t=2 specialization")


def _s8_curves(s8, solved, branches, V):
    curves = []
    pairs = {name: (num, den) for name, num, den in solved}
    cvars = ("W", "X", "Y", "Z", "b", "mu", "t")
    for bi, (Pi, bnum, bden, Fi) in enumerate(branches, start=1):
        data = {"coeff_pairs": pairs, "branch_quartic": Pi,
                "b_pair": (bnum, bden), "relation": Fi,
                "convention": "c = mu^2, g = -mu^3"}
        eqs = _s8_symbolic_equations(pairs, cvars, V)
        for j in range(120):
            curves.append(CurveSpec("s8", "S8-main", "P%d" % bi, j, eqs,
                                    parameter="mu", relation=Fi, data=data))
    return curves


def _s8_symbolic_equations(pairs, cvars, V):
    """Cleared curve forms, symbolic in (b, mu): denominators of the
    solved chain multiplied through; b remains bound by the branch data."""
    W, X, Y, Z = (MultiPoly.var(cvars, v) for v in ("W", "X", "Y", "Z"))
    b, mu = MultiPoly.var(cvars, "b"), MultiPoly.var(cvars, "mu")
    na, da = pairs["a"]
    nd, dd = pairs["d"]
    ne, de = pairs["e"]
    nf, df = pairs["f"]
    pj = lambda p: project_vars(p, cvars)
    na_, da_ = pj(na), pj(da)
    eqY = da_ * Y - na_ * W ** 2 - b * da_ * W * X + mu ** 2 * da_ * X ** 2
    # common denominator for (d, e, f): monomials times the a-chain dens
    nd_, dd_ = pj(chain_subs(nd, [("a",) + pairs["a"]], strip=False)), None
    dd_ = pj(dd) * da_ ** max(nd.degree("a"), 0)
    ne_ = pj(chain_subs(ne, [("a",) + pairs["a"]], strip=False))
    de_ = pj(de) * da_ ** max(ne.degree("a"), 0)
    nf_, df_ = pj(nf), pj(df)
    D = dd_ * de_ * df_
    eqZ = D * Z - nd_ * de_ * df_ * W ** 3 - ne_ * dd_ * df_ * W ** 2 * X \
        - nf_ * dd_ * de_ * W * X ** 2 + mu ** 3 * D * X ** 3
    return (strip_content(eqY), strip_content(eqZ))


# ---------------------------------------------------------------------------
# S6: the 27 lines

def _i_sqrt3(T):
    """i = zeta_12^3 and sqrt3 = 2 zeta_12 - zeta_12^3 in a Q(zeta_12) tower."""
    z = root_of_unity(T, 12)
    i = z ** 3
    return i, 2 * z - i


def s6_line_tower(branch: str):
    """Q(zeta_12)(mu), the field of the lines L_mu, with t = mu^12 / c and
    c = (-45 +- 26 sqrt3)/243 according to the branch.  Returns
    (tower, c, t), with c in Q(zeta_12)."""
    K = cyclotomic(12)
    sign = 1 if branch == "plus" else -1
    c = K.lift(Fraction(-45, 243)) + _i_sqrt3(K)[1] * Fraction(sign * 26, 243)
    T = K.extend_ratfunc("mu")
    return T, c, T.gen("mu") ** 12 / c


def s6_line_forms(T, branch: str, xi=None):
    """The two linear forms cutting L_mu, or L_{xi mu} when xi is given; the
    minus branch carries the sqrt3 -> -sqrt3 conjugated coefficients."""
    (i, s3), mu = _i_sqrt3(T), T.gen("mu")
    if xi is not None:
        mu = xi * mu
    if branch == "minus":
        s3 = -s3
    lv = ("W", "X", "Y", "Z")
    W, X, Y, Z = (MultiPoly.var(lv, v) for v in lv)
    l1 = W.scale(27 * i * (s3 + 3) * mu ** 6) + X.scale(18 * mu ** 3) \
        + Z.scale(5 * s3 - 9)
    l2 = Y.scale(9 * i * (s3 - 1) * mu ** 2) + X.scale(18 * mu ** 3) \
        + Z.scale(2 * (3 - 2 * s3))
    return l1, l2


@_surface_cache
def certify_s6_lines(s6):
    """All 27 lines of the cubic, with exact zero substitution residues:
    3 lines Z = 0, Y = zeta3^j alpha W (alpha^3 = t) and 12 lines L_mu per
    branch mu^12 = c t, c = (1/27)(-5 +- (26/9) sqrt3)."""
    lv = ("W", "X", "Y", "Z")
    curves = []

    # L1, L2, L3
    T0, t0, alpha_lines = s6_alpha_lines()
    relA = MultiPoly(("alpha", "t"), {(3, 0): Fraction(1),
                                      (0, 1): Fraction(-1)})
    Y = MultiPoly.var(lv, "Y")
    for j, (Z, l2) in enumerate(alpha_lines):
        _certify_membership(s6, T0, {"Z": MultiPoly.zero(lv), "Y": Y - l2},
                            t0)
        curves.append(CurveSpec("s6", "S6-L123", "alpha", j, (Z, l2),
                                parameter="alpha", relation=relA,
                                data={"zeta3_power": j}))

    # the 24 lines L_mu
    for branch in ("plus", "minus"):
        T, c, t = s6_line_tower(branch)
        l1, l2 = s6_line_forms(T, branch)
        zsol, ysol = _s6_solve_lines(l1, l2, lv)
        _certify_membership(s6, T, {"Z": zsol, "Y": ysol}, t)
        relM = MultiPoly(("mu", "t"), {(12, 0): c.tower.one(), (0, 1): -c})
        for j in range(12):
            curves.append(CurveSpec("s6", "S6-Lmu", branch, j, (l1, l2),
                                    parameter="mu", relation=relM,
                                    data={"radicand": c}))
    if len(curves) != 27:
        raise VerificationError("S6 line count %d != 27" % len(curves))
    return curves


def s6_alpha_lines():
    """The tower Q(zeta_12)(alpha) with t = alpha^3, that t, and the form
    pairs (Z, Y - zeta3^j alpha W) cutting the lines L1, L2, L3."""
    T = cyclotomic(12).extend_ratfunc("alpha")
    z3, alpha = root_of_unity(T, 3), T.gen("alpha")
    W, Y, Z = (MultiPoly.var(("W", "X", "Y", "Z"), v) for v in "WYZ")
    return T, alpha ** 3, [(Z, Y - W.scale(z3 ** j * alpha))
                           for j in range(3)]


def _s6_solve_lines(l1, l2, lv):
    """Solve l1 for Z (coefficients of W, X) and then l2 for Y."""
    zc = l1.terms[(0, 0, 0, 1)]
    zinv = zc.invert()
    W, X = MultiPoly.var(lv, "W"), MultiPoly.var(lv, "X")
    zsol = -(W.scale(l1.terms.get((1, 0, 0, 0)) * zinv)
             + X.scale(l1.terms.get((0, 1, 0, 0)) * zinv))
    yc = l2.terms[(0, 0, 1, 0)]
    yinv = yc.invert()
    rest = l2.substitute({"Y": MultiPoly.zero(lv), "Z": zsol})
    ysol = -rest.map_coeffs(lambda v: v * yinv)
    return zsol, ysol


# ---------------------------------------------------------------------------
# A_n / D_n fibre components

def an_tower(n: int):
    """Q(zeta_n)(alpha), the field of the A_n fibre components, with
    t = alpha^n.  Returns (tower, t)."""
    T = cyclotomic(n).extend_ratfunc("alpha")
    return T, T.gen("alpha") ** n


@_surface_cache
def enumerate_an(s):
    """The 2n fibre components of the A_n conic bundle s: over each root
    x = zeta^j alpha of x^n = t, the fibre x^n w^2 - yz = t w^2 splits
    into the lines y = 0 and z = 0."""
    n = s.index
    T, t = an_tower(n)
    zeta, alpha = root_of_unity(T, n), T.gen("alpha")
    cv = ("w", "y", "z", "x")
    w, y, z, x = (MultiPoly.var(cv, v) for v in cv)
    rel = MultiPoly(("alpha", "t"), {(n, 0): Fraction(1),
                                     (0, 1): Fraction(-1)})
    curves = []
    for j in range(n):
        root = MultiPoly.const(cv, zeta ** j * alpha)
        for comp, zero_var in (("y0", "y"), ("z0", "z")):
            _certify_membership(s, T, {"x": root,
                                       zero_var: MultiPoly.zero(cv)}, t)
            curves.append(CurveSpec("an:%d" % n, "An-fiber", comp, j,
                                    (x - root, MultiPoly.var(cv, zero_var)),
                                    parameter="alpha", relation=rel,
                                    data={"zeta_power": j,
                                          "contractible_orbit": comp == "y0"}))
    if len(curves) != 2 * n:
        raise VerificationError("A_%d component count %d != %d"
                                % (n, len(curves), 2 * n))
    return curves


def dn_tower(n: int):
    """Q(zeta_M)(mu), the field of the D_n fibre components, with t = mu^N,
    N = 2(n-1) and M = lcm(4, N), so that i and zeta_N are powers of
    zeta_M.  Returns (tower, t)."""
    N = 2 * (n - 1)
    T = cyclotomic(lcm(4, N)).extend_ratfunc("mu")
    return T, T.gen("mu") ** N


@_surface_cache
def enumerate_dn(s):
    """On the D_n conic bundle s: 2 lines z = +- r w over x = 0,
    r = mu^(n-1) = sqrt(t), plus 2(n-1) curves x = (zeta^j mu)^2,
    z = i zeta^j mu y over x^(n-1) = t."""
    n = s.index
    cv = ("w", "y", "z", "x")
    w, y, z, x = (MultiPoly.var(cv, v) for v in cv)
    N = 2 * (n - 1)
    T, t = dn_tower(n)
    i, zeta, mu = root_of_unity(T, 4), root_of_unity(T, N), T.gen("mu")
    relN = MultiPoly(("mu", "t"), {(N, 0): Fraction(1),
                                   (0, 1): Fraction(-1)})
    curves = []
    r = mu ** (n - 1)
    for idx, sgn in enumerate((1, -1)):
        zr = w.scale(r * sgn)
        _certify_membership(s, T, {"x": MultiPoly.zero(cv), "z": zr}, t)
        curves.append(CurveSpec("dn:%d" % n, "Dn-x0", "x0", idx,
                                (x, z - zr), parameter="mu", relation=relN,
                                data={"sign": sgn}))
    for j in range(N):
        mj = zeta ** j * mu
        sub = {"x": MultiPoly.const(cv, mj ** 2), "z": y.scale(i * mj)}
        _certify_membership(s, T, sub, t)
        curves.append(CurveSpec("dn:%d" % n, "Dn-mu", "mu", j,
                                (x - sub["x"], z - sub["z"]),
                                parameter="mu", relation=relN,
                                data={"zeta_power": j}))
    if len(curves) != 2 + N:
        raise VerificationError("D_%d curve count %d != %d"
                                % (n, len(curves), 2 + N))
    return curves
