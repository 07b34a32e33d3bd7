"""Exceptional-curve enumeration via exact elimination replays.

The fibred surfaces carry finitely many exceptional curves, each cut out by
two forms.  On S7 and S8 the coefficients of the forms satisfy a triangular
system, obtained by equating the W/X-coefficients of the substituted
surface equation to zero; this module replays those chains exactly over Q,
which gives the forms the curves command prints, and extracts the residual
polynomials.  Each residual's roots are exhibited in Q(zeta_h), one stored
and the others its Galois conjugates.  Every CurveSpec is one radical
family: over its stored root its member is one exact graph (Y, Z) over
P^1_(W:X) with coefficients in Q(zeta_h)[s, 1/s], certified by
substitution, and its rotations s -> zeta_h^k s and conjugates zeta_h ->
zeta_h^j, which fix t and the surface equation, are the other curves.  The
24 lines L_mu of S6 are such a family over the two roots of their radicand
C, and L1-L3 and the S7 e = 0 pair are ones over the root 1 of X - 1.  For
these and the S7 and S8 families, _root_graph reads the graph off the very
forms that are printed.  The A_n and D_n fibre components, each the graph
of two coordinates over the other two at x = alpha, r or mu, are given by
their graph, and their forms are read off it.  surface_families maps each
catalog surface to its families.
"""

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .base import GeometryError, VerificationError, _surface_cache
from .multipoly import MultiPoly
from .tower import cyclotomic, root_of_unity
from .univariate import subresultant_prs


class CurveSpec:
    """The radical family of `count` curves cut in chart 0 by the forms
    `equations` and their Galois images, one for each root of the defining
    `relation` in the generator `parameter`."""

    def __init__(self, surface, family, branch, equations, count,
                 parameter=None, relation=None, data=None):
        self.surface, self.family, self.branch = surface, family, branch
        self.equations, self.parameter, self.relation = \
            equations, parameter, relation
        self.data = {} if data is None else data
        self.count = count


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


def strip_content(p: MultiPoly) -> MultiPoly:
    """Divide out the monomial content and the rational content; normalize
    the graded-lex leading coefficient to be positive."""
    return p.divide_by_term(p.monomial_content()).primitive()


def reduce_pair(num: MultiPoly, den: MultiPoly):
    """Strip the common monomial/rational content of a fraction pair,
    preserving its value."""
    mc = tuple(min(a, b) for a, b in
               zip(num.monomial_content(), den.monomial_content()))
    num, den = num.divide_by_term(mc), den.divide_by_term(mc)
    cn, cd = num.content(), den.content()
    g = Fraction(gcd(cn.numerator, cd.numerator),
                 lcm(cn.denominator, cd.denominator))
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
        total = total + c.shift(mono)
    if total != p:
        raise VerificationError("substituted equation is not homogeneous of "
                                "degree %d in (W, X)" % degree, detail=p)
    return out


# ---------------------------------------------------------------------------
# S7: 56 curves, residual cubic Q

@_surface_cache
def enumerate_s7(s7):
    V = ("W", "X", "Y", "Z", "a", "b", "c", "d", "e", "t")
    eq = s7.equation.rename(V)
    Wv, Xv, Yv, Zv = (MultiPoly.var(V, v) for v in "WXYZ")
    av, bv, cv, dv, ev, tv = (MultiPoly.var(V, v)
                              for v in ("a", "b", "c", "d", "e", "t"))
    YS = av * Wv + bv * Xv
    ZS = cv * Wv ** 2 + dv * Wv * Xv + ev * Xv ** 2
    P = -eq.substitute({"Y": YS, "Z": ZS})
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

    solved = []
    # b = -e^2  (from the X^4 coefficient)
    nb, db = solve_linear(co[4], "b")
    if not (db == MultiPoly.const(V, 1) and nb == -ev ** 2):
        raise VerificationError("b-step deviates from -e^2", detail=(nb, db))
    solved.append(("b", nb, db))

    # a = e^6 - 2de  (from the W X^3 coefficient)
    na, da = solve_linear(chain_subs(co[3], solved), "a")
    if not (da == MultiPoly.const(V, 1) and na == ev ** 6 - 2 * dv * ev):
        raise VerificationError("a-step deviates from e^6 - 2de",
                                detail=(na, da))
    solved.append(("a", na, da))

    # c = -(d^2 - 6de^5 + 3e^10) / (2e)  (from the W^2 X^2 coefficient)
    nc, dc = solve_linear(chain_subs(co[2], solved), "c")
    if not (dc == 2 * ev and
            nc == -(dv ** 2 - 6 * dv * ev ** 5 + 3 * ev ** 10)):
        raise VerificationError("c-step deviates", detail=(nc, dc))
    solved.append(("c", nc, dc))

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

    # residual: t^3 * Q(e^18 / t)
    qc = q_cubic()
    core = MultiPoly.zero(V)
    for k, c in enumerate(qc):
        core = core + MultiPoly.const(V, c) * \
            MultiPoly.var(V, "e", 18 * k) * MultiPoly.var(V, "t", 3 - k)

    extracted = chain_subs(co[1], solved)
    # peel off any leftover powers of the d-denominator
    while extracted.degree("e") > 54:
        extracted = strip_content(extracted.exact_div(dd))
    if extracted != strip_content(core):
        raise VerificationError("extracted S7 residual deviates from Q",
                                detail=extracted)
    # extract the cubic itself from the (e^18, t)-support
    qx = residual_coefficients(extracted, "e")
    if qx != qc:
        raise VerificationError("residual cubic coefficients deviate",
                                detail=qx)

    # the main family, one curve per root e of the residual, 18 over each
    # root u of Q: forms symbolic in (e, t), and the graph at t = e^18 / u
    cvars = ("W", "X", "Y", "Z", "e", "t")
    forms = tuple(chain_subs(form, solved).rename(cvars)
                  for form in (YS - Yv, ZS - Zv))
    pairs = {name: (num, den) for name, num, den in solved}
    roots = residual_roots(qx, 18, S7_ROOT, "Q")
    e = cyclotomic(18).extend_ratfunc("e").gen("e")
    data = dict(_root_graph(s7, forms, roots, e ** 18 / roots[1]),
                coeff_pairs=pairs)
    main = CurveSpec("s7", "S7-main", "main", forms, 18 * len(roots),
                     parameter="e", relation=core, data=data)
    return [_s7_e0_curves(s7), main], core


def residual_coefficients(residual: MultiPoly, parameter: str):
    """The displayed polynomial of a residual that enumerate_s7 or
    enumerate_s8 returns, as a coefficient list (low first): Q of
    t^3 Q(e^18 / t) (parameter "e"), Q1 or Q2 of F_i ~ q_i(-mu^30 t)
    (parameter "mu"), read off its terms c e^(18k) t^(3-k) or c mu^(30k)
    t^k; a residual of another support raises."""
    h, sign = (18, 1) if parameter == "e" else (30, -1)
    i, it = residual.vars.index(parameter), residual.vars.index("t")
    coeffs = {}
    for e, c in residual.terms.items():
        k = e[i] // h
        if e[i] % h or e[it] != (3 - k if sign == 1 else k) \
                or sum(e) != e[i] + e[it]:
            raise VerificationError("residual is not a polynomial in %s^%d "
                                    "and t" % (parameter, h), detail=residual)
        coeffs[k] = c * sign ** k
    return [coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1)]


def _s7_e0_curves(s7):
    """The e = 0 branch, a = b = d = 0, c^2 = t: the family of the 2 curves
    Y = 0, Z = +-r W^2, r^2 = t, over the root 1 of X - 1 in Q(zeta_2)[r,
    1/r], where _root_family's rotation sigma_1: r -> -r is the other
    member."""
    T, t = sqrt_t_tower()
    Y, Z, W = (MultiPoly.var(GRAPH_COORDS, v) for v in "YZW")
    forms = (Y, Z - (W * W).scale(T.gen("r")))
    return CurveSpec("s7", "S7-e0", "e0", forms, 2, parameter="r",
                     relation=_binomial(t),
                     data=dict(_root_graph(s7, forms, {1: T.one()}, t),
                               c="+-sqrt(t)"))


def sqrt_t_tower():
    """Q(zeta_2)[r, 1/r] with t = r^2, the field of the two e = 0 curves
    Z = +-r W^2 on S7 and of the two x = 0 lines z = +-r w on D_n, so that
    rotation by zeta_2 = -1 is r -> -r.  Returns (tower, t)."""
    T = cyclotomic(2).extend_ratfunc("r")
    return T, T.gen("r") ** 2


def _binomial(t):
    """The relation s^h - t of the generator s of t's tower, t = s^h."""
    (h, _), = t.payload[0].items()
    return MultiPoly((t.tower.var, "t"), {(h, 0): Fraction(1),
                                          (0, 1): Fraction(-1)})


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
    Wv, Xv, Yv, Zv = (var(v) for v in "WXYZ")
    av, bv, dv, ev, fv, mv, tv = (var(v) for v in
                                  ("a", "b", "d", "e", "f", "mu", "t"))
    YS = av * Wv ** 2 + bv * Wv * Xv - mv ** 2 * Xv ** 2
    ZS = dv * Wv ** 3 + ev * Wv ** 2 * Xv + fv * Wv * Xv ** 2 \
        - mv ** 3 * Xv ** 3
    P = eq.substitute({"Y": YS, "Z": ZS})
    co = wx_coefficients(P, 6)

    if not co[6].is_zero():
        raise VerificationError("X^6 coefficient c^3 - g^2 nonzero",
                                detail=co[6])

    solved = []
    # f from the X^5 W coefficient; must match (1 + 3 mu^4 b)/(2 mu^3)
    nf, df = solve_linear(co[5], "f")
    if nf * (2 * mv ** 3) != (1 + 3 * mv ** 4 * bv) * df:
        raise VerificationError("f-step deviates from (1+3mu^4 b)/(2mu^3)",
                                detail=(nf, df))
    solved.append(("f", nf, df))

    # e, d: linear solves with monomial denominators (signs engine-derived)
    ne, de = solve_linear(chain_subs(co[4], solved), "e")
    if len(de.terms) != 1:
        raise VerificationError("e-denominator is not a monomial", detail=de)
    solved.append(("e", ne, de))
    nd, dd = solve_linear(chain_subs(co[3], solved), "d")
    if len(dd.terms) != 1:
        raise VerificationError("d-denominator is not a monomial", detail=dd)
    solved.append(("d", nd, dd))

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
    replayed = [chain_subs(c, solved) for c in co[:3]]

    # branch split: X^2 W^4 numerator factors exactly as P1 * P2
    P1, P2 = s8_branch_quartics(V)
    try:
        rest = replayed[2].exact_div(P1).exact_div(P2)
    except ArithmeticError as ex:
        raise VerificationError("X^2 W^4 coefficient does not split as "
                                "P1 * P2", detail=replayed[2]) from ex
    if not rest.is_constant():
        raise VerificationError("extra non-constant factor in the branch "
                                "split", detail=rest)
    # the X W^5 numerator splits off P1 * P2 too (exact_div raises if not)
    replayed[1].exact_div(P1).exact_div(P2)

    # the curve forms, symbolic in (b, mu); b stays bound by the branch data
    cvars = ("W", "X", "Y", "Z", "b", "mu", "t")
    forms = tuple(chain_subs(form, solved).rename(cvars)
                  for form in (YS - Yv, ZS - Zv))
    pairs = {name: (num, den) for name, num, den in solved}
    mu = cyclotomic(30).extend_ratfunc("mu").gen("mu")
    residuals, curves = [], []
    qtargets = (q1_quartic(), q2_quartic())
    for bi, (Pi, qt) in enumerate(zip((P1, P2), qtargets), start=1):
        # the W^6 coefficient, fully substituted: degree 18 in b
        Fi, bnum, bden = _s8_branch_residual(replayed[0], Pi, qt, bi)
        residuals.append(Fi)
        # F_i ~ q_i(-mu^30 t): 30 curves over each root x of Q_i, the graph
        # at t = -x / mu^30, b solved first
        roots = residual_roots(residual_coefficients(Fi, "mu"), 30,
                               S8_ROOTS[bi - 1], "Q%d" % bi)
        data = _root_graph(s8, forms, roots, -mu ** -30 * roots[1],
                           b=(bnum, bden))
        data.update(coeff_pairs=pairs, convention="c = mu^2, g = -mu^3")
        curves.append(CurveSpec("s8", "S8-main", "P%d" % bi, forms,
                                30 * len(roots), parameter="mu", relation=Fi,
                                data=data))
    return curves, tuple(residuals)


def _s8_branch_residual(W6n, Pi, qtarget, bi):
    """Resultant of the W^6 coefficient with the branch quartic, both read
    as coefficient lists in b: extracts b = -B/A from the degree-1
    subresultant and certifies the residual quartic (in X = -mu^30 t)
    bit-for-bit."""
    W6, P = ([p.coeff_of("b", k) for k in range(p.degree("b") + 1)]
             for p in (W6n, Pi))
    prs = subresultant_prs(W6, P)
    blin = next((p for p in prs if len(p) == 2), None)
    if blin is None:
        raise VerificationError("no degree-1 subresultant in branch %d" % bi)
    bnum, bden = reduce_pair(-blin[0], blin[1])
    if len(prs[-1]) != 1:
        raise VerificationError("branch %d resultant did not reach degree 0"
                                % bi, detail=len(prs[-1]) - 1)
    res = prs[-1][0]
    prim = strip_content(res)
    gamma = prim.constant()
    if gamma == 0:
        raise VerificationError("branch %d residual lost its constant term"
                                % bi)
    norm = prim.scale(Fraction(1) / gamma)
    qx = residual_coefficients(norm, "mu")
    if qx != qtarget:
        raise VerificationError("branch %d residual quartic deviates "
                                "from the displayed coefficients" % bi,
                                detail=qx)
    return norm, bnum, bden


# ---------------------------------------------------------------------------
# S6, S7, S8: each residual's roots in Q(zeta_h), each family a graph over
# them

# One root of each residual, exactly: ((a_0, ..., a_(d-1)), D) stands for
# sum a_i c^i / D, c = zeta_h + 1/zeta_h, in the real subfield of Q(zeta_h);
# the other roots are its Galois conjugates.  c+ of C (h = 12, c = sqrt3),
# u of Q (h = 18), x of Q1 and of Q2 (h = 30).
S6_ROOT = ((-45, 26), 243)
S7_ROOT = ((32176, 3876, -11172), 1)
S8_ROOTS = (((-488224190217, 2220110716196, 737789894744, -892029982568),
             900),
            ((-262333, 1193004, 396056, -479632), 900))


def residual_roots(q, h, stored, label):
    """{j: sigma_j(x)} for the units j < h/2 mod h, x the `stored` root of
    the polynomial q (coefficients low first), certified q(x) = 0 and x != 0;
    sigma_j: zeta_h -> zeta_h^j (sigma_-j agrees on the real x).  As q has
    rational coefficients each sigma_j(x) is a root of q; certified pairwise
    distinct and deg q in number, they are all its roots.  So q is
    squarefree with q(0) != 0, and the binomials s^h = (root) t have h
    distinct roots s each, no two binomials sharing one."""
    coeffs, den = stored
    K = cyclotomic(h)
    z = root_of_unity(K, h)
    x = sum(map(mul, coeffs, (z + z ** (h - 1)).powers(len(coeffs))),
            K.zero()) / den
    value = K.zero()
    for c in reversed(q):
        value = value * x + c
    if value or not x:
        raise VerificationError("the stored root of %s is not a nonzero "
                                "root of it" % label, detail=x)
    roots = {j: x.conjugate(j) for j in range(1, h // 2) if gcd(j, h) == 1}
    distinct = len(set(roots.values()))
    if distinct != len(q) - 1:
        raise VerificationError("%s has %d distinct conjugate roots, not %d"
                                % (label, distinct, len(q) - 1))
    return roots


# the coordinates of a graph (Y, Z) over P^1_(W:X), base first
GRAPH_COORDS = ("W", "X", "Y", "Z")


def _graph_forms(y, z, coords=GRAPH_COORDS):
    """The polynomials Y(W, X), Z(W, X) of a graph over P^1_(W:X), given by
    their coefficient lists by rising power of X, in the variables coords,
    which name W, X, Y and Z."""
    return tuple(MultiPoly(coords, {(len(cs) - 1 - k, k, 0, 0): c
                                    for k, c in enumerate(cs)})
                 for cs in (y, z))


def _root_graph(surface, forms, roots, t, b=None):
    """The _root_family of the curve cut by the two forms, as printed, over
    the stored root x = roots[1]: its graph read off the forms at the
    generator s of t's tower Q(zeta_h)[s, 1/s], t = c s^(+-h) with c from
    x, and (S8) at b, from its fraction (num, den) in (s, t).  Z comes from
    the form with a Z term and no Y term, c Z + sum z_j W^(d-j) X^j, then Y
    from the other, c Y + c' Z + sum y_j W^(d-j) X^j (c' Z only if Y has
    Z's weight), with Z put in; d is the weight of Y or Z on the surface.
    Each coefficient, free of W, X, Y and Z, is evaluated at the root from
    one table of the powers of s, t and b, and c and den(b) must be nonzero
    monomials there.  Any other term (W Y, Z^2, a wrong degree) is refused:
    the forms cut no graph.  With b, the data keep its value as "b"."""
    T = t.tower
    env = {T.var: T.gen(T.var), "t": t}
    if b is not None:
        num, den = (T.lift(p.rename((T.var, "t")).evaluate(env)) for p in b)
        env["b"] = num * _unit(den, "den(b)")
    powers = {n: env[n].powers(1 + max(f.degree(n) for f in forms
                                       if n in f.vars))
              for n in {n for f in forms for n in f.vars[4:]}}
    weight, graph = dict(zip("YZ", surface.ambient.weights[2:])), {}
    for form, v in zip(sorted(forms, key=lambda f: f.degree("Y") > 0), "ZY",
                       strict=True):
        d = weight[v]
        place = {(d - j, j, 0, 0): j for j in range(d + 1)}
        place[(0, 0, 1, 0) if v == "Y" else (0, 0, 0, 1)] = v
        if v == "Y" and d == weight["Z"]:
            place[0, 0, 0, 1] = "Z"
        keys = [place.get(e[:4]) for e in form.terms]
        if form.vars[:4] != GRAPH_COORDS or None in keys or v not in keys:
            raise GeometryError("the forms cut no graph over P^1_(W:X)")
        row = {}
        for key, (e, c) in zip(keys, form.terms.items()):
            row[key] = row.get(key, 0) + prod(
                (powers[n][k] for n, k in zip(form.vars[4:], e[4:]) if k),
                start=c)
        inv = -_unit(T.lift(row.pop(v)), "the coefficient of " + v)
        cz = row.pop("Z", 0)
        z = graph["Z"] if cz else [0] * (d + 1)
        graph[v] = [(row.get(j, 0) + cz * z[j]) * inv for j in range(d + 1)]
    data = _root_family(surface, (graph["Y"], graph["Z"]), t, roots)
    if b is not None:
        data["b"] = env["b"]
    return data


def _unit(c, name):
    """1/c, refused unless c is a nonzero monomial of its Laurent ring."""
    try:
        return c.invert()
    except (ValueError, ZeroDivisionError) as ex:
        raise VerificationError("%s is not a nonzero monomial at the root"
                                % name, detail=c) from ex


def _root_family(surface, graph, t, roots, coords=GRAPH_COORDS):
    """{"graph": graph, "t": t, "roots": roots, "coords": coords} of the
    radical family whose member over the stored root x = roots[1] has the
    graph (Y, Z) over P^1_(W:X), W, X, Y, Z the surface's variables coords,
    each coefficient list by rising power of X, as _graph_forms reads it (a
    degree-0 list for a weight-0 coordinate such as the x of A_n and D_n),
    in t's tower Q(zeta_M)[s, 1/s], t = c s^(+-h) with c from x and h | M:
    certified on the surface by substitution.  sigma_k: s -> zeta_M^k s
    fixes t for M/h | k, and sigma_j: zeta_M -> zeta_M^j takes it to the t
    of sigma_j(x); sigma_k fixes the surface equation, and sigma_j, j != 1,
    is checked to fix each of its coefficients (S6 has -2i), so the graph's
    rotations and conjugates lie on the surface: they are the family's
    other members, distinct as the roots are and as zeta_h has order h."""
    T = t.tower
    _certify_membership(surface, T, dict(zip(coords[2:],
                                             _graph_forms(*graph, coords))), t)
    others = [j for j in roots if j != 1]
    coeffs = [T.lift(c) for c in surface.equation.terms.values()] \
        if others else []
    for j in others:
        if any(c.conjugate(j) != c for c in coeffs):
            raise VerificationError("sigma_%d moves a coefficient of the %s "
                                    "equation" % (j, surface.name))
    return {"graph": graph, "t": t, "roots": roots, "coords": coords}


# ---------------------------------------------------------------------------
# S6: the 27 lines

def s6_radicand():
    """C(c) = 59049 c^2 + 21870 c - 3, as a coefficient list (low first):
    its roots c+- = (-45 +- 26 sqrt3)/243 are the radicands of the lines
    L_mu, mu^12 = c t."""
    return [Fraction(-3), Fraction(21870), Fraction(59049)]


def s6_line_tower():
    """Q(zeta_12)[mu, 1/mu], the field of the lines L_mu, the roots
    {1: c+, 5: c-} of C (residual_roots; sigma_5 takes sqrt3 to -sqrt3 and
    fixes i) and t = mu^12 / c+.  Returns (tower, roots, t)."""
    roots = residual_roots(s6_radicand(), 12, S6_ROOT, "C")
    T = cyclotomic(12).extend_ratfunc("mu")
    return T, roots, T.gen("mu") ** 12 / roots[1]


def s6_line_forms(T):
    """The two linear forms cutting L_mu over c+ (rotated by sigma_k, they
    cut L_(xi mu); their sigma_5-conjugates cut the lines over c-)."""
    z, mu = root_of_unity(T, 12), T.gen("mu")
    i = z ** 3
    s3 = 2 * z - i                      # sqrt3 = zeta_12 + 1/zeta_12
    lv = ("W", "X", "Y", "Z")
    W, X, Y, Z = (MultiPoly.var(lv, v) for v in lv)
    l1 = W.scale(27 * i * (s3 + 3) * mu ** 6) + X.scale(18 * mu ** 3) \
        + Z.scale(5 * s3 - 9)
    l2 = Y.scale(9 * i * (s3 - 1) * mu ** 2) + X.scale(18 * mu ** 3) \
        + Z.scale(2 * (3 - 2 * s3))
    return l1, l2


@_surface_cache
def certify_s6_lines(s6):
    """All 27 lines of the cubic, as two families certified by _root_family:
    the 3 lines L1-L3, Z = 0, Y = zeta3^j alpha W over the root 1 of X - 1,
    t = alpha^3, and the 24 lines L_mu, mu^12 = c t, 12 over each root c of
    C, over c+."""
    T0, t0, alpha_lines = s6_alpha_lines()
    T, roots, t = s6_line_tower()
    forms = s6_line_forms(T)
    # the lines L_mu: t^2 C(mu^12 / t) = 0
    relC = MultiPoly(("mu", "t"), {(12 * k, 2 - k): c
                                   for k, c in enumerate(s6_radicand())})
    return [CurveSpec("s6", "S6-L123", "alpha", alpha_lines[0], 3,
                      parameter="alpha", relation=_binomial(t0),
                      data=_root_graph(s6, alpha_lines[0], {1: T0.one()},
                                       t0)),
            CurveSpec("s6", "S6-Lmu", "Lmu", forms, 12 * len(roots),
                      parameter="mu", relation=relC,
                      data=_root_graph(s6, forms, roots, t))]


# lambda = 1 + zeta_12 and kappa = 9 + 6 sqrt3, each {k: the coefficient of
# zeta_12^k}: lambda^12 c+ = c- and kappa^3 c+ = 1
S6_SHIFTS = ({0: 1, 1: 1}, {0: 9, 1: 6, 11: 6})


def s6_common_lines(s6):
    """The 27 lines of the cubic s6 over the one t = mu^12 / c+ of L_mu, as
    graphs in Q(zeta_12)[mu, 1/mu]: [(branch, j, lines)] for each Galois
    orbit of orbits.family_rows, L1-L3 (alpha, 1), then L_mu over c+ and
    c- (Lmu, 1 and 5), each the rotations mu -> zeta_12^k mu of its first
    member.  That member is a certified graph (certify_s6_lines) with each
    coefficient c s^e sent to sigma_j(c) value^e: L1 at alpha = kappa mu^4,
    L_mu over c+ at mu, and sigma_5 of it at mu' = lambda mu, with lambda
    and kappa the S6_SHIFTS, refused unless lambda^12 c+ = c- and kappa^3
    c+ = 1.  Sound: each map is a ring map taking the certified t (alpha^3,
    mu^12 / c+ or, after sigma_5, mu'^12 / c-) to mu^12 / c+, so it takes
    lines of s6 to lines of s6 over that t; xi: mu -> zeta_12 mu fixes it
    and takes each line to the next of its orbit (on L1-L3, alpha -> zeta_3
    alpha), so the rows of the three first members give all 351 pairs."""
    alpha, lmu = certify_s6_lines(s6)
    T, roots = lmu.data["t"].tower, lmu.data["roots"]
    z, mu = root_of_unity(T, 12), T.gen("mu")
    lam, kappa = (sum(c * z ** k for k, c in shift.items())
                  for shift in S6_SHIFTS)
    if lam ** 12 * roots[1] != roots[5] or kappa ** 3 * roots[1] != 1:
        raise VerificationError("lambda^12 c+ != c- or kappa^3 c+ != 1",
                                detail=(lam, kappa))
    out = []
    for family, j, value in ((alpha, 1, kappa * mu ** 4), (lmu, 1, mu),
                             (lmu, 5, lam * mu)):
        graph = [[c.conjugate(j).evaluate(value) for c in cs]
                 for cs in family.data["graph"]]
        out.append((family.branch, j, [
            [[c.rotate(k) for c in cs] for cs in graph]
            for k in range(family.count // len(family.data["roots"]))]))
    return out


def s6_alpha_lines():
    """The tower Q(zeta_12)(alpha) with t = alpha^3, that t, and the form
    pairs (Z, Y - zeta3^j alpha W) cutting the lines L1, L2, L3."""
    T = cyclotomic(12).extend_ratfunc("alpha")
    z3, alpha = root_of_unity(T, 3), T.gen("alpha")
    W, Y, Z = (MultiPoly.var(("W", "X", "Y", "Z"), v) for v in "WYZ")
    return T, alpha ** 3, [(Z, Y - W.scale(z3j * alpha))
                           for z3j in z3.powers(3)]


# ---------------------------------------------------------------------------
# A_n / D_n fibre components

# the variables of the A_n and D_n conic bundles in chart 0
FIBRE_VARS = ("w", "y", "z", "x")


def _fibre_family(s, family, branch, graph, t, coords=FIBRE_VARS, **data):
    """The family of fibre components of the conic bundle s whose member
    over the root 1 of X - 1 is the graph (V, X) over (w : u), coords =
    (w, u, v, x), certified by _root_family in t's tower Q(zeta_M)[s, 1/s],
    t = s^h: its h members are the rotations s -> zeta_h^k s.  It is cut
    by the forms x - X and v - V, and its relation is s^h - t."""
    T, relation = t.tower, _binomial(t)
    v_form, x_form = (f.rename(FIBRE_VARS)
                      for f in _graph_forms(*graph, coords))
    forms = (MultiPoly.var(FIBRE_VARS, "x") - x_form,
             MultiPoly.var(FIBRE_VARS, coords[2]) - v_form)
    return CurveSpec(s.name, family, branch, forms, relation.degree(T.var),
                     parameter=T.var, relation=relation,
                     data=dict(_root_family(s, graph, t, {1: T.one()},
                                            coords), **data))


def an_tower(n: int):
    """Q(zeta_n)(alpha), the field of the A_n fibre components, with
    t = alpha^n.  Returns (tower, t)."""
    T = cyclotomic(n).extend_ratfunc("alpha")
    return T, T.gen("alpha") ** n


@_surface_cache
def enumerate_an(s):
    """The 2n fibre components of the A_n conic bundle s: over each root
    x = zeta^j alpha of x^n = t, the fibre x^n w^2 - yz = t w^2 splits
    into the lines y = 0 and z = 0.  Two families of n: (y, x) = (0,
    alpha) over (w : z) and (z, x) = (0, alpha) over (w : y), each a
    _fibre_family whose rotations alpha -> zeta^j alpha are its members,
    the n x-values distinct as zeta has order n."""
    T, t = an_tower(s.index)
    zero, alpha = T.zero(), T.gen("alpha")
    return [_fibre_family(s, "An-fiber", "y0", ([zero, zero], [alpha]), t,
                          ("w", "z", "y", "x"), contractible_orbit=True),
            _fibre_family(s, "An-fiber", "z0", ([zero, zero], [alpha]), t,
                          contractible_orbit=False)]


def dn_tower(n: int):
    """Q(zeta_M)(mu), the field of the D_n fibre components, with t = mu^N,
    N = 2(n-1) and M = lcm(4, N), so that i and zeta_N are powers of
    zeta_M.  Returns (tower, t)."""
    N = 2 * (n - 1)
    T = cyclotomic(lcm(4, N)).extend_ratfunc("mu")
    return T, T.gen("mu") ** N


@_surface_cache
def enumerate_dn(s):
    """On the D_n conic bundle s: the 2 lines z = +-r w over x = 0,
    r^2 = t, and the 2(n-1) curves x = (zeta^j mu)^2, z = i zeta^j mu y
    over x^(n-1) = t.  Two _fibre_family graphs of (z, x) over (w : y):
    (r w, 0) over Q(zeta_2)[r, 1/r] (sqrt_t_tower), whose rotation
    r -> -r is the other line, and (i mu y, mu^2) over Q(zeta_M)[mu,
    1/mu] (dn_tower), whose rotations mu -> zeta^j mu are the other
    curves, the roots zeta^j mu distinct as zeta = zeta_N has order N.  The
    x = 0 pair has a tower of its own: in the mu-tower, t = mu^N, its N
    rotations would repeat its two lines."""
    R, t = sqrt_t_tower()
    x0 = _fibre_family(s, "Dn-x0", "x0", ([R.gen("r"), R.zero()],
                                          [R.zero()]), t)
    T, t = dn_tower(s.index)
    i, mu = root_of_unity(T, 4), T.gen("mu")
    return [x0, _fibre_family(s, "Dn-mu", "mu", ([T.zero(), i * mu],
                                                 [mu ** 2]), t)]


def has_curves(s):
    """Whether the catalog surface s has a curve enumeration: s6, s7, s8,
    an:<n> and dn:<n> do, s6prime and the Klein surfaces do not.  Decided
    by name, before any arithmetic."""
    return s.name.partition(":")[0] in ("s6", "s7", "s8", "an", "dn")


def surface_families(s):
    """{branch: family} of the curve families certified on the catalog
    surface s, in the order of its enumeration: L1-L3 ("alpha") and L_mu
    ("Lmu") on s6, the e = 0 pair ("e0") and the main family ("main") on
    s7, the branches "P1" and "P2" on s8, y0 and z0 on an:<n>, x0 and mu
    on dn:<n>.  A surface without an enumeration (has_curves) is a
    GeometryError, a ValueError, raised before any arithmetic."""
    if not has_curves(s):
        raise GeometryError("no curve enumeration for %r" % s.name)
    kind = s.name.partition(":")[0]
    if kind == "s6":
        curves = certify_s6_lines(s)
    elif kind in ("s7", "s8"):
        curves = (enumerate_s7 if kind == "s7" else enumerate_s8)(s)[0]
    else:
        curves = (enumerate_an if kind == "an" else enumerate_dn)(s)
    return {c.branch: c for c in curves}
