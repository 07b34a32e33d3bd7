"""Galois orbits of radical curve families, exact intersection witnesses
between conjugate curves, minimal-model bookkeeping and rationality verdicts
over the base extensions K = C(t^{1/m})."""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .multipoly import MultiPoly
from .tower import FieldTower, FieldElement, cyclotomic, root_of_unity
from .geometry import PointSpec, on_surface, GeometryError
from .curves import (VerificationError, _surface_cache, enumerate_s7,
                     enumerate_s8, enumerate_an, enumerate_dn, s6_alpha_lines,
                     s6_line_tower, s6_line_forms, s7_e0_tower, an_tower,
                     dn_tower)

# The contraction bookkeeping below ("axiom table") encodes the standard
# minimal-model facts the verdicts rest on; everything the engine can check
# symbolically (orbit partitions, intersection witnesses, membership) is
# checked, and the remaining birational-geometry steps are labeled as axioms
# in the reports rather than silently assumed.
AXIOM = "axiom-table"


@dataclass(frozen=True)
class BaseExtension:
    """K = C(t^{1/m}), modeled as the tower with s^m = t."""
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")


@dataclass
class MinimalModelDescriptor:
    kind: str                      # "DelPezzo" | "ConicBundle"
    over: BaseExtension
    degree: int = None             # del Pezzo degree 1..9
    singular_fibres: int = None    # conic bundle: verified singular fibres
    extra_fibre_unknown: bool = False
    justification: dict = field(default_factory=dict)


@dataclass
class Verdict:
    case: str
    rational: bool
    rule: str
    a: int
    over: BaseExtension
    descriptor: MinimalModelDescriptor = None


def two_part(n: int) -> int:
    p = 1
    while n % 2 == 0:
        p, n = 2 * p, n // 2
    return p


def parse_case(case: str):
    if case in ("e6", "e7", "e8"):
        return case, None
    for pre in ("an", "dn"):
        if case.startswith(pre + ":"):
            n = int(case.split(":", 1)[1])
            low = 2 if pre == "an" else 4
            if n < low:
                raise ValueError("%s needs n >= %d" % (pre, low))
            return pre, n
    raise ValueError("unknown case %r" % case)


def case_surface(case: str) -> str:
    """Catalog name of the surface a verdict case reads: e6, e7 and e8 read
    the models s6, s7 and s8; an:<n> and dn:<n> read themselves."""
    kind = parse_case(case)[0]
    return {"e6": "s6", "e7": "s7", "e8": "s8"}.get(kind, case)


def rationality_degree(case: str) -> int:
    kind, n = parse_case(case)
    if kind == "dn":
        return two_part(2 * (n - 1))
    return {"e6": 12, "e7": 18, "e8": 30, "an": 1}[kind]


# ---------------------------------------------------------------------------
# orbit partition of a binomial family X^N = c t

def orbit_structure(N: int, m: int) -> dict:
    """Partition of the N roots of X^N = c t into Galois orbits over
    C(t^{1/m}).  With g = gcd(N, m) the binomial factors into g irreducible
    binomials of degree N/g; the factorization identity
        prod_{i<g} (X^b - rho zeta_g^i) = X^N - rho^g      (b = N/g)
    is verified over Q(zeta_g), and the orbits are the residue classes of
    the root index modulo g."""
    if N < 1 or m < 1:
        raise ValueError("N, m must be >= 1")
    g = gcd(N, m)
    b = N // g
    T = cyclotomic(g)
    zeta = root_of_unity(T, g)
    vs = ("X", "rho")
    one = T.from_fraction(Fraction(1))
    prod = MultiPoly.const(vs, one)
    for i in range(g):
        prod = prod * (MultiPoly(vs, {(b, 0): one}) -
                       MultiPoly(vs, {(0, 1): zeta ** i}))
    target = MultiPoly(vs, {(N, 0): one}) - MultiPoly(vs, {(0, g): one})
    if not (prod - target).is_zero():
        raise VerificationError("binomial factorization identity failed "
                                "for N=%d, m=%d" % (N, m))
    blocks = [[j for j in range(N) if j % g == i] for i in range(g)]
    return {"N": N, "m": m, "g": g, "block_size": b, "blocks": blocks,
            "identity": "prod_{i<%d}(X^%d - rho zeta^i) = X^%d - rho^%d"
                        % (g, b, N, g)}


# ---------------------------------------------------------------------------
# lines in P^3

def _form_rows(forms, tower, nvars=4):
    rows = []
    for f in forms:
        row = [tower.from_fraction(Fraction(0))] * nvars
        for e, c in f.terms.items():
            if sum(e) != 1:
                raise GeometryError("form is not linear")
            row[list(e).index(1)] = tower.lift(c)
        rows.append(row)
    return rows


def _kernel(rows, tower):
    """Exact Gaussian elimination; returns (rank, kernel basis vectors)."""
    n = len(rows[0])
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(mat)) if not mat[i][c].is_zero()),
                   None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c].invert()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    one = tower.from_fraction(Fraction(1))
    zero = tower.from_fraction(Fraction(0))
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        basis.append(v)
    return r, basis


def lines_intersect_p3(forms1, forms2, tower, surface=None, t=None):
    """Exact intersection of two lines in P^3, each cut by two linear forms
    over a common tower.  Returns (bool, witness coords or None); on a true
    answer the kernel vector is verified against all four forms (and the
    surface at the tower element t, when given)."""
    for forms in (forms1, forms2):
        rank, _ = _kernel(_form_rows(forms, tower), tower)
        if rank != 2:
            raise GeometryError("degenerate line")
    rows = _form_rows(tuple(forms1) + tuple(forms2), tower)
    rank, basis = _kernel(rows, tower)
    if rank == 4:
        return False, None
    witness = basis[0]
    env = dict(zip(("W", "X", "Y", "Z"), witness))
    for f in tuple(forms1) + tuple(forms2):
        val = f.evaluate({v: env[v] for v in f.vars})
        if not val.is_zero():
            raise VerificationError("kernel witness fails a line form")
    if surface is not None:
        p = PointSpec(surface.ambient, tuple(witness))
        if not on_surface(surface, p, t):
            raise VerificationError("line intersection witness not on the "
                                    "surface")
    return True, witness


def _serialize_point(coords):
    return [str(c) for c in coords]


@_surface_cache
def s6_intersections(s6) -> dict:
    """Exact witnesses for the conjugate-line intersections on the cubic s6:
    L_j pairs meet at (0:1:0:0); L_mu meets L_{xi mu} for xi of order 2 and
    order 3; for xi of order 12 the determinant is nonzero (disjoint)."""
    report = {"surface": "s6", "pairs": []}

    # L1, L2, L3 pairwise at (0:1:0:0)
    T0, t0, alpha_lines = s6_alpha_lines()
    for j1 in range(3):
        for j2 in range(j1 + 1, 3):
            ok, wit = lines_intersect_p3(alpha_lines[j1], alpha_lines[j2],
                                         T0, s6, t0)
            if not ok:
                raise VerificationError("L%d and L%d do not intersect"
                                        % (j1 + 1, j2 + 1))
            report["pairs"].append({"pair": "L%d/L%d" % (j1 + 1, j2 + 1),
                                    "intersect": True,
                                    "witness": _serialize_point(wit)})

    # L_mu vs L_{xi mu}, xi = z12^k: the pairs of xi-order 2 (k=6) and
    # 3 (k=4,8) must intersect on both branches; the remaining dets are
    # recorded as measured, and at least one must be nonzero (disjoint
    # conjugate lines exist).
    for branch in ("plus", "minus"):
        T, _, t = s6_line_tower(branch)
        z12 = root_of_unity(T, 12)
        forms1 = s6_line_forms(T, branch)
        pattern = {}
        for k in range(1, 12):
            forms2 = s6_line_forms(T, branch, z12 ** k)
            ok, wit = lines_intersect_p3(forms1, forms2, T, s6, t)
            pattern[k] = ok
            report["pairs"].append(
                {"pair": "Lmu/Lximu", "branch": branch, "k": k,
                 "xi_order": 12 // gcd(12, k), "intersect": ok,
                 "witness": _serialize_point(wit) if ok else None})
        if not (pattern[6] and pattern[4] and pattern[8]):
            raise VerificationError(
                "L_mu must meet L_{xi mu} for xi of order 2 and 3 "
                "(branch %s)" % branch)
        if all(pattern.values()):
            raise VerificationError("expected at least one disjoint "
                                    "conjugate pair (branch %s)" % branch)
    return report


# ---------------------------------------------------------------------------
# xi-residues: how the solved coefficient fractions transform under the
# conjugation parameter -> xi * parameter (xi^N = 1)

def _xi_residue(p: MultiPoly, N: int, action: dict):
    """Common value mod N of sum(action[v] * exp_v) over the terms of p;
    action gives the residue weight of each variable under the conjugation
    (the radical parameter has weight 1, t has weight 0, derived symbols
    carry their own residues).  Mixed residues -> error."""
    res = None
    for e in p.terms:
        r = sum(action.get(v, 0) * k for v, k in zip(p.vars, e)) % N
        for v, k in zip(p.vars, e):
            if k and v not in action:
                raise VerificationError("variable %s has no xi-action" % v)
        if res is None:
            res = r
        elif r != res:
            raise VerificationError(
                "polynomial is not xi-homogeneous mod %d" % N, detail=p)
    if res is None:
        raise VerificationError("zero polynomial has no xi-residue")
    return res


def _fraction_residue(pair, N, action):
    num, den = pair
    return (_xi_residue(num, N, action) - _xi_residue(den, N, action)) % N


def _param_invertible(rel: MultiPoly, param: str):
    """gcd(param, relation) = 1: the relation has a term free of param."""
    ip = rel.vars.index(param)
    return any(e[ip] == 0 for e in rel.terms)


@_surface_cache
def _s7_main_data(s7):
    curves, trace, core = enumerate_s7(s7)
    main = next(c for c in curves if c.family == "S7-main")
    return curves, core, main


@_surface_cache
def _s8_branch_data(s8):
    curves, trace, (F1, F2) = enumerate_s8(s8)
    mains = {}
    for c in curves:
        if c.family == "S8-main" and c.branch not in mains:
            mains[c.branch] = c
    return curves, mains


def s7_conjugation(s7, order: int) -> dict:
    """Witness report for the pair (L_mu, L_{xi mu}) on s7, xi^order = 1,
    order in {2, 3}.  The curve is Y = aW + bX, Z = cW^2 + dWX + eX^2 with
    coefficients rational in the parameter e; conjugation acts by e -> xi e
    and multiplies each coefficient q by xi^{r(q)}, where the residue r(q)
    is read off (and certified) from the exponents of the solved fractions.

      order 3: witness (1:0:a:c) -- needs r(a) = r(c) = 0 (mod 3).
      order 2: witness on the Z = 0 slice at a root x0 of c + dx + ex^2
               (lc e invertible) -- needs r(a) = r(b) = 0 and
               r(c) = r(d) = r(e) (mod 2).

    Both curve memberships then reduce termwise to verified identities;
    surface membership follows from the certified pullback of the family."""
    if order not in (2, 3):
        raise ValueError("S7 conjugations have order 2 or 3")
    N = order
    _, core, main = _s7_main_data(s7)
    pairs = main.data["coeff_pairs"]
    # the relation must be xi-invariant: every e-exponent divisible by N
    if _xi_residue(core, N, {"e": 1, "t": 0}) != 0:
        raise VerificationError("residual relation is not xi-invariant")
    act = {"e": 1, "t": 0}
    act["d"] = _fraction_residue(pairs["d"], N, act)
    r = {name: _fraction_residue(pairs[name], N, act)
         for name in ("a", "b", "c", "d")}
    r["e"] = 1 % N
    y_res = [r["a"], r["b"]]
    z_res = [r["c"], r["d"], r["e"]]
    if not _param_invertible(core, "e"):
        raise VerificationError("parameter e not invertible mod relation")
    checks = {"relation_invariant": True, "residues": r,
              "parameter_invertible": True,
              "curves_distinct": r["e"] % N != 0}
    if not checks["curves_distinct"]:
        raise VerificationError("conjugate curve is not distinct")
    if order == 3:
        ok = r["a"] % 3 == 0 and r["c"] % 3 == 0
        witness = "(W:X:Y:Z) = (1:0:a:c), the X=0 point of L_mu"
        reason = ("a and c are xi-invariant, so the X=0 point of L_mu "
                  "satisfies both conjugate curve equations")
    else:
        ok = (all(v % 2 == 0 for v in y_res)
              and len(set(v % 2 for v in z_res)) == 1)
        witness = ("(1:x0:a+b*x0:0) with c + d*x0 + e*x0^2 = 0 "
                   "(root in the algebraic closure; lc e invertible)")
        reason = ("Y-coefficients are xi-invariant and the Z-form picks up "
                  "a global factor xi^%d, so the Z=0 slice of L_mu lies on "
                  "L_{xi mu} as well" % z_res[0])
    if not ok:
        raise VerificationError("S7 order-%d conjugation residues do not "
                                "support the witness" % order, detail=r)
    checks.update({"witness": witness, "reason": reason, "verified": True,
                   "xi_order": order, "surface": "s7"})
    return checks


def s8_conjugation(s8, order: int, branch: str = "P1") -> dict:
    """Witness report for (L_mu, L_{xi mu}) on s8, xi^order = 1 with order
    in {2, 3, 5}: the fixed locus of the conjugation-compatible
    automorphism cuts the curve in Z = 0 (order 2), Y = 0 (order 3) and
    X = 0 (order 5).  Residue bookkeeping as in s7_conjugation, with the
    extra symbol b bound by the branch quartic."""
    if order not in (2, 3, 5):
        raise ValueError("S8 conjugations have order 2, 3 or 5")
    N = order
    _, mains = _s8_branch_data(s8)
    main = mains[branch]
    pairs = main.data["coeff_pairs"]
    bnum, bden = main.data["b_pair"]
    Fi = main.relation
    Pi = main.data["branch_quartic"]
    if _xi_residue(Fi, N, {"mu": 1, "t": 0}) != 0:
        raise VerificationError("branch relation is not xi-invariant")
    act = {"mu": 1, "t": 0}
    act["b"] = (_xi_residue(bnum, N, act) - _xi_residue(bden, N, act)) % N
    _xi_residue(Pi, N, act)        # branch quartic transforms consistently
    act["f"] = _fraction_residue(pairs["f"], N, act)
    act["a"] = _fraction_residue(pairs["a"], N, act)
    r = {"a": act["a"], "b": act["b"], "f": act["f"],
         "e": _fraction_residue(pairs["e"], N, act),
         "d": _fraction_residue(pairs["d"], N, act),
         "mu2": 2 % N, "mu3": 3 % N}
    if not _param_invertible(Fi, "mu"):
        raise VerificationError("parameter mu not invertible mod relation")
    y_res = [r["a"], r["b"], r["mu2"]]
    z_res = [r["d"], r["e"], r["f"], r["mu3"]]
    distinct = r["mu2"] % N != 0 or r["mu3"] % N != 0
    if not distinct:
        raise VerificationError("conjugate curve is not distinct")
    if order == 5:
        ok = r["a"] % 5 == 0 and r["d"] % 5 == 0
        witness = "(W:X:Y:Z) = (1:0:a:d), the X=0 point of L_mu"
        reason = "a and d are xi-invariant"
    elif order == 3:
        ok = (len(set(v % 3 for v in y_res)) == 1
              and all(v % 3 == 0 for v in z_res))
        witness = ("(1:x0:0:Z(x0)) with a + b*x0 - mu^2*x0^2 = 0 "
                   "(lc mu^2 invertible)")
        reason = ("Z-coefficients are xi-invariant; the Y-form picks up a "
                  "global factor xi^%d and vanishes at x0" % y_res[0])
    else:
        ok = (len(set(v % 2 for v in z_res)) == 1
              and all(v % 2 == 0 for v in y_res))
        witness = ("(1:x0:Y(x0):0) with d + e*x0 + f*x0^2 - mu^3*x0^3 = 0 "
                   "(lc mu^3 invertible)")
        reason = ("Y-coefficients are xi-invariant; the Z-form picks up a "
                  "global factor xi^%d and vanishes at x0" % z_res[0])
    if not ok:
        raise VerificationError("S8 order-%d conjugation residues do not "
                                "support the witness" % order, detail=r)
    return {"surface": "s8", "branch": branch, "xi_order": order,
            "residues": r, "parameter_invertible": True,
            "curves_distinct": True, "witness": witness, "reason": reason,
            "verified": True}


# ---------------------------------------------------------------------------
# conic-bundle fibre component intersections (A_n, D_n)

def _meet_at(curves, s, coords, t, what):
    """Witness that the curves share the point `coords` (in the ambient
    variables of s) and that it lies on s, with t the element of the
    curves' tower."""
    env = dict(zip(s.ambient.variables, coords))
    for curve in curves:
        for eq in curve.equations:
            val = eq.evaluate({v: env[v] for v in eq.vars})
            if not (val.is_zero() if isinstance(val, FieldElement)
                    else val == 0):
                raise VerificationError("%s witness fails" % what)
    if not on_surface(s, PointSpec(s.ambient, tuple(coords)), t):
        raise VerificationError("%s witness not on the surface" % what)


@_surface_cache
def dn_intersections(s) -> dict:
    """D_n: the x=0 components meet at ((0:1:0), x=0); the component
    x = mu^2, z = i y mu meets its conjugate z = -i y mu at ((1:0:0), mu^2);
    components over distinct fibres are disjoint (distinct x-values)."""
    n = s.index
    curves = enumerate_dn(s)
    N = 2 * (n - 1)
    T, t = dn_tower(n)
    zeta, mu = root_of_unity(T, N), T.gen("mu")
    zero, one = T.zero(), T.one()
    report = {"surface": "dn:%d" % n, "pairs": []}
    _meet_at([c for c in curves if c.family == "Dn-x0"], s,
             (zero, one, zero, zero), t, "D_n x=0 components")
    report["pairs"].append({"pair": "x0+/x0-", "intersect": True,
                            "witness": "((0:1:0), x=0)"})
    mu_curves = [c for c in curves if c.family == "Dn-mu"]
    for j1 in range(N):
        j2 = (j1 + N // 2) % N
        _meet_at([mu_curves[j1], mu_curves[j2]], s,
                 (one, zero, zero, (zeta ** j1 * mu) ** 2), t,
                 "D_n mu-pair (j=%d)" % j1)
    report["pairs"].append({"pair": "mu_j / -mu_j (all j)",
                            "intersect": True,
                            "witness": "((1:0:0), x=mu_j^2)"})
    # distinct fibres: zeta^{2d} != 1 for 2d not divisible by N
    for d in range(1, N):
        if (2 * d) % N and (zeta ** (2 * d) - one).is_zero():
            raise VerificationError("fibre values coincide unexpectedly")
    report["pairs"].append({"pair": "mu_j / xi mu_j, xi^2 != 1",
                            "intersect": False,
                            "reason": "distinct fibres x = xi^2 mu^2"})
    return report


@_surface_cache
def an_intersections(s) -> dict:
    """A_n: over each fibre x^n = t the components y=0 and z=0 meet at
    ((1:0:0), x); components over distinct fibres are disjoint; in
    particular the y=0 orbit is pairwise disjoint (contractible)."""
    n = s.index
    curves = enumerate_an(s)
    T, t = an_tower(n)
    zeta, alpha = root_of_unity(T, n), T.gen("alpha")
    zero, one = T.zero(), T.one()
    report = {"surface": "an:%d" % n, "pairs": []}
    for j in range(n):
        _meet_at([c for c in curves if c.index == j], s,
                 (one, zero, zero, zeta ** j * alpha), t,
                 "A_n same-fibre (j=%d)" % j)
    report["pairs"].append({"pair": "y0_j / z0_j (all j)",
                            "intersect": True,
                            "witness": "((1:0:0), x=zeta^j alpha)"})
    for d in range(1, n):
        if (zeta ** d - one).is_zero():
            raise VerificationError("fibre values coincide unexpectedly")
    report["pairs"].append({"pair": "components over distinct fibres",
                            "intersect": False,
                            "reason": "distinct fibres x = zeta^d alpha"})
    return report


@_surface_cache
def s7_e0_intersection(s7) -> dict:
    """The two rational curves Y=0, Z=+-sqrt(t) W^2 on s7 meet at
    (0:1:0:0)."""
    T, t = s7_e0_tower()
    zero, one = T.zero(), T.one()
    _meet_at([c for c in _s7_main_data(s7)[0] if c.family == "S7-e0"],
             s7, (zero, one, zero, zero), t, "S7 e=0 pair")
    return {"surface": "s7", "pair": "Y=0, Z=+-sqrt(t)W^2",
            "intersect": True, "witness": "(0:1:0:0)"}


# ---------------------------------------------------------------------------
# minimal models and verdicts

def _dp(degree, ext, justification):
    return MinimalModelDescriptor("DelPezzo", ext, degree=degree,
                                  justification=justification)


def minimal_model(case: str, ext: BaseExtension,
                  surface) -> MinimalModelDescriptor:
    """The minimal model over ext, from the orbits and the witnesses on
    `surface`, the catalog surface named by case_surface(case)."""
    kind, n = parse_case(case)
    m = ext.m
    if kind == "e6":
        orbits = {"L123": orbit_structure(3, m),
                  "Lmu_plus": orbit_structure(12, m),
                  "Lmu_minus": orbit_structure(12, m)}
        certs = s6_intersections(surface)
        just = {"orbits": orbits, "intersections": certs["pairs"],
                "axiom": AXIOM}
        if m % 12 == 0:
            just["step"] = ("all 27 lines are singleton orbits; the surface "
                            "is contracted to the plane (%s)" % AXIOM)
            return _dp(9, ext, just)
        if m % 3 == 0:
            just["step"] = ("L1..L3 split into singletons but meet pairwise "
                            "at (0:1:0:0): exactly one can be contracted; "
                            "every L_mu orbit of size > 1 contains a "
                            "verified intersecting pair (%s)" % AXIOM)
            return _dp(4, ext, just)
        just["step"] = ("every orbit of size > 1 contains a verified "
                        "intersecting conjugate pair; minimal (%s)" % AXIOM)
        return _dp(3, ext, just)
    if kind == "e7":
        orbits = {"e0": orbit_structure(2, m)}
        just = {"orbits": orbits,
                "intersections": [s7_e0_intersection(surface),
                                  s7_conjugation(surface, 2),
                                  s7_conjugation(surface, 3)],
                "axiom": AXIOM}
        if m % 18 == 0:
            just["step"] = ("all 56 curves split over C(t^{1/18}); "
                            "contraction to the plane (%s)" % AXIOM)
            return _dp(9, ext, just)
        if m % 2 == 0:
            just["step"] = ("the two curves Y=0, Z=+-sqrt(t)W^2 become "
                            "rational but meet at (0:1:0:0): exactly one "
                            "contracts, degree 2 -> 3; the 54-curve family "
                            "has verified intersecting conjugate pairs "
                            "(%s)" % AXIOM)
            return _dp(3, ext, just)
        just["step"] = ("no orbit is contractible: conjugate pairs of both "
                        "families intersect (%s)" % AXIOM)
        return _dp(2, ext, just)
    if kind == "e8":
        just = {"intersections": [s8_conjugation(surface, k)
                                  for k in (2, 3, 5)], "axiom": AXIOM}
        if m % 30 == 0:
            just["step"] = ("all 240 curves split over C(t^{1/30}); "
                            "contraction to the plane (%s)" % AXIOM)
            return _dp(9, ext, just)
        just["step"] = ("conjugate pairs of xi-order 2, 3, 5 intersect; "
                        "minimal (%s)" % AXIOM)
        return _dp(1, ext, just)
    if kind == "dn":
        N = 2 * (n - 1)
        a = two_part(N)
        orbit = orbit_structure(N, m)
        g = orbit["g"]
        split = (N // 2) % g != 0      # mu and -mu in different orbits
        if split != (m % a == 0):
            raise VerificationError("2-part criterion disagrees with the "
                                    "orbit partition")
        just = {"orbits": {"mu": orbit, "x0": orbit_structure(2, m)},
                "intersections": dn_intersections(surface)["pairs"],
                "axiom": AXIOM}
        if m % a == 0:
            just["step"] = ("every mu-orbit separates mu from -mu and its "
                            "members lie over distinct fibres (pairwise "
                            "disjoint): all n-1 split fibres contract; "
                            "m is even, so the x=0 fibre splits too (%s)"
                            % AXIOM)
            return MinimalModelDescriptor(
                "ConicBundle", ext, singular_fibres=0,
                extra_fibre_unknown=True, justification=just)
        fibres = (n - 1) + (1 if m % 2 else 0)
        if fibres < 4:
            raise VerificationError("singular fibre bound %d < 4" % fibres)
        just["step"] = ("mu and -mu stay conjugate and their components "
                        "meet: %d singular fibres survive (>= 4), plus at "
                        "most one unverified fibre at infinity which cannot "
                        "change the verdict (%s)" % (fibres, AXIOM))
        return MinimalModelDescriptor(
            "ConicBundle", ext, singular_fibres=fibres,
            extra_fibre_unknown=True, justification=just)
    # a_n
    orbit = orbit_structure(n, m)
    just = {"orbits": {"fibres": orbit},
            "intersections": an_intersections(surface)["pairs"],
            "axiom": AXIOM}
    just["step"] = ("the y=0 components form a Galois-stable pairwise "
                    "disjoint family (distinct fibres): contracting them "
                    "leaves at most the unverified fibre at infinity (%s)"
                    % AXIOM)
    return MinimalModelDescriptor("ConicBundle", ext, singular_fibres=0,
                                  extra_fibre_unknown=True,
                                  justification=just)


def _rational_point(s) -> bool:
    """Exact rational point on the conic bundle s, needed by the d <= 1
    rationality rule."""
    T = FieldTower.rationals().extend_ratfunc("t")
    zero, one = T.from_fraction(Fraction(0)), T.from_fraction(Fraction(1))
    p = PointSpec(s.ambient, (zero, one, zero, zero))
    return on_surface(s, p)


def rationality_verdict(case: str, ext: BaseExtension, surface) -> Verdict:
    desc = minimal_model(case, ext, surface)
    a = rationality_degree(case)
    if desc.kind == "DelPezzo":
        if desc.degree == 9:
            rational, rule = True, "del-pezzo-degree-9-rational"
        elif desc.degree <= 4:
            rational, rule = False, "minimal-del-pezzo-degree-le-4-not-rational"
        else:
            raise VerificationError("no rule for del Pezzo degree %d"
                                    % desc.degree)
    else:
        if desc.singular_fibres >= 4:
            rational, rule = False, "conic-bundle-ge-4-fibres-not-rational"
        elif desc.singular_fibres + 1 <= 1:
            if not _rational_point(surface):
                raise VerificationError("missing rational point for the "
                                        "d <= 1 rule")
            rational, rule = True, "conic-bundle-le-1-fibre-with-point-rational"
        else:
            raise VerificationError("conic bundle with %d fibres: no rule"
                                    % desc.singular_fibres)
    if rational != (ext.m % a == 0):
        raise VerificationError(
            "rule table and degree formula disagree for %s, m=%d: "
            "rule says rational=%s but a=%d" % (case, ext.m, rational, a))
    return Verdict(case, rational, rule, a, ext, desc)


GRID_CASES = ("an:2", "dn:5", "e6", "e7", "e8")


def verdict_grid(catalog, cases=GRID_CASES, ms=range(1, 31)):
    """The full consistency grid over the catalog's surfaces: for every case
    and m the rule-table verdict must coincide with the divisibility
    criterion a | m."""
    cells = []
    for case in cases:
        a = rationality_degree(case)
        surface = catalog[case_surface(case)]
        for m in ms:
            v = rationality_verdict(case, BaseExtension(m), surface)
            cells.append({"case": case, "m": m, "rational": v.rational,
                          "rule": v.rule, "a": a,
                          "divisibility": m % a == 0})
            if v.rational != (m % a == 0):
                raise VerificationError("grid cell inconsistent: %s, m=%d"
                                        % (case, m))
    return cells
