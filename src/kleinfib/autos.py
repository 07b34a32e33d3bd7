"""Automorphism verification for the affine Klein surfaces: invariance of
the defining polynomial under candidate maps, diagonal groups by exact
monomial matching, the order-3 map tau on d_4, and the a_n shear family.

Only the exhibited groups are verified to act; that no further
automorphisms exist is a geometric statement outside computation and is
flagged as paper-sourced in every report."""

import random
from dataclasses import dataclass
from fractions import Fraction

from .multipoly import MultiPoly
from .tower import FieldTower, FieldElement
from .geometry import _bezout_many, _pow_signed, build_surface
from .curves import VerificationError

AFFINE_VARS = ("x", "y", "z")
COMPLETENESS_NOTE = ("the completeness of the group (no further "
                     "automorphisms) is paper-sourced, not recomputed")


@dataclass
class PolyMap:
    exprs: tuple                   # three MultiPoly in (x, y, z)
    kind: str = "affine"

    def __post_init__(self):
        if len(self.exprs) != 3 or any(e.vars != AFFINE_VARS
                                       for e in self.exprs):
            raise ValueError("PolyMap needs three polynomials in (x, y, z)")

    def apply(self, f: MultiPoly) -> MultiPoly:
        return f.substitute(dict(zip(AFFINE_VARS, self.exprs)))

    def compose(self, other: "PolyMap") -> "PolyMap":
        """self after other: (self . other)(p) = self(other(p)) as maps,
        i.e. substitute other's components into self's."""
        sub = dict(zip(AFFINE_VARS, other.exprs))
        return PolyMap(tuple(e.substitute(sub) for e in self.exprs))

    def is_identity(self) -> bool:
        return all((e - MultiPoly.var(AFFINE_VARS, v)).is_zero()
                   for e, v in zip(self.exprs, AFFINE_VARS))


def _coeff_div(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a / b
    if isinstance(b, Fraction):
        return a * (Fraction(1) / b)
    return (b.invert() * a) if isinstance(a, FieldElement) else \
        b.invert() * a


def check_invariance(f: MultiPoly, phi: PolyMap) -> dict:
    """Exact proportionality f(phi(x,y,z)) = lambda f with a nonzero
    constant lambda; returns the unit or the full residue."""
    g = phi.apply(f.rename(AFFINE_VARS) if f.vars != AFFINE_VARS else f)
    e0, c0 = f.leading_term()
    e0 = tuple(e0[f.vars.index(v)] for v in AFFINE_VARS) \
        if f.vars != AFFINE_VARS else e0
    if e0 not in g.terms:
        return {"invariant": False, "lambda": None, "residue": g}
    lam = _coeff_div(g.terms[e0], c0)
    residue = g - (f.rename(AFFINE_VARS)
                   if f.vars != AFFINE_VARS else f).scale(lam)
    if residue.is_zero():
        return {"invariant": True, "lambda": lam, "residue": residue}
    return {"invariant": False, "lambda": lam, "residue": residue}


def map_order(phi: PolyMap, bound: int = 24):
    cur = phi
    for k in range(1, bound + 1):
        if cur.is_identity():
            return k
        cur = phi.compose(cur)
    return "exceeds bound"


# ---------------------------------------------------------------------------
# diagonal groups

PARAMETRIZATIONS = {
    "e6": {"exponents": (3, 4, 6), "signed": (False, False, True),
           "iso": "C* x {+-1}"},
    "e7": {"exponents": (4, 6, 9), "signed": (False, False, False),
           "iso": "C*"},
    "e8": {"exponents": (6, 10, 15), "signed": (False, False, False),
           "iso": "C*"},
}


@dataclass
class DiagonalGroupDescriptor:
    case: str
    conditions: list               # exponent vectors d with a^d1 b^d2 c^d3=1
    iso_label: str
    exponents: tuple               # parametrization (alpha,beta,gamma)=t^e
    signed: tuple                  # which slots carry an independent +-1
    monomials: tuple
    notes: str = COMPLETENESS_NOTE

    def conditions_satisfied(self, sol) -> bool:
        a, b, c = sol
        for d in self.conditions:
            val = (_pow_signed(a, d[0]) * _pow_signed(b, d[1])
                   * _pow_signed(c, d[2]))
            if val != 1:
                return False
        return True

    def element(self, t, signs=(1, 1, 1)):
        return tuple(_pow_signed(t, e) * (s if sg else 1)
                     for e, sg, s in zip(self.exponents, self.signed,
                                         signs))

    def solve_parameter(self, sol):
        """Recover (t, signs) hitting sol exactly, using an integer
        combination of the exponents with gcd 1."""
        e = self.exponents
        # Bezout combination sum(c_i e_i) = 1
        g, coeffs = _bezout_many(e)
        if g != 1:
            raise VerificationError("exponents are not coprime")
        a, b, c = sol
        t = _pow_signed(a, coeffs[0]) * _pow_signed(b, coeffs[1]) \
            * _pow_signed(c, coeffs[2])
        signs = []
        for v, ei, sg in zip(sol, e, self.signed):
            s = v / _pow_signed(t, ei)
            if s == 1:
                signs.append(1)
            elif s == -1 and sg:
                signs.append(-1)
            else:
                raise VerificationError("parametrization misses a solution")
        return t, tuple(signs)


def _klein_equation(case: str):
    name = case if case.startswith("klein-") else "klein-" + case
    return build_surface(name).equation


def diagonal_group(case: str, seed: int = 0) -> DiagonalGroupDescriptor:
    """Exponent conditions for (alpha x, beta y, gamma z) preserving the
    Klein polynomial up to a unit, derived by monomial matching, with the
    parametrization verified symbolically over Q(lambda) and at 5 random
    rational specializations."""
    base = case.replace("klein-", "")
    f = _klein_equation(base)
    monos = sorted(f.terms)
    if len(set(monos)) != len(f.terms):
        raise VerificationError("monomials of f are not independent")
    # all monomials must rescale by the same unit
    conditions = [tuple(m - n for m, n in zip(monos[i], monos[0]))
                  for i in range(1, len(monos))]
    if base.startswith("dn:"):
        n = int(base.split(":")[1])
        exponents, signed = (2, n - 2, n - 1), (False, True, True)
        iso = "C* x {+-1}^2 (signs on y and z)"
    elif base in PARAMETRIZATIONS:
        spec = PARAMETRIZATIONS[base]
        exponents, signed, iso = (spec["exponents"], spec["signed"],
                                  spec["iso"])
    else:
        raise ValueError("no diagonal group for %r" % case)
    desc = DiagonalGroupDescriptor(base, conditions, iso, exponents, signed,
                                   tuple(monos))
    # the parametrization satisfies every condition identically:
    # sum(exponents . d) = 0 and the sign part is trivial on d
    sign_combos = [tuple(s if sg else 1 for sg, s in zip(signed, combo))
                   for combo in [(1, 1, 1), (1, 1, -1), (1, -1, 1),
                                 (1, -1, -1)]]
    sign_combos = sorted(set(sign_combos))
    for d in conditions:
        if sum(e * k for e, k in zip(exponents, d)) != 0:
            raise VerificationError(
                "parametrization violates an exponent condition", )
        for signs in sign_combos:
            if signs[0] ** d[0] * signs[1] ** d[1] * signs[2] ** d[2] != 1:
                raise VerificationError(
                    "sign part violates an exponent condition")
    # symbolic check over Q(lambda), every sign combination
    T = FieldTower.rationals().extend_ratfunc("lam")
    lam = T.gen("lam")
    for signs in sign_combos:
        phi = PolyMap(tuple(
            MultiPoly.var(AFFINE_VARS, v).scale(lam ** e * Fraction(s))
            for v, e, s in zip(AFFINE_VARS, exponents, signs)))
        res = check_invariance(f, phi)
        if not res["invariant"]:
            raise VerificationError("symbolic diagonal map fails "
                                    "invariance (signs %s)" % (signs,))
    # 5 random rational specializations
    rng = random.Random(seed)
    for _ in range(5):
        t = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        signs = tuple(rng.choice((1, -1)) if sg else 1 for sg in signed)
        sol = desc.element(t, signs)
        phi = PolyMap(tuple(MultiPoly.var(AFFINE_VARS, v).scale(c)
                            for v, c in zip(AFFINE_VARS, sol)))
        if not check_invariance(f, phi)["invariant"]:
            raise VerificationError("random specialization fails")
        if not desc.conditions_satisfied(sol):
            raise VerificationError("random element violates conditions")
    return desc


# ---------------------------------------------------------------------------
# tau on d_4 and the a_n shear family

def tau_map(tower=None) -> PolyMap:
    """tau = (-x/2 + (i/2) y, (3i/2) x - y/2, z) over Q(i)."""
    T = tower or FieldTower.rationals().extend_algebraic("i", [1, 0, 1])
    i = T.gen("i")
    x, y, z = (MultiPoly.var(AFFINE_VARS, v) for v in AFFINE_VARS)
    half = Fraction(1, 2)
    return PolyMap((x.scale(-half * T.from_fraction(1)) + y.scale(i * half),
                    x.scale(i * Fraction(3, 2)) - y.scale(
                        half * T.from_fraction(1)),
                    z.map_coeffs(lambda c: T.from_fraction(c))))


def verify_tau() -> dict:
    """tau preserves d_4 = x^3 + x y^2 + z^2 with lambda = 1 and has
    order 3."""
    f = _klein_equation("dn:4")
    tau = tau_map()
    res = check_invariance(f, tau)
    order = map_order(tau, bound=6)
    ok = res["invariant"] and _is_one(res["lambda"]) and order == 3
    if not ok:
        raise VerificationError("tau verification failed",
                                detail=(res, order))
    return {"surface": "klein-dn:4", "map": "tau", "lambda": "1",
            "order": 3, "verified": True, "notes": COMPLETENESS_NOTE}


def _is_one(lam):
    if isinstance(lam, Fraction):
        return lam == 1
    return (lam - lam.tower.from_fraction(1)).is_zero()


def tau_normalizes_diagonal(seed: int = 0, samples: int = 5) -> bool:
    """For random diagonal elements delta of the d_4 group,
    tau . delta . tau^2 still preserves d_4 (tau^3 = 1, so tau^2 is the
    inverse); closure at this level is all the computation certifies."""
    T = FieldTower.rationals().extend_algebraic("i", [1, 0, 1])
    f = _klein_equation("dn:4")
    tau = tau_map(T)
    tau_inv = tau.compose(tau)
    if not tau.compose(tau_inv).is_identity():
        raise VerificationError("tau^3 != identity")
    rng = random.Random(seed)
    for _ in range(samples):
        t = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        signs = (1, rng.choice((1, -1)), rng.choice((1, -1)))
        coeffs = (t ** 2, signs[1] * t ** 2, signs[2] * t ** 3)
        delta = PolyMap(tuple(
            MultiPoly.var(AFFINE_VARS, v).scale(T.from_fraction(c))
            for v, c in zip(AFFINE_VARS, coeffs)))
        conj = tau.compose(delta).compose(tau_inv)
        if not check_invariance(f, conj)["invariant"]:
            raise VerificationError("tau-conjugate fails invariance")
    return True


def verify_an_wild_family(n: int, P: MultiPoly) -> bool:
    """The shear (x, y, z) -> (x + yP(y), y, z + ((x+yP)^n - x^n)/y)
    preserves a_n = x^n - yz with lambda = 1; the division by y is exact
    by construction and checked."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if P.vars != AFFINE_VARS:
        P = P.rename(AFFINE_VARS)
    if P.degree("x") or P.degree("z"):
        raise ValueError("P must be a polynomial in y")
    x, y, z = (MultiPoly.var(AFFINE_VARS, v) for v in AFFINE_VARS)
    u = x + y * P
    diff = u ** n - x ** n
    iy = AFFINE_VARS.index("y")
    if any(e[iy] == 0 for e in diff.terms):
        raise VerificationError("(x+yP)^n - x^n not divisible by y")
    quot = diff.divide_by_term(tuple(1 if i == iy else 0
                                     for i in range(3)))
    phi = PolyMap((u, y, z + quot))
    f = _klein_equation("an:%d" % n)
    res = check_invariance(f, phi)
    if not (res["invariant"] and _is_one(res["lambda"])):
        raise VerificationError("shear fails invariance", detail=res)
    return True


def autos_report(case: str, seed: int = 0, wild_polys=None) -> dict:
    """Full verification bundle for one Klein surface family."""
    base = case.replace("klein-", "")
    report = {"surface": "klein-" + base, "verified": True,
              "completeness": COMPLETENESS_NOTE}
    if base.startswith("an:"):
        n = int(base.split(":")[1])
        x, y, z = (MultiPoly.var(AFFINE_VARS, v) for v in AFFINE_VARS)
        one = MultiPoly.const(AFFINE_VARS, Fraction(1))
        polys = wild_polys or [one, y, one + y + y ** 3]
        report["wild_family"] = [
            {"P": str(p), "verified": verify_an_wild_family(n, p)}
            for p in polys]
        return report
    desc = diagonal_group(base, seed=seed)
    report["diagonal"] = {
        "conditions": [list(d) for d in desc.conditions],
        "iso": desc.iso_label,
        "parametrization_exponents": list(desc.exponents),
        "signed_slots": list(desc.signed),
    }
    if base == "dn:4":
        report["tau"] = verify_tau()
        report["tau_normalizes_diagonal"] = tau_normalizes_diagonal(seed)
    return report
