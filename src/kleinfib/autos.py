"""Automorphism verification for the affine Klein surfaces: invariance of
the defining polynomial under candidate maps, diagonal groups from the
Smith normal form of the exponent lattice, the order-3 map tau on d_4, and
the a_n shear family.

Only the exhibited groups are verified to act; that no further
automorphisms exist is a geometric statement outside computation and is
flagged as paper-sourced in every report."""

import random
from fractions import Fraction
from math import gcd, lcm, prod

from .multipoly import MultiPoly
from .tower import FieldTower, cyclotomic, root_of_unity
from .base import VerificationError

AFFINE_VARS = ("x", "y", "z")
COMPLETENESS_NOTE = ("the completeness of the group (no further "
                     "automorphisms) is paper-sourced, not recomputed")


class PolyMap:
    """The map with components `exprs`, three MultiPoly in (x, y, z)."""

    def __init__(self, exprs):
        if len(exprs) != 3 or any(e.vars != AFFINE_VARS for e in exprs):
            raise ValueError("PolyMap needs three polynomials in (x, y, z)")
        self.exprs = exprs

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


def check_invariance(f: MultiPoly, phi: PolyMap) -> dict:
    """Exact proportionality f(phi(x,y,z)) = lambda f with a nonzero
    constant lambda; returns the unit or the full residue."""
    g = phi.apply(f.rename(AFFINE_VARS) if f.vars != AFFINE_VARS else f)
    e0, c0 = f.leading_term()
    e0 = tuple(e0[f.vars.index(v)] for v in AFFINE_VARS) \
        if f.vars != AFFINE_VARS else e0
    if e0 not in g.terms:
        return {"invariant": False, "lambda": None, "residue": g}
    lam = g.terms[e0] / c0
    residue = g - (f.rename(AFFINE_VARS)
                   if f.vars != AFFINE_VARS else f).scale(lam)
    if residue.is_zero():
        return {"invariant": True, "lambda": lam, "residue": residue}
    return {"invariant": False, "lambda": lam, "residue": residue}


def map_order(phi: PolyMap):
    """The order of phi if it is at most 6, else "exceeds bound"."""
    cur = phi
    for k in range(1, 7):
        if cur.is_identity():
            return k
        cur = phi.compose(cur)
    return "exceeds bound"


# ---------------------------------------------------------------------------
# diagonal groups

class DiagonalGroupDescriptor:
    """conditions are the exponent vectors d with a^d1 b^d2 c^d3 = 1,
    exponents the free generator t -> (t^e1, t^e2, t^e3), torsion the
    (k, v) with x_i -> zeta_k^(v_i) x_i."""

    def __init__(self, conditions, iso_label, exponents, torsion):
        self.conditions, self.iso_label = conditions, iso_label
        self.exponents, self.torsion = exponents, torsion

    def random_element(self, rng, T):
        """t^exponents times a random power of each torsion generator, t a
        random positive rational; a coefficient is a Fraction while it
        needs no zeta_k with k > 2, and else lies in T."""
        t = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        coeffs = [t ** e for e in self.exponents]
        for k, v in self.torsion:
            zeta = (-1 if k == 2 else root_of_unity(T, k)) ** rng.randrange(k)
            coeffs = [c * zeta ** e for c, e in zip(coeffs, v)]
        return tuple(coeffs)


def _smith_form(rows, n):
    """The nonzero invariant factors d_1 | d_2 | ... of the integer matrix
    `rows` (n columns) and a unimodular V with U rows V = diag(d) for some
    unimodular U (Cohen, GTM 138, Algorithm 2.4.14)."""
    A = [list(r) for r in rows]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    factors = []
    for p in range(min(len(A), n)):
        while True:
            pivots = [(abs(a), i, j) for i, r in enumerate(A[p:], p)
                      for j, a in enumerate(r[p:], p) if a]
            if not pivots:
                return factors, V
            _, i, j = min(pivots)
            A[p], A[i] = A[i], A[p]
            for r in A + V:
                r[p], r[j] = r[j], r[p]
            a = A[p][p]
            for i in range(p + 1, len(A)):
                q = A[i][p] // a
                A[i] = [x - q * y for x, y in zip(A[i], A[p])]
            for j in range(p + 1, n):
                q = A[p][j] // a
                for r in A + V:
                    r[j] -= q * r[p]
            if any(A[i][p] for i in range(p + 1, len(A))) or \
                    any(A[p][j] for j in range(p + 1, n)):
                continue
            # the pivot must divide the rest: add a row it does not divide
            bad = [r for r in A[p + 1:] if any(x % a for x in r[p + 1:])]
            if not bad:
                break
            A[p] = [x + y for x, y in zip(A[p], bad[0])]
        factors.append(abs(A[p][p]))
    return factors, V


def diagonal_group(s, seed: int = 0) -> DiagonalGroupDescriptor:
    """The diagonal maps (alpha x, beta y, gamma z) preserving the Klein
    polynomial f of s up to a unit, computed from its exponents alone.

    They form Hom(Z^3/L, C*), L the lattice of exponent differences of f.
    The Smith normal form of L gives it as C* x prod Z/k: the free part
    must have rank 1 with generator +-s.quasi_weights, and each invariant
    factor k > 1 gives a torsion generator x_i -> zeta_k^(v_i) x_i, taken
    (of all the generators of its cyclic group, modulo t -> t^w) with the
    fewest nonzero v_i, then lexicographically least.  The one-parameter
    subgroup is verified over Q[lambda, 1/lambda], each torsion generator
    over Q(zeta_k), and the group at 5 random specializations."""
    f = s.equation
    monos = sorted(f.terms)
    conditions = [tuple(m - n for m, n in zip(mono, monos[0]))
                  for mono in monos[1:]]
    factors, V = _smith_form(conditions, len(AFFINE_VARS))
    free = [tuple(r[p] for r in V) for p in range(len(factors), len(V))]
    w = tuple(s.quasi_weights)
    if free not in ([w], [tuple(-e for e in w)]):
        raise VerificationError(
            "the free part of the diagonal group of %s is generated by %s, "
            "not by the quasi-weights %s" % (s.name, free, w))
    torsion = []
    for p, k in enumerate(factors):
        if k > 1:
            reps = {tuple((u * r[p] + j * e) % k for r, e in zip(V, w))
                    for u in range(1, k) if gcd(u, k) == 1
                    for j in range(k)}
            torsion.append((k, min(reps, key=lambda v: (-v.count(0), v))))
    iso = "C*" + "".join(" x {+-1}" if k == 2 else " x Z/%d" % k
                         for k, _ in torsion)
    desc = DiagonalGroupDescriptor(conditions, iso, w, torsion)
    # symbolic: the one-parameter subgroup, then each torsion generator
    lam = FieldTower.rationals().extend_ratfunc("lam").gen("lam")
    maps = [_diagonal_map(lam ** e for e in w)]
    maps += [_diagonal_map(root_of_unity(cyclotomic(k), k) ** e for e in v)
             for k, v in torsion]
    for phi in maps:
        if not check_invariance(f, phi)["invariant"]:
            raise VerificationError("symbolic diagonal map fails invariance",
                                    detail=phi)
    # 5 random specializations
    rng = random.Random(seed)
    T = cyclotomic(lcm(*(k for k, _ in torsion)))
    for _ in range(5):
        sol = desc.random_element(rng, T)
        if not check_invariance(f, _diagonal_map(sol))["invariant"]:
            raise VerificationError("random specialization fails")
        if any(prod(a ** e for a, e in zip(sol, d)) != 1
               for d in conditions):
            raise VerificationError("random element violates conditions")
    return desc


def _diagonal_map(coeffs):
    return PolyMap(tuple(MultiPoly.var(AFFINE_VARS, v).scale(c)
                         for v, c in zip(AFFINE_VARS, coeffs)))


# ---------------------------------------------------------------------------
# tau on d_4 and the a_n shear family

def tau_map() -> PolyMap:
    """tau = (-x/2 + (i/2) y, (3i/2) x - y/2, z) over Q(i)."""
    T = cyclotomic(4)
    i = root_of_unity(T, 4)
    x, y, z = (MultiPoly.var(AFFINE_VARS, v) for v in AFFINE_VARS)
    half = Fraction(1, 2)
    return PolyMap((x.scale(-half * T.from_fraction(1)) + y.scale(i * half),
                    x.scale(i * Fraction(3, 2)) - y.scale(
                        half * T.from_fraction(1)),
                    z.map_coeffs(lambda c: T.from_fraction(c))))


def verify_tau(s) -> dict:
    """tau preserves d_4 = x^3 + x y^2 + z^2, the equation of s, with
    lambda = 1 and has order 3."""
    tau = tau_map()
    res = check_invariance(s.equation, tau)
    order = map_order(tau)
    ok = res["invariant"] and res["lambda"] == 1 and order == 3
    if not ok:
        raise VerificationError("tau verification failed",
                                detail=(res, order))
    return {"surface": "klein-dn:4", "map": "tau", "lambda": "1",
            "order": 3, "verified": True, "notes": COMPLETENESS_NOTE}


def tau_normalizes_diagonal(s, group: DiagonalGroupDescriptor,
                            seed: int = 0) -> bool:
    """For 5 random elements delta of group, the diagonal group of d_4, the
    equation of s, tau . delta . tau^2 still preserves d_4 (tau^3 = 1, so
    tau^2 is the inverse); closure at this level is all the computation
    certifies."""
    T = cyclotomic(4)
    f = s.equation
    tau = tau_map()
    tau_inv = tau.compose(tau)
    if not tau.compose(tau_inv).is_identity():
        raise VerificationError("tau^3 != identity")
    rng = random.Random(seed)
    for _ in range(5):
        delta = _diagonal_map(map(T.lift, group.random_element(rng, T)))
        conj = tau.compose(delta).compose(tau_inv)
        if not check_invariance(f, conj)["invariant"]:
            raise VerificationError("tau-conjugate fails invariance")
    return True


def verify_an_wild_family(s, P: MultiPoly) -> bool:
    """The shear (x, y, z) -> (x + yP(y), y, z + ((x+yP)^n - x^n)/y)
    preserves a_n = x^n - yz, the equation of s, with lambda = 1; the
    division by y is exact by construction and checked."""
    n = s.index
    if P.vars != AFFINE_VARS:
        P = P.rename(AFFINE_VARS)
    if P.degree("x") > 0 or P.degree("z") > 0:
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
    res = check_invariance(s.equation, phi)
    if not (res["invariant"] and res["lambda"] == 1):
        raise VerificationError("shear fails invariance", detail=res)
    return True


def autos_report(s, seed: int = 0, wild_polys=None) -> dict:
    """Full verification bundle for one affine Klein surface s."""
    base = s.name.replace("klein-", "")
    report = {"surface": s.name, "verified": True,
              "completeness": COMPLETENESS_NOTE}
    if base.startswith("an:"):
        x, y, z = (MultiPoly.var(AFFINE_VARS, v) for v in AFFINE_VARS)
        one = MultiPoly.const(AFFINE_VARS, Fraction(1))
        polys = wild_polys or [one, y, one + y + y ** 3]
        report["wild_family"] = [
            {"P": str(p), "verified": verify_an_wild_family(s, p)}
            for p in polys]
        return report
    desc = diagonal_group(s, seed=seed)
    report["diagonal"] = {
        "conditions": [list(d) for d in desc.conditions],
        "iso": desc.iso_label,
        "parametrization_exponents": list(desc.exponents),
        "torsion": [[k, list(v)] for k, v in desc.torsion],
    }
    if base == "dn:4":
        report["tau"] = verify_tau(s)
        report["tau_normalizes_diagonal"] = tau_normalizes_diagonal(
            s, desc, seed)
    return report
