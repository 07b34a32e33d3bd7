"""Galois orbits of radical curve families, the exact rows of intersection
numbers between conjugate curves, each read off a family's representative
and its rotations by one incidence rule, minimal-model bookkeeping and
rationality verdicts over the base extensions K = C(t^{1/m})."""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .tower import FieldTower, cyclotomic
from .base import GeometryError, VerificationError, _surface_cache
from .geometry import on_surface
from .curves import s6_common_lines, surface_families

# The verdicts assume two statements, named in the reports by this label: a
# surface is minimal iff no Galois orbit of pairwise-disjoint (-1)-curves is
# left, and a minimal geometrically rational surface with a point is rational
# iff K^2 >= 5 (Iskovskikh).  What they apply to is computed: the orbits, the
# rows, and for E the contraction of the Coxeter element's orbits.
AXIOM = "axiom-table"


class BaseExtension(namedtuple("BaseExtension", "m")):
    """K = C(t^{1/m}), modeled as the tower with s^m = t."""
    __slots__ = ()

    def __new__(cls, m):
        if m < 1:
            raise ValueError("m must be >= 1")
        return super().__new__(cls, m)


# immutable, as the cached minimal models hand one value to every caller;
# kind is "DelPezzo" (of degree K^2) or "ConicBundle" (with singular_fibres
# verified singular fibres)
MinimalModelDescriptor = namedtuple(
    "MinimalModelDescriptor", "kind degree singular_fibres "
    "extra_fibre_unknown justification", defaults=(None, None, False, None))
Verdict = namedtuple("Verdict", "case rational rule a over descriptor")


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


def _period(surface) -> int:
    """P, the lcm of the lengths of the rows of family_rows(surface), the
    degrees N of the binomials X^N = c t of its families: n on an:<n>,
    2(n-1) on dn:<n>, h on s6, s7 and s8.  N | P for each, so the verdict
    over C(t^{1/m}) is the one at gcd(m, P)."""
    return lcm(*(len(family[1])
                 for family in family_rows(surface)["rows"].values()))


def rationality_degree(case: str, surface) -> int:
    """a, the least divisor g of the period with a rational verdict on
    `surface`; the model at every divisor is built, and one refused fails a."""
    period = _period(surface)
    rational = [g for g in range(1, period + 1) if not period % g
                and _rule(minimal_model(case, g, surface), surface)[0]]
    if not rational:
        raise VerificationError("no rational verdict for %s" % case)
    return rational[0]


# ---------------------------------------------------------------------------
# orbit partition of a binomial family X^N = c t

def orbit_structure(N: int, m: int) -> dict:
    """Partition of the N roots of X^N = c t into Galois orbits over
    C(t^{1/m}).  With g = gcd(N, m) the binomial factors into g irreducible
    binomials of degree N/g; the factorization identity
        prod_{i<g} (X^b - rho zeta_g^i) = X^N - rho^g      (b = N/g)
    is _verify_binomial_identity(g) at Y = X^b, and the orbits are the
    residue classes of the root index modulo g."""
    if N < 1 or m < 1:
        raise ValueError("N, m must be >= 1")
    g = gcd(N, m)
    b = N // g
    _verify_binomial_identity(g)
    return {"N": N, "g": g, "block_size": b,
            "blocks": [list(range(i, N, g)) for i in range(g)],
            "identity": "prod_{i<%d}(X^%d - rho zeta^i) = X^%d - rho^%d"
                        % (g, b, N, g)}


@lru_cache(maxsize=None)
def _verify_binomial_identity(g: int) -> None:
    """prod_{i<g} (Y - rho zeta^i) = Y^g - rho^g over Q(zeta_g), certified by
    power sums: zeta^g = 1, and p_d = sum_{i<g} zeta^(i d) = 0 for every
    proper divisor d of g.  Once zeta^g = 1, p_k depends only on gcd(k, g),
    as a unit mod g/d only permutes the exponents; so p_k = 0 for 0 < k < g
    and p_g = g, and Newton's identities over Q give e_k(1, zeta, ...,
    zeta^(g-1)) = 0 for 0 < k < g and e_g = (-1)^(g-1), which is the
    identity in any Q-algebra: no domain hypothesis (Phi_g irreducible) is
    needed.  It does not depend on N, so each g is verified once.  The
    zeta^i are the int tuples the ring of Q(zeta_g) holds, reduced."""
    ring = cyclotomic(g)._ring
    powers = ring.powers
    if ring.mul(powers[-1], powers[1 % g]) != powers[0] or any(
            any(map(sum, zip(*(powers[i * d % g] for i in range(g)))))
            for d in range(1, g) if not g % d):
        raise VerificationError("binomial factorization identity failed "
                                "for g=%d" % g)


# ---------------------------------------------------------------------------
# curves as graphs over P^1_(W:X): one incidence rule

def _trim(p):
    """The coefficient list p without its zero top coefficients."""
    while p and not p[-1]:
        p = p[:-1]
    return p


def _gcd_degree(f, g):
    """deg gcd(f, g) over the fraction field of the coefficients' domain,
    for nonzero trimmed coefficient lists f, g (low first), by pseudo-
    division: f becomes lc(g) f - lc(f) x^(deg f - deg g) g until its degree
    drops below g's, so no coefficient is ever inverted."""
    while g:
        while len(f) >= len(g):
            shift, lf, lg = len(f) - len(g), f[-1], g[-1]
            f = _trim([a * lg - lf * g[k - shift] if k >= shift else a * lg
                       for k, a in enumerate(f[:-1])])
        f, g = g, f
    return len(f) - 1


def meet_number(graph1, graph2):
    """C1.C2 of two distinct curves, each a graph (Y, Z) over P^1_(W:X) with
    Y, Z given by their coefficients by rising power of X in one domain
    (the graph of a family of curves.surface_families): the degree of
    gcd(dY, dZ) as binary forms in (W, X), dY = Y1 - Y2, dZ = Z1 - Z2, the
    points over which the curves meet, counted.  An identically zero
    difference leaves the degree of the other; otherwise the forms are read
    at W = 1, where the root (0:1) drops out, and W^min(its multiplicities)
    is put back."""
    (y1, z1), (y2, z2) = graph1, graph2
    dy, dz = [a - b for a, b in zip(y1, y2)], [a - b for a, b in zip(z1, z2)]
    fy, fz = _trim(dy), _trim(dz)
    if not fy or not fz:
        if not (fy or fz):
            raise GeometryError("a curve is paired with itself")
        return len(dz if fz else dy) - 1
    return _gcd_degree(fy, fz) + min(len(dy) - len(fy), len(dz) - len(fz))


# ---------------------------------------------------------------------------
# the rows of the conjugate curves of every radical family

def _row(graph, h):
    """[-1] + [C.C_k for k = 1..h-1] of the curve C with the graph (Y, Z)
    over Q(zeta_M)[s, 1/s], h | M, C_k the curve over xi^k s, xi = zeta_h,
    whose graph is sigma_(k M/h) of C's: meet_number for k <= h/2, and
    C.C_(h-k) = C.C_k, as sigma_-k carries the pair (C, C_k) to (C_(h-k),
    C)."""
    y, z = graph
    step = y[0].tower.M // h
    half = [meet_number((y, z), ([c.rotate(k * step) for c in y],
                                 [c.rotate(k * step) for c in z]))
            for k in range(1, h // 2 + 1)]
    return [-1] + [half[min(k, h - k) - 1] for k in range(1, h)]


@_surface_cache
def _root_rows(s, branch) -> dict:
    """{j: row} for the radical family `branch` of s: the exact row k ->
    C.C_k of the orbit over each root sigma_j(x) (curves.residual_roots),
    _row of the representative graph for j = 1.  sigma_j carries the pair
    (C, C_k) over x to (sigma_j C, (sigma_j C)_(j k)) over sigma_j(x), so
    the row of sigma_j(x) takes j k to the representative's value at k."""
    family = surface_families(s)[branch]
    roots = family.data["roots"]
    h = family.count // len(roots)
    row = _row(family.data["graph"], h)
    return {j: [row[k * pow(j, -1, h) % h] for k in range(h)] for j in roots}


@_surface_cache
def family_rows(s) -> dict:
    """The exact rows of every Galois orbit of curves on s, {branch: {j:
    row}}, _root_rows of each family of curves.surface_families(s): L1-L3
    and L_mu on s6, the e = 0 pair and the main family on s7, P1 and P2 on
    s8, the fibre components y0 and z0 of an:<n>, x0 and mu of dn:<n>."""
    return {"surface": s.name, "rows": {
        branch: _root_rows(s, branch) for branch in surface_families(s)}}


def s6_intersections(s6) -> dict:
    """family_rows of the cubic s6 with its full_rows {branch: {j: row}}:
    by meet_number, the row of the first member of each Galois orbit of
    curves.s6_common_lines against all 27 lines, refused unless it has -1
    at the line itself, ten 1s and sixteen 0s (each line of a cubic meets
    ten others) and its entries within the orbit are the orbit's row."""
    report, full, first = family_rows(s6), {}, 0
    families = s6_common_lines(s6)
    lines = [line for _, _, members in families for line in members]
    for branch, j, members in families:
        row = [-1 if i == first else meet_number(lines[first], line)
               for i, line in enumerate(lines)]
        if sorted(row) != [-1] + [0] * 16 + [1] * 10 or \
                row[first:first + len(members)] != report["rows"][branch][j]:
            raise VerificationError("S6: the full row of %s over %d is not "
                                    "its orbit's row with ten meets"
                                    % (branch, j), detail=row)
        full.setdefault(branch, {})[j] = row
        first += len(members)
    return dict(report, full_rows=full)


def _meets(row):
    """The k with C.C_k > 0 in the row of C: the conjugates C meets."""
    return [k for k, c in enumerate(row) if c > 0]


def fibre_rows(s, branch, meets) -> dict:
    """family_rows of the conic bundle s, refused unless each curve of its
    fibre family `branch` meets exactly `meets` of its conjugates: no y=0
    component of A_n meets another, so that their orbit contracts, and each
    curve mu of D_n meets one, -mu."""
    report = family_rows(s)
    for row in report["rows"][branch].values():
        met = len(_meets(row))
        if met != meets:
            raise VerificationError(
                "%s: a curve of %s meets %d of its conjugates, not %d"
                % (s.name.upper(), branch, met, meets), detail=row)
    return report


def dn_intersections(s) -> dict:
    """fibre_rows of the D_n conic bundle s: each mu meets one conjugate."""
    return fibre_rows(s, "mu", 1)


def _conjugation(surface, row, order):
    """Report on the pairs (C, C_k) of the representative orbit with xi^k
    of order `order`: their intersection numbers, all positive (else
    refused).  Every orbit of the family has the same ones, as sigma_j
    keeps the order of xi^k."""
    h = len(row)
    meets = {k: row[k] for k in range(1, h) if h // gcd(h, k) == order}
    if not all(meets.values()):
        raise VerificationError("%s: conjugates over xi of order %d do not "
                                "meet" % (surface.upper(), order),
                                detail=meets)
    return {"surface": surface, "xi_order": order, "meets": meets,
            "verified": True}


@_surface_cache
def s7_conjugation(s7, order: int) -> dict:
    """Report on (C_e, C_(xi e)) on the S7 main family, xi^order = 1 with
    order in {2, 3}; see _conjugation."""
    if order not in (2, 3):
        raise ValueError("S7 conjugations have order 2 or 3")
    return _conjugation("s7", _root_rows(s7, "main")[1], order)


@_surface_cache
def s8_conjugation(s8, order: int, branch: str = "P1") -> dict:
    """Report on (C_mu, C_(xi mu)) on the S8 family of a branch, xi^order
    = 1 with order in {2, 3, 5}; see _conjugation."""
    if order not in (2, 3, 5):
        raise ValueError("S8 conjugations have order 2, 3 or 5")
    return dict(_conjugation("s8", _root_rows(s8, branch)[1], order),
                branch=branch)


# ---------------------------------------------------------------------------
# E: the Galois orbits matched to the cycles of the Coxeter element c

@_surface_cache
def _coxeter_match(kind, s):
    """Match each Galois orbit of the E surface s, xi acting as c, to the
    one free c-cycle whose meeting numbers v.c^k v are its exact row; refuse
    an orbit that fits no free cycle or several, and a cycle left over.
    Returns the rows of family_rows(s)."""
    from .lattice import coxeter_cycles
    rows = family_rows(s)["rows"]
    cycles = coxeter_cycles(int(kind[1]))[0]
    free = list(range(len(cycles)))
    for name, family in rows.items():
        for row in family.values():
            fits = [n for n in free if list(cycles[n][1]) == row]
            if len(fits) != 1:
                raise VerificationError(
                    "%s: %s free c-cycle fits the row of %s"
                    % (kind, "no" if not fits else "more than one", name),
                    detail={"row": row, "cycles": [
                        list(cycles[n][1]) for n in free
                        if len(cycles[n][0]) == len(row)]})
            free.remove(fits[0])
    if free:
        raise VerificationError("%s: c-cycles %s match no xi-family"
                                % (kind, free))
    return rows


# ---------------------------------------------------------------------------
# minimal models and verdicts

@_surface_cache
def minimal_model(case: str, g: int, surface) -> MinimalModelDescriptor:
    """The minimal model over C(t^{1/m}) for every m with gcd(m, P) = g, g a
    divisor of the period P, from the orbits and the rows on `surface`, the
    catalog surface named by case_surface(case)."""
    kind, n = parse_case(case)
    if g < 1 or _period(surface) % g:
        raise ValueError("g=%d does not divide the period of %s" % (g, case))
    if kind[0] == "e":
        # xi acts as c^g; at K^2 <= 4 each kept orbit needs a meeting pair
        # (minimal), certified, as _coxeter_match matched the rows of the
        # cycles to the families' exact rows
        from .lattice import coxeter_contraction
        rows = _coxeter_match(kind, surface)
        k2, rho, contracted, kept = coxeter_contraction(int(kind[1]), g)
        for (c, _), ks in kept.items() if k2 <= 4 else ():
            if not ks:
                raise VerificationError(
                    "%s: a kept <c^%d>-orbit has no meeting pair" % (case, g),
                    detail={"cycle": c})
        rho -= contracted
        if rho not in (1, 2):
            raise VerificationError("%s: end point of rank %d" % (case, rho))
        step = "xi acts as c^%d; orbits contracted: %d, K^2 = %d, rho = %d" \
            % (g, contracted, k2, rho)
        desc = MinimalModelDescriptor(
            ("DelPezzo", "ConicBundle")[rho - 1],
            degree=k2 if rho == 1 else None,
            singular_fibres=8 - k2 if rho == 2 else None)
    elif kind == "dn":
        rows = dn_intersections(surface)["rows"]
        # mu meets mu_k = -mu alone; the <xi^g>-orbit of mu keeps that
        # meeting pair iff g | k
        (k,) = _meets(rows["mu"][1])
        if k % g:
            fibres, step = 0, (
                "every mu-orbit separates mu from -mu and its members lie "
                "over distinct fibres (pairwise disjoint): all n-1 split "
                "fibres contract; m is even, so the x=0 fibre splits too")
        else:
            fibres = (n - 1) + g % 2    # g has the parity of m, as P is even
            if fibres < 4:
                raise VerificationError("singular fibre bound %d < 4" % fibres)
            step = ("mu and -mu stay conjugate and their components meet: "
                    "%d singular fibres survive (>= 4), plus at most one "
                    "unverified fibre at infinity which cannot change the "
                    "verdict" % fibres)
        desc = MinimalModelDescriptor("ConicBundle", singular_fibres=fibres,
                                      extra_fibre_unknown=True)
    else:   # a_n
        rows = fibre_rows(surface, "y0", 0)["rows"]
        step = ("the y=0 components form a Galois-stable pairwise disjoint "
                "family (distinct fibres): contracting them leaves at most "
                "the unverified fibre at infinity")
        desc = MinimalModelDescriptor("ConicBundle", singular_fibres=0,
                                      extra_fibre_unknown=True)
    # each family's partition; for E with the number of c-cycles it covers
    parts = {branch: orbit_structure(len(family[1]), g)
             for branch, family in rows.items()}
    if kind[0] == "e":
        for branch, family in rows.items():
            parts[branch]["cycles"] = len(family)
    return desc._replace(justification={
        "orbits": parts, "intersections": rows, "axiom": AXIOM,
        "step": "%s (%s)" % (step, AXIOM)})


@_surface_cache
def _rational_point(s) -> bool:
    """Exact rational point on the conic bundle s, for the d <= 1 rule."""
    T = FieldTower.rationals().extend_ratfunc("t")
    zero, one = T.from_fraction(Fraction(0)), T.from_fraction(Fraction(1))
    return on_surface(s, (zero, one, zero, zero))


def _rule(desc, surface):
    """(rational, rule) of a minimal model: rational iff K^2 >= 5, a conic
    bundle having K^2 = 8 - its singular fibres, one more if one may hide at
    infinity; over the C_1 field C(t^{1/m}) a del Pezzo has a point (Tsen)."""
    if desc.kind == "DelPezzo":
        if desc.degree >= 5:
            return True, "del-pezzo-degree-ge-5-rational"
        return False, "minimal-del-pezzo-degree-le-4-not-rational"
    if desc.singular_fibres >= 4:
        return False, "conic-bundle-ge-4-fibres-not-rational"
    if desc.singular_fibres + 1 <= 1:
        if not _rational_point(surface):
            raise VerificationError("missing rational point for the "
                                    "d <= 1 rule")
        return True, "conic-bundle-le-1-fibre-with-point-rational"
    raise VerificationError("conic bundle with %d fibres: no rule"
                            % desc.singular_fibres)


def rationality_verdict(case: str, ext: BaseExtension, surface) -> Verdict:
    """The verdict over ext, the one at gcd(m, P) (minimal_model)."""
    desc = minimal_model(case, gcd(ext.m, _period(surface)), surface)
    return Verdict(case, *_rule(desc, surface),
                   rationality_degree(case, surface), ext, desc)


GRID_CASES = ("an:2", "dn:5", "e6", "e7", "e8")
GRID_DEGREES = range(1, 31)          # the degrees m of the extensions


def verdict_grid(catalog):
    """The verdict of every case and m over the catalog's surfaces, the
    model's at gcd(m, P), with the least rational m, a, of its case."""
    cells = []
    for case in GRID_CASES:
        surface = catalog[case_surface(case)]
        period, a = _period(surface), rationality_degree(case, surface)
        for m in GRID_DEGREES:
            rational, rule = _rule(minimal_model(case, gcd(m, period),
                                                 surface), surface)
            cells.append({"case": case, "m": m, "rational": rational,
                          "rule": rule, "a": a})
    return cells
