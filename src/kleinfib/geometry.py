"""Ambient spaces, the surface catalog, and membership / contraction checks.

Surfaces live in weighted projective spaces, in two-chart P^2-bundle
atlases over the affine line, or in plain affine 3-space (the t=0 Klein
surfaces).  Equations are stored as MultiPoly in the ambient variables
plus an explicit "t" variable for the fibred surfaces; coefficients live
in a constants tower (QQ, or QQ(zeta_12) for the S6 family).
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .base import GeometryError, VerificationError
from .multipoly import MultiPoly
from .tower import FieldTower, FieldElement, cyclotomic, root_of_unity


# ---------------------------------------------------------------------------
# ambient spaces

class AmbientSpace(namedtuple("AmbientSpace",
                              "kind variables weights transition")):
    """kind is "weighted", "atlas" or "affine"; variables the coordinate
    names (atlas: (w, y, z, x)); weights one per variable (atlas: the fiber
    weights and 0); transition the (a, b) of F_{a,b}, atlas only."""
    __slots__ = ()

    def __new__(cls, kind, variables, weights, transition=None):
        if kind == "weighted" and len(weights) != 4:
            raise GeometryError("weighted projective ambient needs 4 weights")
        if kind == "atlas" and (transition is None or len(transition) != 2):
            raise GeometryError("atlas ambient needs a transition pair (a, b)")
        return super().__new__(cls, kind, variables, weights, transition)


def p3():
    return AmbientSpace("weighted", ("W", "X", "Y", "Z"), (1, 1, 1, 1))


def wp(weights):
    return AmbientSpace("weighted", ("W", "X", "Y", "Z"), tuple(weights))


def bundle_atlas(a, b):
    """P^2-bundle F_{a,b} over the line, as two charts ((w:y:z), x), glued
    as charts_compatible states."""
    return AmbientSpace("atlas", ("w", "y", "z", "x"), (1, 1, 1, 0), (a, b))


def affine3():
    return AmbientSpace("affine", ("x", "y", "z"), (0, 0, 0))


# ---------------------------------------------------------------------------
# surfaces

class SurfaceSpec(namedtuple("SurfaceSpec", "name ambient const_tower "
                             "equations has_t quasi_weights",
                             defaults=(True, None))):
    """One catalog surface, a hashable value: two builds of the same surface
    are equal, and a mutated surface (``_replace``) differs from the one it
    came from.  const_tower is the tower of the equation coefficients (no
    t), equations holds one MultiPoly per chart, and quasi_weights the
    grading weights of an affine Klein surface."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # every pipeline cache hashes its surface on each lookup; hashing
        # the equations walks all their terms, so it is done once, here
        self._hash = tuple.__hash__(self)
        return self

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make, which would otherwise skip __new__
        return cls(*fields)

    def __hash__(self):
        return self._hash

    @property
    def equation(self):
        return self.equations[0]

    @property
    def index(self):
        """n of an:<n>, dn:<n>, klein-an:<n> and klein-dn:<n>."""
        return int(self.name.partition(":")[2])


def _mp(variables, terms):
    """Build from a list of (exponent-tuple, coeff) pairs."""
    return MultiPoly(variables, {tuple(e): c for e, c in terms})


def _build_s6(T):
    # Z(WZ - 2iX^2) - tW^3 + Y^3  in P^3
    i = root_of_unity(T, 4)
    vs = ("W", "X", "Y", "Z", "t")
    eq = _mp(vs, [((1, 0, 0, 2, 0), T.from_fraction(1)),
                  ((0, 2, 0, 1, 0), -2 * i),
                  ((0, 0, 3, 0, 0), T.from_fraction(1)),
                  ((3, 0, 0, 0, 1), T.from_fraction(-1))])
    return SurfaceSpec("s6", p3(), T, (eq,))


def _build_s6prime(T):
    # tW^4 - X^4 - Y^3 W - Z^2  in P(1,1,1,2)
    vs = ("W", "X", "Y", "Z", "t")
    eq = _mp(vs, [((4, 0, 0, 0, 1), T.from_fraction(1)),
                  ((0, 4, 0, 0, 0), T.from_fraction(-1)),
                  ((1, 0, 3, 0, 0), T.from_fraction(-1)),
                  ((0, 0, 0, 2, 0), T.from_fraction(-1))])
    return SurfaceSpec("s6prime", wp((1, 1, 1, 2)), T, (eq,))


def _build_s7():
    # tW^4 - X^3 Y - Y^3 W - Z^2  in P(1,1,1,2)
    vs = ("W", "X", "Y", "Z", "t")
    eq = _mp(vs, [((4, 0, 0, 0, 1), Fraction(1)),
                  ((0, 3, 1, 0, 0), Fraction(-1)),
                  ((1, 0, 3, 0, 0), Fraction(-1)),
                  ((0, 0, 0, 2, 0), Fraction(-1))])
    return SurfaceSpec("s7", wp((1, 1, 1, 2)), FieldTower.rationals(), (eq,))


def _build_s8():
    # tW^6 - X^5 W - Y^3 - Z^2  in P(1,1,2,3)
    vs = ("W", "X", "Y", "Z", "t")
    eq = _mp(vs, [((6, 0, 0, 0, 1), Fraction(1)),
                  ((1, 5, 0, 0, 0), Fraction(-1)),
                  ((0, 0, 3, 0, 0), Fraction(-1)),
                  ((0, 0, 0, 2, 0), Fraction(-1))])
    return SurfaceSpec("s8", wp((1, 1, 2, 3)), FieldTower.rationals(), (eq,))


def _build_an(n):
    # chart 0:  x^n w^2 - yz - t w^2
    # chart oo: w^2 - yz - t x^n w^2        (x replaced by 1/x, cleared)
    vs = ("w", "y", "z", "x", "t")
    e0 = _mp(vs, [((2, 0, 0, n, 0), Fraction(1)),
                  ((0, 1, 1, 0, 0), Fraction(-1)),
                  ((2, 0, 0, 0, 1), Fraction(-1))])
    e1 = _mp(vs, [((2, 0, 0, 0, 0), Fraction(1)),
                  ((0, 1, 1, 0, 0), Fraction(-1)),
                  ((2, 0, 0, n, 1), Fraction(-1))])
    amb = bundle_atlas(n // 2, n - n // 2)
    return SurfaceSpec("an:%d" % n, amb, FieldTower.rationals(), (e0, e1))


def _build_dn(n):
    # chart 0:  x^{n-1} w^2 + x y^2 + z^2 - t w^2
    # chart oo (n=2k):   w^2 + y^2 + x z^2 - t x^{n-1} w^2   on F_{k-1,k-1}
    # chart oo (n=2k+1): w^2 + x y^2 + z^2 - t x^{n-1} w^2   on F_{k-1,k}
    vs = ("w", "y", "z", "x", "t")
    e0 = _mp(vs, [((2, 0, 0, n - 1, 0), Fraction(1)),
                  ((0, 2, 0, 1, 0), Fraction(1)),
                  ((0, 0, 2, 0, 0), Fraction(1)),
                  ((2, 0, 0, 0, 1), Fraction(-1))])
    k = n // 2
    if n % 2 == 0:
        amb = bundle_atlas(k - 1, k - 1)
        e1 = _mp(vs, [((2, 0, 0, 0, 0), Fraction(1)),
                      ((0, 2, 0, 0, 0), Fraction(1)),
                      ((0, 0, 2, 1, 0), Fraction(1)),
                      ((2, 0, 0, n - 1, 1), Fraction(-1))])
    else:
        amb = bundle_atlas(k - 1, k)
        e1 = _mp(vs, [((2, 0, 0, 0, 0), Fraction(1)),
                      ((0, 2, 0, 1, 0), Fraction(1)),
                      ((0, 0, 2, 0, 0), Fraction(1)),
                      ((2, 0, 0, n - 1, 1), Fraction(-1))])
    return SurfaceSpec("dn:%d" % n, amb, FieldTower.rationals(), (e0, e1))


def _build_klein(label, n=None):
    vs = ("x", "y", "z")
    Q = FieldTower.rationals()
    if label == "klein-e6":
        eq = _mp(vs, [((4, 0, 0), Fraction(1)), ((0, 3, 0), Fraction(1)),
                      ((0, 0, 2), Fraction(1))])
        qw = (3, 4, 6)
    elif label == "klein-e7":
        eq = _mp(vs, [((3, 1, 0), Fraction(1)), ((0, 3, 0), Fraction(1)),
                      ((0, 0, 2), Fraction(1))])
        qw = (4, 6, 9)
    elif label == "klein-e8":
        eq = _mp(vs, [((5, 0, 0), Fraction(1)), ((0, 3, 0), Fraction(1)),
                      ((0, 0, 2), Fraction(1))])
        qw = (6, 10, 15)
    elif label.startswith("klein-dn"):
        eq = _mp(vs, [((n - 1, 0, 0), Fraction(1)), ((1, 2, 0), Fraction(1)),
                      ((0, 0, 2), Fraction(1))])
        qw = (2, n - 2, n - 1)
    elif label.startswith("klein-an"):
        eq = _mp(vs, [((n, 0, 0), Fraction(1)), ((0, 1, 1), Fraction(-1))])
        qw = (1, 1, n - 1)
    else:
        raise GeometryError("unknown Klein surface %r" % label)
    return SurfaceSpec(label, affine3(), Q, (eq,), has_t=False,
                       quasi_weights=qw)


# the A_n and D_n members of the catalog
AN_RANGE = range(2, 7)
DN_RANGE = range(4, 10)


def surface_names():
    names = ["s6", "s6prime", "s7", "s8",
             "klein-e6", "klein-e7", "klein-e8"]
    names += ["an:%d" % n for n in AN_RANGE]
    names += ["dn:%d" % n for n in DN_RANGE]
    names += ["klein-an:%d" % n for n in AN_RANGE]
    names += ["klein-dn:%d" % n for n in DN_RANGE]
    return names


def _index(name, low):
    """n of <family>:<n>; the A_n families start at n = 2, D_n at n = 4."""
    family, _, n = name.partition(":")
    if int(n) < low:
        raise GeometryError("%s:<n> needs n >= %d" % (family, low))
    return int(n)


def build_surface(name):
    """One catalog surface by CLI name, checked by check_homogeneous."""
    if name in ("s6", "s6prime"):
        s = (_build_s6 if name == "s6" else _build_s6prime)(cyclotomic(12))
    elif name == "s7":
        s = _build_s7()
    elif name == "s8":
        s = _build_s8()
    elif name.startswith("an:"):
        s = _build_an(_index(name, 2))
    elif name.startswith("dn:"):
        s = _build_dn(_index(name, 4))
    elif name in ("klein-e6", "klein-e7", "klein-e8"):
        s = _build_klein(name)
    elif name.startswith("klein-an:"):
        s = _build_klein(name, _index(name, 2))
    elif name.startswith("klein-dn:"):
        s = _build_klein(name, _index(name, 4))
    else:
        raise GeometryError("unknown surface %r" % name)
    check_homogeneous(s)
    return s


@lru_cache(maxsize=None)
def _clean_catalog():
    return {name: build_surface(name) for name in surface_names()}


def build_catalog(mutation=None):
    """Every catalog surface, keyed by CLI name.

    `mutation`, if given, is (surface_name, chart_index, term_index, delta):
    the coefficient of the term_index-th monomial (in sorted exponent order,
    taken modulo the number of terms) of the chosen chart equation is
    shifted by the nonzero rational delta.  Used by the fault-injection
    harness; a correct build passes mutation=None.

    The clean surfaces are built once per process and shared: every catalog
    holds the same objects for them, so a cache keyed on an unmutated
    surface hits on identity.  Only a mutated surface is new.
    """
    catalog = dict(_clean_catalog())
    if mutation is not None:
        sname, chart, term_idx, delta = mutation
        if sname not in catalog:
            raise GeometryError("cannot mutate unknown surface %r" % sname)
        s = catalog[sname]
        if not 0 <= chart < len(s.equations):
            raise GeometryError("%s has charts 0..%d, not %d"
                                % (sname, len(s.equations) - 1, chart))
        delta = Fraction(delta)
        if delta == 0:
            raise GeometryError("mutation delta must be nonzero")
        eq = s.equations[chart]
        keys = sorted(eq.terms)
        key = keys[term_idx % len(keys)]
        bump = (delta if isinstance(eq.terms[key], Fraction)
                else s.const_tower.from_fraction(delta))
        new_terms = dict(eq.terms)
        new_terms[key] = new_terms[key] + bump
        eqs = list(s.equations)
        eqs[chart] = MultiPoly(eq.vars, new_terms)
        catalog[sname] = s._replace(equations=tuple(eqs))
        check_homogeneous(catalog[sname])
    return catalog


# ---------------------------------------------------------------------------
# homogeneity / membership

def check_homogeneous(s: SurfaceSpec) -> int:
    """Common (weighted) degree of the surface equation(s).

    Weighted-projective surfaces use the ambient weights with t of weight 0;
    atlas charts are graded in the fiber variables only (every chart is a
    conic bundle, degree 2); affine Klein surfaces use their quasi-weights.
    """
    degrees = set()
    for eq in s.equations:
        if eq.is_zero():
            raise GeometryError("%s: zero equation" % s.name)
        if s.ambient.kind == "affine":
            wmap = dict(zip(s.ambient.variables, s.quasi_weights))
        else:
            wmap = dict(zip(s.ambient.variables, s.ambient.weights))
        wmap.setdefault("t", 0)
        weights = tuple(wmap[v] for v in eq.vars)
        offenders = {}
        for exps in eq.terms:
            d = sum(w * e for w, e in zip(weights, exps))
            offenders.setdefault(d, []).append(exps)
        degrees.update(offenders)
        if len(offenders) > 1:
            raise GeometryError("%s: mixed weighted degrees %s"
                                % (s.name, sorted(offenders)))
    if len(degrees) > 1:
        raise GeometryError("%s: charts disagree on degree %s"
                            % (s.name, sorted(degrees)))
    return degrees.pop()


def on_surface(s: SurfaceSpec, coords, t=None) -> bool:
    """Exact membership: the chart-0 equation of s vanishes at the point
    coords of its ambient, FieldElements (or Fractions) in one tower, with t
    the given element of that tower (default: its generator named t)."""
    if s.ambient.kind != "affine" and all(
            c.is_zero() if isinstance(c, FieldElement) else Fraction(c) == 0
            for c in coords):
        raise GeometryError("projective point with all-zero coordinates")
    tower = next((c.tower for c in coords if isinstance(c, FieldElement)),
                 None)
    if tower is None:
        raise GeometryError("point must carry at least one tower element")
    eq = s.equation.map_coeffs(tower.lift)
    env = dict(zip(s.ambient.variables, map(tower.lift, coords)))
    if s.has_t:
        env["t"] = tower.gen("t") if t is None else tower.lift(t)
    val = eq.evaluate(env)
    return val.is_zero() if isinstance(val, FieldElement) else val == 0


# ---------------------------------------------------------------------------
# the S6' -> S6 contraction

def verify_contraction_S6(s6: SurfaceSpec, s6p: SurfaceSpec) -> dict:
    """Replay the contraction of the quartic surface s6p,
    tW^4 = X^4 + Y^3 W + Z^2 in P(1,1,1,2), onto the cubic s6,
    Z(WZ - 2iX^2) = tW^3 - Y^3 in P^3.

    Both displayed chart formulas are substituted into the cubic and reduced
    modulo the quartic; the residues must vanish identically, and the curve
    W = 0, Z = iX^2 must land on (0:0:0:1).  A step that fails raises
    VerificationError naming it, with the residue, quotient or image as
    detail.  The reduction needs the quartic to have Z-degree 2 with a
    single-term leading coefficient; a quartic without that shape is not
    the model and fails with VerificationError."""
    quartic = s6p.equation
    dz = quartic.degree("Z")
    lead = quartic.coeff_of("Z", dz)
    if dz != 2 or len(lead.terms) != 1:
        raise VerificationError(
            "the quartic model must have Z-degree 2 with a single-term "
            "leading coefficient; found Z-degree %d, leading coefficient %r"
            % (dz, lead), detail=quartic)
    T = s6.const_tower
    i = root_of_unity(T, 4)
    vs = ("W", "X", "Y", "Z", "t")
    W, X, Y, Z = (MultiPoly.var(vs, v) for v in ("W", "X", "Y", "Z"))
    cubic = s6.equation

    def require(ok, step, detail):
        if not ok:
            raise VerificationError("contraction of s6prime onto s6 fails: "
                                    + step, detail=detail)

    # chart 1: (W^2 : WX : WY : Z + iX^2)
    map1 = "(W^2 : WX : WY : Z + iX^2)"
    m1 = {"W": W * W, "X": W * X, "Y": W * Y, "Z": Z + (X * X).scale(i)}
    q1, r1 = cubic.substitute(m1).div_univariate(quartic, "Z")
    require(r1.is_zero(), "chart 1 %s residue is not 0" % map1, r1)
    require(q1 == (W * W).scale(T.from_fraction(-1)),
            "chart 1 %s quotient is not -W^2" % map1, q1)

    # chart 2: (W(Z - iX^2) : X(Z - iX^2) : Y(Z - iX^2) : tW^3 - Y^3)
    map2 = "(W(Z-iX^2) : X(Z-iX^2) : Y(Z-iX^2) : tW^3 - Y^3)"
    u = Z - (X * X).scale(i)
    m2 = {"W": W * u, "X": X * u, "Y": Y * u,
          "Z": MultiPoly.var(vs, "t") * W ** 3 - Y ** 3}
    r2 = cubic.substitute(m2).reduce_mod(quartic, "Z")
    require(r2.is_zero(), "chart 2 %s residue is not 0" % map2, r2)

    # the contracted curve W = 0, Z = iX^2 (X, Y stay free parameters)
    curve = {"W": MultiPoly.zero(vs), "Z": (X * X).scale(i)}
    image = [m1[v].substitute(curve) for v in ("W", "X", "Y", "Z")]
    require(all(c.is_zero() for c in image[:3]) and not image[3].is_zero(),
            "the blow-down image of W = 0, Z = iX^2 is not (0:0:0:1)", image)
    return {"charts": [{"map": map1, "residue": r1},
                       {"map": map2, "residue": r2}],
            "blowdown_image": {"target": "(0:0:0:1)"}, "ok": True}


# ---------------------------------------------------------------------------
# the conic-bundle atlas

def _twist(s: SurfaceSpec) -> int:
    """d of the class 2H + dF of the atlas surface s: the largest
    a e_y + b e_z + e_x over its chart-0 terms, (a, b) its transition."""
    if s.ambient.kind != "atlas":
        raise GeometryError("%s is not an atlas surface" % s.name)
    a, b = s.ambient.transition
    e0 = s.equation
    iy, iz, ix = (e0.vars.index(v) for v in ("y", "z", "x"))
    return max(a * e[iy] + b * e[iz] + e[ix] for e in e0.terms)


def charts_compatible(s: SurfaceSpec) -> bool:
    """The gluing of F_{a,b}, ((w:y:z), x) -> ((w : x^-a y : x^-b z), 1/x),
    carries the chart-0 equation of s to its chart-oo equation once the unit
    x^d is cleared, d = _twist(s): w^i y^j z^k x^l goes to
    w^i y^j z^k x^(d - a j - b k - l).  A mismatch raises VerificationError
    with the difference of the two chart-oo equations as detail."""
    d = _twist(s)
    a, b = s.ambient.transition
    e0, e1 = s.equations
    iy, iz, ix = (e0.vars.index(v) for v in ("y", "z", "x"))
    moved = {}
    for e, c in e0.terms.items():
        key = list(e)
        key[ix] = d - a * e[iy] - b * e[iz] - e[ix]
        moved[tuple(key)] = c
    diff = MultiPoly(e0.vars, moved) - e1
    if not diff.is_zero():
        raise VerificationError("%s: chart 0 does not glue to chart oo"
                                % s.name, detail=diff)
    return True


def boundary_selfintersection(s: SurfaceSpec) -> int:
    """C^2 of the boundary curve C, the curve w = 0 on the conic bundle s,
    in the Chow ring of F_{a,b}: w, y and z are sections of O(H), O(H + aF)
    and O(H + bF) with no common zero, so F^2 = 0, H^2 F = 1 and
    H^3 = -(a + b); s has class 2H + dF, d = _twist(s), and
        C^2 = H^2 (2H + dF) = d - 2(a + b).
    Both hypotheses are checked: w does not divide the chart-0 equation (C
    is a curve), and s is a conic in (w, y, z)."""
    d = _twist(s)
    iw = s.equation.vars.index("w")
    if all(e[iw] for e in s.equation.terms):
        raise VerificationError("%s: w divides the equation" % s.name,
                                detail=s.equation)
    if check_homogeneous(s) != 2:
        raise VerificationError("%s is not a conic in (w, y, z)" % s.name)
    return d - 2 * sum(s.ambient.transition)
