"""Ambient spaces, the surface catalog, and membership / contraction checks.

Surfaces live in weighted projective spaces, in two-chart P^2-bundle
atlases over the affine line, or in plain affine 3-space (the t=0 Klein
surfaces).  Equations are stored as MultiPoly in the ambient variables
plus an explicit "t" variable for the fibred surfaces; coefficients live
in a constants tower (QQ, or QQ(i, sqrt3) for the S6 family).
"""

from dataclasses import dataclass
from fractions import Fraction

from .multipoly import MultiPoly
from .tower import FieldTower, FieldElement, qi_sqrt3, transplant


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# ambient spaces

@dataclass(frozen=True)
class AmbientSpace:
    kind: str                      # "weighted" | "atlas" | "affine"
    variables: tuple               # coordinate names (atlas: (w, y, z, x))
    weights: tuple                 # per-variable weights (atlas: fiber weights + 0)
    transition: tuple = None       # atlas only: (a, b) of F_{a,b}

    def __post_init__(self):
        if self.kind == "weighted" and len(self.weights) != 4:
            raise GeometryError("weighted projective ambient needs 4 weights")
        if self.kind == "atlas" and (self.transition is None
                                     or len(self.transition) != 2):
            raise GeometryError("atlas ambient needs a transition pair (a, b)")


def p3():
    return AmbientSpace("weighted", ("W", "X", "Y", "Z"), (1, 1, 1, 1))


def wp(weights):
    return AmbientSpace("weighted", ("W", "X", "Y", "Z"), tuple(weights))


def bundle_atlas(a, b):
    """P^2-bundle F_{a,b} over the line, as two charts ((w:y:z), x) glued by
    the involution ((w:y:z), x) -> ((w : x^-a y : x^-b z), 1/x)."""
    return AmbientSpace("atlas", ("w", "y", "z", "x"), (1, 1, 1, 0), (a, b))


def affine3():
    return AmbientSpace("affine", ("x", "y", "z"), (0, 0, 0))


# ---------------------------------------------------------------------------
# surfaces

@dataclass
class SurfaceSpec:
    name: str
    ambient: AmbientSpace
    const_tower: FieldTower        # tower of the equation coefficients (no t)
    equations: tuple               # one MultiPoly per chart
    has_t: bool = True
    quasi_weights: tuple = None    # affine Klein surfaces: grading weights

    @property
    def equation(self):
        return self.equations[0]


def _mp(variables, terms):
    """Build from a list of (exponent-tuple, coeff) pairs."""
    return MultiPoly(variables, {tuple(e): c for e, c in terms})


def _build_s6(T):
    # Z(WZ - 2iX^2) - tW^3 + Y^3  in P^3
    i = T.gen("i")
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


def surface_names(dn_range=range(4, 10), an_range=range(2, 7)):
    names = ["s6", "s6prime", "s7", "s8",
             "klein-e6", "klein-e7", "klein-e8"]
    names += ["an:%d" % n for n in an_range]
    names += ["dn:%d" % n for n in dn_range]
    names += ["klein-an:%d" % n for n in an_range]
    names += ["klein-dn:%d" % n for n in dn_range]
    return names


def build_surface(name):
    """One catalog surface by CLI name, checked by check_homogeneous."""
    if name in ("s6", "s6prime"):
        s = (_build_s6 if name == "s6" else _build_s6prime)(qi_sqrt3())
    elif name == "s7":
        s = _build_s7()
    elif name == "s8":
        s = _build_s8()
    elif name.startswith("an:"):
        n = int(name.split(":")[1])
        if n < 2:
            raise GeometryError("an:<n> needs n >= 2")
        s = _build_an(n)
    elif name.startswith("dn:"):
        n = int(name.split(":")[1])
        if n < 4:
            raise GeometryError("dn:<n> needs n >= 4")
        s = _build_dn(n)
    elif name in ("klein-e6", "klein-e7", "klein-e8"):
        s = _build_klein(name)
    elif name.partition(":")[0] in ("klein-an", "klein-dn"):
        s = _build_klein(name, int(name.partition(":")[2]))
    else:
        raise GeometryError("unknown surface %r" % name)
    check_homogeneous(s)
    return s


def build_catalog(mutation=None, dn_range=range(4, 10), an_range=range(2, 7)):
    """Build every catalog surface, keyed by CLI name.

    `mutation`, if given, is (surface_name, chart_index, term_index, delta):
    the coefficient of the term_index-th monomial (in sorted exponent order)
    of the chosen chart equation is shifted by the rational delta.  Used by
    the fault-injection harness; a correct build passes mutation=None.
    """
    catalog = {name: build_surface(name)
               for name in surface_names(dn_range, an_range)}
    if mutation is not None:
        sname, chart, term_idx, delta = mutation
        if sname not in catalog:
            raise GeometryError("cannot mutate unknown surface %r" % sname)
        s = catalog[sname]
        eq = s.equations[chart]
        keys = sorted(eq.terms)
        key = keys[term_idx % len(keys)]
        delta = Fraction(delta)
        if delta == 0:
            raise GeometryError("mutation delta must be nonzero")
        bump = (delta if isinstance(eq.terms[key], Fraction)
                else s.const_tower.from_fraction(delta))
        new_terms = dict(eq.terms)
        new_terms[key] = new_terms[key] + bump
        eqs = list(s.equations)
        eqs[chart] = MultiPoly(eq.vars, new_terms)
        s.equations = tuple(eqs)
        check_homogeneous(s)
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


@dataclass
class PointSpec:
    ambient: AmbientSpace
    coords: tuple                  # FieldElements (or Fractions) in one tower
    chart: int = 0

    def __post_init__(self):
        if all(_is_zero_coord(c) for c in self.coords):
            if self.ambient.kind != "affine":
                raise GeometryError("projective point with all-zero coordinates")


def _is_zero_coord(c):
    if isinstance(c, FieldElement):
        return c.is_zero()
    return Fraction(c) == 0


def _coord_tower(coords):
    for c in coords:
        if isinstance(c, FieldElement):
            return c.tower
    return None


def points_equal(p: PointSpec, q: PointSpec) -> bool:
    """Equality of weighted-projective points: exists lambda with
    q_i = lambda^{w_i} p_i.  Affine/atlas base coordinates compare directly.

    With g = gcd of the weights at the nonzero slots and Bezout coefficients
    c_i (sum c_i w_i = g), any valid lambda has lambda^g = prod r_i^{c_i},
    where r_i = q_i / p_i; so the criterion is r_i = (lambda^g)^{w_i/g}
    for every i, which is decidable inside the tower.
    """
    if p.ambient != q.ambient or p.chart != q.chart:
        return False
    if p.ambient.kind == "affine":
        return all((a - b).is_zero() if isinstance(a - b, FieldElement)
                   else a == b for a, b in zip(p.coords, q.coords))
    ws = list(p.ambient.weights)
    if p.ambient.kind == "atlas":
        # base coordinate x is not rescaled
        if not _same(p.coords[3], q.coords[3]):
            return False
        ws = ws[:3]
    pc, qc = p.coords[:len(ws)], q.coords[:len(ws)]
    nz = [i for i in range(len(ws))
          if not (_is_zero_coord(pc[i]) and _is_zero_coord(qc[i]))]
    for i in nz:
        if _is_zero_coord(pc[i]) != _is_zero_coord(qc[i]):
            return False
    if not nz:
        return True
    ratios = {i: _div(qc[i], pc[i]) for i in nz}
    g, coeffs = _bezout_many([ws[i] for i in nz])
    lam_g = None
    for i, c in zip(nz, coeffs):
        term = _pow_signed(ratios[i], c)
        lam_g = term if lam_g is None else lam_g * term
    for i in nz:
        if not _same(ratios[i], _pow_signed(lam_g, ws[i] // g)):
            return False
    return True


def _same(a, b):
    d = a - b
    return d.is_zero() if isinstance(d, FieldElement) else d == 0


def _div(a, b):
    if isinstance(a, FieldElement) or isinstance(b, FieldElement):
        return a / b
    return Fraction(a) / Fraction(b)


def _pow_signed(x, k):
    if k >= 0:
        return x ** k
    inv = x.invert() if isinstance(x, FieldElement) else 1 / Fraction(x)
    return inv ** (-k)


def _bezout_many(ws):
    """gcd of ws plus coefficients c with sum(c_i ws_i) = gcd."""
    g, coeffs = ws[0], [1] + [0] * (len(ws) - 1)
    for idx in range(1, len(ws)):
        g2, u, v = _xgcd(g, ws[idx])
        coeffs = [u * c for c in coeffs]
        coeffs[idx] = v
        g = g2
    return g, coeffs


def _xgcd(a, b):
    if b == 0:
        return a, 1, 0
    g, u, v = _xgcd(b, a % b)
    return g, v, u - (a // b) * v


def normalize_point(p: PointSpec) -> PointSpec:
    """Scale so the first nonzero coordinate of weight 1 becomes 1 (the only
    case where division gives a canonical representative inside the tower);
    otherwise returned unchanged.  Equality testing uses points_equal."""
    if p.ambient.kind == "affine":
        return p
    ws = p.ambient.weights
    pivot = None
    for i, c in enumerate(p.coords):
        if ws[i] == 1 and not _is_zero_coord(c):
            pivot = i
            break
    if pivot is None:
        return p
    lam = p.coords[pivot]
    inv = lam.invert() if isinstance(lam, FieldElement) else 1 / Fraction(lam)
    coords = tuple(c * _pow_signed(inv, ws[i])
                   for i, c in enumerate(p.coords))
    return PointSpec(p.ambient, coords, p.chart)


def on_surface(s: SurfaceSpec, p: PointSpec) -> bool:
    """Exact membership: the chart equation vanishes at p in p's tower."""
    tower = _coord_tower(p.coords)
    if tower is None:
        raise GeometryError("point must carry at least one tower element")
    eq = s.equations[p.chart]
    eq = eq.map_coeffs(lambda c: transplant(c, tower))
    env = dict(zip(s.ambient.variables, (transplant(c, tower) if
                                         isinstance(c, FieldElement) else
                                         tower.from_fraction(Fraction(c))
                                         for c in p.coords)))
    if s.has_t:
        env["t"] = tower.gen("t")
    val = eq.evaluate(env)
    return val.is_zero() if isinstance(val, FieldElement) else val == 0


# ---------------------------------------------------------------------------
# the S6' -> S6 contraction

def verify_contraction_S6(catalog=None) -> dict:
    """Replay the contraction of the quartic surface tW^4 = X^4 + Y^3 W + Z^2
    in P(1,1,1,2) onto the cubic Z(WZ - 2iX^2) = tW^3 - Y^3 in P^3.

    Both displayed chart formulas are substituted into the cubic and reduced
    modulo the quartic; the residues must vanish identically, and the curve
    W = 0, Z = iX^2 must land on (0:0:0:1)."""
    catalog = catalog or build_catalog()
    s6, s6p = catalog["s6"], catalog["s6prime"]
    T = s6.const_tower
    i = T.gen("i")
    vs = ("W", "X", "Y", "Z", "t")
    W, X, Y, Z = (MultiPoly.var(vs, v) for v in ("W", "X", "Y", "Z"))
    one = MultiPoly.const(vs, T.from_fraction(1))
    cubic = s6.equation
    quartic = s6p.equation

    result = {"charts": [], "blowdown_image": None}

    # chart 1: (W^2 : WX : WY : Z + iX^2)
    m1 = {"W": W * W, "X": W * X, "Y": W * Y, "Z": Z + (X * X).scale(i)}
    comp1 = cubic.substitute(m1)
    q1, r1 = comp1.div_univariate(quartic, "Z")
    expect = (W * W).scale(T.from_fraction(-1))
    result["charts"].append({
        "map": "(W^2 : WX : WY : Z + iX^2)",
        "residue_zero": r1.is_zero(),
        "residue": r1,
        "quotient_is_minus_W2": q1 == expect,
    })

    # chart 2: (W(Z - iX^2) : X(Z - iX^2) : Y(Z - iX^2) : tW^3 - Y^3)
    u = Z - (X * X).scale(i)
    tpoly = MultiPoly.var(vs, "t")
    m2 = {"W": W * u, "X": X * u, "Y": Y * u,
          "Z": tpoly * W ** 3 - Y ** 3}
    comp2 = cubic.substitute(m2)
    q2, r2 = comp2.div_univariate(quartic, "Z")
    result["charts"].append({
        "map": "(W(Z-iX^2) : X(Z-iX^2) : Y(Z-iX^2) : tW^3 - Y^3)",
        "residue_zero": r2.is_zero(),
        "residue": r2,
    })

    # the contracted curve W = 0, Z = iX^2 (X, Y stay free parameters)
    curve = {"W": MultiPoly.zero(vs), "Z": (X * X).scale(i)}
    image = [m1[v].substitute(curve) for v in ("W", "X", "Y", "Z")]
    result["blowdown_image"] = {
        "first_three_vanish": all(c.is_zero() for c in image[:3]),
        "last_nonzero": not image[3].is_zero(),
        "target": "(0:0:0:1)",
    }
    result["ok"] = (r1.is_zero() and r2.is_zero()
                    and result["charts"][0]["quotient_is_minus_W2"]
                    and result["blowdown_image"]["first_three_vanish"]
                    and result["blowdown_image"]["last_nonzero"])
    return result


# ---------------------------------------------------------------------------
# atlas transition checks

def _laurent_compose(f, g):
    """Compose Laurent-monomial maps var -> {var: exponent}."""
    out = {}
    for v, mono in f.items():
        acc = {}
        for u, e in mono.items():
            for w_, e2 in g[u].items():
                acc[w_] = acc.get(w_, 0) + e * e2
        out[v] = {k: e for k, e in acc.items() if e}
    return out


def _transition_map(a, b):
    return {"w": {"w": 1}, "y": {"y": 1, "x": -a},
            "z": {"z": 1, "x": -b}, "x": {"x": -1}}


def chart_transition_check(ambient: AmbientSpace, corrupt=False) -> bool:
    """True iff transition . transition = identity symbolically.  With
    corrupt=True, (a, b) is swapped in one direction only (negative
    control; detects a non-involutive gluing when a != b)."""
    if ambient.kind != "atlas":
        raise GeometryError("transition check needs an atlas ambient")
    a, b = ambient.transition
    fwd = _transition_map(a, b)
    back = _transition_map(b, a) if corrupt else _transition_map(a, b)
    comp = _laurent_compose(fwd, back)
    ident = {v: {v: 1} for v in ("w", "y", "z", "x")}
    return comp == ident


def charts_compatible(s: SurfaceSpec) -> bool:
    """The chart-0 equation transforms into the chart-oo equation under the
    transition map, after clearing the monomial unit x^k."""
    if s.ambient.kind != "atlas":
        raise GeometryError("chart compatibility needs an atlas surface")
    a, b = s.ambient.transition
    e0, e1 = s.equations
    idx = {v: e0.vars.index(v) for v in ("w", "y", "z", "x")}
    moved = {}
    minx = None
    for exps, c in e0.terms.items():
        ew, ey, ez, ex = (exps[idx[v]] for v in ("w", "y", "z", "x"))
        newx = -a * ey - b * ez - ex
        key = list(exps)
        key[idx["x"]] = newx
        moved[tuple(key)] = c
        minx = newx if minx is None else min(minx, newx)
    shifted = {}
    for exps, c in moved.items():
        key = list(exps)
        key[idx["x"]] -= minx
        shifted[tuple(key)] = c
    return MultiPoly(e0.vars, shifted) == e1
