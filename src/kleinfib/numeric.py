"""Independent floating-point oracle: specializes t, evaluates the exact
curves at the float roots of their binomials, and cross-checks their
membership residues in an arithmetic of its own, and its curve counts
against the exact family counts; it also solves Q, Q1 and Q2 in floats for
the real-root counts beside Sturm's.  Incidence is the exact engine's
alone (orbits.meet_number).

Pure Python on cmath and math.  Each polynomial an audit evaluates is
compiled once, into (complex coefficient, ((variable index, exponent), ...))
terms, and evaluated point by point; Durand-Kerner iterates on a
geometrically rescaled monic polynomial, and its certified roots are cached
on (coefficients, seed, tol).  One audit serves every surface: each curve
family that curves.surface_families certifies on it (the S6 lines, the S7
and S8 families, the A_n and D_n fibre components) is sampled on its exact
graph of two coordinates over the other two, through one routine,
_graph_at: the graph's coefficients, monomials c s^k, are taken once per
process as (complex c, k), and evaluated at each float s.  Each Galois
orbit (L1-L3, the 12 lines L_mu over each root of C, the 18 or 30 curves
over each root of Q, Q1 or Q2, the fibre components over x^n = t) is the
sigma_j-conjugate of its family's representative graph over the certified
root sigma_j(x), its constants embedded exactly and rounded once, at the h
values of s with t = c s^(+-h).  Samples come from random.Random(seed) in
a fixed order (per curve, then per sample, then per coordinate).  The
sample points (W, X) do not depend on t, so they are drawn once per seed:
the 1200 of the S8 members, the first 135 of which are those of the S6
lines and the first 280 those of S7.  Every audit is cached on its
(surface, NumericConfig)."""

import cmath
import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from operator import mul

from .multipoly import MultiPoly
from .tower import _coeff_complex
from .univariate import count_real_roots
from .base import VerificationError, _surface_cache
# the audits import the exact curves they check as they run, so that they
# read curves.surface_families as it is then (tests replace it)


# Durand-Kerner iterations before a polynomial is declared not to converge
DK_MAX_ITER = 2000


class NumericConfig(namedtuple("NumericConfig", "t tol seed")):
    __slots__ = ()

    def __new__(cls, t=Fraction(2), tol=1e-8, seed=0):
        t = Fraction(t)
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError("tolerance must be finite and positive")
        return super().__new__(cls, t, tol, seed)


# ---------------------------------------------------------------------------
# root finding

def durand_kerner(coeffs, cfg: NumericConfig):
    """All complex roots of sum(c[k] X^k).  The polynomial is made monic and
    its variable rescaled X = sigma X', with log(sigma) the mean of
    log|c_k/c_n|/(n-k) over the nonzero coefficients, so Durand-Kerner
    iterates on a balanced polynomial."""
    cs = [complex(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    n = len(cs) - 1
    if n < 1:
        raise ValueError("polynomial must be nonconstant")
    b = [c / cs[-1] for c in cs]
    # zero coefficients carry no scale
    logs = [math.log(abs(c)) / (n - k) for k, c in enumerate(b[:-1])
            if 0 < abs(c) < math.inf]
    sigma = math.exp(sum(logs) / max(len(logs), 1))
    b = [c * sigma ** (k - n) for k, c in enumerate(b)][::-1]  # for Horner
    angle = random.Random(cfg.seed).uniform(0, 2 * math.pi)
    z = [cmath.exp(1j * (angle + 2 * math.pi * k / n)) * (1.3 + 0.01 * k)
         for k in range(n)]
    for _ in range(DK_MAX_ITER):
        dz = []
        for k, zk in enumerate(z):
            val, den = 0j, 1
            for c in b:
                val = val * zk + c
            for j, zj in enumerate(z):
                if j != k:
                    den *= zk - zj
            dz.append(val / den)
        z = [zk - d for zk, d in zip(z, dz)]
        if all(abs(d) / (1 + abs(zk)) < 1e-14 for d, zk in zip(dz, z)):
            break
    else:
        raise VerificationError("root finder did not converge")
    return [zk * sigma for zk in z]


def _certify(coeffs, roots, tol):
    """roots, once certified as roots of sum(c[k] X^k): the residual below
    tol relative to the coefficient 1-norm evaluated at the root, and the
    roots pairwise separated."""
    terms = [(c, abs(c)) for c in reversed(coeffs)]
    mags = [abs(r) for r in roots]
    for r, mag in zip(roots, mags):
        val, scale = 0j, 0.0
        for c, size in terms:
            val = val * r + c
            scale = scale * mag + size
        if not abs(val) <= tol * (1 + scale):
            raise VerificationError("root residual %.3g exceeds tolerance"
                                    % abs(val))
    for i, (r, mr) in enumerate(zip(roots, mags)):
        for s, ms in zip(roots[i + 1:], mags[i + 1:]):
            if abs(r - s) < 1e-8 * (1 + mr + ms):
                raise VerificationError("roots are not separated")
    return roots


def numeric_roots(coeffs, cfg: NumericConfig):
    """The roots of sum(c[k] X^k), certified by _certify; cached on
    (coefficients, seed, tol), which is all they depend on."""
    return _cached_roots(tuple(coeffs), cfg.seed, cfg.tol)


@lru_cache(maxsize=None)
def _cached_roots(coeffs, seed, tol):
    roots = durand_kerner(coeffs, NumericConfig(tol=tol, seed=seed))
    return tuple(_certify([complex(c) for c in coeffs], roots, tol))


# ---------------------------------------------------------------------------
# compiled evaluation

class CompiledPoly:
    """A MultiPoly compiled for complex evaluation at points whose
    coordinates are the variables `order`, which must name each variable
    left free: its terms as (complex coefficient, ((index into order,
    exponent), ...)) with the zero exponents left out.  cenv maps generator
    names, and the variables it fixes (such as t), to values: each
    coefficient is a tower constant evaluated there, times the powers of
    the fixed variables."""

    def __init__(self, p: MultiPoly, cenv, order):
        free = [v for i, v in enumerate(p.vars)
                if v not in cenv and any(e[i] for e in p.terms)]
        if not set(free) <= set(order):
            raise ValueError("variables %s left out of the order"
                             % [v for v in free if v not in order])
        idx = [p.vars.index(v) for v in order]
        fixed = [(i, cenv[v]) for i, v in enumerate(p.vars) if v in cenv]
        self.terms = tuple(
            (_coeff_complex(c, cenv)
             * math.prod(x ** e[i] for i, x in fixed if e[i]),
             tuple((j, e[i]) for j, i in enumerate(idx) if e[i]))
            for e, c in p.terms.items())

    def at(self, x):
        """(value, scale) at the point x, the values of `order` in turn:
        the sum of the terms and the sum of their absolute values."""
        value, scale = 0j, 0.0
        for c, monomial in self.terms:
            for i, k in monomial:
                c *= x[i] if k == 1 else x[i] ** k
            value += c
            scale += abs(c)
        return value, scale


def _exact_count(curves, count, name):
    """count, once it equals the number of curves the exact enumeration
    certified on the surface: the sum of its family counts."""
    exact = sum(c.count for c in curves)
    if count != exact:
        raise VerificationError("%s numeric count %d != exact %d"
                                % (name, count, exact))
    return count


def _max_residue(res, cfg, message):
    """The largest of the residues res; the first of them (in draw order)
    that is not at most cfg.tol, a NaN from an overflow too, is raised,
    formatted into message."""
    for r in res:
        if not r <= cfg.tol:
            raise VerificationError(message % r)
    return max(res)


def _sample_wx(rng):
    """A sample point (W, X): W on the unit circle, |X| in [0.5, 1.5)."""
    u0, u1, u2 = rng.random(), rng.random(), rng.random()
    return (cmath.exp(2j * math.pi * u0),
            cmath.exp(2j * math.pi * u1) * (0.5 + u2))


def _roots_of_unity(n):
    return [cmath.exp(2j * math.pi * k / n) for k in range(n)]


# ---------------------------------------------------------------------------
# per-surface audits

# the generator of Q(zeta_12), for the coefficient -2i of the S6 equation;
# every other audited equation has rational coefficients
S6_ENV = {"z12": cmath.exp(1j * math.pi / 6)}


def _constants(graph, embed):
    """The coefficients of an exact graph (Y, Z), each 0 or a monomial
    c s^k of its tower, as (embed(c), k): the complex constant of c taken
    once, by embed."""
    out = []
    for coeffs in graph:
        terms = []
        for c in coeffs:
            if len(c.payload[0]) > 1:
                raise VerificationError("graph coefficient %r is not a "
                                        "monomial" % c)
            terms.append((embed(c), next(iter(c.payload[0]), 0)))
        out.append(terms)
    return out


# the bits of the fixed-point roots of unity that S7/S8 constants are
# embedded with: their coordinates in the power basis of Q(zeta_h) cancel
# by up to 16 digits (the roots of Q1 span 1e-6 to 4e9)
EMBED_BITS = 256


def _fixed_mul(a, b):
    return ((a[0] * b[0] - a[1] * b[1]) >> EMBED_BITS,
            (a[0] * b[1] + a[1] * b[0]) >> EMBED_BITS)


@lru_cache(maxsize=None)
def _zeta_powers(h):
    """exp(2 pi i m / h) for m < h, as (re, im) ints scaled by
    2^EMBED_BITS: the double exp(2 pi i / h) polished by Newton steps on
    z^h = 1 (each doubles the correct bits), then its powers."""
    one, w = 1 << EMBED_BITS, cmath.exp(2j * math.pi / h)
    z = (int(w.real * one), int(w.imag * one))
    for _ in range(3):
        p = (one, 0)
        for _ in range(h - 1):
            p = _fixed_mul(p, z)
        num, den = _fixed_mul(p, z), (h * p[0], h * p[1])
        norm = den[0] ** 2 + den[1] ** 2
        z = (z[0] - (((num[0] - one) * den[0] + num[1] * den[1])
                     << EMBED_BITS) // norm,
             z[1] - ((num[1] * den[0] - (num[0] - one) * den[1])
                     << EMBED_BITS) // norm)
    powers = [(one, 0)]
    for _ in range(h - 1):
        powers.append(_fixed_mul(powers[-1], z))
    return powers


def _embed(c, j):
    """The constant of the monomial c of Q(zeta_h)[s, 1/s] under
    zeta_h -> exp(2 pi i j / h), summed exactly over _zeta_powers and
    rounded once."""
    (terms, den), h = c.payload, c.tower.M
    zeta = _zeta_powers(h)
    v = next(iter(terms.values()), ())
    re = sum(x * zeta[i * j % h][0] for i, x in enumerate(v))
    im = sum(x * zeta[i * j % h][1] for i, x in enumerate(v))
    return complex(re / (den << EMBED_BITS), im / (den << EMBED_BITS))


def _graph_at(constants, s):
    """The float graph (Y, Z) at s: c s^k for each (c, k) of _constants."""
    return [[c * s ** k for c, k in coeffs] for coeffs in constants]


@lru_cache(maxsize=None)
def _radical_graphs(family):
    """The members of an S6, S7 or S8 family in floats, built once per
    process: (n, [(c, constants)]), t = c s^n at each root sigma_j(x) of
    curves.residual_roots, with the _constants of the sigma_j-conjugate of
    the representative's graph: sigma_j followed by the embedding
    zeta_M -> exp(2 pi i / M) is _embed at j."""
    t, (y, z) = family.data["t"], family.data["graph"]
    (n, _), = t.payload[0].items()
    return n, [(_embed(t, j), _constants((y, z), lambda c: _embed(c, j)))
               for j in family.data["roots"]]


# the sample points of the audits: CURVE_SAMPLES for each of the 240
# members of S8, of which S6 reads the first 5 * 27, S7 the first 5 * 56
# and an:<n> and dn:<n> the first 5 * 2n
CURVE_SAMPLES = 5
RADICAL_SAMPLES = CURVE_SAMPLES * 240


def _monomials(W, X):
    """W^(d-k) X^k for k = 0..d, for the degrees d = 0..3 of the graphs' Y
    and Z, those of degree d at index d."""
    W2, X2 = W * W, X * X
    return (1,), (W, X), (W2, W * X, X2), (W2 * W, W2 * X, W * X2, X2 * X)


@lru_cache(maxsize=None)
def _samples(seed):
    """The audits' sample points, which do not depend on t: RADICAL_SAMPLES
    points (W, X) drawn by _sample_wx from random.Random(seed), each with
    its _monomials."""
    rng, out = random.Random(seed), []
    for _ in range(RADICAL_SAMPLES):
        W, X = _sample_wx(rng)
        out.append((W, X, _monomials(W, X)))
    return out


def _radical_residues(s, families, cfg):
    """The residues of the members of the families of s at t = cfg.t,
    residues[i] those of families[i]: each family's equation compiled in
    its coordinates (W, X, Y, Z); over each root, the float graph (Y, Z) of
    _radical_graphs at each of the |n| values s of t = c s^n, evaluated at
    the next CURVE_SAMPLES points of _samples(cfg.seed).
    On a conic bundle the fibre coordinate W = w is drawn at |w| = |s| /
    |t|^(1/2), of the weight 1 - n/2 of w: there every term of the
    equation is of one size on the member, and none dilutes the others'
    residue."""
    tval, res = float(cfg.t), []
    samples, equations = iter(_samples(cfg.seed)), {}
    point = [0j] * 4            # (W, X, Y, Z), refilled at each sample
    bundle = s.name.startswith(("an:", "dn:"))
    for family in families:
        coords = family.data["coords"]
        if coords not in equations:
            equations[coords] = CompiledPoly(
                s.equation, dict(S6_ENV, t=tval), order=coords)
        equation, out = equations[coords], []
        n, roots = _radical_graphs(family)
        unity = _roots_of_unity(abs(n))
        for c, constants in roots:
            s0 = (tval / c) ** (1 / n)
            if not (s0 and cmath.isfinite(s0)):
                raise OverflowError("s = (t / c)^(1/%d) at c = %r" % (n, c))
            size = abs(s0) / abs(tval) ** 0.5 if bundle else 1
            for w in unity:
                y, z = _graph_at(constants, s0 * w)
                dy, dz = len(y) - 1, len(z) - 1
                for point[0], point[1], monomials in islice(samples,
                                                            CURVE_SAMPLES):
                    if bundle:
                        point[0] *= size
                        monomials = _monomials(point[0], point[1])
                    point[2] = sum(map(mul, y, monomials[dy]))
                    point[3] = sum(map(mul, z, monomials[dz]))
                    value, scale = equation.at(point)
                    out.append(abs(value) / max(scale, 1e-300))
        res.append(out)
    return res


@_surface_cache
def sturm_vs_numeric(s7, s8, cfg: NumericConfig) -> dict:
    """Exact Sturm real-root counts vs numeric counts for Q, Q1, Q2, read
    from the residuals that enumerate_s7(s7) and enumerate_s8(s8) return
    (certified there equal to the displayed polynomials)."""
    from .curves import enumerate_s7, enumerate_s8, residual_coefficients
    core, (f1, f2) = enumerate_s7(s7)[1], enumerate_s8(s8)[1]
    out = {}
    for label, residual, parameter, expected in (("Q", core, "e", 3),
                                                 ("Q1", f1, "mu", 4),
                                                 ("Q2", f2, "mu", 4)):
        q = residual_coefficients(residual, parameter)
        exact = count_real_roots(q)
        roots = numeric_roots(q, cfg)
        numeric = sum(1 for z in roots
                      if abs(z.imag) < cfg.tol * (1 + abs(z)))
        if exact != expected or numeric != exact:
            raise VerificationError(
                "%s: Sturm %d, numeric %d, expected %d"
                % (label, exact, numeric, expected))
        out[label] = {"sturm": exact, "numeric": numeric}
    return out


@_surface_cache
def numeric_curve_audit(s, cfg: NumericConfig) -> dict:
    """The audit of the catalog surface s at cfg.t: every member of each
    curve family certified on s (curves.surface_families) sampled on its
    float graph, its residues at most cfg.tol and the number of members
    the sum of the exact family counts."""
    from .curves import surface_families
    if cfg.t == 0:
        raise VerificationError("t = 0 lies on every discriminant locus")
    families = list(surface_families(s).values())
    if s.name == "s7":
        # the main family first, then the e = 0 pair: the order in which
        # S7 has always drawn its sample points
        families.reverse()
    name = s.name.upper()
    # a double that overflows raises OverflowError, or becomes inf or NaN,
    # which every check refuses
    try:
        res = _radical_residues(s, families, cfg)
    except OverflowError as ex:
        raise VerificationError("%s at t = %s: a double overflows (%s)"
                                % (s.name, cfg.t, ex))
    max_res = max(_max_residue(r, cfg, "%s residue %%.3g on %s"
                               % (name, family.branch))
                  for r, family in zip(res, families))
    members = sum(map(len, res)) // CURVE_SAMPLES
    return {"surface": s.name, "count": _exact_count(families, members, name),
            "max_residue": max_res}


def full_audit(catalog, tol=1e-8, seed=0) -> dict:
    """The oracle section of the reproduction run: counts and residues of
    the catalog's surfaces at t = 2, 3 and 5, and the real-root counts."""
    report = {"t_values": [2, 3, 5], "surfaces": {}, "sturm": None}
    for t in (2, 3, 5):
        cfg = NumericConfig(t=Fraction(t), tol=tol, seed=seed)
        for name in ("s6", "s7", "s8", "an:2", "dn:4"):
            rep = numeric_curve_audit(catalog[name], cfg)
            report["surfaces"].setdefault(name, []).append(
                {"t": t, "count": rep["count"],
                 "max_residue": rep["max_residue"]})
    report["sturm"] = sturm_vs_numeric(catalog["s7"], catalog["s8"],
                                       NumericConfig(tol=tol, seed=seed))
    return report
