"""Ring axioms, exact division and substitution for the sparse polynomial
core, and its flat form differentially against Fraction dicts."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kleinfib.geometry import build_catalog
from kleinfib.multipoly import MultiPoly
from kleinfib.tower import cyclotomic

VARS = ("x", "y", "z")


def _poly(coeffs):
    terms = {}
    for (ex, ey, ez), num, den in coeffs:
        c = Fraction(num, den)
        if c:
            terms[(ex, ey, ez)] = terms.get((ex, ey, ez), Fraction(0)) + c
    return MultiPoly(VARS, {k: v for k, v in terms.items() if v})


polys = st.lists(
    st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4),
                        st.integers(0, 4)),
              st.integers(-9, 9), st.integers(1, 5)),
    max_size=6).map(_poly)


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero()
    zero = MultiPoly.zero(VARS)
    assert p + zero == p
    assert (p * zero).is_zero()


@settings(max_examples=100, deadline=None)
@given(polys, polys)
def test_exact_division(p, q):
    if q.is_zero():
        return
    prod = p * q
    assert prod.exact_div(q) == p


def test_rename_drops_only_absent_variables():
    x, y = MultiPoly.var(VARS, "x"), MultiPoly.var(VARS, "y")
    p = x ** 2 * y - 3
    q = p.rename(("y", "x"))
    assert q.vars == ("y", "x")
    assert q == MultiPoly.var(q.vars, "x") ** 2 * MultiPoly.var(q.vars, "y") - 3
    assert q.rename(VARS) == p
    with pytest.raises(ValueError):
        p.rename(("x", "z"))


def test_division_by_a_non_monomial_leading_coefficient():
    # (y + 1) x + 1 in x: its leading coefficient y + 1 is not one term
    x, y = MultiPoly.var(VARS, "x"), MultiPoly.var(VARS, "y")
    d = (y + 1) * x + 1
    q = x ** 2 * y - x + 2 * y
    quo, rem = (q * d).div_univariate(d, "x")
    assert quo == q and rem.is_zero()
    assert (q * d).exact_div(d) == q
    assert (q * d + 1).reduce_mod(d, "x") == 1
    with pytest.raises(ArithmeticError):
        (x ** 2).div_univariate(d, "x")      # y + 1 does not divide 1
    with pytest.raises(ArithmeticError):
        (q * d + 1).exact_div(d)


def test_substitute_and_evaluate():
    x = MultiPoly.var(VARS, "x")
    y = MultiPoly.var(VARS, "y")
    f = x ** 2 - y
    g = f.substitute({"y": x ** 2})
    assert g.is_zero()
    assert f.evaluate({"x": Fraction(3), "y": Fraction(2),
                       "z": Fraction(0)}) == 7



def test_evaluate_takes_no_first_powers(monkeypatch):
    # a variable of exponent 1 enters a term as it is given, not as a power
    T = cyclotomic(12)
    a, b = T.gen("z12"), T.gen("z12") + T.one()
    exponents = []
    power = type(a).__pow__

    def traced(self, n):
        exponents.append(n)
        return power(self, n)
    monkeypatch.setattr(type(a), "__pow__", traced)
    x, y = MultiPoly.var(VARS, "x"), MultiPoly.var(VARS, "y")
    f = x * y + x ** 2 * y + y
    got = f.evaluate({"x": a, "y": b, "z": T.zero()})
    assert exponents == [2]
    assert got == a * b + a * a * b + b


# ---------------------------------------------------------------------------
# differential tests: the flat form (int numerators over one denominator)
# against plain {exps: Fraction} dicts, operated on as the Fraction-valued
# polynomial core did: terms in first-appearance order, a term dropped as
# soon as its sum cancels.  The order matters, as the numeric oracle sums
# terms in it.

ZERO = (0, 0, 0)
ONE = {ZERO: Fraction(1)}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        s = c if s is None else s + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _ref_neg(a):
    return {e: -c for e, c in a.items()}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            p = c1 * c2
            s = out.get(e)
            s = p if s is None else s + p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _ref_pow(a, n):
    result, base = ONE, a
    while n:
        if n & 1:
            result = _ref_mul(result, base)
        base = _ref_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def _ref_substitute(a, vals):
    out = {}
    for e, c in a.items():
        term, rest = {ZERO: c}, [0, 0, 0]
        for i, k in enumerate(e):
            if k and i in vals:
                term = _ref_mul(term, _ref_pow(vals[i], k))
            elif k:
                rest[i] = k
        if any(rest):
            term = _ref_mul(term, {tuple(rest): Fraction(1)})
        out = _ref_add(out, term)
    return out


def _ref_repr(a):
    if not a:
        return "0"
    bits = []
    for e, c in sorted(a.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                       reverse=True):
        mono = "*".join(v + ("^%d" % k if k > 1 else "")
                        for v, k in zip(VARS, e) if k)
        bits.append("(%s)*%s" % (c, mono) if mono else "(%s)" % c)
    return " + ".join(bits)


fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
dicts = st.dictionaries(exps, fractions, max_size=6).map(
    lambda d: {e: c for e, c in d.items() if c})


@st.composite
def cancelling_pairs(draw):
    """(a, b) where b repeats some terms of a with the opposite sign, so
    that a + b cancels there."""
    a, b = draw(dicts), draw(dicts)
    for e in draw(st.lists(st.sampled_from(sorted(a)), unique=True)
                  if a else st.just([])):
        b[e] = -a[e]
    return a, b


def _same(p, ref):
    """p holds exactly the terms of ref, in ref's order, in canonical flat
    form (so == and hash agree with a polynomial built from ref)."""
    assert list(p.terms.items()) == list(ref.items())
    q = MultiPoly(VARS, ref)
    assert p == q and hash(p) == hash(q)
    assert hash(p) == hash((VARS, frozenset(ref.items())))


@settings(max_examples=200, deadline=None)
@given(cancelling_pairs())
def test_flat_ring_ops_match_fraction_reference(pair):
    a, b = pair
    p, q = MultiPoly(VARS, a), MultiPoly(VARS, b)
    _same(p, a)
    _same(p + q, _ref_add(a, b))
    _same(p - q, _ref_add(a, _ref_neg(b)))
    _same(-p, _ref_neg(a))
    _same(p * q, _ref_mul(a, b))
    _same((p + q) * (p - q), _ref_mul(_ref_add(a, b), _ref_add(a, _ref_neg(b))))
    _same(p - p, {})


@settings(max_examples=100, deadline=None)
@given(dicts, st.integers(0, 3), fractions | st.integers(-5, 5))
def test_flat_pow_and_scale_match_fraction_reference(a, n, c):
    p = MultiPoly(VARS, a)
    _same(p ** n, _ref_pow(a, n))
    c = Fraction(c)
    _same(p.scale(c), {e: c * v for e, v in a.items()} if c else {})
    _same(p * c, {e: c * v for e, v in a.items()} if c else {})


@settings(max_examples=100, deadline=None)
@given(dicts, dicts, dicts, fractions)
def test_flat_substitute_and_evaluate_match_fraction_reference(a, b, c, z0):
    p, q, r = MultiPoly(VARS, a), MultiPoly(VARS, b), MultiPoly(VARS, c)
    _same(p.substitute({"x": q, "z": r}), _ref_substitute(a, {0: b, 2: c}))
    _same(p.substitute({"y": q, "z": z0}),
          _ref_substitute(a, {1: b, 2: {ZERO: z0} if z0 else {}}))
    point = {"x": Fraction(2, 3), "y": Fraction(-5, 7), "z": z0}
    want = sum((c * point["x"] ** e[0] * point["y"] ** e[1]
                * point["z"] ** e[2] for e, c in a.items()), Fraction(0))
    assert p.evaluate(point) == want


@settings(max_examples=100, deadline=None)
@given(dicts, dicts)
def test_flat_exact_div_coeff_of_and_as_univariate(a, b):
    p, q = MultiPoly(VARS, a), MultiPoly(VARS, b)
    if b:
        assert (p * q).exact_div(q) == p
    for k in range(4):
        _same(p.coeff_of("y", k),
              {(e[0], 0, e[2]): c for e, c in a.items() if e[1] == k})
    buckets = {}
    for e, c in a.items():
        buckets.setdefault(e[1], {})[(e[0], 0, e[2])] = c
    got = p.as_univariate("y")
    assert list(got) == list(buckets)
    for k, ref in buckets.items():
        _same(got[k], ref)


@settings(max_examples=100, deadline=None)
@given(dicts, dicts, fractions, st.integers(1, 3))
def test_flat_div_univariate_and_reduce_mod(a, b, lead, k):
    # a divisor whose leading coefficient in x is the constant `lead`
    b = {e: c for e, c in b.items() if e[0] < k}
    b[(k, 0, 0)] = lead or Fraction(1)
    p, d = MultiPoly(VARS, a), MultiPoly(VARS, b)
    quo, rem = p.div_univariate(d, "x")
    assert rem.degree("x") < k
    assert quo * d + rem == p
    assert p.reduce_mod(d, "x") == rem


@settings(max_examples=100, deadline=None)
@given(dicts, fractions)
def test_flat_repr_and_constants(a, c):
    p = MultiPoly(VARS, a)
    assert repr(p) == _ref_repr(a)
    const = MultiPoly.const(VARS, c)
    assert const == c and (const == c + 1) is False
    assert hash(const) == hash((VARS, frozenset({ZERO: c}.items()) if c
                                else frozenset()))
    assert const.constant() == c and const.is_constant()
    assert MultiPoly.const(VARS, 3) == Fraction(3) == MultiPoly.const(VARS, 3)


@settings(max_examples=50, deadline=None)
@given(dicts, dicts)
def test_flat_and_field_coefficients_agree(a, b):
    # the same polynomials with their coefficients lifted into Q(i) keep
    # their own representation; every value, == and hash agree across both
    T = cyclotomic(4)
    p, q = MultiPoly(VARS, a), MultiPoly(VARS, b)
    P, Q = p.map_coeffs(T.lift), q.map_coeffs(T.lift)
    assert P == p and hash(P) == hash(p)
    assert P * Q == p * q == P * q and hash(P * Q) == hash(p * q)
    assert P + Q == p + q == p + Q


def test_seeded_mutation_picks_the_same_term_and_value():
    # build_catalog's fault injection bumps the coefficient of the
    # term-th key of sorted(eq.terms) by a Fraction (lifted into the tower
    # for a surface over Q(zeta)); the (key, old, new) of every such pick,
    # over every chart of every catalog surface, as the Fraction-valued
    # core gave them
    clean = build_catalog()
    rows = []
    for name in sorted(clean):
        for chart, eq in enumerate(clean[name].equations):
            for term in (0, 1, 2, 7):
                for delta in (Fraction(1), Fraction(-5, 3)):
                    new = build_catalog((name, chart, term, delta))[name] \
                        .equations[chart]
                    changed = [(k, str(eq.terms.get(k)), str(v))
                               for k, v in new.terms.items()
                               if eq.terms.get(k) != v]
                    dropped = [k for k in eq.terms if k not in new.terms]
                    assert len(changed) + len(dropped) == 1
                    rows.append((name, chart, term, str(delta), changed,
                                 dropped))
    assert len(rows) == 320
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "e73e26f977894a29b588593b4f470bfd00e4425d413e2ba13c4975039f070c06"
