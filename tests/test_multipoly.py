"""Ring axioms, exact division and substitution for the sparse polynomial
core."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from kleinfib.multipoly import MultiPoly

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


def test_substitute_and_evaluate():
    x = MultiPoly.var(VARS, "x")
    y = MultiPoly.var(VARS, "y")
    f = x ** 2 - y
    g = f.substitute({"y": x ** 2})
    assert g.is_zero()
    assert f.evaluate({"x": Fraction(3), "y": Fraction(2),
                       "z": Fraction(0)}) == 7
