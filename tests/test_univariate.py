"""Univariate layer: resultants against the Sylvester-matrix oracle,
Sturm counts against numpy roots."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kleinfib import univariate
from kleinfib.base import VerificationError
from kleinfib.multipoly import MultiPoly
from kleinfib.univariate import (count_real_roots, cyclotomic_poly,
                                 derivative, from_multipoly, normalize,
                                 poly_gcd, resultant_poly, squarefree_part,
                                 sturm_chain, subresultant_prs)

frac = st.fractions(min_value=-8, max_value=8, max_denominator=6)
polys = st.lists(frac, min_size=1, max_size=6).map(normalize)
XY = ("x", "y")
bivariate = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 2)), st.integers(-5, 5),
    min_size=1, max_size=6).map(
        lambda d: MultiPoly(XY, {e: Fraction(c) for e, c in d.items()}))


def sylvester_resultant(f, g):
    f, g = normalize(f), normalize(g)
    n, m = len(f) - 1, len(g) - 1
    if n < 0 or m < 0:
        return Fraction(0)
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    size = n + m
    rows = []
    for i in range(m):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(n):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    # fraction-free-ish Gaussian elimination over Q
    det = Fraction(1)
    mat = [row[:] for row in rows]
    for col in range(size):
        piv = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = Fraction(1) / mat[col][col]
        for r in range(col + 1, size):
            factor = mat[r][col] * inv
            if factor:
                for c in range(col, size):
                    mat[r][c] -= factor * mat[col][c]
    return det


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_resultant_vanishes_iff_common_root(f, g):
    if len(f) < 2 or len(g) < 2:
        return
    h = poly_gcd(f, g)
    assert (sylvester_resultant(f, g) == 0) == (len(h) > 1)


def test_sturm_against_numpy():
    rng = random.Random(11)
    for _ in range(40):
        deg = rng.randint(1, 6)
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(deg)] + \
                 [Fraction(rng.randint(1, 9))]
        sqf = squarefree_part(coeffs)
        exact = count_real_roots(sqf)
        roots = np.roots([float(c) for c in reversed(sqf)])
        numeric = sum(1 for z in roots if abs(z.imag) < 1e-9 * (1 + abs(z)))
        assert exact == numeric


def test_sturm_chain_endpoints():
    # (x-1)(x-2)(x-3): 3 real roots
    f = [Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)]
    assert count_real_roots(f) == 3
    chain = sturm_chain(f)
    assert chain[0] == f


def test_cyclotomic():
    assert cyclotomic_poly(1) == [Fraction(-1), Fraction(1)]
    assert cyclotomic_poly(4) == [Fraction(1), Fraction(0), Fraction(1)]
    assert cyclotomic_poly(12) == [Fraction(1), Fraction(0), Fraction(-1),
                                   Fraction(0), Fraction(1)]


def test_cyclotomic_is_memoized_but_returns_fresh_lists():
    f = cyclotomic_poly(12)
    f.append(Fraction(7))
    assert cyclotomic_poly(12) == [Fraction(1), Fraction(0), Fraction(-1),
                                   Fraction(0), Fraction(1)]
    # Phi_124 (degree phi(124) = 60) has the value at 1 of Phi_{4p}, i.e. 1
    assert len(cyclotomic_poly(124)) == 61
    assert sum(cyclotomic_poly(124)) == 1


def test_inexact_division_raises(monkeypatch):
    # the two exactness checks raise rather than assert, so that python -O
    # keeps them; the cyclotomic cache is cleared on both sides, so that
    # Phi_6 is divided under the patch and nothing computed under it stays.
    # The gcd is fixed at that of x^2 - 1, as Euclid's loop would not end
    divmod_exact = univariate.poly_divmod

    def with_remainder(f, g):
        return divmod_exact(f, g)[0], [Fraction(1)]
    univariate._cyclotomic.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(univariate, "poly_divmod", with_remainder)
            m.setattr(univariate, "poly_gcd", lambda f, g: [Fraction(1)])
            with pytest.raises(VerificationError, match="gcd"):
                squarefree_part([Fraction(-1), Fraction(0), Fraction(1)])
            with pytest.raises(VerificationError, match="cyclotomic"):
                cyclotomic_poly(6)
    finally:
        univariate._cyclotomic.cache_clear()
    assert cyclotomic_poly(6) == [Fraction(1), Fraction(-1), Fraction(1)]


def test_derivative():
    f = [Fraction(1), Fraction(2), Fraction(3)]
    assert derivative(f) == [Fraction(2), Fraction(6)]


def _at(p, y0):
    """p(x, y0) as a dense coefficient list in x."""
    return from_multipoly(p.substitute({"y": Fraction(y0)}), "x")


@settings(max_examples=60, deadline=None)
@given(bivariate, bivariate)
def test_resultant_poly_specializes_to_sylvester(A, B):
    dA, dB = A.degree("x"), B.degree("x")
    if dA < 0 or dB < 0:
        return
    res = resultant_poly(A, B, "x")
    assert res.degree("x") <= 0
    prs = subresultant_prs(A, B, "x") if dA >= dB else \
        subresultant_prs(B, A, "x")
    # the sequence ends in a constant exactly when no factor is shared
    assert res.is_zero() == (prs[-1].degree("x") > 0)
    for y0 in range(-3, 4):
        if not (_at(A, y0) and len(_at(A, y0)) == dA + 1
                and _at(B, y0) and len(_at(B, y0)) == dB + 1):
            continue
        value = res.substitute({"y": Fraction(y0)}).constant()
        assert value == sylvester_resultant(_at(A, y0), _at(B, y0))


def test_resultant_poly_edge_cases():
    x, y = MultiPoly.var(XY, "x"), MultiPoly.var(XY, "y")
    # Res(x - y, B) = B(y); with deg 1 < deg 3, both odd, the swap negates
    assert resultant_poly(x - y, x ** 3 + y, "x") == y ** 3 + y
    assert resultant_poly(x ** 3 + y, x - y, "x") == -(y ** 3 + y)
    # a second argument free of x: Res(A, c) = c^deg(A)
    c = y * 2 + 1
    assert resultant_poly(x ** 2 + y, c, "x") == c ** 2
    # a common factor makes the resultant vanish and stops the sequence
    common = x - y
    A, B = common * (x + 1), common * (x ** 2 + y)
    assert resultant_poly(A, B, "x").is_zero()
    assert subresultant_prs(B, A, "x")[-1].degree("x") == 1
