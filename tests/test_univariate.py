"""Univariate layer: the subresultant gcd against the Sylvester-matrix
resultant, Sturm counts against numpy roots."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kleinfib import univariate
from kleinfib.base import VerificationError
from kleinfib.multipoly import MultiPoly
from kleinfib.univariate import (count_real_roots, cyclotomic_poly,
                                 derivative, subresultant_prs, to_multipoly)


def normalize(f):
    """The coefficient list f without its trailing zeros."""
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


frac = st.fractions(min_value=-8, max_value=8, max_denominator=6)
polys = st.lists(frac, min_size=1, max_size=6).map(normalize)
XY = ("x", "y")


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


def exact_gcd(f, g):
    """A gcd of the univariate f and g over Q, up to a constant factor: the
    last member of their subresultant PRS, or 1 when it is a constant."""
    if g.is_zero():
        return f
    last = subresultant_prs(f, g, "X")[-1] if f.degree("X") >= \
        g.degree("X") else subresultant_prs(g, f, "X")[-1]
    return last if last.degree("X") > 0 else MultiPoly.const(("X",), 1)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_resultant_vanishes_iff_common_root(f, g):
    if len(f) < 2 or len(g) < 2:
        return
    common = exact_gcd(to_multipoly(f), to_multipoly(g)).degree("X") > 0
    assert (sylvester_resultant(f, g) == 0) == common


def test_sturm_against_numpy():
    rng = random.Random(11)
    for _ in range(40):
        deg = rng.randint(1, 6)
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(deg)] + \
                 [Fraction(rng.randint(1, 9))]
        f = to_multipoly(coeffs)
        sqf = _coeffs(f.exact_div(exact_gcd(f, derivative(f, "X"))), "X")
        # the squarefree part is certified squarefree, and f exactly when
        # it is its own squarefree part
        sq = to_multipoly(sqf)
        assert exact_gcd(sq, derivative(sq, "X")).degree("X") == 0
        assert (exact_gcd(f, derivative(f, "X")).degree("X") == 0) == \
            (len(sqf) == len(coeffs))
        exact = count_real_roots(sqf)
        roots = np.roots([float(c) for c in reversed(sqf)])
        numeric = sum(1 for z in roots if abs(z.imag) < 1e-9 * (1 + abs(z)))
        assert exact == numeric
        # the chain of f itself counts each distinct root once
        assert count_real_roots(coeffs) == exact


def test_sturm_chain_endpoints():
    # (x-1)(x-2)(x-3): 3 real roots
    assert count_real_roots([-6, 11, -6, 1]) == 3
    # (x-1)^2 (x+2): the double root counts once
    assert count_real_roots([2, -3, 0, 1]) == 2
    # the signs at -oo and +oo follow the leading coefficient and degree
    assert count_real_roots([0, 1, 0, -1]) == 3
    assert count_real_roots([1, 0, 1]) == 0
    assert count_real_roots([Fraction(5, 3)]) == 0


def test_cyclotomic():
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(4) == [1, 0, 1]
    assert cyclotomic_poly(12) == [1, 0, -1, 0, 1]
    assert all(type(c) is int for c in cyclotomic_poly(30))


def test_cyclotomic_is_memoized_but_returns_fresh_lists():
    f = cyclotomic_poly(12)
    f.append(Fraction(7))
    assert cyclotomic_poly(12) == [Fraction(1), Fraction(0), Fraction(-1),
                                   Fraction(0), Fraction(1)]
    # Phi_124 (degree phi(124) = 60) has the value at 1 of Phi_{4p}, i.e. 1
    assert len(cyclotomic_poly(124)) == 61
    assert sum(cyclotomic_poly(124)) == 1


def _phi(n):
    """Euler's phi by counting."""
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_cyclotomic_degrees_and_integrality():
    for n in range(1, 201):
        f = cyclotomic_poly(n)
        assert len(f) == _phi(n) + 1 and f[-1] == 1, n
        assert all(type(c) is int for c in f), n


@pytest.mark.parametrize("n", [12, 30, 105, 124])
def test_cyclotomic_factors_x_to_the_n_minus_1(n):
    # prod_{d | n} Phi_d = X^n - 1, multiplied out as MultiPoly
    product = MultiPoly.const(("X",), 1)
    for d in range(1, n + 1):
        if not n % d:
            product = product * to_multipoly(cyclotomic_poly(d))
    assert product == to_multipoly([-1] + [0] * (n - 1) + [1])


def test_inexact_division_raises(monkeypatch):
    # the exactness check raises rather than asserts, so that python -O
    # keeps it: a product off by one in its constant term leaves a nonzero
    # remainder in the division by X^d - 1.  The cyclotomic cache is
    # cleared on both sides, so that Phi_6 is divided under the patch and
    # nothing computed under it stays
    times = univariate._times_binomial

    def off_by_one(a, d):
        out = times(a, d)
        out[0] += 1
        return out
    univariate._cyclotomic.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(univariate, "_times_binomial", off_by_one)
            with pytest.raises(VerificationError, match="cyclotomic"):
                cyclotomic_poly(6)
    finally:
        univariate._cyclotomic.cache_clear()
    assert cyclotomic_poly(6) == [1, -1, 1]


def test_derivative():
    assert derivative(to_multipoly([1, 2, 3]), "X") == to_multipoly([2, 6])
    x, y = MultiPoly.var(XY, "x"), MultiPoly.var(XY, "y")
    f = x ** 2 * y + y * 3
    assert derivative(f, "x") == x * y * 2
    assert derivative(f, "y") == x ** 2 + 3
    assert derivative(to_multipoly([Fraction(7, 2)]), "X").is_zero()


def _coeffs(p, name):
    """The coefficient list of p, univariate in `name`, low degree first."""
    return [p.coeff_of(name, k).constant() for k in range(p.degree(name) + 1)]
