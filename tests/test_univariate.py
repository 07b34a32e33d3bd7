"""Univariate layer: the pseudo-remainder identity over ints, Q(zeta_12)
and MultiPoly coefficients, gcd degrees against the Sylvester-matrix
resultant, the subresultant PRS against them, Sturm counts against numpy
roots."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kleinfib import univariate
from kleinfib.base import VerificationError
from kleinfib.multipoly import MultiPoly
from kleinfib.tower import cyclotomic, root_of_unity
from kleinfib.univariate import (count_real_roots, cyclotomic_poly,
                                 gcd_degree, prem, subresultant_prs)


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


def _reduces_to_zero(p, b, div):
    """Whether the list p is a multiple of the list b: long division with
    each leading coefficient divided by lc(b) as div does, exactly, leaves
    no remainder."""
    p = normalize(p)
    while len(p) >= len(b):
        q, shift = div(p[-1], b[-1]), len(p) - len(b)
        p = normalize([c - q * b[k - shift] if k >= shift else c
                       for k, c in enumerate(p)])
    return not p


def _check_prem(a, b, div):
    """prem(a, b) has degree below b's, and lc(b)^e a - prem(a, b) is a
    multiple of b, e = max(deg a - deg b + 1, 0)."""
    r = prem(a, b)
    assert len(r) < len(b) and (not r or r[-1])
    factor = b[-1] ** max(len(a) - len(b) + 1, 0)
    r = r + [0 * b[-1]] * (len(a) - len(r))
    assert _reduces_to_zero([c * factor - d for c, d in zip(a, r)], b, div)


ints = st.lists(st.integers(-9, 9), min_size=1, max_size=7).map(normalize)


@settings(max_examples=80, deadline=None)
@given(ints, ints)
def test_prem_over_ints(a, b):
    if b:
        _check_prem(a, b, Fraction)


def test_prem_multiplies_in_the_skipped_steps():
    # x^3 + 1 by 2x^2 + 1: one step, 2(x^3 + 1) - x(2x^2 + 1) = 2 - x,
    # drops below deg b with e = 2, so the second factor 2 is multiplied in
    assert prem([1, 0, 0, 1], [1, 0, 2]) == [4, -2]
    assert prem([1, 2], [1, 0, 2]) == [1, 2]
    with pytest.raises(ZeroDivisionError):
        prem([1], [])


def test_prem_over_cyclotomic_and_multipoly_coefficients():
    rng = random.Random(5)
    powers = root_of_unity(cyclotomic(12), 12).powers(4)
    x, y = MultiPoly.var(XY, "x"), MultiPoly.var(XY, "y")
    monomials = [MultiPoly.const(XY, 1), x, y, x * y]

    def coefficient(basis):
        return sum((rng.randint(-4, 4) * m for m in basis), 0 * basis[0])
    for basis, div in ((powers, lambda p, q: p / q),
                       (monomials, lambda p, q: p.exact_div(q))):
        for _ in range(12):
            a = [coefficient(basis) for _ in range(rng.randint(1, 6))]
            b = normalize([coefficient(basis)
                           for _ in range(rng.randint(1, 4))])
            if b:
                _check_prem(normalize(a), b, div)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_resultant_vanishes_iff_common_root(f, g):
    if len(f) < 2 or len(g) < 2:
        return
    assert (sylvester_resultant(f, g) == 0) == (gcd_degree(f, g) > 0)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_gcd_degree_is_symmetric(f, g):
    if f or g:
        assert gcd_degree(f, g) == gcd_degree(g, f)
    if f:
        assert gcd_degree(f, []) == len(f) - 1


def test_subresultant_prs_ends_at_the_gcd():
    # over Q[u]: the PRS divides exactly (exact_div raises otherwise) and
    # its last member has the degree of the gcd, or is a constant
    rng = random.Random(7)
    u = MultiPoly.var(("u",), "u")

    def poly(degree):
        return [rng.randint(-3, 3) * u + rng.randint(-3, 3)
                for _ in range(degree)] + [u + rng.randint(1, 3)]
    for _ in range(20):
        common = poly(rng.randint(0, 2))
        f, g = (_times(common, poly(d)) for d in (rng.randint(2, 4),
                                                  rng.randint(0, 2)))
        last = subresultant_prs(f, g)[-1]
        assert len(last) - 1 == gcd_degree(f, g)


def _times(a, b):
    """The product of the lists a and b."""
    out = [0 * a[0]] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] = out[i + j] + c * d
    return out


def _derivative(f):
    return [k * c for k, c in enumerate(f)][1:]


def _squarefree(f):
    """f over gcd(f, f'), by Euclid and long division over Q: a second
    computation, with no pseudo-remainder."""
    def divmod_(p, q):
        p, quo = list(p), [Fraction(0)] * max(len(p) - len(q) + 1, 0)
        while len(p) >= len(q):
            c, shift = p[-1] / q[-1], len(p) - len(q)
            quo[shift] = c
            p = normalize([a - c * q[k - shift] if k >= shift else a
                           for k, a in enumerate(p)])
        return quo, p
    a, b = [Fraction(c) for c in f], _derivative(f)
    while b:
        a, b = b, divmod_(a, b)[1]
    return divmod_(f, a)[0]


def test_sturm_against_numpy():
    rng = random.Random(11)
    for _ in range(40):
        deg = rng.randint(1, 6)
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(deg)] + \
                 [Fraction(rng.randint(1, 9))]
        sqf = _squarefree(coeffs)
        # the squarefree part is squarefree, and f exactly when it is its
        # own squarefree part
        assert gcd_degree(sqf, _derivative(sqf)) == 0
        assert (gcd_degree(coeffs, _derivative(coeffs)) == 0) == \
            (len(sqf) == len(coeffs))
        exact = count_real_roots(sqf)
        roots = np.roots([float(c) for c in reversed(sqf)])
        numeric = sum(1 for z in roots if abs(z.imag) < 1e-9 * (1 + abs(z)))
        assert exact == numeric
        # the chain of f itself counts each distinct root once
        assert count_real_roots(coeffs) == exact


def test_sturm_chain_endpoints():
    # (x-1)(x-2)(x-3): 3 real roots, and with a negative leading coefficient
    assert count_real_roots([-6, 11, -6, 1]) == 3
    assert count_real_roots([6, -11, 6, -1]) == 3
    # (x-1)^2 (x+2): the double root counts once
    assert count_real_roots([2, -3, 0, 1]) == 2
    # the signs at -oo and +oo follow the leading coefficient and degree
    assert count_real_roots([0, 1, 0, -1]) == 3
    assert count_real_roots([1, 0, 1]) == 0
    # x^4 + 4x = x (x^3 + 4): the chain x^4 + 4x, 4x^3 + 4, -x, -1 drops
    # two degrees at -x, whose negative lc(b)^3 must not flip the sign of
    # the next member
    assert count_real_roots([0, 4, 0, 0, 1]) == 2
    assert count_real_roots([0, -4, 0, 0, -1]) == 2
    # constants have none; the zero polynomial vanishes everywhere
    assert count_real_roots([Fraction(5, 3)]) == 0
    assert count_real_roots([-2, 0]) == 0
    with pytest.raises(ValueError):
        count_real_roots([])
    with pytest.raises(ValueError):
        count_real_roots([0, Fraction(0)])


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
    # prod_{d | n} Phi_d = X^n - 1, multiplied out as int lists
    product = [1]
    for d in range(1, n + 1):
        if not n % d:
            product = _times(product, cyclotomic_poly(d))
    assert product == [-1] + [0] * (n - 1) + [1]


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
