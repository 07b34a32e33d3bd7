"""Univariate polynomials as coefficient lists, low degree first: the one
univariate core of the package.

A list may hold any coefficients with +, -, * and truth: ints, tower
elements (:mod:`kleinfib.tower`) or MultiPolys in the other variables.
One pseudo-remainder, ``prem``, multiplies by the divisor's leading
coefficient and never divides, so every computation below stays in the
coefficients' domain: the gcd degrees behind ``orbits.meet_number``,
Sturm's real-root counts on ints, and the subresultant PRS of the S8
elimination (Brown and Traub 1971).  The cyclotomic polynomials are int
lists too, products and exact quotients of binomials X^d - 1.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from .base import VerificationError


def trim(p):
    """The list p without its zero top coefficients."""
    while p and not p[-1]:
        p = p[:-1]
    return p


def prem(a, b):
    """The pseudo-remainder r of a by b, trimmed lists with b nonzero:
    lc(b)^e a = q b + r with deg r < deg b, e = max(deg a - deg b + 1, 0).
    Each step a -> lc(b) a - lc(a) X^(deg a - deg b) b cancels the top
    coefficient; a degree that drops by more than one skips steps, whose
    factors lc(b) are multiplied in at the end."""
    if not b:
        raise ZeroDivisionError("pseudo-division by zero")
    lb, db = b[-1], len(b) - 1
    e = len(a) - db
    while len(a) > db:
        shift, la = len(a) - len(b), a[-1]
        a = trim([c * lb - la * b[k - shift] if k >= shift else c * lb
                  for k, c in enumerate(a[:-1])])
        e -= 1
    for _ in range(e):
        a = [c * lb for c in a]
    return a


def gcd_degree(f, g) -> int:
    """deg gcd(f, g) over the fraction field of the coefficients' domain,
    for lists f, g not both zero: Euclid's algorithm on prems, whose
    constant factors lc^e leave every gcd as it is."""
    f, g = trim(f), trim(g)
    if not (f or g):
        raise ZeroDivisionError("gcd of two zero polynomials")
    while g:
        f, g = g, prem(f, g)
    return len(f) - 1


# ---------------------------------------------------------------------------
# Sturm chains / real-root counting


def _variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(coeffs) -> int:
    """Number of distinct real roots of the nonzero polynomial with the
    coefficient list coeffs (ints or Fractions, low degree first): the sign
    variations of its Sturm chain f, f', -rem, ... at -oo less those at
    +oo.  On ints, after the common denominator is cleared: each -rem is
    -prem(a, b) times |lc(b)|^e / lc(b)^e over its content, a positive
    factor.  The chain ends in gcd(f, f'), so each distinct root counts
    once."""
    f = trim(coeffs)
    if not f:
        raise ValueError("the zero polynomial vanishes on every real")
    den = lcm(*(c.denominator for c in f))
    chain = [[int(c * den) for c in f]]
    chain.append([k * c for k, c in enumerate(chain[0])][1:])
    while chain[-1]:
        a, b = chain[-2], chain[-1]
        r = prem(a, b)
        if b[-1] < 0 and (len(a) - len(b)) % 2 == 0:
            r = [-c for c in r]
        content = gcd(*r)
        chain.append([-c // content for c in r])
    at_plus = [(p[-1] > 0) - (p[-1] < 0) for p in chain[:-1]]
    at_minus = [s * (-1) ** (len(p) - 1) for s, p in zip(at_plus, chain)]
    return _variations(at_minus) - _variations(at_plus)


# ---------------------------------------------------------------------------
# the subresultant PRS over polynomial coefficients (MultiPoly)


def subresultant_prs(a, b):
    """The Brown-Traub subresultant pseudo-remainder sequence [a, b, r1,
    r2, ...] of the lists a, b of MultiPoly coefficients, deg a >= deg b,
    up to the first zero pseudo-remainder or constant member: r_(i+1) is
    prem(r_(i-1), r_i) divided exactly by g h^delta, g the leading
    coefficient and h the subresultant coefficient carried along."""
    seq = [a, b]
    g = h = b[-1] ** 0          # the coefficients' 1
    while seq[-1]:
        delta = len(seq[-2]) - len(seq[-1])
        r = prem(seq[-2], seq[-1])
        if not r:
            break
        denom = g * h ** delta
        seq.append([c.exact_div(denom) for c in r])
        g = seq[-2][-1]
        if delta > 1:
            h = (g ** delta).exact_div(h ** (delta - 1))
        elif delta:
            h = g
        if len(r) <= 1:
            break
    return seq


def cyclotomic_poly(n: int):
    """Coefficient list (low first, ints) of the n-th cyclotomic polynomial;
    a fresh list each call, from a memoized tuple."""
    return list(_cyclotomic(n))


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple:
    """Phi_n = prod_{d | n} (X^d - 1)^mu(n/d), the Moebius inversion of
    X^n - 1 = prod_{d | n} Phi_d, on int lists: d = n / (a product of
    distinct primes of n), and mu(n/d) = 1 (multiplied in first) or -1
    (divided out from the top down, exactly) by the parity of their number."""
    ups, downs = [n], []
    for p in range(2, n + 1):
        if not n % p and all(p % q for q in range(2, p)):
            ups, downs = (ups + [d // p for d in downs],
                          downs + [d // p for d in ups])
    phi = [1]
    for d in ups:
        phi = _times_binomial(phi, d)
    for d in downs:
        quo = phi[d:]
        for k in range(len(quo) - 1, d - 1, -1):
            quo[k - d] += quo[k]
        if any(c + (quo[k] if k < len(quo) else 0)
               for k, c in enumerate(phi[:d])):
            raise VerificationError("cyclotomic division by X^%d - 1 must be "
                                    "exact" % d, phi)
        phi = quo
    return tuple(phi)


def _times_binomial(a: list, d: int) -> list:
    """The int list a (low degree first) times X^d - 1: shift, subtract."""
    return [(a[k - d] if k >= d else 0) - (a[k] if k < len(a) else 0)
            for k in range(len(a) + d)]
