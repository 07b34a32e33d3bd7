"""Univariate polynomial toolkit over :class:`~kleinfib.multipoly.MultiPoly`:
the one univariate core of the package.

A univariate polynomial over Q is a MultiPoly in one named variable (over
Q it is flat, int numerators over one common denominator, so everything
below runs fraction-free on ints).  Here are the derivative, Sturm's
real-root counts by ``reduce_mod``, and the pseudo-remainders and
subresultant PRS of the elimination chains (Brown and Traub 1971).
Coefficient lists over Q, low degree first, are read and written only at
the edges (``to_multipoly``, ``curves.residual_coefficients``): the
displayed residual polynomials and the field towers keep that form.  One
computation runs on lists: the cyclotomic polynomials are int lists,
products and exact quotients of binomials X^d - 1.
"""

from __future__ import annotations

from functools import lru_cache

from .base import VerificationError
from .multipoly import MultiPoly


def to_multipoly(coeffs) -> MultiPoly:
    """The MultiPoly in X with the coefficient list coeffs (ints or
    Fractions, low degree first)."""
    return MultiPoly(("X",), {(k,): c for k, c in enumerate(coeffs)})


def derivative(p: MultiPoly, name: str) -> MultiPoly:
    """The partial derivative of p in `name`."""
    i = p.vars.index(name)
    out = {}
    for e, c in p.terms.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
    return MultiPoly(p.vars, out)


# ---------------------------------------------------------------------------
# Sturm chains / real-root counting


def _variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(coeffs) -> int:
    """Number of distinct real roots of the polynomial with the coefficient
    list coeffs (ints or Fractions, low degree first): the sign variations
    of its Sturm chain f, f', -rem, ... at -oo less those at +oo.  The chain
    ends in gcd(f, f'), so each distinct root counts once."""
    f = to_multipoly(coeffs)
    chain = [f, derivative(f, "X")]
    while not chain[-1].is_zero():
        chain.append(-chain[-2].reduce_mod(chain[-1], "X"))
    at_plus, at_minus = [], []
    for p in chain[:-1]:
        d = p.degree("X")
        lead = p.coeff_of("X", d).constant()
        s = (lead > 0) - (lead < 0)
        at_plus.append(s)
        at_minus.append(s * (-1) ** d)
    return _variations(at_minus) - _variations(at_plus)


# ---------------------------------------------------------------------------
# subresultant PRS over polynomial coefficients (MultiPoly)


def prem(A: MultiPoly, B: MultiPoly, name: str) -> MultiPoly:
    """Pseudo-remainder: lc(B)^(deg A - deg B + 1) * A = Q*B + prem."""
    dB = B.degree(name)
    if dB < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    lB = B.coeff_of(name, dB)
    R = A
    e = A.degree(name) - dB + 1
    i = A.vars.index(name)
    while not R.is_zero() and R.degree(name) >= dB:
        dR = R.degree(name)
        S = R.coeff_of(name, dR)
        shift = [0] * len(A.vars)
        shift[i] = dR - dB
        R = lB * R - S.shift(shift) * B
        e -= 1
    for _ in range(e):
        R = lB * R
    return R


def subresultant_prs(A: MultiPoly, B: MultiPoly, name: str):
    """The Brown-Traub subresultant pseudo-remainder sequence [A, B, R1,
    R2, ...] up to the first zero pseudo-remainder or constant member."""
    seq = [A, B]
    g = MultiPoly.const(A.vars, 1)
    h = MultiPoly.const(A.vars, 1)
    while True:
        dA, dB = seq[-2].degree(name), seq[-1].degree(name)
        if dB < 0:
            break
        delta = dA - dB
        R = prem(seq[-2], seq[-1], name)
        if R.is_zero():
            break
        denom = g * h ** delta
        R = R.exact_div(denom)
        seq.append(R)
        g = seq[-2].coeff_of(name, seq[-2].degree(name))
        if delta > 0:
            h = (g ** delta).exact_div(h ** (delta - 1)) if delta > 1 else g
        if seq[-1].degree(name) <= 0:
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
