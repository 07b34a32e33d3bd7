"""Univariate polynomial toolkit: the one univariate core of the package.

Two representations share it:

* dense coefficient lists, low degree first, over Q (Fractions) -- division,
  gcd, Sturm chains and the cyclotomic polynomials (the field towers keep
  their own flat integer form, see :mod:`kleinfib.tower`);
* polynomial coefficients -- pseudo-remainders and the subresultant
  pseudo-remainder sequence over :class:`~kleinfib.multipoly.MultiPoly`,
  used by the elimination chains.  Over Q a MultiPoly is flat, int
  numerators over one common denominator, so these run fraction-free on
  ints (Brown and Traub 1971).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .base import VerificationError
from .multipoly import MultiPoly


# ---------------------------------------------------------------------------
# dense list representation over Q


def _poly_repr(d, name):
    if not d:
        return "0"
    bits = []
    for k in sorted(d, reverse=True):
        c = d[k]
        if k == 0:
            bits.append("(%s)" % (c,))
        elif k == 1:
            bits.append("(%s)*%s" % (c, name))
        else:
            bits.append("(%s)*%s^%d" % (c, name, k))
    return " + ".join(bits)


def normalize(f):
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def degree(f):
    return len(f) - 1


def from_multipoly(p: MultiPoly, name: str):
    """Coefficient list of a MultiPoly that is univariate in `name`."""
    n = p.degree(name)
    out = []
    for k in range(n + 1):
        c = p.coeff_of(name, k)
        if not c.is_constant():
            raise ValueError("polynomial is not univariate in %r" % name)
        out.append(c.constant())
    return normalize(out)


def poly_divmod(f, g):
    """Division with remainder over Q; returns (q, r)."""
    r, g = normalize(f), normalize(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    inv = Fraction(1) / g[-1]
    q = [inv * 0] * max(len(r) - len(g) + 1, 0)
    while len(r) >= len(g):
        k = len(r) - len(g)
        c = q[k] = r[-1] * inv
        for i, v in enumerate(g):
            r[k + i] -= c * v
        r = normalize(r)
    return q, r


def poly_gcd(f, g):
    """Monic gcd over Q."""
    while normalize(g):
        f, g = g, poly_divmod(f, g)[1]
    f = normalize(f)
    return [c / f[-1] for c in f]


def derivative(f):
    return normalize([c * k for k, c in enumerate(f)][1:])


def squarefree_part(f):
    """f / gcd(f, f'), monic."""
    f = normalize(f)
    g = poly_gcd(f, derivative(f))
    q, r = poly_divmod(f, g)
    if r:
        raise VerificationError("f / gcd(f, f') must be exact", r)
    return [c / q[-1] for c in q]


# ---------------------------------------------------------------------------
# Sturm chains / real-root counting


def _sign(c) -> int:
    return (c > 0) - (c < 0)


def sturm_chain(f):
    f = normalize(f)
    chain = [f, derivative(f)]
    while chain[-1]:
        r = poly_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(f):
    """Number of distinct real roots of f, whose coefficients are ints or
    Fractions: the sign variations of its Sturm chain at -oo less those at
    +oo."""
    f = normalize(f)
    if degree(f) <= 0:
        return 0
    chain = sturm_chain(squarefree_part(f))
    at_plus = [_sign(p[-1]) for p in chain]
    at_minus = [s * (-1) ** degree(p) for s, p in zip(at_plus, chain)]
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


def _subresultant_loop(A: MultiPoly, B: MultiPoly, name: str):
    """Brown-Traub subresultant loop: the sequence [A, B, R1, R2, ...] up to
    the first zero pseudo-remainder or constant member, and the final
    scaling factor h."""
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
    return seq, h


def subresultant_prs(A: MultiPoly, B: MultiPoly, name: str):
    """The subresultant pseudo-remainder sequence [A, B, R1, R2, ...]."""
    return _subresultant_loop(A, B, name)[0]


def resultant_poly(A: MultiPoly, B: MultiPoly, name: str) -> MultiPoly:
    """Resultant with respect to `name`, by the subresultant PRS.

    Returns a MultiPoly free of `name` (possibly zero).
    """
    dA, dB = A.degree(name), B.degree(name)
    if dA < 0 or dB < 0:
        return MultiPoly(A.vars)
    if dA < dB:
        r = resultant_poly(B, A, name)
        return -r if (dA % 2 and dB % 2) else r
    if dB == 0:
        return B ** dA if dA > 0 else MultiPoly.const(A.vars, 1)
    seq, h = _subresultant_loop(A, B, name)
    last = seq[-1]
    if last.degree(name) > 0:
        return MultiPoly(A.vars)
    # each step (A_k, A_{k+1}) -> A_{k+2} contributes (-1)^(d_k d_{k+1})
    degs = [p.degree(name) for p in seq]
    s = -1 if sum(d1 * d2 for d1, d2 in zip(degs[:-2], degs[1:-1])) % 2 else 1
    dA = degs[-2]
    if dA > 1:
        h = (last ** dA).exact_div(h ** (dA - 1))
    else:
        h = last ** dA
    return h.scale(s)


def cyclotomic_poly(n: int):
    """Coefficient list (low first, over Fraction) of the n-th cyclotomic
    polynomial; a fresh list each call, from a memoized tuple."""
    return list(_cyclotomic(n))


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple:
    """Phi_n, by dividing X^n - 1 by all lower Phi_d with d | n."""
    f = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            f, r = poly_divmod(f, list(_cyclotomic(d)))
            if r:
                raise VerificationError("cyclotomic division must be exact", r)
    return tuple(f)
