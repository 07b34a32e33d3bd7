"""Univariate polynomial toolkit over :class:`~kleinfib.multipoly.MultiPoly`:
the one univariate core of the package.

A univariate polynomial over Q is a MultiPoly in one named variable (over
Q it is flat, int numerators over one common denominator, so everything
below runs fraction-free on ints).  Here are the derivative, a coprimality
certificate by Euclid over F_p, p = 2^61 - 1 (``coprime_mod_p``), Sturm's
real-root counts by ``div_univariate``, and the pseudo-remainders,
subresultant PRS and resultants of the elimination chains (Brown and Traub
1971).  Coefficient lists over Q, low degree first, are read and written
only at the edges (``to_multipoly``, ``curves.residual_coefficients``): the
displayed residual polynomials and the field towers keep that form.  Two
computations run on lists: the modular test reduces its inputs to
coefficient lists over F_p, on which Euclid runs, and the cyclotomic
polynomials are int lists, products and exact quotients of binomials
X^d - 1.
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


# the prime of coprime_mod_p, the Mersenne prime 2^61 - 1
PRIME = (1 << 61) - 1


def coprime_mod_p(f: MultiPoly, g: MultiPoly, name: str, point=None) -> bool:
    """Whether Euclid over F_p, p = PRIME, certifies f and g coprime in
    `name` (over Q, or over Q(v) for the other variables v), from f and g
    at the point: each other variable v set to the int point[v].
    Hypotheses, checked here (VerificationError otherwise): p divides no
    denominator of f or g, and not the leading coefficient of f in `name`
    at the point (which so is not 0 there).  Then Res(f, g) at the point is
    a nonzero multiple of the resultant of f and g at the point, so a common
    factor of f and g, which makes Res(f, g) = 0, leaves f and g at the
    point a common factor over Q; taken primitive in Z[name], it keeps its
    degree modulo p (Gauss: p does not divide its leading coefficient,
    which divides f's).  So a unit gcd modulo p proves f and g coprime;
    False proves nothing."""
    point = point or {}
    fp = _mod_p_coeffs(f, name, point)
    if len(fp) != f.degree(name) + 1:
        raise VerificationError("coprimality modulo p: the leading "
                                "coefficient in %s is 0 modulo p at %r"
                                % (name, point), detail=f)
    return len(_gcd_mod_p(fp, _mod_p_coeffs(g, name, point))) == 1


def _mod_p_coeffs(f: MultiPoly, name: str, point) -> list:
    """The coefficient list of f in `name` at the point, modulo PRIME, high
    degree first and without leading zeros."""
    i = f.vars.index(name)
    fixed = [(j, point[v]) for j, v in enumerate(f.vars) if v in point]
    free = [j for j, v in enumerate(f.vars) if v != name and v not in point]
    out = [0] * (f.degree(name) + 1)
    for e, c in f.terms.items():
        if any(e[j] for j in free):
            raise ValueError("polynomial is not univariate in %r" % name)
        if not c.denominator % PRIME:
            raise VerificationError("coprimality modulo p: p divides a "
                                    "denominator", detail=f)
        v = c.numerator * pow(c.denominator, -1, PRIME)
        for j, x in fixed:
            if e[j]:
                v = v * pow(x, e[j], PRIME)
        out[e[i]] = (out[e[i]] + v) % PRIME
    return _strip(out[::-1])


def _strip(a: list) -> list:
    """a (high degree first) without its leading zeros."""
    k = 0
    while k < len(a) and not a[k]:
        k += 1
    return a[k:]


def _gcd_mod_p(a: list, b: list) -> list:
    """A gcd of a and b over F_p, p = PRIME, [] if both are 0: the last
    nonzero remainder of Euclid on coefficient lists (high degree first, no
    leading zeros), each division subtracting only the nonzero terms of the
    divisor."""
    while b:
        inv = pow(b[0], -1, PRIME)
        tail = [(j, c * inv % PRIME) for j, c in enumerate(b) if j and c]
        a, start = a[:], len(a) - len(b) + 1
        for i in range(start):
            q = a[i]
            if q:
                for j, c in tail:
                    a[i + j] = (a[i + j] - q * c) % PRIME
        a, b = b, _strip(a[max(start, 0):])
    return a


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
        chain.append(-chain[-2].div_univariate(chain[-1], "X")[1])
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
