"""Univariate polynomial toolkit: the one univariate core of the package.

Three representations share it:

* sparse ``{exp: coeff}`` dicts over one field level (Fraction, or a
  :class:`~kleinfib.tower.FieldElement`) -- the ``_p*`` helpers, on which
  the field towers do their arithmetic;
* dense coefficient lists, low degree first, over a field -- division, gcd,
  resultants and Sturm chains; division and gcd run on the sparse helpers;
* polynomial coefficients -- the subresultant pseudo-remainder sequence over
  :class:`~kleinfib.multipoly.MultiPoly`, used by the elimination chains.

Real-root counting (Sturm) works over any ordered coefficient field, i.e.
Fractions or tower elements whose ``sign()`` is defined (such as Q(sqrt3)).
"""

from __future__ import annotations

from fractions import Fraction

from .multipoly import MultiPoly


# ---------------------------------------------------------------------------
# coefficient helpers (work on Fractions at level 0, FieldElements above)

def _is0(c) -> bool:
    return c == 0 if isinstance(c, Fraction) else c.is_zero()


def _inv(c):
    if isinstance(c, Fraction):
        if c == 0:
            raise ZeroDivisionError("inverting zero")
        return Fraction(1) / c
    return c.invert()


# sparse polynomials as {exp: coeff} dicts over one field level

def _pnorm(d):
    return {k: v for k, v in d.items() if not _is0(v)}


def _pdeg(d):
    return max(d) if d else -1


def _padd(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k)
        s = v if s is None else s + v
        if _is0(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _pneg(a):
    return {k: -v for k, v in a.items()}


def _psub(a, b):
    return _padd(a, _pneg(b))


def _pmul(a, b):
    out: dict = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = k1 + k2
            p = v1 * v2
            s = out.get(k)
            s = p if s is None else s + p
            if _is0(s):
                out.pop(k, None)
            else:
                out[k] = s
    return out


def _pscale(a, c):
    if _is0(c):
        return {}
    return {k: c * v for k, v in a.items()}


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = _pdeg(b)
    inv_lc = _inv(b[db])
    q: dict = {}
    r = dict(a)
    while r and _pdeg(r) >= db:
        dr = _pdeg(r)
        c = r[dr] * inv_lc
        q[dr - db] = c
        for k, v in b.items():
            kk = dr - db + k
            s = r.get(kk)
            s = -(c * v) if s is None else s - c * v
            if _is0(s):
                r.pop(kk, None)
            else:
                r[kk] = s
    return q, r


def _pmonic(a):
    if not a:
        return a
    lc = a[_pdeg(a)]
    return _pscale(a, _inv(lc))


def _pgcd(a, b):
    a, b = dict(a), dict(b)
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return _pmonic(a)


def _pxgcd(a, b):
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = dict(a), dict(b)
    one = _sample_one(a, b)
    s0, s1 = {0: one}, {}
    t0, t1 = {}, {0: one}
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1))
        t0, t1 = t1, _psub(t0, _pmul(q, t1))
    if r0:
        lc = r0[_pdeg(r0)]
        ilc = _inv(lc)
        r0, s0, t0 = _pscale(r0, ilc), _pscale(s0, ilc), _pscale(t0, ilc)
    return r0, s0, t0


def _sample_one(*polys):
    for p in polys:
        for v in p.values():
            if isinstance(v, Fraction):
                return Fraction(1)
            return v.tower.one_at(v.level)
    return Fraction(1)



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



# ---------------------------------------------------------------------------
# dense list representation over a field


def normalize(f):
    f = list(f)
    while f and _is0(f[-1]):
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


def eval_poly(f, x):
    acc = None
    for c in reversed(f):
        acc = c if acc is None else acc * x + c
    if acc is None:
        return Fraction(0) if isinstance(x, (int, Fraction)) else x * 0
    return acc


def _sparse(f):
    return {k: c for k, c in enumerate(f) if not _is0(c)}


def _dense(d):
    zero = d[_pdeg(d)] * 0 if d else None
    return [d.get(k, zero) for k in range(_pdeg(d) + 1)]


def poly_divmod(f, g):
    """Division with remainder over a field; returns (q, r)."""
    q, r = _pdivmod(_sparse(f), _sparse(g))
    return _dense(q), _dense(r)


def poly_gcd(f, g):
    """Monic gcd over a field."""
    return _dense(_pgcd(_sparse(f), _sparse(g)))


def derivative(f):
    return normalize([c * k for k, c in enumerate(f)][1:])


def squarefree_part(f):
    """f / gcd(f, f'), monic."""
    f = normalize(f)
    g = poly_gcd(f, derivative(f))
    q, r = poly_divmod(f, g)
    assert not r
    ilc = _inv(q[-1])
    return [c * ilc for c in q]


def resultant(f, g):
    """Resultant over a field (Euclidean recursion)."""
    f, g = normalize(f), normalize(g)
    one = Fraction(1)
    for c in f + g:
        one = c * 0 + 1 if not isinstance(c, Fraction) else Fraction(1)
        break
    if not f or not g:
        return one * 0
    if degree(g) == 0:
        return g[0] ** degree(f) if degree(f) > 0 else one
    if degree(f) == 0:
        return f[0] ** degree(g)
    r = poly_divmod(f, g)[1]
    sign = -1 if (degree(f) % 2 and degree(g) % 2) else 1
    if not r:
        return one * 0
    tail = resultant(g, r)
    return tail * g[-1] ** (degree(f) - degree(r)) * sign


def discriminant(f):
    f = normalize(f)
    n = degree(f)
    res = resultant(f, derivative(f))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return res * _inv(f[-1]) * sign


# ---------------------------------------------------------------------------
# Sturm chains / real-root counting


def _sign(c) -> int:
    if isinstance(c, (int, Fraction)):
        return (c > 0) - (c < 0)
    return c.sign()


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


def _sign_at(f, x):
    if x == "-inf":
        return _sign(f[-1]) * (-1 if degree(f) % 2 else 1) if f else 0
    if x == "+inf":
        return _sign(f[-1]) if f else 0
    return _sign(eval_poly(f, x))


def count_real_roots(f, lo="-inf", hi="+inf"):
    """Number of distinct real roots of f in (lo, hi].

    Endpoints are rationals or the strings "-inf"/"+inf".  Coefficients must
    live in an ordered field (Fraction, or tower elements with sign()).
    """
    f = normalize(f)
    if degree(f) <= 0:
        return 0
    f = squarefree_part(f)
    chain = sturm_chain(f)
    va = _variations([_sign_at(p, lo) for p in chain])
    vb = _variations([_sign_at(p, hi) for p in chain])
    return va - vb


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
        xs = MultiPoly(A.vars, {tuple(shift): Fraction(1)})
        R = lB * R - S * xs * B
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
    polynomial, by dividing X^n - 1 by all lower Phi_d with d | n."""
    f = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            f, r = poly_divmod(f, cyclotomic_poly(d))
            assert not r, "cyclotomic division must be exact"
    return f
