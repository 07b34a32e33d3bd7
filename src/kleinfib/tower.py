"""The witness rings over Q, with exact element arithmetic.

A tower is one of Q, Q(zeta_M), Q[s, 1/s] and Q(zeta_M)[s, 1/s]: the value
(M, var), built by ``FieldTower.rationals()`` or ``cyclotomic(M)`` and at
most one ``extend_ratfunc(var)``.

Every witness lives on the generic fibre with t = s^N / c, so its
coordinates are Laurent polynomials in s and the only divisors met are
constants and powers of s.  The ratfunc step is therefore the Laurent ring,
not the field Q(zeta_M)(s): its units are the monomials c*s^k, and
``invert`` refuses any other element with ValueError.

Every element has one flat, canonical form, its ``payload`` ``(terms,
den)``: ``terms`` maps each exponent k of s (only 0 without s) to the
numerator of its coefficient, phi(M) ints in the basis 1, zeta, ...,
reduced modulo the integer Phi_M (one int over Q), and keeps no zero tuple;
``den`` > 0 is one common denominator, in lowest terms.  Equality is thus
structural.  A product convolves the int tuples, reduces them and takes one
gcd; an irrational c in Q(zeta_M) is inverted as the product of its Galois
conjugates sigma_j(c), j in (Z/M)^* other than 1, over its norm N(c).

``FieldTower.lift`` is the one coercion into a tower.  It and arithmetic
refuse, with ValueError, an element of a tower that is not Q, the tower
itself or, below Q(zeta_M)[s, 1/s], Q(zeta_M).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .univariate import cyclotomic_poly


class ZeroDivisorError(ArithmeticError):
    """Inversion met a zero divisor: a norm is not a positive rational, so
    the relation is reducible.  Phi_M is irreducible: reaching this is a bug."""


class _Ring:
    """The integer arithmetic of Z[zeta_M] in the power basis: phi the ints
    c0..cd of Phi_M (monic), d its degree, low the (i, c) for its nonzero
    c_i below degree d, powers the zeta^i reduced for i in range(M), units
    the j in (Z/M)^* other than 1."""

    def __init__(self, M, phi, powers, units):
        self.M, self.phi, self.d, self.powers, self.units = \
            M, phi, len(phi) - 1, powers, units
        self.low = tuple((i, c) for i, c in enumerate(phi[:-1]) if c)

    def reduce(self, w):
        """The int list w (any length >= d) as a tuple modulo Phi_M."""
        d = self.d
        for k in range(len(w) - 1, d - 1, -1):
            c = w[k]
            if c:
                for i, p in self.low:
                    w[k - d + i] -= c * p
        return tuple(w[:d])

    @staticmethod
    def convolve(u, v, w):
        """w plus the product of the int tuples u, v, unreduced.  Most
        operands are sparse (a power of zeta times a rational)."""
        nz = [(j, y) for j, y in enumerate(v) if y]
        for i, x in enumerate(u):
            if x:
                for j, y in nz:
                    w[i + j] += x * y
        return w

    def mul(self, u, v):
        """The product of two int tuples, reduced."""
        return self.reduce(self.convolve(u, v, [0] * (2 * self.d - 1)))

    def conjugate(self, v, j):
        """sigma_j(v), zeta -> zeta^j, for the int tuple v, reduced."""
        out = [0] * self.d
        for i, x in enumerate(v):
            if x:
                for m, y in enumerate(self.powers[i * j % self.M]):
                    out[m] += x * y
        return tuple(out)


@lru_cache(maxsize=None)
def _ring(M):
    phi = tuple(cyclotomic_poly(M))
    ring = _Ring(M, phi, [(1,) + (0,) * (len(phi) - 2)],
                 tuple(j for j in range(2, M) if gcd(j, M) == 1))
    for _ in range(M - 1):
        ring.powers.append(ring.reduce([0, *ring.powers[-1]]))
    return ring


class FieldTower:
    """Q, Q(zeta_M), Q[s, 1/s] or Q(zeta_M)[s, 1/s], as the value (M, var)."""

    def __init__(self, M=None, var=None):
        self.M, self.var = M, var
        self._ring = _ring(1 if M is None else M)
        self._zeros = (0,) * (self._ring.d - 1)

    @classmethod
    def rationals(cls):
        return cls()

    def extend_ratfunc(self, name):
        """This field with the transcendental `name` adjoined (only one)."""
        if self.var is not None:
            raise ValueError("%r already has the rational-function variable"
                             " %r" % (self, self.var))
        return FieldTower(self.M, name)

    # -- payloads -----------------------------------------------------------

    def _const(self, q):
        """The payload of the int or Fraction q."""
        n, den = (q, 1) if isinstance(q, int) else (q.numerator, q.denominator)
        return ({0: (n,) + self._zeros}, den) if n else ({}, 1)

    def _payload_of(self, x):
        """The payload of the element x here; refuses any x whose tower is
        not Q, this tower or its subfield Q(zeta_M)."""
        T = x.tower
        if T == self or (T.var is None and T.M == self.M):
            return x.payload
        if T.M is None and T.var is None:
            terms, den = x.payload
            return ({0: terms[0] + self._zeros}, den) if terms else ({}, 1)
        raise ValueError("an element of %r is not in %r" % (T, self))

    def _elem(self, terms, den):
        """The element with numerators `terms` over den > 0, in lowest terms."""
        g = den
        for v in terms.values():
            g = gcd(g, *v)
            if g == 1:
                return FieldElement(self, (terms, den))
        return FieldElement(self, ({k: tuple(x // g for x in v)
                                    for k, v in terms.items()}, den // g))

    # -- public element constructors ----------------------------------------

    def zero(self):
        return FieldElement(self, ({}, 1))

    def one(self):
        return FieldElement(self, self._const(1))

    def from_fraction(self, q):
        return FieldElement(self, self._const(Fraction(q)))

    def gen(self, name):
        """The generator adjoined under `name`."""
        if name == self.var:
            return FieldElement(self, ({1: (1,) + self._zeros}, 1))
        if self.M is not None and name == "z%d" % self.M:
            return FieldElement(self, ({0: self._ring.powers[1 % self.M]}, 1))
        raise KeyError(name)

    def lift(self, x):
        """The one coercion: an int, a Fraction or an element of a subfield
        of this tower, as an element of this tower."""
        if isinstance(x, FieldElement):
            return x if x.tower is self else \
                FieldElement(self, self._payload_of(x))
        if isinstance(x, (int, Fraction)):
            return FieldElement(self, self._const(x))
        raise TypeError("cannot coerce %r" % (x,))

    def __eq__(self, other):
        return isinstance(other, FieldTower) and \
            (self.M, self.var) == (other.M, other.var)

    def __hash__(self):
        return hash((self.M, self.var))

    def __repr__(self):
        names = [n for n in (self.M and "z%d" % self.M, self.var) if n]
        return "QQ(%s)" % ", ".join(names) if names else "QQ"


def _add(tower, p, q, sign):
    """p + sign*q for payloads p, q of `tower`."""
    (a, da), (b, db) = p, q
    den = da // gcd(da, db) * db
    ma, mb = den // da, sign * den // db
    out = {k: tuple(ma * x for x in v) for k, v in a.items()} if ma > 1 \
        else dict(a)
    for k, v in b.items():
        w = out.get(k)
        if w is None:
            out[k] = tuple(mb * y for y in v)
        else:
            w = tuple(x + mb * y for x, y in zip(w, v))
            if any(w):
                out[k] = w
            else:
                del out[k]
    return tower._elem(out, den)


def _mul(tower, p, q):
    """The product of the payloads p, q of `tower`."""
    (a, da), (b, db) = p, q
    ring = tower._ring
    if len(a) == 1 and len(b) == 1:
        (ka, u), = a.items()
        (kb, v), = b.items()
        return tower._elem({ka + kb: ring.mul(u, v)}, da * db)
    acc = {}
    for ka, u in a.items():
        for kb, v in b.items():
            w = acc.get(ka + kb)
            if w is None:
                w = acc[ka + kb] = [0] * (2 * ring.d - 1)
            ring.convolve(u, v, w)
    out = {}
    for k, w in acc.items():
        w = ring.reduce(w)
        if any(w):
            out[k] = w
    return tower._elem(out, da * db)


def _cyclotomic_inverse(v, ring):
    """(w, n) with v*w = n in Z[zeta_M] for the irrational int tuple v: w is
    the product of the conjugates sigma_j(v), j in (Z/M)^* other than 1, and
    n = N(v) > 0, as Q(zeta_M), M > 2, has no real embedding."""
    w = None
    for j in ring.units:
        conj = ring.conjugate(v, j)
        w = conj if w is None else ring.mul(w, conj)
    norm = ring.mul(v, w)
    if norm[0] <= 0 or any(norm[1:]):
        raise ZeroDivisorError("the norm of %r in Q(zeta_%d) is not a positive"
                               " rational: %r" % (v, ring.M, norm))
    return w, norm[0]


class FieldElement:
    __slots__ = ("tower", "payload")

    def __init__(self, tower, payload):
        self.tower = tower
        self.payload = payload

    # -- basics -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.payload[0]

    def _coerce(self, other):
        """The payload of `other` in this tower, or NotImplemented."""
        if isinstance(other, FieldElement):
            if other.tower is self.tower:
                return other.payload
            return self.tower._payload_of(other)
        if isinstance(other, (int, Fraction)):
            return self.tower._const(other)
        return NotImplemented

    # -- ring ops -----------------------------------------------------------

    def __add__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return _add(self.tower, self.payload, p, 1)

    __radd__ = __add__

    def __neg__(self):
        terms, den = self.payload
        return FieldElement(self.tower, ({k: tuple(-x for x in v)
                                          for k, v in terms.items()}, den))

    def __sub__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return _add(self.tower, self.payload, p, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return _mul(self.tower, self.payload, p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction, FieldElement)):
            return NotImplemented
        return self * self.tower.lift(other).invert()

    def __rtruediv__(self, other):
        return self.invert() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        T = self.tower
        result, base = T._const(1), self.payload
        while n:
            if n & 1:
                result = _mul(T, result, base).payload
            n >>= 1
            if n:
                base = _mul(T, base, base).payload
        return FieldElement(T, result)

    def powers(self, n: int) -> list:
        """[self^0, ..., self^(n-1)], n >= 1, by one product each."""
        out = [self.tower.one(), self]
        while len(out) < n:
            out.append(out[-1] * self)
        return out[:n]

    def rotate(self, e: int):
        """sigma_e(self), sigma_e: s -> zeta_M^e s fixing Q(zeta_M)."""
        ring, (terms, den) = self.tower._ring, self.payload
        return self.tower._elem({k: ring.mul(v, ring.powers[e * k % ring.M])
                                 for k, v in terms.items()}, den)

    def conjugate(self, j: int):
        """sigma_j(self), sigma_j: zeta_M -> zeta_M^j fixing s, j a unit
        mod M: the Galois conjugate, on each coefficient of s."""
        ring, (terms, den) = self.tower._ring, self.payload
        return FieldElement(self.tower, ({k: ring.conjugate(v, j)
                                          for k, v in terms.items()}, den))

    def evaluate(self, value):
        """self at s = value, an element of a tower over the same Q(zeta_M):
        the sum of c_k value^k over the coefficients c_k of s^k."""
        T, (terms, den) = value.tower, self.payload
        return sum((T._elem({0: v}, den) * value ** k
                    for k, v in terms.items()), T.zero())

    def invert(self):
        terms, den = self.payload
        if not terms:
            raise ZeroDivisionError("inverting zero element")
        T = self.tower
        if len(terms) != 1:
            raise ValueError("%r is not a unit of the Laurent ring %r: "
                             "only monomials c*%s^k invert" % (self, T, T.var))
        (k, v), = terms.items()
        if any(v[1:]):
            w, n = _cyclotomic_inverse(v, T._ring)
        else:
            w, n = (1 if v[0] > 0 else -1,) + v[1:], abs(v[0])
        return T._elem({-k: tuple(den * x for x in w)}, n)

    def __eq__(self, other):
        try:
            p = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        if p is NotImplemented:
            return NotImplemented
        return self.payload == p

    def __hash__(self):
        """A constant hashes as its Fraction, any other element by its
        payload, which `lift` leaves unchanged."""
        terms, den = self.payload
        v = terms.get(0)
        if not terms or v is not None and len(terms) == 1 and not any(v[1:]):
            return hash(Fraction(v[0], den) if terms else 0)
        return hash((tuple(sorted(terms.items())), den))

    def __bool__(self):
        return not self.is_zero()

    # -- embedding ----------------------------------------------------------

    def as_complex(self, env: dict) -> complex:
        """Numeric embedding; env maps generator names to complex values.
        Sums run over ascending exponents."""
        terms, den = self.payload
        M, var = self.tower.M, self.tower.var
        if M is None:
            def coeff(v):
                return complex(v[0] / den)
        else:
            z = env["z%d" % M]

            def coeff(v):
                return sum(complex(x / den) * z ** i
                           for i, x in enumerate(v) if x)
        s = 1 if var is None else env[var]
        return sum(coeff(terms[k]) * s ** k for k in sorted(terms))

    def __repr__(self):
        terms, den = self.payload
        M, var = self.tower.M, self.tower.var
        if M is None:
            def coeff(v):
                return str(Fraction(v[0], den))
        else:
            def coeff(v):
                return _poly_repr({i: Fraction(x, den)
                                   for i, x in enumerate(v) if x}, "z%d" % M)
        if var is None:
            return coeff(terms[0]) if terms else "0"
        m = -min(terms, default=0)
        if m <= 0:
            return _poly_repr({k: coeff(v) for k, v in terms.items()}, var)
        # a negative exponent prints as (num)/(s^m), num with a constant term
        num = {k + m: coeff(v) for k, v in terms.items()}
        one = "1" if M is None else "(1)"
        return "(%s)/(%s)" % (_poly_repr(num, var), _poly_repr({m: one}, var))


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


def _coeff_complex(c, env):
    return complex(c) if isinstance(c, Fraction) else c.as_complex(env)


# ---------------------------------------------------------------------------
# the constants of every witness field

def cyclotomic(M: int) -> FieldTower:
    """Q(zeta_M): one algebraic step named "z<M>" with relation Phi_M.  Each
    witness field is this tower plus one ratfunc step s, with t = s^N / c."""
    return FieldTower(M)


def root_of_unity(tower: FieldTower, k: int) -> FieldElement:
    """zeta_k = zeta_M^(M/k) in a tower over Q(zeta_M); k must divide M
    (i = zeta_4, zeta_3, ...)."""
    M = tower.M
    if M is None or M % k:
        raise ValueError("zeta_%d is not in %r" % (k, tower))
    return tower.gen("z%d" % M) ** (M // k)
