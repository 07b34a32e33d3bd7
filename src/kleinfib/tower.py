"""The witness rings over Q, with exact element arithmetic.

A tower is one of Q, Q(zeta_M), Q[s, 1/s] and Q(zeta_M)[s, 1/s]: the value
(M, var), built by ``FieldTower.rationals()`` or ``cyclotomic(M)`` and at
most one ``extend_ratfunc(var)``.  Its ``steps`` list the extensions of Q:

* ``algebraic`` -- adjoin zeta_M, a root of the cyclotomic polynomial Phi_M,
* ``ratfunc``   -- adjoin a transcendental s and its inverse (the Laurent
  polynomials in s).

Every witness lives on the generic fibre with t = s^N / c, so its
coordinates are Laurent polynomials in s and the only divisors met are
constants and powers of s.  The ratfunc step is therefore the Laurent ring,
not the field Q(zeta_M)(s): its units are the monomials c*s^k, and
``invert`` refuses any other element with ValueError.

Elements are represented recursively: a level-0 element is a Fraction; an
element at either step is a sparse ``{exponent: coefficient}`` dict over the
level below, without zero coefficients.  At the algebraic step it is reduced
modulo Phi_M; at the ratfunc step exponents may be negative.  Both forms are
canonical, so equality is structural.  The coefficient-dict arithmetic is
the sparse core of :mod:`kleinfib.univariate`.

``FieldTower.lift`` is the one coercion into a tower.  It and same-level
arithmetic refuse, with ValueError, an element whose field at its level is
not the tower's field at that level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .univariate import (_is0, _inv, _padd, _pdeg, _pmul, _pneg, _poly_repr,
                         _pxgcd, cyclotomic_poly)


class ZeroDivisorError(ArithmeticError):
    """Inversion met a zero divisor: the relation is reducible.  Phi_M is
    irreducible, so reaching this is a bug."""


@dataclass(frozen=True)
class Step:
    kind: str                      # "algebraic" | "ratfunc" (Laurent)
    name: str
    minpoly: Optional[tuple] = None  # Phi_M as Fractions c0..cd (monic)


class FieldTower:
    """Q, Q(zeta_M), Q[s, 1/s] or Q(zeta_M)[s, 1/s], as the value (M, var)."""

    def __init__(self, M=None, var=None):
        self.M, self.var = M, var
        steps, fields = [], [(None, None)]   # fields[level] as (M, var)
        if M is not None:
            steps.append(Step("algebraic", "z%d" % M,
                              tuple(Fraction(c) for c in cyclotomic_poly(M))))
            fields.append((M, None))
        if var is not None:
            steps.append(Step("ratfunc", var))
            fields.append((M, var))
        self.steps, self._fields = tuple(steps), tuple(fields)

    @classmethod
    def rationals(cls):
        return cls()

    def extend_ratfunc(self, name):
        """This field with the transcendental `name` adjoined (only one)."""
        if self.var is not None:
            raise ValueError("%r already has the rational-function variable"
                             " %r" % (self, self.var))
        return FieldTower(self.M, name)

    # -- level-element plumbing ------------------------------------------

    def _check(self, x):
        """Refuse the element x if its field is not ours at its level."""
        if x.tower._fields[x.level] != self._fields[x.level]:
            raise ValueError("an element of %r is not in %r" % (x.tower, self))

    def _as_level(self, x, level):
        """Coerce x (int/Fraction/FieldElement of lower level) to a raw
        coefficient at `level` (Fraction if level 0, else FieldElement)."""
        if isinstance(x, int):
            x = Fraction(x)
        if isinstance(x, Fraction):
            cur = x
            for lv in range(1, level + 1):
                cur = self._wrap(cur, lv)
            return cur
        if isinstance(x, FieldElement):
            if x.level > level:
                raise ValueError("cannot lower element level")
            if x.tower is not self:
                self._check(x)
            val = x.payload if x.level == 0 else x
            for lv in range(x.level + 1, level + 1):
                val = self._wrap(val, lv)
            return val
        raise TypeError("cannot coerce %r" % (x,))

    def _wrap(self, lower, level):
        """Embed a raw level-1 coefficient one step up, returning FieldElement."""
        return FieldElement(self, level, {0: lower} if not _is0(lower) else {})

    # -- public element constructors --------------------------------------

    @property
    def level(self):
        return len(self.steps)

    def zero(self):
        return self._elem(self._as_level(Fraction(0), self.level))

    def one(self):
        return self._elem(self._as_level(Fraction(1), self.level))

    def from_fraction(self, q):
        return self._elem(self._as_level(Fraction(q), self.level))

    def _elem(self, raw):
        if isinstance(raw, FieldElement):
            return raw
        return FieldElement(self, 0, raw) if self.level == 0 else raw

    def gen(self, name):
        """The generator adjoined under `name`, lifted to the top level."""
        for i, step in enumerate(self.steps):
            if step.name == name:
                lv = i + 1
                payload = {1: self.one_at(lv - 1)}
                if step.kind == "algebraic":
                    payload = _alg_reduce(payload, step.minpoly)
                el = FieldElement(self, lv, payload)
                return self._as_level(el, self.level)
        raise KeyError(name)

    def lift(self, x):
        """The one coercion: an int, a Fraction or an element of a subfield
        of this tower, as a top-level element."""
        return self._elem(self._as_level(x, self.level))

    def one_at(self, level):
        """One as a raw coefficient at `level` (a Fraction at level 0)."""
        return self._as_level(Fraction(1), level)

    def __eq__(self, other):
        return isinstance(other, FieldTower) and \
            (self.M, self.var) == (other.M, other.var)

    def __hash__(self):
        return hash((self.M, self.var))

    def __repr__(self):
        if not self.steps:
            return "QQ"
        return "QQ(" + ", ".join(s.name for s in self.steps) + ")"


class FieldElement:
    __slots__ = ("tower", "level", "payload")

    def __init__(self, tower, level, payload):
        self.tower = tower
        self.level = level
        self.payload = payload

    # -- basics -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.payload == 0 if self.level == 0 else not self.payload

    def payload_one(self):
        return self.tower.one_at(self.level - 1)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            raw = self.tower._as_level(Fraction(other), self.level)
            return raw if isinstance(raw, FieldElement) else \
                FieldElement(self.tower, 0, raw)
        if isinstance(other, FieldElement):
            if other.level == self.level:
                if other.tower is not self.tower:
                    self.tower._check(other)
                return other
            if other.level < self.level:
                return self.tower._as_level(other, self.level)
            raise ValueError("level mismatch")
        return NotImplemented

    def _make(self, payload):
        return FieldElement(self.tower, self.level, payload)

    def _step(self):
        return self.tower.steps[self.level - 1]

    # -- ring ops -----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.level == 0:
            return self._make(self.payload + other.payload)
        return self._make(_padd(self.payload, other.payload))

    __radd__ = __add__

    def __neg__(self):
        if self.level == 0:
            return self._make(-self.payload)
        return self._make(_pneg(self.payload))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.level == 0:
            return self._make(self.payload * other.payload)
        prod = _pmul(self.payload, other.payload)
        step = self._step()
        if step.kind == "ratfunc":
            return self._make(prod)
        return self._make(_alg_reduce(prod, step.minpoly))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        return self.invert() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        result = self._coerce(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def invert(self):
        if self.is_zero():
            raise ZeroDivisionError("inverting zero element")
        if self.level == 0:
            return self._make(Fraction(1) / self.payload)
        step = self._step()
        if step.kind == "ratfunc":
            if len(self.payload) != 1:
                raise ValueError("%r is not a unit of the Laurent ring %r: "
                                 "only monomials c*%s^k invert"
                                 % (self, self.tower, step.name))
            (k, c), = self.payload.items()
            return self._make({-k: _inv(c)})
        mod = {i: c for i, c in enumerate(step.minpoly) if not _is0(c)}
        g, u, _v = _pxgcd(self.payload, mod)
        if _pdeg(g) > 0:
            raise ZeroDivisorError(
                "relation for %r is reducible; found factor of degree %d"
                % (step.name, _pdeg(g)))
        # g == 1, so u * self == 1 mod relation
        return self._make(_alg_reduce(u, step.minpoly))

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash(_hash_key(self))

    def __bool__(self):
        return not self.is_zero()

    # -- embedding ----------------------------------------------------------

    def as_complex(self, env: dict) -> complex:
        """Numeric embedding; env maps generator names to complex values."""
        if self.level == 0:
            return complex(self.payload)
        g = env[self._step().name]
        return sum(_coeff_complex(c, env) * g ** k for k, c in self.payload.items())

    def __repr__(self):
        if self.level == 0:
            return str(self.payload)
        name = self._step().name
        m = -min(self.payload, default=0)
        if m <= 0:
            return _poly_repr(self.payload, name)
        # a negative exponent prints as (num)/(s^m), num with a constant term
        num = {k + m: c for k, c in self.payload.items()}
        return "(%s)/(%s)" % (_poly_repr(num, name),
                              _poly_repr({m: self.payload_one()}, name))


def _hash_key(c):
    """A key that agrees with ==: an element equal to a constant of a lower
    level (down to a Fraction) has the key of that constant; any other
    element is keyed by its canonical payload at the level where it stops
    being constant."""
    while isinstance(c, FieldElement) and c.level:
        if c.payload.keys() - {0}:
            return (c.level,) + tuple(
                sorted((k, _hash_key(v)) for k, v in c.payload.items()))
        c = c.payload.get(0, Fraction(0))
    return c.payload if isinstance(c, FieldElement) else c


def _coeff_complex(c, env):
    return complex(c) if isinstance(c, Fraction) else c.as_complex(env)


def _alg_reduce(poly, minpoly):
    """Reduce a coefficient dict modulo a monic relation (coeff tuple c0..cd)."""
    d = len(minpoly) - 1
    poly = dict(poly)
    while poly and _pdeg(poly) >= d:
        k = _pdeg(poly)
        c = poly.pop(k)
        # subtract c * x^(k-d) * (minpoly - x^d), i.e. add -c * lower part
        for i, mc in enumerate(minpoly[:-1]):
            if _is0(mc):
                continue
            kk = k - d + i
            s = poly.get(kk)
            term = c * mc
            s = -term if s is None else s - term
            if _is0(s):
                poly.pop(kk, None)
            else:
                poly[kk] = s
    return poly


# ---------------------------------------------------------------------------
# the constants of every witness field

def cyclotomic(M: int) -> FieldTower:
    """Q(zeta_M): one algebraic step named "z<M>" with relation Phi_M.  Each
    witness field is this tower plus one ratfunc step s, with t = s^N / c."""
    return FieldTower(M)


def root_of_unity(tower: FieldTower, k: int) -> FieldElement:
    """zeta_k = zeta_M^(M/k) at the top of a tower over Q(zeta_M); k must
    divide M (i = zeta_4, zeta_3, ...)."""
    M = tower.M
    if M is None or M % k:
        raise ValueError("zeta_%d is not in %r" % (k, tower))
    return tower.gen("z%d" % M) ** (M // k)
