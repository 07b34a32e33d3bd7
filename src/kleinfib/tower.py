"""Towers of field extensions over Q, with exact element arithmetic.

A tower is a chain of extension steps applied to Q.  Each step is one of

* ``algebraic`` -- adjoin a root of a monic polynomial over the field below,
* ``radical``   -- adjoin an N-th root of an element below (special case of
  algebraic, tagged so the relation X**N - radicand is visible),
* ``ratfunc``   -- adjoin a transcendental (field of rational functions).

Elements are represented recursively: a level-0 element is a Fraction; an
element at an algebraic/radical step is a sparse coefficient dict over the
field below, reduced modulo the relation; an element at a ratfunc step is a
(num, den) pair of coefficient dicts with den monic and gcd(num, den) = 1,
which makes the representation canonical (equality is structural).  The
coefficient-dict arithmetic is the sparse core of :mod:`kleinfib.univariate`.

Inverting modulo a reducible relation raises :class:`ZeroDivisorError`
carrying the discovered nontrivial factor of the relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .univariate import (_is0, _inv, _padd, _pdeg, _pdivmod, _pgcd, _pmul,
                         _pneg, _pnorm, _poly_repr, _pscale, _pxgcd)


class ZeroDivisorError(ArithmeticError):
    """Raised when inversion hits a zero divisor; carries the found factor."""

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor  # list of coefficient payloads (low -> high)


@dataclass(frozen=True)
class Step:
    kind: str                      # "algebraic" | "radical" | "ratfunc"
    name: str
    minpoly: Optional[tuple] = None  # coeffs c0..cd (monic, cd == 1), lower field
    radical_n: Optional[int] = None

    def degree(self):
        return len(self.minpoly) - 1 if self.minpoly else None


class FieldTower:
    def __init__(self, steps=()):
        self.steps = tuple(steps)

    @classmethod
    def rationals(cls):
        return cls(())

    # -- construction ---------------------------------------------------

    def extend_algebraic(self, name, coeffs, kind="algebraic", radical_n=None):
        """Adjoin a root of the monic polynomial with coefficients c0..cd.

        Coefficients are ints/Fractions or elements of this tower.
        """
        lifted = tuple(self._as_level(c, len(self.steps)) for c in coeffs)
        if not _is0(lifted[-1] - self._one_payload_level(len(self.steps))):
            raise ValueError("relation must be monic")
        step = Step(kind=kind, name=name, minpoly=lifted, radical_n=radical_n)
        return FieldTower(self.steps + (step,))

    def extend_radical(self, name, n, radicand):
        """Adjoin an n-th root of `radicand` (an element of this tower)."""
        rad = self._as_level(radicand, len(self.steps))
        zero = self._zero_payload_level(len(self.steps))
        one = self._one_payload_level(len(self.steps))
        coeffs = [-rad] + [zero] * (n - 1) + [one]
        return self.extend_algebraic(name, coeffs, kind="radical", radical_n=n)

    def extend_ratfunc(self, name):
        return FieldTower(self.steps + (Step(kind="ratfunc", name=name),))

    # -- level-element plumbing ------------------------------------------

    def _zero_payload_level(self, level):
        """Zero as a raw coefficient at the given level."""
        if level == 0:
            return Fraction(0)
        return FieldElement(self, level, self._zero_payload(level))

    def _one_payload_level(self, level):
        if level == 0:
            return Fraction(1)
        return FieldElement(self, level, {0: self._one_payload_level(level - 1)}
                            if self.steps[level - 1].kind != "ratfunc"
                            else ({0: self._one_payload_level(level - 1)},
                                  {0: self._one_payload_level(level - 1)}))

    def _zero_payload(self, level):
        step = self.steps[level - 1]
        if step.kind == "ratfunc":
            return ({}, {0: self._one_payload_level(level - 1)})
        return {}

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
            val = x.payload if x.level == 0 else x
            for lv in range(x.level + 1, level + 1):
                val = self._wrap(val, lv)
            return val
        raise TypeError("cannot coerce %r" % (x,))

    def _wrap(self, lower, level):
        """Embed a raw level-1 coefficient one step up, returning FieldElement."""
        step = self.steps[level - 1]
        if step.kind == "ratfunc":
            payload = ({0: lower} if not _is0(lower) else {},
                       {0: self._one_payload_level(level - 1)})
        else:
            payload = {0: lower} if not _is0(lower) else {}
        return FieldElement(self, level, payload)

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
                one_below = self._one_payload_level(lv - 1)
                if step.kind == "ratfunc":
                    payload = ({1: one_below}, {0: one_below})
                else:
                    payload = {1: one_below}
                el = FieldElement(self, lv, payload)
                return self._as_level(el, self.level)
        raise KeyError(name)

    def lift(self, x):
        """Coerce an int/Fraction/lower element to a top-level element."""
        return self._elem(self._as_level(x, self.level))

    def one_at(self, level):
        return self._as_level(Fraction(1), level)

    # -- serialization ----------------------------------------------------

    def to_data(self):
        out = []
        for step in self.steps:
            d = {"kind": step.kind, "name": step.name}
            if step.minpoly is not None:
                d["minpoly"] = [coeff_to_data(c) for c in step.minpoly]
            if step.radical_n is not None:
                d["radical_n"] = step.radical_n
            out.append(d)
        return {"steps": out}

    @classmethod
    def from_data(cls, data):
        tower = cls.rationals()
        for d in data["steps"]:
            if d["kind"] == "ratfunc":
                tower = tower.extend_ratfunc(d["name"])
            else:
                coeffs = [coeff_from_data(c, tower) for c in d["minpoly"]]
                tower = tower.extend_algebraic(
                    d["name"], coeffs, kind=d["kind"],
                    radical_n=d.get("radical_n"))
        return tower

    def __eq__(self, other):
        return isinstance(other, FieldTower) and self.to_data() == other.to_data()

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
        if self.level == 0:
            return self.payload == 0
        step = self.tower.steps[self.level - 1]
        if step.kind == "ratfunc":
            return not self.payload[0]
        return not self.payload

    def payload_one(self):
        return self.tower._one_payload_level(self.level - 1)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            raw = self.tower._as_level(Fraction(other), self.level)
            return raw if isinstance(raw, FieldElement) else \
                FieldElement(self.tower, 0, raw)
        if isinstance(other, FieldElement):
            if other.level == self.level:
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
        if self._step().kind == "ratfunc":
            n1, d1 = self.payload
            n2, d2 = other.payload
            if d1 == d2:
                return _ratfunc_make(self, _padd(n1, n2), dict(d1))
            return _ratfunc_make(self, _padd(_pmul(n1, d2), _pmul(n2, d1)),
                                 _pmul(d1, d2))
        return self._make(_padd(self.payload, other.payload))

    __radd__ = __add__

    def __neg__(self):
        if self.level == 0:
            return self._make(-self.payload)
        if self._step().kind == "ratfunc":
            n, d = self.payload
            return self._make((_pneg(n), d))
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
        step = self._step()
        if step.kind == "ratfunc":
            n1, d1 = self.payload
            n2, d2 = other.payload
            return _ratfunc_make(self, _pmul(n1, n2), _pmul(d1, d2))
        prod = _pmul(self.payload, other.payload)
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
            n, d = self.payload
            return _ratfunc_make(self, dict(d), dict(n))
        mod = {i: c for i, c in enumerate(step.minpoly) if not _is0(c)}
        g, u, _v = _pxgcd(self.payload, mod)
        if _pdeg(g) > 0:
            raise ZeroDivisorError(
                "relation for %r is reducible; found factor of degree %d"
                % (step.name, _pdeg(g)),
                factor=[coeff_to_data(g.get(i, _zero_like(g)))
                        for i in range(_pdeg(g) + 1)])
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
        # canonical representation -> hash of serialized data
        import json
        return hash(json.dumps(coeff_to_data(self), sort_keys=True))

    def __bool__(self):
        return not self.is_zero()

    # -- order / embedding --------------------------------------------------

    def sign(self) -> int:
        """Sign under the real embedding (positive roots of x^2 - c steps)."""
        if self.level == 0:
            return (self.payload > 0) - (self.payload < 0)
        step = self._step()
        if step.kind != "ratfunc" and step.degree() == 2 and _is0(step.minpoly[1]):
            c = -step.minpoly[0]  # generator g with g^2 = c, g > 0
            a = self.payload.get(0)
            b = self.payload.get(1)
            sa = a.sign() if isinstance(a, FieldElement) else _frac_sign(a)
            sb = b.sign() if isinstance(b, FieldElement) else _frac_sign(b)
            if b is None or sb == 0:
                return sa if a is not None else 0
            if a is None or sa == 0:
                return sb
            if sa == sb:
                return sa
            disc = a * a - c * b * b
            sd = disc.sign() if isinstance(disc, FieldElement) else _frac_sign(disc)
            return sa * sd
        raise ValueError("element is not in an ordered tower step")

    def as_complex(self, env: dict) -> complex:
        """Numeric embedding; env maps generator names to complex values."""
        if self.level == 0:
            return complex(self.payload)
        step = self._step()
        if step.kind == "ratfunc":
            g = env[step.name]
            num = sum(_coeff_complex(c, env) * g ** k for k, c in self.payload[0].items())
            den = sum(_coeff_complex(c, env) * g ** k for k, c in self.payload[1].items())
            return num / den
        g = env[step.name]
        return sum(_coeff_complex(c, env) * g ** k for k, c in self.payload.items())

    def __repr__(self):
        if self.level == 0:
            return str(self.payload)
        step = self._step()
        if step.kind == "ratfunc":
            n, d = self.payload
            sn = _poly_repr(n, step.name)
            if d == {0: self.payload_one()} or _pdeg(d) == 0 and d.get(0) == 1:
                return sn
            return "(%s)/(%s)" % (sn, _poly_repr(d, step.name))
        return _poly_repr(self.payload, step.name)


def _zero_like(g):
    for v in g.values():
        if isinstance(v, Fraction):
            return Fraction(0)
        return v.tower._as_level(Fraction(0), v.level)
    return Fraction(0)


def _frac_sign(q):
    if q is None:
        return 0
    return (q > 0) - (q < 0)


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


def _ratfunc_make(sample, num, den):
    """Normalize a ratfunc payload: cancel gcd, make denominator monic."""
    num, den = _pnorm(num), _pnorm(den)
    if not den:
        raise ZeroDivisionError("zero denominator in rational function")
    if not num:
        one = sample.payload_one()
        return sample._make(({}, {0: one}))
    g = _pgcd(num, den)
    if _pdeg(g) > 0:
        num = _pdivmod(num, g)[0]
        den = _pdivmod(den, g)[0]
    lc = den[_pdeg(den)]
    ilc = _inv(lc)
    num = _pscale(num, ilc)
    den = _pscale(den, ilc)
    return sample._make((num, den))


def transplant(c, tower: FieldTower):
    """Coerce a coefficient into `tower`, whose step list must extend (or
    equal) the step list of the coefficient's own tower."""
    if isinstance(c, int):
        c = Fraction(c)
    if isinstance(c, Fraction):
        return tower.lift(c)
    if not isinstance(c, FieldElement):
        raise TypeError("cannot transplant %r" % (c,))
    if c.tower is tower:
        return c
    own = c.tower.to_data()["steps"]
    new = tower.to_data()["steps"]
    if new[: len(own)] != own:
        raise ValueError("tower mismatch: %r is not a prefix of %r"
                         % (c.tower, tower))
    rebuilt = coeff_from_data(coeff_to_data(c), tower, c.level)
    return tower._elem(tower._as_level(rebuilt, tower.level))


# ---------------------------------------------------------------------------
# serialization of coefficients (Fractions and FieldElements)

def coeff_to_data(c):
    if isinstance(c, int):
        c = Fraction(c)
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(c, FieldElement):
        if c.level == 0:
            return str(c.payload)
        step = c._step()
        if step.kind == "ratfunc":
            n, d = c.payload
            return {"num": [[k, coeff_to_data(v)] for k, v in sorted(n.items())],
                    "den": [[k, coeff_to_data(v)] for k, v in sorted(d.items())]}
        return {"alg": [[k, coeff_to_data(v)] for k, v in sorted(c.payload.items())]}
    raise TypeError("cannot serialize %r" % (c,))


def coeff_from_data(data, tower=None, level=None):
    if isinstance(data, str):
        q = Fraction(data)
        if tower is None:
            return q
        return tower._as_level(q, level if level is not None else tower.level)
    if tower is None:
        raise ValueError("tower required to decode field elements")
    lv = level if level is not None else tower.level
    step = tower.steps[lv - 1]
    if step.kind == "ratfunc":
        num = {k: coeff_from_data(v, tower, lv - 1) for k, v in data["num"]}
        den = {k: coeff_from_data(v, tower, lv - 1) for k, v in data["den"]}
        return FieldElement(tower, lv, (_pnorm(num), den))
    payload = {k: coeff_from_data(v, tower, lv - 1) for k, v in data["alg"]}
    return FieldElement(tower, lv, _pnorm(payload))


# ---------------------------------------------------------------------------
# standard towers used by the surface catalog

def qi_sqrt3() -> FieldTower:
    """Q -> i -> sqrt3  (i^2 = -1, sqrt3^2 = 3), the constants of the S6
    family."""
    T = FieldTower.rationals().extend_algebraic("i", [1, 0, 1])
    return T.extend_algebraic("sqrt3", [-3, 0, 1])


def zeta3(tower: FieldTower) -> FieldElement:
    """Primitive cube root of unity (-1 + i*sqrt3)/2 in a tower with i, sqrt3."""
    i = tower.gen("i")
    s3 = tower.gen("sqrt3")
    return (i * s3 - 1) / 2
