"""Sparse multivariate polynomials with exact coefficients.

Monomials are exponent tuples keyed against a fixed variable tuple; term
order, where one is needed, is graded lexicographic.

A polynomial over Q is stored flat: int numerators over one positive common
denominator, in lowest terms (the form of FLINT's ``fmpq_poly``), so its
arithmetic runs on ints and its content comes off in one gcd pass.  Any
other coefficients -- field elements exposing the usual arithmetic dunders
and ``__bool__`` (see :mod:`kleinfib.tower`) -- are kept as they are, with
no denominator; both forms share every loop below.  ``terms`` reads either
form as ``{exps: coeff}``, with ``Fraction`` coefficients over Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add


def _grlex_key(exps):
    """Sort key for graded lexicographic order (total degree, then lex)."""
    return (sum(exps), exps)


class MultiPoly:
    # _c: exps -> nonzero coefficient, an int numerator when _den is the
    # common denominator (over Q), the coefficient itself when _den is None;
    # _terms: the Fraction view of a polynomial over Q, built when read
    __slots__ = ("vars", "_c", "_den", "_terms")

    def __init__(self, variables, terms=None):
        c = {tuple(e): v for e, v in terms.items() if v} if terms else {}
        den = None
        if all(isinstance(v, (int, Fraction)) for v in c.values()):
            den = lcm(*(v.denominator for v in c.values()))
            c = {e: v.numerator * (den // v.denominator)
                 for e, v in c.items()}
        self.vars = tuple(variables)
        self._c, self._den, self._terms = c, den, None

    @classmethod
    def _make(cls, variables, c, den):
        """From nonzero coefficients c: int numerators over den, brought to
        lowest terms here, or (den None) coefficients kept as they are."""
        if den is not None and den != 1:
            g = gcd(den, *c.values())
            if g != 1:
                c = {e: n // g for e, n in c.items()}
                den //= g
        out = object.__new__(cls)
        out.vars, out._c, out._den, out._terms = variables, c, den, None
        return out

    @property
    def terms(self):
        """{exps: coeff}: Fractions over Q, else the stored coefficients."""
        den = self._den
        if den is None:
            return self._c
        if self._terms is None:
            self._terms = {e: Fraction(n, den) for e, n in self._c.items()}
        return self._terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def const(cls, variables, c):
        c = Fraction(c) if isinstance(c, int) else c
        return cls(variables, {tuple([0] * len(variables)): c})

    @classmethod
    def var(cls, variables, name, power=1):
        variables = tuple(variables)
        i = variables.index(name)
        e = [0] * len(variables)
        e[i] = power
        return cls._make(variables, {tuple(e): 1}, 1)

    # -- predicates / accessors ---------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def is_constant(self) -> bool:
        return not any(any(e) for e in self._c)

    def constant(self):
        """The constant term's coefficient."""
        return self.terms.get(tuple([0] * len(self.vars)), Fraction(0))

    def degree(self, name: str) -> int:
        if not self._c:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self._c)

    def leading_term(self):
        """(exps, coeff) of the graded-lex leading term."""
        e = max(self._c, key=_grlex_key)
        return e, self.terms[e]

    def coeff_of(self, name: str, k: int) -> "MultiPoly":
        """Coefficient of name**k, as a poly in the same variable set."""
        i = self.vars.index(name)
        out = {}
        for e, c in self._c.items():
            if e[i] == k:
                e2 = list(e)
                e2[i] = 0
                out[tuple(e2)] = c
        return MultiPoly._make(self.vars, out, self._den)

    def as_univariate(self, name: str):
        """dict degree -> coefficient MultiPoly (exponent of `name` zeroed)."""
        i = self.vars.index(name)
        buckets: dict[int, dict] = {}
        for e, c in self._c.items():
            e2 = list(e)
            k = e2[i]
            e2[i] = 0
            buckets.setdefault(k, {})[tuple(e2)] = c
        return {k: MultiPoly._make(self.vars, d, self._den)
                for k, d in buckets.items()}

    def content(self) -> Fraction:
        """The rational content over Q: the gcd of the numerators over the
        common denominator, positive; 1 for the zero polynomial."""
        if not self._c:
            return Fraction(1)
        return Fraction(gcd(*self._c.values()), self._den)

    def primitive(self) -> "MultiPoly":
        """self over Q divided by its content, signed so that the graded-lex
        leading coefficient is positive: coprime int coefficients."""
        if not self._c:
            return self
        g = gcd(*self._c.values())
        if self._c[max(self._c, key=_grlex_key)] < 0:
            g = -g
        return MultiPoly._make(self.vars,
                               {e: n // g for e, n in self._c.items()}, 1)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("variable mismatch: %r vs %r" % (self.vars, other.vars))

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.vars, other)
        self._check(other)
        return _sum(self.vars, (self, other))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make(self.vars, {e: -c for e, c in self._c.items()},
                               self._den)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check(other)
        if self._den is None or other._den is None:
            a, b, den = self.terms, other.terms, None
        else:
            a, b, den = self._c, other._c, self._den * other._den
        terms: dict = {}
        get = terms.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                p = c1 * c2
                s = get(e)
                s = p if s is None else s + p
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return MultiPoly._make(self.vars, terms, den)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c) if isinstance(c, int) else c
        if not c:
            return MultiPoly(self.vars)
        if self._den is not None and isinstance(c, Fraction):
            n = c.numerator
            return MultiPoly._make(self.vars,
                                   {e: n * v for e, v in self._c.items()},
                                   self._den * c.denominator)
        return MultiPoly._make(self.vars,
                               {e: c * v for e, v in self.terms.items()}, None)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return MultiPoly.const(self.vars, 1) if result is None else result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if self.is_constant():
                return self.constant() == other
            return NotImplemented
        if self._den is not None and other._den is not None:
            return (self.vars == other.vars and self._den == other._den
                    and self._c == other._c)
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- substitution / evaluation ------------------------------------

    def substitute(self, assignments: dict) -> "MultiPoly":
        """Replace variables by MultiPoly (or constant) values.

        Substitution is simultaneous; unassigned variables stay put.
        """
        vals = {}
        for v, p in assignments.items():
            if not isinstance(p, MultiPoly):
                p = MultiPoly.const(self.vars, p)
            vals[self.vars.index(v)] = p
        powers = {}
        out = []
        for e, c in self.terms.items():
            term = None
            rest = [0] * len(self.vars)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                if i in vals:
                    pw = powers.get((i, k))
                    if pw is None:
                        pw = powers[i, k] = vals[i] ** k
                    term = pw if term is None else term * pw
                else:
                    rest[i] = k
            term = MultiPoly.const(self.vars, c) if term is None \
                else term.scale(c)
            if any(rest):
                term = term.shift(rest)
            out.append(term)
        return _sum(self.vars, out)

    def evaluate(self, assignments: dict):
        """Fully evaluate; every variable must be assigned a field value."""
        idx = [assignments[v] for v in self.vars]
        powers = {}
        total = None
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                if k:
                    pw = powers.get((i, k))
                    if pw is None:
                        pw = powers[i, k] = idx[i] ** k if k > 1 else idx[i]
                    term = term * pw
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    def rename(self, variables) -> "MultiPoly":
        """Reinterpret over a different variable tuple: a variable left out
        of it is dropped, and must not occur (ValueError otherwise)."""
        variables = tuple(variables)
        pos = []
        for i, v in enumerate(self.vars):
            if v in variables:
                pos.append((i, variables.index(v)))
            elif any(e[i] for e in self._c):
                raise ValueError("variable %s still occurs" % v)
        out = {}
        for e, c in self._c.items():
            e2 = [0] * len(variables)
            for i, p in pos:
                e2[p] = e[i]
            out[tuple(e2)] = c
        return MultiPoly._make(variables, out, self._den)

    def map_coeffs(self, fn) -> "MultiPoly":
        return MultiPoly(self.vars, {e: fn(c) for e, c in self.terms.items()})

    # -- content / division -------------------------------------------

    def monomial_content(self):
        """Largest monomial dividing every term, as an exponent tuple."""
        if not self._c:
            return tuple([0] * len(self.vars))
        its = iter(self._c)
        acc = list(next(its))
        for e in its:
            acc = [min(a, b) for a, b in zip(acc, e)]
        return tuple(acc)

    def shift(self, exps) -> "MultiPoly":
        """self times the monomial x**exps."""
        return MultiPoly._make(self.vars, {tuple(map(add, e, exps)): c
                                           for e, c in self._c.items()},
                               self._den)

    def divide_by_term(self, exps) -> "MultiPoly":
        """Exact division by the monomial x**exps; raises if inexact."""
        out = {}
        for e, c in self._c.items():
            e2 = tuple(a - b for a, b in zip(e, exps))
            if any(k < 0 for k in e2):
                raise ArithmeticError("monomial does not divide term %r" % (e,))
            out[e2] = c
        return MultiPoly._make(self.vars, out, self._den)

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact multivariate division; raises ArithmeticError if inexact.

        A single-term divisor divides termwise; any other is divided by
        long division in the first variable it uses, whose remainder must
        vanish.
        """
        if len(divisor._c) == 1:
            (exps, c), = divisor.terms.items()
            return self.divide_by_term(exps).scale(
                Fraction(1) / c if isinstance(c, Fraction) else c.invert())
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        name = next(v for v in self.vars if divisor.degree(v) > 0)
        quo, rem = self.div_univariate(divisor, name)
        if not rem.is_zero():
            raise ArithmeticError("division not exact")
        return quo

    def div_univariate(self, divisor: "MultiPoly", name: str):
        """Long division in `name`, each leading coefficient divided exactly
        by the divisor's (ArithmeticError where it does not divide).

        Returns (quotient, remainder) with deg_name(remainder) < deg_name(divisor).
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        i = self.vars.index(name)
        d = divisor.degree(name)
        lead = divisor.coeff_of(name, d)
        rem = self
        quo = MultiPoly(self.vars)
        while not rem.is_zero() and rem.degree(name) >= d:
            k = rem.degree(name)
            factor = rem.coeff_of(name, k).exact_div(lead)
            shift = [0] * len(self.vars)
            shift[i] = k - d
            factor = factor.shift(shift)
            quo = quo + factor
            rem = rem - factor * divisor
        return quo, rem

    def reduce_mod(self, modulus: "MultiPoly", name: str) -> "MultiPoly":
        """Remainder of division by `modulus` in the variable `name`."""
        return self.div_univariate(modulus, name)[1]

    # -- display ------------------------------------------------------

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(),
                           key=lambda kv: _grlex_key(kv[0]), reverse=True):
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e) if k
            )
            if mono:
                bits.append(f"({c})*{mono}")
            else:
                bits.append(f"({c})")
        return " + ".join(bits)


def _sum(variables, polys):
    """The sum of polys, accumulated in one dict: its terms come in the
    order of the left-to-right sum, and cancelled terms are dropped."""
    den = None
    if all(p._den is not None for p in polys):
        den = lcm(*(p._den for p in polys))
    terms = {}
    get = terms.get
    for p in polys:
        if den is None:
            c = p.terms
        else:
            f = den // p._den
            c = p._c if f == 1 else {e: n * f for e, n in p._c.items()}
        if not terms:
            terms.update(c)
            continue
        for e, v in c.items():
            s = get(e)
            s = v if s is None else s + v
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    return MultiPoly._make(variables, terms, den)
