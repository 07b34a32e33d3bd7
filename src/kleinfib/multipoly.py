"""Sparse multivariate polynomials with exact coefficients.

Coefficients may be ``fractions.Fraction`` or any field element exposing the
usual arithmetic dunders plus ``is_zero`` (see :mod:`kleinfib.tower`).
Monomials are exponent tuples keyed against a fixed variable tuple; term
order, where one is needed, is graded lexicographic.
"""

from __future__ import annotations

from fractions import Fraction


def _coeff_is_zero(c) -> bool:
    if isinstance(c, Fraction):
        return c == 0
    z = getattr(c, "is_zero", None)
    if z is not None:
        return z() if callable(z) else bool(z)
    return c == 0


def grlex_key(exps):
    """Sort key for graded lexicographic order (total degree, then lex)."""
    return (sum(exps), exps)


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if not _coeff_is_zero(c):
                    self.terms[tuple(e)] = c

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
        return cls(variables, {tuple(e): Fraction(1)})

    # -- predicates / accessors ---------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(k == 0 for k in e) for e in self.terms)

    def constant(self):
        """The constant term's coefficient."""
        return self.terms.get(tuple([0] * len(self.vars)), Fraction(0))

    def degree(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def leading_term(self):
        """(exps, coeff) of the graded-lex leading term."""
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def coeff_of(self, name: str, k: int) -> "MultiPoly":
        """Coefficient of name**k, as a poly in the same variable set."""
        i = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                e2 = list(e)
                e2[i] = 0
                out[tuple(e2)] = c
        return MultiPoly(self.vars, out)

    def as_univariate(self, name: str):
        """dict degree -> coefficient MultiPoly (exponent of `name` zeroed)."""
        i = self.vars.index(name)
        buckets: dict[int, dict] = {}
        for e, c in self.terms.items():
            e2 = list(e)
            k = e2[i]
            e2[i] = 0
            buckets.setdefault(k, {})[tuple(e2)] = c
        return {k: MultiPoly(self.vars, d) for k, d in buckets.items()}

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("variable mismatch: %r vs %r" % (self.vars, other.vars))

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.vars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if _coeff_is_zero(s):
                terms.pop(e, None)
            else:
                terms[e] = s
        out = MultiPoly(self.vars)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MultiPoly(self.vars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

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
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                p = c1 * c2
                s = terms.get(e)
                s = p if s is None else s + p
                if _coeff_is_zero(s):
                    terms.pop(e, None)
                else:
                    terms[e] = s
        out = MultiPoly(self.vars)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c) if isinstance(c, int) else c
        if _coeff_is_zero(c):
            return MultiPoly(self.vars)
        out = MultiPoly(self.vars)
        out.terms = {e: c * v for e, v in self.terms.items()}
        return out

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if self.is_constant():
                return self.constant() == other
            return NotImplemented
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
        out = MultiPoly(self.vars)
        for e, c in self.terms.items():
            term = MultiPoly.const(self.vars, c)
            rest = [0] * len(self.vars)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                if i in vals:
                    term = term * vals[i] ** k
                else:
                    rest[i] = k
            if any(rest):
                term = term * MultiPoly(self.vars, {tuple(rest): Fraction(1)})
            out = out + term
        return out

    def evaluate(self, assignments: dict):
        """Fully evaluate; every variable must be assigned a field value."""
        idx = [assignments[v] for v in self.vars]
        total = None
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                if k:
                    term = term * idx[i] ** k
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    def rename(self, variables) -> "MultiPoly":
        """Reinterpret over a different variable tuple (superset allowed)."""
        variables = tuple(variables)
        pos = [variables.index(v) for v in self.vars]
        out = {}
        for e, c in self.terms.items():
            e2 = [0] * len(variables)
            for p, k in zip(pos, e):
                e2[p] = k
            out[tuple(e2)] = c
        return MultiPoly(variables, out)

    def map_coeffs(self, fn) -> "MultiPoly":
        return MultiPoly(self.vars, {e: fn(c) for e, c in self.terms.items()})

    # -- content / division -------------------------------------------

    def monomial_content(self):
        """Largest monomial dividing every term, as an exponent tuple."""
        if not self.terms:
            return tuple([0] * len(self.vars))
        its = iter(self.terms)
        acc = list(next(its))
        for e in its:
            acc = [min(a, b) for a, b in zip(acc, e)]
        return tuple(acc)

    def divide_by_term(self, exps, coeff=None) -> "MultiPoly":
        """Exact division by a single term coeff * x**exps; raises if inexact."""
        out = {}
        for e, c in self.terms.items():
            e2 = tuple(a - b for a, b in zip(e, exps))
            if any(k < 0 for k in e2):
                raise ArithmeticError("monomial does not divide term %r" % (e,))
            out[e2] = c if coeff is None else c / coeff
        return MultiPoly(self.vars, out)

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Fully general exact multivariate division; raises if not exact.

        Recursive: long division in the first variable the divisor uses,
        dividing coefficients by the divisor's leading coefficient
        recursively in the remaining variables.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        if divisor.is_constant():
            c = divisor.constant()
            if isinstance(c, Fraction):
                return self.scale(Fraction(1) / c)
            return self.scale(c.invert())
        name = next(v for v in self.vars if divisor.degree(v) > 0)
        d = divisor.degree(name)
        lead = divisor.coeff_of(name, d)
        i = self.vars.index(name)
        rem = self
        quo = MultiPoly(self.vars)
        while not rem.is_zero():
            k = rem.degree(name)
            if k < d:
                raise ArithmeticError("division not exact")
            factor = rem.coeff_of(name, k).exact_div(lead)
            shift = [0] * len(self.vars)
            shift[i] = k - d
            factor = factor * MultiPoly(self.vars, {tuple(shift): Fraction(1)})
            quo = quo + factor
            rem = rem - factor * divisor
        return quo

    def div_univariate(self, divisor: "MultiPoly", name: str):
        """Long division in `name`; divisor's leading coeff must be one term.

        Returns (quotient, remainder) with deg_name(remainder) < deg_name(divisor).
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        i = self.vars.index(name)
        d = divisor.degree(name)
        lead = divisor.coeff_of(name, d)
        if len(lead.terms) != 1:
            raise ArithmeticError("divisor leading coefficient is not a single term")
        (lexps, lcoef), = lead.terms.items()
        rem = self
        quo = MultiPoly(self.vars)
        while not rem.is_zero() and rem.degree(name) >= d:
            k = rem.degree(name)
            top = rem.coeff_of(name, k)
            # top / (lcoef * x^lexps) * name^(k-d)
            factor = top.divide_by_term(lexps, lcoef)
            shift = [0] * len(self.vars)
            shift[i] = k - d
            factor = factor * MultiPoly(self.vars, {tuple(shift): Fraction(1)})
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
        for e, c in sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True):
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e) if k
            )
            if mono:
                bits.append(f"({c})*{mono}")
            else:
                bits.append(f"({c})")
        return " + ".join(bits)
