"""Exceptional-curve enumeration: counts and the displayed residual
polynomials, bit for bit."""

from fractions import Fraction

import pytest

from kleinfib.curves import (VerificationError, certify_s6_lines,
                             coprime_at_t2, enumerate_an, enumerate_dn,
                             enumerate_s7, enumerate_s8, q_cubic, q1_quartic,
                             q2_quartic)
from kleinfib.geometry import build_catalog
from kleinfib.multipoly import MultiPoly


def test_q_cubic_coefficients():
    assert q_cubic() == [Fraction(-64), Fraction(401808),
                         Fraction(-29496), Fraction(1)]


def test_q1_q2_nested_forms():
    # 108000 X (5400 X^3 - 20154789349200 X^2 + 522900235 X + 1254) + 1
    def nested(c2, c1, c0):
        return [Fraction(1), 108000 * Fraction(c0), 108000 * Fraction(c1),
                108000 * Fraction(c2), 108000 * Fraction(5400)]
    assert q1_quartic() == nested(-20154789349200, 522900235, 1254)
    assert q2_quartic() == nested(-10810800, -44551045, -611864)


def test_s6_lines():
    curves = certify_s6_lines()
    assert len(curves) == 27
    by_family = {}
    for c in curves:
        by_family.setdefault(c.family, []).append(c)
    assert len(by_family["S6-L123"]) == 3
    assert len(by_family["S6-Lmu"]) == 24


def test_s7_curves_and_d_denominator():
    curves, trace, residual = enumerate_s7()
    assert len(curves) == 56
    main = next(c for c in curves if c.family == "S7-main")
    nd, dd = main.data["coeff_pairs"]["d"]
    assert repr(dd) == "(115)*e^18 + (-28)*t"


def test_s8_curves():
    curves, trace, residuals = enumerate_s8()
    assert len(curves) == 240
    branches = {c.branch for c in curves}
    assert branches == {"P1", "P2"}


@pytest.mark.parametrize("n", [2, 3, 5])
def test_an_components(n):
    curves = enumerate_an(n)
    assert len(curves) == 2 * n
    contractible = [c for c in curves
                    if c.data.get("contractible_orbit")]
    assert len(contractible) == n


@pytest.mark.parametrize("n", [4, 5, 9])
def test_dn_components(n):
    curves = enumerate_dn(n)
    assert len(curves) == 2 + 2 * (n - 1)


def test_mutated_catalog_fails_enumeration():
    bad = build_catalog(mutation=("s7", 0, 1, Fraction(1)))
    with pytest.raises(VerificationError):
        enumerate_s7(bad)


def test_mutated_s6_fails_line_certification():
    bad = build_catalog(mutation=("s6", 0, 0, Fraction(1, 2)))
    with pytest.raises(VerificationError):
        certify_s6_lines(bad)


def test_coprime_at_t2_checks_its_hypothesis():
    e, t = MultiPoly.var(("e", "t"), "e"), MultiPoly.var(("e", "t"), "t")
    # f(2) = 1 is a unit, yet gcd(f, f) = f: the leading coefficient t - 2
    # vanishes at the specialization, so no certificate may be issued
    f = (t - 2) * e + 1
    with pytest.raises(VerificationError):
        coprime_at_t2(f, f, "e")
    assert coprime_at_t2(e * 2, e ** 3 - t, "e")
    assert not coprime_at_t2(e - t, e ** 2 - t ** 2, "e")
