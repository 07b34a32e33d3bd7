"""Field-tower arithmetic: inversion, signs, numeric images."""

from fractions import Fraction

import pytest

from kleinfib.tower import (FieldTower, ZeroDivisorError, cyclotomic,
                            root_of_unity)


def _qi_sqrt3():
    T = FieldTower.rationals()
    T = T.extend_algebraic("i", [Fraction(1), Fraction(0), Fraction(1)])
    return T.extend_radical("sqrt3", 2, T.from_fraction(3))


def test_inverse_gaussian():
    T = FieldTower.rationals()
    T = T.extend_algebraic("i", [Fraction(1), Fraction(0), Fraction(1)])
    i = T.gen("i")
    x = 3 + 4 * i
    inv = 1 / x
    assert x * inv == T.one()
    # (3+4i)^-1 = (3-4i)/25
    assert inv == (3 - 4 * i) * Fraction(1, 25)


def test_nested_tower_inverse():
    T = _qi_sqrt3()
    i, s3 = T.gen("i"), T.gen("sqrt3")
    x = 2 + i * s3
    assert x * (1 / x) == T.one()
    assert s3 * s3 == T.from_fraction(3)


def test_ratfunc_and_radical():
    T = _qi_sqrt3().extend_ratfunc("t")
    T = T.extend_radical("alpha", 3, T.gen("t"))
    a = T.gen("alpha")
    assert a ** 3 == T.gen("t")
    inv = 1 / a
    assert a * inv == T.one()


def test_zero_divisor_reports_factor():
    # Q[x]/(x^2-1) is not a field; inverting x-1 must fail loudly
    T = FieldTower.rationals()
    T = T.extend_algebraic("u", [Fraction(-1), Fraction(0), Fraction(1)])
    u = T.gen("u")
    with pytest.raises(ZeroDivisorError):
        _ = 1 / (u - 1)


def test_as_complex():
    T = _qi_sqrt3()
    i, s3 = T.gen("i"), T.gen("sqrt3")
    val = (2 + i * s3).as_complex({"i": 1j, "sqrt3": 3 ** 0.5})
    assert abs(val - (2 + 1j * 3 ** 0.5)) < 1e-12


def test_power_zero_is_field_element():
    # regression: x**0 over the rationals must stay a FieldElement
    T = FieldTower.rationals()
    x = T.from_fraction(5)
    y = x ** 0
    assert hasattr(y, "payload")
    assert y == T.one()


def test_sign():
    T = _qi_sqrt3()
    s3 = T.gen("sqrt3")
    assert (s3 - 1).sign() > 0
    assert (s3 - 2).sign() < 0


def test_serialization_round_trip():
    T = _qi_sqrt3()
    assert FieldTower.from_data(T.to_data()) == T


def test_hash_agrees_with_eq():
    T = _qi_sqrt3().extend_ratfunc("s")
    s3, s = T.gen("sqrt3"), T.gen("s")
    assert T.one() == Fraction(1)
    assert len({T.one(), Fraction(1), 1}) == 1
    # the same value reached at different levels, or by different routes
    assert s3 * s3 == 3 and hash(s3 * s3) == hash(3)
    low = _qi_sqrt3().gen("sqrt3")
    assert s3 == low and hash(s3) == hash(low)
    assert (s + 1) ** 2 - 2 * s == s ** 2 + 1
    assert hash((s + 1) ** 2 - 2 * s) == hash(s ** 2 + 1)
    assert hash((s ** 2 - 1) / (s - 1)) == hash(s + 1)
    assert len({s, s + 1, 2 * s, s / (s + 1), s3, s3 * s}) == 6


def test_cyclotomic_roots_of_unity():
    K = cyclotomic(12)
    z, i, z3 = (root_of_unity(K, k) for k in (12, 4, 3))
    assert i * i == -1
    assert z3 ** 3 == 1 and z3 != 1
    s3 = 2 * z - i                       # zeta_12 = (sqrt3 + i)/2
    assert s3 * s3 == 3
    assert root_of_unity(cyclotomic(2), 2) == -1
    assert root_of_unity(cyclotomic(1), 1) == 1
    with pytest.raises(ValueError):
        root_of_unity(K, 5)
