"""Field-tower arithmetic: inversion, numeric images, refused coercions."""

from fractions import Fraction

import pytest

from kleinfib.curves import dn_tower
from kleinfib.tower import FieldTower, cyclotomic, root_of_unity


def _i_sqrt3(T):
    """i = zeta^3 and sqrt3 = 2 zeta - zeta^3 in a tower over Q(zeta_12)."""
    z = root_of_unity(T, 12)
    return z ** 3, 2 * z - z ** 3


def test_inverse_gaussian():
    T = cyclotomic(4)
    i = T.gen("z4")
    x = 3 + 4 * i
    inv = 1 / x
    assert x * inv == T.one()
    # (3+4i)^-1 = (3-4i)/25
    assert inv == (3 - 4 * i) * Fraction(1, 25)


def test_nested_tower_inverse():
    T = cyclotomic(12)
    i, s3 = _i_sqrt3(T)
    x = 2 + i * s3
    assert x * (1 / x) == T.one()
    assert s3 * s3 == T.from_fraction(3)


def test_ratfunc_and_radical():
    T = cyclotomic(12).extend_ratfunc("alpha")
    a = T.gen("alpha")
    t = a * a * a
    assert a ** 3 == t
    inv = 1 / a
    assert a * inv == T.one()


def test_as_complex():
    T = cyclotomic(12)
    i, s3 = _i_sqrt3(T)
    val = (2 + i * s3).as_complex({"z12": complex(3 ** 0.5, 1) / 2})
    assert abs(val - (2 + 1j * 3 ** 0.5)) < 1e-12


def test_power_zero_is_field_element():
    # regression: x**0 over the rationals must stay a FieldElement
    T = FieldTower.rationals()
    x = T.from_fraction(5)
    y = x ** 0
    assert hasattr(y, "payload")
    assert y == T.one()


def test_hash_agrees_with_eq():
    T = cyclotomic(12).extend_ratfunc("s")
    s3, s = _i_sqrt3(T)[1], T.gen("s")
    assert T.one() == Fraction(1)
    assert len({T.one(), Fraction(1), 1}) == 1
    # the same value reached at different levels, or by different routes
    assert s3 * s3 == 3 and hash(s3 * s3) == hash(3)
    low = _i_sqrt3(cyclotomic(12))[1]
    assert s3 == low and hash(s3) == hash(low)
    assert (s + 1) ** 2 - 2 * s == s ** 2 + 1
    assert hash((s + 1) ** 2 - 2 * s) == hash(s ** 2 + 1)
    assert hash((s ** 3 + s ** 2) / s ** 2) == hash(s + 1)
    assert len({s, s + 1, 2 * s, s ** -1, s3, s3 * s}) == 6


def test_laurent_units_are_monomials():
    T = cyclotomic(12).extend_ratfunc("s")
    s = T.gen("s")
    with pytest.raises(ValueError):
        1 / (s + 1)
    with pytest.raises(ValueError):
        (s + 1) ** -1
    z = root_of_unity(T, 12)
    u = 3 * z * s ** 2
    assert u * u.invert() == 1


def test_laurent_negative_powers():
    T = cyclotomic(12).extend_ratfunc("s")
    s = T.gen("s")
    assert s ** -2 * s ** 3 == s
    assert hash(s ** -2 * s ** 3) == hash(s)
    env = {"z12": complex(3 ** 0.5, 1) / 2, "s": 2 + 1j}
    assert abs((s ** -1).as_complex(env) - 1 / (2 + 1j)) < 1e-12
    assert repr(s + 2 * s ** -2) == "(((1))*s^3 + ((2)))/(((1))*s^2)"
    assert repr(s ** -1) == "(((1)))/(((1))*s)"


def test_towers_are_values():
    T = cyclotomic(12).extend_ratfunc("mu")
    assert T == cyclotomic(12).extend_ratfunc("mu")
    assert hash(T) == hash(cyclotomic(12).extend_ratfunc("mu"))
    assert T != cyclotomic(12).extend_ratfunc("s")
    assert T != cyclotomic(12) and cyclotomic(1) != FieldTower.rationals()
    assert [s.kind for s in T.steps] == ["algebraic", "ratfunc"]


def test_refused_coercions():
    z12 = root_of_unity(cyclotomic(12), 12)
    T, _t = dn_tower(9)                  # Q(zeta_16)(mu)
    with pytest.raises(ValueError):
        T.lift(z12)
    with pytest.raises(ValueError):
        root_of_unity(T, 16) + z12
    with pytest.raises(ValueError):
        root_of_unity(cyclotomic(16), 16) * z12
    with pytest.raises(ValueError):      # Q(s) is not a subfield of Q(zeta_12)(s)
        cyclotomic(12).extend_ratfunc("s").lift(
            FieldTower.rationals().extend_ratfunc("s").gen("s"))
    with pytest.raises(ValueError):
        T.extend_ratfunc("nu")
    # a subfield of the same tower still lifts
    i = T.lift(root_of_unity(cyclotomic(16), 4))
    assert i * i == -1


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
    with pytest.raises(ValueError):
        root_of_unity(FieldTower.rationals(), 1)
