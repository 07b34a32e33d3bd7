"""Field-tower arithmetic: inversion, numeric images, refused coercions."""

import cmath
import random
from fractions import Fraction
from math import gcd

import pytest

from kleinfib.curves import dn_tower
from kleinfib.tower import (FieldTower, ZeroDivisorError, _cyclotomic_inverse,
                            _Ring, cyclotomic, root_of_unity)


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
    assert (T.M, T.var) == (12, "mu") and repr(T) == "QQ(z12, mu)"
    assert [repr(FieldTower.rationals()), repr(cyclotomic(1)),
            repr(FieldTower.rationals().extend_ratfunc("t"))] == [
        "QQ", "QQ(z1)", "QQ(t)"]


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


@pytest.mark.parametrize("M", [12, 28, 44])
def test_powers_are_successive_products(M):
    # zeta^k is reduced modulo Phi_M from k = phi(M) on and wraps at k = M
    T = cyclotomic(M).extend_ratfunc("s")
    z, s = T.gen("z%d" % M), T.gen("s")
    for x, n in ((z, 2 * M + 1), (z * s, M + 2),
                 (z ** -1 * s - Fraction(2, 3), 9)):
        table = x.powers(n)
        assert len(table) == n
        assert all(p == x ** k for k, p in enumerate(table))
    assert z.powers(M + 1)[M] == 1 and z.powers(1) == [1]


def test_zero_divisor_is_refused():
    # over the reducible x^2 - 1 in place of Phi_4, 1 + x is a zero divisor
    ring = _Ring(4, (-1, 0, 1), [(1, 0), (0, 1), (1, 0), (0, 1)], (3,))
    with pytest.raises(ZeroDivisorError):
        _cyclotomic_inverse((1, 1), ring)


# ---------------------------------------------------------------------------
# the flat ring form, on seeded random elements of every tower

MODULI = [None, 1, 2, 3, 4, 12, 16, 20, 28, 44, 124]
TOWERS = [T for M in MODULI
          for K in [FieldTower.rationals() if M is None else cyclotomic(M)]
          for T in (K, K.extend_ratfunc("s"))]


def _random_element(T, rng, laurent=True):
    """A sum of up to three terms c*zeta^i*s^k, c a small rational."""
    z = T.one() if T.M is None else T.gen("z%d" % T.M)
    s = T.gen("s") if T.var and laurent else T.one()
    x = T.zero()
    for _ in range(rng.randint(1, 3)):
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        x += c * z ** rng.randrange(T.M or 1) * s ** rng.randint(-3, 3)
    return x


def _env(T):
    return {"z%d" % (T.M or 1): cmath.exp(2j * cmath.pi / (T.M or 1)),
            "s": complex(0.8, 0.45)}


@pytest.mark.parametrize("T", TOWERS, ids=repr)
def test_flat_ring_identities(T):
    rng = random.Random(repr(T))
    for _ in range(4):
        x, y, w = (_random_element(T, rng) for _ in range(3))
        assert x + y == y + x and x * y == y * x
        assert (x + y) + w == x + (y + w)
        assert (x * y) * w == x * (y * w)
        assert x * (y + w) == x * y + x * w
        assert x - x == 0 and x + T.zero() == x and x * T.one() == x
        assert -(x - y) == y - x and x * 0 == T.zero()
        assert x ** 3 == x * x * x and x ** 0 == 1


@pytest.mark.parametrize("T", TOWERS, ids=repr)
def test_flat_ring_inverses(T):
    rng = random.Random(repr(T))
    s = T.gen("s") if T.var else T.one()
    for _ in range(3):
        c = _random_element(T, rng, laurent=False)
        if c == 0:
            continue
        # nonzero constants of Q(zeta_M), and the Laurent monomials c*s^k
        u = c * s ** rng.randint(-3, 3)
        assert u * u.invert() == 1 and u / u == 1
        assert u ** -2 * u ** 3 == u


@pytest.mark.parametrize("T", TOWERS, ids=repr)
def test_flat_ring_as_complex(T):
    rng, env = random.Random(repr(T)), _env(T)
    for _ in range(4):
        x, y = (_random_element(T, rng) for _ in range(2))
        a, b = x.as_complex(env), y.as_complex(env)
        tol = 1e-9 * (1 + abs(a)) * (1 + abs(b))
        assert abs((x * y).as_complex(env) - a * b) < tol
        assert abs((x + y).as_complex(env) - (a + b)) < tol
        assert abs((x - y).as_complex(env) - (a - b)) < tol


@pytest.mark.parametrize("M", MODULI)
def test_flat_ring_hash_across_lift(M):
    K = FieldTower.rationals() if M is None else cyclotomic(M)
    Ks = K.extend_ratfunc("s")
    s, rng = Ks.gen("s"), random.Random(M)
    for _ in range(4):
        x = _random_element(K, rng)
        X = Ks.lift(x)
        assert X == x and x == X and hash(X) == hash(x)
        assert (X + s) - s == x and hash((X + s) - s) == hash(x)
        assert len({x, X, (X + s) - s}) == 1
    q = Fraction(-5, 3)
    for c in (K.from_fraction(q), Ks.from_fraction(q),
              Ks.lift(FieldTower.rationals().from_fraction(q))):
        assert c == q and hash(c) == hash(q)
    assert hash(K.zero()) == hash(Ks.zero()) == hash(0)


def test_repr_strings():
    # byte for byte as printed by the recursive element form this replaced
    Q = FieldTower.rationals()
    Qs = Q.extend_ratfunc("s")
    s = Qs.gen("s")
    K = cyclotomic(12)
    z = K.gen("z12")
    Ks = K.extend_ratfunc("s")
    zs, ss = Ks.gen("z12"), Ks.gen("s")
    D = cyclotomic(16).extend_ratfunc("mu")
    w, mu = D.gen("z16"), D.gen("mu")
    cases = [
        (Q.zero(), "0"), (Q.from_fraction(Fraction(-7, 3)), "-7/3"),
        (Qs.zero(), "0"),
        (Fraction(1, 2) * s ** 3 - 4 + s ** -2 * 3,
         "((1/2)*s^5 + (-4)*s^2 + (3))/((1)*s^2)"),
        (s ** -1, "((1))/((1)*s)"), (-s, "(-1)*s"),
        (K.zero(), "0"),
        (Fraction(3, 2) * z ** 3 - z + Fraction(1, 3),
         "(3/2)*z12^3 + (-1)*z12 + (1/3)"),
        (z ** 4, "(1)*z12^2 + (-1)"), (1 / (1 + z), "(-1)*z12^3 + (1)*z12^2"),
        (Ks.zero(), "0"),
        ((Fraction(3, 2) * zs ** 3 - zs + Fraction(1, 3)) * ss ** 2
         - 5 * ss ** -3,
         "(((3/2)*z12^3 + (-1)*z12 + (1/3))*s^5 + ((-5)))/(((1))*s^3)"),
        (ss ** -1 * zs, "(((1)*z12))/(((1))*s)"),
        (Ks.from_fraction(Fraction(5, 6)), "((5/6))"),
        (cyclotomic(1).gen("z1") * 2, "(2)"), (cyclotomic(2).gen("z2"), "(-1)"),
        ((w ** 7 + Fraction(2, 9)) * mu ** 5 - w ** 9 * mu,
         "((1)*z16^7 + (2/9))*mu^5 + ((1)*z16)*mu"),
        ((1 + w) ** -1 * mu ** -4,
         "(((-1/2)*z16^7 + (1/2)*z16^6 + (-1/2)*z16^5 + (1/2)*z16^4"
         " + (-1/2)*z16^3 + (1/2)*z16^2 + (-1/2)*z16 + (1/2)))"
         "/(((1))*mu^4)"),
    ]
    for x, text in cases:
        assert repr(x) == text


@pytest.mark.parametrize("M", [None, 2, 8, 12, 28])
def test_rotate_is_mu_to_zeta_mu(M):
    # sigma_e(x) is x with zeta_M^e mu in place of mu, computed term by term
    # by tower arithmetic; it is a ring map fixing Q(zeta_M)
    base = FieldTower.rationals() if M is None else cyclotomic(M)
    T = base.extend_ratfunc("mu")
    z = T.one() if M is None else T.gen("z%d" % M)
    mu, rng = T.gen("mu"), random.Random(M)

    def sample():
        return sum((T.from_fraction(Fraction(rng.randint(-9, 9),
                                             rng.randint(1, 4)))
                    * z ** rng.randrange(8) * mu ** k
                    for k in rng.sample(range(-4, 7), 3)), T.zero())
    for e in range(M or 1):
        for _ in range(3):
            x, y = sample(), sample()
            image = sum((T._elem({k: v}, x.payload[1])
                         * (z ** e * mu) ** k * mu ** -k
                         for k, v in x.payload[0].items()), T.zero())
            assert x.rotate(e) == image
            assert (x * y).rotate(e) == x.rotate(e) * y.rotate(e)
            assert (x - y).rotate(e) == x.rotate(e) - y.rotate(e)
        c = z ** 3 + 5
        assert c.rotate(e) == c


@pytest.mark.parametrize("M", [12, 18, 30])
def test_conjugate_is_zeta_to_zeta_power(M):
    # sigma_j(x), j a unit mod M, is x with zeta_M^j in place of zeta_M and
    # mu fixed: a ring map, sigma_j sigma_k = sigma_(jk), commuting with the
    # rotations, and its product over the units other than 1 is the
    # cofactor that _cyclotomic_inverse takes
    T = cyclotomic(M).extend_ratfunc("mu")
    z, mu, rng = T.gen("z%d" % M), T.gen("mu"), random.Random(M)

    def sample():
        return sum((T.from_fraction(Fraction(rng.randint(-9, 9),
                                             rng.randint(1, 4)))
                    * z ** rng.randrange(M) * mu ** k
                    for k in rng.sample(range(-4, 7), 3)), T.zero())
    units = [j for j in range(1, M) if gcd(j, M) == 1]
    for j in units:
        x, y = sample(), sample()
        image = sum((T._elem({k: v}, x.payload[1]).conjugate(j)
                     for k, v in x.payload[0].items()), T.zero())
        assert x.conjugate(j) == image
        assert (z ** 5 * mu ** 2).conjugate(j) == z ** (5 * j) * mu ** 2
        assert (x * y).conjugate(j) == x.conjugate(j) * y.conjugate(j)
        assert (x + y).conjugate(j) == x.conjugate(j) + y.conjugate(j)
        assert x.conjugate(j).rotate(3) == x.rotate(3 * pow(j, -1, M)
                                                    ).conjugate(j)
        for k in units:
            assert x.conjugate(j).conjugate(k) == x.conjugate(j * k % M)
    v = (z + 3).payload[0][0]
    ring = T._ring
    cofactor = ring.conjugate(v, units[1])
    for j in units[2:]:
        cofactor = ring.mul(cofactor, ring.conjugate(v, j))
    assert _cyclotomic_inverse(v, ring)[0] == cofactor
