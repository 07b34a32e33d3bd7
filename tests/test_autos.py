"""Automorphism suite: diagonal groups, the order-3 map on d4, and the
wild shear family on a_n."""

import itertools
import random
from fractions import Fraction
from math import gcd, prod

import pytest

from kleinfib.autos import (PolyMap, _smith_form, autos_report,
                            check_invariance, diagonal_group, map_order,
                            tau_map, tau_normalizes_diagonal,
                            verify_an_wild_family, verify_tau)
from kleinfib.curves import VerificationError
from kleinfib.geometry import build_surface
from kleinfib.multipoly import MultiPoly

VARS = ("x", "y", "z")


def _vars():
    return tuple(MultiPoly.var(VARS, v) for v in VARS)


def test_tau_order_three_lambda_one():
    report = verify_tau(build_surface("klein-dn:4"))
    assert report["order"] == 3
    assert report["lambda"] == "1"


def test_tau_normalizes_diagonal():
    s = build_surface("klein-dn:4")
    assert tau_normalizes_diagonal(s, diagonal_group(s, seed=3), seed=3)


@pytest.mark.parametrize("case,exponents", [
    ("e6", (3, 4, 6)), ("e7", (4, 6, 9)), ("e8", (6, 10, 15)),
])
def test_en_parametrizations(case, exponents):
    desc = diagonal_group(build_surface("klein-" + case))
    assert desc.exponents == exponents
    torsion = [(2, (0, 0, 1))] if case == "e6" else []
    assert desc.torsion == torsion
    assert desc.iso_label == ("C* x {+-1}" if torsion else "C*")


@pytest.mark.parametrize("n", [4, 5, 7, 9])
def test_dn_parametrization(n):
    # C* x {+-1}: t = -1 in C* is the sign on y for odd n and the sign on z
    # for even n, so the torsion generator is the other sign
    desc = diagonal_group(build_surface("klein-dn:%d" % n))
    assert desc.exponents == (2, n - 2, n - 1)
    assert desc.iso_label == "C* x {+-1}"
    assert desc.torsion == [(2, (0, 1, 0) if n % 2 == 0 else (0, 0, 1))]


def test_exponent_change_changes_the_group():
    # x^4 + y^3 + z^3, the E6 equation with z^2 raised to z^3
    x, y, z = _vars()
    s = build_surface("klein-e6")._replace(
        quasi_weights=(3, 4, 4), equations=(x ** 4 + y ** 3 + z ** 3,))
    desc = diagonal_group(s)
    assert desc.iso_label == "C* x Z/3"
    assert desc.torsion == [(3, (0, 0, 1))]


def test_free_part_must_be_the_quasi_weights():
    # E7 with wrong weights, and E6 without its z^2 term, whose free part
    # has rank 2
    x, y, _ = _vars()
    for name, change in (("klein-e7", {"quasi_weights": (4, 6, 8)}),
                         ("klein-e6", {"equations": (x ** 4 + y ** 3,)})):
        with pytest.raises(VerificationError, match="quasi-weights"):
            diagonal_group(build_surface(name)._replace(**change))


@pytest.mark.parametrize("case", ["e6", "e7", "e8"] +
                         ["dn:%d" % n for n in range(4, 10)])
def test_parametrization_surjectivity(case):
    # the m-torsion of the computed group C* x prod Z/k has m * prod
    # gcd(m, k) elements; so does the set of exponent vectors a mod m with
    # a . d = 0 mod m for every condition d, the m-torsion of every diagonal
    # map preserving f: the parametrization is onto and one-to-one
    desc = diagonal_group(build_surface("klein-" + case))
    for m in range(1, 13):
        solutions = sum(
            1 for a in itertools.product(range(m), repeat=3)
            if all(sum(x * y for x, y in zip(a, d)) % m == 0
                   for d in desc.conditions))
        assert solutions == m * prod(gcd(m, k) for k, _ in desc.torsion)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_an_wild_family(n):
    x, y, z = _vars()
    one = MultiPoly.const(VARS, Fraction(1))
    s = build_surface("klein-an:%d" % n)
    # P = 0, of degree -1 in every variable, is the identity shear
    for P in (one, y, one + y + y ** 3, MultiPoly.zero(VARS)):
        assert verify_an_wild_family(s, P)


def test_an_shear_example():
    # n = 2, P = 1: (x + y, y, z + 2x + y) preserves x^2 - yz
    assert verify_an_wild_family(build_surface("klein-an:2"),
                                 MultiPoly.const(VARS, Fraction(1)))


def test_shift_is_not_invariant():
    # negative control: x -> x + 1 does not preserve x^4 + y^3 + z^2
    x, y, z = _vars()
    f = x ** 4 + y ** 3 + z ** 2
    one = MultiPoly.const(VARS, Fraction(1))
    phi = PolyMap((x + one, y, z))
    assert not check_invariance(f, phi)["invariant"]


def test_sigma_y_order_two():
    x, y, z = _vars()
    phi = PolyMap((x, y, MultiPoly.zero(VARS) - z))
    assert map_order(phi) == 2
    f = x ** 4 + y ** 3 + z ** 2
    rep = check_invariance(f, phi)
    assert rep["invariant"]


def test_autos_report_flags_completeness():
    report = autos_report(build_surface("klein-e6"))
    assert report["verified"]
    assert "completeness" in report


def test_tau_map_order():
    assert map_order(tau_map()) == 3


def _minors_gcd(rows, size):
    """gcd of the size x size minors of an integer matrix (Laplace)."""
    def det(m):
        return m[0][0] if len(m) == 1 else sum(
            (-1) ** j * m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]])
            for j in range(len(m)))
    return gcd(*(det([[rows[i][j] for j in cols] for i in rs])
                 for rs in itertools.combinations(range(len(rows)), size)
                 for cols in itertools.combinations(range(3), size)))


def test_smith_form_against_determinantal_divisors():
    # d_1 ... d_i is the gcd of the i x i minors, V is unimodular, and the
    # columns of V past the rank span the kernel of the matrix
    rng = random.Random(5)
    for _ in range(200):
        rows = [[rng.randint(-6, 6) for _ in range(3)]
                for _ in range(rng.randint(1, 3))]
        factors, V = _smith_form(rows, 3)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        for i in range(1, len(rows) + 1):
            assert prod(factors[:i]) * (i <= len(factors)) == \
                _minors_gcd(rows, i)
        assert abs(_minors_gcd(V, 3)) == 1
        for p in range(len(factors), 3):
            assert all(sum(r[j] * V[j][p] for j in range(3)) == 0
                       for r in rows)
