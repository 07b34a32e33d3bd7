"""Automorphism suite: diagonal groups, the order-3 map on d4, and the
wild shear family on a_n."""

import random
from fractions import Fraction

import pytest

from kleinfib.autos import (PolyMap, autos_report, check_invariance,
                            diagonal_group, map_order, tau_map,
                            tau_normalizes_diagonal, verify_an_wild_family,
                            verify_tau)
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
    assert tau_normalizes_diagonal(build_surface("klein-dn:4"), seed=3)


@pytest.mark.parametrize("case,exponents", [
    ("e6", (3, 4, 6)), ("e7", (4, 6, 9)), ("e8", (6, 10, 15)),
])
def test_en_parametrizations(case, exponents):
    desc = diagonal_group(build_surface("klein-" + case))
    assert desc.exponents == exponents


@pytest.mark.parametrize("n", [4, 5, 7, 9])
def test_dn_parametrization(n):
    desc = diagonal_group(build_surface("klein-dn:%d" % n))
    assert desc.exponents == (2, n - 2, n - 1)
    assert desc.signed[1] and desc.signed[2]


@pytest.mark.parametrize("case", ["e6", "e7", "e8"])
def test_parametrization_surjectivity(case):
    # 20 random solutions of the exponent conditions are hit exactly
    desc = diagonal_group(build_surface("klein-" + case))
    rng = random.Random(17)
    for _ in range(20):
        t = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        signs = tuple(rng.choice((1, -1)) if sg else 1
                      for sg in desc.signed)
        sol = desc.element(t, signs)
        assert desc.conditions_satisfied(sol)
        t2, signs2 = desc.solve_parameter(sol)
        assert desc.element(t2, signs2) == sol


@pytest.mark.parametrize("n", [2, 3, 5])
def test_an_wild_family(n):
    x, y, z = _vars()
    one = MultiPoly.const(VARS, Fraction(1))
    s = build_surface("klein-an:%d" % n)
    for P in (one, y, one + y + y ** 3):
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
