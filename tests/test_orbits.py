"""Galois orbits, intersection witnesses and rationality verdicts."""

import pytest

from kleinfib import orbits, tower
from kleinfib.geometry import build_catalog, build_surface
from kleinfib.orbits import (BaseExtension, GRID_CASES, an_intersections,
                             dn_intersections, minimal_model,
                             orbit_structure, rationality_degree,
                             rationality_verdict, s6_intersections,
                             s7_conjugation, s7_e0_intersection,
                             s8_conjugation, two_part, verdict_grid)


def test_two_part():
    assert [two_part(k) for k in (1, 2, 6, 8, 12, 16)] == \
        [1, 2, 2, 8, 4, 16]


def test_rationality_degrees():
    assert rationality_degree("e6") == 12
    assert rationality_degree("e7") == 18
    assert rationality_degree("e8") == 30
    assert rationality_degree("an:2") == 1
    assert rationality_degree("dn:4") == 2
    assert rationality_degree("dn:5") == 8
    assert rationality_degree("dn:6") == 2
    assert rationality_degree("dn:9") == 16


@pytest.mark.parametrize("N,m", [(12, 1), (12, 4), (12, 12), (3, 2),
                                 (30, 6), (18, 9), (6, 30)])
def test_orbit_structure(N, m):
    from math import gcd
    report = orbit_structure(N, m)
    g = gcd(N, m)
    assert report["g"] == g
    assert len(report["blocks"]) == g
    assert all(len(b) == N // g for b in report["blocks"])


def test_verdict_examples():
    s6, d4 = build_surface("s6"), build_surface("dn:4")
    v = rationality_verdict("e6", BaseExtension(12), s6)
    assert v.rational and v.a == 12
    v = rationality_verdict("e6", BaseExtension(6), s6)
    assert not v.rational and v.a == 12
    # m = 3: the three lines L1..L3 become rational, blow down to DP(4)
    d = minimal_model("e6", BaseExtension(3), s6)
    assert d.kind == "DelPezzo" and d.degree == 4
    assert not rationality_verdict("e6", BaseExtension(3), s6).rational
    # d4 over the base field: minimal conic bundle with >= 4 fibres
    d = minimal_model("dn:4", BaseExtension(1), d4)
    assert d.kind == "ConicBundle"
    assert d.singular_fibres >= 4
    assert not rationality_verdict("dn:4", BaseExtension(1), d4).rational


def test_e7_even_extension_keeps_one_curve():
    # the two e = 0 curves meet, so only one contracts: DP(3), not DP(4)
    d = minimal_model("e7", BaseExtension(2), build_surface("s7"))
    assert d.kind == "DelPezzo" and d.degree == 3


def test_verdict_grid_consistency():
    cells = verdict_grid(build_catalog())
    assert len(cells) == 150
    assert {c["case"] for c in cells} == set(GRID_CASES)
    for c in cells:
        assert c["rational"] == c["divisibility"]


def test_s6_intersections():
    report = s6_intersections(build_surface("s6"))
    pattern = {(e["branch"], e["k"]): e["intersect"]
               for e in report["pairs"] if e["pair"] == "Lmu/Lximu"}
    # order-2 and order-3 conjugates always meet
    for branch in ("plus", "minus"):
        assert pattern[(branch, 6)]
        assert pattern[(branch, 4)]
        assert pattern[(branch, 8)]
        # and some conjugate pairs are disjoint (negative control)
        assert not all(pattern[(branch, k)] for k in range(1, 12))
    # the three coordinate lines pairwise meet at (0:1:0:0)
    l123 = [e for e in report["pairs"] if e["pair"].startswith("L")
            and "/L" in e["pair"] and "mu" not in e["pair"]]
    assert len(l123) == 3 and all(e["intersect"] for e in l123)


def test_witnesses_stay_off_the_euclid_path(monkeypatch):
    # Laurent witnesses invert only monomials: an extended Euclid runs only
    # for their constant coefficients in Q(zeta_M), never for a denominator
    calls = []
    xgcd = tower._pxgcd

    def counted(*args):
        calls.append(1)
        return xgcd(*args)
    monkeypatch.setattr(tower, "_pxgcd", counted)
    for fn in (orbits.s6_intersections, orbits.dn_intersections,
               orbits.enumerate_dn):
        fn.cache_clear()
    s6_intersections(build_surface("s6"))
    # 189 measured; normalizing quotients by a gcd took 11707
    assert len(calls) <= 400
    del calls[:]
    dn_intersections(build_surface("dn:9"))
    assert not calls


@pytest.mark.parametrize("order", [2, 3])
def test_s7_conjugation(order):
    assert s7_conjugation(build_surface("s7"), order)["verified"]


@pytest.mark.parametrize("order", [2, 3, 5])
def test_s8_conjugation(order):
    assert s8_conjugation(build_surface("s8"), order)["verified"]


def test_s7_e0_pair_meets():
    assert s7_e0_intersection(build_surface("s7"))["intersect"]


@pytest.mark.parametrize("n", [4, 5, 9])
def test_dn_intersections(n):
    report = dn_intersections(build_surface("dn:%d" % n))
    assert any(e["intersect"] for e in report["pairs"])
    assert any(not e["intersect"] for e in report["pairs"])


@pytest.mark.parametrize("n", [2, 3, 5])
def test_an_contractible_orbit_disjoint(n):
    report = an_intersections(build_surface("an:%d" % n))
    distinct = [e for e in report["pairs"] if "distinct" in e["pair"]]
    assert distinct and all(not e["intersect"] for e in distinct)
    same = [e for e in report["pairs"] if "all j" in e["pair"]]
    assert same and all(e["intersect"] for e in same)


def test_invalid_case():
    with pytest.raises(ValueError):
        rationality_degree("e9")
    with pytest.raises(ValueError):
        BaseExtension(0)
