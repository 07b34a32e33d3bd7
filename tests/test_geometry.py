"""Surface catalog, chart gluing and the contraction identity."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import kleinfib

from kleinfib.curves import VerificationError
from kleinfib.geometry import (GeometryError, boundary_selfintersection,
                               build_catalog, build_surface, bundle_atlas,
                               charts_compatible, check_homogeneous,
                               on_surface, surface_names,
                               verify_contraction_S6)
from kleinfib.multipoly import MultiPoly


def test_catalog_builds_and_is_homogeneous():
    catalog = build_catalog()
    assert set(surface_names()) == set(catalog)
    for s in catalog.values():
        check_homogeneous(s)


def test_catalog_shares_its_clean_surfaces():
    mutated = build_catalog(("s8", 0, 1, Fraction(2)))
    clean = build_catalog()
    assert clean["s8"] == build_surface("s8") != mutated["s8"]
    others = [name for name in clean if name != "s8"]
    assert len(others) == 28
    assert all(mutated[name] is clean[name] for name in others)
    # each call returns a catalog of its own
    clean.pop("s8")
    assert "s8" in build_catalog()


def test_unknown_surface():
    with pytest.raises((GeometryError, KeyError, ValueError)):
        build_surface("s9")


def test_only_the_cli_builds_surfaces():
    # every pipeline takes the surface it reads; geometry defines the
    # builders and cli alone calls them
    builders = {"build_surface", "build_catalog"}
    callers = set()
    for path in Path(kleinfib.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    getattr(f, "attr", None)
                if name in builders:
                    callers.add(path.name)
    assert callers <= {"geometry.py", "cli.py"}
    assert "cli.py" in callers


def test_surfaces_are_values():
    clean, again = build_catalog(), build_catalog()
    assert clean == again
    assert hash(clean["s6"]) == hash(again["s6"])
    mutated = build_catalog(mutation=("s6", 0, 0, Fraction(1)))
    assert mutated["s6"] != clean["s6"]
    assert mutated["s7"] == clean["s7"]


def test_mutation_rejects_chart_out_of_range():
    with pytest.raises(GeometryError):
        build_catalog(mutation=("s7", 1, 0, Fraction(1)))
    with pytest.raises(GeometryError):
        build_catalog(mutation=("s9", 0, 0, Fraction(1)))


def test_transitions_and_compatibility():
    catalog = build_catalog()
    for name, s in catalog.items():
        if s.ambient.kind != "atlas":
            continue
        assert charts_compatible(s)


def test_failed_gluing_names_surface_and_difference():
    s = build_catalog(("an:3", 1, 0, Fraction(1)))["an:3"]
    with pytest.raises(VerificationError, match="an:3") as info:
        charts_compatible(s)
    # the mutation cancels the -yz term of chart oo, and the glued chart 0
    # keeps it
    y, z = (MultiPoly.var(s.equation.vars, v) for v in ("y", "z"))
    assert info.value.detail == -(y * z)


@pytest.mark.parametrize("n", range(4, 33))
def test_boundary_selfintersection(n):
    assert boundary_selfintersection(build_surface("dn:%d" % n)) == 3 - n


def test_boundary_selfintersection_checks_its_hypotheses():
    s = build_surface("dn:5")
    w = MultiPoly.var(s.equation.vars, "w")
    times_w = s._replace(equations=tuple(w * e for e in s.equations))
    with pytest.raises(VerificationError, match="w divides"):
        boundary_selfintersection(times_w)
    y = MultiPoly.var(s.equation.vars, "y")
    cubic = s._replace(equations=tuple((w + y) * e for e in s.equations))
    with pytest.raises(VerificationError, match="not a conic"):
        boundary_selfintersection(cubic)
    with pytest.raises(GeometryError):
        boundary_selfintersection(build_surface("s7"))


@pytest.mark.parametrize("n", range(5, 33, 2))
def test_boundary_selfintersection_reads_the_atlas(n):
    # on odd n, F_{a+1,b} raises d by one and a + b by one; on even n the
    # x y^2 term raises d by two, and C^2 stays 3 - n
    s = build_surface("dn:%d" % n)
    a, b = s.ambient.transition
    moved = s._replace(ambient=bundle_atlas(a + 1, b))
    assert boundary_selfintersection(moved) == 2 - n


def test_mutation_changes_equation():
    clean = build_catalog()["s7"].equations[0]
    mutated = build_catalog(mutation=("s7", 0, 0, Fraction(1)))
    assert mutated["s7"].equations[0] != clean


def test_mutation_rejects_zero_delta():
    with pytest.raises(GeometryError):
        build_catalog(mutation=("s7", 0, 0, Fraction(0)))


def test_on_surface_rejects_off_point():
    catalog = build_catalog()
    s = catalog["s8"]
    T = s.const_tower.extend_ratfunc("t")
    assert not on_surface(s, tuple(T.from_fraction(k) for k in (1, 1, 1, 1)))
    with pytest.raises(GeometryError, match="all-zero"):
        on_surface(s, tuple(T.from_fraction(0) for _ in range(4)))


def test_contraction_identity_both_charts():
    catalog = build_catalog()
    report = verify_contraction_S6(catalog["s6"], catalog["s6prime"])
    assert report["ok"]
    assert all(c["residue"].is_zero() for c in report["charts"])
    assert report["blowdown_image"]["target"] == "(0:0:0:1)"


def test_contraction_checks_quartic_shape():
    # zeroing the Z^2 term leaves a quartic of Z-degree 0: not the model
    catalog = build_catalog(("s6prime", 0, 0, Fraction(1)))
    with pytest.raises(VerificationError, match="Z-degree 2"):
        verify_contraction_S6(catalog["s6"], catalog["s6prime"])
