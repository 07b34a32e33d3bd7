"""Acceptance criteria, one test per numbered requirement."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import kleinfib
from kleinfib import curves, lattice, numeric
from kleinfib.autos import autos_report, verify_tau
from kleinfib.cli import main
from kleinfib.curves import (certify_s6_lines, enumerate_s7, enumerate_s8,
                             q_cubic, q1_quartic, q2_quartic)
from kleinfib.geometry import (build_catalog, build_surface,
                               verify_contraction_S6)
from kleinfib.lattice import coxeter_number, minus_one_classes
from kleinfib.multipoly import MultiPoly
from kleinfib.numeric import (NumericConfig, full_audit, numeric_curve_audit,
                              sturm_vs_numeric)
from kleinfib.orbits import (an_intersections, dn_intersections,
                             rationality_degree, s6_intersections,
                             s7_conjugation, s7_e0_intersection,
                             s8_conjugation, verdict_grid)
from kleinfib.univariate import count_real_roots


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_criterion_1_curve_counts():
    started = time.monotonic()
    catalog = build_catalog()
    assert len(certify_s6_lines(catalog["s6"])) == 27
    assert len(enumerate_s7(catalog["s7"])[0]) == 56
    assert len(enumerate_s8(catalog["s8"])[0]) == 240
    # membership residues are asserted to vanish inside the constructors;
    # a nonzero residue raises instead of returning
    assert time.monotonic() - started < 300


def test_criterion_2_residual_polynomials():
    assert q_cubic() == [Fraction(-64), Fraction(401808),
                         Fraction(-29496), Fraction(1)]

    def nested(c2, c1, c0):
        return [Fraction(1), 108000 * Fraction(c0), 108000 * Fraction(c1),
                108000 * Fraction(c2), 108000 * Fraction(5400)]

    assert q1_quartic() == nested(-20154789349200, 522900235, 1254)
    assert q2_quartic() == nested(-10810800, -44551045, -611864)
    curves, _, _ = enumerate_s7(build_surface("s7"))
    main_curve = next(c for c in curves if c.family == "S7-main")
    _, dd = main_curve.data["coeff_pairs"]["d"]
    assert repr(dd) == "(115)*e^18 + (-28)*t"


def test_criterion_3_sturm_counts():
    assert count_real_roots(q_cubic()) == 3
    assert count_real_roots(q1_quartic()) == 4
    assert count_real_roots(q2_quartic()) == 4
    report = sturm_vs_numeric(NumericConfig(tol=1e-8))
    for label, expected in (("Q", 3), ("Q1", 4), ("Q2", 4)):
        assert report[label]["numeric"] == expected


def test_criterion_4_rationality_table_and_grid():
    started = time.monotonic()
    assert rationality_degree("e6") == 12
    assert rationality_degree("e7") == 18
    assert rationality_degree("e8") == 30
    for n, a in ((4, 2), (5, 8), (6, 2), (9, 16)):
        assert rationality_degree("dn:%d" % n) == a
    for n in range(2, 7):
        assert rationality_degree("an:%d" % n) == 1
    cells = verdict_grid(build_catalog())
    assert len(cells) == 150
    for c in cells:
        assert c["rational"] == c["divisibility"]
    assert time.monotonic() - started < 120


def test_criterion_5_intersection_witnesses():
    catalog = build_catalog()
    s6 = s6_intersections(catalog["s6"])
    for entry in s6["pairs"]:
        if entry["intersect"]:
            assert entry["witness"] is not None
    pattern = {(e["branch"], e["k"]): e for e in s6["pairs"]
               if e["pair"] == "Lmu/Lximu"}
    for branch in ("plus", "minus"):
        for k in (4, 6, 8):  # xi of order 3, 2, 3
            assert pattern[(branch, k)]["intersect"]
    for order in (2, 3):
        assert s7_conjugation(catalog["s7"], order)["verified"]
    for order in (2, 3, 5):
        assert s8_conjugation(catalog["s8"], order)["verified"]
    assert s7_e0_intersection(catalog["s7"])["intersect"]
    for n in range(4, 10):
        report = dn_intersections(catalog["dn:%d" % n])
        assert any(e["intersect"] for e in report["pairs"])
    for n in range(2, 7):
        an_intersections(catalog["an:%d" % n])


def test_criterion_6_lattice_cross_check():
    assert len(minus_one_classes(6)) == 27
    assert len(minus_one_classes(7)) == 56
    assert len(minus_one_classes(8)) == 240
    for label, h in (("E6", 12), ("E7", 18), ("E8", 30)):
        assert coxeter_number(label) == h
    for n in range(4, 10):
        assert coxeter_number("D%d" % n) == 2 * (n - 1)


def test_criterion_7_automorphisms():
    catalog = build_catalog()
    tau = verify_tau(catalog["klein-dn:4"])
    assert tau["order"] == 3 and tau["lambda"] == "1"
    for case, exponents in (("e6", (3, 4, 6)), ("e7", (4, 6, 9)),
                            ("e8", (6, 10, 15))):
        report = autos_report(catalog["klein-" + case])
        assert report["verified"]
        got = report["diagonal"]["parametrization_exponents"]
        assert tuple(got) == exponents
    for n in range(4, 10):
        assert autos_report(catalog["klein-dn:%d" % n])["verified"]
    y = MultiPoly.var(("x", "y", "z"), "y")
    one = MultiPoly.const(("x", "y", "z"), Fraction(1))
    for n in (2, 3, 5):
        report = autos_report(catalog["klein-an:%d" % n],
                              wild_polys=[one, y, one + y + y ** 3])
        assert report["verified"]
        assert len(report["wild_family"]) == 3


def test_criterion_8_contraction_identity():
    catalog = build_catalog()
    report = verify_contraction_S6(catalog["s6"], catalog["s6prime"])
    assert report["ok"]
    assert all(c["residue_zero"] for c in report["charts"])


def test_criterion_9_numeric_oracle():
    report = full_audit(build_catalog(), t_values=(2, 3, 5))
    for name, expected in (("s6", 27), ("s7", 56), ("s8", 240)):
        for entry in report["surfaces"][name]:
            assert entry["count"] == expected
            assert entry["max_residue"] < 1e-8
    for t in (2, 3, 5):
        s6 = numeric_curve_audit(build_surface("s6"),
                                 NumericConfig(t=Fraction(t)))
        assert s6["degrees"] == [10] * 27
        assert s6["graph_checked"]


def test_criterion_10_fault_injection():
    code, _ = _run_cli(["reproduce-paper"])
    assert code == 0
    catalog = build_catalog()
    names = sorted(catalog)
    rng = random.Random(2026)
    for _ in range(10):
        name = rng.choice(names)
        surface = catalog[name]
        chart = rng.randrange(len(surface.equations))
        term = rng.randrange(len(surface.equations[chart].terms))
        delta = rng.choice(["1", "-1", "1/2", "2"])
        mutate = "%s,%d,%d,%s" % (name, chart, term, delta)
        code, out = _run_cli(["reproduce-paper", "--mutate", mutate])
        assert code == 1, "undetected mutation %s" % mutate
        cert = json.loads(out)
        assert cert["status"] == "failed"
        assert any(c["status"] == "failed" for c in cert["checks"])


# Each mutation fails exactly the checks that read the changed equation.
# A diagonal map scales every monomial by the same unit, whatever its
# coefficient, so autos-e7 reads the mutated klein-e7 and still passes; only
# the chart check reads chart oo of dn:5.  s6prime,0,0,1 zeroes the Z^2 term
# of the quartic, which contraction-s6 refutes as not of the model's shape.
MUTATION_REACH = {
    "s6,0,0,1": {"contraction-s6", "curves-s6", "intersections-s6",
                 "numeric-oracle", "verdict-grid"},
    "s7,0,0,1": {"conjugation-s7-order2", "conjugation-s7-order3",
                 "curves-s7", "dehomogenization", "intersections-s7-e0",
                 "numeric-oracle", "verdict-grid"},
    "dn:5,0,0,1": {"charts-dn:5", "curves-dn:5", "dehomogenization",
                   "intersections-dn:5", "verdict-grid"},
    "klein-an:2,0,0,2": {"autos-an:2", "dehomogenization"},
    "dn:5,1,0,1": {"charts-dn:5"},
    "klein-e7,0,1,1": {"dehomogenization"},
    "s6prime,0,0,1": {"contraction-s6", "dehomogenization"},
}


@pytest.mark.parametrize("mutation", sorted(MUTATION_REACH))
def test_mutation_fails_every_check_that_reads_it(mutation):
    code, out = _run_cli(["reproduce-paper", "--mutate", mutation])
    assert code == 1
    failed = [c for c in json.loads(out)["checks"]
              if c["status"] == "failed"]
    assert {c["name"] for c in failed} == MUTATION_REACH[mutation]
    assert all(c["error_kind"] == "verification" for c in failed)


# the pure pipelines cached on the surfaces (and configs) they read, next
# to the orbits witness caches
PIPELINE_CACHES = [
    curves.certify_s6_lines, curves.enumerate_s7, curves.enumerate_s8,
    curves.enumerate_an, curves.enumerate_dn, numeric.numeric_curve_audit,
    numeric.sturm_vs_numeric, lattice.minus_one_classes,
    lattice.coxeter_number]


def test_unmutated_rerun_misses_no_cache():
    assert _run_cli(["reproduce-paper"])[0] == 0
    misses = [fn.cache_info().misses for fn in PIPELINE_CACHES]
    assert _run_cli(["reproduce-paper"])[0] == 0
    assert [fn.cache_info().misses for fn in PIPELINE_CACHES] == misses


def test_cached_failure_stays_with_its_surface():
    argv = ["reproduce-paper", "--mutate", "s8,0,1,2"]
    code, warm = _run_cli(argv)
    assert code == 1
    src = os.path.dirname(os.path.dirname(kleinfib.__file__))
    cold = subprocess.run(
        [sys.executable, "-m", "kleinfib.cli"] + argv, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert cold.returncode == 1
    failed = [{c["name"] for c in json.loads(out)["checks"]
               if c["status"] == "failed"} for out in (warm, cold.stdout)]
    assert failed[0] == failed[1] and "curves-s8" in failed[0]
    code, out = _run_cli(["reproduce-paper"])
    assert code == 0
    assert all(c["status"] != "failed" for c in json.loads(out)["checks"])
