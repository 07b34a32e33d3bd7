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
from kleinfib import autos, cli, curves, geometry, lattice, numeric, orbits
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
from kleinfib.orbits import (case_surface, dn_intersections, family_rows,
                             fibre_rows, rationality_degree,
                             s6_intersections, s7_conjugation,
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
    assert sum(c.count for c in certify_s6_lines(catalog["s6"])) == 27
    assert sum(c.count for c in enumerate_s7(catalog["s7"])[0]) == 56
    assert sum(c.count for c in enumerate_s8(catalog["s8"])[0]) == 240
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
    curves, _ = enumerate_s7(build_surface("s7"))
    main_curve = next(c for c in curves if c.family == "S7-main")
    _, dd = main_curve.data["coeff_pairs"]["d"]
    assert repr(dd) == "(115)*e^18 + (-28)*t"


def test_criterion_3_sturm_counts():
    assert count_real_roots(q_cubic()) == 3
    assert count_real_roots(q1_quartic()) == 4
    assert count_real_roots(q2_quartic()) == 4
    # the counted polynomials are the residuals the enumerations return
    report = sturm_vs_numeric(build_surface("s7"), build_surface("s8"),
                              NumericConfig(tol=1e-8))
    for label, expected in (("Q", 3), ("Q1", 4), ("Q2", 4)):
        assert report[label] == {"sturm": expected, "numeric": expected}


def test_criterion_4_rationality_table_and_grid():
    started = time.monotonic()
    catalog = build_catalog()
    for case, a in (("e6", 12), ("e7", 18), ("e8", 30)):
        assert rationality_degree(case, catalog[case_surface(case)]) == a
    for n, a in ((4, 2), (5, 8), (6, 2), (9, 16)):
        assert rationality_degree("dn:%d" % n, catalog["dn:%d" % n]) == a
    for n in range(2, 7):
        assert rationality_degree("an:%d" % n, catalog["an:%d" % n]) == 1
    cells = verdict_grid(catalog)
    assert len(cells) == 150
    for c in cells:
        assert c["rational"] == (c["m"] % c["a"] == 0)
    assert time.monotonic() - started < 120


def test_criterion_5_intersection_witnesses():
    catalog = build_catalog()
    report = s6_intersections(catalog["s6"])
    s6 = report["rows"]
    assert s6["alpha"] == {1: [-1, 1, 1]}
    # each of the three first members meets ten of the 27 lines
    for family in report["full_rows"].values():
        for row in family.values():
            assert len(row) == 27 and row.count(1) == 10
    assert len(s6["Lmu"]) == 2
    for row in s6["Lmu"].values():
        for k in (4, 6, 8):  # xi of order 3, 2, 3
            assert row[k] == 1
    for order in (2, 3):
        assert s7_conjugation(catalog["s7"], order)["verified"]
    for order in (2, 3, 5):
        assert s8_conjugation(catalog["s8"], order)["verified"]
    assert family_rows(catalog["s7"])["rows"]["e0"] == {1: [-1, 2]}
    for n in range(4, 10):
        # mu meets -mu, and the x = 0 pair meets
        rows = dn_intersections(catalog["dn:%d" % n])["rows"]
        assert rows["mu"][1][n - 1] == rows["x0"][1][1] == 1
    for n in range(2, 7):
        # the y = 0 components are pairwise disjoint
        rows = fibre_rows(catalog["an:%d" % n], "y0", 0)["rows"]
        assert not any(rows["y0"][1][1:])


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
    assert all(c["residue"].is_zero() for c in report["charts"])


def test_criterion_9_numeric_oracle():
    report = full_audit(build_catalog())
    for name, expected in (("s6", 27), ("s7", 56), ("s8", 240)):
        for entry in report["surfaces"][name]:
            assert entry["count"] == expected
            assert entry["max_residue"] < 1e-8
    for t in (2, 3, 5):
        s6 = numeric_curve_audit(build_surface("s6"),
                                 NumericConfig(t=Fraction(t)))
        assert s6["count"] == 27 and s6["max_residue"] < 1e-8


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
# of the quartic, which contraction-s6 refutes as not of the model's shape;
# klein-e6,0,0,-1 deletes the z^2 term of E6, and autos-e6 refutes the
# diagonal group it leaves, whose free part has rank 2.
MUTATION_REACH = {
    "s6,0,0,1": {"a-table", "contraction-s6", "curves-s6",
                 "intersections-s6", "numeric-oracle", "verdict-grid"},
    "s7,0,0,1": {"a-table", "conjugation-s7-order2", "conjugation-s7-order3",
                 "curves-s7", "dehomogenization", "intersections-s7-e0",
                 "numeric-oracle", "sturm", "verdict-grid"},
    "s8,0,1,2": {"a-table", "conjugation-s8-order2", "conjugation-s8-order3",
                 "conjugation-s8-order5", "curves-s8", "dehomogenization",
                 "numeric-oracle", "sturm", "verdict-grid"},
    "dn:5,0,0,1": {"a-table", "charts-dn:5", "curves-dn:5",
                   "dehomogenization", "intersections-dn:5", "verdict-grid"},
    # the fibred surfaces numeric-oracle audits (an:2, dn:4), whose fault
    # it reads through the fibre families certified on them, and two it
    # does not; on A_n the t w^2 term (term 1), as the y z term (term 0)
    # vanishes on y = 0 and z = 0 whatever its coefficient
    "an:2,0,1,1": {"a-table", "charts-an:2", "curves-an:2",
                   "dehomogenization", "intersections-an:2", "numeric-oracle",
                   "verdict-grid"},
    "dn:4,0,0,1": {"a-table", "charts-dn:4", "curves-dn:4",
                   "dehomogenization", "intersections-dn:4",
                   "numeric-oracle"},
    "an:5,0,1,1": {"a-table", "charts-an:5", "curves-an:5",
                   "dehomogenization", "intersections-an:5"},
    "dn:9,0,0,1": {"a-table", "charts-dn:9", "curves-dn:9",
                   "dehomogenization", "intersections-dn:9"},
    "klein-an:2,0,0,2": {"autos-an:2", "dehomogenization"},
    "dn:5,1,0,1": {"charts-dn:5"},
    "klein-e7,0,1,1": {"dehomogenization"},
    "klein-e6,0,0,-1": {"autos-e6", "dehomogenization"},
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


def _blind(name, chart, readers):
    """The checks among `readers` that read the surface `name` but not the
    coefficient that --mutate <name>,<chart>,0,1 changes."""
    kind = name.partition(":")[0]
    if kind in ("an", "dn") and chart == 1:
        # chart oo: only the gluing check reads it
        return readers - {"charts-" + name}
    if kind == "an":
        # the y z term of chart 0: the components y = 0 and z = 0, and the
        # point where they meet, lie on the surface whatever its coefficient
        return readers & {"curves-" + name, "intersections-" + name,
                          "a-table", "verdict-grid", "numeric-oracle"}
    if kind == "dn":
        # the boundary self-intersection reads the index n, not the terms
        return {"lattice-dn-boundary"}
    if kind.startswith("klein-") and kind != "klein-an":
        # a diagonal map scales every monomial whatever its coefficient
        return {"autos-" + name.partition("-")[2]}
    return set()


def test_every_mutation_fails_every_check_that_reads_its_coefficient():
    # each of the 40 (surface, chart) pairs mutated at term 0 by 1 fails
    # exactly the checks whose --timings reads include the surface, but for
    # those _blind lists, and each failure is a verification failure
    code, out = _run_cli(["--timings", "reproduce-paper"])
    assert code == 0
    reads = {c["name"]: set(c["reads"]) for c in json.loads(out)["checks"]}
    catalog = build_catalog()
    pairs = [(name, chart) for name in sorted(catalog)
             for chart in range(len(catalog[name].equations))]
    assert len(pairs) == 40
    for name, chart in pairs:
        mutation = "%s,%d,0,1" % (name, chart)
        code, out = _run_cli(["reproduce-paper", "--mutate", mutation])
        failed = [c for c in json.loads(out)["checks"]
                  if c["status"] == "failed"]
        readers = {check for check, names in reads.items() if name in names}
        assert code == 1, mutation
        assert {c["name"] for c in failed} == \
            readers - _blind(name, chart, readers), mutation
        assert all(c["error_kind"] == "verification" for c in failed)


@pytest.mark.parametrize("delta", ["1", "1/2"])
@pytest.mark.parametrize("term", range(4))
def test_every_s6_term_reaches_every_s6_check(term, delta):
    # a fault in any term of the cubic, not only the first, fails every
    # check that reads s6, and no other
    code, out = _run_cli(["reproduce-paper", "--mutate",
                          "s6,0,%d,%s" % (term, delta)])
    assert code == 1
    assert {c["name"] for c in json.loads(out)["checks"]
            if c["status"] == "failed"} == MUTATION_REACH["s6,0,0,1"]


def test_mutated_dn9_fails_its_intersections():
    # one witness per unordered mu-pair still reads the mutated surface
    code, out = _run_cli(["reproduce-paper", "--mutate", "dn:9,0,0,1"])
    assert code == 1
    failed = {c["name"] for c in json.loads(out)["checks"]
              if c["status"] == "failed"}
    assert "intersections-dn:9" in failed


def test_failed_gluing_names_its_surface():
    code, out = _run_cli(["reproduce-paper", "--mutate", "dn:5,1,0,1"])
    assert code == 1
    failed = [c for c in json.loads(out)["checks"]
              if c["status"] == "failed"]
    assert [c["name"] for c in failed] == ["charts-dn:5"]
    assert failed[0]["error_kind"] == "verification"
    assert "dn:5" in failed[0]["error"]


# The verified checks that read no surface, each a fact about constants.
READS_NOTHING = {
    "lattice-classes": "(-1)-class counts of the Picard lattice",
    "lattice-coxeter": "Coxeter numbers of the root systems",
}


def test_every_verified_check_reads_a_surface():
    # every check reaches its surfaces through the catalog it is handed,
    # which logs each lookup; the reads are kept with the check's memoized
    # entry, and --timings prints them as `reads`
    checks = cli._run_reproduction(build_catalog(), timings=True)
    steps = {c["name"]: (c["status"], set(c["reads"])) for c in checks}
    assert len(checks) == len(steps) == 66
    blind = {name for name, (status, names) in steps.items()
             if status == "verified" and not names}
    assert blind == set(READS_NOTHING)
    assert steps["lattice-dn-boundary"][1] == {
        "dn:%d" % n for n in geometry.DN_RANGE}


def test_memo_recomputes_exactly_the_checks_that_read_a_mutation(
        fresh_check_memo):
    # each (surface, chart) mutated at term 0 by 1: the checks whose reads
    # include the surface are recomputed, every other one is reused, and the
    # certificate is byte for byte the one printed with the memo cleared
    code, out = _run_cli(["--timings", "reproduce-paper"])
    assert code == 0
    reads = {c["name"]: set(c["reads"]) for c in json.loads(out)["checks"]}
    catalog = build_catalog()
    pairs = [(name, chart) for name in sorted(catalog)
             for chart in range(len(catalog[name].equations))]
    assert len(pairs) == 40
    for name, chart in pairs:
        argv = ["reproduce-paper", "--mutate", "%s,%d,0,1" % (name, chart)]
        before = {key: len(runs) for key, runs in fresh_check_memo.items()}
        code, warm = _run_cli(argv)
        recomputed = {key[0] for key, runs in fresh_check_memo.items()
                      if len(runs) != before.get(key, 0)}
        assert recomputed == {check for check, names in reads.items()
                              if name in names}, argv
        fresh_check_memo.cache_clear()
        assert _run_cli(argv) == (code, warm), argv
        fresh_check_memo.cache_clear()
        assert _run_cli(["reproduce-paper"])[0] == 0


# the pure pipelines cached on the surfaces (and configs) they read, and
# the checks of constants
PIPELINE_CACHES = [
    curves.certify_s6_lines, curves.enumerate_s7, curves.enumerate_s8,
    curves.enumerate_an, curves.enumerate_dn, numeric.numeric_curve_audit,
    numeric.sturm_vs_numeric, lattice.minus_one_classes,
    lattice.coxeter_number, orbits.family_rows, orbits.s7_conjugation,
    orbits.s8_conjugation, orbits._rational_point, orbits.minimal_model,
    geometry._clean_catalog, cli._dehomogenizes, cli.build_parser]


def test_reproduction_builds_one_minimal_model_per_divisor(fresh_check_memo):
    # a-table and verdict-grid read the verdicts of nine cases, each from its
    # minimal models at the divisors of its period: 41 in all
    orbits.minimal_model.cache_clear()
    assert _run_cli(["reproduce-paper"])[0] == 0
    assert orbits.minimal_model.cache_info().misses == 41


def test_unmutated_rerun_misses_no_cache(fresh_check_memo):
    # the memo is cleared between the runs, so the second one calls the
    # pipelines again and each must answer from its cache
    assert _run_cli(["reproduce-paper"])[0] == 0
    misses = [fn.cache_info().misses for fn in PIPELINE_CACHES]
    fresh_check_memo.cache_clear()
    assert _run_cli(["reproduce-paper"])[0] == 0
    assert [fn.cache_info().misses for fn in PIPELINE_CACHES] == misses


def test_mutation_recomputes_only_what_reads_the_mutated_surface(
        monkeypatch, fresh_check_memo):
    # the checks of klein-dn:5 are its automorphisms and its pair in the
    # dehomogenization; whatever an earlier test cached for the pair is
    # cleared
    cli._dehomogenizes.cache_clear()
    assert _run_cli(["reproduce-paper"])[0] == 0
    sizes = [fn.cache_info().currsize for fn in PIPELINE_CACHES]
    # the memo serves every check that does not read klein-dn:5, and the
    # dehomogenization recomputes only the mutated pair
    computed = []

    def report(s, seed=0, wild_polys=None):
        computed.append(s.name)
        return compute(s, seed, wild_polys)
    compute = autos.autos_report
    monkeypatch.setattr(autos, "autos_report", report)
    code, out = _run_cli(["reproduce-paper", "--mutate",
                          "klein-dn:5,0,1,1/2"])
    assert code == 1
    added = {fn.__name__: fn.cache_info().currsize - size
             for fn, size in zip(PIPELINE_CACHES, sizes)
             if fn.cache_info().currsize != size}
    assert added == {"_dehomogenizes": 1}
    assert computed == ["klein-dn:5"]


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
