"""CLI behavior: exit codes, JSON shape, determinism."""

import io
import contextlib
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import kleinfib
from kleinfib import autos, cli, curves, lattice, numeric, orbits
from kleinfib.base import GeometryError
from kleinfib.cli import _parse_poly, main
from kleinfib.curves import VerificationError, dn_tower
from kleinfib.geometry import build_catalog, build_surface
from kleinfib.multipoly import MultiPoly
from kleinfib.numeric import NumericConfig, numeric_curve_audit


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out = buf.getvalue()
    return code, json.loads(out) if out.strip().startswith("{") else None


def test_unknown_surface_is_usage_error():
    code, _ = run(["curves", "s9"])
    assert code == 2


def test_missing_subcommand_is_usage_error():
    code, _ = run([])
    assert code == 2


def test_curves_counts():
    for name, count in (("an:3", 6), ("dn:4", 8)):
        code, cert = run(["curves", name])
        assert code == 0
        assert cert["status"] == "verified"
        assert cert["count"] == count


def test_verdict_examples():
    code, cert = run(["verdict", "e6", "--ext", "12"])
    assert code == 0
    assert cert["verdict"]["rational"] is True
    assert cert["verdict"]["a"] == 12
    code, cert = run(["verdict", "e6", "--ext", "6"])
    assert code == 0
    assert cert["verdict"]["rational"] is False
    assert cert["verdict"]["rule"] == "conic-bundle-ge-4-fibres-not-rational"
    # every xi-family lists its Galois partition, the S7 main family too
    code, cert = run(["verdict", "e7", "--ext", "6"])
    assert code == 0
    parts = cert["verdict"]["descriptor"]["justification"]["orbits"]
    assert {name: (p["g"], p["block_size"]) for name, p in parts.items()} \
        == {"e0": (2, 1), "main": (6, 3)}


@pytest.mark.parametrize("case,cycles", [
    ("e6", {"alpha": 1, "Lmu": 2}),
    ("e7", {"e0": 1, "main": 3}), ("e8", {"P1": 4, "P2": 4})])
def test_every_e_family_says_how_many_c_cycles_it_covers(case, cycles):
    # a family of count curves in binomials of degree N covers count // N
    # cycles of c: 24 = 2 * 12 lines for Lmu, 54 = 3 * 18 curves for main,
    # 120 = 4 * 30 for P1 and P2
    code, cert = run(["verdict", case, "--ext", "30"])
    assert code == 0
    parts = cert["verdict"]["descriptor"]["justification"]["orbits"]
    assert {name: p["cycles"] for name, p in parts.items()} == cycles
    # one partition of the N roots, whatever the number of cycles
    assert all(len(p["blocks"]) * p["block_size"] == p["N"]
               for p in parts.values())


@pytest.mark.parametrize("case", ["an:3", "dn:6"])
def test_conic_bundle_rule_note_names_what_it_assumes(case):
    code, cert = run(["verdict", case, "--ext", "2"])
    assert code == 0
    (rule,) = [c for c in cert["checks"] if c["name"] == "rule-table"]
    assert rule["status"] == "assumed"
    assert rule["note"].startswith(orbits.AXIOM + ": minimal: no Galois "
                                   "orbit of pairwise-disjoint (-1)-curves")
    assert "<= 1 singular fibre and a point is rational" in rule["note"]
    assert "endpoint table" not in rule["note"]


def test_failed_contraction_names_its_chart():
    # a moved quartic term is not reduced away in chart 1: the check names
    # the chart and carries the residue
    code, cert = run(["reproduce-paper", "--mutate", "s6prime,0,1,1"])
    assert code == 1
    (check,) = [c for c in cert["checks"] if c["name"] == "contraction-s6"]
    assert check["status"] == "failed"
    assert "chart 1 (W^2 : WX : WY : Z + iX^2) residue is not 0" \
        in check["error"]
    assert check["detail"] == "((1))*W^2*X^4"


def test_failed_check_carries_its_detail(monkeypatch):
    # a refused cycle matching shows the family's row beside those of the
    # free cycles of its length, truncated to 200 characters
    full = orbits.family_rows(build_surface("s6"))
    rows = dict(full["rows"]["Lmu"])
    rows[1] = rows[1][:2] + [1] + rows[1][3:]
    monkeypatch.setattr(orbits, "family_rows", lambda s: dict(
        full, rows=dict(full["rows"], Lmu=rows)))
    caches = (orbits._coxeter_match, orbits.minimal_model)
    for fn in caches:
        fn.cache_clear()
    try:
        code, cert = run(["verdict", "e6", "--ext", "1"])
    finally:
        for fn in caches:
            fn.cache_clear()
    assert code == 1
    (pipeline,) = cert["checks"]
    assert pipeline["error"] == "VerificationError: e6: no free c-cycle " \
                                "fits the row of Lmu"
    assert pipeline["detail"] == (
        "{'row': [-1, 0, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0], 'cycles': "
        "[[-1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1], "
        "[-1, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0]]}")


def test_a_table_compares_the_e_rows_with_h(monkeypatch,
                                            fresh_check_memo):
    # a is checked against the paper and, for e6, e7, e8, against the
    # Coxeter number: a wrong h fails a-table with the verdicts unchanged
    real = lattice.coxeter_number
    monkeypatch.setattr(lattice, "coxeter_number",
                        lambda label: 13 if label == "E6" else real(label))
    code, cert = run(["reproduce-paper"])
    assert code == 1
    checks = {c["name"]: c for c in cert["checks"]}
    assert "'e6': 13" in checks["a-table"]["error"]
    assert checks["verdict-grid"]["status"] == "verified"


def test_verdict_bad_case():
    code, _ = run(["verdict", "e9", "--ext", "2"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["autos", "s9"], ["autos", "e9"], ["autos", "dn:3"],
    ["reproduce-paper", "--mutate", "s7,0,0,0"],
    ["reproduce-paper", "--mutate", "s7,5,0,1"],
    ["verdict", "e6", "--ext", "0"], ["verdict", "dn:3", "--ext", "2"],
    ["audit", "an:1"]], ids=" ".join)
def test_bad_input_exits_2(argv):
    code, cert = run(argv)
    assert code == 2 and cert is None


def test_internal_error_is_not_a_usage_error(monkeypatch):
    def bug(*args, **kwargs):
        raise ValueError("an element of QQ(z12) is not in QQ(z16, mu)")
    monkeypatch.setattr(curves, "enumerate_an", bug)
    code, cert = run(["curves", "an:5"])
    assert code == 1
    assert cert["status"] == "failed"
    (pipeline,) = cert["checks"]
    assert pipeline["error_kind"] == "internal"
    assert pipeline["error"].startswith("ValueError: ")


def test_lattice():
    code, cert = run(["lattice", "7"])
    assert code == 0
    assert cert["minus_one_count"] == 56
    assert cert["coxeter_number"] == 18
    code, _ = run(["lattice", "2"])
    assert code == 2


def test_autos_wild_poly():
    # the zero shear is the identity, which preserves a_n with lambda = 1
    for poly in ("1+y", "0"):
        code, cert = run(["autos", "an", "--n", "3", "--poly", poly])
        assert code == 0
        assert cert["status"] == "verified"


@pytest.mark.parametrize("case,code", [
    ("an:3", 0), ("klein-an:3", 0), ("e6", 2), ("klein-e6", 2)])
def test_autos_poly_follows_the_resolved_family(case, code):
    # --poly is taken or refused by the family of the surface the case
    # names, whichever way the case is spelled
    got, cert = run(["autos", case, "--poly", "1+y"])
    assert got == code
    if code == 0:
        _, typed = run(["autos", "an", "--n", "3", "--poly", "1+y"])
        assert cert["report"] == typed["report"]
        assert cert["status"] == "verified"


def test_autos_bad_poly():
    code, _ = run(["autos", "an", "--n", "3", "--poly", "y+q"])
    assert code == 2


def test_parse_poly():
    p = _parse_poly("1+y+y^3")
    assert p.degree("y") == 3
    assert _parse_poly("7").is_constant()


def test_parse_poly_signed_terms():
    p = _parse_poly("-2*y^2+7")
    assert p.terms == {(0, 2, 0): Fraction(-2), (0, 0, 0): Fraction(7)}


# 1 + y + ... + y^64
DENSE_64 = "+".join(["1", "y"] + ["y^%d" % k for k in range(2, 65)])


@pytest.mark.parametrize("n,text", [
    pytest.param(3, "9^9^9", id="9^9^9"),
    pytest.param(3, "y^100000", id="y^100000"),
    pytest.param(3, "y+q", id="y+q"),
    # numbers of more digits than int() converts from a string
    pytest.param(3, "9" * 5000 + "*y", id="5000-digit coefficient"),
    pytest.param(3, "y^" + "9" * 5000, id="5000-digit exponent"),
    # shears too large to verify: (x + yP)^32 of 33825 terms (it ran past
    # 120 s), and one of coefficients up to 2^3232
    pytest.param(32, DENSE_64, id="dense degree-64 shear at n = 32"),
    pytest.param(32, "%d*y" % 2 ** 100, id="100-bit shear at n = 32")])
def test_bad_poly_exits_before_arithmetic(monkeypatch, n, text):
    def unreachable(*args, **kwargs):
        raise AssertionError("arithmetic ran on a rejected polynomial")
    monkeypatch.setattr(autos, "autos_report", unreachable)
    code, _ = run(["autos", "an", "--n", str(n), "--poly", text])
    assert code == 2


@pytest.mark.parametrize("n,text,size", [
    (3, "1+y", (10, 6)), (4, "-2*y^2+7", (15, 16)), (3, "0", (1, 3)),
    (32, "y^64", (33, 64)),
    pytest.param(8, DENSE_64, (2313, 56), id="8-dense 64"),
    (32, "1+y+y^2+y^3+y^4", (2145, 96)),
    pytest.param(32, DENSE_64, (33825, 224), id="32-dense 64")])
def test_shear_size_bounds_the_expansion(n, text, size):
    # the bounds on the terms and coefficient bits of (x + yP)^n, checked
    # against the expansion where it is cheap; for these P the bound on
    # the terms is their number
    P = _parse_poly(text)
    assert cli._shear_size(n, P) == size
    x, y, _ = (MultiPoly.var(P.vars, v) for v in P.vars)
    if n <= 8:
        expansion = (x + y * P) ** n
        top = max(abs(c) for c in expansion.terms.values())
        assert len(expansion.terms) == size[0]
        assert int(top).bit_length() <= size[1]


def test_largest_accepted_shears_verify():
    # within the bounds: the sparse y^64 at n = 32, and the dense
    # 1 + y + ... + y^4 at n = 32 (2145 terms)
    for n, text in ((32, "y^64"), (32, "1+y+y^2+y^3+y^4")):
        code, cert = run(["autos", "an", "--n", str(n), "--poly", text])
        assert code == 0 and cert["status"] == "verified"


@pytest.mark.parametrize("argv", [
    ["curves", "an:33"], ["curves", "dn:200"],
    ["verdict", "dn:200", "--ext", "2"], ["verdict", "an:10000", "--ext", "1"],
    ["autos", "an", "--n", "200"], ["autos", "dn:64"],
    ["audit", "an:200"]])
def test_family_index_bound_exits_before_arithmetic(monkeypatch, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("arithmetic ran on a rejected index")
    for module, name in ((curves, "enumerate_an"), (curves, "enumerate_dn"),
                         (orbits, "rationality_verdict"),
                         (autos, "autos_report")):
        monkeypatch.setattr(module, name, unreachable)
    monkeypatch.setattr(numeric, "numeric_curve_audit", unreachable)
    code, _ = run(argv)
    assert code == 2


@pytest.mark.parametrize("name,low", [("an:33", 2), ("an:1", 2),
                                      ("dn:33", 4), ("dn:3", 4),
                                      ("klein-dn:2", 4)])
def test_family_index_error_names_the_family_range(capsys, name, low):
    # A_n starts at n = 2 and D_n at n = 4; both end at MAX_FAMILY_INDEX
    with pytest.raises(cli.UsageError) as info:
        cli._family_index(name)
    assert str(info.value) == "index out of range in %r (%d..%d)" % (
        name, low, cli.MAX_FAMILY_INDEX)
    if not name.startswith("klein-"):
        code, _ = run(["curves", name])
        assert code == 2
        assert capsys.readouterr().err == "error: %s\n" % info.value


def test_family_index_bound_keeps_used_indices():
    assert cli.MAX_FAMILY_INDEX >= 12
    assert cli._family_index("an:7") == 7
    assert cli._family_index("dn:12") == 12
    assert cli._family_index("klein-dn:4") == 4
    assert cli._family_index("e6") is None


def test_autos_poly_with_leading_minus():
    code, cert = run(["autos", "an", "--n", "4", "--poly", "-2*y^2+7"])
    assert code == 0
    assert cert["inputs"]["poly"] == "-2*y^2+7"
    assert cert["report"]["verified"] is True


def test_verdict_dn12_rational_point():
    # the d <= 1 rule reads dn:12, which is outside the default catalog
    code, cert = run(["verdict", "dn:12", "--ext", "4"])
    assert code == 0
    assert cert["verdict"]["rational"] is True
    assert cert["verdict"]["a"] == 2
    assert cert["verdict"]["rule"] == \
        "conic-bundle-le-1-fibre-with-point-rational"


def test_family_cap_dn32():
    # at the family cap the D_n witness tower is Q(zeta_124)(mu), phi = 60
    assert cli.MAX_FAMILY_INDEX == 32
    assert dn_tower(32)[0].M == 124
    code, cert = run(["curves", "dn:32"])
    assert code == 0 and cert["status"] == "verified"
    assert cert["count"] == 64
    code, cert = run(["verdict", "dn:32", "--ext", "62"])
    assert code == 0 and cert["status"] == "verified"
    assert cert["verdict"]["rational"] is True
    assert cert["verdict"]["a"] == 2


def test_audit_bad_t():
    # t must be nonzero with a finite nonzero float; tol finite and positive
    for args in (["--t", "0"], ["--t", "nonsense"], ["--t", "1e400"],
                 ["--t", "-1e400"], ["--t", "1e-400"], ["--tol", "nan"],
                 ["--tol", "inf"], ["--tol", "0"]):
        code, _ = run(["audit", "s7"] + args)
        assert code == 2, args


def test_audit_runs():
    # negative t too: the curves are defined over C(t)
    for surface, t, count in (("dn:5", "3", 10), ("dn:5", "-3", 10),
                              ("s7", "-2", 56)):
        code, cert = run(["audit", surface, "--t", t])
        assert code == 0, (surface, t)
        assert cert["report"]["count"] == count


def test_audit_never_verifies_an_overflow():
    # at t = 1e305 the S7 graphs, and at t = 1e300 the parameter s of an S8
    # member, overflow in doubles: the audit must fail, not pass
    with pytest.raises(VerificationError, match="a double overflows"):
        numeric_curve_audit(build_surface("s7"), NumericConfig(t=10**305))
    with pytest.raises(VerificationError, match="a double overflows"):
        numeric_curve_audit(build_surface("s8"), NumericConfig(t=10**300))


@pytest.mark.parametrize("argv", [
    ["s7", "--t", "1e300"], ["s8", "--t", "1e-6"], ["s6", "--t", "1e15"],
    ["s8", "--t", "1e-300"], ["s8", "--t=-1/8192"]], ids=" ".join)
def test_audit_t_out_of_range_exits_2(monkeypatch, argv):
    # outside AUDIT_T_RANGE the doubles, not the surface, would fail
    def unreachable(*args, **kwargs):
        raise AssertionError("the oracle ran on a t out of range")
    monkeypatch.setattr(numeric, "numeric_curve_audit", unreachable)
    code, cert = run(["audit"] + argv)
    assert code == 2 and cert is None


def _audited_surfaces():
    names = [name for name in sorted(build_catalog())
             if name in ("s6", "s7", "s8") or name.startswith(("an:", "dn:"))]
    assert len(names) == 14
    return names


@pytest.mark.parametrize("t", ["4096", "-4096", "1/4096", "-1/4096"])
def test_audit_verifies_at_the_ends_of_the_t_range(t):
    for name in _audited_surfaces():
        code, cert = run(["audit", name, "--t=" + t])
        assert code == 0 and cert["status"] == "verified", name


@pytest.mark.parametrize("tol", ["1e-10", "1e-8"])
def test_audit_verifies_at_the_ends_of_the_tol_range(tol):
    for name in _audited_surfaces():
        code, cert = run(["audit", name, "--tol", tol])
        assert code == 0 and cert["status"] == "verified", name


@pytest.mark.parametrize("tol", ["1e-6", "1", "1e-300"])
def test_audit_tol_out_of_range_exits_2(monkeypatch, tol):
    # --tol 1 cannot fail, 1e-6 lets an S7 or S8 graph with one coefficient
    # off by a relative 1e-6 pass, and 1e-300 refutes S7 on rounding error
    def unreachable(*args, **kwargs):
        raise AssertionError("the oracle ran at a tolerance out of range")
    monkeypatch.setattr(numeric, "numeric_curve_audit", unreachable)
    code, cert = run(["audit", "s7", "--tol", tol])
    assert code == 2 and cert is None


@pytest.mark.parametrize("argv", [
    ["--t", "-1/4096"], ["--t=-1/4096"], ["--t", "-1e-3"]], ids=" ".join)
def test_audit_takes_a_negative_t_without_equals_sign(argv):
    code, cert = run(["audit", "s8"] + argv)
    assert code == 0 and cert["status"] == "verified"
    assert cert["inputs"]["t"] == argv[-1].replace("--t=", "")


def test_failed_checks_carry_error_kind(monkeypatch, fresh_check_memo):
    def bug(*args, **kwargs):
        raise TypeError("a bug")

    def refuted(*args, **kwargs):
        raise VerificationError("refuted")
    monkeypatch.setattr(curves, "certify_s6_lines", bug)
    # the slow pipelines fail fast as mathematical failures
    for module, name in ((curves, "enumerate_s8"),
                         (orbits, "s6_intersections"),
                         (orbits, "verdict_grid"),
                         (orbits, "dn_intersections"),
                         (autos, "autos_report")):
        monkeypatch.setattr(module, name, refuted)
    monkeypatch.setattr(numeric, "full_audit", refuted)
    code, cert = run(["reproduce-paper"])
    assert code == 1
    checks = {c["name"]: c for c in cert["checks"]}
    assert checks["curves-s6"]["error"] == "TypeError: a bug"
    assert checks["curves-s6"]["error_kind"] == "internal"
    assert checks["verdict-grid"]["error_kind"] == "verification"
    assert checks["curves-s7"]["status"] == "verified"
    for c in checks.values():
        assert ("error_kind" in c) == (c["status"] == "failed"), c["name"]


def test_check_memo_tries_each_set_of_names_a_run_read():
    # a run is found by the surfaces under the names it read, whichever of
    # the check's sets of names that is; a surface changed under any of
    # them misses
    memo, key = cli._CheckMemo(), ("check", 0)
    clean, mutated = build_surface("s6"), build_surface("s7")
    memo.add(key, ("s6",), {"s6": clean}, "short run")
    memo.add(key, ("s6", "s7"), {"s6": mutated, "s7": clean}, "long run")
    assert memo.lookup(key, {"s6": mutated, "s7": clean}) == (
        ("s6", "s7"), "long run")
    assert memo.lookup(key, {"s6": clean, "s7": mutated}) == (
        ("s6",), "short run")
    assert memo.lookup(key, {"s6": mutated, "s7": mutated}) is None
    assert memo.lookup(("other", 0), {"s6": clean}) is None
    assert len(memo[key]) == 2
    memo.cache_clear()
    assert not memo and not memo.names


def test_check_memo_keys_on_the_cached_hashes(monkeypatch):
    # a run is found by its surfaces' cached hash ints, not through the
    # Python-level SurfaceSpec.__hash__, and holds while each stored surface
    # is, or equals, the catalog's: an equal surface built anew hits, one
    # given the same hash int but other equations misses, and once its own
    # run is stored, both runs are kept and found
    clean = build_surface("s7")
    again = clean._replace()
    bad = build_catalog(mutation=("s7", 0, 0, Fraction(1)))["s7"]
    bad._hash = clean._hash
    assert again is not clean and again == clean and bad != clean

    def unhashable(surface):
        raise AssertionError("SurfaceSpec.__hash__ called")
    monkeypatch.setattr(type(clean), "__hash__", unhashable)
    memo, key = cli._CheckMemo(), ("check", 0)
    memo.add(key, ("s7",), {"s7": clean}, "run")
    assert memo.lookup(key, {"s7": again}) == (("s7",), "run")
    assert memo.lookup(key, {"s7": bad}) is None
    memo.add(key, ("s7",), {"s7": bad}, "mutated run")
    assert memo.lookup(key, {"s7": bad}) == (("s7",), "mutated run")
    assert memo.lookup(key, {"s7": again}) == (("s7",), "run")


def test_a_console_run_freezes_what_it_built():
    # main() without argv is the process's entry point: no automatic
    # collection walks what the run builds, the collector is left off, and
    # before main returns that is frozen out of the exit-time collections
    script = ("import gc, sys; from kleinfib.cli import main\n"
              "def runs(): return [s['collections'] for s in gc.get_stats()]\n"
              "before = runs(); r = main(); after = runs()\n"
              "sys.stderr.write('%d %d %d' % (gc.get_freeze_count(), "
              "before == after, gc.isenabled())); sys.exit(r)")
    src = os.path.dirname(os.path.dirname(kleinfib.__file__))
    proc = subprocess.run([sys.executable, "-c", script, "reproduce-paper"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0
    frozen, no_collection, enabled = map(int, proc.stderr.split())
    assert frozen > 0 and no_collection and not enabled


def test_main_with_argv_leaves_the_collector_as_it_is():
    # tests and the benchmark's warm child call main(argv) and go on running
    before = gc.get_freeze_count(), gc.isenabled()
    assert run(["lattice", "6"])[0] == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_failed_surface_computation_runs_once(monkeypatch,
                                              fresh_check_memo):
    # a-table, verdict-grid and intersections-s6 all read the mutated cubic;
    # the failure is cached with the surface, so its rows are computed once
    # and the checks report the same error, that of the lines they read.
    # The minimal models and cycle matchings on the mutated cubic are
    # cached too, from any earlier run of this mutation, and a cached one
    # does not read the rows again
    orbits.family_rows.cache_clear()
    orbits.minimal_model.cache_clear()
    orbits._coxeter_match.cache_clear()
    computed, families = [], orbits.surface_families

    def counted(s):
        computed.append(s.name)
        return families(s)
    monkeypatch.setattr(orbits, "surface_families", counted)
    code, cert = run(["reproduce-paper", "--mutate", "s6,0,0,1"])
    assert code == 1
    assert computed.count("s6") == 1
    assert orbits.family_rows.cache_info().hits >= 1
    checks = {c["name"]: c for c in cert["checks"]}
    assert checks["intersections-s6"]["error"] == \
        checks["verdict-grid"]["error"] == checks["a-table"]["error"] == \
        "VerificationError: membership residue nonzero"


def test_an_y0_row_with_a_meet_fails_its_checks(monkeypatch,
                                                fresh_check_memo):
    # a y = 0 component of an:5 that meets two conjugates leaves no
    # disjoint orbit to contract: intersections-an:5 and the a-table, which
    # reads the an:5 verdicts, fail on it, and no other check reads it
    rows_of = orbits._root_rows
    monkeypatch.setattr(orbits, "_root_rows", lambda s, b: {
        1: [-1, 1, 0, 0, 1]} if (s.name, b) == ("an:5", "y0")
        else rows_of(s, b))
    caches = (orbits.family_rows, orbits.minimal_model)
    for fn in caches:
        fn.cache_clear()
    try:
        code, cert = run(["reproduce-paper"])
    finally:
        for fn in caches:
            fn.cache_clear()
    assert code == 1
    failed = {c["name"]: c["error"] for c in cert["checks"]
              if c["status"] == "failed"}
    assert failed == dict.fromkeys(
        ["a-table", "intersections-an:5"], "VerificationError: AN:5: a "
        "curve of y0 meets 2 of its conjugates, not 0")


@pytest.mark.parametrize("pair", [(0, 3), (15, 16)],
                         ids=["L1-Lmu+", "Lmu-"])
def test_a_flipped_s6_full_row_entry_fails_only_its_check(
        monkeypatch, fresh_check_memo, pair):
    # one entry of a full row flipped, the meet of L1 with the first L_mu
    # over c+ (across orbits) or of the first two L_mu over c- (within
    # one): intersections-s6 refuses it, and no other check reads the full
    # rows (the exact rows of family_rows never pair these graphs)
    lines = [line for _, _, members in
             curves.s6_common_lines(build_surface("s6")) for line in members]
    target, meet = [lines[i] for i in pair], orbits.meet_number
    monkeypatch.setattr(orbits, "meet_number", lambda a, b: 1 - meet(a, b)
                        if [a, b] == target else meet(a, b))
    code, cert = run(["reproduce-paper"])
    assert code == 1
    failed = {c["name"]: c["error"] for c in cert["checks"]
              if c["status"] == "failed"}
    assert list(failed) == ["intersections-s6"]
    assert "VerificationError: S6: the full row of" in failed[
        "intersections-s6"]


@pytest.mark.parametrize("surface,power", [("s7", 2), ("s8", 3)])
def test_a_changed_printed_form_fails_its_curves(monkeypatch, surface,
                                                 power):
    # the graph is read off the printed forms: X^power added to the chained
    # Z-form moves the graph off the surface, and curves fails
    chain = curves.chain_subs

    def changed(p, solved, strip=True):
        out = chain(p, solved, strip)
        return out + MultiPoly.var(out.vars, "X", power) \
            if p.degree("Z") > 0 else out
    monkeypatch.setattr(curves, "chain_subs", changed)
    enumerate_ = getattr(curves, "enumerate_" + surface)
    enumerate_.cache_clear()
    try:
        code, cert = run(["curves", surface])
    finally:
        enumerate_.cache_clear()
    assert code == 1
    (pipeline,) = cert["checks"]
    assert pipeline["error_kind"] == "verification"
    assert pipeline["error"] == \
        "VerificationError: membership residue nonzero"


# run as `python -c`: reproduce-paper with the S6 line enumeration refused
# inside, as the curve reader refuses forms that cut no graph
NO_GRAPH = """
import sys
from kleinfib import cli, curves
def refused(s):
    raise curves.GeometryError("the forms cut no graph over P^1_(W:X)")
curves.certify_s6_lines = refused
sys.exit(cli.main(["reproduce-paper"]))
"""


def test_an_enumeration_error_is_not_a_usage_error(monkeypatch):
    # only a surface without curves is a usage error, decided by name; a
    # GeometryError raised inside an enumeration fails the command (in
    # curves and audit) or the check (in a process of its own, so that no
    # cache here keeps the failure) as a verification
    def refused(s):
        raise GeometryError("the forms cut no graph over P^1_(W:X)")
    monkeypatch.setattr(curves, "certify_s6_lines", refused)
    for argv in (["curves", "s6"], ["audit", "s6", "--t", "3"]):
        code, cert = run(argv)
        assert code == 1, argv
        (pipeline,) = cert["checks"]
        assert pipeline["error_kind"] == "verification"
        assert pipeline["error"] == \
            "GeometryError: the forms cut no graph over P^1_(W:X)"
    assert run(["curves", "s6prime"]) == (2, None)
    src = os.path.dirname(os.path.dirname(kleinfib.__file__))
    proc = subprocess.run([sys.executable, "-c", NO_GRAPH],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1, proc.stderr
    checks = {c["name"]: c for c in json.loads(proc.stdout)["checks"]}
    assert checks["curves-s6"]["error_kind"] == "verification"
    assert checks["curves-s6"]["error"] == \
        "GeometryError: the forms cut no graph over P^1_(W:X)"


def test_timings_per_check():
    # --timings, like --out, may precede or follow the subcommand
    for argv in (["--timings", "reproduce-paper"],
                 ["reproduce-paper", "--timings"]):
        code, cert = run(argv)
        assert code == 0 and len(cert["checks"]) == 66
        assert cert["elapsed"] >= 0
        assert all(c["elapsed"] >= 0 for c in cert["checks"])
    code, cert = run(["reproduce-paper"])
    assert code == 0 and cert["elapsed"] is None
    assert not any("elapsed" in c for c in cert["checks"])


def test_parser_shares_no_options_between_calls():
    assert cli.build_parser() is cli.build_parser()
    for timed in (["--timings", "lattice", "6"], ["lattice", "6", "--timings"]):
        code, cert = run(timed)
        assert code == 0 and cert["elapsed"] >= 0
        code, cert = run(["lattice", "6"])
        assert code == 0 and cert["elapsed"] is None


def test_cached_parser_runs_the_current_command_function(monkeypatch):
    cli.build_parser()
    monkeypatch.setattr(cli, "cmd_lattice", lambda args: ([], {"r": args.r}))
    code, cert = run(["lattice", "6"])
    assert code == 0 and cert["r"] == 6 and cert["checks"] == []


# sha256 of certificates that print tower elements
PINNED = {
    # since every curve entry carries its `count`, and each branch of the
    # lines L_mu is one entry of count 12 instead of 12 copies; since L_mu
    # is one family over the two roots of its radicand C, the two entries
    # are one, of `branch` Lmu, `count` 24 and `relation` t^2 C(mu^12 / t),
    # with the forms over c+; since every entry is a family, none has an
    # `index`, and L1-L3 are one entry of `count` 3 with the forms of L1,
    # without `zeta3_power`
    ("curves", "s6"): "7ece57cc8f0ae99b6870f90b773122d5"
                      "a0956797e8a4b9f0281ece7020ddc795",
    # since every curve entry carries its `count`; since every entry is a
    # family, none has an `index`, and there are two: the x=0 pair of
    # `count` 2 with the forms of z = r w and no `sign`, and the mu family
    # of `count` 8 with the forms over mu and no `zeta_power`; since the
    # x=0 pair is a graph over Q(zeta_2)[r, 1/r], t = r^2, its `parameter`
    # is r, its `relation` r^2 - t and its z-form z - r w (was mu, mu^8 - t
    # and z - mu^4 w)
    ("curves", "dn:5"): "0d2f2d5f65c9c867492c762c567c0344"
                        "9e2fe279301062562e8aa57f8b51b1f4",
    # the two A_n families, y0 and z0, of `count` 5 each, with the forms
    # over x = alpha
    ("curves", "an:5"): "d82a817918bfc8269bdd85f5aed83675"
                        "150ffafcb753d293778f47ecab9b16bf",
    # since the E verdicts come from the contraction of the Coxeter
    # element's orbits: `rule` (in the verdict and its check) reads
    # del-pezzo-degree-ge-5-rational, the `rule-table` note names the two
    # statements assumed, and the justification's `step` names g, the
    # contracted orbits, K^2 and rho; since the minimal model is built once
    # per divisor g of the period, the descriptor has no `over` and no
    # `orbit_structure` entry an `m` (the verdict's `over` names m); since
    # each E family's entry says how many c-cycles it covers, each of the
    # three carries `cycles` 1; since each Galois orbit is matched to the
    # one c-cycle whose meeting numbers are its exact row, the `rule-table`
    # note says so instead of "S7/S8 match Coxeter cycles by lengths and
    # certified meets only"; since L_mu is one family over the two roots
    # of C, the justification's `orbits` has one entry Lmu, with `cycles`
    # 2, for Lmu_plus and Lmu_minus, and its `intersections` are the rows
    # of L1-L3 and of L_mu over each root, not the 25 line pairs with
    # their witness points; since every family's rows are read by one
    # routine (orbits.family_rows), the `intersections` are {branch: {j:
    # row}}, L1-L3 under their branch alpha with the root 1, and the
    # `orbits` entry L123 is named alpha
    ("verdict", "e6", "--ext", "12"): "69bb3ccbaf2fd135063f69145d343342"
                                      "1ef89d4f3eeb3c634a2a94960c8b1af2",
    # the default certificate of the whole suite (seed 0), the behavioural
    # contract that a refactor must keep byte for byte; since the oracle
    # samples each S6 line on its exact graph over P^1_(W:X) instead of on
    # a kernel basis, the three numeric-oracle audit.surfaces.s6[t]
    # max_residue values (t = 2, 3, 5) changed, each still about 4e-14;
    # since the S8 b-roots are read off the roots of the branch x-quartics
    # P_i instead of solved at each mu0, the three numeric-oracle
    # audit.surfaces.s8[t] max_residue values changed, each still < 1e-11;
    # since the oracle samples each S7 and S8 member on the exact graph of
    # its root over P^1_(W:X), the six audit.surfaces.s7[t] and s8[t]
    # max_residue values changed, each now about 5e-15 (s7) or 1e-14 (s8);
    # since L_mu is one family over the two roots of C, the
    # intersections-s6 check prints the `rows` of L1-L3 and of L_mu over
    # each root instead of `pairs` 25, and since the oracle samples the S6
    # lines as the members of those families, the three
    # audit.surfaces.s6[t] max_residue values changed, each now about
    # 3e-15 (was 4e-14); since the oracle samples the A_n and D_n fibre
    # components on their exact graphs at the audits' shared sample points,
    # the six audit.surfaces.an:2[t] and dn:4[t] max_residue values
    # changed, each still about 2e-16 (an:2) or 1e-15 (dn:4); since every
    # family's rows are read by one routine (orbits.family_rows), the
    # intersections-s6 `rows` hold L1-L3 under their branch alpha, as
    # {1: row}, and intersections-an:<n> and -dn:<n> print the `rows` of
    # their two families instead of `pairs` 2 or 3; since the oracle draws
    # the fibre coordinate w of a conic bundle at |w| = |s| / |t|^(1/2),
    # the three audit.surfaces.dn:4[t] max_residue values changed, each
    # still about 1e-15 (an:2, where that size is 1, kept its three);
    # since every pair of S6 lines is decided by the exact rule, the
    # intersections-s6 check gains `full_rows`, the rows of L1 and of L_mu
    # over c+ and c- against all 27 lines, and the numeric-oracle `ref`
    # no longer names the S6 line graph, which the oracle no longer builds
    ("reproduce-paper",): "a69b5dd8a7ac17f3631c8b952afb0ee0"
                          "50a102c3d971b510ae6ec93ab68569f1",
    # the float oracle away from seed 0 and through `audit`: its residues
    # depend on the order in which the sample points are drawn and on the
    # arithmetic of each residue, so a change to either fails here; since
    # the oracle decides no incidence, audit s6 has no report.degrees and
    # no report.graph_checked, and its residues are unchanged
    ("audit", "s6", "--t", "3"): "146d7df713e16023561d427835000ced"
                                 "c029b166ba575d48f4452a62d0e2fa86",
    ("audit", "s7", "--t", "3"): "56c8d35cd413ecd08888a1c35a78bee3"
                                 "83ff2d1386ed03b3c183da1f44b85b1f",
    ("audit", "s8", "--t", "3", "--seed", "2"):
        "8ed148e7ac1eb931157ce65f00af23d830ef0cf41a5f5e0edfcd6a75318f8a42",
    # as reproduce-paper: the intersections-s6 `rows` and the three
    # audit.surfaces.s6[t] max_residue values changed, and then the six
    # of an:2 and dn:4; then the intersections-s6, -an:<n> and -dn:<n>
    # `rows` and the three of dn:4; then the intersections-s6 `full_rows`
    # and the numeric-oracle `ref`
    ("reproduce-paper", "--seed", "3"): "25f1106d192c48c1d39bad7e36906a6d"
                                        "62d2553f089039bec10ccd4b7c1e442b"}


# sha256 of the S7 and S8 curve certificates: every curve form is the
# elimination chain applied to its template, each S8 Z-form free of the
# guard factor b^2 mu^8 + 4 b mu^4 + 1; and since every entry carries its
# `count`, the main family of S7 is one entry of count 54 = 3 * 18 and each
# S8 branch one of count 120 = 4 * 30 instead of 54 and 120 copies.  Since
# every entry is a family, none has an `index` (it was null on these), and
# the S7 e = 0 pair is one entry of `count` 2 without `sign`, its Z-form
# over Q(zeta_2)[r, 1/r], so that its coefficient -r prints as ((-1))*r
PINNED_FORMS = {("curves", "s7"): "3e59f38f574b3f5dc30ad02f046397dd"
                                  "19dc7325f3c54aa2017afe2598b7b282",
                ("curves", "s8"): "1594b9eceede4ace78076430d5562f55"
                                  "79fd8011d8add36cb8b65528ad1acc41"}


# sha256 of verdict certificates, the only output built from the record
# classes (Verdict, MinimalModelDescriptor, BaseExtension): a change to how
# those records are declared must leave their JSON byte for byte as it was.
# Since the minimal model is built once per divisor g of the period, each
# lost two fields: the descriptor's `over` (the verdict's `over` still names
# m) and the `m` of each `orbit_structure` entry (its partition prints g).
# Since the `rule-table` note of an A_n or D_n verdict names what it assumes
# (the axiom-table statements), not the deleted contraction endpoint table,
# the two D_n records changed in that note only.  Since every family's
# rows are read by one routine (orbits.family_rows), the justification's
# `intersections` are the rows {branch: {j: row}} of every family, not the
# D_n witness pairs or the E8 reports of P1 and P2.
PINNED_RECORDS = {("verdict", "dn:6", "--ext", "6"):
                  "7929e09c304dcb0fc3ed9aa0a51df430"
                  "103066532150f031e6d68bfda7a9834b",
                  ("verdict", "dn:12", "--ext", "3"):
                  "21ae1999bb120e2ae8b8854e1d3020f1"
                  "7c510c076da9957fdf0ab000c7fb0057",
                  # since the E verdicts come from the contraction of the
                  # Coxeter element's orbits: as for e6 --ext 12 the `rule`,
                  # the `rule-table` note and the `step` change, and the
                  # justification gains `orbits`; since each partition is
                  # certified by power sums, `orbits` holds the
                  # `orbit_structure` of the branches P1 and P2, where it
                  # was empty; since each says how many c-cycles its family
                  # covers, both carry `cycles` 4; since each Galois orbit
                  # is matched to a c-cycle by its exact row, the
                  # justification's `intersections` are the rows of the
                  # four orbits of each branch, not the witnesses at the
                  # xi-orders 2, 3 and 5, and the `rule-table` note names
                  # that match
                  ("verdict", "e8", "--ext", "30"):
                  "5f975e9c15df387ed772fd25aef689f3"
                  "f63cc4218df0b418baa3a765017f74f8"}


def _sha256_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(PINNED), ids=" ".join)
def test_certificate_bytes_are_pinned(argv):
    assert _sha256_of(argv) == PINNED[argv]


@pytest.mark.parametrize("argv", sorted(PINNED_FORMS), ids=" ".join)
def test_curve_form_certificates_are_pinned(argv):
    assert _sha256_of(argv) == PINNED_FORMS[argv]


@pytest.mark.parametrize("argv", sorted(PINNED_RECORDS), ids=" ".join)
def test_record_certificates_are_pinned(argv):
    assert _sha256_of(argv) == PINNED_RECORDS[argv]


@pytest.mark.parametrize("argv", sorted(PINNED) + sorted(PINNED_RECORDS) + [
    ("reproduce-paper", "--mutate", "s6,0,0,1"),
    ("--timings", "reproduce-paper")], ids=" ".join)
def test_emit_prints_the_canonical_json(monkeypatch, argv):
    # the memoized checks keep their text, which emit splices in; the
    # output stays json.dumps(cert, sort_keys=True, indent=2) + "\n"
    certs = []

    def spy(cert, out=None):
        certs.append(cert)
        emit(cert, out)
    emit = cli.emit
    monkeypatch.setattr(cli, "emit", spy)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(list(argv))
    (cert,) = certs
    assert buf.getvalue() == json.dumps(cert, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("checks", [
    [], [cli.check("a", "b", status="failed", v=[[], {}], w="\u00e9\n")]])
def test_emit_encodes_any_certificate_as_json_dumps(capsys, checks):
    cert = {"checks": checks, "z": {"b": [1.5, None, {}], "a": "\u00e9\n"},
            "elapsed": 0.25, "empty": [], "nested": [[], [{"k": True}]],
            "x": '\n  "checks": []'}
    cli.emit(cert)
    assert capsys.readouterr().out == \
        json.dumps(cert, sort_keys=True, indent=2) + "\n"


def test_check_entries_cannot_be_mutated():
    # a memoized entry is shared by every certificate that reuses it, and
    # emit prints the text it keeps: a change would print stale bytes
    entry = cli.check("a", "b", v=1)
    for mutate in (lambda: entry.__setitem__("v", 2),
                   lambda: entry.__delitem__("v"), lambda: entry.update(v=2),
                   lambda: entry.pop("v"), lambda: entry.popitem(),
                   lambda: entry.setdefault("w", 2), lambda: entry.clear(),
                   lambda: entry.__ior__({"v": 2})):
        with pytest.raises(TypeError):
            mutate()
    assert entry == {"name": "a", "ref": "b", "status": "verified", "v": 1}
    assert json.loads(entry.text) == entry


def test_byte_identical_output():
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["verdict-grid"]) == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]


def test_out_file(tmp_path):
    path = tmp_path / "cert.json"
    for argv in (["--out", str(path), "lattice", "6"],
                 ["lattice", "6", "--out", str(path)]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        assert code == 0
        assert path.read_text() == buf.getvalue()
        path.unlink()


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_an_unwritable_out_fails_before_the_command(monkeypatch, capsys,
                                                    tmp_path, where):
    # an --out in a missing directory or naming a directory is a usage
    # error, refused before the command runs
    def unreachable(args):
        raise AssertionError("the command ran")
    monkeypatch.setattr(cli, "cmd_lattice", unreachable)
    out = tmp_path / "missing" / "x.json" if where == "missing" else tmp_path
    code = main(["lattice", "6", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: cannot write --out ")


@pytest.mark.parametrize("argv", [
    ["audit", "s6", "--t", "1e10000000"], ["audit", "s6", "--t=1e-10000000"],
    ["reproduce-paper", "--mutate", "s6,0,0,1e10000000"],
    ["reproduce-paper", "--mutate", "s6,0,0,1e-10000000"]], ids=" ".join)
def test_a_huge_exponent_is_refused_before_it_is_built(capsys, argv):
    # Fraction builds 10^exponent first (8 s for 1e10000000): an exponent
    # beyond sys.get_int_max_str_digits() is refused before that
    started = time.monotonic()
    code = main(argv)
    assert code == 2 and time.monotonic() - started < 1
    assert "is beyond +-%d" % sys.get_int_max_str_digits() in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv,case", [
    (["autos", "foo"], "foo"), (["autos", "dn:33"], "dn:33"),
    (["autos", "an", "--n", "1"], "an:1")])
def test_autos_errors_name_the_case_as_typed(capsys, argv, case):
    code, cert = run(argv)
    assert code == 2 and cert is None
    err = capsys.readouterr().err
    assert repr(case) in err and "klein-" not in err
    assert "e6, e7, e8, an:<n>" in err and "dn:<n>" in err


def test_autos_dn_takes_n(capsys):
    code, cert = run(["autos", "dn", "--n", "5"])
    assert code == 0
    _, direct = run(["autos", "dn:5"])
    assert cert["report"] == direct["report"]
    assert cert["status"] == direct["status"] == "verified"
    code, _ = run(["autos", "dn"])
    assert code == 2
    assert "--n" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["autos", "e6", "--n", "3"], ["autos", "klein-e8", "--n", "2"],
    ["autos", "an:3", "--n", "3"], ["autos", "dn:5", "--n", "5"]])
def test_autos_refuses_n_elsewhere(capsys, argv):
    code, cert = run(argv)
    assert code == 2 and cert is None
    assert "--n" in capsys.readouterr().err
