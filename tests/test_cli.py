"""CLI behavior: exit codes, JSON shape, determinism."""

import io
import contextlib
import hashlib
import json
from fractions import Fraction

import pytest

from kleinfib import cli, orbits
from kleinfib.cli import _parse_poly, main
from kleinfib.curves import VerificationError


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
    monkeypatch.setattr(cli, "enumerate_an", bug)
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
    code, cert = run(["autos", "an", "--n", "3", "--poly", "1+y"])
    assert code == 0
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


@pytest.mark.parametrize("text", ["9^9^9", "y^100000", "y+q"])
def test_bad_poly_exits_before_arithmetic(monkeypatch, text):
    def unreachable(*args, **kwargs):
        raise AssertionError("arithmetic ran on a rejected polynomial")
    monkeypatch.setattr(cli, "autos_report", unreachable)
    code, _ = run(["autos", "an", "--n", "3", "--poly", text])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["curves", "an:33"], ["curves", "dn:200"],
    ["verdict", "dn:200", "--ext", "2"], ["verdict", "an:10000", "--ext", "1"],
    ["autos", "an", "--n", "200"], ["autos", "dn:64"],
    ["audit", "an:200"]])
def test_family_index_bound_exits_before_arithmetic(monkeypatch, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("arithmetic ran on a rejected index")
    for name in ("enumerate_an", "enumerate_dn", "rationality_verdict",
                 "autos_report", "numeric_curve_audit"):
        monkeypatch.setattr(cli, name, unreachable)
    code, _ = run(argv)
    assert code == 2


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
    # at t = 1e300 the S7 samples overflow in doubles; a NaN residue must
    # fail the audit, not pass it
    code, cert = run(["audit", "s7", "--t", "1e300"])
    assert code == 1 and cert["status"] == "failed"


def test_failed_checks_carry_error_kind(monkeypatch):
    def bug(*args, **kwargs):
        raise TypeError("a bug")

    def refuted(*args, **kwargs):
        raise VerificationError("refuted")
    monkeypatch.setattr(cli, "certify_s6_lines", bug)
    # the slow pipelines fail fast as mathematical failures
    for name in ("enumerate_s8", "s6_intersections", "verdict_grid",
                 "dn_intersections", "autos_report", "full_audit"):
        monkeypatch.setattr(cli, name, refuted)
    code, cert = run(["reproduce-paper"])
    assert code == 1
    checks = {c["name"]: c for c in cert["checks"]}
    assert checks["curves-s6"]["error"] == "TypeError: a bug"
    assert checks["curves-s6"]["error_kind"] == "internal"
    assert checks["verdict-grid"]["error_kind"] == "verification"
    assert checks["curves-s7"]["status"] == "verified"
    for c in checks.values():
        assert ("error_kind" in c) == (c["status"] == "failed"), c["name"]


def test_failed_surface_computation_runs_once():
    # verdict-grid and intersections-s6 both read the mutated cubic; the
    # failure is cached with the surface, so it is computed once and both
    # checks report the same error
    orbits.s6_intersections.cache_clear()
    code, cert = run(["reproduce-paper", "--mutate", "s6,0,0,1"])
    assert code == 1
    info = orbits.s6_intersections.cache_info()
    assert info.misses == 1 and info.hits >= 1
    checks = {c["name"]: c for c in cert["checks"]}
    assert checks["intersections-s6"]["error"] == \
        checks["verdict-grid"]["error"] == "VerificationError: line " \
        "intersection witness not on the surface"


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


# sha256 of the certificates printed at the commit before the field towers
# became (M, var) values; each prints tower elements
PINNED = {("curves", "s6"): "9f1a5100144e8bf8132c2c9b1aeac098"
                            "85d4bfefb497d707c46b7713fbd1de37",
          ("curves", "dn:5"): "c8592bcc3b645689ae29929f453f9041"
                              "e45ab8408210d28ae86bcd2af11cd131",
          ("verdict", "e6", "--ext", "12"): "042f9d7d463ce90e340f9406e1c35b1e"
                                            "1a71471e9fa604c3b0b10e7013e0a31c"}


@pytest.mark.parametrize("argv", sorted(PINNED), ids=" ".join)
def test_certificate_bytes_are_pinned(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == PINNED[argv]


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
