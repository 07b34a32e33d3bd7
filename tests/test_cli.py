"""CLI behavior: exit codes, JSON shape, determinism."""

import io
import contextlib
import json
from fractions import Fraction

import pytest

from kleinfib import cli
from kleinfib.cli import _parse_poly, main


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
    code, _ = run(["audit", "s7", "--t", "0"])
    assert code == 2
    code, _ = run(["audit", "s7", "--t", "nonsense"])
    assert code == 2


def test_audit_runs():
    code, cert = run(["audit", "dn:5", "--t", "3"])
    assert code == 0
    assert cert["report"]["count"] == 10


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
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--out", str(path), "lattice", "6"])
    assert code == 0
    assert path.read_text() == buf.getvalue()
