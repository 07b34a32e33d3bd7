"""Floating-point oracle: root finder certification and the per-surface
numeric audits."""

import cmath
from fractions import Fraction

import pytest

from kleinfib import numeric
from kleinfib.curves import VerificationError, q_cubic
from kleinfib.geometry import build_catalog, build_surface
from kleinfib.numeric import (NumericConfig, check_specialization,
                              durand_kerner, numeric_curve_audit,
                              numeric_roots, sturm_vs_numeric)

CFG = NumericConfig()


def test_cube_root_of_t():
    # X^3 - t at t = 8: roots 2 zeta_3^k
    roots = numeric_roots([Fraction(-8), 0, 0, Fraction(1)], CFG)
    expected = [2 * cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
    for e in expected:
        assert min(abs(e - r) for r in roots) < 1e-10


def test_roots_of_unity():
    roots = numeric_roots([Fraction(-1)] + [0] * 11 + [Fraction(1)], CFG)
    assert len(roots) == 12
    for r in roots:
        assert abs(abs(r) - 1) < 1e-10


@pytest.mark.parametrize("t", [1, 2, 3, 5, 17])
def test_q_three_real_roots_any_positive_t(t):
    # Q is t-independent; its three real roots certify at any seed
    roots = numeric_roots(q_cubic(), NumericConfig(t=Fraction(t), seed=t))
    real = [r for r in roots if abs(r.imag) < 1e-8 * (1 + abs(r))]
    assert len(real) == 3


def test_residual_certification_rejects_junk():
    # a double root breaks the separation certificate
    with pytest.raises(VerificationError):
        numeric_roots([Fraction(1), Fraction(-2), Fraction(1)], CFG)


def test_durand_kerner_scaling():
    # widely scaled roots: 10^6 and 10^-6
    p = [Fraction(1), -(Fraction(10) ** 6 + Fraction(1, 10 ** 6)),
         Fraction(1)]
    roots = durand_kerner(p, CFG)
    mags = sorted(abs(r) for r in roots)
    assert abs(mags[0] - 1e-6) < 1e-12
    assert abs(mags[1] - 1e6) < 1e-3


def test_specialization_guard():
    report = check_specialization(Fraction(2))
    assert all(report["squarefree"].values())
    with pytest.raises(VerificationError):
        check_specialization(Fraction(0))


def test_sturm_vs_numeric():
    report = sturm_vs_numeric(CFG)
    assert report["Q"] == {"sturm": 3, "numeric": 3}
    assert report["Q1"] == {"sturm": 4, "numeric": 4}
    assert report["Q2"] == {"sturm": 4, "numeric": 4}


@pytest.mark.parametrize("name,count", [
    ("s7", 56), ("s8", 240), ("an:2", 4), ("an:5", 10), ("dn:4", 8),
    ("dn:6", 12),
])
def test_numeric_counts(name, count):
    report = numeric_curve_audit(build_surface(name), CFG)
    assert report["count"] == count
    assert report["max_residue"] < 1e-8


def test_s6_line_graph_degree_ten():
    report = numeric_curve_audit(build_surface("s6"), CFG)
    assert report["count"] == 27
    assert report["degrees"] == [10] * 27
    assert report["max_residue"] < 1e-8


def test_unknown_surface():
    with pytest.raises(ValueError):
        numeric_curve_audit(build_surface("s6prime"), CFG)


def test_durand_kerner_batch_rows():
    # a batch of rows gives each row its own roots: X^2 - c for c = 1, 4, -9
    roots = durand_kerner([[-1, 0, 1], [-4, 0, 1], [9, 0, 1]], CFG)
    assert roots.shape == (3, 2)
    for row, c in zip(roots, (1, 4, -9)):
        assert all(abs(r * r - c) < 1e-12 for r in row)


@pytest.mark.parametrize("name,data,error", [
    ("s7", "_s7_main_data", "S7 residue"),
    ("s8", "_s8_branch_data", "S8 branch P1: 0 of 4 b-roots")])
def test_perturbed_coefficient_is_refuted(monkeypatch, name, data, error):
    bad = build_catalog(mutation=(name, 0, 1, Fraction(1)))[name]
    with pytest.raises(VerificationError):
        numeric_curve_audit(bad, CFG)
    # the exact curves of the unperturbed surface, evaluated on the
    # perturbed equation: the batched residues alone refute them
    exact = getattr(numeric, data)
    monkeypatch.setattr(numeric, data, lambda s: exact(build_surface(name)))
    audit = getattr(numeric, "numeric_audit_" + name)
    with pytest.raises(VerificationError, match=error):
        audit(bad, CFG)
