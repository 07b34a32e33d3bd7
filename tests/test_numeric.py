"""Floating-point oracle: root finder certification and the per-surface
numeric audits."""

import cmath
import copy
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import kleinfib
from kleinfib import curves, numeric, orbits
from kleinfib.curves import (VerificationError, q_cubic, q1_quartic,
                             q2_quartic)
from kleinfib.geometry import build_catalog, build_surface
from kleinfib.multipoly import MultiPoly
from kleinfib.numeric import (NumericConfig, durand_kerner,
                              numeric_curve_audit, numeric_roots,
                              sturm_vs_numeric)
from kleinfib.orbits import _s7_main_data, _s8_branch_data

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
    # the residuals stay squarefree at every t != 0: Q, Q1 and Q2 are
    # squarefree with a nonzero constant term, proved on the exact side
    assert [curves.radical_count(q(), 1, "q")
            for q in (q_cubic, q1_quartic, q2_quartic)] == [3, 4, 4]
    for name in ("s6", "s7", "s8"):
        with pytest.raises(VerificationError, match="t = 0"):
            numeric_curve_audit(build_surface(name), NumericConfig(t=0))


# run as `python -c`: reproduce-paper with Q replaced by the cubic argv[1]
PATCHED_Q = """
import sys
from fractions import Fraction
from kleinfib import cli, curves
cubic = [Fraction(c) for c in sys.argv[1].split(",")]
curves.q_cubic = lambda: list(cubic)
sys.exit(cli.main(["reproduce-paper"]))
"""


@pytest.mark.parametrize("cubic,error", [
    ([-2, 5, -4, 1], "Q is not squarefree"),      # (X - 1)^2 (X - 2)
    ([0, 2, -3, 1], "Q vanishes at 0")],          # X (X - 1)(X - 2)
    ids=["double-root", "zero-constant"])
def test_squarefree_proof_refuses(cubic, error):
    with pytest.raises(VerificationError, match=error):
        curves.radical_count([Fraction(c) for c in cubic], 18, "Q")
    assert curves.radical_count(q_cubic(), 18, "Q") == 54
    # patched in as Q, the cubic fails curves-s7 of a reproduction run, in
    # a process of its own, so that no cache here holds the failure
    src = os.path.dirname(os.path.dirname(kleinfib.__file__))
    run = subprocess.run(
        [sys.executable, "-c", PATCHED_Q, ",".join(map(str, cubic))],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 1, run.stderr
    checks = {c["name"]: c for c in json.loads(run.stdout)["checks"]}
    assert checks["curves-s7"]["status"] == "failed"
    assert checks["curves-s7"]["error"] == "VerificationError: " + error


def test_sturm_vs_numeric():
    report = sturm_vs_numeric(build_surface("s7"), build_surface("s8"), CFG)
    assert report["Q"] == {"sturm": 3, "numeric": 3}
    assert report["Q1"] == {"sturm": 4, "numeric": 4}
    assert report["Q2"] == {"sturm": 4, "numeric": 4}


def test_full_audit_sturm_uses_its_seed_and_tol(monkeypatch):
    seen, sturm = [], numeric.sturm_vs_numeric
    monkeypatch.setattr(numeric, "sturm_vs_numeric",
                        lambda s7, s8, cfg: seen.append((s7, s8, cfg))
                        or sturm(s7, s8, cfg))
    catalog = build_catalog()
    report = numeric.full_audit(catalog, tol=1e-9, seed=3)
    cfg = NumericConfig(tol=1e-9, seed=3)
    assert seen == [(catalog["s7"], catalog["s8"], cfg)]
    assert report["sturm"] == sturm(catalog["s7"], catalog["s8"], cfg)


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


@pytest.mark.parametrize("name,data,error", [
    ("s7", "_s7_main_data", "S7 residue"),
    ("s8", "_s8_branch_data", "S8 branch P1: 0 of 4 b-roots")])
def test_perturbed_coefficient_is_refuted(monkeypatch, name, data, error):
    bad = build_catalog(mutation=(name, 0, 1, Fraction(1)))[name]
    with pytest.raises(VerificationError):
        numeric_curve_audit(bad, CFG)
    # the exact curves of the unperturbed surface, evaluated on the
    # perturbed equation: the batched residues alone refute them (the audit
    # reads them from orbits as it runs)
    exact = getattr(orbits, data)
    monkeypatch.setattr(orbits, data, lambda s: exact(build_surface(name)))
    audit = getattr(numeric, "numeric_audit_" + name)
    with pytest.raises(VerificationError, match=error):
        audit(bad, CFG)


@pytest.mark.parametrize("term,monomial", [(3, (6, 0, 0, 0, 1)),
                                           (2, (1, 5, 0, 0, 0))],
                         ids=["t W^6", "W X^5"])
def test_shared_sample_terms_come_from_the_model(monkeypatch, term,
                                                  monomial):
    # the terms in W and X alone, summed once per sample for all four
    # b-roots, are read from the audited equation: either coefficient
    # changed, the exact curves of the unchanged surface are refuted
    bad = build_catalog(mutation=("s8", 0, term, Fraction(1, 2)))["s8"]
    clean = build_surface("s8")
    assert {e for e in bad.equation.terms
            if bad.equation.terms[e] != clean.equation.terms[e]} == {monomial}
    exact = orbits._s8_branch_data
    monkeypatch.setattr(orbits, "_s8_branch_data", lambda s: exact(clean))
    with pytest.raises(VerificationError, match="0 of 4 b-roots"):
        numeric.numeric_audit_s8(bad, CFG)


def test_audit_count_must_match_the_exact_families(monkeypatch):
    # the oracle rebuilds 56 curves on s7; an exact main family that counted
    # one fewer is refuted
    exact, core, main = orbits._s7_main_data(build_surface("s7"))
    short = copy.copy(main)
    short.count -= 1
    monkeypatch.setattr(orbits, "_s7_main_data",
                        lambda s: (exact[:-1] + [short], core, short))
    with pytest.raises(VerificationError, match="S7 numeric count 56 != "
                                                "exact 55"):
        numeric.numeric_audit_s7(build_surface("s7"), CFG)


def _stacked_det(line1, line2):
    """|det| of the 4x4 matrix that stacks the forms Y - y0 W - y1 X,
    Z - z0 W - z1 X of two float graphs, by Gaussian elimination with
    partial pivoting: the reference for det(dY, dZ)."""
    a = [[-y0, -y1, 1, 0] for (y0, y1), _ in (line1, line2)] + \
        [[-z0, -z1, 0, 1] for _, (z0, z1) in (line1, line2)]
    det = 1.0
    while a:
        pivot = a.pop(max(range(len(a)), key=lambda i: abs(a[i][0])))
        det *= abs(pivot[0])
        if not det:
            break
        a = [[x - r[0] / pivot[0] * y for x, y in zip(r[1:], pivot[1:])]
             for r in a]
    return det


@pytest.mark.parametrize("t", [Fraction(2), Fraction(5), Fraction(2 ** 12),
                               Fraction(-2 ** 12), Fraction(1, 2 ** 12),
                               Fraction(-1, 2 ** 12)], ids=str)
def test_s6_determinant_gap(t):
    # the oracle's rule on the float graphs: near rounding on the 135
    # meeting pairs, far from the 1e-8 threshold on the 216 disjoint ones
    tags, lines = numeric._s6_numeric_lines(NumericConfig(t=t))
    pairs = [(i, j) for i in range(27) for j in range(i + 1, 27)]
    ratios = [numeric._meet_ratio(lines[i], lines[j]) for i, j in pairs]
    meeting = [r for r in ratios if r < 1e-8]
    disjoint = [r for r in ratios if r >= 1e-8]
    assert len(meeting) == 135 and len(disjoint) == 216
    assert max(meeting) < 1e-12
    assert min(disjoint) > 1e-4
    # 27 pairs have a vanishing difference dY or dZ: exactly for L_j/L_j'
    # (Z = 0 on all three), only to rounding for L_mu against L_{xi^4 mu}
    # and L_{xi^8 mu}; there det(dY, dZ) is rounding over rounding, and a
    # rule on it alone reads 111 meets and degrees {8, 10}
    vanishing, det_meets, degrees = {}, 0, [0] * 27
    for (i, j), r in zip(pairs, ratios):
        (ya, za), (yb, zb) = lines[i], lines[j]
        dy = [ya[0] - yb[0], ya[1] - yb[1]]
        dz = [za[0] - zb[0], za[1] - zb[1]]
        det = abs(dy[0] * dz[1] - dy[1] * dz[0])
        size = sum(map(abs, dy)) * sum(map(abs, dz))
        assert abs(det - _stacked_det(lines[i], lines[j])) < 1e-11 * (1 + size)
        rel = min(sum(map(abs, dy)) / sum(map(abs, ya + yb)),
                  sum(map(abs, dz)) / max(sum(map(abs, za + zb)), 1e-300))
        if rel <= 1e-12:
            assert r == 0
            vanishing[tags[i], tags[j]] = rel
        if det <= 1e-8 * math.hypot(*map(abs, dy)) * math.hypot(*map(abs, dz)):
            det_meets += 1
            degrees[i] += 1
            degrees[j] += 1
    assert len(vanishing) == 27
    for ((b1, j1), (b2, j2)), rel in vanishing.items():
        if b1 == "L123":
            assert b2 == "L123" and rel == 0
        else:
            assert b1 == b2 and (j2 - j1) % 12 in (4, 8) and 0 < rel < 1e-13
    assert det_meets == 111 and set(degrees) == {8, 10}


def test_perturbed_s6_graph_is_refuted(monkeypatch):
    # the oracle samples the exact graphs it is handed: one coefficient of
    # the plus branch's graph off by a relative 1e-6 leaves the surface
    alpha_graphs, branches = numeric._s6_graphs()
    (branch, c, (y, z)), other = branches
    bad = [(branch, c, ([y[0] * (1 + Fraction(1, 10 ** 6)), y[1]], z)),
           other]
    monkeypatch.setattr(numeric, "_s6_graphs", lambda: (alpha_graphs, bad))
    with pytest.raises(VerificationError, match="S6 membership residue"):
        numeric.numeric_audit_s6(build_surface("s6"), CFG)


@pytest.mark.parametrize("branch,quartic", [("P1", q1_quartic()),
                                            ("P2", q2_quartic())])
def test_rotated_b_roots_match_a_direct_solve(branch, quartic):
    main = _s8_branch_data(build_surface("s8"))[1][branch]
    rows = numeric._s8_b_roots(main, quartic, CFG)
    assert len(rows) == 120
    for _, coeffs, rotated in rows[::7]:
        direct = durand_kerner(coeffs, CFG)
        for b in rotated:
            assert min(abs(b - d) for d in direct) < 1e-9 * (1 + abs(b))


def test_wrong_b_weight_is_refuted(monkeypatch):
    # the oracle rotates the b-roots by the weight of b the exact family
    # stores; one off by one is refuted where the rotated roots land
    weights = _s8_branch_data(build_surface("s8"))[1]["P1"].data["weights"]
    assert weights[0] == 30 and weights[1]["b"] == 26
    monkeypatch.setitem(weights[1], "b", 27)
    with pytest.raises(VerificationError, match="root residual"):
        numeric.numeric_audit_s8(build_surface("s8"), CFG)


def test_q_q1_q2_are_solved_once(monkeypatch):
    # the roots of Q, Q1 and Q2 do not depend on t: the Sturm step and the
    # audits at t = 2, 3, 5 share one solve of each (a fresh seed and tol
    # keep the caches cold)
    calls, solve = [], numeric.durand_kerner
    monkeypatch.setattr(numeric, "durand_kerner",
                        lambda c, cfg: calls.append(list(c)) or solve(c, cfg))
    cfg = NumericConfig(tol=1e-9, seed=17)
    catalog = build_catalog()
    sturm_vs_numeric(catalog["s7"], catalog["s8"], cfg)
    numeric.full_audit(catalog, tol=cfg.tol, seed=cfg.seed)
    # nor do those of the S8 branch x-quartics P1(x), P2(x), Pi = Pi(b mu^4):
    # the b-roots of every row are read off them, no b-quartic row is solved
    p1, p2 = [-1, -30, -260, -690, 5], [-1, -10, -20, 10, 5]
    solved = (q_cubic(), q1_quartic(), q2_quartic(), p1, p2)
    for q in solved:
        assert calls.count(q) == 1
    assert len(calls) == len(solved)


def test_branch_quartic_must_be_a_polynomial_in_b_mu_k(monkeypatch):
    # the b-roots are read off P_i(x) only while each term b^i mu^e of the
    # branch quartic has e = k i; an extra b mu^5 term is refused
    curves, mains = _s8_branch_data(build_surface("s8"))
    bad = copy.copy(mains["P1"])
    Pi = bad.data["branch_quartic"]
    bad.data = dict(bad.data, branch_quartic=Pi + MultiPoly.var(
        Pi.vars, "b") * MultiPoly.var(Pi.vars, "mu", 5))
    monkeypatch.setattr(orbits, "_s8_branch_data",
                        lambda s: (curves, dict(mains, P1=bad)))
    with pytest.raises(VerificationError, match="P1: the branch quartic"):
        numeric.numeric_audit_s8(build_surface("s8"), CFG)


@pytest.mark.parametrize("name,branch", [("s8", "P1"), ("s8", "P2"),
                                         ("s7", None)])
def test_rotated_chain_matches_a_direct_solve(name, branch):
    # the chain rotated to each point equals the chain solved there: S8 at
    # every 7th mu, S7 at every e
    tval = float(CFG.t)
    if name == "s8":
        main = _s8_branch_data(build_surface("s8"))[1][branch]
        quartic = q1_quartic() if branch == "P1" else q2_quartic()
        rows = numeric._s8_chains(main, quartic, CFG)
        # the chains sit at the certified mu and b-roots
        for (mu, _, bs), points in zip(
                numeric._s8_b_roots(main, quartic, CFG), rows, strict=True):
            assert [point[:2] for point in points] == [(mu, b) for b in bs]
        names = numeric.S8_NAMES
        points = [point for points in rows[::7] for point in points]
        free = ("mu", "b")
        chain = numeric._chain(main.data["coeff_pairs"], {"t": tval})
    else:
        # the 54 e of the audit: the orbits of (u t)^(1/18), u a root of Q
        main = _s7_main_data(build_surface("s7"))[2]
        names, free = "abcde", ("e",)
        weights = main.data["weights"][1]
        chain = numeric._chain(main.data["coeff_pairs"], {"t": tval})
        points = [point for u in numeric_roots(q_cubic(), CFG)
                  for point in numeric._orbit(
                      chain, weights, {"e": (u * tval) ** (1 / 18)}, 18,
                      names)]
        assert len(points) == 54
    for point in points:
        env = dict(zip(names, point, strict=True))
        direct = numeric._solve(chain, {n: env[n] for n in free})
        for n in main.data["coeff_pairs"]:
            assert abs(env[n] - direct[n]) < 1e-9 * (1 + abs(env[n]))


def test_wrong_f_weight_is_refuted(monkeypatch):
    # f is rotated with the chain too: its weight off by one is refuted by
    # the residues, as that of a is
    family = _s8_branch_data(build_surface("s8"))[1]["P1"]
    weights = family.data["weights"][1]
    monkeypatch.setitem(weights, "f", weights["f"] + 1)
    with pytest.raises(VerificationError, match="b-roots on the surface"):
        numeric.numeric_audit_s8(build_surface("s8"), CFG)


@pytest.mark.parametrize("name,error", [("s7", "S7 residue"),
                                        ("s8", "b-roots on the surface")])
def test_wrong_chain_weight_is_refuted(monkeypatch, name, error):
    # the oracle rotates the solved chain by the weights the exact family
    # stores; a weight of a off by one is refuted by the residues
    data = _s7_main_data if name == "s7" else _s8_branch_data
    family = next(c for c in data(build_surface(name))[0] if c.index is None)
    weights = family.data["weights"][1]
    monkeypatch.setitem(weights, "a", weights["a"] + 1)
    audit = getattr(numeric, "numeric_audit_" + name)
    with pytest.raises(VerificationError, match=error):
        audit(build_surface(name), CFG)
