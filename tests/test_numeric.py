"""Floating-point oracle: root finder certification and the per-surface
numeric audits."""

import cmath
import copy
from fractions import Fraction

import pytest

from kleinfib import curves, numeric, orbits
from kleinfib.curves import (VerificationError, q_cubic, q1_quartic,
                             q2_quartic, surface_families)
from kleinfib.geometry import build_catalog, build_surface
from kleinfib.numeric import (NumericConfig, durand_kerner,
                              numeric_curve_audit, numeric_roots,
                              sturm_vs_numeric)

CFG = NumericConfig()

# the audit itself, without the cache of numeric_curve_audit, for the tests
# that change what it reads
_audit = numeric_curve_audit.__wrapped__


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
    # the residuals stay squarefree at every t != 0: Q, Q1 and Q2 each have
    # deg q distinct nonzero roots, exhibited on the exact side
    assert [len(curves.residual_roots(q(), h, root, "q")) for q, h, root in (
        (q_cubic, 18, curves.S7_ROOT), (q1_quartic, 30, curves.S8_ROOTS[0]),
        (q2_quartic, 30, curves.S8_ROOTS[1]))] == [3, 4, 4]
    for name in ("s6", "s7", "s8"):
        with pytest.raises(VerificationError, match="t = 0"):
            numeric_curve_audit(build_surface(name), NumericConfig(t=0))


@pytest.mark.parametrize("cubic,root,error", [
    ([-2, 5, -4, 1], 1, "Q has 1 distinct conjugate roots, not 3"),
    ([0, 2, -3, 1], 0, "the stored root of Q is not a nonzero root")],
    ids=["double-root", "zero-constant"])
def test_squarefree_proof_refuses(cubic, root, error):
    # (X - 1)^2 (X - 2) and X (X - 1)(X - 2), each with a stored root of its
    # own: the certificate needs deg Q distinct nonzero conjugate roots,
    # which a cubic with a double root or a root 0 does not have
    with pytest.raises(VerificationError, match=error):
        curves.residual_roots([Fraction(c) for c in cubic], 18,
                              ((root, 0, 0), 1), "Q")
    assert len(curves.residual_roots(q_cubic(), 18, curves.S7_ROOT,
                                     "Q")) == 3


def test_sturm_vs_numeric():
    report = sturm_vs_numeric(build_surface("s7"), build_surface("s8"), CFG)
    assert report["Q"] == {"sturm": 3, "numeric": 3}
    assert report["Q1"] == {"sturm": 4, "numeric": 4}
    assert report["Q2"] == {"sturm": 4, "numeric": 4}


def test_full_audit_uses_its_seed_and_tol(monkeypatch):
    # every audit of the oracle section runs at its seed and tol, at
    # t = 2, 3 and 5; the real-root counts are the sturm check's alone
    seen, audit = [], numeric.numeric_curve_audit
    monkeypatch.setattr(numeric, "numeric_curve_audit",
                        lambda s, cfg: seen.append((s.name, cfg))
                        or audit(s, cfg))
    report = numeric.full_audit(build_catalog(), tol=1e-9, seed=3)
    names = ("s6", "s7", "s8", "an:2", "dn:4")
    assert seen == [(name, NumericConfig(t=t, tol=1e-9, seed=3))
                    for t in (2, 3, 5) for name in names]
    assert set(report) == {"t_values", "surfaces"}
    assert list(report["surfaces"]) == list(names)


@pytest.mark.parametrize("name,count", [
    ("s7", 56), ("s8", 240), ("an:2", 4), ("an:5", 10), ("dn:4", 8),
    ("dn:6", 12),
])
def test_numeric_counts(name, count):
    report = numeric_curve_audit(build_surface(name), CFG)
    assert report["count"] == count
    assert report["max_residue"] < 1e-8


def test_s6_line_graph_degree_ten():
    # the oracle rebuilds the 27 lines on their exact graphs; that each
    # meets ten others is read off the exact full rows, as incidence is
    # decided by the exact engine alone
    s6 = build_surface("s6")
    report = numeric_curve_audit(s6, CFG)
    assert report["count"] == 27
    assert report["max_residue"] < 1e-8
    assert set(report) == {"surface", "count", "max_residue"}
    full = orbits.s6_intersections(s6)["full_rows"]
    assert [row.count(1) for family in full.values()
            for row in family.values()] == [10] * 3


def test_unknown_surface():
    with pytest.raises(ValueError):
        numeric_curve_audit(build_surface("s6prime"), CFG)


@pytest.mark.parametrize("name,error", [("s7", "S7 residue"),
                                        ("s8", "S8 residue"),
                                        ("an:5", "AN:5 residue .* on y0"),
                                        ("dn:9", "DN:9 residue .* on mu")])
def test_perturbed_coefficient_is_refuted(monkeypatch, name, error):
    bad = build_catalog(mutation=(name, 0, 1, Fraction(1)))[name]
    with pytest.raises(VerificationError):
        numeric_curve_audit(bad, CFG)
    # the exact curves of the unperturbed surface, evaluated on the
    # perturbed equation: the batched residues alone refute them (the audit
    # reads them from curves.surface_families as it runs)
    _clean_families(monkeypatch, build_surface(name))
    with pytest.raises(VerificationError, match=error):
        _audit(bad, CFG)


def _clean_families(monkeypatch, clean, **replaced):
    """Make curves.surface_families hand every surface the families of
    `clean`, those named in `replaced` replaced."""
    exact = curves.surface_families(clean)
    monkeypatch.setattr(curves, "surface_families",
                        lambda s: dict(exact, **replaced))


@pytest.mark.parametrize("term,monomial", [(3, (6, 0, 0, 0, 1)),
                                           (2, (1, 5, 0, 0, 0))],
                         ids=["t W^6", "W X^5"])
def test_shared_sample_terms_come_from_the_model(monkeypatch, term,
                                                  monomial):
    # the sample points are drawn once per seed, and the terms in W and X
    # alone are read from the audited equation: either coefficient changed,
    # the exact curves of the unchanged surface are refuted
    bad = build_catalog(mutation=("s8", 0, term, Fraction(1, 2)))["s8"]
    clean = build_surface("s8")
    assert {e for e in bad.equation.terms
            if bad.equation.terms[e] != clean.equation.terms[e]} == {monomial}
    _clean_families(monkeypatch, clean)
    with pytest.raises(VerificationError, match="S8 residue"):
        _audit(bad, CFG)


def test_audit_count_must_match_the_exact_families(monkeypatch):
    # the oracle rebuilds 56 curves on s7; an exact main family that counted
    # one fewer is refuted
    s7 = build_surface("s7")
    short = copy.copy(surface_families(s7)["main"])
    short.count -= 1
    _clean_families(monkeypatch, s7, main=short)
    with pytest.raises(VerificationError, match="S7 numeric count 56 != "
                                                "exact 55"):
        _audit(s7, CFG)


def _perturbed(constants, row, k):
    """_constants with coefficient k of graph row (0 for Y, 1 for Z) off by
    a relative 1e-6."""
    out = [list(coeffs) for coeffs in constants]
    c, e = out[row][k]
    out[row][k] = (c * (1 + 1e-6), e)
    return out


# t = 2 and the ends of the t range
EDGE_TS = (2, 2 ** 12, -2 ** 12, Fraction(1, 2 ** 12), Fraction(-1, 2 ** 12))


def test_perturbed_s6_graph_is_refuted(monkeypatch):
    # the oracle samples the exact graphs it is handed: one coefficient of
    # the graph of L_mu over c+ off by a relative 1e-6 leaves the surface;
    # so does one of the S7 representative's and one of the S8 P1 family's,
    # at t = 2 and at the ends of the t range (the coefficient of X in Z,
    # which is 0 on L1-L3 and on the S7 e = 0 pair)
    exact = numeric._radical_graphs

    def perturbed(family):
        n, roots = exact(family)
        (c, constants), *rest = roots
        return n, [(c, _perturbed(constants, 1, 1))] + rest
    monkeypatch.setattr(numeric, "_radical_graphs", perturbed)
    for t in EDGE_TS:
        cfg = NumericConfig(t=t)
        with pytest.raises(VerificationError, match="S6 residue .* on Lmu"):
            _audit(build_surface("s6"), cfg)
        with pytest.raises(VerificationError, match="S7 residue .* on main"):
            _audit(build_surface("s7"), cfg)
        with pytest.raises(VerificationError, match="S8 residue .* on P1"):
            _audit(build_surface("s8"), cfg)


@pytest.mark.parametrize("name,branch,at", [
    pytest.param(name, branch, None, id="%s-%s" % (name, branch))
    for name, branch in (("an:2", "y0"), ("an:5", "y0"), ("an:5", "z0"),
                         ("dn:4", "x0"), ("dn:4", "mu"), ("dn:9", "x0"),
                         ("dn:9", "mu"))] + [
    pytest.param(name, "mu", (0, 1), id="%s-mu-imu" % name)
    for name in ("dn:4", "dn:9")])
def test_perturbed_fibre_graph_is_refuted(monkeypatch, name, branch, at):
    # the A_n and D_n fibre components are sampled on their exact graphs
    # too: a coefficient of one family's graph off by a relative 1e-6 is
    # refuted on that family, at t = 2 and at the ends of the t range, and
    # the surface audits clean without it.  The coefficient is the last
    # nonzero one (the alpha of x = alpha, the mu^2 of x = mu^2, the r of
    # z = r w), or the one at `at`: the i mu of z = i mu y, which at
    # |t| = 2^12 the term t w^2 would dilute below 1e-8 at |w| = 1
    exact = numeric._radical_graphs

    def perturbed(family):
        n, roots = exact(family)
        if family.branch != branch:
            return n, roots
        (c, constants), = roots
        row, k = at or [(row, k) for row, coeffs in enumerate(constants)
                        for k, (value, _) in enumerate(coeffs) if value][-1]
        return n, [(c, _perturbed(constants, row, k))]
    s = build_surface(name)
    for t in EDGE_TS:
        assert _audit(s, NumericConfig(t=t))["max_residue"] < 1e-13
    monkeypatch.setattr(numeric, "_radical_graphs", perturbed)
    for t in EDGE_TS:
        with pytest.raises(VerificationError, match="%s residue .* on %s"
                           % (name.upper(), branch)):
            _audit(s, NumericConfig(t=t))


def _member_b(family, cfg):
    """(mu, b) of the 120 members of an S8 branch family at cfg.t, read off
    the oracle's float graphs: b is the coefficient of W X in Y."""
    n, roots = numeric._radical_graphs(family)
    tval, out = float(cfg.t), []
    for c, constants in roots:
        s0 = (tval / c) ** (1 / n)
        for w in numeric._roots_of_unity(abs(n)):
            out.append((s0 * w, numeric._graph_at(constants, s0 * w)[0][1]))
    return out


@pytest.mark.parametrize("branch,quartic", [("P1", q1_quartic()),
                                            ("P2", q2_quartic())])
def test_rotated_b_roots_match_a_direct_solve(branch, quartic):
    # the members' x = -mu^30 t are the roots of Q_i, and their b, rotated
    # and conjugated from the representative's exact graph, are roots of
    # the branch quartic at their mu, both solved directly in floats
    family = surface_families(build_surface("s8"))[branch]
    Pi = _b_quartic_at(family)
    members = _member_b(family, CFG)
    assert len(members) == 120
    xs = numeric_roots(quartic, CFG)
    for mu, b in members[::7]:
        x = -mu ** 30 * float(CFG.t)
        assert min(abs(x - r) for r in xs) < 1e-9 * (1 + abs(x))
        direct = durand_kerner(Pi(mu), CFG)
        assert min(abs(b - d) for d in direct) < 1e-9 * (1 + abs(b))


def _b_quartic_at(family):
    """The branch quartic P_i(b mu^4) of an S8 family as mu -> its
    coefficients in b."""
    P = curves.s8_branch_quartics(("b", "mu"))[int(family.branch[1]) - 1]

    def coeffs(mu):
        out = [0j] * 5
        for (i, e), c in P.terms.items():
            out[i] += complex(c) * mu ** e
        return out
    return coeffs


def test_wrong_b_weight_is_refuted(monkeypatch):
    # the oracle rotates each graph coefficient by its power of mu, which
    # the exact graph stores: b = beta mu^-4 taken as beta mu^-3 is refuted
    # at the members it moves
    _wrong_weight(monkeypatch, "s8", 0, 1)
    with pytest.raises(VerificationError, match="S8 residue"):
        _audit(build_surface("s8"), CFG)


def _wrong_weight(monkeypatch, name, row, k):
    """The exact family of s7 (main) or s8 (branch P1) with the power of s
    in coefficient k of its graph's Y (row 0) or Z (row 1) raised by one."""
    s = build_surface(name)
    branch = "main" if name == "s7" else "P1"
    family = surface_families(s)[branch]
    graph = [list(cs) for cs in family.data["graph"]]
    graph[row][k] = graph[row][k] * graph[row][k].tower.gen(
        family.data["t"].tower.var)
    patched = copy.copy(family)
    patched.data = dict(family.data, graph=graph)
    _clean_families(monkeypatch, s, **{branch: patched})


def test_q_q1_q2_are_solved_once(monkeypatch):
    # the roots of Q, Q1 and Q2 do not depend on t: the Sturm step solves
    # each once, and the audits at t = 2, 3, 5 solve none, as they read the
    # exact roots (a fresh seed and tol keep the caches cold)
    calls, solve = [], numeric.durand_kerner
    monkeypatch.setattr(numeric, "durand_kerner",
                        lambda c, cfg: calls.append(list(c)) or solve(c, cfg))
    cfg = NumericConfig(tol=1e-9, seed=17)
    catalog = build_catalog()
    sturm_vs_numeric(catalog["s7"], catalog["s8"], cfg)
    numeric.full_audit(catalog, tol=cfg.tol, seed=cfg.seed)
    solved = (q_cubic(), q1_quartic(), q2_quartic())
    for q in solved:
        assert calls.count(q) == 1
    assert len(calls) == len(solved)


def test_sample_points_are_drawn_once_per_seed(monkeypatch):
    # the points (W, X) do not depend on t: one full audit draws the 1200
    # of S8, whose first 135 are those of S6 and first 280 those of S7,
    # once (a fresh seed keeps the audit cache cold), and every t reads
    # them
    draws, seen, where = [], {}, []
    draw, audit, at = (numeric._sample_wx, numeric.numeric_curve_audit,
                       numeric.CompiledPoly.at)

    def spy_at(self, x):
        # the (W, X) of each point evaluated, under its (surface, t)
        seen.setdefault(where[-1], []).append(tuple(x[:2]))
        return at(self, x)
    monkeypatch.setattr(numeric, "_sample_wx",
                        lambda rng: draws.append(1) or draw(rng))
    monkeypatch.setattr(numeric, "numeric_curve_audit",
                        lambda s, cfg: where.append((s.name, cfg.t))
                        or audit(s, cfg))
    monkeypatch.setattr(numeric.CompiledPoly, "at", spy_at)
    numeric._samples.cache_clear()
    numeric.full_audit(build_catalog(), seed=29)
    assert len(draws) == 1200
    for t in (2, 3, 5):
        assert len(seen["s8", t]) == 1200 and len(seen["s6", t]) == 135
        assert seen["s6", t] == seen["s8", t][:135]
        assert seen["s7", t] == seen["s8", t][:280]
        assert seen["s6", t] == seen["s6", 2] and \
            seen["s8", t] == seen["s8", 2]


def test_branch_quartic_must_be_a_polynomial_in_b_mu_k():
    # each term b^i mu^e of the branch quartic P_i(b, mu) has e = 4 i, and
    # the b of each branch's exact graph, from the certified b-fraction, is
    # beta / mu^4 with P_i(beta) = 0 exactly in Q(zeta_30)
    families = surface_families(build_surface("s8"))
    for i, Pi in enumerate(curves.s8_branch_quartics(("b", "mu"))):
        assert all(e == 4 * k for k, e in Pi.terms)
        b = families["P%d" % (i + 1)].data["graph"][0][1]
        (k, _), = b.payload[0].items()
        beta = b * b.tower.gen("mu") ** 4
        assert k == -4 and Pi.evaluate({"b": beta, "mu": 1}) == 0


@pytest.mark.parametrize("name,branch", [("s8", "P1"), ("s8", "P2"),
                                         ("s7", None)])
def test_rotated_chain_matches_a_direct_solve(name, branch):
    # each member's float graph, the representative's exact graph rotated
    # and conjugated, equals the elimination chain solved directly at its
    # s and t in floats: S8 at every 7th member, from the root b of the
    # branch quartic at its mu nearest its graph's (the b-fraction cancels
    # catastrophically in doubles), S7 at every member
    tval = float(CFG.t)
    if name == "s8":
        family = surface_families(build_surface("s8"))[branch]
        free, names, step = "mu", ("a", "b", "d", "e", "f"), 7
    else:
        family = surface_families(build_surface("s7"))["main"]
        free, names, step = "e", ("a", "b", "c", "d", "e"), 1
    n, roots = numeric._radical_graphs(family)
    members = []
    for c, constants in roots:
        s0 = (tval / c) ** (1 / n)
        members += [(s0 * w, numeric._graph_at(constants, s0 * w))
                    for w in numeric._roots_of_unity(abs(n))]
    assert len(members) == family.count
    for s, (y, z) in members[::step]:
        env = {free: s, "t": tval}
        if name == "s8":
            env["b"] = min(durand_kerner(_b_quartic_at(family)(s), CFG),
                           key=lambda b: abs(b - y[1]))
        fractions = family.data["coeff_pairs"]
        for v, (num, den) in reversed(fractions.items()):
            env[v] = _float_at(num, env) / _float_at(den, env)
        values = y + z if name == "s7" else y[:2] + z[:3]
        for v, value in zip(names, values, strict=True):
            assert abs(value - env[v]) < 1e-7 * (1 + abs(env[v])), v


def _float_at(p, env):
    """The MultiPoly p at the floats env (its other variables 0)."""
    total = 0j
    for e, c in p.terms.items():
        term = complex(c)
        for v, k in zip(p.vars, e):
            if k:
                term *= env.get(v, 0) ** k
        total += term
    return total


def test_wrong_f_weight_is_refuted(monkeypatch):
    # f is rotated with the graph too: its power of mu off by one is
    # refuted by the residues, as that of a is
    _wrong_weight(monkeypatch, "s8", 1, 2)
    with pytest.raises(VerificationError, match="S8 residue"):
        _audit(build_surface("s8"), CFG)


@pytest.mark.parametrize("name,error", [("s7", "S7 residue"),
                                        ("s8", "S8 residue")])
def test_wrong_chain_weight_is_refuted(monkeypatch, name, error):
    # the oracle rotates each coefficient of the exact graph by its power
    # of the parameter; that of a off by one is refuted by the residues
    _wrong_weight(monkeypatch, name, 0, 0)
    with pytest.raises(VerificationError, match=error):
        _audit(build_surface(name), CFG)
