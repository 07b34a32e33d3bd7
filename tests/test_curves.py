"""Exceptional-curve enumeration: counts and the displayed residual
polynomials, bit for bit."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import kleinfib
from kleinfib.curves import (VerificationError, _certify_membership,
                             _graph_forms, _root_family, _root_graph,
                             an_tower,
                             certify_s6_lines, chain_subs, dn_tower,
                             enumerate_an, enumerate_dn, enumerate_s7,
                             enumerate_s8, q_cubic, q1_quartic, q2_quartic,
                             residual_coefficients,
                             s6_alpha_lines, s6_line_tower, s6_radicand,
                             sqrt_t_tower, strip_content, surface_families)
from kleinfib.base import GeometryError
from kleinfib.geometry import AN_RANGE, DN_RANGE, build_catalog, build_surface
from kleinfib.lattice import minus_one_classes
from kleinfib.multipoly import MultiPoly
from kleinfib.numeric import NumericConfig, numeric_roots
from kleinfib.tower import FieldElement, root_of_unity
from kleinfib.univariate import cyclotomic_poly


def test_q_cubic_coefficients():
    assert q_cubic() == [Fraction(-64), Fraction(401808),
                         Fraction(-29496), Fraction(1)]


def test_q1_q2_nested_forms():
    # 108000 X (5400 X^3 - 20154789349200 X^2 + 522900235 X + 1254) + 1
    def nested(c2, c1, c0):
        return [Fraction(1), 108000 * Fraction(c0), 108000 * Fraction(c1),
                108000 * Fraction(c2), 108000 * Fraction(5400)]
    assert q1_quartic() == nested(-20154789349200, 522900235, 1254)
    assert q2_quartic() == nested(-10810800, -44551045, -611864)


def test_s6_lines():
    curves = certify_s6_lines(build_surface("s6"))
    assert sum(c.count for c in curves) == 27
    by_family = {}
    for c in curves:
        by_family[c.family] = by_family.get(c.family, 0) + c.count
    assert by_family["S6-L123"] == 3
    assert by_family["S6-Lmu"] == 24


def test_s7_curves_and_d_denominator():
    curves, residual = enumerate_s7(build_surface("s7"))
    assert sum(c.count for c in curves) == 56
    main = next(c for c in curves if c.family == "S7-main")
    nd, dd = main.data["coeff_pairs"]["d"]
    assert repr(dd) == "(115)*e^18 + (-28)*t"


def test_s8_curves():
    curves, residuals = enumerate_s8(build_surface("s8"))
    assert sum(c.count for c in curves) == 240
    branches = {c.branch for c in curves}
    assert branches == {"P1", "P2"}


def _distinct_roots(coeffs):
    """The number of distinct complex roots of a coefficient list (low
    first), by the floating-point oracle, which certifies them separated."""
    return len(numeric_roots(coeffs, NumericConfig()))


@pytest.mark.parametrize("surface", [6, 7, 8, "an:5", "dn:9"])
def test_family_counts_are_roots_times_degree(surface):
    # a radical family counts N curves, N its binomial degree, over each
    # distinct nonzero root of its root polynomial: C for the lines L_mu,
    # Q, Q1, Q2 for the S7 and S8 main families, and X - 1 for L1-L3, the
    # S7 e = 0 pair and the A_n, D_n fibre components.  Its relation has
    # degree N in its parameter: r^2 - t for the S7 e = 0 pair and the D_n
    # x = 0 pair.  The curves of S_r add up to the (-1)-classes of the
    # degree-(9 - r) del Pezzo surface, those of an:5 to 2 x 5 and those of
    # dn:9 to 2 + 16
    if surface == "an:5":
        curves = enumerate_an(build_surface(surface))
        families, total = {"y0": (1, 5, 5), "z0": (1, 5, 5)}, 2 * 5
    elif surface == "dn:9":
        curves = enumerate_dn(build_surface(surface))
        families, total = {"x0": (1, 2, 2), "mu": (1, 16, 16)}, 2 + 16
    else:
        s = build_surface("s%d" % surface)
        total = len(minus_one_classes(surface))
        if surface == 6:
            curves = certify_s6_lines(s)
            families = {"alpha": (1, 3, 3),
                        "Lmu": (_distinct_roots(s6_radicand()), 12, 24)}
        elif surface == 7:
            curves = enumerate_s7(s)[0]
            families = {"e0": (1, 2, 2),
                        "main": (_distinct_roots(q_cubic()), 18, 54)}
        else:
            curves = enumerate_s8(s)[0]
            families = {"P1": (_distinct_roots(q1_quartic()), 30, 120),
                        "P2": (_distinct_roots(q2_quartic()), 30, 120)}
    assert [c.branch for c in curves] == list(families)
    for c in curves:
        roots, degree, relation_degree = families[c.branch]
        assert c.count == roots * degree
        assert c.relation.degree(c.parameter) == relation_degree
    assert sum(c.count for c in curves) == total


def _templates(surface):
    """The enumeration's variables and its templates YS, ZS for Y and Z."""
    if surface == "s7":
        V = ("W", "X", "Y", "Z", "a", "b", "c", "d", "e", "t")
        W, X, a, b, c, d, e = (MultiPoly.var(V, v) for v in "WXabcde")
        return V, {"Y": a * W + b * X, "Z": c * W ** 2 + d * W * X
                   + e * X ** 2}
    V = ("W", "X", "Y", "Z", "a", "b", "d", "e", "f", "mu", "t")
    W, X, a, b, d, e, f = (MultiPoly.var(V, v) for v in "WXabdef")
    mu = MultiPoly.var(V, "mu")
    return V, {"Y": a * W ** 2 + b * W * X - mu ** 2 * X ** 2,
               "Z": d * W ** 3 + e * W ** 2 * X + f * W * X ** 2
               - mu ** 3 * X ** 3}


@pytest.mark.parametrize("surface,branch", [("s7", "main"), ("s8", "P1"),
                                            ("s8", "P2")])
def test_curve_forms_vanish_on_their_templates(surface, branch):
    # each form is the solved chain applied to YS - Y or ZS - Z, so the
    # templates put back for Y and Z and the chain replayed give zero
    enumerate_ = enumerate_s7 if surface == "s7" else enumerate_s8
    curve = next(c for c in enumerate_(build_surface(surface))[0]
                 if c.branch == branch)
    V, templates = _templates(surface)
    solved = [(name,) + pair
              for name, pair in curve.data["coeff_pairs"].items()]
    for form in curve.equations:
        assert form.degree("Y") + form.degree("Z") == 1
        back = form.rename(V).substitute(templates)
        assert chain_subs(back, solved).is_zero()


def test_s8_z_form_is_primitive_and_free_of_the_guard():
    curve = enumerate_s8(build_surface("s8"))[0][0]
    zform = curve.equations[1]
    b, mu = (MultiPoly.var(zform.vars, v) for v in ("b", "mu"))
    guard = b ** 2 * mu ** 8 + 4 * b * mu ** 4 + 1
    assert zform == strip_content(zform) and zform.content() == 1
    with pytest.raises(ArithmeticError):
        zform.exact_div(guard)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_an_components(n):
    # two families of n: the components y = 0 (the contractible orbit) and
    # z = 0 over the n roots of x^n = t
    curves = enumerate_an(build_surface("an:%d" % n))
    assert [(c.branch, c.count) for c in curves] == [("y0", n), ("z0", n)]
    assert sum(c.count for c in curves) == 2 * n
    contractible = [c for c in curves
                    if c.data.get("contractible_orbit")]
    assert [c.branch for c in contractible] == ["y0"]


@pytest.mark.parametrize("n", [4, 5, 9])
def test_dn_components(n):
    # the x = 0 pair and the 2(n - 1) curves over the roots of
    # mu^(2(n-1)) = t
    curves = enumerate_dn(build_surface("dn:%d" % n))
    assert [(c.branch, c.count) for c in curves] == [("x0", 2),
                                                     ("mu", 2 * (n - 1))]
    assert sum(c.count for c in curves) == 2 + 2 * (n - 1)


@pytest.mark.parametrize("name", ["an:5", "dn:9"])
def test_every_fibre_family_member_lies_on_the_surface(name):
    # the reference for the families certified at their representative:
    # member j is sigma_(j e) of it (FieldElement.rotate on each tower
    # coefficient of its forms; e = M / count in the family's tower
    # Q(zeta_M)[s, 1/s]: 1 for A_n and the D_n x = 0 pair, M / N for the D_n
    # mu family), each is substituted into the surface equation, the count
    # members are pairwise distinct, and the next rotation closes the orbit
    s = build_surface(name)
    curves = (enumerate_an if name.startswith("an") else enumerate_dn)(s)
    for c in curves:
        t = c.data["t"]
        e = t.tower.M // c.count
        members = [tuple(f.map_coeffs(lambda x: x.rotate(j * e) if
                                      isinstance(x, FieldElement) else x)
                         for f in c.equations) for j in range(c.count + 1)]
        assert members[-1] == c.equations
        assert len({repr(m) for m in members[:-1]}) == c.count
        for forms in members[:-1]:
            # each form is monic in x, then in z or else y
            sub = {}
            for form in forms:
                v = next(v for v in "xzy" if form.degree(v) == 1)
                sub[v] = MultiPoly.var(form.vars, v) - form
            _certify_membership(s, t.tower, sub, t)


def test_mutated_catalog_fails_enumeration():
    bad = build_catalog(mutation=("s7", 0, 1, Fraction(1)))
    with pytest.raises(VerificationError):
        enumerate_s7(bad["s7"])


def test_mutated_s6_fails_line_certification():
    bad = build_catalog(mutation=("s6", 0, 0, Fraction(1, 2)))
    with pytest.raises(VerificationError):
        certify_s6_lines(bad["s6"])


@pytest.mark.parametrize("n", range(4, 13))
def test_dn_constants_form_a_field(n):
    # i lies in Q(zeta_N) when 4 | N: adjoining Phi_N over Q(i) instead
    # gives a ring in which zeta_N^(N/4) - i is a zero divisor
    T, t = dn_tower(n)
    N = 2 * (n - 1)
    i, zeta = root_of_unity(T, 4), root_of_unity(T, N)
    assert i * i == -1 and zeta ** N == 1 and t == T.gen("mu") ** N
    elements = [zeta - 1, zeta ** 2 + i]
    if N % 4 == 0:
        elements += [zeta ** (N // 4) - i, zeta ** (N // 4) + i]
    for x in elements:
        assert x.is_zero() or x * x.invert() == 1


def _witness_towers():
    towers = [s6_line_tower()[0], s6_alpha_lines()[0], sqrt_t_tower()[0]]
    towers += [an_tower(n)[0] for n in range(2, 8)]
    towers += [dn_tower(n)[0] for n in range(4, 13)]
    catalog = build_catalog()
    curves = certify_s6_lines(catalog["s6"]) + \
        enumerate_s7(catalog["s7"])[0][:2]
    for n in (2, 3, 5):
        curves += enumerate_an(catalog["an:%d" % n])
    for n in (4, 5, 9):
        curves += enumerate_dn(catalog["dn:%d" % n])
    for c in curves:
        towers += [v.tower for eq in c.equations for v in eq.terms.values()
                   if isinstance(v, FieldElement)]
    return towers


def test_witness_towers_are_cyclotomic_plus_one_ratfunc():
    phis = [cyclotomic_poly(M) for M in range(1, 49)]
    for T in _witness_towers():
        assert T.var is not None, T
        if T.M is not None:
            assert list(T._ring.phi) in phis, T


def test_vanishing_s6_radicand_is_refused(monkeypatch):
    # with the stored c+ = (-45 + 26 sqrt3)/243 read as 0 (both ints 0), the
    # refusal comes before t = mu^12 / c divides by it (the uncached
    # certifier, so that no cache keeps the failure)
    monkeypatch.setattr("kleinfib.curves.S6_ROOT", ((0, 0), 243))
    with pytest.raises(VerificationError, match="the stored root of C is "
                                                "not a nonzero root"):
        certify_s6_lines.__wrapped__(build_surface("s6"))


def test_a_conjugation_moving_a_surface_coefficient_is_refused():
    # the family over c- is sigma_5 of the one over c+ because sigma_5
    # fixes -2i, the one irrational coefficient of the cubic; sigma_7 takes
    # i to -i, and a root named by 7 is refused
    s6 = build_surface("s6")
    family = certify_s6_lines(s6)[-1]
    graph, t, roots = (family.data[k] for k in ("graph", "t", "roots"))
    assert _root_family(s6, graph, t, roots)["roots"] == roots
    with pytest.raises(VerificationError, match="sigma_7 moves a "
                                                "coefficient of the s6"):
        _root_family(s6, graph, t, {**roots, 7: roots[1]})


# run as `python -c`: reproduce-paper with one int of the stored root of C
# (argv[1] = s6), of Q (s7) or of Q1 (s8) off by one
PATCHED_ROOT = """
import sys
from kleinfib import cli, curves
if sys.argv[1] == "s6":
    (a, *rest), den = curves.S6_ROOT
    curves.S6_ROOT = ((a + 1, *rest), den)
elif sys.argv[1] == "s7":
    (a, *rest), den = curves.S7_ROOT
    curves.S7_ROOT = ((a + 1, *rest), den)
else:
    ((a, *rest), den), other = curves.S8_ROOTS
    curves.S8_ROOTS = (((a + 1, *rest), den), other)
sys.exit(cli.main(["reproduce-paper"]))
"""


@pytest.mark.parametrize("surface,label", [("s6", "C"), ("s7", "Q"),
                                           ("s8", "Q1")])
def test_a_stored_root_off_by_one_fails_its_curve_check(surface, label):
    # in a process of its own, so that no cache here holds the failure
    src = os.path.dirname(os.path.dirname(kleinfib.__file__))
    run = subprocess.run([sys.executable, "-c", PATCHED_ROOT, surface],
                         capture_output=True, text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 1, run.stderr
    checks = {c["name"]: c for c in json.loads(run.stdout)["checks"]}
    assert checks["curves-" + surface]["error"] == (
        "VerificationError: the stored root of %s is not a nonzero root of "
        "it" % label)


# run as `python -c`: reproduce-paper with the W^6 coefficient W and the
# branch quartic P of each S8 branch replaced by the expression argv[1] in
# them and b before the resultant is taken
PERTURBED_S8 = """
import sys
from kleinfib import cli, curves
from kleinfib.multipoly import MultiPoly
residual = curves._s8_branch_residual
def perturbed(W, P, qtarget, bi):
    b = MultiPoly.var(P.vars, "b")
    return residual(*eval(sys.argv[1]), qtarget, bi)
curves._s8_branch_residual = perturbed
sys.exit(cli.main(["reproduce-paper"]))
"""


@pytest.mark.parametrize("perturbation,error", [
    # P divides W: the first pseudo-remainder vanishes
    ("(P * b ** 14, P)", "no degree-1 subresultant in branch 1"),
    # a common factor b + 1: the PRS ends in it, of degree 1
    ("(W * (b + 1), P * (b + 1))",
     "branch 1 resultant did not reach degree 0"),
    # the b^0 coefficient of W doubled: another resultant
    ("(W + W.coeff_of('b', 0), P)",
     "branch 1 residual quartic deviates from the displayed coefficients")],
    ids=["P divides W", "common factor", "W b^0 doubled"])
def test_a_perturbed_s8_resultant_fails_curves_s8(perturbation, error):
    # in a process of its own, so that no cache here holds the failure
    src = os.path.dirname(os.path.dirname(kleinfib.__file__))
    run = subprocess.run([sys.executable, "-c", PERTURBED_S8, perturbation],
                         capture_output=True, text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 1, run.stderr
    checks = {c["name"]: c for c in json.loads(run.stdout)["checks"]}
    assert checks["curves-s8"]["error"] == "VerificationError: " + error


@pytest.mark.parametrize("surface,branch", [("s7", "main"), ("s8", "P1"),
                                            ("s8", "P2")])
def test_a_changed_graph_coefficient_fails_membership(surface, branch):
    # the representative's graph lies on the surface, and with any one of
    # its coefficients scaled by 1 + 10^-6 it no longer does
    s = build_surface(surface)
    curves = (enumerate_s7 if surface == "s7" else enumerate_s8)(s)[0]
    family = next(c for c in curves if c.branch == branch)
    y, z = family.data["graph"]
    t = family.data["t"]
    graph = [list(y), list(z)]
    _certify_membership(s, t.tower, dict(zip("YZ", _graph_forms(*graph))), t)
    for row, coeffs in enumerate(graph):
        for k, c in enumerate(coeffs):
            bad = [list(y), list(z)]
            bad[row][k] = c * Fraction(10 ** 6 + 1, 10 ** 6)
            with pytest.raises(VerificationError, match="membership"):
                _certify_membership(s, t.tower,
                                    dict(zip("YZ", _graph_forms(*bad))), t)


@pytest.mark.parametrize("surface,count", [("s6", 2), ("s7", 3), ("s8", 4)])
def test_the_roots_are_all_the_residual_roots(surface, count):
    # each family counts binomial degree times its distinct conjugate
    # roots, and their floats are the residual's roots solved directly
    # (the radicand C itself for the lines L_mu of S6)
    s = build_surface(surface)
    if surface == "s6":
        curves, qs = certify_s6_lines(s), [s6_radicand()]
    else:
        curves, residuals = (enumerate_s7 if surface == "s7"
                             else enumerate_s8)(s)
        residuals = [residuals] if surface == "s7" else list(residuals)
        qs = [residual_coefficients(residual, curves[-1].parameter)
              for residual in residuals]
    # the families over the residual's roots come last, after L1-L3 of S6
    # and the e = 0 pair of S7, each over the root 1 of X - 1
    for family, q in zip(curves[-len(qs):], qs, strict=True):
        roots = family.data["roots"]
        h = roots[1].tower.M
        assert len(roots) == count and family.count == h * count
        direct = numeric_roots(q, NumericConfig())
        values = [x.as_complex()[0] for x in roots.values()]
        for value in values:
            assert min(abs(value - r) for r in direct) < 1e-9 * abs(value)
        assert len(values) == len(direct)


def test_a_denominator_no_monomial_at_the_root_is_refused():
    # at t = e^18 / u the Z coefficient of the printed S7 Z-form,
    # -2 (115 e^18 - 28 t)^2 from the cleared d-denominator, is a nonzero
    # monomial; with a term e Z added it is not, and the graph is refused
    s7 = build_surface("s7")
    main = enumerate_s7(s7)[0][-1]
    yform, zform = main.equations
    e, Z = (MultiPoly.var(zform.vars, v) for v in "eZ")
    t, roots = main.data["t"], main.data["roots"]
    with pytest.raises(VerificationError, match="the coefficient of Z is "
                                                "not a nonzero monomial"):
        _root_graph(s7, (yform, zform + e * Z), roots, t)
    graph = _root_graph(s7, main.equations, roots, t)["graph"]
    assert graph == main.data["graph"]


@pytest.mark.parametrize("form,term", [(0, "W*Y"), (1, "Z*Z"), (0, "W*W"),
                                       (0, "Z"), (1, "Y")])
def test_a_term_the_reader_cannot_place_is_refused(form, term):
    # every term of a printed form is placed: c Y or c Z, c' Z in the Y form
    # when Y and Z have one weight (on S7 they do not), or W^(d-j) X^j with
    # d the weight of Y (1) or Z (2); any other term is refused, and with a
    # Y term in both forms neither gives Z
    s7 = build_surface("s7")
    main = enumerate_s7(s7)[0][-1]
    forms = list(main.equations)
    W, Y, Z = (MultiPoly.var(forms[form].vars, v) for v in "WYZ")
    forms[form] = forms[form] + {"W*Y": W * Y, "Z*Z": Z * Z, "W*W": W * W,
                                 "Z": Z, "Y": Y}[term]
    with pytest.raises(GeometryError, match="the forms cut no graph"):
        _root_graph(s7, forms, main.data["roots"], main.data["t"])


@pytest.mark.parametrize("name", ["s6", "s7", "s8"]
                         + ["an:%d" % n for n in AN_RANGE]
                         + ["dn:%d" % n for n in DN_RANGE])
def test_every_printed_equation_vanishes_on_its_certified_graph(name):
    # each family's printed forms, at its representative's parameters (the
    # tower generator, t and, on S8, b), vanish on the graph it certified,
    # whether the graph was read off the forms (S6, S7, S8) or the forms
    # off the graph (A_n, D_n)
    for family in surface_families(build_surface(name)).values():
        data = family.data
        T, coords = data["t"].tower, data["coords"]
        at = {T.var: T.gen(T.var), "t": data["t"], "b": data.get("b")}
        for eq in family.equations:
            sub = {v: MultiPoly.const(eq.vars, at[v]) for v in eq.vars
                   if v not in coords}
            sub.update(zip(coords[2:], (f.rename(eq.vars) for f in
                                        _graph_forms(*data["graph"], coords))))
            assert eq.map_coeffs(T.lift).substitute(sub).is_zero(), \
                (family.branch, eq)
