"""Galois orbits, the rows of intersection numbers and rationality
verdicts."""

from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest

from kleinfib import curves, lattice, orbits, tower
from kleinfib.base import GeometryError, VerificationError
from kleinfib.curves import (_root_graph, certify_s6_lines, s6_alpha_lines,
                             s6_line_forms, s6_line_tower)
from kleinfib.geometry import build_catalog, build_surface
from kleinfib.orbits import (BaseExtension, GRID_CASES, case_surface,
                             dn_intersections, family_rows, minimal_model,
                             orbit_structure, rationality_degree,
                             rationality_verdict, s6_intersections,
                             s7_conjugation, s8_conjugation, verdict_grid)


def _degree(case):
    return rationality_degree(case, build_surface(case_surface(case)))


def _model(case, m, surface):
    """The minimal model over C(t^{1/m}): the one at gcd(m, P)."""
    return minimal_model(case, gcd(m, orbits._period(surface)), surface)


def _rotated(forms, e):
    """sigma_e (s -> zeta_M^e s) of each form: FieldElement.rotate on its
    tower coefficients, the reference for the rotated graphs _row reads."""
    return tuple(f.map_coeffs(lambda c: c.rotate(e) if isinstance(
        c, tower.FieldElement) else c) for f in forms)


def test_rationality_degrees():
    assert _degree("e6") == 12
    assert _degree("e7") == 18
    assert _degree("e8") == 30
    assert _degree("an:2") == 1
    assert _degree("dn:4") == 2
    assert _degree("dn:5") == 8
    assert _degree("dn:6") == 2
    assert _degree("dn:9") == 16


@pytest.mark.parametrize("n", range(4, 33))
def test_dn_degree_is_the_least_splitting_extension(n):
    # a of dn:<n> is the least m over which mu (root 0) and -mu (root n-1)
    # of X^(2(n-1)) = c t lie in different orbit blocks
    def separated(m):
        blocks = orbit_structure(2 * (n - 1), m)["blocks"]
        return next(b for b in blocks if 0 in b) != \
            next(b for b in blocks if n - 1 in b)
    least = next(m for m in range(1, 2 * n) if separated(m))
    assert _degree("dn:%d" % n) == least
    # the paper's form: the 2-part of 2(n-1)
    assert least == (2 * (n - 1)) & -(2 * (n - 1))


@pytest.mark.parametrize("N,m", [(12, 1), (12, 4), (12, 12), (3, 2),
                                 (30, 6), (18, 9), (6, 30)])
def test_orbit_structure(N, m):
    from math import gcd
    report = orbit_structure(N, m)
    g = gcd(N, m)
    assert report["g"] == g
    assert len(report["blocks"]) == g
    assert all(len(b) == N // g for b in report["blocks"])


def test_verdict_examples():
    s6, d4 = build_surface("s6"), build_surface("dn:4")
    v = rationality_verdict("e6", BaseExtension(12), s6)
    assert v.rational and v.a == 12
    v = rationality_verdict("e6", BaseExtension(6), s6)
    assert not v.rational and v.a == 12
    # m = 3: the three lines L1..L3 become rational and meet pairwise, so
    # one contracts: K^2 = 4 with Picard rank 3 - 1 = 2, a conic bundle with
    # 8 - 4 = 4 singular fibres, not a del Pezzo surface of degree 4
    d = _model("e6", 3, s6)
    assert d.kind == "ConicBundle" and d.singular_fibres == 4
    assert d.degree is None
    assert not rationality_verdict("e6", BaseExtension(3), s6).rational
    # d4 over the base field: minimal conic bundle with >= 4 fibres
    d = _model("dn:4", 1, d4)
    assert d.kind == "ConicBundle"
    assert d.singular_fibres >= 4
    assert not rationality_verdict("dn:4", BaseExtension(1), d4).rational


def test_e7_even_extension_keeps_one_curve():
    # the two e = 0 curves meet, so only one contracts: DP(3), not DP(4)
    d = _model("e7", 2, build_surface("s7"))
    assert d.kind == "DelPezzo" and d.degree == 3


def test_cached_witness_takes_keyword_arguments():
    s8 = build_surface("s8")
    by_keyword = s8_conjugation(s8, 2, branch="P1")
    assert by_keyword == s8_conjugation(s8, 2, "P1") == \
        s8_conjugation(s8, order=2)
    assert by_keyword["branch"] == "P1" and by_keyword["verified"]
    assert s8_conjugation(s8, 2, branch="P1") is by_keyword
    for _ in range(2):
        with pytest.raises(ValueError):
            s8_conjugation(s8, 4, branch="P1")


def test_verdict_grid_consistency():
    cells = verdict_grid(build_catalog())
    assert len(cells) == 150
    assert {c["case"] for c in cells} == set(GRID_CASES)
    for c in cells:
        assert c["rational"] == (c["m"] % c["a"] == 0)


@pytest.fixture
def fresh_verdicts():
    """The verdict caches emptied before and after the test, so that what it
    computes from patched rows or cycles stays with it."""
    caches = (orbits.family_rows, orbits._coxeter_match, orbits.minimal_model)
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()


def _s6_reporting(monkeypatch, edit):
    """family_rows patched to return the row of L_mu over c+ (root 1)
    through edit, which changes a copy of it in place."""
    full = family_rows(build_surface("s6"))
    lmu = {j: list(row) for j, row in full["rows"]["Lmu"].items()}
    edit(lmu[1])
    monkeypatch.setattr(orbits, "family_rows", lambda s6: dict(
        full, rows=dict(full["rows"], Lmu=lmu)))


def _endpoint(case, m, surface):
    d = _model(case, m, surface)
    return d.kind, d.degree, d.singular_fibres


def test_kept_orbits_need_a_certified_meeting_pair(monkeypatch,
                                                     fresh_verdicts):
    # without the xi-order-3 meets (k = 4, 8), the only meets of the
    # <c^4>-orbits of L_mu, the row of L_mu is incomplete: it fits no
    # c-cycle, and every e6 cell is refused, those with gcd(m, 12) = 4 too
    s6 = build_surface("s6")
    orbits._coxeter_match.cache_clear()
    orbits.minimal_model.cache_clear()

    def unmet(row):
        row[4] = row[8] = None
    _s6_reporting(monkeypatch, unmet)
    for m in range(1, 31):
        with pytest.raises(VerificationError,
                           match="no free c-cycle fits the row of Lmu$"
                           ) as info:
            _model("e6", m, s6)
        row = info.value.detail["row"]
        assert row[4] is row[8] is None
    with pytest.raises(VerificationError):
        rationality_degree("e6", s6)


@pytest.mark.parametrize("k,meet,meets", [(2, True, [2, 4, 5, 6, 7, 8]),
                                           (6, False, [4, 5, 7, 8])])
def test_a_witness_the_lattice_refutes_fails_the_matching(
        monkeypatch, fresh_verdicts, k, meet, meets):
    # L_mu over c+ meets L_{xi^k mu} for k = 4..8 only: a meet at k = 2, or
    # a disjointness at k = 6, gives a row that is neither 12-cycle's, and
    # every e6 cell is refused
    def edited(row):
        row[k] = int(meet)
    _s6_reporting(monkeypatch, edited)
    s6 = build_surface("s6")
    for m in (1, 3, 4, 12):
        with pytest.raises(VerificationError,
                           match="no free c-cycle fits the row of "
                                 "Lmu$") as info:
            _model("e6", m, s6)
    row = info.value.detail["row"]
    assert [j for j in range(12) if row[j] > 0] == meets
    assert sorted([j for j in range(12) if cycle[j] > 0]
                  for cycle in info.value.detail["cycles"]) == [
        [1, 4, 6, 8, 11], [4, 5, 6, 7, 8]]


def test_an_orbit_fitting_several_cycles_is_refused(monkeypatch,
                                                   fresh_verdicts):
    # with the two 12-cycles given one row, L_mu over c+ fits both: refused
    def same_rows(r, real=lattice.coxeter_cycles):
        cycles, traces = real(r)
        twelve = next(meets for cycle, meets in cycles
                      if len(cycle) == 12 and meets[5])
        return tuple((cycle, twelve if len(cycle) == 12 else meets)
                     for cycle, meets in cycles), traces
    monkeypatch.setattr(lattice, "coxeter_cycles", same_rows)
    with pytest.raises(VerificationError,
                       match="more than one free c-cycle fits the row of "
                             "Lmu$"):
        _model("e6", 1, build_surface("s6"))


@pytest.mark.parametrize("case,orbits_", [("e7", 4), ("e8", 8)])
def test_each_root_orbit_matches_one_cycle_by_its_row(case, orbits_):
    # every Galois orbit of S7 (the e = 0 pair and one per root of Q) and
    # of S8 (one per root of Q1, Q2) has an exact row, equal to exactly one
    # c-cycle's, all rows distinct
    s = build_surface(case_surface(case))
    rows = [row for family in orbits._coxeter_match(case, s).values()
            for row in family.values()]
    assert len(rows) == orbits_ and len({tuple(r) for r in rows}) == orbits_
    cycles = [list(meets) for _, meets in lattice.coxeter_cycles(
        int(case[1]))[0]]
    assert sorted(rows) == sorted(cycles)
    for row in rows:
        assert cycles.count(row) == 1


@pytest.mark.parametrize("case,branch,k", [("e7", "main", 1),
                                           ("e8", "P2", 7)])
def test_a_row_with_one_entry_changed_is_refused(monkeypatch, fresh_verdicts,
                                                 case, branch, k):
    # the exact rows feed the match: one entry off by one fits no cycle
    s = build_surface(case_surface(case))
    rows, rows_of = orbits._root_rows(s, branch), orbits._root_rows
    bad = {j: list(row) for j, row in rows.items()}
    bad[1][k] += 1
    bad[1][len(bad[1]) - k] += 1
    monkeypatch.setattr(orbits, "_root_rows",
                        lambda s, b: bad if b == branch else rows_of(s, b))
    with pytest.raises(VerificationError, match="no free c-cycle fits the "
                                                "row of %s" % branch):
        orbits._coxeter_match(case, s)


def _squared_cycles(r, real=lattice.coxeter_cycles):
    """The cycles of c^2 in place of those of c, with their meeting
    numbers: xi matched to c^2."""
    cycles, traces = real(r)
    out = []
    for cycle, meets in cycles:
        size, parts = len(cycle), gcd(2, len(cycle))
        for i in range(parts):
            out.append((tuple(cycle[(i + 2 * j) % size]
                              for j in range(size // parts)),
                        tuple(meets[2 * j % size]
                              for j in range(size // parts))))
    return tuple(out), traces


@pytest.mark.parametrize("case", ["e6", "e7", "e8"])
def test_xi_matched_to_c_squared_fails_every_cell(monkeypatch,
                                                   fresh_verdicts, case):
    monkeypatch.setattr(lattice, "coxeter_cycles", _squared_cycles)
    surface = build_surface(case_surface(case))
    for m in range(1, 31):
        with pytest.raises(VerificationError, match="no free c-cycle"):
            _model(case, m, surface)


def test_end_point_of_picard_rank_above_2_is_refused(monkeypatch,
                                                     fresh_verdicts):
    # a contraction leaving rank 3 names neither a del Pezzo surface nor a
    # conic bundle
    monkeypatch.setattr(lattice, "coxeter_contraction",
                        lambda r, g: (4, 4, 1, {}))
    with pytest.raises(VerificationError, match="end point of rank 3"):
        minimal_model("e6", 1, build_surface("s6"))


def test_huge_extension_reads_its_gcd_with_h():
    s8 = build_surface("s8")
    assert rationality_verdict("e8", BaseExtension(30 * 7 ** 20), s8).rational
    assert not rationality_verdict("e8", BaseExtension(7 ** 20), s8).rational
    assert _model("e8", 7 ** 20, s8).degree == 1


def test_binomial_identity_verified_once_per_g():
    # a model cached by an earlier test would not read the orbits
    orbits.minimal_model.cache_clear()
    orbits._verify_binomial_identity.cache_clear()
    catalog = build_catalog()
    cells = verdict_grid(catalog)
    checked = orbits._verify_binomial_identity.cache_info().misses
    # distinct gcd(N, g) over the grid, g a divisor of the period: with
    # the S7 main family and the S8 branches, N = 18 and 30 add 5, 9, 10,
    # 15, 18 and 30
    assert checked == 13
    assert verdict_grid(catalog) == cells
    assert orbits._verify_binomial_identity.cache_info().misses == checked
    # every caller gets lists of its own
    orbit_structure(12, 4)["blocks"][0].append(99)
    assert orbit_structure(12, 4)["blocks"][0] == [0, 4, 8]


@pytest.mark.parametrize("g, zeta", [
    (12, lambda root: root ** 2),   # order 6: sum_i zeta^(6 i) = 12
    (9, lambda root: -root)])       # (-zeta)^9 = -1
def test_binomial_identity_refuses_a_wrong_root(monkeypatch, g, zeta):
    # the identity reads zeta^i from the ring of Q(zeta_g): a ring whose
    # powers are those of another root of Phi_g's ring is refused
    ring = tower.cyclotomic(g)._ring
    z = tower.FieldElement(tower.cyclotomic(g), ({0: ring.powers[1]}, 1))
    _refuse_ring_powers(monkeypatch, g,
                        [w.payload[0][0] for w in zeta(z).powers(g)])


def test_binomial_identity_refuses_powers_read_one_off(monkeypatch):
    # zeta^(i+1) in place of zeta^i: every power sum still vanishes, and
    # the list fails zeta^(g-1) * zeta = 1
    powers = tower.cyclotomic(12)._ring.powers
    _refuse_ring_powers(monkeypatch, 12, powers[1:] + powers[:1])


def _refuse_ring_powers(monkeypatch, g, powers):
    """_verify_binomial_identity(g) refuses the ring of Q(zeta_g) with
    `powers` in place of its zeta^i."""
    ring = tower.cyclotomic(g)._ring
    swapped = tower._Ring(g, ring.phi, powers, ring.units)
    monkeypatch.setattr(orbits, "cyclotomic",
                        lambda M: SimpleNamespace(_ring=swapped))
    orbits._verify_binomial_identity.cache_clear()
    try:
        with pytest.raises(VerificationError, match="g=%d" % g):
            orbits._verify_binomial_identity(g)
    finally:
        orbits._verify_binomial_identity.cache_clear()


# minimal_model evaluations of the a-table's cases: one per divisor of the
# period P, 12, 18 and 30 for E, n for an:<n>, 2(n-1) for dn:<n>
EVALUATIONS = {"e6": 6, "e7": 6, "e8": 8, "an:2": 2, "an:5": 2, "dn:4": 4,
               "dn:5": 4, "dn:6": 4, "dn:9": 5}


def test_minimal_model_is_built_once_per_divisor_of_the_period():
    catalog = build_catalog()
    orbits.minimal_model.cache_clear()
    for case, count in EVALUATIONS.items():
        before = orbits.minimal_model.cache_info().misses
        rationality_degree(case, catalog[case_surface(case)])
        assert orbits.minimal_model.cache_info().misses - before == count
    verdict_grid(catalog)
    assert orbits.minimal_model.cache_info().misses == 41
    with pytest.raises(ValueError, match="does not divide the period"):
        minimal_model("e6", 5, catalog["s6"])


def test_s6_intersections():
    rows = s6_intersections(build_surface("s6"))["rows"]
    # the three coordinate lines pairwise meet at (0:1:0:0)
    assert rows["alpha"] == {1: [-1, 1, 1]}
    # one orbit of L_mu over each root of C, c+ (j = 1) and c- (j = 5)
    assert list(rows["Lmu"]) == [1, 5]
    for row in rows["Lmu"].values():
        # order-2 and order-3 conjugates always meet
        assert row[6] and row[4] and row[8]
        # and some conjugate pairs are disjoint (negative control)
        assert not all(row[1:])


def _s6_line_matrix(report):
    """The 27 x 27 matrix of the S6 lines in the order of s6_common_lines,
    built from the full rows of the three first members of s6_intersections
    by xi-equivariance: xi^-a takes the pair (A_a, B_b) to (A_0, B_(b - a)),
    A_a the member a of the orbit of A, whose size is its row's length."""
    rows = [row for family in report["full_rows"].values()
            for row in family.values()]
    sizes = [len(row) for family in report["rows"].values()
             for row in family.values()]
    starts = [sum(sizes[:o]) for o in range(len(sizes))]
    lines = [(o, a) for o, h in enumerate(sizes) for a in range(h)]
    return [[rows[oa][starts[ob] + (b - a) % sizes[ob]] for ob, b in lines]
            for oa, a in lines]


def test_s6_full_rows_make_a_symmetric_line_graph():
    # the three full rows fix all 351 pairs: the matrix they give by
    # xi-equivariance is symmetric, has -1 on its diagonal and each line
    # meets ten others, 135 meeting pairs in all (the 27 lines of a cubic)
    report = s6_intersections(build_surface("s6"))
    assert {b: sorted(f) for b, f in report["full_rows"].items()} == {
        "alpha": [1], "Lmu": [1, 5]}
    matrix = _s6_line_matrix(report)
    assert all(matrix[a][b] == matrix[b][a]
               for a in range(27) for b in range(27))
    assert [matrix[a][a] for a in range(27)] == [-1] * 27
    assert [row.count(1) for row in matrix] == [10] * 27
    assert sum(map(sum, matrix)) == 2 * 135 - 27


@pytest.mark.parametrize("shifts", [
    pytest.param(({0: 1, 5: 1}, curves.S6_SHIFTS[1]), id="lambda-sigma5"),
    pytest.param(({0: 1, 2: 1}, curves.S6_SHIFTS[1]), id="lambda-zeta6"),
    pytest.param((curves.S6_SHIFTS[0], {0: 9, 1: -6, 11: -6}),
                 id="kappa-sigma5"),
    pytest.param((curves.S6_SHIFTS[0], {0: 3, 1: 2, 11: 2}),
                 id="kappa-third")])
def test_s6_shifts_with_the_wrong_power_are_refused(monkeypatch, shifts):
    # lambda^12 c+ = c- and kappa^3 c+ = 1 make mu' = lambda mu and alpha =
    # kappa mu^4 keep t = mu^12 / c+: a conjugate, or another element, whose
    # power misses is refused before any line is read
    monkeypatch.setattr(curves, "S6_SHIFTS", shifts)
    with pytest.raises(VerificationError, match="lambda\\^12 c\\+ != c-"):
        s6_intersections(build_surface("s6"))


@pytest.mark.parametrize("branch,j,k", [
    pytest.param("alpha", 1, 1, id="L123-1"),
    pytest.param("Lmu", 5, 6, id="5-6")])
def test_s6_full_rows_must_agree_with_the_exact_rows(monkeypatch, branch, j,
                                                     k):
    # the within-orbit entries of each full row are checked against the
    # orbit's exact row: an entry flipped there, in L1-L3 or in L_mu over
    # c-, is refused
    exact = family_rows(build_surface("s6"))
    rows = {b: {i: list(row) for i, row in family.items()}
            for b, family in exact["rows"].items()}
    rows[branch][j][k] = 1 - rows[branch][j][k]
    monkeypatch.setattr(orbits, "family_rows", lambda s6: dict(exact,
                                                               rows=rows))
    with pytest.raises(VerificationError, match="full row of %s over %d"
                       % (branch, j)):
        s6_intersections(build_surface("s6"))


# the root sigma_j(c+) of C of each former branch of L_mu
ROOT = {"plus": 1, "minus": 5}


def _lmu_forms(T, j):
    """The forms of L_mu over sigma_j(c+): sigma_j of those over c+."""
    return tuple(f.map_coeffs(lambda c: c.conjugate(j))
                 for f in s6_line_forms(T))


def _lmu_graph(forms, j):
    """The graph of the line cut by forms over sigma_j(c+), read off them
    and certified by curves._root_graph at t = mu^12 / sigma_j(c+)."""
    T, roots, _ = s6_line_tower()
    return _root_graph(build_surface("s6"), forms, {1: T.one()},
                       T.gen("mu") ** 12 / roots[j])["graph"]


@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_s6_witnesses_are_sigma_equivariant(branch):
    # sigma_k carries the pair (L_mu, L_{xi^(12-k) mu}) to (L_{xi^k mu},
    # L_mu): the row's entry k, which _row reads off entry 12 - k for
    # k > 6 and _root_rows off the row over c+ for c-, is meet_number of
    # L_mu and the line solved from the forms rotated by 12 - k
    j = ROOT[branch]
    T, _, _ = s6_line_tower()
    forms = _lmu_forms(T, j)
    line = _lmu_graph(forms, j)
    row = s6_intersections(build_surface("s6"))["rows"]["Lmu"][j]
    for k in range(1, 12):
        other = _lmu_graph(_rotated(forms, 12 - k), j)
        assert orbits.meet_number(line, other) == row[k] == row[12 - k], k
    assert any(row[7:])


def test_s6_pairs_refuse_a_t_that_sigma_moves(monkeypatch):
    # a t that sigma_1 moves is no longer mu^12 / c: L_mu leaves the
    # surface, and its rows are refused with it
    line_tower = curves.s6_line_tower

    def moved():
        T, roots, t = line_tower()
        return T, roots, t * T.gen("mu")
    monkeypatch.setattr(curves, "s6_line_tower", moved)
    s6 = build_surface("s6")
    caches = (certify_s6_lines, orbits._root_rows, family_rows)
    for fn in caches:
        fn.cache_clear()
    try:
        with pytest.raises(VerificationError, match="membership residue"):
            s6_intersections(s6)
    finally:
        for fn in caches:
            fn.cache_clear()


def test_rotated_s6_forms_substitute_xi_mu():
    # L_{xi mu}, xi = zeta12^k, is L_mu with xi mu in place of mu: both
    # forms are mu-linear combinations of W, X, Y, Z, with coefficients
    # c(mu) of degree 6, 3, 2 or 0 in mu, over each root of C
    T, roots, _ = s6_line_tower()
    z12 = tower.root_of_unity(T, 12)
    for j in roots:
        forms = _lmu_forms(T, j)
        for k in range(12):
            for f, g in zip(forms, _rotated(forms, k)):
                for e, c in f.terms.items():
                    (d, _), = c.payload[0].items()
                    assert g.terms[e] == c * z12 ** (k * d)


@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_rotated_graph_is_the_graph_of_the_rotated_forms(branch):
    # _row rotates the graph of L_mu instead of solving it again, and the
    # family over c- is sigma_5 of the one over c+: sigma_k of the graph is
    # the graph of sigma_k of the forms, and sigma_j of the graph over c+
    # is the graph of the forms over sigma_j(c+)
    j = ROOT[branch]
    T, _, _ = s6_line_tower()
    forms = _lmu_forms(T, j)
    y, z = _lmu_graph(forms, j)
    plus = certify_s6_lines(build_surface("s6"))[-1].data["graph"]
    assert [[c.conjugate(j) for c in cs] for cs in plus] == [y, z]
    for k in range(1, 12):
        assert [[c.rotate(k) for c in y], [c.rotate(k) for c in z]] == \
            list(_lmu_graph(_rotated(forms, k), j))


def test_proportional_forms_are_a_degenerate_line():
    # proportional forms cut no graph over P^1_(W:X), and a line is not
    # paired with itself
    T, t, lines = s6_alpha_lines()
    Z, s6 = lines[0][0], build_surface("s6")
    with pytest.raises(GeometryError, match="no graph"):
        _root_graph(s6, (Z, Z.scale(3)), {1: T.one()}, t)
    line = _root_graph(s6, lines[1], {1: T.one()}, t)["graph"]
    with pytest.raises(GeometryError, match="paired with itself"):
        orbits.meet_number(line, line)


def test_witnesses_stay_off_the_euclid_path(monkeypatch):
    # Laurent graphs invert only monomials: an inversion by the Galois
    # norm runs only for their irrational constant coefficients in
    # Q(zeta_M), never for a denominator
    calls = []
    inverse = tower._cyclotomic_inverse

    def counted(*args):
        calls.append(1)
        return inverse(*args)
    monkeypatch.setattr(tower, "_cyclotomic_inverse", counted)
    for fn in (certify_s6_lines, orbits._root_rows, family_rows,
               curves.enumerate_dn):
        fn.cache_clear()
    s6_intersections(build_surface("s6"))
    # 3 measured: 1 for t = mu^12 / c+ and 2 for the graph of L_mu over
    # c+, which sigma_k and sigma_5 carry to the other 23 (solving each of
    # the 24 graphs made 63, the kernel solves before the graphs 122, and
    # the extended Euclid before them 189, also for rational constants);
    # normalizing quotients by a gcd took 11707
    assert calls and len(calls) <= 5
    del calls[:]
    dn_intersections(build_surface("dn:9"))
    assert not calls


@pytest.mark.parametrize("order", [2, 3])
def test_s7_conjugation(order):
    assert s7_conjugation(build_surface("s7"), order)["verified"]


@pytest.mark.parametrize("order", [2, 3, 5])
def test_s8_conjugation(order):
    assert s8_conjugation(build_surface("s8"), order)["verified"]


def test_conjugation_without_a_witness_is_refused(monkeypatch):
    # a row without a meet at xi of order 2 (k = 9 on S7): the order-2
    # conjugates are not shown to meet, and the report is refused
    s7 = build_surface("s7")
    rows = orbits._root_rows(s7, "main")
    assert rows[1][9] == 2 and orbits.s7_conjugation(s7, 2)["meets"] == {
        9: 2}
    monkeypatch.setattr(orbits, "_root_rows", lambda s, b: {
        1: rows[1][:9] + [0] + rows[1][10:]})
    with pytest.raises(VerificationError, match="order 2 do not meet"):
        orbits.s7_conjugation.__wrapped__(s7, 2)
    assert orbits.s7_conjugation.__wrapped__(s7, 3)["meets"] == {6: 1, 12: 1}


@pytest.mark.parametrize("surface,branch", [("s6", "Lmu"), ("s7", "main"),
                                            ("s8", "P1"), ("s8", "P2")])
def test_conjugate_rows_are_the_representative_row_permuted(surface,
                                                             branch):
    # sigma_j carries the pair (C, C_k) over x to (sigma_j C, its curve at
    # j k) over sigma_j(x): the row of sigma_j(x), computed directly on the
    # conjugated graph, is the representative's row at k / j (the row of
    # L_mu over c- is the one over c+ read at 5 k)
    s = build_surface(surface)
    rows = orbits._root_rows(s, branch)
    family = curves.surface_families(s)[branch]
    h = len(rows[1])
    for j in rows:
        graph = [[c.conjugate(j) for c in cs] for cs in family.data["graph"]]
        assert orbits._row(graph, h) == rows[j], j


def test_s7_e0_pair_meets():
    # the curves Y = 0, Z = +-sqrt(t) W^2 meet at (0:1:0:0), twice: dY = 0
    # and dZ = 2 sqrt(t) W^2
    assert family_rows(build_surface("s7"))["rows"]["e0"] == {1: [-1, 2]}


@pytest.mark.parametrize("n", [4, 5, 9])
def test_dn_intersections(n):
    # the x = 0 pair meets at ((0:1:0), x = 0); mu meets -mu = mu_(N/2) at
    # ((1:0:0), mu^2) and no other conjugate, each over another fibre
    # x = xi^2 mu^2
    N = 2 * (n - 1)
    rows = dn_intersections(build_surface("dn:%d" % n))["rows"]
    assert rows == {"x0": {1: [-1, 1]},
                    "mu": {1: [-1] + [int(k == N // 2) for k in range(1, N)]}}


def _rows_read_off_the_representative(monkeypatch, s, branch):
    """The number of meet_number calls that make the rows of the family
    `branch` of s afresh, each of its representative graph against one of
    its rotations; the cached rows are the same."""
    rows, calls, meet = orbits._root_rows(s, branch), [], orbits.meet_number

    def counted(graph1, graph2):
        calls.append(graph1)
        return meet(graph1, graph2)
    monkeypatch.setattr(orbits, "meet_number", counted)
    assert orbits._root_rows.__wrapped__(s, branch) == rows
    graph = list(curves.surface_families(s)[branch].data["graph"])
    assert all(list(g) == graph for g in calls)
    return len(calls)


def test_dn_witnesses_each_mu_pair_once(monkeypatch):
    # dn:9, N = M = 16: a row is read off the representative graph against
    # its rotations sigma_k, k <= h/2, once for the x = 0 pair (r -> -r) and
    # for mu against mu_1..mu_8; the other members' rows are its rotations,
    # C.C_(h-k) = C.C_k
    dn9 = build_surface("dn:9")
    assert _rows_read_off_the_representative(monkeypatch, dn9, "x0") == 1
    assert _rows_read_off_the_representative(monkeypatch, dn9, "mu") == 8


def test_an_witnesses_fibre_0_once(monkeypatch):
    # an:5: the row of each fibre family is read off its representative
    # over x = alpha against x = zeta^k alpha, k = 1, 2; a rotation that
    # moves nothing pairs a curve with itself, and is refused
    an5 = build_surface("an:5")
    for branch in ("y0", "z0"):
        assert _rows_read_off_the_representative(monkeypatch, an5,
                                                 branch) == 2
    monkeypatch.setattr(tower.FieldElement, "rotate", lambda x, e: x)
    with pytest.raises(GeometryError, match="paired with itself"):
        orbits._root_rows.__wrapped__(an5, "y0")


@pytest.mark.parametrize("n", [2, 3, 5])
def test_an_contractible_orbit_disjoint(n):
    # the components of either family over distinct fibres x = zeta^k alpha
    # are disjoint, so the y = 0 orbit contracts
    rows = orbits.fibre_rows(build_surface("an:%d" % n), "y0", 0)["rows"]
    assert rows == {b: {1: [-1] + [0] * (n - 1)} for b in ("y0", "z0")}


def test_an_y0_row_with_a_meet_is_refused(monkeypatch, fresh_verdicts):
    # a y = 0 component that meets a conjugate leaves no disjoint orbit to
    # contract: the A_n rows and every A_n model are refused
    s, rows_of = build_surface("an:3"), orbits._root_rows
    monkeypatch.setattr(orbits, "_root_rows", lambda s, b: {
        1: [-1, 1, 1]} if b == "y0" else rows_of(s, b))
    with pytest.raises(VerificationError, match="y0 meets 2 of its "
                                                "conjugates, not 0"):
        orbits.fibre_rows(s, "y0", 0)
    for m in (1, 3):
        with pytest.raises(VerificationError, match="y0 meets 2"):
            _model("an:3", m, s)


@pytest.mark.parametrize("meets,fibres", [([5], [0, 6]), ([4], [5, 0]),
                                          ([4, 6], None)])
def test_a_mu_row_meeting_off_n_over_2_changes_the_dn_verdict(
        monkeypatch, fresh_verdicts, meets, fibres):
    # dn:6, N = 10: mu meets mu_5 = -mu alone, and the fibres split iff g
    # does not divide 5: no singular fibre at g = 2, 5 + 1 at g = 5.  A row
    # whose one meet is at k = 4 splits them iff g does not divide 4, which
    # turns both verdicts; a row with two meets is refused
    s, rows_of = build_surface("dn:6"), orbits._root_rows
    monkeypatch.setattr(orbits, "_root_rows", lambda s, b: {
        1: [-1] + [int(k in meets) for k in range(1, 10)]} if b == "mu"
        else rows_of(s, b))
    if fibres is None:
        with pytest.raises(VerificationError, match="mu meets 2 of its "
                                                    "conjugates, not 1"):
            _model("dn:6", 2, s)
        return
    models = [_model("dn:6", g, s) for g in (2, 5)]
    assert [d.singular_fibres for d in models] == fibres
    assert [orbits._rule(d, s)[0] for d in models] == [not f for f in fibres]


def test_period_is_the_lcm_of_the_row_lengths():
    # the lcm of the degrees N of the families' binomials X^N = c t: n on
    # A_n, 2(n - 1) on D_n, h on E
    catalog = build_catalog()
    formulas = {**{"an:%d" % n: n for n in range(2, 7)},
                **{"dn:%d" % n: 2 * (n - 1) for n in range(4, 10)},
                "e6": 12, "e7": 18, "e8": 30}
    assert {case: orbits._period(catalog[case_surface(case)])
            for case in formulas} == formulas


def test_invalid_case():
    with pytest.raises(ValueError):
        rationality_degree("e9", build_surface("s8"))
    with pytest.raises(ValueError):
        BaseExtension(0)
