"""Picard-lattice cross-checks: root systems, Coxeter numbers and
(-1)-class counts."""

from itertools import combinations_with_replacement, permutations

import pytest

from kleinfib import lattice
from kleinfib.base import VerificationError
from kleinfib.lattice import (PicardLattice, build_root_system,
                              coxeter_contraction, coxeter_cycles,
                              coxeter_number, minus_one_classes,
                              standard_root_system)


@pytest.mark.parametrize("r,label,roots,h", [
    (3, "A2+A1", 8, 6),
    (4, "A4", 20, 5),
    (5, "D5", 40, 8),
    (6, "E6", 72, 12),
    (7, "E7", 126, 18),
    (8, "E8", 240, 30),
])
def test_root_systems(r, label, roots, h):
    rs = build_root_system(r)
    assert rs.label == label
    assert len(rs.roots) == roots
    assert rs.coxeter_number == h


@pytest.mark.parametrize("r,count", [(6, 27), (7, 56), (8, 240)])
def test_minus_one_classes(r, count):
    classes = minus_one_classes(r)
    assert len(classes) == count
    # every class: v^2 = -1, -K.v = 1 (checked again here)
    for v in classes:
        d, ms = v[0], v[1:]
        assert d * d - sum(m * m for m in ms) == -1
        assert 3 * d - sum(ms) == 1


@pytest.mark.parametrize("label,h", [
    ("A2", 3), ("A5", 6), ("D4", 6), ("D9", 16),
    ("E6", 12), ("E7", 18), ("E8", 30),
])
def test_coxeter_two_ways(label, h):
    # coxeter_number computes the reflection-product order and cross-checks
    # the closed form; standard_root_system rebuilds the roots directly
    assert coxeter_number(label) == h
    rs = standard_root_system(label)
    assert len(rs.roots) == h * rs.rank
    assert rs.coxeter_number == h


def test_rank_out_of_range():
    with pytest.raises(Exception):
        build_root_system(9)


def _brute_force_classes(r):
    """Every (-1)-class (d; m_1..m_r), d in 0..6, m_i in -1..3, expanded
    from the weakly increasing solutions through set(permutations(...))."""
    classes = set()
    for d in range(7):
        for ms in combinations_with_replacement(range(-1, 4), r):
            if sum(ms) == 3 * d - 1 and sum(m * m for m in ms) == d * d + 1:
                classes.update((d,) + p for p in set(permutations(ms)))
    return sorted(classes)


@pytest.mark.parametrize("r", range(3, 9))
def test_minus_one_classes_match_brute_force(r):
    classes = minus_one_classes(r)
    assert classes == _brute_force_classes(r)
    if r >= 6:
        assert len(classes) == {6: 27, 7: 56, 8: 240}[r]


def _ambient_closure(simples, dot):
    """Root closure by reflecting ambient vectors with the lattice form:
    s_a(v) = v + (v.a) a for a^2 = -2."""
    roots, queue = set(simples), list(simples)
    while queue:
        v = queue.pop()
        for a in simples:
            c = dot(v, a)
            w = tuple(x + c * y for x, y in zip(v, a))
            if w not in roots:
                roots.add(w)
                queue.append(w)
    return roots


@pytest.mark.parametrize("label,roots,h", [
    ("A4", 20, 5), ("D5", 40, 8), ("E6", 72, 12), ("E7", 126, 18),
    ("E8", 240, 30),
])
def test_root_counts_and_coxeter_numbers(label, roots, h):
    for rs in (standard_root_system(label),
               build_root_system({"A4": 4, "D5": 5, "E6": 6, "E7": 7,
                                  "E8": 8}[label])):
        assert rs.label == label
        assert len(rs.roots) == roots
        assert rs.coxeter_number == h
        assert set(rs.roots) == _ambient_closure(rs.simple_roots, rs.dot)


ROOT_STRING_LABELS = (["A%d" % n for n in range(2, 9)]
                      + ["D%d" % n for n in range(4, 13)] + ["E6", "E7", "E8"])


@pytest.mark.parametrize("label", ROOT_STRING_LABELS)
def test_root_strings_give_the_reflection_closure(label):
    # the positive roots by root strings, with their negatives, are the
    # closure of the simple roots under the reflections
    rs = standard_root_system(label)
    roots = lattice._closure(rs.simple_roots, rs.cartan)
    assert roots == _ambient_closure(rs.simple_roots, rs.dot)
    assert len(roots) == rs.coxeter_number * rs.rank


@pytest.mark.parametrize("label", ROOT_STRING_LABELS)
def test_a_missed_root_fails_the_coxeter_check(monkeypatch, label):
    # one positive root and its negative left out: #roots / rank is no
    # longer the order of the product of the simple reflections
    rs = standard_root_system(label)
    closure = lattice._closure
    highest = max(rs.roots, key=lambda v: sum(abs(x) for x in v))

    def missing_one(simples, cartan):
        return closure(simples, cartan) - {highest,
                                           tuple(-x for x in highest)}
    monkeypatch.setattr(lattice, "_closure", missing_one)
    with pytest.raises(VerificationError, match="Coxeter number mismatch"):
        lattice._finish(label, rs.simple_roots, rs.dot)


@pytest.mark.parametrize("r,lengths", [
    (6, [12, 12, 3]), (7, [18, 18, 18, 2]), (8, [30] * 8)])
def test_coxeter_cycles(r, lengths):
    # c permutes the (-1)-classes in cycles from their least class, and the
    # stored meeting numbers are v.c^k v, symmetric in k -> -k
    cycles, traces = coxeter_cycles(r)
    assert [len(cycle) for cycle, _ in cycles] == lengths
    classes = [v for cycle, _ in cycles for v in cycle]
    assert sorted(classes) == minus_one_classes(r)
    for cycle, meets in cycles:
        assert cycle[0] == min(cycle) and meets[0] == -1
        v = cycle[0]
        assert [v[0] * w[0] - sum(a * b for a, b in zip(v[1:], w[1:]))
                for w in cycle] == list(meets)
        assert all(meets[k] == meets[-k] for k in range(1, len(cycle)))
    # c has order h on the lattice, and fixes K
    assert len(traces) == coxeter_number("E%d" % r) and traces[0] == r + 1


@pytest.mark.parametrize("r", [6, 7, 8])
def test_coxeter_traces_read_from_the_cycles(r):
    # the traces read from the (-1)-class cycles are those of c iterated
    # on e0..er in Picard coordinates
    rs = build_root_system(r)
    dot = PicardLattice(r + 1).dot

    def c(v):
        for a in reversed(rs.simple_roots):
            k = dot(v, a)
            v = tuple(x + k * y for x, y in zip(v, a))
        return v
    units = [tuple(int(i == j) for i in range(r + 1)) for j in range(r + 1)]
    images, traces = units, []
    for _ in range(rs.coxeter_number):
        traces.append(sum(v[i] for i, v in enumerate(images)))
        images = [c(v) for v in images]
    assert images == units          # c^h = 1
    assert coxeter_cycles(r)[1] == tuple(traces)


# K^2 of the end point and rho = rank Pic^<c^g> for each divisor g of h
CONTRACTIONS = {
    6: {1: (3, 1), 2: (3, 1), 3: (4, 3), 4: (3, 1), 6: (4, 3), 12: (9, 7)},
    7: {1: (2, 1), 2: (3, 2), 3: (2, 1), 6: (3, 2), 9: (2, 1), 18: (9, 8)},
    8: {g: (9, 9) if g == 30 else (1, 1)
        for g in (1, 2, 3, 5, 6, 10, 15, 30)}}


@pytest.mark.parametrize("r", sorted(CONTRACTIONS))
def test_coxeter_contraction(r):
    for g, (k2, rho) in CONTRACTIONS[r].items():
        got_k2, got_rho, contracted, kept = coxeter_contraction(r, g)
        assert (got_k2, got_rho) == (k2, rho), g
        # each contracted orbit raises K^2 by its size and lowers rho by 1;
        # the end point has Picard rank 1, or 2 for E6 at g = 3, 6
        assert got_rho - contracted == (2 if (r, g) in ((6, 3), (6, 6))
                                        else 1)
        if k2 <= 4:
            assert all(kept.values())


def test_contraction_runs_in_order_of_least_class():
    # the first <c^12>-orbits of E6 are e1..e6, so the pass ends at the
    # plane; the six classes contracted are pairwise orthogonal
    k2, rho, contracted, kept = coxeter_contraction(6, 12)
    assert (k2, contracted) == (9, 6)
    cycles = coxeter_cycles(6)[0]
    gone = sorted(cycles[n][0][i] for n, cycle in enumerate(cycles)
                  for i in range(len(cycle[0])) if (n, i) not in kept)
    assert gone == minus_one_classes(6)[:6]
    assert all(v[0] == 0 for v in gone)
