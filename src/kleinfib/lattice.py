"""Picard-lattice and root-system combinatorics for the blown-up plane:
intersection form (1, -1, ..., -1), ADE root bases, Dynkin classification,
Coxeter numbers (computed two independent ways) and (-1)-class counts."""

from collections import namedtuple
from functools import lru_cache
from math import gcd
from operator import add, mul, neg

from .base import VerificationError


class PicardLattice(namedtuple("PicardLattice", "rank")):
    """Z e0 + Z e1 + ... + Z er with e0^2 = 1, ei^2 = -1, mixed products 0;
    rank is r + 1."""
    __slots__ = ()

    def dot(self, u, v):
        if len(u) != self.rank or len(v) != self.rank:
            raise ValueError("vector length mismatch")
        return u[0] * v[0] - sum(map(mul, u[1:], v[1:]))

    def minus_k(self):
        """The anticanonical class 3 e0 - e1 - ... - er."""
        return (3,) + (-1,) * (self.rank - 1)


RootSystem = namedtuple("RootSystem", "label rank simple_roots roots cartan "
                                      "coxeter_number dot")  # cached, shared


def _unit_vectors(n):
    return [tuple(int(i == j) for i in range(n)) for j in range(n)]


def _closure(simples, cartan):
    """The roots spanned by `simples`: the positive ones by root strings
    from the simple roots (simply laced: v + alpha_j is a root iff
    <v, alpha_j^vee> < 0, for a positive root v != alpha_j), each kept with
    its pairings <v, alpha_i^vee>, which alpha_j's Cartan row raises; then
    their negatives."""
    level = dict(zip(simples, cartan))
    roots = set(level)
    while level:
        up = {}
        for v, pairs in level.items():
            for j, c in enumerate(pairs):
                if c < 0:
                    up[tuple(map(add, v, simples[j]))] = tuple(
                        map(add, pairs, cartan[j]))
        roots.update(up)
        level = up
    return roots | {tuple(-x for x in v) for v in roots}


def _components(adj, n):
    seen, comps = set(), []
    for s in range(n):
        if s in seen:
            continue
        comp, stack = [], [s]
        seen.add(s)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if adj[i][j] and j not in seen:
                    seen.add(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps

def _classify_component(adj, comp):
    degs = {i: sum(1 for j in comp if adj[i][j]) for i in comp}
    n = len(comp)
    if any(d > 3 for d in degs.values()):
        raise VerificationError("diagram has a node of degree > 3")
    branch = [i for i in comp if degs[i] == 3]
    if not branch:
        return "A%d" % n
    if len(branch) > 1:
        raise VerificationError("diagram has several branch nodes")
    # arm lengths from the branch node
    b = branch[0]
    arms = []
    for start in (j for j in comp if adj[b][j]):
        length, prev, cur = 1, b, start
        while True:
            nxt = [j for j in comp if adj[cur][j] and j != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] != 1:
        raise VerificationError("unrecognized diagram")
    if arms[1] == 1:
        return "D%d" % n
    if arms[1] == 2 and arms[2] in (2, 3, 4):
        return "E%d" % n
    raise VerificationError("unrecognized diagram")


def _coxeter_order(cartan):
    """Order of the product of the simple reflections, acting on the span:
    track the images of the simple roots, in simple-root coordinates, for
    at most 100 steps.  s_j moves only coordinate j, by <v, alpha_j^vee>:
    as the Cartan matrix is simply laced (_finish), it sets it to the sum
    over j's neighbours in the diagram minus itself.  coords[j] holds
    coordinate j of every image."""
    nbrs = [[i for i, a in enumerate(row) if a and i != j]
            for j, row in enumerate(cartan)]
    simples = [list(v) for v in _unit_vectors(len(cartan))]
    coords = list(simples)
    for k in range(1, 101):
        for j, nb in enumerate(nbrs):
            coords[j] = [sum(c) for c in zip(*[coords[i] for i in nb],
                                             map(neg, coords[j]))]
        if coords == simples:
            return k
    raise VerificationError("Coxeter order exceeds 100")


def _finish(label, simples, dot):
    simples = tuple(tuple(v) for v in simples)
    for a in simples:
        if dot(a, a) != -2:
            raise VerificationError("simple root with self-intersection != -2")
    n = len(simples)
    cartan = tuple(tuple(-dot(simples[i], simples[j]) for j in range(n))
                   for i in range(n))
    for i in range(n):
        for j in range(n):
            if i != j and cartan[i][j] not in (0, -1):
                raise VerificationError("not a simply-laced Cartan matrix")
    adj = [[1 if i != j and cartan[i][j] == -1 else 0 for j in range(n)]
           for i in range(n)]
    comps = _components(adj, n)
    labels = sorted((_classify_component(adj, c) for c in comps),
                    reverse=True)
    found = "+".join(labels)
    if label is not None and found != label:
        raise VerificationError("diagram classifies as %s, expected %s"
                                % (found, label))
    roots = _closure(simples, cartan)
    for v in roots:
        if dot(v, v) != -2:
            raise VerificationError("root closure left the -2 sphere")
    # per irreducible component: h = (#roots)/(rank); globally the product
    # of all simple reflections has order lcm of the component h's
    total, lcm_h = 0, 1
    for comp in comps:
        # an irreducible diagram is its own one component
        sub_roots = roots if len(comps) == 1 else \
            _closure([simples[i] for i in comp],
                     [[cartan[i][j] for j in comp] for i in comp])
        if not sub_roots <= roots:
            raise VerificationError("component roots escape the closure")
        if len(sub_roots) % len(comp):
            raise VerificationError("Coxeter number mismatch: %d roots on "
                                    "rank %d" % (len(sub_roots), len(comp)))
        hc = len(sub_roots) // len(comp)
        total += len(sub_roots)
        lcm_h = lcm_h * hc // gcd(lcm_h, hc)
    if total != len(roots):
        raise VerificationError("component root counts do not add up")
    h = _coxeter_order(cartan)
    if h != lcm_h:
        raise VerificationError(
            "Coxeter number mismatch: reflection order %d vs roots/rank %d"
            % (h, lcm_h))
    return RootSystem(found, n, simples, tuple(sorted(roots)), cartan, h, dot)


@lru_cache(maxsize=None)
def build_root_system(r: int) -> RootSystem:
    """Simple roots e0-e1-e2-e3, e1-e2, ..., e_{r-1}-e_r in the Picard
    lattice of the plane blown up in r points; type E6/E7/E8 for r=6,7,8."""
    if not 3 <= r <= 8:
        raise ValueError("r must be in 3..8")
    L = PicardLattice(r + 1)
    alpha0 = (1, -1, -1, -1) + (0,) * (r - 3)
    simples = [alpha0]
    for i in range(1, r):
        v = [0] * (r + 1)
        v[i], v[i + 1] = 1, -1
        simples.append(tuple(v))
    label = {3: "A2+A1", 4: "A4", 5: "D5", 6: "E6", 7: "E7", 8: "E8"}[r]
    return _finish(label, simples, L.dot)


def standard_root_system(label: str) -> RootSystem:
    """A_n / D_n / E_n in an orthogonal basis with ei^2 = -1 (so that all
    roots square to -2, matching the Picard convention)."""
    kind, n = label[0], int(label[1:])
    dot = lambda u, v: -sum(a * b for a, b in zip(u, v))
    if kind == "A":
        dim = n + 1
        simples = []
        for i in range(n):
            v = [0] * dim
            v[i], v[i + 1] = 1, -1
            simples.append(tuple(v))
    elif kind == "D":
        if n < 4:
            raise ValueError("D_n needs n >= 4")
        dim = n
        simples = []
        for i in range(n - 1):
            v = [0] * dim
            v[i], v[i + 1] = 1, -1
            simples.append(tuple(v))
        v = [0] * dim
        v[n - 2], v[n - 1] = 1, 1
        simples.append(tuple(v))
    elif kind == "E" and n in (6, 7, 8):
        return build_root_system(n)
    else:
        raise ValueError("unknown label %r" % label)
    return _finish(label, simples, dot)


@lru_cache(maxsize=None)
def coxeter_number(label: str) -> int:
    """h by reflection-product order, cross-checked against roots/rank
    inside _finish; A_n -> n+1, D_n -> 2(n-1), E6/E7/E8 -> 12/18/30."""
    rs = standard_root_system(label)
    kind, n = label[0], int(label[1:])
    expected = {"A": n + 1, "D": 2 * (n - 1),
                "E": {6: 12, 7: 18, 8: 30}.get(n)}[kind]
    if expected is not None and rs.coxeter_number != expected:
        raise VerificationError("Coxeter number of %s is %d, expected %d"
                                % (label, rs.coxeter_number, expected))
    return rs.coxeter_number


# ---------------------------------------------------------------------------
# (-1)-classes

@lru_cache(maxsize=None)
def minus_one_classes(r: int):
    """All v = d e0 - sum m_i e_i with v^2 = -1 and -K.v = 1 in the Picard
    lattice of the plane blown up in r points, by exhaustive search over
    d in 0..6, m_i in -1..3."""
    if not 3 <= r <= 8:
        raise ValueError("r must be in 3..8")
    out = []
    for d in range(0, 7):
        s_target = 3 * d - 1          # sum m_i
        q_target = d * d + 1          # sum m_i^2
        def rec(i, s, q, ms):
            if q > q_target or s + 3 * (r - i) < s_target \
                    or s - (r - i) > s_target:
                return
            if i == r:
                if s == s_target and q == q_target:
                    out.append((d,) + tuple(ms))
                return
            lo = ms[-1] if ms else -1   # weakly increasing: count classes
            for m in range(max(lo, -1), 4):
                rec(i + 1, s + m, q + m * m, ms + [m])
        rec(0, 0, 0, [])
    # expand multiset solutions to ordered tuples
    classes = [(sol[0],) + p for sol in out
               for p in _distinct_permutations(sol[1:])]
    L = PicardLattice(r + 1)
    mk = L.minus_k()
    for v in classes:
        w = (v[0],) + tuple(-m for m in v[1:])
        if L.dot(w, w) != -1 or L.dot(w, mk) != 1:
            raise VerificationError("enumerated class fails the conditions")
    return sorted(classes)


def _distinct_permutations(ms):
    """Every distinct ordering of the weakly increasing tuple ms, each once,
    in lexicographic order (Knuth, TAOCP 7.2.1.2, Algorithm L)."""
    a = list(ms)
    n = len(a)
    while True:
        yield tuple(a)
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


# ---------------------------------------------------------------------------
# the Coxeter element on the (-1)-classes

@lru_cache(maxsize=None)
def coxeter_cycles(r: int) -> tuple:
    """The cycles (v, cv, ...) of c = s_0...s_{r-1}, s(v) = v + (v.alpha)alpha,
    on minus_one_classes(r), each from its least class v with its meeting
    numbers v.c^k v; and the traces of c^0..c^(h-1), read from the cycles:
    e1..er are (-1)-classes and e0 = (e0 - e1 - e2) + e1 + e2.  alpha is kept
    as its nonzero (i, stored entry, Picard entry a_i): v.alpha = sum v_i a_i;
    a class is stored as (d, m_1..m_r), d e0 - sum m_i e_i."""
    alphas = [[(i, -x if i else x, x) for i, x in enumerate(a) if x]
              for a in reversed(build_root_system(r).simple_roots)]
    def c(v):
        v = list(v)
        for a in alphas:
            k = sum(v[i] * x for i, _, x in a)
            for i, x, _ in a if k else ():
                v[i] += k * x
        return tuple(v)
    seen, cycles, dot = set(), [], PicardLattice(r + 1).dot
    for v in minus_one_classes(r):
        if v not in seen:
            cycle, w = [v], c(v)
            while w != v:
                cycle, w = cycle + [w], c(w)
            seen.update(cycle)
            cycles.append((tuple(cycle), tuple(dot(v, w) for w in cycle)))
    if len(seen) != len(minus_one_classes(r)):
        raise VerificationError("c leaves the (-1)-classes")
    where = {v: (cycle, p) for cycle, _ in cycles for p, v in enumerate(cycle)}
    def power(v, k):                    # c^k v, read from the cycle of v
        cycle, p = where[v]
        return cycle[(p + k) % len(cycle)]
    # tr c^k: the e0-coefficient d of c^k e0, e0 = (e0 - e1 - e2) + e1 + e2,
    # plus the e_i-coefficient -m_i of each c^k e_i, e_i stored as m_i = -1
    units = [tuple(-int(i == j) for i in range(r + 1)) for j in range(1, r + 1)]
    e0 = ((1, 1, 1) + (0,) * (r - 2), units[0], units[1])
    traces = tuple(sum(power(v, k)[0] for v in e0)
                   - sum(power(v, k)[i] for i, v in enumerate(units, 1))
                   for k in range(build_root_system(r).coxeter_number))
    return tuple(cycles), traces


@lru_cache(maxsize=None)
def coxeter_contraction(r: int, g: int) -> tuple:
    """One pass over the <c^g>-orbits of (-1)-classes by least class,
    contracting each orbit pairwise disjoint and orthogonal to all before.
    Returns K^2, rho = rank Pic^<c^g> (the mean trace of c^(gj)), the number
    of contracted orbits, and per kept orbit (cycle index, first index) the
    k that keep it: v.c^k v != 0, c^k v in the orbit or contracted before."""
    cycles, traces = coxeter_cycles(r)
    orbits = sorted((min(cycle[i::gcd(g, len(cycle))]), n, i)
                    for n, (cycle, _) in enumerate(cycles)
                    for i in range(gcd(g, len(cycle))))
    contracted, gone, kept, dot = [], {}, {}, PicardLattice(r + 1).dot
    for _, n, i in orbits:
        cycle, meets = cycles[n]
        size, step = len(cycle), gcd(g, len(cycle))
        # the k to test: 0 mod step (within the orbit), and j - i mod step
        # (onto each orbit j of this cycle contracted before)
        starts = [step] + [(j - i) % step for j in gone.get(n, ())]
        keep = tuple(sorted(k for s in starts for k in range(s, size, step)
                            if meets[k]))
        if keep or any(dot(v, w) for v in cycle[i::step] for w in contracted):
            kept[n, i] = keep
        else:
            contracted += cycle[i::step]
            gone.setdefault(n, []).append(i)
    rho = sum(traces[::g]) * g // len(traces)
    return 9 - r + len(contracted), rho, len(orbits) - len(kept), kept
