"""Picard-lattice and root-system combinatorics for the blown-up plane:
intersection form (1, -1, ..., -1), ADE root bases, Dynkin classification,
Coxeter numbers (computed two independent ways) and (-1)-class counts."""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd

from .multipoly import MultiPoly
from .curves import VerificationError


@dataclass(frozen=True)
class PicardLattice:
    """Z e0 + Z e1 + ... + Z er with e0^2 = 1, ei^2 = -1, mixed products 0."""
    rank: int                      # r + 1

    def dot(self, u, v):
        if len(u) != self.rank or len(v) != self.rank:
            raise ValueError("vector length mismatch")
        return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))

    def minus_k(self):
        """The anticanonical class 3 e0 - e1 - ... - er."""
        return (3,) + (-1,) * (self.rank - 1)


@dataclass
class RootSystem:
    label: str
    rank: int
    simple_roots: tuple
    roots: tuple
    cartan: tuple
    coxeter_number: int
    dot: object


def _reflect(v, alpha, dot):
    """s_alpha(v) = v - 2 (v.alpha)/(alpha.alpha) alpha; alpha^2 = -2."""
    c = dot(v, alpha)           # 2(v.alpha)/(alpha.alpha) = -(v.alpha)
    return tuple(x + c * a for x, a in zip(v, alpha))


def _closure(simples, dot):
    roots = set(simples)
    queue = list(simples)
    while queue:
        v = queue.pop()
        for a in simples:
            w = _reflect(v, a, dot)
            if w not in roots:
                roots.add(w)
                queue.append(w)
    return roots


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


def _coxeter_order(simples, dot, limit=100):
    """Order of the product of the simple reflections, acting on the span."""
    def cox(v):
        for a in simples:
            v = _reflect(v, a, dot)
        return v
    # act on the root span only: track images of the simple roots
    images = list(simples)
    for k in range(1, limit + 1):
        images = [cox(v) for v in images]
        if all(tuple(x) == tuple(y) for x, y in zip(images, simples)):
            return k
    raise VerificationError("Coxeter order exceeds %d" % limit)


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
    roots = _closure(simples, dot)
    for v in roots:
        if dot(v, v) != -2:
            raise VerificationError("root closure left the -2 sphere")
    # per irreducible component: h = (#roots)/(rank); globally the product
    # of all simple reflections has order lcm of the component h's
    total, lcm_h = 0, 1
    for comp in comps:
        sub = [simples[i] for i in comp]
        sub_roots = _closure(tuple(sub), dot)
        if not sub_roots <= roots:
            raise VerificationError("component roots escape the closure")
        if len(sub_roots) % len(comp):
            raise VerificationError("root count not divisible by the rank")
        hc = len(sub_roots) // len(comp)
        total += len(sub_roots)
        lcm_h = lcm_h * hc // gcd(lcm_h, hc)
    if total != len(roots):
        raise VerificationError("component root counts do not add up")
    h = _coxeter_order(simples, dot)
    if h != lcm_h:
        raise VerificationError(
            "Coxeter number mismatch: reflection order %d vs roots/rank %d"
            % (h, lcm_h))
    return RootSystem(found, n, simples, tuple(sorted(roots)), cartan, h, dot)


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
    classes = set()
    for sol in out:
        d, ms = sol[0], sol[1:]
        for p in set(permutations(ms)):
            classes.add((d,) + p)
    L = PicardLattice(r + 1)
    mk = L.minus_k()
    for v in classes:
        w = (v[0],) + tuple(-m for m in v[1:])
        if L.dot(w, w) != -1 or L.dot(w, mk) != 1:
            raise VerificationError("enumerated class fails the conditions")
    return sorted(classes)


# ---------------------------------------------------------------------------
# D_n boundary self-intersection

def dn_boundary_selfintersection(n: int) -> int:
    """(C_n)^2 = 3 - n, replayed from the divisor bookkeeping: with
    C.D = 2k+1-n, div(w x^{k-1}/y) = C - D + (k-1) F0 and C.F = 2,
        C^2 = C.D - (k-1) C.F = (2k+1-n) - 2(k-1) = 3 - n.
    The arithmetic identity is checked symbolically in k for both parities
    n = 2k and n = 2k+1."""
    if n < 4:
        raise ValueError("n must be >= 4")
    vs = ("k",)
    K = MultiPoly.var(vs, "k")
    one = MultiPoly.const(vs, Fraction(1))
    for parity in (0, 1):
        npoly = K.scale(Fraction(2)) + one.scale(Fraction(parity))
        cd = K.scale(Fraction(2)) + one - npoly          # 2k + 1 - n
        c2 = cd - (K - one).scale(Fraction(2))           # - (k-1) * C.F
        expected = one.scale(Fraction(3)) - npoly
        if not (c2 - expected).is_zero():
            raise VerificationError(
                "boundary self-intersection replay failed (parity %d)"
                % parity)
    return 3 - n
