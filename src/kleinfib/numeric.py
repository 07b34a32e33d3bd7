"""Independent floating-point oracle: specializes t, finds complex roots of
the residual polynomials (Durand-Kerner on a geometrically rescaled monic
polynomial), reconstructs every curve numerically and cross-checks counts,
membership residues and the S6 line-intersection graph against the exact
engine."""

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .multipoly import MultiPoly
from .tower import FieldElement
from .univariate import (degree, derivative, poly_gcd, count_real_roots)
from .curves import (VerificationError, q_cubic, q1_quartic, q2_quartic,
                     s6_alpha_lines, s6_line_tower, s6_line_forms)
from .geometry import build_surface
from .orbits import _s7_main_data, _s8_branch_data, s6_intersections


@dataclass
class NumericConfig:
    t: Fraction = Fraction(2)
    tol: float = 1e-8
    max_iter: int = 2000
    seed: int = 0

    def __post_init__(self):
        self.t = Fraction(self.t)
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


# ---------------------------------------------------------------------------
# root finding

def durand_kerner(coeffs, cfg: NumericConfig):
    """All complex roots of sum(coeffs[k] X^k).  The polynomial is made
    monic and the variable rescaled X = sigma X' with log(sigma) the mean
    of log|a_k/a_n|/(n-k) over the nonzero coefficients, so Durand-Kerner
    iterates on a balanced polynomial."""
    cs = [complex(c) for c in coeffs]
    while cs and abs(cs[-1]) == 0:
        cs.pop()
    n = len(cs) - 1
    if n < 1:
        raise ValueError("polynomial must be nonconstant")
    an = cs[-1]
    logs = [math.log(abs(cs[k] / an)) / (n - k)
            for k in range(n) if abs(cs[k]) > 0]
    sigma = math.exp(sum(logs) / len(logs)) if logs else 1.0
    b = [cs[k] / an * sigma ** (k - n) for k in range(n + 1)]
    rng = random.Random(cfg.seed)
    seed_angle = rng.uniform(0, 2 * math.pi)
    z = [cmath.exp(1j * (seed_angle + 2 * math.pi * k / n)) * (1.3 + 0.01 * k)
         for k in range(n)]

    def ev(x):
        v = 0j
        for c in reversed(b):
            v = v * x + c
        return v

    for _ in range(cfg.max_iter):
        moved = 0.0
        for k in range(n):
            num = ev(z[k])
            den = 1 + 0j
            for j in range(n):
                if j != k:
                    den *= z[k] - z[j]
            dz = num / den
            z[k] -= dz
            moved = max(moved, abs(dz) / (1 + abs(z[k])))
        if moved < 1e-14:
            break
    else:
        raise VerificationError("root finder did not converge")
    return [w * sigma for w in z]


def _poly_scale_at(coeffs, x):
    return sum(abs(complex(c)) * abs(x) ** k for k, c in enumerate(coeffs))


def numeric_roots(coeffs, cfg: NumericConfig):
    """Roots with certification: residual below tol relative to the
    coefficient 1-norm evaluated at the root, and pairwise separation."""
    roots = durand_kerner(coeffs, cfg)
    cs = [complex(c) for c in coeffs]
    for z in roots:
        val = 0j
        for c in reversed(cs):
            val = val * z + c
        if abs(val) > cfg.tol * (1 + _poly_scale_at(cs, z)):
            raise VerificationError("root residual %.3g exceeds tolerance"
                                    % abs(val))
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < 1e-8 * (1 + abs(roots[i])
                                                  + abs(roots[j])):
                raise VerificationError("roots are not separated")
    return roots


# ---------------------------------------------------------------------------
# specialization safety

def check_specialization(t: Fraction) -> dict:
    """The residual polynomials stay squarefree at t.  The high-degree
    residuals are compositions g(e^N) of the displayed low-degree
    polynomials with a binomial; such a composition is squarefree iff g is
    squarefree and g(0) != 0, which is checked exactly."""
    if t == 0:
        raise VerificationError("t = 0 lies on every discriminant locus")
    report = {"t": str(t), "squarefree": {}}
    for label, q in (("Q", q_cubic()), ("Q1", q1_quartic()),
                     ("Q2", q2_quartic())):
        g = poly_gcd(q, derivative(q))
        if degree(g) != 0:
            raise VerificationError("%s is not squarefree" % label)
        if q[0] == 0:
            raise VerificationError("%s vanishes at 0" % label)
        report["squarefree"][label] = True
    # S7: core(e) = t^3 Q(e^18 / t); S8: F_i proportional to q_i(-mu^30 t)
    # binomial radicands c t must not vanish
    for branch in ("plus", "minus"):
        _, c = s6_line_tower(branch)
        if c.is_zero():
            raise VerificationError("S6 radicand vanishes")
    report["squarefree"]["core_S7"] = True
    report["squarefree"]["F1_F2_S8"] = True
    return report


# ---------------------------------------------------------------------------
# numeric evaluation helpers

def _cx(c, cenv):
    if isinstance(c, FieldElement):
        return c.as_complex(cenv)
    return complex(c)


def eval_with_scale(p: MultiPoly, env: dict, cenv=None):
    val, scale = 0j, 0.0
    cenv = cenv or {}
    for e, c in p.terms.items():
        mon = 1 + 0j
        for v, k in zip(p.vars, e):
            if k:
                mon *= env[v] ** k
        cc = _cx(c, cenv)
        val += cc * mon
        scale += abs(cc) * abs(mon)
    return val, max(scale, 1e-300)


def _rel_residue(p, env, cenv=None):
    val, scale = eval_with_scale(p, env, cenv)
    return abs(val) / scale


def _fracpair(pair, env):
    num, _ = eval_with_scale(pair[0], env)
    den, _ = eval_with_scale(pair[1], env)
    return num / den


def _poly_roots_at(p: MultiPoly, var: str, env, cfg):
    """Roots in `var` of a multivariate polynomial at a numeric
    specialization of the remaining variables."""
    cs = [eval_with_scale(p.coeff_of(var, k), env)[0]
          for k in range(p.degree(var) + 1)]
    return durand_kerner(cs, cfg)


def _sample_wx(rng, k=5):
    return [(cmath.exp(2j * math.pi * rng.random()),
             cmath.exp(2j * math.pi * rng.random()) * (0.5 + rng.random()))
            for _ in range(k)]


# ---------------------------------------------------------------------------
# per-surface audits

def _s6_numeric_lines(cfg):
    """27 lines as numeric 2x4 coefficient matrices, tagged."""
    tval = float(cfg.t)
    lines = []
    base_env = {"i": 1j, "sqrt3": math.sqrt(3.0), "t": tval}
    for j, forms in enumerate(s6_alpha_lines()[1]):
        env = dict(base_env, alpha=tval ** (1.0 / 3.0))
        lines.append(("L123", j, _form_matrix(forms, env)))
    for branch in ("plus", "minus"):
        T, c = s6_line_tower(branch)
        cval = c.as_complex(base_env)
        mu0 = (cval * tval) ** (1.0 / 12.0)
        forms = s6_line_forms(T, branch)
        for j in range(12):
            mu = mu0 * cmath.exp(2j * math.pi * j / 12.0)
            env = dict(base_env, mu=mu)
            lines.append((branch, j, _form_matrix(forms, env)))
    return lines


def _form_matrix(forms, cenv):
    rows = []
    for f in forms:
        row = [0j] * 4
        for e, c in f.terms.items():
            row[list(e).index(1)] = _cx(c, cenv)
        rows.append(row)
    return np.array(rows)


def _null_basis(mat, keep=2):
    _, s, vh = np.linalg.svd(mat)
    return vh[-keep:].conj()


def numeric_audit_s6(cfg: NumericConfig) -> dict:
    s6 = build_surface("s6")
    cenv = {"i": 1j, "sqrt3": math.sqrt(3.0)}
    tval = float(cfg.t)
    rng = random.Random(cfg.seed)
    lines = _s6_numeric_lines(cfg)
    max_res = 0.0
    for _, _, mat in lines:
        basis = _null_basis(mat)
        for _ in range(5):
            a = rng.random() + 1j * rng.random()
            p = basis[0] * a + basis[1]
            env = dict(zip(("W", "X", "Y", "Z"), p))
            env["t"] = tval
            r = _rel_residue(s6.equation, env, cenv)
            max_res = max(max_res, r)
            if r > cfg.tol:
                raise VerificationError("S6 membership residue %.3g" % r)
    # intersection graph
    n = len(lines)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            stacked = np.vstack([lines[i][2], lines[j][2]])
            sv = np.linalg.svd(stacked, compute_uv=False)
            adj[i, j] = adj[j, i] = sv[-1] < 1e-8 * sv[0]
    degrees = adj.sum(axis=1)
    if not all(d == 10 for d in degrees):
        raise VerificationError("S6 line degrees are not all 10: %s"
                                % sorted(set(int(d) for d in degrees)))
    # agreement with the exact same-branch pattern
    exact = s6_intersections()
    idx = {(b, j): k for k, (b, j, _) in enumerate(lines)}
    for entry in exact["pairs"]:
        if entry["pair"] != "Lmu/Lximu":
            continue
        b, k = entry["branch"], entry["k"]
        for j in range(12):
            got = bool(adj[idx[(b, j)], idx[(b, (j + k) % 12)]])
            if got != entry["intersect"]:
                raise VerificationError(
                    "exact/numeric disagreement: branch %s, k=%d" % (b, k))
    for j1 in range(3):
        for j2 in range(j1 + 1, 3):
            if not adj[idx[("L123", j1)], idx[("L123", j2)]]:
                raise VerificationError("L%d/L%d numeric miss" % (j1, j2))
    return {"surface": "s6", "count": n, "max_residue": float(max_res),
            "degrees": [int(d) for d in degrees],
            "graph_checked": True}


def numeric_audit_s7(cfg: NumericConfig) -> dict:
    s7 = build_surface("s7")
    _, core, main = _s7_main_data()
    pairs = main.data["coeff_pairs"]
    tval = float(cfg.t)
    rng = random.Random(cfg.seed)
    # core(e) = t^3 Q(e^18 / t): 54 roots from the 3 roots of Q
    u_roots = numeric_roots(q_cubic(), cfg)
    e_roots = []
    for u in u_roots:
        r0 = (u * tval) ** (1.0 / 18.0)
        e_roots += [r0 * cmath.exp(2j * math.pi * k / 18.0)
                    for k in range(18)]
    count, max_res = 0, 0.0
    for e in e_roots:
        env = {"e": e, "t": tval}
        env["d"] = _fracpair(pairs["d"], env)
        coeff = {n: _fracpair(pairs[n], env) for n in ("a", "b", "c", "d")}
        for Wv, Xv in _sample_wx(rng):
            Yv = coeff["a"] * Wv + coeff["b"] * Xv
            Zv = coeff["c"] * Wv ** 2 + coeff["d"] * Wv * Xv + e * Xv ** 2
            penv = {"W": Wv, "X": Xv, "Y": Yv, "Z": Zv, "t": tval}
            r = _rel_residue(s7.equation, penv)
            max_res = max(max_res, r)
            if r > cfg.tol:
                raise VerificationError("S7 residue %.3g at root" % r)
        count += 1
    # the two e=0 curves: Y = 0, Z = +- sqrt(t) W^2
    for sgn in (1, -1):
        rt = sgn * math.sqrt(tval)
        for Wv, Xv in _sample_wx(rng):
            penv = {"W": Wv, "X": Xv, "Y": 0j, "Z": rt * Wv ** 2,
                    "t": tval}
            r = _rel_residue(s7.equation, penv)
            max_res = max(max_res, r)
            if r > cfg.tol:
                raise VerificationError("S7 e=0 residue %.3g" % r)
        count += 1
    if count != 56:
        raise VerificationError("S7 numeric count %d != 56" % count)
    return {"surface": "s7", "count": count, "max_residue": max_res}


def numeric_audit_s8(cfg: NumericConfig) -> dict:
    s8 = build_surface("s8")
    _, mains = _s8_branch_data()
    tval = float(cfg.t)
    rng = random.Random(cfg.seed)
    count, max_res = 0, 0.0
    for branch, quartic in (("P1", q1_quartic()), ("P2", q2_quartic())):
        main = mains[branch]
        pairs = main.data["coeff_pairs"]
        Pi = main.data["branch_quartic"]
        x_roots = numeric_roots(quartic, cfg)
        for x in x_roots:
            m0 = (-x / tval) ** (1.0 / 30.0)      # F_i ~ q_i(-mu^30 t)
            for k in range(30):
                mu = m0 * cmath.exp(2j * math.pi * k / 30.0)
                env = {"mu": mu, "t": tval}
                # the certified b-fraction cancels catastrophically in
                # doubles; instead, of the four b-roots of the branch
                # quartic exactly one continues to a curve on the surface
                passing = []
                for b in _poly_roots_at(Pi, "b", env, cfg):
                    e2 = dict(env, b=b)
                    e2["f"] = _fracpair(pairs["f"], e2)
                    e2["a"] = _fracpair(pairs["a"], e2)
                    ev = _fracpair(pairs["e"], e2)
                    dv = _fracpair(pairs["d"], e2)
                    worst = 0.0
                    for Wv, Xv in _sample_wx(rng, 5):
                        Yv = (e2["a"] * Wv ** 2 + b * Wv * Xv
                              - mu ** 2 * Xv ** 2)
                        Zv = (dv * Wv ** 3 + ev * Wv ** 2 * Xv
                              + e2["f"] * Wv * Xv ** 2 - mu ** 3 * Xv ** 3)
                        penv = {"W": Wv, "X": Xv, "Y": Yv, "Z": Zv,
                                "t": tval}
                        worst = max(worst, _rel_residue(s8.equation, penv))
                    if worst < cfg.tol:
                        passing.append(worst)
                if len(passing) != 1:
                    raise VerificationError(
                        "S8 branch %s: %d of 4 b-roots on the surface"
                        % (branch, len(passing)))
                max_res = max(max_res, passing[0])
                count += 1
    if count != 240:
        raise VerificationError("S8 numeric count %d != 240" % count)
    return {"surface": "s8", "count": count, "max_residue": max_res}


def numeric_audit_conic(name: str, cfg: NumericConfig) -> dict:
    """A_n / D_n fibre components at the specialization."""
    kind, n = name.split(":")
    n = int(n)
    s = build_surface(name)
    tval = float(cfg.t)
    rng = random.Random(cfg.seed)
    count, max_res = 0, 0.0
    if kind == "an":
        roots = [tval ** (1.0 / n) * cmath.exp(2j * math.pi * j / n)
                 for j in range(n)]
        for r0 in roots:
            for zero_var in ("y", "z"):
                for _ in range(5):
                    free = rng.random() + 1j * rng.random()
                    env = {"w": 1 + 0j, "y": 0j, "z": 0j, "x": r0,
                           "t": tval}
                    env["z" if zero_var == "y" else "y"] = free
                    r = _rel_residue(s.equations[0], env)
                    max_res = max(max_res, r)
                    if r > cfg.tol:
                        raise VerificationError("A_n residue %.3g" % r)
                count += 1
        expected = 2 * n
    else:
        N = 2 * (n - 1)
        rt = math.sqrt(tval)
        for sgn in (1, -1):
            for _ in range(5):
                y = rng.random() + 1j * rng.random()
                env = {"w": 1 + 0j, "y": y, "z": sgn * rt, "x": 0j,
                       "t": tval}
                r = _rel_residue(s.equations[0], env)
                max_res = max(max_res, r)
                if r > cfg.tol:
                    raise VerificationError("D_n x=0 residue %.3g" % r)
            count += 1
        mu0 = tval ** (1.0 / N)
        for j in range(N):
            mu = mu0 * cmath.exp(2j * math.pi * j / N)
            for _ in range(5):
                y = rng.random() + 1j * rng.random()
                env = {"w": 1 + 0j, "y": y, "z": 1j * y * mu, "x": mu ** 2,
                       "t": tval}
                r = _rel_residue(s.equations[0], env)
                max_res = max(max_res, r)
                if r > cfg.tol:
                    raise VerificationError("D_n mu residue %.3g" % r)
            count += 1
        expected = 2 + N
    if count != expected:
        raise VerificationError("%s numeric count %d != %d"
                                % (name, count, expected))
    return {"surface": name, "count": count, "max_residue": max_res}


def sturm_vs_numeric(cfg: NumericConfig) -> dict:
    """Exact Sturm real-root counts vs numeric counts for Q, Q1, Q2."""
    out = {}
    for label, q, expected in (("Q", q_cubic(), 3),
                               ("Q1", q1_quartic(), 4),
                               ("Q2", q2_quartic(), 4)):
        exact = count_real_roots(q)
        roots = numeric_roots(q, cfg)
        numeric = sum(1 for z in roots
                      if abs(z.imag) < cfg.tol * (1 + abs(z)))
        if exact != expected or numeric != exact:
            raise VerificationError(
                "%s: Sturm %d, numeric %d, expected %d"
                % (label, exact, numeric, expected))
        out[label] = {"sturm": exact, "numeric": numeric}
    return out


def numeric_curve_audit(surface: str, cfg: NumericConfig = None) -> dict:
    cfg = cfg or NumericConfig()
    check_specialization(cfg.t)
    if surface == "s6":
        return numeric_audit_s6(cfg)
    if surface == "s7":
        return numeric_audit_s7(cfg)
    if surface == "s8":
        return numeric_audit_s8(cfg)
    if surface.startswith(("an:", "dn:")):
        return numeric_audit_conic(surface, cfg)
    raise ValueError("no numeric audit for %r" % surface)


def full_audit(t_values=(2, 3, 5), tol=1e-8, seed=0) -> dict:
    """The oracle section of the reproduction run: counts, residues and
    graphs at several specializations."""
    report = {"t_values": list(t_values), "surfaces": {}, "sturm": None}
    for t in t_values:
        cfg = NumericConfig(t=Fraction(t), tol=tol, seed=seed)
        for name in ("s6", "s7", "s8", "an:2", "dn:4"):
            rep = numeric_curve_audit(name, cfg)
            report["surfaces"].setdefault(name, []).append(
                {"t": t, "count": rep["count"],
                 "max_residue": rep["max_residue"]})
    report["sturm"] = sturm_vs_numeric(NumericConfig())
    return report
