"""Independent floating-point oracle: specializes t, finds complex roots of
the residual polynomials, reconstructs every curve numerically and
cross-checks counts, membership residues and the S6 line-intersection graph
against the exact engine.

Evaluation is compiled and batched.  Each polynomial an audit evaluates is
compiled once, into an integer exponent array and a complex coefficient
vector, and then evaluated with numpy at a whole batch of sample points;
Durand-Kerner iterates on a batch of coefficient rows (each one a
geometrically rescaled monic polynomial).  The samples are drawn from
random.Random(seed) in a fixed order, and every audit is cached on its
(surface, NumericConfig)."""

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .multipoly import MultiPoly
from .tower import _coeff_complex
from .univariate import (degree, derivative, poly_gcd, count_real_roots)
from .curves import (VerificationError, _surface_cache, q_cubic, q1_quartic,
                     q2_quartic, s6_alpha_lines, s6_line_tower,
                     s6_line_forms)
from .orbits import _s7_main_data, _s8_branch_data, s6_intersections


# Durand-Kerner iterations before a batch is declared not to converge
DK_MAX_ITER = 2000


@dataclass(frozen=True)
class NumericConfig:
    t: Fraction = Fraction(2)
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t))
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tolerance must be finite and positive")


# ---------------------------------------------------------------------------
# root finding

def _horner(rows, z):
    """sum(rows[r, k] z[r, j]^k): the polynomial of each coefficient row r
    at the points of row r of z."""
    val = np.zeros(z.shape, dtype=np.result_type(rows, z))
    for c in rows.T[::-1]:
        val = val * z + c[:, None]
    return val


def durand_kerner(coeffs, cfg: NumericConfig):
    """All complex roots of sum(c[k] X^k), for one coefficient list c or
    for each row c of a 2-d batch (then one row of roots per row).  Each
    polynomial is made monic and its variable rescaled X = sigma X', with
    log(sigma) the mean of log|c_k/c_n|/(n-k) over the nonzero
    coefficients, so Durand-Kerner iterates on balanced polynomials; the
    rows iterate together until every one has converged."""
    cs = np.array(coeffs, dtype=complex)
    single = cs.ndim == 1
    cs = np.atleast_2d(cs)
    while cs.shape[1] and not cs[:, -1].any():
        cs = cs[:, :-1]
    n = cs.shape[1] - 1
    if n < 1:
        raise ValueError("polynomial must be nonconstant")
    b = cs / cs[:, -1:]
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(b[:, :-1])) / (n - np.arange(n))
    used = np.isfinite(logs)                # zero coefficients give -inf
    sigma = np.exp(np.where(used, logs, 0).sum(1)
                   / np.maximum(used.sum(1), 1))
    b = b * sigma[:, None] ** (np.arange(n + 1) - n)
    seed_angle = random.Random(cfg.seed).uniform(0, 2 * math.pi)
    k = np.arange(n)
    z = np.tile(np.exp(1j * (seed_angle + 2 * math.pi * k / n))
                * (1.3 + 0.01 * k), (len(b), 1))
    others = ~np.eye(n, dtype=bool)
    for _ in range(DK_MAX_ITER):
        den = np.where(others, z[:, :, None] - z[:, None, :], 1).prod(-1)
        dz = _horner(b, z) / den
        z = z - dz
        if (np.abs(dz) / (1 + np.abs(z))).max() < 1e-14:
            break
    else:
        raise VerificationError("root finder did not converge")
    roots = z * sigma[:, None]
    return roots[0] if single else roots


def numeric_roots(coeffs, cfg: NumericConfig):
    """Roots with certification: residual below tol relative to the
    coefficient 1-norm evaluated at the root, and pairwise separation."""
    roots = durand_kerner(coeffs, cfg)
    cs = np.array([coeffs], dtype=complex)
    val = np.abs(_horner(cs, roots[None]))[0]
    scale = _horner(np.abs(cs), np.abs(roots)[None])[0]
    bad = ~(val <= cfg.tol * (1 + scale))
    if bad.any():
        raise VerificationError("root residual %.3g exceeds tolerance"
                                % val[bad][0])
    mag = np.abs(roots)
    gap = np.abs(roots[:, None] - roots[None, :])
    close = gap < 1e-8 * (1 + mag[:, None] + mag[None, :])
    if np.triu(close, 1).any():
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
        _, c, _ = s6_line_tower(branch)
        if c.is_zero():
            raise VerificationError("S6 radicand vanishes")
    report["squarefree"]["core_S7"] = True
    report["squarefree"]["F1_F2_S8"] = True
    return report


# ---------------------------------------------------------------------------
# compiled, batched evaluation

class CompiledPoly:
    """A MultiPoly compiled for batched complex evaluation: one row of
    exponents per term, and the term's coefficient as a complex number (a
    tower constant evaluated at cenv, which maps generator names to
    values)."""

    def __init__(self, p: MultiPoly, cenv=None):
        self.vars = p.vars
        self.exps = np.array(list(p.terms), dtype=int).reshape(
            len(p.terms), len(p.vars))
        self.coeffs = np.array([_coeff_complex(c, cenv or {})
                                for c in p.terms.values()], dtype=complex)

    def __call__(self, env):
        """(value, scale) at the points env, which maps each variable to a
        number or an array, all broadcast together; scale is the sum of the
        absolute values of the terms, at least 1e-300."""
        terms = self.coeffs
        for v, col in zip(self.vars, self.exps.T):
            if col.any():
                terms = terms * np.asarray(env[v])[..., None] ** col
        return terms.sum(-1), np.maximum(np.abs(terms).sum(-1), 1e-300)

    def residues(self, env):
        val, scale = self(env)
        return np.abs(val) / scale


def _ratio(pair, env):
    return CompiledPoly(pair[0])(env)[0] / CompiledPoly(pair[1])(env)[0]


def _max_residue(res, cfg, message):
    """The largest residue of res; the first of them (in draw order) that
    is not at most cfg.tol, a NaN from an overflow too, is raised,
    formatted into message."""
    over = np.flatnonzero(~(res <= cfg.tol))
    if over.size:
        raise VerificationError(message % res.flat[over[0]])
    return float(res.max())


def _draws(rng, shape, width):
    """rng.random() drawn width at a time, as an array shape + (width,)."""
    count = math.prod(shape) * width
    return np.fromiter((rng.random() for _ in range(count)), float,
                       count).reshape(shape + (width,))


def _complex_draws(rng, shape):
    u = _draws(rng, shape, 2)
    return u[..., 0] + 1j * u[..., 1]


def _sample_wx(rng, shape):
    """Sample points (W, X): W on the unit circle, |X| in [0.5, 1.5)."""
    u = _draws(rng, shape, 3)
    return (np.exp(2j * math.pi * u[..., 0]),
            np.exp(2j * math.pi * u[..., 1]) * (0.5 + u[..., 2]))


def _roots_of_unity(n):
    return np.exp(2j * math.pi * np.arange(n) / n)


# ---------------------------------------------------------------------------
# per-surface audits

# the generator of Q(zeta_12), the constants of the S6 family
S6_ENV = {"z12": cmath.exp(1j * math.pi / 6)}


def _s6_numeric_lines(cfg):
    """The 27 lines: their (family or branch, j) tags, and their 2x4
    coefficient matrices stacked in one array."""
    tval = float(cfg.t)
    tags, mats = [], []
    for j, forms in enumerate(s6_alpha_lines()[2]):
        env = dict(S6_ENV, alpha=tval ** (1.0 / 3.0))
        tags.append(("L123", j))
        mats.append(_form_matrix(forms, env))
    for branch in ("plus", "minus"):
        T, c, _ = s6_line_tower(branch)
        cval = c.as_complex(S6_ENV)
        mu0 = (cval * tval) ** (1.0 / 12.0)
        forms = s6_line_forms(T, branch)
        for j in range(12):
            mu = mu0 * cmath.exp(2j * math.pi * j / 12.0)
            env = dict(S6_ENV, mu=mu)
            tags.append((branch, j))
            mats.append(_form_matrix(forms, env))
    return tags, np.array(mats)


def _form_matrix(forms, cenv):
    rows = []
    for f in forms:
        row = [0j] * 4
        for e, c in f.terms.items():
            row[list(e).index(1)] = _coeff_complex(c, cenv)
        rows.append(row)
    return rows


def numeric_audit_s6(s6, cfg: NumericConfig) -> dict:
    rng = random.Random(cfg.seed)
    tags, mats = _s6_numeric_lines(cfg)
    n = len(tags)
    # five points a p0 + p1 on each line, (p0, p1) a basis of its kernel
    basis = np.linalg.svd(mats)[2][:, -2:].conj()
    a = _complex_draws(rng, (n, 5))
    pts = basis[:, None, 0] * a[..., None] + basis[:, None, 1]
    env = dict(zip(("W", "X", "Y", "Z"), np.moveaxis(pts, -1, 0)))
    env["t"] = float(cfg.t)
    max_res = _max_residue(CompiledPoly(s6.equation, S6_ENV).residues(env),
                           cfg, "S6 membership residue %.3g")
    # intersection graph: two lines meet iff their four forms are dependent
    i, j = np.triu_indices(n, 1)
    sv = np.linalg.svd(np.concatenate([mats[i], mats[j]], axis=1),
                       compute_uv=False)
    adj = np.zeros((n, n), dtype=bool)
    adj[i, j] = adj[j, i] = sv[:, -1] < 1e-8 * sv[:, 0]
    degrees = adj.sum(axis=1)
    if not all(d == 10 for d in degrees):
        raise VerificationError("S6 line degrees are not all 10: %s"
                                % sorted(set(int(d) for d in degrees)))
    # agreement with the exact same-branch pattern
    exact = s6_intersections(s6)
    idx = {tag: k for k, tag in enumerate(tags)}
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
    return {"surface": "s6", "count": n, "max_residue": max_res,
            "degrees": [int(d) for d in degrees],
            "graph_checked": True}


def numeric_audit_s7(s7, cfg: NumericConfig) -> dict:
    _, core, main = _s7_main_data(s7)
    pairs = main.data["coeff_pairs"]
    tval = float(cfg.t)
    rng = random.Random(cfg.seed)
    equation = CompiledPoly(s7.equation)
    # core(e) = t^3 Q(e^18 / t): 54 roots from the 3 roots of Q
    u_roots = numeric_roots(q_cubic(), cfg)
    e = (((u_roots * tval) ** (1.0 / 18.0))[:, None]
         * _roots_of_unity(18)).ravel()
    env = {"e": e, "t": tval}
    for n in ("d", "a", "b", "c"):
        env[n] = _ratio(pairs[n], env)
    a, b, c, d, e = (env[n][:, None] for n in ("a", "b", "c", "d", "e"))
    W, X = _sample_wx(rng, (len(e), 5))
    penv = {"W": W, "X": X, "Y": a * W + b * X,
            "Z": c * W ** 2 + d * W * X + e * X ** 2, "t": tval}
    max_res = _max_residue(equation.residues(penv), cfg,
                           "S7 residue %.3g at root")
    # the two e=0 curves: Y = 0, Z = +- sqrt(t) W^2
    rt = cmath.sqrt(tval)
    W, X = _sample_wx(rng, (2, 5))
    penv = {"W": W, "X": X, "Y": 0j, "Z": np.array([[rt], [-rt]]) * W ** 2,
            "t": tval}
    max_res = max(max_res, _max_residue(equation.residues(penv), cfg,
                                        "S7 e=0 residue %.3g"))
    count = len(e) + len(W)
    if count != 56:
        raise VerificationError("S7 numeric count %d != 56" % count)
    return {"surface": "s7", "count": count, "max_residue": max_res}


def numeric_audit_s8(s8, cfg: NumericConfig) -> dict:
    _, mains = _s8_branch_data(s8)
    tval = float(cfg.t)
    rng = random.Random(cfg.seed)
    equation = CompiledPoly(s8.equation)
    count, max_res = 0, 0.0
    for branch, quartic in (("P1", q1_quartic()), ("P2", q2_quartic())):
        main = mains[branch]
        pairs = main.data["coeff_pairs"]
        Pi = main.data["branch_quartic"]
        x_roots = numeric_roots(quartic, cfg)
        # F_i ~ q_i(-mu^30 t): 30 values of mu over each root x
        mu = (((-x_roots / tval) ** (1.0 / 30.0))[:, None]
              * _roots_of_unity(30)).ravel()
        # the certified b-fraction cancels catastrophically in doubles;
        # instead, of the four b-roots of the branch quartic exactly one
        # continues to a curve on the surface
        env = {"mu": mu, "t": tval}
        b = durand_kerner(np.stack(np.broadcast_arrays(
            *(CompiledPoly(Pi.coeff_of("b", k))(env)[0]
              for k in range(Pi.degree("b") + 1))), axis=1), cfg)
        env = {"mu": mu[:, None], "b": b, "t": tval}
        for n in ("f", "a", "e", "d"):
            env[n] = _ratio(pairs[n], env)
        W, X = _sample_wx(rng, b.shape + (5,))
        a, b, d, e, f = (env[n][..., None] for n in ("a", "b", "d", "e", "f"))
        m = mu[:, None, None]
        penv = {"W": W, "X": X, "t": tval,
                "Y": a * W ** 2 + b * W * X - m ** 2 * X ** 2,
                "Z": (d * W ** 3 + e * W ** 2 * X + f * W * X ** 2
                      - m ** 3 * X ** 3)}
        worst = equation.residues(penv).max(-1)
        passing = worst < cfg.tol
        on_surface = passing.sum(1)
        wrong = np.flatnonzero(on_surface != 1)
        if wrong.size:
            raise VerificationError(
                "S8 branch %s: %d of 4 b-roots on the surface"
                % (branch, on_surface[wrong[0]]))
        max_res = max(max_res, float(worst[passing].max()))
        count += len(mu)
    if count != 240:
        raise VerificationError("S8 numeric count %d != 240" % count)
    return {"surface": "s8", "count": count, "max_residue": max_res}


def numeric_audit_conic(s, cfg: NumericConfig) -> dict:
    """A_n / D_n fibre components at the specialization."""
    name, n = s.name, s.index
    tval = float(cfg.t)
    rng = random.Random(cfg.seed)
    equation = CompiledPoly(s.equations[0])
    if name.startswith("an:"):
        # over each root x of x^n = t: the components y = 0 and z = 0,
        # the other coordinate free
        x = tval ** (1.0 / n) * _roots_of_unity(n)
        free = _complex_draws(rng, (n, 2, 5))
        y_free = np.array([[0], [1]])
        env = {"w": 1, "x": x[:, None, None], "y": free * y_free,
               "z": free * (1 - y_free), "t": tval}
        max_res = _max_residue(equation.residues(env), cfg,
                               "A_n residue %.3g")
        count, expected = free.shape[0] * free.shape[1], 2 * n
    else:
        N = 2 * (n - 1)
        rt = cmath.sqrt(tval)
        y = _complex_draws(rng, (2, 5))
        env = {"w": 1, "y": y, "z": np.array([[rt], [-rt]]), "x": 0,
               "t": tval}
        max_res = _max_residue(equation.residues(env), cfg,
                               "D_n x=0 residue %.3g")
        mu = (tval ** (1.0 / N) * _roots_of_unity(N))[:, None]
        y = _complex_draws(rng, (N, 5))
        env = {"w": 1, "y": y, "z": 1j * y * mu, "x": mu ** 2, "t": tval}
        max_res = max(max_res, _max_residue(equation.residues(env), cfg,
                                            "D_n mu residue %.3g"))
        count, expected = 2 + len(mu), 2 + N
    if count != expected:
        raise VerificationError("%s numeric count %d != %d"
                                % (name, count, expected))
    return {"surface": name, "count": count, "max_residue": max_res}


@_surface_cache
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


@_surface_cache
def numeric_curve_audit(s, cfg: NumericConfig = None) -> dict:
    """The audit of the catalog surface s at cfg.t."""
    cfg = cfg or NumericConfig()
    check_specialization(cfg.t)
    audit = {"s6": numeric_audit_s6, "s7": numeric_audit_s7,
             "s8": numeric_audit_s8}.get(s.name)
    if s.name.startswith(("an:", "dn:")):
        audit = numeric_audit_conic
    if audit is None:
        raise ValueError("no numeric audit for %r" % s.name)
    # a double that overflows becomes inf or NaN, which every check refuses
    with np.errstate(all="ignore"):
        return audit(s, cfg)


def full_audit(catalog, t_values=(2, 3, 5), tol=1e-8, seed=0) -> dict:
    """The oracle section of the reproduction run: counts, residues and
    graphs of the catalog's surfaces at several specializations."""
    report = {"t_values": list(t_values), "surfaces": {}, "sturm": None}
    for t in t_values:
        cfg = NumericConfig(t=Fraction(t), tol=tol, seed=seed)
        for name in ("s6", "s7", "s8", "an:2", "dn:4"):
            rep = numeric_curve_audit(catalog[name], cfg)
            report["surfaces"].setdefault(name, []).append(
                {"t": t, "count": rep["count"],
                 "max_residue": rep["max_residue"]})
    report["sturm"] = sturm_vs_numeric(NumericConfig(tol=tol, seed=seed))
    return report
