"""Constructive gauge fixing.

Pipeline: measure the non-flatness [g]_alpha, choose the dyadic scale m,
coarse-restrict the field to scale m, apply the axial gauge there, then
extend the transform scale by scale with the dyadic Landau construction
(midpoint halving plus the centre-cell alpha formula with the zero-sum
auxiliary condition).

Scale bookkeeping: a scale-n bond value of g is the path-ordered product
of the fine bond values along the straight segment (angles add); only the
endpoint values of a gauge transform enter coarse bond values, so the
construction below needs u only at the points created so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .gauge_core import GaugeField, GaugeTransform, apply_gauge, log_u1, to_axial, wrap_angle
from .lattice_geom import DomainError, Rect, build_lattice
from .norms import log_oneform, norm_gr, pair_range_table, pair_rows, pair_sup, seminorm_rho

TWO_PI = 2.0 * math.pi
SMALLNESS_TOL = 1e-9  # |sum beta_i mod 2pi| beyond this is a geometry bug


@dataclass
class FlatnessReport:
    alpha: float
    value: float
    argmax: Rect | None


def flatness(g: GaugeField, alpha: float) -> FlatnessReport:
    """[g]_alpha = sup over rectangles of |r|^(-alpha/2) |sum_p log g(dp)|.

    Exhaustive over all rectangles via a summed-area table of the plaquette
    log-holonomies.
    """
    return flatness_sweep(g)(alpha)


def flatness_sweep(g: GaugeField):
    """The exponent-free rectangle table of g, once; returns the function
    alpha -> `flatness(g, alpha)` that reads every exponent from it.

    Rows are the column pairs x1 < x2 of the summed-area table S, positions
    the rows y: C[(x1, x2), y] = S[x2, y] - S[x1, y] (see `norms` for the
    kernel, its exactness and the tie order x1, x2, y1, y2).
    """
    n, N = g.geom.n, g.geom.N
    P = g.plaquette_angles()
    S = np.zeros((n + 1, n + 1))
    S[1:, 1:] = P.cumsum(axis=0).cumsum(axis=1)
    C, x1, x2 = pair_rows(S)
    G = pair_range_table(C)
    dx = x2 - x1

    def at(alpha: float) -> FlatnessReport:
        if not alpha >= 0:  # also refuses nan, which would leave no maximizer
            raise DomainError("alpha must be nonnegative")
        pow_neg = np.ones(n + 1)
        pow_neg[1:] = np.arange(1, n + 1, dtype=float) ** (-alpha / 2.0)
        area_scale = (4.0 ** (-N)) ** (-alpha / 2.0)
        best, (L, r, y1) = pair_sup(C, G, pow_neg[1:], pow_neg[dx], False)
        return FlatnessReport(alpha, best * area_scale,
                              Rect(int(x1[r]), y1, int(dx[r]), L, N))
    return at


def rect_plaquette_log_sum(g: GaugeField, r: Rect) -> float:
    """Test oracle: sum_{p in r} log g(dp), unwrapped; checks `flatness`'s argmax."""
    P = g.plaquette_angles()
    return float(P[r.x0:r.x0 + r.w, r.y0:r.y0 + r.h].sum())


def coarse_restrict(g: GaugeField, m: int) -> GaugeField:
    """Scale-m field whose bond values are path-ordered products of the fine
    bond values along straight segments."""
    N = g.geom.N
    if not (1 <= m <= N):
        raise DomainError(f"coarse scale m={m} must be in [1, {N}]")
    if m == N:
        return g.copy()
    s = 1 << (N - m)
    nc = 1 << m
    th = g.theta_h.reshape(nc, s, g.geom.n + 1).sum(axis=1)[:, ::s]
    tv = g.theta_v.reshape(g.geom.n + 1, nc, s).sum(axis=2)[::s, :]
    return GaugeField(build_lattice(m), wrap_angle(th), wrap_angle(tv))


def thin_rect_holonomy_sup(g_m: GaugeField, alpha: float) -> float:
    """sup over m-thin rectangles of |r|^(-alpha/2) |log g(dr)|.

    `log g(dr)` is the principal log of the boundary holonomy (axial-gauge
    lemma constant), not the plaquette log sum.
    """
    n, N = g_m.geom.n, g_m.geom.N
    th, tv = g_m.theta_h, g_m.theta_v
    ph, pv = _prefix_tables(g_m)
    best = 0.0
    for k in range(1, n + 1):            # long-side length in units
        area_pow = (k * 4.0 ** (-N)) ** (-alpha / 2.0)
        # horizontal thin rects [x0, x0+k] x [y0, y0+1], rows indexed by x0
        dh = ph[k:, :] - ph[:n + 1 - k, :]
        hol_h = dh[:, :-1] + tv[k:, :] - dh[:, 1:] - tv[:n + 1 - k, :]
        # vertical thin rects [x0, x0+1] x [y0, y0+k], columns indexed by y0
        dv = pv[:, k:] - pv[:, :n + 1 - k]
        hol_v = th[:, :n + 1 - k] + dv[1:, :] - th[:, k:] - dv[:-1, :]
        for hol in (hol_h, hol_v):
            best = max(best, float(np.abs(log_u1(hol)).max()) * area_pow)
    return best


def _prefix_tables(g: GaugeField):
    """Prefix sums along the bond direction (ph[k1, k2]: theta_h over columns
    < k1 in row k2; pv[k1, k2]: theta_v over rows < k2 in column k1)."""
    n = g.geom.n
    ph = np.zeros((n + 1, n + 1))
    ph[1:, :] = np.cumsum(g.theta_h, axis=0)
    pv = np.zeros((n + 1, n + 1))
    pv[:, 1:] = np.cumsum(g.theta_v, axis=1)
    return ph, pv


@dataclass
class LandauDiagnostics:
    violations_per_scale: dict[int, int] = field(default_factory=dict)
    max_smallness_residual: float = 0.0  # |sum beta - 2 pi k| observed

    @property
    def violations(self) -> int:
        return sum(self.violations_per_scale.values())


# sublattice offsets from a cell centre: the boundary ring y_1, corner, y_2,
# ..., corner, y_1, and the lower-left corners of the plaquettes p_1..p_4
_RING = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0)]
_CELLS = [(0, 0), (-1, 0), (-1, -1), (0, -1)]


def landau_extend(g: GaugeField, u_m: GaugeTransform, m: int
                  ) -> tuple[GaugeTransform, LandauDiagnostics]:
    """Extend a scale-m transform to the full lattice, scale by scale.

    At each scale n = m+1..N, midpoints of coarse bonds split the coarse
    log evenly; cell centres solve the four-plaquette system with the
    zero-sum alpha formula when the cell is small (sum of beta_i vanishes
    exactly rather than just mod 2 pi), else u(x) = 1 and a violation is
    recorded.  Each scale is a few whole-array float steps: all midpoints
    at once, then all centres at once, with u(x) from
    alpha_1 = 3/8 (beta_1 - beta_4) + 1/8 (beta_2 - beta_3), in which the
    mean of the beta_i cancels.  `landau_alpha_formula` is the exact
    (rational) oracle for this solve.
    """
    N = g.geom.N
    if not (1 <= m <= N):
        raise DomainError("scale m out of range")
    if u_m.geom.N != m:
        raise DomainError("transform scale does not match m")
    u = np.full((g.geom.n + 1, g.geom.n + 1), np.nan)
    sm = 1 << (N - m)
    u[::sm, ::sm] = u_m.angles
    diag = LandauDiagnostics()
    ph, pv = _prefix_tables(g)
    for scale in range(m + 1, N + 1):
        s = 1 << (N - scale)
        nc = 1 << (scale - 1)  # coarse cells per side
        # midpoints of horizontal, then (transposed views) vertical coarse bonds
        _split_midpoints(ph, u, s)
        _split_midpoints(pv.T, u.T, s)
        # scale-`scale` sublattice: node angles, bond values, plaquette logs
        U = u[::s, ::s]
        H = ph[s::s, ::s] - ph[:-s:s, ::s]
        V = pv[::s, s::s] - pv[::s, :-s:s]
        P = log_u1(H[:, :-1] + V[1:, :] - H[:, 1:] - V[:-1, :])

        def at(A, dx, dy):
            # A at offset (dx, dy) from every cell centre (odd sublattice site)
            return A[1 + dx:2 * nc + dx:2, 1 + dy:2 * nc + dy:2]

        # g^u logs of the 8 boundary bonds, counterclockwise from y_1 = x + e_1
        b = []
        for (x0, y0), (x1, y1) in zip(_RING, _RING[1:]):
            if y0 == y1:
                t = at(H, min(x0, x1), y0) * (x1 - x0)
            else:
                t = at(V, x0, min(y0, y1)) * (y1 - y0)
            b.append(log_u1(at(U, x0, y0) + t - at(U, x1, y1)))
        beta = [at(P, dx, dy) - b[2 * i] - b[2 * i + 1]
                for i, (dx, dy) in enumerate(_CELLS)]
        total = beta[0] + beta[1] + beta[2] + beta[3]
        k = np.rint(total / TWO_PI)
        residual = np.abs(total - k * TWO_PI)
        diag.max_smallness_residual = max(diag.max_smallness_residual,
                                          float(residual.max()))
        bad = np.argwhere(residual > SMALLNESS_TOL)
        if len(bad):
            i, j = bad[0]
            raise DomainError(
                f"sum of beta_i = {float(total[i, j])} not a multiple of 2 pi "
                f"at ({(2 * i + 1) * s},{(2 * j + 1) * s})")
        violated = k != 0
        if violated.any():
            diag.violations_per_scale[scale] = int(violated.sum())
        # u(x) from alpha_1 via g^u_{x y_1} = e^{i alpha_1}
        alpha1 = 0.375 * (beta[0] - beta[3]) + 0.125 * (beta[1] - beta[2])
        U[1::2, 1::2] = np.where(
            violated, 0.0, wrap_angle(alpha1 - at(H, 0, 0) + at(U, 1, 0)))
    if np.isnan(u).any():
        raise DomainError("landau extension left unassigned nodes")
    return GaugeTransform(g.geom, wrap_angle(u)), diag


def _split_midpoints(p, u, s):
    """Assign the midpoints of all coarse bonds (length 2s) along axis 0,
    given the prefix table `p` along that axis; transposed views of `p` and
    `u` do the bonds along axis 1."""
    c = 2 * s
    ua, ub = u[:-c:c, ::c], u[c::c, ::c]
    t_ax = p[s::c, ::c] - p[:-c:c, ::c]
    t_xb = p[c::c, ::c] - p[s::c, ::c]
    L = wrap_angle(ua + (t_ax + t_xb) - ub)
    u[s::c, ::c] = wrap_angle(ua + t_ax - 0.5 * L)


def landau_alpha_formula(beta):
    """Exact centre-cell solution: alpha_i = 3/8 (b_i - b_{i-1}) + 1/8 (b_{i+1} - b_{i+2}).

    `beta` is a length-4 sequence (Fractions or floats with exact sum 0).
    """
    beta = [Fraction(x) for x in beta]
    if sum(beta) != 0:
        raise DomainError("alpha formula requires sum beta_i = 0 exactly")
    return [Fraction(3, 8) * (beta[i] - beta[i - 1])
            + Fraction(1, 8) * (beta[(i + 1) % 4] - beta[(i + 2) % 4])
            for i in range(4)]


@dataclass
class GaugeFixReport:
    alpha: float
    flatness: float
    flatness_argmax: Rect | None
    theorem_m: int
    used_m: int | None
    fallback: bool
    forced_scale: bool
    violations: int
    violations_per_scale: dict[int, int]
    axial_thin_sup: float | None       # C in the axial-gauge lemma, at scale m
    axial_max_bond_log: float | None   # max_b |log (g_m^u)_b| after axial fix
    hypothesis_simple: bool | None     # [g]_a 2^{-(m+1)a/2} < pi
    hypothesis_landau: bool | None     # max([g]_a 2^{-(m+1)a}, maxlog/2) < pi/8
    norms: dict[float, dict]           # beta -> {norm_gr, seminorm_rho, norm_full}
    trivial_bound: dict[float, float]  # beta -> 2 pi 2^{N(1+beta/2)}
    gr_bound: dict[tuple, float]       # (beta, kappa) -> Landau lemma (b) bound


def theorem_scale(flatness_value: float, alpha: float) -> int:
    """Smallest integer m >= 4 with 2^m > (8/pi [g]_alpha)^(2/alpha)."""
    if alpha <= 0:
        raise DomainError("alpha must be positive for the scale rule")
    try:
        t = (8.0 / math.pi * flatness_value) ** (2.0 / alpha)
    except OverflowError:
        return 10_000  # effectively: always fall back
    if not math.isfinite(t):
        return 10_000
    m = 4 if t < 16.0 else int(math.floor(math.log2(t))) + 1
    while not (2.0 ** m > t):
        m += 1
    return m


def gauge_fix(g: GaugeField, alpha: float, betas=(0.5,), kappa: float = 0.25,
              force_m: int | None = None) -> tuple[GaugeTransform, GaugeFixReport]:
    """Full gauge-fixing pipeline with fallback.

    With the default `force_m=None` the scale is the theorem's: the smallest
    m >= 4 with 2^m > (8/pi [g]_alpha)^(2/alpha); if that exceeds N the
    fallback u = 1 is returned with the trivial norm bound.  `force_m` runs
    the pipeline at a prescribed scale m <= N regardless (diagnostic use;
    the fallback flag still reports the theorem condition).
    """
    N = g.geom.N
    flat = flatness_sweep(g)
    fr = flat(alpha)
    m_theorem = theorem_scale(fr.value, alpha)
    used_m = force_m if force_m is not None else (m_theorem if m_theorem <= N else None)
    if used_m is not None and not (1 <= used_m <= N):
        raise DomainError(f"forced scale {used_m} out of range at N={N}")
    fallback = m_theorem > N
    f_bk = {} if used_m is None else {beta: flat(beta + kappa).value for beta in betas}
    del flat  # frees the rectangle table before the rho tables are built

    axial_sup = axial_max = None
    hyp_simple = hyp_landau = None
    violations_per_scale: dict[int, int] = {}
    if used_m is None:
        u = GaugeTransform.identity(g.geom)
    else:
        g_m = coarse_restrict(g, used_m)
        u_m, g_m_fixed = to_axial(g_m)
        axial_sup = thin_rect_holonomy_sup(g_m, alpha)
        axial_max = g_m_fixed.max_bond_log()
        hyp_simple = fr.value * 2.0 ** (-(used_m + 1) * alpha / 2.0) < math.pi
        hyp_landau = max(fr.value * 2.0 ** (-(used_m + 1) * alpha),
                         axial_max / 2.0) < math.pi / 8.0
        if used_m == N:
            u, diag = u_m, LandauDiagnostics()
        else:
            u, diag = landau_extend(g, u_m, used_m)
        violations_per_scale = diag.violations_per_scale

    fixed = apply_gauge(g, u)
    A = log_oneform(fixed)
    norms_out, trivial, gr_bound = {}, {}, {}
    c = math.pi / 8.0
    for beta in betas:
        gr = norm_gr(A, beta)
        sr = seminorm_rho(A, beta)
        norms_out[beta] = {"norm_gr": gr, "seminorm_rho": sr, "norm_full": gr + sr}
        trivial[beta] = 2.0 * math.pi * 2.0 ** (N * (1.0 + beta / 2.0))
        if used_m is not None:
            gr_bound[(beta, kappa)] = (c * 2.0 ** (used_m + 1)
                                       + 4.0 * f_bk[beta] * 2.0 ** (-(used_m + 1) * kappa)
                                       / (1.0 - 2.0 ** (-kappa)))
    report = GaugeFixReport(
        alpha=alpha, flatness=fr.value, flatness_argmax=fr.argmax,
        theorem_m=m_theorem, used_m=used_m, fallback=fallback,
        forced_scale=force_m is not None,
        violations=sum(violations_per_scale.values()),
        violations_per_scale=violations_per_scale,
        axial_thin_sup=axial_sup, axial_max_bond_log=axial_max,
        hypothesis_simple=hyp_simple, hypothesis_landau=hyp_landau,
        norms=norms_out, trivial_bound=trivial, gr_bound=gr_bound)
    return u, report
