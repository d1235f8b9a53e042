import math
from fractions import Fraction

import numpy as np
import pytest

from u1higgs.gauge_core import (
    GaugeField,
    GaugeTransform,
    apply_gauge,
    holonomy,
    log_u1,
    psi,
    rect_boundary_loop,
    to_axial,
    wrap_angle,
)
from u1higgs.gauge_fixing import (
    coarse_restrict,
    flatness,
    flatness_sweep,
    gauge_fix,
    landau_alpha_formula,
    landau_extend,
    rect_plaquette_log_sum,
    theorem_scale,
    thin_rect_holonomy_sup,
)
from u1higgs.lattice_geom import DomainError, Rect, build_lattice
from u1higgs.norms import log_oneform, norm_gr


def pure_gauge_field(N, rng, damp=1.0):
    n = 2 ** N
    X = damp * rng.normal(0.0, 2.0 ** (-N), size=(n, n))
    return psi(build_lattice(N), X)


# ---------------------------------------------------------------- flatness

def test_flatness_identity():
    g = GaugeField.identity(build_lattice(3))
    assert flatness(g, 0.5).value == 0.0


def test_flatness_rejects_bad_exponent():
    g = GaugeField.identity(build_lattice(2))
    for alpha in (-0.5, math.nan):
        with pytest.raises(DomainError):
            flatness(g, alpha)


def test_flatness_single_plaquette():
    N, theta, alpha = 3, 0.9, 0.6
    geom = build_lattice(N)
    X = np.zeros((8, 8))
    X[2, 5] = theta
    g = psi(geom, X)
    rep = flatness(g, alpha)
    # attained at the single plaquette: |theta| (2^-2N)^(-alpha/2)
    assert rep.value == pytest.approx(abs(theta) * 2.0 ** (N * alpha), rel=1e-12)
    assert (rep.argmax.x0, rep.argmax.y0, rep.argmax.w, rep.argmax.h) == (2, 5, 1, 1)


def _flatness_bruteforce(g, alpha):
    n = g.geom.n
    P = g.plaquette_angles()
    best = 0.0
    for x0 in range(n):
        for x1 in range(x0 + 1, n + 1):
            for y0 in range(n):
                for y1 in range(y0 + 1, n + 1):
                    s = abs(P[x0:x1, y0:y1].sum())
                    area = (x1 - x0) * (y1 - y0) * 4.0 ** (-g.geom.N)
                    best = max(best, s * area ** (-alpha / 2))
    return best


def test_flatness_bruteforce_oracle():
    rng = np.random.default_rng(0)
    g = pure_gauge_field(3, rng)
    for alpha in (0.0, 0.5, 1.0):
        assert flatness(g, alpha).value == pytest.approx(
            _flatness_bruteforce(g, alpha), rel=1e-12)


def test_flatness_gauge_invariant_exact():
    rng = np.random.default_rng(1)
    geom = build_lattice(3)
    g = GaugeField.random(geom, rng)
    u = GaugeTransform.random(geom, rng)
    a = flatness(g, 0.5)
    b = flatness(apply_gauge(g, u), 0.5)
    assert a.value == pytest.approx(b.value, rel=1e-9)


def test_flatness_argmax_recomputes():
    rng = np.random.default_rng(2)
    g = pure_gauge_field(4, rng)
    rep = flatness(g, 0.5)
    r = rep.argmax
    val = abs(rect_plaquette_log_sum(g, r)) * float(r.area) ** (-0.25)
    assert val == pytest.approx(rep.value, rel=1e-12)


def _flatness_scan(g, alpha):
    """flatness by plain loops over all rectangles: today's expression in the
    scan order (x1, x2, y1, y2), first strict maximum kept."""
    n, N = g.geom.n, g.geom.N
    S = np.zeros((n + 1, n + 1))
    S[1:, 1:] = g.plaquette_angles().cumsum(axis=0).cumsum(axis=1)
    pow_neg = np.ones(n + 1)
    pow_neg[1:] = np.arange(1, n + 1, dtype=float) ** (-alpha / 2.0)
    S, pow_neg = S.tolist(), pow_neg.tolist()
    best, arg = -1.0, None
    for x1 in range(n + 1):
        for x2 in range(x1 + 1, n + 1):
            for y1 in range(n + 1):
                for y2 in range(y1 + 1, n + 1):
                    d = abs((S[x2][y2] - S[x1][y2]) - (S[x2][y1] - S[x1][y1]))
                    v = d * (pow_neg[x2 - x1] * pow_neg[y2 - y1])
                    if v > best:
                        best, arg = v, Rect(x1, y1, x2 - x1, y2 - y1, N)
    return best * (4.0 ** (-N)) ** (-alpha / 2.0), arg


def _flatness_corpus(N, rng):
    """Random, pure-gauge, zero, constant-plaquette and sparse psi fields (the
    sparse ones tie heavily at alpha = 0), and a gauge-fixed field."""
    geom = build_lattice(N)
    n = geom.n
    yield GaugeField.random(geom, rng)
    yield pure_gauge_field(N, rng)
    yield GaugeField.identity(geom)
    yield psi(geom, np.full((n, n), 0.3))
    X = np.zeros((n, n))
    X[rng.integers(0, n, 3), rng.integers(0, n, 3)] = 0.5
    yield psi(geom, X)
    g = pure_gauge_field(N, rng)
    yield apply_gauge(g, gauge_fix(g, 0.5, force_m=1)[0])


@pytest.mark.parametrize("N", [1, 2, 3])
def test_flatness_matches_scan_order_oracle(N):
    rng = np.random.default_rng(200 + N)
    for g in _flatness_corpus(N, rng):
        for alpha in (0.0, 0.5, 1.0, 1.5):
            rep = flatness(g, alpha)
            assert (rep.value, rep.argmax) == _flatness_scan(g, alpha)


def test_flatness_sweep_equals_single_exponent_calls():
    rng = np.random.default_rng(210)
    alphas = (0.0, 0.25, 0.5, 0.75, 1.5)
    for N in (1, 2, 3, 4):
        for g in _flatness_corpus(N, rng):
            at = flatness_sweep(g)
            assert [at(a) for a in alphas] == [flatness(g, a) for a in alphas]


# ---------------------------------------------------------------- coarse restriction

def test_coarse_restrict_identity_cases():
    rng = np.random.default_rng(3)
    g = GaugeField.random(build_lattice(3), rng)
    same = coarse_restrict(g, 3)
    np.testing.assert_array_equal(same.theta_h, g.theta_h)
    gid = GaugeField.identity(build_lattice(3))
    cid = coarse_restrict(gid, 1)
    assert np.all(cid.theta_h == 0) and np.all(cid.theta_v == 0)


def test_coarse_restrict_bond_products():
    rng = np.random.default_rng(4)
    g = GaugeField.random(build_lattice(3), rng)
    gm = coarse_restrict(g, 2)
    # coarse horizontal bond (0,0)->(1/4,0): product of fine bonds 0,1 in row 0
    expect = wrap_angle(g.theta_h[0, 0] + g.theta_h[1, 0])
    assert gm.theta_h[0, 0] == pytest.approx(float(expect), abs=1e-15)


def test_coarse_restrict_stokes_small_angles():
    # coarse plaquette holonomy = product of enclosed fine holonomies
    rng = np.random.default_rng(5)
    g = pure_gauge_field(3, rng, damp=0.2)
    gm = coarse_restrict(g, 2)
    fine = g.plaquette_angles()
    coarse = gm.plaquette_angles()
    for I in range(4):
        for J in range(4):
            s = fine[2 * I:2 * I + 2, 2 * J:2 * J + 2].sum()
            assert coarse[I, J] == pytest.approx(s, abs=1e-12)


# ---------------------------------------------------------------- axial gauge

def test_axial_fix_already_axial():
    geom = build_lattice(2)
    g = psi(geom, np.random.default_rng(6).normal(0, 0.3, size=(4, 4)))
    u = to_axial(g)[0]
    assert u.is_identity()


def test_axial_bound_pathwise_exact():
    # max_b |log g^u_b| <= C 2^(-alpha m / 2) with C the m-thin-rectangle sup
    rng = np.random.default_rng(7)
    for trial in range(10):
        m, alpha = 3, 0.5
        g_m = GaugeField.random(build_lattice(m), rng)
        u = to_axial(g_m)[0]
        fixed = apply_gauge(g_m, u)
        C = thin_rect_holonomy_sup(g_m, alpha)
        assert fixed.max_bond_log() <= C * 2.0 ** (-alpha * m / 2.0) + 1e-12


def test_axial_preserves_holonomies():
    rng = np.random.default_rng(8)
    g = GaugeField.random(build_lattice(3), rng)
    u = to_axial(g)[0]
    np.testing.assert_allclose(np.exp(1j * apply_gauge(g, u).plaquette_angles()),
                               np.exp(1j * g.plaquette_angles()), atol=1e-12)


def test_nontree_bond_equals_thin_rect_holonomy():
    # in the axial gauge every non-tree bond log equals the log-holonomy of
    # its thin rectangle [0, k1] x [k2, k2+1]
    rng = np.random.default_rng(9)
    m = 3
    g = GaugeField.random(build_lattice(m), rng)
    u = to_axial(g)[0]
    fixed = apply_gauge(g, u)
    for k1 in (1, 3, 5):
        for k2 in (0, 4):
            r = Rect(0, k2, k1, 1, m)
            hol = holonomy(g, rect_boundary_loop(g.geom, r))
            assert np.exp(1j * fixed.theta_v[k1, k2]) == pytest.approx(hol, abs=1e-12)


def test_thin_rect_sup_matches_bruteforce():
    # sup over every m-thin rectangle of |r|^(-alpha/2) |log hol(dr)|, each
    # holonomy taken along the rectangle's boundary loop
    rng = np.random.default_rng(19)
    for m in (2, 3):
        geom = build_lattice(m)
        n = geom.n
        for g in (GaugeField.random(geom, rng), pure_gauge_field(m, rng)):
            rects = [Rect(x0, y0, k, 1, m) for k in range(1, n + 1)
                     for x0 in range(n - k + 1) for y0 in range(n)]
            rects += [Rect(x0, y0, 1, k, m) for k in range(1, n + 1)
                      for y0 in range(n - k + 1) for x0 in range(n)]
            logs = [abs(np.angle(holonomy(g, rect_boundary_loop(geom, r))))
                    for r in rects]
            for alpha in (0.5, 1.0):
                brute = max(v * float(r.area) ** (-alpha / 2)
                            for v, r in zip(logs, rects))
                assert thin_rect_holonomy_sup(g, alpha) == pytest.approx(brute, rel=1e-12)


# ---------------------------------------------------------------- Landau extension

def test_landau_identity_field():
    N, m = 4, 2
    g = GaugeField.identity(build_lattice(N))
    u_m = GaugeTransform.identity(build_lattice(m))
    u, diag = landau_extend(g, u_m, m)
    assert diag.violations == 0
    assert np.all(u.angles == 0.0)


def test_alpha_formula_exact_rational():
    rng = np.random.default_rng(10)
    for _ in range(100):
        b = [Fraction(int(x), 64) for x in rng.integers(-100, 100, size=3)]
        b.append(-sum(b))
        alpha = landau_alpha_formula(b)
        assert sum(alpha) == 0
        for i in range(4):
            assert alpha[i] - alpha[(i + 1) % 4] == b[i]


def test_alpha_formula_rejects_nonzero_sum():
    with pytest.raises(DomainError):
        landau_alpha_formula([1, 0, 0, 0])


def test_landau_midpoint_rule():
    rng = np.random.default_rng(11)
    N, m = 3, 2
    g = pure_gauge_field(N, rng, damp=0.3)
    u_m = to_axial(coarse_restrict(g, m))[0]
    u, diag = landau_extend(g, u_m, m)
    fixed = apply_gauge(g, u)
    # midpoint of the coarse bond (0,0)->(1/4,0): both fine halves carry half
    # of the coarse log
    A = log_oneform(fixed)
    half1 = A.h[0, 0]
    half2 = A.h[1, 0]
    assert half1 == pytest.approx(half2, abs=1e-12)


def _landau_oracle_violations(g, u, m):
    """Re-solve every centre of the extension from the returned transform,
    one at a time, with the exact formula; return violations per scale."""
    N, a = g.geom.N, u.angles.tolist()
    rows, cols = g.theta_h.T.tolist(), g.theta_v.tolist()

    def seg(x0, y0, x1, y1):
        # g along the straight scale-n bond (x0,y0)->(x1,y1), fine units
        if y0 == y1:
            t = sum(rows[y0][min(x0, x1):max(x0, x1)])
            return t if x1 > x0 else -t
        t = sum(cols[x0][min(y0, y1):max(y0, y1)])
        return t if y1 > y0 else -t

    violations = {}
    for scale in range(m + 1, N + 1):
        s = 1 << (N - scale)
        for cx in range(s, g.geom.n, 2 * s):
            for cy in range(s, g.geom.n, 2 * s):
                ring = [(cx + s * dx, cy + s * dy) for dx, dy in
                        ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1),
                         (0, -1), (1, -1), (1, 0))]
                b = [log_u1(a[x][y] + seg(x, y, *q) - a[q[0]][q[1]])
                     for (x, y), q in zip(ring, ring[1:])]
                p = [log_u1(seg(x, y, x + s, y) + seg(x + s, y, x + s, y + s)
                            + seg(x + s, y + s, x, y + s) + seg(x, y + s, x, y))
                     for x, y in ((cx, cy), (cx - s, cy), (cx - s, cy - s), (cx, cy - s))]
                beta = [Fraction(p[i] - b[2 * i] - b[2 * i + 1]) for i in range(4)]
                mean = sum(beta) / 4
                k = round(float(4 * mean) / (2 * math.pi))
                if k != 0:
                    violations[scale] = violations.get(scale, 0) + 1
                    assert a[cx][cy] == 0.0
                    continue
                alpha = landau_alpha_formula([x - mean for x in beta])
                expect = float(alpha[0]) - seg(cx, cy, cx + s, cy) + a[cx + s][cy]
                assert abs(wrap_angle(expect - a[cx][cy])) <= 1e-12
    return violations


def test_landau_matches_exact_oracle():
    # golden-corpus fields at their pipeline scale, plus forced coarse scales
    # on raw and uniformly random fields (the latter with violations)
    import json
    import os
    from u1higgs.rng import stream
    from u1higgs.sampler import sample_pure_angles
    path = os.path.join(os.path.dirname(__file__), "data", "gauge_fix_golden.json")
    golden = json.load(open(path))
    geom = build_lattice(golden["N"])
    gen = stream(golden["seed"], tag="")
    cases = []
    for _ in range(golden["corpus_size"]):
        g = psi(geom, golden["damp"] * sample_pure_angles(geom, gen))
        cases.append((g, gauge_fix(g, golden["alpha"], betas=())[1].used_m))
    rng = np.random.default_rng(20)
    for N in (4, 5):
        for g in (pure_gauge_field(N, rng), GaugeField.random(build_lattice(N), rng)):
            cases += [(g, 1), (g, 2)]
    n_violations = 0
    for g, m in cases:
        u, diag = landau_extend(g, to_axial(coarse_restrict(g, m))[0], m)
        assert _landau_oracle_violations(g, u, m) == diag.violations_per_scale
        n_violations += diag.violations
    assert n_violations > 0


def test_landau_smallness_zero_violations_smooth():
    rng = np.random.default_rng(12)
    N, m = 5, 4
    g = pure_gauge_field(N, rng, damp=0.05)
    u_m = to_axial(coarse_restrict(g, m))[0]
    u, diag = landau_extend(g, u_m, m)
    assert diag.violations == 0
    assert diag.max_smallness_residual < 1e-9


# ---------------------------------------------------------------- gauge_fix pipeline

def test_gauge_fix_identity_field():
    g = GaugeField.identity(build_lattice(4))
    u, rep = gauge_fix(g, 0.5)
    assert rep.flatness == 0.0
    assert rep.theorem_m == 4 and rep.used_m == 4 and not rep.fallback
    assert rep.norms[0.5]["norm_full"] == 0.0


def test_gauge_fix_fallback_below_m4():
    # at N = 3 the floor m >= 4 forces the fallback branch
    g = GaugeField.identity(build_lattice(3))
    u, rep = gauge_fix(g, 0.5)
    assert rep.fallback and rep.used_m is None
    assert u.is_identity()
    assert rep.trivial_bound[0.5] == pytest.approx(2 * np.pi * 2 ** (3 * 1.25))


def test_gauge_fix_gauge_invariant_scale_choice():
    rng = np.random.default_rng(13)
    geom = build_lattice(4)
    g = pure_gauge_field(4, rng)
    v = GaugeTransform.random(geom, rng)
    _, rep1 = gauge_fix(g, 0.5, betas=())
    _, rep2 = gauge_fix(apply_gauge(g, v), 0.5, betas=())
    assert rep1.theorem_m == rep2.theorem_m
    assert rep1.flatness == pytest.approx(rep2.flatness, rel=1e-9)


def test_gauge_fix_deterministic():
    rng = np.random.default_rng(14)
    g = pure_gauge_field(4, rng, damp=0.1)
    u1, rep1 = gauge_fix(g, 0.5)
    u2, rep2 = gauge_fix(g, 0.5)
    np.testing.assert_array_equal(u1.angles, u2.angles)
    assert rep1.norms == rep2.norms


def test_theorem_scale_rule():
    assert theorem_scale(0.0, 0.5) == 4
    # 2^m > (8/pi * v)^4 with v = 2: (5.09)^4 = 672.5 -> m = 10
    assert theorem_scale(2.0, 0.5) == 10
    assert theorem_scale(1e300, 0.1) > 100


def test_gauge_fix_smooth_field_pipeline():
    # tiny uniform curvature: pipeline runs, no violations, hypothesis holds
    N = 5
    geom = build_lattice(N)
    X = np.full((32, 32), 1e-3 * 4.0 ** (-N))
    g = psi(geom, X)
    u, rep = gauge_fix(g, 0.5, betas=(0.5,), kappa=0.25)
    assert not rep.fallback
    assert rep.violations == 0
    assert rep.hypothesis_simple and rep.hypothesis_landau
    # Landau lemma (b): norm_gr bounded by c 2^(m+1) + geometric tail term
    assert rep.norms[0.5]["norm_gr"] <= rep.gr_bound[(0.5, 0.25)] + 1e-9


def test_gauge_fix_hypothesis_corpus_pathwise():
    # damped pure-gauge corpus satisfying the pi/8 conditions: zero smallness
    # violations and the gr-norm bound hold pathwise
    rng = np.random.default_rng(15)
    for trial in range(5):
        g = pure_gauge_field(5, rng, damp=0.05)
        u, rep = gauge_fix(g, 0.5, betas=(0.5,), kappa=0.25)
        assert not rep.fallback
        if rep.hypothesis_simple and rep.hypothesis_landau:
            assert rep.violations == 0
            assert rep.norms[0.5]["norm_gr"] <= rep.gr_bound[(0.5, 0.25)] + 1e-9


def test_pathwise_stokes_after_fixing():
    # with max bond log < pi/4 the boundary log sum equals the plaquette sum
    rng = np.random.default_rng(16)
    g = pure_gauge_field(5, rng, damp=0.05)
    u, rep = gauge_fix(g, 0.5)
    fixed = apply_gauge(g, u)
    assert fixed.max_bond_log() < np.pi / 4
    A = log_oneform(fixed)
    P = fixed.plaquette_angles()
    n = fixed.geom.n
    for _ in range(100):
        x0, y0 = rng.integers(0, n - 1, size=2)
        x1 = int(rng.integers(x0 + 1, n + 1))
        y1 = int(rng.integers(y0 + 1, n + 1))
        boundary = (A.h[x0:x1, y0].sum() + A.v[x1, y0:y1].sum()
                    - A.h[x0:x1, y1].sum() - A.v[x0, y0:y1].sum())
        assert boundary == pytest.approx(P[x0:x1, y0:y1].sum(), abs=1e-9)


def test_bond_smallness_propagation():
    # under the pi/8 hypothesis every scale keeps max bond log < pi/4
    rng = np.random.default_rng(17)
    g = pure_gauge_field(5, rng, damp=0.05)
    u, rep = gauge_fix(g, 0.5)
    assert rep.hypothesis_landau
    fixed = apply_gauge(g, u)
    for n_scale in range(rep.used_m, 6):
        coarse = coarse_restrict(fixed, n_scale)
        assert coarse.max_bond_log() < np.pi / 4 + 1e-12


def test_forced_scale_pipeline_on_rough_field():
    # the pipeline itself runs at any forced m; the axial bound stays exact
    rng = np.random.default_rng(18)
    g = pure_gauge_field(5, rng)
    u, rep = gauge_fix(g, 0.5, force_m=4, betas=())
    assert rep.forced_scale and rep.used_m == 4
    assert rep.fallback  # theorem condition still fails for rough fields
    gm = coarse_restrict(g, 4)
    fixed_m = apply_gauge(gm, to_axial(gm)[0])
    assert rep.axial_max_bond_log == pytest.approx(fixed_m.max_bond_log(), abs=1e-12)
    assert rep.axial_max_bond_log <= rep.axial_thin_sup * 2.0 ** (-0.5 * 4 / 2) + 1e-12


def test_golden_norm_bound_constant():
    # frozen from scripts/calibrate_gauge_fixing.py: the observed pathwise
    # ratio of |log g^u|_1/2 to 2^m + (1-2^-kappa)^-1 2^(-m kappa) [g]_3/4
    # on the smooth corpus, with a 10 percent margin
    import json
    import os
    path = os.path.join(os.path.dirname(__file__), "data",
                        "gauge_fix_golden.json")
    golden = json.load(open(path))
    k_hat = golden["k_hat_frozen"]
    geom = build_lattice(golden["N"])
    from u1higgs.rng import stream
    from u1higgs.sampler import sample_pure_angles
    gen = stream(golden["seed"], tag="")
    kappa, beta = golden["kappa"], golden["beta"]
    for _ in range(golden["corpus_size"]):
        X = golden["damp"] * sample_pure_angles(geom, gen)
        g = psi(geom, X)
        u, rep = gauge_fix(g, golden["alpha"], betas=(beta,), kappa=kappa)
        m = rep.used_m
        denom = (2.0 ** m + 2.0 ** (-m * kappa) / (1.0 - 2.0 ** (-kappa))
                 * flatness(g, beta + kappa).value)
        assert rep.norms[beta]["norm_full"] <= k_hat * denom


def test_golden_fallback_fractions():
    # raw pure-gauge fields always exceed the theorem scale at N <= 5
    import json
    import os
    path = os.path.join(os.path.dirname(__file__), "data",
                        "gauge_fix_golden.json")
    golden = json.load(open(path))
    assert all(v == 1.0 for v in golden["raw_fallback_fraction"].values())
