"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 10 is implemented exactly as stated and is expected to fail at
desk scale: with the scale rule m >= 4 and 2^m > (8/pi [g]_alpha)^(2/alpha),
pure-gauge fields at N <= 5 always take the fallback branch (measured
[g]_1/2 is about 1.5-3.5, needing m around 9-13), so the measured trend is
that of the raw axial-gauge field, whose norm grows with N.  See README
section "Known-red acceptance criterion" for the full analysis.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from u1higgs.cli import run as cli_run
from u1higgs.gauge_core import psi, rect_boundary_loop, to_axial, winding_vector
from u1higgs.gauge_fixing import (
    coarse_restrict,
    flatness,
    gauge_fix,
    landau_alpha_formula,
    thin_rect_holonomy_sup,
)
from u1higgs.gauge_core import apply_gauge
from u1higgs.lattice_geom import Rect, build_lattice, decompose_rectangle, thin_sum_constant
from u1higgs.loop_expansion import (
    MultiGraph,
    OperatorAssignment,
    QuadratureSpec,
    RadialMeasure,
    _tail_majorant,
    brute_force_integral,
    expansion_value,
    higgs_loop_coefficients,
    k_complex,
    k_real,
)
from u1higgs.mc_verify import verify_decorrelation, verify_mgf, verify_uv_stability
from u1higgs.rng import stream
from u1higgs.sampler import PotentialSpec, sample_pure_angles

QUARTIC = PotentialSpec("quartic", c=1.0)


def report(criterion, ok, detail=""):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


# -------------------------------------------------------------------------
def test_criterion_1_pure_gauge_mgf():
    """N=4, loop = boundary of [0,1/2]^2, eta = 1: E e^{eta B^2} = sqrt(2)."""
    t0 = time.time()
    r = verify_mgf(4, eta=1.0, samples=100_000, mode="pure", seed=20260101)
    elapsed = time.time() - t0
    ok = (r.verdict == "pass" and r.parameters["omega"] == 0.25
          and elapsed < 30.0)
    assert report(1, ok, f"estimate {r.estimate:.4f} vs sqrt(2) = {math.sqrt(2):.4f} "
                         f"+- 3x{r.stderr:.4f}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
def test_criterion_2_diamagnetic_inequality():
    """Quartic V, N=2, eta = 1/(4 omega) = 1: interacting MGF <= sqrt(2)+3se.

    Pseudo-marginal chain with the unbiased importance-sampling estimate of
    the Higgs weight (exact-in-law for the true quartic weight)."""
    t0 = time.time()
    r = verify_mgf(2, eta=1.0, samples=15_000, mode="interacting",
                   seed=20260102, pot=QUARTIC, method="monte-carlo",
                   chain_kw={"burn_in": 2000, "thin": 4, "n_chains": 4,
                             "n_is": 64})
    elapsed = time.time() - t0
    ok = r.verdict == "pass" and elapsed < 300.0
    eff = r.sample_size * 4 / max(r.extras["iat"], 1.0)  # kept thin=4
    assert report(2, ok, f"estimate {r.estimate:.4f} <= {r.reference:.4f} "
                         f"+ 3x{r.stderr:.4f}; iat {r.extras['iat']:.1f}, "
                         f"~{eff:.0f} effective, {elapsed:.0f}s")


# -------------------------------------------------------------------------
def test_criterion_3_loop_expansion_oracle():
    """Single self-loop, m=0.3, Gaussian-type measure: 2 pi / (1-m)."""
    t0 = time.time()
    G = MultiGraph(("x",), (("x", "x"),))
    M = OperatorAssignment.scalars(G, [0.3], "C")
    lam = {"x": RadialMeasure.gaussian_type()}
    res = expansion_value(G, M, lam, 30)
    target = 2.0 * math.pi / 0.7
    # independent reproduction of the closed form by 1D radial quadrature
    from scipy import integrate
    quad, _ = integrate.quad(
        lambda s: 2 * math.pi * 2 * s * math.exp(0.3 * s * s - s * s), 0, 40)
    elapsed = time.time() - t0
    rel = abs(res.value - target) / target
    ok = (rel <= 1e-6 and abs(quad - target) <= 1e-8 * target and elapsed < 1.0)
    assert report(3, ok, f"value {res.value.real:.12f}, target {target:.12f}, "
                         f"rel {rel:.2e}, tail {res.tail_majorant:.2e}, "
                         f"{elapsed:.2f}s")


# -------------------------------------------------------------------------
def test_criterion_4_sphere_measure_sanity():
    """k_complex(0,1)=2pi, k_complex(0,2)=2pi^2, k_real(N,1)(2N-1)!!=2."""
    errs = [abs(k_complex(0, 1) - 2 * math.pi),
            abs(k_complex(0, 2) - 2 * math.pi ** 2)]
    for N in range(11):
        dfact = math.prod(range(2 * N - 1, 0, -2)) if N else 1
        errs.append(abs(k_real(N, 1) * dfact - 2.0))
    ok = max(errs) <= 1e-12
    assert report(4, ok, f"max abs error {max(errs):.2e}")


# -------------------------------------------------------------------------
def _corpus_graphs():
    """All multigraphs with <= 2 vertices and <= 3 edges (up to edge order)."""
    types = [("x", "x"), ("y", "y"), ("x", "y"), ("y", "x")]
    seen = []
    for count in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(range(4), count):
            edges = tuple(types[i] for i in combo)
            verts = ("x",) if all(e == ("x", "x") for e in edges) else ("x", "y")
            seen.append(MultiGraph(verts, edges))
    return seen


def test_criterion_5_oracle_equivalence():
    """Expansion vs brute-force quadrature on the full small-graph corpus,
    complex and real, plus one random 2x2-matrix case."""
    t0 = time.time()
    gauss = RadialMeasure.gaussian_type()
    spec = QuadratureSpec(radial_nodes=24, angular_nodes=16)
    failures = []
    n_cases = 0
    for fieldtag in ("C", "R"):
        for gi, G in enumerate(_corpus_graphs()):
            rng = stream(42, gi, tag="")
            E = G.n_edges
            scal = [(0.02 + 0.03 * rng.uniform()) / E * (1 if rng.uniform() < 0.5 else -1)
                    for _ in range(E)]
            if fieldtag == "R":
                scal = [abs(s) if G.is_self_loop(e) else s
                        for e, s in enumerate(scal)]
            M = OperatorAssignment.scalars(G, scal, fieldtag)
            lam = {v: gauss for v in G.vertices}
            bf = brute_force_integral(G, M, lam, spec)
            T = None
            for t_try in (6, 8):
                majorant = _tail_majorant(G, M, lam, t_try)
                if majorant <= 1e-5 * abs(bf.value):
                    T = t_try
                    break
            if T is None:
                failures.append((fieldtag, gi, "no tail-bounded truncation"))
                continue
            res = expansion_value(G, M, lam, T)
            rel = abs(res.value - bf.value) / abs(bf.value)
            n_cases += 1
            if rel > 1e-4:
                failures.append((fieldtag, gi, f"rel {rel:.2e}"))
            # sharper check: the gap is explained by the tail majorant plus
            # the quadrature's own refinement error
            if abs(res.value - bf.value) > majorant + 10 * bf.error_estimate + 1e-12:
                failures.append((fieldtag, gi, "gap exceeds tail + quad error"))
    # one larger-coupling case exercising deep orders: the 2-cycle
    G = MultiGraph(("x", "y"), (("x", "y"), ("y", "x")))
    M = OperatorAssignment.scalars(G, [0.3, 0.25], "C")
    lam = {"x": gauss, "y": gauss}
    bf = brute_force_integral(G, M, lam, spec)
    res = expansion_value(G, M, lam, 24)
    n_cases += 1
    if abs(res.value - bf.value) / abs(bf.value) > 1e-4:
        failures.append(("C 2-cycle", -1, "rel error"))
    # the random 2x2-matrix case
    rng = stream(43)
    G = MultiGraph(("x",), (("x", "x"),))
    A = 0.12 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    M = OperatorAssignment("C", 2, (A,), G)
    bf = brute_force_integral(G, M, {"x": gauss},
                              QuadratureSpec(radial_nodes=32, angular_nodes=16))
    res = expansion_value(G, M, {"x": gauss}, 16)
    rel = abs(res.value - bf.value) / abs(bf.value)
    n_cases += 1
    if rel > 1e-4:
        failures.append(("C 2x2", -1, f"rel {rel:.2e}"))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120.0
    assert report(5, ok, f"{n_cases} cases agree to 1e-4, {elapsed:.0f}s"
                         + (f"; failures: {failures}" if failures else ""))


# -------------------------------------------------------------------------
def test_criterion_6_positive_type_weight():
    """Every coefficient at N=2, max_len=8, quartic V is >= -1e-14."""
    t0 = time.time()
    hc = higgs_loop_coefficients(build_lattice(2), QUARTIC, 8)
    worst = min(hc.coeffs.values())
    elapsed = time.time() - t0
    ok = worst >= -1e-14
    assert report(6, ok, f"{len(hc.coeffs)} winding vectors, min coeff "
                         f"{worst:.3e}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
def test_criterion_7_decorrelation_identity():
    """Quadrature agreement to 1e-8 on a 5-point parameter grid."""
    grid = [(1.0, 1.0, 0.5, 0.2), (1.0, 2.0, -0.7, 0.3), (0.5, 1.0, 0.3, 1.0),
            (2.0, 0.5, 0.9, 0.05), (1.5, 1.5, -1.2, 0.1)]
    worst = 0.0
    ok = True
    for (sa, sb, sab, eta) in grid:
        r = verify_decorrelation(sa, sb, sab, eta)
        worst = max(worst, r.extras["relative_error"])
        ok = ok and r.verdict == "pass"
    assert report(7, ok, f"worst relative error {worst:.2e} over 5 points")


# -------------------------------------------------------------------------
def test_criterion_8_gauge_fixing_pathwise_suite():
    """100 pure-gauge configurations at N=5, alpha=1/2.

    (a) axial bound, exact, at the pipeline scale m=4 (the theorem's minimal
        scale; the theorem's own m exceeds N for rough fields, see README
        section "Known-red acceptance criterion");
    (b) zero smallness violations whenever the pi/8 hypothesis holds,
        asserted non-vacuously on the same configurations damped into the
        hypothesis region;
    (c) alpha-formula identities, exact in rational arithmetic;
    (d) Landau lemma part (b) gr-norm bound with the (1 - 2^-kappa)^-1
        constant, pathwise on the hypothesis-satisfying corpus.
    """
    t0 = time.time()
    N, alpha, kappa, m = 5, 0.5, 0.25, 4
    geom = build_lattice(N)
    gen = stream(20260108, tag="")
    n_hyp = 0
    for trial in range(100):
        X = sample_pure_angles(geom, gen)
        g = psi(geom, X)
        # (a) axial bound at the forced scale, exact pathwise
        gm = coarse_restrict(g, m)
        u_m = to_axial(gm)[0]
        fixed_m = apply_gauge(gm, u_m)
        C = thin_rect_holonomy_sup(gm, alpha)
        assert fixed_m.max_bond_log() <= C * 2.0 ** (-alpha * m / 2.0) + 1e-12
        # (b) + (d) on the damped (hypothesis-satisfying) configuration
        gd = psi(geom, 0.05 * X)
        u, rep = gauge_fix(gd, alpha, betas=(0.5,), kappa=kappa)
        if rep.hypothesis_simple and rep.hypothesis_landau and not rep.fallback:
            n_hyp += 1
            assert rep.violations == 0, "smallness violation under hypothesis"
            assert rep.norms[0.5]["norm_gr"] <= rep.gr_bound[(0.5, kappa)] + 1e-9
        # raw-field implication form of (b): if the hypothesis held, require
        # zero violations (checked on the forced pipeline)
        u_raw, rep_raw = gauge_fix(g, alpha, betas=(), force_m=m)
        if rep_raw.hypothesis_simple and rep_raw.hypothesis_landau:
            assert rep_raw.violations == 0
    # (c) exact rational identities for the centre-cell formula
    from fractions import Fraction
    rng = np.random.default_rng(8)
    for _ in range(100):
        b = [Fraction(int(v), 128) for v in rng.integers(-200, 200, size=3)]
        b.append(-sum(b))
        a = landau_alpha_formula(b)
        assert sum(a) == 0
        assert all(a[i] - a[(i + 1) % 4] == b[i] for i in range(4))
    elapsed = time.time() - t0
    ok = n_hyp == 100
    assert report(8, ok, f"axial bound exact on 100 raw configs at m={m}; "
                         f"hypothesis corpus: {n_hyp}/100 with zero violations "
                         f"and the gr bound pathwise; alpha identities exact; "
                         f"{elapsed:.0f}s")


# -------------------------------------------------------------------------
def test_criterion_9_thin_rectangle_decomposition():
    """Exact partition, 1000 random rectangles per N in 2..6, and the
    sum |t|^(1/2) <= C_(1/2) |r|^(1/2) bound with the closed-form constant."""
    t0 = time.time()
    c_half = thin_sum_constant(0.5)
    series = sum(4 * (m + 1) * 2.0 ** (-0.5 * m) for m in range(600))
    assert abs(c_half - series) <= 1e-10
    worst_ratio = 0.0
    for N in (2, 3, 4, 5, 6):
        n = 2 ** N
        gen = stream(20260109, N, tag="")
        for _ in range(1000):
            w = int(gen.integers(1, n + 1))
            h = int(gen.integers(1, n + 1))
            x0 = int(gen.integers(0, n - w + 1))
            y0 = int(gen.integers(0, n - h + 1))
            r = Rect(x0, y0, w, h, N)
            parts = decompose_rectangle(r)
            # exact partition: cover counts via areas and disjointness
            cover = np.zeros((n, n), dtype=np.int16)
            for p in parts:
                pr = p.rect
                cover[pr.x0:pr.x0 + pr.w, pr.y0:pr.y0 + pr.h] += 1
            assert cover[x0:x0 + w, y0:y0 + h].min() == 1
            assert cover[x0:x0 + w, y0:y0 + h].max() == 1
            assert cover.sum() == w * h
            total = sum(math.sqrt(float(p.rect.area)) for p in parts)
            ratio = total / (c_half * math.sqrt(float(r.area)))
            worst_ratio = max(worst_ratio, ratio)
            assert ratio <= 1.0 + 1e-12
    elapsed = time.time() - t0
    ok = worst_ratio <= 1.0
    assert report(9, ok, f"5000 exact partitions; worst sum/(C sqrt(area)) = "
                         f"{worst_ratio:.3f}, C_1/2 = {c_half:.10f}, {elapsed:.0f}s")


# -------------------------------------------------------------------------
def test_criterion_10_uv_stability_trend():
    """E[|log g^u|_(1/2)^2] for pure gauge at N = 2..5, 1000 configurations
    each, max/min ratio <= 1.5, with gauge_fix as specified.

    Expected to FAIL at desk scale: the theorem's scale rule forces the
    fallback branch for every rough pure-gauge configuration at N <= 5
    (m required is ~9-13), so the measured norms are those of the raw
    axial-gauge field and grow with N.  Recorded in README section
    "Known-red acceptance criterion"; the interacting variant at N=2 runs as
    informational output.
    """
    t0 = time.time()
    r = verify_uv_stability((2, 3, 4, 5), beta=0.5, q=2.0, samples=1000,
                            alpha=0.5, seed=20260110, mode="pure")
    elapsed = time.time() - t0
    per_n = {N: v["mean"] for N, v in r.extras["per_N"].items()}
    fallback = {N: v["fallback_fraction"] for N, v in r.extras["per_N"].items()}
    detail = (f"ratio {r.estimate:.2f} (bound 1.5); per-N means "
              f"{ {k: round(v, 2) for k, v in per_n.items()} }; fallback "
              f"fractions { {k: round(v, 3) for k, v in fallback.items()} }; "
              f"{elapsed:.0f}s")
    ok = r.verdict == "pass" and elapsed < 600.0
    report(10, ok, detail)
    assert elapsed < 600.0
    assert ok, ("criterion 10 fails as analyzed in README section "
                "\"Known-red acceptance criterion\": "
                + detail)


def test_criterion_10_interacting_informational():
    """Interacting variant at N=2 (informational companion of criterion 10)."""
    r = verify_uv_stability((2,), beta=0.5, q=2.0, samples=200, alpha=0.5,
                            seed=20260111, mode="interacting",
                            method="loop-expansion")
    v = r.extras["per_N"][2]
    report("10-info", True, f"interacting N=2: E[|log g^u|^2] = "
                            f"{v['mean']:.2f} +- {v['stderr']:.2f}, fallback "
                            f"fraction {v['fallback_fraction']:.2f}")


# -------------------------------------------------------------------------
def test_criterion_11_cli_determinism(tmp_path):
    """Every CLI command re-run with the same seed is byte-identical."""
    def digest(d):
        out = {}
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as f:
                out[name] = f.read()
        return out

    cases = [
        ["lattice", "--N", "2", "--dump"],
        ["sample", "pure", "--N", "3", "--samples", "10", "--seed", "7"],
        ["sample", "interacting", "--N", "2", "--samples", "15", "--seed", "5",
         "--burn-in", "30", "--thin", "1", "--chains", "2",
         "--method", "loop-expansion"],
        ["verify", "mgf", "--N", "2", "--eta", "0.5", "--samples", "4000",
         "--seed", "3"],
    ]
    ok = True
    for i, argv in enumerate(cases):
        d1 = str(tmp_path / f"a{i}")
        d2 = str(tmp_path / f"b{i}")
        assert cli_run(argv + ["--out", d1]) == 0
        assert cli_run(argv + ["--out", d2]) == 0
        if digest(d1) != digest(d2):
            ok = False
    # gaugefix + norms on a sampled field
    fld = os.path.join(str(tmp_path / "a1"), "field.json")
    for sub in (["gaugefix", "--field", fld, "--alpha", "0.5"],
                ["norms", "--field", fld, "--alpha", "0.5"]):
        d1, d2 = str(tmp_path / ("g" + sub[0])), str(tmp_path / ("h" + sub[0]))
        assert cli_run(sub + ["--out", d1]) == 0
        assert cli_run(sub + ["--out", d2]) == 0
        if digest(d1) != digest(d2):
            ok = False
    assert report(11, ok, "all CLI outputs byte-identical under fixed seeds")
