import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from u1higgs import rng as rng_module
from u1higgs.gauge_core import (
    GaugeField,
    GaugeTransform,
    apply_gauge,
    axial_angles,
    covariant_laplacian,
    covariant_precision,
    log_u1,
    plaquette_loop,
    psi,
    rect_boundary_loop,
    winding_vector,
)
from u1higgs.lattice_geom import DomainError, Rect, build_lattice
from u1higgs.loop_expansion import NumericalError
from u1higgs.rng import spawn_seed, stream
from u1higgs.sampler import (
    BLOCK_STEPS,
    ChainConfig,
    PotentialSpec,
    WeightEstimate,
    heat_kernel_u1,
    higgs_weight,
    higgs_weight_loop,
    higgs_weight_mc,
    higgs_weight_quadrature,
    integrated_autocorr_time,
    sample_interacting,
    sample_pure,
    sample_pure_angles,
)
from u1higgs.sampler import _complex_normals, _mc_log_weights, _WeightModel

# numpy overflow or invalid-value warnings are failures: every estimator
# returns finite values or raises a typed error
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

QUARTIC = PotentialSpec("quartic", c=1.0)


# ---------------------------------------------------------------- rng streams

def test_stream_determinism_and_separation():
    a = stream(7, 0, 3, tag="proposal").normal(size=4)
    b = stream(7, 0, 3, tag="proposal").normal(size=4)
    np.testing.assert_array_equal(a, b)
    c = stream(7, 0, 4, tag="proposal").normal(size=4)
    assert not np.array_equal(a, c)
    assert spawn_seed(7, 1) != spawn_seed(7, 2)


# ---------------------------------------------------------------- potentials

def test_potential_quartic():
    assert QUARTIC.evaluate(2.0) == 16.0 - 4.0
    assert QUARTIC.check_integrable(16 * 4.0 ** 2)


def test_potential_guards():
    with pytest.raises(DomainError):
        PotentialSpec("custom")
    with pytest.raises(DomainError):
        PotentialSpec("quartic", growth_exponent=2.0)


# ---------------------------------------------------------------- pure gauge

def test_pure_variance():
    geom = build_lattice(2)
    X = sample_pure_angles(geom, stream(1, tag=""), count=100_000)
    var = X.var(axis=0)
    target = 4.0 ** (-2)
    se = target * math.sqrt(2.0 / 100_000)
    assert np.all(np.abs(var - target) < 4 * se)


def test_pure_sample_is_axial_with_given_holonomies():
    geom = build_lattice(3)
    s = sample_pure(geom, stream(2))
    np.testing.assert_allclose(s.g.plaquette_angles(), s.X, atol=1e-12)


def test_loop_sum_is_gaussian_with_variance_omega():
    # B = sum l(p) X_p is centred Gaussian with variance omega(l)
    geom = build_lattice(3)
    loop = rect_boundary_loop(geom, Rect(0, 0, 4, 4, 3))
    w = winding_vector(loop).astype(float)
    from u1higgs.gauge_core import omega
    om = omega(loop)
    assert om == pytest.approx(0.25)
    X = sample_pure_angles(geom, stream(3), count=100_000)
    B = (X * w[None, :, :]).sum(axis=(1, 2))
    assert B.mean() == pytest.approx(0.0, abs=4 * math.sqrt(om / 1e5))
    assert B.var() == pytest.approx(om, rel=0.03)


def test_pure_mgf_matches_closed_form():
    # E e^{eta B^2} = (1 - 2 eta omega)^(-1/2) at eta = 1/(4 omega)
    geom = build_lattice(2)
    loop = rect_boundary_loop(geom, Rect(0, 0, 2, 2, 2))
    w = winding_vector(loop).astype(float)
    om = 0.25
    eta = 1.0
    X = sample_pure_angles(geom, stream(4), count=200_000)
    B = (X * w[None, :, :]).sum(axis=(1, 2))
    vals = np.exp(eta * B ** 2)
    est = vals.mean()
    se = vals.std() / math.sqrt(len(vals))
    assert abs(est - math.sqrt(2.0)) < 4 * se


# ---------------------------------------------------------------- heat kernel

def test_heat_kernel_symmetry_and_normalization():
    for N in (1, 2, 3):
        xs = np.linspace(-np.pi, np.pi, 7)
        q = heat_kernel_u1(xs, N)
        q_neg = heat_kernel_u1(-xs, N)
        np.testing.assert_allclose(q, q_neg, rtol=1e-12)
        total, _ = integrate.quad(lambda x: heat_kernel_u1(x, N), -np.pi, np.pi)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_heat_kernel_matches_plaquette_distribution():
    # wrapped plaquette angles under the pure measure follow Q (chi-square GOF)
    N = 2
    geom = build_lattice(N)
    X = sample_pure_angles(geom, stream(5), count=3000)
    angles = np.asarray(log_u1(np.exp(1j * X))).reshape(-1)
    edges = np.linspace(-np.pi, np.pi, 41)
    observed, _ = np.histogram(angles, bins=edges)
    probs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        p, _ = integrate.quad(lambda x: heat_kernel_u1(x, N), lo, hi)
        probs.append(p)
    probs = np.array(probs)
    expected = probs / probs.sum() * observed.sum()
    keep = expected > 5
    chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
    pval = 1.0 - stats.chi2.cdf(chi2, keep.sum() - 1)
    assert pval > 0.01


# ---------------------------------------------------------------- Higgs weight

def test_quadrature_weight_n1_independent_of_g():
    geom = build_lattice(1)
    w = higgs_weight_quadrature(GaugeField.random(geom, stream(6)), QUARTIC)
    w2 = higgs_weight_quadrature(GaugeField.random(geom, stream(7)), QUARTIC)
    assert w.value == pytest.approx(w2.value, rel=1e-10)
    assert w.stderr == 0.0
    # explicit 2D quadrature oracle: 2 * int exp(-4 s^2 - V(s)) over the plane
    oracle, _ = integrate.quad(
        lambda s: 2 * math.pi * 2 * s * math.exp(-4 * s * s - QUARTIC.evaluate(s)),
        0, 20)
    assert w.value == pytest.approx(oracle, rel=1e-9)


def test_mc_weight_agrees_with_quadrature_n1():
    geom = build_lattice(1)
    g = GaugeField.random(geom, stream(8))
    exact = higgs_weight_quadrature(g, QUARTIC).value
    est = higgs_weight_mc(g, QUARTIC, stream(9), n_samples=20000)
    assert abs(est.value - exact) < 4 * est.stderr
    assert est.ess > 1000


def test_mc_weight_gauge_invariance():
    geom = build_lattice(2)
    rng = stream(10)
    g = GaugeField.random(geom, rng)
    u = GaugeTransform.random(geom, rng)
    a = higgs_weight_mc(g, QUARTIC, stream(11), n_samples=20000)
    b = higgs_weight_mc(apply_gauge(g, u), QUARTIC, stream(12), n_samples=20000)
    assert abs(a.value - b.value) < 4 * math.hypot(a.stderr, b.stderr)


def test_mc_weight_overflow_raises():
    # a deep double well (c=80) overflows the importance weights at N=2:
    # no inf stderr or nan ESS next to a finite-looking value
    geom = build_lattice(2)
    g = psi(geom, sample_pure_angles(geom, stream(3)))
    with pytest.raises(NumericalError, match="overflow"):
        higgs_weight_mc(g, PotentialSpec(c=80.0), stream(4), n_samples=256)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_batched_precision_and_log_weight_match_single_field(N):
    # the chain's batched precision is I - 2^-2N Lap_g of each axial field,
    # and its log D-hat is the log-mean-exp of that chain's own log-weights,
    # which higgs_weight_mc turns into its value
    geom = build_lattice(N)
    B, n_is = 3, 32
    X = stream(40 + N).normal(0.0, 0.5, size=(B, geom.n, geom.n))
    P = covariant_precision(N, *axial_angles(X))
    eye = np.eye((geom.n - 1) ** 2)
    for b in range(B):
        ref = eye - 4.0 ** (-N) * covariant_laplacian(psi(geom, X[b]))
        np.testing.assert_allclose(P[b], ref, rtol=0.0, atol=1e-15)
    model = _WeightModel(geom, QUARTIC, "monte-carlo", n_is=n_is)
    log_d = model.log_weight(X, [stream(50, b) for b in range(B)])
    for b in range(B):
        z = _complex_normals([stream(50, b)], n_is, P.shape[-1])
        log_w = _mc_log_weights(P[b:b + 1], z, QUARTIC)[0]
        expected = special.logsumexp(log_w) - math.log(n_is)
        assert log_d[b] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        est = higgs_weight_mc(psi(geom, X[b]), QUARTIC, stream(50, b), n_is)
        assert math.log(est.value) == pytest.approx(log_d[b], rel=1e-12, abs=1e-12)


def test_mc_vs_loop_expansion_n2():
    geom = build_lattice(2)
    g = psi(geom, sample_pure_angles(geom, stream(13)))
    mc = higgs_weight_mc(g, QUARTIC, stream(14), n_samples=40000)
    loop = higgs_weight_loop(g, QUARTIC, max_len=8)
    assert abs(mc.value - loop.value) < 4 * mc.stderr + 2 * loop.stderr


def test_weight_dispatch_and_positivity():
    geom = build_lattice(1)
    g = GaugeField.identity(geom)
    for method in ("quadrature", "monte-carlo"):
        w = higgs_weight(g, QUARTIC, method, rng=stream(15))
        assert isinstance(w, WeightEstimate) and w.value > 0
    with pytest.raises(DomainError):
        higgs_weight(g, QUARTIC, "nonsense")


def test_weight_estimate_rejects_nonpositive():
    with pytest.raises(DomainError):
        WeightEstimate(0.0, 0.0, "quadrature")


# ---------------------------------------------------------------- chains

def test_constant_weight_chain_matches_pure_gauge():
    # debug mode: the marginal is nu; KS test of X_p against N(0, 2^-2N)
    geom = build_lattice(2)
    cfg = ChainConfig(samples=4000, burn_in=600, thin=5, n_chains=2, seed=21)
    res = sample_interacting(geom, QUARTIC, cfg, method="constant")
    flat = res.flat()
    sigma = 2.0 ** (-geom.N)
    pvals = [stats.kstest(flat[:: 7, k1, k2], "norm", args=(0.0, sigma)).pvalue
             for (k1, k2) in [(0, 0), (1, 2), (3, 3)]]
    assert min(pvals) > 0.01
    assert 0.05 < res.acceptance.mean() < 0.95


def test_chain_determinism():
    geom = build_lattice(2)
    cfg = ChainConfig(samples=50, burn_in=20, thin=2, n_chains=2, seed=33)
    r1 = sample_interacting(geom, QUARTIC, cfg, method="loop-expansion", max_len=4)
    r2 = sample_interacting(geom, QUARTIC, cfg, method="loop-expansion", max_len=4)
    np.testing.assert_array_equal(r1.X, r2.X)
    np.testing.assert_array_equal(r1.acceptance, r2.acceptance)


@pytest.mark.parametrize("method", ["monte-carlo", "loop-expansion"])
def test_chain_streams_are_per_chain_and_block(method, monkeypatch):
    # each chain opens one "init" stream and one stream per block of steps,
    # addressed by (chain, block); chain 0 draws only from its own streams,
    # so its states do not depend on how many chains step beside it
    geom = build_lattice(2)
    kw = dict(samples=30, burn_in=20, thin=2, seed=5, tune=False,
              proposal_std=0.1, n_is=16)
    total = kw["burn_in"] + kw["samples"] * kw["thin"]
    assert total > BLOCK_STEPS
    one = sample_interacting(geom, QUARTIC, ChainConfig(n_chains=1, **kw),
                             method=method, max_len=4)
    opened = []

    def recording_stream(seed, *indices, tag=""):
        opened.append((seed, indices, tag))
        return stream(seed, *indices, tag=tag)

    monkeypatch.setattr(rng_module, "stream", recording_stream)
    three = sample_interacting(geom, QUARTIC, ChainConfig(n_chains=3, **kw),
                               method=method, max_len=4)
    blocks = -(-total // BLOCK_STEPS)
    expected = [(5, (c,), "init") for c in range(3)] \
        + [(5, (c, k), "block") for c in range(3) for k in range(blocks)]
    assert sorted(opened) == sorted(expected)
    np.testing.assert_array_equal(three.X[0], one.X[0])
    assert three.acceptance[0] == one.acceptance[0]


def test_two_seeds_agree_statistically():
    geom = build_lattice(2)
    loop = rect_boundary_loop(geom, Rect(0, 0, 2, 2, 2))
    w = winding_vector(loop).astype(float)
    ests = []
    for seed in (101, 202):
        cfg = ChainConfig(samples=1500, burn_in=400, thin=3, n_chains=2, seed=seed)
        res = sample_interacting(geom, QUARTIC, cfg, method="loop-expansion")
        A = (res.flat() * w[None, :, :]).sum(axis=(1, 2))
        vals = np.exp(A ** 2)  # eta = 1/(4 omega) = 1
        ests.append((vals.mean(), vals.std() / math.sqrt(len(vals) / res.iat)))
    diff = abs(ests[0][0] - ests[1][0])
    assert diff < 3 * math.hypot(ests[0][1], ests[1][1])


def test_pseudo_marginal_matches_exact_at_n1():
    # at N = 1 the weight is constant, so the pseudo-marginal chain with a
    # noisy estimator must reproduce the pure-gauge second moment
    geom = build_lattice(1)
    cfg = ChainConfig(samples=3000, burn_in=500, thin=4, n_chains=2, seed=55,
                      n_is=16)
    noisy = sample_interacting(geom, QUARTIC, cfg, method="monte-carlo")
    exact = sample_interacting(geom, QUARTIC, cfg, method="quadrature")
    m_noisy = (noisy.flat() ** 2).mean(axis=0)
    m_exact = (exact.flat() ** 2).mean(axis=0)
    target = 4.0 ** (-1)
    # crude combined error: 3 x the Monte Carlo scale of a chi-square mean
    tol = 6 * target * math.sqrt(2.0 / (cfg.samples * cfg.n_chains / noisy.iat))
    assert np.all(np.abs(m_noisy - m_exact) < tol)
    assert np.all(np.abs(m_exact - target) < tol)


def test_diamagnetic_inequality_small_run():
    # interacting MGF bounded by the pure-gauge closed form (short run)
    geom = build_lattice(2)
    loop = rect_boundary_loop(geom, Rect(0, 0, 2, 2, 2))
    w = winding_vector(loop).astype(float)
    cfg = ChainConfig(samples=2500, burn_in=500, thin=4, n_chains=2, seed=77)
    res = sample_interacting(geom, QUARTIC, cfg, method="loop-expansion")
    A = (res.flat() * w[None, :, :]).sum(axis=(1, 2))
    vals = np.exp(A ** 2)
    est = vals.mean()
    se = vals.std() / math.sqrt(len(vals) / max(res.iat, 1.0))
    assert est <= math.sqrt(2.0) + 3 * se


def test_iat_reasonable_on_iid_series():
    rng = np.random.default_rng(0)
    tau = integrated_autocorr_time(rng.normal(size=4000))
    assert 0.5 < tau < 2.0


def test_chain_config_guards():
    with pytest.raises(DomainError):
        ChainConfig(samples=0)
    with pytest.raises(DomainError):
        ChainConfig(samples=10, thin=0)


def test_mc_chain_scale_guard():
    geom = build_lattice(4)
    cfg = ChainConfig(samples=5, burn_in=1, thin=1, n_chains=1, seed=1)
    with pytest.raises(DomainError):
        sample_interacting(geom, QUARTIC, cfg, method="monte-carlo")
