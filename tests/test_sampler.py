import hashlib
import itertools
import json
import math
import os

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy import integrate, special, stats
from scipy.linalg.lapack import ztrtrs

from u1higgs import rng as rng_module
from u1higgs import sampler as sampler_module
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
from u1higgs.loop_expansion import (
    NumericalError,
    c_coeff,
    higgs_loop_coefficients,
    higgs_site_measure,
)
from u1higgs.rng import spawn_seed, stream
from u1higgs.sampler import (
    BLOCK_STEPS,
    MC_MAX_SCALE,
    WEIGHT_METHODS,
    ChainConfig,
    PotentialSpec,
    WeightEstimate,
    heat_kernel_u1,
    higgs_weight,
    higgs_weight_mc,
    integrated_autocorr_time,
    sample_interacting,
    sample_pure_angles,
)
from u1higgs.sampler import TWO_PI, _WeightModel

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


def test_potential_guards():
    with pytest.raises(DomainError):
        PotentialSpec("custom")
    with pytest.raises(DomainError):
        PotentialSpec("quartic", growth_exponent=2.0)


@pytest.mark.parametrize("kw", [{"c": math.nan}, {"c": math.inf}, {"c": -math.inf},
                                {"growth_exponent": math.nan},
                                {"growth_exponent": math.inf}])
def test_potential_refuses_nonfinite_parameters(kw):
    # a nan c made every log-weight nan, and `log_u < nan` silently
    # rejected every proposal
    with pytest.raises(DomainError, match="finite"):
        PotentialSpec("quartic", **kw)


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
    X = sample_pure_angles(geom, stream(2))
    np.testing.assert_allclose(psi(geom, X).plaquette_angles(), X, atol=1e-12)


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

def _one_site_weight(pot):
    """D(g) at N = 1: the one-site integral c_0, 2 pi times moment 0."""
    return c_coeff(0, higgs_site_measure(pot), "C", 1)


@pytest.mark.parametrize("pot", [QUARTIC, PotentialSpec(c=4.0), PotentialSpec(c=-2.0),
                                 PotentialSpec("custom", func=lambda x: x ** 6 + x ** 4,
                                               growth_exponent=6.0)],
                         ids=["c1", "c4", "c-2", "x6+x4"])
def test_loop_expansion_weight_is_exact_at_n1(pot):
    # one interior site and no interior bond: the expansion has no loop, so
    # it is the one-site integral for every field, with no truncation error
    geom = build_lattice(1)
    for seed in (6, 7, 8):
        w = higgs_weight(GaugeField.random(geom, stream(seed)), pot, "loop-expansion")
        assert w.value == _one_site_weight(pot)
        assert w.stderr == 0.0


def test_quadrature_weight_n1_independent_of_g():
    geom = build_lattice(1)
    w = higgs_weight(GaugeField.random(geom, stream(6)), QUARTIC, "loop-expansion")
    w2 = higgs_weight(GaugeField.random(geom, stream(7)), QUARTIC, "loop-expansion")
    assert w.value == w2.value == _one_site_weight(QUARTIC)
    assert w.stderr == 0.0
    # explicit 2D quadrature oracle: 2 * int exp(-4 s^2 - V(s)) over the plane
    oracle, _ = integrate.quad(
        lambda s: 2 * math.pi * 2 * s * math.exp(-4 * s * s - QUARTIC.evaluate(s)),
        0, 20)
    assert w.value == pytest.approx(oracle, rel=1e-9)


def test_mc_weight_agrees_with_quadrature_n1():
    geom = build_lattice(1)
    g = GaugeField.random(geom, stream(8))
    exact = _one_site_weight(QUARTIC)
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


def _no_mc_work(monkeypatch, message):
    """Make every entry into Monte Carlo weight work raise AssertionError."""
    def no_work(*args, **kwargs):
        raise AssertionError(message)

    for name in ("covariant_precision", "_MCKernel"):
        monkeypatch.setattr(sampler_module, name, no_work)
    for name in ("zpotrf", "ztrtrs"):
        monkeypatch.setattr(scipy.linalg.lapack, name, no_work)
    return no_work


def test_mc_weight_refuses_above_max_scale(monkeypatch):
    # at N=4 the importance weights leave an ESS of 1-5 of 256 and at N>=5
    # they overflow: N=4 is refused before a kernel is built or a draw made
    assert MC_MAX_SCALE == 3
    geom = build_lattice(4)
    g = psi(geom, sample_pure_angles(geom, stream(5)))
    _no_mc_work(monkeypatch, "work started above MC_MAX_SCALE")
    gen = stream(6)
    with pytest.raises(DomainError, match="N <= 3"):
        higgs_weight_mc(g, QUARTIC, gen, n_samples=256)
    assert gen.random() == stream(6).random()  # no draw was taken


# ------------------------------------------------- Monte Carlo kernel oracle

def _oracle_log_weights(P, gens, pot, n_is):
    """(B, n_is) importance log-weights of the precisions P (B, m, m), the
    normals of row b drawn from gens[b], by the expression the fused
    `_MCKernel` must reproduce bit for bit: one complex array assembled per
    row, numpy's batched Cholesky and one ztrtrs per row."""
    m = P.shape[-1]
    z = np.empty((len(gens), n_is, m), dtype=complex)
    for zb, g in zip(z, gens):
        zb.real, zb.imag = g.standard_normal((2, n_is, m)) * math.sqrt(0.5)
    L = np.linalg.cholesky(P)
    logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2).real).sum(axis=1)
    r = np.empty(z.shape)
    for b in range(len(L)):
        phi, info = ztrtrs(L[b], z[b].T, lower=1, trans=2)
        assert info == 0
        r[b] = np.abs(phi.T)
    r2 = r * r
    V = r2 * r2 - pot.c * r2 if pot.kind == "quartic" else np.vectorize(pot.evaluate)(r)
    return m * math.log(TWO_PI) - logdet[:, None] + (r2 - V).sum(axis=-1)


class _OracleKernel:
    """Drop-in for `sampler._MCKernel` built on `_oracle_log_weights`."""

    def __init__(self, N, pot, n_is):
        self.N, self.pot, self.n_is = N, pot, n_is

    def axial(self, X, gens):
        P = covariant_precision(self.N, *axial_angles(X))
        return _oracle_log_weights(P, gens, self.pot, self.n_is)

    def field(self, g, gen):
        P = covariant_precision(self.N, g.theta_h[None], g.theta_v[None])
        return _oracle_log_weights(P, [gen], self.pot, self.n_is)[0]


def _oracle_log_d(model, X, gens):
    log_w = _OracleKernel(model.geom.N, model.pot, model.n_is).axial(X, gens)
    top = log_w.max(axis=1)
    return top + np.log(np.exp(log_w - top[:, None]).mean(axis=1))


@pytest.mark.parametrize("N, n_is, c", itertools.product((1, 2, 3), (2, 64, 512),
                                                         (0.9, 1.0, 3.0)))
def test_mc_kernel_log_weight_equals_oracle(N, n_is, c):
    # every batch size, twice each, so that reused work buffers are covered;
    # the angles reach well past pi, where the vertical phases need wrapping
    geom = build_lattice(N)
    model = _WeightModel(geom, PotentialSpec(c=c), "monte-carlo", n_is=n_is)
    for rep, B in itertools.product(range(2), (1, 2, 4)):
        X = stream(60, N, rep, B).normal(0.0, 0.5 + rep, size=(B, geom.n, geom.n))
        got = model.log_weight(X, [stream(61, N, rep, b) for b in range(B)])
        want = _oracle_log_d(model, X, [stream(61, N, rep, b) for b in range(B)])
        np.testing.assert_array_equal(got, want)


def test_mc_kernel_custom_potential_equals_oracle():
    # a custom potential is evaluated on |phi| itself, not on sqrt(|phi|^2)
    pot = PotentialSpec("custom", func=lambda x: x ** 4 - 0.5 * x ** 3 + math.sin(x))
    geom = build_lattice(2)
    model = _WeightModel(geom, pot, "monte-carlo", n_is=16)
    X = stream(62).normal(0.0, 0.5, size=(3, geom.n, geom.n))
    got = model.log_weight(X, [stream(63, b) for b in range(3)])
    np.testing.assert_array_equal(got, _oracle_log_d(model, X, [stream(63, b)
                                                                for b in range(3)]))


@pytest.mark.parametrize("N, n_chains", [(2, 4), (3, 2)])
def test_mc_chain_equals_oracle_chain(N, n_chains, monkeypatch):
    # the batched chains step through the same bits as the oracle kernel's
    cfg = ChainConfig(samples=25, burn_in=40, thin=2, n_chains=n_chains, seed=64, n_is=32)
    res = sample_interacting(build_lattice(N), QUARTIC, cfg, method="monte-carlo")
    monkeypatch.setattr(sampler_module, "_MCKernel", _OracleKernel)
    ref = sample_interacting(build_lattice(N), QUARTIC, cfg, method="monte-carlo")
    np.testing.assert_array_equal(res.X, ref.X)
    np.testing.assert_array_equal(res.acceptance, ref.acceptance)
    assert res.iat == ref.iat


def test_mc_chain_bits_do_not_depend_on_the_row_cap(monkeypatch):
    # a block weighed one row per kernel pass gives the same chain
    geom = build_lattice(2)
    cfg = ChainConfig(samples=20, burn_in=30, thin=2, n_chains=3, seed=66, n_is=16)
    res = sample_interacting(geom, QUARTIC, cfg, method="monte-carlo")
    monkeypatch.setattr(sampler_module, "MC_KERNEL_ELEMENTS", 1)
    ref = sample_interacting(geom, QUARTIC, cfg, method="monte-carlo")
    np.testing.assert_array_equal(res.X, ref.X)
    np.testing.assert_array_equal(res.acceptance, ref.acceptance)
    assert res.iat == ref.iat


def test_mc_kernel_work_buffers_stay_within_the_row_cap(monkeypatch):
    # one buffer set sized to MC_KERNEL_ELEMENTS serves every call: each
    # block's 128 fields at N = 3 go through zpotrf in chunks of its rows
    kernels, batches = [], []
    zpotrf = scipy.linalg.lapack.zpotrf

    class RecordingKernel(sampler_module._MCKernel):
        def __init__(self, *args):
            super().__init__(*args)
            kernels.append(self)

    def spy(a, **kwargs):
        P = kernels[-1]._buffers[0]
        offset = a.__array_interface__["data"][0] - P.__array_interface__["data"][0]
        assert 0 <= offset < P.nbytes
        row = offset // P.strides[0]
        if row == 0:
            batches.append(0)
        assert row == batches[-1]
        batches[-1] += 1
        return zpotrf(a, **kwargs)

    monkeypatch.setattr(sampler_module, "_MCKernel", RecordingKernel)
    monkeypatch.setattr(scipy.linalg.lapack, "zpotrf", spy)
    cfg = ChainConfig(samples=10, burn_in=70, thin=1, n_chains=2, seed=68, n_is=64)
    sample_interacting(build_lattice(3), QUARTIC, cfg, method="monte-carlo")
    (kernel,) = kernels
    m, n_is = kernel.m, kernel.n_is
    cap = len(kernel._buffers[0])
    assert cap * n_is * m <= sampler_module.MC_KERNEL_ELEMENTS
    # per kernel element: two normals, z, r, r2 and V; per row, one precision
    per_element = 2 * 8 + 16 + 3 * 8 + 16 * m / n_is
    assert sum(buf.nbytes for buf in kernel._buffers) \
        <= sampler_module.MC_KERNEL_ELEMENTS * per_element
    assert max(batches) == cap
    assert sum(batches) == cfg.n_chains * (1 + cfg.burn_in + cfg.samples)


def test_mc_estimate_of_non_axial_field_equals_oracle(monkeypatch):
    # higgs_weight_mc builds the precision from the field's own bond angles
    geom = build_lattice(2)
    g = apply_gauge(GaugeField.random(geom, stream(65)), GaugeTransform.random(geom, stream(66)))
    est = higgs_weight_mc(g, QUARTIC, stream(67), n_samples=300)
    monkeypatch.setattr(sampler_module, "_MCKernel", _OracleKernel)
    assert est == higgs_weight_mc(g, QUARTIC, stream(67), n_samples=300)


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
        log_w = _oracle_log_weights(P[b:b + 1], [stream(50, b)], QUARTIC, n_is)[0]
        expected = special.logsumexp(log_w) - math.log(n_is)
        assert log_d[b] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        est = higgs_weight_mc(psi(geom, X[b]), QUARTIC, stream(50, b), n_is)
        assert math.log(est.value) == pytest.approx(log_d[b], rel=1e-12, abs=1e-12)


def test_mc_vs_loop_expansion_n2():
    geom = build_lattice(2)
    g = psi(geom, sample_pure_angles(geom, stream(13)))
    mc = higgs_weight_mc(g, QUARTIC, stream(14), n_samples=40000)
    loop = higgs_weight(g, QUARTIC, "loop-expansion")
    assert abs(mc.value - loop.value) < 4 * mc.stderr + 2 * loop.stderr


@pytest.mark.parametrize("c", [1.0, 4.0])
def test_truncated_higgs_weight_is_bounded_by_positivity(c):
    """Every multiset term of the Higgs expansion is a nonnegative weight
    times cos<w, X>, so D_T(0) grows with T, D_T(0) <= D(0), and the omitted
    tail obeys |D(X) - D_T(X)| <= D(0) - D_T(0) at every field X.  Checked at
    N=2 against fixed-seed Monte Carlo estimates D-hat of 100 000 draws, at
    the zero field and at nine fields (three pure draws, unscaled and scaled
    by 4 and by 8).  At c = 4 the importance weights are so
    heavy-tailed that se(0) is of the order of D-hat(0), so there the two
    Monte Carlo bounds hold with little to spare for a wrong D_T."""
    geom = build_lattice(2)
    pot = PotentialSpec("quartic", c=c)
    zero = GaugeField.identity(geom)
    coeffs = {T: higgs_loop_coefficients(geom, pot, T) for T in (2, 4, 6, 8)}
    at_zero = [coeffs[T].evaluate(zero) for T in (2, 4, 6, 8)]
    assert at_zero == sorted(at_zero)
    mc0 = higgs_weight_mc(zero, pot, stream(32), n_samples=100_000)
    assert at_zero[-1] <= mc0.value + 3 * mc0.stderr
    delta = mc0.value - at_zero[-1]
    draws = [sample_pure_angles(geom, stream(31, k)) for k in range(3)]
    for k, g in enumerate(psi(geom, scale * X) for X in draws for scale in (1.0, 4.0, 8.0)):
        mc = higgs_weight_mc(g, pot, stream(33, k), n_samples=100_000)
        assert abs(mc.value - coeffs[8].evaluate(g)) <= delta + 3 * (mc.stderr + mc0.stderr), k


def test_weight_dispatch_and_positivity():
    geom = build_lattice(1)
    g = GaugeField.identity(geom)
    for method in ("loop-expansion", "monte-carlo"):
        w = higgs_weight(g, QUARTIC, method, rng=stream(15))
        assert isinstance(w, WeightEstimate) and w.value > 0
    assert higgs_weight(g, QUARTIC, "loop-expansion").value == _one_site_weight(QUARTIC)
    with pytest.raises(DomainError):
        higgs_weight(g, QUARTIC, "nonsense")


def test_unknown_weight_method_refused_before_any_stream(monkeypatch):
    # the chain used to run an unknown method as Monte Carlo
    opened = []

    def recording_stream(seed, *indices, tag=""):
        opened.append((seed, indices, tag))
        return stream(seed, *indices, tag=tag)

    monkeypatch.setattr(rng_module, "stream", recording_stream)
    geom = build_lattice(2)
    cfg = ChainConfig(samples=5, burn_in=5, thin=1, n_chains=2, seed=1, n_is=8)
    with pytest.raises(DomainError, match="unknown Higgs weight method"):
        sample_interacting(geom, QUARTIC, cfg, method="nonsense")
    with pytest.raises(DomainError, match="unknown Higgs weight method"):
        _WeightModel(geom, QUARTIC, "nonsense")
    assert opened == []


@pytest.mark.parametrize("method, N", [("monte-carlo", 4), ("loop-expansion", 3)])
def test_chain_and_single_field_refuse_the_same_scale(method, N, monkeypatch):
    # one scale guard serves the chain and the single-field call
    geom = build_lattice(N)
    g = psi(geom, sample_pure_angles(geom, stream(5)))
    gen = stream(6)

    no_work = _no_mc_work(monkeypatch, "work started above the method's scale limit")
    monkeypatch.setattr(sampler_module, "higgs_loop_coefficients", no_work)
    monkeypatch.setattr(rng_module, "stream", no_work)
    cfg = ChainConfig(samples=5, burn_in=1, thin=1, n_chains=1, seed=1)
    calls = [lambda: sample_interacting(geom, QUARTIC, cfg, method=method),
             lambda: higgs_weight(g, QUARTIC, method, rng=gen)]
    if method == "monte-carlo":
        calls.append(lambda: higgs_weight_mc(g, QUARTIC, gen, 256))
    messages = set()
    for call in calls:
        with pytest.raises(DomainError, match=f"N <= {N - 1}") as err:
            call()
        messages.add(str(err.value))
    assert len(messages) == 1
    assert gen.random() == stream(6).random()  # no draw was taken


def test_constant_weight_is_no_single_field_estimate():
    with pytest.raises(DomainError, match="constant"):
        higgs_weight(GaugeField.identity(build_lattice(1)), QUARTIC, "constant")


def test_weight_estimate_rejects_nonpositive():
    with pytest.raises(DomainError):
        WeightEstimate(0.0, 0.0, "loop-expansion")
    with pytest.raises(DomainError):
        WeightEstimate(-1.0, 0.0, "loop-expansion")


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_weight_estimate_rejects_nonfinite(value):
    with pytest.raises(NumericalError, match="not finite"):
        WeightEstimate(value, 0.0, "monte-carlo")


def test_mc_chain_refuses_nan_log_weight():
    # a custom potential may still return nan: the chain must stop, not
    # reject every proposal
    pot = PotentialSpec("custom", func=lambda x: math.nan)
    cfg = ChainConfig(samples=5, burn_in=5, thin=1, n_chains=2, seed=1, n_is=8)
    with pytest.raises(NumericalError, match="nan"):
        sample_interacting(build_lattice(2), pot, cfg, method="monte-carlo")


def test_loop_chain_refuses_nan_log_weight():
    geom = build_lattice(2)
    model = _WeightModel(geom, QUARTIC, "loop-expansion")
    X = sample_pure_angles(geom, stream(8), count=3)
    assert np.isfinite(model.log_weight(X, None)).all()
    model._cvec = model._cvec * math.nan
    with pytest.raises(NumericalError, match="not positive"):
        model.log_weight(X, None)


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
    assert (res.acceptance == 1.0).all() and res.warnings == ()


class _GaussianTiltModel:
    """Test-only weight: log w = -(a/2) sum X_p^2 + eps, eps ~ N(-s^2/2, s^2)
    drawn from gens[b], so e^eps is an unbiased estimate of 1.  Reweighting
    the pure law N(0, 4^-N) by w gives the exact per-plaquette target
    N(0, 1 / (4^N + a))."""

    def __init__(self, N, a, s):
        self.geom, self.a, self.s = build_lattice(N), a, s

    def log_weight(self, X, gens):
        eps = np.array([gen.normal(-0.5 * self.s ** 2, self.s) for gen in gens])
        return -0.5 * self.a * (X ** 2).sum(axis=(1, 2)) + eps


@pytest.mark.parametrize("s", [0.0, 1.5])
@pytest.mark.parametrize("N", [1, 2])
def test_chain_hits_exact_gaussian_target(N, s):
    # the one chain test whose target is far from the pure law: a wrong
    # proposal scale, a leftover Gaussian reference term, a current estimate
    # redrawn instead of recycled (biased once s > 0) or a rejected proposal
    # kept each move E X_p^2 by many standard errors.  Batches of 1500 steps
    # (two per chain) span about 8 IATs at N = 2, s = 1.5.
    a = 4.0 ** N
    model = _GaussianTiltModel(N, a, s)
    cfg = ChainConfig(samples=3000, burn_in=2000, thin=1, n_chains=16, seed=90)
    kept, _, _ = sampler_module._run_chains(cfg, model,
                                            sampler_module.tune_proposal(cfg, model))
    x2 = (kept ** 2).mean(axis=(2, 3))
    batch_means = x2.reshape(2 * cfg.n_chains, -1).mean(axis=1)
    se = batch_means.std(ddof=1) / math.sqrt(len(batch_means))
    assert abs(x2.mean() - 1.0 / (4.0 ** N + a)) < 3 * se


def _oracle_run_chains(cfg, model, proposal_std):
    """`sampler._run_chains` as a per-step loop: one `model.log_weight` call
    per step on that step's (B, n, n) proposals, the importance normals of
    chain b drawn from its block stream after the block's proposals and
    uniforms.  The block-weighed chain must reproduce it bit for bit."""
    geom = model.geom
    n, B, K = geom.n, cfg.n_chains, BLOCK_STEPS
    gens = [stream(cfg.seed, c, tag="init") for c in range(B)]
    X = np.stack([sample_pure_angles(geom, gen) for gen in gens])
    logw = model.log_weight(X, gens)
    total = cfg.burn_in + cfg.samples * cfg.thin
    kept = np.empty((B, cfg.samples, n, n))
    accepted = np.zeros(B)
    stat = np.empty((B, total))
    for step in range(total):
        j = step % K
        if j == 0:
            gens = [stream(cfg.seed, c, step // K, tag="block") for c in range(B)]
            proposals = proposal_std * np.stack([gen.standard_normal((K, n, n))
                                                 for gen in gens], axis=1)
            log_u = np.log(np.stack([gen.random(K) for gen in gens], axis=1))
        Xp = proposals[j]
        logw_p = model.log_weight(Xp, gens)
        acc = log_u[j] < logw_p - logw
        X = np.where(acc[:, None, None], Xp, X)
        logw = np.where(acc, logw_p, logw)
        accepted += acc
        stat[:, step] = (X ** 2).sum(axis=(1, 2))
        k = step - cfg.burn_in
        if k >= 0 and k % cfg.thin == 0:
            kept[:, k // cfg.thin] = X
    return kept, accepted / total, stat[:, cfg.burn_in:]


class _CountingModel:
    """A weight model that counts its `log_weight` calls."""

    def __init__(self, model):
        self.model, self.geom, self.calls = model, model.geom, 0

    def log_weight(self, X, gens):
        self.calls += 1
        return self.model.log_weight(X, gens)


@pytest.mark.parametrize("model", [
    *(pytest.param((m, 2), id=m) for m in WEIGHT_METHODS),
    pytest.param(("tilt", 2), id="gaussian-tilt"),
    pytest.param(("monte-carlo", 3), id="monte-carlo-N3")])
def test_block_chain_equals_per_step_oracle(model):
    # three blocks, the last one partial: the same kept states, acceptance
    # and statistic as the per-step loop, from one weight call per block
    # plus one for the initial states
    name, N = model
    geom = build_lattice(N)
    cfg = ChainConfig(samples=40, burn_in=70, thin=3, n_chains=3, seed=23, n_is=16)
    scale = 2.0 ** -N  # the pure-gauge law's standard deviation

    def build():
        if name == "tilt":
            return _GaussianTiltModel(N, 4.0 ** N, 1.5)
        return _WeightModel(geom, QUARTIC, name, cfg.n_is)

    counting = _CountingModel(build())
    got = sampler_module._run_chains(cfg, counting, scale)
    want = _oracle_run_chains(cfg, build(), scale)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    total = cfg.burn_in + cfg.samples * cfg.thin
    assert total % BLOCK_STEPS and counting.calls == 1 + -(-total // BLOCK_STEPS)


CHAIN_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "chain_golden.json")
GOLDEN_CHAINS = [("monte-carlo", 1), ("monte-carlo", 2), ("monte-carlo", 3),
                 ("loop-expansion", 1), ("loop-expansion", 2), ("constant", 2)]


def _chain_digest(method, N, n_chains):
    """sha256 of a chain's kept states, acceptance and IAT: 190 steps, so
    three blocks with a partial last one."""
    cfg = ChainConfig(samples=40, burn_in=70, thin=3, n_chains=n_chains, seed=29)
    res = sample_interacting(build_lattice(N), QUARTIC, cfg, method=method)
    return {key: hashlib.sha256(data).hexdigest()
            for key, data in (("X", res.X.tobytes()), ("acceptance", res.acceptance.tobytes()),
                              ("iat", repr(res.iat).encode()))}


@pytest.mark.parametrize("n_chains", [1, 3])
@pytest.mark.parametrize("method, N", GOLDEN_CHAINS)
def test_chain_bytes_match_golden(method, N, n_chains):
    # frozen hashes, recorded before the chain weighed a block per call;
    # never regenerated to get a pass
    with open(CHAIN_GOLDEN) as f:
        golden = json.load(f)
    assert _chain_digest(method, N, n_chains) == golden[f"{method}/N{N}/chains{n_chains}"]


def test_chain_determinism():
    geom = build_lattice(2)
    cfg = ChainConfig(samples=50, burn_in=20, thin=2, n_chains=2, seed=33)
    r1 = sample_interacting(geom, QUARTIC, cfg, method="loop-expansion")
    r2 = sample_interacting(geom, QUARTIC, cfg, method="loop-expansion")
    np.testing.assert_array_equal(r1.X, r2.X)
    np.testing.assert_array_equal(r1.acceptance, r2.acceptance)


@pytest.mark.parametrize("method", ["monte-carlo", "loop-expansion"])
def test_chain_streams_are_per_chain_and_block(method, monkeypatch):
    # each chain opens one "init" stream and one stream per block of steps,
    # addressed by (chain, block); chain 0 draws only from its own streams,
    # so its states do not depend on how many chains step beside it
    geom = build_lattice(2)
    kw = dict(samples=30, burn_in=20, thin=2, seed=5, n_is=16)
    total = kw["burn_in"] + kw["samples"] * kw["thin"]
    assert total > BLOCK_STEPS
    one = sample_interacting(geom, QUARTIC, ChainConfig(n_chains=1, **kw),
                             method=method)
    opened = []

    def recording_stream(seed, *indices, tag=""):
        opened.append((seed, indices, tag))
        return stream(seed, *indices, tag=tag)

    monkeypatch.setattr(rng_module, "stream", recording_stream)
    three = sample_interacting(geom, QUARTIC, ChainConfig(n_chains=3, **kw),
                               method=method)
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
    # noisy estimator must reproduce the pure-gauge second moment, which the
    # constant-weight chain samples exactly
    geom = build_lattice(1)
    cfg = ChainConfig(samples=3000, burn_in=500, thin=4, n_chains=2, seed=55,
                      n_is=16)
    noisy = sample_interacting(geom, QUARTIC, cfg, method="monte-carlo")
    exact = sample_interacting(geom, QUARTIC, cfg, method="constant")
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


def _oracle_iat(series, c=6.0):
    """integrated_autocorr_time over all n lags of np.correlate, and whether
    its window loop stopped before n // 2."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    n = len(x)
    if n < 8 or x.std() == 0.0:
        return 1.0, False
    acf = np.correlate(x, x, mode="full")[n - 1:] / (x @ x)
    tau = 1.0
    for window in range(1, n // 2):
        tau = 1.0 + 2.0 * acf[1:window + 1].sum()
        if window >= c * tau:
            return float(max(tau, 1.0)), True
    return float(max(tau, 1.0)), False


def _ar1(n, rho, seed):
    e = stream(seed).normal(size=n)
    x = np.empty(n)
    acc = 0.0
    for k in range(n):
        acc = rho * acc + e[k]
        x[k] = acc
    return x


@pytest.mark.parametrize("series, stops", [
    (np.arange(5.0), False), (np.full(40, 2.5), False), (np.arange(60.0), False),
    (_ar1(50, 0.5, 70), True), (_ar1(700, 0.95, 71), True), (_ar1(20_000, 0.99, 72), True),
    (_ar1(60_000, 0.9, 73), True)],
    ids=["n<8", "constant", "never-stops", "ar50", "ar700", "ar20000", "ar60000"])
def test_iat_equals_all_lags_oracle(series, stops):
    # the lags are computed lazily in chunks; every tau is the same float
    tau, stopped = _oracle_iat(series)
    assert stopped == stops
    assert integrated_autocorr_time(series) == tau


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
