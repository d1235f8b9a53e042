import math

import numpy as np
import pytest

from u1higgs import rng as rngmod
from u1higgs.gauge_core import psi, rect_boundary_loop
from u1higgs.gauge_fixing import flatness, gauge_fix
from u1higgs.lattice_geom import DomainError, Rect, build_lattice
from u1higgs.mc_verify import (
    ExperimentResult,
    batch_means_stderr,
    half_square_loop,
    verify_decorrelation,
    verify_flatness_moments,
    verify_mgf,
    verify_plaquette_sum_moments,
    verify_tail,
    verify_uv_stability,
)
from u1higgs.sampler import ChainConfig, PotentialSpec, sample_interacting


def test_experiment_result_verdict_guard():
    with pytest.raises(DomainError):
        ExperimentResult("x", {}, 0.0, 0.0, None, "maybe", 1, 0)
    with pytest.raises(DomainError):
        ExperimentResult("x", {}, 0.0, 0.0, 1.0, "informational", 1, 0)


def test_batch_means_on_iid():
    rng = np.random.default_rng(0)
    v = rng.normal(size=32000)
    se = batch_means_stderr(v)
    assert se == pytest.approx(1.0 / math.sqrt(32000), rel=0.3)


# ---------------------------------------------------------------- mgf

def test_mgf_eta_zero_trivial():
    r = verify_mgf(2, eta=0.0, samples=2000, seed=1)
    assert r.estimate == 1.0 and r.reference == 1.0 and r.verdict == "pass"


def test_mgf_pure_half_square():
    r = verify_mgf(3, eta=1.0, samples=60_000, seed=2)
    assert r.parameters["omega"] == pytest.approx(0.25)
    assert r.reference == pytest.approx(math.sqrt(2.0))
    assert r.verdict == "pass"


def test_mgf_eta_guard():
    with pytest.raises(DomainError):
        verify_mgf(2, eta=2.0, samples=100)  # 1/(2 omega) = 2 at omega = 1/4


def test_mgf_reproducible():
    a = verify_mgf(2, eta=0.5, samples=20_000, seed=3)
    b = verify_mgf(2, eta=0.5, samples=20_000, seed=3)
    assert a.estimate == b.estimate and a.stderr == b.stderr


def test_mgf_interacting_small():
    r = verify_mgf(2, eta=1.0, samples=1200, mode="interacting", seed=4,
                   chain_kw={"burn_in": 400, "thin": 3, "n_chains": 2})
    assert r.verdict == "pass"
    assert r.extras["gate"] == "pass" and r.extras["warnings"] == []


# ---------------------------------------------------------------- tail

def test_tail_pure():
    r = verify_tail(2, samples=60_000, seed=5, x_grid=(0.0, 0.5, 1.0, 1.5))
    assert r.verdict == "pass"
    assert r.extras["grid"][0]["bound"] == pytest.approx(math.sqrt(2.0))


def test_tail_interacting_small():
    r = verify_tail(2, samples=1200, mode="interacting", seed=6,
                    x_grid=(0.5, 1.0),
                    chain_kw={"burn_in": 400, "thin": 3, "n_chains": 2})
    assert r.verdict == "pass"


# ---------------------------------------------------------------- moments

def test_plaquette_moments_pure():
    r = verify_plaquette_sum_moments(2, samples=60_000, seed=7)
    assert r.verdict == "pass"
    q2 = next(row for row in r.extras["rows"] if row["q"] == 2)
    assert q2["matches_omega"]
    assert q2["moment"] == pytest.approx(0.25, rel=0.05)


def test_plaquette_moments_zero_variance_debug():
    # identity-forced field: all angles zero gives exactly zero moments
    geom = build_lattice(2)
    loop = half_square_loop(geom)
    from u1higgs.gauge_core import winding_vector
    w = winding_vector(loop).astype(float)
    sums = (np.zeros((10, 4, 4)) * w).sum(axis=(1, 2))
    assert np.all(sums == 0.0)


def test_plaquette_moments_interacting_small():
    r = verify_plaquette_sum_moments(2, samples=1200, mode="interacting", seed=8,
                                     chain_kw={"burn_in": 400, "thin": 3,
                                               "n_chains": 2})
    assert r.verdict == "pass" and r.extras["gate"] == "pass"
    assert all(row["ratio"] <= 1.0 for row in r.extras["rows"])


# ---------------------------------------------------------------- decorrelation

def test_decorrelation_independent():
    r = verify_decorrelation(1.0, 1.0, 0.0, 0.2)
    assert r.verdict == "pass"
    assert r.extras["factor"] == 1.0


def test_decorrelation_grid():
    # acceptance parameter grid: 5 points, 1e-8 agreement
    grid = [(1.0, 1.0, 0.5, 0.2), (1.0, 2.0, -0.7, 0.3), (0.5, 1.0, 0.3, 1.0),
            (2.0, 0.5, 0.9, 0.05), (1.5, 1.5, -1.2, 0.1)]
    for (sa, sb, sab, eta) in grid:
        r = verify_decorrelation(sa, sb, sab, eta)
        assert r.verdict == "pass", (sa, sb, sab, eta, r.extras)
        assert r.extras["relative_error"] <= 1e-8


def test_decorrelation_eta_zero_reduces_to_char_function():
    r = verify_decorrelation(1.0, 1.3, 0.4, 0.0)
    assert r.extras["E_cosB"] == pytest.approx(math.exp(-1.3 ** 2 / 2), rel=1e-10)
    assert r.extras["factor"] == pytest.approx(1.0)
    assert r.verdict == "pass"


def test_decorrelation_guards():
    with pytest.raises(DomainError):
        verify_decorrelation(1.0, 1.0, 5.0, 0.1)  # not PSD
    with pytest.raises(DomainError):
        verify_decorrelation(1.0, 1.0, 0.0, 0.6)  # eta too large


# ---------------------------------------------------------------- flatness

def test_flatness_moments_pure_small():
    r = verify_flatness_moments((2, 3), alpha=0.5, q=5, samples=40, seed=9)
    assert r.verdict == "informational"
    assert set(r.extras["per_N"]) == {2, 3}
    assert all(v["mean"] > 0 for v in r.extras["per_N"].values())


def test_flatness_moments_q_guard():
    with pytest.raises(DomainError):
        verify_flatness_moments((2,), alpha=0.5, q=3, samples=5)


def test_flatness_identity_corpus_zero():
    from u1higgs.gauge_core import GaugeField
    g = GaugeField.identity(build_lattice(3))
    assert flatness(g, 0.5).value == 0.0


# ---------------------------------------------------------------- uv stability

def test_uv_stability_small_run():
    r = verify_uv_stability((2, 3), beta=0.5, q=2.0, samples=25, seed=10)
    assert set(r.extras["per_N"]) == {2, 3}
    for v in r.extras["per_N"].values():
        assert v["mean"] > 0
        assert 0.0 <= v["fallback_fraction"] <= 1.0
    assert r.verdict in ("pass", "fail")


def test_uv_stability_beta_guard():
    with pytest.raises(DomainError):
        verify_uv_stability((2,), beta=1.5, samples=2)


def test_uv_stability_reproducible():
    a = verify_uv_stability((2,), beta=0.5, samples=10, seed=11)
    b = verify_uv_stability((2,), beta=0.5, samples=10, seed=11)
    assert a.extras["per_N"][2]["mean"] == b.extras["per_N"][2]["mean"]


@pytest.mark.parametrize("verify", [verify_flatness_moments, verify_uv_stability])
def test_interacting_scan_refuses_n_above_method_limit_before_sampling(verify, monkeypatch):
    # the default N_list reaches N=3, above the loop-expansion weight's limit
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain ran before the N limit was checked")

    monkeypatch.setattr("u1higgs.mc_verify.sample_interacting", no_chain)
    with pytest.raises(DomainError, match="loop-expansion Higgs weight limited to N <= 2"):
        verify(mode="interacting")


@pytest.mark.parametrize("verify", [verify_mgf, verify_tail, verify_plaquette_sum_moments],
                         ids=["mgf", "tail", "plaquette_sum_moments"])
def test_interacting_loop_experiment_refuses_n_above_method_limit_before_gate(verify,
                                                                              monkeypatch):
    # the pure gate used to run first, and its "fail" verdict could hide the
    # usage error; the loop-expansion weight's limit is N=2
    opened = []

    def recording_stream(seed, *indices, tag=""):
        opened.append((seed, indices, tag))
        raise AssertionError("a stream was opened before the N limit was checked")

    monkeypatch.setattr(rngmod, "stream", recording_stream)
    with pytest.raises(DomainError, match="loop-expansion Higgs weight limited to N <= 2"):
        verify(3, mode="interacting")
    assert opened == []


@pytest.mark.parametrize("verify, params, reference", [
    (verify_mgf, {"N": 2, "eta": 1.0, "omega": 0.25, "mode": "interacting"},
     math.sqrt(2.0)),
    (verify_tail, {"N": 2, "omega": 0.25, "mode": "interacting"}, None),
    (verify_plaquette_sum_moments, {"N": 2, "omega": 0.25, "mode": "interacting"}, None),
], ids=["mgf", "tail", "plaquette_sum_moments"])
def test_interacting_loop_experiment_stops_on_failed_pure_gate(verify, params, reference,
                                                               monkeypatch):
    # every pure sum far out in the tail fails each experiment's pure check
    def far_sums(geom, w, samples, seed, **kwargs):
        return np.full(samples, 10.0), 0

    def no_chain(*args, **kwargs):
        raise AssertionError("a chain ran after the pure gate failed")

    monkeypatch.setattr("u1higgs.mc_verify._pure_loop_sums", far_sums)
    monkeypatch.setattr("u1higgs.mc_verify.sample_interacting", no_chain)
    r = verify(2, samples=1200, mode="interacting", seed=4)
    assert math.isnan(r.estimate) and math.isnan(r.stderr)
    assert (r.verdict, r.sample_size, r.extras) == ("fail", 0, {"gate": "fail"})
    assert r.parameters == params
    assert r.reference == reference


def _flatness_moment(geom, X):
    return flatness(psi(geom, X), 0.5).value ** 10


def _uv_norm(geom, X):
    _, rep = gauge_fix(psi(geom, X), 0.5, betas=(0.5,))
    return rep.norms[0.5]["norm_full"] ** 2.0


@pytest.mark.parametrize("verify, statistic", [
    (verify_flatness_moments, _flatness_moment),
    (verify_uv_stability, _uv_norm),
], ids=["flatness_moments", "uv_stability"])
def test_interacting_scan_runs_one_chain_per_n(verify, statistic, monkeypatch):
    configs = []

    def one_chain(geom, pot, cfg, method):
        configs.append(cfg)
        return sample_interacting(geom, pot, cfg, method=method)

    monkeypatch.setattr("u1higgs.mc_verify.sample_interacting", one_chain)
    seed, samples = 12, 32
    r = verify((1, 2), samples=samples, seed=seed, mode="interacting")
    assert [cfg.n_chains for cfg in configs] == [1, 1]
    # chain 0 does not depend on how many chains run beside it
    for N in (1, 2):
        cfg = ChainConfig(samples=samples, seed=rngmod.spawn_seed(seed, N),
                          burn_in=500, thin=4, n_chains=2)
        geom = build_lattice(N)
        X0 = sample_interacting(geom, PotentialSpec(), cfg, method="loop-expansion").X[0]
        vals = np.array([statistic(geom, X) for X in X0])
        assert r.extras["per_N"][N]["mean"] == float(vals.mean())
        assert r.extras["per_N"][N]["stderr"] == batch_means_stderr(vals)
