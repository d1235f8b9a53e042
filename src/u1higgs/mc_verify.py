"""Experiment harness for the quantitative statements: MGF identity and
diamagnetic inequality, Gaussian tails and moments, plaquette-sum moment
bounds, the decorrelation identity, flatness moments, and the UV-stability
trend of the gauge-fixed norms.

Every experiment is a pure function of its parameters and seed; standard
errors come from batch means with at least 32 batches; inequality verdicts
are one-sided with a 3-standard-error buffer, equality verdicts two-sided.
Wrap events (a configuration with some |X_p| >= pi) are counted and
reported separately, never silently folded into estimates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import rng as rngmod
from .gauge_core import (LatticeLoop, omega, psi, rect_boundary_loop, winding_vector,
                         wrap_angle)
from .gauge_fixing import flatness, gauge_fix
from .lattice_geom import DomainError, Rect, build_lattice
from .sampler import (ChainConfig, PotentialSpec, check_weight_method, sample_interacting,
                      sample_pure_angles)

N_BATCHES = 32
PURE_BATCH = 20_000  # pure-gauge samples drawn per array in _pure_loop_sums
SIGMA_POLICY = 3.0
# calibration-derived bound constant for the plaquette-sum moment shape
# E|sum l(p) log g(dp)|^q <= (C q sqrt(omega))^q; pure-gauge values of the
# ratio are 0.5 (q=2) and 3^(1/4)/4 ~ 0.33 (q=4), frozen with margin
PLAQ_SUM_C = 1.0


@dataclass
class ExperimentResult:
    name: str
    parameters: dict
    estimate: float
    stderr: float
    reference: float | None
    verdict: str  # 'pass' | 'fail' | 'informational'
    sample_size: int
    seed: int
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in ("pass", "fail", "informational"):
            raise DomainError(f"bad verdict {self.verdict!r}")
        if self.verdict == "informational" and self.reference is not None:
            # informational results carry no reference value
            raise DomainError("informational results must not carry a reference")

    def to_json_dict(self) -> dict:
        return _plain(asdict(self))


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def batch_means_stderr(values: np.ndarray) -> float:
    """Standard error of the mean via N_BATCHES batch means."""
    v = np.asarray(values, dtype=float)
    n = len(v) - (len(v) % N_BATCHES)
    if n < N_BATCHES:
        return float(v.std(ddof=1) / math.sqrt(max(len(v), 2)))
    means = v[:n].reshape(N_BATCHES, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(N_BATCHES))


def half_square_loop(geom) -> LatticeLoop:
    """Boundary of [0, 1/2]^2 (omega = 1/4)."""
    h = geom.n // 2
    return rect_boundary_loop(geom, Rect(0, 0, h, h, geom.N))


def _pure_loop_sums(geom, w, samples, seed, wrapped=False):
    """Stream pure-gauge samples; returns (sums, wrap_event_count)."""
    gen = rngmod.stream(seed, geom.N, tag="")
    out = np.empty(samples)
    wraps = 0
    done = 0
    while done < samples:
        m = min(PURE_BATCH, samples - done)
        X = sample_pure_angles(geom, gen, count=m)
        wraps += int((np.abs(X) >= np.pi).any(axis=(1, 2)).sum())
        Y = wrap_angle(X) if wrapped else X
        out[done:done + m] = (Y * w[None, :, :]).sum(axis=(1, 2))
        done += m
    return out, wraps


def _check_mode(mode):
    if mode not in ("pure", "interacting"):
        raise DomainError(f"unknown mode {mode!r}")


def _check_chain_scales(mode, N_list, method):
    """Refuse, before any chain runs, an interacting scan over an N that
    `method` cannot weigh."""
    if mode == "interacting":
        for N in N_list:
            check_weight_method(method, N)


def _loop_setup(N, loop, mode, method):
    """(geom, loop, omega, winding weights); the loop defaults to the half square.
    An interacting run's weight method and N are checked before the pure gate."""
    _check_mode(mode)
    _check_chain_scales(mode, (N,), method)
    geom = build_lattice(N)
    if loop is None:
        loop = half_square_loop(geom)
    return geom, loop, omega(loop), winding_vector(loop).astype(float)


def _loop_sums(verify, arg, geom, loop, w, samples, mode, seed, pot, method,
               chain_kw, wrapped=False):
    """(sums, extras, chain result or None).  Interacting mode first gates on
    `verify` itself in pure mode at a tenth of the samples; None if it fails."""
    if mode == "pure":
        sums, wraps = _pure_loop_sums(geom, w, samples, seed, wrapped=wrapped)
        return sums, {"wrap_events": wraps}, None
    gate = verify(geom.N, loop, arg, max(2000, samples // 10), "pure",
                  rngmod.spawn_seed(seed, 1))
    if gate.verdict == "fail":
        return None
    cfg = ChainConfig(samples=samples, seed=seed,
                      **(chain_kw or {"burn_in": 1000, "thin": 4, "n_chains": 4}))
    res = sample_interacting(geom, pot, cfg, method=method)
    X = res.flat()
    Y = wrap_angle(X) if wrapped else X
    sums = (Y * w[None, :, :]).sum(axis=(1, 2))
    wraps = int((np.abs(X) >= np.pi).any(axis=(1, 2)).sum())
    return sums, {"gate": "pass", "wrap_events": wraps, "iat": res.iat,
                  "warnings": list(res.warnings)}, res


def verify_mgf(N: int, loop: LatticeLoop | None = None, eta: float = 1.0,
               samples: int = 100_000, mode: str = "pure", seed: int = 0,
               pot: PotentialSpec = PotentialSpec(), method: str = "loop-expansion",
               chain_kw: dict | None = None) -> ExperimentResult:
    """Pure gauge: E e^{eta B^2} equals (1 - 2 eta omega)^(-1/2) (two-sided).
    Interacting: E e^{eta A^2} is bounded by the same closed form (one-sided).
    """
    geom, loop, om, w = _loop_setup(N, loop, mode, method)
    if not (0 <= eta < 0.5 / om):
        raise DomainError(f"eta = {eta} outside [0, 1/(2 omega)) with omega = {om}")
    reference = (1.0 - 2.0 * eta * om) ** (-0.5)
    params = {"N": N, "eta": eta, "omega": om, "mode": mode}
    got = _loop_sums(verify_mgf, eta, geom, loop, w, samples, mode, seed, pot,
                     method, chain_kw)
    if got is None:
        return ExperimentResult("mgf", params, math.nan, math.nan, reference, "fail",
                                0, seed, {"gate": "fail"})
    sums, extras, res = got
    vals = np.exp(eta * sums ** 2)
    est, se = float(vals.mean()), batch_means_stderr(vals)
    if mode == "pure":
        verdict = "pass" if abs(est - reference) <= SIGMA_POLICY * se else "fail"
    else:
        se *= math.sqrt(max(res.iat, 1.0))
        verdict = "pass" if est <= reference + SIGMA_POLICY * se else "fail"
        extras["acceptance"] = res.acceptance.tolist()
    return ExperimentResult("mgf", params, est, se, reference, verdict,
                            len(sums), seed, extras)


def verify_tail(N: int, loop: LatticeLoop | None = None,
                x_grid=(0.0, 0.5, 1.0, 1.5), samples: int = 100_000,
                mode: str = "pure", seed: int = 0,
                pot: PotentialSpec = PotentialSpec(),
                method: str = "loop-expansion",
                chain_kw: dict | None = None) -> ExperimentResult:
    """P[|A| >= x] <= sqrt(2) e^{-x^2/(4 omega)} at every grid point
    (one-sided with binomial buffer); the pure mode also cross-checks the
    exact Gaussian tail."""
    geom, loop, om, w = _loop_setup(N, loop, mode, method)
    params = {"N": N, "omega": om, "mode": mode}
    got = _loop_sums(verify_tail, x_grid, geom, loop, w, samples, mode, seed,
                     pot, method, chain_kw)
    if got is None:
        return ExperimentResult("tail", params, math.nan, math.nan, None, "fail", 0,
                                seed, {"gate": "fail"})
    sums, extras, _ = got
    rows = []
    ok = True
    for x in x_grid:
        p = float((np.abs(sums) >= x).mean())
        se = math.sqrt(max(p * (1 - p), 1e-12) / len(sums))
        bound = math.sqrt(2.0) * math.exp(-x * x / (4.0 * om))
        passed = p <= bound + SIGMA_POLICY * se
        row = {"x": x, "p": p, "stderr": se, "bound": bound, "pass": passed}
        if mode == "pure":
            from scipy import stats  # loaded on first use: about 0.5 s
            exact = 2.0 * stats.norm.sf(x / math.sqrt(om))
            row["exact_gaussian"] = exact
            passed = passed and abs(p - exact) <= 4.0 * se + 1e-12
            row["pass"] = passed
        ok = ok and passed
        rows.append(row)
    extras["grid"] = rows
    worst = max(rows, key=lambda r: r["p"] - r["bound"])
    return ExperimentResult("tail", params, worst["p"], worst["stderr"],
                            worst["bound"], "pass" if ok else "fail", len(sums),
                            seed, extras)


def verify_plaquette_sum_moments(N: int, loop: LatticeLoop | None = None,
                                 q_list=(2, 4), samples: int = 100_000,
                                 mode: str = "pure", seed: int = 0,
                                 pot: PotentialSpec = PotentialSpec(),
                                 method: str = "loop-expansion",
                                 chain_kw: dict | None = None) -> ExperimentResult:
    """E |sum_p l(p) log g(dp)|^q against the bound shape (C q sqrt(omega))^q
    with the calibration constant; the q = 2 pure value also checks omega.
    Growth in q is reported as a diagnostic."""
    geom, loop, om, w = _loop_setup(N, loop, mode, method)
    params = {"N": N, "omega": om, "mode": mode}
    # log g(dp) is the wrapped plaquette angle
    got = _loop_sums(verify_plaquette_sum_moments, q_list, geom, loop, w, samples,
                     mode, seed, pot, method, chain_kw, wrapped=True)
    if got is None:
        return ExperimentResult("plaquette_sum_moments", params, math.nan, math.nan,
                                None, "fail", 0, seed, {"gate": "fail"})
    sums, extras, _ = got
    rows = []
    ok = True
    for q in q_list:
        vals = np.abs(sums) ** q
        est = float(vals.mean())
        se = batch_means_stderr(vals)
        ratio = est ** (1.0 / q) / (q * math.sqrt(om))
        passed = ratio <= PLAQ_SUM_C
        rows.append({"q": q, "moment": est, "stderr": se, "ratio": ratio,
                     "pass": passed})
        ok = ok and passed
    if mode == "pure" and 2 in q_list:
        row = next(r for r in rows if r["q"] == 2)
        two_sided = abs(row["moment"] - om) <= 4.0 * row["stderr"]
        row["matches_omega"] = two_sided
        ok = ok and two_sided
    extras["rows"] = rows
    return ExperimentResult(
        "plaquette_sum_moments", {**params, "C": PLAQ_SUM_C}, rows[0]["moment"],
        rows[0]["stderr"], om if mode == "pure" else None,
        "pass" if ok else "fail", len(sums), seed, extras)


def verify_decorrelation(sigmaA: float, sigmaB: float, sigmaAB: float,
                         eta: float, nodes: int = 140,
                         rtol: float = 1e-8) -> ExperimentResult:
    """Both sides of E[e^{eta A^2} cos B] = exp[(sAB^2 / 2 sA^2)
    (1 - 1/(1 - 2 eta sA^2))] E[e^{eta A^2}] E[cos B], each evaluated by
    Gauss-Hermite quadrature."""
    cov = np.array([[sigmaA ** 2, sigmaAB], [sigmaAB, sigmaB ** 2]])
    if np.linalg.eigvalsh(cov).min() < -1e-12:
        raise DomainError("covariance matrix is not positive semi-definite")
    if not eta < 0.5 / sigmaA ** 2:
        raise DomainError("eta out of range")
    L = np.linalg.cholesky(cov + 1e-15 * np.eye(2))
    x, wgt = np.polynomial.hermite.hermgauss(nodes)
    z = math.sqrt(2.0) * x
    wn = wgt / math.sqrt(math.pi)
    z1, z2 = np.meshgrid(z, z, indexing="ij")
    w2 = np.outer(wn, wn)
    A = L[0, 0] * z1
    B = L[1, 0] * z1 + L[1, 1] * z2
    lhs = float((np.exp(eta * A ** 2) * np.cos(B) * w2).sum())
    e_eta = float((np.exp(eta * (L[0, 0] * z) ** 2) * wn).sum())
    e_cos = float((np.cos(sigmaB * z) * wn).sum())
    factor = math.exp((sigmaAB ** 2 / (2 * sigmaA ** 2))
                      * (1.0 - 1.0 / (1.0 - 2.0 * eta * sigmaA ** 2)))
    rhs = factor * e_eta * e_cos
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    verdict = "pass" if rel <= rtol else "fail"
    return ExperimentResult(
        "decorrelation",
        {"sigmaA": sigmaA, "sigmaB": sigmaB, "sigmaAB": sigmaAB, "eta": eta},
        lhs, 0.0, rhs, verdict, nodes * nodes, 0,
        {"relative_error": rel, "factor": factor,
         "E_exp_etaA2": e_eta, "E_cosB": e_cos})


def _scan_configs(N, samples, seed, mode, pot, method):
    """(geom, configurations) at one N of a per-N scan: independent
    pure-gauge draws, or the kept states of one interacting chain."""
    geom = build_lattice(N)
    if mode == "pure":
        gen = rngmod.stream(seed, N, tag="")
        return geom, (sample_pure_angles(geom, gen) for _ in range(samples))
    cfg = ChainConfig(samples=samples, seed=rngmod.spawn_seed(seed, N),
                      burn_in=500, thin=4, n_chains=1)
    return geom, sample_interacting(geom, pot, cfg, method=method).X[0]


def verify_flatness_moments(N_list=(2, 3, 4), alpha: float = 0.5, q: int = 5,
                            samples: int = 200, seed: int = 0,
                            mode: str = "pure",
                            pot: PotentialSpec = PotentialSpec(),
                            method: str = "loop-expansion") -> ExperimentResult:
    """E[[g]_alpha^{2q}] across N; informational boundedness diagnostic
    (flagged when max over N exceeds twice the min)."""
    _check_mode(mode)
    if not (0 <= alpha < 1 and q > 2.0 / (1.0 - alpha)):
        raise DomainError("need alpha in [0,1) and q > 2/(1-alpha)")
    _check_chain_scales(mode, N_list, method)
    per_n = {}
    for N in N_list:
        geom, configs = _scan_configs(N, samples, seed, mode, pot, method)
        vals = np.array([flatness(psi(geom, X), alpha).value ** (2 * q)
                         for X in configs])
        per_n[N] = {"mean": float(vals.mean()),
                    "stderr": batch_means_stderr(vals)}
    means = [per_n[N]["mean"] for N in N_list]
    ratio = max(means) / max(min(means), 1e-300)
    return ExperimentResult(
        "flatness_moments",
        {"N_list": list(N_list), "alpha": alpha, "q": q, "mode": mode},
        means[-1], per_n[N_list[-1]]["stderr"], None, "informational",
        samples * len(N_list), seed,
        {"per_N": per_n, "max_over_min": ratio, "bounded_flag": ratio <= 2.0})


def verify_uv_stability(N_list=(2, 3, 4, 5), beta: float = 0.5, q: float = 2.0,
                        samples: int = 1000, alpha: float = 0.5, seed: int = 0,
                        mode: str = "pure",
                        pot: PotentialSpec = PotentialSpec(),
                        method: str = "loop-expansion",
                        ratio_bound: float = 1.5) -> ExperimentResult:
    """E[ |log g^u|_beta^q ] across N for gauge-fixed fields; verdict is the
    property-based boundedness check max/min <= ratio_bound.  The fallback
    frequency (theorem scale m exceeding N) is monitored per N."""
    _check_mode(mode)
    if not (0.0 < beta < 1.0):
        raise DomainError("beta must be in (0, 1)")
    _check_chain_scales(mode, N_list, method)
    per_n = {}
    for N in N_list:
        geom, configs = _scan_configs(N, samples, seed, mode, pot, method)
        vals = np.empty(samples)
        fallbacks = 0
        for i, X in enumerate(configs):
            _, rep = gauge_fix(psi(geom, X), alpha, betas=(beta,))
            fallbacks += int(rep.fallback)
            vals[i] = rep.norms[beta]["norm_full"] ** q
        per_n[N] = {"mean": float(vals.mean()),
                    "stderr": batch_means_stderr(vals),
                    "fallback_fraction": fallbacks / samples}
    means = [per_n[N]["mean"] for N in N_list]
    ratio = max(means) / max(min(means), 1e-300)
    verdict = "pass" if ratio <= ratio_bound else "fail"
    return ExperimentResult(
        "uv_stability",
        {"N_list": list(N_list), "beta": beta, "q": q, "alpha": alpha,
         "mode": mode, "ratio_bound": ratio_bound},
        ratio, 0.0, ratio_bound, verdict, samples * len(N_list), seed,
        {"per_N": per_n})


EXPERIMENTS = {
    "mgf": verify_mgf,
    "tail": verify_tail,
    "plaquette-moments": verify_plaquette_sum_moments,
    "decorrelation": verify_decorrelation,
    "flatness-moments": verify_flatness_moments,
    "uv-stability": verify_uv_stability,
}
