"""Probability layer: exact pure-gauge sampling, the wrapped-Gaussian heat
kernel, the Higgs weight with three interchangeable estimators, and
Metropolis sampling of the interacting plaquette-angle measure.

Normalization convention for the Higgs weight: every estimator targets

    D(g) = integral over C^interior of exp(<phi, Lap_g phi> - sum V(|phi_x|))
           prod_x (2 dLeb(phi_x)),

i.e. the single-site measure is e^{-V(s) - 4 s^2} (2 s ds) x uniform angle,
matching the loop-expansion coefficients.  Only ratios and normalized
densities enter any verification, so the overall constant is conventional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import rng as rngmod
from .gauge_core import GaugeField, axial_angles, covariant_precision, psi
from .lattice_geom import DomainError, LatticeGeometry
from .loop_expansion import (
    HiggsLoopCoefficients,
    NumericalError,
    c_coeff,
    higgs_loop_coefficients,
    higgs_site_measure,
)

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# potentials
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialSpec:
    """Radial potential V(x), x >= 0, with at-least-quartic growth.

    The quartic family is V(x) = x^4 - c x^2 (the renormalized-potential
    form); custom potentials supply a callable and their stated growth
    exponent, which must be >= 4 so that e^{alpha x^2 - V} is integrable
    for every alpha.
    """

    kind: str = "quartic"
    c: float = 1.0
    func: object = None
    growth_exponent: float = 4.0

    def __post_init__(self):
        if self.kind not in ("quartic", "custom"):
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if self.kind == "custom" and self.func is None:
            raise DomainError("custom potential requires a callable")
        if self.growth_exponent < 4:
            raise DomainError("growth exponent must be >= 4")

    def evaluate(self, x: float) -> float:
        if self.kind == "quartic":
            return x ** 4 - self.c * x * x
        return float(self.func(x))

    def check_integrable(self, alpha: float, xmax: float = 60.0) -> bool:
        """e^{alpha x^2 - V(x)} decays at the tail (numeric certificate)."""
        xs = np.linspace(0.7 * xmax, xmax, 64)
        vals = alpha * xs ** 2 - np.array([self.evaluate(x) for x in xs])
        return bool(vals[-1] < vals[0] and vals[-1] < -50.0)


# --------------------------------------------------------------------------
# pure gauge theory
# --------------------------------------------------------------------------

@dataclass
class PureGaugeSample:
    X: np.ndarray          # (n, n) plaquette angles
    g: GaugeField          # axial-gauge field with g(dp) = e^{i X_p}


def sample_pure_angles(geom: LatticeGeometry, rng: np.random.Generator,
                       count: int | None = None) -> np.ndarray:
    """i.i.d. centred Gaussian plaquette angles with variance 2^-2N."""
    n = geom.n
    sigma = 2.0 ** (-geom.N)
    shape = (n, n) if count is None else (count, n, n)
    return rng.normal(0.0, sigma, size=shape)


def sample_pure(geom: LatticeGeometry, rng: np.random.Generator) -> PureGaugeSample:
    X = sample_pure_angles(geom, rng)
    return PureGaugeSample(X, psi(geom, X))


def heat_kernel_u1(x, N: int, tol: float = 1e-16):
    """Wrapped-Gaussian density on U(1) at time t = 2^-2N, period 2 pi.

    Q(x) = (2 pi t)^(-1/2) sum_n exp(-(x + 2 pi n)^2 / (2t)), normalized to
    unit mass over one period; the image sum is truncated once terms drop
    below `tol` relative to the accumulated value.
    """
    t = 4.0 ** (-N)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    norm = 1.0 / math.sqrt(TWO_PI * t)
    n = 0
    while True:
        term = np.exp(-(x + TWO_PI * n) ** 2 / (2 * t))
        if n > 0:
            term = term + np.exp(-(x - TWO_PI * n) ** 2 / (2 * t))
        out += term
        if np.all(term <= tol * np.maximum(out, 1e-300)) and n >= 1:
            break
        n += 1
    result = norm * out
    return float(result) if result.ndim == 0 else result


# --------------------------------------------------------------------------
# the Higgs weight D(g)
# --------------------------------------------------------------------------

@dataclass
class WeightEstimate:
    value: float
    stderr: float
    method: str
    ess: float | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.value <= 0.0:
            raise DomainError("Higgs weight estimates must be positive")


MC_MAX_SCALE = 6
LOOP_MAX_SCALE = 2
ESS_WARN_FRACTION = 0.1
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _complex_normals(gens, count: int, m: int) -> np.ndarray:
    """(B, count, m) standard complex normals, row b drawn from gens[b]:
    `count * m` real parts, then as many imaginary parts."""
    z = np.empty((len(gens), count, m), dtype=complex)
    for zb, g in zip(z, gens):
        zb.real, zb.imag = g.standard_normal((2, count, m)) * math.sqrt(0.5)
    return z


def _mc_log_weights(P: np.ndarray, z: np.ndarray, pot: PotentialSpec) -> np.ndarray:
    """Importance-sampling log-weights, shape (B, n_is), for a batch of
    precisions P (B, m, m) and standard complex normals z (B, n_is, m).

    Sample phi = L^-H z ~ CN(0, P^-1) with P = L L^H; its log-weight is
    log D-density minus log proposal density,
    m log(2 pi) - log det P + sum_x (|phi_x|^2 - V(|phi_x|)).
    """
    L = np.linalg.cholesky(P)
    m = P.shape[-1]
    logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2).real).sum(axis=1)
    r = np.empty(z.shape)
    for b in range(len(L)):
        phi, info = lapack.ztrtrs(L[b], z[b].T, lower=1, trans=2)
        if info:
            raise NumericalError(f"triangular solve failed (info {info})")
        r[b] = np.abs(phi.T)
    r2 = r * r
    V = r2 * r2 - pot.c * r2 if pot.kind == "quartic" else np.vectorize(pot.evaluate)(r)
    return m * math.log(TWO_PI) - logdet[:, None] + (r2 - V).sum(axis=-1)


def higgs_weight_quadrature(g: GaugeField, pot: PotentialSpec) -> WeightEstimate:
    """Exact value at N = 1: the single interior site decouples from g."""
    if g.geom.N != 1:
        raise DomainError("quadrature estimator requires N = 1")
    lam = higgs_site_measure(pot)
    value = c_coeff(0, lam, "C", 1)  # 2 pi * moment(0)
    return WeightEstimate(value, 0.0, "quadrature")


def higgs_weight_mc(g: GaugeField, pot: PotentialSpec,
                    rng: np.random.Generator, n_samples: int = 4096
                    ) -> WeightEstimate:
    """Importance sampling from the complex Gaussian with precision
    I - 2^-2N Lap_g, which dominates the quadratic part of the target.

    Value, stderr and ESS come from the log-weights shifted by their
    maximum; the weights w themselves are never formed.  Raises
    `NumericalError` when the squares w^2 would leave the float range."""
    if g.geom.N > MC_MAX_SCALE:
        raise DomainError(f"MC estimator limited to N <= {MC_MAX_SCALE}")
    if n_samples < 2:
        raise DomainError("MC estimator needs at least 2 importance samples")
    P = covariant_precision(g.geom.N, g.theta_h[None], g.theta_v[None])
    log_w = _mc_log_weights(P, _complex_normals([rng], n_samples, P.shape[-1]), pot)[0]
    top = float(log_w.max())
    s = np.exp(log_w - top)
    ess = float(s.sum() ** 2 / (s ** 2).sum())
    if not 2.0 * top < _LOG_FLOAT_MAX:
        raise NumericalError(
            f"importance weights overflow at N={g.geom.N}: max log-weight {top:.4g}, "
            f"log D-hat {top + math.log(s.mean()):.4g}, ESS {ess:.3g} of {n_samples}")
    scale = math.exp(top)
    value = scale * float(s.mean())
    stderr = scale * float(s.std(ddof=1)) / math.sqrt(n_samples)
    warnings = ()
    if ess < ESS_WARN_FRACTION * n_samples:
        warnings = (f"low effective sample size: {ess:.1f} of {n_samples}",)
    return WeightEstimate(value, stderr, "monte-carlo", ess, warnings)


def higgs_weight_loop(g: GaugeField, pot: PotentialSpec, max_len: int = 8,
                      coeffs: HiggsLoopCoefficients | None = None,
                      coarse: HiggsLoopCoefficients | None = None) -> WeightEstimate:
    """Truncated positive-type expansion; the error proxy is the difference
    against the expansion truncated two orders lower."""
    if g.geom.N > LOOP_MAX_SCALE:
        raise DomainError(f"loop-expansion estimator limited to N <= {LOOP_MAX_SCALE}")
    if coeffs is None:
        coeffs = higgs_loop_coefficients(g.geom, pot, max_len)
    if coarse is None:
        coarse = higgs_loop_coefficients(g.geom, pot, max(0, max_len - 2))
    value = coeffs.evaluate(g)
    err = abs(value - coarse.evaluate(g))
    return WeightEstimate(value, err, "loop-expansion")


def higgs_weight(g: GaugeField, pot: PotentialSpec, method: str = "monte-carlo",
                 rng: np.random.Generator | None = None, **kw) -> WeightEstimate:
    if method == "quadrature":
        return higgs_weight_quadrature(g, pot)
    if method == "monte-carlo":
        if rng is None:
            rng = np.random.default_rng(0)
        return higgs_weight_mc(g, pot, rng, **kw)
    if method == "loop-expansion":
        return higgs_weight_loop(g, pot, **kw)
    raise DomainError(f"unknown Higgs weight method {method!r}")


# --------------------------------------------------------------------------
# interacting sampler
# --------------------------------------------------------------------------

@dataclass
class ChainConfig:
    samples: int                  # kept samples per chain (after thinning)
    burn_in: int = 1000
    thin: int = 4
    n_chains: int = 2
    seed: int = 0
    proposal_std: float | None = None  # default 0.5 * 2^-N, then tuned
    tune: bool = True
    n_is: int = 64                # inner importance samples (pseudo-marginal)

    def __post_init__(self):
        if self.samples <= 0 or self.burn_in < 0 or self.thin <= 0 \
                or self.n_chains <= 0 or self.n_is <= 0:
            raise DomainError("chain configuration values must be positive")


@dataclass
class ChainResult:
    X: np.ndarray                # (n_chains, samples, n, n) kept states
    acceptance: np.ndarray       # per chain
    proposal_std: float
    iat: float                   # integrated autocorrelation of sum X_p^2
    method: str
    seed: int
    warnings: tuple[str, ...] = ()

    def flat(self) -> np.ndarray:
        """(n_chains * samples, n, n)."""
        return self.X.reshape(-1, *self.X.shape[2:])


def integrated_autocorr_time(series: np.ndarray, c: float = 6.0) -> float:
    """Self-consistent windowed IAT estimate of a scalar series."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    n = len(x)
    if n < 8 or x.std() == 0.0:
        return 1.0
    acf = np.correlate(x, x, mode="full")[n - 1:] / (x @ x)
    tau = 1.0
    for window in range(1, n // 2):
        tau = 1.0 + 2.0 * acf[1:window + 1].sum()
        if window >= c * tau:
            break
    return float(max(tau, 1.0))


class _WeightModel:
    """log D-hat of a batch of plaquette-angle arrays for the Metropolis chain."""

    def __init__(self, geom, pot, method, max_len=8, n_is=64):
        self.geom, self.pot, self.method, self.n_is = geom, pot, method, n_is
        if method == "loop-expansion":
            self._coeffs = higgs_loop_coefficients(geom, pot, max_len)
            self._wmat, self._cvec = self._coeffs.weight_matrix()
        elif method == "quadrature" and geom.N != 1:
            raise DomainError("quadrature weight model requires N = 1")

    def log_weight(self, X: np.ndarray, gens) -> np.ndarray:
        """log D-hat for X of shape (..., n, n).  Monte Carlo takes a batch
        (B, n, n) and draws the importance normals of row b from gens[b];
        the other methods are deterministic and ignore `gens`."""
        if self.method in ("constant", "quadrature"):
            return np.zeros(X.shape[:-2])  # quadrature: independent of g at N = 1
        if self.method == "loop-expansion":
            flat = X.swapaxes(-1, -2).reshape(*X.shape[:-2], -1)
            vals = np.cos(flat @ self._wmat.T) @ self._cvec
            if np.any(vals <= 0.0):
                raise NumericalError("truncated loop expansion of the Higgs weight "
                                     "is not positive")
            return np.log(vals)
        P = covariant_precision(self.geom.N, *axial_angles(X))
        log_w = _mc_log_weights(P, _complex_normals(gens, self.n_is, P.shape[-1]), self.pot)
        top = log_w.max(axis=1)
        return top + np.log(np.exp(log_w - top[:, None]).mean(axis=1))


BLOCK_STEPS = 64  # chain steps drawn from one Philox stream per chain


def _run_chains(cfg, model, proposal_std):
    """Step the cfg.n_chains chains as one (B, n, n) batch.

    Chain c starts from a pure-gauge draw of stream (seed, c, tag "init"),
    which also supplies its first weight estimate.  Its steps come in
    blocks of BLOCK_STEPS, each from one stream (seed, c, block, tag
    "block"): the block's proposal increments and acceptance uniforms are
    drawn up front, then the importance normals step by step.  A chain's
    draws therefore do not depend on how many chains share the batch.
    """
    geom = model.geom
    n, B, K = geom.n, cfg.n_chains, BLOCK_STEPS
    sigma_nu2 = 4.0 ** (-geom.N)
    gens = [rngmod.stream(cfg.seed, c, tag="init") for c in range(B)]
    X = np.stack([sample_pure_angles(geom, gen) for gen in gens])
    logw = model.log_weight(X, gens)
    total = cfg.burn_in + cfg.samples * cfg.thin
    kept = np.empty((B, cfg.samples, n, n))
    accepted = np.zeros(B)
    stat = np.empty((B, total))
    sq = (X ** 2).sum(axis=(1, 2))
    for step in range(total):
        j = step % K
        if j == 0:
            gens = [rngmod.stream(cfg.seed, c, step // K, tag="block") for c in range(B)]
            steps = proposal_std * np.stack([gen.standard_normal((K, n, n)) for gen in gens],
                                            axis=1)
            log_u = np.log(np.stack([gen.random(K) for gen in gens], axis=1))
        Xp = X + steps[j]
        sq_p = (Xp ** 2).sum(axis=(1, 2))
        logw_p = model.log_weight(Xp, gens)
        acc = log_u[j] < logw_p - logw - (sq_p - sq) / (2.0 * sigma_nu2)
        X = np.where(acc[:, None, None], Xp, X)
        logw = np.where(acc, logw_p, logw)
        sq = np.where(acc, sq_p, sq)
        accepted += acc
        stat[:, step] = sq
        k = step - cfg.burn_in
        if k >= 0 and k % cfg.thin == 0:
            kept[:, k // cfg.thin] = X
    return kept, accepted / total, stat[:, cfg.burn_in:]


def tune_proposal(cfg, model) -> float:
    """Short pre-run doubling/halving the step to land in 30-50% acceptance."""
    sigma = cfg.proposal_std if cfg.proposal_std else 0.5 * 2.0 ** (-model.geom.N)
    if not cfg.tune:
        return sigma
    probe = ChainConfig(samples=60, burn_in=40, thin=1, n_chains=1,
                        seed=rngmod.spawn_seed(cfg.seed, 999), tune=False,
                        n_is=cfg.n_is)
    for _ in range(8):
        _, acc, _ = _run_chains(probe, model, sigma)
        if acc[0] < 0.30:
            sigma /= 1.5
        elif acc[0] > 0.50:
            sigma *= 1.5
        else:
            break
    return sigma


def sample_interacting(geom: LatticeGeometry, pot: PotentialSpec,
                       cfg: ChainConfig, method: str = "monte-carlo",
                       max_len: int = 8) -> ChainResult:
    """Metropolis-Hastings chain targeting the interacting plaquette-angle
    measure: Gaussian random-walk proposals, acceptance ratio
    [D(Psi X') / D(Psi X)] times the Gaussian reference ratio.

    With the stochastic weight estimator the chain is pseudo-marginal: a
    fresh unbiased estimate is drawn for every proposal and the current
    state's estimate is recycled on rejection.  `method = "constant"` is
    the debug mode whose marginal is the pure gauge measure.  One weight
    model serves the tuning pre-run and every chain; all chains step
    together as one batch (see `_run_chains`).
    """
    if method == "monte-carlo" and geom.N > 3:
        raise DomainError("default estimator chain limited to N <= 3")
    if method == "loop-expansion" and geom.N > LOOP_MAX_SCALE:
        raise DomainError("precomputed-coefficient mode limited to N <= 2")
    model = _WeightModel(geom, pot, method, max_len=max_len, n_is=cfg.n_is)
    sigma = tune_proposal(cfg, model)
    kept, acc, stat = _run_chains(cfg, model, sigma)
    iat = float(np.mean([integrated_autocorr_time(series) for series in stat]))
    warnings = ()
    if np.any(acc < 0.05) or np.any(acc > 0.95):
        warnings = (f"acceptance rate outside [0.05, 0.95]: {acc}",)
    return ChainResult(kept, acc, sigma, iat, method, cfg.seed, warnings)
