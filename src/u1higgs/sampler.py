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

from . import rng as rngmod
from .gauge_core import GaugeField, covariant_laplacian, psi
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


def _interior_precision(g: GaugeField) -> tuple[np.ndarray, int]:
    """P = I - 2^-2N Lap_g (positive definite Hermitian) and the interior size."""
    H = covariant_laplacian(g)
    m = H.shape[0]
    A = -(4.0 ** (-g.geom.N)) * H
    return np.eye(m) + A, m


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
    I - 2^-2N Lap_g, which dominates the quadratic part of the target."""
    if g.geom.N > MC_MAX_SCALE:
        raise DomainError(f"MC estimator limited to N <= {MC_MAX_SCALE}")
    P, m = _interior_precision(g)
    L = np.linalg.cholesky(P)
    logdet = 2.0 * float(np.log(np.diag(L).real).sum())
    z = (rng.normal(size=(n_samples, m)) + 1j * rng.normal(size=(n_samples, m))) \
        / math.sqrt(2.0)
    phi = np.linalg.solve(L.conj().T, z.T).T  # rows ~ CN(0, P^-1)
    r = np.abs(phi)
    V = r ** 4 - pot.c * r ** 2 if pot.kind == "quartic" else \
        np.vectorize(pot.evaluate)(r)
    log_w = (m * math.log(TWO_PI) - logdet
             + (r ** 2 - V).sum(axis=1))
    w = np.exp(log_w)
    value = float(w.mean())
    stderr = float(w.std(ddof=1) / math.sqrt(n_samples))
    ess = float(w.sum() ** 2 / (w ** 2).sum())
    if not (math.isfinite(value) and math.isfinite(stderr) and math.isfinite(ess)):
        raise NumericalError(
            f"importance weights overflow at N={g.geom.N}: value {value:.3g}, "
            f"stderr {stderr:.3g}, ESS {ess:.3g} of {n_samples}")
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
    """Per-proposal weight evaluation for the Metropolis chain."""

    def __init__(self, geom, pot, method, max_len=8, n_is=64):
        self.geom, self.pot, self.method, self.n_is = geom, pot, method, n_is
        self.stochastic = method == "monte-carlo"
        if method == "loop-expansion":
            self._coeffs = higgs_loop_coefficients(geom, pot, max_len)
            self._wmat, self._cvec = self._coeffs.weight_matrix()
        elif method == "quadrature" and geom.N != 1:
            raise DomainError("quadrature weight model requires N = 1")

    def log_weight(self, X: np.ndarray, rng: np.random.Generator | None) -> float:
        if self.method == "constant":
            return 0.0
        if self.method == "quadrature":
            return 0.0  # independent of g at N = 1: cancels in ratios
        if self.method == "loop-expansion":
            vals = self._wmat @ X.T.reshape(-1)
            return math.log(float(self._cvec @ np.cos(vals)))
        est = higgs_weight_mc(psi(self.geom, X), self.pot, rng, self.n_is)
        return math.log(est.value)


def _run_chain(cfg, model, chain_idx, proposal_std):
    geom = model.geom
    n = geom.n
    sigma_nu2 = 4.0 ** (-geom.N)
    init_rng = rngmod.stream(cfg.seed, chain_idx, tag="init")
    X = sample_pure_angles(geom, init_rng)
    logw = model.log_weight(X, rngmod.stream(cfg.seed, chain_idx, 0, tag="weight"))
    kept = np.empty((cfg.samples, n, n))
    accepted = 0
    total = cfg.burn_in + cfg.samples * cfg.thin
    stat = np.empty(total)
    for step in range(total):
        prop_rng = rngmod.stream(cfg.seed, chain_idx, step, tag="proposal")
        Xp = X + proposal_std * prop_rng.normal(size=(n, n))
        logw_p = model.log_weight(
            Xp, rngmod.stream(cfg.seed, chain_idx, step + 1, tag="weight"))
        log_ratio = (logw_p - logw
                     - ((Xp ** 2).sum() - (X ** 2).sum()) / (2.0 * sigma_nu2))
        u = rngmod.stream(cfg.seed, chain_idx, step, tag="accept").uniform()
        if math.log(u) < log_ratio:
            X, logw = Xp, logw_p
            accepted += 1
        stat[step] = (X ** 2).sum()
        k = step - cfg.burn_in
        if k >= 0 and (k % cfg.thin) == 0 and k // cfg.thin < cfg.samples:
            kept[k // cfg.thin] = X
    return kept, accepted / total, stat[cfg.burn_in:]


def tune_proposal(cfg, model) -> float:
    """Short pre-run doubling/halving the step to land in 30-50% acceptance."""
    sigma = cfg.proposal_std if cfg.proposal_std else 0.5 * 2.0 ** (-model.geom.N)
    if not cfg.tune:
        return sigma
    probe = ChainConfig(samples=60, burn_in=40, thin=1, n_chains=1,
                        seed=rngmod.spawn_seed(cfg.seed, 999), tune=False,
                        n_is=cfg.n_is)
    for _ in range(8):
        _, acc, _ = _run_chain(probe, model, 0, sigma)
        if acc < 0.30:
            sigma /= 1.5
        elif acc > 0.50:
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
    model serves the tuning pre-run and every chain.
    """
    if method == "monte-carlo" and geom.N > 3:
        raise DomainError("default estimator chain limited to N <= 3")
    if method == "loop-expansion" and geom.N > LOOP_MAX_SCALE:
        raise DomainError("precomputed-coefficient mode limited to N <= 2")
    model = _WeightModel(geom, pot, method, max_len=max_len, n_is=cfg.n_is)
    sigma = tune_proposal(cfg, model)
    results = [_run_chain(cfg, model, c, sigma) for c in range(cfg.n_chains)]
    kept = np.stack([r[0] for r in results])
    acc = np.array([r[1] for r in results])
    iat = float(np.mean([integrated_autocorr_time(r[2]) for r in results]))
    warnings = ()
    if np.any(acc < 0.05) or np.any(acc > 0.95):
        warnings = (f"acceptance rate outside [0.05, 0.95]: {acc}",)
    return ChainResult(kept, acc, sigma, iat, method, cfg.seed, warnings)
