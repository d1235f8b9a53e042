"""Probability layer: exact pure-gauge sampling, the wrapped-Gaussian heat
kernel, the Higgs weight by loop expansion (exact at N = 1, where the one
interior site carries no loop) or by Monte Carlo, and Metropolis sampling of
the interacting plaquette-angle measure.

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
from .gauge_core import GaugeField, _stencil_tables, covariant_precision, wrap_angle
from .lattice_geom import DomainError, LatticeGeometry
from .loop_expansion import HIGGS_MAX_LEN, NumericalError, higgs_loop_coefficients

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
        if not (math.isfinite(self.c) and math.isfinite(self.growth_exponent)):
            raise DomainError("potential parameters c and growth exponent must be finite")
        if self.growth_exponent < 4:
            raise DomainError("growth exponent must be >= 4")

    def evaluate(self, x: float) -> float:
        if self.kind == "quartic":
            return x ** 4 - self.c * x * x
        return float(self.func(x))


# --------------------------------------------------------------------------
# pure gauge theory
# --------------------------------------------------------------------------

def sample_pure_angles(geom: LatticeGeometry, rng: np.random.Generator,
                       count: int | None = None) -> np.ndarray:
    """i.i.d. centred Gaussian plaquette angles with variance 2^-2N."""
    n = geom.n
    sigma = 2.0 ** (-geom.N)
    shape = (n, n) if count is None else (count, n, n)
    return rng.normal(0.0, sigma, size=shape)


HEAT_KERNEL_TOL = 1e-16


def heat_kernel_u1(x, N: int):
    """Wrapped-Gaussian density on U(1) at time t = 2^-2N, period 2 pi.

    Q(x) = (2 pi t)^(-1/2) sum_n exp(-(x + 2 pi n)^2 / (2t)), normalized to
    unit mass over one period; the image sum is truncated once terms drop
    below HEAT_KERNEL_TOL relative to the accumulated value.
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
        if np.all(term <= HEAT_KERNEL_TOL * np.maximum(out, 1e-300)) and n >= 1:
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
        if not math.isfinite(self.value):
            raise NumericalError(f"Higgs weight estimate is not finite: {self.value}")
        if self.value <= 0.0:
            raise DomainError("Higgs weight estimates must be positive")


MC_MAX_SCALE = 3  # above this the importance weights give no usable estimate
LOOP_MAX_SCALE = 2
ESS_WARN_FRACTION = 0.1
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
MC_KERNEL_ELEMENTS = 1 << 14  # rows * n_is * m of the kernel's work buffers


class _MCKernel:
    """Importance-sampling log-weights, shape (B, n_is), of B fields at scale N.

    Field b's precision P = I - 2^-2N Lap_g = L L^H is factored in place by
    LAPACK's zpotrf; phi = L^-H z ~ CN(0, P^-1) for standard complex normals
    z drawn from gens[b] (n_is * m real parts, then as many imaginary parts);
    its log-weight is log D-density minus log proposal density,
    m log(2 pi) - log det P + sum_x (|phi_x|^2 - V(|phi_x|)).

    Built once per weight model: it imports SciPy's LAPACK (SciPy's linalg
    takes about 0.5 s to load), and it holds the zero field's precision as
    a template: the horizontal hops of an axial field are fixed, so a field
    needs only its vertical-bond phases written.  Each field's precision is
    stored column-major (entry (x, y) at the row-major position of (y, x)),
    so that zpotrf factors it and ztrtrs solves into the normals without a
    copy.  One set of work buffers holds as many rows as fit in
    MC_KERNEL_ELEMENTS (at least one): a batch is weighed in chunks of that
    many rows, in row order, so the generators are read as in one pass and
    the bits do not depend on the chunking.  The returned log-weights are a
    fresh array.
    """

    def __init__(self, N: int, pot: PotentialSpec, n_is: int):
        from scipy.linalg.lapack import zpotrf, ztrtrs
        self._zpotrf, self._ztrtrs = zpotrf, ztrtrs
        self.pot, self.n_is = pot, n_is
        n = 1 << N
        self.m = (n - 1) ** 2
        self._template = covariant_precision(N, np.zeros((1, n, n + 1)),
                                             np.zeros((1, n + 1, n)))[0].T.ravel()
        _, fwd, bwd, bond = _stencil_tables(n)
        vert = bond >= n * (n + 1)
        # vertical bond (k1, k2) -> (k1, k2 + 1) carries sum_{c<k1} X[c, k2],
        # the flat entry (k1 - 1) * n + k2 of the column cumsum of X
        self._vert_fwd, self._vert_bwd = bwd[vert], fwd[vert]
        self._vert_x = bond[vert] - n * (n + 2)
        rows = max(1, MC_KERNEL_ELEMENTS // (n_is * self.m))
        shape = (rows, n_is, self.m)
        self._buffers = (np.empty((rows, self.m * self.m), dtype=complex),
                         np.empty((rows, 2, n_is, self.m)),
                         np.empty(shape, dtype=complex),
                         np.empty(shape), np.empty(shape), np.empty(shape))

    def axial(self, X: np.ndarray, gens) -> np.ndarray:
        """Log-weights of the axial-gauge fields with plaquette angles X (B, n, n)."""
        cum = np.cumsum(X, axis=-2).reshape(len(X), -1)
        phase = np.exp(1j * wrap_angle(cum[:, self._vert_x]))

        def fill(P, rows):
            P[:] = self._template
            P[:, self._vert_fwd] = -1.0 * phase[rows]
            P[:, self._vert_bwd] = -1.0 * phase[rows].conj()
        return self._log_w(fill, gens)

    def field(self, g: GaugeField, gen: np.random.Generator) -> np.ndarray:
        """Log-weights (n_is,) of one field in any gauge, drawn from gen."""
        def fill(P, rows):
            P.reshape(1, self.m, self.m).transpose(0, 2, 1)[:] = \
                covariant_precision(g.geom.N, g.theta_h[None], g.theta_v[None])
        return self._log_w(fill, [gen])[0]

    def _log_w(self, fill, gens) -> np.ndarray:
        """Log-weights of len(gens) rows; fill(P, rows) writes the precisions
        of the slice `rows` of the batch into the leading rows P of the buffer."""
        m, cap = self.m, len(self._buffers[0])
        out = np.empty((len(gens), self.n_is))
        for lo in range(0, len(gens), cap):
            rows = slice(lo, lo + cap)
            chunk = gens[rows]
            P, normals, z, r, r2, V = (buf[:len(chunk)] for buf in self._buffers)
            fill(P, rows)
            for normals_b, gen in zip(normals, chunk):
                gen.standard_normal(out=normals_b)
            normals *= math.sqrt(0.5)
            z.real, z.imag = normals[:, 0], normals[:, 1]
            P = P.reshape(len(chunk), m, m).transpose(0, 2, 1)
            for b in range(len(chunk)):
                L, info = self._zpotrf(P[b], lower=1, clean=0, overwrite_a=1)
                if info:
                    raise NumericalError(f"Cholesky factorization failed (info {info})")
                _, info = self._ztrtrs(L, z[b].T, lower=1, trans=2, overwrite_b=1)
                if info:
                    raise NumericalError(f"triangular solve failed (info {info})")
            logdet = 2.0 * np.log(np.diagonal(P, axis1=1, axis2=2).real).sum(axis=1)
            np.abs(z, out=r)
            np.multiply(r, r, out=r2)
            if self.pot.kind == "quartic":
                np.multiply(r2, r2, out=V)
                np.subtract(V, np.multiply(self.pot.c, r2, out=r), out=V)
            else:
                V[:] = np.vectorize(self.pot.evaluate)(r)
            out[rows] = (m * math.log(TWO_PI) - logdet[:, None]
                         + np.subtract(r2, V, out=V).sum(axis=-1))
        return out


# method name -> largest N it accepts
WEIGHT_METHODS = {"monte-carlo": MC_MAX_SCALE, "loop-expansion": LOOP_MAX_SCALE,
                  "constant": math.inf}


def check_weight_method(method: str, N: int) -> None:
    """Raise DomainError for an unknown Higgs weight method or an N above its
    limit in WEIGHT_METHODS."""
    if method not in WEIGHT_METHODS:
        raise DomainError(f"unknown Higgs weight method {method!r}")
    if N > WEIGHT_METHODS[method]:
        raise DomainError(f"{method} Higgs weight limited to N <= {WEIGHT_METHODS[method]}")


class _WeightModel:
    """The Higgs weight by one of WEIGHT_METHODS: the chain's log D-hat of a
    batch (`log_weight`) and the single-field estimate (`estimate`).  An unknown
    method, or an N above its limit, is refused before any work.  The loop
    expansion is truncated at HIGGS_MAX_LEN."""

    def __init__(self, geom, pot, method, n_is=64):
        check_weight_method(method, geom.N)
        self.geom, self.pot, self.method, self.n_is = geom, pot, method, n_is
        if method == "loop-expansion":
            self._coeffs = higgs_loop_coefficients(geom, pot, HIGGS_MAX_LEN)
            self._wmat, self._cvec = self._coeffs.weight_matrix()
        elif method == "monte-carlo":
            self._kernel = _MCKernel(geom.N, pot, n_is)

    def log_weight(self, X: np.ndarray, gens) -> np.ndarray:
        """log D-hat for X of shape (..., n, n).  Monte Carlo takes a batch
        (B, n, n) and draws the importance normals of row b from gens[b];
        the other methods are deterministic and ignore `gens`."""
        if self.method == "constant":
            return np.zeros(X.shape[:-2])
        if self.method == "loop-expansion":
            flat = X.swapaxes(-1, -2).reshape(*X.shape[:-2], -1)
            vals = np.cos(flat @ self._wmat.T) @ self._cvec
            if not vals.min() > 0.0:  # also catches nan
                raise NumericalError("truncated loop expansion of the Higgs weight "
                                     "is not positive")
            return np.log(vals)
        log_w = self._kernel.axial(X, gens)
        top = log_w.max(axis=1)
        out = top + np.log(np.exp(log_w - top[:, None]).mean(axis=1))
        if np.isnan(out).any():
            raise NumericalError("Monte Carlo log-weight of the Higgs weight is nan")
        return out

    def estimate(self, g: GaugeField, rng: np.random.Generator | None = None
                 ) -> WeightEstimate:
        """D(g) with its error.  Only this builds the coarse loop coefficients
        of the error proxy: a chain's model does not need them."""
        if self.method == "constant":
            raise DomainError("the constant weight is a chain debug mode, not an estimator")
        if self.method == "loop-expansion":
            value = self._coeffs.evaluate(g)
            coarse = higgs_loop_coefficients(self.geom, self.pot, HIGGS_MAX_LEN - 2)
            return WeightEstimate(value, abs(value - coarse.evaluate(g)), "loop-expansion")
        n = self.n_is
        if n < 2:
            raise DomainError("MC estimator needs at least 2 importance samples")
        log_w = self._kernel.field(g, rng)
        top = float(log_w.max())
        s = np.exp(log_w - top)
        ess = float(s.sum() ** 2 / (s ** 2).sum())
        if not 2.0 * top < _LOG_FLOAT_MAX:
            raise NumericalError(
                f"importance weights overflow at N={self.geom.N}: max log-weight {top:.4g}, "
                f"log D-hat {top + math.log(s.mean()):.4g}, ESS {ess:.3g} of {n}")
        scale = math.exp(top)
        value = scale * float(s.mean())
        stderr = scale * float(s.std(ddof=1)) / math.sqrt(n)
        warnings = ()
        if ess < ESS_WARN_FRACTION * n:
            warnings = (f"low effective sample size: {ess:.1f} of {n}",)
        return WeightEstimate(value, stderr, "monte-carlo", ess, warnings)


def higgs_weight(g: GaugeField, pot: PotentialSpec, method: str = "monte-carlo",
                 rng: np.random.Generator | None = None,
                 n_samples: int = 4096) -> WeightEstimate:
    """D(g) by any method but "constant"; Monte Carlo draws from `rng` (default seed 0).

    The loop expansion is truncated at HIGGS_MAX_LEN; its error is the
    difference against the truncation two orders lower.  At N = 1 the single
    interior site carries no loop, so the expansion is the exact one-site
    integral c_0 and its error is 0.0.  Monte Carlo
    importance-samples `n_samples` draws from the complex Gaussian with
    precision I - 2^-2N Lap_g, which dominates the quadratic part of the
    target; `NumericalError` is raised where the squared weights overflow."""
    rng = np.random.default_rng(0) if rng is None else rng
    return _WeightModel(g.geom, pot, method, n_samples).estimate(g, rng)


def higgs_weight_mc(g: GaugeField, pot: PotentialSpec,
                    rng: np.random.Generator, n_samples: int = 4096
                    ) -> WeightEstimate:
    """`higgs_weight(g, pot, "monte-carlo", rng, n_samples)`."""
    return higgs_weight(g, pot, "monte-carlo", rng, n_samples)


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
    tune: bool = True             # read by nothing: perfbench's pm_chain passes it
    n_is: int = 64                # inner importance samples (pseudo-marginal)

    def __post_init__(self):
        if self.samples <= 0 or self.burn_in < 0 or self.thin <= 0 \
                or self.n_chains <= 0 or self.n_is <= 0:
            raise DomainError("chain configuration values must be positive")


@dataclass
class ChainResult:
    X: np.ndarray                # (n_chains, samples, n, n) kept states
    acceptance: np.ndarray       # per chain
    iat: float                   # integrated autocorrelation of sum X_p^2
    warnings: tuple[str, ...] = ()

    def flat(self) -> np.ndarray:
        """(n_chains * samples, n, n)."""
        return self.X.reshape(-1, *self.X.shape[2:])


IAT_LAG_CHUNK = 64  # autocorrelation lags computed per extension of the window


def integrated_autocorr_time(series: np.ndarray, c: float = 6.0) -> float:
    """Self-consistent windowed IAT estimate of a scalar series.

    The window stops near c * tau, so the autocorrelation is computed lazily,
    IAT_LAG_CHUNK lags at a time, each lag as one dot product: O(n tau)
    work instead of the O(n^2) of all n lags."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    n = len(x)
    if n < 8 or x.std() == 0.0:
        return 1.0
    norm = x @ x
    acf = np.empty(n // 2)
    filled = 0
    tau = 1.0
    for window in range(1, n // 2):
        if window >= filled:
            stop = min(filled + IAT_LAG_CHUNK, n // 2)
            acf[filled:stop] = [np.dot(x[k:], x[:n - k]) for k in range(filled, stop)]
            acf[filled:stop] /= norm
            filled = stop
        tau = 1.0 + 2.0 * acf[1:window + 1].sum()
        if window >= c * tau:
            break
    return float(max(tau, 1.0))


BLOCK_STEPS = 64  # chain steps drawn from one Philox stream per chain


def _accept_scan(logw, logw_p, log_u):
    """Metropolis-Hastings through one block, step by step in each chain.

    logw (B,) are the log-weights of the block's start states, logw_p and
    log_u (Kb, B) those of the proposals and the log-uniforms.  Returns the
    (Kb, B) state index of every step, 0 for the start state and j + 1 for
    proposal j, and the log-weights (B,) of the block's last states."""
    index = np.empty(logw_p.shape, dtype=np.intp)
    end = logw.tolist()
    for b, (lw_p, lu) in enumerate(zip(logw_p.T.tolist(), log_u.T.tolist())):
        state, lw, column = 0, end[b], []
        for j, (w, u) in enumerate(zip(lw_p, lu), start=1):
            if u < w - lw:
                state, lw = j, w
            column.append(state)
        index[:, b], end[b] = column, lw
    return index, np.array(end)


def _run_chains(cfg, model, proposal_std):
    """Step the cfg.n_chains chains as one batch of B chains.

    Proposals are independent of the current state: proposal_std times
    standard normals, which is the pure-gauge law at proposal_std = 2^-N.
    The Metropolis-Hastings ratio is then the weight ratio alone.

    Chain c starts from a pure-gauge draw of stream (seed, c, tag "init"),
    which also supplies its first weight estimate.  Its steps come in
    blocks of BLOCK_STEPS, each from one stream (seed, c, block, tag
    "block"): BLOCK_STEPS proposals and acceptance uniforms are drawn up
    front, also in a final partial block of Kb < BLOCK_STEPS steps.  Since
    no proposal depends on the chain state, the block's Kb proposals are
    then weighed in one `model.log_weight` call on their step-major
    (Kb * B, n, n) stack, with chain b's stream at every row of chain b, so
    each chain reads its importance normals in step order, as a per-step
    loop would; the Monte Carlo kernel takes the rows in capped chunks with
    the same draws and the same bits.  The accept/reject decisions follow
    as a scan over the (Kb, B) log-weights (`_accept_scan`).  A chain's
    draws do not depend on how many chains share the batch.
    """
    geom = model.geom
    n, B, K = geom.n, cfg.n_chains, BLOCK_STEPS
    gens = [rngmod.stream(cfg.seed, c, tag="init") for c in range(B)]
    X = np.stack([sample_pure_angles(geom, gen) for gen in gens])
    logw = model.log_weight(X, gens)
    total = cfg.burn_in + cfg.samples * cfg.thin
    kept = np.empty((B, cfg.samples, n, n))
    accepted = np.zeros(B)
    stat = np.empty((B, total))
    for start in range(0, total, K):
        Kb = min(K, total - start)
        gens = [rngmod.stream(cfg.seed, c, start // K, tag="block") for c in range(B)]
        proposals = proposal_std * np.stack([gen.standard_normal((K, n, n))
                                             for gen in gens], axis=1)
        log_u = np.log(np.stack([gen.random(K) for gen in gens], axis=1))
        logw_p = model.log_weight(proposals[:Kb].reshape(Kb * B, n, n), gens * Kb)
        index, logw = _accept_scan(logw, logw_p.reshape(Kb, B), log_u[:Kb])
        accepted += (index == np.arange(1, Kb + 1)[:, None]).sum(axis=0)
        states = np.concatenate([X[None], proposals[:Kb]])[index, np.arange(B)]
        stat[:, start:start + Kb] = (states ** 2).sum(axis=(2, 3)).T
        k = np.arange(start, start + Kb) - cfg.burn_in
        keep = (k >= 0) & (k % cfg.thin == 0)
        kept[:, k[keep] // cfg.thin] = states[keep].swapaxes(0, 1)
        X = states[-1]
    return kept, accepted / total, stat[:, cfg.burn_in:]


def tune_proposal(cfg, model) -> float:
    """The proposal scale 2^-N: the pure-gauge law's standard deviation.

    The independence proposal needs no tuning, so this tunes nothing; the
    name stays because perfbench/layers.py traces it."""
    return 2.0 ** -model.geom.N


def sample_interacting(geom: LatticeGeometry, pot: PotentialSpec,
                       cfg: ChainConfig, method: str = "monte-carlo") -> ChainResult:
    """Metropolis-Hastings chain targeting the interacting plaquette-angle
    measure nu_N reweighted by D(Psi X): independence proposals from the
    pure-gauge law nu_N, acceptance ratio D(Psi X') / D(Psi X).

    With the stochastic weight estimator the chain is pseudo-marginal: a
    fresh unbiased estimate is drawn for every proposal and the current
    state's estimate is recycled on rejection.  `method = "constant"` is
    the debug mode whose marginal is the pure gauge measure.  All chains
    step together as one batch (see `_run_chains`); a sticky chain, one
    accepting under 5% of its proposals, is reported in `warnings`.
    """
    model = _WeightModel(geom, pot, method, cfg.n_is)
    kept, acc, stat = _run_chains(cfg, model, tune_proposal(cfg, model))
    iat = float(np.mean([integrated_autocorr_time(series) for series in stat]))
    warnings = ()
    if np.any(acc < 0.05):
        warnings = (f"acceptance rate below 0.05: {acc}",)
    return ChainResult(kept, acc, iat, warnings)
