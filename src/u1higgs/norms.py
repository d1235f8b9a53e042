"""Holder-Besov-type norms on lattice 1-forms, and the pair-sup kernel.

A 1-form assigns a real number to every positively oriented bond.  Segment
evaluations are O(1) after a one-time prefix-sum table per lattice line.

Pair-sup kernel.  The grid norm, the rho-seminorm and the non-flatness
[g]_alpha of `gauge_fixing` are all sups over the cells of a table C of P
positions by R rows:

    sup over r and j1 < j2 of  |C[j2, r] - C[j1, r]| (op) w[L, r],  L = j2 - j1,

with (op) one of * and /, and a weight w > 0 that depends on (L, r) only.

* `norm_gr`: rows are the lines (direction, line) and C the prefix sums
  along them; the value is |d| / denom[L], denom[L] = (L 2^-N)^alpha.
* `seminorm_rho`, one table per direction: rows are the extent pairs
  j1 < j2, C[t, r] = P[t, j2] - P[t, j1] for the prefix sums P of line t,
  and the positions are the lines t; the value is
  |d| / (pow_half[L] * pow_half[j2 - j1]), pow_half[k] = (k 2^-N)^(alpha/2).
* `flatness`: rows are the column pairs x1 < x2 of the summed-area table
  S, C[y, r] = S[x2, y] - S[x1, y]; the value is
  |d| * (pow_neg[x2 - x1] * pow_neg[L]), pow_neg[k] = k^(-alpha/2).

For a fixed w > 0 the correctly rounded a*w and a/w are nondecreasing in a.
So the sup is the max over (L, r) of M[L, r] (op) w[L, r], where the table
M[L, r] = max_j |C[j+L, r] - C[j, r]| (`pair_max_table`) is built one whole
array per length L and holds no exponent: one table serves every exponent.
The value is the same float as the expression evaluated at every pair.

Ties.  The reported maximizer is the first maximizing pair in a fixed scan
order:

* `norm_gr`: direction, line, base, length;
* `seminorm_rho`: direction, line, line2, base, length;
* `flatness`: x1, x2, y1, y2.

Rounding can map a smaller |d| to the same value, so for every tied cell
(L, r) the start j is the first position whose rounded value equals the sup
(one array step per distinct tied L).  When the sup is 0 every pair ties,
and each order above starts at r = 0, j = 0, L = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .gauge_core import GaugeField, log_u1
from .lattice_geom import DomainError, LatticeGeometry, ResourceError, Segment

EXACT_PAIR_SCALE_LIMIT = 7  # N above this: exact rho-seminorm pair sweep refused


@dataclass
class OneForm:
    geom: LatticeGeometry
    h: np.ndarray  # (n, n+1): value on ('h', k1, k2)
    v: np.ndarray  # (n+1, n): value on ('v', k1, k2)
    _ph: np.ndarray | None = field(default=None, repr=False)
    _pv: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        n = self.geom.n
        if self.h.shape != (n, n + 1) or self.v.shape != (n + 1, n):
            raise DomainError("one-form array shapes do not match geometry")
        if not (np.isfinite(self.h).all() and np.isfinite(self.v).all()):
            raise DomainError("one-form values must be finite")

    @classmethod
    def zero(cls, geom: LatticeGeometry) -> "OneForm":
        n = geom.n
        return cls(geom, np.zeros((n, n + 1)), np.zeros((n + 1, n)))

    def scaled(self, c: float) -> "OneForm":
        return OneForm(self.geom, c * self.h, c * self.v)

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.geom, self.h + other.h, self.v + other.v)

    def prefix_tables(self):
        """P[t, j]: partial sums along each line; horizontal lines indexed by
        row k2 with j running over k1, vertical lines by column k1."""
        if self._ph is None:
            n = self.geom.n
            ph = np.zeros((n + 1, n + 1))
            ph[:, 1:] = np.cumsum(self.h.T, axis=1)  # [row k2, k1]
            pv = np.zeros((n + 1, n + 1))
            pv[:, 1:] = np.cumsum(self.v, axis=1)    # [column k1, k2]
            self._ph, self._pv = ph, pv
        return self._ph, self._pv


def log_oneform(g: GaugeField) -> OneForm:
    """A(b) = log g_b on every positively oriented bond, values in [-pi, pi)."""
    return OneForm(g.geom, np.asarray(log_u1(g.theta_h)), np.asarray(log_u1(g.theta_v)))


def eval_segment(A: OneForm, l: Segment) -> float:
    """Sum of bond values along `l`; zero for the empty segment."""
    if l.scale != A.geom.N:
        raise DomainError("segment scale does not match the one-form")
    if l.nbonds == 0:
        return 0.0
    ph, pv = A.prefix_tables()
    k1, k2 = l.base
    if l.direction == 1:
        return float(ph[k2, k1 + l.nbonds] - ph[k2, k1])
    return float(pv[k1, k2 + l.nbonds] - pv[k1, k2])


def eval_segment_naive(A: OneForm, l: Segment) -> float:
    """Test oracle: A summed bond by bond along l, checking `eval_segment`."""
    total = 0.0
    for (kind, k1, k2) in l.bonds():
        total += A.h[k1, k2] if kind == 'h' else A.v[k1, k2]
    return float(total)


@lru_cache(maxsize=None)
def _pairs(n: int):
    k1, k2 = np.triu_indices(n, 1)
    k1.flags.writeable = k2.flags.writeable = False
    return k1, k2


def pair_rows(T: np.ndarray):
    """Columns T[:, k2] - T[:, k1] for every k1 < k2, in (k1, k2) order,
    with the pair index arrays k1 and k2."""
    P, n1 = T.shape
    k1, k2 = _pairs(n1)
    C = np.empty((P, len(k1)))
    o = 0
    for a in range(n1 - 1):
        np.subtract(T[:, a + 1:], T[:, a:a + 1], out=C[:, o:o + n1 - 1 - a])
        o += n1 - 1 - a
    return C, k1, k2


def pair_max_table(C: np.ndarray) -> np.ndarray:
    """M[L - 1, r] = max_j |C[j + L, r] - C[j, r]| for L = 1..P-1, where C
    has shape (P, R); one whole-array step per length L."""
    P, R = C.shape
    M = np.empty((P - 1, R))
    d = np.empty((P - 1, R))
    for L in range(1, P):
        dl = d[:P - L]
        np.subtract(C[L:], C[:-L], out=dl)
        np.abs(dl, out=dl)
        dl.max(axis=0, out=M[L - 1])
    return M


def _row_first(L, r, j):
    return r, j, L


def pair_sup(C: np.ndarray, M: np.ndarray, w_len: np.ndarray, w_row: np.ndarray,
             divide: bool, key=_row_first) -> tuple[float, tuple[int, int, int]]:
    """sup over j, L, r of |C[j+L, r] - C[j, r]| * w (/ w if `divide`), with
    w = w_len[L-1] * w_row[r], from M = pair_max_table(C); and its first
    maximizer (L, r, j) in the scan order `key(L, r, j)` (a tuple of
    arrays, primary key first).

    Only tied cells are rescanned for their start j, one array step per
    distinct tied L.
    """
    vals = np.multiply.outer(w_len, w_row)
    (np.divide if divide else np.multiply)(M, vals, out=vals)
    top = vals.max()
    if top == 0.0:
        return 0.0, (1, 0, 0)
    Ls, rs = np.nonzero(vals == top)
    js = np.empty_like(rs)
    for l in set(Ls.tolist()):
        at = Ls == l
        r, L = rs[at], l + 1
        d = np.abs(C[L:, r] - C[:-L, r])
        w = w_len[l] * w_row[r]
        js[at] = np.argmax((d / w if divide else d * w) == top, axis=0)
    i = np.lexsort(key(Ls + 1, rs, js)[::-1])[0] if len(rs) > 1 else 0
    return float(top), (int(Ls[i]) + 1, int(rs[i]), int(js[i]))


def norm_gr(A: OneForm, alpha: float) -> float:
    return norm_gr_argmax(A, alpha)[0]


def norm_gr_argmax(A: OneForm, alpha: float) -> tuple[float, dict]:
    """sup over positive-length segments of |A(l)| / |l|^alpha."""
    if not (0.0 <= alpha <= 1.0):
        raise DomainError("alpha must be in [0, 1]")
    n = A.geom.n
    ph, pv = A.prefix_tables()
    C = np.concatenate((ph.T, pv.T), axis=1)  # [j, (direction, line)]
    denom = (np.arange(1, n + 1) * 2.0 ** (-A.geom.N)) ** alpha
    best, (L, r, j) = pair_sup(C, pair_max_table(C), denom, np.ones(2 * n + 2), True)
    direction, line = divmod(r, n + 1)
    return best, {"direction": direction + 1, "line": line, "base": j, "nbonds": L}


def seminorm_rho(A: OneForm, alpha: float, *, sampled: bool = False,
                 sample_quota: int = 2_000_000, seed: int = 0) -> float:
    return seminorm_rho_argmax(A, alpha, sampled=sampled,
                               sample_quota=sample_quota, seed=seed)[0]


def seminorm_rho_argmax(A: OneForm, alpha: float, *, sampled: bool = False,
                        sample_quota: int = 2_000_000,
                        seed: int = 0) -> tuple[float, dict]:
    """sup over distinct parallel segment pairs of |A(l)-A(l2)| / rho^alpha.

    Exhaustive for N <= 7; beyond that the exact pair sweep is refused and
    the sampled mode (a clearly labeled lower bound) must be requested.
    """
    if not (0.0 <= alpha <= 1.0):
        raise DomainError("alpha must be in [0, 1]")
    N = A.geom.N
    if N > EXACT_PAIR_SCALE_LIMIT and not sampled:
        raise ResourceError(
            f"exact pair enumeration needs ~2^(4N) = 2^{4*N} work at N={N}; "
            "pass sampled=True for a sampled lower bound")
    if sampled:
        return _seminorm_rho_sampled(A, alpha, sample_quota, seed)
    n = A.geom.n
    # rho^alpha = (len * dist)^{alpha/2} separates into per-factor powers
    pow_half = (np.arange(n + 1) * 2.0 ** (-N)) ** (alpha / 2.0)
    best, arg = -1.0, None
    for direction, table in enumerate(A.prefix_tables(), start=1):
        C, j1, j2 = pair_rows(table)  # [line, extent pair j1 < j2]
        val, (L, c, t1) = pair_sup(C, pair_max_table(C), pow_half[1:], pow_half[j2 - j1],
                                   True, key=lambda L, r, j: (j, L, r))
        if val > best:
            best, arg = val, {"direction": direction, "line": t1, "line2": t1 + L,
                              "base": int(j1[c]), "nbonds": int(j2[c] - j1[c])}
    return best, arg


def _seminorm_rho_sampled(A: OneForm, alpha, quota, seed):
    rng = np.random.default_rng(seed)
    n = A.geom.n
    ph, pv = A.prefix_tables()
    best, arg = -1.0, None
    batch = min(quota, 500_000)
    drawn = 0
    while drawn < quota:
        m = min(batch, quota - drawn)
        drawn += m
        direction = rng.integers(1, 3)
        table = ph if direction == 1 else pv
        a = rng.integers(0, n + 1, size=m)
        b = rng.integers(0, n + 1, size=m)
        t1 = rng.integers(0, n + 1, size=m)
        t2 = rng.integers(0, n + 1, size=m)
        keep = (a < b) & (t1 != t2)
        a, b, t1, t2 = a[keep], b[keep], t1[keep], t2[keep]
        diffs = np.abs((table[t1, b] - table[t1, a]) - (table[t2, b] - table[t2, a]))
        rho_sq = (b - a) * np.abs(t2 - t1) * 4.0 ** (-A.geom.N)
        vals = diffs / rho_sq ** (alpha / 2.0)
        if len(vals):
            i = int(np.argmax(vals))
            if vals[i] > best:
                best = float(vals[i])
                arg = {"direction": int(direction), "line": int(t1[i]),
                       "line2": int(t2[i]), "base": int(a[i]),
                       "nbonds": int(b[i] - a[i]), "sampled": True}
    return best, arg


def norm_full(A: OneForm, alpha: float, **kw) -> float:
    """|A|_alpha = |A|_{gr alpha} + |A|_{rho alpha}."""
    return norm_gr(A, alpha) + seminorm_rho(A, alpha, **kw)


def norm_report(A: OneForm, alpha: float, **kw) -> dict:
    gr, gr_arg = norm_gr_argmax(A, alpha)
    sr, sr_arg = seminorm_rho_argmax(A, alpha, **kw)
    return {"alpha": alpha, "norm_gr": gr, "seminorm_rho": sr,
            "norm_full": gr + sr, "argmax_gr": gr_arg, "argmax_rho": sr_arg}
