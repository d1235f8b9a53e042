"""Holder-Besov-type norms on lattice 1-forms, and the pair-sup kernel.

A 1-form assigns a real number to every positively oriented bond.  Segment
evaluations are O(1) after a one-time prefix-sum table per lattice line.

Pair-sup kernel.  The grid norm, the rho-seminorm and the non-flatness
[g]_alpha of `gauge_fixing` are all sups over a table C of R rows by P
positions:

    sup over r and j1 < j2 of  |C[r, j2] - C[r, j1]| (op) w[L, r],  L = j2 - j1,

with (op) one of * and /, and a weight w = w_len[L] * w_row[r] > 0.

* `norm_gr`: rows are the lines (direction, line) and C the prefix sums
  along them; the value is |d| / denom[L], denom[L] = (L 2^-N)^alpha.
* `seminorm_rho`, one table per direction: rows are the extent pairs
  j1 < j2, C[r, t] = P[t, j2] - P[t, j1] for the prefix sums P of line t,
  and the positions are the lines t; the value is
  |d| / (pow_half[L] * pow_half[j2 - j1]), pow_half[k] = (k 2^-N)^(alpha/2).
* `flatness`: rows are the column pairs x1 < x2 of the summed-area table
  S, C[r, y] = S[x2, y] - S[x1, y]; the value is
  |d| * (pow_neg[x2 - x1] * pow_neg[L]), pow_neg[k] = k^(-alpha/2).

Monotone rounding.  Correctly rounded arithmetic keeps the order of exact
arithmetic: fl(x - y) is nondecreasing in x and nonincreasing in y, and for
a, w >= 0, fl(a * w) is nondecreasing in a and w, fl(a / w) nondecreasing in
a and nonincreasing in w.

The bound.  Split the lengths into dyadic classes [2^k, 2^(k+1)).  A pair of
class k lies inside some window of 2^(k+1) consecutive positions, so its
rounded |d| is at most G[k, r], the largest rounded range max - min of row
r over such windows (`pair_range_table`; no exponent enters it, so one table
serves every exponent).  Let w_k[r] be the class's extreme weight for row r:
the largest rounded w_len[L] * w_row[r] over the class for *, the smallest
for /.  By monotone rounding every rounded value of the cell (k, r) is at
most B[k, r] = G[k, r] (op) w_k[r]: the bound holds for the rounded values
themselves, with no error term.

Branch and bound (`pair_sup`).  The best is seeded with every length of
each class's top-bound row, an achieved value.  Then each class refines,
one array per class, only the rows with B[k, r] >= best * (1 - PRUNE_SLACK).
A pruned cell has all its values below best <= sup, so it neither holds
the sup nor ties it: every maximizer lies in a refined cell, and the value
is computed there by the same float operations as a full sweep over all
pairs.  So the sup and its maximizer are those of the full sweep, bit for
bit.  The argument needs no slack; the relative margin of 1e-12 only
refines a few more cells.  The test is >=, not >, because a cell whose bound
equals the best may hold a tie, and below about 1e-300 best * (1 - 1e-12)
rounds to best itself.  In `gauge_fix` on pure-gauge fields at N=5-7 the
refined cells are 0.4-0.7 % of all (class, row) cells.

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

EXACT_PAIR_SCALE_LIMIT = 8  # N above this: exact rho-seminorm pair sweep refused
PRUNE_SLACK = 1e-12         # relative margin of the pair-sup prune test
_CHUNK = 1 << 15            # cells per step of the range table and `_pair_max` (L2-sized)


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


def pair_rows(U: np.ndarray):
    """Rows U[k2] - U[k1] for every k1 < k2, in (k1, k2) order, with the pair
    index arrays k1 and k2."""
    k1, k2 = _pairs(len(U))
    C = U[k2]
    C -= U[k1]
    return C, k1, k2


def pair_range_table(C: np.ndarray) -> np.ndarray:
    """G[k, r]: the largest range max - min of C[r] over 2^(k+1) consecutive
    positions (all P positions when P is shorter), for every length class k
    with 2^k <= P - 1; C has shape (R, P).  Built one doubling level at a
    time, keeping only the current level, for `_CHUNK` cells of C at once."""
    R, P = C.shape
    G = np.empty(((P - 1).bit_length(), R))
    step = max(1, _CHUNK // P)
    for r0 in range(0, R, step):
        mx = mn = C[r0:r0 + step].T.copy()  # positions along axis 0
        for k, Gk in enumerate(G[:, r0:r0 + step]):
            s = 1 << k
            if 2 * s <= P:  # windows of 2s points from pairs of windows of s
                mx = np.maximum(mx[:-s], mx[s:])
                mn = np.minimum(mn[:-s], mn[s:])
                (mx - mn).max(axis=0, out=Gk)
            else:           # last class: all positions
                np.subtract(mx.max(axis=0), mn.min(axis=0), out=Gk)
    return G


def _pair_max(C: np.ndarray, a: int, b: int) -> np.ndarray:
    """M[L - a, i] = max_j |C[i, j + L] - C[i, j]| for a <= L < b: the same
    floats as a sweep length by length, for `_CHUNK` pairs at once."""
    R, P = C.shape
    M = np.empty((b - a, R))
    step = max(1, _CHUNK // ((P - a) * (b - a)))
    for i in range(0, R, step):
        pad = np.full((min(step, R - i), P + b - a - 1), np.nan)  # nan past the end
        pad[:, :P] = C[i:i + step]
        # ends[i, j, L - a] = pad[i, j + L]
        ends = np.ndarray((len(pad), P - a, b - a), buffer=pad, offset=a * pad.itemsize,
                          strides=(pad.strides[0], pad.itemsize, pad.itemsize))
        d = ends - pad[:, :P - a, None]
        np.fmax.reduce(np.abs(d, out=d), axis=1, out=M[:, i:i + step].T)
    return M


def _row_first(L, r, j):
    return r, j, L


def pair_sup(C: np.ndarray, G: np.ndarray, w_len: np.ndarray, w_row: np.ndarray,
             divide: bool, key=_row_first) -> tuple[float, tuple[int, int, int]]:
    """sup over r, j, L of |C[r, j+L] - C[r, j]| * w (/ w if `divide`), with
    w = w_len[L-1] * w_row[r] > 0 and G = pair_range_table(C); and its first
    maximizer (L, r, j) in the scan order `key(L, r, j)` (a tuple of arrays,
    primary key first).

    Branch and bound (see the module docstring): the best is seeded from
    each class's top-bound row, then each class refines, one array per
    class, only the rows whose bound reaches it.  Only tied cells are
    rescanned for their start j, one array step per distinct tied L.
    """
    op = np.divide if divide else np.multiply
    P = C.shape[1]
    first = (1 << np.arange(len(G))) - 1  # w_len index of each class's first length
    w_ext = (np.minimum if divide else np.maximum).reduceat(w_len, first)
    bound = op(G, np.multiply.outer(w_ext, w_row))
    if not bound.any():
        return 0.0, (1, 0, 0)
    seed = bound.argmax(axis=1)
    best = op(_pair_max(C[seed], 1, P), np.multiply.outer(w_len, w_row[seed])).max()
    ks, rows = np.nonzero(bound >= best * (1.0 - PRUNE_SLACK))
    cells = []
    for k in np.unique(ks).tolist():
        a, r = 1 << k, rows[ks == k]
        vals = op(_pair_max(C[r], a, min(2 * a, P)),
                  np.multiply.outer(w_len[a - 1:2 * a - 1], w_row[r]))
        cells.append((a, r, vals))
    top = max(vals.max() for _, _, vals in cells)
    Ls, rs = [], []
    for a, r, vals in cells:
        l, i = np.nonzero(vals == top)
        Ls.append(l + a - 1)
        rs.append(r[i])
    Ls, rs = np.concatenate(Ls), np.concatenate(rs)
    js = np.empty_like(rs)
    for l in set(Ls.tolist()):
        at = Ls == l
        r, L = rs[at], l + 1
        d = np.abs(C[r, L:] - C[r, :-L])
        w = (w_len[l] * w_row[r])[:, None]
        js[at] = np.argmax((d / w if divide else d * w) == top, axis=1)
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
    C = np.concatenate((ph, pv))  # [(direction, line), j]
    denom = (np.arange(1, n + 1) * 2.0 ** (-A.geom.N)) ** alpha
    best, (L, r, j) = pair_sup(C, pair_range_table(C), denom, np.ones(2 * n + 2), True)
    direction, line = divmod(r, n + 1)
    return best, {"direction": direction + 1, "line": line, "base": j, "nbonds": L}


def seminorm_rho(A: OneForm, alpha: float) -> float:
    return seminorm_rho_argmax(A, alpha)[0]


def seminorm_rho_argmax(A: OneForm, alpha: float) -> tuple[float, dict]:
    """sup over distinct parallel segment pairs of |A(l)-A(l2)| / rho^alpha.

    Exhaustive; refused with `ResourceError` for N > EXACT_PAIR_SCALE_LIMIT.
    """
    if not (0.0 <= alpha <= 1.0):
        raise DomainError("alpha must be in [0, 1]")
    N = A.geom.N
    if N > EXACT_PAIR_SCALE_LIMIT:
        raise ResourceError(
            f"exact pair enumeration needs ~2^(4N) = 2^{4*N} work at N={N}; "
            f"refused above N={EXACT_PAIR_SCALE_LIMIT}")
    n = A.geom.n
    # rho^alpha = (len * dist)^{alpha/2} separates into per-factor powers
    pow_half = (np.arange(n + 1) * 2.0 ** (-N)) ** (alpha / 2.0)
    best, arg = -1.0, None
    for direction, table in enumerate(A.prefix_tables(), start=1):
        C, j1, j2 = pair_rows(table.T)  # [extent pair j1 < j2, line]
        val, (L, c, t1) = pair_sup(C, pair_range_table(C), pow_half[1:], pow_half[j2 - j1],
                                   True, key=lambda L, r, j: (j, L, r))
        if val > best:
            best, arg = val, {"direction": direction, "line": t1, "line2": t1 + L,
                              "base": int(j1[c]), "nbonds": int(j2[c] - j1[c])}
        del C  # before the next direction's table is built
    return best, arg


def norm_full(A: OneForm, alpha: float) -> float:
    """|A|_alpha = |A|_{gr alpha} + |A|_{rho alpha}."""
    return norm_gr(A, alpha) + seminorm_rho(A, alpha)


def norm_report(A: OneForm, alpha: float) -> dict:
    gr, gr_arg = norm_gr_argmax(A, alpha)
    sr, sr_arg = seminorm_rho_argmax(A, alpha)
    return {"alpha": alpha, "norm_gr": gr, "seminorm_rho": sr,
            "norm_full": gr + sr, "argmax_gr": gr_arg, "argmax_rho": sr_arg}
