"""Loop expansions of single-site-coupled exponential integrals on finite
multigraphs, for complex and real Hilbert spaces.

The integral of exp(sum of bond couplings) against per-site radial measures
equals a sum over multisets of lattice loops; each loop contributes the
trace of its ordered matrix product divided by its symmetry factor, and
every site contributes a moment coefficient C_j determined by the radial
measure and the sphere-moment constants.

Conventions:
  * inner products are conjugate-linear in the first slot, so a complex
    edge e: x->y with operator M contributes <phi_x, M phi_y> = phi_x^H M phi_y;
  * in the real case self-loop couplings enter the exponent with a factor
    1/2 (the single-edge loop class has symmetry factor 2, which is how the
    expansion side accounts for it);
  * a loop class is an `EdgeClass`: its least step sequence up to
    rotation (complex loops) or rotation and reversal (real loops).  A step
    is an edge id (complex) or an (edge id, +-1) pair (real, self-loops +1);
    `_signed` reads either as (edge, +-1).

Each loop class is generated once, as its canonical (least) sequence, by
the FKM prenecklace rule (Fredricksen, Kessler & Maiorana; Ruskey, Savage &
Wang 1992).  A walk a_1 ... a_t starts at its smallest letter, and p is the
length of its longest Lyndon prefix (p = 1 after the first letter).  The
walk is extended with a letter a only if a >= a_{t+1-p}, and p becomes t + 1
when a > a_{t+1-p}; every walk the generator holds is then a prenecklace.
A closed walk is the least rotation of its class exactly when t % p == 0,
and its rotation stabiliser has S = t / p elements.  For the real field
(bracelets, Sawada 2001) a necklace is kept only if it is <= the least
rotation of its normalised reverse, and then S = (t / p) * (2 if the two
are equal, else 1).  A class's vertex incidences (and, for the Higgs
coefficients, its winding vector) sum a per-edge form over its steps: one
`np.add.reduceat` over all classes (`_class_sums`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .lattice_geom import DomainError, LatticeGeometry, ResourceError

DEFAULT_MAX_LEN = 16
DFS_NODE_BUDGET = 5_000_000  # generator nodes (walk prefixes) per enumeration
MULTISET_BUDGET = 2_000_000
RADIUS_TOL = 1e-13  # relative tail mass left beyond a radial cutoff


class NumericalError(RuntimeError):
    """Raised when a quadrature fails to converge under refinement."""


# --------------------------------------------------------------------------
# multigraphs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiGraph:
    """Oriented finite multigraph; edges are (start, end) vertex pairs."""

    vertices: tuple
    edges: tuple[tuple, ...]  # (start, end), parallel edges and self-loops allowed

    def __post_init__(self):
        vs = set(self.vertices)
        for (a, b) in self.edges:
            if a not in vs or b not in vs:
                raise DomainError(f"edge ({a},{b}) references unknown vertex")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def is_self_loop(self, e: int) -> bool:
        a, b = self.edges[e]
        return a == b



# --------------------------------------------------------------------------
# radial measures
# --------------------------------------------------------------------------

class RadialMeasure:
    """Single-site radial measure exposed through its even moments
    j -> integral of s^(2j) d lambda(s).

    kinds: 'dirac0' (unit mass at radius 0), 'density' (a density w(s) ds
    on [0, inf) with better-than-Gaussian tails), 'discrete' (finitely many
    atoms (s_i, mass_i)).
    """

    def __init__(self, kind: str, density: Callable[[float], float] | None = None,
                 points: Sequence[tuple[float, float]] | None = None,
                 moment_fn: Callable[[int], float] | None = None,
                 name: str = ""):
        if kind not in ("dirac0", "density", "discrete"):
            raise DomainError(f"unknown radial measure kind {kind!r}")
        self.kind = kind
        self.density = density
        self.points = tuple(points) if points is not None else None
        self.moment_fn = moment_fn
        self.name = name or kind
        self._cache: dict[int, float] = {}
        self._radius: dict[float, float] = {}

    @classmethod
    def dirac0(cls) -> "RadialMeasure":
        return cls("dirac0", name="dirac0")

    @classmethod
    def gaussian_type(cls) -> "RadialMeasure":
        """lambda(ds) = 2 s e^{-s^2} ds, a probability measure with moment(j) = j!."""
        return cls("density", density=lambda s: 2.0 * s * np.exp(-s * s),
                   moment_fn=lambda j: float(math.factorial(j)),
                   name="gaussian_type")

    @classmethod
    def from_density(cls, w: Callable[[float], float], name: str = "density") -> "RadialMeasure":
        return cls("density", density=w, name=name)

    @classmethod
    def discrete(cls, points: Sequence[tuple[float, float]]) -> "RadialMeasure":
        return cls("discrete", points=points, name="discrete")

    def moment(self, j: int) -> float:
        """integral of s^(2j) d lambda(s)."""
        if j < 0:
            raise DomainError("moment order must be nonnegative")
        if j in self._cache:
            return self._cache[j]
        if self.kind == "dirac0":
            out = 1.0 if j == 0 else 0.0
        elif self.kind == "discrete":
            out = float(sum(m * s ** (2 * j) for (s, m) in self.points))
        elif self.moment_fn is not None:
            out = float(self.moment_fn(j))
        else:
            from scipy import integrate  # loaded on first use: about 0.2 s
            out, err = integrate.quad(lambda s: self.density(s) * s ** (2 * j),
                                      0.0, np.inf, limit=200,
                                      epsabs=1e-13, epsrel=1e-11)
            if not np.isfinite(out) or err > 1e-8 * max(1.0, abs(out)):
                raise DomainError(
                    f"moment({j}) of {self.name} failed to converge (err={err})")
        self._cache[j] = out
        return out

    def radius_for(self, growth: float) -> float:
        """Radius R with tail integral of e^{growth s^2} w(s) below RADIUS_TOL
        (relative).

        Only meaningful for the 'density' kind; exploits the assumed
        better-than-Gaussian tails.
        """
        if self.kind != "density":
            raise DomainError("radius_for applies to density measures")
        if growth in self._radius:
            return self._radius[growth]

        def f(s):
            w = self.density(s)
            if w <= 0.0:
                return 0.0
            return math.exp(min(math.log(w) + growth * s * s, 700.0))

        from scipy import integrate
        total, _ = integrate.quad(f, 0.0, np.inf, limit=200)
        if not np.isfinite(total) or total >= 1e280:
            raise NumericalError("density integral with growth term diverges")
        R = 2.0  # the first R in 2 * 1.5^k with a small enough tail
        for _ in range(60):
            tail, _ = integrate.quad(f, R, np.inf, limit=200)
            if tail <= RADIUS_TOL * max(total, 1e-300):
                self._radius[growth] = R
                return R
            R *= 1.5
        raise NumericalError("could not find a truncation radius")


def check_log_convex_moments(lam: RadialMeasure, jmax: int = 10, tol: float = 1e-9) -> bool:
    """Test oracle: log-convex moments, moment(j)^2 <= moment(j-1) moment(j+1)."""
    m = [lam.moment(j) for j in range(jmax + 2)]
    return all(m[j] ** 2 <= m[j - 1] * m[j + 1] * (1 + tol) + 1e-300
               for j in range(1, jmax + 1))


# --------------------------------------------------------------------------
# sphere-moment constants and site coefficients
# --------------------------------------------------------------------------

def k_complex(N: int, d: int) -> float:
    """2 pi^d / (N + d - 1)!  (complex sphere-moment constant)."""
    if N < 0 or d < 1:
        raise DomainError("need N >= 0 and d >= 1")
    if N + d - 1 <= 170:
        return 2.0 * math.pi ** d / math.factorial(N + d - 1)
    return math.exp(math.log(2.0) + d * math.log(math.pi) - math.lgamma(N + d))


def k_real(N: int, d: int) -> float:
    """pi^(d/2) / (2^(N-1) Gamma(N + d/2))  (real sphere-moment constant)."""
    if N < 0 or d < 1:
        raise DomainError("need N >= 0 and d >= 1")
    if N + d / 2.0 <= 170.0:
        return math.pi ** (d / 2.0) / (2.0 ** (N - 1) * math.gamma(N + d / 2.0))
    return math.exp((d / 2.0) * math.log(math.pi) - (N - 1) * math.log(2.0)
                    - math.lgamma(N + d / 2.0))


def sphere_mass(fieldtag: str, d: int) -> float:
    """Total surface measure of the unit sphere of H (= K_0 moment normalizer)."""
    return k_complex(0, d) if fieldtag == "C" else k_real(0, d)


def c_coeff(j: int, lam: RadialMeasure, fieldtag: str, d: int) -> float:
    """C_j = K_j * moment(j) for the given field and dimension."""
    if fieldtag not in ("C", "R"):
        raise DomainError("field must be 'C' or 'R'")
    K = k_complex(j, d) if fieldtag == "C" else k_real(j, d)
    return K * lam.moment(j)


# --------------------------------------------------------------------------
# operator assignments
# --------------------------------------------------------------------------

@dataclass
class OperatorAssignment:
    """One d x d matrix per edge; the real field enforces real matrices and
    symmetric self-loops."""

    fieldtag: str  # 'C' | 'R'
    dim: int
    mats: tuple[np.ndarray, ...]
    graph: MultiGraph

    SYM_TOL = 1e-12

    def __post_init__(self):
        if self.fieldtag not in ("C", "R"):
            raise DomainError("field must be 'C' or 'R'")
        if len(self.mats) != self.graph.n_edges:
            raise DomainError("one matrix per edge required")
        mats = []
        for e, M in enumerate(self.mats):
            M = np.asarray(M)
            if self.fieldtag == "R" and np.any(M.imag):
                raise DomainError(f"matrix for edge {e} is not real")
            M = np.asarray(M if self.fieldtag == "C" else M.real,
                           dtype=complex if self.fieldtag == "C" else float)
            if M.shape != (self.dim, self.dim):
                raise DomainError(f"matrix for edge {e} has shape {M.shape}")
            if (self.fieldtag == "R" and self.graph.is_self_loop(e)
                    and np.abs(M - M.T).max() > self.SYM_TOL):
                raise DomainError(f"self-loop matrix {e} must be symmetric")
            mats.append(M)
        self.mats = tuple(mats)

    @classmethod
    def scalars(cls, graph: MultiGraph, values, fieldtag: str) -> "OperatorAssignment":
        return cls(fieldtag, 1, tuple(np.array([[v]]) for v in values), graph)

    def norm_bound(self) -> float:
        """max over edges of the spectral norm of M_e."""
        if not self.mats:
            return 0.0
        return max(float(np.linalg.norm(M, 2)) for M in self.mats)


# --------------------------------------------------------------------------
# loop classes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeClass:
    """A loop class by its canonical step sequence: edge ids (C) or
    (edge id, +-1) pairs (R, self-loop signs +1), see `_signed`.  S is the
    number of rotations (C) or rotations and reversals (R) fixing the
    sequence."""

    edges: tuple
    S: int

    @property
    def length(self) -> int:
        return len(self.edges)


def _real_orbit(graph: MultiGraph, seq):
    """Rotations of a real sequence and of its reverse, self-loop signs
    normalised: the orbit that the bracelet rule of `_enumerate_raw`
    takes the least element of."""
    rev = tuple((e, 1 if graph.is_self_loop(e) else -p) for (e, p) in reversed(seq))
    for r in range(len(seq)):
        yield seq[r:] + seq[:r]
        yield rev[r:] + rev[:r]


def _move_table(G: MultiGraph, fieldtag: str) -> dict:
    """Vertex -> [(letter, next vertex)] by increasing letter.

    A letter is an int: the edge id for C, and 2 * edge + 1 (along the
    orientation) or 2 * edge (against it) for R, so that letters order like
    the (edge, sign) pairs they stand for.  Real self-loops are walked along
    their orientation only (sign normalised to +1).
    """
    moves: dict = {}
    for e, (a, b) in enumerate(G.edges):
        if fieldtag == "C":
            moves.setdefault(a, []).append((e, b))
        else:
            moves.setdefault(a, []).append((2 * e + 1, b))
            if a != b:
                moves.setdefault(b, []).append((2 * e, a))
    for out in moves.values():
        out.sort()
    return moves


def _reversed_letters(G: MultiGraph) -> list[int]:
    """Real letter -> the letter of the same step walked backwards, with the
    self-loop sign normalised (so the identity on self-loops)."""
    return [x if G.is_self_loop(x >> 1) else x ^ 1 for x in range(2 * G.n_edges)]


def _decode(letters, fieldtag: str) -> tuple:
    """Letters of `_move_table` -> the class's steps (see `EdgeClass`)."""
    if fieldtag == "C":
        return tuple(letters)
    return tuple((x >> 1, 1 if x & 1 else -1) for x in letters)


def _signed(step) -> tuple[int, int]:
    """A class step as (edge, +1 along its orientation or -1 against it)."""
    return (step, 1) if isinstance(step, int) else step


class _NodeBudget:
    """Generator nodes left to a loop enumeration."""

    def __init__(self, nodes: int):
        self.left = nodes

    def spend(self, found) -> None:
        """Take one node; `found` is what the enumeration has emitted."""
        if self.left <= 0:
            raise ResourceError("loop enumeration budget exhausted; "
                                f"partial count {len(found)}")
        self.left -= 1


def enumerate_loop_classes(G: MultiGraph, max_len: int, fieldtag: str,
                           node_budget: int = DFS_NODE_BUDGET):
    """One representative per loop equivalence class of length <= max_len.

    Classes are returned sorted by (length, canonical sequence).  The node
    budget counts the generator's nodes (the walk prefixes it extends).
    """
    if max_len > DEFAULT_MAX_LEN:
        raise ResourceError(f"max_len {max_len} exceeds the guard {DEFAULT_MAX_LEN}; "
                            "call with a smaller bound or use the internal "
                            "enumerator with an explicit node budget")
    return _enumerate_raw(G, max_len, fieldtag, node_budget)


def _enumerate_raw(G: MultiGraph, max_len: int, fieldtag: str,
                   node_budget: int = DFS_NODE_BUDGET):
    """Canonical loop classes by the FKM prenecklace rule (see the module
    docstring): every walk prefix the generator extends is a prenecklace,
    so each class is emitted once, by its canonical sequence."""
    if max_len < 1:
        return []
    moves = _move_table(G, fieldtag)
    flip = _reversed_letters(G) if fieldtag == "R" else None
    budget = _NodeBudget(node_budget)
    found = []
    seq = []

    def grow(cur, start, t, p):
        budget.spend(found)
        if cur == start and t % p == 0:
            key = tuple(seq)
            if flip is None:
                found.append((key, t // p))
            else:
                rev = [flip[x] for x in reversed(seq)]
                least = min(tuple(rev[r:] + rev[:r]) for r in range(t))
                if key <= least:
                    found.append((key, t // p * (2 if key == least else 1)))
        if t >= max_len:
            return
        floor = seq[t - p]
        for a, nxt in moves.get(cur, ()):
            if a >= floor:
                seq.append(a)
                grow(nxt, start, t + 1, p if a == floor else t + 1)
                seq.pop()

    # each walk starts at its smallest letter
    for a, start, nxt in sorted((a, v, nxt) for v, out in moves.items() for a, nxt in out):
        seq.append(a)
        grow(nxt, start, 1, 1)
        seq.pop()
    found.sort(key=lambda f: (len(f[0]), f[0]))
    return [EdgeClass(_decode(key, fieldtag), S) for key, S in found]


def path_matrix(cls, M: OperatorAssignment) -> np.ndarray:
    """Ordered matrix product along the class's edges, transposed where a
    real edge is traversed against its orientation."""
    prod = np.eye(M.dim, dtype=complex if M.fieldtag == "C" else float)
    for e, p in map(_signed, cls.edges):
        prod = prod @ (M.mats[e] if p == 1 else M.mats[e].T)
    return prod


def loop_trace(cls, M: OperatorAssignment):
    """Trace of the ordered matrix product; value is representative-independent."""
    tr = np.trace(path_matrix(cls, M))
    return complex(tr) if M.fieldtag == "C" else float(tr)


def _incidence(G: MultiGraph, cls) -> dict:
    """Test oracle: vertex -> number of edge ends of the class at that vertex."""
    inc: dict = {}
    for step in cls.edges:
        for v in G.edges[_signed(step)[0]]:
            inc[v] = inc.get(v, 0) + 1
    return inc


# --------------------------------------------------------------------------
# expansion evaluation
# --------------------------------------------------------------------------

@dataclass
class ExpansionResult:
    value: float | complex
    ledger: list[tuple[str, int, float | complex]]
    tail_majorant: float


def _site_coeffs(sites, lam: dict, fieldtag: str, d: int, jmax: int) -> list:
    """C_0 .. C_jmax of each site, in order."""
    return [[c_coeff(j, lam[v], fieldtag, d) for j in range(jmax + 1)] for v in sites]


def _vertex_form(G: MultiGraph, sites) -> np.ndarray:
    """(edges, sites) int16 count of each edge's ends at each site."""
    col = {v: i for i, v in enumerate(sites)}
    form = np.zeros((G.n_edges, len(col)), dtype=np.int16)
    for e, ends in enumerate(G.edges):
        for v in ends:
            if v in col:
                form[e, col[v]] += 1
    return form


def _class_sums(classes, form: np.ndarray) -> np.ndarray:
    """(classes, columns) sum over each class's steps of its edge's row of
    the per-edge `form`, in the form's dtype."""
    lengths = [c.length for c in classes]
    steps = np.fromiter((_signed(s)[0] for c in classes for s in c.edges),
                        dtype=np.int64, count=sum(lengths))
    return np.add.reduceat(form[steps], np.cumsum([0] + lengths, dtype=np.int64)[:-1],
                           axis=0, dtype=form.dtype)


def _multiset_table(lengths, feats: np.ndarray, max_total: int):
    """Every multiset of items with total length <= max_total, one row each,
    depth first in pre-order: the empty multiset, then for each item (by
    index) each multiplicity followed by the multisets over the later items.

    `lengths` must be nondecreasing.  Returns `picks`, shape (rows, 2 *
    depth), each row's (item, multiplicity) pairs by increasing item, flat
    and padded with -1, and `feat`, each row's sum of multiplicity *
    feats[item].  Rows are built one pick (one level) at a time; the padded
    picks' lexicographic order is the pre-order.  More than MULTISET_BUDGET
    rows raise ResourceError, checked on each level's row count before the
    level is built.
    """
    L = np.asarray(lengths, dtype=np.int64)
    picks = np.empty((1, 0), dtype=np.int32)
    feat = np.zeros((1, feats.shape[1]), dtype=feats.dtype)
    last, rem = np.array([-1]), np.array([max_total])
    levels = [(picks, feat)]
    n_rows = 1
    while True:
        # children of every row: each later item at each multiplicity that fits
        lo = last + 1
        counts = []
        for m in range(1, max_total + 1):
            count = np.maximum(np.searchsorted(L, rem // m, side="right") - lo, 0)
            if not count.any():
                break
            counts.append(count)
        if not counts:
            break
        n_rows += sum(int(count.sum()) for count in counts)
        if n_rows > MULTISET_BUDGET:
            raise ResourceError("multiset enumeration budget exhausted")
        parent, item, mult = [], [], []
        for m, count in enumerate(counts, 1):
            total = int(count.sum())
            rows = np.repeat(np.arange(len(last)), count)
            parent.append(rows)
            item.append(lo[rows] + np.arange(total) - np.repeat(np.cumsum(count) - count, count))
            mult.append(np.full(total, m, dtype=feats.dtype))
        parent, item, mult = map(np.concatenate, (parent, item, mult))
        picks = np.hstack([picks[parent], np.stack([item, mult], axis=1).astype(np.int32)])
        feat = feat[parent] + mult[:, None] * feats[item]
        last, rem = item, rem[parent] - mult * L[item]
        levels.append((picks, feat))
    width = picks.shape[1]
    picks = np.vstack([np.pad(p, ((0, 0), (0, width - p.shape[1])), constant_values=-1)
                       for p, _ in levels])
    order = np.lexsort(picks.T[::-1]) if width else np.arange(len(picks))
    return picks[order], np.vstack([f for _, f in levels])[order]


def _site_factor(term, coeffs, counts):
    """term times C_{k/2} of each site, in order, with incidence count k;
    `coeffs` holds each site's list of C_j."""
    for c, k in zip(coeffs, counts):
        if k % 2:
            raise AssertionError("odd incidence count at an expanded site")
        term = term * c[k // 2]
    return term


def expansion_value(G: MultiGraph, M: OperatorAssignment, lam,
                    max_total: int) -> ExpansionResult:
    """Truncated loop-expansion sum over multisets of loop classes with
    total edge-traversal count <= max_total.

    `lam` maps each vertex to its RadialMeasure.  The returned ledger holds
    one entry per multiset (signature, total length, contribution) in the
    pre-order of `_multiset_table`; `value` is their sum in that order.  The
    tail majorant bounds the dropped terms via norm bounds on the operators
    and a geometric series (infinite when no geometric bound applies).
    """
    lam = dict(lam)
    fieldtag, d = M.fieldtag, M.dim
    if max_total < 0:
        raise DomainError("max_total must be nonnegative")
    if max_total > 40:
        raise ResourceError("max_total too large for class enumeration")
    classes = _enumerate_raw(G, max_total, fieldtag)
    values = [loop_trace(c, M) / c.S for c in classes]
    lengths = [c.length for c in classes]
    # vertex incidences never exceed 2 * max_total
    coeffs = _site_coeffs(G.vertices, lam, fieldtag, d, max_total)
    picks, inc = _multiset_table(lengths, _class_sums(classes, _vertex_form(G, G.vertices)),
                                 max_total)

    edge_text = [str(list(c.edges)) for c in classes]
    ledger = []
    value = 0.0 + 0.0j if fieldtag == "C" else 0.0
    for row, counts in zip(picks.tolist(), inc.tolist()):
        term = _site_factor(1.0, coeffs, counts)
        sig, tl = [], 0
        for k in range(0, len(row), 2):
            ci, mult = row[k], row[k + 1]
            if ci < 0:
                break
            term = term * values[ci] ** mult / math.factorial(mult)
            sig.append(f"{mult}x{edge_text[ci]}")
            tl += lengths[ci] * mult
        ledger.append(("|".join(sig) or "empty", tl, term))
        value = value + term

    if fieldtag == "R":
        value = float(np.real(value))
    tail = _tail_majorant(G, M, lam, max_total)
    return ExpansionResult(value, ledger, tail)


def _edge_transfer_radius(G: MultiGraph, fieldtag: str) -> float:
    """Spectral radius of the step-chaining transfer matrix A over the
    `_move_table` letters, forward letters first: A[s, t] = 1 when step t
    starts where step s ends.  Bounds the number of closed edge sequences
    of length n by E * radius^n."""
    vid = {v: i for i, v in enumerate(G.vertices)}
    steps = sorted((fieldtag == "R" and not x & 1, x, vid[v], vid[w])
                   for v, out in _move_table(G, fieldtag).items() for x, w in out)
    if not steps:
        return 0.0
    start, end = np.array([s[2:] for s in steps]).T
    return float(np.abs(np.linalg.eigvals(
        (end[:, None] == start[None, :]).astype(float))).max())


def _tail_majorant(G: MultiGraph, M: OperatorAssignment, lam, T: int) -> float:
    """Geometric majorant of the dropped multiset terms.

    The class sum at length n is bounded by d E (rho theta)^n / n with rho
    the edge-transfer spectral radius and theta the operator norm bound;
    the site factors by Cbar^|V|; the exp-series tail via a Cauchy estimate
    at a radius inside the disc of convergence.
    """
    E = G.n_edges
    theta = M.norm_bound()
    if E == 0 or theta == 0.0:
        return 0.0
    rho = _edge_transfer_radius(G, M.fieldtag)
    if rho == 0.0:
        return 0.0  # no closed walks at all
    q0 = rho * theta
    if q0 >= 1.0:
        return math.inf
    cbar = 0.0
    jcap = min(4 * T + 64, 150)  # float-safe; tail monotonicity checked below
    for v in G.vertices:
        cj = [c_coeff(j, lam[v], M.fieldtag, M.dim) for j in range(0, jcap)]
        top = max(cj)
        increasing_at_cap = any(cj[j + 1] > cj[j] * (1 + 1e-12) + 1e-300
                                for j in range(jcap - 8, jcap - 1))
        if increasing_at_cap:
            return math.inf  # coefficient growth not yet decayed: no bound
        cbar = max(cbar, top)
    cbar = max(cbar, 1e-300)
    r = math.sqrt(1.0 / q0)  # geometric mean of 1 and the radius 1/q0
    q = r * q0
    # class sums: sum over classes of length n of 1/S = tr(A^n)/n (complex,
    # orbit size n/S) or tr(A^n)/(2n) (real, orbit size 2n/S), so in both
    # cases f(r) <= -d E log(1 - q)
    f_r = -M.dim * E * math.log(1.0 - q)
    return (cbar ** len(G.vertices)) * math.exp(f_r) * r ** (-(T + 1)) / (1.0 - 1.0 / r)


# --------------------------------------------------------------------------
# brute-force quadrature oracle
# --------------------------------------------------------------------------

QUADRATURE_RTOL, QUADRATURE_ATOL = 1e-7, 1e-12  # brute_force_integral's refinement test


@dataclass(frozen=True)
class QuadratureSpec:
    radial_nodes: int = 32
    angular_nodes: int = 32


@dataclass
class QuadratureResult:
    value: float | complex
    error_estimate: float


def _dimension_guard(sites, lam, fieldtag: str, d: int) -> None:
    """Refuse a tensor quadrature over more than 6 real dimensions."""
    dims = sum(2 * d if fieldtag == "C" else d for v in sites if lam[v].kind != "dirac0")
    if dims > 6:
        raise ResourceError(f"total real dimension {dims} exceeds the guard 6")


def _sphere_points(fieldtag: str, d: int, K: int):
    """Quadrature nodes/weights for the induced surface measure on the unit
    sphere of H; exact total mass."""
    theta = 2.0 * math.pi * np.arange(K) / K  # the circle cut in K equal arcs
    arc = 2.0 * math.pi / K
    if fieldtag == "C" and d == 1:
        return np.exp(1j * theta)[:, None], np.full(K, arc)
    if fieldtag == "R" and d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if fieldtag == "R" and d == 2:
        return np.stack([np.cos(theta), np.sin(theta)], axis=1), np.full(K, arc)
    if fieldtag == "C" and d == 2:
        # Hopf coordinates: (cos(eta) e^{i xi1}, sin(eta) e^{i xi2}),
        # surface measure = (1/2) dt dxi1 dxi2 with t = sin^2(eta)
        kt = max(4, K // 4)
        t, wt = np.polynomial.legendre.leggauss(kt)
        t = 0.5 * (t + 1.0)
        wt = 0.5 * wt
        pts, wts = [], []
        for ti, wi in zip(t, wt):
            c, s = math.sqrt(1.0 - ti), math.sqrt(ti)
            for a in theta:
                for b in theta:
                    pts.append([c * np.exp(1j * a), s * np.exp(1j * b)])
                    wts.append(0.5 * wi * arc * arc)
        return np.array(pts), np.array(wts)
    raise ResourceError(f"no sphere quadrature for field {fieldtag}, d={d}")


def _site_grid(lam: RadialMeasure, fieldtag: str, d: int, spec: QuadratureSpec,
               growth: float):
    """Product nodes/weights of one site; a density's radial cutoff is
    lam.radius_for(growth)."""
    if lam.kind == "dirac0":
        pts = np.zeros((1, d), dtype=complex if fieldtag == "C" else float)
        return pts, np.array([sphere_mass(fieldtag, d)])
    sph_pts, sph_wts = _sphere_points(fieldtag, d, spec.angular_nodes)
    if lam.kind == "discrete":
        radii, rw = np.array(lam.points, dtype=float).reshape(-1, 2).T
    else:
        R = lam.radius_for(growth)
        x, w = np.polynomial.legendre.leggauss(spec.radial_nodes)
        radii = 0.5 * R * (x + 1.0)
        rw = 0.5 * R * w * np.array([lam.density(s) for s in radii])
    pts = (radii[:, None, None] * sph_pts[None, :, :]).reshape(-1, d)
    wts = (rw[:, None] * sph_wts[None, :]).reshape(-1)
    return pts, wts


def _grid_weights(grids, sites) -> np.ndarray:
    """Product quadrature weight over `sites`, one axis per site in order."""
    wgrid = np.ones(())
    for v in sites:
        wgrid = np.multiply.outer(wgrid, grids[v][1])
    return wgrid


def _pair_term(grids, sites, a, b, mat, fieldtag: str) -> np.ndarray:
    """<phi_a, mat phi_b> on the product grid of `sites`, with axes of size 1
    except at a and b (one axis when a == b)."""
    pa, pb = grids[a][0], grids[b][0]
    conj = pa.conj() if fieldtag == "C" else pa
    ia, ib = sites.index(a), sites.index(b)
    if ia == ib:
        term = np.einsum("id,de,ie->i", conj, mat, pb)
    else:
        term = np.einsum("id,de,je->ij", conj, mat, pb)
        term = term if ia < ib else term.T
    shape = [1] * len(sites)
    shape[ia], shape[ib] = len(pa), len(pb)
    return term.reshape(shape)


def _integrate_once(G: MultiGraph, M: OperatorAssignment, lam, spec: QuadratureSpec):
    fieldtag, d = M.fieldtag, M.dim
    verts = list(G.vertices)
    growth = sum(float(np.linalg.norm(m, 2)) for m in M.mats)
    grids = {v: _site_grid(lam[v], fieldtag, d, spec, growth) for v in verts}
    shapes = [len(grids[v][1]) for v in verts]
    total = int(np.prod(shapes))
    if total > 40_000_000:
        raise ResourceError(f"quadrature grid of {total} points too large")
    exponent = np.zeros(shapes, dtype=complex if fieldtag == "C" else float)
    for e, (a, b) in enumerate(G.edges):
        term = _pair_term(grids, verts, a, b, M.mats[e], fieldtag)
        exponent = exponent + (0.5 * term if fieldtag == "R" and a == b else term)
    vals = np.exp(exponent) * _grid_weights(grids, verts)
    out = vals.sum()
    return complex(out) if fieldtag == "C" else float(out)


def brute_force_integral(G: MultiGraph, M: OperatorAssignment, lam,
                         spec: QuadratureSpec = QuadratureSpec()) -> QuadratureResult:
    """Tensor-product quadrature of the exponential integral (the expansion
    theorems' left-hand side, with the real-case 1/2 on self-loops).

    Refinement doubles the node counts; the difference is the reported
    error estimate and a non-convergent refinement raises NumericalError.
    """
    lam = dict(lam)
    _dimension_guard(G.vertices, lam, M.fieldtag, M.dim)
    v1 = _integrate_once(G, M, lam, spec)
    v2 = _integrate_once(G, M, lam, replace(spec, radial_nodes=2 * spec.radial_nodes,
                                            angular_nodes=2 * spec.angular_nodes))
    err = abs(v2 - v1)
    if err > max(QUADRATURE_ATOL, QUADRATURE_RTOL * abs(v2)):
        raise NumericalError(
            f"quadrature not converged: coarse={v1}, fine={v2}, err={err}")
    return QuadratureResult(v2, err)


# --------------------------------------------------------------------------
# positive-type coefficients of the Higgs weight
# --------------------------------------------------------------------------

HIGGS_MAX_LEN = 8


@dataclass
class HiggsLoopCoefficients:
    """Truncated expansion of the Higgs weight grouped by winding vector.

    `coeffs` maps a flattened integer winding vector (row-major tuple over
    plaquettes) to a nonnegative coefficient; evaluating against a gauge
    field sums coeff * Re(hol) over the stored winding vectors.
    """

    coeffs: dict[tuple[int, ...], float]

    def evaluate(self, g) -> float:
        ws, cs = self.weight_matrix()
        return float(cs @ np.cos(ws @ g.plaquette_angles().T.reshape(-1)))

    def weight_matrix(self):
        """(W, n_plaq) winding matrix and coefficient vector, for vectorized
        evaluation over many configurations."""
        ws = np.array([list(w) for w in self.coeffs], dtype=float)
        cs = np.array(list(self.coeffs.values()))
        return ws, cs


def interior_bond_graph(geom: LatticeGeometry) -> MultiGraph:
    """Vertices: interior nodes; edges: both orientations of every bond with
    both endpoints interior."""
    verts = tuple(geom.interior_nodes())
    vset = set(verts)
    edges = []
    for (k1, k2) in verts:
        for nb in ((k1 + 1, k2), (k1, k2 + 1)):
            if nb in vset:
                edges.append(((k1, k2), nb))
                edges.append((nb, (k1, k2)))
    return MultiGraph(verts, tuple(edges))


def higgs_site_measure(pot) -> RadialMeasure:
    """lambda(ds) = 2 s exp(-V(s) - 4 s^2) ds: the single-site measure of the
    Higgs weight in the radial convention used throughout this package."""
    V = getattr(pot, "evaluate", pot)
    return RadialMeasure.from_density(
        lambda s: 2.0 * s * math.exp(-V(s) - 4.0 * s * s), name="higgs_site")


def _step_forms(G: MultiGraph, geom: LatticeGeometry) -> np.ndarray:
    """(edges, n*n + vertices) integer form of one step along each edge: its
    winding contribution (row-major plaquettes), then its two edge ends.

    A vertical step at column k1 across row k2 adds its sign to every
    plaquette (j, k2) with j < k1, as in `gauge_core.winding_vector`; both
    that rule and the incidence count are sums over the steps of a loop.
    Stored as int8: for max_len <= HIGGS_MAX_LEN a multiset's summed form
    has entries in [-16, 16] (an incidence is at most 2 * max_len).
    """
    n = geom.n
    form = np.zeros((G.n_edges, n * n + len(G.vertices)), dtype=np.int8)
    for e, (a, b) in enumerate(G.edges):
        if a[0] == b[0]:
            row = geom.plaquette_index(0, min(a[1], b[1]))
            form[e, row:row + a[0]] = 1 if b[1] == a[1] + 1 else -1
    form[:, n * n:] = _vertex_form(G, G.vertices)
    return form


def _first_occurrence_ids(rows: np.ndarray):
    """Id of each int8 row's value, numbered by first occurrence, and the
    first row of each id."""
    n, width = rows.shape
    packed = np.zeros((n, -(-width // 8) * 8), dtype=np.int8)
    packed[:, :width] = rows
    words = packed.view(np.uint64)
    order = np.lexsort(words.T[::-1])  # stable: equal rows keep their order
    ranked = words[order]
    new = np.ones(n, dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = order[new]
    by_first = np.empty(len(first), dtype=np.int64)
    by_first[np.argsort(first)] = np.arange(len(first))
    of = np.empty(n, dtype=np.int64)
    of[order] = by_first[np.cumsum(new) - 1]
    return of, np.sort(first)


def _group_fsum(values: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    """Correctly rounded sum of the values of each id in range(n)."""
    order = np.argsort(ids, kind="stable")
    bounds = np.searchsorted(ids[order], np.arange(n + 1)).tolist()
    v = values[order].tolist()
    return np.array([math.fsum(v[a:b]) for a, b in zip(bounds, bounds[1:])])


def higgs_loop_coefficients(geom: LatticeGeometry, pot, max_len: int
                            ) -> HiggsLoopCoefficients:
    """Coefficients c_w >= 0 with D_trunc(g) = sum_w c_w Re hol_w(g).

    Runs the complex scalar expansion on the interior bond graph with the
    Higgs site measure at every interior node, truncated at total traversal
    count `max_len`, and groups multiset contributions by the total winding
    vector of their loops.  The potential-free weights prod 1/(m! S^m) are
    summed per (winding, vertex incidence) and the site coefficients applied
    once per group.  Keys are ordered by first occurrence in the pre-order
    of `_multiset_table`.
    """
    if geom.interior_node_count == 0:
        raise DomainError("lattice has no interior nodes")
    if max_len > HIGGS_MAX_LEN:
        raise ResourceError(f"max_len {max_len} exceeds the guard {HIGGS_MAX_LEN}")
    G = interior_bond_graph(geom)
    lam = higgs_site_measure(pot)
    classes = _enumerate_raw(G, max_len, "C")
    cj = np.array([c_coeff(j, lam, "C", 1) for j in range(max_len + 1)])

    # a class's winding and incidence: the sum of its steps' forms
    picks, feat = _multiset_table([c.length for c in classes],
                                  _class_sums(classes, _step_forms(G, geom)), max_len)
    # each row's prod 1 / (m! S^m), divided out one pick (one level) at a
    # time; the padding pick (-1, -1) reads the last entry of `div`, 1.0,
    # and dividing by 1.0 leaves every bit as it is
    S = np.array([c.S for c in classes], dtype=float)
    fact = np.array([math.factorial(m) for m in range(max_len + 1)], dtype=float)
    div = np.ones((len(classes) + 1, max_len + 1))
    div[:-1] = fact * S[:, None] ** np.arange(max_len + 1)
    weight = np.ones(len(picks))
    for col in div[picks[:, 0::2], picks[:, 1::2]].T:
        weight = weight / col
    # ids by first occurrence in the pre-order
    group_of, group_row = _first_occurrence_ids(feat)
    groups = feat[group_row]
    n2 = geom.n * geom.n
    terms = (_group_fsum(weight, group_of, len(group_row))
             * cj[groups[:, n2:] // 2].prod(axis=1))
    winding_of, winding_row = _first_occurrence_ids(groups[:, :n2])
    values = _group_fsum(terms, winding_of, len(winding_row))
    coeffs = {tuple(w): float(c)
              for w, c in zip(groups[winding_row, :n2].tolist(), values)}
    return HiggsLoopCoefficients(coeffs)
