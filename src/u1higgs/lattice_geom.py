"""Dyadic lattice geometry on the unit square.

All geometry lives on the grid Lambda = {k 2^-N : k = 0..2^N}^2 and is
represented with exact integer coordinates (a point x corresponds to the
integer pair k = x * 2^N).  Nothing in this module touches floating point
except for convenience accessors that convert lengths/areas, and those are
exact because every quantity is dyadic.

Conventions:
  * a positively oriented bond is ('h', k1, k2) for (k1,k2) -> (k1+1,k2)
    or ('v', k1, k2) for (k1,k2) -> (k1,k2+1);
  * plaquettes are indexed by their lower-left corner (k1, k2) and
    enumerated row-major: index = k2 * 2^N + k1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

MAX_SCALE = 12  # memory guard: 2^12 + 1 nodes per side

Bond = tuple[str, int, int]


class ConfigurationError(ValueError):
    """Raised for out-of-range construction parameters."""


class DomainError(ValueError):
    """Raised when an operation's preconditions are violated."""


class ResourceError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its budget."""


@dataclass(frozen=True)
class LatticeGeometry:
    """The lattice [0,1]^2 at dyadic scale N.

    `n = 2^N` is the number of plaquettes per side; nodes are the integer
    pairs (k1, k2) with 0 <= k1, k2 <= n.
    """

    N: int

    @property
    def n(self) -> int:
        return 1 << self.N

    @property
    def node_count(self) -> int:
        return (self.n + 1) ** 2

    @property
    def interior_node_count(self) -> int:
        return (self.n - 1) ** 2

    @property
    def pos_bond_count(self) -> int:
        return 2 * self.n * (self.n + 1)

    @property
    def plaquette_count(self) -> int:
        return self.n * self.n

    def nodes(self) -> Iterator[tuple[int, int]]:
        for k2 in range(self.n + 1):
            for k1 in range(self.n + 1):
                yield (k1, k2)

    def interior_nodes(self) -> Iterator[tuple[int, int]]:
        for k2 in range(1, self.n):
            for k1 in range(1, self.n):
                yield (k1, k2)

    def pos_bonds(self) -> Iterator[Bond]:
        n = self.n
        for k2 in range(n + 1):
            for k1 in range(n):
                yield ('h', k1, k2)
        for k2 in range(n):
            for k1 in range(n + 1):
                yield ('v', k1, k2)

    def plaquettes(self) -> Iterator[tuple[int, int]]:
        """Lower-left corners, row-major (stable enumeration order)."""
        for k2 in range(self.n):
            for k1 in range(self.n):
                yield (k1, k2)

    def plaquette_index(self, k1: int, k2: int) -> int:
        return k2 * self.n + k1

    def plaquette_loop(self, k1: int, k2: int) -> list[tuple[int, int]]:
        """Counter-clockwise boundary loop based at the lower-left corner."""
        return [(k1, k2), (k1 + 1, k2), (k1 + 1, k2 + 1), (k1, k2 + 1), (k1, k2)]

    def to_json_dict(self) -> dict:
        """Debug dump: nodes, bonds and the plaquette index map."""
        return {
            "N": self.N,
            "nodes": [list(x) for x in self.nodes()],
            "pos_bonds": [list(b) for b in self.pos_bonds()],
            "plaquette_index": {
                f"{k1},{k2}": self.plaquette_index(k1, k2)
                for (k1, k2) in self.plaquettes()
            },
        }


def build_lattice(N: int) -> LatticeGeometry:
    if not (1 <= N <= MAX_SCALE):
        raise ConfigurationError(f"lattice scale N must be in [1, {MAX_SCALE}], got {N}")
    return LatticeGeometry(N)


@dataclass(frozen=True)
class Segment:
    """Axis-parallel segment with endpoints on the scale-N grid.

    `base` is the integer coordinate of the starting node, `direction` is
    1 (horizontal) or 2 (vertical), and `nbonds` the number of lattice
    bonds it spans (0 allowed: the empty segment).
    """

    base: tuple[int, int]
    direction: int
    nbonds: int
    scale: int

    def __post_init__(self):
        if self.direction not in (1, 2):
            raise DomainError(f"direction must be 1 or 2, got {self.direction}")
        n = 1 << self.scale
        k1, k2 = self.base
        e1, e2 = (1, 0) if self.direction == 1 else (0, 1)
        if not (0 <= k1 <= n and 0 <= k2 <= n):
            raise DomainError(f"segment base {self.base} outside lattice")
        if not (0 <= k1 + e1 * self.nbonds <= n and 0 <= k2 + e2 * self.nbonds <= n):
            raise DomainError("segment endpoint outside lattice")
        if self.nbonds < 0:
            raise DomainError("segment length must be nonnegative")

    @property
    def length(self) -> float:
        return self.nbonds * 2.0 ** (-self.scale)

    @property
    def end(self) -> tuple[int, int]:
        k1, k2 = self.base
        if self.direction == 1:
            return (k1 + self.nbonds, k2)
        return (k1, k2 + self.nbonds)

    def bonds(self) -> list[Bond]:
        k1, k2 = self.base
        if self.direction == 1:
            return [('h', k1 + j, k2) for j in range(self.nbonds)]
        return [('v', k1, k2 + j) for j in range(self.nbonds)]


def segments(geom: LatticeGeometry) -> Iterator[Segment]:
    """Every axis-parallel segment (zero length included), stable order.

    Order: direction, then transverse coordinate, then base, then length.
    """
    n = geom.n
    for direction in (1, 2):
        for t in range(n + 1):          # transverse coordinate
            for s in range(n + 1):      # base along the direction
                for k in range(n + 1 - s):
                    base = (s, t) if direction == 1 else (t, s)
                    yield Segment(base, direction, k, geom.N)


def parallel(l: Segment, l2: Segment) -> bool:
    """Same direction and identical projection onto that axis."""
    if l.scale != l2.scale or l.direction != l2.direction:
        return False
    axis = 0 if l.direction == 1 else 1
    return l.base[axis] == l2.base[axis] and l.nbonds == l2.nbonds


def segment_distance(l: Segment, l2: Segment) -> float:
    """Offset distance between two parallel segments."""
    if not parallel(l, l2):
        raise DomainError("segments are not parallel")
    off = 1 if l.direction == 1 else 0
    return abs(l.base[off] - l2.base[off]) * 2.0 ** (-l.scale)


def rho(l: Segment, l2: Segment) -> float:
    """sqrt(|l| * d(l, l2)); its square is the area of the spanned rectangle."""
    d = segment_distance(l, l2)
    return (l.length * d) ** 0.5


@dataclass(frozen=True)
class Rect:
    """Axis-parallel rectangle with corners on the scale-`scale` grid.

    Coordinates and side lengths are in units of 2^-scale; w, h >= 1.
    """

    x0: int
    y0: int
    w: int
    h: int
    scale: int

    def __post_init__(self):
        n = 1 << self.scale
        if self.w <= 0 or self.h <= 0:
            raise DomainError("rectangle sides must be positive")
        if not (0 <= self.x0 and 0 <= self.y0 and self.x0 + self.w <= n and self.y0 + self.h <= n):
            raise DomainError("rectangle not contained in [0,1]^2")

    @property
    def area(self) -> Fraction:
        return Fraction(self.w * self.h, 1 << (2 * self.scale))

    def rescale(self, new_scale: int) -> "Rect":
        """Express the same rectangle in units of 2^-new_scale (>= scale)."""
        if new_scale < self.scale:
            raise DomainError("can only rescale to a finer grid")
        f = 1 << (new_scale - self.scale)
        return Rect(self.x0 * f, self.y0 * f, self.w * f, self.h * f, new_scale)

    def plaquettes(self) -> Iterator[tuple[int, int]]:
        for k2 in range(self.y0, self.y0 + self.h):
            for k1 in range(self.x0, self.x0 + self.w):
                yield (k1, k2)

    def boundary_loop(self) -> list[tuple[int, int]]:
        """Counter-clockwise boundary based at the lower-left corner."""
        x0, y0, x1, y1 = self.x0, self.y0, self.x0 + self.w, self.y0 + self.h
        nodes = [(x, y0) for x in range(x0, x1)]
        nodes += [(x1, y) for y in range(y0, y1)]
        nodes += [(x, y1) for x in range(x1, x0, -1)]
        nodes += [(x0, y) for y in range(y1, y0, -1)]
        nodes.append((x0, y0))
        return nodes


@dataclass(frozen=True)
class ThinRect:
    """A rectangle of dimensions 2^-n x k2^-n (or transposed) with corners
    on the scale-n grid; `rect` is expressed at the geometry scale N."""

    rect: Rect
    thin_scale: int

    def __post_init__(self):
        n, N = self.thin_scale, self.rect.scale
        if n > N:
            raise DomainError("thin scale exceeds lattice scale")
        f = 1 << (N - n)
        r = self.rect
        if r.x0 % f or r.y0 % f or r.w % f or r.h % f:
            raise DomainError("thin rectangle corners not on the scale-n grid")
        wu, hu = r.w // f, r.h // f
        if not (wu == 1 or hu == 1):
            raise DomainError("not thin: neither side has length 2^-n")
        if max(wu, hu) > (1 << n):
            raise DomainError("thin rectangle side exceeds 1")


def _largest_pow2_leq(x: int) -> int:
    return 1 << (x.bit_length() - 1)


def _dyadic_interval_decomposition(a: int, b: int, N: int) -> list[tuple[int, int]]:
    """Split [a,b] (units of 2^-N, b-a <= 2^(N-1)) into dyadically anchored
    subintervals; each piece has power-of-two length and endpoints that are
    multiples of that length.

    Returns the list of (start, length) pairs, left to right.
    """
    if b - a > (1 << N) // 2:
        raise DomainError("interval longer than 1/2")
    if a == b:
        return []
    # Smallest scale n such that some multiple of 2^(N-n) lies in [a, b].
    for n in range(0, N + 1):
        step = 1 << (N - n)
        k_lo = -(-a // step)  # ceil division
        k_hi = b // step
        if k_lo <= k_hi:
            if k_lo < k_hi:
                # impossible for intervals of length <= 1/2; surface the bug
                raise DomainError(
                    f"dyadic anchor not unique in [{a},{b}] at scale {n}"
                )
            z = k_lo * step
            break
    pieces = []
    # Walk left from z to a; step sizes strictly decrease.
    hi = z
    while hi > a:
        s = _largest_pow2_leq(hi - a)
        pieces.append((hi - s, s))
        hi -= s
    pieces.reverse()
    # Walk right from z to b.
    lo = z
    while lo < b:
        s = _largest_pow2_leq(b - lo)
        pieces.append((lo, s))
        lo += s
    return pieces


def decompose_rectangle(r: Rect) -> list[ThinRect]:
    """Partition `r` into thin rectangles.

    Rectangles with a side longer than 1/2 are first split at the midline
    of the square in each offending axis; each resulting piece is cut along
    the dyadic decomposition of its two coordinate intervals, and every cell
    of the product grid is a thin rectangle.
    """
    N = r.scale
    half = (1 << N) // 2

    def split(a0, w):
        if w > half and a0 < half < a0 + w:
            return [(a0, half - a0), (half, a0 + w - half)]
        return [(a0, w)]

    out = []
    for (x0, w) in split(r.x0, r.w):
        for (y0, h) in split(r.y0, r.h):
            xs = _dyadic_interval_decomposition(x0, x0 + w, N)
            ys = _dyadic_interval_decomposition(y0, y0 + h, N)
            for (sx, wx) in xs:
                for (sy, wy) in ys:
                    piece = Rect(sx, sy, wx, wy, N)
                    n_thin = N - min(wx, wy).bit_length() + 1
                    out.append(ThinRect(piece, n_thin))
    return out


def thin_sum_constant(alpha: float) -> float:
    """C_alpha = sum_{m>=0} 4 (m+1) 2^(-alpha m) = 4 / (1 - 2^-alpha)^2."""
    x = 2.0 ** (-alpha)
    return 4.0 / (1.0 - x) ** 2


@dataclass(frozen=True)
class MaximalTree:
    """Spanning tree of Lambda: every horizontal bond plus the left column."""

    scale: int

    @property
    def bonds(self) -> set[Bond]:
        n = 1 << self.scale
        tree = {('h', k1, k2) for k2 in range(n + 1) for k1 in range(n)}
        tree |= {('v', 0, k2) for k2 in range(n)}
        return tree


def maximal_tree(geom: LatticeGeometry) -> MaximalTree:
    return MaximalTree(geom.N)
