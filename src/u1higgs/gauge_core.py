"""U(1) gauge fields on the dyadic lattice.

A gauge field stores one angle per positively oriented bond; the reverse
bond carries the conjugate value by construction.  Angles of horizontal
bonds (k1,k2)->(k1+1,k2) live in `theta_h[k1, k2]` (shape (n, n+1)) and
vertical bonds (k1,k2)->(k1,k2+1) in `theta_v[k1, k2]` (shape (n+1, n)).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .lattice_geom import Bond, DomainError, LatticeGeometry, build_lattice

TWO_PI = 2.0 * np.pi
UNIT_TOL = 1e-12   # |z| - 1 allowed in log_u1
AXIAL_TOL = 1e-12  # tree-bond angle allowed in is_axial


def wrap_angle(x):
    """Reduce mod 2*pi into (-pi, pi] (storage convention)."""
    y = np.mod(-np.asarray(x) + np.pi, TWO_PI)
    return -(y - np.pi)


def log_u1(z):
    """Principal logarithm of a unit complex number, valued in [-pi, pi).

    Accepts either a unit complex number (checked to UNIT_TOL) or a real
    angle, which is wrapped into the branch.
    """
    z = np.asarray(z)
    if np.iscomplexobj(z):
        if np.any(np.abs(np.abs(z) - 1.0) > UNIT_TOL):
            raise DomainError("log_u1 requires unit modulus")
        x = np.angle(z)
    else:
        x = np.mod(np.asarray(z, dtype=float) + np.pi, TWO_PI) - np.pi
    # np.angle returns (-pi, pi]; fold +pi to -pi for the [-pi, pi) branch
    x = np.where(x >= np.pi, x - TWO_PI, x)
    if x.ndim == 0:
        return float(x)
    return x


@dataclass
class GaugeField:
    geom: LatticeGeometry
    theta_h: np.ndarray  # (n, n+1)
    theta_v: np.ndarray  # (n+1, n)

    def __post_init__(self):
        n = self.geom.n
        if self.theta_h.shape != (n, n + 1) or self.theta_v.shape != (n + 1, n):
            raise DomainError("gauge field array shapes do not match geometry")

    @classmethod
    def identity(cls, geom: LatticeGeometry) -> "GaugeField":
        n = geom.n
        return cls(geom, np.zeros((n, n + 1)), np.zeros((n + 1, n)))

    @classmethod
    def random(cls, geom: LatticeGeometry, rng: np.random.Generator) -> "GaugeField":
        n = geom.n
        th = wrap_angle(rng.uniform(-np.pi, np.pi, size=(n, n + 1)))
        tv = wrap_angle(rng.uniform(-np.pi, np.pi, size=(n + 1, n)))
        return cls(geom, th, tv)

    def copy(self) -> "GaugeField":
        return GaugeField(self.geom, self.theta_h.copy(), self.theta_v.copy())

    def bond_angle(self, x: tuple[int, int], y: tuple[int, int]) -> float:
        """Angle of the oriented bond x->y (conjugate for reversed bonds)."""
        (a1, a2), (b1, b2) = x, y
        if b1 == a1 + 1 and b2 == a2:
            return float(self.theta_h[a1, a2])
        if b1 == a1 - 1 and b2 == a2:
            return -float(self.theta_h[b1, b2])
        if b1 == a1 and b2 == a2 + 1:
            return float(self.theta_v[a1, a2])
        if b1 == a1 and b2 == a2 - 1:
            return -float(self.theta_v[a1, b2])
        raise DomainError(f"nodes {x} and {y} are not adjacent")

    def plaquette_angles(self) -> np.ndarray:
        """log g(boundary p) for every plaquette, shape (n, n), in [-pi, pi)."""
        th, tv = self.theta_h, self.theta_v
        raw = th[:, :-1] + tv[1:, :] - th[:, 1:] - tv[:-1, :]
        return log_u1(raw)

    def max_bond_log(self) -> float:
        return float(max(np.abs(log_u1(self.theta_h)).max(initial=0.0),
                         np.abs(log_u1(self.theta_v)).max(initial=0.0)))

    def to_json_dict(self) -> dict:
        bonds = []
        for k2 in range(self.geom.n + 1):
            for k1 in range(self.geom.n):
                bonds.append({"x": [k1, k2], "dir": 1,
                              "theta": float(self.theta_h[k1, k2])})
        for k2 in range(self.geom.n):
            for k1 in range(self.geom.n + 1):
                bonds.append({"x": [k1, k2], "dir": 2,
                              "theta": float(self.theta_v[k1, k2])})
        return {"N": self.geom.N, "bonds": bonds}

    def dump_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=0,
                      default=float, separators=(",", ":"))
            f.write("\n")


def _field_key(obj, key, where):
    """obj[key] from a gauge-field file; a missing key is a DomainError naming it."""
    if not isinstance(obj, dict) or key not in obj:
        raise DomainError(f"gauge field file: {where} has no {key!r} key")
    return obj[key]


def _field_number(obj, key, where, integer=False):
    """obj[key] from a gauge-field file, which must be a JSON integer if
    `integer`, else a JSON number; a bool or any other value is a DomainError."""
    value = _field_key(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise DomainError(f"gauge field file: {where} has {key!r} = {value!r}, not {kind}")
    return value


def load_gauge_field(obj) -> GaugeField:
    """Load a gauge field from the JSON wire format, validating keys, bond
    coordinates, counts and range."""
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    geom = build_lattice(_field_number(obj, "N", "the file", integer=True))
    n = geom.n
    th = np.full((n, n + 1), np.nan)
    tv = np.full((n + 1, n), np.nan)
    bonds = _field_key(obj, "bonds", "the file")
    if not isinstance(bonds, list):
        raise DomainError(f"gauge field file: 'bonds' = {bonds!r} is not a list")
    for i, b in enumerate(bonds):
        x = _field_key(b, "x", f"bond {i}")
        theta = float(_field_number(b, "theta", f"bond {i}"))
        d = _field_key(b, "dir", f"bond {i}")
        if not (-np.pi < theta <= np.pi):
            raise DomainError(f"bond angle {theta} outside (-pi, pi]")
        if d not in (1, 2):
            raise DomainError(f"bad bond direction {d}")
        arr = th if d == 1 else tv
        if not (isinstance(x, (list, tuple)) and len(x) == 2
                and all(type(k) is int and 0 <= k < size for k, size in zip(x, arr.shape))):
            raise DomainError(f"bond {i} at {x} in direction {d} lies outside "
                              f"the N={geom.N} lattice")
        arr[x[0], x[1]] = theta
    if np.isnan(th).any() or np.isnan(tv).any() or len(bonds) != geom.pos_bond_count:
        raise DomainError("gauge field file does not cover every bond exactly once")
    return GaugeField(geom, th, tv)


@dataclass
class GaugeTransform:
    """One angle per node (including the boundary), shape (n+1, n+1)."""

    geom: LatticeGeometry
    angles: np.ndarray

    def __post_init__(self):
        n = self.geom.n
        if self.angles.shape != (n + 1, n + 1):
            raise DomainError("gauge transform shape does not match geometry")

    @classmethod
    def identity(cls, geom: LatticeGeometry) -> "GaugeTransform":
        return cls(geom, np.zeros((geom.n + 1, geom.n + 1)))

    @classmethod
    def random(cls, geom: LatticeGeometry, rng: np.random.Generator) -> "GaugeTransform":
        return cls(geom, wrap_angle(rng.uniform(-np.pi, np.pi,
                                                size=(geom.n + 1, geom.n + 1))))

    def is_identity(self) -> bool:
        """Test oracle: every angle is exactly 0, as the axial fix of an
        axial field and the gauge-fixing fallback must return."""
        return not self.angles.any()


def apply_gauge(g: GaugeField, u: GaugeTransform) -> GaugeField:
    """g^u with (g^u)_xy = u_x g_xy u_y^{-1}."""
    if g.geom != u.geom:
        raise DomainError("gauge field and transform geometries differ")
    a = u.angles
    th = wrap_angle(a[:-1, :] + g.theta_h - a[1:, :])
    tv = wrap_angle(a[:, :-1] + g.theta_v - a[:, 1:])
    return GaugeField(g.geom, th, tv)


@dataclass(frozen=True)
class LatticeLoop:
    """Closed nearest-neighbour node sequence (l_0, ..., l_n = l_0)."""

    nodes: tuple[tuple[int, int], ...]
    scale: int

    def __post_init__(self):
        if len(self.nodes) < 1 or self.nodes[0] != self.nodes[-1]:
            raise DomainError("loop must be closed")
        n = 1 << self.scale
        for (a, b) in zip(self.nodes, self.nodes[1:]):
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                raise DomainError(f"consecutive loop nodes {a}, {b} not adjacent")
        for (k1, k2) in self.nodes:
            if not (0 <= k1 <= n and 0 <= k2 <= n):
                raise DomainError("loop leaves the lattice")

    @property
    def length(self) -> int:
        return len(self.nodes) - 1


def plaquette_loop(geom: LatticeGeometry, k1: int, k2: int) -> LatticeLoop:
    return LatticeLoop(tuple(geom.plaquette_loop(k1, k2)), geom.N)


def rect_boundary_loop(geom: LatticeGeometry, rect) -> LatticeLoop:
    return LatticeLoop(tuple(rect.rescale(geom.N).boundary_loop()), geom.N)


def holonomy(g: GaugeField, loop: LatticeLoop) -> complex:
    """Ordered product of bond values along the loop."""
    total = 0.0
    for (a, b) in zip(loop.nodes, loop.nodes[1:]):
        total += g.bond_angle(a, b)
    return complex(np.cos(total), np.sin(total))


def winding_vector(loop: LatticeLoop) -> np.ndarray:
    """Winding number of the loop around each plaquette centre, shape (n, n).

    Signed crossings of a rightward horizontal ray from each centre with the
    loop's vertical steps, accumulated row by row: a vertical step at column
    k1 crossing row k2 adds its sign to every plaquette (j, k2) with j < k1.
    """
    n = 1 << loop.scale
    crossings = np.zeros((n, n + 1), dtype=np.int64)  # [row, column of the step]
    for (a, b) in zip(loop.nodes, loop.nodes[1:]):
        if a[0] == b[0]:  # vertical step
            sign = 1 if b[1] == a[1] + 1 else -1
            row = min(a[1], b[1])
            crossings[row, a[0]] += sign
    # plaquette (j, row) sees all steps with column > j
    out = np.cumsum(crossings[:, ::-1], axis=1)[:, ::-1][:, 1:]
    return np.ascontiguousarray(out.T)  # index [k1, k2]


def omega_exact(loop: LatticeLoop):
    """2^-2N sum_p l(p)^2 as an exact Fraction."""
    from fractions import Fraction

    w = winding_vector(loop)
    return Fraction(int((w.astype(object) ** 2).sum()), 1 << (2 * loop.scale))


def omega(loop: LatticeLoop) -> float:
    return float(omega_exact(loop))


@functools.lru_cache(maxsize=16)
def _stencil_tables(n: int) -> tuple[np.ndarray, ...]:
    """Index tables of the interior covariant Laplacian at side n.

    Interior node (k1,k2), 1 <= k1,k2 <= n-1, is row (k2-1)*(n-1) + (k1-1)
    of an (M, M) matrix, M = (n-1)^2.  Returns the flat positions of the
    diagonal, the flat positions (x, y) and (y, x) of every interior bond
    x->y, and that bond's position in the concatenated raveled
    (theta_h, theta_v) angles.  Built once per side; read-only.
    """
    m = n - 1
    M = m * m
    node = lambda k1, k2: (k2 - 1) * m + (k1 - 1)
    k1, k2 = np.meshgrid(np.arange(1, n), np.arange(1, n), indexing="ij")
    h1, h2 = k1[:-1, :].ravel(), k2[:-1, :].ravel()     # (k1,k2)->(k1+1,k2)
    v1, v2 = k1[:, :-1].ravel(), k2[:, :-1].ravel()     # (k1,k2)->(k1,k2+1)
    x = np.concatenate([node(h1, h2), node(v1, v2)])
    y = np.concatenate([node(h1 + 1, h2), node(v1, v2 + 1)])
    bond = np.concatenate([h1 * (n + 1) + h2, n * (n + 1) + v1 * n + v2])
    tables = (np.arange(M) * (M + 1), x * M + y, y * M + x, bond)
    for t in tables:
        t.setflags(write=False)
    return tables


def _covariant_stencil(N: int, theta_h: np.ndarray, theta_v: np.ndarray,
                       diag: float, hop: float) -> np.ndarray:
    """diag * I + hop * (g_xy on interior bonds x->y, conj(g_xy) on y->x)
    on interior nodes, for a batch of B fields with bond angles theta_h
    (B, n, n+1) and theta_v (B, n+1, n); shape (B, M, M)."""
    n = 1 << N
    if n == 1:
        raise DomainError("no interior nodes at N=0")
    dpos, fwd, bwd, bond = _stencil_tables(n)
    B = theta_h.shape[0]
    M = (n - 1) ** 2
    angles = np.concatenate([theta_h.reshape(B, -1), theta_v.reshape(B, -1)], axis=1)
    phase = np.exp(1j * angles[:, bond])
    out = np.zeros((B, M * M), dtype=complex)
    out[:, dpos] = diag
    out[:, fwd] = hop * phase
    out[:, bwd] = hop * phase.conj()
    return out.reshape(B, M, M)


def covariant_laplacian(g: GaugeField) -> np.ndarray:
    """Matrix of the covariant Laplacian on interior nodes.

    Interior node (k1,k2), 1 <= k1,k2 <= n-1, is row (k2-1)*(n-1) + (k1-1).
    Entries: diagonal -4 * 2^(2N); off-diagonal 2^(2N) * g_xy for interior
    neighbours y of x.  Hermitian, negative semi-definite.
    """
    scale = float(4 ** g.geom.N)
    return _covariant_stencil(g.geom.N, g.theta_h[None], g.theta_v[None],
                              -4.0 * scale, scale)[0]


def covariant_precision(N: int, theta_h: np.ndarray, theta_v: np.ndarray) -> np.ndarray:
    """I - 2^-2N Lap_g (Hermitian, eigenvalues >= 1) for a batch of fields
    with bond angles theta_h (B, n, n+1) and theta_v (B, n+1, n): diagonal 5,
    off-diagonal -g_xy; shape (B, M, M).  Entry for entry the same floats as
    I - 2^-2N * covariant_laplacian(g)."""
    return _covariant_stencil(N, theta_h, theta_v, 5.0, -1.0)


def covariant_derivative(g: GaugeField, phi: np.ndarray) -> dict[Bond, complex]:
    """(d_g phi)(x,y) = 2^N (g_xy phi_y - phi_x) on positively oriented bonds.

    `phi` is a full (n+1, n+1) complex node array (boundary values included).
    Test oracle, bond by bond in Python: the summation-by-parts identity
    -<phi, Lap_g phi'> = (1/2) <d_g phi, d_g phi'> checks covariant_laplacian.
    """
    n = g.geom.n
    out = {}
    s = float(2 ** g.geom.N)
    for k2 in range(n + 1):
        for k1 in range(n):
            out[('h', k1, k2)] = s * (np.exp(1j * g.theta_h[k1, k2]) * phi[k1 + 1, k2]
                                      - phi[k1, k2])
    for k2 in range(n):
        for k1 in range(n + 1):
            out[('v', k1, k2)] = s * (np.exp(1j * g.theta_v[k1, k2]) * phi[k1, k2 + 1]
                                      - phi[k1, k2])
    return out


def interior_to_grid(geom: LatticeGeometry, vec: np.ndarray) -> np.ndarray:
    """Embed an interior-node vector into a full (n+1, n+1) grid, zero
    boundary: the input covariant_derivative's test oracle takes."""
    n = geom.n
    grid = np.zeros((n + 1, n + 1), dtype=complex)
    grid[1:n, 1:n] = vec.reshape(n - 1, n - 1).T
    return grid


def axial_angles(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bond angles (theta_h, theta_v) of the axial-gauge fields with
    plaquette angles X, for a batch X of shape (..., n, n); see `psi`."""
    X = np.asarray(X, dtype=float)
    *batch, n, _ = X.shape
    tv = np.zeros((*batch, n + 1, n))
    tv[..., 1:, :] = np.cumsum(X, axis=-2)
    return np.zeros((*batch, n, n + 1)), wrap_angle(tv)


def psi(geom: LatticeGeometry, X: np.ndarray) -> GaugeField:
    """Axial-gauge field with plaquette holonomies e^{i X_p}.

    Horizontal and left-column bonds carry the identity; the vertical bond
    in column k, row j carries the cumulative plaquette angle
    sum_{c<k} X[c, j], wrapped to (-pi, pi].  `X` has shape (n, n), indexed
    [k1, k2] by the plaquette's lower-left corner.
    """
    n = geom.n
    X = np.asarray(X, dtype=float)
    if X.shape != (n, n):
        raise DomainError("plaquette angle array shape mismatch")
    return GaugeField(geom, *axial_angles(X))


def to_axial(g: GaugeField) -> tuple[GaugeTransform, GaugeField]:
    """The unique u with u(origin) = 1 making g^u tree-trivial (Fig.-2 tree:
    all horizontal bonds plus the left column)."""
    n = g.geom.n
    a = np.zeros((n + 1, n + 1))
    # left column upward: u_y = u_x g_xy along tree bonds
    a[0, 1:] = np.cumsum(g.theta_v[0, :])
    # rows rightward
    a[1:, :] = a[0, :][None, :] + np.cumsum(g.theta_h, axis=0)
    u = GaugeTransform(g.geom, wrap_angle(a))
    fixed = apply_gauge(g, u)
    # tree bonds are exactly zero up to wrapping of the cumulants; force the
    # stored representation to exact zeros to make axiality bit-exact
    fixed.theta_h[:, :] = 0.0
    fixed.theta_v[0, :] = 0.0
    return u, fixed


def is_axial(g: GaugeField) -> bool:
    """Test oracle: whether every tree bond of `to_axial` is within
    AXIAL_TOL of 0."""
    return bool(np.all(np.abs(g.theta_h) <= AXIAL_TOL)
                and np.all(np.abs(g.theta_v[0, :]) <= AXIAL_TOL))


def random_closed_loop(geom: LatticeGeometry, rng: np.random.Generator,
                       walk_len: int = 20) -> LatticeLoop:
    """Test oracle input: a closed random walk bridged back to its start by an
    L-shaped return, on which tests check the holonomy and winding identities.

    The walk stays inside the lattice; the return path goes along x first,
    then along y.
    """
    n = geom.n
    start = (int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1)))
    nodes = [start]
    cur = start
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for _ in range(walk_len):
        d1, d2 = steps[rng.integers(0, 4)]
        nxt = (cur[0] + d1, cur[1] + d2)
        if 0 <= nxt[0] <= n and 0 <= nxt[1] <= n:
            nodes.append(nxt)
            cur = nxt
    sx = 1 if start[0] > cur[0] else -1
    while cur[0] != start[0]:
        cur = (cur[0] + sx, cur[1])
        nodes.append(cur)
    sy = 1 if start[1] > cur[1] else -1
    while cur[1] != start[1]:
        cur = (cur[0], cur[1] + sy)
        nodes.append(cur)
    if len(nodes) == 1:
        # degenerate walk: backtracking 2-step loop
        mid = (start[0] + 1, start[1]) if start[0] < n else (start[0] - 1, start[1])
        nodes = [start, mid, start]
    return LatticeLoop(tuple(nodes), geom.N)
