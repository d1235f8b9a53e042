import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u1higgs.lattice_geom import (
    ConfigurationError,
    DomainError,
    Rect,
    Segment,
    ThinRect,
    build_lattice,
    decompose_rectangle,
    maximal_tree,
    parallel,
    rho,
    segments,
    thin_sum_constant,
)


def test_counts_n1():
    g = build_lattice(1)
    assert g.node_count == 9
    assert g.pos_bond_count == 12
    assert g.plaquette_count == 4
    assert g.interior_node_count == 1
    assert list(g.interior_nodes()) == [(1, 1)]


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_counts_formulas(N):
    g = build_lattice(N)
    n = 2 ** N
    assert g.node_count == (n + 1) ** 2 == len(list(g.nodes()))
    assert g.pos_bond_count == 2 * n * (n + 1) == len(list(g.pos_bonds()))
    assert g.plaquette_count == n * n == len(list(g.plaquettes()))
    assert g.interior_node_count == (n - 1) ** 2 == len(list(g.interior_nodes()))


def test_plaquette_count_n2():
    assert build_lattice(2).plaquette_count == 16


def test_scale_guard():
    with pytest.raises(ConfigurationError):
        build_lattice(0)
    with pytest.raises(ConfigurationError):
        build_lattice(13)


def test_plaquette_enumeration_row_major():
    g = build_lattice(2)
    plist = list(g.plaquettes())
    assert plist[0] == (0, 0) and plist[1] == (1, 0) and plist[4] == (0, 1)
    for i, (k1, k2) in enumerate(plist):
        assert g.plaquette_index(k1, k2) == i


def test_plaquette_loop_shape():
    g = build_lattice(2)
    loop = g.plaquette_loop(1, 2)
    assert loop[0] == loop[-1] == (1, 2)
    assert len(set(loop)) == 4


# ---------------------------------------------------------------- segments

def test_segment_count_n1_direction1_positive():
    g = build_lattice(1)
    horiz_pos = [s for s in segments(g) if s.direction == 1 and s.nbonds > 0]
    assert len(horiz_pos) == 9  # (2^N+1) * 2^N(2^N+1)/2 at N=1


def test_zero_length_segment_count():
    g = build_lattice(2)
    zeros = [s for s in segments(g) if s.nbonds == 0]
    assert len(zeros) == 2 * g.node_count


def test_segments_unique_and_round_trip():
    g = build_lattice(2)
    seen = set()
    for s in segments(g):
        key = (s.base, s.direction, s.nbonds)
        assert key not in seen
        seen.add(key)
        bonds = s.bonds()
        assert len(bonds) == s.nbonds
        if s.nbonds:
            # bond decomposition reproduces the segment
            kind = 'h' if s.direction == 1 else 'v'
            assert all(b[0] == kind for b in bonds)
            assert bonds[0][1:] == s.base
    # total count: per direction (n+1) lines x (n+1)(n+2)/2 (start, length) pairs
    n = g.n
    assert len(seen) == 2 * (n + 1) * (n + 1) * (n + 2) // 2


# ---------------------------------------------------------------- rho

def test_rho_zero_iff_equal():
    s1 = Segment((0, 0), 1, 2, 2)
    s2 = Segment((0, 3), 1, 2, 2)
    assert rho(s1, s1) == 0.0
    assert rho(s1, s2) > 0.0


def test_rho_value():
    # |l| = 1/2, d = 1/4 at N=2
    l = Segment((0, 0), 1, 2, 2)
    l2 = Segment((0, 1), 1, 2, 2)
    assert math.isclose(rho(l, l2), math.sqrt(0.5 * 0.25), rel_tol=1e-15)


def test_rho_non_parallel_raises():
    l = Segment((0, 0), 1, 2, 2)
    with pytest.raises(DomainError):
        rho(l, Segment((0, 0), 2, 2, 2))
    with pytest.raises(DomainError):
        rho(l, Segment((1, 1), 1, 2, 2))  # shifted along the axis


@given(st.integers(0, 4), st.integers(0, 4), st.integers(1, 4),
       st.integers(0, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_rho_symmetry_and_area(base1, t1, k, t2, data):
    N = 2
    n = 2 ** N
    base1 = min(base1, n - k)
    l = Segment((base1, t1), 1, k, N)
    l2 = Segment((base1, t2), 1, k, N)
    assert rho(l, l2) == rho(l2, l)
    # rho^2 equals width x height of the spanned rectangle
    area = (k / n) * (abs(t1 - t2) / n)
    assert math.isclose(rho(l, l2) ** 2, area, rel_tol=0, abs_tol=1e-15)


def test_rho_trivial_lower_bound():
    # distinct parallel segments at scale N have rho >= 2^(-N/2) |l|^(1/2)
    N = 3
    g = build_lattice(N)
    segs = [s for s in segments(g) if s.direction == 1 and s.nbonds > 0]
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.integers(0, len(segs), size=2)
        if parallel(segs[a], segs[b]) and segs[a] != segs[b]:
            r = rho(segs[a], segs[b])
            assert r >= 2 ** (-N / 2) * segs[a].length ** 0.5 - 1e-15


# ---------------------------------------------------------------- maximal tree

def test_tree_bond_count_n1():
    t = maximal_tree(build_lattice(1))
    assert len(t.bonds) == 8  # |nodes| - 1


def test_tree_shape():
    g = build_lattice(2)
    t = maximal_tree(g)
    tree = t.bonds
    assert len(tree) == g.node_count - 1
    for b in g.pos_bonds():
        if b[0] == 'h':
            assert b in tree
        else:
            assert (b in tree) == (b[1] == 0)


def test_tree_spans_by_bfs():
    g = build_lattice(3)
    t = maximal_tree(g)
    adj = {node: [] for node in g.nodes()}
    for (kind, k1, k2) in t.bonds:
        a = (k1, k2)
        b = (k1 + 1, k2) if kind == 'h' else (k1, k2 + 1)
        adj[a].append(b)
        adj[b].append(a)
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    assert len(seen) == g.node_count


def test_adding_nontree_bond_creates_one_cycle():
    # a spanning tree plus one extra edge has exactly one cycle: check the
    # cycle count via edges - nodes + components
    g = build_lattice(2)
    t = maximal_tree(g)
    n_edges = len(t.bonds) + 1
    assert n_edges - g.node_count + 1 == 1


# ---------------------------------------------------------------- thin rectangles

def test_thin_rect_validation():
    ThinRect(Rect(0, 0, 4, 1, 2), 2)      # 1 x 1/4 strip at N=2... units of 2^-2
    ThinRect(Rect(0, 0, 1, 1, 2), 2)
    ThinRect(Rect(0, 0, 2, 2, 2), 1)      # 1/2 x 1/2 is 1-thin with k = 1
    with pytest.raises(DomainError):
        ThinRect(Rect(0, 0, 2, 2, 2), 2)  # neither side has length 2^-2
    with pytest.raises(DomainError):
        ThinRect(Rect(1, 0, 2, 1, 2), 1)  # corners off the scale-1 grid


def test_decompose_thin_is_identity_like():
    r = Rect(0, 0, 1, 3, 3)  # 2^-3 x 3*2^-3: already thin
    parts = decompose_rectangle(r)
    assert sum(p.rect.area for p in parts) == r.area
    # may split along the long axis but must stay a partition of r
    assert all(p.rect.x0 == 0 and p.rect.w == 1 for p in parts)


def _assert_exact_partition(r, parts):
    n = 1 << r.scale
    cover = np.zeros((n, n), dtype=int)
    for p in parts:
        pr = p.rect
        cover[pr.x0:pr.x0 + pr.w, pr.y0:pr.y0 + pr.h] += 1
    expect = np.zeros((n, n), dtype=int)
    expect[r.x0:r.x0 + r.w, r.y0:r.y0 + r.h] = 1
    np.testing.assert_array_equal(cover, expect)


def test_decompose_quarter_square():
    r = Rect(0, 0, 2, 2, 2)  # [0,1/2]^2 at N=2
    parts = decompose_rectangle(r)
    _assert_exact_partition(r, parts)
    assert sum(p.rect.area for p in parts) == Fraction(1, 4)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_decompose_random_partition(N):
    rng = np.random.default_rng(42 + N)
    n = 2 ** N
    for _ in range(1000 if N <= 4 else 250):
        w = int(rng.integers(1, n + 1))
        h = int(rng.integers(1, n + 1))
        x0 = int(rng.integers(0, n - w + 1))
        y0 = int(rng.integers(0, n - h + 1))
        r = Rect(x0, y0, w, h, N)
        parts = decompose_rectangle(r)
        _assert_exact_partition(r, parts)


def test_decompose_alpha_sum_bound_and_multiplicity():
    N = 5
    rng = np.random.default_rng(7)
    n = 2 ** N
    c_half = thin_sum_constant(0.5)
    for _ in range(300):
        w = int(rng.integers(1, n + 1))
        h = int(rng.integers(1, n + 1))
        x0 = int(rng.integers(0, n - w + 1))
        y0 = int(rng.integers(0, n - h + 1))
        r = Rect(x0, y0, w, h, N)
        parts = decompose_rectangle(r)
        total = sum(float(p.rect.area) ** 0.5 for p in parts)
        assert total <= c_half * float(r.area) ** 0.5 + 1e-12
        # at most 4 pieces of any given dimensions within each <=1/2-sided block;
        # after the midline split at most 4 per block x up to 4 blocks
        dims = {}
        for p in parts:
            dims[(p.rect.w, p.rect.h)] = dims.get((p.rect.w, p.rect.h), 0) + 1
        limit = 4 if (w <= n // 2 and h <= n // 2) else 16
        assert max(dims.values()) <= limit


def test_thin_sum_constant_value():
    # partial-sum cross-check of the closed form
    psum = sum(4 * (m + 1) * 2 ** (-0.5 * m) for m in range(400))
    assert math.isclose(thin_sum_constant(0.5), psum, rel_tol=1e-12)


def test_decomposed_pieces_are_thin():
    r = Rect(3, 1, 9, 22, 5)
    for p in decompose_rectangle(r):
        ThinRect(p.rect, p.thin_scale)  # raises DomainError unless thin
