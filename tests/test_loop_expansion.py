import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from u1higgs import loop_expansion
from u1higgs.lattice_geom import DomainError, ResourceError, build_lattice
from u1higgs.loop_expansion import (
    HIGGS_MAX_LEN,
    EdgeClass,
    MultiGraph,
    OperatorAssignment,
    QuadratureSpec,
    RadialMeasure,
    brute_force_integral,
    c_coeff,
    check_log_convex_moments,
    enumerate_loop_classes,
    expansion_value,
    higgs_loop_coefficients,
    higgs_site_measure,
    interior_bond_graph,
    k_complex,
    k_real,
    loop_trace,
    sphere_mass,
)
from u1higgs.loop_expansion import (
    _class_sums,
    _edge_transfer_radius,
    _enumerate_raw,
    _incidence,
    _move_table,
    _multiset_table,
    _pair_term,
    _real_orbit,
    _signed,
    _site_grid,
    _vertex_form,
)
from u1higgs.sampler import PotentialSpec
from test_acceptance import _corpus_graphs

GAUSS = RadialMeasure.gaussian_type()


def dfact(n):
    return math.prod(range(n, 0, -2)) if n > 0 else 1


# ---------------------------------------------------------------- constants

def test_k_complex_values():
    assert k_complex(0, 1) == pytest.approx(2 * math.pi, abs=1e-12)
    assert k_complex(0, 2) == pytest.approx(2 * math.pi ** 2, abs=1e-12)
    assert k_complex(1, 1) == pytest.approx(2 * math.pi, abs=1e-12)


def test_k_real_values():
    assert k_real(0, 2) == pytest.approx(2 * math.pi, abs=1e-12)
    assert k_real(0, 3) == pytest.approx(4 * math.pi, abs=1e-12)
    for N in range(11):
        assert k_real(N, 1) * dfact(2 * N - 1) == pytest.approx(2.0, abs=1e-12)


def test_c_coeff_examples():
    d0 = RadialMeasure.dirac0()
    assert c_coeff(0, d0, "C", 1) == pytest.approx(2 * math.pi)
    assert c_coeff(3, d0, "C", 1) == 0.0
    for j in range(8):
        assert c_coeff(j, GAUSS, "C", 1) == pytest.approx(2 * math.pi, rel=1e-12)
        assert c_coeff(j, GAUSS, "R", 1) == pytest.approx(
            2 * math.factorial(j) / dfact(2 * j - 1), rel=1e-12)


def test_gaussian_moments_and_log_convexity():
    for j in range(6):
        assert GAUSS.moment(j) == math.factorial(j)
    quad_measure = RadialMeasure.from_density(lambda s: 2 * s * np.exp(-s * s))
    for j in range(6):
        assert quad_measure.moment(j) == pytest.approx(math.factorial(j), rel=1e-10)
    assert check_log_convex_moments(GAUSS)
    assert check_log_convex_moments(higgs_site_measure(lambda x: x ** 4 - x ** 2))


def test_radius_for_is_memoised_per_growth(monkeypatch):
    lam = RadialMeasure.gaussian_type()
    radii = [lam.radius_for(g) for g in (0.1, 0.3)]
    assert radii == [RadialMeasure.gaussian_type().radius_for(g) for g in (0.1, 0.3)]
    monkeypatch.setattr(lam, "density", None)  # no quadrature now
    assert [lam.radius_for(g) for g in (0.1, 0.3)] == radii


# ---------------------------------------------------------------- loop classes

def _self_loop_graph():
    return MultiGraph(("x",), (("x", "x"),))


def test_complex_self_loop_classes():
    G = _self_loop_graph()
    classes = enumerate_loop_classes(G, 3, "C")
    assert [c.length for c in classes] == [1, 2, 3]
    assert [c.S for c in classes] == [1, 2, 3]


def test_real_self_loop_classes():
    G = _self_loop_graph()
    classes = enumerate_loop_classes(G, 3, "R")
    assert [c.S for c in classes] == [2, 4, 6]  # S = |C_n x Z_2| = 2n


def test_doubled_triangle_symmetry():
    G = MultiGraph(("x", "y", "z"), (("x", "y"), ("y", "z"), ("z", "x")))
    classes = enumerate_loop_classes(G, 6, "C")
    by_len = {c.length: c for c in classes}
    assert by_len[3].S == 1
    assert by_len[6].S == 2  # (e f g e f g) fixed by rotation by 3


def test_real_mixed_self_loop_example():
    # loop (e^1, t, e^-1) with e oriented and t a self-loop has S = 2
    G = MultiGraph(("x", "y"), (("x", "y"), ("y", "y")))
    classes = enumerate_loop_classes(G, 3, "R")
    mixed = [c for c in classes if c.length == 3
             and {e for (e, _) in c.edges} == {0, 1}]
    assert len(mixed) == 1
    assert mixed[0].S == 2


def _orbit_complex(seq):
    n = len(seq)
    return {seq[r:] + seq[:r] for r in range(n)}


def test_canonicalization_orbit_stabilizer_complex():
    rng = np.random.default_rng(0)
    G = MultiGraph(("x", "y"), (("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")))
    classes = enumerate_loop_classes(G, 6, "C")
    for c in classes:
        orbit = _orbit_complex(c.edges)
        assert min(orbit) == c.edges
        assert c.S * len(orbit) == c.length  # orbit-stabilizer in C_n


def test_canonicalization_orbit_stabilizer_real():
    from u1higgs.loop_expansion import _real_orbit
    G = MultiGraph(("x", "y"), (("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")))
    classes = enumerate_loop_classes(G, 5, "R")
    for c in classes:
        orbit = set(_real_orbit(G, c.edges))
        assert min(orbit) == c.edges
        assert c.S * len(orbit) == 2 * c.length  # orbit-stabilizer in C_n x Z_2


def test_path_not_returned_as_loop():
    # every loop class is closed: its last step ends where its first step starts
    G = MultiGraph(("x", "y"), (("x", "x"), ("x", "y"), ("y", "x"), ("x", "y")))
    for fieldtag in ("C", "R"):
        classes = enumerate_loop_classes(G, 4, fieldtag)
        assert classes
        for c in classes:
            (e0, p0), (e1, p1) = _signed(c.edges[0]), _signed(c.edges[-1])
            assert G.edges[e0][p0 < 0] == G.edges[e1][p1 > 0]


def test_enumeration_budget_guard():
    G = MultiGraph(("x",), (("x", "x"), ("x", "x"), ("x", "x")))
    with pytest.raises(ResourceError):
        enumerate_loop_classes(G, 17, "C")
    with pytest.raises(ResourceError):
        enumerate_loop_classes(G, 12, "C", node_budget=100)


def _canonicalising_classes(G, max_len, fieldtag):
    """Oracle: the enumerator before the FKM generator.  Walks every closed
    walk from every start vertex, canonicalises it (least rotation; for R
    the least element of the rotation-and-reversal orbit), counts its
    stabiliser and drops duplicates."""
    out_by_vertex = {v: [] for v in G.vertices}
    for e, (a, b) in enumerate(G.edges):
        out_by_vertex[a].append((e, 1, b))
        if fieldtag == "R" and a != b:
            out_by_vertex[b].append((e, -1, a))
    classes = {}

    def dfs(start, cur, seq):
        if seq and cur == start:
            walk = tuple(seq)
            if fieldtag == "C":
                canon = min(walk[r:] + walk[:r] for r in range(len(walk)))
                S = sum(1 for r in range(len(canon)) if canon[r:] + canon[:r] == canon)
                classes.setdefault(canon, EdgeClass(canon, S))
            else:
                canon = min(_real_orbit(G, walk))
                S = sum(1 for t in _real_orbit(G, canon) if t == canon)
                classes.setdefault(canon, EdgeClass(canon, S))
        if len(seq) < max_len:
            for (e, p, nxt) in out_by_vertex[cur]:
                seq.append(e if fieldtag == "C" else (e, p))
                dfs(start, nxt, seq)
                seq.pop()

    for v in sorted(G.vertices, key=repr):
        dfs(v, v, [])
    return sorted(classes.values(), key=lambda c: (c.length, c.edges))


@pytest.mark.parametrize("fieldtag", ["C", "R"])
def test_generated_classes_match_canonicalising_oracle(fieldtag):
    for G in _corpus_graphs():
        assert _enumerate_raw(G, 8, fieldtag) == _canonicalising_classes(G, 8, fieldtag)


def test_generated_classes_match_oracle_on_interior_bond_graph():
    G = interior_bond_graph(build_lattice(2))
    classes = _enumerate_raw(G, 8, "C")
    assert classes == _canonicalising_classes(G, 8, "C")
    assert len(classes) == 1294


@pytest.mark.parametrize("fieldtag", ["C", "R"])
def test_class_sums_match_incidence_oracle(fieldtag):
    for G in _corpus_graphs():
        classes = _enumerate_raw(G, 5, fieldtag)
        for sites in (list(G.vertices), ["x"], []):
            assert _class_sums(classes, _vertex_form(G, sites)).tolist() == [
                [_incidence(G, c).get(v, 0) for v in sites] for c in classes]


def _letter_transfer_matrix(G, fieldtag):
    """A[s, t] = 1 when letter t of `_move_table` starts where letter s ends,
    forward letters first (for R, 2e + 1 before 2e)."""
    letters = sorted((fieldtag == "R" and x % 2 == 0, x, v, w)
                     for v, out in _move_table(G, fieldtag).items() for x, w in out)
    A = np.zeros((len(letters), len(letters)), dtype=np.int64)
    for i, (_, _, _, end) in enumerate(letters):
        for j, (_, _, start, _) in enumerate(letters):
            A[i, j] = int(end == start)
    return A


@pytest.mark.parametrize("fieldtag", ["C", "R"])
def test_transfer_matrix_counts_classes(fieldtag):
    # the identity behind the tail majorant's class sums: over the classes
    # of length n, sum 1/S = tr(A^n)/n (C, orbit size n/S) or tr(A^n)/(2n)
    # (R, orbit size 2n/S)
    for G in _corpus_graphs() + [interior_bond_graph(build_lattice(2))]:
        A = _letter_transfer_matrix(G, fieldtag)
        classes = _enumerate_raw(G, 6, fieldtag)
        for n in range(1, 7):
            got = sum(Fraction(1, c.S) for c in classes if c.length == n)
            trace = int(np.trace(np.linalg.matrix_power(A, n)))
            assert got == Fraction(trace, n if fieldtag == "C" else 2 * n)
        assert _edge_transfer_radius(G, fieldtag) == np.abs(
            np.linalg.eigvals(A.astype(float))).max()


# ---------------------------------------------------------------- loop_trace

def test_trace_scalar_self_loop():
    G = _self_loop_graph()
    M = OperatorAssignment.scalars(G, [0.7], "C")
    classes = enumerate_loop_classes(G, 4, "C")
    for c in classes:
        assert loop_trace(c, M) == pytest.approx(0.7 ** c.length)


def test_trace_cyclic_invariance():
    rng = np.random.default_rng(1)
    G = MultiGraph(("x", "y"), (("x", "y"), ("y", "x")))
    mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
    M = OperatorAssignment("C", 2, tuple(mats), G)
    c = EdgeClass((0, 1, 0, 1), 2)
    t = loop_trace(c, M)
    rotated = EdgeClass((1, 0, 1, 0), 2)
    assert loop_trace(rotated, M) == pytest.approx(t, abs=1e-12)


def test_trace_reversal_invariance_real():
    rng = np.random.default_rng(2)
    G = MultiGraph(("x", "y"), (("x", "y"), ("y", "x")))
    mats = [rng.normal(size=(2, 2)) for _ in range(2)]
    M = OperatorAssignment("R", 2, tuple(mats), G)
    fwd = EdgeClass(((0, 1), (1, 1)), 1)
    # reversal with transposed matrices: Tr(A) = Tr(A^T)
    bwd = EdgeClass(((1, -1), (0, -1)), 1)
    assert loop_trace(fwd, M) == pytest.approx(loop_trace(bwd, M), abs=1e-12)


def test_real_self_loop_requires_symmetry():
    G = _self_loop_graph()
    with pytest.raises(DomainError):
        OperatorAssignment("R", 2, (np.array([[1.0, 2.0], [0.0, 1.0]]),), G)


# ---------------------------------------------------------------- cycle index

@pytest.mark.parametrize("k", range(1, 13))
def test_cycle_index_identity(k):
    # sum over multisets {a_n} with sum n a_n = k of prod 1/(a_n! n^a_n) = 1
    def partitions(total, max_part):
        if total == 0:
            yield {}
            return
        for n in range(min(total, max_part), 0, -1):
            for a in range(1, total // n + 1):
                for rest in partitions(total - a * n, n - 1):
                    out = dict(rest)
                    out[n] = a
                    yield out

    total = Fraction(0)
    for mult in partitions(k, k):
        term = Fraction(1)
        for n, a in mult.items():
            term /= Fraction(math.factorial(a)) * Fraction(n) ** a
        total += term
    assert total == 1


# ---------------------------------------------------------------- sphere moments

def _uniform_sphere(rng, fieldtag, d, n):
    if fieldtag == "C":
        z = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    else:
        z = rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_sphere_moments_complex_mc(d, N):
    rng = np.random.default_rng(100 + 10 * d + N)
    a = rng.normal(size=(N, d)) + 1j * rng.normal(size=(N, d))
    b = rng.normal(size=(N, d)) + 1j * rng.normal(size=(N, d))
    phi = _uniform_sphere(rng, "C", d, 200_000)
    vals = np.ones(len(phi), dtype=complex)
    for i in range(N):
        vals *= (phi @ a[i].conj()).conj() * 0 + (a[i].conj() @ phi.T)  # <a, phi>
    # recompute cleanly: <a_i, phi> = sum conj(a) phi ; <phi, b_j> = sum conj(phi) b
    vals = np.ones(len(phi), dtype=complex)
    for i in range(N):
        vals *= phi @ a[i].conj()
    for j in range(N):
        vals *= phi.conj() @ b[j]
    mc = vals.mean() * sphere_mass("C", d)
    se = vals.std() * sphere_mass("C", d) / math.sqrt(len(phi))
    expect = k_complex(N, d) * sum(
        math.prod(complex(a[i].conj() @ b[sigma[i]]) for i in range(N))
        for sigma in itertools.permutations(range(N)))
    assert abs(mc - expect) <= 4 * se + 1e-12


def _pair_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i in range(len(rest)):
        pair = (first, rest[i])
        remaining = rest[:i] + rest[i + 1:]
        for sub in _pair_partitions(remaining):
            yield [pair] + sub


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_sphere_moments_real_mc(d, N):
    rng = np.random.default_rng(200 + 10 * d + N)
    a = rng.normal(size=(2 * N, d))
    phi = _uniform_sphere(rng, "R", d, 200_000)
    vals = np.ones(len(phi))
    for i in range(2 * N):
        vals *= phi @ a[i]
    mc = vals.mean() * sphere_mass("R", d)
    se = vals.std() * sphere_mass("R", d) / math.sqrt(len(phi))
    expect = k_real(N, d) * sum(
        math.prod(float(a[i] @ a[j]) for (i, j) in pairing)
        for pairing in _pair_partitions(list(range(2 * N))))
    assert abs(mc - expect) <= 4 * se + 1e-12


# ---------------------------------------------------------------- expansion

def test_expansion_zero_operators():
    G = MultiGraph(("x", "y"), (("x", "y"), ("y", "x")))
    M = OperatorAssignment.scalars(G, [0.0, 0.0], "C")
    lam = {"x": GAUSS, "y": RadialMeasure.dirac0()}
    res = expansion_value(G, M, lam, 10)
    assert res.value == pytest.approx(c_coeff(0, GAUSS, "C", 1)
                                      * c_coeff(0, RadialMeasure.dirac0(), "C", 1))
    assert res.tail_majorant == 0.0


def test_expansion_single_self_loop_analytic():
    G = _self_loop_graph()
    M = OperatorAssignment.scalars(G, [0.3], "C")
    res = expansion_value(G, M, {"x": GAUSS}, 30)
    assert abs(res.value - 2 * math.pi / 0.7) <= 1e-6 * (2 * math.pi / 0.7)
    assert res.tail_majorant < 1e-6
    # cross-check the closed form by radial quadrature
    q, _ = integrate.quad(lambda s: 2 * math.pi * 2 * s * np.exp(0.3 * s * s - s * s),
                          0, 30)
    assert q == pytest.approx(2 * math.pi / 0.7, rel=1e-10)


def test_expansion_ledger_consistency():
    G = _self_loop_graph()
    M = OperatorAssignment.scalars(G, [0.3], "C")
    res = expansion_value(G, M, {"x": GAUSS}, 12)
    assert sum(t[2] for t in res.ledger) == res.value


def _bounded_multisets(lengths, max_total):
    """All multisets of class indices with total length <= max_total, by
    itertools, as tuples of (index, multiplicity) in increasing index."""
    out = []
    for r in range(max_total + 1):
        for combo in itertools.combinations_with_replacement(range(len(lengths)), r):
            if sum(lengths[i] for i in combo) <= max_total:
                out.append(tuple((i, combo.count(i)) for i in sorted(set(combo))))
    return out


def _preorder_multisets(lengths, max_total):
    """Reference pre-order: the empty multiset, then for each item (by index)
    each multiplicity followed by the multisets over the later items.  Each
    multiset is a tuple of (item, multiplicity) by increasing item."""
    out = []

    def walk(i, picked, budget):
        out.append(tuple(picked))
        for ci in range(i, len(lengths)):
            for mult in range(1, budget // lengths[ci] + 1):
                walk(ci + 1, picked + [(ci, mult)], budget - mult * lengths[ci])

    walk(0, [], max_total)
    return out


@pytest.mark.parametrize("fieldtag, edges, max_total", [
    ("C", (("x", "x"), ("x", "y"), ("y", "x")), 5),
    ("R", (("x", "x"), ("x", "y"), ("y", "y")), 5),
])
def test_multiset_engine_matches_itertools(fieldtag, edges, max_total):
    G = MultiGraph(("x", "y"), edges)
    classes = enumerate_loop_classes(G, max_total, fieldtag)
    lengths = [c.length for c in classes]
    incidences = [_incidence(G, c) for c in classes]
    picks, inc = _multiset_table(lengths, _class_sums(classes, _vertex_form(G, G.vertices)),
                                 max_total)
    pairs = [list(zip(row[0::2], row[1::2])) for row in picks.tolist()]
    seen = [tuple((ci, m) for ci, m in row if ci >= 0) for row in pairs]
    # rows are padded with (-1, -1) after their picks
    assert all(row[len(picked):] == [(-1, -1)] * (len(row) - len(picked))
               for row, picked in zip(pairs, seen))
    expected = _bounded_multisets(lengths, max_total)
    assert len(set(expected)) == len(expected) > len(classes)
    # depth-first pre-order is the lexicographic order of the picks
    assert seen == sorted(expected)
    assert inc.tolist() == [
        [sum(m * incidences[ci].get(v, 0) for (ci, m) in picked) for v in G.vertices]
        for picked in seen]
    M = OperatorAssignment.scalars(G, [0.1] * len(edges), fieldtag)
    ledger = expansion_value(G, M, {"x": GAUSS, "y": GAUSS}, max_total).ledger
    assert [t[0] for t in ledger] == [
        "|".join(f"{m}x{list(classes[ci].edges)}" for (ci, m) in picks) or "empty"
        for picks in sorted(expected)]
    assert [t[1] for t in ledger] == [
        sum(lengths[ci] * m for (ci, m) in picks) for picks in sorted(expected)]


@pytest.mark.parametrize("fieldtag", ["C", "R"])
def test_ledger_text_matches_per_entry_formatting(fieldtag):
    # the ledger carries each prefix's signature and total length; pin it
    # against formatting every multiset entry afresh, on criterion 5's corpus
    for G in _corpus_graphs():
        M = OperatorAssignment.scalars(G, [0.01] * G.n_edges, fieldtag)
        ledger = expansion_value(G, M, {v: GAUSS for v in G.vertices}, 6).ledger
        classes = _enumerate_raw(G, 6, fieldtag)
        expected = [
            ("|".join(f"{m}x{list(classes[ci].edges)}" for (ci, m) in picked) or "empty",
             sum(classes[ci].length * m for (ci, m) in picked))
            for picked in _preorder_multisets([c.length for c in classes], 6)]
        assert [t[:2] for t in ledger] == expected


def test_multiset_budget_counts_rows(monkeypatch):
    # more multisets than MULTISET_BUDGET raise, in each of the two sums
    G = _self_loop_graph()
    M = OperatorAssignment.scalars(G, [0.3], "C")
    lam = {"x": GAUSS}
    rows = len(expansion_value(G, M, lam, 6).ledger)
    assert rows == 30  # partitions of the integers 0..6
    geom = build_lattice(2)
    hclasses = _enumerate_raw(interior_bond_graph(geom), 4, "C")
    hrows = len(_preorder_multisets([c.length for c in hclasses], 4))
    for n, call in [(rows, lambda: expansion_value(G, M, lam, 6)),
                    (hrows, lambda: higgs_loop_coefficients(geom, quartic(), 4))]:
        monkeypatch.setattr(loop_expansion, "MULTISET_BUDGET", n)
        call()
        monkeypatch.setattr(loop_expansion, "MULTISET_BUDGET", n - 1)
        with pytest.raises(ResourceError, match="multiset enumeration budget exhausted"):
            call()


def _per_multiset_expansion(G, M, lam, max_total):
    """Reference for `expansion_value`'s value and ledger: one Python loop
    over the multisets in pre-order, each term formed in CPython float and
    complex arithmetic."""
    fieldtag = M.fieldtag
    classes = _enumerate_raw(G, max_total, fieldtag)
    values = [loop_trace(c, M) / c.S for c in classes]
    lengths = [c.length for c in classes]
    coeffs = [[c_coeff(j, lam[v], fieldtag, M.dim) for j in range(max_total + 1)]
              for v in G.vertices]
    picks, inc = _multiset_table(lengths, _class_sums(classes, _vertex_form(G, G.vertices)),
                                 max_total)
    edge_text = [str(list(c.edges)) for c in classes]
    ledger = []
    value = 0.0 + 0.0j if fieldtag == "C" else 0.0
    for row, counts in zip(picks.tolist(), inc.tolist()):
        term = 1.0
        for c, k in zip(coeffs, counts):
            if k % 2:
                raise AssertionError("odd incidence count at an expanded site")
            term = term * c[k // 2]
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
    return value, ledger


def _graph_of(desc):
    """MultiGraph and operators of a `loopexp` graph file whose edges carry
    a `value` or a 1 x 1 `matrix` of one [re, im] pair."""
    G = MultiGraph(tuple(desc["vertices"]), tuple((e["from"], e["to"]) for e in desc["edges"]))
    values = [complex(*e["matrix"][0][0]) if "matrix" in e else e["value"]
              for e in desc["edges"]]
    return G, OperatorAssignment.scalars(G, values, desc.get("field", "C"))


def _bit_cases():
    """(name, G, M, lam, max_totals) for the array-built ledger: both fields,
    dim 1 and 2 (real symmetric self-loops), three measure kinds."""
    from test_cli_golden import GRAPH
    rng = np.random.default_rng(11)
    disc = RadialMeasure.discrete([(0.5, 0.3), (1.2, 0.7)])
    dirac = RadialMeasure.dirac0()
    xy = ("x", "y")
    golden, golden_ops = _graph_of(GRAPH)
    G3 = MultiGraph(xy, (("x", "x"), ("x", "y"), ("y", "x")))
    Gr = MultiGraph(xy, (("x", "x"), ("y", "y"), ("x", "y")))
    Gz = MultiGraph(("x", "y", "z"), (("x", "y"), ("y", "z"), ("z", "x"), ("y", "y")))

    def sym(a):
        return a + a.T

    return [
        ("golden-C", golden, golden_ops, {"x": GAUSS, "y": GAUSS}, [10]),
        ("C-d1", G3, OperatorAssignment.scalars(G3, [0.2 - 0.1j, -0.15 + 0.05j, 0.3j], "C"),
         {"x": GAUSS, "y": disc}, range(11)),
        ("R-d1", Gr, OperatorAssignment.scalars(Gr, [0.25, -0.3, -0.2], "R"),
         {"x": disc, "y": GAUSS}, range(11)),
        ("C-d1-dirac", Gz, OperatorAssignment.scalars(Gz, [0.3, -0.2, 0.1j, -0.25], "C"),
         {"x": GAUSS, "y": disc, "z": dirac}, range(11)),
        ("R-d1-dirac", Gz, OperatorAssignment.scalars(Gz, [-0.3, 0.2, -0.1, 0.25], "R"),
         {"x": dirac, "y": GAUSS, "z": disc}, range(11)),
        ("C-d2", G3, OperatorAssignment("C", 2, tuple(
            0.15 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) for _ in range(3)),
            G3), {"x": GAUSS, "y": disc}, range(9)),
        ("R-d2", Gr, OperatorAssignment("R", 2, (
            sym(0.1 * rng.normal(size=(2, 2))), sym(0.1 * rng.normal(size=(2, 2))),
            0.2 * rng.normal(size=(2, 2))), Gr), {"x": GAUSS, "y": disc}, range(9)),
    ]


@pytest.mark.parametrize("case", _bit_cases(), ids=lambda c: c[0])
def test_expansion_matches_per_multiset_oracle_bit_for_bit(case):
    _, G, M, lam, max_totals = case
    for T in max_totals:
        res = expansion_value(G, M, lam, T)
        value, ledger = _per_multiset_expansion(G, M, lam, T)
        assert type(res.value) is type(value) and repr(res.value) == repr(value), T
        assert [(s, tl, type(c), repr(c)) for s, tl, c in res.ledger] == \
            [(s, tl, type(c), repr(c)) for s, tl, c in ledger], T


def test_odd_incidence_is_refused(monkeypatch):
    # every class incidence is even; a form counting one end of a self-loop is not
    form = loop_expansion._vertex_form
    monkeypatch.setattr(loop_expansion, "_vertex_form", lambda G, sites: form(G, sites) - 1)
    G = _self_loop_graph()
    M = OperatorAssignment.scalars(G, [0.3], "C")
    with pytest.raises(AssertionError, match="odd incidence count"):
        expansion_value(G, M, {"x": GAUSS}, 2)


def test_expansion_two_vertex_oracle():
    G = MultiGraph(("x", "y"), (("x", "y"), ("y", "x")))
    M = OperatorAssignment.scalars(G, [0.3, 0.25], "C")
    lam = {"x": GAUSS, "y": GAUSS}
    res = expansion_value(G, M, lam, 20)
    bf = brute_force_integral(G, M, lam)
    assert abs(res.value - bf.value) <= 1e-5 * abs(bf.value)
    assert bf.value.real == pytest.approx(4 * math.pi ** 2 / (1 - 0.075), rel=1e-8)


def test_real_expansion_vs_quadrature_self_loop():
    G = _self_loop_graph()
    M = OperatorAssignment.scalars(G, [0.3], "R")
    res = expansion_value(G, M, {"x": GAUSS}, 30)
    # LHS with the 1/2 self-loop convention: 2 int e^{0.15 s^2} dlambda
    expect = 2.0 / 0.85
    assert res.value == pytest.approx(expect, rel=1e-8)
    bf = brute_force_integral(G, M, {"x": GAUSS})
    assert bf.value == pytest.approx(expect, rel=1e-8)


def test_expansion_2x2_matrix_case():
    rng = np.random.default_rng(3)
    G = _self_loop_graph()
    A = 0.15 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    M = OperatorAssignment("C", 2, (A,), G)
    lam = {"x": GAUSS}
    res = expansion_value(G, M, lam, 20)
    bf = brute_force_integral(G, M, lam, QuadratureSpec(radial_nodes=40,
                                                        angular_nodes=24))
    assert abs(res.value - bf.value) <= 1e-4 * abs(bf.value)


def test_negative_max_total_refused():
    G = _self_loop_graph()
    M = OperatorAssignment.scalars(G, [0.3], "C")
    with pytest.raises(DomainError):
        expansion_value(G, M, {"x": GAUSS}, -1)


# ---------------------------------------------------------------- brute force

def test_brute_force_empty_edges():
    G = MultiGraph(("x", "y"), ())
    M = OperatorAssignment("C", 1, (), G)
    lam = {"x": GAUSS, "y": RadialMeasure.dirac0()}
    bf = brute_force_integral(G, M, lam)
    assert bf.value == pytest.approx(2 * math.pi * GAUSS.moment(0) * 2 * math.pi,
                                     rel=1e-10)


def test_brute_force_dimension_guard():
    G = MultiGraph(("x", "y", "z", "w"), ())
    M = OperatorAssignment("C", 1, (), G)
    lam = {v: GAUSS for v in "xyzw"}
    with pytest.raises(ResourceError):
        brute_force_integral(G, M, lam)


def test_brute_force_grid_guard_refuses_before_any_sum(monkeypatch):
    # three complex d=1 sites pass the dimension guard at the default spec;
    # the refined pass's quotient grid (64 * 4096^2 points) is over the grid
    # guard, so the call is refused before either pass forms a pair term
    G = MultiGraph(("x", "y", "z"), (("x", "y"),))
    M = OperatorAssignment.scalars(G, [0.1], "C")
    monkeypatch.setattr(loop_expansion, "_pair_term", None)
    with pytest.raises(ResourceError, match="quadrature grid of 1073741824 points too large"):
        brute_force_integral(G, M, {v: GAUSS for v in "xyz"})


def test_brute_force_discrete_measure():
    # atoms at s = 1 with mass 1: integral of e^{m s^2} over U(1) = 2 pi e^m
    G = _self_loop_graph()
    M = OperatorAssignment.scalars(G, [0.4], "C")
    lam = {"x": RadialMeasure.discrete([(1.0, 1.0)])}
    bf = brute_force_integral(G, M, lam)
    assert bf.value == pytest.approx(2 * math.pi * math.exp(0.4), rel=1e-10)


def _grid_weights(grids, sites) -> np.ndarray:
    """Product quadrature weight over `sites`, one axis per site in order."""
    wgrid = np.ones(())
    for v in sites:
        wgrid = np.multiply.outer(wgrid, grids[v][1])
    return wgrid


def _full_grid_integral(G, M, lam, spec):
    """Oracle: the quadrature sum on the whole product grid, the exponent
    and the weights built in full, multiplied and summed (no contraction,
    no common-phase quotient)."""
    fieldtag, d = M.fieldtag, M.dim
    verts = list(G.vertices)
    growth = sum(float(np.linalg.norm(m, 2)) for m in M.mats)
    grids = {v: _site_grid(lam[v], fieldtag, d, spec, growth) for v in verts}
    shapes = [len(grids[v][1]) for v in verts]
    exponent = np.zeros(shapes, dtype=complex if fieldtag == "C" else float)
    for e, (a, b) in enumerate(G.edges):
        term = _pair_term(grids, verts, a, b, M.mats[e], fieldtag)
        exponent = exponent + (0.5 * term if fieldtag == "R" and a == b else term)
    vals = np.exp(exponent) * _grid_weights(grids, verts)
    out = vals.sum()
    return complex(out) if fieldtag == "C" else float(out)


def _oracle_cases():
    """(id, graph, operators, measures, spec): self-loops, parallel edges,
    dirac0 and discrete sites, the Hopf grid, and real fields."""
    rng = np.random.default_rng(33)
    small = QuadratureSpec(radial_nodes=16, angular_nodes=8)
    one = _self_loop_graph()
    two = MultiGraph(("x", "y"), (("x", "y"), ("y", "x"), ("x", "y"), ("x", "x"), ("y", "y")))
    three = MultiGraph(("x", "y", "z"), (("x", "y"), ("y", "z"), ("z", "x"), ("x", "y"),
                                         ("y", "y"), ("z", "z")))
    atoms = RadialMeasure.discrete([(0.8, 0.5), (1.3, 0.25)])
    dirac = RadialMeasure.dirac0()
    c2 = [0.05, 0.04, 0.03 + 0.01j, 0.1, -0.05j]
    c3 = [0.04, 0.03j, 0.05, -0.02, 0.06, 0.03]

    def mats(G, fieldtag, d, scale):
        out = []
        for a, b in G.edges:
            A = scale * rng.normal(size=(d, d))
            if fieldtag == "C":
                A = A + 1j * scale * rng.normal(size=(d, d))
            out.append(A + A.T if fieldtag == "R" and a == b else A)
        return OperatorAssignment(fieldtag, d, tuple(out), G)

    return [
        ("C1-one", one, OperatorAssignment.scalars(one, [0.3], "C"), {"x": GAUSS},
         QuadratureSpec()),
        ("C1-two", two, OperatorAssignment.scalars(two, c2, "C"), {"x": GAUSS, "y": GAUSS},
         small),
        ("C1-three", three, OperatorAssignment.scalars(three, c3, "C"),
         {"x": GAUSS, "y": atoms, "z": RadialMeasure.discrete([(1.0, 1.0)])}, small),
        ("C1-dirac0", two, OperatorAssignment.scalars(two, c2, "C"), {"x": dirac, "y": GAUSS},
         small),
        ("C1-discrete", one, OperatorAssignment.scalars(one, [0.4], "C"), {"x": atoms},
         QuadratureSpec()),
        ("C2-one", one, mats(one, "C", 2, 0.15), {"x": GAUSS},
         QuadratureSpec(radial_nodes=40, angular_nodes=24)),
        ("C2-two", two, mats(two, "C", 2, 0.05), {"x": dirac, "y": GAUSS},
         QuadratureSpec(radial_nodes=24, angular_nodes=16)),
        ("R1-two", two, OperatorAssignment.scalars(two, [0.05, 0.04, 0.03, 0.1, 0.07], "R"),
         {"x": GAUSS, "y": atoms}, QuadratureSpec()),
        ("R2-two", two, mats(two, "R", 2, 0.03), {"x": GAUSS, "y": GAUSS}, small),
    ]


@pytest.mark.parametrize("case", _oracle_cases(), ids=lambda c: c[0])
def test_brute_force_matches_full_grid_oracle(case):
    # the contracted sum over the common-phase quotient equals the full
    # product-grid sum to rounding, in the value and in the refinement error
    _, G, M, lam, spec = case
    got = brute_force_integral(G, M, lam, spec)
    v1 = _full_grid_integral(G, M, lam, spec)
    v2 = _full_grid_integral(G, M, lam, replace(spec, radial_nodes=2 * spec.radial_nodes,
                                                angular_nodes=2 * spec.angular_nodes))
    assert abs(got.value - v2) <= 1e-13 * abs(v2)
    assert abs(got.error_estimate - abs(v2 - v1)) <= 1e-13 * abs(v2)


# ---------------------------------------------------------------- higgs weight

def quartic(c=1.0):
    return lambda x: x ** 4 - c * x * x


def test_higgs_coefficients_n1():
    geom = build_lattice(1)
    hc = higgs_loop_coefficients(geom, quartic(), 4)
    assert len(hc.coeffs) == 1
    (w, c0), = hc.coeffs.items()
    assert all(x == 0 for x in w)
    lam = higgs_site_measure(quartic())
    assert c0 == pytest.approx(c_coeff(0, lam, "C", 1), rel=1e-10)
    # evaluating at any gauge field gives the same constant
    from u1higgs.gauge_core import GaugeField
    rng = np.random.default_rng(4)
    g1 = GaugeField.random(geom, rng)
    g2 = GaugeField.random(geom, rng)
    assert hc.evaluate(g1) == pytest.approx(hc.evaluate(g2), rel=1e-12)


def test_higgs_coefficients_n2_positivity_and_symmetry():
    geom = build_lattice(2)
    hc = higgs_loop_coefficients(geom, quartic(), 4)
    assert all(c >= -1e-14 for c in hc.coeffs.values())
    # the four interior plaquette winding vectors appear with equal weight,
    # keyed by the geometry's row-major plaquette index k2 * n + k1
    n = geom.n
    vals = []
    for (k1, k2) in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        idx = geom.plaquette_index(k1, k2)
        w = tuple(1 if i == idx else 0 for i in range(n * n))
        vals.append(hc.coeffs.get(w, 0.0))
    assert all(v > 0 for v in vals)
    assert max(vals) == pytest.approx(min(vals), rel=1e-9)


def test_higgs_evaluate_matches_chain_weight():
    from u1higgs.gauge_core import psi
    from u1higgs.sampler import _WeightModel
    geom = build_lattice(2)
    hc = higgs_loop_coefficients(geom, quartic(), HIGGS_MAX_LEN)
    model = _WeightModel(geom, quartic(), "loop-expansion")
    rng = np.random.default_rng(8)
    for _ in range(5):
        X = rng.normal(0.0, 0.5, size=(geom.n, geom.n))
        chain = float(model._cvec @ np.cos(model._wmat @ X.T.reshape(-1)))
        assert hc.evaluate(psi(geom, X)) == pytest.approx(chain, rel=1e-12)
        assert math.exp(model.log_weight(X, None)) == pytest.approx(chain, rel=1e-12)


def test_higgs_coefficient_guard():
    with pytest.raises(ResourceError):
        higgs_loop_coefficients(build_lattice(2), quartic(), 10)


def test_interior_bond_graph_counts():
    geom = build_lattice(2)
    G = interior_bond_graph(geom)
    assert len(G.vertices) == 9
    assert len(G.edges) == 24  # 12 undirected interior bonds, both orientations


def _per_multiset_coefficients(geom, pot, max_len):
    """Oracle: the coefficient build before the array grouping.  One term per
    multiset of oracle classes in the reference pre-order, windings
    from `winding_vector`, keys in order of first occurrence.  Each key's
    terms are summed with math.fsum, so that the comparison measures the
    build's rounding, not the oracle's own summation error (a running sum
    in pre-order is off the exact sum by up to 7.4e-14 at N=2, L=8)."""
    from u1higgs.gauge_core import LatticeLoop, winding_vector
    G = interior_bond_graph(geom)
    lam = higgs_site_measure(pot)
    classes = _canonicalising_classes(G, max_len, "C")
    cj = [c_coeff(j, lam, "C", 1) for j in range(max_len + 1)]
    windings = []
    for c in classes:
        nodes = [G.edges[c.edges[0]][0]] + [G.edges[e][1] for e in c.edges]
        windings.append(winding_vector(LatticeLoop(tuple(nodes), geom.N)).T.reshape(-1))
    incidences = [_incidence(G, c) for c in classes]
    terms = {}
    for picked in _preorder_multisets([c.length for c in classes], max_len):
        inc = {}
        for (ci, mult) in picked:
            for v, k in incidences[ci].items():
                inc[v] = inc.get(v, 0) + mult * k
        term = cj[0] ** len(G.vertices)
        for v, k in inc.items():
            term = term / cj[0] * cj[k // 2]
        wsum = np.zeros(geom.n * geom.n, dtype=np.int64)
        for (ci, mult) in picked:
            term = term / math.factorial(mult) / float(classes[ci].S) ** mult
            wsum = wsum + mult * windings[ci]
        terms.setdefault(tuple(int(x) for x in wsum), []).append(term)
    return {key: math.fsum(ts) for key, ts in terms.items()}


@pytest.mark.parametrize("pot", [PotentialSpec("quartic", c=0.9),
                                 PotentialSpec("quartic", c=1.0),
                                 PotentialSpec("quartic", c=1.1),
                                 lambda x: 0.5 * x ** 6 + x ** 4 - 1.3 * x * x],
                         ids=["c0.9", "c1.0", "c1.1", "callable"])
@pytest.mark.parametrize("N", [1, 2])
def test_higgs_coefficients_match_per_multiset_oracle(N, pot):
    geom = build_lattice(N)
    for max_len in (2, 4, 6, 8):
        got = higgs_loop_coefficients(geom, pot, max_len).coeffs
        want = _per_multiset_coefficients(geom, pot, max_len)
        assert list(got) == list(want)  # weight_matrix rows follow this order
        assert all(abs(got[k] - want[k]) <= 1e-14 * abs(want[k]) for k in want)


def test_higgs_groups_cache_cold_equals_warm():
    # the potential-free groups are cached per (N, max_len): a build on a
    # warm cache, filled under another potential, gives the same keys in
    # the same order and the same floats as a cold build
    pots = [PotentialSpec("quartic", c=c) for c in (0.9, 1.0, 4.0)]
    pots.append(lambda x: 0.5 * x ** 6 + x ** 4 - 1.3 * x * x)
    for N in (1, 2):
        geom = build_lattice(N)
        for max_len in (2, 4, 6, 8):
            cold = []
            for pot in pots:
                loop_expansion._higgs_groups.cache_clear()
                cold.append(list(higgs_loop_coefficients(geom, pot, max_len).coeffs.items()))
            hits = loop_expansion._higgs_groups.cache_info().hits
            warm = [list(higgs_loop_coefficients(geom, pot, max_len).coeffs.items())
                    for pot in pots]
            assert loop_expansion._higgs_groups.cache_info().hits == hits + len(pots)
            assert warm == cold


def test_higgs_groups_are_read_only():
    rows, *tables, keys = loop_expansion._higgs_groups(2, 4)
    assert isinstance(keys, tuple) and all(isinstance(k, tuple) for k in keys)
    for t in tables:
        with pytest.raises(ValueError):
            t[...] = 0


def test_multiset_budget_binds_on_cold_and_warm_groups(monkeypatch):
    geom = build_lattice(2)
    loop_expansion._higgs_groups.cache_clear()
    monkeypatch.setattr(loop_expansion, "MULTISET_BUDGET", 10)
    with pytest.raises(ResourceError, match="multiset enumeration budget exhausted"):
        higgs_loop_coefficients(geom, quartic(), 4)  # cold: while the table is built
    monkeypatch.undo()
    higgs_loop_coefficients(geom, quartic(), 4)
    monkeypatch.setattr(loop_expansion, "MULTISET_BUDGET", 10)
    with pytest.raises(ResourceError, match="multiset enumeration budget exhausted"):
        higgs_loop_coefficients(geom, quartic(), 4)  # warm: against the cached row count
