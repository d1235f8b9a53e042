import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u1higgs import gauge_fixing, norms
from u1higgs.gauge_core import GaugeField, apply_gauge, psi
from u1higgs.gauge_fixing import flatness, gauge_fix
from u1higgs.lattice_geom import Segment, build_lattice, segments
from u1higgs.norms import (
    OneForm,
    ResourceError,
    eval_segment,
    eval_segment_naive,
    log_oneform,
    norm_full,
    norm_gr,
    norm_gr_argmax,
    seminorm_rho,
    seminorm_rho_argmax,
)


def random_form(N, rng, scale=1.0):
    geom = build_lattice(N)
    n = geom.n
    return OneForm(geom, scale * rng.normal(size=(n, n + 1)),
                   scale * rng.normal(size=(n + 1, n)))


# ---------------------------------------------------------------- log_oneform

def test_log_oneform_identity_and_range():
    geom = build_lattice(2)
    A = log_oneform(GaugeField.identity(geom))
    assert np.all(A.h == 0.0) and np.all(A.v == 0.0)
    g = GaugeField.random(geom, np.random.default_rng(0))
    A = log_oneform(g)
    assert np.all(A.h >= -np.pi) and np.all(A.h < np.pi)
    # round trip e^{iA} = g exactly at bond level
    np.testing.assert_allclose(np.exp(1j * A.h), np.exp(1j * g.theta_h), atol=1e-15)


# ---------------------------------------------------------------- eval_segment

def test_eval_single_bond():
    rng = np.random.default_rng(1)
    A = random_form(2, rng)
    s = Segment((1, 2), 1, 1, 2)
    assert eval_segment(A, s) == pytest.approx(A.h[1, 2], abs=1e-15)
    s = Segment((3, 0), 2, 1, 2)
    assert eval_segment(A, s) == pytest.approx(A.v[3, 0], abs=1e-15)


def test_eval_zero_length():
    A = random_form(2, np.random.default_rng(2))
    assert eval_segment(A, Segment((2, 2), 1, 0, 2)) == 0.0


def test_eval_concatenation_additive():
    A = random_form(3, np.random.default_rng(3))
    s_full = Segment((1, 4), 1, 5, 3)
    s_a = Segment((1, 4), 1, 2, 3)
    s_b = Segment((3, 4), 1, 3, 3)
    assert eval_segment(A, s_full) == pytest.approx(
        eval_segment(A, s_a) + eval_segment(A, s_b), abs=1e-12)


def test_eval_matches_naive_oracle():
    rng = np.random.default_rng(4)
    geom = build_lattice(3)
    segs = [s for s in segments(geom)]
    for _ in range(400):
        A = random_form(3, rng)
        s = segs[rng.integers(0, len(segs))]
        assert eval_segment(A, s) == pytest.approx(eval_segment_naive(A, s),
                                                   abs=1e-12)


# ---------------------------------------------------------------- norm_gr

def test_norm_gr_zero_form():
    A = OneForm.zero(build_lattice(2))
    assert norm_gr(A, 0.5) == 0.0


def test_norm_gr_constant_form_alpha_one():
    # A = c on every bond, alpha = 1: ratio ck/(k 2^-N) = c 2^N for all segments
    N, c = 3, 0.7
    geom = build_lattice(N)
    n = geom.n
    A = OneForm(geom, np.full((n, n + 1), c), np.full((n + 1, n), c))
    assert norm_gr(A, 1.0) == pytest.approx(c * 2 ** N, rel=1e-12)


def test_norm_gr_naive_oracle():
    rng = np.random.default_rng(5)
    geom = build_lattice(3)
    for _ in range(5):
        A = random_form(3, rng)
        alpha = rng.uniform(0, 1)
        naive = max(abs(eval_segment_naive(A, s)) / s.length ** alpha
                    for s in segments(geom) if s.nbonds > 0)
        assert norm_gr(A, alpha) == pytest.approx(naive, rel=1e-12)


def test_norm_gr_trivial_bound_log_field():
    # |log g|_{gr beta} <= pi 2^N for any gauge field (|A(l)| <= pi 2^N |l|)
    N, beta = 3, 0.5
    g = GaugeField.random(build_lattice(N), np.random.default_rng(6))
    A = log_oneform(g)
    assert norm_gr(A, beta) <= np.pi * 2 ** N * 1.0 + 1e-9


# ---------------------------------------------------------------- seminorm_rho

def test_seminorm_zero_form():
    A = OneForm.zero(build_lattice(2))
    assert seminorm_rho(A, 0.5) == 0.0


def _naive_seminorm(A, alpha):
    geom = A.geom
    best = 0.0
    segs = [s for s in segments(geom) if s.nbonds > 0]
    for i, s1 in enumerate(segs):
        for s2 in segs[i + 1:]:
            if s1.direction != s2.direction or s1.nbonds != s2.nbonds:
                continue
            axis = 0 if s1.direction == 1 else 1
            if s1.base[axis] != s2.base[axis] or s1.base == s2.base:
                continue
            off = 1 - axis
            d = abs(s1.base[off] - s2.base[off]) * 2.0 ** (-geom.N)
            rho = (s1.length * d) ** 0.5
            val = abs(eval_segment_naive(A, s1) - eval_segment_naive(A, s2)) / rho ** alpha
            best = max(best, val)
    return best


def test_seminorm_naive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(3):
        A = random_form(2, rng)
        alpha = rng.uniform(0.1, 1.0)
        assert seminorm_rho(A, alpha) == pytest.approx(_naive_seminorm(A, alpha),
                                                       rel=1e-12)


def test_seminorm_gradient_form():
    # gradient forms A(x,y) = u(y) - u(x) depend only on endpoints
    rng = np.random.default_rng(8)
    geom = build_lattice(2)
    n = geom.n
    u = rng.normal(size=(n + 1, n + 1))
    A = OneForm(geom, u[1:, :] - u[:-1, :], u[:, 1:] - u[:, :-1])
    assert seminorm_rho(A, 0.5) == pytest.approx(_naive_seminorm(A, 0.5), rel=1e-12)


def test_seminorm_trivial_bound_log_field():
    # |log g|_{rho beta} <= 2 pi 2^{N(1+beta/2)}
    N, beta = 3, 0.5
    g = GaugeField.random(build_lattice(N), np.random.default_rng(9))
    assert seminorm_rho(log_oneform(g), beta) <= 2 * np.pi * 2 ** (N * (1 + beta / 2)) + 1e-9


def test_seminorm_budget_guard():
    with pytest.raises(ResourceError):
        seminorm_rho(OneForm.zero(build_lattice(9)), 0.5)


# ---------------------------------------------------------------- norm_full

def test_norm_full_zero():
    assert norm_full(OneForm.zero(build_lattice(2)), 0.3) == 0.0


def test_norm_full_is_sum_and_nonnegative():
    rng = np.random.default_rng(11)
    A = random_form(3, rng)
    gr = norm_gr(A, 0.5)
    sr = seminorm_rho(A, 0.5)
    assert norm_full(A, 0.5) == pytest.approx(gr + sr, rel=1e-15)
    assert norm_full(A, 0.5) >= gr >= 0.0


def test_norm_full_matches_naive_double_loop():
    rng = np.random.default_rng(12)
    A = random_form(3, rng)
    geom = A.geom
    naive_gr = max(abs(eval_segment_naive(A, s)) / s.length ** 0.5
                   for s in segments(geom) if s.nbonds > 0)
    assert norm_full(A, 0.5) == pytest.approx(naive_gr + _naive_seminorm(A, 0.5),
                                              rel=1e-11)


@given(st.integers(0, 6), st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_scaling_powers_of_two(k, alpha):
    rng = np.random.default_rng(13)
    A = random_form(2, rng)
    c = 2.0 ** (k - 3)
    cA = OneForm(A.geom, c * A.h, c * A.v)
    assert norm_gr(cA, alpha) == c * norm_gr(A, alpha)
    assert seminorm_rho(cA, alpha) == c * seminorm_rho(A, alpha)


def test_scaling_general_constant():
    rng = np.random.default_rng(14)
    A = random_form(2, rng)
    c = 0.37
    cA = OneForm(A.geom, c * A.h, c * A.v)
    assert norm_gr(cA, 0.5) == pytest.approx(c * norm_gr(A, 0.5), rel=1e-12)


def test_triangle_inequality():
    rng = np.random.default_rng(15)
    for _ in range(10):
        A = random_form(2, rng)
        B = random_form(2, rng)
        assert norm_full(A + B, 0.5) <= norm_full(A, 0.5) + norm_full(B, 0.5) + 1e-10


def test_rho_pairs_respect_lower_bound():
    # every contributing pair has rho >= 2^(-N/2) |l|^(1/2)
    rng = np.random.default_rng(16)
    A = random_form(3, rng)
    _, arg = seminorm_rho_argmax(A, 0.5)
    N = 3
    length = arg["nbonds"] * 2.0 ** (-N)
    dist = abs(arg["line2"] - arg["line"]) * 2.0 ** (-N)
    assert (length * dist) ** 0.5 >= 2 ** (-N / 2) * length ** 0.5 - 1e-15


def test_argmax_recomputes():
    rng = np.random.default_rng(17)
    A = random_form(3, rng)
    val, arg = norm_gr_argmax(A, 0.5)
    s = Segment((arg["base"], arg["line"]) if arg["direction"] == 1
                else (arg["line"], arg["base"]), arg["direction"], arg["nbonds"], 3)
    assert abs(eval_segment(A, s)) / s.length ** 0.5 == pytest.approx(val, rel=1e-12)


# ---------------------------------------------------------------- scan-order oracles

def _norm_gr_scan(A, alpha):
    """norm_gr_argmax by plain loops over all pairs: today's expression in
    the scan order (direction, line, base, length), first strict max kept."""
    N, n = A.geom.N, A.geom.n
    denom = ((np.arange(1, n + 1) * 2.0 ** (-N)) ** alpha).tolist()
    best, arg = -1.0, None
    for direction, table in enumerate(A.prefix_tables, start=1):
        T = table.tolist()
        for t in range(n + 1):
            for j1 in range(n + 1):
                for j2 in range(j1 + 1, n + 1):
                    v = abs(T[t][j2] - T[t][j1]) / denom[j2 - j1 - 1]
                    if v > best:
                        best, arg = v, {"direction": direction, "line": t,
                                        "base": j1, "nbonds": j2 - j1}
    return best, arg


def _seminorm_rho_scan(A, alpha):
    """seminorm_rho_argmax by plain loops over all pairs, scan order
    (direction, line, line2, base, length), first strict max kept."""
    N, n = A.geom.N, A.geom.n
    pow_half = ((np.arange(n + 1) * 2.0 ** (-N)) ** (alpha / 2.0)).tolist()
    best, arg = -1.0, None
    for direction, table in enumerate(A.prefix_tables, start=1):
        T = table.tolist()
        for t1 in range(n + 1):
            for t2 in range(t1 + 1, n + 1):
                for j1 in range(n + 1):
                    for j2 in range(j1 + 1, n + 1):
                        d = abs((T[t2][j2] - T[t2][j1]) - (T[t1][j2] - T[t1][j1]))
                        v = d / (pow_half[t2 - t1] * pow_half[j2 - j1])
                        if v > best:
                            best, arg = v, {"direction": direction, "line": t1,
                                            "line2": t2, "base": j1,
                                            "nbonds": j2 - j1}
    return best, arg


def _tie_corpus(N, rng):
    """Random, integer-valued (exact sums, many ties), zero, constant,
    psi-field (all h-bonds zero) and single-line forms."""
    geom = build_lattice(N)
    n = geom.n
    yield random_form(N, rng)
    yield OneForm(geom, rng.integers(-2, 3, (n, n + 1)).astype(float),
                  rng.integers(-2, 3, (n + 1, n)).astype(float))
    yield OneForm.zero(geom)
    yield OneForm(geom, np.full((n, n + 1), 0.7), np.full((n + 1, n), 0.7))
    yield log_oneform(psi(geom, rng.normal(0.0, 2.0 ** -N, (n, n))))
    X = np.zeros((n, n))
    X[n // 2, n // 2] = 0.5
    yield log_oneform(psi(geom, X))
    # one middle line with equal end bonds: its top pair recurs along it
    v = np.zeros((n + 1, n))
    v[n // 2, 0] = v[n // 2, -1] = 1.0
    yield OneForm(geom, np.zeros((n, n + 1)), v)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_pair_sup_matches_scan_order_oracle(N):
    rng = np.random.default_rng(100 + N)
    for A in _tie_corpus(N, rng):
        for alpha in (0.0, 0.3, 0.5, 1.0):
            assert norm_gr_argmax(A, alpha) == _norm_gr_scan(A, alpha)
            assert seminorm_rho_argmax(A, alpha) == _seminorm_rho_scan(A, alpha)


@pytest.mark.parametrize("lines", [(1,), (1, 3)])
def test_tie_start_is_first_rounded_maximum(lines):
    # two single bonds one ulp apart whose ratios round to the same float:
    # the first in scan order wins, although the second has the larger |A(l)|
    # (on one line: one tied cell; on two lines: two tied cells)
    N, alpha = 2, 0.3
    w = float(((np.arange(1, 5) * 2.0 ** (-N)) ** alpha)[0])  # denominator at L = 1
    d1 = next(d for d in np.linspace(1.4, 1.9, 101)
              if d / w == np.nextafter(d, 2.0) / w)
    d2 = np.nextafter(d1, 2.0)
    geom = build_lattice(N)
    h = np.zeros((4, 5))
    for t in lines:
        h[:, t] = [d1, 0.0, -d2, 0.0]
    A = OneForm(geom, h, np.zeros((5, 4)))
    val, arg = norm_gr_argmax(A, alpha)
    assert val == d1 / w == d2 / w
    assert arg == {"direction": 1, "line": 1, "base": 0, "nbonds": 1}
    assert (val, arg) == _norm_gr_scan(A, alpha)


# ---------------------------------------------------------------- branch and bound

def _dense_pair_sup(C, G, w_len, w_row, divide, key=norms._row_first):
    """Oracle for `norms.pair_sup`: the full per-length table
    M[L - 1, r] = max_j |C[r, j + L] - C[r, j]|, one array step per length,
    weighted and maximized in one piece (G, the range table, is unused)."""
    R, P = C.shape
    M = np.empty((P - 1, R))
    for L in range(1, P):
        np.abs(C[:, L:] - C[:, :-L]).max(axis=1, out=M[L - 1])
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
        d = np.abs(C[r, L:] - C[r, :-L])
        w = (w_len[l] * w_row[r])[:, None]
        js[at] = np.argmax((d / w if divide else d * w) == top, axis=1)
    i = np.lexsort(key(Ls + 1, rs, js)[::-1])[0] if len(rs) > 1 else 0
    return float(top), (int(Ls[i]) + 1, int(rs[i]), int(js[i]))


def _kernel_outputs(fields, forms):
    flat = [flatness(g, a) for g in fields for a in (0.5, 0.75)]
    pairs = [(norm_gr_argmax(A, a), seminorm_rho_argmax(A, a))
             for A in forms for a in (0.0, 0.5, 1.0)]
    return flat, pairs


@pytest.mark.parametrize("N", [4, 5, 6])
def test_branch_and_bound_matches_dense_oracle(N, monkeypatch):
    # raw, damped (0.05 X) and gauge-fixed pure-gauge fields, and the tie corpus
    rng = np.random.default_rng(300 + N)
    geom = build_lattice(N)
    fields = []
    for _ in range(2):
        X = rng.normal(0.0, 2.0 ** -N, (geom.n, geom.n))
        g = psi(geom, X)
        fixed = apply_gauge(g, gauge_fix(g, 0.5, betas=(), force_m=2)[0])
        fields += [g, psi(geom, 0.05 * X), fixed]
    forms = [log_oneform(g) for g in fields] + list(_tie_corpus(N, rng))
    got = _kernel_outputs(fields, forms)
    monkeypatch.setattr(norms, "pair_sup", _dense_pair_sup)
    monkeypatch.setattr(gauge_fixing, "pair_sup", _dense_pair_sup)
    assert got == _kernel_outputs(fields, forms)


def test_prune_keeps_cells_whose_bound_equals_the_best():
    # at subnormal magnitudes best * (1 - 1e-12) rounds to best, so only the
    # >= of the prune test keeps the cells holding the maximum; here it is
    # tied at lengths 1 to 4 (classes 0 to 2) on three lines
    N = 2
    geom = build_lattice(N)
    h = np.zeros((4, 5))
    h[:, 0] = [1.0, 1.0, 0.0, -1.0]   # |A| = 2 at length 2, first in scan order
    h[:, 1] = [2.0, 0.0, 0.0, 0.0]    # and at length 1
    h[:, 2] = [0.0, 1.0, 0.0, 1.0]    # and at length 3
    for scale in (1.0, 2.0 ** -1074):
        A = OneForm(geom, h * scale, np.zeros((5, 4)))
        val, arg = norm_gr_argmax(A, 0.0)
        assert val == 2.0 * scale
        assert arg == {"direction": 1, "line": 0, "base": 0, "nbonds": 2}
        assert (val, arg) == _norm_gr_scan(A, 0.0)
