"""Bitwise oracles for the inner kernels of the Aberth iteration.

The reference kernels below are the straightforward forms of what the
package computes: repulsion by numpy's complex division in fixed 256-row
chunks, and p, p' and the bound sum_j |c_j| |x|^j by the blocked
(baby-step/giant-step) scheme written out one power and one block at a
time with elementwise numpy operations, so each point's value plainly
depends on that point alone.  The Newton ratio and log|p| apply them over
|z| <= 1 on the forward coefficients and over |z| > 1 on the reversed
coefficients at w = 1/z.  The pinned trials.csv digests depend on every
iterate keeping its bits, so the production kernels must agree with these
to the last bit, not to a tolerance.  The one exception is the far-field
repulsion of high-degree sweeps: it is checked against _repulsion to a
relative tolerance, and for bits that depend on the iterates alone.
"""

import math

import mpmath
import numpy as np
import pytest

from padeclust import find_roots_batch
from padeclust import poly as P


def ref_repulsion(z, idx, chunk=256):
    S = np.empty(len(idx), dtype=complex)
    for s0 in range(0, len(idx), chunk):
        rows = idx[s0:s0 + chunk]
        d = z[rows, None] - z[None, :]
        mag = d.real * d.real + d.imag * d.imag
        mag[np.arange(len(rows)), rows] = np.inf
        np.conjugate(d, out=d)
        d /= mag
        S[s0:s0 + len(rows)] = d.sum(axis=1)
    return S


def ref_blocked(c, x, rows=None):
    """p(x), p'(x) and sum_j |c_j| |x|^j, one block and one power at a time.

    Below degree P._BLOCKED_FROM they come from Horner's rule, p' <- p' x + p
    and p <- p x + c_k.  From there on, in nb blocks of s = ceil(sqrt(d+1))
    coefficients: q_b(x) = sum_i c_{bs+i} x^i summed from zero in i, real and
    imaginary coefficient parts apart (the imaginary share only for a column
    with an imaginary part), then Horner in y = x^s; p' is the same on the
    k c_k table.  The bound is the same on |c| at |x|, in real arithmetic,
    in either case.  c is one coefficient
    vector (rows None) or a (d+1, K) column table, point j read from column
    rows[j]."""
    if rows is None:
        c, rows = c.reshape(len(c), -1), np.zeros(len(x), dtype=np.intp)
    C = c[:, rows].astype(complex)
    complex_pt = (c.imag != 0).any(axis=0)[rows]
    d, n = len(C) - 1, len(x)
    s = math.isqrt(d) + 1
    nb = -(-(d + 1) // s)

    def powers(v):
        V = [np.ones(n, dtype=v.dtype), v.copy()][:s]
        while len(V) < s:
            V.append(V[-1] * v)
        return V

    def horner_in_y(T, X):
        T = np.concatenate([T, np.zeros((nb * s - len(T), n), dtype=complex)])
        q = []
        for b in range(nb):
            re, im, re2, im2 = (np.zeros(n) for _ in range(4))
            for i in range(s):
                t = T[b * s + i]
                re, im = re + t.real * X[i].real, im + t.real * X[i].imag
                re2, im2 = re2 + t.imag * X[i].real, im2 + t.imag * X[i].imag
            v = np.empty(n, dtype=complex)
            v.real = np.where(complex_pt, re - im2, re)
            v.imag = np.where(complex_pt, im + re2, im)
            q.append(v)
        acc = q[-1]
        y = X[s - 1] * x
        for b in range(nb - 2, -1, -1):
            acc = acc * y + q[b]
        return acc

    if d >= P._BLOCKED_FROM:
        k = np.arange(1, d + 1)[:, None]
        deriv = np.zeros_like(C)
        deriv.real[:d], deriv.imag[:d] = C.real[1:] * k, C.imag[1:] * k
        X = powers(x)
        p, dp = horner_in_y(C, X), horner_in_y(deriv, X)
    else:
        p, dp = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
        for ck in C[::-1]:
            dp = dp * x + p
            p = p * x + ck
    ax = np.abs(x)
    if d < P._BLOCKED_FROM:
        bound = np.zeros(n)
        for mk in np.abs(C)[::-1]:
            bound = bound * ax + mk
        return p, dp, bound
    A = powers(ax)
    M = np.concatenate([np.abs(C), np.zeros((nb * s - d - 1, n))])
    qa = []
    for b in range(nb):
        acc = np.zeros(n)
        for i in range(s):
            acc = acc + M[b * s + i] * A[i]
        qa.append(acc)
    bound, ay = qa[-1], A[s - 1] * ax
    for b in range(nb - 2, -1, -1):
        bound = bound * ay + qa[b]
    return p, dp, bound


def noise_factor(d):
    s = math.isqrt(d) + 1 if d >= P._BLOCKED_FROM else 1
    return (1.5 * d + 0.5 * -(-(d + 1) // s) + 3 * s) * np.finfo(float).eps


def ref_newton_ratio(c, z, rows=None):
    """c is one coefficient vector (rows None) or a (d+1, B) column stack;
    returns the ratio and the backward-error flag |p| <= k eps bound."""
    d = len(c) - 1
    out = np.empty_like(z)
    noise = np.empty(len(z), dtype=bool)
    inner = np.abs(z) <= 1.0
    if inner.any():
        p, dp, bound = ref_blocked(c, z[inner], None if rows is None else rows[inner])
        out[inner] = p / dp
        noise[inner] = np.abs(p) <= noise_factor(d) * bound
    outer = ~inner
    if outer.any():
        zo = z[outer]
        w = 1.0 / zo
        pr, dpr, bound = ref_blocked(c[::-1], w, None if rows is None else rows[outer])
        out[outer] = zo * pr / (d * pr - w * dpr)
        noise[outer] = np.abs(pr) <= noise_factor(d) * bound
    return out, noise


def ref_log_abs_eval(c, z, rows=None):
    d = len(c) - 1
    out = np.empty(z.shape, dtype=float)
    inner = np.abs(z) <= 1.0
    if inner.any():
        p = ref_blocked(c, z[inner], None if rows is None else rows[inner])[0]
        out[inner] = np.log(np.abs(p))
    outer = ~inner
    if outer.any():
        zo = z[outer]
        pr = ref_blocked(c[::-1], 1.0 / zo, None if rows is None else rows[outer])[0]
        out[outer] = d * np.log(np.abs(zo)) + np.log(np.abs(pr))
    return out


def assert_bitwise(got, want):
    """Same bits entry by entry; an entry that is not finite in both only
    has to agree with equal_nan (NaN payloads are not part of the contract)."""
    assert got.shape == want.shape and got.dtype == want.dtype
    finite = np.isfinite(want)
    np.testing.assert_array_equal(np.isfinite(got), finite)
    words = 2 if np.iscomplexobj(want) else 1
    g = got.view(np.uint64).reshape(len(got), words)
    w = want.view(np.uint64).reshape(len(want), words)
    np.testing.assert_array_equal(g[finite], w[finite])
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True)


def gaussian_points(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# repulsion


def idx_cases(rng, n):
    yield np.arange(n)
    yield np.array([n // 2])
    yield np.sort(rng.choice(n, size=max(1, n // 3), replace=False))


@pytest.mark.parametrize("n", [2, 3, 50, 257, 2048])
def test_repulsion_bitwise_on_row_subsets(n):
    rng = np.random.default_rng(n)
    z = gaussian_points(rng, n)
    for idx in idx_cases(rng, n):
        with np.errstate(all="ignore"):
            want = ref_repulsion(z, idx)
        assert_bitwise(P._repulsion(z, idx), want)


@pytest.mark.parametrize("n", [2, 3, 50, 257, 2048])
def test_repulsion_bitwise_on_collision(n):
    rng = np.random.default_rng(100 + n)
    z = gaussian_points(rng, n)
    z[-1] = z[0]
    for idx in idx_cases(rng, n):
        with np.errstate(all="ignore"):
            want = ref_repulsion(z, idx)
        got = P._repulsion(z, idx)
        assert_bitwise(got, want)
        # the colliding rows are the ones the iteration must kick
        hit = np.isin(idx, [0, n - 1])
        assert not np.isfinite(got[hit]).any()


@pytest.mark.parametrize("scale", [1e-170, 1e160])
@pytest.mark.parametrize("n", [2, 3, 50, 257, 2048])
def test_repulsion_bitwise_when_mag_underflows_or_overflows(n, scale):
    rng = np.random.default_rng(200 + n)
    z = gaussian_points(rng, n) * scale
    for idx in idx_cases(rng, n):
        with np.errstate(all="ignore"):
            want = ref_repulsion(z, idx)
        assert_bitwise(P._repulsion(z, idx), want)


@pytest.mark.parametrize("elems", [1, 3 * 50 + 7, P._REPULSION_ELEMS])
def test_repulsion_bitwise_on_partial_and_unordered_row_blocks(elems, monkeypatch):
    """Row blocks of 1, 3 and 163 rows over 50 iterates, the rows out of
    order; at 3 rows the last block of every idx below is partial."""
    monkeypatch.setattr(P, "_REPULSION_ELEMS", elems)
    rng = np.random.default_rng(300 + elems)
    n = 50
    z = gaussian_points(rng, n)
    for idx in (rng.permutation(n), rng.choice(n, size=17, replace=False),
                np.arange(n)[::-1], np.array([n - 1])):
        with np.errstate(all="ignore"):
            want = ref_repulsion(z, idx)
        assert_bitwise(P._repulsion(z, idx), want)


def test_repulsion_bitwise_on_partial_row_block_at_degree_2048():
    # 4 rows per block: 10 unordered rows make blocks of 4, 4 and 2
    rng = np.random.default_rng(301)
    z = gaussian_points(rng, 2048)
    idx = rng.choice(2048, size=10, replace=False)
    with np.errstate(all="ignore"):
        want = ref_repulsion(z, idx)
    assert_bitwise(P._repulsion(z, idx), want)


def test_repulsion_bitwise_with_equal_imaginary_parts():
    # differences with a zero imaginary part exercise the sign of zero
    rng = np.random.default_rng(7)
    for n in (2, 3, 50):
        z = rng.standard_normal(n) + 0.25j
        idx = np.arange(n)
        with np.errstate(all="ignore"):
            want = ref_repulsion(z, idx)
        assert_bitwise(P._repulsion(z, idx), want)


# ---------------------------------------------------------------------------
# Newton ratio and log|p|


def mixed_points(rng, k):
    """|z| < 1, |z| == 1 exactly, |z| > 1 and z == 0."""
    inside = 0.9 * np.exp(2j * np.pi * rng.random(k))
    on = np.array([1.0, -1.0, 1j, -1j, 0.6 + 0.8j, -0.8 - 0.6j], dtype=complex)
    on = on[np.abs(on) == 1.0]
    outside = 1.1 * np.exp(2j * np.pi * rng.random(k)) * (1 + rng.random(k))
    assert len(on) >= 4
    z = np.concatenate([inside, on, outside, [0j]])
    return z[rng.permutation(len(z))]


def assert_ratio(got, want):
    """The Newton ratio bit for bit and the backward-error flags exactly."""
    assert_bitwise(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


@pytest.fixture(params=["horner", "blocked"])
def form(request, monkeypatch):
    """Runs a kernel case with Horner's rule and, with _BLOCKED_FROM at 0,
    with the blocked form at every degree."""
    if request.param == "blocked":
        monkeypatch.setattr(P, "_BLOCKED_FROM", 0)
    return request.param


@pytest.mark.parametrize("d", [2, 17, 64])
def test_one_pass_horner_matches_two_passes_single_polynomial(d, form):
    rng = np.random.default_rng(d)
    c = gaussian_points(rng, d + 1)
    table = P._horner_table(c[None, :])
    z = mixed_points(rng, 12)
    with np.errstate(all="ignore"):
        ratio, logp = ref_newton_ratio(c, z), ref_log_abs_eval(c, z)
    assert_ratio(P._newton_ratio(table, z), ratio)
    assert_ratio(P._newton_ratio(table, z, np.zeros(len(z), dtype=np.intp)), ratio)
    assert_bitwise(P._log_abs_eval(table, z), logp)
    # one point per call, as the last active root of a polynomial sees it:
    # an in-place complex multiply rounds such a call differently
    for i in range(len(z)):
        assert_ratio(P._newton_ratio(table, z[i:i + 1]), (ratio[0][i:i + 1], ratio[1][i:i + 1]))
        assert_bitwise(P._log_abs_eval(table, z[i:i + 1]), logp[i:i + 1])


@pytest.mark.parametrize("B", [2, 5])
def test_one_pass_horner_matches_two_passes_batched(B, form):
    rng = np.random.default_rng(B)
    d = 30
    C = gaussian_points(rng, B * (d + 1)).reshape(B, d + 1)
    table = P._horner_table(C)
    z = mixed_points(rng, 8 * B)
    rows = np.sort(rng.integers(0, B, size=len(z)))
    with np.errstate(all="ignore"):
        ratio = ref_newton_ratio(C.T, z, rows)
        logp = ref_log_abs_eval(C.T, z, rows)
    assert_ratio(P._newton_ratio(table, z, rows), ratio)
    assert_bitwise(P._log_abs_eval(table, z, rows), logp)
    # a batched row must match its own B = 1 evaluation
    for b in range(B):
        own = rows == b
        single = P._horner_table(C[b][None, :])
        assert_ratio(P._newton_ratio(single, z[own]), (ratio[0][own], ratio[1][own]))
        for i in np.flatnonzero(own):
            assert_ratio(P._newton_ratio(table, z[i:i + 1], rows[i:i + 1]),
                         (ratio[0][i:i + 1], ratio[1][i:i + 1]))


def kernel_values(table, x, cols):
    """p, p' and sum_j |c_j| |x|^j from the production kernel."""
    return (*P._horner_steps(table, x, cols, "pair"), *P._horner_steps(table, x, cols, "bound"))


def assert_horner_matches_reference(table, z, rows):
    """_horner_steps on the folded points, and the Newton ratio and log|p|
    built on it, against the per-point blocked reference."""
    B = table.B
    x, cols, _ = P._fold(table, z, rows)
    with np.errstate(all="ignore"):
        want = ref_blocked(table.coef, x, cols)
        ratio = ref_newton_ratio(table.coef[:, :B], z, rows)
        logp = ref_log_abs_eval(table.coef[:, :B], z, rows)
    for got, w in zip(kernel_values(table, x, cols), want):
        assert_bitwise(got, w)
    assert_bitwise(P._horner_steps(table, x, cols, "p")[0], want[0])
    assert_ratio(P._newton_ratio(table, z, rows), ratio)
    assert_bitwise(P._log_abs_eval(table, z, rows), logp)


def test_horner_bitwise_on_unsorted_interleaved_columns(form):
    # unsorted polynomial rows and inner and outer points in random order,
    # so forward and reversed columns interleave in the input order
    rng = np.random.default_rng(21)
    B, d = 3, 25
    C = gaussian_points(rng, B * (d + 1)).reshape(B, d + 1)
    z = mixed_points(rng, 10 * B)
    rows = rng.integers(0, B, size=len(z))
    assert np.any(np.diff(rows) < 0)
    assert_horner_matches_reference(P._horner_table(C), z, rows)


def test_horner_bitwise_on_162_column_stack(form):
    # B = 81 at degree 50 (the largest et-sweep stack), every column in use
    rng = np.random.default_rng(22)
    B, d = 81, 50
    C = gaussian_points(rng, B * (d + 1)).reshape(B, d + 1)
    z = mixed_points(rng, 4 * B)
    rows = np.concatenate([np.arange(B), rng.integers(0, B, size=len(z) - B)])
    perm = rng.permutation(len(z))
    table = P._horner_table(C)
    assert table.coef.shape[1] == 162
    assert_horner_matches_reference(table, z, rows[perm])


@pytest.mark.parametrize("elems", [1, 5, 7 * 40 + 3])
def test_horner_bitwise_with_partial_last_expansion_block(elems, form, monkeypatch):
    """Horner's rule expands blocks of 1, 1 and 7 table rows for 40 points:
    31 rows leave a partial last block of 3 in the last case.  Blocked
    (s = 6, nb = 6), the 40 points go in chunks of 1, 1 and 15, the last
    one partial."""
    monkeypatch.setattr(P, "_HORNER_ELEMS", elems)
    rng = np.random.default_rng(23)
    B, d = 2, 30
    C = gaussian_points(rng, B * (d + 1)).reshape(B, d + 1)
    z = mixed_points(rng, 20)[:40]
    assert_horner_matches_reference(P._horner_table(C), z, rng.integers(0, B, size=len(z)))


@pytest.mark.parametrize("point", [0.3 - 0.2j, 2.5 + 1.0j, 1.0, 0j])
def test_horner_bitwise_on_a_single_point(point, form):
    rng = np.random.default_rng(24)
    B, d = 3, 40
    C = gaussian_points(rng, B * (d + 1)).reshape(B, d + 1)
    z = np.array([point], dtype=complex)
    assert_horner_matches_reference(P._horner_table(C), z, np.array([2]))
    assert_horner_matches_reference(P._horner_table(C[:1]), z, None)


def mixed_table(rng, B, d):
    """B rows of degree d, every other one with real coefficients."""
    C = gaussian_points(rng, B * (d + 1)).reshape(B, d + 1)
    C[::2] = C[::2].real
    return C


@pytest.mark.parametrize("s, d", [(3, 8), (8, 50), (21, 400), (46, 2048)])
def test_blocked_kernel_single_point_matches_batched(s, d, monkeypatch):
    """Every point alone gives the bits it gets among all the others and
    the bits of the per-point reference, blocked (s as given) and as plain
    Horner (s = 1), with real and complex rows in the batch."""
    rng = np.random.default_rng(s)
    B = 4
    C = mixed_table(rng, B, d)
    z = mixed_points(rng, 40)
    rows = rng.integers(0, B, size=len(z))
    for blocked_from, want_s in ((0, s), (10**9, 1)):
        monkeypatch.setattr(P, "_BLOCKED_FROM", blocked_from)
        table = P._horner_table(C)
        assert table.s == want_s
        x, cols, _ = P._fold(table, z, rows)
        batched = kernel_values(table, x, cols)
        with np.errstate(all="ignore"):
            want = ref_blocked(table.coef, x, cols)
        for got, w in zip(batched, want):
            assert_bitwise(got, w)
        assert_bitwise(P._horner_steps(table, x, cols, "p")[0], want[0])
        for i in range(len(x)):
            alone = kernel_values(table, x[i:i + 1], cols[i:i + 1])
            for got, w in zip(alone, batched):
                assert_bitwise(got, w[i:i + 1])
            (p,) = P._horner_steps(table, x[i:i + 1], cols[i:i + 1], "p")
            assert_bitwise(p, want[0][i:i + 1])


def _mp_eval(c, x):
    """p(x), p'(x) and sum |c_j| |x|^j in 60-digit arithmetic."""
    import mpmath as mp

    with mp.workdps(60):
        cm = [mp.mpc(complex(v)) for v in c[::-1]]
        xm = mp.mpc(complex(x))
        p, dp = mp.polyval(cm, xm, derivative=True)
        bound = mp.polyval([abs(v) for v in cm], abs(xm))
        dbound = mp.polyval([abs(v) * k for k, v in zip(range(len(cm) - 1, 0, -1), cm[:-1])],
                            abs(xm)) if len(cm) > 1 else mp.mpf(0)
        return complex(p), complex(dp), float(bound), float(dbound)


@pytest.mark.parametrize("blocked_from", [0, 10**9])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("d", [1, 2, 8, 63, 64, 2048])
def test_kernel_within_its_error_bound(d, kind, blocked_from, monkeypatch):
    """p, p' and the bound, blocked and by Horner's rule, against 60-digit
    values at points in and on the unit disk, some of them next to a root
    where p cancels: each error is within table.noise times the bound (for
    p' the bound of k c_k)."""
    monkeypatch.setattr(P, "_BLOCKED_FROM", blocked_from)
    rng = np.random.default_rng(d)
    c = rng.standard_normal(d + 1) + (1j * rng.standard_normal(d + 1) if kind == "complex" else 0)
    table = P._horner_table(c[None, :].astype(complex))
    assert table.s == (1 if blocked_from else math.isqrt(d) + 1)
    x = 0.999 * np.exp(2j * np.pi * rng.random(6)) * rng.random(6) ** 0.2
    near = P.find_roots(c).roots
    near = near[np.abs(near) <= 1.0][:3]
    x = np.r_[x, near, 1.0, -1.0, 1j]
    p, dp, bound = kernel_values(table, x, np.zeros(len(x), dtype=np.intp))
    for i, xi in enumerate(x):
        want_p, want_dp, want_bound, want_dbound = _mp_eval(c, xi)
        assert abs(p[i] - want_p) <= table.noise * want_bound
        assert abs(dp[i] - want_dp) <= table.noise * want_dbound
        assert abs(bound[i] - want_bound) <= table.noise * want_bound


def test_real_grid_sign_threshold_covers_the_kernel_error():
    """_real_brackets trusts a sign beyond 4 d eps sum |c_j|.  On real points
    with real coefficients every complex multiply of the kernel is one real
    multiply, so, in units u = eps/2, term bs + i of p picks up at most
    (i - 1) + 1 + (s - 1) + b(s + 1) <= d + nb + 2s: (d + nb + 2s)/2 eps,
    within 4 d eps at every degree; checked against 60-digit values on the
    grid."""
    for d in range(1, 4097):
        s = math.isqrt(d) + 1 if d >= P._BLOCKED_FROM else 1
        assert (d + -(-(d + 1) // s) + 2 * s) / 2 <= 4 * d
    rng = np.random.default_rng(5)
    for d in (1, 2, 8, 64, 400):
        c = rng.standard_normal(d + 1)
        table = P._horner_table(c[None, :].astype(complex))
        roots = P.find_roots(c).roots
        x = np.r_[np.linspace(-1.0, 1.0, 21), roots[roots.imag == 0].real.clip(-1, 1)] + 0j
        p = P._horner_steps(table, x, np.zeros(len(x), dtype=np.intp), "p")[0]
        tol = 4 * d * np.finfo(float).eps * np.abs(c).sum()
        for xi, pi in zip(x, p):
            assert pi.imag == 0.0
            assert abs(pi.real - _mp_eval(c, xi)[0].real) <= tol


def test_find_roots_batch_matches_reference_kernels(monkeypatch):
    """End to end: iterates with the reference kernels patched in are the
    iterates of the production kernels, bit for bit."""
    rng = np.random.default_rng(11)
    polys = [rng.standard_normal(d + 1) for d in (5, 40, 40, 40, 120, 300)]
    polys.append(np.poly(np.r_[np.full(3, 0.5), rng.standard_normal(6)]))  # triple root
    got = find_roots_batch(polys, max_iter=60)

    def newton(table, z, rows=None):
        C = table.coef[:, :table.B]
        with np.errstate(all="ignore"):
            if table.B == 1:
                return ref_newton_ratio(C[:, 0], z)
            return ref_newton_ratio(C, z, rows)

    def log_abs(table, z, rows=None):
        C = table.coef[:, :table.B]
        with np.errstate(all="ignore"):
            if table.B == 1:
                return ref_log_abs_eval(C[:, 0], z)
            return ref_log_abs_eval(C, z, rows)

    def repulsion(z, idx):
        with np.errstate(all="ignore"):
            return ref_repulsion(z, idx)

    monkeypatch.setattr(P, "_newton_ratio", newton)
    monkeypatch.setattr(P, "_log_abs_eval", log_abs)
    monkeypatch.setattr(P, "_repulsion", repulsion)
    want = find_roots_batch(polys, max_iter=60)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        g = getattr(g, "partial", g)
        w = getattr(w, "partial", w)
        assert_bitwise(g.roots, w.roots)
        assert g.residual == w.residual and g.converged == w.converged


# ---------------------------------------------------------------------------
# far-field repulsion


@pytest.fixture(scope="module")
def far_sets():
    """Iterate sets at the far path's threshold degree and at 2048: the start
    points and the converged roots of a real and a complex Gaussian series,
    and the roots with every 16th one moved off the band around |z| = 1."""
    rng = np.random.default_rng(2048)
    sets = []
    for d in (P._FAR_FROM, 2048):
        for kind in ("real", "complex"):
            c = rng.standard_normal(d + 1) + (1j * rng.standard_normal(d + 1) if kind == "complex"
                                              else 0)
            roots = P.find_roots(c).roots
            moved = roots.copy()
            moved[::16] *= np.where(np.arange(len(moved[::16])) % 2, 0.8, 1.25)
            sets += [(f"{d}-{kind}-start", P._start_points(c.astype(complex), 0.0)),
                     (f"{d}-{kind}-roots", roots), (f"{d}-{kind}-off-band", moved)]
    return sets


def test_far_repulsion_is_within_1e_12_of_the_direct_kernel(far_sets):
    rng = np.random.default_rng(3)
    for name, z in far_sets:
        off_band = np.abs(np.abs(z) - 1.0) > P._FAR_BAND
        if name.endswith("off-band"):
            assert off_band.sum() >= len(z) // 16
        fewest = -(-P._FAR_PAIRS // len(z))  # the fewest targets that go far
        for idx in (np.arange(len(z)), np.sort(rng.choice(len(z), fewest, replace=False))):
            want = P._repulsion(z, idx)
            got = P._far_repulsion(z, idx)
            rel = np.abs(got - want) / np.abs(want)
            assert rel.max() <= 1e-12, (name, rel.max())
            # off-band targets take the direct kernel over every iterate
            assert_bitwise(got[off_band[idx]], want[off_band[idx]])


def test_far_translation_matches_the_per_offset_sum(far_sets):
    """The FFT translation gives every sector's local expansion as the sum
    over far offsets D of A[D] applied to the moments of sector t + D, with
    A[D, l, k] = (-1)^l binom(k + l, l) w^{Dk} (1 - w^D)^{-(k+l+1)} and
    w = e^{2 pi i/K}, on the moments of real iterate sets in each sector's
    frame u = z conj(c) - 1.  The powers are taken in mpmath at 30 digits:
    in doubles the power of 1 - w^D alone carries an error near 1e-13."""
    K, p = P._FAR_SECTORS, P._FAR_TERMS
    k = np.arange(p)
    far = [D for D in range(K) if (D + K // 2) % K - K // 2 not in P._FAR_NEAR]
    A = {}
    with mpmath.workdps(30):
        for D in far:
            wD = mpmath.expjpi(mpmath.mpf(2 * D) / K)
            rot = np.array([complex(wD ** j) for j in range(p)])
            inv = np.array([complex((1 - wD) ** -n) for n in range(2 * p)])
            A[D] = np.array([[(-1) ** l * math.comb(j + l, l) * rot[j] * inv[j + l + 1]
                              for j in range(p)] for l in range(p)])
    centres = np.exp(1j * math.pi * (2 * np.arange(K) + 1) / K)
    for name, z in far_sets:
        band = z[np.abs(np.abs(z) - 1.0) <= P._FAR_BAND]
        sector = np.floor(np.angle(band) * K / (2 * math.pi)).astype(int) % K
        M = np.zeros((p, K), dtype=complex)
        for s in range(K):
            u = band[sector == s] * centres[s].conj() - 1.0
            M[:, s] = (u[None, :] ** k[:, None]).sum(axis=1)
        want = np.zeros((p, K), dtype=complex)
        for t in range(K):
            for D in far:
                want[:, t] += A[D] @ M[:, (t + D) % K]
        got = P._far_local(M)
        rel = np.abs(got - want) / np.abs(want).max(axis=1, keepdims=True)
        assert rel.max() <= 1e-13, (name, rel.max())


def test_far_repulsion_of_a_target_does_not_depend_on_the_other_targets(far_sets):
    z = dict(far_sets)["2048-real-off-band"]
    full = P._far_repulsion(z, np.arange(len(z)))
    rng = np.random.default_rng(4)
    for idx in (np.sort(rng.choice(len(z), 500, replace=False)), np.array([7]),
                rng.permutation(len(z))[:64]):
        assert_bitwise(P._far_repulsion(z, idx), full[idx])


@pytest.mark.parametrize("where", ["band", "off-band"])
def test_far_repulsion_is_not_finite_on_an_exact_collision(where, far_sets):
    """A collision between band iterates lies in the near field, and one
    between off-band iterates in the direct sum: either gives a non-finite
    S where _repulsion does, so the iteration kicks the pair."""
    z = dict(far_sets)["2048-complex-off-band"].copy()
    off_band = np.flatnonzero(np.abs(np.abs(z) - 1.0) > P._FAR_BAND)
    band = np.flatnonzero(np.abs(np.abs(z) - 1.0) <= P._FAR_BAND)
    i, j = (band if where == "band" else off_band)[[3, 40]]
    z[j] = z[i]
    idx = np.arange(len(z))
    with np.errstate(all="ignore"):
        want = P._repulsion(z, idx)
        got = P._far_repulsion(z, idx)
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
    assert not np.isfinite(got[[i, j]]).any()
    assert np.isfinite(got).sum() == len(z) - 2


def test_batch_takes_the_far_path_from_both_thresholds_and_keeps_its_bits(monkeypatch):
    """find_roots_batch over three polynomials of the far path's degree and
    one of twice that degree is bitwise find_roots on each.  Every
    repulsion call of the iteration whose active iterates times degree
    reach _FAR_PAIRS goes to _far_repulsion, and every other call to
    _repulsion, so a row below the threshold gets _repulsion's bits."""
    rng = np.random.default_rng(1024)
    d = P._FAR_FROM
    polys = [rng.standard_normal(d + 1), rng.standard_normal(d + 1),
             rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1),
             rng.standard_normal(2 * d + 1)]
    calls, depth = [], [0]
    far, direct = P._far_repulsion, P._repulsion

    def spy(kernel, kind):
        # records the iteration's own calls, not the far path's near field
        def call(z, idx):
            if depth[0] == 0:
                calls.append((kind, len(z), len(idx)))
            depth[0] += 1
            try:
                return kernel(z, idx)
            finally:
                depth[0] -= 1
        return call

    monkeypatch.setattr(P, "_far_repulsion", spy(far, "far"))
    monkeypatch.setattr(P, "_repulsion", spy(direct, "direct"))
    batch = find_roots_batch(polys)
    monkeypatch.undo()
    kinds = {kind for kind, _, _ in calls}
    assert kinds == {"far", "direct"}
    for kind, n, active in calls:
        assert n in (d, 2 * d)
        assert kind == ("far" if active * n >= P._FAR_PAIRS else "direct")
    assert any(kind == "far" and active < 400 for kind, _, active in calls)
    for c, rs in zip(polys, batch):
        alone = P.find_roots(c)
        assert_bitwise(rs.roots, alone.roots)
        assert rs.residual == alone.residual and rs.converged
