"""Bitwise oracles for the inner kernels of the Aberth iteration.

The reference kernels below are the straightforward forms the package used
before its kernels were restructured for speed: repulsion by numpy's complex
division in fixed 256-row chunks, and the Newton ratio and log|p| as two
Horner passes, one over |z| <= 1 on the forward coefficients and one over
|z| > 1 on the reversed coefficients at w = 1/z.  The pinned trials.csv
digests depend on every iterate keeping its bits, so the production kernels
must agree with these to the last bit, not to a tolerance.
"""

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


def ref_horner_pair(c, z, rows=None):
    p = np.zeros_like(z)
    dp = np.zeros_like(z)
    for ck in c[::-1]:
        dp = dp * z + p
        p = p * z + (ck if rows is None else ck[rows])
    return p, dp


def ref_newton_ratio(c, z, rows=None):
    """c is one coefficient vector (rows None) or a (d+1, B) column stack."""
    d = len(c) - 1
    out = np.empty_like(z)
    inner = np.abs(z) <= 1.0
    if inner.any():
        p, dp = ref_horner_pair(c, z[inner], None if rows is None else rows[inner])
        out[inner] = p / dp
    outer = ~inner
    if outer.any():
        zo = z[outer]
        w = 1.0 / zo
        pr, dpr = ref_horner_pair(c[::-1], w, None if rows is None else rows[outer])
        out[outer] = zo * pr / (d * pr - w * dpr)
    return out


def ref_log_abs_eval(c, z, rows=None):
    d = len(c) - 1
    out = np.empty(z.shape, dtype=float)
    inner = np.abs(z) <= 1.0
    if inner.any():
        p, _ = ref_horner_pair(c, z[inner], None if rows is None else rows[inner])
        out[inner] = np.log(np.abs(p))
    outer = ~inner
    if outer.any():
        zo = z[outer]
        pr, _ = ref_horner_pair(c[::-1], 1.0 / zo, None if rows is None else rows[outer])
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


@pytest.mark.parametrize("d", [2, 17, 64])
def test_one_pass_horner_matches_two_passes_single_polynomial(d):
    rng = np.random.default_rng(d)
    c = gaussian_points(rng, d + 1)
    table = P._horner_table(c[None, :])
    z = mixed_points(rng, 12)
    with np.errstate(all="ignore"):
        ratio, logp = ref_newton_ratio(c, z), ref_log_abs_eval(c, z)
    assert_bitwise(P._newton_ratio(table, z), ratio)
    assert_bitwise(P._newton_ratio(table, z, np.zeros(len(z), dtype=np.intp)), ratio)
    assert_bitwise(P._log_abs_eval(table, z), logp)
    # one point per call, as the last active root of a polynomial sees it:
    # an in-place complex multiply in Horner rounds such a call differently
    for i in range(len(z)):
        assert_bitwise(P._newton_ratio(table, z[i:i + 1]), ratio[i:i + 1])
        assert_bitwise(P._log_abs_eval(table, z[i:i + 1]), logp[i:i + 1])


@pytest.mark.parametrize("B", [2, 5])
def test_one_pass_horner_matches_two_passes_batched(B):
    rng = np.random.default_rng(B)
    d = 30
    C = gaussian_points(rng, B * (d + 1)).reshape(B, d + 1)
    table = P._horner_table(C)
    z = mixed_points(rng, 8 * B)
    rows = np.sort(rng.integers(0, B, size=len(z)))
    with np.errstate(all="ignore"):
        ratio = ref_newton_ratio(C.T, z, rows)
        logp = ref_log_abs_eval(C.T, z, rows)
    assert_bitwise(P._newton_ratio(table, z, rows), ratio)
    assert_bitwise(P._log_abs_eval(table, z, rows), logp)
    # a batched row must match its own B = 1 evaluation
    for b in range(B):
        own = rows == b
        single = P._horner_table(C[b][None, :])
        assert_bitwise(P._newton_ratio(single, z[own]), ratio[own])
        for i in np.flatnonzero(own):
            assert_bitwise(P._newton_ratio(table, z[i:i + 1], rows[i:i + 1]), ratio[i:i + 1])


def assert_horner_matches_reference(table, z, rows):
    """_horner_pair on the folded points, and the Newton ratio and log|p|
    built on it, against the per-coefficient gather of the reference."""
    B = table.shape[1] // 2
    x, cols, _ = P._fold(table, z, rows)
    with np.errstate(all="ignore"):
        want_p, want_dp = ref_horner_pair(table, x, cols)
        ratio = ref_newton_ratio(table[:, :B], z, rows)
        logp = ref_log_abs_eval(table[:, :B], z, rows)
    got_p, got_dp = P._horner_pair(table, x, cols)
    assert_bitwise(got_p, want_p)
    assert_bitwise(got_dp, want_dp)
    assert_bitwise(P._horner(table, x, cols), want_p)
    assert_bitwise(P._newton_ratio(table, z, rows), ratio)
    assert_bitwise(P._log_abs_eval(table, z, rows), logp)


def test_horner_bitwise_on_unsorted_interleaved_columns():
    # unsorted polynomial rows and inner and outer points in random order,
    # so forward and reversed columns interleave in the input order
    rng = np.random.default_rng(21)
    B, d = 3, 25
    C = gaussian_points(rng, B * (d + 1)).reshape(B, d + 1)
    z = mixed_points(rng, 10 * B)
    rows = rng.integers(0, B, size=len(z))
    assert np.any(np.diff(rows) < 0)
    assert_horner_matches_reference(P._horner_table(C), z, rows)


def test_horner_bitwise_on_162_column_stack():
    # B = 81 at degree 50 (the largest et-sweep stack), every column in use
    rng = np.random.default_rng(22)
    B, d = 81, 50
    C = gaussian_points(rng, B * (d + 1)).reshape(B, d + 1)
    z = mixed_points(rng, 4 * B)
    rows = np.concatenate([np.arange(B), rng.integers(0, B, size=len(z) - B)])
    perm = rng.permutation(len(z))
    table = P._horner_table(C)
    assert table.shape[1] == 162
    assert_horner_matches_reference(table, z, rows[perm])


@pytest.mark.parametrize("elems", [1, 5, 7 * 40 + 3])
def test_horner_bitwise_with_partial_last_expansion_block(elems, monkeypatch):
    """Expansion blocks of 1, 1 and 7 table rows for 40 points: 31 rows
    leave a partial last block of 3 in the last case."""
    monkeypatch.setattr(P, "_HORNER_ELEMS", elems)
    rng = np.random.default_rng(23)
    B, d = 2, 30
    C = gaussian_points(rng, B * (d + 1)).reshape(B, d + 1)
    z = mixed_points(rng, 20)[:40]
    assert_horner_matches_reference(P._horner_table(C), z, rng.integers(0, B, size=len(z)))


@pytest.mark.parametrize("point", [0.3 - 0.2j, 2.5 + 1.0j, 1.0, 0j])
def test_horner_bitwise_on_a_single_point(point):
    rng = np.random.default_rng(24)
    B, d = 3, 40
    C = gaussian_points(rng, B * (d + 1)).reshape(B, d + 1)
    z = np.array([point], dtype=complex)
    assert_horner_matches_reference(P._horner_table(C), z, np.array([2]))
    assert_horner_matches_reference(P._horner_table(C[:1]), z, None)


def test_find_roots_batch_matches_reference_kernels(monkeypatch):
    """End to end: iterates with the reference kernels patched in are the
    iterates of the production kernels, bit for bit."""
    rng = np.random.default_rng(11)
    polys = [rng.standard_normal(d + 1) for d in (5, 40, 40, 40, 120, 300)]
    polys.append(np.poly(np.r_[np.full(3, 0.5), rng.standard_normal(6)]))  # triple root
    got = find_roots_batch(polys, max_iter=60)

    def newton(table, z, rows=None):
        B = table.shape[1] // 2
        C = table[:, :B]
        with np.errstate(all="ignore"):
            if B == 1:
                return ref_newton_ratio(C[:, 0], z)
            return ref_newton_ratio(C, z, rows)

    def log_abs(table, z, rows=None):
        B = table.shape[1] // 2
        C = table[:, :B]
        with np.errstate(all="ignore"):
            if B == 1:
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
