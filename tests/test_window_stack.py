"""Stacked window determinants against the one-matrix path, bit for bit.

The window protocols build each block's (B, k, k) windows as one strided
view (WindowStack) and factor them with one log_abs_dets call.  These tests
compare that, by uint64 view, against one LAPACK getrf per matrix summed
as the protocols did it one trial at a time (kept here as the reference,
since log_abs_det is now the B = 1 call of the stacked path), and check
that trials.csv does not depend on the worker count or the block size.
"""

import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from padeclust import experiments as ex
from padeclust.errors import InsufficientCoefficients
from padeclust.sampler import DISCRETE, GAUSSIAN, distribution, sample
from padeclust.toeplitz import WindowStack, assoc_matrix, log_abs_det, log_abs_dets


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _stack(rows, m, k):
    rows = np.asarray(rows)
    if rows.dtype != float:
        # WindowStack holds sampled (real double) coefficients only.
        return np.stack([assoc_matrix(row, m, k) for row in rows])
    stack = WindowStack(len(rows), rows.shape[1], k)
    stack.coeffs[:] = rows
    return stack.windows(m)


def _reference_log_abs_det(M):
    """(log|det|, singular) of one matrix by the one-matrix formula: one
    getrf, then the sum of log|diag| over the strided LU diagonal."""
    M = np.asarray(M)
    if M.shape[0] == 0:
        return 0.0, False
    lu, _, info = (lapack.zgetrf if M.dtype.kind == "c" else lapack.dgetrf)(M)
    diag = np.diagonal(lu)
    if info > 0 or np.any(diag == 0):
        return -math.inf, True
    return float(np.sum(np.log(np.abs(diag)))), False


def _assert_matches_per_matrix(rows, m, k):
    log_abs, singular = log_abs_dets(_stack(rows, m, k))
    ref = [_reference_log_abs_det(assoc_matrix(row, m, k)) for row in rows]
    one = [log_abs_det(assoc_matrix(row, m, k)) for row in rows]
    assert singular.tolist() == [s for _, s in ref] == [r.singular for r in one]
    assert np.array_equal(_bits(log_abs), _bits([l for l, _ in ref]))
    assert np.array_equal(_bits(log_abs), _bits([r.log_abs for r in one]))
    return singular


def _sampled(spec, length, count, seed=0):
    return np.array([sample(spec, length - 1, seed, t).coeffs for t in range(count)])


@pytest.mark.parametrize("k", [1, 2, 4])
def test_windows_are_a_view_of_the_coefficients(k):
    stack = WindowStack(3, 9, k)
    stack.coeffs[:] = np.arange(27.0).reshape(3, 9)
    for m in range(9 - k + 1):
        W = stack.windows(m)
        assert W.shape == (3, k, k) and np.shares_memory(W, stack.coeffs)
        for b in range(3):
            assert np.array_equal(W[b], assoc_matrix(stack.coeffs[b], m, k))


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
def test_gaussian_anticoncentration_windows_bitwise(n):
    _assert_matches_per_matrix(_sampled(distribution(GAUSSIAN), 2 * n - 1, 400), n - 1, n)


@pytest.mark.parametrize("M", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
def test_discrete_windows_bitwise_with_singular_rows(M, n):
    singular = _assert_matches_per_matrix(
        _sampled(distribution(DISCRETE, M=M), 2 * n - 1, 400, seed=3), n - 1, n)
    if n <= 5:
        assert singular.any()


@pytest.mark.parametrize("dtype", [complex, np.float32, np.complex64])
def test_complex_and_single_precision_stacks_bitwise(dtype):
    """getrf works in double precision whatever the input's; the stacked
    diagonals must keep it."""
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((300, 9))
    if np.dtype(dtype).kind == "c":
        rows = rows + 1j * rng.standard_normal((300, 9))
    rows[::7, :] = np.round(rows[::7, :])  # some exactly representable windows
    _assert_matches_per_matrix(rows.astype(dtype), 4, 5)


@pytest.mark.parametrize("dtype", [np.float32, np.complex64])
def test_pivot_below_single_precision_range_is_not_singular(dtype):
    """U[1, 1] = -1e-60 fits a double but not a float32."""
    M = np.array([[1.0, 1e-30], [1e-30, 0.0]], dtype=dtype)
    ref = _reference_log_abs_det(M)
    assert ref[1] is False and ref[0] < -130
    log_abs, singular = log_abs_dets(M[None])
    assert not singular[0] and _bits(log_abs) == _bits([ref[0]])
    res = log_abs_det(M)
    assert not res.singular and _bits(res.log_abs) == _bits(ref[0])
    assert res.sign_or_phase == pytest.approx(-1.0)


def test_single_matrix_stack_bitwise():
    rows = _sampled(distribution(GAUSSIAN), 19, 1, seed=5)
    _assert_matches_per_matrix(rows, 9, 10)


@pytest.mark.parametrize("m, n", [(1, 5), (0, 4), (2, 7)])
def test_det_growth_windows_read_zero_below_index_zero(m, n):
    """n > m + 1: the upper-right corner reads a_l for l < 0, which is 0."""
    rows = _sampled(distribution(GAUSSIAN), m + n, 200, seed=9)
    _assert_matches_per_matrix(rows, m, n)
    W = _stack(rows, m, n)
    i, j = np.nonzero(m + np.arange(n)[:, None] - np.arange(n)[None, :] < 0)
    assert np.all(W[:, i, j] == 0.0)


def test_empty_windows_and_short_rows():
    log_abs, singular = log_abs_dets(np.zeros((3, 0, 0)))
    assert log_abs.tolist() == [0.0] * 3 and not singular.any()
    assert log_abs_det(np.zeros((0, 0))).log_abs == 0.0
    with pytest.raises(InsufficientCoefficients):
        WindowStack(2, 5, 3).windows(3)
    with pytest.raises(ValueError):
        log_abs_dets(np.zeros((2, 3, 4)))


# ---------------------------------------------------------------- protocols


def _anticonc_reference(config, n, offset, trial):
    """One trial as the protocol computed it before window blocks."""
    coeffs = sample(config.spec, 2 * n - 2, config.seed, offset + trial).coeffs
    log_abs, singular = _reference_log_abs_det(assoc_matrix(coeffs, n - 1, n))
    root = 0.0 if singular else math.exp(log_abs / n)
    return (trial, False, False, "", {"n": n, "det_abs_root": root, "singular": singular})


def _det_growth_reference(config, m_values, n, trial):
    coeffs = sample(config.spec, max(m_values) + n - 1, config.seed, trial).coeffs
    out = []
    for m in m_values:
        log_abs, singular = _reference_log_abs_det(assoc_matrix(coeffs, m, n))
        values = {"m": m, "n": n, "singular": singular}
        if singular:
            out.append((trial, True, False, "singular_window", values))
            continue
        growth = math.exp(log_abs / m)
        values.update({"log_abs_det": log_abs, "growth": growth,
                       "deviation": abs(growth - 1.0)})
        out.append((trial, False, False, "", values))
    return out


def _as_tuples(records):
    return [(r.trial_index, r.degenerate, r.excluded, r.reason, r.values) for r in records]


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[:4] == w[:4] and g[4].keys() == w[4].keys()
        for key, value in w[4].items():
            assert type(g[4][key]) is type(value), key
            if isinstance(value, float):
                assert _bits(g[4][key]) == _bits(value), key
            else:
                assert g[4][key] == value, key


@pytest.mark.parametrize("elems", [None, 40])
@pytest.mark.parametrize("kind", [GAUSSIAN, DISCRETE])
def test_anticoncentration_records_match_per_trial(monkeypatch, elems, kind):
    """Trial counts that are not a multiple of the block size (23 trials in
    blocks of 40 // (2n - 1) with the small budget)."""
    if elems is not None:
        monkeypatch.setattr(ex, "_BLOCK_ELEMS", elems)
    spec = distribution(kind, M=1) if kind == DISCRETE else distribution(kind)
    config = ex.default_config(ex.ANTICONCENTRATION, spec=spec, trials=23, seed=4)
    for idx, n in enumerate((1, 2, 5, 10)):
        offset = idx * config.trials
        got = ex._anticonc_records(config, n, offset, range(config.trials))
        want = [_anticonc_reference(config, n, offset, t) for t in range(config.trials)]
        _assert_same_records(_as_tuples(got), want)


@pytest.mark.parametrize("elems", [None, 50])
@pytest.mark.parametrize("kind", [GAUSSIAN, DISCRETE])
def test_det_growth_records_match_per_trial(monkeypatch, elems, kind):
    if elems is not None:
        monkeypatch.setattr(ex, "_BLOCK_ELEMS", elems)
    spec = distribution(kind, M=1) if kind == DISCRETE else distribution(kind)
    config = ex.default_config(ex.DET_GROWTH, spec=spec, m=(1, 3, 8, 12), n=4,
                               trials=11, seed=2)
    got = ex._det_growth_records(config, (1, 3, 8, 12), 4, range(3, 14))
    want = [rec for t in range(3, 14)
            for rec in _det_growth_reference(config, (1, 3, 8, 12), 4, t)]
    _assert_same_records(_as_tuples(got), want)
    if kind == DISCRETE:
        assert any(rec.degenerate for rec in got)


@pytest.mark.parametrize("elems", [None, 60])
@pytest.mark.parametrize("name, overrides", [
    (ex.ANTICONCENTRATION, dict(n=(1, 2, 5, 10), trials=37)),
    (ex.DET_GROWTH, dict(m=(2, 4, 16), n=6, trials=37)),
    (ex.DET_GROWTH, dict(spec=distribution(DISCRETE, M=1), m=(1, 2, 6), n=3, trials=37)),
])
def test_window_protocols_do_not_depend_on_workers(tmp_path, monkeypatch, elems, name,
                                                   overrides):
    """37 trials split 12/12/13 across three workers, and into blocks that
    do not divide the worker ranges when the block budget is small."""
    if elems is not None:
        monkeypatch.setattr(ex, "_BLOCK_ELEMS", elems)
    out = {}
    for workers in (1, 3):
        ex.execute(ex.default_config(name, workers=workers, seed=6, **overrides),
                   tmp_path / str(workers))
        out[workers] = (tmp_path / str(workers) / "trials.csv").read_bytes()
    assert out[1] == out[3]


@st.composite
def window_runs(draw):
    """A small anticoncentration or det-growth config of 1-40 trials, a
    worker count of 1-3 and a block budget of 1-400 coefficients."""
    name = draw(st.sampled_from([ex.ANTICONCENTRATION, ex.DET_GROWTH]))
    spec = draw(st.sampled_from([distribution(GAUSSIAN), distribution(DISCRETE, M=1)]))
    if name == ex.ANTICONCENTRATION:
        schedule = dict(n=tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3,
                                              unique=True))))
    else:
        schedule = dict(n=draw(st.integers(0, 5)),
                        m=tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3,
                                              unique=True))))
    config = ex.default_config(name, spec=spec, trials=draw(st.integers(1, 40)),
                               seed=draw(st.integers(0, 2**32)), **schedule)
    return config, draw(st.integers(1, 3)), draw(st.integers(1, 400))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(window_runs())
def test_window_protocol_output_is_independent_of_workers_and_blocks(run):
    """trials.csv equals the one-worker run at the default block budget."""
    config, workers, elems = run
    with tempfile.TemporaryDirectory() as tmp:
        ex.execute(config, Path(tmp, "reference"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ex, "_BLOCK_ELEMS", elems)
            ex.execute(replace(config, workers=workers), Path(tmp, "run"))
        assert (Path(tmp, "run", "trials.csv").read_bytes()
                == Path(tmp, "reference", "trials.csv").read_bytes())


def test_det_growth_rejects_negative_n():
    with pytest.raises(ValueError, match="n >= 0"):
        ex.execute(ex.default_config(ex.DET_GROWTH, n=-1, trials=1))
