import json
import math

import numpy as np
import pytest

from padeclust import DegenerateInput, sampler
from padeclust.sampler import (
    DISCRETE,
    GAUSSIAN,
    KINDS,
    LAPLACE,
    LOGCONCAVE,
    UNIFORM,
    CoefficientSample,
    DistributionSpec,
    distribution,
    _draw,
    _trial_keys,
    sample,
    sample_block,
)


def pooled_draws(spec, total, seed=42, per_vector=1000):
    n_trials = total // per_vector
    return np.concatenate(
        [sample(spec, per_vector - 1, seed, t).coeffs for t in range(n_trials)]
    )


# ---------------------------------------------------------------- specs

def test_distribution_kind_table():
    g = distribution(GAUSSIAN)
    assert g.isotropic and g.levy_bound_K == pytest.approx(2.0 / math.sqrt(2.0 * math.pi))
    u = distribution(UNIFORM)
    assert u.levy_bound_K == pytest.approx(1.0 / math.sqrt(3.0))
    l = distribution(LAPLACE)
    assert l.levy_bound_K == pytest.approx(math.sqrt(2.0))
    d = distribution(DISCRETE, M=10)
    assert not d.isotropic
    assert d.levy_bound_K == math.inf
    assert d.mean_abs_bound_gamma == pytest.approx(110.0 / 21.0)
    lc = distribution(LOGCONCAVE)
    assert lc.isotropic and math.isfinite(lc.levy_bound_K)


def test_distribution_rejects_bad_input():
    with pytest.raises(DegenerateInput):
        distribution("cauchy")
    with pytest.raises(DegenerateInput):
        distribution(DISCRETE)
    with pytest.raises(DegenerateInput, match="kind"):
        DistributionSpec.from_dict({"M": 3})  # used to be a KeyError
    # the atoms -M..M are drawn as int64: M >= 2**63 used to fail mid-run
    for M in (2**63, 2**70):
        with pytest.raises(DegenerateInput, match="2\\*\\*63 - 1"):
            distribution(DISCRETE, M=M)


def test_largest_atom_parameter_samples():
    coeffs = sample(distribution(DISCRETE, M=2**63 - 1), 8, 0, 0).coeffs
    assert coeffs.shape == (9,) and np.isfinite(coeffs).all()


@pytest.mark.parametrize("M", [2.5, True, "3", 10**400, -10**400, math.nan, math.inf, [3]])
def test_atom_parameter_must_be_a_whole_float_range_number(M):
    # 2.5 used to become M=2 with gamma computed from 2.5, 10**400 an
    # OverflowError and "3" a TypeError
    with pytest.raises(DegenerateInput, match="whole number"):
        distribution(DISCRETE, M=M)


def test_whole_float_atom_parameter_is_the_int():
    spec = distribution(DISCRETE, M=2.0)
    assert spec == distribution(DISCRETE, M=2) and type(spec.M) is int
    assert spec.mean_abs_bound_gamma == pytest.approx(1.2)


@pytest.mark.filterwarnings("error")
def test_numpy_atom_parameter_is_the_int():
    # a float32 M used to warn "overflow encountered in cast" in the range test
    for M in (np.float32(3.0), np.float64(3.0), np.int64(3), np.uint8(3)):
        spec = distribution(DISCRETE, M=M)
        assert spec == distribution(DISCRETE, M=3) and type(spec.M) is int


def test_spec_serialization_round_trip():
    for kind in KINDS:
        spec = distribution(kind, M=7 if kind == DISCRETE else None)
        blob = json.dumps(spec.to_dict())
        assert DistributionSpec.from_dict(json.loads(blob)) == spec


# ---------------------------------------------------------------- determinism

def test_same_key_reproduces_bit_exactly():
    spec = distribution(GAUSSIAN)
    a = sample(spec, 50, seed=123, trial_index=7)
    b = sample(spec, 50, seed=123, trial_index=7)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert a.trial_index == 7 and a.seed == 123


def test_neighbouring_keys_differ():
    spec = distribution(LOGCONCAVE)
    base = sample(spec, 20, seed=1, trial_index=0).coeffs
    assert not np.array_equal(base, sample(spec, 20, seed=1, trial_index=1).coeffs)
    assert not np.array_equal(base, sample(spec, 20, seed=2, trial_index=0).coeffs)


def test_sample_shape_and_kind():
    for kind in KINDS:
        spec = distribution(kind, M=5 if kind == DISCRETE else None)
        s = sample(spec, 9, seed=0, trial_index=0)
        assert isinstance(s, CoefficientSample)
        assert s.coeffs.shape == (10,)
    disc = sample(distribution(DISCRETE, M=5), 999, 0, 0).coeffs
    assert np.all(disc == np.round(disc)) and np.max(np.abs(disc)) <= 5


# ---------------------------------------------------------------- bulk keys

def _reference_rng(seed, trial_index):
    """One trial's generator built on its own: a SeedSequence, a Philox and
    a Generator per trial, the streams sample_block must reproduce."""
    ss = np.random.SeedSequence(entropy=(int(seed), int(trial_index)))
    return np.random.Generator(np.random.Philox(ss))


BIG_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96 + 5]
BIG_TRIALS = [0, 1, 2**32 - 1, 2**32]


@pytest.mark.parametrize("seed", BIG_SEEDS)
def test_trial_keys_match_seed_sequence(seed):
    """Entropy of 2 to 5 words: past the 4-word pool for seeds >= 2**96, and
    for seeds >= 2**64 with trials >= 2**32, with rows of one block of
    different word counts."""
    blocks = [BIG_TRIALS, BIG_TRIALS[::-1], range(2**32 - 3, 2**32 + 3), range(40)]
    for trials in blocks:
        want = [np.random.SeedSequence(entropy=(seed, t)).generate_state(2, np.uint64)
                for t in trials]
        got = _trial_keys(seed, trials)
        assert got.dtype == np.uint64 and got.shape == (len(trials), 2)
        assert np.array_equal(got, want)


def test_trial_keys_reject_negative_and_non_integer_input():
    with pytest.raises(ValueError):
        _trial_keys(-1, [0])
    with pytest.raises(ValueError):
        _trial_keys(0, [3, -1])
    with pytest.raises(ValueError):
        sample(distribution(GAUSSIAN), 4, -1, 0)
    with pytest.raises(ValueError):
        sample(distribution(GAUSSIAN), 4, 0, -2)
    with pytest.raises(TypeError):
        _trial_keys(0, [0.5])


SPECS = [distribution(GAUSSIAN), distribution(UNIFORM), distribution(LAPLACE),
         distribution(DISCRETE, M=1), distribution(DISCRETE, M=5), distribution(LOGCONCAVE)]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.M}")
@pytest.mark.parametrize("N", [0, 38, 2048])
@pytest.mark.parametrize("trials", [[5], [9, 3, 2**32, 4, 0, 17, 8]])
def test_sample_block_matches_per_trial_generators(spec, N, trials):
    """Odd row lengths leave a buffered 32-bit half (discrete kinds) and a
    part-used Philox buffer behind each row; the next row must not see
    them."""
    want = np.array([_draw(_reference_rng(7, t), spec, N + 1) for t in trials])
    got = sample_block(spec, N, 7, trials)
    assert got.shape == (len(trials), N + 1)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for row, t in zip(want, trials):
        assert np.array_equal(sample(spec, N, 7, t).coeffs.view(np.uint64), row.view(np.uint64))


def test_sample_block_fills_a_strided_out():
    spec = distribution(DISCRETE, M=5)
    buf = np.zeros((4, 12))
    out = buf[:, 3:]
    assert sample_block(spec, 8, 2, range(10, 14), out=out) is out
    assert np.array_equal(out, sample_block(spec, 8, 2, range(10, 14)))
    assert np.all(buf[:, :3] == 0.0)
    with pytest.raises(ValueError):
        sample_block(spec, 8, 2, range(10, 13), out=out)


def _reference_block(spec, N, seed, trials):
    return np.array([_draw(_reference_rng(seed, t), spec, N + 1) for t in trials])


def test_sample_block_fills_non_contiguous_and_float32_out():
    """Rows that are not C-contiguous float64 take the values a fresh block
    would hold: bit for bit in a strided out, rounded once in a float32 out."""
    spec = distribution(GAUSSIAN)
    want = _reference_block(spec, 8, 2, range(10, 14))
    buf = np.zeros((4, 18))
    out = buf[:, ::2]
    assert sample_block(spec, 8, 2, range(10, 14), out=out) is out
    assert np.array_equal(np.ascontiguousarray(out).view(np.uint64), want.view(np.uint64))
    assert np.all(buf[:, 1::2] == 0.0)
    out32 = np.zeros((4, 9), dtype=np.float32)
    assert sample_block(spec, 8, 2, range(10, 14), out=out32) is out32
    assert np.array_equal(out32.view(np.uint32), want.astype(np.float32).view(np.uint32))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.M}")
def test_sample_block_draws_each_row_in_place(monkeypatch, spec):
    """Each row of an out with C-contiguous float64 rows is handed to _draw
    itself, and the rows hold the per-trial streams."""
    rows = []
    draw = sampler._draw
    monkeypatch.setattr(sampler, "_draw",
                        lambda rng, spec, dim, row=None: rows.append(row) or draw(rng, spec, dim, row))
    buf = np.zeros((4, 12))
    out = buf[:, 3:]
    sample_block(spec, 8, 2, range(10, 14), out=out)
    assert len(rows) == 4
    assert all(np.shares_memory(row, o) for row, o in zip(rows, out))
    want = _reference_block(spec, 8, 2, range(10, 14))
    assert np.array_equal(np.ascontiguousarray(out).view(np.uint64), want.view(np.uint64))
    assert np.all(buf[:, :3] == 0.0)


def test_sample_block_resets_philox_from_plain_ints(monkeypatch):
    """Every state handed to the Philox setter holds its counter, key and
    buffer as lists of Python ints, which the setter reads without a
    numpy-scalar conversion per element."""
    base = np.random.Philox
    seen = []

    class SpyPhilox(base):
        @property
        def state(self):
            return base.state.__get__(self)

        @state.setter
        def state(self, value):
            seen.append(value)
            base.state.__set__(self, value)

    monkeypatch.setattr(np.random, "Philox", SpyPhilox)
    got = sample_block(distribution(GAUSSIAN), 5, 7, [3, 2**32, 0])
    monkeypatch.undo()
    assert np.array_equal(got, _reference_block(distribution(GAUSSIAN), 5, 7, [3, 2**32, 0]))
    assert len(seen) == 3

    def plain(values):
        return isinstance(values, list) and all(type(v) is int for v in values)

    for state in seen:
        assert plain(state["state"]["counter"]) and plain(state["state"]["key"])
        assert plain(state["buffer"])


# ---------------------------------------------------------------- isotropy

def test_gaussian_n0_single_draw_statistics():
    spec = distribution(GAUSSIAN)
    vals = sample_block(spec, 0, 42, range(50_000))[:, 0]
    assert vals.shape == (50_000,)
    # 4 standard errors at this count: +-0.018 on the mean, +-0.025 on the variance
    assert abs(vals.mean()) <= 0.018
    assert abs(vals.var() - 1.0) <= 0.025


@pytest.mark.parametrize("kind", [GAUSSIAN, UNIFORM, LAPLACE])
def test_independent_kinds_are_isotropic_at_1e6(kind):
    vals = pooled_draws(distribution(kind), 1_000_000)
    assert abs(vals.mean()) <= 0.004
    assert 0.996 <= vals.var() <= 1.004


def test_l1ball_is_isotropic_despite_dependence():
    spec = distribution(LOGCONCAVE)
    mats = sample_block(spec, 63, 42, range(15_625))
    pooled = mats.ravel()
    assert abs(pooled.mean()) <= 0.004
    assert 0.996 <= pooled.var() <= 1.004
    per_coord = mats.var(axis=0)
    assert np.all(np.abs(per_coord - 1.0) <= 0.046)
    cov = np.cov(mats[:, :8].T)
    off = cov[~np.eye(8, dtype=bool)]
    assert np.max(np.abs(off)) <= 0.033


def test_discrete_variance_matches_closed_form():
    spec = distribution(DISCRETE, M=10)
    vals = pooled_draws(spec, 100_000)
    assert vals.var() == pytest.approx(10 * 11 / 3.0, abs=0.45)


# ---------------------------------------------------------------- Lévy window

def levy_window(spec, epsilon, draws, N=999):
    """Estimate sup_t P(|a - t| < eps) for the coordinate law by sliding a
    width-2*eps window over sorted coordinate draws, taken from independent
    sample vectors of length N+1 (the marginal of the l1-ball kind depends
    on that dimension; the independent kinds do not)."""
    trials = -(-draws // (N + 1))
    xs = np.sort(sample_block(spec, N, 0, range(trials)).ravel()[:draws])
    counts = np.searchsorted(xs, xs + 2.0 * epsilon, side="left") - np.arange(xs.size)
    return float(np.max(counts)) / draws


def test_levy_window_examples():
    gauss = levy_window(distribution(GAUSSIAN), 0.1, 400_000)
    assert gauss == pytest.approx(0.0797, abs=0.004)
    unif = levy_window(distribution(UNIFORM), 0.1, 400_000)
    assert unif == pytest.approx(0.1 / math.sqrt(3.0), abs=0.004)
    disc = levy_window(distribution(DISCRETE, M=10), 0.5, 200_000)
    assert disc == pytest.approx(1.0 / 21.0, abs=0.003)


@pytest.mark.parametrize("kind", [GAUSSIAN, UNIFORM, LAPLACE, LOGCONCAVE])
def test_levy_linearity_for_continuous_kinds(kind):
    spec = distribution(kind)
    for eps in (0.01, 0.05, 0.1, 0.5):
        est = levy_window(spec, eps, 1_000_000)
        assert est <= spec.levy_bound_K * eps * 1.05


def test_discrete_levy_does_not_shrink_with_epsilon():
    spec = distribution(DISCRETE, M=10)
    small = levy_window(spec, 0.01, 50_000)
    half = levy_window(spec, 0.5, 50_000)
    assert small == pytest.approx(half, abs=0.01)
