import numpy as np
import pytest

from riskratio.rng import CounterRng, derive_seed, uniforms_at


def test_uniforms_deterministic_and_in_range():
    a = CounterRng(42).uniforms(10_000)
    b = CounterRng(42).uniforms(10_000)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() < 1.0
    assert abs(a.mean() - 0.5) < 0.01


def test_stream_is_position_based():
    r = CounterRng(7)
    first, second = r.uniforms(5), r.uniforms(5)
    both = CounterRng(7).uniforms(10)
    assert np.array_equal(np.concatenate([first, second]), both)


def test_uniforms_at_reads_any_streams_at_any_counters():
    seeds = np.array([[7], [derive_seed(7, 3)]], dtype=np.uint64)
    counters = np.array([0, 1, 5, 40], dtype=np.uint64)
    got = uniforms_at(seeds, counters)
    for row, seed in zip(got, seeds[:, 0]):
        stream = CounterRng(int(seed)).uniforms(41)
        assert np.array_equal(row, stream[counters.astype(int)])


def test_normals_moments_and_determinism():
    z = CounterRng(1).normals(200_000)
    assert np.array_equal(z, CounterRng(1).normals(200_000))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert abs(np.mean(z**3)) < 0.03  # symmetric


def test_normals_odd_count():
    assert CounterRng(3).normals(7).shape == (7,)


def test_derive_seed_changes_stream():
    s = derive_seed(5, 1)
    assert s != derive_seed(5, 2)
    assert s != derive_seed(6, 1)
    assert s == derive_seed(5, 1)
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
    u = CounterRng(derive_seed(5, 1)).uniforms(100)
    v = CounterRng(derive_seed(5, 2)).uniforms(100)
    assert abs(np.corrcoef(u, v)[0, 1]) < 0.3


def test_derive_seed_rejects_negative_keys():
    with pytest.raises(ValueError):
        derive_seed(1, -1)


def test_bernoulli_scalar_and_vector():
    r = CounterRng(9)
    draws = r.bernoulli(0.25, n=100_000)
    assert abs(draws.mean() - 0.25) < 0.01
    p = np.array([0.0, 1.0, 0.5])
    d = CounterRng(9).bernoulli(p)
    assert not d[0] and d[1]


def test_integers_bounds():
    vals = CounterRng(11).integers(50_000, 7)
    assert vals.min() >= 0 and vals.max() <= 6
    assert set(np.unique(vals)) == set(range(7))


def test_permutation_is_a_permutation():
    perm = CounterRng(13).permutation(500)
    assert np.array_equal(np.sort(perm), np.arange(500))
    assert np.array_equal(perm, CounterRng(13).permutation(500))
