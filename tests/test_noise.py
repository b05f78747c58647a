"""Sampler statistics and determinism."""

import re

import numpy as np
import pytest

from ictmseg.noise import NoiseSpec, corrupt, sample_gamma_field


def test_gamma_determinism_and_seed_sensitivity():
    a = sample_gamma_field(64, 64, 10.0, seed=7)
    b = sample_gamma_field(64, 64, 10.0, seed=7)
    c = sample_gamma_field(64, 64, 10.0, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert (a > 0).all()


@pytest.mark.parametrize("looks", [1.0, 4.0, 10.0])
def test_gamma_moments(looks):
    eta = sample_gamma_field(1000, 1000, looks, seed=42)
    assert abs(eta.mean() - 1.0) < 0.01
    assert abs(eta.var() - 1.0 / looks) / (1.0 / looks) < 0.05


def test_gamma_unit_shape_is_exponential():
    # L=1, scale 1: CDF(1) = 1 - exp(-1)
    eta = sample_gamma_field(1000, 1000, 1.0, seed=3)
    empirical = np.mean(eta <= 1.0)
    assert abs(empirical - (1.0 - np.exp(-1.0))) < 0.01


def test_gamma_rejects_bad_shape():
    with pytest.raises(ValueError):
        sample_gamma_field(4, 4, 0.0, seed=0)
    with pytest.raises(ValueError):
        sample_gamma_field(4, 4, -2.0, seed=0)
    for looks in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"looks must be positive and finite, got {looks}"):
            sample_gamma_field(4, 4, looks, seed=0)
    # a fractional seed would key Philox with its integer part
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\) and an integer"):
        sample_gamma_field(4, 4, 10.0, seed=1.5)
    for width, height in ((0, 4), (4, 0)):
        with pytest.raises(ValueError, match="field dimensions must be positive"):
            sample_gamma_field(width, height, 10.0, seed=0)


def gamma(looks=10.0, seed=1):
    return NoiseSpec("gamma", looks=looks, seed=seed)


def poisson(seed):
    return NoiseSpec("poisson", seed=seed)


def test_multiplicative_identity_and_zero():
    # 1e12 looks: speckle of variance 1e-12, so the image comes back to 1e-5
    clean = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(corrupt(clean, gamma(looks=1e12)), clean, rtol=1e-5, atol=0.0)
    assert not corrupt(np.zeros((2, 2)), gamma()).any()


def test_multiplicative_hand_product():
    clean = np.array([[1.0, 2.0], [3.0, 4.0]])
    eta = sample_gamma_field(2, 2, 10.0, seed=1)
    assert np.array_equal(corrupt(clean, gamma()),
                          [[clean[i, j] * eta[i, j] for j in range(2)] for i in range(2)])


def test_multiplicative_degree_one_homogeneous():
    rng = np.random.default_rng(5)
    clean = rng.random((6, 6))
    assert np.allclose(corrupt(3.0 * clean, gamma()), 3.0 * corrupt(clean, gamma()))


def test_corrupt_matches_its_samplers_on_a_non_square_image():
    # (5, 7) is 5 rows of width 7: a width/height swap draws another field
    clean = np.random.default_rng(6).random((5, 7)) * 200.0
    noisy = corrupt(clean, gamma(looks=4.0, seed=21))
    assert np.array_equal(noisy, clean * sample_gamma_field(7, 5, 4.0, seed=21))
    counts = corrupt(clean, poisson(seed=22))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(22)))
    assert counts.dtype == np.float64
    assert np.array_equal(counts, rng.poisson(clean))
    negative = clean - 100.0
    for spec in (gamma(), poisson(seed=0)):
        with pytest.raises(ValueError, match="clean image must be nonnegative"):
            corrupt(negative, spec)
    assert np.array_equal(corrupt(negative, NoiseSpec("none")), negative)


def test_poisson_zero_mean_is_degenerate():
    assert not corrupt(np.zeros((16, 16)), poisson(seed=1)).any()


def test_poisson_moments():
    field = corrupt(np.full((1000, 1000), 100.0), poisson(seed=11))
    assert abs(field.mean() - 100.0) / 100.0 < 0.01
    assert abs(field.var() - 100.0) / 100.0 < 0.03


def test_poisson_determinism():
    clean = np.full((32, 32), 37.0)
    assert np.array_equal(corrupt(clean, poisson(seed=2)), corrupt(clean, poisson(seed=2)))
    assert not np.array_equal(corrupt(clean, poisson(seed=2)), corrupt(clean, poisson(seed=3)))


def test_poisson_rejects_negative_means():
    with pytest.raises(ValueError):
        corrupt(np.array([[1.0, -0.5]]), poisson(seed=0))


def test_noise_spec_validation_and_corrupt():
    with pytest.raises(ValueError):
        NoiseSpec(kind="salt")
    with pytest.raises(ValueError):
        NoiseSpec(kind="gamma", looks=0.0)
    for looks in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"looks must be positive and finite, got {looks}"):
            NoiseSpec(kind="gamma", looks=looks)
    for kind in ("gamma", "poisson"):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\) and an integer"):
            corrupt(np.full((2, 2), 50.0), NoiseSpec(kind=kind, seed=1.5))
    clean = np.full((8, 8), 50.0)
    same = corrupt(clean, NoiseSpec(kind="none"))
    assert np.array_equal(same, clean) and same is not clean
    noisy = corrupt(clean, NoiseSpec(kind="gamma", looks=10.0, seed=1))
    assert noisy.shape == clean.shape and not np.array_equal(noisy, clean)
    for kind in ("none", "gamma", "poisson"):
        for bad in (np.full(8, 50.0), np.full((2, 8, 8), 50.0)):
            with pytest.raises(ValueError, match=re.escape(f"2-D, got shape {bad.shape}")):
                corrupt(bad, NoiseSpec(kind=kind, seed=1))
