"""Cubature rule and the batched latent sampler: exact moments, statistical oracles."""
import numpy as np
import pytest
from scipy import stats

from vdm.autodiff import Tensor
from vdm.inference import latent_sample_batch, sigma_points
from vdm.nets import Gaussian, ModelConfig


class ZeroNoise:
    """rng stand-in that suppresses the noise infusion."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def gauss(mean, std):
    return Gaussian(Tensor(mean), Tensor(std))


def config(d, k=None, mode="sca"):
    """Sampler settings for a d-dimensional latent; k defaults to 2d+1."""
    return ModelConfig(d_x=1, d_z=d, d_h=1, k=k or 2 * d + 1, sampler_mode=mode)


def test_d1_kappa_half_frozen_values():
    xi, gamma = sigma_points(1, 0.5)
    np.testing.assert_allclose(gamma, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)
    np.testing.assert_allclose(xi[:, 0], [0.0, np.sqrt(1.5), -np.sqrt(1.5)], rtol=1e-15)


@pytest.mark.parametrize("d,kappa", [(1, 0.5), (2, 0.1), (4, 2.0), (7, 0.5)])
def test_weights_sum_to_one_exactly(d, kappa):
    _, gamma = sigma_points(d, kappa)
    assert abs(gamma.sum() - 1.0) < 1e-15


def test_lorenz_count_thirteen_points():
    xi, gamma = sigma_points(6, 0.5)
    assert xi.shape == (13, 6)
    assert gamma.shape == (13,)


@pytest.mark.parametrize("d", range(1, 9))
def test_moment_matching(d):
    """Sum gamma = 1, sum gamma xi = 0, sum gamma xi xi^T = I, each to 1e-12."""
    xi, gamma = sigma_points(d, 0.5)
    assert abs(gamma.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(gamma @ xi, np.zeros(d), atol=1e-12)
    second = np.einsum("i,ij,ik->jk", gamma, xi, xi)
    np.testing.assert_allclose(second, np.eye(d), atol=1e-12)


def test_invalid_arguments():
    with pytest.raises(ValueError, match="d must be"):
        sigma_points(0, 0.5)
    with pytest.raises(ValueError, match="kappa"):
        sigma_points(2, 0.0)


def test_sca_degenerate_spread_repeats_mean():
    mean = np.array([1.5, -2.0])
    out = latent_sample_batch(gauss(mean[None], [[0.0, 0.0]]), config(2), np.random.default_rng(0))
    np.testing.assert_array_equal(out.value, np.tile(mean, (5, 1)))


def test_sca_zero_noise_recovers_classical_points():
    mean = np.array([[0.5, 1.0, -1.0], [2.0, 0.0, 3.0]])
    std = np.array([[2.0, 0.5, 1.0], [0.1, 4.0, 1.5]])
    out = latent_sample_batch(gauss(mean, std), config(3), ZeroNoise())
    xi, _ = sigma_points(3, 0.5)
    want = (mean[:, None, :] + std[:, None, :] * xi[None]).reshape(2 * 7, 3)
    np.testing.assert_allclose(out.value, want, rtol=1e-15)


def test_sca_fixed_seed_persistence():
    g = gauss(np.array([[0.1, 0.2], [0.3, -0.4]]), np.array([[1.0, 2.0], [0.5, 0.25]]))
    a = latent_sample_batch(g, config(2), np.random.default_rng(77))
    b = latent_sample_batch(g, config(2), np.random.default_rng(77))
    np.testing.assert_array_equal(a.value, b.value)


def test_sca_empirical_mean_confidence_oracle():
    """Monte-Carlo CI: per-sample std is sigma*sqrt(1 + E[xi^2]); at kappa=0.5
    the unweighted E[xi^2] is exactly 1, so the standard error is
    sigma*sqrt(2)/sqrt(n_seeds * k)."""
    mean = np.array([0.7, -1.3, 0.4])
    std = np.array([0.5, 1.5, 2.0])
    n_seeds = 10**5
    k = 7
    # one batch row per "seed": each contributes one noise-infused point set
    g = gauss(np.tile(mean, (n_seeds, 1)), np.tile(std, (n_seeds, 1)))
    samples = latent_sample_batch(g, config(3), np.random.default_rng(123)).value
    assert samples.shape == (n_seeds * k, 3)
    got = samples.mean(axis=0)
    stderr = std * np.sqrt(2.0) / np.sqrt(n_seeds * k)
    assert np.all(np.abs(got - mean) < 3.0 * stderr)


def test_sca_affine_equivariance():
    """Scaling/shifting the Gaussian maps every sample by the same affine map."""
    rng_seed = 31
    mu = np.array([[0.3, -0.6], [1.1, 0.2]])
    sd = np.array([[0.8, 1.4], [0.3, 2.2]])
    a = np.array([2.0, 0.25])
    b = np.array([-1.0, 3.0])
    s1 = latent_sample_batch(gauss(mu, sd), config(2), np.random.default_rng(rng_seed))
    s2 = latent_sample_batch(
        gauss(a * mu + b, a * sd), config(2), np.random.default_rng(rng_seed)
    )
    np.testing.assert_allclose(s2.value, a * s1.value + b, rtol=1e-12)


def test_mc_degenerate_spread():
    out = latent_sample_batch(
        gauss([[4.0]], [[0.0]]), config(1, k=6, mode="monte_carlo"), np.random.default_rng(1)
    )
    np.testing.assert_array_equal(out.value, np.full((6, 1), 4.0))


def test_mc_fixed_seed_reproducible():
    g = gauss(np.zeros((3, 2)), np.ones((3, 2)))
    cfg = config(2, k=9, mode="monte_carlo")
    a = latent_sample_batch(g, cfg, np.random.default_rng(5))
    b = latent_sample_batch(g, cfg, np.random.default_rng(5))
    np.testing.assert_array_equal(a.value, b.value)


def test_mc_variance_chi2_oracle():
    """Sample variance of 10^5 draws inside the 99.7% chi-square band."""
    n = 10**5
    sigma = 1.7
    g = gauss(np.zeros((1, 1)), np.array([[sigma]]))
    draws = latent_sample_batch(g, config(1, k=n, mode="monte_carlo"), np.random.default_rng(42))
    s2 = draws.value.var(ddof=1)
    lo, hi = stats.chi2.ppf([0.0015, 0.9985], n - 1) / (n - 1)
    assert lo < s2 / sigma**2 < hi
