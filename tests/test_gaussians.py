"""Gaussian log-density and KL: frozen hand values and algebraic properties."""
import numpy as np

import vdm.autodiff as ad
from vdm.autodiff import Tensor
from vdm.nets import Gaussian

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)  # 0.9189385332046727


def gauss(mean, std):
    return Gaussian(Tensor(mean), Tensor(std))


def gaussian_log_pdf(x, g):
    return ad.gaussian_log_pdf(ad.as_tensor(x), g.mean, g.std)


def gaussian_kl(q, p):
    return ad.gaussian_kl(q.mean, q.std, p.mean, p.std)


def test_standard_normal_at_zero():
    g = gauss(np.zeros(1), np.ones(1))
    np.testing.assert_allclose(
        gaussian_log_pdf(np.zeros(1), g).value, -HALF_LOG_2PI, rtol=1e-12
    )


def test_at_mean_scales_with_dimension():
    for d in (1, 3, 7):
        mu = np.linspace(-1, 1, d)
        g = gauss(mu, np.ones(d))
        np.testing.assert_allclose(
            gaussian_log_pdf(mu, g).value, -d * HALF_LOG_2PI, rtol=1e-12
        )


def test_unit_offset_value():
    g = gauss(np.zeros(1), np.ones(1))
    np.testing.assert_allclose(
        gaussian_log_pdf(np.ones(1), g).value, -HALF_LOG_2PI - 0.5, rtol=1e-12
    )


def test_log_pdf_matches_dense_formula_batched():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 4))
    mu = rng.normal(size=(6, 4))
    sd = rng.uniform(0.2, 3.0, size=(6, 4))
    got = gaussian_log_pdf(Tensor(x), gauss(mu, sd)).value
    want = (-0.5 * np.log(2 * np.pi) - np.log(sd) - 0.5 * ((x - mu) / sd) ** 2).sum(axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12)



def test_kl_identity_is_zero():
    g = gauss(np.array([0.3, -1.2]), np.array([0.7, 2.0]))
    np.testing.assert_allclose(gaussian_kl(g, g).value, 0.0, atol=1e-15)


def test_kl_mean_shift():
    q = gauss(np.ones(1), np.ones(1))
    p = gauss(np.zeros(1), np.ones(1))
    np.testing.assert_allclose(gaussian_kl(q, p).value, 0.5, rtol=1e-12)


def test_kl_variance_ratio():
    # (sigma_q^2 - 1 - log sigma_q^2) / 2 with sigma_q^2 = 4
    q = gauss(np.zeros(1), np.array([2.0]))
    p = gauss(np.zeros(1), np.ones(1))
    np.testing.assert_allclose(gaussian_kl(q, p).value, (4 - 1 - np.log(4)) / 2, rtol=1e-12)


def test_kl_nonnegative_random_sweep():
    rng = np.random.default_rng(17)
    for _ in range(200):
        d = rng.integers(1, 6)
        q = gauss(rng.normal(size=d), rng.uniform(0.1, 3.0, size=d))
        p = gauss(rng.normal(size=d), rng.uniform(0.1, 3.0, size=d))
        assert gaussian_kl(q, p).value >= -1e-12


def test_kl_zero_iff_equal():
    rng = np.random.default_rng(18)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        mu = rng.normal(size=d)
        sd = rng.uniform(0.2, 2.0, size=d)
        q = gauss(mu, sd)
        p = gauss(mu.copy(), sd.copy())
        assert abs(float(gaussian_kl(q, p).value)) < 1e-12
        p2 = gauss(mu + 0.1, sd)
        assert float(gaussian_kl(q, p2).value) > 1e-4


def test_log_pdf_matches_scipy():
    from scipy import stats

    rng = np.random.default_rng(19)
    for _ in range(25):
        d = int(rng.integers(1, 6))
        x = rng.normal(size=d) * 3
        mu = rng.normal(size=d)
        sd = rng.uniform(0.1, 4.0, size=d)
        got = float(gaussian_log_pdf(x, gauss(mu, sd)).value)
        want = stats.norm.logpdf(x, loc=mu, scale=sd).sum()
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_kl_matches_monte_carlo_estimate():
    """Dual route: closed form vs E_q[log q - log p] over 2*10^5 draws."""
    rng = np.random.default_rng(20)
    q = gauss(np.array([0.5, -1.0]), np.array([0.8, 1.5]))
    p = gauss(np.array([0.0, 0.3]), np.array([1.2, 0.9]))
    closed = float(gaussian_kl(q, p).value)

    n = 200_000
    draws = q.mean.value + q.std.value * rng.standard_normal((n, 2))
    def logpdf(x, g):
        z = (x - g.mean.value) / g.std.value
        return (-0.5 * np.log(2 * np.pi) - np.log(g.std.value) - 0.5 * z * z).sum(axis=1)
    samples = logpdf(draws, q) - logpdf(draws, p)
    stderr = samples.std(ddof=1) / np.sqrt(n)
    assert abs(samples.mean() - closed) < 4 * stderr
