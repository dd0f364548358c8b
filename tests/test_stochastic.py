import numpy as np
import pytest
from scipy import integrate, special

from dglfrm import stochastic as st
from dglfrm.tensor import Parameter, Tensor
from oracles import gradient_check


def kumar_pdf(x, a, b):
    return a * b * x ** (a - 1.0) * (1.0 - x**a) ** (b - 1.0)


def beta_pdf(x, alpha, beta):
    return x ** (alpha - 1.0) * (1.0 - x) ** (beta - 1.0) / special.beta(alpha, beta)


def kumar_beta_kl_quad(a, b, alpha, beta):
    def integrand(x):
        q = kumar_pdf(x, a, b)
        return q * (np.log(q) - np.log(beta_pdf(x, alpha, beta)))

    val, err = integrate.quad(integrand, 1e-12, 1.0 - 1e-12, limit=400)
    assert err < 1e-6
    return val


def concrete_logpdf(y, pi, lam):
    logit = np.log(pi) - np.log1p(-pi)
    return (
        np.log(lam)
        + logit
        - (lam + 1.0) * (np.log(y) + np.log1p(-y))
        - 2.0 * np.logaddexp(logit - lam * np.log(y), -lam * np.log1p(-y))
    )


def concrete_kl_quad(pi_q, pi_p, lam):
    def integrand(y):
        return np.exp(concrete_logpdf(y, pi_q, lam)) * (
            concrete_logpdf(y, pi_q, lam) - concrete_logpdf(y, pi_p, lam)
        )

    val, err = integrate.quad(integrand, 1e-12, 1.0 - 1e-12, limit=400)
    assert err < 1e-6
    return val


# ---------------------------------------------------------------------------
# sample_kumaraswamy


def test_kumaraswamy_uniform_case():
    v = st.sample_kumaraswamy(Tensor([[1.0]]), Tensor([[1.0]]), [[0.5]])
    assert v.data[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_kumaraswamy_hand_value():
    v = st.sample_kumaraswamy(Tensor([[1.0]]), Tensor([[3.0]]), [[0.729]])
    assert v.data[0, 0] == pytest.approx(0.1, abs=1e-12)


def test_kumaraswamy_boundary_monotonicity():
    c, d = Tensor([[2.0]]), Tensor([[3.0]])
    near_one = st.sample_kumaraswamy(c, d, [[0.0]]).data[0, 0]
    near_zero = st.sample_kumaraswamy(c, d, [[1.0]]).data[0, 0]
    assert near_one > 0.99
    assert near_zero < 0.01


def test_kumaraswamy_clamps_raw_uniforms():
    c, d = Tensor([[2.0, 0.5]]), Tensor([[3.0, 0.7]])
    raw = st.sample_kumaraswamy(c, d, [[0.0, 1.0]]).data
    clamped = st.sample_kumaraswamy(c, d, [[st.EPS, 1.0 - st.EPS]]).data
    np.testing.assert_array_equal(raw, clamped)


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.0, 1.0), (2.0, 3.0)])
def test_kumaraswamy_sampler_ks_distance(a, b):
    n = 100_000
    rng = np.random.default_rng(42)
    draws = np.sort(st.sample_kumaraswamy(Tensor(np.full(n, a)), Tensor(np.full(n, b)), rng.random(n)).data)
    cdf = 1.0 - (1.0 - draws**a) ** b
    grid = np.arange(n, dtype=float)
    ks = max(np.max(cdf - grid / n), np.max((grid + 1.0) / n - cdf))
    assert ks < 0.01


# ---------------------------------------------------------------------------
# stick_breaking


def test_stick_breaking_halves():
    pi = st.stick_breaking(Tensor([[0.5, 0.5, 0.5]]))
    np.testing.assert_allclose(pi.data, [[0.5, 0.25, 0.125]], atol=1e-15)


def test_stick_breaking_degenerate_sticks():
    pi = st.stick_breaking(Tensor([[1 - 1e-9] * 4]))
    np.testing.assert_allclose(pi.data, np.ones((1, 4)), atol=1e-7)


def test_stick_breaking_hand_product():
    pi = st.stick_breaking(Tensor([[0.9, 0.8, 0.1]]))
    np.testing.assert_allclose(pi.data, [[0.9, 0.72, 0.072]], atol=1e-15)


def test_stick_breaking_rows_non_increasing():
    rng = np.random.default_rng(5)
    v = Tensor(rng.random((20, 8)) * 0.98 + 0.01)
    pi = st.stick_breaking(v).data
    assert np.all(np.diff(pi, axis=1) <= 0.0)


def test_stick_breaking_monotone_in_each_entry():
    rng = np.random.default_rng(6)
    base = rng.random((1, 5)) * 0.8 + 0.1
    pi0 = st.stick_breaking(Tensor(base)).data
    for j in range(5):
        bumped = base.copy()
        bumped[0, j] += 0.05
        pi1 = st.stick_breaking(Tensor(bumped)).data
        assert np.all(pi1[0, j:] >= pi0[0, j:])
        np.testing.assert_array_equal(pi1[0, :j], pi0[0, :j])


# ---------------------------------------------------------------------------
# kl_kumaraswamy_beta


def test_kl_kumar_matching_beta_one_prior_is_zero():
    for alpha in (0.5, 1.0, 2.0, 5.0):
        kl = st.kl_kumaraswamy_beta(Tensor([[alpha]]), Tensor([[1.0]]), alpha)
        assert kl.item() == pytest.approx(0.0, abs=1e-12)


def test_kl_kumar_uniform_vs_uniform_zero():
    kl = st.kl_kumaraswamy_beta(Tensor([[1.0]]), Tensor([[1.0]]), 1.0)
    assert kl.item() == pytest.approx(0.0, abs=1e-12)


def test_kl_kumar_2_2_vs_uniform():
    kl = st.kl_kumaraswamy_beta(Tensor([[2.0]]), Tensor([[2.0]]), 1.0).item()
    closed_form = np.log(4.0) - 0.75 - 0.5
    assert kl == pytest.approx(closed_form, abs=1e-12)
    assert kl == pytest.approx(0.1363, abs=5e-4)
    assert kl == pytest.approx(kumar_beta_kl_quad(2.0, 2.0, 1.0, 1.0), abs=1e-6)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
def test_kl_kumar_grid_nonnegative_and_matches_quadrature(a, b, alpha):
    kl = st.kl_kumaraswamy_beta(Tensor([[a]]), Tensor([[b]]), alpha).item()
    assert kl >= -1e-9
    assert kl == pytest.approx(kumar_beta_kl_quad(a, b, alpha, 1.0), abs=1e-3)


def test_kl_kumar_sums_over_entries():
    single = st.kl_kumaraswamy_beta(Tensor([[2.0]]), Tensor([[2.0]]), 1.0).item()
    total = st.kl_kumaraswamy_beta(Tensor([[2.0, 2.0]]), Tensor([[2.0, 2.0]]), 1.0).item()
    assert total == pytest.approx(2 * single, rel=1e-12)


# ---------------------------------------------------------------------------
# Binary Concrete


def test_concrete_sample_center():
    y = st.sample_binary_concrete(Tensor([[0.0]]), 0.37, [[0.5]])
    assert y.data[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_concrete_sample_passes_pi_through_at_center_noise():
    y = st.sample_binary_concrete(st.concrete_logit(Tensor([[0.88]])), 1.0, [[0.5]])
    assert y.data[0, 0] == pytest.approx(0.88, abs=1e-9)


def test_concrete_sample_low_temperature_hardens():
    y = st.sample_binary_concrete(st.concrete_logit(Tensor([[0.9]])), 0.01, [[0.5]])
    assert y.data[0, 0] == pytest.approx(1.0, abs=1e-3)


def test_concrete_clamps_raw_uniforms():
    # a high temperature keeps the clamped draws off the output clip
    logit = Tensor([[0.4, -1.3]])
    raw = st.sample_binary_concrete(logit, 50.0, [[0.0, 1.0]]).data
    clamped = st.sample_binary_concrete(logit, 50.0, [[st.EPS, 1.0 - st.EPS]]).data
    np.testing.assert_array_equal(raw, clamped)
    assert np.all((raw > 0.1) & (raw < 0.9))


@pytest.mark.parametrize("pi", [0.3, 0.7])
def test_concrete_low_temperature_mean_approaches_pi(pi):
    n = 100_000
    rng = np.random.default_rng(11)
    y = st.sample_binary_concrete(st.concrete_logit(Tensor(np.full(n, pi))), 0.01, rng.random(n))
    assert abs(float(y.data.mean()) - pi) < 0.01


def test_concrete_log_density_uniform_case():
    val = st.log_density_binary_concrete(Tensor([[0.5]]), Tensor([[0.0]]), 1.0)
    assert val.data[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_concrete_log_density_temperature_two():
    val = st.log_density_binary_concrete(Tensor([[0.5]]), Tensor([[0.0]]), 2.0)
    assert val.data[0, 0] == pytest.approx(np.log(2.0), abs=1e-12)


def test_concrete_log_density_symmetric_at_half():
    v = st.log_density_binary_concrete(Tensor([[0.2, 0.8]]), Tensor([[0.0, 0.0]]), 0.66)
    assert v.data[0, 0] == pytest.approx(v.data[0, 1], abs=1e-12)


def test_concrete_log_density_integrates_to_one():
    for pi, lam in [(0.3, 0.5), (0.7, 1.0), (0.5, 2.0)]:
        val, err = integrate.quad(
            lambda y: np.exp(concrete_logpdf(y, pi, lam)), 1e-12, 1 - 1e-12, limit=400
        )
        assert val == pytest.approx(1.0, abs=1e-6)


def test_kl_concrete_identical_distributions_zero_pointwise():
    q = st.concrete_logit(Tensor([[0.42, 0.9]]))
    rng = np.random.default_rng(0)
    y = st.sample_binary_concrete(q, 0.8, rng.random((1, 2)))
    assert st.kl_concrete_mc(y, q, 0.8, q, 0.8).item() == pytest.approx(0.0, abs=1e-12)


def test_kl_concrete_mc_matches_quadrature_within_3_se():
    n = 100_000
    rng = np.random.default_rng(123)
    pi_q, pi_p, lam = 0.9, 0.1, 1.0
    q = st.concrete_logit(Tensor(np.full(n, pi_q)))
    p = st.concrete_logit(Tensor(np.full(n, pi_p)))
    y = st.sample_binary_concrete(q, lam, rng.random(n))
    per_entry = (
        st.log_density_binary_concrete(y, q, lam).data
        - st.log_density_binary_concrete(y, p, lam).data
    )
    mc = per_entry.mean()
    se = per_entry.std(ddof=1) / np.sqrt(n)
    oracle = concrete_kl_quad(pi_q, pi_p, lam)
    assert mc > 0.0
    assert abs(mc - oracle) < 3.0 * se
    total = st.kl_concrete_mc(y, q, lam, p, lam).item()
    assert total == pytest.approx(per_entry.sum(), rel=1e-10)


def test_kl_concrete_with_stick_prior_is_finite():
    rng = np.random.default_rng(3)
    v = Tensor(np.clip(rng.random((4, 6)), 1e-6, 1 - 1e-6))
    pi = st.stick_breaking(v)
    prior = st.concrete_logit(pi)
    q = Tensor(rng.normal(size=(4, 6)))
    y = st.sample_binary_concrete(q, 1.0, rng.random((4, 6)))
    assert np.isfinite(st.kl_concrete_mc(y, q, 1.0, prior, 0.5).item())


# ---------------------------------------------------------------------------
# Gaussian


def test_gaussian_mean_draw():
    assert st.sample_gaussian(Tensor([[2.5]]), Tensor([[0.3]]), [[0.0]]).data[0, 0] == pytest.approx(2.5)


def test_gaussian_standard_passthrough():
    assert st.sample_gaussian(Tensor([[0.0]]), Tensor([[0.0]]), [[1.7]]).data[0, 0] == pytest.approx(1.7)


def test_gaussian_location_scale():
    r = st.sample_gaussian(Tensor([[2.0]]), Tensor([[np.log(0.5)]]), [[-2.0]])
    assert r.data[0, 0] == pytest.approx(1.0)


def test_kl_gaussian_zero_at_prior():
    assert st.kl_gaussian_std(Tensor([[0.0]]), Tensor([[0.0]]), 1.0).item() == pytest.approx(0.0, abs=1e-15)


def test_kl_gaussian_mean_shift():
    assert st.kl_gaussian_std(Tensor([[1.0]]), Tensor([[0.0]]), 1.0).item() == pytest.approx(0.5, abs=1e-15)


def test_kl_gaussian_shrunk_scale():
    mu, log_sigma = Tensor([[0.0]]), Tensor([[-1.0]])
    expected = 1.0 + (np.exp(-2.0) - 1.0) / 2.0
    assert st.kl_gaussian_std(mu, log_sigma, 1.0).item() == pytest.approx(expected, abs=1e-12)
    assert st.kl_gaussian_std(mu, log_sigma, 1.0).item() == pytest.approx(0.5677, abs=5e-5)


def test_kl_gaussian_nonnegative_zero_only_at_prior():
    rng = np.random.default_rng(9)
    for _ in range(200):
        mu = rng.normal() * 2
        ls = rng.normal()
        kl = st.kl_gaussian_std(Tensor([[mu]]), Tensor([[ls]]), 1.5).item()
        assert kl >= -1e-12
        if abs(mu) > 1e-3 or abs(np.exp(ls) - 1.5) > 1e-3:
            assert kl > 0.0


def test_kl_gaussian_nonstandard_prior_quadrature():
    mu, sigma, prior = 0.7, 0.6, 2.0

    def integrand(x):
        q = np.exp(-((x - mu) ** 2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))
        pr = np.exp(-(x**2) / (2 * prior**2)) / (prior * np.sqrt(2 * np.pi))
        return q * (np.log(q) - np.log(pr))

    oracle, err = integrate.quad(integrand, -12, 12)
    assert err < 1e-7
    kl = st.kl_gaussian_std(Tensor([[mu]]), Tensor([[np.log(sigma)]]), prior).item()
    assert kl == pytest.approx(oracle, abs=1e-7)


# ---------------------------------------------------------------------------
# gradient checks with frozen noise


def test_kumaraswamy_sampler_gradients():
    rng = np.random.default_rng(0)
    c = Parameter(rng.random((2, 3)) + 0.5, "c")
    d = Parameter(rng.random((2, 3)) + 0.5, "d")
    noise = rng.random((2, 3))
    weights = rng.normal(size=(2, 3))

    def f():
        v = st.sample_kumaraswamy(c, d, noise)
        return (v * weights).sum()

    assert gradient_check(f, [c, d]) < 1e-4


def test_stick_breaking_gradients():
    rng = np.random.default_rng(1)
    c = Parameter(rng.random((2, 4)) + 0.5, "c")
    d = Parameter(rng.random((2, 4)) + 0.5, "d")
    noise = rng.random((2, 4))
    weights = rng.normal(size=(2, 4))

    def f():
        v = st.sample_kumaraswamy(c, d, noise)
        return (st.stick_breaking(v) * weights).sum()

    assert gradient_check(f, [c, d]) < 1e-4


@pytest.mark.parametrize("alpha", [1.0, 3.0])
def test_kl_kumaraswamy_gradients(alpha):
    rng = np.random.default_rng(2)
    c = Parameter(rng.random((2, 3)) + 0.8, "c")
    d = Parameter(rng.random((2, 3)) + 0.8, "d")

    def f():
        return st.kl_kumaraswamy_beta(c, d, alpha)

    assert gradient_check(f, [c, d]) < 1e-4


def test_concrete_chain_gradients():
    # logits -> relaxed sample -> single-sample KL against a stick prior
    rng = np.random.default_rng(3)
    logits = Parameter(rng.normal(size=(2, 3)), "logits")
    c = Parameter(rng.random((1, 3)) + 0.8, "c")
    d = Parameter(rng.random((1, 3)) + 0.8, "d")
    noise_v = rng.random((1, 3))
    noise_b = rng.random((2, 3))

    def f():
        v = st.sample_kumaraswamy(c, d, noise_v)
        prior = st.concrete_logit(st.stick_breaking(v))
        y = st.sample_binary_concrete(logits, 1.0, noise_b)
        return st.kl_concrete_mc(y, logits, 1.0, prior, 0.5)

    assert gradient_check(f, [logits, c, d]) < 1e-4


def test_gaussian_gradients():
    rng = np.random.default_rng(4)
    mu = Parameter(rng.normal(size=(2, 3)), "mu")
    ls = Parameter(rng.normal(size=(2, 3)) * 0.3, "ls")
    eps = rng.normal(size=(2, 3))
    weights = rng.normal(size=(2, 3))

    def f():
        r = st.sample_gaussian(mu, ls, eps)
        return (r * weights).sum() + st.kl_gaussian_std(mu, ls, 1.3)

    assert gradient_check(f, [mu, ls]) < 1e-4
