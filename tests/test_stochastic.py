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
    p = st.KumaraswamyParams(Tensor([[1.0]]), Tensor([[1.0]]))
    v = st.sample_kumaraswamy(p, st.ReparamNoise([[0.5]]))
    assert v.data[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_kumaraswamy_hand_value():
    p = st.KumaraswamyParams(Tensor([[1.0]]), Tensor([[3.0]]))
    v = st.sample_kumaraswamy(p, st.ReparamNoise([[0.729]]))
    assert v.data[0, 0] == pytest.approx(0.1, abs=1e-12)


def test_kumaraswamy_boundary_monotonicity():
    p = st.KumaraswamyParams(Tensor([[2.0]]), Tensor([[3.0]]))
    near_one = st.sample_kumaraswamy(p, st.ReparamNoise([[0.0]])).data[0, 0]
    near_zero = st.sample_kumaraswamy(p, st.ReparamNoise([[1.0]])).data[0, 0]
    assert near_one > 0.99
    assert near_zero < 0.01


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.0, 1.0), (2.0, 3.0)])
def test_kumaraswamy_sampler_ks_distance(a, b):
    n = 100_000
    rng = np.random.default_rng(42)
    p = st.KumaraswamyParams(Tensor(np.full(n, a)), Tensor(np.full(n, b)))
    draws = np.sort(st.sample_kumaraswamy(p, st.ReparamNoise.uniform(rng, n)).data)
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
        q = st.KumaraswamyParams(Tensor([[alpha]]), Tensor([[1.0]]))
        kl = st.kl_kumaraswamy_beta(q, alpha)
        assert kl.item() == pytest.approx(0.0, abs=1e-12)


def test_kl_kumar_uniform_vs_uniform_zero():
    q = st.KumaraswamyParams(Tensor([[1.0]]), Tensor([[1.0]]))
    assert st.kl_kumaraswamy_beta(q, 1.0).item() == pytest.approx(0.0, abs=1e-12)


def test_kl_kumar_2_2_vs_uniform():
    q = st.KumaraswamyParams(Tensor([[2.0]]), Tensor([[2.0]]))
    kl = st.kl_kumaraswamy_beta(q, 1.0).item()
    closed_form = np.log(4.0) - 0.75 - 0.5
    assert kl == pytest.approx(closed_form, abs=1e-12)
    assert kl == pytest.approx(0.1363, abs=5e-4)
    assert kl == pytest.approx(kumar_beta_kl_quad(2.0, 2.0, 1.0, 1.0), abs=1e-6)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
def test_kl_kumar_grid_nonnegative_and_matches_quadrature(a, b, alpha):
    q = st.KumaraswamyParams(Tensor([[a]]), Tensor([[b]]))
    kl = st.kl_kumaraswamy_beta(q, alpha).item()
    assert kl >= -1e-9
    assert kl == pytest.approx(kumar_beta_kl_quad(a, b, alpha, 1.0), abs=1e-3)


def test_kl_kumar_sums_over_entries():
    q = st.KumaraswamyParams(Tensor([[2.0, 2.0]]), Tensor([[2.0, 2.0]]))
    single = st.kl_kumaraswamy_beta(
        st.KumaraswamyParams(Tensor([[2.0]]), Tensor([[2.0]])), 1.0
    ).item()
    assert st.kl_kumaraswamy_beta(q, 1.0).item() == pytest.approx(2 * single, rel=1e-12)


# ---------------------------------------------------------------------------
# Binary Concrete


def test_concrete_sample_center():
    p = st.ConcreteParams(Tensor([[0.0]]), temperature=0.37)
    y = st.sample_binary_concrete(p, st.ReparamNoise([[0.5]]))
    assert y.data[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_concrete_sample_passes_pi_through_at_center_noise():
    p = st.ConcreteParams.from_pi(Tensor([[0.88]]), temperature=1.0)
    y = st.sample_binary_concrete(p, st.ReparamNoise([[0.5]]))
    assert y.data[0, 0] == pytest.approx(0.88, abs=1e-9)


def test_concrete_sample_low_temperature_hardens():
    p = st.ConcreteParams.from_pi(Tensor([[0.9]]), temperature=0.01)
    y = st.sample_binary_concrete(p, st.ReparamNoise([[0.5]]))
    assert y.data[0, 0] == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("pi", [0.3, 0.7])
def test_concrete_low_temperature_mean_approaches_pi(pi):
    n = 100_000
    rng = np.random.default_rng(11)
    p = st.ConcreteParams.from_pi(Tensor(np.full(n, pi)), temperature=0.01)
    y = st.sample_binary_concrete(p, st.ReparamNoise.uniform(rng, n))
    assert abs(float(y.data.mean()) - pi) < 0.01


def test_concrete_log_density_uniform_case():
    p = st.ConcreteParams(Tensor([[0.0]]), temperature=1.0)
    val = st.log_density_binary_concrete(Tensor([[0.5]]), p)
    assert val.data[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_concrete_log_density_temperature_two():
    p = st.ConcreteParams(Tensor([[0.0]]), temperature=2.0)
    val = st.log_density_binary_concrete(Tensor([[0.5]]), p)
    assert val.data[0, 0] == pytest.approx(np.log(2.0), abs=1e-12)


def test_concrete_log_density_symmetric_at_half():
    p = st.ConcreteParams(Tensor([[0.0, 0.0]]), temperature=0.66)
    v = st.log_density_binary_concrete(Tensor([[0.2, 0.8]]), p)
    assert v.data[0, 0] == pytest.approx(v.data[0, 1], abs=1e-12)


def test_concrete_log_density_integrates_to_one():
    for pi, lam in [(0.3, 0.5), (0.7, 1.0), (0.5, 2.0)]:
        val, err = integrate.quad(
            lambda y: np.exp(concrete_logpdf(y, pi, lam)), 1e-12, 1 - 1e-12, limit=400
        )
        assert val == pytest.approx(1.0, abs=1e-6)


def test_kl_concrete_identical_distributions_zero_pointwise():
    q = st.ConcreteParams.from_pi(Tensor([[0.42, 0.9]]), temperature=0.8)
    rng = np.random.default_rng(0)
    y = st.sample_binary_concrete(q, st.ReparamNoise.uniform(rng, (1, 2)))
    assert st.kl_concrete_mc(q, q, y).item() == pytest.approx(0.0, abs=1e-12)


def test_kl_concrete_mc_matches_quadrature_within_3_se():
    n = 100_000
    rng = np.random.default_rng(123)
    pi_q, pi_p, lam = 0.9, 0.1, 1.0
    q = st.ConcreteParams.from_pi(Tensor(np.full(n, pi_q)), temperature=lam)
    p = st.ConcreteParams.from_pi(Tensor(np.full(n, pi_p)), temperature=lam)
    y = st.sample_binary_concrete(q, st.ReparamNoise.uniform(rng, n))
    per_entry = (
        st.log_density_binary_concrete(y, q).data
        - st.log_density_binary_concrete(y, p).data
    )
    mc = per_entry.mean()
    se = per_entry.std(ddof=1) / np.sqrt(n)
    oracle = concrete_kl_quad(pi_q, pi_p, lam)
    assert mc > 0.0
    assert abs(mc - oracle) < 3.0 * se
    total = st.kl_concrete_mc(q, p, y).item()
    assert total == pytest.approx(per_entry.sum(), rel=1e-10)


def test_kl_concrete_with_stick_prior_is_finite():
    rng = np.random.default_rng(3)
    v = Tensor(np.clip(rng.random((4, 6)), 1e-6, 1 - 1e-6))
    pi = st.stick_breaking(v)
    prior = st.ConcreteParams.from_pi(pi, temperature=0.5)
    q = st.ConcreteParams(Tensor(rng.normal(size=(4, 6))), temperature=1.0)
    y = st.sample_binary_concrete(q, st.ReparamNoise.uniform(rng, (4, 6)))
    assert np.isfinite(st.kl_concrete_mc(q, prior, y).item())


# ---------------------------------------------------------------------------
# Gaussian


def test_gaussian_mean_draw():
    p = st.GaussianParams(Tensor([[2.5]]), Tensor([[0.3]]))
    assert st.sample_gaussian(p, [[0.0]]).data[0, 0] == pytest.approx(2.5)


def test_gaussian_standard_passthrough():
    p = st.GaussianParams(Tensor([[0.0]]), Tensor([[0.0]]))
    assert st.sample_gaussian(p, [[1.7]]).data[0, 0] == pytest.approx(1.7)


def test_gaussian_location_scale():
    p = st.GaussianParams(Tensor([[2.0]]), Tensor([[np.log(0.5)]]))
    assert st.sample_gaussian(p, [[-2.0]]).data[0, 0] == pytest.approx(1.0)


def test_kl_gaussian_zero_at_prior():
    p = st.GaussianParams(Tensor([[0.0]]), Tensor([[0.0]]))
    assert st.kl_gaussian_std(p, 1.0).item() == pytest.approx(0.0, abs=1e-15)


def test_kl_gaussian_mean_shift():
    p = st.GaussianParams(Tensor([[1.0]]), Tensor([[0.0]]))
    assert st.kl_gaussian_std(p, 1.0).item() == pytest.approx(0.5, abs=1e-15)


def test_kl_gaussian_shrunk_scale():
    p = st.GaussianParams(Tensor([[0.0]]), Tensor([[-1.0]]))
    expected = 1.0 + (np.exp(-2.0) - 1.0) / 2.0
    assert st.kl_gaussian_std(p, 1.0).item() == pytest.approx(expected, abs=1e-12)
    assert st.kl_gaussian_std(p, 1.0).item() == pytest.approx(0.5677, abs=5e-5)


def test_kl_gaussian_nonnegative_zero_only_at_prior():
    rng = np.random.default_rng(9)
    for _ in range(200):
        mu = rng.normal() * 2
        ls = rng.normal()
        p = st.GaussianParams(Tensor([[mu]]), Tensor([[ls]]))
        kl = st.kl_gaussian_std(p, 1.5).item()
        assert kl >= -1e-12
        if abs(mu) > 1e-3 or abs(np.exp(ls) - 1.5) > 1e-3:
            assert kl > 0.0


def test_kl_gaussian_nonstandard_prior_quadrature():
    mu, sigma, prior = 0.7, 0.6, 2.0
    p = st.GaussianParams(Tensor([[mu]]), Tensor([[np.log(sigma)]]))

    def integrand(x):
        q = np.exp(-((x - mu) ** 2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))
        pr = np.exp(-(x**2) / (2 * prior**2)) / (prior * np.sqrt(2 * np.pi))
        return q * (np.log(q) - np.log(pr))

    oracle, err = integrate.quad(integrand, -12, 12)
    assert err < 1e-7
    assert st.kl_gaussian_std(p, prior).item() == pytest.approx(oracle, abs=1e-7)


# ---------------------------------------------------------------------------
# gradient checks with frozen noise


def test_kumaraswamy_sampler_gradients():
    rng = np.random.default_rng(0)
    c = Parameter(rng.random((2, 3)) + 0.5, "c")
    d = Parameter(rng.random((2, 3)) + 0.5, "d")
    noise = st.ReparamNoise.uniform(rng, (2, 3))
    weights = rng.normal(size=(2, 3))

    def f():
        v = st.sample_kumaraswamy(st.KumaraswamyParams(c, d), noise)
        return (v * weights).sum()

    assert gradient_check(f, [c, d]) < 1e-4


def test_stick_breaking_gradients():
    rng = np.random.default_rng(1)
    c = Parameter(rng.random((2, 4)) + 0.5, "c")
    d = Parameter(rng.random((2, 4)) + 0.5, "d")
    noise = st.ReparamNoise.uniform(rng, (2, 4))
    weights = rng.normal(size=(2, 4))

    def f():
        v = st.sample_kumaraswamy(st.KumaraswamyParams(c, d), noise)
        return (st.stick_breaking(v) * weights).sum()

    assert gradient_check(f, [c, d]) < 1e-4


@pytest.mark.parametrize("alpha", [1.0, 3.0])
def test_kl_kumaraswamy_gradients(alpha):
    rng = np.random.default_rng(2)
    c = Parameter(rng.random((2, 3)) + 0.8, "c")
    d = Parameter(rng.random((2, 3)) + 0.8, "d")

    def f():
        return st.kl_kumaraswamy_beta(st.KumaraswamyParams(c, d), alpha)

    assert gradient_check(f, [c, d]) < 1e-4


def test_concrete_chain_gradients():
    # logits -> relaxed sample -> single-sample KL against a stick prior
    rng = np.random.default_rng(3)
    logits = Parameter(rng.normal(size=(2, 3)), "logits")
    c = Parameter(rng.random((1, 3)) + 0.8, "c")
    d = Parameter(rng.random((1, 3)) + 0.8, "d")
    noise_v = st.ReparamNoise.uniform(rng, (1, 3))
    noise_b = st.ReparamNoise.uniform(rng, (2, 3))

    def f():
        v = st.sample_kumaraswamy(st.KumaraswamyParams(c, d), noise_v)
        prior = st.ConcreteParams.from_pi(st.stick_breaking(v), temperature=0.5)
        q = st.ConcreteParams(logits, temperature=1.0)
        y = st.sample_binary_concrete(q, noise_b)
        return st.kl_concrete_mc(q, prior, y)

    assert gradient_check(f, [logits, c, d]) < 1e-4


def test_gaussian_gradients():
    rng = np.random.default_rng(4)
    mu = Parameter(rng.normal(size=(2, 3)), "mu")
    ls = Parameter(rng.normal(size=(2, 3)) * 0.3, "ls")
    eps = rng.normal(size=(2, 3))
    weights = rng.normal(size=(2, 3))

    def f():
        r = st.sample_gaussian(st.GaussianParams(mu, ls), eps)
        return (r * weights).sum() + st.kl_gaussian_std(st.GaussianParams(mu, ls), 1.3)

    assert gradient_check(f, [mu, ls]) < 1e-4
