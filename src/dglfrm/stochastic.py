"""Reparameterized samplers and KL terms for the three variational families.

Every function takes its family's parameters as tensors and, for a sampler,
its noise as the raw draw: `rng.random` uniforms for the Kumaraswamy and
Binary Concrete samplers, `rng.standard_normal` for the Gaussian. Explicit
noise keeps training steps deterministic under a seed and lets
finite-difference checks freeze the randomness. The two uniform samplers
clamp their draw into [EPS, 1-EPS] themselves, so a raw 0 or 1 is safe.
Parameters in a stated domain (positive c, d and temperature, y in (0, 1))
are the caller's contract, met by construction: softplus plus a floor, clips
to [EPS, 1-EPS] and the config checks of `trainer.TrainConfig`. Nothing here
scans for them.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tc
from .tensor import Tensor

EPS = 1e-7


# ---------------------------------------------------------------------------
# Samplers


def sample_kumaraswamy(c: Tensor, d: Tensor, u) -> Tensor:
    """Inverse-CDF draw v = (1 - u^(1/d))^(1/c) of Kumaraswamy(c, d), clamped into (0, 1)."""
    u = Tensor(np.clip(np.asarray(u, dtype=np.float64), EPS, 1.0 - EPS))
    inner = tc.clip(1.0 - tc.pow_(u, tc.reciprocal(d)), EPS, 1.0 - EPS)
    return tc.clip(tc.pow_(inner, tc.reciprocal(c)), EPS, 1.0 - EPS)


def stick_breaking(v: Tensor) -> Tensor:
    """Row-wise stick products pi_k = prod_{j<=k} v_j of v in (0, 1); rows non-increasing."""
    return tc.row_cumprod(v)


def concrete_logit(pi: Tensor) -> Tensor:
    """The Binary Concrete logit log(pi / (1 - pi)), with pi clamped away from {0, 1} first."""
    p = tc.clip(pi, EPS, 1.0 - EPS)
    return tc.log(p) - tc.log(1.0 - p)


def sample_binary_concrete(logit_pi: Tensor, temperature: float, u) -> Tensor:
    """Relaxed Bernoulli draw sigmoid((logit_pi + L)/temperature), L = logit(u) logistic noise."""
    u = np.clip(np.asarray(u, dtype=np.float64), EPS, 1.0 - EPS)
    logistic = Tensor(np.broadcast_to(np.log(u) - np.log1p(-u), logit_pi.shape).copy())
    y = tc.sigmoid((logit_pi + logistic) / temperature)
    return tc.clip(y, EPS, 1.0 - EPS)


def sample_gaussian(mu: Tensor, log_sigma: Tensor, eps) -> Tensor:
    """Location-scale draw r = mu + exp(log_sigma) * eps."""
    return mu + tc.exp(log_sigma) * Tensor(eps)


# ---------------------------------------------------------------------------
# Densities and divergences


def log_density_binary_concrete(y: Tensor, logit_pi: Tensor, temperature: float) -> Tensor:
    """Elementwise log-density of the Binary Concrete at y in (0, 1).

    log lam + logit_pi - (lam+1)(log y + log(1-y))
        - 2*logaddexp(logit_pi - lam*log y, -lam*log(1-y))
    """
    lam = temperature
    log_y = tc.log(y)
    log_1my = tc.log(1.0 - y)
    return (
        (logit_pi + float(np.log(lam)))
        - (log_y + log_1my) * (lam + 1.0)
        - tc.logaddexp(logit_pi - log_y * lam, tc.negate(log_1my * lam)) * 2.0
    )


def kl_concrete_mc(
    y: Tensor, q_logit: Tensor, q_temperature: float, p_logit: Tensor, p_temperature: float
) -> Tensor:
    """Single-sample relaxed KL: sum over entries of log q(y) - log p(y).

    y must be the same relaxed draw used downstream (shared-sample estimator).
    """
    return (
        log_density_binary_concrete(y, q_logit, q_temperature)
        - log_density_binary_concrete(y, p_logit, p_temperature)
    ).sum()


def kl_kumaraswamy_beta(c: Tensor, d: Tensor, alpha: float) -> Tensor:
    """KL(Kumaraswamy(c,d) || Beta(alpha,1)) summed over entries, alpha > 0.

    The IBP stick prior is Beta(alpha, 1), for which the KL is exact
    (Nalisnick & Smyth 2017):
      ((c-alpha)/c)(-gamma - digamma(d) - 1/d) + log(cd) + logB(alpha,1) - (d-1)/d
    with logB(alpha, 1) = -log(alpha).
    """
    alpha = float(alpha)
    gamma = float(np.euler_gamma)
    inv_d = tc.reciprocal(d)
    log_beta_const = -float(np.log(alpha))

    kl = ((c - alpha) / c) * (tc.negate(tc.digamma(d)) - gamma - inv_d)
    kl = kl + tc.log(c) + tc.log(d) + log_beta_const
    kl = kl + inv_d - 1.0  # equals -(d-1)/d
    return kl.sum()


def kl_gaussian_std(mu: Tensor, log_sigma: Tensor, prior_sigma: float = 1.0) -> Tensor:
    """Closed-form KL(N(mu, sigma^2) || N(0, prior_sigma^2)) summed over entries, prior_sigma > 0."""
    sigma = tc.exp(log_sigma)
    scale = 1.0 / (2.0 * prior_sigma * prior_sigma)
    terms = (
        (tc.negate(log_sigma) + float(np.log(prior_sigma)))
        + (sigma * sigma + mu * mu) * scale
        - 0.5
    )
    return terms.sum()
