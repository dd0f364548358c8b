"""Reparameterized samplers and KL terms for the three variational families.

All samplers take explicit noise so training steps are deterministic under a
seed and finite-difference checks can freeze the randomness. Parameters in a
stated domain (positive c, d and temperature, y in (0, 1)) are the caller's
contract, met by construction: softplus plus a floor, clips to [EPS, 1-EPS]
and the config checks of `trainer.TrainConfig`. Nothing here scans for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .tensor import Tensor

EPS = 1e-7


@dataclass(frozen=True)
class KumaraswamyParams:
    """Surrogate posterior for Beta sticks; c, d strictly positive."""

    c: Tensor
    d: Tensor

    def __post_init__(self) -> None:
        if self.c.shape != self.d.shape:
            raise tc.ShapeError(f"kumaraswamy: c {self.c.shape} vs d {self.d.shape}")


@dataclass(frozen=True)
class ConcreteParams:
    """Binary Concrete distribution in logit parameterization; temperature > 0."""

    logit_pi: Tensor
    temperature: float

    @classmethod
    def from_pi(cls, pi: Tensor, temperature: float) -> "ConcreteParams":
        """Build from probabilities; pi is clamped away from {0, 1} first."""
        p = tc.clip(pi, EPS, 1.0 - EPS)
        return cls(logit_pi=tc.log(p) - tc.log(1.0 - p), temperature=temperature)


@dataclass(frozen=True)
class GaussianParams:
    mu: Tensor
    log_sigma: Tensor

    def __post_init__(self) -> None:
        if self.mu.shape != self.log_sigma.shape:
            raise tc.ShapeError(
                f"gaussian: mu {self.mu.shape} vs log_sigma {self.log_sigma.shape}"
            )


class ReparamNoise:
    """Uniform noise clamped into [EPS, 1-EPS], with derived logistic noise."""

    __slots__ = ("u", "logistic")

    def __init__(self, u) -> None:
        u = np.clip(np.asarray(u, dtype=np.float64), EPS, 1.0 - EPS)
        self.u = u
        self.logistic = np.log(u) - np.log1p(-u)

    @classmethod
    def uniform(cls, rng: np.random.Generator, shape) -> "ReparamNoise":
        return cls(rng.random(shape))


# ---------------------------------------------------------------------------
# Samplers


def sample_kumaraswamy(p: KumaraswamyParams, noise: ReparamNoise) -> Tensor:
    """Inverse-CDF draw v = (1 - u^(1/d))^(1/c), clamped into (0, 1)."""
    u = Tensor(noise.u)
    inner = tc.clip(1.0 - tc.pow_(u, tc.reciprocal(p.d)), EPS, 1.0 - EPS)
    return tc.clip(tc.pow_(inner, tc.reciprocal(p.c)), EPS, 1.0 - EPS)


def stick_breaking(v: Tensor) -> Tensor:
    """Row-wise stick products pi_k = prod_{j<=k} v_j of v in (0, 1); rows non-increasing."""
    return tc.row_cumprod(v)


def sample_binary_concrete(p: ConcreteParams, noise: ReparamNoise) -> Tensor:
    """Relaxed Bernoulli draw sigmoid((logit_pi + L)/temperature)."""
    logistic = Tensor(np.broadcast_to(noise.logistic, p.logit_pi.shape).copy())
    y = tc.sigmoid((p.logit_pi + logistic) / p.temperature)
    return tc.clip(y, EPS, 1.0 - EPS)


def sample_gaussian(p: GaussianParams, eps) -> Tensor:
    """Location-scale draw r = mu + exp(log_sigma) * eps."""
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != p.mu.shape:
        raise tc.ShapeError(f"sample_gaussian: eps {eps.shape} vs mu {p.mu.shape}")
    return p.mu + tc.exp(p.log_sigma) * Tensor(eps)


# ---------------------------------------------------------------------------
# Densities and divergences


def log_density_binary_concrete(y: Tensor, p: ConcreteParams) -> Tensor:
    """Elementwise log-density of the Binary Concrete at y in (0, 1).

    log lam + logit_pi - (lam+1)(log y + log(1-y))
        - 2*logaddexp(logit_pi - lam*log y, -lam*log(1-y))
    """
    lam = p.temperature
    log_y = tc.log(y)
    log_1my = tc.log(1.0 - y)
    return (
        (p.logit_pi + float(np.log(lam)))
        - (log_y + log_1my) * (lam + 1.0)
        - tc.logaddexp(p.logit_pi - log_y * lam, tc.negate(log_1my * lam)) * 2.0
    )


def kl_concrete_mc(q: ConcreteParams, p: ConcreteParams, y: Tensor) -> Tensor:
    """Single-sample relaxed KL: sum over entries of log q(y) - log p(y).

    y must be the same relaxed draw used downstream (shared-sample estimator).
    """
    return (log_density_binary_concrete(y, q) - log_density_binary_concrete(y, p)).sum()


def kl_kumaraswamy_beta(q: KumaraswamyParams, prior_alpha: float) -> Tensor:
    """KL(Kumaraswamy(c,d) || Beta(alpha,1)) summed over entries, alpha > 0.

    The IBP stick prior is Beta(alpha, 1), for which the KL is exact
    (Nalisnick & Smyth 2017):
      ((a-alpha)/a)(-gamma - digamma(b) - 1/b) + log(ab) + logB(alpha,1) - (b-1)/b
    with logB(alpha, 1) = -log(alpha).
    """
    a, b = q.c, q.d
    alpha = float(prior_alpha)
    gamma = float(np.euler_gamma)
    inv_b = tc.reciprocal(b)
    log_beta_const = -float(np.log(alpha))

    kl = ((a - alpha) / a) * (tc.negate(tc.digamma(b)) - gamma - inv_b)
    kl = kl + tc.log(a) + tc.log(b) + log_beta_const
    kl = kl + inv_b - 1.0  # equals -(b-1)/b
    return kl.sum()


def kl_gaussian_std(p: GaussianParams, prior_sigma: float = 1.0) -> Tensor:
    """Closed-form KL(N(mu, sigma^2) || N(0, prior_sigma^2)) summed over entries, prior_sigma > 0."""
    sigma = tc.exp(p.log_sigma)
    scale = 1.0 / (2.0 * prior_sigma * prior_sigma)
    terms = (
        (tc.negate(p.log_sigma) + float(np.log(prior_sigma)))
        + (sigma * sigma + p.mu * p.mu) * scale
        - 0.5
    )
    return terms.sum()
