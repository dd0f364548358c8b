"""GCN encoder, link decoders, feature decoder, and the model-variant switch.

The encoder is one shared GCN hidden layer followed by five linear GCN heads
producing the variational parameters. Decoders: a small MLP feeding an inner
product, a symmetrized bilinear form, or the plain inner product.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import tensor as tc
from .graphdata import Graph
from .stochastic import LatentSample
from .tensor import Parameter, SparseMatrix, Tensor, UsageError

PARAM_FLOOR = 1e-4  # added after softplus so c, d stay strictly positive
LEAKY_SLOPE = 0.2  # negative-side slope of the encoder and MLP-decoder activations


class ModelVariant(Enum):
    DGLFRM = "dglfrm"
    DGLFRM_B = "dglfrm-b"
    LFRM = "lfrm"
    LSM = "lsm"
    VGAE_STYLE = "vgae"

    @classmethod
    def parse(cls, name: str) -> "ModelVariant":
        for variant in cls:
            if variant.value == name:
                return variant
        valid = ", ".join(v.value for v in cls)
        raise UsageError(f"unknown variant {name!r}; valid: {valid}")

    @property
    def uses_b(self) -> bool:
        return self in (ModelVariant.DGLFRM, ModelVariant.DGLFRM_B, ModelVariant.LFRM)

    @property
    def uses_r(self) -> bool:
        return self in (ModelVariant.DGLFRM, ModelVariant.LSM, ModelVariant.VGAE_STYLE)

    @property
    def decoder_form(self) -> str:
        if self in (ModelVariant.DGLFRM, ModelVariant.DGLFRM_B):
            return "mlp"
        if self in (ModelVariant.LFRM, ModelVariant.LSM):
            return "bilinear"
        return "inner"

    @property
    def supports_communities(self) -> bool:
        return self.uses_b


@dataclass(frozen=True)
class VariationalOutput:
    """Per-node encoder outputs, each N x K; c and d strictly positive."""

    c: Tensor
    d: Tensor
    pi_logits: Tensor
    mu: Tensor
    log_sigma: Tensor


@dataclass
class EncoderParams:
    w1: Parameter
    w_c: Parameter
    w_d: Parameter
    w_pi: Parameter
    w_mu: Parameter
    w_sigma: Parameter
    dropout: float = 0.5

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.w_c, self.w_d, self.w_pi, self.w_mu, self.w_sigma]

    @property
    def k(self) -> int:
        return self.w_pi.shape[1]


@dataclass
class DecoderParams:
    """Exactly one decoder form: 'mlp' (layers), 'bilinear' (w), or 'inner'."""

    form: str
    layers: tuple[tuple[Parameter, Parameter], ...] = ()
    bilinear_w: Parameter | None = None

    def __post_init__(self) -> None:
        if self.form not in ("mlp", "bilinear", "inner"):
            raise UsageError(f"unknown decoder form {self.form!r}")
        if self.form == "bilinear" and self.bilinear_w is None:
            raise UsageError("bilinear decoder needs a weight matrix")
        if self.form != "bilinear" and self.bilinear_w is not None:
            raise UsageError(f"{self.form} decoder must not carry a bilinear matrix")
        if self.form != "mlp" and self.layers:
            raise UsageError(f"{self.form} decoder must not carry MLP layers")

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for w, b in self.layers:
            out.extend((w, b))
        if self.bilinear_w is not None:
            out.append(self.bilinear_w)
        return out


@dataclass
class FeatureDecoderParams:
    w: Parameter

    def parameters(self) -> list[Parameter]:
        return [self.w]


@dataclass
class GlobalSticks:
    """Free per-component stick parameters for the structured posterior."""

    raw_c: Parameter
    raw_d: Parameter

    def c(self) -> Tensor:
        return tc.softplus(self.raw_c) + PARAM_FLOOR

    def d(self) -> Tensor:
        return tc.softplus(self.raw_d) + PARAM_FLOOR

    def parameters(self) -> list[Parameter]:
        return [self.raw_c, self.raw_d]


@dataclass
class ModelParams:
    encoder: EncoderParams
    decoder: DecoderParams
    feature_decoder: FeatureDecoderParams | None = None
    sticks: GlobalSticks | None = None

    def parameters(self) -> list[Parameter]:
        out = self.encoder.parameters() + self.decoder.parameters()
        if self.feature_decoder is not None:
            out += self.feature_decoder.parameters()
        if self.sticks is not None:
            out += self.sticks.parameters()
        names = [p.name for p in out]
        if len(set(names)) != len(names):
            raise UsageError("duplicate parameter names in model")
        return out


# ---------------------------------------------------------------------------
# Initialization


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_encoder(
    rng: np.random.Generator,
    d_in: int,
    hidden: int,
    k: int,
    dropout: float = 0.5,
) -> EncoderParams:
    def head(name: str) -> Parameter:
        return Parameter(glorot_uniform(rng, hidden, k), f"encoder.{name}")

    return EncoderParams(
        w1=Parameter(glorot_uniform(rng, d_in, hidden), "encoder.w1"),
        w_c=head("w_c"),
        w_d=head("w_d"),
        w_pi=head("w_pi"),
        w_mu=head("w_mu"),
        w_sigma=head("w_sigma"),
        dropout=dropout,
    )


def init_decoder(
    rng: np.random.Generator,
    variant: ModelVariant,
    k: int,
    hidden: tuple[int, ...] = (32, 16),
) -> DecoderParams:
    form = variant.decoder_form
    if form == "mlp":
        layers = []
        d_in = k
        for i, width in enumerate(hidden):
            layers.append(
                (
                    Parameter(glorot_uniform(rng, d_in, width), f"decoder.mlp{i}.w"),
                    Parameter(np.zeros((1, width)), f"decoder.mlp{i}.b"),
                )
            )
            d_in = width
        return DecoderParams(form="mlp", layers=tuple(layers))
    if form == "bilinear":
        return DecoderParams(
            form="bilinear",
            bilinear_w=Parameter(glorot_uniform(rng, k, k), "decoder.bilinear"),
        )
    return DecoderParams(form="inner")


def init_feature_decoder(rng: np.random.Generator, k: int, d: int) -> FeatureDecoderParams:
    return FeatureDecoderParams(w=Parameter(glorot_uniform(rng, k, d), "feature_decoder.w"))


def _softplus_inverse(y: float) -> float:
    # solve softplus(x) = y for y > 0
    return float(np.log(np.expm1(y)))


def init_global_sticks(k: int, alpha: float) -> GlobalSticks:
    """Start at the prior: c_k = alpha, d_k = 1."""
    raw_c = np.full((1, k), _softplus_inverse(alpha - PARAM_FLOOR))
    raw_d = np.full((1, k), _softplus_inverse(1.0 - PARAM_FLOOR))
    return GlobalSticks(
        raw_c=Parameter(raw_c, "sticks.raw_c"),
        raw_d=Parameter(raw_d, "sticks.raw_d"),
    )


# ---------------------------------------------------------------------------
# Forward passes


def _check_head_finite(name: str, value: Tensor) -> None:
    if not np.all(np.isfinite(value.data)):
        raise tc.NumericDomainError(f"encoder head {name}: non-finite output")


def encode(
    g: Graph,
    a_hat: SparseMatrix,
    enc: EncoderParams,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> VariationalOutput:
    """Shared hidden layer, then five linear heads; identity features when absent."""
    if g.features is not None:
        if g.features.shape[1] != enc.w1.shape[0]:
            raise tc.ShapeError(
                f"encode: features {g.features.shape} vs w1 {enc.w1.shape}"
            )
        x = g.features
        if train_mode and enc.dropout > 0.0:
            if rng is None:
                raise UsageError("encode: dropout at train time needs an rng")
            x = tc.dropout(x, enc.dropout, rng, train=True)
        first = tc.matmul(x, enc.w1)
    else:
        # identity features: X @ W1 is W1 itself, so drop entries of W1 directly
        if g.n_nodes != enc.w1.shape[0]:
            raise tc.ShapeError(
                f"encode: identity features need w1 with {g.n_nodes} rows, "
                f"got {enc.w1.shape}"
            )
        first = enc.w1
        if train_mode and enc.dropout > 0.0:
            if rng is None:
                raise UsageError("encode: dropout at train time needs an rng")
            first = tc.dropout(first, enc.dropout, rng, train=True)

    hidden = tc.leaky_relu(tc.spmm(a_hat, first), LEAKY_SLOPE)
    if train_mode and enc.dropout > 0.0:
        hidden = tc.dropout(hidden, enc.dropout, rng, train=True)

    def head(w: Parameter) -> Tensor:
        return tc.spmm(a_hat, tc.matmul(hidden, w))

    c = tc.softplus(head(enc.w_c)) + PARAM_FLOOR
    d = tc.softplus(head(enc.w_d)) + PARAM_FLOOR
    pi_logits = head(enc.w_pi)
    mu = head(enc.w_mu)
    log_sigma = head(enc.w_sigma)
    for name, value in (
        ("c", c),
        ("d", d),
        ("pi_logits", pi_logits),
        ("mu", mu),
        ("log_sigma", log_sigma),
    ):
        _check_head_finite(name, value)
    return VariationalOutput(c=c, d=d, pi_logits=pi_logits, mu=mu, log_sigma=log_sigma)


def _pairs_arrays(pairs) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise tc.ShapeError(f"pairs must be (n, 2) ints, got shape {arr.shape}")
    return arr[:, 0], arr[:, 1]


def decode_link_logits(z: Tensor, dec: DecoderParams, pairs=None) -> Tensor:
    """Link logits on the full N x N grid, or per pair when pairs given."""
    if dec.form == "mlp":
        f = z
        for w, b in dec.layers:
            f = tc.leaky_relu(tc.matmul(f, w) + b, LEAKY_SLOPE)
        left = right = f
    elif dec.form == "bilinear":
        # symmetrize so the score is symmetric in (n, m) exactly
        w_sym = (dec.bilinear_w + tc.transpose(dec.bilinear_w)) * 0.5
        left = tc.matmul(z, w_sym)
        right = z
    else:
        left = right = z

    if pairs is None:
        return tc.matmul(left, tc.transpose(right))
    u, v = _pairs_arrays(pairs)
    return tc.row_sum(tc.take_rows(left, u) * tc.take_rows(right, v))


def decode_links(z: Tensor, dec: DecoderParams, pairs=None) -> Tensor:
    """Link probabilities sigma(logits); grid when pairs is None."""
    return tc.sigmoid(decode_link_logits(z, dec, pairs))


def compose_z(variant: ModelVariant, sample: LatentSample) -> Tensor:
    """Per-variant embedding: b*r, b alone, or r alone."""
    if variant is ModelVariant.DGLFRM:
        if sample.b is None or sample.r is None:
            raise UsageError("DGLFRM needs both b and r in the sample")
        return sample.b * sample.r
    if variant.uses_b:
        if sample.b is None:
            raise UsageError(f"{variant.value} needs b in the sample")
        return sample.b
    if sample.r is None:
        raise UsageError(f"{variant.value} needs r in the sample")
    return sample.r
