"""GCN encoder, link decoders, feature decoder, and the model-variant switch.

The encoder is one shared GCN hidden layer followed by a linear GCN head for
each variational parameter the variant trains (`ModelVariant.encoder_heads`).
Decoders: a small MLP feeding an inner product, a symmetrized bilinear form,
or the plain inner product. Each is given as two factors whose product is the
symmetric N x N logit grid (`link_factors`); training sums the likelihood over
that grid without forming it (`tensor.link_bce_sum`), and scoring evaluates
single pairs.
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
# Every encoder head, in the order init_encoder draws their weights. Head h
# has weight "encoder.w_<h>" and fills the VariationalOutput field named here.
ENCODER_HEADS = {"c": "c", "d": "d", "pi": "pi_logits", "mu": "mu", "sigma": "log_sigma"}


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

    def encoder_heads(self, structured: bool) -> tuple[str, ...]:
        """The encoder heads this variant trains, in ENCODER_HEADS order.

        Membership logits `pi` come with `b`, per-node Kumaraswamy sticks
        `c`, `d` with `b` under the mean-field posterior (structured sticks
        are global parameters), and `mu`, `sigma` with `r`.
        """
        heads = ()
        if self.uses_b:
            heads = ("pi",) if structured else ("c", "d", "pi")
        if self.uses_r:
            heads += ("mu", "sigma")
        return heads


@dataclass(frozen=True)
class VariationalOutput:
    """Per-node encoder outputs, each N x K; c and d strictly positive.

    A field is None when the encoder has no head for it.
    """

    c: Tensor | None = None
    d: Tensor | None = None
    pi_logits: Tensor | None = None
    mu: Tensor | None = None
    log_sigma: Tensor | None = None


@dataclass
class EncoderParams:
    """First-layer weight plus one weight per head, keyed by ENCODER_HEADS names."""

    w1: Parameter
    heads: dict[str, Parameter]
    dropout: float = 0.5

    def parameters(self) -> list[Parameter]:
        return [self.w1, *self.heads.values()]


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
    heads: tuple[str, ...],
    dropout: float = 0.5,
) -> EncoderParams:
    w1 = Parameter(glorot_uniform(rng, d_in, hidden), "encoder.w1")
    # A block is drawn for every head, kept or not, so that the weights of a
    # kept head and every later draw from rng (decoder, dropout masks, noise)
    # do not depend on which heads the variant has.
    blocks = {name: glorot_uniform(rng, hidden, k) for name in ENCODER_HEADS}
    return EncoderParams(
        w1=w1,
        heads={name: Parameter(blocks[name], f"encoder.w_{name}") for name in heads},
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


def encode(
    g: Graph,
    a_hat: SparseMatrix,
    enc: EncoderParams,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> VariationalOutput:
    """Shared hidden layer, then the encoder's linear heads; identity features when absent."""
    drop = train_mode and enc.dropout > 0.0
    if drop and rng is None:
        raise UsageError("encode: dropout at train time needs an rng")
    if g.features is not None:
        if g.features.shape[1] != enc.w1.shape[0]:
            raise tc.ShapeError(
                f"encode: features {g.features.shape} vs w1 {enc.w1.shape}"
            )
        x = g.features
        if drop:
            # the keep mask is drawn over all N x D entries, as tc.dropout draws
            # it, so the rng stream and every later draw are unchanged
            x = tc.sparse_dropout(x, enc.dropout, rng)
        first = tc.spmm(x, enc.w1)
    else:
        # identity features: X @ W1 is W1 itself, so drop entries of W1 directly
        if g.n_nodes != enc.w1.shape[0]:
            raise tc.ShapeError(
                f"encode: identity features need w1 with {g.n_nodes} rows, "
                f"got {enc.w1.shape}"
            )
        first = enc.w1
        if drop:
            first = tc.dropout(first, enc.dropout, rng, train=True)

    hidden = tc.leaky_relu(tc.spmm(a_hat, first), LEAKY_SLOPE)
    if drop:
        hidden = tc.dropout(hidden, enc.dropout, rng, train=True)

    # each head is A_hat @ (hidden @ w) = (A_hat @ hidden) @ w: one sparse product for all
    propagated = tc.spmm(a_hat, hidden)
    out = {}
    for name, w in enc.heads.items():
        value = tc.matmul(propagated, w)
        if name in ("c", "d"):
            value = tc.softplus(value) + PARAM_FLOOR
        field = ENCODER_HEADS[name]
        if not np.all(np.isfinite(value.data)):
            raise tc.NumericDomainError(f"encoder head {field}: non-finite output")
        out[field] = value
    return VariationalOutput(**out)


def _pairs_arrays(pairs) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise tc.ShapeError(f"pairs must be (n, 2) ints, got shape {arr.shape}")
    return arr[:, 0], arr[:, 1]


def link_factors(z: Tensor, dec: DecoderParams) -> tuple[Tensor, Tensor]:
    """Factors (left, right) whose product left @ right.T is the link-logit grid.

    The grid is symmetric for every form: MLP and inner product return the
    same tensor twice, and the bilinear form scores z @ w_sym @ z.T with
    w_sym the symmetric part of its weight.
    """
    if dec.form == "mlp":
        f = z
        for w, b in dec.layers:
            f = tc.leaky_relu(tc.matmul(f, w) + b, LEAKY_SLOPE)
        return f, f
    if dec.form == "bilinear":
        w_sym = (dec.bilinear_w + tc.transpose(dec.bilinear_w)) * 0.5
        return tc.matmul(z, w_sym), z
    return z, z


def decode_link_logits(z: Tensor, dec: DecoderParams, pairs) -> Tensor:
    """Link logits of the (u, v) pairs."""
    left, right = link_factors(z, dec)
    u, v = _pairs_arrays(pairs)
    return tc.row_sum(tc.take_rows(left, u) * tc.take_rows(right, v))


def decode_links(z: Tensor, dec: DecoderParams, pairs) -> Tensor:
    """Link probabilities sigmoid(logits) of the (u, v) pairs."""
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
