"""GCN encoder, link decoders, feature decoder, and the model-variant switch.

A model's parameters are a dict of tensors keyed by name; `param_shapes`
states which names a variant has and their shapes. The encoder is one shared
GCN hidden layer followed by a linear GCN head for each variational parameter
the variant trains (`ModelVariant.encoder_heads`). Decoders: a small MLP
feeding an inner product, a symmetrized bilinear form, or the plain inner
product. Each is given as two factors whose product is the symmetric N x N
logit grid (`link_factors`); training sums the likelihood over that grid
without forming it (`tensor.link_bce_sum`), and scoring evaluates single
pairs.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import tensor as tc
from .graphdata import Graph
from .tensor import NumericDomainError, SparseMatrix, Tensor, UsageError

PARAM_FLOOR = 1e-4  # added after softplus so c, d stay strictly positive
LEAKY_SLOPE = 0.2  # negative-side slope of the encoder and MLP-decoder activations
# Every encoder head, in the order init_params draws their weights. Head h has
# weight "encoder.w_<h>"; the "sigma" head outputs log sigma.
ENCODER_HEADS = ("c", "d", "pi", "mu", "sigma")


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


def param_shapes(
    variant: ModelVariant,
    structured: bool,
    d_in: int,
    hidden: int,
    k: int,
    decoder_hidden: tuple[int, ...],
    d_features: int | None,
) -> dict[str, tuple[int, int]]:
    """Name and shape of every parameter the variant trains, in draw order.

    `d_features` is the feature decoder's width, None when it has none.
    """
    shapes = {"encoder.w1": (d_in, hidden)}
    for head in variant.encoder_heads(structured):
        shapes[f"encoder.w_{head}"] = (hidden, k)
    if variant.decoder_form == "mlp":
        width = k
        for i, out in enumerate(decoder_hidden):
            shapes[f"decoder.mlp{i}.w"] = (width, out)
            shapes[f"decoder.mlp{i}.b"] = (1, out)
            width = out
    elif variant.decoder_form == "bilinear":
        shapes["decoder.bilinear"] = (k, k)
    if d_features is not None:
        shapes["feature_decoder.w"] = (k, d_features)
    if variant.uses_b and structured:
        shapes["sticks.raw_c"] = shapes["sticks.raw_d"] = (1, k)
    return shapes


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


# ---------------------------------------------------------------------------
# Forward passes


def encode(
    g: Graph,
    a_hat: SparseMatrix,
    params: dict[str, Tensor],
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> dict[str, Tensor]:
    """Shared hidden layer, then {head: N x K output} for each head in `params`.

    Outputs c and d are strictly positive; sigma holds log sigma. Identity
    features when the graph has none. `dropout` > 0 drops inputs and
    hidden units, drawing masks from `rng`; evaluation passes 0. Outputs are
    not checked here: training checks the loss, scoring the outputs.
    """
    drop = dropout > 0.0
    if drop and rng is None:
        raise UsageError("encode: dropout at train time needs an rng")
    w1 = params["encoder.w1"]
    if g.features is not None:
        x = g.features
        if drop:  # one draw per stored entry, as the VGAE reference drops sparse inputs
            x = tc.sparse_dropout(x, dropout, rng)
        first = tc.spmm(x, w1)
    else:
        # identity features: X @ W1 is W1 itself, so drop entries of W1 directly
        first = w1
        if drop:
            first = tc.dropout(first, dropout, rng)

    hidden = tc.leaky_relu(tc.spmm(a_hat, first), LEAKY_SLOPE)
    if drop:
        hidden = tc.dropout(hidden, dropout, rng)

    # each head is A_hat @ (hidden @ w) = (A_hat @ hidden) @ w: one sparse product for all
    propagated = tc.spmm(a_hat, hidden)
    out = {}
    for head in ENCODER_HEADS:
        w = params.get(f"encoder.w_{head}")
        if w is None:
            continue
        value = tc.matmul(propagated, w)
        if head in ("c", "d"):
            value = tc.softplus(value) + PARAM_FLOOR
        out[head] = value
    return out


def link_factors(z: Tensor, params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Factors (left, right) whose product left @ right.T is the link-logit grid.

    The grid is symmetric for every form: MLP and inner product return the
    same tensor twice, and the bilinear form scores z @ w_sym @ z.T with
    w_sym the symmetric part of its weight. Without decoder parameters, or
    with an MLP of no layers, the decoder is the plain inner product.
    """
    if "decoder.bilinear" in params:
        w = params["decoder.bilinear"]
        return tc.matmul(z, (w + tc.transpose(w)) * 0.5), z
    i = 0
    while f"decoder.mlp{i}.w" in params:
        z = tc.matmul(z, params[f"decoder.mlp{i}.w"]) + params[f"decoder.mlp{i}.b"]
        z = tc.leaky_relu(z, LEAKY_SLOPE)
        i += 1
    return z, z


def decode_links(z: Tensor, params: dict[str, Tensor], pairs) -> np.ndarray:
    """Link probabilities of the (u, v) pairs, off the tape: scoring needs no gradient.

    A non-finite link logit raises NumericDomainError: as a probability it
    would be NaN or an exact 0 or 1, where such scores tie.
    """
    left, right = link_factors(z, params)
    pairs = np.asarray(pairs, dtype=np.int64)
    logits = (left.data[pairs[:, 0]] * right.data[pairs[:, 1]]).sum(axis=1)
    if not np.all(np.isfinite(logits)):
        raise NumericDomainError("decoder: non-finite link logit")
    return tc.sigmoid_np(logits)


def compose_z(b: Tensor | None, r: Tensor | None) -> Tensor:
    """The embedding from the latents the model has: b*r, b alone, or r alone."""
    if b is None:
        return r
    return b if r is None else b * r
