"""ELBO assembly, full-batch SGVB training, checkpointing, and scoring.

The train graph (the split's train adjacency with the graph's features,
never the held-out edges) is the one source of what training reads: the
encoder encodes its `effective_graph`, and the loss scores its edges and
features. A split that `graphdata.load_split` accepted lists every edge of
the graph once, in TRAIN or among the held-out positives, so the train graph
is the graph without them. Held-out pairs are (m, 2) int64 arrays, scored
positives first. The link likelihood is summed over all N x N node pairs by
`tensor.link_bce_sum`, which walks symmetric row blocks, and the feature
likelihood over all N x D entries by `tensor.feature_bce_sum`, so neither
grid is formed during training. Scoring uses deterministic posterior means
(flagged in the report) rather than Monte Carlo draws.

A step's randomness is one `StepNoise` of raw draws, which `draw_noise` takes
from the run's generator in field order: `u_v`, the stick uniforms ((1, k)
structured, (n, k) mean-field), `u_b`, the membership uniforms, and `eps_r`,
the strength standard normals (both (n, k)). A field is None, and nothing is
drawn for it, when the parameters lack the encoder head that calls for it.
The `stochastic` samplers take these arrays as they are.

Numeric faults are caught here, at the loss of each step and at the encoder
outputs of each scoring pass, and by `tensor.adam_step` at the gradients.
"""

from __future__ import annotations

import json
import math
import struct
import time
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import metrics as mx
from . import model as md
from . import stochastic as sl
from . import tensor as tc
from .graphdata import Graph, SplitSpec, normalize_adjacency, write_atomic
from .tensor import NumericDomainError, Parameter, SparseMatrix, Tensor, UsageError


class ConfigError(ValueError):
    """Invalid training configuration."""
    exit_code = 1


class CheckpointError(Exception):
    """Checkpoint file is corrupt, truncated, or incompatible."""
    exit_code = 2


@dataclass(frozen=True)
class TrainConfig:
    variant: str = "dglfrm"
    k: int = 50
    alpha: float = 10.0
    prior_r_sigma: float = 1.0
    lr: float = 0.01
    epochs: int = 500
    dropout: float = 0.5
    lambda_prior: float = 0.5
    lambda_post: float = 1.0
    seed: int = 0
    structured: bool = True
    use_features: bool = True
    feature_term: bool | None = None
    pos_weight: float | None = None
    hidden: int | None = None
    decoder_hidden: tuple[int, ...] = (32, 16)
    kl_anneal_epochs: int = 50
    val_every: int = 10

    def __post_init__(self) -> None:
        if not isinstance(self.variant, str) or self.variant not in md.VARIANTS:
            valid = ", ".join(md.VARIANTS)
            raise ConfigError(f"unknown variant {self.variant!r}; valid: {valid}")
        fields = self.__dataclass_fields__
        floats = {name: getattr(self, name) for name in fields if fields[name].type.startswith("float")}
        checks = [
            *(
                (v is None or math.isfinite(v), f"{name} must be finite, got {v}")
                for name, v in floats.items()
            ),
            (self.k >= 1, f"k must be >= 1, got {self.k}"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
            (self.alpha > 0, f"alpha must be > 0, got {self.alpha}"),
            (self.prior_r_sigma > 0, f"prior_r_sigma must be > 0, got {self.prior_r_sigma}"),
            (self.lr > 0, f"lr must be > 0, got {self.lr}"),
            (self.epochs >= 0, f"epochs must be >= 0, got {self.epochs}"),
            (0 <= self.dropout < 1, f"dropout must be in [0, 1), got {self.dropout}"),
            (self.lambda_prior > 0, f"lambda_prior must be > 0, got {self.lambda_prior}"),
            (self.lambda_post > 0, f"lambda_post must be > 0, got {self.lambda_post}"),
            (self.kl_anneal_epochs >= 0, "kl_anneal_epochs must be >= 0"),
            (self.val_every >= 1, "val_every must be >= 1"),
            (self.hidden is None or self.hidden >= 1, "hidden must be >= 1"),
            (
                all(h >= 1 for h in self.decoder_hidden),
                f"decoder_hidden must be positive, got {self.decoder_hidden}",
            ),
            (
                self.pos_weight is None or self.pos_weight > 0,
                f"pos_weight must be > 0, got {self.pos_weight}",
            ),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        object.__setattr__(self, "decoder_hidden", tuple(self.decoder_hidden))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"bad config JSON: {e}") from e
        if not isinstance(payload, dict):
            raise ConfigError(f"config JSON is not an object: {text!r}")
        fields = cls.__dataclass_fields__
        unknown = set(payload) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in payload.items():
            if not _json_value_fits(fields[key].type, value):
                raise ConfigError(f"config key {key!r} has a value of the wrong type: {value!r}")
        return cls(**payload)


def _json_value_fits(annotation: str, value) -> bool:
    """Whether a decoded JSON value has the type a TrainConfig annotation names."""
    base, _, optional = annotation.partition(" | ")
    if value is None:
        return optional == "None"
    if base == "tuple[int, ...]":
        return isinstance(value, list) and all(_json_value_fits("int", v) for v in value)
    kinds = {"str": str, "int": int, "float": (int, float), "bool": bool}[base]
    return isinstance(value, kinds) and (base == "bool") == isinstance(value, bool)


@dataclass(frozen=True)
class LossParts:
    """Per-epoch loss components; KLs are raw (pre-annealing) values."""

    total: float
    link_nll: float
    kl_b: float
    kl_r: float
    kl_v: float
    feat_nll: float
    kl_weight: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass
class TrainReport:
    losses: list[dict[str, float]] = field(default_factory=list)
    val_trace: list[dict[str, float]] = field(default_factory=list)
    best_epoch: int = 0
    best_val_auc: float | None = None
    wall_seconds: float = 0.0
    diverged: bool = False
    divergence: str = ""  # the failed check's message when diverged
    scoring: str = "posterior-mean"

    def core(self) -> dict:
        """Deterministic content (everything except wall-clock and the divergence message)."""
        return {k: v for k, v in asdict(self).items() if k not in ("wall_seconds", "divergence")}


@dataclass(frozen=True)
class Checkpoint:
    """Parameters with the config and train-graph counts that fix their shapes."""

    config: TrainConfig
    params: dict[str, np.ndarray]
    step: int
    n_nodes: int
    d_features: int  # 0 when the train graph had no features


@dataclass(frozen=True)
class StepNoise:
    """One training step's frozen randomness: the raw draws the module docstring lists."""

    u_v: np.ndarray | None = None
    u_b: np.ndarray | None = None
    eps_r: np.ndarray | None = None


def draw_noise(rng: np.random.Generator, n: int, k: int, names) -> StepNoise:
    """The arrays that parameters with these names use, drawn from rng in field order.

    Memberships come with "encoder.w_pi", their sticks per node with
    "encoder.w_c", and strengths with "encoder.w_mu".
    """
    u_v = u_b = eps_r = None
    if "encoder.w_pi" in names:
        u_v = rng.random((n, k) if "encoder.w_c" in names else (1, k))
        u_b = rng.random((n, k))
    if "encoder.w_mu" in names:
        eps_r = rng.standard_normal((n, k))
    return StepNoise(u_v=u_v, u_b=u_b, eps_r=eps_r)


# ---------------------------------------------------------------------------
# Parameter assembly


def _encoder_input(config: TrainConfig, n_nodes: int, d_features: int) -> tuple[bool, int]:
    """Whether the encoder reads features, and its input width, on a graph of these counts.

    It reads them when the config uses features and the graph has them; its
    input is then the D feature columns, else N identity columns.
    """
    reads = config.use_features and d_features > 0
    return reads, d_features if reads else n_nodes


def effective_graph(g: Graph, config: TrainConfig) -> Graph:
    """The graph as the encoder sees it (features stripped when it does not read them)."""
    reads, _ = _encoder_input(config, g.n_nodes, g.d_features)
    if reads or g.features is None:
        return g
    return Graph(n_nodes=g.n_nodes, adjacency=g.adjacency)


def _train_graph(g: Graph, split: SplitSpec) -> tuple[Graph, SparseMatrix]:
    """The split's train edges with g's features, and their normalized adjacency."""
    train_graph = Graph(n_nodes=g.n_nodes, adjacency=split.train_adjacency, features=g.features)
    return train_graph, normalize_adjacency(train_graph)


def model_shapes(config: TrainConfig, n_nodes: int, d_features: int) -> dict[str, tuple[int, int]]:
    """Every parameter's name and shape for a graph of n_nodes and d_features (0 for none).

    The encoder's input follows `_encoder_input`. Its hidden width defaults
    to 32 on features and 128 on identity input, and the feature term is on
    by default exactly when it reads features.
    """
    reads, d_in = _encoder_input(config, n_nodes, d_features)
    term = reads if config.feature_term is None else config.feature_term
    if term and not d_features:
        raise ConfigError("feature_term requires node features")
    return md.param_shapes(
        config.variant,
        config.structured,
        d_in=d_in,
        hidden=config.hidden or (32 if reads else 128),
        k=config.k,
        decoder_hidden=config.decoder_hidden,
        d_features=d_features if term else None,
    )


def init_params(g: Graph, config: TrainConfig, rng: np.random.Generator) -> dict[str, Parameter]:
    """Glorot weights, zero biases and global sticks at the prior Beta(alpha, 1).

    Weights are drawn in `model_shapes` order, except that a block is
    drawn for every encoder head, kept or not, so that the weights of a kept
    head and every later draw from rng (decoder, dropout masks, noise) do not
    depend on which heads the variant has.
    """
    shapes = model_shapes(config, g.n_nodes, g.d_features)
    data = {"encoder.w1": md.glorot_uniform(rng, *shapes["encoder.w1"])}
    for head in md.ENCODER_HEADS:
        data[f"encoder.w_{head}"] = md.glorot_uniform(rng, shapes["encoder.w1"][1], config.k)
    sticks = {"sticks.raw_c": config.alpha, "sticks.raw_d": 1.0}  # c and d at the prior
    for name, shape in shapes.items():
        if name in sticks:  # the raw value whose softplus plus the floor is the target
            data[name] = np.full(shape, np.log(np.expm1(sticks[name] - md.PARAM_FLOOR)))
        elif name.endswith(".b"):
            data[name] = np.zeros(shape)
        elif name not in data:
            data[name] = md.glorot_uniform(rng, *shape)
    return {name: Parameter(data[name], name) for name in shapes}


# ---------------------------------------------------------------------------
# ELBO


def elbo_loss(
    g: Graph,
    a_hat: SparseMatrix,
    params: dict[str, Parameter],
    config: TrainConfig,
    noise: StepNoise,
    *,
    kl_weight: float = 1.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, LossParts]:
    """Negative ELBO for one step on the train graph `g`; returns the scalar node plus components.

    The encoder reads `effective_graph(g, config)` and `a_hat`, dropping units
    at the config's rate with masks from `rng`. The link term is the weighted
    BCE of every node pair against `g`'s adjacency plus the diagonal, the
    feature term against `g`'s features. Unless the config sets it, the
    positive weight balances the two link classes: negatives / positives.
    The encoder's heads decide the latents (`b` with "pi", per-node sticks with
    "c", `r` with "mu"), and `noise` holds `draw_noise`'s draws for them.
    """
    pos_weight = config.pos_weight
    if pos_weight is None:
        n = g.n_nodes
        positives = g.adjacency.nnz + n
        pos_weight = (n * n - positives) / positives

    out = md.encode(effective_graph(g, config), a_hat, params, config.dropout, rng)

    kl_b = kl_v = kl_r = None
    b = r = None
    if "pi" in out:
        if "c" in out:
            c, d = out["c"], out["d"]
        else:  # structured: the sticks are global parameters
            c = tc.softplus(params["sticks.raw_c"]) + md.PARAM_FLOOR
            d = tc.softplus(params["sticks.raw_d"]) + md.PARAM_FLOOR
        pi = sl.stick_breaking(sl.sample_kumaraswamy(c, d, noise.u_v))
        prior_logit = sl.concrete_logit(pi)
        b = sl.sample_binary_concrete(out["pi"], config.lambda_post, noise.u_b)
        kl_b = sl.kl_concrete_mc(b, out["pi"], config.lambda_post, prior_logit, config.lambda_prior)
        # structured sticks are global: their KL is counted once, not per node
        kl_v = sl.kl_kumaraswamy_beta(c, d, config.alpha)
    if "mu" in out:
        r = sl.sample_gaussian(out["mu"], out["sigma"], noise.eps_r)
        kl_r = sl.kl_gaussian_std(out["mu"], out["sigma"], config.prior_r_sigma)

    z = md.compose_z(b, r)
    left, right = md.link_factors(z, params)
    link_nll = tc.link_bce_sum(left, right, g.adjacency, pos_weight)

    feat_nll = None
    if "feature_decoder.w" in params:
        feat_nll = tc.feature_bce_sum(z, params["feature_decoder.w"], g.features)

    loss = link_nll
    if feat_nll is not None:
        loss = loss + feat_nll
    kl_sum = None
    for term in (kl_b, kl_r, kl_v):
        if term is not None:
            kl_sum = term if kl_sum is None else kl_sum + term
    if kl_sum is not None:
        loss = loss + kl_sum * kl_weight

    parts = LossParts(
        total=loss.item(),
        link_nll=link_nll.item(),
        kl_b=kl_b.item() if kl_b is not None else 0.0,
        kl_r=kl_r.item() if kl_r is not None else 0.0,
        kl_v=kl_v.item() if kl_v is not None else 0.0,
        feat_nll=feat_nll.item() if feat_nll is not None else 0.0,
        kl_weight=kl_weight,
    )
    if not np.isfinite(parts.total):
        raise NumericDomainError(f"non-finite loss: {parts.as_dict()}")
    return loss, parts


# ---------------------------------------------------------------------------
# Training


def _snapshot(params: dict[str, Parameter]) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in params.items()}


def _held_out(pos: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positive then the negative pairs as one (m, 2) array, with labels 1 then 0."""
    return np.concatenate([pos, neg]), np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])


def train(g: Graph, split: SplitSpec, config: TrainConfig) -> tuple[Checkpoint, TrainReport]:
    """Full-batch SGVB; keeps the checkpoint with the best validation AUC.

    A split without validation pairs keeps the parameters of the last epoch.
    A numeric failure stops training with the best validated parameters,
    else the last good ones; a failed first validation leaves none and raises.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    train_graph, a_hat = _train_graph(g, split)
    params = init_params(train_graph, config, rng)
    encoder_graph = effective_graph(train_graph, config)
    val_pairs, val_labels = _held_out(split.val_pos, split.val_neg)

    report = TrainReport()
    best: dict[str, np.ndarray] = {}

    def validate(epoch: int) -> None:
        nonlocal best
        if not len(val_pairs):
            return
        scores = _score_with_params(params, encoder_graph, a_hat, val_pairs)
        auc = mx.auc_roc(scores, val_labels)
        ap = mx.average_precision(scores, val_labels)
        report.val_trace.append({"epoch": float(epoch), "auc": auc, "ap": ap})
        if report.best_val_auc is None or auc > report.best_val_auc:
            report.best_val_auc, report.best_epoch = auc, epoch
            best = _snapshot(params)

    for epoch in range(1, config.epochs + 1):
        if config.kl_anneal_epochs > 0:
            kl_weight = min(1.0, epoch / config.kl_anneal_epochs)
        else:
            kl_weight = 1.0
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                noise = draw_noise(rng, g.n_nodes, config.k, params)
                with tc.Tape() as tape:
                    loss, parts = elbo_loss(
                        train_graph,
                        a_hat,
                        params,
                        config,
                        noise,
                        kl_weight=kl_weight,
                        rng=rng,
                    )
                    tc.backward(loss)
                tape.clear()
                tc.adam_step(params.values(), lr=config.lr)
                report.losses.append(parts.as_dict())
                if epoch % config.val_every == 0 or epoch == config.epochs:
                    validate(epoch)
        except NumericDomainError as e:
            # The loss and adam_step raise before any parameter changes, so
            # params still hold the last good values. A failed validation
            # finds them already changed: only a validated snapshot is good.
            if len(report.losses) == epoch and report.best_val_auc is None:
                raise
            report.diverged, report.divergence = True, str(e)
            break

    if report.best_val_auc is None:  # nothing was validated: keep the last parameters
        best = _snapshot(params)
        report.best_epoch = len(report.losses)
    report.wall_seconds = time.perf_counter() - start
    ckpt = Checkpoint(config, best, report.best_epoch, train_graph.n_nodes, train_graph.d_features)
    return ckpt, report


# ---------------------------------------------------------------------------
# Posterior-mean evaluation


@dataclass(frozen=True)
class EvalLatents:
    """Deterministic posterior summaries used for scoring and communities.

    `b_prob` and `mu` are None for a variant without that latent.
    """

    b_prob: np.ndarray | None  # sigmoid of the encoder's membership logits
    mu: np.ndarray | None
    z: Tensor


def _latents_from_params(params: dict[str, Tensor], g: Graph, a_hat: SparseMatrix) -> EvalLatents:
    """Posterior means on `g` as the encoder sees it; overflow is quiet, as each head's output is checked."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = md.encode(g, a_hat, params)
    for head, value in out.items():
        if not np.all(np.isfinite(value.data)):
            raise NumericDomainError(f"encoder head {head}: non-finite output")
    b = tc.sigmoid(out["pi"]) if "pi" in out else None
    r = out.get("mu")
    return EvalLatents(
        b_prob=None if b is None else b.data,
        mu=None if r is None else r.data,
        z=md.compose_z(b, r),
    )


def rebuild_params(ckpt: Checkpoint) -> dict[str, Tensor]:
    """The checkpoint's arrays, uncopied, as constant tensors checked against `model_shapes`.

    Any missing, extra or mis-shaped parameter raises CheckpointError.
    """
    store = ckpt.params
    shapes = model_shapes(ckpt.config, ckpt.n_nodes, ckpt.d_features)
    missing = [name for name in shapes if name not in store]
    if missing:
        raise CheckpointError(f"checkpoint missing parameter {missing[0]!r}")
    extra = sorted(set(store) - set(shapes))
    if extra:
        raise CheckpointError(f"checkpoint carries unexpected parameters: {extra}")
    for name, shape in shapes.items():
        if store[name].shape != shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {store[name].shape}, "
                f"the stored config and counts imply {shape}"
            )
    return {name: Tensor(store[name]) for name in shapes}


def _scoring_inputs(ckpt: Checkpoint, g: Graph) -> tuple[dict[str, Tensor], Graph]:
    """The checkpoint's checked parameters and `g` as their encoder sees it.

    `g` fits when it gives the encoder the input that the checkpoint's counts
    gave it, features or identity columns, of the same width; otherwise
    CheckpointError.
    """
    params = rebuild_params(ckpt)
    expects = _encoder_input(ckpt.config, ckpt.n_nodes, ckpt.d_features)
    supplies = _encoder_input(ckpt.config, g.n_nodes, g.d_features)
    if supplies != expects:
        kind = ("identity", "features")
        raise CheckpointError(
            f"checkpoint encoder expects {expects[1]} input columns, graph supplies {supplies[1]} "
            f"(encoder input: checkpoint {kind[expects[0]]}, graph {kind[supplies[0]]})"
        )
    return params, effective_graph(g, ckpt.config)


def posterior_latents(ckpt: Checkpoint, g: Graph, a_hat: SparseMatrix) -> EvalLatents:
    params, encoder_graph = _scoring_inputs(ckpt, g)
    return _latents_from_params(params, encoder_graph, a_hat)


def _score_with_params(
    params: dict[str, Tensor], encoder_graph: Graph, a_hat: SparseMatrix, pairs
) -> np.ndarray:
    """Posterior-mean link probabilities of `pairs`; `encoder_graph` is the graph as the encoder sees it.

    `params` are live in validation, else `rebuild_params`'s constants. Overflow
    is not warned about: the encoder outputs and the link logits are checked.
    """
    latents = _latents_from_params(params, encoder_graph, a_hat)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return md.decode_links(latents.z, params, pairs=pairs)


def score_pairs(ckpt: Checkpoint, g: Graph, a_hat: SparseMatrix, pairs) -> np.ndarray:
    """Posterior-mean link probabilities for (u, v) pairs."""
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise UsageError(f"pairs must be (n, 2), got {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= g.n_nodes):
        raise UsageError(f"pair node id out of range for {g.n_nodes} nodes")
    if np.any(arr[:, 0] == arr[:, 1]):
        raise UsageError("pairs must have u != v")
    params, encoder_graph = _scoring_inputs(ckpt, g)
    return _score_with_params(params, encoder_graph, a_hat, arr)


def evaluate_split(ckpt: Checkpoint, g: Graph, split: SplitSpec) -> "mx.MetricsReport":
    """AUC/AP on the split's held-out test pairs."""
    _, a_hat = _train_graph(g, split)
    pairs, labels = _held_out(split.test_pos, split.test_neg)
    scores = score_pairs(ckpt, g, a_hat, pairs)
    return mx.MetricsReport(
        auc=mx.auc_roc(scores, labels),
        ap=mx.average_precision(scores, labels),
        n_pos=len(split.test_pos),
        n_neg=len(split.test_neg),
        split_seed=split.seed,
    )


# ---------------------------------------------------------------------------
# Checkpoint serialization

_MAGIC = b"DGLFRMCK"
_VERSION = 4


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    payload = bytearray()
    payload += _MAGIC
    payload += struct.pack("<I", _VERSION)
    payload += struct.pack("<QII", ckpt.step, ckpt.n_nodes, ckpt.d_features)
    cfg = ckpt.config.to_json().encode("utf-8")
    payload += struct.pack("<I", len(cfg)) + cfg
    names = sorted(ckpt.params)
    payload += struct.pack("<I", len(names))
    for name in names:
        arr = np.asarray(ckpt.params[name], dtype="<f8")
        encoded = name.encode("utf-8")
        payload += struct.pack("<H", len(encoded)) + encoded
        payload += struct.pack("<B", arr.ndim)
        payload += struct.pack(f"<{arr.ndim}I", *arr.shape)
        payload += arr.tobytes()
    payload += struct.pack("<I", zlib.crc32(bytes(payload)))
    write_atomic(path, bytes(payload))


def load_checkpoint(path) -> Checkpoint:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read {path}: {e}") from e
    if len(raw) < len(_MAGIC) + 8 or raw[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    body, (crc_stored,) = raw[:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) != crc_stored:
        raise CheckpointError(f"{path}: checksum mismatch (corrupt checkpoint)")

    pos = len(_MAGIC)

    def read(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(body):
            raise CheckpointError(f"{path}: truncated checkpoint")
        chunk = body[pos : pos + n]
        pos += n
        return chunk

    (version,) = struct.unpack("<I", read(4))
    if version != _VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version}, this build supports {_VERSION}"
        )
    step, n_nodes, d_features = struct.unpack("<QII", read(16))
    (cfg_len,) = struct.unpack("<I", read(4))
    try:
        config = TrainConfig.from_json(read(cfg_len).decode("utf-8"))
    except (UnicodeDecodeError, ConfigError) as e:
        raise CheckpointError(f"{path}: bad stored config: {e}") from e
    (n_params,) = struct.unpack("<I", read(4))
    params: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        (name_len,) = struct.unpack("<H", read(2))
        try:
            name = read(name_len).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: parameter name is not UTF-8: {e}") from e
        if name in params:
            raise CheckpointError(f"{path}: parameter {name!r} listed twice")
        (ndim,) = struct.unpack("<B", read(1))
        shape = struct.unpack(f"<{ndim}I", read(4 * ndim))
        data = np.frombuffer(read(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        params[name] = np.array(data, dtype=np.float64)
    if pos != len(body):
        raise CheckpointError(f"{path}: trailing bytes in checkpoint")
    ckpt = Checkpoint(config, params, step, n_nodes, d_features)
    try:
        rebuild_params(ckpt)  # names and shapes against the stored config and counts
    except (CheckpointError, ConfigError) as e:
        raise CheckpointError(f"{path}: {e}") from e
    return ckpt
