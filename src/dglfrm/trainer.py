"""ELBO assembly, full-batch SGVB training, checkpointing, and scoring.

Held-out validation edges are never folded back into the train adjacency;
the train graph is fixed per split. Scoring uses deterministic posterior
means (flagged in the report) rather than Monte Carlo draws.
"""

from __future__ import annotations

import json
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
from .graphdata import Graph, SplitSpec, normalize_adjacency
from .tensor import NumericDomainError, Parameter, SparseMatrix, Tensor, UsageError


class ConfigError(ValueError):
    """Invalid training configuration."""


class CheckpointError(Exception):
    """Checkpoint file is corrupt, truncated, or incompatible."""


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
        md.ModelVariant.parse(self.variant)
        checks = [
            (self.k >= 1, f"k must be >= 1, got {self.k}"),
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

    @property
    def model_variant(self) -> md.ModelVariant:
        return md.ModelVariant.parse(self.variant)

    def features_used(self, g: Graph) -> bool:
        return self.use_features and g.features is not None

    def feature_term_enabled(self, g: Graph) -> bool:
        if self.feature_term is None:
            return self.features_used(g)
        if self.feature_term and g.features is None:
            raise ConfigError("feature_term requires node features")
        return self.feature_term

    def effective_hidden(self, g: Graph) -> int:
        if self.hidden is not None:
            return self.hidden
        return 32 if self.features_used(g) else 128

    def to_json(self) -> str:
        payload = asdict(self)
        payload["decoder_hidden"] = list(self.decoder_hidden)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"bad config JSON: {e}") from e
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "decoder_hidden" in payload:
            payload["decoder_hidden"] = tuple(payload["decoder_hidden"])
        return cls(**payload)


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
    scoring: str = "posterior-mean"

    def core(self) -> dict:
        """Deterministic content (everything except wall-clock)."""
        return {
            "losses": self.losses,
            "val_trace": self.val_trace,
            "best_epoch": self.best_epoch,
            "best_val_auc": self.best_val_auc,
            "diverged": self.diverged,
            "scoring": self.scoring,
        }

    def to_json(self) -> str:
        payload = dict(self.core())
        payload["wall_seconds"] = self.wall_seconds
        return json.dumps(payload, sort_keys=True, indent=2)


@dataclass(frozen=True)
class Checkpoint:
    config: TrainConfig
    params: dict[str, np.ndarray]
    step: int


@dataclass(frozen=True)
class StepNoise:
    """One training step's frozen randomness."""

    u_v: sl.ReparamNoise | None = None
    u_b: sl.ReparamNoise | None = None
    eps_r: np.ndarray | None = None


def draw_noise(
    rng: np.random.Generator, n: int, k: int, variant: md.ModelVariant, structured: bool
) -> StepNoise:
    u_v = u_b = eps_r = None
    if variant.uses_b:
        u_v = sl.ReparamNoise.uniform(rng, (1, k) if structured else (n, k))
        u_b = sl.ReparamNoise.uniform(rng, (n, k))
    if variant.uses_r:
        eps_r = rng.standard_normal((n, k))
    return StepNoise(u_v=u_v, u_b=u_b, eps_r=eps_r)


# ---------------------------------------------------------------------------
# Parameter assembly


def effective_graph(g: Graph, config: TrainConfig) -> Graph:
    """The graph as the encoder sees it (features stripped when unused)."""
    if config.features_used(g):
        return g
    if g.features is None:
        return g
    return Graph(n_nodes=g.n_nodes, adjacency=g.adjacency)


def init_params(g: Graph, config: TrainConfig, rng: np.random.Generator) -> md.ModelParams:
    variant = config.model_variant
    d_in = g.d_features if config.features_used(g) else g.n_nodes
    encoder = md.init_encoder(
        rng,
        d_in=d_in,
        hidden=config.effective_hidden(g),
        k=config.k,
        dropout=config.dropout,
    )
    decoder = md.init_decoder(rng, variant, config.k, hidden=config.decoder_hidden)
    feature_decoder = None
    if config.feature_term_enabled(g):
        feature_decoder = md.init_feature_decoder(rng, config.k, g.d_features)
    sticks = None
    if variant.uses_b and config.structured:
        sticks = md.init_global_sticks(config.k, config.alpha)
    return md.ModelParams(
        encoder=encoder,
        decoder=decoder,
        feature_decoder=feature_decoder,
        sticks=sticks,
    )


def labels_grid(split: SplitSpec) -> np.ndarray:
    """Training targets: train adjacency with the diagonal set to 1."""
    labels = split.train_adjacency.to_dense()
    np.fill_diagonal(labels, 1.0)
    return labels


def auto_pos_weight(labels: np.ndarray) -> float:
    nnz = float(labels.sum())
    total = float(labels.size)
    return (total - nnz) / nnz


# ---------------------------------------------------------------------------
# ELBO


def elbo_loss(
    g: Graph,
    a_hat: SparseMatrix,
    split: SplitSpec,
    params: md.ModelParams,
    config: TrainConfig,
    noise: StepNoise,
    *,
    kl_weight: float = 1.0,
    labels: np.ndarray | None = None,
    pos_weight: float | None = None,
    rng: np.random.Generator | None = None,
    train_mode: bool = True,
) -> tuple[Tensor, LossParts]:
    """Negative ELBO for one step; returns the scalar node plus components."""
    variant = config.model_variant
    if labels is None:
        labels = labels_grid(split)
    if pos_weight is None:
        pos_weight = (
            config.pos_weight if config.pos_weight is not None else auto_pos_weight(labels)
        )

    out = md.encode(effective_graph(g, config), a_hat, params.encoder, train_mode=train_mode, rng=rng)

    kl_b = kl_v = kl_r = None
    b = r = None
    if variant.uses_b:
        if noise.u_v is None or noise.u_b is None:
            raise UsageError("variant needs stick and membership noise")
        if config.structured:
            if params.sticks is None:
                raise UsageError("structured posterior needs global sticks")
            sticks_q = sl.KumaraswamyParams(params.sticks.c(), params.sticks.d())
        else:
            sticks_q = sl.KumaraswamyParams(out.c, out.d)
        v = sl.sample_kumaraswamy(sticks_q, noise.u_v)
        pi = sl.stick_breaking(v)
        prior_b = sl.ConcreteParams.from_pi(pi, config.lambda_prior)
        q_b = sl.ConcreteParams(out.pi_logits, config.lambda_post)
        b = sl.sample_binary_concrete(q_b, noise.u_b)
        kl_b = sl.kl_concrete_mc(q_b, prior_b, b)
        # structured sticks are global: their KL is counted once, not per node
        kl_v = sl.kl_kumaraswamy_beta(sticks_q, config.alpha)
    if variant.uses_r:
        if noise.eps_r is None:
            raise UsageError("variant needs gaussian noise")
        q_r = sl.GaussianParams(out.mu, out.log_sigma)
        r = sl.sample_gaussian(q_r, noise.eps_r)
        kl_r = sl.kl_gaussian_std(q_r, config.prior_r_sigma)

    z = md.compose_z(variant, sl.LatentSample(b=b, r=r))
    link_logits = md.decode_link_logits(z, params.decoder)
    link_nll = tc.weighted_bce_with_logits_sum(link_logits, labels, pos_weight)

    feat_nll = None
    if config.feature_term_enabled(g) and params.feature_decoder is not None:
        feat_logits = tc.matmul(z, params.feature_decoder.w)
        feat_nll = tc.weighted_bce_with_logits_sum(feat_logits, g.features.data, 1.0)

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


def _snapshot(params: md.ModelParams) -> dict[str, np.ndarray]:
    return {p.name: p.data.copy() for p in params.parameters()}


def train(g: Graph, split: SplitSpec, config: TrainConfig) -> tuple[Checkpoint, TrainReport]:
    """Full-batch SGVB; keeps the checkpoint with the best validation AUC."""
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    train_graph = Graph(
        n_nodes=g.n_nodes, adjacency=split.train_adjacency, features=g.features
    )
    a_hat = normalize_adjacency(train_graph)
    params = init_params(train_graph, config, rng)
    all_params = params.parameters()
    labels = labels_grid(split)
    pos_weight = (
        config.pos_weight if config.pos_weight is not None else auto_pos_weight(labels)
    )
    variant = config.model_variant
    val_pairs = list(split.val_pos) + list(split.val_neg)
    val_labels = np.concatenate(
        [np.ones(len(split.val_pos)), np.zeros(len(split.val_neg))]
    )

    report = TrainReport()
    best: dict[str, np.ndarray] = _snapshot(params)
    best_epoch = 0
    best_auc: float | None = None

    def validate(epoch: int) -> None:
        nonlocal best, best_epoch, best_auc
        if not val_pairs:
            return
        scores = _score_with_params(params, config, train_graph, a_hat, val_pairs)
        auc = mx.auc_roc(scores, val_labels)
        ap = mx.average_precision(scores, val_labels)
        report.val_trace.append({"epoch": float(epoch), "auc": auc, "ap": ap})
        if best_auc is None or auc > best_auc:
            best_auc = auc
            best_epoch = epoch
            best = _snapshot(params)

    for epoch in range(1, config.epochs + 1):
        if config.kl_anneal_epochs > 0:
            kl_weight = min(1.0, epoch / config.kl_anneal_epochs)
        else:
            kl_weight = 1.0
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                noise = draw_noise(rng, g.n_nodes, config.k, variant, config.structured)
                with tc.Tape() as tape:
                    loss, parts = elbo_loss(
                        train_graph,
                        a_hat,
                        split,
                        params,
                        config,
                        noise,
                        kl_weight=kl_weight,
                        labels=labels,
                        pos_weight=pos_weight,
                        rng=rng,
                        train_mode=True,
                    )
                    tc.backward(loss)
                tape.clear()
                tc.adam_step(all_params, lr=config.lr)
        except NumericDomainError:
            # divergence: the loss and adam_step raise before any parameter
            # changes, so params still hold the last good values
            report.diverged = True
            if best_auc is None:
                best = _snapshot(params)
                best_epoch = epoch - 1
            break
        report.losses.append(parts.as_dict())
        if epoch % config.val_every == 0 or epoch == config.epochs:
            validate(epoch)

    report.best_epoch = best_epoch
    report.best_val_auc = best_auc
    report.wall_seconds = time.perf_counter() - start
    ckpt = Checkpoint(config=config, params=best, step=best_epoch)
    return ckpt, report


# ---------------------------------------------------------------------------
# Posterior-mean evaluation


@dataclass(frozen=True)
class EvalLatents:
    """Deterministic posterior summaries used for scoring and communities."""

    b_prob: np.ndarray  # sigmoid of the encoder's membership logits
    mu: np.ndarray
    v_mean: np.ndarray  # Kumaraswamy posterior mean of the sticks
    pi_prior: np.ndarray  # stick products of v_mean
    z: Tensor
    variant: md.ModelVariant


def _compose_eval_z(variant: md.ModelVariant, b_prob: np.ndarray, mu: np.ndarray) -> Tensor:
    if variant is md.ModelVariant.DGLFRM:
        return Tensor(b_prob * mu)
    if variant.uses_b:
        return Tensor(b_prob)
    return Tensor(mu)


def _latents_from_params(
    params: md.ModelParams, config: TrainConfig, g: Graph, a_hat: SparseMatrix
) -> EvalLatents:
    out = md.encode(g, a_hat, params.encoder, train_mode=False)
    b_prob = tc.sigmoid(out.pi_logits).data
    mu = out.mu.data
    if config.structured and params.sticks is not None:
        c = params.sticks.c().data
        d = params.sticks.d().data
    else:
        c = out.c.data
        d = out.d.data
    v_mean = sl.kumaraswamy_mean(c, d)
    pi_prior = np.cumprod(v_mean, axis=1)
    variant = config.model_variant
    return EvalLatents(
        b_prob=b_prob,
        mu=mu,
        v_mean=v_mean,
        pi_prior=pi_prior,
        z=_compose_eval_z(variant, b_prob, mu),
        variant=variant,
    )


def rebuild_params(ckpt: Checkpoint) -> md.ModelParams:
    """Reconstruct a ModelParams tree from checkpoint arrays."""
    config = ckpt.config
    variant = config.model_variant
    store = ckpt.params

    def take(name: str) -> Parameter:
        if name not in store:
            raise CheckpointError(f"checkpoint missing parameter {name!r}")
        return Parameter(store[name], name)

    encoder = md.EncoderParams(
        w1=take("encoder.w1"),
        w_c=take("encoder.w_c"),
        w_d=take("encoder.w_d"),
        w_pi=take("encoder.w_pi"),
        w_mu=take("encoder.w_mu"),
        w_sigma=take("encoder.w_sigma"),
        dropout=config.dropout,
    )
    for head in (encoder.w_c, encoder.w_d, encoder.w_pi, encoder.w_mu, encoder.w_sigma):
        if head.shape[1] != config.k:
            raise CheckpointError(
                f"parameter {head.name} has {head.shape[1]} columns, config k={config.k}"
            )
    form = variant.decoder_form
    if form == "mlp":
        layers = []
        for i in range(len(config.decoder_hidden)):
            layers.append((take(f"decoder.mlp{i}.w"), take(f"decoder.mlp{i}.b")))
        decoder = md.DecoderParams(form="mlp", layers=tuple(layers))
    elif form == "bilinear":
        decoder = md.DecoderParams(form="bilinear", bilinear_w=take("decoder.bilinear"))
    else:
        decoder = md.DecoderParams(form="inner")
    feature_decoder = None
    if "feature_decoder.w" in store:
        feature_decoder = md.FeatureDecoderParams(w=take("feature_decoder.w"))
    sticks = None
    if "sticks.raw_c" in store:
        sticks = md.GlobalSticks(raw_c=take("sticks.raw_c"), raw_d=take("sticks.raw_d"))
    params = md.ModelParams(
        encoder=encoder,
        decoder=decoder,
        feature_decoder=feature_decoder,
        sticks=sticks,
    )
    expected = {p.name for p in params.parameters()}
    extra = set(store) - expected
    if extra:
        raise CheckpointError(f"checkpoint carries unexpected parameters: {sorted(extra)}")
    return params


def check_compatible(ckpt: Checkpoint, g: Graph) -> None:
    """Validate that a checkpoint can encode the given graph."""
    config = ckpt.config
    w1 = ckpt.params.get("encoder.w1")
    if w1 is None:
        raise CheckpointError("checkpoint missing parameter 'encoder.w1'")
    expected = g.d_features if config.features_used(g) else g.n_nodes
    if w1.shape[0] != expected:
        raise CheckpointError(
            f"checkpoint encoder expects {w1.shape[0]} input columns, graph supplies {expected}"
        )


def posterior_latents(ckpt: Checkpoint, g: Graph, a_hat: SparseMatrix) -> EvalLatents:
    check_compatible(ckpt, g)
    params = rebuild_params(ckpt)
    eff = effective_graph(g, ckpt.config)
    return _latents_from_params(params, ckpt.config, eff, a_hat)


def _score_with_params(
    params: md.ModelParams,
    config: TrainConfig,
    g: Graph,
    a_hat: SparseMatrix,
    pairs,
) -> np.ndarray:
    latents = _latents_from_params(params, config, effective_graph(g, config), a_hat)
    probs = md.decode_links(latents.z, params.decoder, pairs=pairs)
    return probs.data.copy()


def score_pairs(ckpt: Checkpoint, g: Graph, a_hat: SparseMatrix, pairs) -> np.ndarray:
    """Posterior-mean link probabilities for (u, v) pairs."""
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise UsageError(f"pairs must be (n, 2), got {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= g.n_nodes):
        raise UsageError(f"pair node id out of range for {g.n_nodes} nodes")
    if np.any(arr[:, 0] == arr[:, 1]):
        raise UsageError("pairs must have u != v")
    check_compatible(ckpt, g)
    params = rebuild_params(ckpt)
    return _score_with_params(params, ckpt.config, g, a_hat, arr)


def evaluate_split(ckpt: Checkpoint, g: Graph, split: SplitSpec) -> "mx.MetricsReport":
    """AUC/AP on the split's held-out test pairs."""
    a_hat = normalize_adjacency(
        Graph(n_nodes=g.n_nodes, adjacency=split.train_adjacency, features=g.features)
    )
    pairs = list(split.test_pos) + list(split.test_neg)
    labels = np.concatenate([np.ones(len(split.test_pos)), np.zeros(len(split.test_neg))])
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
_VERSION = 2


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    payload = bytearray()
    payload += _MAGIC
    payload += struct.pack("<I", _VERSION)
    payload += struct.pack("<Q", ckpt.step)
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
    Path(path).write_bytes(bytes(payload))


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
    (step,) = struct.unpack("<Q", read(8))
    (cfg_len,) = struct.unpack("<I", read(4))
    config = TrainConfig.from_json(read(cfg_len).decode("utf-8"))
    (n_params,) = struct.unpack("<I", read(4))
    params: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        (name_len,) = struct.unpack("<H", read(2))
        name = read(name_len).decode("utf-8")
        (ndim,) = struct.unpack("<B", read(1))
        shape = struct.unpack(f"<{ndim}I", read(4 * ndim))
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(read(8 * count), dtype="<f8").reshape(shape)
        params[name] = np.array(data, dtype=np.float64)
    if pos != len(body):
        raise CheckpointError(f"{path}: trailing bytes in checkpoint")
    ckpt = Checkpoint(config=config, params=params, step=step)
    rebuild_params(ckpt)  # shape/name consistency against the stored config
    return ckpt
