"""Per-layer self time for an in-process replay of the CLI.

The program is not instrumented. `traced()` temporarily replaces public
functions of the dglfrm modules with wrappers that open spans, and puts
the originals back on exit. Time is charged at every span boundary to the
innermost open span, so each bucket holds self time: a span's duration
minus the part of it covered by its child spans.

Training is split into phases by marker calls the trainer already makes:
`trainer.train` starts in "setup", the first `trainer.draw_noise` starts
"epoch", and `trainer._score_with_params` called during the epochs is
"validate". Model, sampler and tensor spans own their time only during
epochs; elsewhere (scoring at eval, posteriors for communities) their
time stays with the caller, such as `trainer.evaluate_split`. Inside
validation every span defers to `trainer.validate_s`, so the per-epoch
buckets add up to the traced epoch time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

GRAPHDATA = (
    "generate_synthetic",
    "make_splits",
    "load_edge_list",
    "save_edge_list",
    "load_split",
    "save_split",
    "load_features",
    "normalize_adjacency",
)
EPOCH_ONLY = {
    ("model", "encode"): "model.encode_s",
    ("model", "decode_link_logits"): "model.decode_link_logits_s",
    ("model", "decode_links"): "model.decode_link_logits_s",
    ("tensor", "weighted_bce_with_logits_sum"): "tensor.bce_s",
    ("tensor", "backward"): "tensor.backward_s",
    ("tensor", "adam_step"): "tensor.adam_step_s",
}
OUTSIDE_VALIDATION = {
    ("trainer", "save_checkpoint"): "trainer.save_checkpoint_s",
    ("trainer", "load_checkpoint"): "trainer.load_checkpoint_s",
    ("trainer", "evaluate_split"): "trainer.evaluate_split_s",
    ("metrics", "auc_roc"): "metrics.auc_ap_s",
    ("metrics", "average_precision"): "metrics.auc_ap_s",
    ("metrics", "extract_communities"): "metrics.extract_communities_s",
    **{("graphdata", name): f"graphdata.{name}_s" for name in GRAPHDATA},
}


class Tracer:
    """Self-time buckets plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.phase: str | None = None
        self._stack: list[str] = []
        self._last = time.perf_counter()

    def _charge(self) -> None:
        now = time.perf_counter()
        if self._stack:
            self.seconds[self._stack[-1]] += now - self._last
        self._last = now

    @contextmanager
    def span(self, bucket: str):
        self._charge()
        self._stack.append(bucket)
        try:
            yield
        finally:
            self._charge()
            self._stack.pop()

    def rebucket(self, bucket: str) -> None:
        """Charge the rest of the innermost span to another bucket."""
        self._charge()
        self._stack[-1] = bucket


def _nbytes(x) -> int:
    return int(np.asarray(getattr(x, "data", x)).nbytes)


def _count_bce(tracer: Tracer, args, _result) -> None:
    logits, targets = args[0], args[1]
    tracer.counts["tensor.bce_elements"] += np.size(getattr(logits, "data", logits))
    tracer.counts["tensor.bce_bytes"] += _nbytes(logits) + _nbytes(targets)


def _count_edges(tracer: Tracer, _args, graph) -> None:
    tracer.counts["graphdata.edges"] = max(tracer.counts["graphdata.edges"], graph.n_edges)


def _wrappers(tracer: Tracer, modules: dict) -> dict[tuple[str, str], object]:
    """(module, function name) -> wrapper, for every traced function.

    A function the program no longer has is skipped, and its bucket reads 0.
    """
    out = {}

    def wrap(key, make):
        fn = getattr(modules[key[0]], key[1], None)
        if fn is not None:
            out[key] = functools.wraps(fn)(make(fn))

    def span_when(bucket, when, count=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                if not when():
                    return fn(*args, **kwargs)
                with tracer.span(bucket):
                    result = fn(*args, **kwargs)
                if count is not None:
                    count(tracer, args, result)
                return result

            return wrapper

        return make

    in_epoch = lambda: tracer.phase == "epoch"  # noqa: E731
    not_validating = lambda: tracer.phase != "validate"  # noqa: E731
    stochastic = modules["stochastic"]
    for name, fn in vars(stochastic).items():
        if inspect.isfunction(fn) and fn.__module__ == stochastic.__name__ and not name.startswith("_"):
            wrap(("stochastic", name), span_when("stochastic.sample_kl_s", in_epoch))
    for key, bucket in EPOCH_ONLY.items():
        count = _count_bce if key[1] == "weighted_bce_with_logits_sum" else None
        wrap(key, span_when(bucket, in_epoch, count))
    for key, bucket in OUTSIDE_VALIDATION.items():
        count = _count_edges if key[1] == "load_edge_list" else None
        wrap(key, span_when(bucket, not_validating, count))
    wrap(("cli", "main"), span_when("cli.self_s", lambda: True))

    def train(fn):
        def wrapper(*args, **kwargs):
            tracer.phase = "setup"
            try:
                with tracer.span("trainer.setup_s"):
                    ckpt, report = fn(*args, **kwargs)
            finally:
                tracer.phase = None
            tracer.counts["train_calls"] += 1
            tracer.counts["epochs"] += len(report.losses)
            return ckpt, report

        return wrapper

    def first_noise_starts_epochs(fn):
        def wrapper(*args, **kwargs):
            if tracer.phase == "setup":
                tracer.rebucket("trainer.epoch_self_s")
                tracer.phase = "epoch"
            return fn(*args, **kwargs)

        return wrapper

    def validate(fn):
        def wrapper(*args, **kwargs):
            if tracer.phase != "epoch":
                return fn(*args, **kwargs)
            tracer.phase = "validate"
            try:
                with tracer.span("trainer.validate_s"):
                    return fn(*args, **kwargs)
            finally:
                tracer.phase = "epoch"

        return wrapper

    wrap(("trainer", "train"), train)
    wrap(("trainer", "draw_noise"), first_noise_starts_epochs)
    wrap(("trainer", "_score_with_params"), validate)
    return out


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers in every dglfrm module that binds the originals."""
    from dglfrm import cli, graphdata, metrics, model, stochastic, tensor, trainer

    modules = {
        "cli": cli,
        "graphdata": graphdata,
        "metrics": metrics,
        "model": model,
        "stochastic": stochastic,
        "tensor": tensor,
        "trainer": trainer,
    }
    replaced = []
    for (mod_name, fn_name), wrapper in _wrappers(tracer, modules).items():
        original = getattr(modules[mod_name], fn_name)
        # `from .graphdata import normalize_adjacency` binds a second name
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if value is original:
                    replaced.append((module, name, original))
                    setattr(module, name, wrapper)
    try:
        yield
    finally:
        for module, name, original in reversed(replaced):
            setattr(module, name, original)
