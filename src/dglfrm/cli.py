"""Command-line surface: synth, split, train, eval, communities.

Every command writes a manifest (input digests, resolved options, seed)
next to its primary output so any result can be reproduced bit-exactly.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure;
each error class carries its code. Only train, eval and communities import
the model stack and its compiled sparse kernel, so synth and split start faster.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import logging
import os
import sys
from pathlib import Path

# One BLAS thread unless the caller set a count, before numpy loads: row blocks already use every CPU.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import __version__  # noqa: E402
from . import graphdata as gd  # noqa: E402
from .graphdata import Graph, LoadError, SplitError  # noqa: E402

logger = logging.getLogger(__name__)


def _write_manifest(args: argparse.Namespace, prefix, outputs: list) -> None:
    """Write `<prefix>.manifest.json` for the command that `args` ran.

    It records the resolved options, the seed (None for a command without
    one), the outputs, and a digest of each input the command has among
    --ckpt, --graph, --features and --split; an empty --features is skipped.
    """
    inputs = {}
    for name in ("ckpt", "graph", "features", "split"):
        path = getattr(args, name, None)
        if path:
            inputs[str(path)] = "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()
    options = {
        k: str(v) if isinstance(v, Path) else v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "command")
    }
    payload = {
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "options": options,
        "inputs": inputs,
        "outputs": [str(p) for p in outputs],
        "tool": "dglfrm",
        "version": __version__,
    }
    gd.write_atomic(str(prefix) + ".manifest.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_graph(graph_path, features_path) -> Graph:
    g = gd.load_edge_list(graph_path)
    if features_path is not None:
        x = gd.load_features(features_path, g.n_nodes)
        g = Graph(n_nodes=g.n_nodes, adjacency=g.adjacency, features=x)
    return g


def _load_split(path, g: Graph, held_out: str) -> gd.SplitSpec:
    """The split of `g` at `path`, with usable `held_out` pairs.

    `gd.load_split` decides whether the split fits `g`; this adds what each
    command needs of its held-out pairs. `held_out` is "VAL" for train, which
    runs without validation when both VAL sections are empty, or "TEST" for
    eval, which needs both TEST sections.
    """
    split = gd.load_split(path, g)
    pos, neg = (split.val_pos, split.val_neg) if held_out == "VAL" else (split.test_pos, split.test_neg)
    empty = [f"{held_out}_{name}" for name, pairs in (("POS", pos), ("NEG", neg)) if not len(pairs)]
    if held_out == "VAL" and len(empty) == 1:
        raise LoadError(f"{path}: {empty[0]} is empty; validation needs both VAL sections or neither")
    if held_out == "TEST" and empty:
        raise LoadError(f"{path}: {empty[0]} is empty; eval needs test positives and negatives")
    return split


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> None:
    g, memberships = gd.generate_synthetic(args.nodes, args.communities, args.seed)
    prefix = str(args.out_prefix)
    edges_path = prefix + ".edges.txt"
    members_path = prefix + ".memberships.txt"
    gd.save_edge_list(g, edges_path)
    gd.save_memberships(memberships, members_path)
    _write_manifest(args, edges_path, [edges_path, members_path])
    print(f"wrote {edges_path} ({g.n_edges} edges), {members_path}")


def cmd_split(args) -> None:
    # range checks before any file is opened
    for name, frac in (("test-frac", args.test_frac), ("val-frac", args.val_frac)):
        if not 0.0 < frac < 1.0:
            raise SplitError(f"--{name} must be in (0, 1), got {frac}")
    g = _load_graph(args.graph, args.features)
    split = gd.make_splits(g, test_frac=args.test_frac, val_frac=args.val_frac, seed=args.seed)
    gd.save_split(split, g, args.out)
    _write_manifest(args, args.out, [args.out])
    print(
        f"wrote {args.out}: {len(split.test_pos)} test, {len(split.val_pos)} val positives"
    )


def _decoder_hidden(text: str) -> tuple[int, ...]:
    from .trainer import ConfigError

    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as e:
        raise ConfigError(f"--decoder-hidden expects comma-separated ints, got {text!r}") from e


def _seed(text: str) -> int:
    """A --seed value, refused by the parser when negative: numpy seeds are non-negative."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _feature_term(choice: str) -> bool | None:
    return {"auto": None, "on": True, "off": False}[choice]


def cmd_train(args) -> None:
    from . import trainer

    # config is validated before any input file is read
    config = trainer.TrainConfig(
        variant=args.variant,
        k=args.k,
        alpha=args.alpha,
        prior_r_sigma=args.prior_sigma,
        lr=args.lr,
        epochs=args.epochs,
        dropout=args.dropout,
        lambda_prior=args.lambda_prior,
        lambda_post=args.lambda_post,
        seed=args.seed,
        structured=not args.mean_field,
        use_features=not args.identity_features,
        feature_term=_feature_term(args.feature_term),
        pos_weight=args.pos_weight,
        hidden=args.hidden,
        decoder_hidden=_decoder_hidden(args.decoder_hidden),
        kl_anneal_epochs=args.kl_anneal_epochs,
        val_every=args.val_every,
    )
    g = _load_graph(args.graph, args.features)
    split = _load_split(args.split, g, "VAL")
    ckpt, report = trainer.train(g, split, config)
    trainer.save_checkpoint(ckpt, args.out_ckpt)
    report_path = str(args.out_ckpt) + ".report.json"
    # wall-clock stays out of the file so replays are bit-exact; it is logged
    gd.write_atomic(report_path, json.dumps(report.core(), sort_keys=True, indent=2) + "\n")
    logger.info("training wall time: %.2fs", report.wall_seconds)
    _write_manifest(args, args.out_ckpt, [args.out_ckpt, report_path])
    last = report.losses[-1]["total"] if report.losses else float("nan")
    best = report.best_val_auc
    print(
        f"wrote {args.out_ckpt}: {len(report.losses)} epochs, "
        f"final loss {last:.4f}, best val auc {best if best is None else round(best, 4)}"
    )
    if report.diverged:
        print(
            f"warning: training diverged ({report.divergence}); "
            "checkpoint holds the best validated, else the last good parameters"
        )


def cmd_eval(args) -> None:
    from . import trainer

    ckpt = trainer.load_checkpoint(args.ckpt)
    g = _load_graph(args.graph, args.features)
    split = _load_split(args.split, g, "TEST")
    report = trainer.evaluate_split(ckpt, g, split)
    out = str(args.out) if args.out else str(args.ckpt) + ".metrics"
    text_path, json_path = out + ".txt", out + ".json"
    gd.write_atomic(text_path, report.to_text())
    gd.write_atomic(json_path, report.to_json() + "\n")
    _write_manifest(args, out, [text_path, json_path])
    print(report.to_text(), end="")


def cmd_communities(args) -> None:
    from . import metrics as mx
    from . import trainer
    from .tensor import UsageError

    if not 0.0 < args.tau <= 1.0:
        raise UsageError(f"--tau must be in (0, 1], got {args.tau}")
    if args.min_members < 1:
        raise UsageError(f"--min-members must be >= 1, got {args.min_members}")
    ckpt = trainer.load_checkpoint(args.ckpt)
    if "encoder.w_pi" not in ckpt.params:
        raise UsageError(f"variant {ckpt.config.variant} has no membership posteriors to threshold")
    g = _load_graph(args.graph, args.features)
    a_hat = gd.normalize_adjacency(g)
    latents = trainer.posterior_latents(ckpt, g, a_hat)
    assignment = mx.extract_communities(latents, args.tau)
    out = str(args.out)
    gd.write_atomic(out, mx.format_communities(assignment))
    outputs = [out]

    if args.export_latent:
        text = io.StringIO()
        np.savetxt(text, latents.z.data, delimiter=",", fmt="%.17g")
        gd.write_atomic(args.export_latent, text.getvalue())
        outputs.append(str(args.export_latent))
    _write_manifest(args, out, outputs)
    active = mx.active_communities(assignment, args.min_members)
    print(
        f"wrote {out}: {active} active communities, "
        f"{assignment.n_unassigned} unassigned nodes"
    )


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dglfrm",
        description="Sparse latent-feature graph VAE: train, evaluate, inspect.",
    )
    parser.add_argument("--version", action="version", version=f"dglfrm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic overlapping-community graph")
    p.add_argument("--nodes", type=int, default=100)
    p.add_argument("--communities", type=int, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="hold out edges for validation and test")
    p.add_argument("--graph", required=True)
    p.add_argument("--features", default=None)
    p.add_argument("--test-frac", type=float, default=0.10)
    p.add_argument("--val-frac", type=float, default=0.05)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model variant on a split")
    p.add_argument("--graph", required=True)
    p.add_argument("--features", default=None)
    p.add_argument("--split", required=True)
    p.add_argument(
        "--variant",
        default="dglfrm",
        choices=["dglfrm", "dglfrm-b", "lfrm", "lsm", "vgae"],  # model.VARIANTS, kept out of start-up
    )
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--alpha", type=float, default=10.0)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-ckpt", required=True)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--decoder-hidden", default="32,16", help="comma list, empty for none")
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--prior-sigma", type=float, default=1.0)
    p.add_argument("--lambda-prior", type=float, default=0.5)
    p.add_argument("--lambda-post", type=float, default=1.0)
    p.add_argument("--pos-weight", type=float, default=None)
    p.add_argument("--mean-field", action="store_true", help="per-node stick posteriors")
    p.add_argument(
        "--identity-features",
        action="store_true",
        help="ignore node features in the encoder",
    )
    p.add_argument("--feature-term", choices=["auto", "on", "off"], default="auto")
    p.add_argument("--kl-anneal-epochs", type=int, default=50)
    p.add_argument("--val-every", type=int, default=10)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score held-out pairs from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--features", default=None)
    p.add_argument("--split", required=True)
    p.add_argument("--out", default=None, help="output prefix (default: <ckpt>.metrics)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("communities", help="threshold memberships into communities")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--features", default=None)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--min-members", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--export-latent", default=None, help="write the latent matrix as CSV")
    p.set_defaults(func=cmd_communities)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("DGLFRM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        args.func(args)
    except Exception as e:
        code = 2 if isinstance(e, (OSError, MemoryError)) else getattr(e, "exit_code", None)
        if code is None:
            raise
        print(f"{'numeric failure' if code == 3 else 'error'}: {str(e) or type(e).__name__}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
