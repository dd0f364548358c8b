"""Command-line surface: synth, split, train, eval, communities.

Every command writes a RunManifest (input digests, resolved options, seed)
next to its primary output so any result can be reproduced bit-exactly.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import graphdata as gd
from . import metrics as mx
from . import trainer
from .graphdata import Graph, LoadError, SplitError
from .tensor import NumericDomainError, ShapeError, UsageError
from .trainer import CheckpointError, ConfigError, TrainConfig

logger = logging.getLogger(__name__)


@dataclass
class RunManifest:
    command: str
    seed: int | None
    options: dict
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    tool: str = "dglfrm"
    version: str = __version__

    def add_input(self, path) -> None:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        self.inputs[str(path)] = f"sha256:{digest}"

    def write(self, primary_output) -> Path:
        path = Path(str(primary_output) + ".manifest.json")
        payload = {
            "tool": self.tool,
            "version": self.version,
            "command": self.command,
            "seed": self.seed,
            "options": self.options,
            "inputs": self.inputs,
            "outputs": [str(p) for p in self.outputs],
        }
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return path


def _resolved_options(args: argparse.Namespace) -> dict:
    skip = {"func", "command"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(value, Path):
            value = str(value)
        out[key] = value
    return out


def _load_graph(graph_path, features_path) -> Graph:
    g = gd.load_edge_list(graph_path)
    if features_path is not None:
        x = gd.load_features(features_path, g.n_nodes)
        g = Graph(n_nodes=g.n_nodes, adjacency=g.adjacency, features=x)
    return g


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> None:
    spec = gd.SyntheticSpec(
        n_nodes=args.nodes, n_communities=args.communities, seed=args.seed
    )
    g, memberships = gd.generate_synthetic(spec)
    prefix = str(args.out_prefix)
    edges_path = prefix + ".edges.txt"
    members_path = prefix + ".memberships.txt"
    gd.save_edge_list(g, edges_path)

    lines = [f"# nodes {g.n_nodes}", f"# communities {args.communities}"]
    for node in range(g.n_nodes):
        ks = " ".join(str(k) for k in np.flatnonzero(memberships[node]))
        lines.append(f"{node} {ks}".rstrip())
    Path(members_path).write_text("\n".join(lines) + "\n")

    manifest = RunManifest("synth", args.seed, _resolved_options(args))
    manifest.outputs = [edges_path, members_path]
    manifest.write(edges_path)
    print(f"wrote {edges_path} ({g.n_edges} edges), {members_path}")


def cmd_split(args) -> None:
    # range checks before any file is opened
    for name, frac in (("test-frac", args.test_frac), ("val-frac", args.val_frac)):
        if not 0.0 < frac < 1.0:
            raise SplitError(f"--{name} must be in (0, 1), got {frac}")
    g = _load_graph(args.graph, args.features)
    split = gd.make_splits(g, test_frac=args.test_frac, val_frac=args.val_frac, seed=args.seed)
    gd.save_split(split, args.out)

    manifest = RunManifest("split", args.seed, _resolved_options(args))
    manifest.add_input(args.graph)
    if args.features:
        manifest.add_input(args.features)
    manifest.outputs = [str(args.out)]
    manifest.write(args.out)
    print(
        f"wrote {args.out}: {len(split.test_pos)} test, {len(split.val_pos)} val positives"
    )


def _decoder_hidden(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as e:
        raise ConfigError(f"--decoder-hidden expects comma-separated ints, got {text!r}") from e


def _feature_term(choice: str) -> bool | None:
    return {"auto": None, "on": True, "off": False}[choice]


def cmd_train(args) -> None:
    # config is validated before any input file is read
    config = TrainConfig(
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
        kl_anneal_epochs=0 if args.no_kl_anneal else args.kl_anneal_epochs,
        val_every=args.val_every,
    )
    g = _load_graph(args.graph, args.features)
    split = gd.load_split(args.split)
    if split.n_nodes != g.n_nodes:
        raise LoadError(
            f"split has {split.n_nodes} nodes, graph has {g.n_nodes}"
        )
    ckpt, report = trainer.train(g, split, config)
    trainer.save_checkpoint(ckpt, args.out_ckpt)
    report_path = str(args.out_ckpt) + ".report.json"
    # wall-clock stays out of the file so replays are bit-exact; it is logged
    Path(report_path).write_text(
        json.dumps(report.core(), sort_keys=True, indent=2) + "\n"
    )
    logger.info("training wall time: %.2fs", report.wall_seconds)

    manifest = RunManifest("train", args.seed, _resolved_options(args))
    manifest.add_input(args.graph)
    if args.features:
        manifest.add_input(args.features)
    manifest.add_input(args.split)
    manifest.outputs = [str(args.out_ckpt), report_path]
    manifest.write(args.out_ckpt)
    last = report.losses[-1]["total"] if report.losses else float("nan")
    best = report.best_val_auc
    print(
        f"wrote {args.out_ckpt}: {len(report.losses)} epochs, "
        f"final loss {last:.4f}, best val auc {best if best is None else round(best, 4)}"
    )
    if report.diverged:
        print("warning: training diverged; checkpoint holds the last good parameters")


def cmd_eval(args) -> None:
    ckpt = trainer.load_checkpoint(args.ckpt)
    g = _load_graph(args.graph, args.features)
    split = gd.load_split(args.split)
    if split.n_nodes != g.n_nodes:
        raise LoadError(f"split has {split.n_nodes} nodes, graph has {g.n_nodes}")
    report = trainer.evaluate_split(ckpt, g, split)
    out = str(args.out) if args.out else str(args.ckpt) + ".metrics"
    text_path, json_path = out + ".txt", out + ".json"
    Path(text_path).write_text(report.to_text())
    Path(json_path).write_text(report.to_json() + "\n")

    manifest = RunManifest("eval", None, _resolved_options(args))
    for p in (args.ckpt, args.graph, args.split):
        manifest.add_input(p)
    if args.features:
        manifest.add_input(args.features)
    manifest.outputs = [text_path, json_path]
    manifest.write(out)
    print(report.to_text(), end="")


def cmd_communities(args) -> None:
    if not 0.0 < args.tau <= 1.0:
        raise UsageError(f"--tau must be in (0, 1], got {args.tau}")
    if args.min_members < 1:
        raise UsageError(f"--min-members must be >= 1, got {args.min_members}")
    ckpt = trainer.load_checkpoint(args.ckpt)
    g = _load_graph(args.graph, args.features)
    assignment = mx.extract_communities(ckpt, g, args.tau)
    out = str(args.out)
    Path(out).write_text(mx.format_communities(assignment))
    outputs = [out]

    if args.export_latent:
        a_hat = gd.normalize_adjacency(trainer.effective_graph(g, ckpt.config))
        latents = trainer.posterior_latents(ckpt, g, a_hat)
        np.savetxt(args.export_latent, latents.z.data, delimiter=",", fmt="%.17g")
        outputs.append(str(args.export_latent))

    manifest = RunManifest("communities", None, _resolved_options(args))
    manifest.add_input(args.ckpt)
    manifest.add_input(args.graph)
    if args.features:
        manifest.add_input(args.features)
    manifest.outputs = outputs
    manifest.write(out)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="hold out edges for validation and test")
    p.add_argument("--graph", required=True)
    p.add_argument("--features", default=None)
    p.add_argument("--test-frac", type=float, default=0.10)
    p.add_argument("--val-frac", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model variant on a split")
    p.add_argument("--graph", required=True)
    p.add_argument("--features", default=None)
    p.add_argument("--split", required=True)
    p.add_argument(
        "--variant",
        default="dglfrm",
        choices=["dglfrm", "dglfrm-b", "lfrm", "lsm", "vgae"],
    )
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--alpha", type=float, default=10.0)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--no-kl-anneal", action="store_true")
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
    except (UsageError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (LoadError, SplitError, CheckpointError, mx.MetricError, ShapeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericDomainError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
