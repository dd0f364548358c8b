#!/usr/bin/env python3
"""Digest every output of a fixed 300-node CLI pipeline, for bit-exact replay checks.

    python3 scripts/replay_digests.py SRC OUT

runs `python -m dglfrm.cli` from the checkout SRC (its `src` directory goes
on PYTHONPATH) inside the new directory OUT, then prints one
"sha256  file" line per file in OUT, sorted by file name. Two checkouts
replay each other bit-exactly when their digests match:

    diff <(python3 scripts/replay_digests.py old /tmp/a) \\
         <(python3 scripts/replay_digests.py new /tmp/b)

    python3 scripts/replay_digests.py --environment

prints the numeric environment the digests depend on, as "# " lines: the
python, numpy and scipy versions, the BLAS library and the SIMD extensions
numpy found on this CPU. tests/replay_digests.txt holds both outputs of the
checkout, and tests/test_replay.py reruns the pipeline against it:

    { python3 scripts/replay_digests.py --environment
      python3 scripts/replay_digests.py . "$(mktemp -d)/out"; } > tests/replay_digests.txt

The pipeline: a synthetic graph, its split, a copy of the split without
validation pairs (its validation positives moved into TRAIN), and
deterministic triplet features. Then train, eval and, for the variants
with memberships, communities with the latent CSV, for each run below.
BLAS is pinned to one thread, since threaded sums may round differently.
The runs below go two at a time; each writes only its own files.
The identity-input run with a feature term is also evaluated and its
communities extracted on the graph without `--features`: its encoder
does not read them, so it accepts that graph. One run trains as the README's
walkthrough does, without dropout, and at full KL weight from the first
epoch.

The 300-node graph fits in one row block of the fused likelihoods, so one
more run trains on an 800-node graph with 1000 feature columns: 5 blocks of
the link likelihood and 7 of the feature likelihood at the default block
size, summed from the worker threads in block order.

A near-complete 70-node graph is split: its split needs all 24 of the
graph's non-edges, so the negative sampler runs out of attempts and the
rest come from the enumeration fallback.

Last, copies of the 300-node graph and its split with CRLF line ends and a
non-ASCII comment line first are split and evaluated. The loaders read such
text as code points rather than bytes, so these runs cover that path; their
split and metrics must equal those of the plain files.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import os
import platform
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

GRAPH = ["--graph", "graph.edges.txt"]
FEATURES = [*GRAPH, "--features", "graph.features.txt"]
BIG_FEATURES = ["--graph", "big.edges.txt", "--features", "big.features.txt"]
TRAIN = ["--epochs", "12", "--val-every", "4", "--seed", "7"]

# (name, graph and feature options, split, train options)
RUNS = [
    *((v, GRAPH, "graph.split", ["--variant", v]) for v in ("dglfrm", "dglfrm-b", "lfrm", "lsm", "vgae")),
    *((f"{v}-mf", GRAPH, "graph.split", ["--variant", v, "--mean-field"]) for v in ("dglfrm", "dglfrm-b")),
    ("dglfrm-nomlp", GRAPH, "graph.split", ["--variant", "dglfrm", "--decoder-hidden", ""]),
    ("dglfrm-noval", GRAPH, "noval.split", ["--variant", "dglfrm"]),
    ("dglfrm-nodrop", GRAPH, "graph.split", ["--variant", "dglfrm", "--dropout", "0", "--kl-anneal-epochs", "0"]),
    ("x-vgae", FEATURES, "graph.split", ["--variant", "vgae"]),
    ("x-dglfrm", FEATURES, "graph.split", ["--variant", "dglfrm"]),
    ("x-lfrm-mf", FEATURES, "graph.split", ["--variant", "lfrm", "--mean-field"]),
    ("x-identity-term", FEATURES, "graph.split", ["--identity-features", "--feature-term", "on"]),
    ("big-x-dglfrm", BIG_FEATURES, "big.split", ["--variant", "dglfrm"]),
]
# a run trained without validation pairs is scored on the full split
EVAL_SPLIT = {"noval.split": "graph.split"}
WITH_MEMBERSHIPS = ("dglfrm", "dglfrm-b", "lfrm")
SECTIONS = ("TRAIN", "VAL_POS", "VAL_NEG", "TEST_POS", "TEST_NEG")


def write_features(path: Path, n_nodes: int = 300, width: int = 40) -> None:
    """About four "row col 1" triplets per node; column width - 1 always appears."""
    rng = random.Random(11)
    lines = [f"0 {width - 1} 1"]
    for node in range(n_nodes):
        for col in sorted(rng.sample(range(width), 4)):
            lines.append(f"{node} {col} 1")
    path.write_text("\n".join(lines) + "\n")


def write_near_complete(path: Path, n_nodes: int = 70, missing: int = 24) -> None:
    """Every pair of n_nodes nodes but `missing` of them, as an edge list."""
    pairs = [(u, v) for u in range(n_nodes) for v in range(u + 1, n_nodes)]
    kept = sorted(set(range(len(pairs))) - set(random.Random(13).sample(range(len(pairs)), missing)))
    path.write_text(f"# nodes {n_nodes}\n" + "".join(f"{pairs[i][0]} {pairs[i][1]}\n" for i in kept))


def drop_validation(split: Path, out: Path) -> None:
    """Copy a split file with its VAL_POS pairs moved into TRAIN and its VAL_NEG pairs dropped.

    Every edge of the graph stays in TRAIN or TEST_POS, as a split must list them all.
    """
    header, pairs, section = [], {name: [] for name in SECTIONS}, None
    for line in split.read_text().splitlines():
        if line in SECTIONS:
            section = line
        else:
            (pairs[section] if section else header).append(line)
    pairs["TRAIN"] += pairs["VAL_POS"]
    pairs["VAL_POS"] = pairs["VAL_NEG"] = []
    out.write_text("\n".join([*header, *(line for name in SECTIONS for line in (name, *pairs[name]))]) + "\n")


def wide_copy(path: Path, out: Path) -> None:
    """Copy a text file with a non-ASCII comment line first and CRLF line ends."""
    text = "# 300 nœuds — graphe synthétique\n" + path.read_text()
    out.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))


def environment() -> list[str]:
    """The "# " header lines naming this interpreter's numeric environment; scipy is not imported."""
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas, simd = f"{blas['name']} {blas['version']}", " ".join(config["SIMD Extensions"]["found"])
    except (TypeError, KeyError):  # numpy before 1.26 prints its configuration only
        blas = simd = "unknown"
    return [
        f"# python {platform.python_version()}",
        f"# numpy {np.__version__}",
        f"# scipy {importlib.metadata.version('scipy')}",
        f"# blas {blas}",
        f"# simd {simd}",
    ]


def main(argv: list[str]) -> int:
    if argv == ["--environment"]:
        print("\n".join(environment()))
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    out.mkdir(parents=True, exist_ok=False)
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    env.update({name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    env.pop("DGLFRM_LOG", None)

    def dglfrm(*args: str) -> None:
        cmd = [sys.executable, "-m", "dglfrm.cli", *args]
        done = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"exit {done.returncode}: {' '.join(args)}\n{done.stderr}")

    dglfrm("synth", "--nodes", "300", "--communities", "12", "--seed", "5", "--out-prefix", "graph")
    dglfrm("split", *GRAPH, "--seed", "5", "--out", "graph.split")
    drop_validation(out / "graph.split", out / "noval.split")
    write_features(out / "graph.features.txt")
    dglfrm("synth", "--nodes", "800", "--communities", "16", "--seed", "5", "--out-prefix", "big")
    dglfrm("split", "--graph", "big.edges.txt", "--seed", "5", "--out", "big.split")
    write_features(out / "big.features.txt", n_nodes=800, width=1000)
    write_near_complete(out / "near.edges.txt")
    # 2391 edges: 12 test and 12 val positives, so 24 negatives
    dglfrm("split", "--graph", "near.edges.txt", "--test-frac", "0.005", "--val-frac", "0.005",
           "--seed", "5", "--out", "near.split")

    def run(name: str, graph: list[str], split: str, options: list[str]) -> None:
        ckpt = f"{name}.ckpt"
        dglfrm("train", *graph, "--split", split, *TRAIN, *options, "--out-ckpt", ckpt)
        dglfrm("eval", "--ckpt", ckpt, *graph, "--split", EVAL_SPLIT.get(split, split))
        variant = options[options.index("--variant") + 1] if "--variant" in options else "dglfrm"
        if variant in WITH_MEMBERSHIPS:
            dglfrm("communities", "--ckpt", ckpt, *graph, "--out", f"{name}.communities.txt",
                   "--export-latent", f"{name}.latent.csv")

    with ThreadPoolExecutor(2) as pool:
        list(pool.map(run, *zip(*RUNS)))  # list() re-raises a run's failure
    bare = "x-identity-term-bare"
    dglfrm("eval", "--ckpt", "x-identity-term.ckpt", *GRAPH, "--split", "graph.split", "--out", bare)
    dglfrm("communities", "--ckpt", "x-identity-term.ckpt", *GRAPH, "--out", f"{bare}.communities.txt",
           "--export-latent", f"{bare}.latent.csv")

    wide_copy(out / "graph.edges.txt", out / "wide.edges.txt")
    wide_copy(out / "graph.split", out / "wide.split")
    dglfrm("split", "--graph", "wide.edges.txt", "--seed", "5", "--out", "wide.resplit")
    dglfrm("eval", "--ckpt", "dglfrm.ckpt", "--graph", "wide.edges.txt", "--split", "wide.split",
           "--out", "dglfrm-wide.metrics")

    for path in sorted(out.iterdir()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
