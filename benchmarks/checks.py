"""Output checks that do not trust the program under test.

Everything here reads the files the CLI writes with its own parsers and
recomputes what the method promises with numpy/scipy alone. Each check
returns a list of failure messages; an empty list means the output holds.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp

SPLIT_SECTIONS = ("TRAIN", "VAL_POS", "VAL_NEG", "TEST_POS", "TEST_NEG")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Parsers


def _directive(line: str, key: str) -> int | None:
    parts = line[1:].split()
    if len(parts) == 2 and parts[0] == key:
        return int(parts[1])
    return None


def read_edge_file(path) -> tuple[int, np.ndarray]:
    """(declared node count, int64 array of "u v" lines in file order)."""
    lines = Path(path).read_text().splitlines()
    n = None
    body = []
    for line in lines:
        if line.startswith("#"):
            n = _directive(line, "nodes") if n is None else n
        elif line.strip():
            body.append(line)
    if n is None:
        raise ValueError(f"{path}: no '# nodes N' directive")
    pairs = np.array(" ".join(body).split(), dtype=np.int64).reshape(-1, 2)
    return n, pairs


def read_memberships(path) -> np.ndarray:
    """Binary node x community matrix from a synth memberships file."""
    n = k = None
    rows, cols = [], []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            n = _directive(line, "nodes") if n is None else n
            k = _directive(line, "communities") if k is None else k
            continue
        parts = [int(tok) for tok in line.split()]
        rows.extend([parts[0]] * (len(parts) - 1))
        cols.extend(parts[1:])
    if n is None or k is None:
        raise ValueError(f"{path}: missing nodes/communities directives")
    b = np.zeros((n, k))
    b[rows, cols] = 1.0
    return b


def read_split(path) -> tuple[int, dict[str, np.ndarray]]:
    """(declared node count, section name -> (m, 2) int64 pairs)."""
    n = None
    sections: dict[str, list[str]] = {name: [] for name in SPLIT_SECTIONS}
    current = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            n = _directive(line, "nodes") if n is None else n
        elif line in sections:
            current = line
        elif line.strip():
            if current is None:
                raise ValueError(f"{path}: pair before any section header")
            sections[current].append(line)
    if n is None:
        raise ValueError(f"{path}: no '# nodes N' directive")
    return n, {
        name: np.array(" ".join(body).split(), dtype=np.int64).reshape(-1, 2)
        for name, body in sections.items()
    }


def read_communities(path) -> list[frozenset[int]]:
    """Member sets of every "community j size s node:strength ..." line."""
    out = []
    for line in Path(path).read_text().splitlines():
        if not line.startswith("community "):
            continue
        tokens = line.split()
        members = frozenset(int(tok.split(":")[0]) for tok in tokens[4:])
        if len(members) != int(tokens[3]):
            raise ValueError(f"{path}: size field disagrees with members in {line[:60]!r}")
        out.append(members)
    return out


# ---------------------------------------------------------------------------
# Data path


def _pair_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    return pairs[:, 0] * n + pairs[:, 1]


# sorting, since np.unique and np.isin hash and are several times slower here
def _unique(keys: np.ndarray) -> np.ndarray:
    s = np.sort(keys)
    return s[np.concatenate([[True], s[1:] != s[:-1]])]


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[at] == keys


def _canonical_pair_failures(name: str, pairs: np.ndarray, n: int) -> list[str]:
    failures = []
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        failures.append(f"{name}: node id outside [0, {n})")
    if np.any(pairs[:, 0] >= pairs[:, 1]):
        failures.append(f"{name}: pair with u >= v (self-loop or non-canonical order)")
    if _unique(_pair_keys(pairs, n)).size != len(pairs):
        failures.append(f"{name}: duplicate pairs")
    return failures


def check_synthetic_graph(edges_path, memberships_path, z: float = 5.0) -> list[str]:
    """Edge list vs the planted memberships it was sampled from.

    Each pair u < v is an edge with probability sigmoid(8 <b_u, b_v> - 4),
    so the number of edges among pairs sharing c communities is binomial.
    The observed count per c must lie within z standard deviations of
    its mean; that also bounds the total edge count.
    """
    n, pairs = read_edge_file(edges_path)
    b = read_memberships(memberships_path)
    failures = _canonical_pair_failures("edges", pairs, n)
    if b.shape[0] != n:
        failures.append(f"memberships have {b.shape[0]} nodes, edge list declares {n}")
    if failures:
        return failures
    bs = sp.csr_matrix(b)
    shared = sp.triu(bs @ bs.T, k=1).tocsr()
    counts = np.bincount(shared.data.astype(np.int64), minlength=b.shape[1] + 1)
    counts[0] = n * (n - 1) // 2 - shared.nnz
    edge_shared = np.asarray(
        bs[pairs[:, 0]].multiply(bs[pairs[:, 1]]).sum(axis=1)
    ).ravel().astype(np.int64)
    observed = np.bincount(edge_shared, minlength=counts.size)
    p = 1.0 / (1.0 + np.exp(-(8.0 * np.arange(counts.size) - 4.0)))
    mean, sd = counts * p, np.sqrt(counts * p * (1.0 - p))
    for c in range(counts.size):
        if abs(observed[c] - mean[c]) > z * sd[c] + 1.0:
            failures.append(
                f"pairs sharing {c} communities: {observed[c]} edges, "
                f"expected {mean[c]:.1f} +- {sd[c]:.1f}"
            )
    return failures


def holdout_size(frac: float, n_edges: int) -> int:
    """Round half up, at least one edge."""
    return max(1, math.floor(frac * n_edges + 0.5))


def check_split(split_path, n: int, edges: np.ndarray, test_frac: float, val_frac: float) -> list[str]:
    """The split partitions the graph's edges and draws valid negatives."""
    n_split, sec = read_split(split_path)
    if n_split != n:
        return [f"split declares {n_split} nodes, graph has {n}"]
    failures = []
    for name in SPLIT_SECTIONS:
        failures += _canonical_pair_failures(name, sec[name], n)
    if failures:
        return failures
    key = {name: _pair_keys(sec[name], n) for name in SPLIT_SECTIONS}
    edge_keys = _unique(_pair_keys(np.sort(edges, axis=1), n))

    positives = _unique(np.concatenate([key["TRAIN"], key["VAL_POS"], key["TEST_POS"]]))
    if positives.size != sum(len(key[name]) for name in ("TRAIN", "VAL_POS", "TEST_POS")):
        failures.append("TRAIN, VAL_POS and TEST_POS overlap")
    if not np.array_equal(positives, edge_keys):
        failures.append("TRAIN + VAL_POS + TEST_POS is not the graph's edge set")

    negatives = np.concatenate([key["VAL_NEG"], key["TEST_NEG"]])
    if _unique(negatives).size != negatives.size:
        failures.append("negatives are not distinct")
    if _contains(edge_keys, negatives).any():
        failures.append("a negative pair is an edge of the graph")

    n_edges = edge_keys.size
    want = {"TEST": holdout_size(test_frac, n_edges), "VAL": holdout_size(val_frac, n_edges)}
    for part, size in want.items():
        for kind in ("POS", "NEG"):
            got = len(key[f"{part}_{kind}"])
            if got != size:
                failures.append(f"{part}_{kind} has {got} pairs, round-half-up rule gives {size}")
    return failures


def check_manifests(workdir) -> list[str]:
    """Every manifest's input digests match the files on disk."""
    workdir = Path(workdir)
    failures = []
    manifests = sorted(workdir.glob("*.manifest.json"))
    if not manifests:
        failures.append(f"no manifests in {workdir}")
    for manifest in manifests:
        payload = json.loads(manifest.read_text())
        for name, digest in payload["inputs"].items():
            actual = "sha256:" + sha256(workdir / name)
            if digest != actual:
                failures.append(f"{manifest.name}: {name} digest {digest} != {actual}")
        for name in payload["outputs"]:
            if not (workdir / name).is_file():
                failures.append(f"{manifest.name}: output {name} missing")
    return failures


# ---------------------------------------------------------------------------
# Link prediction and communities


def auc_ap(scores, labels) -> tuple[float, float]:
    """ROC AUC by rank sum with midranks, and average precision.

    AP is the mean precision at each positive's rank, with scores sorted
    descending and equal scores kept in input order.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    ranks = np.empty(s.size)
    start = 0
    while start < s.size:
        stop = start
        while stop + 1 < s.size and sorted_s[stop + 1] == sorted_s[start]:
            stop += 1
        ranks[order[start : stop + 1]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    auc = (ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    hits = y[np.argsort(-s, kind="stable")]
    position = np.arange(1, y.size + 1)
    ap = float(np.mean(np.cumsum(hits)[hits] / position[hits]))
    return float(auc), ap


def auc_chance_margin(n_pos: int, n_neg: int, z: float = 4.0) -> float:
    """z standard deviations of the AUC of random scores (Mann-Whitney)."""
    return z * math.sqrt((n_pos + n_neg + 1) / (12.0 * n_pos * n_neg))


def constant_predictor_nll(n_nodes: int, n_train_edges: int) -> float:
    """Least weighted BCE a constant logit reaches on the training grid.

    The grid holds n_pos = 2 * edges + n_nodes ones (edges both ways plus
    the diagonal). With the automatic pos_weight = n_neg / n_pos, a constant
    logit x costs n_neg * (softplus(-x) + softplus(x)), least at x = 0.
    """
    n_pos = 2 * n_train_edges + n_nodes
    n_neg = n_nodes * n_nodes - n_pos
    return 2.0 * n_neg * math.log(2.0)


def check_communities(path, b_prob: np.ndarray, tau: float) -> list[str]:
    """Each listed community is {i : b_prob[i, k] >= tau} for one column k."""
    listed = read_communities(path)
    expected = [frozenset(np.flatnonzero(col >= tau).tolist()) for col in b_prob.T]
    if sorted(listed, key=sorted) != sorted(expected, key=sorted):
        return [
            f"communities differ from thresholded posteriors "
            f"(sizes {sorted(map(len, listed))} vs {sorted(map(len, expected))})"
        ]
    return []
