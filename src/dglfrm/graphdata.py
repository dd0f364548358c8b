"""Graph loading, adjacency normalization, link splits, synthetic benchmark."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as _sp

from .tensor import SparseMatrix, Tensor

logger = logging.getLogger("dglfrm.graphdata")

OVERLAP_PROB = 0.3  # chance a synthetic node joins one extra community


class LoadError(Exception):
    """Input file is malformed or inconsistent."""


class SplitError(Exception):
    """A link split cannot be produced as requested."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph: symmetric 0/1 adjacency, optional dense features."""

    n_nodes: int
    adjacency: SparseMatrix
    features: Tensor | None = None

    def __post_init__(self) -> None:
        a = self.adjacency.scipy()
        if a.shape != (self.n_nodes, self.n_nodes):
            raise LoadError(f"adjacency shape {a.shape} vs n_nodes {self.n_nodes}")
        if (a != a.T).nnz != 0:
            raise LoadError("adjacency must be symmetric")
        if a.diagonal().any():
            raise LoadError("adjacency must have a zero diagonal")
        if self.features is not None and self.features.shape[0] != self.n_nodes:
            raise LoadError(
                f"features have {self.features.shape[0]} rows for {self.n_nodes} nodes"
            )

    @property
    def d_features(self) -> int:
        return 0 if self.features is None else self.features.shape[1]

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self.adjacency.nnz // 2


@dataclass(frozen=True)
class SplitSpec:
    """Train adjacency plus held-out positive/negative pairs (u < v)."""

    n_nodes: int
    train_adjacency: SparseMatrix
    val_pos: tuple[tuple[int, int], ...]
    val_neg: tuple[tuple[int, int], ...]
    test_pos: tuple[tuple[int, int], ...]
    test_neg: tuple[tuple[int, int], ...]
    seed: int


@dataclass(frozen=True)
class SyntheticSpec:
    """Overlapping-block benchmark configuration."""

    n_nodes: int = 100
    n_communities: int = 10
    seed: int = 0


def _adjacency_from_pairs(pairs, n: int) -> SparseMatrix:
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([arr[:, 0], arr[:, 1]])
    cols = np.concatenate([arr[:, 1], arr[:, 0]])
    return SparseMatrix.from_coo(rows, cols, np.ones(rows.size), (n, n))


def undirected_edges(g: Graph) -> list[tuple[int, int]]:
    """All edges as (u, v) with u < v, in row-major order."""
    coo = g.adjacency.scipy().tocoo()
    return [(int(u), int(v)) for u, v in zip(coo.row, coo.col) if u < v]


def load_edge_list(path) -> Graph:
    """Read "u v" pairs (0-based ids, '#' comments); dedup, drop self-loops.

    An optional "# nodes N" directive pins the node count; otherwise it is
    inferred as max id + 1 (which silently drops trailing isolated nodes).
    """
    path = Path(path)
    pairs: set[tuple[int, int]] = set()
    self_loops = 0
    max_id = -1
    declared_n: int | None = None
    try:
        lines = path.read_text().splitlines()
    except OSError as e:
        raise LoadError(f"cannot read {path}: {e}") from e
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            fields = line[1:].split()
            if fields[:1] == ["nodes"]:
                try:
                    declared_n = int(fields[1])
                except (IndexError, ValueError) as e:
                    raise LoadError(f"{path}:{lineno}: bad nodes directive {raw!r}") from e
            continue
        parts = line.split()
        if len(parts) != 2:
            raise LoadError(f"{path}:{lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise LoadError(f"{path}:{lineno}: non-integer node id in {raw!r}") from e
        if u < 0 or v < 0:
            raise LoadError(f"{path}:{lineno}: negative node id in {raw!r}")
        max_id = max(max_id, u, v)
        if u == v:
            self_loops += 1
            continue
        pairs.add((min(u, v), max(u, v)))
    if not pairs:
        raise LoadError(f"{path}: no edges")
    if self_loops:
        logger.warning("%s: dropped %d self-loop(s)", path, self_loops)
    n = max_id + 1
    if declared_n is not None:
        if declared_n < n:
            raise LoadError(
                f"{path}: nodes directive says {declared_n} but ids reach {max_id}"
            )
        n = declared_n
    return Graph(n_nodes=n, adjacency=_adjacency_from_pairs(sorted(pairs), n))


def save_edge_list(g: Graph, path) -> None:
    """Write a graph as "u v" lines with a "# nodes N" directive."""
    lines = [f"# nodes {g.n_nodes}"]
    lines.extend(f"{u} {v}" for u, v in undirected_edges(g))
    Path(path).write_text("\n".join(lines) + "\n")


def load_features(path, n_nodes: int) -> Tensor:
    """Read node features: "row col value" triplets (.txt) or dense CSV (.csv)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise LoadError(f"cannot read {path}: {e}") from e

    if path.suffix.lower() == ".csv":
        rows = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as e:
                raise LoadError(f"{path}:{lineno}: bad value in {raw!r}") from e
        if len(rows) != n_nodes:
            raise LoadError(f"{path}: {len(rows)} rows for {n_nodes} nodes")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise LoadError(f"{path}: ragged rows (widths {sorted(widths)})")
        return Tensor(np.asarray(rows))

    triplets = []
    max_col = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise LoadError(f"{path}:{lineno}: expected 'row col value', got {raw!r}")
        try:
            r, c, val = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as e:
            raise LoadError(f"{path}:{lineno}: bad triplet {raw!r}") from e
        if not 0 <= r < n_nodes:
            raise LoadError(f"{path}:{lineno}: row {r} out of range for {n_nodes} nodes")
        if c < 0:
            raise LoadError(f"{path}:{lineno}: negative column {c}")
        max_col = max(max_col, c)
        triplets.append((r, c, val))
    if not triplets:
        raise LoadError(f"{path}: no feature entries")
    out = np.zeros((n_nodes, max_col + 1))
    for r, c, val in triplets:
        out[r, c] = val
    return Tensor(out)


def normalize_adjacency(g: Graph) -> SparseMatrix:
    """Symmetric GCN normalization of A+I by the degree of A+I."""
    a_tilde = g.adjacency.scipy() + _sp.identity(g.n_nodes, format="csr")
    deg = np.asarray(a_tilde.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    normalized = a_tilde.multiply(inv_sqrt[:, None]).multiply(inv_sqrt[None, :])
    return SparseMatrix(normalized)


def _holdout_size(frac: float, n_edges: int) -> int:
    # round half up, but never less than one edge for a positive fraction
    return max(1, int(math.floor(frac * n_edges + 0.5)))


def make_splits(g: Graph, test_frac: float = 0.10, val_frac: float = 0.05, seed: int = 0) -> SplitSpec:
    """Hold out random undirected edges plus matching non-edge negatives."""
    if not (0.0 < test_frac < 1.0 and 0.0 < val_frac < 1.0):
        raise SplitError(
            f"holdout fractions must lie in (0, 1), got test={test_frac} val={val_frac}"
        )
    edges = undirected_edges(g)
    n_edges = len(edges)
    n_test = _holdout_size(test_frac, n_edges)
    n_val = _holdout_size(val_frac, n_edges)
    if n_test + n_val >= n_edges:
        raise SplitError(
            f"cannot hold out {n_test}+{n_val} of {n_edges} edges and keep a train graph"
        )
    n = g.n_nodes
    n_non_edges = n * (n - 1) // 2 - n_edges
    n_neg = n_test + n_val
    if n_neg > n_non_edges:
        raise SplitError(f"need {n_neg} non-edges for negatives, graph has {n_non_edges}")

    rng = np.random.default_rng(seed)
    order = rng.permutation(n_edges)
    test_pos = tuple(edges[i] for i in order[:n_test])
    val_pos = tuple(edges[i] for i in order[n_test : n_test + n_val])
    train_edges = [edges[i] for i in order[n_test + n_val :]]

    edge_set = set(edges)
    negatives: list[tuple[int, int]] = []
    chosen: set[tuple[int, int]] = set()
    attempts = 0
    max_attempts = 100 * n_neg + 1000
    while len(negatives) < n_neg and attempts < max_attempts:
        attempts += 1
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        pair = (min(u, v), max(u, v))
        if pair in edge_set or pair in chosen:
            continue
        chosen.add(pair)
        negatives.append(pair)
    if len(negatives) < n_neg:
        # dense graph: enumerate the remaining non-edges outright
        dense = g.adjacency.to_dense() != 0.0
        iu, iv = np.triu_indices(n, k=1)
        mask = ~dense[iu, iv]
        pool = [
            (int(a), int(b))
            for a, b in zip(iu[mask], iv[mask])
            if (int(a), int(b)) not in chosen
        ]
        extra = rng.permutation(len(pool))[: n_neg - len(negatives)]
        negatives.extend(pool[i] for i in extra)
    test_neg = tuple(negatives[:n_test])
    val_neg = tuple(negatives[n_test:])

    return SplitSpec(
        n_nodes=n,
        train_adjacency=_adjacency_from_pairs(sorted(train_edges), n),
        val_pos=val_pos,
        val_neg=val_neg,
        test_pos=test_pos,
        test_neg=test_neg,
        seed=seed,
    )


def generate_synthetic(spec: SyntheticSpec) -> tuple[Graph, np.ndarray]:
    """Sample an overlapping-block graph; returns (graph, binary memberships).

    Node n always belongs to community n mod K and with probability
    `OVERLAP_PROB` to one extra community. Edge (u, v) is Bernoulli of
    sigmoid(8 * <b_u, b_v> - 4): shared-community pairs connect w.p. >= 0.98,
    disjoint pairs w.p. ~0.018.
    """
    n, k = spec.n_nodes, spec.n_communities
    if k > n:
        raise SplitError(f"n_communities {k} exceeds n_nodes {n}")
    rng = np.random.default_rng(spec.seed)
    memberships = np.zeros((n, k))
    for node in range(n):
        primary = node % k
        memberships[node, primary] = 1.0
        if k > 1 and rng.random() < OVERLAP_PROB:
            extra = (primary + 1 + int(rng.integers(k - 1))) % k
            memberships[node, extra] = 1.0
    probs = 1.0 / (1.0 + np.exp(-(8.0 * (memberships @ memberships.T) - 4.0)))
    iu, iv = np.triu_indices(n, k=1)
    draws = rng.random(iu.size)
    present = draws < probs[iu, iv]
    pairs = [(int(u), int(v)) for u, v in zip(iu[present], iv[present])]
    return Graph(n_nodes=n, adjacency=_adjacency_from_pairs(pairs, n)), memberships


_SPLIT_SECTIONS = ("TRAIN", "VAL_POS", "VAL_NEG", "TEST_POS", "TEST_NEG")


def save_split(split: SplitSpec, path) -> None:
    """Write a split as sectioned "u v" text, reloadable by load_split."""
    lines = [f"# nodes {split.n_nodes}", f"# seed {split.seed}"]
    coo = split.train_adjacency.scipy().tocoo()
    sections = {
        "TRAIN": [(int(u), int(v)) for u, v in zip(coo.row, coo.col) if u < v],
        "VAL_POS": split.val_pos,
        "VAL_NEG": split.val_neg,
        "TEST_POS": split.test_pos,
        "TEST_NEG": split.test_neg,
    }
    for name in _SPLIT_SECTIONS:
        lines.append(name)
        lines.extend(f"{u} {v}" for u, v in sections[name])
    Path(path).write_text("\n".join(lines) + "\n")


def _raise_at(path, linenos: list[int], name: str, arr: np.ndarray, bad: np.ndarray, problem: str):
    """Raise LoadError naming the line of the first pair flagged in `bad`."""
    if bad.any():
        i = int(np.argmax(bad))
        raise LoadError(f"{path}:{linenos[i]}: {name} pair {arr[i, 0]} {arr[i, 1]} {problem}")


def load_split(path) -> SplitSpec:
    """Read a split written by save_split; malformed content raises LoadError."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise LoadError(f"cannot read {path}: {e}") from e
    headers: dict[str, int] = {}
    sections: dict[str, list[tuple[int, int]]] = {s: [] for s in _SPLIT_SECTIONS}
    linenos: dict[str, list[int]] = {s: [] for s in _SPLIT_SECTIONS}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] in ("nodes", "seed"):
                try:
                    headers[parts[0]] = int(parts[1])
                except ValueError as e:
                    raise LoadError(f"{path}:{lineno}: non-integer header {raw!r}") from e
            continue
        if line in _SPLIT_SECTIONS:
            current = line
            continue
        if current is None:
            raise LoadError(f"{path}:{lineno}: pair before any section header")
        parts = line.split()
        if len(parts) != 2:
            raise LoadError(f"{path}:{lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise LoadError(f"{path}:{lineno}: non-integer pair {raw!r}") from e
        sections[current].append((u, v))
        linenos[current].append(lineno)
    if "nodes" not in headers:
        raise LoadError(f"{path}: missing '# nodes N' header")
    n_nodes = headers["nodes"]
    arrays = {
        name: np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        for name, pairs in sections.items()
    }
    for name, arr in arrays.items():
        bad = (arr < 0).any(axis=1) | (arr >= n_nodes).any(axis=1) | (arr[:, 0] == arr[:, 1])
        problem = f"needs two distinct node ids in [0, {n_nodes})"
        _raise_at(path, linenos[name], name, arr, bad, problem)
    train = _adjacency_from_pairs(arrays["TRAIN"], n_nodes)
    for name in _SPLIT_SECTIONS[1:]:
        arr = arrays[name]
        leaked = np.asarray(train.scipy()[arr[:, 0], arr[:, 1]]).ravel() != 0
        _raise_at(path, linenos[name], name, arr, leaked, "is also a TRAIN edge")
    return SplitSpec(
        n_nodes=n_nodes,
        train_adjacency=train,
        val_pos=tuple(sections["VAL_POS"]),
        val_neg=tuple(sections["VAL_NEG"]),
        test_pos=tuple(sections["TEST_POS"]),
        test_neg=tuple(sections["TEST_NEG"]),
        seed=headers.get("seed", 0),
    )
