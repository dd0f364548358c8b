"""Cora-shaped citation graph with class-correlated binary features.

Cora is not in the repository, so the train-features workload runs on a
graph with its shape: 2708 nodes, 5278 undirected edges, 1433 binary
word features with about 18 words per node, and 7 classes. Citation
degrees are heavy-tailed and mostly within a class, so endpoints are
drawn in proportion to a Pareto weight and stay in the citing node's
class with probability HOMOPHILY. Each class has its own topic words,
which carry most of a node's words, so features predict links.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

NODES = 2708
EDGES = 5278
FEATURES = 1433
CLASSES = 7
WORDS_PER_NODE = 18
TOPIC_WORDS = 120
HOMOPHILY = 0.8  # chance that a citation stays in the citing node's class
TOPIC_SHARE = 0.7  # chance that a word comes from the node's class topic


def cora_like(seed: int):
    """(edges (m, 2) with u < v sorted, binary features (n, d))."""
    rng = np.random.default_rng(seed)
    label = rng.integers(CLASSES, size=NODES)
    weight = rng.pareto(2.0, size=NODES) + 1.0
    members = [np.flatnonzero(label == c) for c in range(CLASSES)]
    member_p = [weight[m] / weight[m].sum() for m in members]

    keys: set[int] = set()  # u * NODES + v with u < v
    while len(keys) < EDGES:
        u = rng.choice(NODES, p=weight / weight.sum())
        c = label[u] if rng.random() < HOMOPHILY else rng.integers(CLASSES)
        v = rng.choice(members[c], p=member_p[c])
        if u != v:
            keys.add(min(u, v) * NODES + max(u, v))
    flat = np.sort(np.fromiter(keys, dtype=np.int64))
    edges = np.stack([flat // NODES, flat % NODES], axis=1)

    topics = [rng.choice(FEATURES, size=TOPIC_WORDS, replace=False) for _ in range(CLASSES)]
    x = np.zeros((NODES, FEATURES))
    for node in range(NODES):
        from_topic = rng.random(WORDS_PER_NODE) < TOPIC_SHARE
        words = np.where(
            from_topic,
            rng.choice(topics[label[node]], size=WORDS_PER_NODE),
            rng.integers(FEATURES, size=WORDS_PER_NODE),
        )
        x[node, words] = 1.0
    # the loader sizes features by the largest column it sees
    x[0, FEATURES - 1] = 1.0
    return edges, x


def write_cora_like(seed: int, edges_path, features_path) -> None:
    edges, x = cora_like(seed)
    lines = [f"# nodes {NODES}"] + [f"{u} {v}" for u, v in edges]
    Path(edges_path).write_text("\n".join(lines) + "\n")
    rows, cols = np.nonzero(x)
    Path(features_path).write_text("".join(f"{r} {c} 1\n" for r, c in zip(rows, cols)))
