"""Self-tests of the benchmark's checkers: python3 -m pytest benchmarks"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import checks


def _brute_auc_ap(s, y):
    pos, neg = s[y == 1], s[y == 0]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    order = np.argsort(-s, kind="stable")  # ties in input order, as the checker
    hits = y[order]
    precisions = [hits[: i + 1].sum() / (i + 1) for i in range(len(hits)) if hits[i]]
    return wins / (len(pos) * len(neg)), float(np.mean(precisions))


@pytest.mark.parametrize("seed", range(20))
def test_auc_ap_matches_pair_counting(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    y = rng.integers(0, 2, size=n)
    y[:2] = (0, 1)
    # few distinct values, so ties are common
    s = rng.integers(0, 5, size=n).astype(float) if seed % 2 else rng.random(n)
    auc, ap = checks.auc_ap(s, y)
    want_auc, want_ap = _brute_auc_ap(s, y)
    assert auc == pytest.approx(want_auc, abs=1e-12)
    assert ap == pytest.approx(want_ap, abs=1e-12)


def _write_split(path, n, sections):
    lines = [f"# nodes {n}", "# seed 0"]
    for name in checks.SPLIT_SECTIONS:
        lines.append(name)
        lines.extend(f"{u} {v}" for u, v in sections[name])
    path.write_text("\n".join(lines) + "\n")


# 20 edges: 0.10 and 0.05 of them hold out 2 test and 1 validation edge
N = 9
EDGES = np.array([(u, v) for u in range(N) for v in range(u + 1, N) if (u + v) % 3 != 0][:20])
NON_EDGES = [(u, v) for u in range(N) for v in range(u + 1, N) if (u + v) % 3 == 0]


def _valid_sections():
    pairs = [tuple(map(int, e)) for e in EDGES]
    return {
        "TRAIN": pairs[3:],
        "VAL_POS": pairs[2:3],
        "VAL_NEG": NON_EDGES[2:3],
        "TEST_POS": pairs[:2],
        "TEST_NEG": NON_EDGES[:2],
    }


def test_split_checker_accepts_a_valid_split(tmp_path):
    _write_split(tmp_path / "s", N, _valid_sections())
    assert checks.check_split(tmp_path / "s", N, EDGES, 0.10, 0.05) == []


def test_split_checker_rejects_test_positive_leaked_into_train(tmp_path):
    sections = _valid_sections()
    sections["TRAIN"] = sections["TRAIN"] + [sections["TEST_POS"][0]]
    _write_split(tmp_path / "s", N, sections)
    failures = checks.check_split(tmp_path / "s", N, EDGES, 0.10, 0.05)
    assert any("overlap" in f for f in failures)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda s: s.update(TEST_NEG=[s["TEST_POS"][0], s["TEST_NEG"][1]]), "is an edge"),
        (lambda s: s.update(VAL_NEG=[s["TEST_NEG"][0]]), "not distinct"),
        (lambda s: s.update(TRAIN=s["TRAIN"][1:]), "edge set"),
        (lambda s: s.update(TEST_POS=[(3, 2), s["TEST_POS"][1]]), "u >= v"),
        (lambda s: s.update(VAL_POS=s["VAL_POS"] + [s["TRAIN"][0]], TRAIN=s["TRAIN"][1:]), "round-half-up"),
    ],
)
def test_split_checker_rejects_bad_splits(tmp_path, mutate, message):
    sections = _valid_sections()
    mutate(sections)
    _write_split(tmp_path / "s", N, sections)
    failures = checks.check_split(tmp_path / "s", N, EDGES, 0.10, 0.05)
    assert any(message in f for f in failures), failures


def test_holdout_size_rounds_half_up():
    assert checks.holdout_size(0.10, 25) == 3
    assert checks.holdout_size(0.10, 24) == 2
    assert checks.holdout_size(0.05, 5) == 1


def _planted(seed, n=300, k=6, follow_memberships=True):
    rng = np.random.default_rng(seed)
    b = np.zeros((n, k))
    b[np.arange(n), np.arange(n) % k] = 1.0
    extra = np.flatnonzero(rng.random(n) < 0.3)
    b[extra, rng.integers(k, size=extra.size)] = 1.0
    iu, iv = np.triu_indices(n, k=1)
    p = 1.0 / (1.0 + np.exp(-(8.0 * np.sum(b[iu] * b[iv], axis=1) - 4.0)))
    if not follow_memberships:
        p = np.full_like(p, p.mean())
    keep = rng.random(p.size) < p
    return b, np.stack([iu[keep], iv[keep]], axis=1)


def _write_planted(tmp_path, b, edges):
    n, k = b.shape
    (tmp_path / "g.edges.txt").write_text(f"# nodes {n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    rows = [f"{i} " + " ".join(str(c) for c in np.flatnonzero(b[i])) for i in range(n)]
    (tmp_path / "g.memberships.txt").write_text(f"# nodes {n}\n# communities {k}\n" + "\n".join(rows) + "\n")
    return tmp_path / "g.edges.txt", tmp_path / "g.memberships.txt"


def test_graph_checker_accepts_a_planted_sample(tmp_path):
    b, edges = _planted(0)
    assert checks.check_synthetic_graph(*_write_planted(tmp_path, b, edges)) == []


def test_graph_checker_rejects_edges_that_ignore_memberships(tmp_path):
    b, edges = _planted(0, follow_memberships=False)
    assert checks.check_synthetic_graph(*_write_planted(tmp_path, b, edges))


def test_graph_checker_rejects_self_loops_and_duplicates(tmp_path):
    b, edges = _planted(0)
    bad = np.concatenate([edges, edges[:1], [[5, 5]]])
    failures = checks.check_synthetic_graph(*_write_planted(tmp_path, b, bad))
    assert any("duplicate" in f for f in failures)
    assert any("u >= v" in f for f in failures)


def test_constant_predictor_bound_is_the_least_constant_loss():
    n, edges = 7, 5
    n_pos = 2 * edges + n
    n_neg = n * n - n_pos
    w = n_neg / n_pos

    def loss(x):
        return w * n_pos * math.log1p(math.exp(-x)) + n_neg * math.log1p(math.exp(x))

    best = minimize_scalar(loss, bounds=(-5, 5), method="bounded").fun
    assert checks.constant_predictor_nll(n, edges) == pytest.approx(best, rel=1e-9)


def test_community_checker(tmp_path):
    b_prob = np.array([[0.9, 0.1], [0.6, 0.7], [0.2, 0.3]])
    good = "# nodes 3\ncommunity 0 size 2 0:0.9 1:0.6\ncommunity 1 size 1 1:0.7\n"
    (tmp_path / "c").write_text(good)
    assert checks.check_communities(tmp_path / "c", b_prob, 0.5) == []
    (tmp_path / "c").write_text(good.replace("size 1 1:0.7", "size 1 2:0.3"))
    assert checks.check_communities(tmp_path / "c", b_prob, 0.5)


def test_manifest_checker_catches_a_changed_input(tmp_path):
    (tmp_path / "in.txt").write_text("a\n")
    (tmp_path / "out.txt").write_text("b\n")
    manifest = {"inputs": {"in.txt": "sha256:" + checks.sha256(tmp_path / "in.txt")}, "outputs": ["out.txt"]}
    (tmp_path / "out.txt.manifest.json").write_text(json.dumps(manifest))
    assert checks.check_manifests(tmp_path) == []
    (tmp_path / "in.txt").write_text("changed\n")
    assert checks.check_manifests(tmp_path)


def test_tracer_charges_self_time_to_the_innermost_span():
    import time

    import tracing

    tracer = tracing.Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
        tracer.rebucket("outer.after")
        time.sleep(0.01)
    assert tracer.seconds["inner"] == pytest.approx(0.03, abs=0.01)
    assert tracer.seconds["outer"] == pytest.approx(0.02, abs=0.01)
    assert tracer.seconds["outer.after"] == pytest.approx(0.01, abs=0.01)
