import errno
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dglfrm import graphdata as gd
from dglfrm import tensor as tc
from dglfrm.tensor import SparseMatrix
from oracles import (
    as_scipy, assert_close, assert_splits_equal, oracle_adjacency_from_pairs, oracle_is_symmetric,
    oracle_make_splits, oracle_normalize_adjacency, pair_set, to_dense,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def graph_from_pairs(pairs, n):
    return gd.Graph(n_nodes=n, adjacency=gd._adjacency_from_pairs(pairs, n))


def edge_set(adjacency):
    return set(map(tuple, gd._upper_pairs(adjacency).tolist()))


# ---------------------------------------------------------------------------
# load_edge_list


def test_load_smallest_graph(tmp_path):
    g = gd.load_edge_list(write(tmp_path, "e.txt", "0 1\n"))
    assert g.n_nodes == 2
    assert g.n_edges == 1


def test_load_dedups_and_drops_self_loops(tmp_path, caplog):
    with caplog.at_level("WARNING", logger="dglfrm.graphdata"):
        g = gd.load_edge_list(write(tmp_path, "e.txt", "0 1\n1 0\n1 1\n"))
    assert g.n_edges == 1
    assert g.n_nodes == 2
    assert "1 self-loop" in caplog.text


def test_load_skips_comments(tmp_path):
    g = gd.load_edge_list(write(tmp_path, "e.txt", "# a header\n0 1\n\n2 0\n"))
    assert g.n_nodes == 3
    assert g.n_edges == 2


def test_load_bad_line_reports_lineno(tmp_path):
    p = write(tmp_path, "e.txt", "0 1\nnope\n")
    with pytest.raises(gd.LoadError, match=r"e\.txt:2"):
        gd.load_edge_list(p)


def test_load_rejects_empty(tmp_path):
    with pytest.raises(gd.LoadError, match="no edges"):
        gd.load_edge_list(write(tmp_path, "e.txt", "# nothing\n"))


def test_load_rejects_negative_id(tmp_path):
    with pytest.raises(gd.LoadError, match="negative"):
        gd.load_edge_list(write(tmp_path, "e.txt", "0 -1\n"))


def test_load_edge_list_memory_per_input_byte(tmp_path):
    # about 16 bytes traced per byte of a 200k-edge list; the UTF-32 tokenizer
    # with a count per character peaked at about 32
    path = tmp_path / "e.txt"
    path.write_bytes(gd._pair_lines(np.random.default_rng(0).integers(20000, size=(200_000, 2))))
    tracemalloc.start()
    try:
        g = gd.load_edge_list(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n_edges > 199_000
    assert peak < 22 * path.stat().st_size, f"{peak / path.stat().st_size:.1f} bytes per input byte"


def test_cora_counts(cora_dir):
    g = gd.load_edge_list(cora_dir / "edges.txt")
    assert g.n_nodes == 2708
    assert g.n_edges == 5278


# ---------------------------------------------------------------------------
# load_features


def test_features_triplets(tmp_path):
    p = write(tmp_path, "f.txt", "0 0 1\n1 2 1\n")
    feats = gd.load_features(p, n_nodes=2)
    np.testing.assert_array_equal(to_dense(feats), [[1, 0, 0], [0, 0, 1]])


def test_features_csv(tmp_path):
    p = write(tmp_path, "f.csv", "1.0,0.5\n0.0,2.0\n")
    feats = gd.load_features(p, n_nodes=2)
    np.testing.assert_array_equal(to_dense(feats), [[1.0, 0.5], [0.0, 2.0]])


def test_features_last_triplet_wins(tmp_path):
    p = write(tmp_path, "f.txt", "0 1 2\n1 0 5\n0 1 3\n")
    feats = gd.load_features(p, n_nodes=2)
    np.testing.assert_array_equal(to_dense(feats), [[0, 3], [5, 0]])


def test_features_explicit_zero_overwrites(tmp_path):
    p = write(tmp_path, "f.txt", "0 1 2\n0 1 0\n1 2 0\n")
    feats = gd.load_features(p, n_nodes=2)
    np.testing.assert_array_equal(to_dense(feats), np.zeros((2, 3)))


def test_features_row_out_of_range(tmp_path):
    p = write(tmp_path, "f.txt", "5 0 1\n")
    with pytest.raises(gd.LoadError, match="out of range"):
        gd.load_features(p, n_nodes=2)


def test_features_csv_wrong_row_count(tmp_path):
    p = write(tmp_path, "f.csv", "1.0,0.0\n")
    with pytest.raises(gd.LoadError, match="rows"):
        gd.load_features(p, n_nodes=2)


def test_cora_feature_width(cora_dir):
    feats = gd.load_features(cora_dir / "features.txt", n_nodes=2708)
    assert feats.shape == (2708, 1433)


# ---------------------------------------------------------------------------
# normalize_adjacency


def test_normalize_single_node():
    g = graph_from_pairs([], 1)
    np.testing.assert_array_equal(to_dense(gd.normalize_adjacency(g)), [[1.0]])


def test_normalize_two_nodes_one_edge():
    g = graph_from_pairs([(0, 1)], 2)
    np.testing.assert_allclose(
        to_dense(gd.normalize_adjacency(g)), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15
    )


def test_normalize_path_graph_entry():
    g = graph_from_pairs([(0, 1), (1, 2)], 3)
    a_hat = to_dense(gd.normalize_adjacency(g))
    assert a_hat[0, 1] == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-12)


def test_normalize_isolated_node_row():
    g = graph_from_pairs([(0, 1)], 3)
    a_hat = to_dense(gd.normalize_adjacency(g))
    np.testing.assert_allclose(a_hat[2], [0.0, 0.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("seed", range(10))
def test_normalize_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    pairs = sorted(
        {
            (min(u, v), max(u, v))
            for u, v in zip(rng.integers(n, size=3 * n), rng.integers(n, size=3 * n))
            if u != v
        }
    )
    g = graph_from_pairs(pairs, n)
    a_hat = to_dense(gd.normalize_adjacency(g))
    np.testing.assert_allclose(a_hat, a_hat.T, atol=1e-12)
    deg = to_dense(g.adjacency).sum(axis=1)
    sums = a_hat.sum(axis=1)
    assert np.all(sums > 0.0)
    assert np.all(sums <= 1.0 + deg.max() + 1e-12)


# ---------------------------------------------------------------------------
# make_splits


def random_graph(seed, n=60, fill=0.08):
    rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) < fill
    pairs = [(int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(dense, 1)))]
    return graph_from_pairs(pairs, n)


def test_splits_partition_edges():
    g = random_graph(0)
    split = gd.make_splits(g, 0.10, 0.05, seed=1)
    full = edge_set(g.adjacency)
    train = edge_set(split.train_adjacency)
    held_val = pair_set(split.val_pos)
    held_test = pair_set(split.test_pos)
    assert train | held_val | held_test == full
    assert not (train & held_val) and not (train & held_test) and not (held_val & held_test)


def test_splits_negatives_are_non_edges_exhaustive():
    g = random_graph(3, n=120)
    split = gd.make_splits(g, 0.10, 0.05, seed=2)
    dense = to_dense(g.adjacency)
    negs = np.concatenate([split.val_neg, split.test_neg]).tolist()
    assert len(pair_set(negs)) == len(negs)
    for u, v in negs:
        assert u < v
        assert dense[u, v] == 0.0


def test_splits_counts_match_rounding():
    g = random_graph(5, n=80, fill=0.1)
    e = g.n_edges
    split = gd.make_splits(g, 0.10, 0.05, seed=0)
    assert len(split.test_pos) == max(1, int(np.floor(0.10 * e + 0.5)))
    assert len(split.val_pos) == max(1, int(np.floor(0.05 * e + 0.5)))
    assert len(split.test_neg) == len(split.test_pos)
    assert len(split.val_neg) == len(split.val_pos)


def test_splits_rounding_rule_reference_counts():
    # the documented 10%/5% holdout sizes for a 5278-edge graph
    assert gd._holdout_size(0.10, 5278) == 528
    assert gd._holdout_size(0.05, 5278) == 264


def test_splits_minimum_one_each():
    # tiny sparse graph: fractions round to zero but holdouts must be non-empty
    g = random_graph(11, n=30, fill=0.03)
    assert g.n_edges >= 5
    split = gd.make_splits(g, 0.1, 0.05, seed=0)
    assert len(split.test_pos) >= 1
    assert len(split.val_pos) >= 1


def test_splits_deterministic():
    g = random_graph(7)
    a = gd.make_splits(g, 0.10, 0.05, seed=9)
    b = gd.make_splits(g, 0.10, 0.05, seed=9)
    assert_splits_equal(a, b)


def test_splits_seed_changes_result():
    g = random_graph(7)
    a = gd.make_splits(g, 0.10, 0.05, seed=1)
    b = gd.make_splits(g, 0.10, 0.05, seed=2)
    assert not (np.array_equal(a.test_pos, b.test_pos) and np.array_equal(a.val_pos, b.val_pos))


def test_splits_train_adjacency_symmetric():
    g = random_graph(13)
    split = gd.make_splits(g, 0.2, 0.1, seed=4)
    a = to_dense(split.train_adjacency)
    np.testing.assert_array_equal(a, a.T)
    assert np.all(np.diag(a) == 0.0)


def test_splits_insufficient_non_edges():
    # complete graph on 4 nodes minus one edge: only a single non-edge exists,
    # so two disjoint negative sets cannot be drawn
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    g = graph_from_pairs(pairs, 4)
    with pytest.raises(gd.SplitError, match="non-edges"):
        gd.make_splits(g, 0.1, 0.05, seed=0)


def test_splits_rejects_zero_fraction():
    g = random_graph(1)
    with pytest.raises(gd.SplitError, match="fraction"):
        gd.make_splits(g, 0.0, 0.05, seed=0)


def test_splits_rejects_holdout_of_everything():
    g = random_graph(1)
    with pytest.raises(gd.SplitError, match="train"):
        gd.make_splits(g, 0.7, 0.4, seed=0)


def test_splits_dense_graph_fallback_finds_negatives():
    # nearly complete graph: rejection sampling alone would stall
    n = 24
    rng = np.random.default_rng(0)
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.97
    ]
    g = graph_from_pairs(pairs, n)
    n_non = n * (n - 1) // 2 - len(pairs)
    split = gd.make_splits(g, 0.02, 0.02, seed=0)
    assert len(split.val_neg) + len(split.test_neg) <= n_non
    dense = to_dense(g.adjacency)
    for u, v in list(split.val_neg) + list(split.test_neg):
        assert dense[u, v] == 0.0


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dense", [False, True])
def test_splits_match_the_tuple_reference(seed, dense, tmp_path, monkeypatch):
    rng = np.random.default_rng(seed)
    if dense:  # 70 nodes, every pair an edge but the 24 the negatives need
        n, test_frac, val_frac = 70, 0.005, 0.005
        upper = [(u, v) for u in range(n) for v in range(u + 1, n)]
        pairs = [upper[i] for i in np.sort(rng.permutation(len(upper))[24:])]
    else:
        n, test_frac, val_frac = 40, 0.2, 0.1
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.1]
    g = graph_from_pairs(pairs, n)
    enumerations = []
    triu_indices = np.triu_indices
    monkeypatch.setattr(np, "triu_indices", lambda *a, **k: enumerations.append(1) or triu_indices(*a, **k))
    gd.save_split(gd.make_splits(g, test_frac, val_frac, seed=seed), tmp_path / "new")
    assert bool(enumerations) == dense  # the dense graphs reach the enumeration fallback
    gd.save_split(oracle_make_splits(g, test_frac, val_frac, seed), tmp_path / "old")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n, density", [(300, 0.02), (120, 0.3), (90, 0.8)], ids=["sparse", "medium", "dense"])
def test_batched_sampler_matches_the_scalar_loop(seed, n, density, tmp_path):
    # near-complete graphs, which reach the fallback, are test_splits_match_the_tuple_reference's
    rng = np.random.default_rng(100 + seed)
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    g = graph_from_pairs(np.column_stack((iu[keep], iv[keep])), n)
    gd.save_split(gd.make_splits(g, 0.1, 0.05, seed=seed), tmp_path / "new")
    gd.save_split(oracle_make_splits(g, 0.1, 0.05, seed), tmp_path / "old")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


@pytest.mark.parametrize("n", [2, 70, 2000, 2**31 - 1, 2**33])
def test_batched_integers_are_the_scalar_stream(n):
    """One rng.integers(n) call per id and one call for a batch of ids draw the same ids."""
    scalar, batched = np.random.default_rng(5), np.random.default_rng(5)
    want = [int(scalar.integers(n)) for _ in range(200)]
    np.testing.assert_array_equal(batched.integers(n, size=(100, 2)).ravel(), want)
    assert scalar.random() == batched.random()


def test_cora_split_sizes(cora_dir):
    g = gd.load_edge_list(cora_dir / "edges.txt")
    split = gd.make_splits(g, 0.10, 0.05, seed=0)
    assert len(split.test_pos) == 528
    assert len(split.val_pos) == 264


# ---------------------------------------------------------------------------
# split round trip


def test_split_save_load_roundtrip(tmp_path):
    g = random_graph(21)
    split = gd.make_splits(g, 0.15, 0.05, seed=3)
    path = tmp_path / "split.txt"
    gd.save_split(split, path)
    loaded = gd.load_split(path, g)
    assert loaded.n_nodes == split.n_nodes
    assert loaded.seed == split.seed
    assert np.array_equal(loaded.val_pos, split.val_pos)
    assert np.array_equal(loaded.val_neg, split.val_neg)
    assert np.array_equal(loaded.test_pos, split.test_pos)
    assert np.array_equal(loaded.test_neg, split.test_neg)
    np.testing.assert_array_equal(
        to_dense(loaded.train_adjacency), to_dense(split.train_adjacency)
    )


SPLIT_OK = (
    "# nodes 4\n# seed 0\nTRAIN\n0 1\n1 2\nVAL_POS\n2 3\nVAL_NEG\n0 3\n"
    "TEST_POS\n0 2\nTEST_NEG\n1 3\n"
)
SPLIT_GRAPH = graph_from_pairs([(0, 1), (1, 2), (2, 3), (0, 2)], 4)  # the graph SPLIT_OK splits


def test_split_load_rejects_missing_header(tmp_path):
    p = write(tmp_path, "s.txt", "TRAIN\n0 1\n")
    with pytest.raises(gd.LoadError, match="nodes"):
        gd.load_split(p, SPLIT_GRAPH)


@pytest.mark.parametrize(
    "old,new,lineno",
    [
        ("# nodes 4", "# nodes abc", 1),
        ("# seed 0", "# seed x1", 2),
        ("# nodes 4", "# nodes 4 extra", 1),
        ("# seed 0", "# seed 0 x", 2),
    ],
    ids=["nodes", "seed", "nodes-extra", "seed-extra"],
)
def test_split_load_rejects_non_integer_header(tmp_path, old, new, lineno):
    p = write(tmp_path, "s.txt", SPLIT_OK.replace(old, new))
    with pytest.raises(gd.LoadError, match=rf"s\.txt:{lineno}: bad (nodes|seed) directive"):
        gd.load_split(p, SPLIT_GRAPH)


@pytest.mark.parametrize("pair", ["1 9", "-1 2", "4 0"])
def test_split_load_rejects_pair_out_of_range(tmp_path, pair):
    p = write(tmp_path, "s.txt", SPLIT_OK.replace("1 2\n", pair + "\n"))
    with pytest.raises(gd.LoadError, match=rf"s\.txt:5: TRAIN pair {pair} .*\[0, 4\)"):
        gd.load_split(p, SPLIT_GRAPH)


def test_split_load_rejects_self_pair(tmp_path):
    p = write(tmp_path, "s.txt", SPLIT_OK.replace("0 3\n", "3 3\n"))
    with pytest.raises(gd.LoadError, match=r"s\.txt:9: VAL_NEG pair 3 3 needs two distinct"):
        gd.load_split(p, SPLIT_GRAPH)


@pytest.mark.parametrize(
    "old,new,message,lineno",
    [
        ("TEST_POS\n0 2", "TEST_POS\n0 1", "TEST_POS pair 0 1 repeats line 4", 11),
        ("TEST_POS\n0 2", "TEST_POS\n2 1", "TEST_POS pair 2 1 repeats line 5", 11),
        ("VAL_POS\n2 3", "VAL_POS\n1 0", "VAL_POS pair 1 0 repeats line 4", 7),
        ("TEST_NEG\n1 3", "TEST_NEG\n2 1", "TEST_NEG pair 2 1 is an edge of the graph", 13),
    ],
    ids=["test-pos", "test-pos-reversed", "val-pos-reversed", "test-neg"],
)
def test_split_load_rejects_held_out_pair_in_train(tmp_path, old, new, message, lineno):
    # a TRAIN pair held out again repeats its line; a negative one is also an edge
    p = write(tmp_path, "s.txt", SPLIT_OK.replace(old, new))
    match = rf"s\.txt:{lineno}: {message}"
    with pytest.raises(gd.LoadError, match=match):
        gd.load_split(p, SPLIT_GRAPH)


@pytest.mark.parametrize("repeat", ["0 1", "1 0"], ids=["same", "reversed"])
def test_split_load_rejects_repeated_train_pair(tmp_path, repeat):
    # merged by the CSR build, a repeat would be a target of 2 in the link BCE
    p = write(tmp_path, "s.txt", SPLIT_OK.replace("1 2\n", f"1 2\n{repeat}\n"))
    with pytest.raises(gd.LoadError, match=rf"s\.txt:6: TRAIN pair {repeat} repeats"):
        gd.load_split(p, SPLIT_GRAPH)


@pytest.mark.parametrize(
    "text,named",
    [
        ("# nodes 4\nVAL_POS\n0 9\nTRAIN\n0 7\n", ":3: VAL_POS pair 0 9 needs two distinct"),
        ("# nodes 4\nVAL_POS\n0 1\nTRAIN\n0 1\n1 2\n2 1\n", ":5: TRAIN pair 0 1 repeats line 3"),
        ("# nodes 4\nTRAIN\n0 1\n1 0\nVAL_POS\n0 1\n", ":4: TRAIN pair 1 0 repeats line 3"),
        ("# nodes 4\nVAL_POS\n0 1\nTRAIN\n0 4\n0 1\n", ":5: TRAIN pair 0 4 needs two distinct"),
        ("# nodes 4\nVAL_POS\n0 1\nTRAIN\n0 1\n0 4\n", ":5: TRAIN pair 0 1 repeats line 3"),
        ("# nodes 4\nTRAIN\n0 3\n0 1\n0 1\n", ":3: TRAIN pair 0 3 is not an edge"),
        ("# nodes 4\nTRAIN\n0 1\n1 0\nTEST_NEG\n1 2\n", ":4: TRAIN pair 1 0 repeats line 3"),
        ("# nodes 5\nTRAIN\n0 9\n", ":1: split has 5 nodes, graph has 4"),
    ],
    ids=["range", "leak-before-repeat", "repeat-before-leak", "range-before-leak", "leak-before-range",
         "non-edge-before-repeat", "repeat-before-edge", "nodes-before-range"],
)
def test_split_load_names_the_first_bad_pair_by_line(tmp_path, text, named):
    # sections may come in any order; a pair held out again is a repeat (a leak)
    p = write(tmp_path, "s.txt", text)
    with pytest.raises(gd.LoadError, match=rf"s\.txt{named}"):
        gd.load_split(p, SPLIT_GRAPH)


@pytest.mark.parametrize("count", ["-4", "0"])
def test_split_load_rejects_non_positive_node_count(tmp_path, count):
    p = write(tmp_path, "s.txt", f"# nodes {count}\nTRAIN\n")
    with pytest.raises(gd.LoadError, match=rf"s\.txt:1: split has {count} nodes, graph has 4"):
        gd.load_split(p, SPLIT_GRAPH)


def test_split_with_empty_held_out_section_loads(tmp_path):
    # looking up an empty pair list in the train CSR used to raise ValueError
    p = write(tmp_path, "s.txt", SPLIT_OK.replace("1 2\nVAL_POS\n2 3\n", "1 2\n2 3\nVAL_POS\n"))
    split = gd.load_split(p, SPLIT_GRAPH)
    assert split.val_pos.shape == (0, 2)
    assert np.array_equal(split.test_pos, [[0, 2]])


@pytest.mark.parametrize("edge", ["0 1", "2 3"])
def test_split_load_rejects_an_edge_in_no_section(tmp_path, edge):
    # the edge would train as a non-edge and never be held out
    p = write(tmp_path, "s.txt", SPLIT_OK.replace(f"\n{edge}\n", "\n", 1))
    with pytest.raises(gd.LoadError, match=rf"s\.txt: graph edge {edge} is in none of TRAIN, VAL_POS and TEST_POS"):
        gd.load_split(p, SPLIT_GRAPH)


# ---------------------------------------------------------------------------
# atomic writes


def test_write_atomic_replaces_whole_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    gd.write_atomic(path, "new\n")
    gd.write_atomic(tmp_path / "b.bin", b"\x00\x01")
    assert path.read_text() == "new\n"
    assert (tmp_path / "b.bin").read_bytes() == b"\x00\x01"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.bin", "out.txt"]


def test_write_failing_midway_keeps_old_file(tmp_path):
    # a file-size limit makes the write fail after 4 KiB reached the disk
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    script = (
        "import resource, signal, sys\n"
        "from dglfrm.graphdata import write_atomic\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))\n"
        "try:\n"
        "    write_atomic(sys.argv[1], b'x' * 100_000)\n"
        "except OSError as e:\n"
        "    print(e.errno)\n"
    )
    src = str(Path(gd.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script, str(path)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert result.stdout.strip() == str(errno.EFBIG)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_failing_at_rename_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    path.write_text("old\n")

    def refuse(src, dst):
        raise OSError(errno.EXDEV, "rename refused")

    monkeypatch.setattr(gd.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        gd.save_edge_list(graph_from_pairs([(0, 1)], 2), path)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


# ---------------------------------------------------------------------------
# generate_synthetic


def test_synthetic_invariants():
    g, memberships = gd.generate_synthetic(gd.SyntheticSpec(100, 10, seed=0))
    assert g.n_nodes == 100
    assert memberships.shape == (100, 10)
    assert np.all(memberships.sum(axis=1) >= 1)
    assert np.all(memberships.sum(axis=0) >= 1)
    per_node = memberships.sum(axis=1)
    assert np.all(per_node <= 2)
    a = to_dense(g.adjacency)
    np.testing.assert_array_equal(a, a.T)
    assert np.all(np.diag(a) == 0.0)


def test_synthetic_deterministic():
    a1, m1 = gd.generate_synthetic(gd.SyntheticSpec(50, 5, seed=7))
    a2, m2 = gd.generate_synthetic(gd.SyntheticSpec(50, 5, seed=7))
    np.testing.assert_array_equal(to_dense(a1.adjacency), to_dense(a2.adjacency))
    np.testing.assert_array_equal(m1, m2)


def test_synthetic_block_structure_frequencies():
    g, memberships = gd.generate_synthetic(gd.SyntheticSpec(200, 4, seed=1))
    a = to_dense(g.adjacency)
    overlap = memberships @ memberships.T
    iu, iv = np.triu_indices(200, k=1)
    shared = overlap[iu, iv] >= 1
    same_rate = a[iu, iv][shared].mean()
    diff_rate = a[iu, iv][~shared].mean()
    assert same_rate >= 0.9
    assert diff_rate <= 0.1


def test_synthetic_edge_probability_constants():
    # shared membership: sigmoid(8*1 - 4) ~ 0.982; disjoint: sigmoid(-4) ~ 0.018
    assert 1.0 / (1.0 + np.exp(-4.0)) == pytest.approx(0.982, abs=5e-4)
    assert 1.0 / (1.0 + np.exp(4.0)) == pytest.approx(0.018, abs=5e-4)


def dense_generate_synthetic(spec):
    """The one-shot construction: the N x N probability matrix and every upper pair."""
    n, k = spec.n_nodes, spec.n_communities
    rng = np.random.default_rng(spec.seed)
    memberships = np.zeros((n, k))
    for node in range(n):
        primary = node % k
        memberships[node, primary] = 1.0
        if k > 1 and rng.random() < gd.OVERLAP_PROB:
            extra = (primary + 1 + int(rng.integers(k - 1))) % k
            memberships[node, extra] = 1.0
    probs = 1.0 / (1.0 + np.exp(-(8.0 * (memberships @ memberships.T) - 4.0)))
    iu, iv = np.triu_indices(n, k=1)
    present = rng.random(iu.size) < probs[iu, iv]
    return graph_from_pairs(np.column_stack((iu[present], iv[present])), n), memberships


def _output_digests(tmp_path, g, memberships):
    gd.save_edge_list(g, tmp_path / "e.txt")
    gd.save_memberships(memberships, tmp_path / "m.txt")
    return [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in ("e.txt", "m.txt")]


@pytest.mark.parametrize(
    "n,k,seed",
    [(2000, 40, 1), (2000, 40, 2), (2000, 40, 3), (1000, 25, 4), (300, 10, 5)],
    ids=["2000-seed1", "2000-seed2", "2000-seed3", "short-last-block", "one-block"],
)
def test_blocked_synthetic_matches_dense_construction(tmp_path, n, k, seed):
    # blocks of LINK_BLOCK_ELEMENTS // N rows: N=1000 ends on a short block
    # (262 rows per block), and N=300 fits in one
    spec = gd.SyntheticSpec(n, k, seed=seed)
    want = _output_digests(tmp_path, *dense_generate_synthetic(spec))
    assert _output_digests(tmp_path, *gd.generate_synthetic(spec)) == want


def test_synthetic_rejects_more_communities_than_nodes():
    with pytest.raises(gd.SplitError):
        gd.generate_synthetic(gd.SyntheticSpec(5, 10, seed=0))


# ---------------------------------------------------------------------------
# SparseMatrix and the GCN normalization, against scipy


def assert_same_csr(m: SparseMatrix, want: sp.csr_matrix, exact: bool = True) -> None:
    want = want.tocsr()
    want.sort_indices()
    assert m.shape == want.shape
    np.testing.assert_array_equal(m.indptr, want.indptr)
    np.testing.assert_array_equal(m.indices, want.indices)
    assert m.indices.dtype == np.int32 and m.values.dtype == np.float64
    if exact:
        np.testing.assert_array_equal(m.values, want.data)
    else:  # duplicates may be summed in another order
        assert_close(m.values, want.data, rtol=1e-15)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(0, 9), st.integers(0, 9), st.integers(0, 60),
    st.floats(0.0, 1.0),
)
def test_sparse_matrix_matches_scipy(seed, n_rows, n_cols, n_entries, zero_share):
    rng = np.random.default_rng(seed)
    n_entries *= n_rows * n_cols > 0
    rows, cols = rng.integers(max(n_rows, 1), size=n_entries), rng.integers(max(n_cols, 1), size=n_entries)
    vals = rng.normal(size=n_entries) * (rng.random(n_entries) >= zero_share)  # explicit zeros
    m = SparseMatrix.from_coo(rows, cols, vals, (n_rows, n_cols))
    want = sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols)).tocsr()
    want.sum_duplicates()
    assert_same_csr(m, want, exact=len(set(zip(rows, cols))) == n_entries)
    np.testing.assert_array_equal(to_dense(m), as_scipy(m).toarray())

    dense = to_dense(m)
    assert_same_csr(SparseMatrix(dense), sp.csr_matrix(dense))  # stores only the nonzeros

    if n_entries and n_rows * n_cols <= 81:  # dropout zeroes stored values but keeps them
        dropped = tc.sparse_dropout(m, 0.5, np.random.default_rng(seed))
        np.testing.assert_array_equal(dropped.indptr, m.indptr)
        np.testing.assert_array_equal(dropped.indices, m.indices)
        np.testing.assert_array_equal(to_dense(dropped), as_scipy(dropped).toarray())


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(0, 9), st.integers(0, 9), st.integers(0, 60),
    st.floats(0.0, 1.0), st.booleans(), st.booleans(), st.booleans(),
)
@example(seed=0, n_rows=4, n_cols=3, n_entries=0, zero_share=0.0, drop=False, integral=False, strided=False)  # nnz = 0
@example(seed=1, n_rows=9, n_cols=2, n_entries=3, zero_share=0.0, drop=False, integral=False, strided=False)  # empty rows
@example(  # empty columns, explicit zeros
    seed=2, n_rows=2, n_cols=9, n_entries=3, zero_share=1.0, drop=True, integral=False, strided=False,
)
@example(  # a dense operand that is a transposed view
    seed=3, n_rows=7, n_cols=5, n_entries=20, zero_share=0.0, drop=False, integral=False, strided=True,
)
@example(  # integer-valued stored values, as in an adjacency
    seed=4, n_rows=6, n_cols=6, n_entries=25, zero_share=0.0, drop=False, integral=True, strided=False,
)
def test_spmm_gradient_is_the_scipy_transpose_product(
    seed, n_rows, n_cols, n_entries, zero_share, drop, integral, strided,
):
    # entries are drawn independently, so a square matrix is in general not symmetric
    rng = np.random.default_rng(seed)
    n_entries *= n_rows * n_cols > 0
    rows, cols = rng.integers(max(n_rows, 1), size=n_entries), rng.integers(max(n_cols, 1), size=n_entries)
    vals = rng.normal(size=n_entries) * (rng.random(n_entries) >= zero_share)  # explicit zeros
    if integral:
        vals = np.rint(vals * 3)
    s = SparseMatrix.from_coo(rows, cols, vals, (n_rows, n_cols))
    if drop:
        s = tc.sparse_dropout(s, 0.5, rng)
    g = rng.normal(size=(n_rows, 3))
    b = tc.Tensor(rng.normal(size=(3, n_cols)).T if strided else rng.normal(size=(n_cols, 3)))
    b.requires_grad = True
    with tc.Tape():
        out = tc.spmm(s, b)
        tc.backward(tc.mul(out, g).sum())  # the product's gradient is g, exactly
    want = as_scipy(s) @ b.data
    assert out.shape == want.shape and out.data.tobytes() == np.ascontiguousarray(want).tobytes()
    want = as_scipy(s).T @ g
    assert b.grad.shape == want.shape and b.grad.tobytes() == np.ascontiguousarray(want).tobytes()


def test_sparse_matrix_rejects_out_of_range_entries():
    for rows, cols in (([2], [0]), ([0], [3]), ([-1], [0]), ([0], [-1])):
        with pytest.raises(tc.ShapeError, match="out of range"):
            SparseMatrix.from_coo(rows, cols, [1.0], (2, 3))


def scipy_normalize(adjacency: SparseMatrix) -> sp.csr_matrix:
    """The scipy formula normalize_adjacency replaces: (A + I) scaled by deg^-1/2 on both sides."""
    a_tilde = as_scipy(adjacency) + sp.identity(adjacency.shape[0], format="csr")
    inv_sqrt = 1.0 / np.sqrt(np.asarray(a_tilde.sum(axis=1)).ravel())
    return a_tilde.multiply(inv_sqrt[:, None]).multiply(inv_sqrt[None, :])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("weighted", [False, True])
def test_normalize_adjacency_is_bit_equal_to_scipy(seed, weighted):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    upper = np.triu(rng.random((n, n)) < rng.random(), 1) * (rng.uniform(0.1, 3.0, (n, n)) if weighted else 1.0)
    g = gd.Graph(n_nodes=n, adjacency=SparseMatrix(upper + upper.T))
    assert_same_csr(gd.normalize_adjacency(g), scipy_normalize(g.adjacency))


# ---------------------------------------------------------------------------
# the sort-built CSR paths against the from_coo routines they replaced


def assert_identical(m: SparseMatrix, want: SparseMatrix) -> None:
    assert m == want
    for name in ("indptr", "indices", "values"):
        assert getattr(m, name).dtype == getattr(want, name).dtype, name


def node_pairs(n: int, max_size: int = 20):
    return st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=max_size)


@settings(max_examples=200, deadline=None)
@given(case=st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), node_pairs(n))))
@example(case=(1, []))
@example(case=(1, [(0, 0)]))
@example(case=(4, []))
@example(case=(3, [(0, 1), (1, 0), (0, 1), (2, 1)]))  # repeats in both orientations
def test_adjacency_from_pairs_matches_from_coo(case):
    n, pairs = case
    got = gd._adjacency_from_pairs(pairs, n)
    assert_identical(got, oracle_adjacency_from_pairs(pairs, n))
    assert got._symmetric is True  # set when built, never computed
    assert oracle_is_symmetric(got)


@st.composite
def sparse_matrices(draw):
    """Square or not, often mirrored, then sometimes given one more entry: an
    asymmetric pattern, an asymmetric value or an explicit zero on one side."""
    n_rows = draw(st.integers(1, 6))
    n_cols = n_rows if draw(st.booleans()) else draw(st.integers(1, 6))
    value = st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0])
    cells = draw(st.lists(st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), value), max_size=12))
    if n_rows == n_cols and draw(st.booleans()):
        cells += [(c, r, v) for r, c, v in cells]
    if draw(st.booleans()):
        cells.append((draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1)), draw(value)))
    rows, cols, vals = zip(*cells) if cells else ((), (), ())
    return SparseMatrix.from_coo(rows, cols, vals, (n_rows, n_cols))


@settings(max_examples=300, deadline=None)
@given(m=sparse_matrices())
@example(m=SparseMatrix.from_coo([0], [1], [1.0], (2, 2)))  # asymmetric pattern
@example(m=SparseMatrix.from_coo([0, 1], [1, 0], [1.0, 2.0], (2, 2)))  # asymmetric values
@example(m=SparseMatrix.from_coo([0, 1], [1, 0], [0.0, 0.0], (2, 2)))  # explicit zeros, both sides
@example(m=SparseMatrix.from_coo([0, 1, 1], [1, 0, 1], [1.0, 1.0, 0.0], (2, 2)))  # a stored zero diagonal
@example(m=SparseMatrix.from_coo([0], [1], [0.0], (2, 2)))  # an explicit zero on one side
@example(m=SparseMatrix.from_coo([0], [0], [1.0], (1, 2)))  # non-square
@example(m=SparseMatrix(np.zeros((2, 3))))  # non-square, nothing stored
def test_symmetry_verdict_matches_the_transpose_comparison(m):
    want = oracle_is_symmetric(m)
    m = m.with_values(m.values)  # new values, no verdict yet; an explicit example is reused between runs
    assert m._symmetric is None
    assert m.is_symmetric() is want
    assert m._symmetric is want and m.is_symmetric() is want  # decided once


@st.composite
def graphs_with_stored_zeros(draw):
    """Graphs with isolated nodes, weighted edges and explicit zeros, on and off the diagonal."""
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1]),
                          unique=True, max_size=12))
    values = draw(st.lists(st.sampled_from([1.0, 2.5, 0.0]), min_size=len(pairs), max_size=len(pairs)))
    zero_diagonal = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    u, v = (np.array([p[i] for p in pairs], dtype=np.int64) for i in (0, 1))
    rows, cols = np.r_[u, v, zero_diagonal], np.r_[v, u, zero_diagonal]
    vals = np.r_[values, values, [draw(st.sampled_from([0.0, -0.0])) for _ in zero_diagonal]]
    return gd.Graph(n_nodes=n, adjacency=SparseMatrix.from_coo(rows, cols, vals, (n, n)))


@settings(max_examples=200, deadline=None)
@given(g=graphs_with_stored_zeros())
@example(g=gd.Graph(n_nodes=1, adjacency=SparseMatrix(np.zeros((1, 1)))))
@example(g=gd.Graph(n_nodes=3, adjacency=SparseMatrix.from_coo([1], [1], [0.0], (3, 3))))  # only a stored zero
def test_diagonal_insertion_matches_from_coo_a_plus_i(g):
    assert_identical(gd.normalize_adjacency(g), oracle_normalize_adjacency(g))


@given(st.lists(st.integers(-(2**62), 2**62), max_size=30) | st.lists(st.integers(0, 5), max_size=30))
def test_sort_dedupe_matches_np_unique(values):
    keys = np.sort(np.asarray(values, dtype=np.int64))
    got = keys[gd._run_starts(keys)]  # as load_edge_list dedupes its keys
    want = np.unique(np.asarray(values, dtype=np.int64))
    assert got.dtype == want.dtype and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Graph invariants


def test_graph_rejects_asymmetric():
    m = SparseMatrix([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(gd.LoadError, match="symmetric"):
        gd.Graph(n_nodes=2, adjacency=m)


def test_graph_rejects_self_loops():
    m = SparseMatrix([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(gd.LoadError, match="diagonal"):
        gd.Graph(n_nodes=2, adjacency=m)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=5, max_value=200))
def test_splits_partition_property(seed, n_edges_scale):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 80))
    pairs = sorted(
        {
            (min(u, v), max(u, v))
            for u, v in zip(
                rng.integers(n, size=n_edges_scale), rng.integers(n, size=n_edges_scale)
            )
            if u != v
        }
    )
    if len(pairs) < 8:
        return
    g = graph_from_pairs(pairs, n)
    try:
        split = gd.make_splits(g, 0.10, 0.05, seed=seed)
    except gd.SplitError:
        return
    full = set(pairs)
    train = edge_set(split.train_adjacency)
    assert train | pair_set(split.val_pos) | pair_set(split.test_pos) == full
    assert len(train) + len(split.val_pos) + len(split.test_pos) == len(full)
    dense = to_dense(g.adjacency)
    for u, v in list(split.val_neg) + list(split.test_neg):
        assert dense[u, v] == 0.0
