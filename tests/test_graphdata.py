import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dglfrm import graphdata as gd
from dglfrm.tensor import SparseMatrix


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def graph_from_pairs(pairs, n):
    return gd.Graph(n_nodes=n, adjacency=gd._adjacency_from_pairs(pairs, n))


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


def test_cora_counts(cora_dir):
    g = gd.load_edge_list(cora_dir / "edges.txt")
    assert g.n_nodes == 2708
    assert g.n_edges == 5278


# ---------------------------------------------------------------------------
# load_features


def test_features_triplets(tmp_path):
    p = write(tmp_path, "f.txt", "0 0 1\n1 2 1\n")
    feats = gd.load_features(p, n_nodes=2)
    np.testing.assert_array_equal(feats.data, [[1, 0, 0], [0, 0, 1]])


def test_features_csv(tmp_path):
    p = write(tmp_path, "f.csv", "1.0,0.5\n0.0,2.0\n")
    feats = gd.load_features(p, n_nodes=2)
    np.testing.assert_array_equal(feats.data, [[1.0, 0.5], [0.0, 2.0]])


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
    np.testing.assert_array_equal(gd.normalize_adjacency(g).to_dense(), [[1.0]])


def test_normalize_two_nodes_one_edge():
    g = graph_from_pairs([(0, 1)], 2)
    np.testing.assert_allclose(
        gd.normalize_adjacency(g).to_dense(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15
    )


def test_normalize_path_graph_entry():
    g = graph_from_pairs([(0, 1), (1, 2)], 3)
    a_hat = gd.normalize_adjacency(g).to_dense()
    assert a_hat[0, 1] == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-12)


def test_normalize_isolated_node_row():
    g = graph_from_pairs([(0, 1)], 3)
    a_hat = gd.normalize_adjacency(g).to_dense()
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
    a_hat = gd.normalize_adjacency(g).to_dense()
    np.testing.assert_allclose(a_hat, a_hat.T, atol=1e-12)
    deg = g.adjacency.to_dense().sum(axis=1)
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
    full = set(gd.undirected_edges(g))
    train = set(gd.undirected_edges(gd.Graph(g.n_nodes, split.train_adjacency)))
    held_val = set(split.val_pos)
    held_test = set(split.test_pos)
    assert train | held_val | held_test == full
    assert not (train & held_val) and not (train & held_test) and not (held_val & held_test)


def test_splits_negatives_are_non_edges_exhaustive():
    g = random_graph(3, n=120)
    split = gd.make_splits(g, 0.10, 0.05, seed=2)
    dense = g.adjacency.to_dense()
    negs = list(split.val_neg) + list(split.test_neg)
    assert len(set(negs)) == len(negs)
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
    assert a == b


def test_splits_seed_changes_result():
    g = random_graph(7)
    a = gd.make_splits(g, 0.10, 0.05, seed=1)
    b = gd.make_splits(g, 0.10, 0.05, seed=2)
    assert a.test_pos != b.test_pos or a.val_pos != b.val_pos


def test_splits_train_adjacency_symmetric():
    g = random_graph(13)
    split = gd.make_splits(g, 0.2, 0.1, seed=4)
    a = split.train_adjacency.to_dense()
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
    dense = g.adjacency.to_dense()
    for u, v in list(split.val_neg) + list(split.test_neg):
        assert dense[u, v] == 0.0


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
    loaded = gd.load_split(path)
    assert loaded.n_nodes == split.n_nodes
    assert loaded.seed == split.seed
    assert loaded.val_pos == split.val_pos
    assert loaded.val_neg == split.val_neg
    assert loaded.test_pos == split.test_pos
    assert loaded.test_neg == split.test_neg
    np.testing.assert_array_equal(
        loaded.train_adjacency.to_dense(), split.train_adjacency.to_dense()
    )


def test_split_load_rejects_missing_header(tmp_path):
    p = write(tmp_path, "s.txt", "TRAIN\n0 1\n")
    with pytest.raises(gd.LoadError, match="nodes"):
        gd.load_split(p)


SPLIT_OK = (
    "# nodes 4\n# seed 0\nTRAIN\n0 1\n1 2\nVAL_POS\n2 3\nVAL_NEG\n0 3\n"
    "TEST_POS\n0 2\nTEST_NEG\n1 3\n"
)


@pytest.mark.parametrize(
    "old,new,lineno",
    [
        ("# nodes 4", "# nodes abc", 1),
        ("# seed 0", "# seed x1", 2),
    ],
    ids=["nodes", "seed"],
)
def test_split_load_rejects_non_integer_header(tmp_path, old, new, lineno):
    p = write(tmp_path, "s.txt", SPLIT_OK.replace(old, new))
    with pytest.raises(gd.LoadError, match=rf"s\.txt:{lineno}: non-integer header"):
        gd.load_split(p)


@pytest.mark.parametrize("pair", ["1 9", "-1 2", "4 0"])
def test_split_load_rejects_pair_out_of_range(tmp_path, pair):
    p = write(tmp_path, "s.txt", SPLIT_OK.replace("1 2\n", pair + "\n"))
    with pytest.raises(gd.LoadError, match=rf"s\.txt:5: TRAIN pair {pair} .*\[0, 4\)"):
        gd.load_split(p)


def test_split_load_rejects_self_pair(tmp_path):
    p = write(tmp_path, "s.txt", SPLIT_OK.replace("0 3\n", "3 3\n"))
    with pytest.raises(gd.LoadError, match=r"s\.txt:9: VAL_NEG pair 3 3 needs two distinct"):
        gd.load_split(p)


@pytest.mark.parametrize(
    "old,new,section,lineno",
    [
        ("TEST_POS\n0 2", "TEST_POS\n0 1", "TEST_POS", 11),
        ("TEST_POS\n0 2", "TEST_POS\n2 1", "TEST_POS", 11),
        ("VAL_POS\n2 3", "VAL_POS\n1 0", "VAL_POS", 7),
        ("TEST_NEG\n1 3", "TEST_NEG\n2 1", "TEST_NEG", 13),
    ],
    ids=["test-pos", "test-pos-reversed", "val-pos-reversed", "test-neg"],
)
def test_split_load_rejects_held_out_pair_in_train(tmp_path, old, new, section, lineno):
    p = write(tmp_path, "s.txt", SPLIT_OK.replace(old, new))
    match = rf"s\.txt:{lineno}: {section} pair .* also a TRAIN edge"
    with pytest.raises(gd.LoadError, match=match):
        gd.load_split(p)


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
    a = g.adjacency.to_dense()
    np.testing.assert_array_equal(a, a.T)
    assert np.all(np.diag(a) == 0.0)


def test_synthetic_deterministic():
    a1, m1 = gd.generate_synthetic(gd.SyntheticSpec(50, 5, seed=7))
    a2, m2 = gd.generate_synthetic(gd.SyntheticSpec(50, 5, seed=7))
    np.testing.assert_array_equal(a1.adjacency.to_dense(), a2.adjacency.to_dense())
    np.testing.assert_array_equal(m1, m2)


def test_synthetic_block_structure_frequencies():
    g, memberships = gd.generate_synthetic(gd.SyntheticSpec(200, 4, seed=1))
    a = g.adjacency.to_dense()
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


def test_synthetic_rejects_more_communities_than_nodes():
    with pytest.raises(gd.SplitError):
        gd.generate_synthetic(gd.SyntheticSpec(5, 10, seed=0))


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
    train = set(gd.undirected_edges(gd.Graph(n, split.train_adjacency)))
    assert train | set(split.val_pos) | set(split.test_pos) == full
    assert len(train) + len(split.val_pos) + len(split.test_pos) == len(full)
    dense = g.adjacency.to_dense()
    for u, v in list(split.val_neg) + list(split.test_neg):
        assert dense[u, v] == 0.0
