"""Ranking metrics and community extraction."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dglfrm import metrics as mx
from dglfrm import trainer
from dglfrm.tensor import UsageError


def brute_force_auc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def brute_force_ap(scores, labels):
    order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    hits = np.asarray(labels)[order]
    precisions = []
    seen = 0
    for rank, hit in enumerate(hits, start=1):
        if hit:
            seen += 1
            precisions.append(seen / rank)
    return float(np.mean(precisions))


class TestAucRoc:
    def test_perfect_separation(self):
        assert mx.auc_roc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_all_ties_give_half(self):
        assert mx.auc_roc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_interleaved_example(self):
        assert mx.auc_roc([0.8, 0.7, 0.4, 0.3], [1, 0, 1, 0]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(mx.MetricError):
            mx.auc_roc([0.1, 0.2], [1, 1])
        with pytest.raises(mx.MetricError):
            mx.auc_roc([0.1, 0.2], [0, 0])

    def test_label_values_validated(self):
        with pytest.raises(mx.MetricError):
            mx.auc_roc([0.1, 0.2], [1, 2])

    def test_length_mismatch(self):
        with pytest.raises(mx.MetricError):
            mx.auc_roc([0.1, 0.2, 0.3], [1, 0])

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(mx.MetricError):
            mx.auc_roc([0.1, np.nan], [1, 0])

    @given(
        st.lists(st.integers(0, 20), min_size=2, max_size=30),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, raw, data):
        labels = data.draw(
            st.lists(st.integers(0, 1), min_size=len(raw), max_size=len(raw))
        )
        if len(set(labels)) < 2:
            labels[0], labels[-1] = 0, 1
        scores = [r / 7.0 for r in raw]  # coarse grid produces plenty of ties
        assert abs(mx.auc_roc(scores, labels) - brute_force_auc(scores, labels)) < 1e-12

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=25, unique=True), st.data())
    @settings(max_examples=60, deadline=None)
    def test_complement_rule_without_ties(self, scores, data):
        labels = data.draw(
            st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores))
        )
        if len(set(labels)) < 2:
            labels[0], labels[-1] = 0, 1
        forward = mx.auc_roc(scores, labels)
        backward = mx.auc_roc([-s for s in scores], labels)
        assert abs(forward + backward - 1.0) < 1e-12

    @given(st.lists(st.integers(-240, 240), min_size=2, max_size=25), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_transform_invariance(self, raw, data):
        labels = data.draw(
            st.lists(st.integers(0, 1), min_size=len(raw), max_size=len(raw))
        )
        if len(set(labels)) < 2:
            labels[0], labels[-1] = 0, 1
        # eighth-integer grid: the transforms below keep float order exact
        scores = [r / 8.0 for r in raw]
        transformed = [3.0 * s + 1.0 for s in scores]
        assert abs(mx.auc_roc(scores, labels) - mx.auc_roc(transformed, labels)) < 1e-12
        expit = [1.0 / (1.0 + np.exp(-s)) for s in scores]
        assert abs(mx.auc_roc(scores, labels) - mx.auc_roc(expit, labels)) < 1e-12


class TestMidranks:
    """`_midranks` against scipy's rankdata, which the tests may import."""

    @given(
        st.one_of(
            st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]), min_size=1, max_size=40),
            st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
            st.integers(1, 30).map(lambda n: [0.25] * n),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_equal_to_rankdata_average(self, scores):
        from scipy.stats import rankdata

        s = np.asarray(scores, dtype=np.float64)
        np.testing.assert_array_equal(mx._midranks(s), rankdata(s, method="average"))

    @given(st.lists(st.integers(0, 6), min_size=2, max_size=40), st.data())
    @settings(max_examples=100, deadline=None)
    def test_auc_bit_identical_to_rankdata_formula(self, raw, data):
        from scipy.stats import rankdata

        labels = np.asarray(data.draw(st.lists(st.integers(0, 1), min_size=len(raw), max_size=len(raw))))
        labels[0], labels[-1] = 0, 1
        s = np.asarray(raw, dtype=np.float64) / 3.0  # heavy ties
        n_pos = int(labels.sum())
        n_neg = labels.size - n_pos
        rank_sum = float(rankdata(s, method="average")[labels == 1].sum())
        expected = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        assert mx.auc_roc(s, labels) == expected

    def test_single_value(self):
        np.testing.assert_array_equal(mx._midranks(np.array([3.0])), [1.0])


class TestAveragePrecision:
    def test_single_positive_ranked_first(self):
        assert mx.average_precision([0.9, 0.5, 0.1], [1, 0, 0]) == 1.0

    def test_single_positive_ranked_last(self):
        n = 5
        scores = [0.9, 0.8, 0.7, 0.6, 0.5]
        labels = [0, 0, 0, 0, 1]
        assert abs(mx.average_precision(scores, labels) - 1.0 / n) < 1e-12

    def test_two_positive_example(self):
        got = mx.average_precision([0.9, 0.8, 0.7], [1, 0, 1])
        assert abs(got - (1.0 + 2.0 / 3.0) / 2.0) < 1e-4

    def test_single_class_rejected(self):
        with pytest.raises(mx.MetricError):
            mx.average_precision([0.5, 0.4], [0, 0])

    def test_tie_break_is_stable_index_order(self):
        # equal scores keep original order: positive at index 0 ranks first
        assert mx.average_precision([0.5, 0.5], [1, 0]) == 1.0
        assert mx.average_precision([0.5, 0.5], [0, 1]) == 0.5

    @given(st.lists(st.integers(0, 15), min_size=2, max_size=25), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_definition(self, raw, data):
        labels = data.draw(
            st.lists(st.integers(0, 1), min_size=len(raw), max_size=len(raw))
        )
        if len(set(labels)) < 2:
            labels[0], labels[-1] = 0, 1
        scores = [r / 3.0 for r in raw]
        assert (
            abs(mx.average_precision(scores, labels) - brute_force_ap(scores, labels))
            < 1e-12
        )

    @given(
        st.lists(st.integers(-240, 240), min_size=2, max_size=20, unique=True),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance(self, raw, data):
        labels = data.draw(
            st.lists(st.integers(0, 1), min_size=len(raw), max_size=len(raw))
        )
        if len(set(labels)) < 2:
            labels[0], labels[-1] = 0, 1
        scores = [r / 8.0 for r in raw]
        stretched = [2.5 * s - 4.0 for s in scores]
        assert (
            abs(mx.average_precision(scores, labels) - mx.average_precision(stretched, labels))
            < 1e-12
        )


class TestMetricsReport:
    def test_text_and_json_agree(self):
        report = mx.MetricsReport(auc=0.93, ap=0.91, n_pos=50, n_neg=50, split_seed=7)
        payload = json.loads(report.to_json())
        assert payload["auc"] == 0.93
        assert payload["split_seed"] == 7
        text = report.to_text()
        assert "auc 0.930000" in text
        assert "n_pos 50" in text


# ---------------------------------------------------------------------------
# communities


def source_columns(assign, prob):
    """The column of `prob` each community came from (None when empty), for strengths equal to `prob`."""
    columns = []
    for members in assign.communities:
        fits = [c for c in range(prob.shape[1]) if all(prob[node, c] == s for node, s in members)]
        assert not members or len(fits) == 1
        columns.append(fits[0] if members else None)
    return columns


def node_columns(assign, prob):
    """{node: {source column: strength}} read off the communities."""
    rows = {}
    for column, members in zip(source_columns(assign, prob), assign.communities):
        for node, strength in members:
            rows.setdefault(node, {})[column] = strength
    return rows


class TestCommunitiesFromMemberships:
    def test_threshold_rule(self):
        prob = np.array([[0.9, 0.1]])
        assign = mx.communities_from_memberships(prob, prob, 0.5)
        assert assign.communities == (((0, 0.9),), ())
        assert node_columns(assign, prob) == {0: {0: 0.9}}
        assert assign.n_unassigned == 0

    def test_all_below_threshold_is_unassigned(self):
        prob = np.array([[0.2, 0.3], [0.9, 0.1]])
        assign = mx.communities_from_memberships(prob, prob, 0.5)
        assert 0 not in node_columns(assign, prob)
        assert assign.n_unassigned == 1

    def test_reindexed_by_member_count(self):
        # column 1 has the most members and must become community 0
        prob = np.array(
            [
                [0.9, 0.8, 0.1],
                [0.1, 0.9, 0.1],
                [0.2, 0.7, 0.9],
                [0.1, 0.6, 0.1],
            ]
        )
        assign = mx.communities_from_memberships(prob, prob, 0.5)
        assert tuple(len(c) for c in assign.communities) == (4, 1, 1)
        assert source_columns(assign, prob)[0] == 1

    def test_members_sorted_by_strength_desc(self):
        prob = np.array([[0.6], [0.9], [0.7]])
        strength = np.array([[1.0], [3.0], [2.0]])
        assign = mx.communities_from_memberships(prob, strength, 0.5)
        assert assign.communities[0] == ((1, 3.0), (2, 2.0), (0, 1.0))

    def test_reindex_is_permutation(self):
        rng = np.random.default_rng(0)
        prob = rng.random((30, 6))
        assign = mx.communities_from_memberships(prob, prob, 0.5)
        columns = source_columns(assign, prob)
        assert sorted(columns) == list(range(6))
        mask = prob >= 0.5
        rows = node_columns(assign, prob)
        assert [len(rows.get(node, {})) for node in range(30)] == list(mask.sum(axis=1))
        assert [len(c) for c in assign.communities] == list(mask.sum(axis=0)[columns])
        assert sum(len(c) for c in assign.communities) == int(mask.sum())

    def test_raising_tau_never_adds_membership(self):
        rng = np.random.default_rng(1)
        prob = rng.random((25, 5))
        low = mx.communities_from_memberships(prob, prob, 0.3)
        high = mx.communities_from_memberships(prob, prob, 0.7)
        low_rows, high_rows = node_columns(low, prob), node_columns(high, prob)
        for node in range(25):
            assert set(high_rows.get(node, {})) <= set(low_rows.get(node, {}))

    def test_tau_out_of_range(self):
        prob = np.ones((2, 2))
        with pytest.raises(UsageError):
            mx.communities_from_memberships(prob, prob, 1.01)
        with pytest.raises(UsageError):
            mx.communities_from_memberships(prob, prob, 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            mx.communities_from_memberships(np.ones((2, 2)), np.ones((2, 3)), 0.5)


class TestActiveCommunities:
    def test_empty_assignment(self):
        prob = np.zeros((3, 4))
        assign = mx.communities_from_memberships(prob, prob, 0.5)
        assert mx.active_communities(assign) == 0
        assert assign.n_unassigned == 3

    def test_all_in_one_community(self):
        prob = np.zeros((5, 3))
        prob[:, 1] = 0.9
        assign = mx.communities_from_memberships(prob, prob, 0.5)
        assert mx.active_communities(assign) == 1

    def test_min_members_filter(self):
        prob = np.array([[0.9, 0.9], [0.9, 0.1], [0.9, 0.2]])
        assign = mx.communities_from_memberships(prob, prob, 0.5)
        assert mx.active_communities(assign, min_members=1) == 2
        assert mx.active_communities(assign, min_members=2) == 1

    def test_min_members_validated(self):
        prob = np.ones((2, 2))
        assign = mx.communities_from_memberships(prob, prob, 0.5)
        with pytest.raises(UsageError):
            mx.active_communities(assign, min_members=0)


class TestExtractCommunities:
    def make_synth_ckpt(self, variant="dglfrm", epochs=4):
        from dglfrm import graphdata as gd

        g, _ = gd.generate_synthetic(gd.SyntheticSpec(n_nodes=30, n_communities=3, seed=4))
        split = gd.make_splits(g, test_frac=0.15, val_frac=0.05, seed=1)
        cfg = trainer.TrainConfig(
            variant=variant,
            k=5,
            hidden=16,
            decoder_hidden=(8,),
            epochs=epochs,
            seed=0,
            val_every=2,
        )
        ckpt, _ = trainer.train(g, split, cfg)
        return ckpt, g

    @staticmethod
    def extract(ckpt, g, threshold):
        from dglfrm.graphdata import normalize_adjacency

        a_hat = normalize_adjacency(trainer.effective_graph(g, ckpt.config))
        latents = trainer.posterior_latents(ckpt, g, a_hat)
        return mx.extract_communities(ckpt.config.model_variant, latents, threshold)

    def test_deterministic_given_checkpoint(self):
        ckpt, g = self.make_synth_ckpt()
        a = self.extract(ckpt, g, 0.5)
        b = self.extract(ckpt, g, 0.5)
        assert a == b

    def test_membership_variants_supported(self):
        for variant in ("dglfrm", "dglfrm-b", "lfrm"):
            ckpt, g = self.make_synth_ckpt(variant=variant, epochs=2)
            assign = self.extract(ckpt, g, 0.5)
            assert assign.n_nodes == g.n_nodes

    @pytest.mark.parametrize("variant", ["lsm", "vgae"])
    def test_dense_variants_rejected(self, variant):
        ckpt, g = self.make_synth_ckpt(variant=variant, epochs=1)
        with pytest.raises(UsageError, match="membership"):
            self.extract(ckpt, g, 0.5)

    def test_tau_validated_before_compute(self):
        ckpt, g = self.make_synth_ckpt(epochs=1)
        with pytest.raises(UsageError):
            self.extract(ckpt, g, 1.5)

    def test_dglfrm_strength_is_masked_magnitude(self):
        ckpt, g = self.make_synth_ckpt(epochs=2)
        from dglfrm.graphdata import normalize_adjacency

        latents = trainer.posterior_latents(
            ckpt, g, normalize_adjacency(trainer.effective_graph(g, ckpt.config))
        )
        assign = self.extract(ckpt, g, 0.5)
        want = np.abs(latents.b_prob * latents.mu)
        assert assign == mx.communities_from_memberships(latents.b_prob, want, 0.5)


class TestFormatCommunities:
    def test_one_line_per_community(self):
        prob = np.array([[0.9, 0.1], [0.8, 0.9]])
        strength = np.array([[2.0, 0.5], [1.0, 3.0]])
        assign = mx.communities_from_memberships(prob, strength, 0.5)
        text = mx.format_communities(assign)
        lines = text.strip().splitlines()
        assert lines[0] == "# nodes 2"
        assert any(line.startswith("community 0 size 2") for line in lines)
        assert "1:3.0000" in text
