"""ELBO assembly, the training loop, checkpoints, and posterior scoring."""

import dataclasses
import json
import struct
import zlib

import numpy as np
import pytest

from dglfrm import graphdata as gd
from dglfrm import metrics as mx
from dglfrm import model as md
from dglfrm import tensor as tc
from dglfrm import trainer
from dglfrm.graphdata import Graph, SplitSpec, normalize_adjacency
from dglfrm.tensor import NumericDomainError, SparseMatrix, Tensor, UsageError
from dglfrm.trainer import (
    Checkpoint,
    CheckpointError,
    ConfigError,
    StepNoise,
    TrainConfig,
)


def small_graph(n=6, extra=((1, 4),), seed=8, with_features=True):
    pairs = [(i, (i + 1) % n) for i in range(n)] + list(extra)
    rows = [u for u, v in pairs] + [v for u, v in pairs]
    cols = [v for u, v in pairs] + [u for u, v in pairs]
    adj = SparseMatrix.from_coo(rows, cols, np.ones(len(rows)), (n, n))
    features = None
    if with_features:
        rng = np.random.default_rng(seed)
        features = Tensor((rng.random((n, 3)) < 0.5).astype(float))
    return Graph(n_nodes=n, adjacency=adj, features=features)


def trivial_split(g):
    return SplitSpec(
        n_nodes=g.n_nodes,
        train_adjacency=g.adjacency,
        val_pos=(),
        val_neg=(),
        test_pos=(),
        test_neg=(),
        seed=0,
    )


def tiny_config(**over):
    base = dict(
        variant="dglfrm",
        k=4,
        hidden=5,
        decoder_hidden=(3,),
        dropout=0.0,
        seed=1,
        epochs=3,
        val_every=2,
    )
    base.update(over)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def synth():
    g, memberships = gd.generate_synthetic(
        gd.SyntheticSpec(n_nodes=40, n_communities=4, seed=5)
    )
    split = gd.make_splits(g, test_frac=0.15, val_frac=0.05, seed=2)
    return g, split


# ---------------------------------------------------------------------------
# TrainConfig


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.k == 50
        assert cfg.alpha == 10.0
        assert cfg.lr == 0.01
        assert cfg.structured is True

    @pytest.mark.parametrize(
        "bad",
        [
            {"k": 0},
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"lr": 0.0},
            {"epochs": -1},
            {"dropout": 1.0},
            {"dropout": -0.1},
            {"lambda_prior": 0.0},
            {"lambda_post": -0.5},
            {"prior_r_sigma": 0.0},
            {"val_every": 0},
            {"kl_anneal_epochs": -1},
            {"decoder_hidden": (0,)},
            {"pos_weight": 0.0},
            {"variant": "gin"},
        ],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises((ConfigError, UsageError)):
            TrainConfig(**bad)

    def test_json_roundtrip(self):
        cfg = tiny_config(variant="lfrm", alpha=3.5, decoder_hidden=(9, 2))
        assert TrainConfig.from_json(cfg.to_json()) == cfg

    def test_json_rejects_unknown_keys(self):
        payload = json.loads(TrainConfig().to_json())
        payload["momentum"] = 0.9
        with pytest.raises(ConfigError, match="momentum"):
            TrainConfig.from_json(json.dumps(payload))

    def test_json_rejects_garbage(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_json("{not json")

    def test_decoder_hidden_list_becomes_tuple(self):
        cfg = TrainConfig(decoder_hidden=[8, 4])
        assert cfg.decoder_hidden == (8, 4)

    def test_effective_hidden_defaults(self):
        with_x = small_graph(with_features=True)
        without_x = small_graph(with_features=False)
        assert TrainConfig().effective_hidden(with_x) == 32
        assert TrainConfig().effective_hidden(without_x) == 128
        assert TrainConfig(hidden=7).effective_hidden(with_x) == 7

    def test_feature_term_requires_features(self):
        g = small_graph(with_features=False)
        with pytest.raises(ConfigError):
            TrainConfig(feature_term=True).feature_term_enabled(g)


class TestDrawNoise:
    def test_structured_sticks_are_global(self):
        noise = trainer.draw_noise(
            np.random.default_rng(0), 9, 4, md.ModelVariant.DGLFRM, True
        )
        assert noise.u_v.u.shape == (1, 4)
        assert noise.u_b.u.shape == (9, 4)
        assert noise.eps_r.shape == (9, 4)

    def test_mean_field_sticks_are_per_node(self):
        noise = trainer.draw_noise(
            np.random.default_rng(0), 9, 4, md.ModelVariant.DGLFRM, False
        )
        assert noise.u_v.u.shape == (9, 4)

    def test_gaussian_only_variant_skips_sticks(self):
        noise = trainer.draw_noise(
            np.random.default_rng(0), 9, 4, md.ModelVariant.LSM, True
        )
        assert noise.u_v is None and noise.u_b is None
        assert noise.eps_r.shape == (9, 4)

    def test_binary_only_variant_skips_gaussian(self):
        noise = trainer.draw_noise(
            np.random.default_rng(0), 9, 4, md.ModelVariant.LFRM, True
        )
        assert noise.eps_r is None
        assert noise.u_b.u.shape == (9, 4)


# ---------------------------------------------------------------------------
# elbo_loss


def two_node_setup(variant="dglfrm"):
    adj = SparseMatrix.from_coo([0, 1], [1, 0], [1.0, 1.0], (2, 2))
    g = Graph(n_nodes=2, adjacency=adj)
    split = trivial_split(g)
    cfg = tiny_config(variant=variant, hidden=2, k=2, decoder_hidden=(2,))
    params = trainer.init_params(g, cfg, np.random.default_rng(0))
    noise = trainer.draw_noise(
        np.random.default_rng(1), 2, 2, cfg.model_variant, cfg.structured
    )
    return g, split, cfg, params, noise


class TestElboLoss:
    def test_half_predictions_give_four_ln_two(self):
        # all-ones labels (edge plus diagonal), w_pos pinned to 1, KLs off:
        # the link term is plain cross entropy at probability 0.5 per cell
        g, split, cfg, params, noise = two_node_setup()
        for p in params.decoder.parameters():
            p.data[...] = 0.0
        a_hat = normalize_adjacency(g)
        loss, parts = trainer.elbo_loss(
            g, a_hat, split, params, cfg, noise, kl_weight=0.0, pos_weight=1.0
        )
        assert abs(parts.link_nll - 4.0 * np.log(2.0)) < 1e-12
        assert abs(parts.total - 4.0 * np.log(2.0)) < 1e-12

    def test_saturated_fit_drives_loss_to_zero(self):
        adj = SparseMatrix.from_coo([0, 1], [1, 0], [1.0, 1.0], (2, 2))
        g = Graph(n_nodes=2, adjacency=adj)
        split = trivial_split(g)
        cfg = tiny_config(variant="vgae", hidden=2, k=2, use_features=False)
        noise = StepNoise(eps_r=np.zeros((2, 2)))
        a_hat = normalize_adjacency(g)

        losses = []
        for scale in (1.0, 10.0):
            params = trainer.init_params(g, cfg, np.random.default_rng(0))
            params.encoder.w1.data[...] = np.eye(2) * scale
            params.encoder.w_mu.data[...] = scale
            loss, parts = trainer.elbo_loss(
                g,
                a_hat,
                split,
                params,
                cfg,
                noise,
                kl_weight=0.0,
                pos_weight=1.0,
                train_mode=False,
            )
            losses.append(parts.total)
        assert losses[1] < losses[0]
        assert losses[1] < 1e-6

    @pytest.mark.parametrize("variant", ["lsm", "vgae"])
    def test_gaussian_variants_drop_binary_kls(self, variant):
        g, split, cfg, params, noise = two_node_setup(variant)
        _, parts = trainer.elbo_loss(g, normalize_adjacency(g), split, params, cfg, noise)
        assert parts.kl_b == 0.0
        assert parts.kl_v == 0.0
        assert parts.kl_r > 0.0

    @pytest.mark.parametrize("variant", ["dglfrm-b", "lfrm"])
    def test_binary_variants_drop_gaussian_kl(self, variant):
        g, split, cfg, params, noise = two_node_setup(variant)
        _, parts = trainer.elbo_loss(g, normalize_adjacency(g), split, params, cfg, noise)
        assert parts.kl_r == 0.0

    def test_structured_stick_kl_counted_once(self):
        import dglfrm.stochastic as sl

        g, split, cfg, params, noise = two_node_setup()
        _, parts = trainer.elbo_loss(g, normalize_adjacency(g), split, params, cfg, noise)
        q = sl.KumaraswamyParams(params.sticks.c(), params.sticks.d())
        direct = sl.kl_kumaraswamy_beta(q, cfg.alpha).item()
        assert abs(parts.kl_v - direct) < 1e-12

    def test_nonfinite_loss_reports_components(self):
        g, split, cfg, params, noise = two_node_setup()
        params.encoder.w_mu.data[...] = 1e200
        params.encoder.w1.data[...] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericDomainError):
                trainer.elbo_loss(g, normalize_adjacency(g), split, params, cfg, noise)

    def test_component_recombination(self, synth):
        g, split = synth
        cfg = tiny_config(epochs=6, val_every=3, dropout=0.5)
        _, report = trainer.train(g, split, cfg)
        assert len(report.losses) == 6
        for row in report.losses:
            kls = row["kl_b"] + row["kl_r"] + row["kl_v"]
            summed = row["link_nll"] + row["feat_nll"] + row["kl_weight"] * kls
            assert abs(summed - row["total"]) < 1e-8

    def test_kl_components_stay_nonnegative(self, synth):
        # Kumaraswamy and Gaussian KLs must be >= 0 deterministically; the
        # single-sample Concrete KL gets a tiny stochastic allowance
        g, split = synth
        for variant in ("dglfrm", "dglfrm-b", "lsm"):
            cfg = tiny_config(variant=variant, epochs=8, val_every=4, dropout=0.5)
            _, report = trainer.train(g, split, cfg)
            for row in report.losses:
                assert np.isfinite(row["total"])
                assert row["kl_v"] >= 0.0
                assert row["kl_r"] >= 0.0
                assert row["kl_b"] >= -1e-6

    def test_kl_annealing_schedule(self, synth):
        g, split = synth
        cfg = tiny_config(epochs=3, kl_anneal_epochs=2)
        _, report = trainer.train(g, split, cfg)
        assert [row["kl_weight"] for row in report.losses] == [0.5, 1.0, 1.0]

    def test_annealing_disabled(self, synth):
        g, split = synth
        cfg = tiny_config(epochs=2, kl_anneal_epochs=0)
        _, report = trainer.train(g, split, cfg)
        assert [row["kl_weight"] for row in report.losses] == [1.0, 1.0]


VARIANT_MODES = [
    ("dglfrm", True),
    ("dglfrm", False),
    ("dglfrm-b", True),
    ("lfrm", True),
    ("lsm", True),
    ("vgae", True),
]


@pytest.mark.parametrize("variant,structured", VARIANT_MODES)
def test_elbo_gradient_matches_finite_differences(variant, structured):
    g = small_graph()
    split = trivial_split(g)
    cfg = tiny_config(variant=variant, structured=structured, seed=3)
    params = trainer.init_params(g, cfg, np.random.default_rng(cfg.seed))
    noise = trainer.draw_noise(
        np.random.default_rng(11), g.n_nodes, cfg.k, cfg.model_variant, structured
    )
    a_hat = normalize_adjacency(g)
    labels = trainer.labels_grid(split)

    def f():
        return trainer.elbo_loss(
            g, a_hat, split, params, cfg, noise, labels=labels, train_mode=True
        )[0]

    err = tc.gradient_check(f, params.parameters(), h=1e-5)
    assert err < 1e-4, f"{variant} structured={structured}: rel err {err:.2e}"


def test_binary_variant_leaves_gaussian_heads_untouched():
    g = small_graph()
    split = trivial_split(g)
    cfg = tiny_config(variant="dglfrm-b")
    params = trainer.init_params(g, cfg, np.random.default_rng(1))
    noise = trainer.draw_noise(np.random.default_rng(2), g.n_nodes, cfg.k, cfg.model_variant, True)
    with tc.Tape() as tape:
        loss, _ = trainer.elbo_loss(g, normalize_adjacency(g), split, params, cfg, noise)
        tc.backward(loss)
    tape.clear()
    assert not np.any(params.encoder.w_mu.grad)
    assert not np.any(params.encoder.w_sigma.grad)
    tc.zero_grads(params.parameters())


# ---------------------------------------------------------------------------
# train


class TestTrain:
    def test_loss_decreases_on_synthetic(self):
        g, _ = gd.generate_synthetic(gd.SyntheticSpec(n_nodes=100, n_communities=10, seed=0))
        split = gd.make_splits(g, test_frac=0.15, val_frac=0.05, seed=0)
        cfg = TrainConfig(
            variant="dglfrm",
            k=10,
            hidden=32,
            decoder_hidden=(),
            epochs=200,
            seed=0,
            val_every=50,
        )
        _, report = trainer.train(g, split, cfg)
        assert report.losses[199]["total"] < report.losses[0]["total"]

    def test_deterministic_under_seed(self, synth):
        g, split = synth
        cfg = tiny_config(epochs=5, dropout=0.5, val_every=2)
        ckpt1, rep1 = trainer.train(g, split, cfg)
        ckpt2, rep2 = trainer.train(g, split, cfg)
        assert rep1.core() == rep2.core()
        assert sorted(ckpt1.params) == sorted(ckpt2.params)
        for name in ckpt1.params:
            assert ckpt1.params[name].tobytes() == ckpt2.params[name].tobytes()

    def test_seed_changes_trajectory(self, synth):
        g, split = synth
        _, rep1 = trainer.train(g, split, tiny_config(epochs=3, seed=1))
        _, rep2 = trainer.train(g, split, tiny_config(epochs=3, seed=2))
        assert rep1.losses[0]["total"] != rep2.losses[0]["total"]

    def test_zero_epochs_returns_initialized_checkpoint(self, synth):
        g, split = synth
        cfg = tiny_config(epochs=0)
        ckpt, report = trainer.train(g, split, cfg)
        assert report.losses == []
        assert report.val_trace == []
        assert ckpt.step == 0
        want = trainer.init_params(
            Graph(n_nodes=g.n_nodes, adjacency=split.train_adjacency, features=g.features),
            cfg,
            np.random.default_rng(cfg.seed),
        )
        for p in want.parameters():
            np.testing.assert_array_equal(ckpt.params[p.name], p.data)

    def test_divergence_aborts_with_last_good_checkpoint(self, synth):
        g, split = synth
        cfg = tiny_config(epochs=10, lr=1e280, val_every=100)
        ckpt, report = trainer.train(g, split, cfg)
        assert report.diverged
        assert len(report.losses) < 10
        for name, arr in ckpt.params.items():
            assert np.all(np.isfinite(arr)), name

    def test_best_checkpoint_tracks_validation_auc(self, synth):
        g, split = synth
        cfg = tiny_config(epochs=20, val_every=4, dropout=0.5)
        ckpt, report = trainer.train(g, split, cfg)
        assert report.val_trace
        aucs = [row["auc"] for row in report.val_trace]
        assert report.best_val_auc == max(aucs)
        first_best = next(row for row in report.val_trace if row["auc"] == max(aucs))
        assert report.best_epoch == first_best["epoch"]
        assert ckpt.step == report.best_epoch

    def test_feature_term_off_makes_features_irrelevant(self):
        rng = np.random.default_rng(0)
        base = small_graph(n=8, with_features=False)
        x1 = Tensor((rng.random((8, 5)) < 0.5).astype(float))
        x2 = Tensor((rng.random((8, 5)) < 0.5).astype(float))
        g1 = Graph(n_nodes=8, adjacency=base.adjacency, features=x1)
        g2 = Graph(n_nodes=8, adjacency=base.adjacency, features=x2)
        split1 = gd.make_splits(g1, test_frac=0.2, val_frac=0.1, seed=3)
        split2 = gd.make_splits(g2, test_frac=0.2, val_frac=0.1, seed=3)
        cfg = tiny_config(epochs=4, use_features=False, val_every=2)
        ckpt1, rep1 = trainer.train(g1, split1, cfg)
        ckpt2, rep2 = trainer.train(g2, split2, cfg)
        assert rep1.core() == rep2.core()
        for name in ckpt1.params:
            np.testing.assert_array_equal(ckpt1.params[name], ckpt2.params[name])

    def test_report_json_includes_wall_clock(self, synth):
        g, split = synth
        _, report = trainer.train(g, split, tiny_config(epochs=1))
        payload = json.loads(report.to_json())
        assert "wall_seconds" in payload
        assert payload["scoring"] == "posterior-mean"


# ---------------------------------------------------------------------------
# scoring


def zero_checkpoint(n_nodes=8, with_features=False, **over):
    cfg = tiny_config(use_features=with_features, **over)
    g = small_graph(n=n_nodes, with_features=with_features)
    params = trainer.init_params(g, cfg, np.random.default_rng(0))
    arrays = {p.name: np.zeros_like(p.data) for p in params.parameters()}
    return Checkpoint(config=cfg, params=arrays, step=0), g


class TestScorePairs:
    def test_zero_model_scores_are_uniform(self):
        ckpt, g = zero_checkpoint()
        a_hat = normalize_adjacency(g)
        pairs = [(0, 1), (2, 5), (3, 7), (1, 6)]
        scores = trainer.score_pairs(ckpt, g, a_hat, pairs)
        np.testing.assert_array_equal(scores, 0.5)
        labels = np.array([1, 1, 0, 0])
        assert mx.auc_roc(scores, labels) == 0.5

    def test_scoring_is_deterministic(self, synth):
        g, split = synth
        ckpt, _ = trainer.train(g, split, tiny_config(epochs=3))
        a_hat = normalize_adjacency(
            Graph(n_nodes=g.n_nodes, adjacency=split.train_adjacency, features=g.features)
        )
        pairs = list(split.test_pos) + list(split.test_neg)
        s1 = trainer.score_pairs(ckpt, g, a_hat, pairs)
        s2 = trainer.score_pairs(ckpt, g, a_hat, pairs)
        assert s1.tobytes() == s2.tobytes()

    def test_unit_sticks_have_mean_half(self):
        ckpt, g = zero_checkpoint()
        raw = float(np.log(np.expm1(1.0 - 1e-4)))  # softplus(raw) + floor = 1
        ckpt.params["sticks.raw_c"][...] = raw
        ckpt.params["sticks.raw_d"][...] = raw
        latents = trainer.posterior_latents(ckpt, g, normalize_adjacency(g))
        np.testing.assert_allclose(latents.v_mean, 0.5, atol=1e-12)

    def test_rejects_self_pairs(self):
        ckpt, g = zero_checkpoint()
        with pytest.raises(UsageError):
            trainer.score_pairs(ckpt, g, normalize_adjacency(g), [(2, 2)])

    def test_rejects_out_of_range(self):
        ckpt, g = zero_checkpoint()
        with pytest.raises(UsageError):
            trainer.score_pairs(ckpt, g, normalize_adjacency(g), [(0, 99)])

    def test_rejects_bad_shape(self):
        ckpt, g = zero_checkpoint()
        with pytest.raises(UsageError):
            trainer.score_pairs(ckpt, g, normalize_adjacency(g), [(0, 1, 2)])

    def test_evaluate_split_uses_train_adjacency(self, synth):
        g, split = synth
        ckpt, _ = trainer.train(g, split, tiny_config(epochs=5))
        report = trainer.evaluate_split(ckpt, g, split)
        assert 0.0 <= report.auc <= 1.0
        assert 0.0 <= report.ap <= 1.0
        assert report.n_pos == len(split.test_pos)
        assert report.n_neg == len(split.test_neg)
        assert report.split_seed == split.seed


# ---------------------------------------------------------------------------
# checkpoints


class TestCheckpointIO:
    def test_roundtrip_bit_exact(self, synth, tmp_path):
        g, split = synth
        ckpt, _ = trainer.train(g, split, tiny_config(epochs=2))
        path = tmp_path / "model.ckpt"
        trainer.save_checkpoint(ckpt, path)
        loaded = trainer.load_checkpoint(path)
        assert loaded.config == ckpt.config
        assert loaded.step == ckpt.step
        assert sorted(loaded.params) == sorted(ckpt.params)
        for name in ckpt.params:
            assert loaded.params[name].tobytes() == ckpt.params[name].tobytes()
            assert loaded.params[name].shape == ckpt.params[name].shape

    def test_roundtrip_scores_identically(self, synth, tmp_path):
        g, split = synth
        ckpt, _ = trainer.train(g, split, tiny_config(epochs=2))
        path = tmp_path / "model.ckpt"
        trainer.save_checkpoint(ckpt, path)
        loaded = trainer.load_checkpoint(path)
        a_hat = normalize_adjacency(
            Graph(n_nodes=g.n_nodes, adjacency=split.train_adjacency, features=g.features)
        )
        pairs = list(split.test_pos) + list(split.test_neg)
        before = trainer.score_pairs(ckpt, g, a_hat, pairs)
        after = trainer.score_pairs(loaded, g, a_hat, pairs)
        assert before.tobytes() == after.tobytes()

    def test_truncated_file_is_corrupt_error(self, synth, tmp_path):
        g, split = synth
        ckpt, _ = trainer.train(g, split, tiny_config(epochs=1))
        path = tmp_path / "model.ckpt"
        trainer.save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 17])
        with pytest.raises(CheckpointError, match="corrupt|truncated"):
            trainer.load_checkpoint(path)

    def test_flipped_byte_fails_checksum(self, synth, tmp_path):
        g, split = synth
        ckpt, _ = trainer.train(g, split, tiny_config(epochs=1))
        path = tmp_path / "model.ckpt"
        trainer.save_checkpoint(ckpt, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            trainer.load_checkpoint(path)

    def test_wrong_version_names_both(self, synth, tmp_path):
        g, split = synth
        ckpt, _ = trainer.train(g, split, tiny_config(epochs=1))
        path = tmp_path / "model.ckpt"
        trainer.save_checkpoint(ckpt, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 3)
        body = bytes(raw[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError, match=r"version 3.*supports 2"):
            trainer.load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"definitely not a model")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            trainer.load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            trainer.load_checkpoint(tmp_path / "absent.ckpt")

    def test_mismatched_k_is_rejected(self):
        ckpt, _ = zero_checkpoint()
        doctored = Checkpoint(
            config=dataclasses.replace(ckpt.config, k=7),
            params=ckpt.params,
            step=0,
        )
        with pytest.raises(CheckpointError, match="k=7"):
            trainer.rebuild_params(doctored)

    def test_unexpected_parameter_is_rejected(self):
        ckpt, _ = zero_checkpoint()
        params = dict(ckpt.params)
        params["decoder.bilinear"] = np.zeros((4, 4))
        with pytest.raises(CheckpointError, match="unexpected"):
            trainer.rebuild_params(Checkpoint(config=ckpt.config, params=params, step=0))

    def test_missing_parameter_is_rejected(self):
        ckpt, _ = zero_checkpoint()
        params = dict(ckpt.params)
        del params["encoder.w_pi"]
        with pytest.raises(CheckpointError, match="encoder.w_pi"):
            trainer.rebuild_params(Checkpoint(config=ckpt.config, params=params, step=0))

    def test_graph_compatibility_check(self):
        ckpt, _ = zero_checkpoint(n_nodes=8)
        other = small_graph(n=5, extra=(), with_features=False)
        with pytest.raises(CheckpointError, match="input columns"):
            trainer.score_pairs(ckpt, other, normalize_adjacency(other), [(0, 1)])

    def test_step_survives_roundtrip(self, tmp_path):
        ckpt, _ = zero_checkpoint()
        big = Checkpoint(config=ckpt.config, params=ckpt.params, step=123456789)
        path = tmp_path / "step.ckpt"
        trainer.save_checkpoint(big, path)
        assert trainer.load_checkpoint(path).step == 123456789
