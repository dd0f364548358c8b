"""ELBO assembly, the training loop, checkpoints, and posterior scoring."""

import dataclasses
import json
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dglfrm import graphdata as gd
from dglfrm import metrics as mx
from dglfrm import model as md
from dglfrm import tensor as tc
from dglfrm import trainer
from dglfrm.graphdata import Graph, SplitSpec, normalize_adjacency
from dglfrm.tensor import NumericDomainError, SparseMatrix, UsageError
from dglfrm.trainer import (
    Checkpoint,
    CheckpointError,
    ConfigError,
    StepNoise,
    TrainConfig,
)
from oracles import NO_PAIRS, gradient_check


def small_graph(n=6, extra=((1, 4),), seed=8, with_features=True):
    pairs = [(i, (i + 1) % n) for i in range(n)] + list(extra)
    rows = [u for u, v in pairs] + [v for u, v in pairs]
    cols = [v for u, v in pairs] + [u for u, v in pairs]
    adj = SparseMatrix.from_coo(rows, cols, np.ones(len(rows)), (n, n))
    features = None
    if with_features:
        rng = np.random.default_rng(seed)
        features = SparseMatrix((rng.random((n, 3)) < 0.5).astype(float))
    return Graph(n_nodes=n, adjacency=adj, features=features)


def trivial_split(g):
    return SplitSpec(
        val_pos=NO_PAIRS,
        val_neg=NO_PAIRS,
        test_pos=NO_PAIRS,
        test_neg=NO_PAIRS,
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
    g, memberships = gd.generate_synthetic(n_nodes=40, n_communities=4, seed=5)
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
            {"seed": -1},
            {"variant": ["dglfrm"]},
        ],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)

    @pytest.mark.parametrize(
        "name", ["alpha", "prior_r_sigma", "lr", "dropout", "lambda_prior", "lambda_post", "pos_weight"]
    )
    def test_rejects_non_finite_floats(self, name):
        with pytest.raises(ConfigError, match=f"{name} must be finite, got inf"):
            TrainConfig(**{name: float("inf")})

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

    def test_feature_term_requires_features(self):
        g = small_graph(with_features=False)
        with pytest.raises(ConfigError, match="feature_term requires node features"):
            trainer.train(g, trivial_split(g), tiny_config(feature_term=True, epochs=0))


class TestModelShapes:
    @pytest.mark.parametrize("d_features", [3, 0], ids=["features", "no-features"])
    @pytest.mark.parametrize("feature_term", [None, True, False])
    @pytest.mark.parametrize("use_features", [True, False])
    def test_widths(self, use_features, feature_term, d_features):
        cfg = tiny_config(hidden=None, use_features=use_features, feature_term=feature_term)
        if feature_term and not d_features:
            with pytest.raises(ConfigError, match="feature_term requires node features"):
                trainer.model_shapes(cfg, 6, d_features)
            return
        shapes = trainer.model_shapes(cfg, 6, d_features)
        reads = use_features and d_features > 0
        hidden = 32 if reads else 128
        assert shapes["encoder.w1"] == ((d_features, hidden) if reads else (6, hidden))
        assert shapes["encoder.w_pi"] == (hidden, 4)
        term = reads if feature_term is None else feature_term
        assert shapes.get("feature_decoder.w") == ((4, d_features) if term else None)
        explicit = trainer.model_shapes(dataclasses.replace(cfg, hidden=7), 6, d_features)
        assert explicit["encoder.w1"][1] == 7

    def test_init_params_follow_the_table(self):
        for g in (small_graph(), small_graph(with_features=False)):
            cfg = tiny_config(hidden=None)
            params = trainer.init_params(g, cfg, np.random.default_rng(0))
            shapes = trainer.model_shapes(cfg, g.n_nodes, g.d_features)
            assert {name: p.shape for name, p in params.items()} == shapes


class TestDrawNoise:
    B_STRUCTURED = ("encoder.w1", "encoder.w_pi")
    B_MEAN_FIELD = ("encoder.w1", "encoder.w_c", "encoder.w_d", "encoder.w_pi")
    R = ("encoder.w1", "encoder.w_mu", "encoder.w_sigma")

    def test_structured_sticks_are_global(self):
        noise = trainer.draw_noise(np.random.default_rng(0), 9, 4, self.B_STRUCTURED + self.R[1:])
        assert noise.u_v.shape == (1, 4)
        assert noise.u_b.shape == (9, 4)
        assert noise.eps_r.shape == (9, 4)

    def test_mean_field_sticks_are_per_node(self):
        noise = trainer.draw_noise(np.random.default_rng(0), 9, 4, self.B_MEAN_FIELD + self.R[1:])
        assert noise.u_v.shape == (9, 4)

    def test_gaussian_only_variant_skips_sticks(self):
        noise = trainer.draw_noise(np.random.default_rng(0), 9, 4, self.R)
        assert noise.u_v is None and noise.u_b is None
        assert noise.eps_r.shape == (9, 4)

    def test_binary_only_variant_skips_gaussian(self):
        noise = trainer.draw_noise(np.random.default_rng(0), 9, 4, self.B_STRUCTURED)
        assert noise.eps_r is None
        assert noise.u_b.shape == (9, 4)

    DRAWN = {
        "dglfrm": ("u_v", "u_b", "eps_r"),
        "dglfrm-b": ("u_v", "u_b"),
        "lfrm": ("u_v", "u_b"),
        "lsm": ("eps_r",),
        "vgae": ("eps_r",),
    }

    @pytest.mark.parametrize("structured", [True, False], ids=["structured", "mean-field"])
    @pytest.mark.parametrize("variant", DRAWN)
    def test_draws_only_the_variant_arrays_in_order(self, variant, structured):
        # the noise stream is part of the replayed bits: stick uniforms, then
        # membership uniforms, then standard normals, and nothing else
        n, k, drawn = 9, 4, self.DRAWN[variant]
        names = trainer.model_shapes(tiny_config(variant=variant, structured=structured, k=k), n, 0)
        rng = np.random.default_rng(23)
        noise = trainer.draw_noise(rng, n, k, names)
        ref = np.random.default_rng(23)
        expected = {
            "u_v": lambda: ref.random((1, k) if structured else (n, k)),
            "u_b": lambda: ref.random((n, k)),
            "eps_r": lambda: ref.standard_normal((n, k)),
        }
        for name, draw in expected.items():
            got = getattr(noise, name)
            if name in drawn:
                np.testing.assert_array_equal(got, draw())
            else:
                assert got is None
        assert rng.random() == ref.random()


# ---------------------------------------------------------------------------
# The precision policy


def test_train_graph_holds_float32_targets_and_a_float64_normalized_adjacency(synth):
    g, split = synth
    features = SparseMatrix((np.random.default_rng(0).random((g.n_nodes, 6)) < 0.3).astype(float))
    g = Graph(n_nodes=g.n_nodes, adjacency=g.adjacency, features=features)
    train_graph, a_hat = trainer._train_graph(g, split)
    want = gd.train_adjacency(g, split)
    for got, stored in ((train_graph.adjacency, want), (train_graph.features, features)):
        assert got.values.dtype == np.float32
        assert got == stored  # the same pattern, and values equal after the exact upcast
    assert a_hat.values.dtype == np.float64
    assert a_hat == normalize_adjacency(Graph(n_nodes=g.n_nodes, adjacency=want))
    assert g.features.values.dtype == g.adjacency.values.dtype == np.float64  # g itself is untouched


def test_training_with_parameters_past_float32_range_keeps_a_finite_checkpoint(synth, monkeypatch):
    """The first step's loss is not finite, so the checkpoint holds the (finite) initial parameters."""
    g, split = synth
    init_params = trainer.init_params

    def oversized(*args):
        params = init_params(*args)
        params["encoder.w_mu"].data *= 1e40
        return params

    monkeypatch.setattr(trainer, "init_params", oversized)
    ckpt, report = trainer.train(g, split, tiny_config(variant="vgae", epochs=3))
    assert report.diverged and report.divergence.startswith("non-finite loss")
    assert not report.losses
    for name, arr in ckpt.params.items():
        assert np.all(np.isfinite(arr)), name


# ---------------------------------------------------------------------------
# elbo_loss


def two_node_setup(variant="dglfrm"):
    adj = SparseMatrix.from_coo([0, 1], [1, 0], [1.0, 1.0], (2, 2))
    g = Graph(n_nodes=2, adjacency=adj)
    cfg = tiny_config(variant=variant, hidden=2, k=2, decoder_hidden=(2,))
    params = trainer.init_params(g, cfg, np.random.default_rng(0))
    noise = trainer.draw_noise(np.random.default_rng(1), 2, 2, params)
    return g, cfg, params, noise


class TestElboLoss:
    def test_half_predictions_give_four_ln_two(self):
        # all-ones labels (edge plus diagonal), w_pos pinned to 1, KLs off:
        # the link term is plain cross entropy at probability 0.5 per cell
        g, cfg, params, noise = two_node_setup()
        cfg = dataclasses.replace(cfg, pos_weight=1.0)
        for name, p in params.items():
            if name.startswith("decoder."):
                p.data[...] = 0.0
        a_hat = normalize_adjacency(g)
        loss, parts = trainer.elbo_loss(g, a_hat, params, cfg, noise, kl_weight=0.0)
        assert abs(parts.link_nll - 4.0 * np.log(2.0)) < 1e-12
        assert abs(parts.total - 4.0 * np.log(2.0)) < 1e-12

    def test_saturated_fit_drives_loss_to_zero(self):
        adj = SparseMatrix.from_coo([0, 1], [1, 0], [1.0, 1.0], (2, 2))
        g = Graph(n_nodes=2, adjacency=adj)
        cfg = tiny_config(variant="vgae", hidden=2, k=2, use_features=False, pos_weight=1.0)
        noise = StepNoise(eps_r=np.zeros((2, 2)))
        a_hat = normalize_adjacency(g)

        losses = []
        for scale in (1.0, 10.0):
            params = trainer.init_params(g, cfg, np.random.default_rng(0))
            params["encoder.w1"].data[...] = np.eye(2) * scale
            params["encoder.w_mu"].data[...] = scale
            loss, parts = trainer.elbo_loss(g, a_hat, params, cfg, noise, kl_weight=0.0)
            losses.append(parts.total)
        assert losses[1] < losses[0]
        assert losses[1] < 1e-6

    @pytest.mark.parametrize("variant", ["lsm", "vgae"])
    def test_gaussian_variants_drop_binary_kls(self, variant):
        g, cfg, params, noise = two_node_setup(variant)
        _, parts = trainer.elbo_loss(g, normalize_adjacency(g), params, cfg, noise)
        assert parts.kl_b == 0.0
        assert parts.kl_v == 0.0
        assert parts.kl_r > 0.0

    @pytest.mark.parametrize("variant", ["dglfrm-b", "lfrm"])
    def test_binary_variants_drop_gaussian_kl(self, variant):
        g, cfg, params, noise = two_node_setup(variant)
        _, parts = trainer.elbo_loss(g, normalize_adjacency(g), params, cfg, noise)
        assert parts.kl_r == 0.0

    def test_structured_stick_kl_counted_once(self):
        import dglfrm.stochastic as sl

        g, cfg, params, noise = two_node_setup()
        _, parts = trainer.elbo_loss(g, normalize_adjacency(g), params, cfg, noise)
        c, d = (tc.softplus(params[f"sticks.raw_{x}"]) + md.PARAM_FLOOR for x in "cd")
        direct = sl.kl_kumaraswamy_beta(c, d, cfg.alpha).item()
        assert abs(parts.kl_v - direct) < 1e-12

    def test_nonfinite_loss_reports_components(self):
        g, cfg, params, noise = two_node_setup()
        params["encoder.w_mu"].data[...] = 1e200
        params["encoder.w1"].data[...] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericDomainError):
                trainer.elbo_loss(g, normalize_adjacency(g), params, cfg, noise)

    def test_parameters_past_float32_range_stop_at_the_loss(self):
        """A latent past float32's range (3.4e38) is infinite in the fused likelihoods' float32
        blocks, so the loss check raises where float64 blocks would give a finite loss."""
        g = small_graph()
        cfg = tiny_config(variant="vgae", feature_term=True)
        train_graph, a_hat = trainer._train_graph(g, trivial_split(g))
        params = trainer.init_params(train_graph, cfg, np.random.default_rng(0))
        params["encoder.w_mu"].data *= 1e40
        noise = trainer.draw_noise(np.random.default_rng(1), g.n_nodes, cfg.k, params)
        with np.errstate(over="ignore", invalid="ignore"):  # as training runs
            _, parts = trainer.elbo_loss(g, a_hat, params, cfg, noise)  # g's targets are float64
            assert np.isfinite(parts.total)
            with pytest.raises(NumericDomainError, match="non-finite loss"):
                trainer.elbo_loss(train_graph, a_hat, params, cfg, noise)

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
    cfg = tiny_config(variant=variant, structured=structured, seed=3)
    params = trainer.init_params(g, cfg, np.random.default_rng(cfg.seed))
    noise = trainer.draw_noise(np.random.default_rng(11), g.n_nodes, cfg.k, params)
    a_hat = normalize_adjacency(g)

    def f():
        return trainer.elbo_loss(g, a_hat, params, cfg, noise)[0]

    err = gradient_check(f, params.values(), h=1e-5)
    assert err < 1e-4, f"{variant} structured={structured}: rel err {err:.2e}"


def test_binary_variant_has_no_gaussian_heads():
    g = small_graph()
    cfg = tiny_config(variant="dglfrm-b")
    params = trainer.init_params(g, cfg, np.random.default_rng(1))
    assert [name for name in params if name.startswith("encoder.w_")] == ["encoder.w_pi"]
    out = md.encode(g, normalize_adjacency(g), params)
    assert list(out) == ["pi"]


# ---------------------------------------------------------------------------
# train


class TestTrain:
    def test_loss_decreases_on_synthetic(self):
        g, _ = gd.generate_synthetic(n_nodes=100, n_communities=10, seed=0)
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
            Graph(n_nodes=g.n_nodes, adjacency=gd.train_adjacency(g, split), features=g.features),
            cfg,
            np.random.default_rng(cfg.seed),
        )
        assert list(ckpt.params) == list(want)
        for p in want.values():
            np.testing.assert_array_equal(ckpt.params[p.name], p.data)

    def test_divergence_aborts_with_last_good_checkpoint(self, synth):
        g, split = synth
        cfg = tiny_config(epochs=10, lr=1e280, val_every=100)
        ckpt, report = trainer.train(g, split, cfg)
        assert report.diverged
        assert len(report.losses) < 10
        for name, arr in ckpt.params.items():
            assert np.all(np.isfinite(arr)), name

    @staticmethod
    def assert_stopped_after_two_epochs(ckpt, report, clean, clean_report):
        assert report.diverged and report.losses == clean_report.losses
        assert ckpt.step == clean.step == 2
        for name, arr in clean.params.items():
            assert ckpt.params[name].tobytes() == arr.tobytes(), name

    # Without validation pairs the checkpoint holds the parameters as the run
    # left them, so it shows whether the failed third step changed any.

    def test_nan_in_a_forward_op_stops_at_the_loss(self, synth, monkeypatch):
        g, split = synth
        no_val = dataclasses.replace(split, val_pos=NO_PAIRS, val_neg=NO_PAIRS)
        cfg = tiny_config(epochs=6)
        clean, clean_report = trainer.train(g, no_val, dataclasses.replace(cfg, epochs=2))
        digamma, calls = tc.digamma, []

        def poisoned(x):
            out = digamma(x)
            calls.append(x)
            if len(calls) == 3:  # one call per step, in the stick KL
                out.data[0, 0] = np.nan
            return out

        monkeypatch.setattr(tc, "digamma", poisoned)
        ckpt, report = trainer.train(g, no_val, cfg)
        assert report.divergence.startswith("non-finite loss: {'total': nan")
        self.assert_stopped_after_two_epochs(ckpt, report, clean, clean_report)

    def test_nan_in_one_gradient_stops_before_adam(self, synth, monkeypatch):
        g, split = synth
        no_val = dataclasses.replace(split, val_pos=NO_PAIRS, val_neg=NO_PAIRS)
        cfg = tiny_config(epochs=6)
        clean, clean_report = trainer.train(g, no_val, dataclasses.replace(cfg, epochs=2))
        init_params, backward, params, calls = trainer.init_params, tc.backward, {}, []

        def capturing_init(*args):
            params.update(init_params(*args))
            return params

        def poisoned(loss):
            backward(loss)
            calls.append(loss)
            if len(calls) == 3:
                params["decoder.mlp0.w"].grad[0, 0] = np.nan

        monkeypatch.setattr(trainer, "init_params", capturing_init)
        monkeypatch.setattr(tc, "backward", poisoned)
        ckpt, report = trainer.train(g, no_val, cfg)
        assert report.divergence == "adam_step: non-finite gradient for 'decoder.mlp0.w'"
        self.assert_stopped_after_two_epochs(ckpt, report, clean, clean_report)

    @staticmethod
    def poison_mu_on_validation(monkeypatch, which):
        """Make the encoder's mu head non-finite on validation number `which`."""
        encode, calls = md.encode, []

        def poisoned(g, a_hat, params, *train_args):
            out = encode(g, a_hat, params, *train_args)
            if not train_args:  # validation scores without dropout arguments
                calls.append(g)
                if len(calls) == which:
                    out["mu"].data[0, 0] = np.inf
            return out

        monkeypatch.setattr(md, "encode", poisoned)

    def test_failed_validation_keeps_the_best_snapshot(self, synth, monkeypatch):
        g, split = synth
        cfg = tiny_config(epochs=6, val_every=1)
        clean, clean_report = trainer.train(g, split, dataclasses.replace(cfg, epochs=2))
        self.poison_mu_on_validation(monkeypatch, 3)
        ckpt, report = trainer.train(g, split, cfg)
        assert report.diverged and report.divergence == "encoder head mu: non-finite output"
        assert len(report.losses) == 3 and report.val_trace == clean_report.val_trace
        assert ckpt.step == clean.step and report.best_epoch == clean_report.best_epoch
        assert sorted(ckpt.params) == sorted(clean.params)
        for name, arr in clean.params.items():
            assert ckpt.params[name].tobytes() == arr.tobytes(), name

    def test_failed_first_validation_raises(self, synth, monkeypatch):
        g, split = synth
        self.poison_mu_on_validation(monkeypatch, 1)
        with pytest.raises(NumericDomainError, match="encoder head mu"):
            trainer.train(g, split, tiny_config(epochs=6, val_every=1))

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
        x1 = SparseMatrix((rng.random((8, 5)) < 0.5).astype(float))
        x2 = SparseMatrix((rng.random((8, 5)) < 0.5).astype(float))
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

    def test_without_validation_pairs_keeps_last_epoch(self, synth):
        g, split = synth
        no_val = dataclasses.replace(split, val_pos=NO_PAIRS, val_neg=NO_PAIRS)
        cfg = tiny_config(epochs=4, val_every=2)
        ckpt, report = trainer.train(g, no_val, cfg)
        assert report.val_trace == [] and report.best_val_auc is None
        assert ckpt.step == report.best_epoch == 4
        init = trainer.init_params(
            Graph(n_nodes=g.n_nodes, adjacency=gd.train_adjacency(g, split), features=g.features),
            cfg,
            np.random.default_rng(cfg.seed),
        )
        longer, _ = trainer.train(g, no_val, dataclasses.replace(cfg, epochs=5))
        for p in init.values():
            assert not np.array_equal(ckpt.params[p.name], p.data), p.name
            assert not np.array_equal(ckpt.params[p.name], longer.params[p.name]), p.name



# ---------------------------------------------------------------------------
# scoring


def zero_checkpoint(n_nodes=8, with_features=False, **over):
    cfg = tiny_config(use_features=with_features, **over)
    g = small_graph(n=n_nodes, with_features=with_features)
    params = trainer.init_params(g, cfg, np.random.default_rng(0))
    arrays = {name: np.zeros_like(p.data) for name, p in params.items()}
    return Checkpoint(cfg, arrays, 0, g.n_nodes, g.d_features), g


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
            Graph(n_nodes=g.n_nodes, adjacency=gd.train_adjacency(g, split), features=g.features)
        )
        pairs = np.concatenate([split.test_pos, split.test_neg])
        s1 = trainer.score_pairs(ckpt, g, a_hat, pairs)
        s2 = trainer.score_pairs(ckpt, g, a_hat, pairs)
        assert s1.tobytes() == s2.tobytes()

    def test_nonfinite_names_the_head(self):
        ckpt, g = zero_checkpoint()
        ckpt.params["encoder.w_mu"][...] = np.inf
        with pytest.raises(NumericDomainError, match="mu"):
            with np.errstate(invalid="ignore"):
                trainer.score_pairs(ckpt, g, normalize_adjacency(g), [(0, 1)])

    def test_overflowing_encoder_is_quiet_and_names_the_head(self, synth):
        # the head check reports the overflow; numpy must not warn about it first
        g, split = synth
        ckpt, _ = trainer.train(g, split, tiny_config(epochs=3))
        ckpt.params["encoder.w1"][...] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDomainError, match="encoder head pi: non-finite output"):
                trainer.posterior_latents(ckpt, g, normalize_adjacency(g))

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
            Graph(n_nodes=g.n_nodes, adjacency=gd.train_adjacency(g, split), features=g.features)
        )
        pairs = np.concatenate([split.test_pos, split.test_neg])
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

    @pytest.mark.parametrize("version", [2, 3])
    def test_wrong_version_names_both(self, synth, tmp_path, version):
        g, split = synth
        ckpt, _ = trainer.train(g, split, tiny_config(epochs=1))
        path = tmp_path / "model.ckpt"
        trainer.save_checkpoint(ckpt, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", version)
        body = bytes(raw[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError, match=rf"version {version}.*supports 4"):
            trainer.load_checkpoint(path)

    @pytest.mark.parametrize("with_features", [True, False])
    def test_graph_counts_survive_roundtrip(self, tmp_path, with_features):
        g = small_graph(n=7, extra=(), with_features=with_features)
        ckpt, _ = trainer.train(g, trivial_split(g), tiny_config(epochs=0))
        assert (ckpt.n_nodes, ckpt.d_features) == (7, 3 if with_features else 0)
        path = tmp_path / "m.ckpt"
        trainer.save_checkpoint(ckpt, path)
        loaded = trainer.load_checkpoint(path)
        assert (loaded.n_nodes, loaded.d_features) == (ckpt.n_nodes, ckpt.d_features)
        # the stored counts fix the encoder's input width
        counts = {"d_features": 4} if with_features else {"n_nodes": 8}
        with pytest.raises(CheckpointError, match=r"'encoder.w1' has shape \(\d, 5\)"):
            trainer.rebuild_params(dataclasses.replace(loaded, **counts))

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
        doctored = dataclasses.replace(ckpt, config=dataclasses.replace(ckpt.config, k=7))
        with pytest.raises(CheckpointError, match=r"'encoder.w_pi' has shape \(5, 4\).* imply \(5, 7\)"):
            trainer.rebuild_params(doctored)

    def test_unexpected_parameter_is_rejected(self):
        ckpt, _ = zero_checkpoint()
        params = dict(ckpt.params)
        params["decoder.bilinear"] = np.zeros((4, 4))
        with pytest.raises(CheckpointError, match="unexpected"):
            trainer.rebuild_params(dataclasses.replace(ckpt, params=params))

    def test_missing_parameter_is_rejected(self):
        ckpt, _ = zero_checkpoint()
        params = dict(ckpt.params)
        del params["encoder.w_pi"]
        with pytest.raises(CheckpointError, match="encoder.w_pi"):
            trainer.rebuild_params(dataclasses.replace(ckpt, params=params))

    @pytest.mark.parametrize(
        "name,shape",
        [("decoder.mlp0.b", (1, 1)), ("sticks.raw_c", (1, 5)), ("feature_decoder.w", (4, 4)),
         ("encoder.w1", (3, 6))],
    )
    def test_misshaped_parameter_is_rejected_by_name(self, tmp_path, name, shape):
        g = small_graph()  # 3 feature columns: w1 is (3, 5), feature_decoder.w (4, 3)
        ckpt, _ = trainer.train(g, trivial_split(g), tiny_config(epochs=0))
        params = dict(ckpt.params, **{name: np.zeros(shape)})
        path = tmp_path / "bad.ckpt"
        trainer.save_checkpoint(dataclasses.replace(ckpt, params=params), path)
        with pytest.raises(CheckpointError) as e:
            trainer.load_checkpoint(path)
        assert str(e.value).startswith(f"{path}: parameter {name!r} has shape {shape}")

    @pytest.mark.parametrize("use_features", [True, False])
    @pytest.mark.parametrize("feature_term", [None, True, False])
    def test_default_hidden_width_is_recovered(self, tmp_path, use_features, feature_term):
        # without --hidden the width is 32 with features and 128 without; the
        # stored feature count says whether the graph had features
        path = tmp_path / "m.ckpt"
        for g in (small_graph(), small_graph(with_features=False)):
            if feature_term and g.features is None:
                continue
            cfg = tiny_config(hidden=None, use_features=use_features, feature_term=feature_term, epochs=0)
            ckpt, _ = trainer.train(g, trivial_split(g), cfg)
            trainer.save_checkpoint(ckpt, path)
            assert sorted(trainer.rebuild_params(trainer.load_checkpoint(path))) == sorted(ckpt.params)
            w1 = ckpt.params["encoder.w1"]
            wider = dict(ckpt.params, **{"encoder.w1": np.zeros((w1.shape[0], w1.shape[1] + 1))})
            with pytest.raises(CheckpointError, match="'encoder.w1' has shape"):
                trainer.rebuild_params(dataclasses.replace(ckpt, params=wider))

    def test_feature_decoder_follows_the_feature_term(self):
        g = small_graph()
        on, _ = trainer.train(g, trivial_split(g), tiny_config(feature_term=True, epochs=0))
        off, _ = trainer.train(g, trivial_split(g), tiny_config(feature_term=False, epochs=0))
        missing = {k: v for k, v in on.params.items() if k != "feature_decoder.w"}
        with pytest.raises(CheckpointError, match="missing parameter 'feature_decoder.w'"):
            trainer.rebuild_params(dataclasses.replace(on, params=missing))
        extra = dict(off.params, **{"feature_decoder.w": on.params["feature_decoder.w"]})
        with pytest.raises(CheckpointError, match="unexpected parameters: \\['feature_decoder.w'\\]"):
            trainer.rebuild_params(dataclasses.replace(off, params=extra))

    def test_stored_feature_term_without_features_is_refused(self, tmp_path):
        g = small_graph()
        ckpt, _ = trainer.train(g, trivial_split(g), tiny_config(feature_term=True, epochs=0))
        path = tmp_path / "m.ckpt"
        trainer.save_checkpoint(dataclasses.replace(ckpt, d_features=0), path)
        with pytest.raises(CheckpointError) as e:
            trainer.load_checkpoint(path)
        assert str(e.value) == f"{path}: feature_term requires node features"

    def test_graph_compatibility_check(self):
        ckpt, _ = zero_checkpoint(n_nodes=8)
        other = small_graph(n=5, extra=(), with_features=False)
        with pytest.raises(CheckpointError, match="input columns"):
            trainer.score_pairs(ckpt, other, normalize_adjacency(other), [(0, 1)])

    @pytest.mark.parametrize("variant,structured", [
        (v, s) for v in ("dglfrm", "dglfrm-b", "lfrm", "lsm", "vgae") for s in (False, True)
    ])
    def test_holds_only_trained_parameters(self, variant, structured, tmp_path):
        heads = {
            "dglfrm": ["pi", "mu", "sigma"] if structured else ["c", "d", "pi", "mu", "sigma"],
            "dglfrm-b": ["pi"] if structured else ["c", "d", "pi"],
            "lsm": ["mu", "sigma"],
        }
        heads["lfrm"], heads["vgae"] = heads["dglfrm-b"], heads["lsm"]
        decoder = {
            "dglfrm": ["decoder.mlp0.w", "decoder.mlp0.b"],
            "lfrm": ["decoder.bilinear"],
            "vgae": [],
        }
        decoder["dglfrm-b"], decoder["lsm"] = decoder["dglfrm"], decoder["lfrm"]
        with_b = variant in ("dglfrm", "dglfrm-b", "lfrm")
        sticks = ["sticks.raw_c", "sticks.raw_d"] if structured and with_b else []
        want = ["encoder.w1", *(f"encoder.w_{h}" for h in heads[variant]),
                *decoder[variant], "feature_decoder.w", *sticks]

        g = small_graph()
        cfg = tiny_config(variant=variant, structured=structured, epochs=1)
        ckpt, _ = trainer.train(g, trivial_split(g), cfg)
        trainer.save_checkpoint(ckpt, tmp_path / "m.ckpt")
        loaded = trainer.load_checkpoint(tmp_path / "m.ckpt")
        assert sorted(loaded.params) == sorted(want)
        init = trainer.init_params(g, cfg, np.random.default_rng(cfg.seed))
        for p in init.values():  # one Adam step moves every stored array
            assert not np.array_equal(loaded.params[p.name], p.data), p.name

    def test_step_survives_roundtrip(self, tmp_path):
        ckpt, _ = zero_checkpoint()
        big = dataclasses.replace(ckpt, step=123456789)
        path = tmp_path / "step.ckpt"
        trainer.save_checkpoint(big, path)
        assert trainer.load_checkpoint(path).step == 123456789


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    g = small_graph()  # 6 nodes, 3 feature columns: about 1.4 kB on disk
    ckpt, _ = trainer.train(g, trivial_split(g), tiny_config(epochs=1))
    path = tmp_path_factory.mktemp("mutations") / "small.ckpt"
    trainer.save_checkpoint(ckpt, path)
    return path, g


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checksum_valid_mutations_score_or_fail_cleanly(small_checkpoint, data):
    """XOR 1-3 bytes before the checksum, then re-seal it: the file scores, or fails with a checked error."""
    path, g = small_checkpoint
    body = bytearray(path.read_bytes()[:-4])
    flips = data.draw(st.lists(
        st.tuples(st.integers(0, len(body) - 1), st.integers(1, 255)),
        min_size=1, max_size=3, unique_by=lambda flip: flip[0],
    ))
    for at, mask in flips:
        body[at] ^= mask
    mutated = path.with_name("mutated.ckpt")
    mutated.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    a_hat, pairs = normalize_adjacency(g), [(u, v) for u in range(6) for v in range(u + 1, 6)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ckpt = trainer.load_checkpoint(mutated)
            scores = trainer.score_pairs(ckpt, g, a_hat, pairs)
            trainer.posterior_latents(ckpt, g, a_hat)
        except (CheckpointError, NumericDomainError):
            return
    assert np.all((scores >= 0) & (scores <= 1))


class TestEncoderInputRule:
    """The encoder reads features when the config uses them and the graph has them."""

    PAIRS = [(u, v) for u in range(6) for v in range(u + 1, 6)]

    @staticmethod
    def trained(**over):
        g = small_graph()  # 6 nodes, 3 feature columns
        ckpt, _ = trainer.train(g, trivial_split(g), tiny_config(epochs=2, **over))
        return ckpt, g, Graph(n_nodes=g.n_nodes, adjacency=g.adjacency)

    def test_feature_reading_checkpoint_refuses_a_featureless_graph(self):
        ckpt, _, bare = self.trained()
        a_hat = normalize_adjacency(bare)
        with pytest.raises(CheckpointError, match="expects 3 input columns, graph supplies 6"):
            trainer.score_pairs(ckpt, bare, a_hat, self.PAIRS)
        with pytest.raises(CheckpointError, match="expects 3 input columns, graph supplies 6"):
            trainer.posterior_latents(ckpt, bare, a_hat)

    @pytest.mark.parametrize("feature_term", [None, True], ids=["no-term", "term"])
    def test_identity_checkpoint_ignores_the_graph_features(self, feature_term):
        ckpt, g, bare = self.trained(use_features=False, feature_term=feature_term)
        assert ("feature_decoder.w" in ckpt.params) == bool(feature_term)
        a_hat = normalize_adjacency(g)
        with_x = trainer.score_pairs(ckpt, g, a_hat, self.PAIRS)
        without = trainer.score_pairs(ckpt, bare, a_hat, self.PAIRS)
        assert with_x.tobytes() == without.tobytes()
        with_x, without = (trainer.posterior_latents(ckpt, h, a_hat) for h in (g, bare))
        for name in ("b_prob", "mu"):
            assert getattr(with_x, name).tobytes() == getattr(without, name).tobytes()
        assert with_x.z.data.tobytes() == without.z.data.tobytes()

    @staticmethod
    def square_graphs():
        """A 6-node graph without features, and the same graph with 6 feature columns."""
        bare = small_graph(with_features=False)
        x = SparseMatrix((np.random.default_rng(3).random((6, 6)) < 0.5).astype(float))
        return bare, Graph(n_nodes=6, adjacency=bare.adjacency, features=x)

    def test_identity_trained_checkpoint_refuses_features_of_its_width(self):
        bare, featured = self.square_graphs()
        ckpt, _ = trainer.train(bare, trivial_split(bare), tiny_config(epochs=2))
        a_hat = normalize_adjacency(featured)
        message = r"expects 6 input columns, graph supplies 6 \(encoder input: checkpoint identity, graph features\)"
        with pytest.raises(CheckpointError, match=message):
            trainer.score_pairs(ckpt, featured, a_hat, self.PAIRS)
        with pytest.raises(CheckpointError, match=message):
            trainer.posterior_latents(ckpt, featured, a_hat)

    def test_feature_trained_checkpoint_refuses_a_featureless_graph_of_its_width(self):
        bare, featured = self.square_graphs()
        ckpt, _ = trainer.train(featured, trivial_split(featured), tiny_config(epochs=2))
        a_hat = normalize_adjacency(bare)
        message = r"expects 6 input columns, graph supplies 6 \(encoder input: checkpoint features, graph identity\)"
        with pytest.raises(CheckpointError, match=message):
            trainer.score_pairs(ckpt, bare, a_hat, self.PAIRS)
        with pytest.raises(CheckpointError, match=message):
            trainer.posterior_latents(ckpt, bare, a_hat)
