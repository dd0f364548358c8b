"""Encoder, decoders, and variant composition."""

import numpy as np
import pytest

from dglfrm import model as md
from dglfrm import tensor as tc
from dglfrm import trainer
from dglfrm.graphdata import Graph, normalize_adjacency
from dglfrm.tensor import Parameter, ShapeError, SparseMatrix, Tensor, UsageError
from oracles import zero_grads


def ring_graph(n, extra=(), features=None, seed=None):
    pairs = [(i, (i + 1) % n) for i in range(n)] + list(extra)
    rows = [u for u, v in pairs] + [v for u, v in pairs]
    cols = [v for u, v in pairs] + [u for u, v in pairs]
    adj = SparseMatrix.from_coo(rows, cols, np.ones(len(rows)), (n, n))
    if features is None and seed is not None:
        rng = np.random.default_rng(seed)
        features = SparseMatrix((rng.random((n, 3)) < 0.5).astype(float))
    return Graph(n_nodes=n, adjacency=adj, features=features)


ALL_HEADS = tuple(md.ENCODER_HEADS)
VARIANT_MODES = [(v.value, structured) for v in md.ModelVariant for structured in (False, True)]


def encoder_params(seed, d_in, hidden, k, heads=ALL_HEADS):
    """Glorot encoder weights: w1 and one weight per head."""
    rng = np.random.default_rng(seed)
    shapes = {"encoder.w1": (d_in, hidden), **{f"encoder.w_{h}": (hidden, k) for h in heads}}
    return {name: Parameter(md.glorot_uniform(rng, *shape), name) for name, shape in shapes.items()}


def zero_encoder(d_in, hidden, k):
    enc = encoder_params(0, d_in, hidden, k)
    for p in enc.values():
        p.data[...] = 0.0
    return enc


# ---------------------------------------------------------------------------
# encode


class TestEncode:
    def test_output_shapes_and_positivity(self):
        g = ring_graph(5, seed=1)
        enc = encoder_params(2, 3, 7, 4)
        out = md.encode(g, normalize_adjacency(g), enc)
        assert list(out) == list(ALL_HEADS)
        for t in out.values():
            assert t.shape == (5, 4)
        assert np.all(out["c"].data > 0)
        assert np.all(out["d"].data > 0)

    def test_eval_mode_deterministic(self):
        g = ring_graph(5, seed=1)
        enc = encoder_params(2, 3, 7, 4)
        a_hat = normalize_adjacency(g)
        a = md.encode(g, a_hat, enc)
        b = md.encode(g, a_hat, enc)
        np.testing.assert_array_equal(a["pi"].data, b["pi"].data)
        np.testing.assert_array_equal(a["c"].data, b["c"].data)

    def test_zero_weights_constants(self):
        g = ring_graph(4, seed=3)
        enc = zero_encoder(3, 6, 5)
        out = md.encode(g, normalize_adjacency(g), enc)
        want = np.log(2.0) + 1e-4  # softplus(0) plus the positivity floor
        np.testing.assert_allclose(out["c"].data, want, atol=1e-12)
        np.testing.assert_allclose(out["d"].data, want, atol=1e-12)
        for head in ("pi", "mu", "sigma"):
            np.testing.assert_array_equal(out[head].data, 0.0)

    def test_identity_features_needs_square_w1(self):
        g = ring_graph(4)  # no features
        enc = encoder_params(0, 3, 6, 5)
        with pytest.raises(ShapeError):
            md.encode(g, normalize_adjacency(g), enc)

    def test_identity_features_path(self):
        g = ring_graph(4)
        enc = encoder_params(0, 4, 6, 5)
        out = md.encode(g, normalize_adjacency(g), enc)
        assert out["mu"].shape == (4, 5)

    def test_feature_width_mismatch(self):
        g = ring_graph(4, seed=3)
        enc = encoder_params(0, 9, 6, 5)
        with pytest.raises(ShapeError):
            md.encode(g, normalize_adjacency(g), enc)

    def test_dropout_needs_rng(self):
        g = ring_graph(4, seed=3)
        enc = encoder_params(0, 3, 6, 5)
        with pytest.raises(UsageError):
            md.encode(g, normalize_adjacency(g), enc, dropout=0.5)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        for trial in range(3):
            n = 8
            dense = (rng.random((n, n)) < 0.3).astype(float)
            dense = np.triu(dense, 1)
            dense = dense + dense.T
            x = (rng.random((n, 4)) < 0.5).astype(float)
            g = Graph(n_nodes=n, adjacency=SparseMatrix(dense), features=SparseMatrix(x))
            enc = encoder_params(trial, 4, 6, 3)
            out = md.encode(g, normalize_adjacency(g), enc)

            perm = rng.permutation(n)
            gp = Graph(
                n_nodes=n,
                adjacency=SparseMatrix(dense[np.ix_(perm, perm)]),
                features=SparseMatrix(x[perm]),
            )
            outp = md.encode(gp, normalize_adjacency(gp), enc)
            for head in ALL_HEADS:
                np.testing.assert_allclose(outp[head].data, out[head].data[perm], atol=1e-10)


# ---------------------------------------------------------------------------
# decoders


def mlp_decoder(k, hidden=(3,), seed=0):
    """Glorot weights and zero biases, as training starts them."""
    rng = np.random.default_rng(seed)
    dec, width = {}, k
    for i, out in enumerate(hidden):
        dec[f"decoder.mlp{i}.w"] = Parameter(md.glorot_uniform(rng, width, out), f"decoder.mlp{i}.w")
        dec[f"decoder.mlp{i}.b"] = Parameter(np.zeros((1, out)), f"decoder.mlp{i}.b")
        width = out
    return dec


def bilinear_decoder(w):
    return {"decoder.bilinear": Parameter(w, "decoder.bilinear")}


def all_pairs(n):
    return [(u, v) for u in range(n) for v in range(n)]


def logit_grid(z, dec):
    """Dense oracle: the full N x N logit grid from the decoder's factors."""
    left, right = md.link_factors(z, dec)
    return left.data @ right.data.T


def random_decoder(form, k, seed):
    if form == "mlp":
        return mlp_decoder(k, seed=seed)
    if form == "bilinear":
        w = np.random.default_rng(seed).normal(size=(k, k))
        return bilinear_decoder(w)
    return {}


class TestDecodeLinks:
    def test_zero_z_mlp_gives_half(self):
        dec = mlp_decoder(4)
        probs = md.decode_links(Tensor(np.zeros((5, 4))), dec, pairs=all_pairs(5))
        np.testing.assert_allclose(probs, 0.5)

    def test_bilinear_identity_equals_inner(self):
        z = Tensor(np.random.default_rng(1).normal(size=(6, 4)))
        bil = bilinear_decoder(np.eye(4))
        inner = {}
        a = md.decode_links(z, bil, pairs=all_pairs(6))
        b = md.decode_links(z, inner, pairs=all_pairs(6))
        np.testing.assert_array_equal(a, b)

    def test_inner_pair_closed_form(self):
        z = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
        probs = md.decode_links(z, {}, pairs=[(0, 1)])
        np.testing.assert_allclose(probs, [1.0 / (1.0 + np.exp(-1.0))], atol=1e-12)
        assert abs(probs[0] - 0.7311) < 1e-4

    @pytest.mark.parametrize("form", ["mlp", "bilinear", "inner"])
    def test_grid_symmetry(self, form):
        # link_bce_sum folds the grid onto its upper triangle, which needs this
        z = Tensor(np.random.default_rng(2).normal(size=(7, 3)))
        grid = logit_grid(z, random_decoder(form, 3, seed=5))
        np.testing.assert_allclose(grid, grid.T, atol=1e-12)

    @pytest.mark.parametrize("form", ["mlp", "bilinear", "inner"])
    def test_pairs_symmetric(self, form):
        z = Tensor(np.random.default_rng(2).normal(size=(7, 3)))
        dec = random_decoder(form, 3, seed=5)
        pairs = np.array(all_pairs(7))
        forward = md.decode_links(z, dec, pairs=pairs)
        flipped = md.decode_links(z, dec, pairs=pairs[:, ::-1])
        np.testing.assert_allclose(forward, flipped, atol=1e-12)

    def test_pairs_match_grid(self):
        z = Tensor(np.random.default_rng(4).normal(size=(5, 3)))
        dec = mlp_decoder(3, seed=6)
        probs = 1.0 / (1.0 + np.exp(-logit_grid(z, dec)))
        pairs = [(0, 1), (2, 4), (3, 0)]
        vec = md.decode_links(z, dec, pairs=pairs)
        np.testing.assert_allclose(vec, [probs[u, v] for u, v in pairs], atol=1e-12)

    def test_shape_mismatch(self):
        dec = bilinear_decoder(np.eye(4))
        with pytest.raises(ShapeError):
            md.decode_links(Tensor(np.zeros((5, 3))), dec, pairs=[(0, 1)])


# ---------------------------------------------------------------------------
# variants and composition


class TestModelVariant:
    @pytest.mark.parametrize(
        "name,member",
        [
            ("dglfrm", md.ModelVariant.DGLFRM),
            ("dglfrm-b", md.ModelVariant.DGLFRM_B),
            ("lfrm", md.ModelVariant.LFRM),
            ("lsm", md.ModelVariant.LSM),
            ("vgae", md.ModelVariant.VGAE_STYLE),
        ],
    )
    def test_parse(self, name, member):
        assert md.ModelVariant.parse(name) is member

    def test_parse_rejects_unknown(self):
        with pytest.raises(UsageError):
            md.ModelVariant.parse("gat")

    def test_decoder_forms(self):
        assert md.ModelVariant.DGLFRM.decoder_form == "mlp"
        assert md.ModelVariant.DGLFRM_B.decoder_form == "mlp"
        assert md.ModelVariant.LFRM.decoder_form == "bilinear"
        assert md.ModelVariant.LSM.decoder_form == "bilinear"
        assert md.ModelVariant.VGAE_STYLE.decoder_form == "inner"

    def test_block_usage(self):
        assert md.ModelVariant.DGLFRM.uses_b and md.ModelVariant.DGLFRM.uses_r
        assert md.ModelVariant.DGLFRM_B.uses_b and not md.ModelVariant.DGLFRM_B.uses_r
        assert md.ModelVariant.LFRM.uses_b and not md.ModelVariant.LFRM.uses_r
        assert not md.ModelVariant.LSM.uses_b and md.ModelVariant.LSM.uses_r
        assert not md.ModelVariant.VGAE_STYLE.uses_b and md.ModelVariant.VGAE_STYLE.uses_r


class TestComposeZ:
    def setup_method(self):
        self.b = Tensor(np.array([[1.0, 0.0, 1.0]]))
        self.r = Tensor(np.array([[2.0, 5.0, -1.0]]))

    def test_dglfrm_masks(self):
        z = md.compose_z(self.b, self.r)
        np.testing.assert_array_equal(z.data, [[2.0, 0.0, -1.0]])

    def test_binary_variant_keeps_b(self):
        z = md.compose_z(self.b, None)
        assert z is self.b

    def test_vgae_keeps_r(self):
        z = md.compose_z(None, self.r)
        assert z is self.r


# ---------------------------------------------------------------------------
# gradient flow per variant


@pytest.mark.parametrize("variant,structured", VARIANT_MODES)
def test_every_active_parameter_gets_gradient(variant, structured):
    g = ring_graph(6, extra=[(1, 4)], seed=8)
    cfg = trainer.TrainConfig(
        variant=variant,
        k=4,
        hidden=5,
        decoder_hidden=(3,),
        dropout=0.0,
        seed=1,
        structured=structured,
    )
    params = trainer.init_params(g, cfg, np.random.default_rng(cfg.seed))
    noise = trainer.draw_noise(
        np.random.default_rng(2), 6, 4, cfg.model_variant, structured
    )
    a_hat = normalize_adjacency(g)
    with tc.Tape() as tape:
        loss, _ = trainer.elbo_loss(g, a_hat, params, cfg, noise)
        tc.backward(loss)
    tape.clear()
    for p in params.values():
        assert np.any(p.grad), f"{p.name} received no gradient"
    zero_grads(params.values())


@pytest.mark.parametrize("variant,structured", VARIANT_MODES)
def test_kept_heads_get_the_five_head_draws(variant, structured):
    # the whole of init_params, drawn by hand: w1, one glorot block per head
    # in the order c, d, pi, mu, sigma, the decoder's weights, the feature
    # decoder's, then nothing for the zero biases and the sticks
    g = ring_graph(6, seed=1)  # 3 feature columns
    d_in, hidden, k, alpha = 3, 5, 4, 2.5
    form = md.ModelVariant.parse(variant).decoder_form
    for feature_term in (False, True):
        hand = np.random.default_rng(7)

        def glorot(fan_in, fan_out):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return hand.uniform(-limit, limit, (fan_in, fan_out))

        want = {"encoder.w1": glorot(d_in, hidden)}
        blocks = {name: glorot(hidden, k) for name in ("c", "d", "pi", "mu", "sigma")}
        heads = md.ModelVariant.parse(variant).encoder_heads(structured)
        want.update({f"encoder.w_{name}": blocks[name] for name in heads})
        if form == "mlp":
            want["decoder.mlp0.w"], want["decoder.mlp0.b"] = glorot(k, 3), np.zeros((1, 3))
            want["decoder.mlp1.w"], want["decoder.mlp1.b"] = glorot(3, 2), np.zeros((1, 2))
        elif form == "bilinear":
            want["decoder.bilinear"] = glorot(k, k)
        if feature_term:
            want["feature_decoder.w"] = glorot(k, d_in)

        cfg = trainer.TrainConfig(
            variant=variant, structured=structured, k=k, hidden=hidden, alpha=alpha,
            decoder_hidden=(3, 2), feature_term=feature_term, seed=7,
        )
        rng = np.random.default_rng(7)
        params = trainer.init_params(g, cfg, rng)
        sticks = [name for name in params if name.startswith("sticks.")]
        assert list(params) == list(want) + sticks
        for name, w in want.items():
            assert params[name].name == name
            np.testing.assert_array_equal(params[name].data, w)
        if sticks:  # the structured posterior starts at the prior Beta(alpha, 1)
            assert sticks == ["sticks.raw_c", "sticks.raw_d"] and md.ModelVariant.parse(variant).uses_b
            for name, target in zip(sticks, (alpha, 1.0)):
                value = np.logaddexp(0.0, params[name].data) + md.PARAM_FLOOR
                np.testing.assert_allclose(value, np.full((1, k), target), rtol=1e-12)
        else:
            assert not (structured and md.ModelVariant.parse(variant).uses_b)
        assert rng.random() == hand.random()  # later draws see the same stream


@pytest.mark.parametrize("heads", [("pi",), ("mu", "sigma"), ALL_HEADS])
def test_encode_propagates_once_for_all_heads(heads, monkeypatch):
    g = ring_graph(5, seed=1)
    enc = encoder_params(2, 3, 7, 4, heads)
    calls = []
    spmm = tc.spmm

    def counting_spmm(s, b):
        calls.append(b.shape)
        return spmm(s, b)

    monkeypatch.setattr(tc, "spmm", counting_spmm)
    with tc.Tape():
        out = md.encode(g, normalize_adjacency(g), enc, dropout=0.5, rng=np.random.default_rng(3))
    # the sparse feature product X @ W1, the first layer's propagation, then
    # the shared propagation of the heads
    assert calls == [(3, 7), (5, 7), (5, 7)]
    assert list(out) == list(heads)
