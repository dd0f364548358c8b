"""Encoder, decoders, and variant composition."""

import numpy as np
import pytest

from dglfrm import model as md
from dglfrm import stochastic as sl
from dglfrm import tensor as tc
from dglfrm import trainer
from dglfrm.graphdata import Graph, SplitSpec, normalize_adjacency
from dglfrm.tensor import Parameter, ShapeError, SparseMatrix, Tensor, UsageError


def ring_graph(n, extra=(), features=None, seed=None):
    pairs = [(i, (i + 1) % n) for i in range(n)] + list(extra)
    rows = [u for u, v in pairs] + [v for u, v in pairs]
    cols = [v for u, v in pairs] + [u for u, v in pairs]
    adj = SparseMatrix.from_coo(rows, cols, np.ones(len(rows)), (n, n))
    if features is None and seed is not None:
        rng = np.random.default_rng(seed)
        features = Tensor((rng.random((n, 3)) < 0.5).astype(float))
    return Graph(n_nodes=n, adjacency=adj, features=features)


def zero_encoder(d_in, hidden, k, dropout=0.0):
    enc = md.init_encoder(np.random.default_rng(0), d_in, hidden, k, dropout=dropout)
    for p in enc.parameters():
        p.data[...] = 0.0
    return enc


# ---------------------------------------------------------------------------
# encode


class TestEncode:
    def test_output_shapes_and_positivity(self):
        g = ring_graph(5, seed=1)
        enc = md.init_encoder(np.random.default_rng(2), 3, 7, 4)
        out = md.encode(g, normalize_adjacency(g), enc)
        for t in (out.c, out.d, out.pi_logits, out.mu, out.log_sigma):
            assert t.shape == (5, 4)
        assert np.all(out.c.data > 0)
        assert np.all(out.d.data > 0)

    def test_eval_mode_deterministic(self):
        g = ring_graph(5, seed=1)
        enc = md.init_encoder(np.random.default_rng(2), 3, 7, 4, dropout=0.5)
        a_hat = normalize_adjacency(g)
        a = md.encode(g, a_hat, enc, train_mode=False)
        b = md.encode(g, a_hat, enc, train_mode=False)
        np.testing.assert_array_equal(a.pi_logits.data, b.pi_logits.data)
        np.testing.assert_array_equal(a.c.data, b.c.data)

    def test_zero_weights_constants(self):
        g = ring_graph(4, seed=3)
        enc = zero_encoder(3, 6, 5)
        out = md.encode(g, normalize_adjacency(g), enc)
        want = np.log(2.0) + 1e-4  # softplus(0) plus the positivity floor
        np.testing.assert_allclose(out.c.data, want, atol=1e-12)
        np.testing.assert_allclose(out.d.data, want, atol=1e-12)
        np.testing.assert_array_equal(out.pi_logits.data, 0.0)
        np.testing.assert_array_equal(out.mu.data, 0.0)
        np.testing.assert_array_equal(out.log_sigma.data, 0.0)

    def test_identity_features_needs_square_w1(self):
        g = ring_graph(4)  # no features
        enc = md.init_encoder(np.random.default_rng(0), 3, 6, 5)
        with pytest.raises(ShapeError):
            md.encode(g, normalize_adjacency(g), enc)

    def test_identity_features_path(self):
        g = ring_graph(4)
        enc = md.init_encoder(np.random.default_rng(0), 4, 6, 5)
        out = md.encode(g, normalize_adjacency(g), enc)
        assert out.mu.shape == (4, 5)

    def test_feature_width_mismatch(self):
        g = ring_graph(4, seed=3)
        enc = md.init_encoder(np.random.default_rng(0), 9, 6, 5)
        with pytest.raises(ShapeError):
            md.encode(g, normalize_adjacency(g), enc)

    def test_dropout_needs_rng(self):
        g = ring_graph(4, seed=3)
        enc = md.init_encoder(np.random.default_rng(0), 3, 6, 5, dropout=0.5)
        with pytest.raises(UsageError):
            md.encode(g, normalize_adjacency(g), enc, train_mode=True)

    def test_nonfinite_names_the_head(self):
        g = ring_graph(4, seed=3)
        enc = md.init_encoder(np.random.default_rng(0), 3, 6, 5)
        enc.w_mu.data[...] = np.inf
        with pytest.raises(tc.NumericDomainError, match="mu"):
            with np.errstate(invalid="ignore"):
                md.encode(g, normalize_adjacency(g), enc)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        for trial in range(3):
            n = 8
            dense = (rng.random((n, n)) < 0.3).astype(float)
            dense = np.triu(dense, 1)
            dense = dense + dense.T
            x = (rng.random((n, 4)) < 0.5).astype(float)
            g = Graph(n_nodes=n, adjacency=SparseMatrix(dense), features=Tensor(x))
            enc = md.init_encoder(np.random.default_rng(trial), 4, 6, 3)
            out = md.encode(g, normalize_adjacency(g), enc)

            perm = rng.permutation(n)
            gp = Graph(
                n_nodes=n,
                adjacency=SparseMatrix(dense[np.ix_(perm, perm)]),
                features=Tensor(x[perm]),
            )
            outp = md.encode(gp, normalize_adjacency(gp), enc)
            for a, b in (
                (out.pi_logits, outp.pi_logits),
                (out.mu, outp.mu),
                (out.c, outp.c),
                (out.log_sigma, outp.log_sigma),
            ):
                np.testing.assert_allclose(b.data, a.data[perm], atol=1e-10)


# ---------------------------------------------------------------------------
# decoders


def mlp_decoder(k, hidden=(3,), seed=0, zero=False):
    dec = md.init_decoder(np.random.default_rng(seed), md.ModelVariant.DGLFRM, k, hidden=hidden)
    if zero:
        for p in dec.parameters():
            p.data[...] = 0.0
    return dec


class TestDecodeLinks:
    def test_zero_z_mlp_gives_half(self):
        dec = mlp_decoder(4)
        probs = md.decode_links(Tensor(np.zeros((5, 4))), dec)
        np.testing.assert_allclose(probs.data, 0.5)

    def test_bilinear_identity_equals_inner(self):
        z = Tensor(np.random.default_rng(1).normal(size=(6, 4)))
        bil = md.DecoderParams(form="bilinear", bilinear_w=Parameter(np.eye(4), "w"))
        inner = md.DecoderParams(form="inner")
        a = md.decode_links(z, bil).data
        b = md.decode_links(z, inner).data
        np.testing.assert_array_equal(a, b)

    def test_inner_pair_closed_form(self):
        z = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
        probs = md.decode_links(z, md.DecoderParams(form="inner"), pairs=[(0, 1)])
        np.testing.assert_allclose(probs.data, [1.0 / (1.0 + np.exp(-1.0))], atol=1e-12)
        assert abs(probs.data[0] - 0.7311) < 1e-4

    @pytest.mark.parametrize("form", ["mlp", "bilinear", "inner"])
    def test_grid_symmetry(self, form):
        z = Tensor(np.random.default_rng(2).normal(size=(7, 3)))
        if form == "mlp":
            dec = mlp_decoder(3, seed=5)
        elif form == "bilinear":
            dec = md.DecoderParams(
                form="bilinear",
                bilinear_w=Parameter(np.random.default_rng(3).normal(size=(3, 3)), "w"),
            )
        else:
            dec = md.DecoderParams(form="inner")
        probs = md.decode_links(z, dec).data
        np.testing.assert_allclose(probs, probs.T, atol=1e-12)

    def test_pairs_match_grid(self):
        z = Tensor(np.random.default_rng(4).normal(size=(5, 3)))
        dec = mlp_decoder(3, seed=6)
        grid = md.decode_links(z, dec).data
        pairs = [(0, 1), (2, 4), (3, 0)]
        vec = md.decode_links(z, dec, pairs=pairs).data
        np.testing.assert_allclose(vec, [grid[u, v] for u, v in pairs], atol=1e-12)

    def test_shape_mismatch(self):
        dec = md.DecoderParams(
            form="bilinear", bilinear_w=Parameter(np.eye(4), "w")
        )
        with pytest.raises(ShapeError):
            md.decode_links(Tensor(np.zeros((5, 3))), dec)


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
        z = md.compose_z(md.ModelVariant.DGLFRM, sl.LatentSample(b=self.b, r=self.r))
        np.testing.assert_array_equal(z.data, [[2.0, 0.0, -1.0]])

    def test_binary_variant_keeps_b(self):
        z = md.compose_z(md.ModelVariant.DGLFRM_B, sl.LatentSample(b=self.b, r=self.r))
        np.testing.assert_array_equal(z.data, [[1.0, 0.0, 1.0]])

    def test_vgae_keeps_r(self):
        z = md.compose_z(md.ModelVariant.VGAE_STYLE, sl.LatentSample(b=self.b, r=self.r))
        np.testing.assert_array_equal(z.data, [[2.0, 5.0, -1.0]])

    def test_missing_field_errors(self):
        with pytest.raises(UsageError):
            md.compose_z(md.ModelVariant.DGLFRM, sl.LatentSample(b=self.b))
        with pytest.raises(UsageError):
            md.compose_z(md.ModelVariant.LFRM, sl.LatentSample(r=self.r))
        with pytest.raises(UsageError):
            md.compose_z(md.ModelVariant.LSM, sl.LatentSample(b=self.b))


class TestDecoderParamsValidation:
    def test_bilinear_needs_matrix(self):
        with pytest.raises(UsageError):
            md.DecoderParams(form="bilinear")

    def test_inner_rejects_layers(self):
        layer = (Parameter(np.zeros((2, 2)), "w"), Parameter(np.zeros((1, 2)), "b"))
        with pytest.raises(UsageError):
            md.DecoderParams(form="inner", layers=(layer,))

    def test_unknown_form(self):
        with pytest.raises(UsageError):
            md.DecoderParams(form="transformer")


# ---------------------------------------------------------------------------
# gradient flow per variant


UNUSED_UNDER = {
    ("dglfrm", True): {"encoder.w_c", "encoder.w_d"},
    ("dglfrm", False): set(),
    ("dglfrm-b", True): {"encoder.w_c", "encoder.w_d", "encoder.w_mu", "encoder.w_sigma"},
    ("lfrm", True): {"encoder.w_c", "encoder.w_d", "encoder.w_mu", "encoder.w_sigma"},
    ("lsm", True): {"encoder.w_c", "encoder.w_d", "encoder.w_pi"},
    ("vgae", True): {"encoder.w_c", "encoder.w_d", "encoder.w_pi"},
}


@pytest.mark.parametrize("variant,structured", sorted(UNUSED_UNDER))
def test_every_active_parameter_gets_gradient(variant, structured):
    g = ring_graph(6, extra=[(1, 4)], seed=8)
    split = SplitSpec(
        n_nodes=6,
        train_adjacency=g.adjacency,
        val_pos=(),
        val_neg=(),
        test_pos=(),
        test_neg=(),
        seed=0,
    )
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
        loss, _ = trainer.elbo_loss(g, a_hat, split, params, cfg, noise)
        tc.backward(loss)
    tape.clear()
    unused = UNUSED_UNDER[(variant, structured)]
    for p in params.parameters():
        if p.name in unused:
            assert not np.any(p.grad), f"{p.name} should stay untouched"
        else:
            assert np.any(p.grad), f"{p.name} received no gradient"
    tc.zero_grads(params.parameters())
