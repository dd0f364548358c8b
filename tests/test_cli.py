"""End-to-end checks of the command-line surface.

Commands run in-process through cli.main so exit codes and printed
output are observable without subprocess overhead; one smoke test uses a
real subprocess to cover the module entry point.
"""

import json
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from dglfrm import cli
from dglfrm import graphdata as gd
from dglfrm import trainer


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a default synthetic graph, a split, and one checkpoint."""
    root = tmp_path_factory.mktemp("cliws")
    prefix = root / "synth"
    assert run("synth", "--out-prefix", prefix) == 0
    graph = str(prefix) + ".edges.txt"
    split = root / "synth.split"
    assert run("split", "--graph", graph, "--out", split) == 0
    ckpt = root / "model.ckpt"
    code = run(
        "train", "--graph", graph, "--split", split, "--out-ckpt", ckpt,
        "--k", 8, "--hidden", 32, "--decoder-hidden", "32,16", "--epochs", 300,
        "--dropout", 0.0, "--val-every", 100,
    )
    assert code == 0
    return {
        "root": root,
        "graph": graph,
        "members": str(prefix) + ".memberships.txt",
        "split": str(split),
        "ckpt": str(ckpt),
    }


class TestSynth:
    def test_default_sizes(self, ws):
        g = gd.load_edge_list(ws["graph"])
        assert g.n_nodes == 100
        lines = Path(ws["members"]).read_text().splitlines()
        assert lines[0] == "# nodes 100"
        assert lines[1] == "# communities 10"
        assert len(lines) == 102

    def test_tiny_graph(self, tmp_path, capsys):
        prefix = tmp_path / "tiny"
        assert run("synth", "--nodes", 4, "--communities", 2,
                   "--out-prefix", prefix) == 0
        g = gd.load_edge_list(str(prefix) + ".edges.txt")
        assert g.n_nodes == 4
        members = Path(str(prefix) + ".memberships.txt").read_text().splitlines()
        assert members[0] == "# nodes 4"
        # every node line is "node k [k2]" with community ids in range
        for line in members[2:]:
            node, *ks = line.split()
            assert 0 <= int(node) < 4
            assert 1 <= len(ks) <= 2
            assert all(0 <= int(k) < 2 for k in ks)

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--seed", 7, "--out-prefix", a) == 0
        assert run("synth", "--seed", 7, "--out-prefix", b) == 0
        for suffix in (".edges.txt", ".memberships.txt"):
            assert (Path(str(a) + suffix).read_bytes()
                    == Path(str(b) + suffix).read_bytes())

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--seed", 0, "--out-prefix", a) == 0
        assert run("synth", "--seed", 1, "--out-prefix", b) == 0
        assert (Path(str(a) + ".edges.txt").read_bytes()
                != Path(str(b) + ".edges.txt").read_bytes())


class TestSplit:
    def test_split_file_loads(self, ws):
        split = gd.load_split(ws["split"])
        assert split.n_nodes == 100
        assert len(split.test_pos) > 0
        assert len(split.val_pos) > 0

    def test_zero_test_frac_rejected_before_io(self, tmp_path, capsys):
        # the graph path does not exist: validation must trip first
        code = run("split", "--graph", tmp_path / "missing.txt",
                   "--test-frac", 0, "--out", tmp_path / "s")
        captured = capsys.readouterr()
        assert code == 2
        assert "test-frac" in captured.err
        assert "missing" not in captured.err

    def test_same_seed_identical_split(self, ws, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run("split", "--graph", ws["graph"], "--seed", 3, "--out", out1) == 0
        assert run("split", "--graph", ws["graph"], "--seed", 3, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_cora_sized_positive_count(self, cora_dir, tmp_path):
        out = tmp_path / "cora.split"
        assert run("split", "--graph", cora_dir / "edges.txt", "--out", out) == 0
        split = gd.load_split(out)
        g = gd.load_edge_list(cora_dir / "edges.txt")
        assert len(split.test_pos) == round(0.10 * g.n_edges)
        assert len(split.test_pos) == 528


class TestTrain:
    def test_report_shows_decreasing_loss(self, ws):
        report = json.loads(Path(ws["ckpt"] + ".report.json").read_text())
        losses = [row["total"] for row in report["losses"]]
        assert len(losses) == 300
        # compare within the constant-KL-weight tail (annealing ends at 50)
        assert losses[-1] < losses[50]
        assert "wall_seconds" not in report

    def test_lfrm_variant_trains(self, ws, tmp_path):
        ckpt = tmp_path / "lfrm.ckpt"
        code = run("train", "--graph", ws["graph"], "--split", ws["split"],
                   "--variant", "lfrm", "--k", 6, "--hidden", 16,
                   "--epochs", 20, "--dropout", 0.0, "--out-ckpt", ckpt)
        assert code == 0
        loaded = trainer.load_checkpoint(ckpt)
        assert loaded.config.variant == "lfrm"
        assert "decoder.bilinear" in loaded.params

    def test_zero_epochs_writes_valid_initialization(self, ws, tmp_path, capsys):
        ckpt = tmp_path / "init.ckpt"
        assert run("train", "--graph", ws["graph"], "--split", ws["split"],
                   "--k", 8, "--hidden", 16, "--epochs", 0,
                   "--out-ckpt", ckpt) == 0
        loaded = trainer.load_checkpoint(ckpt)
        assert loaded.step == 0
        # the untrained model still evaluates
        assert run("eval", "--ckpt", ckpt, "--graph", ws["graph"],
                   "--split", ws["split"], "--out", tmp_path / "m") == 0

    def test_config_rejected_before_reading_files(self, tmp_path, capsys):
        code = run("train", "--graph", tmp_path / "missing.txt",
                   "--split", tmp_path / "missing.split",
                   "--k", 0, "--out-ckpt", tmp_path / "c")
        captured = capsys.readouterr()
        assert code == 1
        assert "k" in captured.err
        assert "missing" not in captured.err

    def test_bad_decoder_hidden_is_config_error(self, ws, tmp_path, capsys):
        code = run("train", "--graph", ws["graph"], "--split", ws["split"],
                   "--decoder-hidden", "3,x", "--out-ckpt", tmp_path / "c")
        assert code == 1
        assert "decoder-hidden" in capsys.readouterr().err

    def test_split_graph_mismatch(self, ws, tmp_path, capsys):
        prefix = tmp_path / "other"
        assert run("synth", "--nodes", 30, "--communities", 3,
                   "--out-prefix", prefix) == 0
        code = run("train", "--graph", str(prefix) + ".edges.txt",
                   "--split", ws["split"], "--k", 4,
                   "--out-ckpt", tmp_path / "c")
        assert code == 2
        assert "nodes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old,new,where",
        [
            ("# nodes 4", "# nodes abc", ":1:"),
            ("1 2\n", "1 9\n", ":5:"),
            ("0 3\n", "3 3\n", ":9:"),
            ("TEST_POS\n0 2", "TEST_POS\n0 1", ":11:"),
        ],
        ids=["bad-header", "out-of-range", "self-pair", "leaked-test-pos"],
    )
    def test_malformed_split_is_data_error(self, tmp_path, capsys, old, new, where):
        graph = tmp_path / "g.txt"
        graph.write_text("# nodes 4\n0 1\n1 2\n2 3\n0 2\n0 3\n")
        split = tmp_path / "s.split"
        split.write_text(
            "# nodes 4\n# seed 0\nTRAIN\n0 1\n1 2\nVAL_POS\n2 3\nVAL_NEG\n0 3\n"
            "TEST_POS\n0 2\nTEST_NEG\n1 3\n".replace(old, new)
        )
        code = run("train", "--graph", graph, "--split", split, "--k", 2,
                   "--epochs", 1, "--out-ckpt", tmp_path / "c")
        assert code == 2
        assert str(split) + where in capsys.readouterr().err


class TestEval:
    def test_metrics_files_written(self, ws, tmp_path, capsys):
        out = tmp_path / "metrics"
        assert run("eval", "--ckpt", ws["ckpt"], "--graph", ws["graph"],
                   "--split", ws["split"], "--out", out) == 0
        text = Path(str(out) + ".txt").read_text()
        payload = json.loads(Path(str(out) + ".json").read_text())
        assert "auc" in text
        assert payload["n_pos"] == payload["n_neg"]
        assert capsys.readouterr().out.startswith("auc")

    def test_trained_beats_untrained(self, ws, tmp_path):
        init_ckpt = tmp_path / "init.ckpt"
        assert run("train", "--graph", ws["graph"], "--split", ws["split"],
                   "--k", 8, "--hidden", 16, "--epochs", 0,
                   "--out-ckpt", init_ckpt) == 0
        for ckpt, name in ((init_ckpt, "i"), (ws["ckpt"], "t")):
            assert run("eval", "--ckpt", ckpt, "--graph", ws["graph"],
                       "--split", ws["split"], "--out", tmp_path / name) == 0
        auc_init = json.loads((tmp_path / "i.json").read_text())["auc"]
        auc_trained = json.loads((tmp_path / "t.json").read_text())["auc"]
        # a freshly initialized encoder is a random projection of the
        # adjacency, so it scores above chance but well below a trained model
        assert auc_init < 0.9
        assert auc_trained > auc_init

    def test_missing_checkpoint_is_data_error(self, ws, tmp_path, capsys):
        code = run("eval", "--ckpt", tmp_path / "nope.ckpt",
                   "--graph", ws["graph"], "--split", ws["split"])
        assert code == 2

    def test_version_1_checkpoint_is_data_error(self, ws, tmp_path, capsys):
        raw = bytearray(Path(ws["ckpt"]).read_bytes())
        raw[8:12] = struct.pack("<I", 1)
        body = bytes(raw[:-4])
        v1 = tmp_path / "v1.ckpt"
        v1.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        code = run("eval", "--ckpt", v1, "--graph", ws["graph"], "--split", ws["split"])
        assert code == 2
        assert "version 1, this build supports 2" in capsys.readouterr().err


class TestCommunities:
    def test_active_communities_on_trained_model(self, ws, tmp_path, capsys):
        out = tmp_path / "comms.txt"
        assert run("communities", "--ckpt", ws["ckpt"], "--graph", ws["graph"],
                   "--out", out) == 0
        text = out.read_text()
        header = [l for l in text.splitlines() if l.startswith("# active")]
        active = int(header[0].split()[-1])
        assert active >= 2
        assert "wrote" in capsys.readouterr().out

    def test_gaussian_variant_rejected(self, ws, tmp_path, capsys):
        ckpt = tmp_path / "vgae.ckpt"
        assert run("train", "--graph", ws["graph"], "--split", ws["split"],
                   "--variant", "vgae", "--k", 6, "--hidden", 16,
                   "--epochs", 5, "--out-ckpt", ckpt) == 0
        code = run("communities", "--ckpt", ckpt, "--graph", ws["graph"],
                   "--out", tmp_path / "c.txt")
        captured = capsys.readouterr()
        assert code == 1
        assert "vgae" in captured.err

    def test_tau_out_of_range(self, ws, tmp_path, capsys):
        code = run("communities", "--ckpt", ws["ckpt"], "--graph", ws["graph"],
                   "--tau", 1.01, "--out", tmp_path / "c.txt")
        assert code == 1
        assert "tau" in capsys.readouterr().err

    def test_export_latent_csv(self, ws, tmp_path):
        out = tmp_path / "comms.txt"
        latent = tmp_path / "z.csv"
        assert run("communities", "--ckpt", ws["ckpt"], "--graph", ws["graph"],
                   "--out", out, "--export-latent", latent) == 0
        rows = latent.read_text().splitlines()
        assert len(rows) == 100
        assert len(rows[0].split(",")) == 8


class TestManifests:
    def test_every_command_writes_one(self, ws, tmp_path):
        expected = [
            ws["graph"] + ".manifest.json",
            ws["split"] + ".manifest.json",
            ws["ckpt"] + ".manifest.json",
        ]
        for path in expected:
            payload = json.loads(Path(path).read_text())
            assert payload["tool"] == "dglfrm"
            assert payload["command"] in {"synth", "split", "train"}
            assert "options" in payload

    def test_inputs_carry_digests(self, ws):
        payload = json.loads(Path(ws["ckpt"] + ".manifest.json").read_text())
        assert payload["inputs"]
        for digest in payload["inputs"].values():
            assert digest.startswith("sha256:")
            assert len(digest) == len("sha256:") + 64

    def test_train_rerun_is_bit_exact(self, ws, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            ckpt = tmp_path / f"{name}.ckpt"
            assert run("train", "--graph", ws["graph"], "--split", ws["split"],
                       "--k", 6, "--hidden", 16, "--epochs", 15,
                       "--seed", 11, "--out-ckpt", ckpt) == 0
            outs.append(ckpt)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (Path(str(outs[0]) + ".report.json").read_bytes()
                == Path(str(outs[1]) + ".report.json").read_bytes())

    def test_eval_rerun_is_bit_exact(self, ws, tmp_path):
        for name in ("e1", "e2"):
            assert run("eval", "--ckpt", ws["ckpt"], "--graph", ws["graph"],
                       "--split", ws["split"], "--out", tmp_path / name) == 0
        assert ((tmp_path / "e1.json").read_bytes()
                == (tmp_path / "e2.json").read_bytes())


class TestArgHandling:
    def test_unknown_flag_exits_one(self, capsys):
        assert run("synth", "--bogus", "x", "--out-prefix", "p") == 1

    def test_unknown_command_exits_one(self, capsys):
        assert run("frobnicate") == 1

    def test_no_command_exits_one(self, capsys):
        assert cli.main([]) == 1

    def test_version_exits_zero(self, capsys):
        assert run("--version") == 0

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "dglfrm.cli", "--version"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "dglfrm" in result.stdout
