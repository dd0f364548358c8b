"""End-to-end checks of the command-line surface.

Commands run in-process through cli.main so exit codes and printed
output are observable without subprocess overhead; one smoke test uses a
real subprocess to cover the module entry point.
"""

import dataclasses
import json
import os
import struct
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from dglfrm import cli
from dglfrm import graphdata as gd
from dglfrm import model as md
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

    @pytest.mark.parametrize("nodes,communities", [(5, 0), (-5, -10), (4, 5)])
    def test_community_count_outside_range_is_data_error(self, tmp_path, capsys, nodes, communities):
        code = run("synth", "--nodes", nodes, "--communities", communities, "--out-prefix", tmp_path / "g")
        assert code == 2
        assert f"n_communities {communities} must lie in [1, n_nodes {nodes}]" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestSplit:
    def test_split_file_loads(self, ws):
        split = gd.load_split(ws["split"], gd.load_edge_list(ws["graph"]))
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
        g = gd.load_edge_list(cora_dir / "edges.txt")
        split = gd.load_split(out, g)
        assert len(split.test_pos) == round(0.10 * g.n_edges)
        assert len(split.test_pos) == 528

    @pytest.mark.parametrize(
        "name,features,where",
        [
            ("f.txt", "0 0 1\n1 1 nan\n2 0 1\n", ":2:"),
            ("f.txt", "0 0 1\n1 1 -inf\n", ":2:"),
            ("f.csv", "1,0\n0,1\n# c\n1,inf\n0,0\n1,1\n1,0\n", ":4:"),
            ("f.csv", "1,0\nnan,1\n1,1\n0,0\n1,1\n1,0\n", ":2:"),
        ],
        ids=["triplet-nan", "triplet-inf", "csv-inf", "csv-nan"],
    )
    def test_non_finite_feature_is_data_error(self, tmp_path, capsys, name, features, where):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 3\n")
        path = tmp_path / name
        path.write_text(features)
        code = run("split", "--graph", graph, "--features", path, "--out", tmp_path / "s")
        err = capsys.readouterr().err
        assert code == 2
        assert str(path) + where + " non-finite value" in err
        assert not (tmp_path / "s").exists()


def four_node_files(tmp_path, sections):
    """A 4-node graph and its split, with section contents replaced by `sections`.

    A split lists every edge in TRAIN, VAL_POS or TEST_POS, so a caller that
    empties VAL_POS or TEST_POS lists that section's edge under TRAIN.
    """
    graph = tmp_path / "g.txt"
    graph.write_text("# nodes 4\n0 1\n1 2\n2 3\n0 2\n")
    pairs = {"TRAIN": "0 1\n1 2\n", "VAL_POS": "2 3\n", "VAL_NEG": "0 3\n",
             "TEST_POS": "0 2\n", "TEST_NEG": "1 3\n", **sections}
    split = tmp_path / "s.split"
    split.write_text("# nodes 4\n# seed 0\n" + "".join(f"{k}\n{v}" for k, v in pairs.items()))
    return graph, split


class TestTrain:
    def test_report_shows_decreasing_loss(self, ws):
        report = json.loads(Path(ws["ckpt"] + ".report.json").read_text())
        losses = [row["total"] for row in report["losses"]]
        assert len(losses) == 300
        # compare within the constant-KL-weight tail (annealing ends at 50)
        assert losses[-1] < losses[50]
        assert "wall_seconds" not in report

    def test_divergence_names_the_failed_check(self, ws, tmp_path, capsys):
        ckpt = tmp_path / "diverged.ckpt"
        assert run("train", "--graph", ws["graph"], "--split", ws["split"], "--k", 4,
                   "--hidden", 8, "--epochs", 5, "--lr", "1e280", "--out-ckpt", ckpt) == 0
        out = capsys.readouterr().out
        assert "warning: training diverged (non-finite loss: {'total': nan" in out
        for name, arr in trainer.load_checkpoint(ckpt).params.items():
            assert np.all(np.isfinite(arr)), name
        report = json.loads(Path(str(ckpt) + ".report.json").read_text())
        assert report["diverged"] and len(report["losses"]) == 1
        assert "non-finite" not in json.dumps(report)  # the message stays out of the file

    def test_failed_first_validation_writes_nothing(self, ws, tmp_path, capsys):
        # the diverged parameters are not known good and no validated ones exist
        ckpt = tmp_path / "diverged.ckpt"
        with np.errstate(all="ignore"):
            code = run("train", "--graph", ws["graph"], "--split", ws["split"], "--k", 4, "--hidden", 8,
                       "--epochs", 5, "--lr", "1e280", "--val-every", 1, "--out-ckpt", ckpt)
        assert code == 3
        assert "numeric failure: encoder head" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_validation_prints_no_numpy_warning(self, tmp_path, capsys):
        # validation runs under the training step's errstate: the overflow that
        # the scoring check reports raises no numpy warning, which would be an error here
        prefix = tmp_path / "g"
        assert run("synth", "--nodes", 60, "--communities", 6, "--out-prefix", prefix) == 0
        graph, split = f"{prefix}.edges.txt", tmp_path / "g.split"
        assert run("split", "--graph", graph, "--out", split) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("train", "--graph", graph, "--split", split, "--k", 4, "--hidden", 8, "--epochs", 5,
                       "--lr", "1e280", "--val-every", 1, "--out-ckpt", tmp_path / "m.ckpt")
        assert code == 3
        assert capsys.readouterr().err == "numeric failure: encoder head pi: non-finite output\n"
        assert not (tmp_path / "m.ckpt").exists()

    def test_defaults_equal_the_config_defaults(self, ws, tmp_path, monkeypatch):
        # the parser states every training default a second time: the two copies must agree
        class Captured(Exception):
            pass

        seen = []

        def capture(g, split, config):
            seen.append(config)
            raise Captured

        monkeypatch.setattr(trainer, "train", capture)
        with pytest.raises(Captured):
            run("train", "--graph", ws["graph"], "--split", ws["split"], "--out-ckpt", tmp_path / "m.ckpt")
        assert seen == [trainer.TrainConfig()]

    def test_variant_choices_are_the_model_table(self):
        # the parser lists the variants a second time, since cli does not import
        # model at start-up; the config's error names them in table order
        commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
        variant = next(a for a in commands.choices["train"]._actions if a.dest == "variant")
        assert variant.choices == list(md.VARIANTS)

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

    def test_non_finite_option_rejected_before_reading_files(self, tmp_path, capsys):
        code = run("train", "--graph", tmp_path / "missing.txt",
                   "--split", tmp_path / "missing.split",
                   "--lr", "inf", "--out-ckpt", tmp_path / "c")
        captured = capsys.readouterr()
        assert code == 1
        assert "lr must be finite" in captured.err
        assert "missing" not in captured.err

    def test_bad_decoder_hidden_is_config_error(self, ws, tmp_path, capsys):
        code = run("train", "--graph", ws["graph"], "--split", ws["split"],
                   "--decoder-hidden", "3,x", "--out-ckpt", tmp_path / "c")
        assert code == 1
        assert "decoder-hidden" in capsys.readouterr().err

    def test_failed_output_write_keeps_old_file(self, ws, tmp_path, capsys, monkeypatch):
        ckpt = tmp_path / "c.ckpt"
        ckpt.write_bytes(b"old")

        def refuse(src, dst):
            raise OSError(28, "no space left")

        monkeypatch.setattr(gd.os, "replace", refuse)
        code = run("train", "--graph", ws["graph"], "--split", ws["split"], "--k", 2,
                   "--epochs", 0, "--out-ckpt", ckpt)
        assert code == 2
        assert "no space left" in capsys.readouterr().err
        assert ckpt.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]

    def test_without_validation_pairs_saves_last_epoch(self, tmp_path, capsys):
        graph, split = four_node_files(tmp_path, {"TRAIN": "0 1\n1 2\n2 3\n", "VAL_POS": "", "VAL_NEG": ""})
        for epochs in (0, 3):
            assert run("train", "--graph", graph, "--split", split, "--k", 2,
                       "--epochs", epochs, "--out-ckpt", tmp_path / f"e{epochs}") == 0
        init, last = (trainer.load_checkpoint(tmp_path / f"e{e}") for e in (0, 3))
        assert (init.step, last.step) == (0, 3)
        for name, arr in init.params.items():
            assert not np.array_equal(arr, last.params[name]), name
        report = json.loads((tmp_path / "e3.report.json").read_text())
        assert report["best_epoch"] == 3 and report["best_val_auc"] is None

    @pytest.mark.parametrize("section", ["VAL_POS", "VAL_NEG"])
    def test_one_empty_validation_section_is_data_error(self, tmp_path, capsys, section):
        train = {"TRAIN": "0 1\n1 2\n2 3\n"} if section == "VAL_POS" else {}
        graph, split = four_node_files(tmp_path, {section: "", **train})
        code = run("train", "--graph", graph, "--split", split, "--k", 2,
                   "--epochs", 1, "--out-ckpt", tmp_path / "c")
        assert code == 2
        assert f"{split}: {section} is empty" in capsys.readouterr().err

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
            ("# nodes 4", "# nodes -4", ":1:"),
            ("0 1\n", "0 1\n1 0\n", ":5:"),
        ],
        ids=[
            "bad-header", "out-of-range", "self-pair", "leaked-test-pos",
            "non-positive-nodes", "repeated-train-pair",
        ],
    )
    def test_malformed_split_is_data_error(self, tmp_path, capsys, old, new, where):
        graph = tmp_path / "g.txt"
        graph.write_text("# nodes 4\n0 1\n1 2\n2 3\n0 2\n")
        split = tmp_path / "s.split"
        split.write_text(
            "# nodes 4\n# seed 0\nTRAIN\n0 1\n1 2\nVAL_POS\n2 3\nVAL_NEG\n0 3\n"
            "TEST_POS\n0 2\nTEST_NEG\n1 3\n".replace(old, new)
        )
        code = run("train", "--graph", graph, "--split", split, "--k", 2,
                   "--epochs", 1, "--out-ckpt", tmp_path / "c")
        assert code == 2
        assert str(split) + where in capsys.readouterr().err


    @pytest.mark.parametrize("name", ["g.txt", "s.split"])
    def test_malformed_nodes_directive_is_data_error_in_both_formats(self, tmp_path, capsys, name):
        graph, split = four_node_files(tmp_path, {})
        path = tmp_path / name
        path.write_text(path.read_text().replace("# nodes 4", "# nodes 6 extra"))
        if name == "g.txt":
            code = run("split", "--graph", graph, "--out", tmp_path / "out")
        else:
            code = run("train", "--graph", graph, "--split", split, "--k", 2,
                       "--epochs", 1, "--out-ckpt", tmp_path / "out")
        assert code == 2
        assert f"{path}:1: bad nodes directive '# nodes 6 extra'" in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("1 2\n", "", ":5: TRAIN pair 1 2 is not an edge"),
            ("2 3\n", "", ":7: VAL_POS pair 2 3 is not an edge"),
            ("0 2\n", "", ":11: TEST_POS pair 0 2 is not an edge"),
            ("0 1\n", "0 1\n0 3\n", ":9: VAL_NEG pair 0 3 is an edge"),
            ("0 1\n", "0 1\n3 1\n", ":13: TEST_NEG pair 1 3 is an edge"),
        ],
        ids=["train", "val-pos", "test-pos", "val-neg", "test-neg"],
    )
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_split_of_another_graph_is_data_error(self, tmp_path, capsys, old, new, message, command):
        graph, split = four_node_files(tmp_path, {})
        ckpt = tmp_path / "c"
        assert run("train", "--graph", graph, "--split", split, "--k", 2,
                   "--epochs", 1, "--out-ckpt", ckpt) == 0
        other = tmp_path / "other.txt"
        other.write_text(graph.read_text().replace(old, new, 1))
        if command == "train":
            code = run("train", "--graph", other, "--split", split, "--k", 2,
                       "--epochs", 1, "--out-ckpt", tmp_path / "c2")
        else:
            code = run("eval", "--ckpt", ckpt, "--graph", other, "--split", split)
        assert code == 2
        assert f"{split}{message} of the graph" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sections,message",
        [
            ({"TRAIN": "0 1\n"}, ": graph edge 1 2 is in none of TRAIN, VAL_POS and TEST_POS"),
            ({"TEST_POS": "0 2\n2 3\n"}, ":12: TEST_POS pair 2 3 repeats line 7"),
            ({"VAL_NEG": "0 3\n3 0\n"}, ":10: VAL_NEG pair 3 0 repeats line 9"),
        ],
        ids=["edge-in-no-section", "held-out-twice", "repeated-val-neg"],
    )
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_split_that_does_not_partition_the_graph_is_data_error(
        self, tmp_path, capsys, sections, message, command
    ):
        # an edge left out would train as a non-edge; a pair listed twice is scored twice
        graph, good = four_node_files(tmp_path, {})
        ckpt = tmp_path / "c"
        assert run("train", "--graph", graph, "--split", good, "--k", 2,
                   "--epochs", 1, "--out-ckpt", ckpt) == 0
        (tmp_path / "bad").mkdir()
        _, split = four_node_files(tmp_path / "bad", sections)
        if command == "train":
            code = run("train", "--graph", graph, "--split", split, "--k", 2,
                       "--epochs", 1, "--out-ckpt", tmp_path / "out")
        else:
            code = run("eval", "--ckpt", ckpt, "--graph", graph, "--split", split, "--out", tmp_path / "out")
        assert code == 2
        assert f"{split}{message}" in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))


class TestNumericFailure:
    @pytest.mark.parametrize("command", ["eval", "communities"])
    def test_nonfinite_encoder_output_exits_three(self, ws, tmp_path, capsys, command):
        ckpt = trainer.load_checkpoint(ws["ckpt"])
        ckpt.params["encoder.w_mu"][0, 0] = np.inf
        path = tmp_path / "inf.ckpt"
        trainer.save_checkpoint(ckpt, path)
        where = ["--split", ws["split"]] if command == "eval" else ["--out", tmp_path / "c.txt"]
        with np.errstate(invalid="ignore"):
            code = run(command, "--ckpt", path, "--graph", ws["graph"], *where)
        assert code == 3
        assert "numeric failure: encoder head mu: non-finite output" in capsys.readouterr().err

    def test_overflowing_encoder_exits_three_from_communities_without_warning(self, tmp_path, capsys):
        prefix = tmp_path / "g"
        assert run("synth", "--nodes", 200, "--communities", 8, "--out-prefix", prefix) == 0
        graph, split, path = f"{prefix}.edges.txt", tmp_path / "g.split", tmp_path / "m.ckpt"
        assert run("split", "--graph", graph, "--out", split) == 0
        assert run("train", "--graph", graph, "--split", split, "--epochs", 3, "--out-ckpt", path) == 0
        ckpt = trainer.load_checkpoint(path)
        ckpt.params["encoder.w1"][...] = 1e308
        trainer.save_checkpoint(ckpt, path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("communities", "--ckpt", path, "--graph", graph, "--out", tmp_path / "c.txt")
        assert code == 3
        assert capsys.readouterr().err == "numeric failure: encoder head pi: non-finite output\n"
        assert not (tmp_path / "c.txt").exists()

    def test_overflowing_decoder_exits_three_from_eval(self, ws, tmp_path, capsys):
        # finite weights whose link logits overflow: as probabilities they would all tie at 1
        ckpt = trainer.load_checkpoint(ws["ckpt"])
        ckpt.params["decoder.mlp0.w"] *= 1e160
        path = tmp_path / "big.ckpt"
        trainer.save_checkpoint(ckpt, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("eval", "--ckpt", path, "--graph", ws["graph"], "--split", ws["split"],
                       "--out", tmp_path / "metrics")
        assert code == 3
        assert capsys.readouterr().err == "numeric failure: decoder: non-finite link logit\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.ckpt"]

    def test_decoder_overflow_in_validation_is_recorded_as_divergence(self, ws, tmp_path, capsys, monkeypatch):
        # the third validation's encoder outputs are finite but their link logits overflow
        encode, calls = md.encode, []

        def poisoned(g, a_hat, params, *train_args):
            out = encode(g, a_hat, params, *train_args)
            if not train_args:  # validation scores without dropout arguments
                calls.append(g)
                if len(calls) == 3:
                    out["mu"].data *= 1e160
            return out

        def train(epochs, ckpt):
            return run("train", "--graph", ws["graph"], "--split", ws["split"], "--k", 4, "--hidden", 8,
                       "--epochs", epochs, "--val-every", 1, "--seed", 3, "--out-ckpt", ckpt)

        monkeypatch.setattr(md, "encode", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert train(6, tmp_path / "m.ckpt") == 0
        assert "warning: training diverged (decoder: non-finite link logit)" in capsys.readouterr().out
        report = json.loads(Path(f"{tmp_path / 'm.ckpt'}.report.json").read_text())
        assert report["diverged"] and len(report["losses"]) == 3 and len(report["val_trace"]) == 2
        monkeypatch.setattr(md, "encode", encode)
        assert train(report["best_epoch"], tmp_path / "clean.ckpt") == 0
        clean = trainer.load_checkpoint(tmp_path / "clean.ckpt")
        kept = trainer.load_checkpoint(tmp_path / "m.ckpt")
        assert kept.step == clean.step == report["best_epoch"]
        for name, arr in clean.params.items():
            assert kept.params[name].tobytes() == arr.tobytes(), name


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
        assert "version 1, this build supports 4" in capsys.readouterr().err

    def test_version_2_checkpoint_is_data_error(self, ws, tmp_path, capsys):
        # a version 2 file stored all five encoder heads whatever the variant
        ckpt = trainer.load_checkpoint(ws["ckpt"])
        params = dict(ckpt.params)
        for head in ("c", "d"):
            params[f"encoder.w_{head}"] = np.zeros_like(params["encoder.w_pi"])
        v2 = tmp_path / "v2.ckpt"
        trainer.save_checkpoint(dataclasses.replace(ckpt, params=params), v2)
        raw = bytearray(v2.read_bytes())
        raw[8:12] = struct.pack("<I", 2)
        body = bytes(raw[:-4])
        v2.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        code = run("eval", "--ckpt", v2, "--graph", ws["graph"], "--split", ws["split"])
        assert code == 2
        assert f"{v2}: checkpoint version 2, this build supports 4" in capsys.readouterr().err

    def test_version_3_checkpoint_is_data_error(self, ws, tmp_path, capsys):
        # a version 3 header had no node and feature counts after the step
        raw = Path(ws["ckpt"]).read_bytes()
        body = raw[:8] + struct.pack("<I", 3) + raw[12:20] + raw[28:-4]
        v3 = tmp_path / "v3.ckpt"
        v3.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        code = run("eval", "--ckpt", v3, "--graph", ws["graph"], "--split", ws["split"])
        assert code == 2
        assert f"{v3}: checkpoint version 3, this build supports 4" in capsys.readouterr().err

    def test_non_utf8_parameter_name_is_data_error(self, ws, tmp_path, capsys):
        raw = Path(ws["ckpt"]).read_bytes()
        (cfg_len,) = struct.unpack("<I", raw[28:32])
        name = 32 + cfg_len + 4 + 2  # past the parameter count and the first name's length
        body = raw[:name] + b"\xff" + raw[name + 1 : -4]
        path = tmp_path / "latin.ckpt"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        code = run("eval", "--ckpt", path, "--graph", ws["graph"], "--split", ws["split"])
        assert code == 2
        assert f"{path}: parameter name is not UTF-8" in capsys.readouterr().err

    def test_parameter_listed_twice_is_data_error(self, ws, tmp_path, capsys):
        # a second, zeroed encoder.w1 after the table, the count raised to match, CRC intact
        raw = Path(ws["ckpt"]).read_bytes()
        (cfg_len,) = struct.unpack("<I", raw[28:32])
        count = 32 + cfg_len
        (n_params,) = struct.unpack("<I", raw[count : count + 4])
        shape = trainer.load_checkpoint(ws["ckpt"]).params["encoder.w1"].shape
        again = struct.pack("<H", 10) + b"encoder.w1" + struct.pack("<B2I", 2, *shape)
        again += np.zeros(shape, dtype="<f8").tobytes()
        body = raw[:count] + struct.pack("<I", n_params + 1) + raw[count + 4 : -4] + again
        path = tmp_path / "twice.ckpt"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        code = run("eval", "--ckpt", path, "--graph", ws["graph"], "--split", ws["split"])
        assert code == 2
        assert f"{path}: parameter 'encoder.w1' listed twice" in capsys.readouterr().err

    def test_shape_whose_product_wraps_int64_is_data_error(self, ws, tmp_path, capsys):
        # 65536**4 = 2**64 elements, 0 in int64 arithmetic; the data is dropped, CRC intact
        raw = Path(ws["ckpt"]).read_bytes()
        name = raw.index(b"decoder.mlp0.b") + len(b"decoder.mlp0.b")
        (_, rows, cols) = struct.unpack("<B2I", raw[name : name + 9])
        huge = struct.pack("<B4I", 4, *(65536,) * 4)
        body = raw[:name] + huge + raw[name + 9 + 8 * rows * cols : -4]
        path = tmp_path / "wrapped.ckpt"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        code = run("eval", "--ckpt", path, "--graph", ws["graph"], "--split", ws["split"])
        assert code == 2
        assert f"{path}: truncated checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["TEST_POS", "TEST_NEG"])
    def test_empty_test_section_is_data_error(self, tmp_path, capsys, section):
        train = {"TRAIN": "0 1\n1 2\n0 2\n"} if section == "TEST_POS" else {}
        graph, split = four_node_files(tmp_path, {section: "", **train})
        ckpt = tmp_path / "c"
        assert run("train", "--graph", graph, "--split", split, "--k", 2,
                   "--epochs", 1, "--out-ckpt", ckpt) == 0
        code = run("eval", "--ckpt", ckpt, "--graph", graph, "--split", split)
        assert code == 2
        assert f"{split}: {section} is empty" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "name,shape",
        [("decoder.mlp0.b", (1, 1)), ("sticks.raw_c", (1, 9)), ("encoder.w1", (100, 33)),
         ("feature_decoder.w", (9, 100))],
    )
    def test_misshaped_parameter_is_data_error(self, ws, tmp_path, capsys, name, shape):
        # the CRC is valid: only the layout check can refuse the file
        ckpt = trainer.load_checkpoint(ws["ckpt"])
        params = dict(ckpt.params, **{name: np.zeros(shape)})
        # the model has a feature decoder only if its graph had features: claim 100 columns
        counts = {"d_features": 100} if name == "feature_decoder.w" else {}
        path = tmp_path / "bad.ckpt"
        trainer.save_checkpoint(dataclasses.replace(ckpt, params=params, **counts), path)
        code = run("eval", "--ckpt", path, "--graph", ws["graph"], "--split", ws["split"])
        assert code == 2
        assert f"{path}: parameter {name!r} has shape {shape}" in capsys.readouterr().err

    @staticmethod
    def _with_stored_config(ckpt, tmp_path, edit):
        """A copy of `ckpt` whose stored config JSON went through `edit`, CRC intact."""
        raw = Path(ckpt).read_bytes()
        (cfg_len,) = struct.unpack("<I", raw[28:32])
        config = json.loads(raw[32 : 32 + cfg_len])
        edit(config)
        cfg = json.dumps(config).encode()
        body = raw[:28] + struct.pack("<I", len(cfg)) + cfg + raw[32 + cfg_len : -4]
        out = tmp_path / "edited.ckpt"
        out.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        return out

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda c: c.update(momentum=0.9), "unknown config keys"),
            (lambda c: c.update(k="x"), "'k' has a value of the wrong type"),
            (lambda c: c.update(structured="yes"), "'structured' has a value of the wrong type"),
            (lambda c: c.update(variant="nope"), "unknown variant"),
            (lambda c: c.update(lr=float("inf")), "lr must be finite"),
            (lambda c: c.update(seed=-1), "seed must be >= 0"),
        ],
        ids=["unknown-key", "string-k", "string-bool", "unknown-variant", "infinite-lr", "negative-seed"],
    )
    def test_bad_stored_config_is_data_error(self, ws, tmp_path, capsys, edit, message):
        ckpt = self._with_stored_config(ws["ckpt"], tmp_path, edit)
        code = run("eval", "--ckpt", ckpt, "--graph", ws["graph"], "--split", ws["split"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{ckpt}: bad stored config" in err and message in err


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

    @pytest.mark.parametrize(
        "variant,graph",
        [("lsm", "graph"), ("vgae", "graph"), ("vgae", None)],
        ids=["lsm", "vgae", "vgae-missing-graph"],
    )
    def test_gaussian_variant_rejected(self, ws, tmp_path, capsys, variant, graph):
        # refused on the checkpoint alone, before --graph is read
        ckpt = tmp_path / "gaussian.ckpt"
        assert run("train", "--graph", ws["graph"], "--split", ws["split"],
                   "--variant", variant, "--k", 6, "--hidden", 16,
                   "--epochs", 5, "--out-ckpt", ckpt) == 0
        out = tmp_path / "c.txt"
        code = run("communities", "--ckpt", ckpt, "--graph", ws[graph] if graph else tmp_path / "missing.txt",
                   "--out", out)
        captured = capsys.readouterr()
        assert code == 1
        assert f"variant {variant}" in captured.err
        assert not out.exists() and not (tmp_path / "c.txt.manifest.json").exists()

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


    def test_export_latent_encodes_once(self, ws, tmp_path, monkeypatch):
        plain = tmp_path / "plain.txt"
        assert run("communities", "--ckpt", ws["ckpt"], "--graph", ws["graph"],
                   "--out", plain) == 0
        calls = []
        encode = md.encode

        def counting_encode(*args, **kwargs):
            calls.append(args)
            return encode(*args, **kwargs)

        monkeypatch.setattr(md, "encode", counting_encode)
        out = tmp_path / "comms.txt"
        assert run("communities", "--ckpt", ws["ckpt"], "--graph", ws["graph"],
                   "--out", out, "--export-latent", tmp_path / "z.csv") == 0
        assert len(calls) == 1
        assert out.read_bytes() == plain.read_bytes()


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

    @pytest.mark.parametrize("command", ["synth", "split", "train"])
    def test_negative_seed_is_usage_error_before_any_file(self, tmp_path, capsys, command):
        argv = {
            "synth": ["--out-prefix", tmp_path / "g"],
            "split": ["--graph", tmp_path / "missing.txt", "--out", tmp_path / "s"],
            "train": ["--graph", tmp_path / "missing.txt", "--split", tmp_path / "missing.split",
                      "--out-ckpt", tmp_path / "c"],
        }[command]
        assert run(command, *argv, "--seed", -1) == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err and "missing" not in err
        assert list(tmp_path.iterdir()) == []

    def test_cli_import_leaves_out_scipy_stats(self):
        # scipy.stats (with scipy.optimize and scipy.spatial) more than
        # doubles the start-up time of every command
        code = (
            "import dglfrm.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'stats'], ['scipy', 'optimize'], ['scipy', 'spatial'])))"
        )
        src = str(Path(cli.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert result.stdout.strip() == "[]"

    def test_model_stack_import_leaves_out_scipy(self):
        # spmm loads scipy's compiled sparse kernels by file: neither scipy's
        # nor scipy.sparse's package init runs
        code = (
            "import dglfrm.trainer, dglfrm.metrics, sys; "
            "print(sorted(m for m in sys.modules if m in ('scipy', 'scipy.sparse')))"
        )
        src = str(Path(cli.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert result.stdout.strip() == "[]"

    @staticmethod
    def scipy_modules_after(tmp_path, *commands) -> list[list[str]]:
        """Run the commands with cli.main in one new process; the scipy modules loaded after each."""
        code = (
            "import json, sys\n"
            "from dglfrm import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, json.dumps(commands)], capture_output=True, text=True,
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert result.returncode == 0, result.stderr
        return [json.loads(line) for line in result.stdout.splitlines() if line.startswith("[")]

    def test_synth_and_split_never_load_scipy(self, tmp_path):
        # importing numpy and scipy.sparse took a median of 255 ms against
        # 104 ms for numpy alone (2 CPUs); model commands load one scipy extension
        synth = ["synth", "--nodes", "40", "--communities", "4", "--out-prefix", "g"]
        split = ["split", "--graph", "g.edges.txt", "--out", "g.split"]
        assert self.scipy_modules_after(tmp_path, synth) == [[]]
        assert self.scipy_modules_after(tmp_path, split) == [[]]

    def test_no_command_loads_scipy_special(self, tmp_path):
        commands = [
            ["synth", "--nodes", "40", "--communities", "4", "--out-prefix", "g"],
            ["split", "--graph", "g.edges.txt", "--out", "g.split"],
            ["train", "--graph", "g.edges.txt", "--split", "g.split", "--k", "4", "--hidden", "8",
             "--epochs", "2", "--mean-field", "--out-ckpt", "m.ckpt"],
            ["eval", "--ckpt", "m.ckpt", "--graph", "g.edges.txt", "--split", "g.split"],
            ["communities", "--ckpt", "m.ckpt", "--graph", "g.edges.txt", "--out", "c.txt"],
        ]
        loaded = self.scipy_modules_after(tmp_path, *commands)
        assert loaded[2] == ["scipy.sparse._sparsetools"]  # spmm's compiled kernels, without scipy.sparse
        assert loaded[-1] == loaded[2]
        assert not any(m.startswith("scipy.special") for m in loaded[-1])

    @pytest.mark.parametrize(
        "preset, want",
        [({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])],
        ids=["unset", "caller-kept"],
    )
    def test_blas_threads_are_fixed_before_numpy_loads(self, preset, want):
        """The block workers already use every CPU; a count the caller set still wins."""
        names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
        # a finder that prints the variables when numpy is first imported, then lets it load
        code = (
            "import os, sys\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            f"        if name == 'numpy': print([os.environ.get(v) for v in {names!r}])\n"
            "sys.meta_path.insert(0, Spy())\n"
            "import dglfrm.cli\n"
        )
        env = {k: v for k, v in os.environ.items() if k not in names}
        env.update(preset, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
        )
        assert result.stdout.strip() == str(want)

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "dglfrm.cli", "--version"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "dglfrm" in result.stdout
