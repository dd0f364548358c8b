"""Benchmark of the dglfrm command-line pipeline.

    python3 benchmarks/run.py --workload train-dense --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; nothing needs installing. With
`--trace 0` each command runs in its own interpreter, as a user runs it,
and the run repeats whole rounds of the workload for as long as the next
round, taking as long as the last, ends within `--seconds` (at least one
round). With `--trace 1` the round is replayed in this process twice,
once plain and once with per-layer spans (see tracing.py), and the
difference is the tracing overhead. Every round's outputs must be
byte-identical to the first's, and the last round's are checked with the
code in checks.py. The last line of standard output is one JSON object:
correct, attempted, failed and the metrics declared in BENCHMARK.json.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, fixed before numpy loads. On a 2-CPU machine two threads
# trained train-dense no faster (0.51 against 0.52 s/epoch, medians of four
# alternating runs), and one thread does not depend on the other CPU's load.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
COMMAND_TIMEOUT_S = 150
STARTUP_REPEATS = 5
SETUPS_PER_ROUND = 2
TEST_FRAC, VAL_FRAC = "0.10", "0.05"
TAU = 0.5


class CommandFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Op:
    """One operation of a round: a CLI command or an output check."""

    name: str
    argv: list[str] | None = None
    check: Callable | None = None  # work -> list of failure messages


@dataclass(frozen=True)
class Workload:
    name: str
    epochs: int
    setup: Callable  # seed, i -> argv
    pipeline: Callable  # seed -> list of (stage, argv)
    checks: tuple  # (name, callable(work) -> list of failure messages)
    replay_files: tuple[str, ...]
    prepare: Callable | None = None  # seed, work -> None; writes benchmark-made inputs


def _train_argv(seed: str, graph: list[str], variant: list[str], epochs: int, out: str) -> list[str]:
    return [
        "train", *graph, "--split", "graph.split", *variant,
        "--epochs", str(epochs), "--seed", seed, "--out-ckpt", out,
    ]


def _split_argv(seed: str, graph: list[str]) -> list[str]:
    return [
        "split", *graph, "--test-frac", TEST_FRAC, "--val-frac", VAL_FRAC,
        "--seed", seed, "--out", "graph.split",
    ]


GRAPH = ["--graph", "graph.edges.txt"]
DENSE_EPOCHS = 8


def _dense_pipeline(seed: str):
    return [
        ("synth", ["synth", "--nodes", "2000", "--communities", "40", "--seed", seed,
                   "--out-prefix", "graph"]),
        ("split", _split_argv(seed, GRAPH)),
        ("train", _train_argv(seed, GRAPH, ["--variant", "dglfrm"], DENSE_EPOCHS, "model.ckpt")),
        ("eval", ["eval", "--ckpt", "model.ckpt", *GRAPH, "--split", "graph.split"]),
        ("communities", ["communities", "--ckpt", "model.ckpt", *GRAPH, "--tau", str(TAU),
                         "--out", "graph.communities.txt"]),
    ]


FEATURE_GRAPH = ["--graph", "graph.edges.txt", "--features", "graph.features.txt"]
FEATURE_VARIANT = ["--variant", "vgae", "--feature-term", "on"]
FEATURE_EPOCHS = 24


def _feature_pipeline(seed: str):
    return [
        ("split", _split_argv(seed, FEATURE_GRAPH)),
        ("train", _train_argv(seed, FEATURE_GRAPH, FEATURE_VARIANT, FEATURE_EPOCHS, "model.ckpt")),
        ("eval", ["eval", "--ckpt", "model.ckpt", *FEATURE_GRAPH, "--split", "graph.split"]),
    ]


def _prepare_features(seed: str, work: Path) -> None:
    inputs.write_cora_like(int(seed), work / "graph.edges.txt", work / "graph.features.txt")


def _synthetic_checks(work: Path):
    return checks.check_synthetic_graph(work / "graph.edges.txt", work / "graph.memberships.txt")


def _split_checks(work: Path):
    n, edges = checks.read_edge_file(work / "graph.edges.txt")
    return checks.check_split(work / "graph.split", n, edges, float(TEST_FRAC), float(VAL_FRAC))


def _setup_replay_checks(work: Path):
    """The repeated zero-epoch trainings wrote identical checkpoints and reports."""
    failures = []
    for pattern in ("setup*.ckpt", "setup*.ckpt.report.json"):
        if len({checks.sha256(path) for path in work.glob(pattern)}) != 1:
            failures.append(f"set-up commands wrote different {pattern} files")
    return failures


def _load_for_scoring(work: Path, with_features: bool):
    from dglfrm import graphdata as gd
    from dglfrm import trainer

    g = gd.load_edge_list(work / "graph.edges.txt")
    if with_features:
        x = gd.load_features(work / "graph.features.txt", g.n_nodes)
        g = gd.Graph(n_nodes=g.n_nodes, adjacency=g.adjacency, features=x)
    return g, trainer.load_checkpoint(work / "model.ckpt")


def _link_prediction_checks(work: Path, with_features: bool):
    """Recompute test AUC/AP from the program's pair scores.

    With features the model leaves the constant-predictor plateau after
    10 to 15 epochs, so after 24 its final link NLL must be below that
    predictor's least loss. Without features (train-dense) it is still on
    the plateau after 50 epochs, so there the link NLL need only fall
    during training.
    """
    from dglfrm import graphdata as gd
    from dglfrm import trainer
    from dglfrm.tensor import SparseMatrix

    g, ckpt = _load_for_scoring(work, with_features)
    n, sec = checks.read_split(work / "graph.split")
    t = sec["TRAIN"]
    train_adj = SparseMatrix.from_coo(
        np.concatenate([t[:, 0], t[:, 1]]), np.concatenate([t[:, 1], t[:, 0]]),
        np.ones(2 * len(t)), (n, n),
    )
    a_hat = gd.normalize_adjacency(gd.Graph(n_nodes=n, adjacency=train_adj, features=g.features))
    pairs = np.concatenate([sec["TEST_POS"], sec["TEST_NEG"]])
    labels = np.concatenate([np.ones(len(sec["TEST_POS"])), np.zeros(len(sec["TEST_NEG"]))])
    scores = trainer.score_pairs(ckpt, g, a_hat, pairs)
    flipped = trainer.score_pairs(ckpt, g, a_hat, pairs[:, ::-1])

    failures = []
    if not np.all((scores > 0.0) & (scores < 1.0)):
        failures.append("a test score lies outside (0, 1)")
    if np.max(np.abs(scores - flipped)) > 1e-12:
        failures.append("score(u, v) != score(v, u)")
    auc, ap = checks.auc_ap(scores, labels)
    reported = json.loads((work / "model.ckpt.metrics.json").read_text())
    for name, ours in (("auc", auc), ("ap", ap)):
        if abs(ours - reported[name]) > 1e-9:
            failures.append(f"eval reports {name} {reported[name]!r}, recomputed {ours!r}")
    margin = checks.auc_chance_margin(len(sec["TEST_POS"]), len(sec["TEST_NEG"]))
    if not auc > 0.5 + margin:
        failures.append(f"test AUC {auc:.4f} is within {margin:.4f} of chance")
    losses = json.loads((work / "model.ckpt.report.json").read_text())["losses"]
    final = losses[-1]["link_nll"]
    if with_features:
        bound = checks.constant_predictor_nll(n, len(t))
        if not final < bound:
            failures.append(f"final link NLL {final:.1f} >= constant-predictor bound {bound:.1f}")
    elif not final < losses[0]["link_nll"]:
        failures.append(f"link NLL did not fall: {losses[0]['link_nll']:.1f} -> {final:.1f}")
    return failures


def _community_checks(work: Path):
    from dglfrm import graphdata as gd
    from dglfrm import trainer

    g, ckpt = _load_for_scoring(work, with_features=False)
    a_hat = gd.normalize_adjacency(trainer.effective_graph(g, ckpt.config))
    latents = trainer.posterior_latents(ckpt, g, a_hat)
    return checks.check_communities(work / "graph.communities.txt", latents.b_prob, TAU)


WORKLOADS = {
    "train-dense": Workload(
        name="train-dense",
        epochs=DENSE_EPOCHS,
        setup=lambda seed, i: _train_argv(seed, GRAPH, ["--variant", "dglfrm"], 0, f"setup{i}.ckpt"),
        pipeline=_dense_pipeline,
        checks=(
            ("graph", _synthetic_checks),
            ("split", _split_checks),
            ("manifests", checks.check_manifests),
            ("link-prediction", lambda w: _link_prediction_checks(w, with_features=False)),
            ("communities", _community_checks),
        ),
        replay_files=(
            "graph.edges.txt", "graph.memberships.txt", "graph.split", "model.ckpt",
            "model.ckpt.report.json", "model.ckpt.metrics.json", "graph.communities.txt",
        ),
    ),
    "train-features": Workload(
        name="train-features",
        epochs=FEATURE_EPOCHS,
        setup=lambda seed, i: _train_argv(seed, FEATURE_GRAPH, FEATURE_VARIANT, 0, f"setup{i}.ckpt"),
        pipeline=_feature_pipeline,
        checks=(
            ("split", _split_checks),
            ("manifests", checks.check_manifests),
            ("link-prediction", lambda w: _link_prediction_checks(w, with_features=True)),
        ),
        replay_files=("graph.split", "model.ckpt", "model.ckpt.report.json", "model.ckpt.metrics.json"),
        prepare=_prepare_features,
    ),
}


# ---------------------------------------------------------------------------
# Running commands


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("DGLFRM_LOG", None)
    return env


def run_cli(work: Path, argv: list[str]) -> tuple[float, float]:
    """Run one command in a fresh interpreter: (seconds, peak RSS in MB)."""
    with open(work / "cli.log", "ab") as log:
        log.write(("$ dglfrm " + " ".join(argv) + "\n").encode())
        log.flush()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "dglfrm.cli", *argv],
            cwd=work, env=_child_env(), stdout=log, stderr=log,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise CommandFailed(f"dglfrm {' '.join(argv)} exited {proc.returncode} (see {work / 'cli.log'})")
    return seconds, usage.ru_maxrss / 1024.0


def in_process_runner(tracer=None):
    """Run commands through cli.main in this process, optionally traced."""

    def run(work: Path, argv: list[str]) -> tuple[float, float | None]:
        from dglfrm import cli

        out = io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                with tracing.traced(tracer) if tracer else contextlib.nullcontext():
                    start = time.perf_counter()
                    code = cli.main(argv)
                    seconds = time.perf_counter() - start
        finally:
            os.chdir(cwd)
        if code != 0:
            raise CommandFailed(f"dglfrm {' '.join(argv)} exited {code}: {out.getvalue()[-500:]}")
        return seconds, None

    return run


# ---------------------------------------------------------------------------
# Rounds


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.wrong,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def _program_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dglfrm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _replay_check(workload: Workload, seed: str, pipeline):
    """Outputs of this round equal those of every earlier run of the same round."""
    key = hashlib.sha256(
        (_program_digest() + json.dumps(pipeline)).encode()
    ).hexdigest()[:16]
    ledger = WORK_ROOT / "replay" / f"{workload.name}-{seed}-{key}.json"

    def check(work: Path):
        digests = {name: checks.sha256(work / name) for name in workload.replay_files}
        if not ledger.exists():
            ledger.parent.mkdir(parents=True, exist_ok=True)
            tmp = ledger.with_suffix(".tmp")
            tmp.write_text(json.dumps(digests, indent=1, sort_keys=True))
            os.replace(tmp, ledger)
            return []
        recorded = json.loads(ledger.read_text())
        return [f"{name} differs from an earlier run" for name in digests if recorded.get(name) != digests[name]]

    return check


def round_ops(workload: Workload, seed: str, setups: int) -> list[Op]:
    """The commands of one round, then the replay check of its outputs.

    The set-ups sit next to `train`, one before and one after it, so that
    a round's epoch time is taken against set-ups run at the same stretch
    of the machine's speed.
    """
    pipeline = workload.pipeline(seed)
    ops = [Op(stage, argv) for stage, argv in pipeline]
    train = next(i for i, op in enumerate(ops) if op.name == "train")
    for i in reversed(range(setups)):
        ops.insert(train + 1 if i % 2 else train, Op(f"setup{i}", workload.setup(seed, i)))
    ops.append(Op("replay", check=_replay_check(workload, seed, pipeline)))
    return ops


def check_ops(workload: Workload, setups: int) -> list[Op]:
    """The output checks, made once on the last round of a run.

    Every round's outputs are byte-identical to the first round's (the
    replay check), so checking the last round checks them all.
    """
    ops = [Op(name, check=check) for name, check in workload.checks]
    if setups > 1:
        ops.append(Op("setup-replay", check=_setup_replay_checks))
    return ops


def run_ops(ops: list[Op], work: Path, runner, tally: Tally) -> dict:
    """Run the operations in order; returns stage seconds, peak RSS and the eval figures."""
    stages: dict[str, float] = {}
    rss: dict[str, float] = {}
    broken = None
    for op in ops:
        tally.attempted += 1
        if broken:
            tally.failed += 1
            continue
        try:
            if op.argv is not None:
                stages[op.name], rss[op.name] = runner(work, op.argv)
            else:
                failures = op.check(work)
                if failures:
                    tally.failed += 1
                    tally.wrong += [f"{op.name}: {msg}" for msg in failures]
        except CommandFailed as e:
            tally.failed += 1
            broken = str(e)
            print(f"command failed: {e}", file=sys.stderr)
        except Exception:  # a check that cannot run has not shown the output correct
            tally.failed += 1
            tally.wrong.append(f"{op.name}: {traceback.format_exc(limit=3)}")
    quality = work / "model.ckpt.metrics.json"
    return {
        "stages": stages,
        "rss_mb": rss,
        "broken": broken,
        "eval": json.loads(quality.read_text()) if quality.exists() and not broken else {},
    }


def run_round(workload: Workload, seed: str, work: Path, runner, tally: Tally, setups: int) -> dict:
    return run_ops(round_ops(workload, seed, setups), work, runner, tally)


def run_checks(workload: Workload, work: Path, tally: Tally, setups: int, broken: bool) -> None:
    """The output checks; skipped, and counted failed, after a failed command."""
    ops = check_ops(workload, setups)
    if broken:
        tally.attempted += len(ops)
        tally.failed += len(ops)
        return
    run_ops(ops, work, None, tally)


def _stage_names(workload: Workload) -> set[str]:
    """The pipeline's stages: the commands wall_s adds up."""
    return {stage for stage, _ in workload.pipeline("0")}


def _setup_seconds(r: dict) -> list[float]:
    return [s for name, s in r["stages"].items() if name.startswith("setup")]


def end_to_end(workload: Workload, rounds: list[dict]) -> tuple[dict, dict]:
    """(declared end-to-end metrics, extra figures) as medians over rounds."""
    timed = _stage_names(workload)
    med = lambda values: statistics.median(values) if values else float("nan")  # noqa: E731
    metrics = {
        "wall_s": med([sum(s for n, s in r["stages"].items() if n in timed) for r in rounds]),
        "setup_s": med([s for r in rounds for s in _setup_seconds(r)]),
        # against the mean of the round's own set-ups, one on each side of train
        "epoch_s": med([(r["stages"]["train"] - statistics.fmean(_setup_seconds(r))) / workload.epochs
                        for r in rounds if "train" in r["stages"] and _setup_seconds(r)]),
        "peak_rss_mb": med([max(r["rss_mb"].values()) for r in rounds if r["rss_mb"]]),
        "test_auc": med([r["eval"]["auc"] for r in rounds if r["eval"]]),
        "test_ap": med([r["eval"]["ap"] for r in rounds if r["eval"]]),
    }
    extra = {"rounds": len(rounds), "round_stages_s": [r["stages"] for r in rounds]}
    for stage in timed:
        extra[f"{stage}_s"] = med([r["stages"][stage] for r in rounds if stage in r["stages"]])
        extra[f"{stage}_rss_mb"] = med([r["rss_mb"][stage] for r in rounds if stage in r["rss_mb"]])
    return metrics, extra


# ---------------------------------------------------------------------------
# Traced run


def per_layer(workload: Workload, seed: str, work: Path, tally: Tally) -> tuple[dict, dict]:
    startup = []
    for _ in range(STARTUP_REPEATS):
        tally.attempted += 1
        try:
            startup.append(run_cli(work, ["--version"])[0])
        except CommandFailed as e:
            tally.failed += 1
            print(f"command failed: {e}", file=sys.stderr)
    plain = run_round(workload, seed, work, in_process_runner(), tally, setups=1)
    tracer = tracing.Tracer()
    traced = run_round(workload, seed, work, in_process_runner(tracer), tally, setups=1)
    run_checks(workload, work, tally, setups=1, broken=bool(plain["broken"] or traced["broken"]))

    timed = _stage_names(workload)

    def wall(r):
        return sum(s for n, s in r["stages"].items() if n in timed)

    def epoch_s(r):
        if "train" not in r["stages"]:
            return float("nan")
        return (r["stages"]["train"] - r["stages"]["setup0"]) / workload.epochs

    sec, counts = tracer.seconds, tracer.counts
    epochs = counts["epochs"] or 1.0
    per_epoch = (
        "model.encode_s", "model.decode_link_logits_s", "stochastic.sample_kl_s",
        "tensor.bce_s", "tensor.backward_s", "tensor.adam_step_s",
        "trainer.epoch_self_s", "trainer.validate_s",
    )
    metrics = {name: sec[name] / epochs for name in per_epoch}
    metrics.update({
        name: sec[name] for name in (
            "cli.self_s", "trainer.save_checkpoint_s", "trainer.load_checkpoint_s",
            "trainer.evaluate_split_s", "metrics.auc_ap_s", "metrics.extract_communities_s",
        )
    })
    metrics.update({f"graphdata.{name}_s": sec[f"graphdata.{name}_s"] for name in tracing.GRAPHDATA})
    metrics.update({
        "cli.startup_s": statistics.median(startup) if startup else float("nan"),
        "graphdata.edges": counts["graphdata.edges"],
        "tensor.bce_elements": counts["tensor.bce_elements"] / epochs,
        "tensor.bce_bytes": counts["tensor.bce_bytes"] / epochs,
        "trainer.setup_s": sec["trainer.setup_s"] / (counts["train_calls"] or 1.0),
        "trace.epoch_s": epoch_s(traced),
        "trace.overhead_epoch_s": epoch_s(traced) - epoch_s(plain),
        "trace.overhead_s": wall(traced) - wall(plain),
    })
    extra = {
        "untraced_epoch_s": epoch_s(plain),
        "untraced_wall_s": wall(plain),
        "traced_wall_s": wall(traced),
        "traced_stages_s": traced["stages"],
        "epochs_traced": counts["epochs"],
    }
    return metrics, extra


# ---------------------------------------------------------------------------
# Entry point


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dglfrm" / "cli.py").is_file():
        print(f"error: no dglfrm sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    seed = str(args.seed)
    work = WORK_ROOT / f"{workload.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if workload.prepare:
        workload.prepare(seed, work)

    tally = Tally()
    if args.trace:
        values, extra = per_layer(workload, seed, work, tally)
        kind = "per_layer"
    else:
        tally.attempted += 1
        try:
            run_cli(work, ["--version"])  # warm the page cache and bytecode
        except CommandFailed as e:
            tally.failed += 1
            print(f"command failed: {e}", file=sys.stderr)
        rounds = []
        start = time.perf_counter()
        while True:  # whole rounds only: stop before one that would overrun
            began = time.perf_counter()
            rounds.append(run_round(workload, seed, work, run_cli, tally, SETUPS_PER_ROUND))
            now = time.perf_counter()
            if rounds[-1]["broken"] or now - start + (now - began) > args.seconds:
                break
        run_checks(workload, work, tally, SETUPS_PER_ROUND, broken=bool(rounds[-1]["broken"]))
        values, extra = end_to_end(workload, rounds)
        extra["run_s"] = time.perf_counter() - start
        kind = "end_to_end"

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared(kind).items()}
    result = tally.result(metrics)
    record = {"environment": environment(), "detail": extra, "wrong": tally.wrong}
    (work / "result.json").write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    for message in tally.wrong:
        print(f"wrong output: {message}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
