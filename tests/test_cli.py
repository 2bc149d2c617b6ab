import argparse
import ast
import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srkd
from srkd import cli, losses, trainer
from srkd.cli import (GRADCHECK_TOL, _write_csv, _write_json, _write_jsonl,
                      gradcheck_report, main)
from srkd.cloud import atomic_open
from srkd.config import load_config
from srkd.losses import LOSS_NAMES, LossWeights
from srkd.models import make_teacher, save_checkpoint

TINY_CFG = """
scene.n_scenes = 5
scene.points_per_scene = 192
train.epochs = 2
train.batch_size = 2
train.n_fixed = 96
train.knn_k = 4
train.teacher_epochs = 2
train.teacher_d_out = 12
train.eval_every = 2
sampler.k = 2
sampler.n_point = 16
sampler.n_voxel = 4
noise.taus = 0.1, 1.0
noise.trials = 2
sweep.fractions = 0.5, 1.0
sweep.batch_sizes = 2, 4
sweep.dims = 8, 12
sweep.seeds = 0, 1
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    return root


def offered(command: str) -> set[str]:
    """The option names (dests) that `srkd <command>` takes, -h aside."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


def run(workdir, command, out="run", seed=0):
    """`srkd <command>` on the tiny config, with --seed and --out where it
    takes them."""
    argv = [command, "--config", str(workdir / "tiny.cfg")]
    if "seed" in offered(command):
        argv += ["--seed", str(seed)]
    if "out" in offered(command):
        argv += ["--out", str(workdir / out)]
    return main(argv)


class TestPipeline:
    def test_generate(self, workdir, capsys):
        assert run(workdir, "generate") == 0
        manifest = json.loads((workdir / "run/dataset/manifest.json").read_text())
        assert manifest["n_train"] == 4 and manifest["n_val"] == 1
        assert sum(manifest["class_histogram"]) + manifest["unlabeled"] == 5 * 192
        scenes = sorted((workdir / "run/dataset/train").glob("*.pcbin"))
        assert len(scenes) == 4
        assert json.loads(capsys.readouterr().out) == manifest

    def test_generate_deterministic(self, workdir, capsys):
        assert run(workdir, "generate", out="run_b") == 0
        capsys.readouterr()
        a = (workdir / "run/dataset/train/scene_000.pcbin").read_bytes()
        b = (workdir / "run_b/dataset/train/scene_000.pcbin").read_bytes()
        assert a == b

    def test_train_before_teacher_errors(self, workdir, capsys):
        assert run(workdir, "train") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        assert "train-teacher" in err["message"]

    def test_train_teacher(self, workdir, capsys):
        assert run(workdir, "train-teacher") == 0
        assert (workdir / "run/teacher.ckpt").is_file()
        lines = (workdir / "run/teacher_log.jsonl").read_text().splitlines()
        assert all(json.loads(ln) for ln in lines)
        out = json.loads(capsys.readouterr().out)
        assert 0.0 <= out["teacher_val_miou"] <= 1.0

    def test_train_and_eval(self, workdir, capsys):
        assert run(workdir, "train") == 0
        assert (workdir / "run/student.ckpt").is_file()
        assert run(workdir, "eval") == 0
        metrics = json.loads((workdir / "run/metrics.json").read_text())
        assert {"miou", "macc", "allacc", "per_class_iou"} <= set(metrics)
        capsys.readouterr()

    def test_noise_csv(self, workdir, capsys):
        assert run(workdir, "noise") == 0
        capsys.readouterr()
        lines = (workdir / "run/noise.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[0].endswith(" seed=0")  # the hash does not cover --seed
        assert lines[1].split(",")[0] == "tau"
        assert len(lines) == 2 + 2  # two taus in the tiny config

    def test_ablate_csv(self, workdir, capsys):
        assert run(workdir, "ablate") == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) == {"baseline", "+kd", "+kd+csmbgd", "full"}
        lines = (workdir / "run/ablation.csv").read_text().splitlines()
        assert len(lines) == 2 + 4 * 2  # four variants, two seeds
        # its seeds are `sweep.seeds`, which the hash covers
        header = (workdir / "run/config.txt").read_text().splitlines()[0]
        assert "seed" not in lines[0] and "seed" not in header

    def test_subsample_csv(self, workdir, capsys):
        assert run(workdir, "subsample") == 0
        capsys.readouterr()
        lines = (workdir / "run/subsample.csv").read_text().splitlines()
        assert len(lines) == 2 + 2 * 2  # two fractions, two seeds
        rows = list(csv.DictReader(lines[1:]))
        for frac in ("0.5", "1.0"):
            assert sorted(r["seed"] for r in rows if r["fraction"] == frac) \
                == ["0", "1"]

    def test_subsample_runs_every_configured_seed(self, workdir, tmp_path,
                                                  monkeypatch, capsys):
        cfg = tmp_path / "five_seeds.cfg"
        cfg.write_text(TINY_CFG.replace("sweep.seeds = 0, 1",
                                        "sweep.seeds = 0, 1, 2, 3, 4"))
        seen = []

        def sweep(cfg, teacher, data, *, fractions, seeds):
            seen.append(seeds)
            return [{"fraction": f, "seed": s} for f in fractions for s in seeds]

        out = tmp_path / "run"
        shutil.copytree(workdir / "run/dataset", out / "dataset")
        shutil.copy(workdir / "run/teacher.ckpt", out)
        monkeypatch.setattr(trainer, "subsample_sweep", sweep)
        assert main(["subsample", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert seen == [(0, 1, 2, 3, 4)]

    def test_batch_sweep_csv(self, workdir, capsys):
        assert run(workdir, "batch-sweep") == 0
        capsys.readouterr()
        lines = (workdir / "run/batch_sweep.csv").read_text().splitlines()
        assert len(lines) == 2 + 2

    def test_dim_sweep_csv(self, workdir, capsys):
        assert run(workdir, "dim-sweep") == 0
        capsys.readouterr()
        lines = (workdir / "run/dim_sweep.csv").read_text().splitlines()
        assert len(lines) == 2 + 2

    def test_config_echo_round_trip(self, workdir):
        text = (workdir / "run/config.txt").read_text()
        assert text.startswith("# effective config, hash ")
        from srkd.config import config_hash, parse_config
        cfg = parse_config(text)
        assert config_hash(cfg) in text.splitlines()[0]
        assert cfg["scene.n_scenes"] == 5


class TestErrors:
    def test_unknown_config_key(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no.such.key = 1\n")
        code = main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["generate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not found" in json.loads(capsys.readouterr().err)["message"]

    @staticmethod
    def _rejected_at_load(workdir, tmp_path, capsys, setting, command):
        """A dataset from the good config; `generate` and `command` under the
        bad one both exit 2 with one ConfigError line."""
        bad = tmp_path / "nan.cfg"
        bad.write_text(TINY_CFG + setting + "\n")
        out = str(tmp_path / "o")
        assert main(["generate", "--config", str(workdir / "tiny.cfg"),
                     "--out", out]) == 0
        capsys.readouterr()
        for cmd in ("generate", command):
            assert main([cmd, "--config", str(bad), "--out", out]) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == "ConfigError"

    @staticmethod
    def one_config_error(capsys) -> str:
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        return err["message"]

    # the last four pass an option their command does not read
    @pytest.mark.parametrize("argv", [
        ["train", "--jobs", "2"], ["train", "--seed", "abc"], ["nosuch"], [],
        ["noise", "--seed", "x"], ["eval", "--seed", "0"], ["ablate", "--seed", "0"],
        ["subsample", "--seed", "0"], ["gradcheck"]],
        ids=["jobs", "seed", "command", "empty", "int", "eval-seed", "ablate-seed",
             "subsample-seed", "gradcheck-out"])
    def test_usage_error_is_one_json_line(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "o")] if argv else argv) == 2
        self.one_config_error(capsys)
        assert not (tmp_path / "o").exists()

    def test_jobs_rejected_on_every_command(self, tmp_path, capsys):
        # sweeps size their worker pool themselves (`trainer._run_tasks`)
        for name in cli._COMMANDS:
            assert main([name, "--jobs", "2", "--out", str(tmp_path / "o")]) == 2
            assert "--jobs" in self.one_config_error(capsys), name
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [["-h"], ["train", "-h"], ["ablate", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: srkd") and err == ""

    def test_nonfinite_setting_rejected(self, workdir, tmp_path, capsys):
        self._rejected_at_load(workdir, tmp_path, capsys, "loss.t_gd = nan",
                               "train-teacher")

    def test_zero_eval_every_rejected(self, workdir, tmp_path, capsys):
        self._rejected_at_load(workdir, tmp_path, capsys, "train.eval_every = 0",
                               "train-teacher")

    def test_negative_start_factor_rejected(self, workdir, tmp_path, capsys):
        self._rejected_at_load(workdir, tmp_path, capsys, "train.start_factor = -1",
                               "train-teacher")

    def test_nonfinite_noise_tau_rejected(self, workdir, tmp_path, capsys):
        self._rejected_at_load(workdir, tmp_path, capsys,
                               "noise.taus = 0.1, nan", "noise")

    @pytest.mark.parametrize("setting, command", [("sweep.seeds =", "ablate"),
                                                  ("sweep.dims =", "dim-sweep")])
    def test_empty_sweep_list_rejected(self, workdir, tmp_path, capsys, setting,
                                       command):
        self._rejected_at_load(workdir, tmp_path, capsys, setting, command)

    def test_truncated_student_checkpoint(self, workdir, tmp_path, capsys):
        out = tmp_path / "trunc"
        assert main(["generate", "--config", str(workdir / "tiny.cfg"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        full = tmp_path / "full.ckpt"
        save_checkpoint(make_teacher(2, 8, d_out=12, k=8, seed=0).state_dict(), full)
        raw = full.read_bytes()
        (out / "student.ckpt").write_bytes(raw[:len(raw) // 2])
        assert main(["eval", "--config", str(workdir / "tiny.cfg"),
                     "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ParseError"

    def test_out_is_a_file(self, tmp_path, capsys):
        (tmp_path / "o").write_text("not a directory\n")
        assert main(["generate", "--out", str(tmp_path / "o")]) == 2
        assert "not a directory" in self.one_config_error(capsys)
        assert (tmp_path / "o").read_text() == "not a directory\n"

    def test_file_system_error_is_one_json_line(self, workdir, tmp_path, capsys):
        # a directory where train-teacher expects a listed scene file
        out = tmp_path / "o"
        assert main(["generate", "--config", str(workdir / "tiny.cfg"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        scene = out / "dataset" / "train" / "scene_000.pcbin"
        scene.unlink()
        scene.mkdir()
        assert main(["train-teacher", "--config", str(workdir / "tiny.cfg"),
                     "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "IsADirectoryError"

    def test_eval_without_student(self, workdir, tmp_path, capsys):
        out = tmp_path / "fresh"
        assert main(["generate", "--config", str(workdir / "tiny.cfg"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", str(workdir / "tiny.cfg"),
                     "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DataError"


class TestDatasetManifest:
    def test_regenerated_dataset_keeps_splits_apart(self, tmp_path, monkeypatch,
                                                    capsys):
        # 10 scenes, then 5 into the same --out: the first run's train
        # scene_004 to scene_007 and val scene_008, scene_009 stay on disk,
        # and scene_004 is the second run's val scene
        out = tmp_path / "o"
        for n in (10, 5):
            cfg = tmp_path / f"n{n}.cfg"
            cfg.write_text(TINY_CFG.replace("scene.n_scenes = 5",
                                            f"scene.n_scenes = {n}"))
            assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        seen, inner = [], trainer.train_teacher

        def spy(cfg, data):
            seen.append(data)
            return inner(cfg, data)

        monkeypatch.setattr(trainer, "train_teacher", spy)
        assert main(["train-teacher", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        data, = seen
        assert (len(data.train), len(data.val)) == (4, 1)
        train = {c.positions.tobytes() for c in data.train}
        assert not any(c.positions.tobytes() in train for c in data.val)

    # a listed file deleted (None) or overwritten with the given text
    @pytest.mark.parametrize("name, text", [
        ("manifest.json", None), ("val/scene_004.pcbin", None),
        ("manifest.json", "{"), ("manifest.json", "[]"),
        ("manifest.json", '{"n_train": 4}'),
        ("manifest.json", '{"n_train": "4", "n_val": 1}')])
    def test_bad_listed_file_is_data_error(self, workdir, tmp_path, capsys, name,
                                           text):
        out = tmp_path / "o"
        assert main(["generate", "--config", str(workdir / "tiny.cfg"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        path = out / "dataset" / name
        if text is None:
            path.unlink()
        else:
            path.write_text(text)
        assert main(["train-teacher", "--config", str(workdir / "tiny.cfg"),
                     "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "DataError" and str(path) in err["message"]


CLI_FUNCTIONS = {node.name: node
                 for node in ast.parse(Path(cli.__file__).read_text()).body
                 if isinstance(node, ast.FunctionDef)}


def args_read(name: str, seen: set[str]) -> set[str]:
    """The `args.<name>` attributes that the cli function `name` reads, and
    those read by every cli function it passes `args` to."""
    if name in seen:
        return set()
    seen.add(name)
    reads = set()
    for node in ast.walk(CLI_FUNCTIONS[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "args":
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in CLI_FUNCTIONS \
                and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args):
            reads |= args_read(node.func.id, seen)
    return reads


class TestOptionSurface:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_every_option_is_read(self, command):
        # `main` reads --config (and the subcommand name) for every command
        handler = f"cmd_{command.replace('-', '_')}"
        reads = args_read(handler, set()) | (args_read("main", set()) - {"command"})
        assert offered(command) == reads

    def test_option_count(self):
        # --config on all ten, --seed on seven and --out on nine
        assert sum(len(offered(c)) for c in cli._COMMANDS) == 26


class TestGradcheck:
    def test_report_all_terms_pass(self):
        report = gradcheck_report(seed=0)
        assert set(report) == set(LOSS_NAMES) | {"l_total"}
        for name, err in report.items():
            assert err < GRADCHECK_TOL, name

    def test_command_exit_codes(self, workdir, capsys):
        assert run(workdir, "gradcheck") == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["pass"] is True

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("loss.t_gd = nan\n")
        assert main(["gradcheck", "--config", str(cfg)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"

    def test_configured_weights_checked(self, tmp_path, capsys):
        cfg = tmp_path / "no_c.cfg"
        cfg.write_text("loss.lambda_c = 0\n")
        assert main(["gradcheck", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["pass"] is True
        assert set(payload["errors"]) == set(LOSS_NAMES) - {"l_amra_c"} | {"l_total"}

    def test_float32_walk_checked_in_float64(self, monkeypatch):
        # training walks batch-GD in float32 (test_trainer.py,
        # test_training_walks_in_float32); central differences cannot
        # resolve that loss, so the check walks in float64
        dtypes, inner = [], losses.loss_batch_gd

        def spy(*args, **kwargs):
            dtypes.append(kwargs["dtype"])
            return inner(*args, **kwargs)

        monkeypatch.setattr(losses, "loss_batch_gd", spy)
        got = cli.gradcheck_report(0, LossWeights())
        assert dtypes and set(dtypes) == {"float64"}
        assert all(err < GRADCHECK_TOL for err in got.values())

    def test_corrupted_gradients_fail(self, workdir, capsys, monkeypatch):
        exact = cli.finite_diff_gradient
        monkeypatch.setattr(cli, "finite_diff_gradient",
                            lambda f, theta, h: exact(f, theta, h) + 1e-2)
        assert run(workdir, "gradcheck") == 1
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["pass"] is False


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # the child finds the package where this process imported it from
        src = str(Path(srkd.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "srkd.cli", "train",
             "--out", str(tmp_path / "empty")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "DataError"


# Each writer with a first payload and a second one that fails partway,
# after part of it has been written.
ARTIFACT_WRITERS = {
    "ckpt": (lambda path, state: save_checkpoint(state, path), {"a": np.ones(3)},
             {"a": np.zeros(3), "b": np.array(["not a number"])}),
    "csv": (lambda path, rows: _write_csv(path, rows, "h"), [{"x": 1}],
            [{"x": 2}, {"y": 3}]),
    "jsonl": (_write_jsonl, [{"x": 1}], [{"x": 2}, {"y": object()}]),
    "json": (_write_json, {"x": 1}, {"x": 2, "y": object()}),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("kind", sorted(ARTIFACT_WRITERS))
    def test_failed_write_keeps_previous_file(self, tmp_path, kind):
        write, first, failing = ARTIFACT_WRITERS[kind]
        path = tmp_path / f"artifact.{kind}"
        write(path, first)
        before = path.read_bytes()
        with pytest.raises((TypeError, ValueError)):
            write(path, failing)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_interrupt_keeps_previous_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("old\n")
        with pytest.raises(KeyboardInterrupt):
            with atomic_open(path) as f:
                f.write("new, half")
                raise KeyboardInterrupt
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


# Artifacts `srkd eval` reads, relative to its --out directory.
FUZZ_TARGETS = {"pcbin": "dataset/val/scene_004.pcbin", "ckpt": "student.ckpt",
                "config": "tiny.cfg"}


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "tiny.cfg").write_text(TINY_CFG)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--config", str(root / "tiny.cfg"),
                     "--out", str(root)]) == 0
    save_checkpoint(make_teacher(2, 8, d_out=12, k=8, seed=0).state_dict(),
                    root / "student.ckpt")
    return root


class TestArtifactFuzz:
    @pytest.mark.parametrize("kind", sorted(FUZZ_TARGETS))
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_mutated_artifact_loads_or_exits_2(self, fuzz_root, kind, data):
        """A truncated or bit-flipped artifact either loads or fails through
        the CLI contract: exit 2, one JSON line on stderr, no traceback."""
        path = fuzz_root / FUZZ_TARGETS[kind]
        raw = path.read_bytes()
        if data.draw(st.booleans(), label="truncate"):
            mutated = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
            mutated = bytearray(raw)
            mutated[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(mutated))
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["eval", "--config", str(fuzz_root / "tiny.cfg"),
                             "--out", str(fuzz_root)])
        finally:
            path.write_bytes(raw)
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert set(json.loads(lines[0])) == {"error", "message"}
        else:
            metrics = json.loads((fuzz_root / "metrics.json").read_text())
            n_classes = load_config(fuzz_root / "tiny.cfg")["scene.n_classes"]
            assert len(metrics["per_class_iou"]) == n_classes

    def test_val_class_count_flip_exits_2(self, fuzz_root, capsys):
        """Bit 7 of the C field (header bytes 12-15) turns 8 classes into
        136: the val scene then disagrees with the train scenes."""
        path = fuzz_root / FUZZ_TARGETS["pcbin"]
        raw = path.read_bytes()
        mutated = bytearray(raw)
        mutated[12] ^= 1 << 7
        path.write_bytes(bytes(mutated))
        try:
            code = main(["eval", "--config", str(fuzz_root / "tiny.cfg"),
                         "--out", str(fuzz_root)])
        finally:
            path.write_bytes(raw)
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DataError"


class TestModelDatasetMismatch:
    @pytest.mark.parametrize("command,ckpt", [("eval", "student"),
                                              ("noise", "student"),
                                              ("train", "teacher")])
    @pytest.mark.parametrize("d_in,n_classes", [(2, 5), (3, 8)])
    def test_exits_2(self, fuzz_root, tmp_path, capsys, command, ckpt, d_in,
                     n_classes):
        shutil.copytree(fuzz_root / "dataset", tmp_path / "dataset")
        save_checkpoint(make_teacher(d_in, n_classes, d_out=12, k=8, seed=0).state_dict(),
                        tmp_path / f"{ckpt}.ckpt")
        assert main([command, "--config", str(fuzz_root / "tiny.cfg"),
                     "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DataError"

    def test_knn_count_differs_from_teacher(self, fuzz_root, tmp_path, capsys):
        # a student inherits the teacher's k, which the config must match
        shutil.copytree(fuzz_root / "dataset", tmp_path / "dataset")
        save_checkpoint(make_teacher(2, 8, d_out=12, k=8, seed=0).state_dict(),
                        tmp_path / "teacher.ckpt")
        assert main(["train", "--config", str(fuzz_root / "tiny.cfg"),
                     "--out", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert "train.knn_k = 4" in err["message"] and "count 8" in err["message"]
        assert not (tmp_path / "student.ckpt").exists()
