"""Command-line entry point.

Subcommands: generate, train-teacher, train, eval, ablate, noise,
subsample, batch-sweep, dim-sweep, gradcheck. Every command reads an
optional flat key-value config (--config), a seed (--seed), and writes its
artifacts under --out. Dataset files live in <out>/dataset; training
commands read them from there and fail with explicit errors when a
prerequisite artifact (dataset, teacher checkpoint) is missing. Errors,
usage and file-system errors included, are reported as one-line JSON on
stderr with exit status 2, and every artifact is written atomically. The
sweeps ablate, subsample and batch-sweep run their trainings on as many
worker processes as OpenBLAS has threads, capped at the usable cores and
the number of runs (`trainer._run_tasks`).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import losses, trainer
from .autodiff import Tensor, finite_diff_gradient
from .cloud import (IGNORE_LABEL, SceneSpec, atomic_open, generate_scene,
                    read_cloud, resample_fixed, write_cloud)
from .errors import ConfigError, DataError, SRKDError
from .losses import LossWeights
from .models import (SegModel, knn_indices, load_checkpoint,
                     make_student_from_teacher, make_teacher, save_checkpoint)
from .trainer import Dataset
from .voxelize import (CylGrid, SamplerConfig, batch_label_histogram,
                       build_supervoxels, sample_supervoxels)

GRADCHECK_TOL = 1e-4
GRADCHECK_H = 1e-5      # central-difference step


def _out_dir(args) -> Path:
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"--out {out} exists and is not a directory")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(cfg: dict, out: Path, seed: int) -> str:
    h = cfgmod.config_hash(cfg)
    with atomic_open(out / "config.txt") as f:
        f.write(f"# effective config, hash {h}, seed {seed}\n" + cfgmod.render_config(cfg))
    return h


def _write_json(path: Path, obj: dict) -> None:
    with atomic_open(path) as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def _write_csv(path: Path, rows: list[dict], cfg_hash: str) -> None:
    with atomic_open(path, "w", newline="") as f:
        f.write(f"# config_hash={cfg_hash}\n")
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with atomic_open(path) as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def _load_dataset(out: Path) -> Dataset:
    droot = out / "dataset"
    if not droot.is_dir():
        raise DataError(f"no dataset at {droot}; run 'srkd generate' first")
    train = [read_cloud(p) for p in sorted((droot / "train").glob("*.pcbin"))]
    val = [read_cloud(p) for p in sorted((droot / "val").glob("*.pcbin"))]
    return Dataset(tuple(train), tuple(val))


def _load_model(out: Path, data: Dataset, name: str, command: str) -> SegModel:
    """Load <out>/<name>.ckpt frozen, checked against the dataset's classes
    and input width (the encoder reads 3 position columns plus d_in)."""
    path = out / f"{name}.ckpt"
    if not path.is_file():
        raise DataError(f"no {name} checkpoint at {path}; run 'srkd {command}' first")
    model = SegModel.from_state(load_checkpoint(path)).freeze()
    got, want = (model.n_classes, model.widths[0] - 3), data.train[0]
    if got != (want.n_classes, want.d_in):
        raise DataError(f"{name} checkpoint has (n_classes, d_in) = {got}, the "
                        f"dataset {(want.n_classes, want.d_in)}")
    return model


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(args, cfg: dict) -> int:
    out = _out_dir(args)
    h = _echo_config(cfg, out, args.seed)
    spec = cfgmod.scene_spec(cfg, args.seed)
    n_train, n_val = cfgmod.split_counts(cfg)
    hist = np.zeros(spec.n_classes, dtype=np.int64)
    n_unlabeled = 0
    for split, count, base in (("train", n_train, 0), ("val", n_val, n_train)):
        d = out / "dataset" / split
        d.mkdir(parents=True, exist_ok=True)
        for i in range(count):
            cloud = generate_scene(spec, base + i)
            lab = cloud.labels[cloud.labels != IGNORE_LABEL]
            hist += np.bincount(lab, minlength=spec.n_classes)
            n_unlabeled += cloud.n_points - lab.size
            write_cloud(cloud, d / f"scene_{base + i:03d}.pcbin")
    manifest = {"seed": args.seed, "n_train": n_train, "n_val": n_val,
                "points_per_scene": spec.points_per_scene,
                "n_classes": spec.n_classes,
                "class_histogram": hist.tolist(), "unlabeled": n_unlabeled,
                "config_hash": h}
    _write_json(out / "dataset" / "manifest.json", manifest)
    print(json.dumps(manifest, sort_keys=True))
    return 0


def cmd_train_teacher(args, cfg: dict) -> int:
    out = _out_dir(args)
    _echo_config(cfg, out, args.seed)
    data = _load_dataset(out)
    tcfg = cfgmod.train_config(cfg, args.seed)
    teacher, log = trainer.train_teacher(tcfg, data)
    save_checkpoint(teacher.state_dict(), out / "teacher.ckpt")
    _write_jsonl(out / "teacher_log.jsonl", log)
    print(json.dumps({"teacher_val_miou": log[-1]["val_miou"]}, sort_keys=True))
    return 0


def cmd_train(args, cfg: dict) -> int:
    out = _out_dir(args)
    _echo_config(cfg, out, args.seed)
    data = _load_dataset(out)
    teacher = _load_model(out, data, "teacher", "train-teacher")
    tcfg = cfgmod.train_config(cfg, args.seed)
    student, log = trainer.train_distill(tcfg, teacher, data)
    save_checkpoint(student.state_dict(), out / "student.ckpt")
    _write_jsonl(out / "train_log.jsonl", log)
    print(json.dumps({"student_val_miou": log[-1]["val_miou"]}, sort_keys=True))
    return 0


def cmd_eval(args, cfg: dict) -> int:
    out = _out_dir(args)
    data = _load_dataset(out)
    model = _load_model(out, data, "student", "train")
    m = trainer.evaluate(model, data.val, cfg["train.n_fixed"])
    result = m.as_row()
    result["per_class_iou"] = [None if np.isnan(v) else v for v in m.iou]
    _write_json(out / "metrics.json", result)
    print(json.dumps(result, sort_keys=True))
    return 0


def _teacher_sweep(args, cfg: dict, csv_name: str, sweep, **kwargs) -> list[dict]:
    """Run a trainer sweep against the stored teacher and write its CSV."""
    out = _out_dir(args)
    h = _echo_config(cfg, out, args.seed)
    data = _load_dataset(out)
    teacher = _load_model(out, data, "teacher", "train-teacher")
    rows = sweep(cfgmod.train_config(cfg, args.seed), teacher, data, **kwargs)
    _write_csv(out / csv_name, rows, h)
    return rows


def cmd_ablate(args, cfg: dict) -> int:
    rows = _teacher_sweep(args, cfg, "ablation.csv", trainer.ablate,
                          seeds=cfg["sweep.seeds"])
    summary = {}
    for variant, _ in trainer.ABLATION_VARIANTS:
        vals = [r["miou"] for r in rows if r["variant"] == variant]
        summary[variant] = float(np.mean(vals))
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_noise(args, cfg: dict) -> int:
    ncfg = cfgmod.noise_config(cfg, args.seed)
    out = _out_dir(args)
    h = _echo_config(cfg, out, args.seed)
    data = _load_dataset(out)
    model = _load_model(out, data, "student", "train")
    rows = trainer.noise_sweep(model, data.val, ncfg, cfg["train.n_fixed"])
    _write_csv(out / "noise.csv", rows, h)
    print(json.dumps(rows))
    return 0


def cmd_subsample(args, cfg: dict) -> int:
    rows = _teacher_sweep(args, cfg, "subsample.csv", trainer.subsample_sweep,
                          fractions=cfg["sweep.fractions"],
                          seeds=cfg["sweep.seeds"])
    print(json.dumps(rows))
    return 0


def cmd_batch_sweep(args, cfg: dict) -> int:
    rows = _teacher_sweep(args, cfg, "batch_sweep.csv", trainer.batch_sensitivity,
                          batch_sizes=cfg["sweep.batch_sizes"])
    print(json.dumps(rows))
    return 0


def cmd_dim_sweep(args, cfg: dict) -> int:
    out = _out_dir(args)
    h = _echo_config(cfg, out, args.seed)
    data = _load_dataset(out)
    tcfg = cfgmod.train_config(cfg, args.seed)
    rows = trainer.dim_sensitivity(tcfg, data, dims=cfg["sweep.dims"])
    _write_csv(out / "dim_sweep.csv", rows, h)
    print(json.dumps(rows))
    return 0


# ---------------------------------------------------------------------------
# Gradient check
# ---------------------------------------------------------------------------

def _gradcheck_batch(seed: int, weights: LossWeights):
    """A tiny B=2, N=16, D=8, C=4 batch: (student, batch, chosen supervoxels)."""
    spec = SceneSpec(n_classes=4, points_per_scene=48, n_scenes=2, seed=seed)
    clouds = [generate_scene(spec, i) for i in range(2)]
    samples = [resample_fixed(c, 16, seed + 101 + i) for i, c in enumerate(clouds)]
    teacher = make_teacher(spec.d_in, spec.n_classes, d_out=8, k=4,
                           seed=seed + 7).freeze()
    student = make_student_from_teacher(teacher, seed=seed + 9)
    # Coarse grid: with only 16 points per sample, fine cells would hold
    # single points and the affinity terms would degenerate to zero.
    zs = np.concatenate([c.positions[:, 2] for c in clouds])
    grid = CylGrid(radial_extent=spec.radial_extent,
                   height_extent=float(zs.max() - zs.min()) + 0.5,
                   h_min=float(zs.min()) - 0.25,
                   r_cell=spec.radial_extent / 2, a_cell=math.pi,
                   h_cell=float(zs.max() - zs.min()) + 0.5)
    sampler = SamplerConfig(k=2, n_point=8, n_voxel=4, sub_div=2)
    hist = batch_label_histogram(samples, spec.n_classes)
    chosen = []
    for i, s in enumerate(samples):
        cands = build_supervoxels(s, grid, sampler, hist, seed=seed + 21 + i)
        chosen.append(sample_supervoxels(cands, sampler.k, seed=seed + 31 + i))
    nbrs = [knn_indices(s.cloud.positions, s.mask, teacher.k) for s in samples]
    return student, trainer.make_batch(samples, nbrs, teacher, weights), chosen


def gradcheck_report(seed: int, weights: LossWeights = LossWeights()) -> dict[str, float]:
    """Max relative analytic-vs-finite-difference error of each term that
    `trainer.distill_objective` computes under `weights`, and of l_total.

    The batch-GD walk runs at `distill_objective`'s float64 default:
    central differences at GRADCHECK_H cannot resolve a float32 loss.
    """
    student, batch, chosen = _gradcheck_batch(seed, weights)

    def terms() -> dict:
        comps = trainer.distill_objective(student, batch, chosen, weights)
        comps["l_total"] = losses.weighted_total(comps, weights)
        return comps

    names = [n for n, v in terms().items() if isinstance(v, Tensor)]
    params = student.named_params()
    report = {}
    for name in names:
        student.zero_grads()
        terms()[name].backward()
        worst = 0.0
        for pname, p in params.items():
            analytic = np.zeros_like(p.data) if p.grad is None else p.grad.copy()

            def f(theta, _p=p, _name=name):
                _p.data[...] = theta
                return terms()[_name].item()

            orig = p.data.copy()
            fd = finite_diff_gradient(f, orig.copy(), GRADCHECK_H)
            p.data[...] = orig
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1.0)
            worst = max(worst, float(np.max(np.abs(analytic - fd) / denom)))
        report[name] = worst
    return report


def cmd_gradcheck(args, cfg: dict) -> int:
    report = gradcheck_report(args.seed, cfgmod.loss_weights(cfg))
    for name, err in report.items():
        print(f"{name}: max relative error {err:.3e}")
    ok = all(err < GRADCHECK_TOL for err in report.values())
    print(json.dumps({"pass": ok, "tolerance": GRADCHECK_TOL,
                      "errors": report}, sort_keys=True))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "generate": cmd_generate,
    "train-teacher": cmd_train_teacher,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "noise": cmd_noise,
    "subsample": cmd_subsample,
    "batch-sweep": cmd_batch_sweep,
    "dim-sweep": cmd_dim_sweep,
    "gradcheck": cmd_gradcheck,
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so it takes the CLI contract's
    path: one JSON line on stderr and exit status 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="srkd", description="SRKD distillation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="runs/default", help="artifact directory")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = cfgmod.load_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    except (SRKDError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
