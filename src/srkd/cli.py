"""Command-line entry point.

Subcommands: generate, train-teacher, train, eval, ablate, noise,
subsample, batch-sweep, dim-sweep, gradcheck. Every command reads an
optional flat key-value config (--config), a seed (--seed), and writes its
artifacts under --out. Dataset files live in <out>/dataset; training
commands read them from there and fail with explicit errors when a
prerequisite artifact (dataset, teacher checkpoint) is missing. Errors are
reported as one-line JSON on stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import losses, trainer
from .autodiff import Tensor, concat_rows, finite_diff_gradient
from .cloud import (IGNORE_LABEL, atomic_open, generate_scene, read_cloud,
                    resample_fixed, write_cloud)
from .errors import ConfigError, DataError, SRKDError
from .losses import LOSS_NAMES
from .models import (SegModel, load_checkpoint, make_student_from_teacher,
                     make_teacher, save_checkpoint)
from .trainer import Dataset, grid_for_clouds
from .voxelize import (SamplerConfig, batch_label_histogram, build_supervoxels,
                       sample_supervoxels)

GRADCHECK_TOL = 1e-4


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(cfg: dict, out: Path, seed: int) -> str:
    h = cfgmod.config_hash(cfg)
    (out / "config.txt").write_text(
        f"# effective config, hash {h}, seed {seed}\n" + cfgmod.render_config(cfg))
    return h


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


def _split_counts(cfg: dict) -> tuple[int, int]:
    n = cfg["scene.n_scenes"]
    n_train = int(round(n * cfg["train.train_fraction"]))
    if n_train == 0 or n_train == n:
        raise ConfigError("train_fraction leaves an empty split")
    return n_train, n - n_train


def _load_dataset(out: Path, cfg: dict) -> Dataset:
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
    model = SegModel.from_state(load_checkpoint(path), trainable=False)
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
    n_train, n_val = _split_counts(cfg)
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
    (out / "dataset" / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(json.dumps(manifest, sort_keys=True))
    return 0


def cmd_train_teacher(args, cfg: dict) -> int:
    out = _out_dir(args)
    _echo_config(cfg, out, args.seed)
    data = _load_dataset(out, cfg)
    tcfg = cfgmod.train_config(cfg, args.seed)
    teacher, log = trainer.train_teacher(tcfg, data)
    save_checkpoint(teacher.state_dict(), out / "teacher.ckpt")
    _write_jsonl(out / "teacher_log.jsonl", log)
    m = trainer.evaluate(teacher, data.val, tcfg.n_fixed)
    print(json.dumps({"teacher_val_miou": m.miou}, sort_keys=True))
    return 0


def cmd_train(args, cfg: dict) -> int:
    out = _out_dir(args)
    _echo_config(cfg, out, args.seed)
    data = _load_dataset(out, cfg)
    teacher = _load_model(out, data, "teacher", "train-teacher")
    tcfg = cfgmod.train_config(cfg, args.seed)
    student, log = trainer.train_distill(tcfg, teacher, data)
    save_checkpoint(student.state_dict(), out / "student.ckpt")
    _write_jsonl(out / "train_log.jsonl", log)
    m = trainer.evaluate(student, data.val, tcfg.n_fixed)
    print(json.dumps({"student_val_miou": m.miou}, sort_keys=True))
    return 0


def cmd_eval(args, cfg: dict) -> int:
    out = _out_dir(args)
    data = _load_dataset(out, cfg)
    model = _load_model(out, data, "student", "train")
    m = trainer.evaluate(model, data.val, cfg["train.n_fixed"])
    result = m.as_row()
    result["per_class_iou"] = [None if np.isnan(v) else v for v in m.iou]
    (out / "metrics.json").write_text(json.dumps(result, sort_keys=True,
                                                 indent=2) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_ablate(args, cfg: dict) -> int:
    out = _out_dir(args)
    h = _echo_config(cfg, out, args.seed)
    data = _load_dataset(out, cfg)
    teacher = _load_model(out, data, "teacher", "train-teacher")
    tcfg = cfgmod.train_config(cfg, args.seed)
    rows = trainer.ablate(tcfg, teacher, data, seeds=cfg["sweep.seeds"],
                          jobs=args.jobs)
    _write_csv(out / "ablation.csv", rows, h)
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
    data = _load_dataset(out, cfg)
    model = _load_model(out, data, "student", "train")
    rows = trainer.noise_sweep(model, data.val, ncfg, cfg["train.n_fixed"])
    _write_csv(out / "noise.csv", rows, h)
    print(json.dumps(rows))
    return 0


def cmd_subsample(args, cfg: dict) -> int:
    out = _out_dir(args)
    h = _echo_config(cfg, out, args.seed)
    data = _load_dataset(out, cfg)
    teacher = _load_model(out, data, "teacher", "train-teacher")
    tcfg = cfgmod.train_config(cfg, args.seed)
    rows = trainer.subsample_sweep(tcfg, teacher, data,
                                   fractions=cfg["sweep.fractions"],
                                   seeds=cfg["sweep.seeds"][:3], jobs=args.jobs)
    _write_csv(out / "subsample.csv", rows, h)
    print(json.dumps(rows))
    return 0


def cmd_batch_sweep(args, cfg: dict) -> int:
    out = _out_dir(args)
    h = _echo_config(cfg, out, args.seed)
    data = _load_dataset(out, cfg)
    teacher = _load_model(out, data, "teacher", "train-teacher")
    tcfg = cfgmod.train_config(cfg, args.seed)
    rows = trainer.batch_sensitivity(tcfg, teacher, data,
                                     batch_sizes=cfg["sweep.batch_sizes"],
                                     jobs=args.jobs)
    _write_csv(out / "batch_sweep.csv", rows, h)
    print(json.dumps(rows))
    return 0


def cmd_dim_sweep(args, cfg: dict) -> int:
    out = _out_dir(args)
    h = _echo_config(cfg, out, args.seed)
    data = _load_dataset(out, cfg)
    tcfg = cfgmod.train_config(cfg, args.seed)
    rows = trainer.dim_sensitivity(tcfg, data, dims=cfg["sweep.dims"])
    _write_csv(out / "dim_sweep.csv", rows, h)
    print(json.dumps(rows))
    return 0


# ---------------------------------------------------------------------------
# Gradient check
# ---------------------------------------------------------------------------

def _gradcheck_builders(seed: int):
    """Loss builders over a tiny B=2, N=16, D=8, C=4 batch.

    Returns (student, {loss_name: () -> Tensor}); each call runs a fresh
    forward pass so finite differencing sees parameter edits.
    """
    from .cloud import SceneSpec

    spec = SceneSpec(n_classes=4, points_per_scene=48, n_scenes=2, seed=seed)
    clouds = [generate_scene(spec, i) for i in range(2)]
    samples = [resample_fixed(c, 16, seed + 101 + i) for i, c in enumerate(clouds)]
    teacher = make_teacher(spec.d_in, spec.n_classes, d_out=8, k=4, seed=seed + 7)
    teacher.freeze()
    student = make_student_from_teacher(teacher, seed=seed + 9)
    # Coarse grid: with only 16 points per sample, fine cells would hold
    # single points and the affinity terms would degenerate to zero.
    import math

    from .voxelize import CylGrid
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
    t_feats, t_logits = [], []
    for s in samples:
        _, f_norm, logits = teacher.forward(s)
        t_feats.append(f_norm.data.copy())
        t_logits.append(logits.data.copy())
    t_logits_cat = np.concatenate(t_logits, axis=0)
    labels = np.concatenate([s.cloud.labels for s in samples])
    mask = np.concatenate([s.mask for s in samples])
    masks = [s.mask for s in samples]
    w = losses.LossWeights()

    def forward():
        outs = [student.forward(s) for s in samples]
        return [o[1] for o in outs], concat_rows([o[2] for o in outs])

    def views(feats, proj: bool):
        vs, vt = [], []
        for f_s, f_t, svs in zip(feats, t_feats, chosen):
            src = student.projection.forward(f_s) if proj else f_s
            f_t_t = Tensor(f_t)
            for sv in svs:
                vs.append(losses.supervoxel_features(src, sv))
                vt.append(losses.supervoxel_features(f_t_t, sv))
        return vs, vt

    def build(name: str) -> Tensor:
        feats, logits = forward()
        if name == "l_task":
            return losses.loss_task(logits, labels, mask)
        if name == "l_kd":
            return losses.loss_kd(logits, t_logits_cat, w.t_logit, mask)
        if name == "l_amra_p":
            return losses.loss_amra_point(*views(feats, proj=False))
        if name == "l_amra_v":
            return losses.loss_amra_voxel(*views(feats, proj=False))
        if name == "l_amra_c":
            return losses.loss_amra_channel(*views(feats, proj=True))
        if name == "l_batch_gd":
            return losses.loss_batch_gd(feats, t_feats, w.t_gd, masks)
        if name == "l_total":
            comps = {n: build(n) for n in LOSS_NAMES}
            return losses.weighted_total(comps, w)
        raise ConfigError(f"unknown loss {name!r}")

    return student, build


def gradcheck_report(seed: int, names=LOSS_NAMES + ("l_total",),
                     h: float = 1e-5, corrupt: bool = False) -> dict[str, float]:
    """Max relative analytic-vs-finite-difference error per loss term."""
    student, build = _gradcheck_builders(seed)
    params = student.named_params()
    report = {}
    for name in names:
        student.zero_grads()
        loss = build(name)
        loss.backward()
        worst = 0.0
        for pname, p in params.items():
            analytic = np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            if corrupt:
                analytic += 1e-2

            def f(theta, _p=p, _name=name):
                _p.data[...] = theta
                return build(_name).item()

            orig = p.data.copy()
            fd = finite_diff_gradient(f, orig.copy(), h)
            p.data[...] = orig
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1.0)
            worst = max(worst, float(np.max(np.abs(analytic - fd) / denom)))
        report[name] = worst
    return report


def cmd_gradcheck(args, cfg: dict) -> int:
    cfgmod.train_config(cfg, args.seed)  # reject an invalid config up front
    corrupt = os.environ.get("SRKD_GRADCHECK_CORRUPT") == "1"
    report = gradcheck_report(args.seed, corrupt=corrupt)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="srkd",
                                     description="SRKD distillation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="runs/default", help="artifact directory")
        p.add_argument("--jobs", type=int, default=1,
                       help="process parallelism for sweeps")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = cfgmod.load_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    except SRKDError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
