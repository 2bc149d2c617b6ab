"""Distillation training loop, evaluation, and the experiment harnesses
(ablation, noise robustness, subsampling, batch-size and dimension sweeps).

Batch composition is fixed at the start of a run (a seeded shuffle of the
training scenes), which lets the frozen-teacher quantities -- per-scene
features and logits, per-batch supervoxel candidates -- be computed once
and reused across epochs. The training loop runs the batch-GD walk in
float32; every walk forms the teacher similarity log-partitions from its
own teacher blocks.

Per-scene work that records no tape -- the k-NN of a run's samples, the
frozen teacher's forward passes and `evaluate`'s passes -- runs through
`losses.map_in_order`: on as many threads as OpenBLAS uses (capped at
the usable cores; serial below 256 points per scene) with OpenBLAS pinned
to one thread, results taken in scene order, so every output is
bit-identical to the serial loop at one OpenBLAS thread.
`build_supervoxels` (a per-cell Python loop, slower on two threads than
on one) and the student's taped forward and backward passes stay serial.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import losses
from .autodiff import Tensor, concat_rows
from .cloud import FixedSample, PointCloud, derive_seed, resample_fixed
from .errors import ConfigError, DataError, ShapeError
from .losses import LAMBDAS, LossWeights, loss_total, weighted_total
from .metrics import Metrics, confusion_matrix, metrics_from_confusion
from .models import SegModel, knn_indices, make_student_from_teacher, make_teacher
from .optim import AdamW, OneCycleSchedule
from .voxelize import (CylGrid, SamplerConfig, batch_label_histogram,
                       build_supervoxels, sample_supervoxels)

EVAL_SEED = 90001
GRID_H_MARGIN = 0.25   # meters of grid above and below the clouds


@dataclass(frozen=True)
class Dataset:
    train: tuple[PointCloud, ...]
    val: tuple[PointCloud, ...]

    def __post_init__(self):
        object.__setattr__(self, "train", tuple(self.train))
        object.__setattr__(self, "val", tuple(self.val))
        if not self.train or not self.val:
            raise DataError("dataset needs nonempty train and val splits")
        shapes = {(c.n_classes, c.d_in) for c in self.train + self.val}
        if len(shapes) != 1:
            raise DataError("scenes disagree on (n_classes, d_in): "
                            f"{sorted(shapes)}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 8
    lr: float = 0.006
    weight_decay: float = 0.05
    warmup_frac: float = 0.3
    start_factor: float = 0.04
    final_factor: float = 1e-4
    seed: int = 0
    n_fixed: int = 1024
    knn_k: int = 8
    teacher_epochs: int = 150
    teacher_d_out: int = 128
    eval_every: int = 10
    train_fraction: float = 0.8
    weights: LossWeights = field(default_factory=LossWeights)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)

    def __post_init__(self):
        reals = (self.lr, self.weight_decay, self.warmup_frac, self.start_factor,
                 self.final_factor, self.train_fraction)
        if not all(np.isfinite(v) for v in reals):
            raise ConfigError("lr, weight_decay, warmup_frac, start_factor, "
                              "final_factor and train_fraction must be finite")
        if self.lr <= 0 or self.weight_decay < 0:
            raise ConfigError("lr must be positive and weight_decay nonnegative")
        if not 0.0 < self.warmup_frac < 1.0:
            raise ConfigError("warmup_frac must be in (0, 1)")
        if not (0.0 <= self.start_factor <= 1.0 and 0.0 <= self.final_factor <= 1.0):
            raise ConfigError("start_factor and final_factor must lie in [0, 1]")
        if min(self.epochs, self.batch_size, self.n_fixed, self.knn_k,
               self.teacher_epochs, self.eval_every) < 1 or self.teacher_d_out < 2:
            raise ConfigError("epochs, batch_size, n_fixed, knn_k, teacher_epochs and "
                              "eval_every must be >= 1, teacher_d_out >= 2")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must be in (0, 1)")


@dataclass(frozen=True)
class NoiseConfig:
    taus: tuple[float, ...] = (0.01, 0.05, 0.1, 0.5, 0.7, 1.0)
    trials: int = 10
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "taus", tuple(float(t) for t in self.taus))
        if any(not np.isfinite(t) or t < 0 for t in self.taus) or not self.taus:
            raise ConfigError("noise variances must be finite, nonnegative and nonempty")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")


def _child_seed(*parts: int) -> int:
    return int(derive_seed(*parts).integers(0, 2**63 - 1))


def grid_for_clouds(clouds) -> CylGrid:
    """The default partition, 4 rings x 8 sectors x 2 height slabs, of a
    cylinder that covers the given clouds with GRID_H_MARGIN above and
    below them."""
    r_max, z_min, z_max = 0.0, np.inf, -np.inf
    for c in clouds:
        r_max = max(r_max, float(np.hypot(c.positions[:, 0], c.positions[:, 1]).max()))
        z_min = min(z_min, float(c.positions[:, 2].min()))
        z_max = max(z_max, float(c.positions[:, 2].max()))
    r, h = r_max * 1.001 + 1e-9, (z_max - z_min) + 2 * GRID_H_MARGIN
    return CylGrid(r, h, z_min - GRID_H_MARGIN,
                   r_cell=r / 4.0, a_cell=np.pi / 4.0, h_cell=h / 2.0)


@dataclass(frozen=True)
class Batch:
    """One mini-batch and the frozen-teacher quantities its objective reads.

    Teacher fields are None unless a term with a positive weight reads them.
    """
    samples: list[FixedSample]
    nbrs: list[np.ndarray]                 # k-NN indices per sample
    labels: np.ndarray                     # concatenated over the batch
    mask: np.ndarray                       # concatenated
    teacher_feats: list[np.ndarray] | None
    teacher_logits: np.ndarray | None      # concatenated


def _amra_enabled(w: LossWeights) -> bool:
    return w.lambda_p > 0 or w.lambda_v > 0 or w.lambda_c > 0


def make_batch(samples: list[FixedSample], nbrs: list[np.ndarray],
               teacher: SegModel | None, weights: LossWeights) -> Batch:
    """Concatenate a mini-batch and run the frozen teacher on it once.

    The teacher is not called when every distillation weight is zero.
    """
    w = weights
    need_feats = _amra_enabled(w) or w.lambda_batch_gd > 0
    t_feats = t_logits = None
    if need_feats or w.lambda_kd > 0:
        if teacher is None:
            raise ConfigError("distillation weights need a teacher")
        outs = list(losses.map_in_order(lambda s_nbr: teacher.forward(*s_nbr),
                                        list(zip(samples, nbrs)),
                                        samples[0].n_fixed))
        if need_feats:
            t_feats = [f.data for f, _ in outs]
        if w.lambda_kd > 0:
            t_logits = np.concatenate([z.data for _, z in outs], axis=0)
    return Batch(samples, nbrs,
                 np.concatenate([s.cloud.labels for s in samples]),
                 np.concatenate([s.mask for s in samples]),
                 t_feats, t_logits)


def distill_objective(model: SegModel, batch: Batch, chosen: list[list] | None,
                      weights: LossWeights, *,
                      gd_dtype: str = "float64") -> dict[str, Tensor | float]:
    """The SRKD objective of one mini-batch, term by term (`LOSS_NAMES`).

    Runs the student forward pass. `l_task` is always a Tensor; a
    distillation term is a Tensor when its weight is positive and 0.0
    otherwise. `chosen` holds each sample's sampled supervoxels (None when
    no affinity term is enabled): one `losses.supervoxel_features` call
    each pools them from the teacher maps, from the student maps when
    `lambda_p` or `lambda_v` is positive, and from the projected student
    maps when `lambda_c` is; with none sampled the AMRA terms stay 0.0.
    chosen None while an affinity term has a weight raises ShapeError
    before the forward pass. Combine the terms with
    `losses.weighted_total`. gd_dtype is the batch-GD walk's working
    precision: the float64 reference by default, float32 in the training
    loop (`losses.loss_batch_gd`).

    Batch-GD is formed before the AMRA terms: its walk over the N x N block
    pairs peaks while it runs, and run first it peaks before the pooled
    supervoxel views, the channel projections and the AMRA results exist,
    not on top of them. The terms do not read each other, so the order
    changes no value, and the backward graph is the same.
    """
    w = weights
    if chosen is None and _amra_enabled(w):
        raise ShapeError("chosen must hold each sample's sampled supervoxels "
                         "when an affinity term has a positive weight, got None")
    outs = [model.forward(s, nbr) for s, nbr in zip(batch.samples, batch.nbrs)]
    feats = [o[0] for o in outs]
    logits = concat_rows([o[1] for o in outs])

    comps: dict[str, Tensor | float] = dict.fromkeys(losses.LOSS_NAMES, 0.0)
    comps["l_task"] = losses.loss_task(logits, batch.labels, batch.mask)
    if w.lambda_kd > 0:
        comps["l_kd"] = losses.loss_kd(logits, batch.teacher_logits,
                                       w.t_logit, batch.mask)
    if w.lambda_batch_gd > 0:
        comps["l_batch_gd"] = losses.loss_batch_gd(
            feats, batch.teacher_feats, w.t_gd,
            [s.mask for s in batch.samples], dtype=gd_dtype)
    if _amra_enabled(w) and any(chosen):
        # each student view only when a term that reads it has a weight
        views_s = losses.supervoxel_features(feats, chosen) \
            if w.lambda_p > 0 or w.lambda_v > 0 else None
        views_t = losses.supervoxel_features(batch.teacher_feats, chosen)
        if w.lambda_p > 0:
            comps["l_amra_p"] = losses.loss_amra_point(views_s, views_t)
        if w.lambda_v > 0:
            comps["l_amra_v"] = losses.loss_amra_voxel(views_s, views_t)
        if w.lambda_c > 0:  # the projected maps are freed once pooled
            comps["l_amra_c"] = losses.loss_amra_channel(losses.supervoxel_features(
                [model.project(f) for f in feats], chosen), views_t)
    return comps


def _train_loop(model: SegModel, teacher: SegModel | None, cfg: TrainConfig,
                data: Dataset) -> list[dict]:
    """Train `model` on data.train under `cfg.weights` for `cfg.epochs`,
    evaluating on data.val; returns the log."""
    w = cfg.weights
    samples = [resample_fixed(c, cfg.n_fixed, _child_seed(cfg.seed, 11, i))
               for i, c in enumerate(data.train)]
    nbrs = list(losses.map_in_order(
        lambda s: knn_indices(s.cloud.positions, s.mask, model.k),
        samples, cfg.n_fixed))
    # Disjoint chunks of one permutation: each batch is prepared once.
    order = derive_seed(cfg.seed, 13).permutation(len(samples))
    chunks = [order[i:i + cfg.batch_size]
              for i in range(0, len(order), cfg.batch_size)]
    batches = [make_batch([samples[i] for i in idx], [nbrs[i] for i in idx],
                          teacher, w) for idx in chunks]
    candidates = None           # supervoxel candidates per batch and sample
    if _amra_enabled(w):
        grid = grid_for_clouds(data.train)
        candidates = []
        for idx, batch in zip(chunks, batches):
            hist = batch_label_histogram(batch.samples, model.n_classes)
            candidates.append([
                build_supervoxels(s, grid, cfg.sampler, hist,
                                  seed=_child_seed(cfg.seed, 17, int(i)))
                for i, s in zip(idx, batch.samples)])

    total_steps = cfg.epochs * len(batches)
    sched = OneCycleSchedule(cfg.lr, total_steps, cfg.warmup_frac,
                             cfg.start_factor, cfg.final_factor)
    opt = AdamW(model.params, cfg.weight_decay)
    log: list[dict] = []
    gstep = 0
    for epoch in range(cfg.epochs):
        for bi, batch in enumerate(batches):
            lr = sched.lr(gstep)
            chosen = None if candidates is None else [
                sample_supervoxels(cand, cfg.sampler.k,
                                   seed=_child_seed(cfg.seed, 19, epoch, bi, si))
                for si, cand in enumerate(candidates[bi])]
            comps = distill_objective(model, batch, chosen, w, gd_dtype="float32")
            report = loss_total(comps, w)  # raises naming any non-finite term
            total = weighted_total(comps, w)
            model.zero_grads()
            total.backward()
            # Free this step's tape now: while `comps` or `total` is bound,
            # the whole graph stays alive through the next step's forward.
            del comps, total
            opt.step(lr)
            log.append({"epoch": epoch, "step": gstep, **report, "lr": lr})
            gstep += 1
        if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
            m = evaluate(model, data.val, cfg.n_fixed)
            log.append({"epoch": epoch, "val_miou": m.miou,
                        "val_macc": m.macc, "val_allacc": m.allacc})
    return log


def train_teacher(cfg: TrainConfig, data: Dataset) -> tuple[SegModel, list[dict]]:
    """Train the full-width teacher with the task loss alone, then freeze it."""
    d_in = data.train[0].d_in
    teacher = make_teacher(d_in, data.train[0].n_classes, cfg.teacher_d_out,
                           cfg.knn_k, seed=_child_seed(cfg.seed, 2))
    t_cfg = replace(cfg, epochs=cfg.teacher_epochs, weights=LossWeights.zeros())
    log = _train_loop(teacher, None, t_cfg, data)
    return teacher.freeze(), log


def train_distill(cfg: TrainConfig, teacher: SegModel,
                  data: Dataset) -> tuple[SegModel, list[dict]]:
    """Distill a half-width student from a frozen teacher (the full loop).

    All feature-level distillation terms consume the L2-normalized feature
    map, the same representation the segmentation head reads. The terms
    are weighted by `cfg.weights` as given; nothing rescales one against
    another. The student inherits the teacher's k-NN count. Raises
    ConfigError unless the teacher is frozen and cfg.knn_k is its k.
    """
    if not teacher.frozen:
        raise ConfigError("teacher must be frozen before distillation")
    if cfg.knn_k != teacher.k:
        raise ConfigError(f"train.knn_k = {cfg.knn_k} differs from the "
                          f"teacher's k-NN count {teacher.k}")
    student = make_student_from_teacher(teacher, seed=_child_seed(cfg.seed, 3))
    return student, _train_loop(student, teacher, cfg, data)


def evaluate(model: SegModel, clouds, n_fixed: int,
             noise_tau: float = 0.0, noise_seed: int = 0) -> Metrics:
    """Confusion-matrix metrics over all valid points of a cloud list.

    With noise_tau > 0, seeded Gaussian noise of variance tau is added to
    the L2-normalized feature map before the segmentation head. The scenes
    run through `losses.map_in_order`; the noise is drawn on the calling
    thread in scene order, so the metrics do not depend on the threads.
    Raises ConfigError for a negative or non-finite noise_tau.
    """
    if not clouds:
        raise DataError("evaluate needs at least one cloud")
    if not np.isfinite(noise_tau) or noise_tau < 0:
        raise ConfigError(f"noise variance must be finite and nonnegative, "
                          f"got {noise_tau}")
    model = _frozen(model)
    n_classes = clouds[0].n_classes
    rng = derive_seed(noise_seed, 29) if noise_tau > 0 else None

    def scenes():
        for i, cloud in enumerate(clouds):
            noise = None if rng is None else rng.normal(
                0.0, np.sqrt(noise_tau), (n_fixed, model.d_out))
            yield i, cloud, noise

    def scene_confusion(item):
        i, cloud, noise = item
        sample = resample_fixed(cloud, n_fixed, _child_seed(EVAL_SEED, i))
        nbr = knn_indices(sample.cloud.positions, sample.mask, model.k)
        preds = model.forward(sample, nbr, feature_noise=noise)[1].data.argmax(axis=1)
        return confusion_matrix(sample.cloud.labels, preds, n_classes, sample.mask)

    conf = np.zeros((n_classes, n_classes), dtype=np.int64)
    for c in losses.map_in_order(scene_confusion, scenes(), n_fixed):
        conf += c
    return metrics_from_confusion(conf)


def _frozen(model: SegModel) -> SegModel:
    """The model itself if it is frozen, else a frozen copy: its forward
    pass records no autodiff tape."""
    return model if model.frozen else SegModel.from_state(model.state_dict()).freeze()


def noise_sweep(model: SegModel, clouds, cfg: NoiseConfig,
                n_fixed: int) -> list[dict]:
    """Mean mIoU per noise variance, averaged over seeded trials."""
    rows = []
    for ti, tau in enumerate(cfg.taus):
        mious = []
        for trial in range(cfg.trials if tau > 0 else 1):
            m = evaluate(model, clouds, n_fixed, noise_tau=tau,
                         noise_seed=_child_seed(cfg.seed, 31, ti, trial))
            mious.append(m.miou)
        rows.append({"tau": tau, "miou": float(np.mean(mious)),
                     "trials": len(mious)})
    return rows


# ---------------------------------------------------------------------------
# Experiment harnesses
# ---------------------------------------------------------------------------

_KD, _P, _V, _C, _GD = LAMBDAS
ABLATION_VARIANTS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("baseline", ()),
    ("+kd", (_KD,)),
    ("+kd+csmbgd", (_KD, _GD)),
    ("full", (_KD, _GD, _P, _V, _C)),
)


def variant_weights(full: LossWeights, enabled: tuple[str, ...]) -> LossWeights:
    """`full` with the lambdas not named in `enabled` set to zero."""
    return replace(full, **{name: 0.0 for name in LAMBDAS if name not in enabled})


def _final_metrics(log: list[dict]) -> dict:
    """`Metrics.as_row` of the evaluation `_train_loop` logs last, read back."""
    return {k: log[-1][f"val_{k}"] for k in ("miou", "macc", "allacc")}


def _distill_eval(cfg: TrainConfig, teacher_state: dict, data: Dataset,
                  tag: dict) -> dict:
    teacher = SegModel.from_state(teacher_state).freeze()
    return {**tag, **_final_metrics(train_distill(cfg, teacher, data)[1])}


def _one_blas_thread_worker():
    """Pool initializer: the worker's OpenBLAS runs on one thread, so its
    `map_in_order` passes are serial and P workers start P threads, not P
    times the cores."""
    blas = losses._blas_control()
    if blas is not None:
        blas[1](1)


def _run_tasks(tasks: list[tuple]) -> list[dict]:
    """Run `_distill_eval` over tasks in min(P, len(tasks)) forked worker
    processes on one OpenBLAS thread each, P = `losses._parallelism()`;
    with one worker, in process on the threaded walk."""
    workers = min(losses._parallelism(), len(tasks))
    if workers <= 1:
        return [_distill_eval(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers,
                             initializer=_one_blas_thread_worker) as pool:
        return list(pool.map(_distill_eval, *zip(*tasks)))


def ablate(cfg: TrainConfig, teacher: SegModel, data: Dataset,
           *, seeds: tuple[int, ...]) -> list[dict]:
    """Four variants (CE only, +logit KD, +batch GD, full) over paired seeds,
    run by `_run_tasks`."""
    state = teacher.state_dict()
    tasks = []
    for variant, enabled in ABLATION_VARIANTS:
        vw = variant_weights(cfg.weights, enabled)
        for seed in seeds:
            vcfg = replace(cfg, seed=seed, weights=vw)
            tasks.append((vcfg, state, data, {"variant": variant, "seed": seed}))
    return _run_tasks(tasks)


def subsample_sweep(cfg: TrainConfig, teacher: SegModel, data: Dataset,
                    *, fractions: tuple[float, ...],
                    seeds: tuple[int, ...]) -> list[dict]:
    """Retrain on seeded training subsets, run by `_run_tasks`; evaluate on
    the full val split."""
    state = teacher.state_dict()
    tasks = []
    for frac in fractions:
        if not 0.0 < frac <= 1.0:
            raise ConfigError("fractions must lie in (0, 1]")
        n = int(round(frac * len(data.train)))
        if n == 0:
            raise ConfigError(f"fraction {frac} yields zero training scenes")
        for seed in seeds:
            keep = derive_seed(seed, 37).choice(len(data.train), size=n,
                                                replace=False)
            sub = Dataset(tuple(data.train[int(i)] for i in np.sort(keep)), data.val)
            tasks.append((replace(cfg, seed=seed), state, sub,
                          {"fraction": frac, "seed": seed}))
    return _run_tasks(tasks)


def batch_sensitivity(cfg: TrainConfig, teacher: SegModel, data: Dataset,
                      *, batch_sizes: tuple[int, ...]) -> list[dict]:
    """One distillation run per batch size, run by `_run_tasks`."""
    state = teacher.state_dict()
    tasks = [(replace(cfg, batch_size=int(b)), state, data, {"batch_size": int(b)})
             for b in batch_sizes]
    return _run_tasks(tasks)


def dim_sensitivity(cfg: TrainConfig, data: Dataset, *,
                    dims: tuple[int, ...]) -> list[dict]:
    """Retrain teacher and student per feature dim, all checked up front."""
    if any(dim < 2 for dim in dims):
        raise ConfigError("feature dimensions must be >= 2")
    rows = []
    for dim in dims:
        dcfg = replace(cfg, teacher_d_out=int(dim))
        teacher, _ = train_teacher(dcfg, data)
        student, log = train_distill(dcfg, teacher, data)
        rows.append({"dim": int(dim), "student_dim": student.d_out,
                     **_final_metrics(log)})
    return rows
