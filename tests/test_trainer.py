import hashlib
import inspect
import json
import os
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from srkd import losses, trainer
from srkd.autodiff import Tensor, affine, concat_rows
from srkd.cloud import PointCloud, SceneSpec, generate_scene, resample_fixed
from srkd.errors import ConfigError, DataError, ShapeError
from srkd.losses import LOSS_NAMES, LossWeights, weighted_total
from srkd.models import (SegModel, knn_indices, make_student_from_teacher,
                         make_teacher, save_checkpoint)
from srkd.trainer import (ABLATION_VARIANTS, Dataset, NoiseConfig, TrainConfig,
                          ablate, batch_sensitivity, dim_sensitivity,
                          distill_objective, evaluate, grid_for_clouds,
                          make_batch, noise_sweep, subsample_sweep,
                          train_distill, train_teacher, variant_weights)
from srkd.voxelize import (SamplerConfig, batch_label_histogram,
                           build_supervoxels, sample_supervoxels)


def tiny_config(**kw):
    defaults = dict(epochs=2, batch_size=4, n_fixed=96, teacher_epochs=3,
                    teacher_d_out=12, eval_every=2, seed=0,
                    sampler=SamplerConfig(k=2, n_point=16, n_voxel=4))
    defaults.update(kw)
    return TrainConfig(**defaults)


def tiny_dataset(n_train=8, n_val=2, seed=0):
    spec = SceneSpec(n_scenes=n_train + n_val, points_per_scene=192, seed=seed)
    clouds = [generate_scene(spec, i) for i in range(n_train + n_val)]
    return Dataset(tuple(clouds[:n_train]), tuple(clouds[n_train:]))


@pytest.fixture(scope="module")
def setup():
    cfg = tiny_config()
    data = tiny_dataset()
    teacher, _ = train_teacher(cfg, data)
    return cfg, data, teacher


def state_hash(model):
    return hashlib.sha256(
        b"".join(v.tobytes() for k, v in sorted(model.state_dict().items()))
    ).hexdigest()


class TestTraining:
    def test_log_schema(self, setup):
        cfg, data, teacher = setup
        _, log = train_distill(cfg, teacher, data)
        steps = [r for r in log if "l_total" in r]
        assert steps, "no step records logged"
        want = {"epoch", "step", "lr", "l_total", *LOSS_NAMES}
        for rec in steps:
            assert set(rec) == want
        evals = [r for r in log if "val_miou" in r]
        assert evals

    def test_log_recombination_identity(self, setup):
        cfg, data, teacher = setup
        _, log = train_distill(cfg, teacher, data)
        w = cfg.weights
        for rec in log:
            if "l_total" not in rec:
                continue
            manual = (rec["l_task"] + w.lambda_kd * rec["l_kd"]
                      + w.lambda_p * rec["l_amra_p"]
                      + w.lambda_v * rec["l_amra_v"]
                      + w.lambda_c * rec["l_amra_c"]
                      + w.lambda_batch_gd * rec["l_batch_gd"])
            assert rec["l_total"] == pytest.approx(manual, rel=1e-12)

    def test_deterministic_checkpoints(self, setup):
        cfg, data, teacher = setup
        a, _ = train_distill(cfg, teacher, data)
        b, _ = train_distill(cfg, teacher, data)
        assert state_hash(a) == state_hash(b)

    def test_zero_lambdas_match_plain_ce_bitwise(self, setup):
        cfg, data, teacher = setup
        zeroed = replace(cfg, weights=LossWeights.zeros())
        a, log_a = train_distill(zeroed, teacher, data)
        b, log_b = train_distill(zeroed, teacher, data)
        assert state_hash(a) == state_hash(b)
        assert json.dumps(log_a) == json.dumps(log_b)
        for rec in log_a:
            if "l_kd" in rec:
                assert rec["l_kd"] == 0.0 and rec["l_amra_c"] == 0.0

    def test_teacher_untouched_by_distillation(self, setup):
        cfg, data, teacher = setup
        before = state_hash(teacher)
        train_distill(cfg, teacher, data)
        assert state_hash(teacher) == before

    def test_unfrozen_teacher_rejected(self, setup):
        cfg, data, _ = setup
        from srkd.models import make_teacher
        live = make_teacher(2, 8, d_out=12, k=8)
        with pytest.raises(ConfigError):
            train_distill(cfg, live, data)

    def test_task_loss_descends(self):
        # longer tiny run: mean task loss of the last epoch beats the first
        cfg = tiny_config(epochs=12, weights=LossWeights.zeros())
        data = tiny_dataset()
        teacher, log = train_teacher(replace(cfg, teacher_epochs=12), data)
        steps = [r for r in log if "l_total" in r]
        first = np.mean([r["l_task"] for r in steps if r["epoch"] == 0])
        last = np.mean([r["l_task"] for r in steps if r["epoch"] == 11])
        assert last < first


class TestTapeLifetime:
    """A step's autodiff tape is freed before the next step's forward."""

    @staticmethod
    def _step_heaps(monkeypatch, run):
        """Traced heap on entry to and return from each `distill_objective`."""
        heaps = []
        inner = trainer.distill_objective

        def wrapped(*args, **kwargs):
            entry = tracemalloc.get_traced_memory()[0]
            comps = inner(*args, **kwargs)
            heaps.append((entry, tracemalloc.get_traced_memory()[0]))
            return comps

        monkeypatch.setattr(trainer, "distill_objective", wrapped)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            run()
        finally:
            if started:
                tracemalloc.stop()
        return heaps

    @staticmethod
    def _assert_tape_freed(heaps):
        assert len(heaps) >= 3
        (entry1, return1), (entry2, _) = heaps[:2]
        tape = return1 - entry1
        assert tape > 0
        assert entry2 - entry1 < tape / 4, (entry1, return1, entry2)

    def test_distilled_student(self, setup, monkeypatch):
        cfg, data, teacher = setup
        cfg = replace(cfg, epochs=1, batch_size=2)   # four batches
        heaps = self._step_heaps(monkeypatch,
                                 lambda: train_distill(cfg, teacher, data))
        self._assert_tape_freed(heaps)

    def test_teacher(self, monkeypatch):
        cfg = tiny_config(teacher_epochs=1, batch_size=2)
        data = tiny_dataset()
        heaps = self._step_heaps(monkeypatch, lambda: train_teacher(cfg, data))
        self._assert_tape_freed(heaps)


def _oracle_objective(model, teacher, samples, nbrs, chosen, w, precision):
    """Reference: the training loop's batch preparation and step body from
    before `make_batch` and `distill_objective`, kept verbatim except that
    the supervoxel views are pooled by one stacked call per list of maps
    and the batch-GD walk runs at `precision`. At float64 the teacher
    log-partitions are precomputed by the independent oracle
    `losses.gd_teacher_log_z`; at float32 the walk forms them."""
    need_kd = teacher is not None and w.lambda_kd > 0
    need_amra = teacher is not None and (w.lambda_p > 0 or w.lambda_v > 0
                                         or w.lambda_c > 0)
    need_gd = teacher is not None and w.lambda_batch_gd > 0
    all_valid = [bool(s.mask.all()) for s in samples]
    outs = [teacher.forward(s, nbr) for s, nbr in zip(samples, nbrs)]
    t_feats = [o[0].data.copy() for o in outs]
    t_logits = np.concatenate([o[1].data.copy() for o in outs], axis=0)
    labels = np.concatenate([s.cloud.labels for s in samples])
    mask = np.concatenate([s.mask for s in samples])
    gd_masks = None if all(all_valid) else [s.mask for s in samples]
    t_log_z = losses.gd_teacher_log_z(t_feats, w.t_gd, gd_masks) \
        if precision == "float64" else None

    outs = [model.forward(s, nbr) for s, nbr in zip(samples, nbrs)]
    feats = [o[0] for o in outs]
    logits = concat_rows([o[1] for o in outs])

    comps = {name: 0.0 for name in losses.LOSS_NAMES}
    comps["l_task"] = losses.loss_task(logits, labels, mask)
    if need_kd:
        comps["l_kd"] = losses.loss_kd(logits, t_logits, w.t_logit, mask)
    if need_amra:
        projs = [affine(f_s, model.params["proj.w"], model.params["proj.b"])
                 if model.project_to is not None else f_s for f_s in feats]
        if any(chosen):
            views_s = losses.supervoxel_features(feats, chosen)
            views_t = losses.supervoxel_features(t_feats, chosen)
            views_sp = losses.supervoxel_features(projs, chosen)
            views_tc = views_t
            if w.lambda_p > 0:
                comps["l_amra_p"] = losses.loss_amra_point(views_s, views_t)
            if w.lambda_v > 0:
                comps["l_amra_v"] = losses.loss_amra_voxel(views_s, views_t)
            if w.lambda_c > 0:
                comps["l_amra_c"] = losses.loss_amra_channel(views_sp, views_tc)
    if need_gd:
        comps["l_batch_gd"] = losses.loss_batch_gd(
            feats, t_feats, w.t_gd, gd_masks, teacher_log_z=t_log_z,
            dtype=precision)
    return comps


def _objective_inputs(n_fixed):
    """Two samples of 192-point scenes (n_fixed > 192 pads them), their
    k-NN, sampled supervoxels, a frozen teacher and its student."""
    clouds = tiny_dataset(n_train=2, n_val=1).train
    samples = [resample_fixed(c, n_fixed, 5 + i) for i, c in enumerate(clouds)]
    nbrs = [knn_indices(s.cloud.positions, s.mask, 4) for s in samples]
    sampler = SamplerConfig(k=2, n_point=16, n_voxel=4)
    hist = batch_label_histogram(samples, clouds[0].n_classes)
    chosen = [sample_supervoxels(build_supervoxels(s, grid_for_clouds(clouds),
                                                   sampler, hist, seed=i),
                                 sampler.k, seed=9 + i)
              for i, s in enumerate(samples)]
    teacher = make_teacher(clouds[0].d_in, clouds[0].n_classes, d_out=12, k=4,
                           seed=1)
    teacher.freeze()
    student = make_student_from_teacher(teacher, seed=2)
    return samples, nbrs, chosen, teacher, student


def _grads(model, comps, w):
    model.zero_grads()
    weighted_total(comps, w).backward()
    return {k: p.grad.copy() for k, p in model.params.items()}


@pytest.mark.usefixtures("walk_workers")
class TestObjective:
    @pytest.mark.parametrize("n_fixed", [96, 256], ids=["all_valid", "padded"])
    def test_matches_loop_oracle_bitwise(self, n_fixed):
        samples, nbrs, chosen, teacher, student = _objective_inputs(n_fixed)
        w = LossWeights()
        for precision in losses.GD_PRECISIONS:
            batch = make_batch(samples, nbrs, teacher, w)
            got = distill_objective(student, batch, chosen, w, gd_dtype=precision)
            want = _oracle_objective(student, teacher, samples, nbrs, chosen, w,
                                     precision)
            assert {k: v.item() for k, v in got.items()} \
                == {k: v.item() for k, v in want.items()}, precision
            g_got, g_want = _grads(student, got, w), _grads(student, want, w)
            for name in g_want:
                assert np.array_equal(g_got[name], g_want[name]), (precision, name)

    @pytest.mark.parametrize("off", ["lambda_kd", "lambda_p", "lambda_v",
                                     "lambda_c", "lambda_batch_gd"])
    def test_zero_weight_term_is_zero(self, off):
        samples, nbrs, chosen, teacher, student = _objective_inputs(96)
        w = replace(LossWeights(), **{off: 0.0})
        comps = distill_objective(student, make_batch(samples, nbrs, teacher, w),
                                  chosen, w)
        term = {"lambda_kd": "l_kd", "lambda_p": "l_amra_p",
                "lambda_v": "l_amra_v", "lambda_c": "l_amra_c",
                "lambda_batch_gd": "l_batch_gd"}[off]
        assert type(comps[term]) is float and comps[term] == 0.0
        assert all(isinstance(v, Tensor) for k, v in comps.items() if k != term)

    def test_no_sampled_supervoxel_leaves_amra_terms_zero(self, monkeypatch):
        samples, nbrs, _, teacher, student = _objective_inputs(96)
        w = LossWeights()

        def pool(*args):
            raise AssertionError("pooled without a supervoxel")

        monkeypatch.setattr(losses, "supervoxel_features", pool)
        comps = distill_objective(student, make_batch(samples, nbrs, teacher, w),
                                  [[], []], w)
        assert all(type(comps[n]) is float and comps[n] == 0.0
                   for n in ("l_amra_p", "l_amra_v", "l_amra_c"))
        assert isinstance(comps["l_batch_gd"], Tensor)

    def test_teacher_not_called_when_every_weight_is_zero(self):
        samples, nbrs, _, _, student = _objective_inputs(96)

        class Unused:
            def forward(self, *args, **kwargs):
                raise AssertionError("teacher called")

        w = LossWeights.zeros()
        batch = make_batch(samples, nbrs, Unused(), w)
        assert batch.teacher_feats is batch.teacher_logits is None
        comps = distill_objective(student, batch, None, w)
        assert isinstance(comps["l_task"], Tensor)
        assert all(comps[n] == 0.0 for n in LOSS_NAMES[1:])
        with pytest.raises(ConfigError, match="teacher"):
            make_batch(samples, nbrs, None, LossWeights())


    @pytest.mark.parametrize("weight", ["lambda_p", "lambda_v", "lambda_c"])
    def test_chosen_none_with_an_affinity_weight_rejected(self, monkeypatch,
                                                          weight):
        samples, nbrs, _, teacher, student = _objective_inputs(96)
        w = replace(LossWeights(), **{k: 0.0 for k in ("lambda_p", "lambda_v",
                                                      "lambda_c") if k != weight})
        batch = make_batch(samples, nbrs, teacher, w)

        def forward(*args, **kwargs):
            raise AssertionError("the student ran")

        monkeypatch.setattr(student, "forward", forward)
        with pytest.raises(ShapeError, match="chosen"):
            distill_objective(student, batch, None, w)

    @pytest.mark.parametrize("off, pools, projections", [
        (("lambda_c",), 2, 0),                  # student and teacher views
        (("lambda_p", "lambda_v"), 2, 2),       # teacher and projected views
        ((), 3, 2),
    ], ids=["no_channel", "channel_only", "default"])
    def test_views_pooled_only_for_weighted_terms(self, monkeypatch, off,
                                                  pools, projections):
        samples, nbrs, chosen, teacher, student = _objective_inputs(96)
        w = replace(LossWeights(), **dict.fromkeys(off, 0.0))
        batch = make_batch(samples, nbrs, teacher, w)
        calls = {"pool": 0, "project": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(losses, "supervoxel_features",
                            counted("pool", losses.supervoxel_features))
        monkeypatch.setattr(student, "project", counted("project", student.project))
        comps = distill_objective(student, batch, chosen, w)
        assert calls == {"pool": pools, "project": projections}
        weighted_total(comps, w).backward()


class TestObjectiveThreaded(TestObjective):
    WALK_WORKERS = 2


@pytest.mark.usefixtures("walk_workers")
class TestObjectiveTape:
    def test_each_amra_term_is_one_op_over_the_views(self):
        samples, nbrs, chosen, teacher, student = _objective_inputs(256)
        w = LossWeights()
        comps = distill_objective(student, make_batch(samples, nbrs, teacher, w),
                                  chosen, w)
        n_views = sum(len(svs) for svs in chosen)
        pooling = {}
        for term, kinds in (("l_amra_p", 1), ("l_amra_v", 1), ("l_amra_c", 2)):
            edges = comps[term]._edges
            assert len(edges) == kinds == len(set(id(p) for p, _ in edges))
            for view, vjp in edges:  # one pooling op over every sample map
                # a node holds no data: each edge's gradient has its parent's shape
                g_view = vjp(np.float64(1.0))
                assert g_view.shape[0] in (16 * n_views, 4 * n_views)
                maps = view._edges
                assert len(maps) == len(samples) == len(set(id(m) for m, _ in maps))
                assert all(f(g_view).shape[0] == samples[0].n_fixed for _, f in maps)
                pooling[id(view)] = view
        # point and voxel rows of the student and of its projection; the
        # teacher's views carry no gradient and are not on the tape
        assert len(pooling) == 4

    def test_kd_is_one_op_over_the_student_logits(self):
        samples, nbrs, chosen, teacher, student = _objective_inputs(256)
        w = LossWeights()
        comps = distill_objective(student, make_batch(samples, nbrs, teacher, w),
                                  chosen, w)
        (logits, vjp), = comps["l_kd"]._edges
        # the batch's concatenated student logits, one head output per sample
        assert vjp(np.float64(1.0)).shape == \
            (len(samples) * samples[0].n_fixed, student.n_classes)
        assert len(logits._edges) == len(samples)

    def test_peak_traced_memory(self):
        # distill_objective plus backward on the padded batch peaked at
        # 2.70 MB traced with a chain of tape ops per supervoxel and view,
        # at 2.44 MB with one tape op per AMRA term, at 2.15 MB with one
        # tape op per encoder layer and batch-GD formed before AMRA, and at
        # still 2.15 MB with one pooling op per kind and list of maps.
        samples, nbrs, chosen, teacher, student = _objective_inputs(256)
        w = LossWeights()
        batch = make_batch(samples, nbrs, teacher, w)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            weighted_total(distill_objective(student, batch, chosen, w), w).backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 2_290_000

    def test_projected_maps_freed_before_the_channel_term(self, monkeypatch):
        samples, nbrs, chosen, teacher, student = _objective_inputs(256)
        w = LossWeights()
        batch = make_batch(samples, nbrs, teacher, w)
        refs, alive = [], []
        project, channel = SegModel.project, losses.loss_amra_channel

        def projected(model, f):
            out = project(model, f)
            refs.append(weakref.ref(out.data))
            return out

        def counted(*args):
            alive.append(sum(ref() is not None for ref in refs))
            return channel(*args)

        monkeypatch.setattr(SegModel, "project", projected)
        monkeypatch.setattr(losses, "loss_amra_channel", counted)
        distill_objective(student, batch, chosen, w)
        assert len(refs) == len(samples) and alive == [0]

    def test_no_vjp_captures_an_op_result(self):
        # A vjp that captures a non-leaf Tensor keeps its array alive for as
        # long as the tape, read or not; the package's vjps capture arrays
        # and shapes. (The tests' own tape_ops are not on this tape.)
        samples, nbrs, chosen, teacher, student = _objective_inputs(256)
        w = LossWeights()
        comps = distill_objective(student, make_batch(samples, nbrs, teacher, w),
                                  chosen, w)
        assert all(isinstance(comps[name], Tensor) for name in losses.LOSS_NAMES)
        held, seen = [], set()

        def scan(obj, vjp):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            if isinstance(obj, Tensor):
                if obj._op is not None:
                    held.append(vjp.__qualname__)
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    scan(item, vjp)
            elif inspect.isfunction(obj):
                for cell in obj.__closure__ or ():
                    try:
                        scan(cell.cell_contents, vjp)
                    except ValueError:              # an empty cell
                        pass
                for item in obj.__defaults__ or ():
                    scan(item, vjp)

        nodes, stack, n_vjps = set(), [weighted_total(comps, w)._node], 0
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes.add(id(node))
                for parent, vjp in node._edges:
                    scan(vjp, vjp)
                    n_vjps += 1
                    stack.append(parent)
        assert n_vjps > 40 and not held, held


class TestEvaluate:
    def test_deterministic(self, setup):
        cfg, data, teacher = setup
        a = evaluate(teacher, data.val, cfg.n_fixed)
        b = evaluate(teacher, data.val, cfg.n_fixed)
        assert a.miou == b.miou

    @pytest.mark.parametrize("tau", [-1.0, np.nan, np.inf])
    def test_bad_noise_variance_rejected(self, setup, tau):
        cfg, data, teacher = setup
        with pytest.raises(ConfigError, match="noise variance"):
            evaluate(teacher, data.val, cfg.n_fixed, noise_tau=tau)

    def test_noise_zero_equals_evaluate(self, setup):
        cfg, data, teacher = setup
        rows = noise_sweep(teacher, data.val,
                           NoiseConfig(taus=(0.0, 0.5), trials=3, seed=1),
                           cfg.n_fixed)
        clean = evaluate(teacher, data.val, cfg.n_fixed)
        assert rows[0]["miou"] == clean.miou

    @pytest.mark.usefixtures("walk_workers")
    def test_trainable_model_evaluated_without_a_tape(self, setup):
        # default widths at N = 1024: the tape would outweigh the k-NN search.
        # Serial scenes: on two threads the traced peak depends on how the
        # scenes in flight overlap (1.9-3.6 MB for the same frozen model).
        _, data, _ = setup
        cloud = data.val[0]
        student = make_student_from_teacher(
            make_teacher(cloud.d_in, cloud.n_classes, d_out=128, k=8, seed=1),
            seed=3)
        frozen = SegModel.from_state(student.state_dict()).freeze()
        sample = resample_fixed(cloud, 1024, 0)
        nbr = knn_indices(sample.cloud.positions, sample.mask, student.k)
        assert np.array_equal(student.forward(sample, nbr)[1].data,
                              frozen.forward(sample, nbr)[1].data)

        def traced(model):
            tracemalloc.start()
            try:
                return evaluate(model, data.val, 1024), \
                    tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (got, peak), (want, frozen_peak) = traced(student), traced(frozen)
        assert got.miou == want.miou
        assert peak <= 1.1 * frozen_peak
        assert all(p.grad is None for p in student.params.values())

    def test_noise_rows_and_trials(self, setup):
        cfg, data, teacher = setup
        taus = (0.01, 0.05, 0.1, 0.5, 0.7, 1.0)
        rows = noise_sweep(teacher, data.val,
                           NoiseConfig(taus=taus, trials=2, seed=1), cfg.n_fixed)
        assert [r["tau"] for r in rows] == list(taus)
        assert all(r["trials"] == 2 for r in rows)


@pytest.mark.usefixtures("walk_workers")
class TestSceneThreads:
    """The per-scene passes on the class's walk threads give the serial
    bits: each result is compared with a rerun at W = 1."""

    @staticmethod
    def serial(monkeypatch, fn):
        with monkeypatch.context() as m:
            m.setattr(losses, "_walk_workers", lambda n: 1)
            return fn()

    @staticmethod
    def assert_same_metrics(got, want):
        assert np.array_equal(got.confusion, want.confusion)
        assert np.array_equal(got.iou, want.iou, equal_nan=True)
        assert got.as_row() == want.as_row()

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_evaluate(self, setup, monkeypatch, tau):
        cfg, data, teacher = setup
        student = make_student_from_teacher(teacher, seed=3)
        clouds = data.train + data.val       # more scenes than 2W in flight
        for model in (teacher, student):
            run = lambda: evaluate(model, clouds, cfg.n_fixed, noise_tau=tau,
                                   noise_seed=4)
            self.assert_same_metrics(run(), self.serial(monkeypatch, run))

    def test_noise_sweep_rows(self, setup, monkeypatch):
        cfg, data, teacher = setup
        run = lambda: noise_sweep(teacher, data.train,
                                  NoiseConfig(taus=(0.0, 0.1, 1.0), trials=2,
                                              seed=1), cfg.n_fixed)
        assert run() == self.serial(monkeypatch, run)

    def test_make_batch_arrays(self, setup, monkeypatch):
        cfg, data, teacher = setup
        samples = [resample_fixed(c, cfg.n_fixed, i)
                   for i, c in enumerate(data.train[:4])]
        nbrs = [knn_indices(s.cloud.positions, s.mask, cfg.knn_k) for s in samples]
        run = lambda: make_batch(samples, nbrs, teacher, LossWeights())
        got, want = run(), self.serial(monkeypatch, run)
        for name in ("labels", "mask", "teacher_logits"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert all(np.array_equal(g, w) for g, w in
                   zip(got.teacher_feats, want.teacher_feats, strict=True))

    def test_train_distill_log(self, setup, monkeypatch):
        cfg, data, teacher = setup
        run = lambda: train_distill(replace(cfg, epochs=1), teacher, data)
        (got, got_log), (want, want_log) = run(), self.serial(monkeypatch, run)
        assert json.dumps(got_log) == json.dumps(want_log)
        assert state_hash(got) == state_hash(want)


class TestSceneThreadsTwoWorkers(TestSceneThreads):
    WALK_WORKERS = 2


def inject_oracle_log_z(monkeypatch) -> list[np.ndarray]:
    """Make every `losses.loss_batch_gd` call read the teacher
    log-partitions of the float64 oracle `losses.gd_teacher_log_z` instead
    of forming them in its walk; returns the arrays it passes, in order."""
    inner, passed = losses.loss_batch_gd, []

    def precomputed(student_maps, teacher_maps, temperature, masks=None, **kwargs):
        passed.append(losses.gd_teacher_log_z(teacher_maps, temperature, masks))
        return inner(student_maps, teacher_maps, temperature, masks,
                     teacher_log_z=passed[-1], **kwargs)

    monkeypatch.setattr(losses, "loss_batch_gd", precomputed)
    return passed


class TestTeacherLogPartitions:
    """Every batch-GD walk of the training loop forms its batch's teacher
    log-partitions from its own teacher blocks; no batch carries them.
    `losses.gd_teacher_log_z` is the independent oracle of that fill."""

    @pytest.mark.parametrize("precision", losses.GD_PRECISIONS)
    def test_make_batch_leaves_them_unset(self, setup, monkeypatch, precision):
        # ... to the walk, at either precision of distill_objective; the
        # float64 walk's loss is the oracle's bits
        cfg, data, teacher = setup
        samples = [resample_fixed(c, cfg.n_fixed, i)
                   for i, c in enumerate(data.train[:2])]
        nbrs = [knn_indices(s.cloud.positions, s.mask, cfg.knn_k) for s in samples]
        w = LossWeights()
        batch = make_batch(samples, nbrs, teacher, w)
        assert batch.teacher_feats is not None
        assert not hasattr(batch, "teacher_log_z")
        student = make_student_from_teacher(teacher, seed=0)
        chosen = [[] for _ in samples]
        got = distill_objective(student, batch, chosen, w,
                                gd_dtype=precision)["l_batch_gd"].item()
        passed = inject_oracle_log_z(monkeypatch)
        want = distill_objective(student, batch, chosen, w,
                                 gd_dtype=precision)["l_batch_gd"].item()
        log_z, = passed
        if precision == "float64":
            assert got == want
        else:
            # partitions within 1e-6 relative, each weighted into the loss
            # by a total weight of 1
            assert abs(got - want) <= 1e-6 * np.abs(log_z).max()

    def test_training_walks_in_float32(self, setup, monkeypatch):
        cfg, data, teacher = setup
        dtypes, inner = [], losses.loss_batch_gd

        def spy(*args, **kwargs):
            dtypes.append(kwargs["dtype"])
            return inner(*args, **kwargs)

        monkeypatch.setattr(losses, "loss_batch_gd", spy)
        train_distill(cfg, teacher, data)
        n_steps = cfg.epochs * (len(data.train) // cfg.batch_size)
        assert dtypes == ["float32"] * n_steps

    def test_every_walk_forms_them(self, setup, monkeypatch):
        # later epochs too: nothing hands a walk the partitions of an
        # earlier one
        cfg, data, teacher = setup
        given, inner = [], losses.loss_batch_gd
        signature = inspect.signature(inner)

        def spy(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            given.append(bound.arguments.get("teacher_log_z"))
            return inner(*args, **kwargs)

        monkeypatch.setattr(losses, "loss_batch_gd", spy)
        train_distill(replace(cfg, epochs=3), teacher, data)
        assert len(given) == 3 * (len(data.train) // cfg.batch_size)
        assert all(log_z is None for log_z in given)

    def test_trains_the_bits_of_precomputed_partitions(self, setup, monkeypatch):
        # The float32 fill moves l_batch_gd within float32's precision and
        # never the gradient; a float64 fill is the oracle's bits, loss
        # included (test_losses.py, test_float64_walk_fills_the_reference_bits).
        cfg, data, teacher = setup
        cfg = replace(cfg, epochs=3)
        got, got_log = train_distill(cfg, teacher, data)
        inject_oracle_log_z(monkeypatch)
        want, want_log = train_distill(cfg, teacher, data)
        assert state_hash(got) == state_hash(want)
        assert len(got_log) == len(want_log)
        for g, w in zip(got_log, want_log):
            assert g.get("l_batch_gd") == pytest.approx(w.get("l_batch_gd"),
                                                        rel=1e-4)
            assert {k: v for k, v in g.items() if k not in ("l_batch_gd", "l_total")} \
                == {k: v for k, v in w.items() if k not in ("l_batch_gd", "l_total")}


class TestHarnesses:
    def test_variant_weights(self):
        full = LossWeights()
        base = variant_weights(full, ())
        assert base.lambda_kd == base.lambda_c == 0.0
        kd = variant_weights(full, ("lambda_kd",))
        assert kd.lambda_kd == full.lambda_kd and kd.lambda_batch_gd == 0.0
        # every field other than the disabled lambdas is kept
        w = LossWeights(lambda_kd=0.5, lambda_p=0.2, lambda_v=0.3, lambda_c=7.0,
                        lambda_batch_gd=0.4, t_logit=1.5, t_gd=3.0)
        assert variant_weights(w, dict(ABLATION_VARIANTS)["full"]) == w
        assert variant_weights(w, ()) == replace(
            LossWeights.zeros(), t_logit=1.5, t_gd=3.0)

    def test_ablate_rows(self, setup):
        cfg, data, teacher = setup
        rows = ablate(cfg, teacher, data, seeds=(0,))
        assert [r["variant"] for r in rows] == [v for v, _ in ABLATION_VARIANTS]
        before = state_hash(teacher)
        assert state_hash(teacher) == before

    def test_subsample_full_fraction_matches_direct(self, setup):
        cfg, data, teacher = setup
        rows = subsample_sweep(cfg, teacher, data, fractions=(1.0,), seeds=(0,))
        student, _ = train_distill(replace(cfg, seed=0), teacher, data)
        direct = evaluate(student, data.val, cfg.n_fixed)
        assert rows[0]["miou"] == pytest.approx(direct.miou)

    def test_subsample_zero_fraction_rejected(self, setup):
        cfg, data, teacher = setup
        with pytest.raises(ConfigError):
            subsample_sweep(cfg, teacher, data, fractions=(0.01,), seeds=(0,))

    def test_batch_sensitivity_rows(self, setup):
        cfg, data, teacher = setup
        rows = batch_sensitivity(cfg, teacher, data, batch_sizes=(2, 4))
        assert [r["batch_size"] for r in rows] == [2, 4]

    def test_rows_read_the_logged_evaluation(self, setup, monkeypatch):
        """A sweep row holds the metrics its run logged after the last epoch,
        which equal a fresh evaluation of the student; it evaluates no more."""
        cfg, data, teacher = setup
        student, _ = train_distill(cfg, teacher, data)
        want = evaluate(student, data.val, cfg.n_fixed).as_row()
        calls = []
        monkeypatch.setattr(trainer, "evaluate",
                            lambda *args: calls.append(args) or evaluate(*args))
        rows = batch_sensitivity(cfg, teacher, data, batch_sizes=(cfg.batch_size,))
        assert len(calls) == 1
        assert {k: rows[0][k] for k in want} == want

    def test_dim_sensitivity_checks_every_dim_before_training(self, monkeypatch):
        def train_teacher(*args, **kwargs):
            raise AssertionError("trained before the dims were checked")

        monkeypatch.setattr(trainer, "train_teacher", train_teacher)
        with pytest.raises(ConfigError, match=">= 2"):
            dim_sensitivity(tiny_config(), tiny_dataset(n_train=4), dims=(8, 1))

    def test_dim_sensitivity_rows(self):
        cfg = tiny_config(epochs=1, teacher_epochs=1)
        data = tiny_dataset(n_train=4)
        rows = dim_sensitivity(cfg, data, dims=(8, 12))
        assert [r["dim"] for r in rows] == [8, 12]
        for r in rows:
            assert r["student_dim"] * 2 == r["dim"]
            assert {"miou", "macc", "allacc"} <= set(r)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs nothing."""
    max_workers: list[int] = []

    def __init__(self, max_workers, initializer=None):
        type(self).max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return [{"task": i} for i, _ in enumerate(zip(*iterables))]


def _blas_threads(*task):
    """Stands in for `trainer._distill_eval` in a pool worker."""
    return {"blas_threads": losses._blas_control()[0]()}


def _walk_threads(*task):
    """Stands in for `trainer._distill_eval` in a pool worker."""
    return {"walk_workers": losses._walk_workers(1000)}


def _distill_state(cfg, teacher_state, data, tag):
    """Stands in for `trainer._distill_eval`: the student's state hash and
    step log, which show every bit that an mIoU row can hide."""
    teacher = SegModel.from_state(teacher_state).freeze()
    student, log = train_distill(cfg, teacher, data)
    return {**tag, "state": state_hash(student), "log": log}


class TestJobs:
    """`trainer._run_tasks` forks min(P, runs) workers, P the parallelism
    rule that also sizes `losses.map_in_order`."""

    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.setattr(trainer, "ProcessPoolExecutor", _RecordingPool)
        _RecordingPool.max_workers = []
        return _RecordingPool

    @pytest.mark.parametrize("p, workers", [(1000, 8), (3, 3)])
    def test_workers_capped_at_task_count(self, setup, pool, parallelism,
                                          p, workers):
        cfg, data, teacher = setup
        parallelism(p)
        rows = ablate(cfg, teacher, data, seeds=(0, 1))  # 8 runs
        assert pool.max_workers == [workers]
        assert len(rows) == 8

    def test_single_task_runs_in_process(self, setup, pool, parallelism):
        cfg, data, teacher = setup
        parallelism(4)
        rows = subsample_sweep(cfg, teacher, data, fractions=(1.0,), seeds=(0,))
        assert pool.max_workers == []
        assert set(rows[0]) >= {"fraction", "seed", "miou"}

    def test_parallelism_one_runs_in_process(self, setup, pool, parallelism):
        cfg, data, teacher = setup
        rows = batch_sensitivity(cfg, teacher, data, batch_sizes=(2, 4))
        assert pool.max_workers == []
        assert [r["batch_size"] for r in rows] == [2, 4]

    def test_process_pool_rows_equal_serial_rows(self, setup, parallelism):
        # forked workers run the same seeded code as the serial loop
        cfg, data, teacher = setup
        serial = ablate(cfg, teacher, data, seeds=(0, 1))
        parallelism(2)
        pooled = ablate(cfg, teacher, data, seeds=(0, 1))
        assert pooled == serial

    def test_workers_run_on_one_blas_thread(self, monkeypatch, parallelism):
        control = losses._blas_control()
        if control is None:
            pytest.skip("the OpenBLAS thread control is not found")
        get, set_ = control
        saved = get()
        parallelism(2)
        monkeypatch.setattr(trainer, "_distill_eval", _blas_threads)
        try:
            set_(2)
            assert trainer._run_tasks([(0,), (1,)]) == [{"blas_threads": 1}] * 2
            assert get() == 2
        finally:
            set_(saved)

    def test_one_blas_thread_workers_train_the_serial_bits(self, monkeypatch):
        # At n_fixed = 1000, not a multiple of OpenBLAS's gemm tiling, an
        # N x N block times F differs between one and two BLAS threads. The
        # serial loop's threaded walk and scene passes pin one BLAS thread,
        # so a worker on one thread still trains the serial loop's bits.
        # P is not pinned: at two BLAS threads it is 2 here and 1 in each
        # worker, as in a real sweep.
        control = losses._blas_control()
        if control is None or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs the OpenBLAS thread control and two cores")
        get, set_ = control
        saved = get()
        cfg = tiny_config(n_fixed=1000, epochs=1, eval_every=1)
        spec = SceneSpec(n_scenes=5, points_per_scene=1100, seed=0)
        data = Dataset(tuple(generate_scene(spec, i) for i in range(4)),
                       (generate_scene(spec, 4),))
        try:
            set_(2)
            monkeypatch.setattr(trainer, "_distill_eval", _walk_threads)
            assert trainer._run_tasks([(0,), (1,)]) == [{"walk_workers": 1}] * 2
            assert losses._walk_workers(1000) == 2   # the serial loop's walk
            monkeypatch.setattr(trainer, "_distill_eval", _distill_state)
            teacher, _ = train_teacher(cfg, data)
            tasks = [(replace(cfg, seed=s), teacher.state_dict(), data,
                      {"seed": s}) for s in (0, 1)]
            serial = [_distill_state(*t) for t in tasks]
            assert trainer._run_tasks(tasks) == serial
        finally:
            set_(saved)

    @pytest.mark.parametrize("n", [16, 255, 256, 1024])
    def test_walk_workers_unchanged(self, monkeypatch, n):
        """`_walk_workers` is P from 256 rows, 1 below and without OpenBLAS."""
        cores = len(os.sched_getaffinity(0))
        for threads in (1, 3, 1000):
            monkeypatch.setattr(losses, "_blas_control",
                                lambda t=threads: (lambda: t, None))
            assert losses._parallelism() == min(threads, cores)
            assert losses._walk_workers(n) == (1 if n < 256 else min(threads, cores))
        monkeypatch.setattr(losses, "_blas_control", lambda: None)
        assert losses._parallelism() == losses._walk_workers(n) == 1


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["lr", "weight_decay", "warmup_frac",
                                       "start_factor", "final_factor",
                                       "train_fraction"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_setting_rejected(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            TrainConfig(**{field: value})


class TestNoiseConfig:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_tau_rejected(self, value):
        with pytest.raises(ConfigError, match="finite"):
            NoiseConfig(taus=(0.1, value))


class TestDataset:
    def test_scenes_must_share_classes_and_width(self):
        clouds = tiny_dataset(n_train=2, n_val=1).train
        other = generate_scene(SceneSpec(n_classes=5, points_per_scene=192), 0)
        with pytest.raises(DataError):
            Dataset(clouds, (other,))
        c = clouds[0]
        wide = PointCloud(c.positions, np.hstack([c.features, c.features[:, :1]]),
                          c.labels, c.n_classes, c.id)
        with pytest.raises(DataError):
            Dataset((wide,) + clouds[1:], clouds[:1])
        Dataset(clouds[1:], clouds[:1])
