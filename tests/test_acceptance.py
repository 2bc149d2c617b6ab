"""Acceptance gate: the numerical and directional claims of the package.

Criteria 1-5 and 9 are cheap and run by default. Criteria 6-8 retrain at the
default benchmark scale (64 train scenes, 8 classes, 1024 points, 60 epochs)
and are marked slow; run them with `pytest tests/test_acceptance.py -m slow`.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from srkd.autodiff import Tensor
from srkd.cli import GRADCHECK_TOL, gradcheck_report, main
from srkd.cloud import SceneSpec, generate_scene, resample_fixed
from srkd.config import DEFAULTS, scene_spec, train_config
from srkd.losses import (LOSS_NAMES, SupervoxelFeatures, loss_amra_channel,
                         loss_amra_point, loss_amra_voxel, loss_batch_gd,
                         loss_kd)
from srkd.metrics import confusion_matrix, metrics_from_confusion
from srkd.numerics import l2_normalize_rows, softmax_rows
from srkd.trainer import (Dataset, NoiseConfig, noise_sweep, subsample_sweep,
                          train_distill, train_teacher, variant_weights)
from srkd.voxelize import (CylGrid, sample_supervoxels, supervoxel_weight,
                           voxel_count)

RNG = np.random.default_rng(4242)


def make_views(f_s, f_t, mask=None, weight=1.0, n_voxel=2):
    """Student and teacher views of one supervoxel (S = 1)."""
    n = f_s.shape[0]
    mask = np.ones((1, n), dtype=bool) if mask is None else mask[None]
    vmask = np.ones((1, n_voxel), dtype=bool)
    vs = SupervoxelFeatures(Tensor(np.asarray(f_s, dtype=np.float64)),
                            Tensor(np.asarray(f_s[:n_voxel], dtype=np.float64)),
                            mask, vmask, np.array([weight]))
    vt = SupervoxelFeatures(Tensor(np.asarray(f_t, dtype=np.float64)),
                            Tensor(np.asarray(f_t[:n_voxel], dtype=np.float64)),
                            mask, vmask, np.array([weight]))
    return vs, vt


def stacked(views):
    """One SupervoxelFeatures holding the supervoxels of several, in order."""
    return SupervoxelFeatures(
        Tensor(np.concatenate([v.point_features.data for v in views])),
        Tensor(np.concatenate([v.voxel_features.data for v in views])),
        np.concatenate([v.point_mask for v in views]),
        np.concatenate([v.voxel_mask for v in views]),
        np.concatenate([v.weight for v in views]))


def kl_vec(p, q):
    q = np.maximum(q, 1e-12)
    return float(np.where(p > 0, p * np.log(np.maximum(p, 1e-300) / q),
                          0.0).sum())


class TestCriterion1Gradients:
    def test_all_terms_match_finite_differences(self):
        start = time.monotonic()
        report = gradcheck_report(seed=0)
        elapsed = time.monotonic() - start
        assert set(report) == set(LOSS_NAMES) | {"l_total"}
        for name, err in report.items():
            assert err < GRADCHECK_TOL, f"{name}: {err:.3e}"
        assert elapsed < 60.0


class TestCriterion2IdentityZero:
    def test_distillation_losses_vanish(self):
        feats = [RNG.standard_normal((8, 5)) for _ in range(3)]
        logits = RNG.standard_normal((12, 4))
        vs = stacked([make_views(f, f)[0] for f in feats])
        assert abs(loss_kd(Tensor(logits), logits, 2.0).item()) < 1e-10
        assert abs(loss_amra_point(vs, vs).item()) < 1e-10
        assert abs(loss_amra_voxel(vs, vs).item()) < 1e-10
        assert abs(loss_amra_channel(vs, vs).item()) < 1e-10
        assert abs(loss_batch_gd([Tensor(f) for f in feats], feats,
                                 2.0).item()) < 1e-10


class TestCriterion3Oracles:
    @pytest.mark.parametrize("b,n,d", [(2, 4, 3), (3, 8, 2), (3, 5, 4)])
    def test_batch_gd_enumeration(self, b, n, d):
        student = [RNG.standard_normal((n, d)) for _ in range(b)]
        teacher = [RNG.standard_normal((n, d + 1)) for _ in range(b)]
        masks = [RNG.random(n) > 0.25 for _ in range(b)]
        for m in masks:
            m[0] = True
        fs = [l2_normalize_rows(m) for m in student]
        ft = [l2_normalize_rows(m) for m in teacher]
        want = 0.0
        for i in range(b):
            for j in range(b):
                m_s = fs[i] @ fs[j].T
                m_t = ft[i] @ ft[j].T
                acc = 0.0
                for a in np.flatnonzero(masks[i]):
                    cols = np.flatnonzero(masks[j])
                    p = softmax_rows(m_s[a, cols][None, :], 2.0)[0]
                    q = softmax_rows(m_t[a, cols][None, :], 2.0)[0]
                    acc += kl_vec(p, q)
                want += acc / int(masks[i].sum())
        want /= b * b
        student_in = [Tensor(np.where(m[:, None], f, 0.0))
                      for f, m in zip(student, masks)]
        teacher_in = [np.where(m[:, None], f, 0.0)
                      for f, m in zip(teacher, masks)]
        got = loss_batch_gd(student_in, teacher_in, 2.0, masks).item()
        assert got == pytest.approx(want, rel=1e-9)

    def test_amra_point_enumeration(self):
        views_s, views_t, want = [], [], []
        for k in range(2):
            n = 6
            f_s = RNG.standard_normal((n, 3))
            f_t = RNG.standard_normal((n, 3))
            mask = RNG.random(n) > 0.3
            mask[:2] = True
            w = float(RNG.random() + 0.1)
            vs, vt = make_views(f_s * mask[:, None], f_t * mask[:, None],
                                mask=mask, weight=w)
            views_s.append(vs)
            views_t.append(vt)
            acc = 0.0
            for i in range(n):
                for j in range(n):
                    if i == j or not (mask[i] and mask[j]):
                        continue
                    ds = w * ((f_s[i] - f_s[j]) ** 2).sum()
                    dt = w * ((f_t[i] - f_t[j]) ** 2).sum()
                    acc += (ds - dt) ** 2
            want.append(acc / n ** 2)
        got = loss_amra_point(stacked(views_s), stacked(views_t)).item()
        assert got == pytest.approx(float(np.mean(want)), rel=1e-9)

    def test_metrics_enumeration(self):
        n, c = 500, 4
        preds = RNG.integers(0, c, n)
        labels = RNG.integers(0, c, n).astype(np.uint8)
        labels[RNG.random(n) < 0.1] = 255
        m = metrics_from_confusion(confusion_matrix(labels, preds, c))
        per_iou, per_acc, correct, seen = [], [], 0, 0
        for k in range(c):
            tp = int(np.sum((preds == k) & (labels == k)))
            fp = int(np.sum((preds == k) & (labels != k) & (labels != 255)))
            fn = int(np.sum((preds != k) & (labels == k)))
            if tp + fp + fn > 0:
                per_iou.append(tp / (tp + fp + fn))
            if tp + fn > 0:
                per_acc.append(tp / (tp + fn))
            correct += tp
            seen += tp + fn
        assert m.miou == pytest.approx(float(np.mean(per_iou)), rel=1e-9)
        assert m.macc == pytest.approx(float(np.mean(per_acc)), rel=1e-9)
        assert m.allacc == pytest.approx(correct / seen, rel=1e-9)

    def test_four_point_case(self):
        m = metrics_from_confusion(confusion_matrix(
            np.array([0, 1, 1, 1], dtype=np.uint8), np.array([0, 0, 1, 1]), 2))
        assert m.miou == pytest.approx(7 / 12)
        assert m.allacc == pytest.approx(3 / 4)
        assert m.macc == pytest.approx(5 / 6)


class TestCriterion4Formulas:
    def test_voxel_count_ceil_product(self):
        for case in range(50):
            rng = np.random.default_rng(case)
            r, h = rng.uniform(2.0, 20.0), rng.uniform(1.0, 8.0)
            grid = CylGrid(radial_extent=r, height_extent=h, h_min=-h / 2,
                           r_cell=rng.uniform(0.3, r),
                           a_cell=rng.uniform(0.2, 2 * math.pi),
                           h_cell=rng.uniform(0.2, h))
            want = (math.ceil(r / grid.r_cell)
                    * math.ceil(2 * math.pi / grid.a_cell)
                    * math.ceil(h / grid.h_cell))
            assert voxel_count(grid) == want

    def test_weight_arithmetic(self):
        for case in range(50):
            rng = np.random.default_rng(1000 + case)
            r, h = rng.uniform(2.0, 20.0), rng.uniform(1.0, 8.0)
            grid = CylGrid(radial_extent=r, height_extent=h, h_min=0.0,
                           r_cell=rng.uniform(0.3, r),
                           a_cell=rng.uniform(0.2, 2 * math.pi),
                           h_cell=rng.uniform(0.2, h))
            tau = float(rng.uniform(0.0, 1.0))
            dist = float(rng.uniform(0.0, r))
            assert supervoxel_weight(tau, dist, grid) == \
                (tau / voxel_count(grid)) * (dist / r)

    def test_sampling_chi_squared(self):
        import dataclasses

        from srkd.voxelize import SamplerConfig, batch_label_histogram, \
            build_supervoxels
        from srkd.trainer import grid_for_clouds
        spec = SceneSpec(n_classes=4, points_per_scene=256, seed=11)
        cloud = generate_scene(spec, 0)
        sample = resample_fixed(cloud, 256, seed=1)
        grid = grid_for_clouds([cloud])
        scfg = SamplerConfig(k=1, n_point=16, n_voxel=4)
        hist = batch_label_histogram([sample], spec.n_classes)
        cands = build_supervoxels(sample, grid, scfg, hist, seed=2)[:4]
        probs = np.array([0.5, 0.25, 0.15, 0.1])
        cands = [dataclasses.replace(c, weight=p) for c, p in zip(cands, probs)]
        counts = np.zeros(4)
        for t in range(100_000):
            sv = sample_supervoxels(cands, 1, seed=t)[0]
            counts[next(i for i, c in enumerate(cands) if c is sv)] += 1
        expected = probs * 100_000
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # chi-squared critical value, 3 degrees of freedom, p = 0.001
        assert chi2 < 16.27


class TestCriterion5Invariance:
    def test_batch_gd_permutation_and_rescale(self):
        for case in range(100):
            rng = np.random.default_rng(2000 + case)
            b, n, d = int(rng.integers(1, 4)), int(rng.integers(2, 7)), 3
            student = [rng.standard_normal((n, d)) for _ in range(b)]
            teacher = [rng.standard_normal((n, d)) for _ in range(b)]
            base = loss_batch_gd([Tensor(m) for m in student], teacher,
                                 2.0).item()
            perm = rng.permutation(n)
            scale = rng.uniform(0.1, 10.0, (n, 1))
            permuted = loss_batch_gd(
                [Tensor(m[perm] * scale[perm]) for m in student],
                [m[perm] for m in teacher], 2.0).item()
            assert permuted == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_affinity_losses_permutation(self):
        # permuting point rows and voxel rows simultaneously on both sides
        # leaves the point- and voxel-level losses unchanged
        def views(f_s, f_t, v_s, v_t):
            n, nv = f_s.shape[0], v_s.shape[0]
            masks = np.ones((1, n), bool), np.ones((1, nv), bool)
            vs = SupervoxelFeatures(Tensor(f_s), Tensor(v_s), *masks, np.ones(1))
            vt = SupervoxelFeatures(Tensor(f_t), Tensor(v_t), *masks, np.ones(1))
            return vs, vt

        for case in range(100):
            rng = np.random.default_rng(3000 + case)
            n, nv = int(rng.integers(3, 8)), int(rng.integers(2, 5))
            f_s, f_t = rng.standard_normal((2, n, 3))
            v_s, v_t = rng.standard_normal((2, nv, 3))
            base_p = loss_amra_point(*views(f_s, f_t, v_s, v_t)).item()
            base_v = loss_amra_voxel(*views(f_s, f_t, v_s, v_t)).item()
            p, q = rng.permutation(n), rng.permutation(nv)
            moved = views(f_s[p], f_t[p], v_s[q], v_t[q])
            assert loss_amra_point(*moved).item() == \
                pytest.approx(base_p, rel=1e-9, abs=1e-12)
            assert loss_amra_voxel(*moved).item() == \
                pytest.approx(base_v, rel=1e-9, abs=1e-12)

    def test_softmax_row_sums(self):
        for case in range(100):
            rng = np.random.default_rng(4000 + case)
            m = rng.uniform(-30, 30, (int(rng.integers(1, 9)),
                                      int(rng.integers(1, 9))))
            out = softmax_rows(m, float(rng.uniform(0.5, 4.0)))
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Benchmark-scale criteria (slow)
# ---------------------------------------------------------------------------

BENCH_SEED = 5


@pytest.fixture(scope="module")
def benchmark():
    spec = scene_spec(dict(DEFAULTS), BENCH_SEED)
    clouds = [generate_scene(spec, i) for i in range(spec.n_scenes)]
    return Dataset(tuple(clouds[:64]), tuple(clouds[64:]))


@pytest.fixture(scope="module")
def bench_teacher(benchmark):
    cfg = train_config(dict(DEFAULTS), BENCH_SEED)
    teacher, _ = train_teacher(cfg, benchmark)
    return teacher


@pytest.fixture(scope="module")
def sweep_results(benchmark, bench_teacher):
    """Baseline / +kd / full runs over 5 paired seeds, with wall time."""
    cfg = train_config(dict(DEFAULTS), BENCH_SEED)
    variants = (("baseline", ()),
                ("+kd", ("lambda_kd",)),
                ("full", ("lambda_kd", "lambda_p", "lambda_v", "lambda_c",
                          "lambda_batch_gd")))
    start = time.monotonic()
    rows, students = [], {}
    from srkd.trainer import evaluate
    for variant, enabled in variants:
        w = variant_weights(cfg.weights, enabled)
        for seed in range(5):
            vcfg = replace(cfg, seed=seed, weights=w)
            student, _ = train_distill(vcfg, bench_teacher, benchmark)
            m = evaluate(student, benchmark.val, cfg.n_fixed)
            rows.append({"variant": variant, "seed": seed, "miou": m.miou})
            if variant == "full":
                students[seed] = student
    return {"rows": rows, "students": students,
            "elapsed": time.monotonic() - start}


@pytest.mark.slow
class TestCriterion6Ablation:
    def test_variant_ordering_and_gap(self, sweep_results):
        rows = sweep_results["rows"]
        mean = {v: float(np.mean([r["miou"] for r in rows
                                  if r["variant"] == v]))
                for v in ("baseline", "+kd", "full")}
        assert mean["baseline"] <= mean["+kd"] <= mean["full"], mean
        assert mean["full"] - mean["baseline"] >= 0.01, mean

    def test_runtime_budget(self, sweep_results):
        if (os.cpu_count() or 1) < 4:
            pytest.skip("runtime budget assumes at least 4 CPU cores")
        assert sweep_results["elapsed"] < 45 * 60


@pytest.mark.slow
class TestCriterion7NoiseMonotonicity:
    def test_miou_non_increasing_in_tau(self, benchmark, sweep_results):
        student = sweep_results["students"][0]
        start = time.monotonic()
        rows = noise_sweep(student, benchmark.val,
                           NoiseConfig(taus=(0.01, 0.1, 0.5, 1.0), trials=10,
                                       seed=0), 1024)
        elapsed = time.monotonic() - start
        mious = [r["miou"] for r in rows]
        assert all(a >= b for a, b in zip(mious, mious[1:])), mious
        assert elapsed < 5 * 60


@pytest.mark.slow
class TestCriterion8SubsampleMonotonicity:
    def test_more_data_helps(self, benchmark, bench_teacher):
        cfg = train_config(dict(DEFAULTS), BENCH_SEED)
        rows = subsample_sweep(cfg, bench_teacher, benchmark,
                               fractions=(0.05, 0.25, 1.0), seeds=(0, 1, 2))
        mean = {f: float(np.mean([r["miou"] for r in rows
                                  if r["fraction"] == f]))
                for f in (0.05, 0.25, 1.0)}
        assert mean[1.0] >= mean[0.25] >= mean[0.05], mean


class TestCriterion9Determinism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("scene.n_scenes = 5\nscene.points_per_scene = 192\n"
                       "train.epochs = 2\ntrain.batch_size = 2\n"
                       "train.n_fixed = 96\ntrain.knn_k = 4\n"
                       "train.teacher_epochs = 2\ntrain.teacher_d_out = 12\n"
                       "train.eval_every = 2\nsampler.k = 2\n"
                       "sampler.n_point = 16\nsampler.n_voxel = 4\n")
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / run
            for command in ("generate", "train-teacher", "train"):
                assert main([command, "--config", str(cfg), "--seed", "3",
                             "--out", str(out)]) == 0
            blobs.append(((out / "student.ckpt").read_bytes(),
                          (out / "train_log.jsonl").read_bytes()))
        capsys.readouterr()
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]
