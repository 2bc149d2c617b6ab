import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from srkd.cloud import PointCloud, SceneSpec, generate_scene
from srkd.errors import ConfigError, DataError
from srkd.losses import LOSS_NAMES, LossWeights
from srkd.models import save_checkpoint
from srkd.trainer import (ABLATION_VARIANTS, Dataset, NoiseConfig, TrainConfig,
                          ablate, batch_sensitivity, dim_sensitivity, evaluate,
                          noise_sweep, subsample_sweep, train_distill,
                          train_teacher, variant_weights)
from srkd.voxelize import SamplerConfig


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
        live = make_teacher(2, 8, d_out=12)
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


class TestEvaluate:
    def test_deterministic(self, setup):
        cfg, data, teacher = setup
        a = evaluate(teacher, data.val, cfg.n_fixed)
        b = evaluate(teacher, data.val, cfg.n_fixed)
        assert a.miou == b.miou

    def test_noise_zero_equals_evaluate(self, setup):
        cfg, data, teacher = setup
        rows = noise_sweep(teacher, data.val,
                           NoiseConfig(taus=(0.0, 0.5), trials=3, seed=1),
                           cfg.n_fixed)
        clean = evaluate(teacher, data.val, cfg.n_fixed)
        assert rows[0]["miou"] == clean.miou

    def test_noise_rows_and_trials(self, setup):
        cfg, data, teacher = setup
        taus = (0.01, 0.05, 0.1, 0.5, 0.7, 1.0)
        rows = noise_sweep(teacher, data.val,
                           NoiseConfig(taus=taus, trials=2, seed=1), cfg.n_fixed)
        assert [r["tau"] for r in rows] == list(taus)
        assert all(r["trials"] == 2 for r in rows)


class TestHarnesses:
    def test_variant_weights(self):
        full = LossWeights()
        base = variant_weights(full, ())
        assert base.lambda_kd == base.lambda_c == 0.0
        kd = variant_weights(full, ("lambda_kd",))
        assert kd.lambda_kd == full.lambda_kd and kd.lambda_batch_gd == 0.0

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

    def test_dim_sensitivity_rows(self):
        cfg = tiny_config(epochs=1, teacher_epochs=1)
        data = tiny_dataset(n_train=4)
        rows = dim_sensitivity(cfg, data, dims=(8, 12))
        assert [r["dim"] for r in rows] == [8, 12]
        for r in rows:
            assert r["student_dim"] * 2 == r["dim"]
            assert {"miou", "macc", "allacc"} <= set(r)


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
