from dataclasses import fields

import pytest

from srkd.cloud import SceneSpec
from srkd.config import (DEFAULTS, config_hash, load_config, loss_weights,
                         noise_config, parse_config, render_config,
                         sampler_config, scene_spec, train_config)
from srkd.errors import ConfigError
from srkd.losses import LossWeights
from srkd.trainer import NoiseConfig, TrainConfig
from srkd.voxelize import SamplerConfig


class TestParsing:
    def test_empty_text_yields_defaults(self):
        assert parse_config("") == DEFAULTS

    def test_keys_are_the_settings_fields(self):
        # every init field of the five settings dataclasses is a key, but
        # the seed (--seed) and TrainConfig's weights and sampler (their own
        # sections); the CLI's sweep lists are the only other keys
        sections = {"scene": SceneSpec, "train": TrainConfig, "loss": LossWeights,
                    "sampler": SamplerConfig, "noise": NoiseConfig}
        want = {f"{section}.{f.name}" for section, cls in sections.items()
                for f in fields(cls)
                if f.init and f.name not in ("seed", "weights", "sampler")}
        assert {k for k in DEFAULTS if not k.startswith("sweep.")} == want
        assert {k for k in DEFAULTS if k.startswith("sweep.")} == {
            "sweep.fractions", "sweep.batch_sizes", "sweep.dims", "sweep.seeds"}

    def test_override_scalar(self):
        cfg = parse_config("train.lr = 0.01")
        assert cfg["train.lr"] == 0.01
        assert cfg["train.epochs"] == DEFAULTS["train.epochs"]

    def test_override_int_stays_int(self):
        cfg = parse_config("train.epochs = 5")
        assert cfg["train.epochs"] == 5
        assert isinstance(cfg["train.epochs"], int)

    def test_override_tuple(self):
        cfg = parse_config("sweep.seeds = 7, 8")
        assert cfg["sweep.seeds"] == (7, 8)
        cfg = parse_config("noise.taus = 0.5")
        assert cfg["noise.taus"] == (0.5,)

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\ntrain.lr = 0.02  # inline\n"
        assert parse_config(text)["train.lr"] == 0.02

    def test_unknown_key_rejected_with_location(self):
        with pytest.raises(ConfigError, match="myfile:2"):
            parse_config("\ntrain.learning_rate = 0.01", source="myfile")

    def test_repeated_key_rejected_with_both_lines(self):
        text = "train.lr = 0.1\n# the same key again\ntrain.lr = 0.2\n"
        with pytest.raises(ConfigError, match=r"myfile:3: config key 'train.lr' "
                                              r"is already set on line 1"):
            parse_config(text, source="myfile")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config("train.lr 0.01")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="train.epochs"):
            parse_config("train.epochs = soon")

    @pytest.mark.parametrize("line", [
        "train.train_fraction = nan", "train.train_fraction = inf",
        "train.lr = nan", "scene.noise_std = -1.0", "noise.trials = 0",
        "sampler.k = 0",
        "scene.n_scenes = 2",  # 2 training scenes, none for validation
        "scene.n_scenes = 5\ntrain.train_fraction = 0.05",  # none for training
    ])
    def test_invalid_setting_rejected_at_load(self, line):
        with pytest.raises(ConfigError):
            parse_config(line)

    @pytest.mark.parametrize("line", [
        "train.eval_every = 0", "train.knn_k = 0", "train.knn_k = -2",
        "train.teacher_epochs = 0", "train.teacher_d_out = 1",
        "train.teacher_d_out = 0", "train.weight_decay = -0.5",
        "train.start_factor = -1",   # lr(0) = -0.006: gradient ascent on step 0
        "train.final_factor = 5",    # ends at 5x the peak rate
    ])
    def test_invalid_train_setting_rejected_at_load(self, line):
        field = line.split("=")[0].strip().removeprefix("train.")
        with pytest.raises(ConfigError, match=field):
            parse_config(line)

    def test_train_setting_bounds_accepted(self):
        cfg = parse_config("train.eval_every = 1\ntrain.knn_k = 1\n"
                           "train.teacher_epochs = 1\ntrain.teacher_d_out = 2\n"
                           "train.weight_decay = 0.0\ntrain.start_factor = 0.0\n"
                           "train.final_factor = 1.0")
        assert train_config(cfg, 0).teacher_d_out == 2

    @pytest.mark.parametrize("line", ["sweep.seeds =", "sweep.dims = ",
                                      "sweep.fractions = ,", "sweep.batch_sizes = , ,"])
    def test_empty_sweep_list_rejected(self, line):
        key = line.split("=")[0].strip()
        with pytest.raises(ConfigError, match=f"{key}.*empty"):
            parse_config(line)

    @pytest.mark.parametrize("line", [
        "sweep.fractions = 0.0, 0.5", "sweep.fractions = 0.5, nan",
        "sweep.fractions = 1.5", "sweep.fractions = -inf",
        "sweep.dims = 1", "sweep.dims = 32, 1",
        "sweep.batch_sizes = 0, 2", "sweep.batch_sizes = -1",
    ])
    def test_invalid_sweep_value_rejected(self, line):
        key = line.split("=")[0].strip()
        with pytest.raises(ConfigError, match=key):
            parse_config(line)

    def test_sweep_bounds_accepted(self):
        cfg = parse_config("sweep.fractions = 1.0\nsweep.dims = 2\n"
                           "sweep.batch_sizes = 1")
        assert (cfg["sweep.fractions"], cfg["sweep.dims"],
                cfg["sweep.batch_sizes"]) == ((1.0,), (2,), (1,))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"train.epochs = 2\n\x8a\n")
        with pytest.raises(ConfigError, match="byte 17"):
            load_config(path)

    def test_load_none_is_defaults(self):
        assert load_config(None) == DEFAULTS


class TestRendering:
    def test_round_trip(self):
        cfg = parse_config("train.lr = 0.01\nsweep.seeds = 3, 4")
        assert parse_config(render_config(cfg)) == cfg

    def test_default_hash_is_pinned(self):
        # the hash stamped into every output table; a drifted default or a
        # renamed key changes it
        assert config_hash(DEFAULTS) == "c745d7b79b28"

    def test_hash_stable_and_sensitive(self):
        base = config_hash(dict(DEFAULTS))
        assert base == config_hash(dict(DEFAULTS))
        assert len(base) == 12
        assert config_hash(parse_config("train.lr = 0.01")) != base


class TestTypedViews:
    def test_scene_spec(self):
        spec = scene_spec(dict(DEFAULTS), seed=7)
        assert isinstance(spec, SceneSpec)
        assert spec.seed == 7
        assert spec.points_per_scene == 2048
        assert spec.label_fraction == DEFAULTS["scene.label_fraction"]

    def test_loss_weights(self):
        w = loss_weights(parse_config("loss.lambda_c = 5.0"))
        assert w.lambda_c == 5.0
        assert w.t_logit == 2.0

    def test_sampler_config(self):
        s = sampler_config(dict(DEFAULTS))
        assert (s.k, s.n_point, s.n_voxel) == (4, 128, 16)

    def test_train_config(self):
        t = train_config(parse_config("train.epochs = 3"), seed=1)
        assert t.epochs == 3 and t.seed == 1
        assert t.weights.lambda_kd == 0.3

    def test_noise_config(self):
        n = noise_config(dict(DEFAULTS), seed=2)
        assert n.trials == 10 and n.seed == 2
