"""Flat key-value run configuration.

The config file is plain text, one `section.key = value` per line, with `#`
comments and blank lines ignored. Every key has a default; unknown keys are
rejected. Lists (noise variances, sweep fractions) are comma separated.
The effective merged config can be rendered back to canonical text, whose
SHA-256 prefix serves as the provenance hash stamped into output tables.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .cloud import SceneSpec
from .errors import ConfigError
from .losses import LossWeights
from .trainer import NoiseConfig, TrainConfig
from .voxelize import SamplerConfig

DEFAULTS: dict[str, object] = {
    "scene.n_classes": 8,
    "scene.points_per_scene": 2048,
    "scene.n_scenes": 80,
    "scene.radial_extent": 10.0,
    "scene.height_extent": 4.0,
    "scene.noise_std": 0.08,
    "scene.decay_ratio": 0.7,
    "scene.label_fraction": 1.0,
    "scene.label_noise": 0.0,
    "scene.cue_noise": 0.25,
    "train.epochs": 60,
    "train.batch_size": 8,
    "train.lr": 0.006,
    "train.weight_decay": 0.05,
    "train.warmup_frac": 0.3,
    "train.start_factor": 0.04,
    "train.final_factor": 1e-4,
    "train.n_fixed": 1024,
    "train.knn_k": 8,
    "train.teacher_epochs": 150,
    "train.teacher_d_out": 128,
    "train.eval_every": 10,
    "train.train_fraction": 0.8,
    "loss.lambda_kd": 0.3,
    "loss.lambda_p": 0.001,
    "loss.lambda_v": 0.001,
    "loss.lambda_c": 1000.0,
    "loss.lambda_batch_gd": 0.1,
    "loss.t_logit": 2.0,
    "loss.t_gd": 2.0,
    "sampler.k": 4,
    "sampler.n_point": 128,
    "sampler.n_voxel": 16,
    "sampler.sub_div": 2,
    "noise.taus": (0.01, 0.05, 0.1, 0.5, 0.7, 1.0),
    "noise.trials": 10,
    "sweep.fractions": (0.05, 0.10, 0.125, 0.25, 0.5, 1.0),
    "sweep.batch_sizes": (2, 4, 8),
    "sweep.dims": (32, 64, 128, 256),
    "sweep.seeds": (0, 1, 2, 3, 4),
}


def _parse_value(key: str, text: str, default) -> object:
    text = text.strip()
    try:
        if isinstance(default, tuple):
            parts = [p.strip() for p in text.split(",") if p.strip()]
            elem = type(default[0])
            return tuple(elem(p) for p in parts)
        if isinstance(default, bool):
            if text not in ("true", "false"):
                raise ValueError(text)
            return text == "true"
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse value {text!r}") from exc


def parse_config(text: str, source: str = "<config>") -> dict[str, object]:
    """Parse config text and merge it over the defaults.

    The merged config is validated as a whole: any invalid setting raises
    ConfigError here, whichever command later reads it.
    """
    cfg = dict(DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        cfg[key] = _parse_value(key, value, DEFAULTS[key])
    scene_spec(cfg, 0).validate()
    train_config(cfg, 0)
    noise_config(cfg, 0)
    return cfg


def load_config(path: str | Path | None) -> dict[str, object]:
    if path is None:
        return dict(DEFAULTS)
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: byte {exc.start} is not UTF-8 text") from None
    return parse_config(text, source=str(p))


def render_config(cfg: dict[str, object]) -> str:
    lines = []
    for key in sorted(cfg):
        v = cfg[key]
        if isinstance(v, tuple):
            v = ", ".join(repr(x) for x in v)
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: dict[str, object]) -> str:
    return hashlib.sha256(render_config(cfg).encode()).hexdigest()[:12]


# -- typed views -------------------------------------------------------------

def scene_spec(cfg: dict, seed: int) -> SceneSpec:
    return SceneSpec(n_classes=cfg["scene.n_classes"],
                     points_per_scene=cfg["scene.points_per_scene"],
                     n_scenes=cfg["scene.n_scenes"],
                     radial_extent=cfg["scene.radial_extent"],
                     height_extent=cfg["scene.height_extent"],
                     noise_std=cfg["scene.noise_std"],
                     decay_ratio=cfg["scene.decay_ratio"],
                     label_fraction=cfg["scene.label_fraction"],
                     label_noise=cfg["scene.label_noise"],
                     cue_noise=cfg["scene.cue_noise"],
                     seed=seed)


def loss_weights(cfg: dict) -> LossWeights:
    return LossWeights(lambda_kd=cfg["loss.lambda_kd"],
                       lambda_p=cfg["loss.lambda_p"],
                       lambda_v=cfg["loss.lambda_v"],
                       lambda_c=cfg["loss.lambda_c"],
                       lambda_batch_gd=cfg["loss.lambda_batch_gd"],
                       t_logit=cfg["loss.t_logit"],
                       t_gd=cfg["loss.t_gd"])


def sampler_config(cfg: dict) -> SamplerConfig:
    return SamplerConfig(k=cfg["sampler.k"], n_point=cfg["sampler.n_point"],
                         n_voxel=cfg["sampler.n_voxel"],
                         sub_div=cfg["sampler.sub_div"])


def train_config(cfg: dict, seed: int) -> TrainConfig:
    return TrainConfig(epochs=cfg["train.epochs"],
                       batch_size=cfg["train.batch_size"],
                       lr=cfg["train.lr"],
                       weight_decay=cfg["train.weight_decay"],
                       warmup_frac=cfg["train.warmup_frac"],
                       start_factor=cfg["train.start_factor"],
                       final_factor=cfg["train.final_factor"],
                       seed=seed,
                       n_fixed=cfg["train.n_fixed"],
                       knn_k=cfg["train.knn_k"],
                       teacher_epochs=cfg["train.teacher_epochs"],
                       teacher_d_out=cfg["train.teacher_d_out"],
                       eval_every=cfg["train.eval_every"],
                       train_fraction=cfg["train.train_fraction"],
                       weights=loss_weights(cfg),
                       sampler=sampler_config(cfg))


def noise_config(cfg: dict, seed: int) -> NoiseConfig:
    return NoiseConfig(taus=cfg["noise.taus"], trials=cfg["noise.trials"],
                       seed=seed)
