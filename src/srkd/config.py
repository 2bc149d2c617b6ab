"""Flat key-value run configuration.

The config file is plain text, one `section.key = value` per line, with `#`
comments and blank lines ignored. Every key is a field of its section's
settings dataclass (`scene` SceneSpec, `train` TrainConfig, `loss`
LossWeights, `sampler` SamplerConfig, `noise` NoiseConfig), and its default
is that field's default; the dataclass also checks the value. The `sweep`
keys, which only the CLI reads, are defined and checked here. Unknown keys
are rejected. Lists (noise variances, sweep fractions) are comma separated
and may not be empty. The effective merged config can be rendered back to
canonical text, whose SHA-256 prefix serves as the provenance hash stamped
into output tables.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from pathlib import Path

from .cloud import SceneSpec
from .errors import ConfigError
from .losses import LossWeights
from .trainer import NoiseConfig, TrainConfig
from .voxelize import SamplerConfig

_SECTIONS = {"scene": SceneSpec, "train": TrainConfig, "loss": LossWeights,
             "sampler": SamplerConfig, "noise": NoiseConfig}
# Fields that are not config keys: the seed comes from --seed, and
# TrainConfig's weights and sampler are built from their own sections.
_NOT_KEYS = ("seed", "weights", "sampler")


def _key_fields(cls):
    return [f for f in fields(cls) if f.init and f.name not in _NOT_KEYS]


DEFAULTS: dict[str, object] = {
    **{f"{section}.{f.name}": f.default
       for section, cls in _SECTIONS.items() for f in _key_fields(cls)},
    "sweep.fractions": (0.05, 0.10, 0.125, 0.25, 0.5, 1.0),
    "sweep.batch_sizes": (2, 4, 8),
    "sweep.dims": (32, 64, 128, 256),
    "sweep.seeds": (0, 1, 2, 3, 4),
}


def _parse_value(key: str, text: str, default) -> object:
    text = text.strip()
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if isinstance(default, tuple) and not parts:
        raise ConfigError(f"config key {key!r}: the list is empty")
    try:
        if isinstance(default, tuple):
            elem = type(default[0])
            return tuple(elem(p) for p in parts)
        return type(default)(text)
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
    scene_spec(cfg, 0)
    train_config(cfg, 0)
    noise_config(cfg, 0)
    split_counts(cfg)
    for key, ok, rule in (("sweep.fractions", lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
                          ("sweep.batch_sizes", lambda v: v >= 1, "be >= 1"),
                          ("sweep.dims", lambda v: v >= 2, "be >= 2")):
        if not all(map(ok, cfg[key])):
            raise ConfigError(f"{key} must {rule}")
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


def split_counts(cfg: dict) -> tuple[int, int]:
    """(training, validation) scene counts; neither split may be empty."""
    n = cfg["scene.n_scenes"]
    n_train = int(round(n * cfg["train.train_fraction"]))
    if n_train == 0 or n_train == n:
        raise ConfigError(f"train_fraction {cfg['train.train_fraction']} of "
                          f"{n} scenes leaves an empty split")
    return n_train, n - n_train


# -- typed views -------------------------------------------------------------

def _view(cfg: dict, section: str, **given):
    """The section's dataclass built from its keys in `cfg`, plus `given`."""
    cls = _SECTIONS[section]
    return cls(**{f.name: cfg[f"{section}.{f.name}"] for f in _key_fields(cls)},
               **given)


def scene_spec(cfg: dict, seed: int) -> SceneSpec:
    return _view(cfg, "scene", seed=seed)


def loss_weights(cfg: dict) -> LossWeights:
    return _view(cfg, "loss")


def sampler_config(cfg: dict) -> SamplerConfig:
    return _view(cfg, "sampler")


def train_config(cfg: dict, seed: int) -> TrainConfig:
    return _view(cfg, "train", seed=seed, weights=loss_weights(cfg),
                 sampler=sampler_config(cfg))


def noise_config(cfg: dict, seed: int) -> NoiseConfig:
    return _view(cfg, "noise", seed=seed)
