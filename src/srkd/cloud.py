"""Point-cloud data model, synthetic scene generation, resampling, and file IO.

A scene is a labeled point cloud built from geometric primitives (ground
annulus, boxes, poles, spheres). Class frequencies decay geometrically so
class-balanced supervoxel sampling has a nontrivial range to work with.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError

# Sentinel label for padded / excluded points. Padded rows never enter a
# loss or a metric; they are tracked by the validity mask.
IGNORE_LABEL = 255

_PRIMITIVES = ("box", "pole", "sphere")


def derive_seed(*parts: int) -> np.random.Generator:
    """Deterministic child generator from a tuple of integer seed parts."""
    return np.random.default_rng([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])


@dataclass(frozen=True)
class PointCloud:
    """Immutable labeled point cloud.

    positions: (N, 3) float64, meters.
    features:  (N, D_in) float64 input attributes.
    labels:    (N,) int64 in [0, n_classes) or IGNORE_LABEL.
    """

    positions: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    id: str = ""

    def __post_init__(self):
        pos = np.ascontiguousarray(np.asarray(self.positions, dtype=np.float64))
        feat = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        lab = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise DataError(f"positions must be (N, 3), got {pos.shape}")
        n = pos.shape[0]
        if n < 1:
            raise DataError("point cloud must contain at least one point")
        if feat.ndim != 2 or feat.shape[0] != n:
            raise DataError(f"features must be (N, D_in), got {feat.shape} for N={n}")
        if lab.shape != (n,):
            raise DataError(f"labels must be (N,), got {lab.shape} for N={n}")
        if not (1 <= self.n_classes <= IGNORE_LABEL):
            raise DataError(f"n_classes must be in [1, {IGNORE_LABEL}], got {self.n_classes}")
        if not np.isfinite(pos).all() or not np.isfinite(feat).all():
            raise DataError("positions and features must be finite")
        real = lab != IGNORE_LABEL
        if np.any((lab[real] < 0) | (lab[real] >= self.n_classes)):
            raise DataError(f"labels must lie in [0, {self.n_classes}) or be {IGNORE_LABEL}")
        for a in (pos, feat, lab):
            a.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "features", feat)
        object.__setattr__(self, "labels", lab)

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    @property
    def d_in(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class FixedSample:
    """A cloud resampled to an exact point count, with a validity mask."""

    cloud: PointCloud
    mask: np.ndarray  # (N_fixed,) bool; False marks zero-padded rows

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.mask, dtype=bool))
        if m.shape != (self.cloud.n_points,):
            raise DataError("mask length must equal the fixed point count")
        pad = ~m
        if np.any(self.cloud.labels[pad] != IGNORE_LABEL):
            raise DataError("padded rows must carry the IGNORE label")
        m.flags.writeable = False
        object.__setattr__(self, "mask", m)

    @property
    def n_fixed(self) -> int:
        return self.cloud.n_points


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of the synthetic labeled-scene generator."""

    n_classes: int = 8
    points_per_scene: int = 2048
    n_scenes: int = 80
    radial_extent: float = 10.0
    height_extent: float = 4.0
    noise_std: float = 0.08
    decay_ratio: float = 0.7
    label_fraction: float = 1.0
    label_noise: float = 0.0
    cue_noise: float = 0.25
    seed: int = 0
    d_in: int = field(default=2, init=False)

    def __post_init__(self):
        floats = ("radial_extent", "height_extent", "noise_std", "decay_ratio",
                  "label_fraction", "label_noise", "cue_noise")
        bad = [name for name in floats if not np.isfinite(getattr(self, name))]
        if bad:
            raise ConfigError(f"{', '.join(bad)} must be finite")
        if self.n_classes < 1 or self.points_per_scene < 1 or self.n_scenes < 1:
            raise ConfigError("n_classes, points_per_scene and n_scenes must be >= 1")
        if self.n_classes > IGNORE_LABEL - 1:
            raise ConfigError(f"n_classes must be < {IGNORE_LABEL}")
        if self.radial_extent <= 0 or self.height_extent <= 0:
            raise ConfigError("scene extents must be positive")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be nonnegative")
        if not 0 < self.decay_ratio <= 1:
            raise ConfigError("decay_ratio must be in (0, 1]")
        if not 0 < self.label_fraction <= 1:
            raise ConfigError("label_fraction must be in (0, 1]")
        if self.cue_noise < 0:
            raise ConfigError("cue_noise must be nonnegative")
        if not 0 <= self.label_noise < 1:
            raise ConfigError("label_noise must be in [0, 1)")


def _class_counts(spec: SceneSpec) -> np.ndarray:
    """Geometric-decay allocation of points to classes, summing exactly."""
    w = spec.decay_ratio ** np.arange(spec.n_classes)
    raw = w / w.sum() * spec.points_per_scene
    counts = np.floor(raw).astype(int)
    # hand out the remainder to the largest fractional parts
    short = spec.points_per_scene - counts.sum()
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:short]] += 1
    # every class contributes at least one point when there is room
    for c in range(spec.n_classes):
        if counts[c] == 0:
            donor = int(np.argmax(counts))
            if counts[donor] > 1:
                counts[donor] -= 1
                counts[c] += 1
    return counts


def _ground_points(rng, n, spec):
    # annulus in the XY plane at z ~ 0
    r = spec.radial_extent * np.sqrt(rng.uniform(0.04, 1.0, n))
    a = rng.uniform(0.0, 2 * np.pi, n)
    return np.column_stack([r * np.cos(a), r * np.sin(a), np.zeros(n)])


def _box_points(rng, n, center, half):
    # uniform over the box surface, weighted by face area
    areas = np.array([half[1] * half[2], half[0] * half[2], half[0] * half[1]])
    face = rng.choice(3, size=n, p=areas / areas.sum())
    side = rng.choice([-1.0, 1.0], size=n)
    pts = rng.uniform(-1.0, 1.0, (n, 3)) * half
    pts[np.arange(n), face] = side * half[face]
    return pts + center


def _pole_points(rng, n, center, radius, height):
    a = rng.uniform(0.0, 2 * np.pi, n)
    z = rng.uniform(0.0, height, n)
    return np.column_stack([center[0] + radius * np.cos(a),
                            center[1] + radius * np.sin(a), z])


def _sphere_points(rng, n, center, radius):
    v = rng.standard_normal((n, 3))
    v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)
    return center + radius * v


def generate_scene(spec: SceneSpec, scene_index: int) -> PointCloud:
    """Deterministic synthetic scene for (spec.seed, scene_index).

    Class 0 is a ground annulus; higher classes are boxes, poles and
    spheres in cyclic order. Per-point input features are deliberately
    ambiguous across class groups so that geometric context carries part
    of the label information.
    """
    if not 0 <= scene_index < spec.n_scenes:
        raise ConfigError(f"scene_index {scene_index} out of range [0, {spec.n_scenes})")
    rng = derive_seed(spec.seed, scene_index)
    counts = _class_counts(spec)
    R, H = spec.radial_extent, spec.height_extent

    pos_parts, lab_parts = [], []
    for c, n_c in enumerate(counts):
        if n_c == 0:
            continue
        if c == 0:
            pos_parts.append(_ground_points(rng, n_c, spec))
        else:
            kind = _PRIMITIVES[(c - 1) % len(_PRIMITIVES)]
            n_inst = int(rng.integers(1, 4))
            splits = np.array_split(np.arange(n_c), n_inst)
            chunk = []
            for idx in splits:
                if idx.size == 0:
                    continue
                ang = rng.uniform(0, 2 * np.pi)
                rad = rng.uniform(0.15, 0.8) * R
                cx, cy = rad * np.cos(ang), rad * np.sin(ang)
                if kind == "box":
                    half = rng.uniform(0.3, 0.9, 3)
                    chunk.append(_box_points(rng, idx.size,
                                             np.array([cx, cy, half[2]]), half))
                elif kind == "pole":
                    h = rng.uniform(0.5, 0.85 * H)
                    chunk.append(_pole_points(rng, idx.size, (cx, cy),
                                              rng.uniform(0.05, 0.2), h))
                else:
                    r_s = rng.uniform(0.3, 0.9)
                    cz = rng.uniform(r_s, max(H - r_s, r_s + 1e-6))
                    chunk.append(_sphere_points(rng, idx.size,
                                                np.array([cx, cy, cz]), r_s))
            pos_parts.append(np.vstack(chunk))
        lab_parts.append(np.full(n_c, c, dtype=np.int64))

    positions = np.vstack(pos_parts)
    labels = np.concatenate(lab_parts)
    positions = positions + rng.normal(0.0, spec.noise_std, positions.shape)

    # feature 0: strong cue on (class mod 4); feature 1: weak cue on (class div 4).
    # Classes c and c+4 share feature-0 statistics, so geometry must separate them.
    f0 = (labels % 4) / 3.0 + rng.normal(0.0, spec.cue_noise, labels.shape)
    f1 = (labels // 4).astype(np.float64) + rng.normal(0.0, 1.0, labels.shape)
    features = np.column_stack([f0, f1])

    perm = rng.permutation(positions.shape[0])
    positions, features, labels = positions[perm], features[perm], labels[perm]

    # Sparse annotation: hide a uniformly chosen subset of ground-truth labels.
    n = labels.shape[0]
    n_hidden = n - int(round(spec.label_fraction * n))
    if n_hidden > 0:
        hidden = rng.choice(n, size=n_hidden, replace=False)
        labels = labels.copy()
        labels[hidden] = IGNORE_LABEL

    # Annotation noise: mislabel surviving points with a uniform wrong class.
    if spec.label_noise > 0 and spec.n_classes > 1:
        labels = labels.copy()
        labeled = np.flatnonzero(labels != IGNORE_LABEL)
        flip = labeled[rng.random(labeled.size) < spec.label_noise]
        offset = rng.integers(1, spec.n_classes, flip.size)
        labels[flip] = (labels[flip] + offset) % spec.n_classes
    return PointCloud(positions, features, labels,
                      n_classes=spec.n_classes, id=f"scene-{scene_index:04d}")


def resample_fixed(cloud: PointCloud, n_fixed: int, seed: int) -> FixedSample:
    """Resample a cloud to exactly n_fixed points.

    Oversized clouds are uniformly subsampled without replacement (seeded);
    undersized clouds are zero-padded with IGNORE labels and mask=False.
    """
    if n_fixed < 1:
        raise ConfigError("n_fixed must be >= 1")
    n = cloud.n_points
    if n > n_fixed:
        rng = derive_seed(seed)
        keep = np.sort(rng.choice(n, size=n_fixed, replace=False))
        out = PointCloud(cloud.positions[keep], cloud.features[keep],
                         cloud.labels[keep], cloud.n_classes, cloud.id)
        mask = np.ones(n_fixed, dtype=bool)
    elif n < n_fixed:
        pad = n_fixed - n
        positions = np.vstack([cloud.positions, np.zeros((pad, 3))])
        features = np.vstack([cloud.features, np.zeros((pad, cloud.d_in))])
        labels = np.concatenate([cloud.labels,
                                 np.full(pad, IGNORE_LABEL, dtype=np.int64)])
        out = PointCloud(positions, features, labels, cloud.n_classes, cloud.id)
        mask = np.concatenate([np.ones(n, dtype=bool), np.zeros(pad, dtype=bool)])
    else:
        out = cloud
        mask = np.ones(n_fixed, dtype=bool)
    return FixedSample(out, mask)


# ---------------------------------------------------------------------------
# File format
#
#   .pcbin  magic "PCB1", little-endian u32 N, D, C, then N records of
#           (3+D) float64 followed by one u16 label.
# ---------------------------------------------------------------------------

_PCBIN_MAGIC = b"PCB1"


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temp file beside `path` that replaces it only once complete.

    The file is flushed to disk and renamed over `path` when the block
    exits normally. If the block raises (KeyboardInterrupt included), the
    temp file is removed, so `path` is never left half-written.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_cloud(cloud: PointCloud, path) -> None:
    path = Path(path)
    if path.suffix != ".pcbin":
        raise ConfigError(f"unknown point-cloud extension: {path.suffix!r}")
    n, d, c = cloud.n_points, cloud.d_in, cloud.n_classes
    rec = np.dtype([("vals", "<f8", (3 + d,)), ("label", "<u2")])
    body = np.empty(n, dtype=rec)
    body["vals"][:, :3] = cloud.positions
    body["vals"][:, 3:] = cloud.features
    body["label"] = cloud.labels.astype(np.uint16)
    with atomic_open(path, "wb") as f:
        f.write(_PCBIN_MAGIC)
        f.write(struct.pack("<III", n, d, c))
        f.write(body.tobytes())


def read_cloud(path) -> PointCloud:
    path = Path(path)
    if path.suffix != ".pcbin":
        raise ConfigError(f"unknown point-cloud extension: {path.suffix!r}")
    raw = path.read_bytes()
    if raw[:4] != _PCBIN_MAGIC:
        raise ParseError(f"{path}: bad magic, not a PCB1 file")
    if len(raw) < 16:
        raise ParseError(f"{path}: truncated header")
    n, d, c = struct.unpack_from("<III", raw, 4)
    if n == 0:
        raise ParseError(f"{path}: header declares no records")
    expected = 16 + n * (8 * (3 + d) + 2)  # checked before d sizes a dtype
    if len(raw) != expected:
        raise ParseError(f"{path}: expected {expected} bytes for {n} records, got {len(raw)}")
    rec = np.dtype([("vals", "<f8", (3 + d,)), ("label", "<u2")])
    body = np.frombuffer(raw, dtype=rec, count=n, offset=16)
    vals = body["vals"]
    labels = body["label"].astype(np.int64)
    if not np.isfinite(vals).all():
        bad = int(np.where(~np.isfinite(vals).all(axis=1))[0][0])
        raise ParseError(f"{path}: record {bad}: non-finite value")
    real = labels != IGNORE_LABEL
    if np.any(labels[real] >= c):
        bad = int(np.where(real & (labels >= c))[0][0])
        raise ParseError(f"{path}: record {bad}: label {labels[bad]} out of range for C={c}")
    return PointCloud(vals[:, :3].copy(), vals[:, 3:].copy(), labels,
                      n_classes=c, id=path.stem)
