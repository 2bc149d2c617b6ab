"""Cylindrical two-level partitioning and class-balanced supervoxel sampling.

Terminology used throughout the package: the coarse cylindrical cells are
the *supervoxels* (the sampled units), each subdivided into sub_div^3 fine
*voxels*; raw points are the finest level. A supervoxel's sampling weight
is (tau_class / N_v) * (D_i / R) where D_i is the outer-contour distance
of its radial ring and tau_class = 1 - C_current / C_total favors rare
majority classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import IGNORE_LABEL, FixedSample, derive_seed
from .errors import ConfigError, DataError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CylGrid:
    """Coarse cylindrical grid: radial x angular x height cells."""

    radial_extent: float          # R, meters
    height_extent: float          # H, meters
    h_min: float                  # height origin
    r_cell: float                 # R_v
    a_cell: float                 # A_v, radians
    h_cell: float                 # H_v

    def __post_init__(self):
        if self.radial_extent <= 0 or self.height_extent <= 0:
            raise ConfigError("grid extents must be positive")
        if not 0 < self.r_cell <= self.radial_extent:
            raise ConfigError("need 0 < r_cell <= radial_extent")
        if not 0 < self.a_cell <= TWO_PI:
            raise ConfigError("need 0 < a_cell <= 2*pi")
        if not 0 < self.h_cell <= self.height_extent:
            raise ConfigError("need 0 < h_cell <= height_extent")

    @property
    def n_radial(self) -> int:
        return math.ceil(self.radial_extent / self.r_cell)

    @property
    def n_angular(self) -> int:
        return math.ceil(TWO_PI / self.a_cell)

    @property
    def n_height(self) -> int:
        return math.ceil(self.height_extent / self.h_cell)


def voxel_count(grid: CylGrid) -> int:
    """Total coarse cell count ceil(R/R_v) * ceil(A/A_v) * ceil(H/H_v)."""
    return grid.n_radial * grid.n_angular * grid.n_height


@dataclass(frozen=True)
class SamplerConfig:
    """How many supervoxels to sample and their fixed feature-row counts.

    A supervoxel has at most sub_div**3 fine voxels: 8 at the defaults,
    fewer than n_voxel = 16, so at least half of every voxel view is
    padding there.
    """

    k: int = 4
    n_point: int = 128
    n_voxel: int = 16
    sub_div: int = 2

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.n_point < 2 or self.n_voxel < 2:
            raise ConfigError("n_point and n_voxel must be >= 2 (affinity needs pairs)")
        if self.sub_div < 1:
            raise ConfigError("sub_div must be >= 1")


@dataclass(frozen=True)
class Supervoxel:
    """A sampled coarse cell: member indices plus fixed-size pooling plans.

    point_indices/point_mask select N_point feature rows from the sample;
    kept slots are a prefix (padded entries index row 0, masked out). The
    valid voxel rows, also a prefix, are the kept non-empty fine voxels:
    voxel_members lists their members grouped by row (ascending within a
    row), and row r's segment begins at voxel_starts[r]. Fine voxels
    partition the members, so no point appears twice; the plans hold
    O(members) integers.
    """

    grid_index: tuple[int, int, int]
    member_indices: np.ndarray
    outer_distance: float      # D_i, clamped to R
    tau_class: float
    weight: float              # w_i = (tau / N_v) * (D_i / R)
    point_indices: np.ndarray  # (N_point,) intp
    point_mask: np.ndarray     # (N_point,) bool
    voxel_members: np.ndarray  # (members of the kept fine voxels,) intp
    voxel_starts: np.ndarray   # (kept fine voxels,) intp, 0 first, rising
    voxel_mask: np.ndarray     # (N_voxel,) bool


def to_cylindrical(positions: np.ndarray) -> np.ndarray:
    """(x, y, z) -> (r, angle in [0, 2*pi), h)."""
    positions = np.asarray(positions, dtype=np.float64)
    r = np.hypot(positions[..., 0], positions[..., 1])
    a = np.arctan2(positions[..., 1], positions[..., 0])
    a = np.where(a < 0, a + TWO_PI, a)
    a = np.where(a >= TWO_PI, 0.0, a)  # guard against round-up at 2*pi
    return np.stack([r, a, positions[..., 2]], axis=-1)


def coarse_indices(grid: CylGrid, positions: np.ndarray) -> np.ndarray:
    """Cell index triple per point; out-of-range points clamp to edge cells."""
    cyl = to_cylindrical(positions)
    i_r = np.clip((cyl[:, 0] / grid.r_cell).astype(np.int64), 0, grid.n_radial - 1)
    i_a = np.clip((cyl[:, 1] / grid.a_cell).astype(np.int64), 0, grid.n_angular - 1)
    i_h = np.clip(((cyl[:, 2] - grid.h_min) / grid.h_cell).astype(np.int64),
                  0, grid.n_height - 1)
    return np.stack([i_r, i_a, i_h], axis=1)


def fine_indices(grid: CylGrid, positions: np.ndarray, coarse: np.ndarray,
                 sub_div: int) -> np.ndarray:
    """Flat fine-voxel index within each point's coarse cell."""
    cyl = to_cylindrical(positions)
    cells = np.array([grid.r_cell, grid.a_cell, grid.h_cell])
    origin = coarse * cells + np.array([0.0, 0.0, grid.h_min])
    local = (cyl - origin) / cells * sub_div
    sub = np.clip(local.astype(np.int64), 0, sub_div - 1)
    return (sub[:, 0] * sub_div + sub[:, 1]) * sub_div + sub[:, 2]


def tau_class(member_labels: np.ndarray, batch_histogram: np.ndarray) -> float:
    """1 - C_current / C_total for the supervoxel's majority class.

    C_current is the batch-wide count of the majority class among the
    members (ties break to the smaller class id); C_total is the batch-wide
    labeled point count.
    """
    labels = np.asarray(member_labels)
    labels = labels[labels != IGNORE_LABEL]
    if labels.size == 0:
        raise DataError("tau_class requires a nonempty labeled supervoxel")
    hist = np.asarray(batch_histogram, dtype=np.float64)
    counts = np.bincount(labels, minlength=hist.size)
    majority = int(np.argmax(counts))
    total = hist.sum()
    if total <= 0:
        raise DataError("batch histogram is empty")
    return float(1.0 - hist[majority] / total)


def supervoxel_weight(tau: float, outer_distance: float, grid: CylGrid) -> float:
    """Sampling weight (tau / N_v) * (D_i / R)."""
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"tau must be in [0, 1], got {tau}")
    if not 0.0 <= outer_distance <= grid.radial_extent:
        raise ConfigError("outer_distance must lie in [0, R]")
    return (tau / voxel_count(grid)) * (outer_distance / grid.radial_extent)


def _fixed_subset(rng, indices: np.ndarray, n_fixed: int):
    """Pad (with -1) or seeded-subsample an index list to n_fixed entries.
    Only a subsample draws from rng, which may be None for a short list."""
    n = indices.size
    if n > n_fixed:
        keep = np.sort(rng.choice(n, size=n_fixed, replace=False))
        return indices[keep], np.ones(n_fixed, dtype=bool)
    out = np.full(n_fixed, -1, dtype=np.intp)
    out[:n] = indices
    mask = np.zeros(n_fixed, dtype=bool)
    mask[:n] = True
    return out, mask


def build_supervoxels(sample: FixedSample, grid: CylGrid, cfg: SamplerConfig,
                      batch_histogram: np.ndarray, seed: int = 0) -> list[Supervoxel]:
    """One Supervoxel per non-empty coarse cell of a fixed sample.

    Point rows and fine-voxel rows are padded/truncated to cfg.n_point and
    cfg.n_voxel (truncation is a seeded uniform subsample). Empty fine
    voxels are dropped before padding.
    """
    valid = np.flatnonzero(sample.mask)
    if valid.size == 0:
        return []
    positions = sample.cloud.positions[valid]
    labels = sample.cloud.labels[valid]
    coarse = coarse_indices(grid, positions)
    fine = fine_indices(grid, positions, coarse, cfg.sub_div)

    flat = (coarse[:, 0] * grid.n_angular + coarse[:, 1]) * grid.n_height + coarse[:, 2]
    out: list[Supervoxel] = []
    for cell in np.unique(flat):
        in_cell = np.flatnonzero(flat == cell)
        members = valid[in_cell]
        i_r, rem = divmod(int(cell), grid.n_angular * grid.n_height)
        i_a, i_h = divmod(rem, grid.n_height)

        d_i = min((i_r + 1) * grid.r_cell, grid.radial_extent)
        cell_labels = labels[in_cell]
        if np.all(cell_labels == IGNORE_LABEL):
            # cells with no annotated point carry no class-balance signal
            tau, w = 0.0, 0.0
        else:
            tau = tau_class(cell_labels, batch_histogram)
            w = supervoxel_weight(tau, d_i, grid)

        # members of each non-empty fine voxel, grouped into segments
        sub = fine[in_cell]
        by_voxel = np.argsort(sub, kind="stable")
        counts = np.bincount(sub)
        counts = counts[counts > 0]
        # The cell's generator is derived only when a cap truncates: the
        # point subsample draws first, then the fine-voxel permutation.
        rng = derive_seed(seed, i_r, i_a, i_h) \
            if members.size > cfg.n_point or counts.size > cfg.n_voxel else None
        point_idx, point_mask = _fixed_subset(rng, members.astype(np.intp), cfg.n_point)
        point_idx = np.where(point_idx < 0, 0, point_idx)
        if counts.size > cfg.n_voxel:
            keep = np.zeros(counts.size, dtype=bool)
            keep[rng.permutation(counts.size)[:cfg.n_voxel]] = True
        else:
            keep = np.ones(counts.size, dtype=bool)
        voxel_members = members[by_voxel[np.repeat(keep, counts)]]
        lengths = counts[keep]
        voxel_starts = np.cumsum(lengths) - lengths
        voxel_mask = np.arange(cfg.n_voxel) < lengths.size

        out.append(Supervoxel((i_r, i_a, i_h), members, float(d_i), tau, w,
                              point_idx, point_mask, voxel_members,
                              voxel_starts, voxel_mask))
    return out


def sample_supervoxels(candidates: list[Supervoxel], k: int,
                       seed: int) -> list[Supervoxel]:
    """Weighted sampling of k supervoxels without replacement.

    Selection is proportional to w_i. If fewer than k candidates carry
    nonzero weight, all weighted ones are taken and the remainder is drawn
    uniformly from the zero-weight candidates; with no nonzero weights at
    all, sampling falls back to uniform over the non-empty candidates.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    if not candidates:
        return []
    rng = derive_seed(seed)
    n = len(candidates)
    if k >= n:
        return [candidates[i] for i in rng.permutation(n)]
    w = np.array([sv.weight for sv in candidates], dtype=np.float64)
    nonzero = np.flatnonzero(w > 0)
    if nonzero.size == 0:
        chosen = rng.choice(n, size=k, replace=False)
    elif nonzero.size <= k:
        fill = rng.choice(np.flatnonzero(w == 0), size=k - nonzero.size,
                          replace=False) if k > nonzero.size else np.empty(0, np.intp)
        chosen = rng.permutation(np.concatenate([nonzero, fill.astype(np.intp)]))
    else:
        chosen = rng.choice(n, size=k, replace=False, p=w / w.sum())
    return [candidates[int(i)] for i in chosen]


def batch_label_histogram(samples, n_classes: int) -> np.ndarray:
    """Batch-wide labeled point counts, IGNORE excluded."""
    hist = np.zeros(n_classes, dtype=np.int64)
    for s in samples:
        lab = s.cloud.labels[s.mask]
        lab = lab[lab != IGNORE_LABEL]
        hist += np.bincount(lab, minlength=n_classes)
    return hist
