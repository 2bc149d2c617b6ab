"""The six distillation loss terms and their weighted total.

Student-side inputs are autodiff Tensors so gradients flow back to the
student encoder, head and channel projection; teacher-side inputs are
plain arrays (the teacher is frozen). Each of the six terms is one tape
op whose hand-derived gradient is formed with its value: the task loss
from the row log-softmax of the logits, logit KD and the channel term by
one masked softmax-KL kernel (`_softmax_kl`). The cross-sample
batch geometry loss, which dominates the training step at full scale,
walks the N x N block pairs of the batch on W worker threads and never
forms the (B*N)^2 gram (`loss_batch_gd`); its (B*N, D) working arrays are
filled a sample at a time, at the walk's precision.
Those threads come from `map_in_order`, the package's one thread pool,
which also runs the trainer's per-scene passes. The walk is the one place
that may work below float64: its `dtype` selects float64 blocks (the
default, the reference that gradient checks and oracles use) or float32
ones (the fast path, which the training loop asks for); its loss and
gradient are float64 sums either way. Everything else is float64.
The teacher's log-partitions come from the walk itself: every walk
exponentiates the teacher blocks it forms anyway, at its working
precision. `gd_teacher_log_z` is their independent float64 oracle.

`supervoxel_features` pools the S sampled supervoxels of a batch from a
list of per-sample maps into stacked (S*n, D) point and voxel Tensors, one
tape op per kind. Each affinity (AMRA) term is one tape op over such
stacks, viewed as (S, n, D): loss and gradient come from batched numpy in
the forward pass, whose elementwise work runs on the valid rows and row
pairs only. The point and voxel terms hold at most two (S, n, n) float64
arrays at once (4 MB each at S=32, n=128): one stacked gram, then the
zero-filled buffer of the per-supervoxel sums; the rest are vectors over
the valid pairs. The channel term works on the gathered valid rows. Each
supervoxel's sum runs over its own zero-filled slice and the supervoxels
are added left to right, so the values are bit-identical to a loop over
the padded views.

Formula conventions (documented because the source material is loose):
  * Logit and similarity KL use softmax(Z / T), with the student
    distribution as the first KL argument.
  * The channel-wise loss is the channel-softmax KL between matched
    student/teacher rows, averaged separately over valid point rows and
    valid voxel rows, then summed; no temperature.
  * The batch geometry loss sums over ordered sample pairs including
    self-pairs, normalized by 1/B^2.
  * Padded rows/columns are excluded everywhere; normalizers count only
    valid elements, except the affinity losses which keep the fixed
    1/N_point^2 (1/N_voxel^2) normalization of their defining formulas
    (masked entries are zero in both operands and cancel).
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor, segment_mean
from .errors import (ConfigError, DataError, NumericError, PairingError,
                     ShapeError, UndefinedLossError)
from .cloud import IGNORE_LABEL
from .numerics import check_temperature, l2_normalize_rows, log_softmax_rows
from .voxelize import Supervoxel

# Rows of the P and Q strips the batch-GD gradient pass forms at a time.
_STRIP_ROWS = 64
# Smaller blocks (and scenes) cost less than handing them to a thread: at
# B=8 the threaded block walk breaks even near N=128 and is 4x slower at N=16.
_MIN_THREADED_ROWS = 256

# Working precisions of the batch-GD block walk (`loss_batch_gd`).
GD_PRECISIONS = ("float32", "float64")
# |S_ij| <= 1/t_gd, and the teacher block the float32 walk exponentiates for
# its own log-partitions holds the same |T_ij| <= 1/t_gd, so exp(S_ij),
# exp(T_ij) and their row sums, N exp(1/t) 2/t at most, stay finite for any
# N below 4e8 at t_gd >= 1/64.
_FLOAT32_MIN_T_GD = 1 / 64

LOSS_NAMES = ("l_task", "l_kd", "l_amra_p", "l_amra_v", "l_amra_c", "l_batch_gd")
# The `LossWeights` field that weighs each of LOSS_NAMES[1:], in that order.
LAMBDAS = ("lambda_kd", "lambda_p", "lambda_v", "lambda_c", "lambda_batch_gd")


def _check_gd_walk(temperature: float, dtype) -> None:
    """ConfigError unless a batch-GD walk at `dtype` can run at this
    temperature: dtype is one of GD_PRECISIONS, the temperature finite and
    positive, and at least 1/64 in float32."""
    check_temperature(temperature)
    if dtype not in GD_PRECISIONS:
        raise ConfigError(f"batch-GD dtype must be one of "
                          f"{', '.join(GD_PRECISIONS)}, got {dtype!r}")
    if dtype == "float32" and temperature < _FLOAT32_MIN_T_GD:
        raise ConfigError(f"t_gd must be at least 1/64 for the float32 "
                          f"batch-GD walk, got {temperature}")


@dataclass(frozen=True)
class LossWeights:
    """Balancing weights and temperatures of the total objective."""

    lambda_kd: float = 0.3
    lambda_p: float = 0.001
    lambda_v: float = 0.001
    lambda_c: float = 1000.0
    lambda_batch_gd: float = 0.1
    t_logit: float = 2.0
    t_gd: float = 2.0

    def __post_init__(self):
        if any(not np.isfinite(v) or v < 0 for v in self.lambdas()):
            raise ConfigError("loss weights must be finite and nonnegative")
        check_temperature(self.t_logit)
        # every training run walks batch-GD in float32
        _check_gd_walk(self.t_gd, "float32")

    def lambdas(self) -> tuple[float, ...]:
        """The `LAMBDAS` values, in that order."""
        return tuple(getattr(self, name) for name in LAMBDAS)

    @classmethod
    def zeros(cls) -> "LossWeights":
        return cls(**dict.fromkeys(LAMBDAS, 0.0))


def weighted_total(components: dict, weights: LossWeights):
    """Recombination l_task + sum(lambda_i * l_i), summed left to right in
    `LOSS_NAMES` order. On floats it is a float; with any Tensor component
    it is one tape op whose edge into each Tensor term returns g * lambda_i
    (g * 1.0 for l_task). A float component is a constant."""
    scales = (1.0,) + weights.lambdas()
    terms = [components[name] for name in LOSS_NAMES]
    values = [getattr(t, "data", t) for t in terms]
    total = values[0]
    for scale, value in zip(scales[1:], values[1:]):
        total = total + scale * value
    edges = [(t, lambda g, s=s: g * s) for t, s in zip(terms, scales)
             if isinstance(t, Tensor)]
    return Tensor.from_op(total, edges) if edges else total


def loss_total(components: dict, weights: LossWeights) -> dict[str, float]:
    """The `LOSS_NAMES` components (floats or scalar Tensors) as floats, then
    their weighted `l_total`; raises NumericError naming any non-finite one."""
    comps = {name: float(getattr(components[name], "data", components[name]))
             for name in LOSS_NAMES}
    bad = [n for n, v in comps.items() if not np.isfinite(v)]
    if bad:
        raise NumericError(f"non-finite loss component(s): {', '.join(bad)}")
    comps["l_total"] = float(weighted_total(comps, weights))
    return comps


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _row_vector(a, n: int, what: str) -> np.ndarray:
    """a as an array, ShapeError unless it is (n,): one entry per row."""
    a = np.asarray(a)
    if a.shape != (n,):
        raise ShapeError(f"{what} must be ({n},), got {a.shape}")
    return a


def _grad_edge(t: Tensor, grad: np.ndarray):
    """Edge of a scalar op into the stacked Tensor t: g * grad, in t's shape."""
    shape = t.shape
    return t, lambda g: float(g) * grad.reshape(shape)


# ---------------------------------------------------------------------------
# Task and logit-KD losses
# ---------------------------------------------------------------------------

def loss_task(logits, labels: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Mean cross-entropy over unmasked labeled points, one tape op. Raises
    ShapeError unless labels and mask are (N,), and DataError for a counted
    label outside [0, C).

    With z = x - rowmax(x), e = exp(z) and s = rowsum(e), a counted row
    scores z[label] - log(s), and its gradient is w e / s less w at the
    label, w = 1 / n_valid; other rows get +0.0. These are the numpy
    operations of the composed log-softmax tape chain the tests keep as the
    reference, so values and gradients equal that chain's bit for bit.
    """
    logits = _as_tensor(logits)
    n, c = logits.shape
    labels = _row_vector(labels, n, "loss_task labels")
    valid = labels != IGNORE_LABEL
    if mask is not None:
        valid = valid & _row_vector(mask, n, "loss_task mask").astype(bool)
    if not valid.any():
        raise UndefinedLossError("loss_task: zero labeled points")
    if np.any((labels[valid] < 0) | (labels[valid] >= c)):
        raise DataError(f"loss_task: a label outside [0, {c}) is not IGNORE_LABEL")
    rows, cols = np.flatnonzero(valid), labels[valid]
    w = 1.0 / rows.size
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-1, keepdims=True)
    picked = np.zeros(n)
    picked[rows] = z[rows, cols] - np.log(s[rows, 0])      # log p at the label
    grad = (valid * w)[:, None] / s * e
    grad[rows, cols] -= w
    return Tensor.from_op(-(picked.sum() * w), [_grad_edge(logits, grad)])


def _softmax_kl(zs: np.ndarray, zt: np.ndarray, m: np.ndarray,
                temperature: float, divisor: float) -> tuple[np.ndarray, np.ndarray]:
    """Per group of a (G, n, C) stack, the mean of KL(softmax(zs/T) ||
    softmax(zt/T)) over the n_valid rows the (G, n) bool mask m keeps, and
    the gradient of the means' sum / divisor with respect to zs/T: a kept
    row r gets p_s (log p_s - log p_t - KL_r) / (n_valid divisor), the
    others zero.

    Every row operation is row-local, so it runs on the kept rows only,
    gathered into one (sum n_valid, C) block (a view when no row is
    padded). Their KL values are put back in a zero-filled (G, n) array
    before the group sums, which therefore add in the same order as over
    the padded stack.
    """
    n_valid = m.sum(axis=1)
    if np.any(n_valid == 0):
        raise UndefinedLossError("no valid rows in reduction")
    rows = slice(None) if n_valid.sum() == m.size else np.flatnonzero(m)
    c = zs.shape[-1]
    ls_s = log_softmax_rows(zs.reshape(-1, c)[rows], temperature)
    g = ls_s - log_softmax_rows(zt.reshape(-1, c)[rows], temperature)
    p_s = np.exp(ls_s)
    kl_rows = (p_s * g).sum(axis=1)
    g -= kl_rows[:, None]
    g *= p_s
    g *= np.repeat(1.0 / (n_valid * divisor), n_valid)[:, None]
    kl, grad = np.zeros(m.shape), np.zeros(zs.shape)
    kl.flat[rows] = kl_rows
    grad.reshape(-1, c)[rows] = g
    return kl.sum(axis=1) * (1.0 / n_valid), grad


def loss_kd(student_logits, teacher_logits, temperature: float,
            mask: np.ndarray | None = None) -> Tensor:
    """Mean per-point KL(softmax(Z_s/T) || softmax(Z_t/T)); student first.
    Raises ConfigError for a non-finite or non-positive T and ShapeError
    unless the mask is (N,)."""
    check_temperature(temperature)
    zs = _as_tensor(student_logits)
    zt = np.asarray(teacher_logits, dtype=np.float64)
    if zs.shape != zt.shape or zs.data.ndim != 2:
        raise ShapeError(f"loss_kd needs equal (N, C) logits, got {zs.shape} vs {zt.shape}")
    n = zs.shape[0]
    m = np.ones(n, dtype=bool) if mask is None else \
        _row_vector(mask, n, "loss_kd mask").astype(bool)
    # one group; divisor T turns the gradient at Z_s/T into the one at Z_s
    value, grad = _softmax_kl(zs.data[None], zt[None], m[None], temperature, temperature)
    return Tensor.from_op(value[0], [_grad_edge(zs, grad)])


# ---------------------------------------------------------------------------
# Affinity (AMRA) losses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupervoxelFeatures:
    """Fixed-size feature blocks of S sampled supervoxels under one encoder,
    stacked: rows s*n .. (s+1)*n - 1 of a block are supervoxel s's rows."""

    point_features: Tensor     # (S * N_point, D), masked rows zero
    voxel_features: Tensor     # (S * N_voxel, D), masked rows zero
    point_mask: np.ndarray     # (S, N_point) bool
    voxel_mask: np.ndarray     # (S, N_voxel) bool
    weight: np.ndarray         # (S,) float64


def supervoxel_features(maps, chosen: list[list[Supervoxel]]) -> SupervoxelFeatures:
    """Every sampled supervoxel's point rows and mean-pooled voxel rows.

    Sample b's supervoxels chosen[b] pool rows of maps[b], stacked in
    sample order. Each kind is one `autodiff.segment_mean` over all maps: a
    length-1 segment per kept point slot (its map row, bit for bit), one
    per kept fine voxel; padded rows are zero. Raises ShapeError unless
    there is one map per sample and at least one supervoxel, all of one
    (N_point, N_voxel) size.
    """
    maps = [_as_tensor(m) for m in maps]
    svs = [(b, sv) for b, group in enumerate(chosen) for sv in group]
    sizes = {(sv.point_mask.size, sv.voxel_mask.size) for _, sv in svs}
    if len(maps) != len(chosen) or len(sizes) != 1:
        raise ShapeError(f"need one map per sample ({len(maps)} for {len(chosen)}) and "
                         f"supervoxels of one (N_point, N_voxel) size, got {sorted(sizes)}")
    (n_point, n_voxel), s = sizes.pop(), len(svs)
    offsets = np.cumsum([0] + [m.shape[0] for m in maps])
    kept = [int(sv.point_mask.sum()) for _, sv in svs]
    points = np.concatenate([sv.point_indices[:k] + offsets[b]
                             for (b, sv), k in zip(svs, kept)])
    pf = segment_mean(maps, points, np.arange(points.size),
                      np.concatenate([i * n_point + np.arange(k)
                                      for i, k in enumerate(kept)]), s * n_point)
    first = np.cumsum([0] + [sv.voxel_members.size for _, sv in svs])
    vf = segment_mean(
        maps, np.concatenate([sv.voxel_members + offsets[b] for b, sv in svs]),
        np.concatenate([sv.voxel_starts + lo for (_, sv), lo in zip(svs, first)]),
        np.concatenate([i * n_voxel + np.arange(sv.voxel_starts.size)
                        for i, (_, sv) in enumerate(svs)]), s * n_voxel)
    return SupervoxelFeatures(pf, vf, np.stack([sv.point_mask for _, sv in svs]),
                              np.stack([sv.voxel_mask for _, sv in svs]),
                              np.array([sv.weight for _, sv in svs], dtype=np.float64))


def _check_paired(views_s: SupervoxelFeatures, views_t: SupervoxelFeatures):
    if not views_s.weight.size or not all(
            np.array_equal(getattr(views_s, f), getattr(views_t, f))
            for f in ("point_mask", "voxel_mask", "weight")):
        raise PairingError("student/teacher supervoxels are missing or "
                           "disagree on masks or weights")


def _blocks(views: SupervoxelFeatures, kind: str):
    """The `kind` ("point" or "voxel") rows as an (S, n, D) array (a view of
    the stacked Tensor's data) and the (S, n) bool mask."""
    f = getattr(views, f"{kind}_features").data
    m = np.asarray(getattr(views, f"{kind}_mask"), dtype=bool)
    if m.ndim != 2 or f.ndim != 2 or f.shape[0] != m.size:
        raise ShapeError(f"{kind} features {f.shape} do not stack an {m.shape} mask")
    return f.reshape(m.shape + f.shape[1:]), m


def _mean_in_order(values) -> float:
    """Sum left to right, as a loop over the supervoxels adds, times 1/S."""
    return functools.reduce(operator.add, values) * (1.0 / len(values))


def _affinity_gap(views_s: SupervoxelFeatures, views_t: SupervoxelFeatures,
                  kind: str) -> Tensor:
    """Mean over the supervoxels of sum((D_s - D_t)^2) / n^2 as one tape op.

    D = w ||F_i - F_j||^2 on the valid pairs of a supervoxel of weight w
    (i != j, both rows kept) and zero on the others. With
    H = 2 w (D_s - D_t) / (n^2 S) on the valid pairs, supervoxel s gets the
    gradient 4 (rowsum(H) F - H @ F) on its kept rows, zero on padded ones.

    The elementwise work runs on the valid pairs and rows only, gathered by
    flat index; the grams stay one stacked (S, n, D) @ (S, D, n) call,
    whose output bits would change with its shape. The squared gaps, then
    H, are put back into one zero-filled (S, n^2) buffer before the
    per-supervoxel sums, so numpy's pairwise sums add in the same order as
    over the padded stack, and H @ F is a stacked call too.
    """
    _check_paired(views_s, views_t)
    fs, m = _blocks(views_s, kind)
    ft = _blocks(views_t, kind)[0]
    s, n = m.shape
    pairs = m[:, :, None] & m[:, None, :]
    pairs[:, np.arange(n), np.arange(n)] = False
    flat = np.flatnonzero(pairs)                       # s n^2 + i n + j
    sv = flat // (n * n)
    row_i, row_j = flat // n, sv * n + flat % n        # s n + i, s n + j
    w, rows = views_s.weight[sv], np.flatnonzero(m)

    def distances(f):
        """w ||F_i - F_j||^2 on the valid pairs of the (S, n, D) stack f."""
        kept = f.reshape(s * n, -1)[rows]
        sq = np.zeros(s * n)
        sq[rows] = (kept * kept).sum(axis=1)
        d = sq[row_i] + sq[row_j]
        d -= 2.0 * np.take(f @ f.transpose(0, 2, 1), flat)
        d *= w
        return d

    gap = distances(fs)
    gap -= distances(ft)
    buf = np.zeros((s, n * n))
    np.put(buf, flat, gap * gap)
    loss = _mean_in_order(buf.sum(axis=1) * (1.0 / (n * n)))
    gap *= w
    gap *= 2.0 / (n * n * s)
    np.put(buf, flat, gap)                             # H
    h = buf.reshape(s * n, n)
    f_rows = fs.reshape(s * n, -1)
    hf = (h.reshape(s, n, n) @ fs).reshape(s * n, -1)
    grad = np.zeros(f_rows.shape)
    grad[rows] = 4.0 * (h[rows].sum(axis=1)[:, None] * f_rows[rows] - hf[rows])
    return Tensor.from_op(np.float64(loss), [
        _grad_edge(getattr(views_s, f"{kind}_features"), grad)])


def loss_amra_point(views_s: SupervoxelFeatures,
                    views_t: SupervoxelFeatures) -> Tensor:
    """Mean over supervoxels of the squared point-affinity gap / N_point^2."""
    return _affinity_gap(views_s, views_t, "point")


def loss_amra_voxel(views_s: SupervoxelFeatures,
                    views_t: SupervoxelFeatures) -> Tensor:
    """Mean over supervoxels of the squared voxel-affinity gap / N_voxel^2."""
    return _affinity_gap(views_s, views_t, "voxel")


def loss_amra_channel(views_s: SupervoxelFeatures,
                      views_t: SupervoxelFeatures) -> Tensor:
    """Channel-softmax KL between matched rows, points plus voxels.

    The student views must already be projected to the teacher channel
    count. Each part is averaged over its valid rows, both parts are
    summed, and the result is averaged over the sampled supervoxels. One
    tape op: `_softmax_kl` per part at T = 1, divisor S.
    """
    _check_paired(views_s, views_t)
    edges, parts = [], []
    for kind in ("point", "voxel"):
        zs, m = _blocks(views_s, kind)
        zt = _blocks(views_t, kind)[0]
        if zs.shape[2] != zt.shape[2]:
            raise ShapeError("channel loss requires matching channel counts; "
                             "project the student features first")
        part, grad = _softmax_kl(zs, zt, m, 1.0, m.shape[0])
        parts.append(part)
        edges.append(_grad_edge(getattr(views_s, f"{kind}_features"), grad))
    return Tensor.from_op(np.float64(_mean_in_order(parts[0] + parts[1])), edges)


# ---------------------------------------------------------------------------
# Cross-sample mini-batch geometry distillation
# ---------------------------------------------------------------------------

def gd_teacher_log_z(teacher_maps: list[np.ndarray], temperature: float,
                     masks: list[np.ndarray] | None = None) -> np.ndarray:
    """Per-(row, target-sample) log partition of the teacher similarities.

    Entry [a, j] is log sum_c exp(<t_a, t_c> / T) over the valid columns c
    of sample j, for L2-normalized teacher rows t. Like the loss it walks
    the block pairs i <= j in float64: the row sums of exp(T_ij) serve the
    rows of i, its column sums those of j; each walk worker holds one N x N
    block (8 MB at N=1024). The package never calls it: `loss_batch_gd`
    forms the same partitions in its own walk (bit for bit these at
    float64). It is the independent float64 oracle the tests hold that fill
    against, and the benchmark's tracer times it.
    """
    check_temperature(temperature)
    b, n = len(teacher_maps), _points_per_sample(teacher_maps)
    ft = np.concatenate([l2_normalize_rows(m) for m in teacher_maps], axis=0)
    ft *= np.sqrt(1.0 / temperature)
    mask = _column_mask(masks, b, n)
    log_z = np.empty((b * n, b))

    def pair(i, j, ri, rj, e):
        np.exp(np.matmul(ft[ri], ft[rj].T, out=e), out=e)
        np.log(e @ mask[rj], out=log_z[ri, j])
        if i != j:
            np.log(mask[ri] @ e, out=log_z[rj, i])

    _walk_block_pairs(b, n, pair, lambda: np.empty((n, n)))
    return log_z


def _points_per_sample(*batches) -> int:
    """N, the rows every map of the batches must share; ShapeError unless
    each batch is a nonempty list of 2-D (N, D) maps of one width D."""
    maps = [m for batch in batches for m in batch]
    if not all(batches) or any(len(m.shape) != 2 for m in maps):
        raise ShapeError("a batch needs one or more 2-D (N, D) maps, got shapes "
                         f"{[tuple(m.shape) for m in maps]}")
    if len({m.shape[0] for m in maps}) != 1 or \
            any(len({m.shape[1] for m in batch}) != 1 for batch in batches):
        raise ShapeError("inconsistent point count or width across the batch")
    return maps[0].shape[0]


def _column_mask(masks: list[np.ndarray] | None, b: int, n: int) -> np.ndarray:
    """0/1 float64 vector of the valid rows of the stacked batch; ShapeError
    unless there is one (N,) mask per sample."""
    if masks is None:
        return np.ones(b * n)
    if len(masks) != b:
        raise ShapeError(f"need one mask per sample, got {len(masks)} for {b}")
    return np.concatenate([_row_vector(m, n, "batch-GD mask").astype(bool)
                           for m in masks]).astype(np.float64)


def _block_pairs(b: int, n: int):
    """Unordered sample pairs i <= j with their row slices in the stack."""
    for i in range(b):
        for j in range(i, b):
            yield i, j, slice(i * n, (i + 1) * n), slice(j * n, (j + 1) * n)


@functools.cache
def _blas_control():
    """(get, set) of the loaded OpenBLAS thread count, or None if the
    library that numpy bundles (in numpy.libs) or its symbols are not found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        so = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(so, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(so, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def _parallelism() -> int:
    """P, which sizes `map_in_order` and the trainer's sweep processes: the
    OpenBLAS thread count, capped at the usable cores; 1 without the BLAS
    control."""
    blas = _blas_control()
    if blas is None:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return min(blas[0](), cores)


def _walk_workers(n: int) -> int:
    """Threads for `map_in_order` over N x N block pairs or scenes of N
    points: P, or 1 (the serial walk) below `_MIN_THREADED_ROWS` rows."""
    return 1 if n < _MIN_THREADED_ROWS else _parallelism()


@contextlib.contextmanager
def _one_blas_thread():
    """Pin OpenBLAS to one thread inside the block; restore it on exit."""
    blas = _blas_control()
    if blas is None:
        yield
        return
    saved = blas[0]()
    blas[1](1)
    try:
        yield
    finally:
        blas[1](saved)


def map_in_order(work, items, n: int):
    """Yield work(item) for each of `items`, in item order.

    W = `_walk_workers(n)` threads, n the rows of the blocks or scenes the
    items work on, capped at len(items) when items has a length. With
    W > 1 the items run on a pool of W threads while OpenBLAS is pinned to
    one thread, so numpy's elementwise passes run on every core, not only
    the matmuls. Items are drawn from `items` lazily on the calling thread,
    at most 2W in flight, so at most 2W finished results wait for the
    calling thread (and the GIL) to take them. An exception raised by work
    reaches the caller when that item's result is due. With W = 1 no pool
    starts and the items run in turn on the calling thread.
    """
    workers = _walk_workers(n)
    if hasattr(items, "__len__"):
        workers = min(workers, len(items))
    if workers <= 1:
        yield from map(work, items)
        return
    # The pool exits (its threads joined) before BLAS threads are restored.
    with _one_blas_thread(), ThreadPoolExecutor(workers) as pool:
        pending: collections.deque = collections.deque()
        for item in items:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(work, item))
        while pending:
            yield pending.popleft().result()


def _walk_block_pairs(b: int, n: int, work, new_scratch,
                      take=lambda out: None) -> None:
    """Call work(i, j, ri, rj, scratch) for each pair of `_block_pairs`, and
    take(result) on the calling thread in that order.

    The pairs run through `map_in_order`, each thread with its own scratch
    from new_scratch(). Each worker writes only its own pair's entries;
    whatever a pair adds to shared sums goes back through `take`, in pair
    order, so every result is bit-identical to W = 1 with OpenBLAS at one
    thread. (OpenBLAS's own results can depend on its thread count: at
    N = 1000 a gemm differs in the last bits, at N = 1024 not.)
    """
    local = threading.local()

    def run(pair):
        if not hasattr(local, "scratch"):
            local.scratch = new_scratch()
        return work(*pair, local.scratch)

    for out in map_in_order(run, list(_block_pairs(b, n)), n):
        take(out)


def loss_batch_gd(student_maps: list[Tensor], teacher_maps: list[np.ndarray],
                  temperature: float, masks: list[np.ndarray] | None = None,
                  teacher_log_z: np.ndarray | None = None,
                  dtype="float64") -> Tensor:
    """Batch geometry distillation over all ordered sample pairs.

    Feature maps are L2 row-normalized internally. For each ordered pair
    (i, j) the row-softmax KL of the cross-sample similarity matrices is
    averaged over the valid rows of sample i (softmax restricted to valid
    columns of sample j); pair losses are summed with a 1/B^2 normalizer.

    Loss and gradient come from one walk over the block pairs; the
    (B*N, B*N) gram of the stacked normalized maps is never formed. As
    S_ji = S_ij^T, each block pair i <= j is computed once: from E = exp(S_ij)
    and D = S_ij - T_ij the rows of i get their softmax over the columns of j
    through E @ m_j, the rows of j theirs over the columns of i through
    m_i @ E (m: 0/1 masks). Both sides' gradient blocks combine into
    H = G_ij + G_ji^T = E * (P * D - Q), P and Q rank-2; H @ F_j goes to the
    rows of i, H^T @ F_i to those of j. `_walk_block_pairs` runs the pairs on
    W workers (the BLAS thread count, capped at the usable cores), each
    holding two N x N blocks and a 64-row strip; the results are
    bit-identical to one worker. No gradient pass if the student needs none.

    dtype is the working precision of the walk (`GD_PRECISIONS`). Its
    (B*N, D) working arrays are allocated at dtype and filled sample by
    sample, so no float64 stack of either batch is formed: the teacher rows
    normalized and scaled in float64, cast as they are stored, the student
    rows scaled at dtype. E, H and the strip are held in it too (each block
    8 MB in float64, 4 MB in float32, at N=1024).
    Each pair's partitions, expectations and gradient blocks are cast to
    float64 as they are stored, so row_kl, the gradient and the loss are
    float64 sums either way. Raises ConfigError, before walking, for a
    dtype outside GD_PRECISIONS and for a float32 walk below t = 1/64,
    where exp(S_ij) would overflow.

    Each pair first exponentiates its teacher block T_ij into E and stores
    the teacher log-partitions of both sides, before the student block
    overwrites E. teacher_log_z, a (B*N, B) array of the same teacher maps
    and masks such as `gd_teacher_log_z` forms, replaces them if given.
    They enter the loss only, never the gradient. The op has one edge per
    student map.
    """
    if not student_maps or len(student_maps) != len(teacher_maps):
        raise ShapeError("student and teacher map lists must match")
    _check_gd_walk(temperature, dtype)
    b, n = len(student_maps), _points_per_sample(student_maps, teacher_maps)
    fn_s = [_as_tensor(m).l2_normalize_rows() for m in student_maps]
    mask = _column_mask(masks, b, n)
    counts = mask.reshape(b, n).sum(axis=1)
    if np.any(counts == 0):
        raise UndefinedLossError("loss_batch_gd: a sample has no valid rows")
    row_weight = mask * np.repeat(1.0 / (b * b * counts), n)
    fill = teacher_log_z is None
    log_zt = np.empty((b * n, b)) if fill else teacher_log_z
    if np.shape(log_zt) != (b * n, b):
        raise ShapeError(f"teacher log-partitions must be ({b * n}, {b}), "
                         f"got {np.shape(log_zt)}")
    inv_t, dt, d_s = 1.0 / temperature, np.dtype(dtype), fn_s[0].shape[1]
    # The walk's working arrays, filled a sample at a time. Temperature is
    # folded into the (small) feature maps: grams come pre-scaled.
    ft_c = np.empty((b * n, teacher_maps[0].shape[1]), dt)
    fs_c, fs_w = np.empty((b * n, d_s), dt), np.empty((b * n, d_s), dt)
    for k, (f, t) in enumerate(zip(fn_s, teacher_maps)):
        rows = slice(k * n, (k + 1) * n)
        np.multiply(l2_normalize_rows(t), np.sqrt(inv_t), out=ft_c[rows])
        np.multiply(f.data, np.sqrt(inv_t), dtype=dt, out=fs_c[rows])
        fs_w[rows] = f.data
    mask_w = mask.astype(dt, copy=False)
    grad = np.zeros((b * n, d_s)) if any(f.requires_grad for f in fn_s) else None
    row_kl = np.empty((b * n, b))

    def f64(a):
        return a.astype(np.float64, copy=False)

    def pair(i, j, ri, rj, scratch):
        e, h, strip = scratch
        m_i, m_j = mask_w[ri], mask_w[rj]
        t_j, s_j = ft_c[rj], fs_c[rj]
        if i == j:  # A @ A.T on one buffer goes to syrk, 2-3x slower than gemm
            t_j, s_j = t_j.copy(), s_j.copy()
        np.matmul(ft_c[ri], t_j.T, out=h)             # teacher block T_ij
        if fill:                                      # its partitions, both sides
            np.exp(h, out=e)
            np.log(f64(e @ m_j), out=log_zt[ri, j])
            if i != j:
                np.log(f64(m_i @ e), out=log_zt[rj, i])
        np.matmul(fs_c[ri], s_j.T, out=e)             # student block S_ij
        np.subtract(e, h, out=h)                      # D = S_ij - T_ij
        np.exp(e, out=e)                              # E = exp(S_ij)
        h *= e                                        # E * D
        z_i, z_j = f64(e @ m_j), f64(m_i @ e)         # partitions, both sides
        q_i = f64(h @ m_j) / z_i                      # E_p[s - t], both sides
        q_j = f64(m_i @ h) / z_j
        row_kl[ri, j] = q_i - np.log(z_i) + log_zt[ri, j]
        if i != j:
            row_kl[rj, i] = q_j - np.log(z_j) + log_zt[rj, i]
        if grad is None:
            return ()
        # G_ij[a, c] = w_a p_ac (d_ac - q_i[a]) / T, the 1/T from fs_c. With
        # alpha, beta = w / (T z) per side, P = alpha m_j^T + m_i beta^T and
        # Q = (alpha q_i) m_j^T + m_i (beta q_j)^T, each an (N x 2) @ (2 x N),
        # formed a strip of rows at a time.
        alpha, beta = inv_t * row_weight[ri] / z_i, inv_t * row_weight[rj] / z_j
        p_left, p_right, q_left, q_right = (a.astype(dt, copy=False) for a in (
            np.stack([alpha, m_i], 1), np.stack([m_j, beta]),
            np.stack([alpha * q_i, m_i], 1), np.stack([m_j, beta * q_j])))
        for lo in range(0, n, len(strip)):
            hi = min(lo + len(strip), n)
            rows, t = slice(lo, hi), strip[:hi - lo]
            h[rows] *= np.matmul(p_left[rows], p_right, out=t)
            np.matmul(q_left[rows], q_right, out=t)
            h[rows] -= np.multiply(t, e[rows], out=t)  # H = P * E * D - Q * E
        if i == j:
            return ((ri, h @ fs_w[rj]),)
        return (ri, h @ fs_w[rj]), (rj, (fs_w[ri].T @ h).T)

    def take(parts):
        for rows, g in parts:
            grad[rows] += g                           # into float64

    _walk_block_pairs(b, n, pair,
                      lambda: (np.empty((n, n), dt), np.empty((n, n), dt),
                               np.empty((min(n, _STRIP_ROWS), n), dt)), take)
    loss = float((row_kl.sum(axis=1) * row_weight).sum())
    if not np.isfinite(loss):
        raise NumericError("batch geometry loss is non-finite")
    return Tensor.from_op(np.float64(loss), [
        (f, lambda g, rows=slice(k * n, (k + 1) * n): float(g) * grad[rows])
        for k, f in enumerate(fn_s)])
