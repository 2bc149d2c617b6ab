"""The six distillation loss terms and their weighted total.

Student-side inputs are autodiff Tensors so gradients flow back to the
student encoder, head and channel projection; teacher-side inputs are
plain arrays (the teacher is frozen). The cross-sample batch geometry
loss, which dominates the training step at full scale, is a single fused
tape op that walks the N x N block pairs of the stacked (B*N, D) maps on
W worker threads and never forms the (B*N)^2 gram (`_fused_batch_gd`).
Those threads come from `map_in_order`, the package's one thread pool,
which also runs the trainer's per-scene passes.

`supervoxel_features` pools the S sampled supervoxels of a batch from a
list of per-sample maps into stacked (S*n, D) point and voxel Tensors, one
tape op per kind. Each affinity (AMRA) term is one tape op over such
stacks, viewed as (S, n, D): loss and gradient come from batched numpy in
the forward pass, working on a few (S, n, n) float64 arrays (4 MB each at
S=32, n=128). Each supervoxel's sum runs over its own slice and the
supervoxels are added left to right, so the values are bit-identical to a
loop over them.

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

from .autodiff import Tensor, concat_rows, segment_mean
from .errors import (ConfigError, NumericError, PairingError, ShapeError,
                     UndefinedLossError)
from .cloud import IGNORE_LABEL
from .numerics import l2_normalize_rows, log_softmax_rows
from .voxelize import Supervoxel

# Rows of the P and Q strips the batch-GD gradient pass forms at a time.
_STRIP_ROWS = 64
# Smaller blocks (and scenes) cost less than handing them to a thread: at
# B=8 the threaded block walk breaks even near N=128 and is 4x slower at N=16.
_MIN_THREADED_ROWS = 256

LOSS_NAMES = ("l_task", "l_kd", "l_amra_p", "l_amra_v", "l_amra_c", "l_batch_gd")


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
        lambdas = (self.lambda_kd, self.lambda_p, self.lambda_v,
                   self.lambda_c, self.lambda_batch_gd)
        if any(not np.isfinite(v) or v < 0 for v in lambdas):
            raise ConfigError("loss weights must be finite and nonnegative")
        if any(not np.isfinite(t) or t <= 0 for t in (self.t_logit, self.t_gd)):
            raise ConfigError("temperatures must be finite and positive")

    @classmethod
    def zeros(cls) -> "LossWeights":
        return cls(lambda_kd=0.0, lambda_p=0.0, lambda_v=0.0, lambda_c=0.0,
                   lambda_batch_gd=0.0)


def weighted_total(components: dict, weights: LossWeights):
    """Recombination l_task + sum(lambda_i * l_i); works on floats or Tensors."""
    return (components["l_task"]
            + weights.lambda_kd * components["l_kd"]
            + weights.lambda_p * components["l_amra_p"]
            + weights.lambda_v * components["l_amra_v"]
            + weights.lambda_c * components["l_amra_c"]
            + weights.lambda_batch_gd * components["l_batch_gd"])


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


def _valid_row_mean(rows: Tensor, mask: np.ndarray) -> Tensor:
    n = int(mask.sum())
    if n == 0:
        raise UndefinedLossError("no valid rows in reduction")
    return (rows * mask.astype(np.float64)).sum() * (1.0 / n)


# ---------------------------------------------------------------------------
# Task and logit-KD losses
# ---------------------------------------------------------------------------

def loss_task(logits, labels: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Mean cross-entropy over unmasked labeled points."""
    logits = _as_tensor(logits)
    n, c = logits.shape
    labels = np.asarray(labels)
    valid = labels != IGNORE_LABEL
    if mask is not None:
        valid = valid & np.asarray(mask, dtype=bool)
    if not valid.any():
        raise UndefinedLossError("loss_task: zero labeled points")
    onehot = np.zeros((n, c))
    onehot[valid, labels[valid]] = 1.0
    log_p = logits.log_softmax_rows()
    picked = (log_p * onehot).sum(axis=1)
    return -_valid_row_mean(picked, valid)


def loss_kd(student_logits, teacher_logits, temperature: float,
            mask: np.ndarray | None = None) -> Tensor:
    """Mean per-point KL(softmax(Z_s/T) || softmax(Z_t/T)); student first."""
    zs = _as_tensor(student_logits)
    zt = np.asarray(teacher_logits, dtype=np.float64)
    if zs.shape != zt.shape:
        raise ShapeError(f"loss_kd shape mismatch: {zs.shape} vs {zt.shape}")
    if mask is None:
        mask = np.ones(zs.shape[0], dtype=bool)
    ls_s = zs.log_softmax_rows(temperature)
    ls_t = Tensor(log_softmax_rows(zt, temperature))
    rows = (ls_s.exp() * (ls_s - ls_t)).sum(axis=1)
    return _valid_row_mean(rows, np.asarray(mask, dtype=bool))


# ---------------------------------------------------------------------------
# Affinity (AMRA) losses
# ---------------------------------------------------------------------------

def affinity(features: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """keep * ||F_i - F_j||^2 for each (n, D) view of an (S, n, D) stack.

    keep (S, n, n) holds each view's weight on the row pairs that count and
    zero on the rest: the diagonal and the padded rows and columns.
    """
    sq = (features * features).sum(axis=2, keepdims=True)     # (S, n, 1)
    gram = features @ features.transpose(0, 2, 1)
    gram *= 2.0
    d = sq + sq.transpose(0, 2, 1)
    d -= gram
    d *= keep
    return d


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
    the stacked Tensor's data) and the (S, n) 0/1 float64 mask."""
    f = getattr(views, f"{kind}_features").data
    m = np.asarray(getattr(views, f"{kind}_mask"), dtype=bool)
    if m.ndim != 2 or f.ndim != 2 or f.shape[0] != m.size:
        raise ShapeError(f"{kind} features {f.shape} do not stack an {m.shape} mask")
    return f.reshape(m.shape + f.shape[1:]), m.astype(np.float64)


def _mean_in_order(values) -> float:
    """Sum left to right, as a loop over the supervoxels adds, times 1/S."""
    return functools.reduce(operator.add, values) * (1.0 / len(values))


def _grad_edge(t: Tensor, grad: np.ndarray):
    """Edge of a scalar op into the stacked Tensor t: g * grad, in t's shape."""
    return t, lambda g: float(g) * grad.reshape(t.shape)


def _affinity_gap(views_s: SupervoxelFeatures, views_t: SupervoxelFeatures,
                  kind: str) -> Tensor:
    """Mean over the supervoxels of sum((D_s - D_t)^2) / n^2 as one tape op.

    With H = 2 keep (D_s - D_t) / (n^2 S), keep the weighted pair mask,
    supervoxel s gets the gradient 4 (rowsum(H) F - H @ F).
    """
    _check_paired(views_s, views_t)
    fs, m = _blocks(views_s, kind)
    ft = _blocks(views_t, kind)[0]
    s, n = m.shape
    keep = m[:, :, None] * (m * views_s.weight[:, None])[:, None, :]   # w_s m_i m_j
    keep[:, np.arange(n), np.arange(n)] = 0.0
    gap = affinity(fs, keep)
    gap -= affinity(ft, keep)
    loss = _mean_in_order([(g * g).sum() * (1.0 / (n * n)) for g in gap])
    gap *= keep
    gap *= 2.0 / (n * n * s)                                   # H
    grad = 4.0 * (gap.sum(axis=2, keepdims=True) * fs - gap @ fs)
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
    tape op: row r of a part with n_valid rows gets the gradient
    c_r p_s (log p_s - log p_t - KL_r), c_r = mask_r / (n_valid S).
    """
    _check_paired(views_s, views_t)
    edges, parts = [], []
    for kind in ("point", "voxel"):
        zs, m = _blocks(views_s, kind)
        zt = _blocks(views_t, kind)[0]
        if zs.shape[2] != zt.shape[2]:
            raise ShapeError("channel loss requires matching channel counts; "
                             "project the student features first")
        n_valid = m.sum(axis=1)
        if np.any(n_valid == 0):
            raise UndefinedLossError("no valid rows in reduction")
        ls_s = log_softmax_rows(zs)
        grad = ls_s - log_softmax_rows(zt)                     # log p_s - log p_t
        p_s = np.exp(ls_s)
        kl = (p_s * grad).sum(axis=2)                          # (S, n)
        parts.append((kl * m).sum(axis=1) * (1.0 / n_valid))
        grad -= kl[:, :, None]
        grad *= p_s
        grad *= (m / (n_valid[:, None] * m.shape[0]))[:, :, None]
        edges.append(_grad_edge(getattr(views_s, f"{kind}_features"), grad))
    return Tensor.from_op(np.float64(_mean_in_order(parts[0] + parts[1])), edges)


# ---------------------------------------------------------------------------
# Cross-sample mini-batch geometry distillation
# ---------------------------------------------------------------------------

def gd_teacher_log_z(teacher_maps: list[np.ndarray], temperature: float,
                     masks: list[np.ndarray] | None = None) -> np.ndarray:
    """Per-(row, target-sample) log partition of the teacher similarities.

    Entry [a, j] is log sum_c exp(<t_a, t_c> / T) over the valid columns c
    of sample j, for L2-normalized teacher rows t. Like the loss kernel it
    walks the block pairs i <= j: the row sums of exp(T_ij) serve the rows
    of i, its column sums those of j. Each walk worker holds one N x N
    float64 block (8 MB at N=1024). The teacher is frozen, so
    `trainer.make_batch` computes it once per mini-batch and every epoch
    reuses it.
    """
    b, n = len(teacher_maps), teacher_maps[0].shape[0]
    ft = np.concatenate([l2_normalize_rows(m) for m in teacher_maps], axis=0)
    ft *= np.sqrt(1.0 / temperature)
    mask = _column_mask(masks, b * n)
    log_z = np.empty((b * n, b))

    def pair(i, j, ri, rj, e):
        np.exp(np.matmul(ft[ri], ft[rj].T, out=e), out=e)
        np.log(e @ mask[rj], out=log_z[ri, j])
        if i != j:
            np.log(mask[ri] @ e, out=log_z[rj, i])

    _walk_block_pairs(b, n, pair, lambda: np.empty((n, n)))
    return log_z


def _column_mask(masks: list[np.ndarray] | None, size: int) -> np.ndarray:
    """0/1 float64 vector of the valid rows of the stacked batch."""
    return np.ones(size) if masks is None else \
        np.concatenate([np.asarray(m, bool) for m in masks]).astype(np.float64)


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


def _walk_workers(n: int) -> int:
    """Threads for `map_in_order` over N x N block pairs or scenes of N
    points: the BLAS thread count, capped at the usable cores; 1 (the
    serial walk) without the BLAS control, or below `_MIN_THREADED_ROWS`
    rows."""
    blas = _blas_control()
    if blas is None or n < _MIN_THREADED_ROWS:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return min(blas[0](), cores)


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
                  teacher_log_z: np.ndarray | None = None) -> Tensor:
    """Batch geometry distillation over all ordered sample pairs.

    Feature maps are L2 row-normalized internally. For each ordered pair
    (i, j) the row-softmax KL of the cross-sample similarity matrices is
    averaged over the valid rows of sample i (softmax restricted to valid
    columns of sample j); pair losses are summed with a 1/B^2 normalizer.
    """
    if not student_maps or len(student_maps) != len(teacher_maps):
        raise ShapeError("student and teacher map lists must match")
    if temperature <= 0:
        raise ConfigError("temperature must be positive")
    b, n = len(student_maps), student_maps[0].shape[0]
    if any(m.shape[0] != n for m in [*student_maps, *teacher_maps]):
        raise ShapeError("inconsistent point count across the batch")
    fn_s = concat_rows([_as_tensor(m).l2_normalize_rows() for m in student_maps])
    fn_t = np.concatenate([l2_normalize_rows(np.asarray(m, dtype=np.float64))
                           for m in teacher_maps], axis=0)
    mask = _column_mask(masks, b * n)
    counts = mask.reshape(b, n).sum(axis=1)
    if np.any(counts == 0):
        raise UndefinedLossError("loss_batch_gd: a sample has no valid rows")
    row_weight = mask * np.repeat(1.0 / (b * b * counts), n)
    if teacher_log_z is None:
        teacher_log_z = gd_teacher_log_z(teacher_maps, temperature, masks)
    return _fused_batch_gd(fn_s, fn_t, b, n, temperature, mask,
                           row_weight, teacher_log_z)


def _fused_batch_gd(fn_s: Tensor, fn_t: np.ndarray, b: int, n: int,
                    temperature: float, mask: np.ndarray,
                    row_weight: np.ndarray, log_zt: np.ndarray) -> Tensor:
    """Loss and gradient of the pairwise row-softmax KL in one block-pair walk.

    The (B*N, B*N) gram of the stacked normalized maps is never formed. As
    S_ji = S_ij^T, each block pair i <= j is computed once: from E = exp(S_ij)
    and D = S_ij - T_ij the rows of i get their softmax over the columns of j
    through E @ m_j, the rows of j theirs over the columns of i through
    m_i @ E (m: 0/1 masks). Both sides' gradient blocks combine into
    H = G_ij + G_ji^T = E * (P * D - Q), P and Q rank-2; H @ F_j goes to the
    rows of i, H^T @ F_i to those of j. `_walk_block_pairs` runs the pairs on
    W workers (the BLAS thread count, capped at the usable cores), each
    holding two N x N float64 blocks (16 MB at N=1024) and a 64-row strip;
    the results are bit-identical to one worker. No gradient pass if the
    student needs none. fn_t must be the caller's own stack: it is scaled
    in place.
    """
    inv_t, fs = 1.0 / temperature, fn_s.data
    # Temperature folded into the (small) feature maps: grams come pre-scaled.
    fs_c, ft_c = fs * np.sqrt(inv_t), fn_t
    ft_c *= np.sqrt(inv_t)                            # the caller's own stack
    grad = np.zeros_like(fs) if fn_s.requires_grad else None
    row_kl = np.empty((b * n, b))

    def pair(i, j, ri, rj, scratch):
        e, h, strip = scratch
        m_i, m_j = mask[ri], mask[rj]
        np.matmul(fs_c[ri], fs_c[rj].T, out=e)        # student block S_ij
        np.matmul(ft_c[ri], ft_c[rj].T, out=h)        # teacher block T_ij
        np.subtract(e, h, out=h)                      # D = S_ij - T_ij
        np.exp(e, out=e)                              # E = exp(S_ij)
        h *= e                                        # E * D
        z_i, z_j = e @ m_j, m_i @ e                   # partitions, both sides
        q_i, q_j = (h @ m_j) / z_i, (m_i @ h) / z_j   # E_p[s - t], both sides
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
        p_left, p_right = np.stack([alpha, m_i], 1), np.stack([m_j, beta])
        q_left, q_right = np.stack([alpha * q_i, m_i], 1), np.stack([m_j, beta * q_j])
        for lo in range(0, n, len(strip)):
            hi = min(lo + len(strip), n)
            rows, t = slice(lo, hi), strip[:hi - lo]
            h[rows] *= np.matmul(p_left[rows], p_right, out=t)
            np.matmul(q_left[rows], q_right, out=t)
            h[rows] -= np.multiply(t, e[rows], out=t)  # H = P * E * D - Q * E
        if i == j:
            return ((ri, h @ fs[rj]),)
        return (ri, h @ fs[rj]), (rj, (fs[ri].T @ h).T)

    def take(parts):
        for rows, g in parts:
            grad[rows] += g

    _walk_block_pairs(b, n, pair,
                      lambda: (np.empty((n, n)), np.empty((n, n)),
                               np.empty((min(n, _STRIP_ROWS), n))), take)
    loss = float((row_kl.sum(axis=1) * row_weight).sum())
    if not np.isfinite(loss):
        raise NumericError("batch geometry loss is non-finite")
    return Tensor.from_op(np.float64(loss), [(fn_s, lambda g: float(g) * grad)])
