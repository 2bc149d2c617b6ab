"""The six distillation loss terms and their weighted total.

Student-side inputs are autodiff Tensors so gradients flow back to the
student encoder, head and channel projection; teacher-side inputs are
plain arrays (the teacher is frozen). The cross-sample batch geometry
loss, which dominates the training step at full scale, is a single fused
tape op over the stacked (B*N, D) mini-batch feature maps. It never forms
the (B*N)^2 pairwise gram: it walks the B(B+1)/2 unordered N x N block
pairs, since one block S_ij serves the rows of i and, transposed, the rows
of j. Loss and gradient come from that one pass. The pairs run on W worker
threads, W = the BLAS thread count capped at the usable cores, each holding
two N x N float64 blocks (16 MB at N=1024); the results are bit-identical
to one worker.

Each affinity (AMRA) term is one tape op too. It stacks the S sampled
supervoxel views' (n, D) blocks into (S, n, D) arrays, forms loss and
gradient in batched numpy in the forward pass, and keeps one tape edge
per view. Its working set is a few (S, n, n) float64 arrays, 4 MB each at
S=32, n=128. Each view's sum runs over its own slice and the views are
added left to right, so the values are bit-identical to a loop over the
supervoxels.

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
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor, concat_rows
from .errors import (ConfigError, NumericError, PairingError, ShapeError,
                     UndefinedLossError)
from .cloud import IGNORE_LABEL
from .numerics import l2_normalize_rows, log_softmax_rows
from .voxelize import Supervoxel

# Rows of the P and Q strips the batch-GD gradient pass forms at a time.
_STRIP_ROWS = 64
# Smaller blocks cost less than handing them to a thread: at B=8 the
# threaded walk breaks even near N=128 and is 4x slower at N=16.
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


@dataclass(frozen=True)
class LossReport:
    """All six loss terms plus the weighted total."""

    l_task: float
    l_kd: float
    l_amra_p: float
    l_amra_v: float
    l_amra_c: float
    l_batch_gd: float
    l_total: float

    def to_dict(self) -> dict:
        return asdict(self)


def weighted_total(components: dict, weights: LossWeights):
    """Recombination l_task + sum(lambda_i * l_i); works on floats or Tensors."""
    return (components["l_task"]
            + weights.lambda_kd * components["l_kd"]
            + weights.lambda_p * components["l_amra_p"]
            + weights.lambda_v * components["l_amra_v"]
            + weights.lambda_c * components["l_amra_c"]
            + weights.lambda_batch_gd * components["l_batch_gd"])


def loss_total(components: dict, weights: LossWeights) -> LossReport:
    """Assemble a LossReport from scalar components."""
    comps = {name: float(components[name]) for name in LOSS_NAMES}
    if any(not np.isfinite(v) for v in comps.values()):
        bad = [n for n, v in comps.items() if not np.isfinite(v)]
        raise NumericError(f"non-finite loss component(s): {', '.join(bad)}")
    return LossReport(**comps, l_total=float(weighted_total(comps, weights)))


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
    """Fixed-size feature blocks of one supervoxel under one encoder."""

    point_features: Tensor     # (N_point, D), masked rows zero
    voxel_features: Tensor     # (N_voxel, D), masked rows zero
    point_mask: np.ndarray
    voxel_mask: np.ndarray
    weight: float


def supervoxel_features(feature_map, sv: Supervoxel) -> SupervoxelFeatures:
    """A supervoxel's point rows and mean-pooled voxel rows from a map: one
    `Tensor.segment_mean` each, with a length-1 segment per kept point slot
    (its row, bit for bit) and one per kept fine voxel; padded rows are zero.
    No map row feeds two rows of a view, so the backward pass assigns."""
    fm = _as_tensor(feature_map)
    n_kept = int(sv.point_mask.sum())
    pf = fm.segment_mean(sv.point_indices[:n_kept], np.arange(n_kept),
                         sv.point_mask.size)
    vf = fm.segment_mean(sv.voxel_members, sv.voxel_starts, sv.voxel_mask.size)
    return SupervoxelFeatures(pf, vf, sv.point_mask, sv.voxel_mask, sv.weight)


def _check_paired(views_s, views_t):
    if len(views_s) != len(views_t) or not views_s:
        raise PairingError("student and teacher supervoxel lists must match")
    for a, b in zip(views_s, views_t):
        if (not np.array_equal(a.point_mask, b.point_mask)
                or not np.array_equal(a.voxel_mask, b.voxel_mask)
                or a.weight != b.weight):
            raise PairingError("student/teacher supervoxels disagree on masks or weights")


def _stack_views(views, kind: str):
    """The `kind` ("point" or "voxel") rows of S views: their Tensors, the
    (S, n, D) stack of their data and the (S, n) 0/1 float64 mask."""
    tensors = [getattr(v, f"{kind}_features") for v in views]
    masks = [np.asarray(getattr(v, f"{kind}_mask"), dtype=bool) for v in views]
    shapes = {(t.shape, m.shape) for t, m in zip(tensors, masks)}
    f_shape, m_shape = next(iter(shapes))
    if len(shapes) != 1 or len(f_shape) != 2 or m_shape != f_shape[:1]:
        raise ShapeError(f"supervoxel {kind} views need one (n, D) shape and "
                         f"an n-row mask, got {sorted(shapes)}")
    return (tensors, np.stack([t.data for t in tensors]),
            np.stack(masks).astype(np.float64))


def _mean_in_order(values) -> float:
    """Sum left to right, as a loop over the views adds, times 1/S."""
    return functools.reduce(operator.add, values) * (1.0 / len(values))


def _view_op(loss: float, tensors: list[Tensor], grads) -> Tensor:
    """Scalar tape node with one edge per view: tensors[s] gets g * grads[s]."""
    return Tensor.from_op(np.float64(loss), [
        (t, lambda g, gs=gs: float(g) * gs) for t, gs in zip(tensors, grads)])


def _affinity_gap(views_s, views_t, kind: str) -> Tensor:
    """Mean over the views of sum((D_s - D_t)^2) / n^2 as one tape op.

    With H = 2 keep (D_s - D_t) / (n^2 S), keep the weighted pair mask,
    view s gets the gradient 4 (rowsum(H) F - H @ F).
    """
    _check_paired(views_s, views_t)
    tensors, fs, m = _stack_views(views_s, kind)
    ft = _stack_views(views_t, kind)[1]
    s, n = m.shape
    w = np.array([v.weight for v in views_s])
    keep = m[:, :, None] * (m * w[:, None])[:, None, :]       # w_s m_i m_j
    keep[:, np.arange(n), np.arange(n)] = 0.0
    gap = affinity(fs, keep)
    gap -= affinity(ft, keep)
    loss = _mean_in_order([(g * g).sum() * (1.0 / (n * n)) for g in gap])
    gap *= keep
    gap *= 2.0 / (n * n * s)                                   # H
    return _view_op(loss, tensors,
                    4.0 * (gap.sum(axis=2, keepdims=True) * fs - gap @ fs))


def loss_amra_point(views_s: list[SupervoxelFeatures],
                    views_t: list[SupervoxelFeatures]) -> Tensor:
    """Mean over supervoxels of the squared point-affinity gap / N_point^2."""
    return _affinity_gap(views_s, views_t, "point")


def loss_amra_voxel(views_s: list[SupervoxelFeatures],
                    views_t: list[SupervoxelFeatures]) -> Tensor:
    """Mean over supervoxels of the squared voxel-affinity gap / N_voxel^2."""
    return _affinity_gap(views_s, views_t, "voxel")


def loss_amra_channel(views_s: list[SupervoxelFeatures],
                      views_t: list[SupervoxelFeatures]) -> Tensor:
    """Channel-softmax KL between matched rows, points plus voxels.

    The student views must already be projected to the teacher channel
    count. Each part is averaged over its valid rows, both parts are
    summed, and the result is averaged over the sampled supervoxels. One
    tape op: row r of a part with n_valid rows gets the gradient
    c_r p_s (log p_s - log p_t - KL_r), c_r = mask_r / (n_valid S).
    """
    _check_paired(views_s, views_t)
    tensors, parts, grads = [], [], []
    for kind in ("point", "voxel"):
        ts, zs, m = _stack_views(views_s, kind)
        zt = _stack_views(views_t, kind)[1]
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
        grad *= (m / (n_valid[:, None] * len(views_s)))[:, :, None]
        tensors += ts
        grads += list(grad)
    return _view_op(_mean_in_order(parts[0] + parts[1]), tensors, grads)


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
    """Threads for a walk over N x N block pairs: the BLAS thread count,
    capped at the usable cores; 1 (the serial walk) without the BLAS
    control, or for blocks below `_MIN_THREADED_ROWS` rows."""
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


def _walk_block_pairs(b: int, n: int, work, new_scratch,
                      take=lambda out: None) -> None:
    """Call work(i, j, ri, rj, scratch) for each pair of `_block_pairs`, and
    take(result) on the calling thread in that order.

    With W = `_walk_workers(n)` > 1 the pairs run on W threads, each with its
    own scratch from new_scratch(), while OpenBLAS is pinned to one thread:
    numpy's elementwise passes then run on every core, not only the
    matmuls. Each worker writes only its own pair's entries; whatever a
    pair adds to shared sums goes back through `take`, in pair order, so
    every result is bit-identical to W = 1 with OpenBLAS at one thread.
    (OpenBLAS's own results can depend on its thread count: at N = 1000 a
    gemm differs in the last bits, at N = 1024 not.)
    """
    pairs = list(_block_pairs(b, n))
    workers = min(_walk_workers(n), len(pairs))
    if workers <= 1:
        scratch = new_scratch()
        for p in pairs:
            take(work(*p, scratch))
        return
    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put(new_scratch())

    def run(p):
        scratch = free.get()
        try:
            return work(*p, scratch)
        finally:
            free.put(scratch)

    # At most 2W pairs are in flight, taken in pair order, so at most 2W
    # finished results wait for the calling thread (and the GIL) to take
    # them. The pool exits (its threads joined) before BLAS threads are
    # restored.
    with _one_blas_thread(), ThreadPoolExecutor(workers) as pool:
        pending: collections.deque = collections.deque()
        for p in pairs:
            if len(pending) == 2 * workers:
                take(pending.popleft().result())
            pending.append(pool.submit(run, p))
        while pending:
            take(pending.popleft().result())


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
    for m in list(student_maps) + list(teacher_maps):
        if m.shape[0] != n:
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
