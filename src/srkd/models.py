"""Exact k-NN, the segmentation model and its checkpoint format.

`SegModel` is a tiny point encoder, a segmentation head and, in a student,
the channel projection to the teacher's width. The encoder is a per-point
MLP over (position, input features) interleaved with two rounds of
k-nearest-neighbor mean aggregation among valid points; it is a
deliberately small stand-in for a transformer backbone that still makes
relation-based distillation non-degenerate. The head and the projection
read the L2-normalized feature map, which is also where evaluation-time
feature noise is injected. Every parameter lives in one table,
`SegModel.params`, keyed by its checkpoint name; `_param_shapes` writes
each name and shape once, for the constructor and for `from_state`.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .autodiff import Tensor, affine
from .cloud import FixedSample, atomic_open, derive_seed
from .errors import ConfigError, DataError, ParseError, ShapeError

_CKPT_MAGIC = b"SRKDCKPT1"

AGG_ROUNDS = 2
_KNN_WINDOW = 33       # fewest points next to a row in the spatial order
_KNN_SLACK = 1e-5      # relative slack of the float32 gemm filter
_KNN_BLOCK = 1 << 17   # float32 entries per (rows, m) filter block (512 KB)
_KNN_PAIRS = 1 << 15   # kept pairs that start an exact pass (stage 3)


def knn_indices(positions: np.ndarray, mask: np.ndarray, k: int) -> np.ndarray:
    """(N, k') nearest valid neighbors per point, nearest first, self included.

    Padded rows point at themselves so they never mix with real points;
    k' = min(k, number of valid points m). Row i lists the first k' valid
    points j in the order of (d_ij, j), where d_ij is the squared distance
    in the float order of the full m x m matrix, ((p_i - p_j) ** 2).sum(-1):
    dx^2, then += dy^2, then += dz^2. So exact ties go to the lower index,
    and a point appears in its own row unless more than k' points share
    its position.

    The search is exact; each stage is a few numpy calls over the scene:
    1. Bound. In the order of x strips, by y within a strip, row i's bound
       b_i is the k'th smallest d_ij over the w = max(33, k') points next
       to it (all m if fewer): one (m, w) distance array, one partition.
    2. Filter. A block of rows at a time, one (rows, 5) @ (5, m) float32
       gemm on coordinates c, centred on the bounding box and scaled to
       |c| <= 1 (b_i with them), gives [c_i, 1, b_i + s_i - |c_i|^2] .
       [2 c_j, -|c_j|^2, 1] = b_i + s_i - |c_i - c_j|^2, and the pairs where
       it is >= 0 are kept. With S_i = b_i + |c_i|^2 + max_j |c_j|^2 and
       u = 2^-24, rounding the inputs to float32 moves it by at most
       u (3 S_i + s_i), the length-5 dot product by at most 5.01u times its
       absolute terms, 2 S_i + s_i, in any summation order, and the float64
       centring, scaling and d_ij by under 2e-15 S_i: under 13.1u S_i <
       7.9e-7 S_i in all. The slack s_i = 1e-5 S_i is over 12 times that,
       so every pair with d_ij <= b_i is kept at any BLAS thread count, and
       centring keeps s_i far below neighbor distances far from the origin.
    3. Exact pass. d_ij is recomputed in float64 for the kept pairs (about
       15 per row), one sort puts them in (row, d_ij, j) order, and the
       first k' of each row are read through its start offset.
    The working set, the window distances, one filter block and the kept
    pairs, is about 2 MB at m = 1024 (the m x m matrix takes 8 MB). Stage
    3 runs whenever 32K pairs are pending (at m = 1024, once at the end),
    so a scene where most pairs pass the filter stays near 10 MB.

    Raises ShapeError unless positions is (N, 3) and mask (N,) with under
    2^20 valid points, ConfigError for k < 1, DataError for a non-finite
    valid position.
    """
    positions = np.asarray(positions, dtype=np.float64)
    mask = np.asarray(mask)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ShapeError(f"knn_indices needs (N, 3) positions, got {positions.shape}")
    n = positions.shape[0]
    if mask.shape != (n,):
        raise ShapeError(f"knn_indices needs a ({n},) mask, got {mask.shape}")
    if k < 1:
        raise ConfigError(f"knn_indices needs k >= 1, got {k}")
    valid = np.flatnonzero(mask)
    m = valid.size
    if m >= 1 << 20:  # keeps stage 3's sort key below 2^63
        raise ShapeError(f"knn_indices needs under 2^20 valid points, got {m}")
    kk = min(k, m)
    idx = np.tile(np.arange(n, dtype=np.intp)[:, None], (1, kk))
    if not m:
        return idx
    p = positions[valid]
    if not np.isfinite(p).all():
        raise DataError("knn_indices needs finite positions at valid points")
    axes = p.T.copy()  # one contiguous row per axis
    w = min(m, max(_KNN_WINDOW, kk))
    # x strips of equal count, by y within a strip, so that row t's window,
    # the w points from clip(t - w // 2) in that order, is a compact patch
    strips = max(1, round(math.sqrt(m / w)))
    order = np.argsort(axes[0])
    order = order[np.lexsort((axes[1][order], np.arange(m) * strips // m))]
    first = np.clip(np.arange(m) - w // 2, 0, m - w)
    bound = np.empty(m)
    bound[order] = np.partition(_sq_dist(
        (x[:, None], np.lib.stride_tricks.sliding_window_view(x, w)[first])
        for x in axes[:, order]), kk - 1, axis=1)[:, kk - 1]
    c = axes - (axes.max(axis=1) + axes.min(axis=1))[:, None] / 2
    scale = np.abs(c).max() or 1.0
    c, bound = c / scale, bound / (scale * scale)
    cc = np.einsum("ij,ij->j", c, c)
    lhs = np.vstack([c, np.ones(m), bound - cc + _KNN_SLACK * (bound + cc + cc.max())])
    lhs, rhs = lhs.T.astype(np.float32), np.vstack([2 * c, -cc, np.ones(m)]).astype(np.float32)
    rows = max(1, _KNN_BLOCK // m)
    kept, done = [], 0
    for lo in range(0, m, rows):
        kept.append(np.flatnonzero(lhs[lo:lo + rows] @ rhs >= 0) + lo * m)
        hi = min(lo + rows, m)
        if hi == m or sum(map(len, kept)) >= _KNN_PAIRS:
            idx[valid[done:hi]] = valid[_nearest_kept(axes, kept, done, hi, kk)]
            kept, done = [], hi
    return idx


def _sq_dist(pairs) -> np.ndarray:
    """Squared distances from (coordinates of points i, of points j) pairs
    for x, y and z, which broadcast, in the full matrix's float order."""
    d = None
    for a, b in pairs:
        t = a - b
        t *= t
        d = t if d is None else np.add(d, t, out=d)
    return d


def _nearest_kept(axes: np.ndarray, kept: list[np.ndarray], lo: int, hi: int,
                  kk: int) -> np.ndarray:
    """(hi - lo, kk) valid-point indices: for each row lo..hi - 1, the first
    kk of its kept pairs (flat indices i * m + j, ascending) by (d_ij, j)
    (stage 3 of `knn_indices`)."""
    m = axes.shape[1]
    r, j = np.divmod(np.concatenate(kept), m)
    d = _sq_dist((x[r], x[j]) for x in axes)
    by_d = d.argsort()
    d = d[by_d]
    # A pair's rank among the distinct d_ij makes (row, d_ij, j) one integer
    # key, below (hi - lo) * r.size * m < 2^61, so one unstable sort is exact.
    rank = np.empty_like(r)
    rank[by_d] = np.cumsum(np.concatenate(([False], d[1:] != d[:-1])))
    del d, by_d
    r -= lo
    key = (r * r.size + rank) * m + j
    count = np.bincount(r, minlength=hi - lo)
    return j[key.argsort()[(np.cumsum(count) - count)[:, None] + np.arange(kk)]]


def _param_shapes(widths: tuple[int, ...], n_classes: int,
                  project_to: int | None) -> dict[str, tuple[int, ...]]:
    """Checkpoint name -> shape of every `SegModel` parameter, in init
    order: encoder layer i's w{i} (widths[i], widths[i + 1]) and b{i}, the
    head, then the channel projection unless project_to is None."""
    if len(widths) < 2:
        raise DataError("encoder needs at least one linear layer")
    shapes: dict[str, tuple[int, ...]] = {}
    for i, (fi, fo) in enumerate(zip(widths[:-1], widths[1:])):
        shapes[f"encoder.w{i}"], shapes[f"encoder.b{i}"] = (fi, fo), (fo,)
    shapes["head.w"], shapes["head.b"] = (widths[-1], n_classes), (n_classes,)
    if project_to is not None:
        shapes["proj.w"], shapes["proj.b"] = (widths[-1], project_to), (project_to,)
    return shapes


def _init_param(rng, name: str, shapes: dict[str, tuple[int, ...]]) -> np.ndarray:
    """A w uniform in +-1/sqrt(fan_in), its b likewise with the w's fan_in;
    the projection's w near-orthogonal (QR of a Gaussian) and its b zero."""
    group, leaf = name.split(".")
    if group == "proj":
        if leaf == "b":
            return np.zeros(shapes[name])
        d_in, d_out = shapes[name]
        q, _ = np.linalg.qr(rng.standard_normal((max(d_in, d_out), min(d_in, d_out))))
        w = q[:d_in, :d_out] if d_in >= d_out else q[:d_out, :d_in].T
        return np.ascontiguousarray(w)
    bound = 1.0 / np.sqrt(shapes[f"{group}.w{leaf[1:]}"][0])
    return rng.uniform(-bound, bound, shapes[name])


class SegModel:
    """Encoder plus head; students also carry the channel projection.
    `params` maps each checkpoint name to its Tensor, in init order."""

    def __init__(self, widths: tuple[int, ...], n_classes: int, k: int,
                 seed: int = 0, project_to: int | None = None):
        self.widths = tuple(int(w) for w in widths)
        self.n_classes = int(n_classes)
        self.k = int(k)
        self.project_to = None if project_to is None else int(project_to)
        shapes = _param_shapes(self.widths, self.n_classes, self.project_to)
        # the encoder, head and projection each draw from their own
        # generator, seeded from derive_seed(seed) in that order
        rng, groups = derive_seed(seed), {}
        self.params: dict[str, Tensor] = {}
        for name in shapes:
            group = name.split(".")[0]
            if group not in groups:
                groups[group] = derive_seed(int(rng.integers(2**62)))
            self.params[name] = Tensor(_init_param(groups[group], name, shapes),
                                       requires_grad=True)

    @property
    def d_out(self) -> int:
        """Width of the feature map."""
        return self.widths[-1]

    # -- forward ------------------------------------------------------------

    def encode(self, sample: FixedSample, nbr_idx: np.ndarray) -> Tensor:
        """Feature map (N, d_out) before row normalization; padded rows are
        exactly zero."""
        h = Tensor(np.hstack([sample.cloud.positions, sample.cloud.features]))
        for i in range(len(self.widths) - 1):
            h = affine(h, self.params[f"encoder.w{i}"], self.params[f"encoder.b{i}"],
                       tanh=True)
            if i < AGG_ROUNDS:
                h = h.neighbor_mean(nbr_idx)
        keep = np.asarray(sample.mask, dtype=np.float64)[:, None]
        return Tensor.from_op(h.data * keep, [(h, lambda g: g * keep)])

    def forward(self, sample: FixedSample, nbr_idx: np.ndarray,
                feature_noise: np.ndarray | None = None):
        """Returns (normalized feature map, logits) over the sample's k-NN
        index `nbr_idx` (`knn_indices` at the model's k)."""
        f_norm = self.encode(sample, nbr_idx).l2_normalize_rows()
        if feature_noise is not None:
            f_norm = Tensor.from_op(f_norm.data + feature_noise,
                                    [(f_norm, lambda g: g)])
        logits = affine(f_norm, self.params["head.w"], self.params["head.b"])
        return f_norm, logits

    def project(self, f: Tensor) -> Tensor:
        """A feature map in teacher channels: its channel projection, or the
        map itself for a model without one."""
        if self.project_to is None:
            return f
        return affine(f, self.params["proj.w"], self.params["proj.b"])

    # -- parameters ----------------------------------------------------------

    def param_count(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    @property
    def frozen(self) -> bool:
        """True when no parameter needs a gradient (see `freeze`)."""
        return not any(t.requires_grad for t in self.params.values())

    def freeze(self) -> "SegModel":
        """Stop every parameter from recording a tape; returns the model."""
        for t in self.params.values():
            t.requires_grad = False
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: t.data.copy() for name, t in self.params.items()}
        state["meta.widths"] = np.array(self.widths, dtype=np.float64)
        state["meta.n_classes"] = np.array([self.n_classes], dtype=np.float64)
        state["meta.k"] = np.array([self.k], dtype=np.float64)
        state["meta.project_to"] = np.array(
            [-1.0 if self.project_to is None else self.project_to])
        return state

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "SegModel":
        """Rebuild a model whose parameters need gradients (chain `.freeze()`
        for a frozen one); raises DataError when the meta.* buffers are invalid
        or disagree with the weight shapes, before allocating any."""
        widths = tuple(_meta(state, "meta.widths", scalar=False))
        n_classes = _meta(state, "meta.n_classes")
        project_to = _meta(state, "meta.project_to", minimum=-1)
        project_to = None if project_to < 0 else project_to
        for name, shape in _param_shapes(widths, n_classes, project_to).items():
            if name not in state:
                raise DataError(f"checkpoint is missing buffer {name!r}")
            if state[name].shape != shape:
                raise DataError(f"checkpoint buffer {name!r} has shape "
                                f"{state[name].shape}, but meta.* implies {shape}")
        model = cls(widths, n_classes, k=_meta(state, "meta.k"), project_to=project_to)
        for name, t in model.params.items():
            t.data[...] = state[name]
        return model


def _meta(state: dict[str, np.ndarray], name: str, scalar: bool = True,
          minimum: int = 1):
    """Whole-number metadata buffer (an int, or a list if not scalar), >= minimum."""
    if name not in state:
        raise DataError(f"checkpoint is missing buffer {name!r}")
    vals = np.asarray(state[name], dtype=np.float64).ravel()
    whole = np.isfinite(vals) & (vals == np.round(vals)) & (vals >= minimum)
    if (vals.size != 1 if scalar else vals.size == 0) or not whole.all():
        raise DataError(f"checkpoint buffer {name!r} holds invalid metadata {vals.tolist()}")
    ints = [int(v) for v in vals]
    return ints[0] if scalar else ints


def make_teacher(d_in: int, n_classes: int, d_out: int, k: int,
                 seed: int = 0) -> SegModel:
    """Frozen-to-be teacher: widths (3 + d_in, d_out, d_out)."""
    return SegModel((3 + d_in, d_out, d_out), n_classes, k=k, seed=seed)


def make_student_from_teacher(teacher: SegModel, seed: int) -> SegModel:
    """Half-width student plus a learned projection back to teacher channels.

    All widths except the input are halved (rounded up), giving roughly a
    quarter of the dense parameters per hidden layer; the projection is
    initialized near-orthogonal. The student head starts as the teacher head
    composed with the projection, so improving the feature-mimicry terms and
    improving classification move the head input the same way from step one.
    """
    widths = (teacher.widths[0],) + tuple(-(-w // 2) for w in teacher.widths[1:])
    student = SegModel(widths, teacher.n_classes, k=teacher.k, seed=seed,
                       project_to=teacher.d_out)
    params, t_params = student.params, teacher.params
    params["head.w"].data[...] = params["proj.w"].data @ t_params["head.w"].data
    params["head.b"].data[...] = t_params["head.b"].data
    dense_teacher = teacher.param_count()
    dense_student = sum(t.data.size for n, t in params.items() if not n.startswith("proj."))
    # The 3x compression ratio only holds once weight matrices dominate the
    # bias vectors, so skip the check for very narrow debug models.
    if teacher.d_out >= 64 and dense_student * 3 >= dense_teacher:
        raise DataError("student is not small enough: "
                        f"{dense_student} vs teacher {dense_teacher}")
    return student


# ---------------------------------------------------------------------------
# Checkpoint format: magic "SRKDCKPT1", little-endian u32 buffer count, then
# per buffer: u32 name length, name bytes (utf-8), u32 ndim, u32 dims,
# float64 payload. Buffers are written in sorted name order.
# ---------------------------------------------------------------------------

def save_checkpoint(state: dict[str, np.ndarray], path) -> None:
    with atomic_open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<I", len(state)))
        for name in sorted(state):
            arr = np.ascontiguousarray(state[name], dtype=np.float64)
            enc = name.encode("utf-8")
            f.write(struct.pack("<I", len(enc)))
            f.write(enc)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; any malformed or truncated file raises ParseError."""
    raw = Path(path).read_bytes()
    if raw[:len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise ParseError(f"{path}: bad checkpoint magic")
    off = len(_CKPT_MAGIC)

    def take(nbytes: int, what: str) -> bytes:
        nonlocal off
        if nbytes > len(raw) - off:
            raise ParseError(f"{path}: truncated at byte {off}: {what} needs "
                             f"{nbytes} bytes, {len(raw) - off} left")
        off += nbytes
        return raw[off - nbytes:off]

    def u32s(n: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{n}I", take(4 * n, what))

    (count,) = u32s(1, "buffer count")
    state: dict[str, np.ndarray] = {}
    for i in range(count):
        (nlen,) = u32s(1, f"buffer {i} name length")
        try:
            name = take(nlen, f"buffer {i} name").decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"{path}: buffer {i} name is not utf-8") from None
        if name in state:
            raise ParseError(f"{path}: duplicate buffer {name!r}")
        (ndim,) = u32s(1, f"buffer {name!r} ndim")
        shape = u32s(ndim, f"buffer {name!r} shape")
        if ndim > 32:  # the most dimensions every numpy release supports
            raise ParseError(f"{path}: buffer {name!r} has {ndim} dimensions")
        payload = take(8 * math.prod(shape), f"buffer {name!r} payload")
        try:
            state[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
        except ValueError:  # an empty payload under dims whose product overflows
            raise ParseError(f"{path}: buffer {name!r} has invalid shape {shape}") from None
    if off != len(raw):
        raise ParseError(f"{path}: trailing bytes after last buffer")
    return state
