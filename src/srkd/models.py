"""Tiny geometry-aware point encoders, segmentation heads, and the
student-to-teacher channel projection.

The encoder is a per-point MLP over (position, input features) interleaved
with two rounds of k-nearest-neighbor mean aggregation among valid points;
it is a deliberately small stand-in for a transformer backbone that still
makes relation-based distillation non-degenerate. The segmentation head
consumes the L2-normalized feature map, which is also where evaluation-time
feature noise is injected.
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
_KNN_SLACK = 1e-9      # relative slack of the gemm filter
_KNN_BLOCK = 1 << 17   # float64 entries per (rows, m) filter block (1 MB)


def knn_indices(positions: np.ndarray, mask: np.ndarray, k: int) -> np.ndarray:
    """(N, k') nearest valid neighbors per point, nearest first, self included.

    Padded rows point at themselves so they never mix with real points;
    k' = min(k, number of valid points m). Row i lists the first k' valid
    points j in the order of (d_ij, j), where d_ij is the squared distance
    in the float order of the full m x m matrix, ((p_i - p_j) ** 2).sum(-1):
    dx^2, then += dy^2, then += dz^2. So exact ties go to the lower index,
    and a point appears in its own row unless more than k' points share
    its position.

    The search is exact and runs in three stages:
    1. Bound. The valid points are ordered in x strips, by y within a
       strip. Row i's bound b_i is the k'th smallest d_ij over the
       w = max(33, k') points next to it in that order (all m if fewer),
       so at least k' points lie within it.
    2. Filter. A block of rows at a time, one (rows, 5) @ (5, m) gemm on
       coordinates c centred on the bounding box gives
       [c_i, 1, b_i - |c_i|^2 + s_i] . [2 c_j, -|c_j|^2, 1]
       = b_i + s_i - |c_i - c_j|^2, and every pair where it is >= 0 is
       kept. The slack s_i = 1e-9 (b_i + |c_i|^2 + max_j |c_j|^2) is at
       least five orders of magnitude above the rounding of the centring,
       the gemm and d_ij (at worst a few 1e-15 of the same sum), so the
       filter keeps every pair with d_ij <= b_i, and maybe a few more,
       whatever the BLAS or its thread count. Centring keeps |c|^2 near the
       squared scene radius, so the slack stays far below neighbor
       distances even for coordinates far from the origin.
    3. Exact pass. d_ij is recomputed from the positions for the kept
       pairs (about 10-20 per row), which a stable sort of each row's
       pairs, held in index order and padded with inf, puts in (d_ij, j)
       order; the first k' are the answer.

    All three stages run one block of rows at a time, so the working set
    is one (rows, m) float64 gemm block of at most 128K entries (1 MB), its
    mask, the block's window distances and kept pairs, and a few (m,)
    vectors, instead of the m x m distance matrix.

    Raises ShapeError unless positions is (N, 3) and mask is (N,),
    ConfigError for k < 1 and DataError for a non-finite valid position.
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
    kk = min(k, m)
    idx = np.tile(np.arange(n, dtype=np.intp)[:, None], (1, kk))
    if not m:
        return idx
    p = positions[valid]
    if not np.isfinite(p).all():
        raise DataError("knn_indices needs finite positions at valid points")
    axes = p.T.copy()  # one contiguous row per axis
    w = min(m, max(_KNN_WINDOW, kk))
    order = _strip_order(axes, w)
    rank = np.empty(m, dtype=np.intp)
    rank[order] = np.arange(m)
    first = np.clip(rank - w // 2, 0, m - w)  # each row's window in that order
    c = p - (p.max(axis=0) + p.min(axis=0)) / 2
    cc = np.einsum("ij,ij->i", c, c)
    rhs = np.vstack([2 * c.T, -cc, np.ones(m)])
    lhs = np.column_stack([c, np.ones(m), -cc])
    lhs[:, 4] += _KNN_SLACK * (cc + cc.max())  # each block adds (1 + 1e-9) b_i
    rows = max(1, _KNN_BLOCK // m)
    offsets = np.arange(w)
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        window = order[first[lo:hi, None] + offsets]
        bound = np.partition(_sq_dist(axes, np.s_[lo:hi, None], window), kk - 1,
                             axis=1)[:, kk - 1]
        block = lhs[lo:hi]
        block[:, 4] += (1 + _KNN_SLACK) * bound
        kept = np.flatnonzero(block @ rhs >= 0)
        idx[valid[lo:hi]] = valid[_first_by_distance(axes, lo, hi - lo, kept, kk)]
    return idx


def _sq_dist(axes: np.ndarray, i, j) -> np.ndarray:
    """Squared distances of points i to points j (indices or slices that
    broadcast), in the full matrix's float order: dx^2, then += dy^2, then
    += dz^2."""
    first, *rest = axes
    d = first[i] - first[j]
    d *= d
    for col in rest:
        t = col[i] - col[j]
        t *= t
        d += t
    return d


def _strip_order(axes: np.ndarray, w: int) -> np.ndarray:
    """The points in about sqrt(m / w) strips of equal count along x, by y
    within a strip, so a run of w points in it covers a compact patch."""
    x, y, _ = axes
    m = x.size
    order = np.argsort(x)
    strip = np.arange(m) * max(1, round(math.sqrt(m / w))) // m
    return order[np.lexsort((y[order], strip))]


def _first_by_distance(axes: np.ndarray, lo: int, rows: int, kept: np.ndarray,
                       kk: int) -> np.ndarray:
    """(rows, kk) valid-point indices: for each row lo + r of the block, the
    first kk of its kept pairs (flat indices r * m + j, ascending) by
    (d_ij, j) (stage 3 of `knn_indices`)."""
    r, j = np.divmod(kept, axes.shape[1])
    count = np.bincount(r, minlength=rows)
    start = np.cumsum(count) - count
    padded = np.full((rows, count.max()), np.inf)
    padded[r, np.arange(kept.size) - start[r]] = _sq_dist(axes, r + lo, j)
    first = np.argsort(padded, axis=1, kind="stable")[:, :kk]
    return j[first + start[:, None]]


def _init_linear(rng, fan_in: int, fan_out: int):
    bound = 1.0 / np.sqrt(fan_in)
    w = Tensor(rng.uniform(-bound, bound, (fan_in, fan_out)), requires_grad=True)
    b = Tensor(rng.uniform(-bound, bound, fan_out), requires_grad=True)
    return w, b


class PointEncoder:
    """Per-point MLP + k-NN mean aggregation; widths[0] is the input width."""

    def __init__(self, widths: tuple[int, ...], k: int, seed: int = 0):
        if len(widths) < 2:
            raise DataError("encoder needs at least one linear layer")
        self.widths = tuple(int(w) for w in widths)
        self.k = int(k)
        rng = derive_seed(seed)
        self.params: dict[str, Tensor] = {}
        for i, (fi, fo) in enumerate(zip(self.widths[:-1], self.widths[1:])):
            w, b = _init_linear(rng, fi, fo)
            self.params[f"w{i}"] = w
            self.params[f"b{i}"] = b

    @property
    def d_out(self) -> int:
        return self.widths[-1]

    def forward(self, x, nbr_idx: np.ndarray, mask: np.ndarray) -> Tensor:
        """Feature map (N, d_out); padded rows are exactly zero."""
        h = x if isinstance(x, Tensor) else Tensor(x)
        if h.shape[1] != self.widths[0]:
            raise ShapeError(f"encoder expects width {self.widths[0]}, got {h.shape[1]}")
        n_layers = len(self.widths) - 1
        for i in range(n_layers):
            h = affine(h, self.params[f"w{i}"], self.params[f"b{i}"], tanh=True)
            if i < AGG_ROUNDS:
                h = h.neighbor_mean(nbr_idx)
        return h * np.asarray(mask, dtype=np.float64)[:, None]


class Linear:
    """Row-wise affine map (segmentation head or channel projection)."""

    def __init__(self, d_in: int, d_out: int, seed: int = 0,
                 orthogonal: bool = False):
        self.d_in, self.d_out = int(d_in), int(d_out)
        rng = derive_seed(seed)
        if orthogonal:
            # near-orthogonal rows: QR of a random (d_out, d_in) Gaussian
            q, _ = np.linalg.qr(rng.standard_normal((max(d_in, d_out), min(d_in, d_out))))
            w = q[:d_in, :d_out] if d_in >= d_out else q[:d_out, :d_in].T
            self.w = Tensor(np.ascontiguousarray(w), requires_grad=True)
            self.b = Tensor(np.zeros(d_out), requires_grad=True)
        else:
            self.w, self.b = _init_linear(rng, d_in, d_out)
        self.params = {"w": self.w, "b": self.b}

    def forward(self, x) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.shape[1] != self.d_in:
            raise ShapeError(f"linear expects width {self.d_in}, got {x.shape[1]}")
        return affine(x, self.w, self.b)


class SegModel:
    """Encoder plus head; students also carry the channel projection."""

    def __init__(self, widths: tuple[int, ...], n_classes: int, k: int,
                 seed: int = 0, project_to: int | None = None):
        self.widths = tuple(int(w) for w in widths)
        self.n_classes = int(n_classes)
        self.k = int(k)
        self.project_to = project_to
        rng = derive_seed(seed)
        self.encoder = PointEncoder(widths, k=k, seed=int(rng.integers(2**62)))
        self.head = Linear(self.encoder.d_out, n_classes,
                           seed=int(rng.integers(2**62)))
        self.projection = None
        if project_to is not None:
            self.projection = Linear(self.encoder.d_out, int(project_to),
                                     seed=int(rng.integers(2**62)),
                                     orthogonal=True)

    # -- forward ------------------------------------------------------------

    @staticmethod
    def encoder_input(sample: FixedSample) -> np.ndarray:
        return np.hstack([sample.cloud.positions, sample.cloud.features])

    def forward(self, sample: FixedSample, nbr_idx: np.ndarray | None = None,
                feature_noise: np.ndarray | None = None):
        """Returns (normalized feature map, logits)."""
        if nbr_idx is None:
            nbr_idx = knn_indices(sample.cloud.positions, sample.mask, self.k)
        f_norm = self.encoder.forward(self.encoder_input(sample), nbr_idx,
                                      sample.mask).l2_normalize_rows()
        if feature_noise is not None:
            f_norm = f_norm + feature_noise
        logits = self.head.forward(f_norm)
        return f_norm, logits

    # -- parameters ----------------------------------------------------------

    def named_params(self) -> dict[str, Tensor]:
        out = {f"encoder.{k}": v for k, v in self.encoder.params.items()}
        out.update({f"head.{k}": v for k, v in self.head.params.items()})
        if self.projection is not None:
            out.update({f"proj.{k}": v for k, v in self.projection.params.items()})
        return out

    def param_count(self) -> int:
        return sum(t.data.size for t in self.named_params().values())

    def zero_grads(self) -> None:
        for t in self.named_params().values():
            t.zero_grad()

    @property
    def frozen(self) -> bool:
        """True when no parameter needs a gradient (see `freeze`)."""
        return not any(t.requires_grad for t in self.named_params().values())

    def freeze(self) -> "SegModel":
        """Stop every parameter from recording a tape; returns the model."""
        for t in self.named_params().values():
            t.requires_grad = False
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: t.data.copy() for name, t in self.named_params().items()}
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
        shapes = {"head.w": (widths[-1], n_classes), "head.b": (n_classes,)}
        for i, (fi, fo) in enumerate(zip(widths[:-1], widths[1:])):
            shapes[f"encoder.w{i}"], shapes[f"encoder.b{i}"] = (fi, fo), (fo,)
        if project_to >= 0:
            shapes["proj.w"], shapes["proj.b"] = (widths[-1], project_to), (project_to,)
        for name, shape in shapes.items():
            if name not in state:
                raise DataError(f"checkpoint is missing buffer {name!r}")
            if state[name].shape != shape:
                raise DataError(f"checkpoint buffer {name!r} has shape "
                                f"{state[name].shape}, but meta.* implies {shape}")
        model = cls(widths, n_classes, k=_meta(state, "meta.k"),
                    project_to=None if project_to < 0 else project_to)
        for name, t in model.named_params().items():
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
                       project_to=teacher.encoder.d_out)
    student.head.w.data[...] = student.projection.w.data @ teacher.head.w.data
    student.head.b.data[...] = teacher.head.b.data
    dense_teacher = teacher.param_count()
    dense_student = sum(t.data.size for n, t in student.named_params().items()
                        if not n.startswith("proj."))
    # The 3x compression ratio only holds once weight matrices dominate the
    # bias vectors, so skip the check for very narrow debug models.
    if teacher.encoder.d_out >= 64 and dense_student * 3 >= dense_teacher:
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
