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
from .errors import DataError, ParseError, ShapeError

_CKPT_MAGIC = b"SRKDCKPT1"

AGG_ROUNDS = 2
KNN_BLOCK_ENTRIES = 32768  # float64 entries per k-NN distance block (256 KB)


def knn_indices(positions: np.ndarray, mask: np.ndarray, k: int) -> np.ndarray:
    """(N, k') nearest valid neighbors per point, self included.

    Padded rows point at themselves so they never mix with real points;
    k' = min(k, number of valid points).

    The m valid points are walked in blocks of rows = max(1, 32768 // m).
    For each block the squared distances to all m valid points are built
    one coordinate at a time, (x_i - x_j)^2, then += (y_i - y_j)^2, then
    += (z_i - z_j)^2, which is the float operation order of the full-matrix
    ((p_i - p_j) ** 2).sum(axis=-1); the block's rows are then selected with
    argpartition (argsort when k' = m). Selection works row by row, so each
    row sees the same bits as in the full m x m matrix and the result is
    byte-identical to it, neighbour order and tie choices included. The
    working set is two (rows, m) float64 buffers of about 32K entries each
    instead of an (m, m, 3) difference tensor.
    """
    n = positions.shape[0]
    valid = np.flatnonzero(mask)
    m = valid.size
    kk = min(k, m)
    idx = np.tile(np.arange(n, dtype=np.intp)[:, None], (1, kk))
    if m:
        first, *rest = positions[valid].T.copy()  # one contiguous row per axis
        rows = max(1, KNN_BLOCK_ENTRIES // m)
        d_buf, t_buf = np.empty((rows, m)), np.empty((rows, m))
        for lo in range(0, m, rows):
            hi = min(lo + rows, m)
            d, t = d_buf[:hi - lo], t_buf[:hi - lo]
            np.subtract(first[lo:hi, None], first, out=d)
            d *= d
            for col in rest:
                np.subtract(col[lo:hi, None], col, out=t)
                t *= t
                d += t
            near = np.argpartition(d, kk - 1, axis=1)[:, :kk] if kk < m \
                else np.argsort(d, axis=1)
            idx[valid[lo:hi]] = valid[near]
    return idx


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
