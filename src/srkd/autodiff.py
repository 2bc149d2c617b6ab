"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

The op set is exactly what the distillation losses and the tiny encoders
need: +, - (binary and unary) and * with broadcasting, matmul and
transpose, exp/log/tanh, sum, segment mean pooling, k-NN mean
aggregation, row L2 normalization, row log-softmax and row concatenation.
Gradients are checked against central finite differences in the test
suite.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ShapeError, TapeError

Array = np.ndarray


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient over axes that were broadcast in the forward pass."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _scatter_rows(src: Array, idx: Array, n: int) -> Array:
    """out[t] = the sum of src[i] over every (i, r) with idx[i, r] == t.

    Equal bit for bit, signed zeros included, to the unbuffered ufunc.at
    scatter-add of np.repeat(src, k, axis=0) into zeros at idx.ravel(),
    without its (N*k, D) operands, which adds each target's terms in
    increasing flat position i*k + r, from +0.0. A stable argsort of
    idx.ravel() lists the positions target by target in that same order;
    bincount gives the in-degrees, and a position's slot is its rank minus
    its target's segment start. The reverse table has one row per slot and
    one column per target, the targets ordered by decreasing in-degree, and
    holds the source row i. The targets with more than r sources are then
    the first active[r] columns of row r, so adding src[table[r, :active[r]]]
    into zeros for r = 0, 1, ... adds each target's terms in that order
    without gathering padding; a final permutation restores target order.
    The working set is three (n, D) arrays plus the (max in-degree, n) table.
    """
    k = idx.shape[1]
    flat = idx.ravel()
    # the smallest unsigned type that holds n - 1 sorts in linear time for
    # n <= 65536; a stable sort's result does not depend on the key type
    order = np.argsort(flat.astype(np.min_scalar_type(max(n - 1, 0))), kind="stable")
    deg = np.bincount(flat, minlength=n)
    target = flat[order]
    slot = np.arange(flat.size) - (np.cumsum(deg) - deg)[target]
    by_deg = np.argsort(-deg, kind="stable")
    column = np.empty(n, dtype=np.intp)
    column[by_deg] = np.arange(n)
    table = np.empty((deg.max(initial=0), n), dtype=np.intp)
    table[slot, column[target]] = order // k
    acc = np.zeros((n,) + src.shape[1:])
    for r, active in enumerate(np.bincount(slot)):
        acc[:active] += src[table[r, :active]]
    out = np.empty_like(acc)
    out[by_deg] = acc
    return out


class Tensor:
    """A float64 array plus the tape edges needed for backward()."""

    __slots__ = ("data", "grad", "requires_grad", "_edges")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        # list of (parent Tensor, vjp: upstream grad -> parent grad contribution)
        self._edges: list[tuple["Tensor", Callable[[Array], Array]]] = []

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_op(data: Array, edges: Sequence[tuple["Tensor", Callable]]) -> "Tensor":
        """Build a tensor produced by a (possibly fused) differentiable op."""
        live = [(p, f) for p, f in edges if p.requires_grad]
        out = Tensor(data, requires_grad=bool(live))
        out._edges = live
        return out

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    # -- autodiff -----------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable .grad."""
        if self.data.size != 1:
            raise TapeError(f"backward requires a scalar loss, got shape {self.shape}")
        if not np.isfinite(self.data):
            raise NumericError("backward called on a non-finite loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._edges:
                if id(parent) not in seen:
                    stack.append((parent, False))
        grads: dict[int, Array] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and not node._edges:  # leaf parameter
                node.grad = g if node.grad is None else node.grad + g
            for parent, vjp in node._edges:
                contrib = vjp(g)
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contrib
                else:
                    grads[key] = contrib

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        o = self._coerce(other)
        return Tensor.from_op(self.data + o.data, [
            (self, lambda g: _unbroadcast(g, self.data.shape)),
            (o, lambda g: _unbroadcast(g, o.data.shape)),
        ])

    __radd__ = __add__

    def __neg__(self):
        return Tensor.from_op(-self.data, [(self, lambda g: -g)])

    def __sub__(self, other):
        o = self._coerce(other)
        return Tensor.from_op(self.data - o.data, [
            (self, lambda g: _unbroadcast(g, self.data.shape)),
            (o, lambda g: _unbroadcast(-g, o.data.shape)),
        ])

    def __mul__(self, other):
        o = self._coerce(other)
        return Tensor.from_op(self.data * o.data, [
            (self, lambda g: _unbroadcast(g * o.data, self.data.shape)),
            (o, lambda g: _unbroadcast(g * self.data, o.data.shape)),
        ])

    __rmul__ = __mul__

    def __matmul__(self, other):
        o = self._coerce(other)
        if self.data.ndim != 2 or o.data.ndim != 2:
            raise ShapeError("matmul expects 2-D operands")
        if self.data.shape[1] != o.data.shape[0]:
            raise ShapeError(f"matmul shape mismatch: {self.shape} @ {o.shape}")
        return Tensor.from_op(self.data @ o.data, [
            (self, lambda g: g @ o.data.T),
            (o, lambda g: self.data.T @ g),
        ])

    @property
    def T(self) -> "Tensor":
        return Tensor.from_op(self.data.T, [(self, lambda g: g.T)])

    # -- elementwise transcendentals -----------------------------------------

    def exp(self):
        out = np.exp(self.data)
        return Tensor.from_op(out, [(self, lambda g: g * out)])

    def log(self):
        return Tensor.from_op(np.log(self.data), [(self, lambda g: g / self.data)])

    def tanh(self):
        out = np.tanh(self.data)
        return Tensor.from_op(out, [(self, lambda g: g * (1.0 - out * out))])

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = self.data.sum(axis=axis, keepdims=keepdims)

        def vjp(g):
            if axis is None:
                return np.broadcast_to(g, self.data.shape).copy()
            gg = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(gg, self.data.shape).copy()

        return Tensor.from_op(out, [(self, vjp)])

    # -- structural ops ------------------------------------------------------

    def segment_mean(self, members: Array, starts: Array, n_rows: int) -> "Tensor":
        """Row r is the mean of x[members[starts[r]:starts[r + 1]]] (the last
        segment runs to the end), summed by np.add.reduceat in member order;
        rows len(starts) .. n_rows - 1 are zero, and a length-1 segment is
        its row bit for bit. Members are distinct, so each input row feeds at
        most one output row and the vjp is the assignment gx[members] =
        g[r] / count[r], no scatter-add. The working set is the (members, D)
        gather. Raises ShapeError unless members are distinct and in [0, n),
        starts rise strictly from 0 below len(members), len(starts) <= n_rows.
        """
        members = np.asarray(members, dtype=np.intp)
        starts = np.asarray(starts, dtype=np.intp)
        n = self.data.shape[0]
        if members.ndim != 1 or starts.ndim != 1 or starts.size > n_rows:
            raise ShapeError("segment_mean expects 1-D members and at most "
                             f"n_rows={n_rows} 1-D starts")
        if members.size and (members.min() < 0 or members.max() >= n
                             or np.bincount(members).max() > 1):
            raise ShapeError(f"segment_mean members must be distinct, in [0, {n})")
        lengths = np.diff(starts, append=members.size)
        if np.any(lengths <= 0) or (starts[0] != 0 if starts.size else members.size):
            raise ShapeError("segment_mean starts must rise strictly from 0 "
                             "below len(members)")
        counts = lengths[:, None].astype(np.float64)
        out = np.zeros((n_rows,) + self.data.shape[1:])
        if starts.size:
            out[:starts.size] = np.add.reduceat(self.data[members], starts,
                                                axis=0) / counts

        def vjp(g):
            gx = np.zeros_like(self.data)
            gx[members] = np.repeat(g[:starts.size] / counts, lengths, axis=0)
            return gx

        return Tensor.from_op(out, [(self, vjp)])

    def neighbor_mean(self, idx: Array) -> "Tensor":
        """Row-wise mean over k neighbor rows; idx has shape (N, k).

        The forward adds the k neighbour slices one column at a time into
        zeros, 0.0 + x[idx[:, 0]] + x[idx[:, 1]] + ..., then divides by k:
        the order in which x[idx].mean(axis=1) sums rows wider than one
        column (signed zeros included), without its (N, k, D) temporary.
        The vjp spreads g / k back to the rows idx names through
        `_scatter_rows`. The working set is a few (N, D) arrays in both
        passes, plus the (max in-degree, n) index table in the vjp. Raises
        ShapeError unless idx is 2-D with k >= 1 columns and every entry
        lies in [0, n).
        """
        idx = np.asarray(idx, dtype=np.intp)
        n = self.data.shape[0]
        if idx.ndim != 2 or idx.shape[1] < 1:
            raise ShapeError(f"neighbor_mean expects an (N, k >= 1) index, got {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ShapeError(f"neighbor_mean index outside [0, {n})")
        k = idx.shape[1]
        out = np.zeros((idx.shape[0],) + self.data.shape[1:])
        for r in range(k):
            out += self.data[idx[:, r]]
        out /= k

        def vjp(g):
            return _scatter_rows(g / k, idx, n)

        return Tensor.from_op(out, [(self, vjp)])

    def l2_normalize_rows(self, eps: float = 1e-12) -> "Tensor":
        """Divide each row by max(||row||_2, eps); zero rows stay zero."""
        norms = np.linalg.norm(self.data, axis=-1, keepdims=True)
        denom = np.maximum(norms, eps)
        out = self.data / denom
        big = norms > eps

        def vjp(g):
            proj = (out * g).sum(axis=-1, keepdims=True)
            gx = (g - np.where(big, out * proj, 0.0)) / denom
            return gx

        return Tensor.from_op(out, [(self, vjp)])

    def log_softmax_rows(self, temperature: float = 1.0) -> "Tensor":
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        s = self * (1.0 / temperature)
        shift = Tensor(s.data.max(axis=-1, keepdims=True))
        z = s - shift
        return z - z.exp().sum(axis=-1, keepdims=True).log()


def concat_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along axis 0."""
    datas = [t.data for t in tensors]
    widths = {d.shape[1] for d in datas}
    if len(widths) != 1:
        raise ShapeError("concat_rows requires a common column count")
    offsets = np.cumsum([0] + [d.shape[0] for d in datas])
    edges = []
    for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
        edges.append((t, lambda g, lo=lo, hi=hi: g[lo:hi]))
    return Tensor.from_op(np.concatenate(datas, axis=0), edges)


def finite_diff_gradient(f: Callable[[Array], float], theta: Array,
                         h: float = 1e-5) -> Array:
    """Central-difference gradient of a scalar function of a flat vector."""
    if h <= 0:
        raise ValueError("h must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(theta)
    flat = theta.ravel()
    gflat = grad.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        fp = float(f(theta))
        flat[k] = orig - h
        fm = float(f(theta))
        flat[k] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite evaluation at coordinate {k}")
        gflat[k] = (fp - fm) / (2.0 * h)
    return grad
