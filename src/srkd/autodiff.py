"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

The op set is exactly what the tiny encoders need: k-NN mean aggregation,
row L2 normalization, row concatenation, segment mean pooling over a list
of maps and the fused affine layer (matmul, bias and optional tanh in one
op). Each loss term, the task loss included, and the weighted
recombination of the six terms are each one `Tensor.from_op` node
carrying its own hand-derived gradient; so are the model's padded-row mask
and its evaluation-time feature noise. `Tensor` has no arithmetic.
Gradients are checked against central finite differences in the tests.

The tape holds no Tensor data of its own. An op result's edges live on a
data-free `_Node` and point at the parents' nodes, not at the parent
Tensors; a leaf is its own node, and backward() sets .grad on it. Each
vjp captures only the arrays it reads, so an intermediate's array is freed
as soon as the caller drops its Tensor unless a vjp reads it. There are no
reference cycles, so refcounting frees it without waiting for `gc`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ShapeError, TapeError
from .numerics import L2_EPS

Array = np.ndarray


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


class _Node:
    """An op result's place on the tape: its edges into the parents' nodes,
    as (node, vjp: upstream grad -> parent grad contribution). No data.
    A node can itself be an op's parent (`affine` with tanh), so it answers
    `from_op`'s requires_grad and _node like a Tensor."""

    __slots__ = ("_edges",)
    requires_grad = True

    def __init__(self, edges: list[tuple["Tensor | _Node", Callable[[Array], Array]]]):
        self._edges = edges

    @property
    def _node(self) -> "_Node":
        return self


class Tensor:
    """A float64 array; an op result also carries its tape node."""

    __slots__ = ("data", "grad", "requires_grad", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._op: _Node | None = None       # None for a leaf

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_op(data: Array, edges: Sequence[tuple["Tensor | _Node", Callable]]) -> "Tensor":
        """Build a tensor produced by a (possibly fused) differentiable op."""
        live = [(p._node, f) for p, f in edges if p.requires_grad]
        out = Tensor(data, requires_grad=bool(live))
        if live:
            out._op = _Node(live)
        return out

    @property
    def _node(self) -> "Tensor | _Node":
        """Where a child's edge points: the op's node, or a leaf itself."""
        return self if self._op is None else self._op

    @property
    def _edges(self) -> list:
        return [] if self._op is None else self._op._edges

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
        root = self._node
        topo: list[Tensor | _Node] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor | _Node, bool]] = [(root, False)]
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
        grads: dict[int, Array] = {id(root): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if not node._edges and node.requires_grad:  # leaf parameter
                node.grad = g if node.grad is None else node.grad + g
            for parent, vjp in node._edges:
                contrib = vjp(g)
                key = id(parent)
                grads[key] = grads[key] + contrib if key in grads else contrib

    def zero_grad(self) -> None:
        self.grad = None

    # -- structural ops ------------------------------------------------------

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

    def l2_normalize_rows(self) -> "Tensor":
        """Divide each row by max(||row||_2, L2_EPS); zero rows stay zero."""
        norms = np.linalg.norm(self.data, axis=-1, keepdims=True)
        denom = np.maximum(norms, L2_EPS)
        out = self.data / denom
        big = norms > L2_EPS

        def vjp(g):
            proj = (out * g).sum(axis=-1, keepdims=True)
            return (g - np.where(big, out * proj, 0.0)) / denom

        return Tensor.from_op(out, [(self, vjp)])


def concat_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along axis 0."""
    datas = [t.data for t in tensors]
    widths = {d.shape[1] for d in datas}
    if len(widths) != 1:
        raise ShapeError("concat_rows requires a common column count")
    offsets = np.cumsum([0] + [d.shape[0] for d in datas])
    return Tensor.from_op(np.concatenate(datas, axis=0), [
        (t, lambda g, lo=lo, hi=hi: g[lo:hi])
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:])])


def segment_mean(maps: Sequence[Tensor], members: Array, starts: Array,
                 rows: Array, n_rows: int) -> Tensor:
    """Mean-pool rows of a list of 2-D maps into n_rows rows, in one op.

    Member offsets[b] + i is row i of map b (the maps stacked in list
    order). Output row rows[r] is the mean of members[starts[r]:starts[r + 1]]
    (the last segment runs to the end), summed by np.add.reduceat in member
    order; other rows are zero, and a length-1 segment is its map row bit
    for bit. Members are gathered map by map, never from a stacked copy of
    the maps. They are distinct, so the op's one edge per map assigns
    g[row] / count to that map's members, no scatter-add. Raises ShapeError
    unless the maps share one width, members are distinct and in range,
    starts rise strictly from 0 below len(members), and rows, one per
    start, are distinct and in [0, n_rows).
    """
    members, starts, rows = (np.asarray(a, dtype=np.intp) for a in (members, starts, rows))
    if len({t.shape[1:] for t in maps}) != 1 or any(t.data.ndim != 2 for t in maps):
        raise ShapeError("segment_mean expects 2-D maps of one width")
    offsets = np.cumsum([0] + [t.shape[0] for t in maps])
    if members.ndim != 1 or starts.ndim != 1 or rows.shape != starts.shape:
        raise ShapeError("segment_mean expects 1-D members, starts and rows, "
                         "one row per start")
    for name, idx, n in (("members", members, offsets[-1]), ("rows", rows, n_rows)):
        if idx.size and (idx.min() < 0 or idx.max() >= n
                         or np.bincount(idx).max() > 1):
            raise ShapeError(f"segment_mean {name} must be distinct, in [0, {n})")
    lengths = np.diff(starts, append=members.size)
    if np.any(lengths <= 0) or (starts[0] != 0 if starts.size else members.size):
        raise ShapeError("segment_mean starts must rise strictly from 0 "
                         "below len(members)")
    owner = np.searchsorted(offsets, members, side="right") - 1
    parts = [(t, np.flatnonzero(owner == b), offsets[b]) for b, t in enumerate(maps)]
    gathered = np.empty((members.size, maps[0].shape[1]))
    for t, pick, lo in parts:
        gathered[pick] = t.data[members[pick] - lo]
    counts = lengths[:, None].astype(np.float64)
    out = np.zeros((n_rows, gathered.shape[1]))
    out[rows] = np.add.reduceat(gathered, starts, axis=0) / counts
    row_of, count_of = np.repeat(rows, lengths), np.repeat(counts, lengths, axis=0)

    def edge(t, pick, lo):
        shape = t.shape

        def vjp(g):
            gx = np.zeros(shape)
            gx[members[pick] - lo] = g[row_of[pick]] / count_of[pick]
            return gx
        return t, vjp

    return Tensor.from_op(out, [edge(*part) for part in parts])


def affine(x: Tensor, w: Tensor, b: Tensor, tanh: bool = False) -> Tensor:
    """x @ w + b, through tanh if `tanh`, as one tape op.

    The forward adds b into the matmul output and applies tanh in place, so
    the tape keeps at most one (N, D_out) array, `out`, which only the tanh
    vjp reads; where separate matmul, add and tanh ops kept three. The w
    edge also keeps x's array. The edges into x, w and b return dz @ w.T,
    x.T @ dz and dz.sum(axis=0) of dz = g without tanh. With tanh, the
    result's one edge forms dz = g * (1 - out^2) once and hands it to a
    data-free node that carries those three edges. These are the numpy
    operations of the separate ops, so values and gradients equal theirs
    bit for bit. Raises ShapeError unless x is (N, D_in), w is
    (D_in, D_out) and b is (D_out,).
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] \
            or b.shape != (w.shape[1],):
        raise ShapeError(f"affine shape mismatch: {x.shape} @ {w.shape} + {b.shape}")
    xd, wd = x.data, w.data
    out = xd @ wd
    out += b.data
    parts = [(x, lambda dz: dz @ wd.T), (w, lambda dz: xd.T @ dz),
             (b, lambda dz: dz.sum(axis=0))]
    live = [(t, f) for t, f in parts if t.requires_grad]
    if tanh:
        np.tanh(out, out=out)
        if live:  # one edge forms dz into a node that carries the three edges
            inner = _Node([(t._node, f) for t, f in live])
            live = [(inner, lambda g: g * (1.0 - out * out))]
    return Tensor.from_op(out, live)


def finite_diff_gradient(f: Callable[[Array], "float | Array"], theta: Array,
                         h: float = 1e-5) -> Array:
    """Central-difference gradient (f(theta + h e_k) - f(theta - h e_k)) / 2h
    of an f returning a scalar or an array of fixed shape, shaped theta's
    shape plus f's: entry by entry what a scalar f of that entry gives. An
    empty theta calls f once, for its shape."""
    if h <= 0:
        raise ValueError("h must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    flat = theta.ravel()
    rows = []
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        fp = np.array(f(theta), dtype=np.float64)
        flat[k] = orig - h
        fm = np.array(f(theta), dtype=np.float64)
        flat[k] = orig
        if not (np.isfinite(fp).all() and np.isfinite(fm).all()):
            raise NumericError(f"non-finite evaluation at coordinate {k}")
        rows.append((fp - fm) / (2.0 * h))
    out_shape = rows[0].shape if rows else np.shape(f(theta))
    return np.reshape(rows, theta.shape + out_shape)
