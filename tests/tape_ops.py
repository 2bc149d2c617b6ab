"""Generic tape ops that only the tests' reference formulations use.

The package builds every loss term and their weighted recombination as
one fused tape op each, so `Tensor` has no arithmetic, elementwise exp/log,
reductions or transposes. The oracles here compose those terms from small
ops instead, and these are the ops they are written with; test_autodiff
checks each against finite differences. The binary ops take a Tensor or
anything numpy turns into an array, and broadcast as numpy does.
"""

import numpy as np

from srkd.autodiff import Tensor


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
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


def _tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def tadd(a, b) -> Tensor:
    a, b = _tensor(a), _tensor(b)
    return Tensor.from_op(a.data + b.data, [
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(g, b.data.shape)),
    ])


def tmul(a, b) -> Tensor:
    a, b = _tensor(a), _tensor(b)
    return Tensor.from_op(a.data * b.data, [
        (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
        (b, lambda g: _unbroadcast(g * a.data, b.data.shape)),
    ])


def tneg(t: Tensor) -> Tensor:
    return Tensor.from_op(-t.data, [(t, lambda g: -g)])


def tsub(a, b) -> Tensor:
    a, b = _tensor(a), _tensor(b)
    return Tensor.from_op(a.data - b.data, [
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(-g, b.data.shape)),
    ])


def texp(t: Tensor) -> Tensor:
    out = np.exp(t.data)
    return Tensor.from_op(out, [(t, lambda g: g * out)])


def tlog(t: Tensor) -> Tensor:
    return Tensor.from_op(np.log(t.data), [(t, lambda g: g / t.data)])


def tsum(t: Tensor, axis=None, keepdims=False) -> Tensor:
    out = t.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, t.data.shape).copy()

    return Tensor.from_op(out, [(t, vjp)])


def tlog_softmax_rows(t: Tensor) -> Tensor:
    shift = Tensor(t.data.max(axis=-1, keepdims=True))
    z = tsub(t, shift)
    return tsub(z, tlog(tsum(texp(z), axis=-1, keepdims=True)))


def transpose(x: Tensor) -> Tensor:
    return Tensor.from_op(x.data.T, [(x, lambda g: g.T)])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return Tensor.from_op(a.data @ b.data, [(a, lambda g: g @ b.data.T),
                                            (b, lambda g: a.data.T @ g)])
