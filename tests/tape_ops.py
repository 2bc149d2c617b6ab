"""Generic tape ops that only the tests' reference formulations use.

The package builds every loss term as one fused tape op, so it has no
elementwise exp/log, reductions, subtraction or transposes on `Tensor`.
The oracles here compose those terms from small ops instead, and these are
the ops they are written with; test_autodiff checks each against finite
differences.
"""

import numpy as np

from srkd.autodiff import Tensor, _unbroadcast


def tneg(t: Tensor) -> Tensor:
    return Tensor.from_op(-t.data, [(t, lambda g: -g)])


def tsub(a: Tensor, b) -> Tensor:
    o = a._coerce(b)
    return Tensor.from_op(a.data - o.data, [
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (o, lambda g: _unbroadcast(-g, o.data.shape)),
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
