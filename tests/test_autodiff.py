import tracemalloc

import numpy as np
import pytest

from srkd.autodiff import (Tensor, affine, concat_rows, finite_diff_gradient,
                           segment_mean)
from srkd.errors import NumericError, ShapeError, TapeError
from srkd.models import knn_indices
from tape_ops import tadd, texp, tlog, tlog_softmax_rows, tmul, tneg, tsub, tsum

RNG = np.random.default_rng(12345)


def sq(t: Tensor) -> Tensor:
    return tmul(t, t)


def check_grad(build, *shapes, atol=1e-7, rtol=1e-6):
    """Compare backward() against central differences for each input."""
    arrays = [RNG.standard_normal(s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build(*tensors)
    loss.backward()
    for i, t in enumerate(tensors):
        def f(theta, i=i):
            args = [Tensor(a.copy()) for a in arrays]
            args[i] = Tensor(theta)
            return build(*args).item()

        fd = finite_diff_gradient(f, arrays[i].copy(), h=1e-6)
        np.testing.assert_allclose(t.grad, fd, atol=atol, rtol=rtol)


class TestElementwiseOps:
    def test_add_mul(self):
        check_grad(lambda a, b: tsum(tmul(tadd(a, b), a)), (3, 4), (3, 4))

    def test_sub_div(self):
        check_grad(lambda a, b: tsum(tsub(tmul(a, tadd(tmul(b, b), 3.0)), b)),
                   (2, 5), (2, 5))

    def test_scalar_mixing(self):
        check_grad(lambda a: tsum(sq(tadd(tmul(2.5, a), 1.0))), (4, 3))

    def test_neg(self):
        check_grad(lambda a, b: tsum(tmul(tneg(a), b)), (3, 4), (3, 4))

    def test_exp_log(self):
        check_grad(lambda a: tsum(tadd(texp(a), tlog(tadd(tmul(a, a), 0.5)))), (6,))

    def test_broadcasting(self):
        check_grad(lambda a, b: tsum(sq(tadd(a, b))), (3, 4), (4,))
        check_grad(lambda a, b: tsum(tmul(a, b)), (3, 1), (3, 4))


def unfused_affine(x: Tensor, w: Tensor, b: Tensor, tanh: bool) -> Tensor:
    """Reference: x @ w + b (then tanh) as the three separate tape ops the
    encoder layers and the head recorded before `affine` fused them."""
    z = tadd(Tensor.from_op(x.data @ w.data, [(x, lambda g: g @ w.data.T),
                                              (w, lambda g: x.data.T @ g)]), b)
    if not tanh:
        return z
    out = np.tanh(z.data)
    return Tensor.from_op(out, [(z, lambda g: g * (1.0 - out * out))])


class TestAffine:
    @pytest.mark.parametrize("tanh", [False, True])
    def test_matches_finite_differences(self, tanh):
        check_grad(lambda x, w, b: tsum(sq(affine(x, w, b, tanh))),
                   (5, 4), (4, 3), (3,))

    @pytest.mark.parametrize("x_grad", [False, True])
    @pytest.mark.parametrize("tanh", [False, True])
    def test_bit_identical_to_unfused_ops(self, tanh, x_grad):
        # rows 1 and 4 are padding: zero inputs, masked out of the output
        # as in `SegModel.encode`
        x = RNG.standard_normal((6, 5))
        x[[1, 4]] = 0.0
        w, b = RNG.standard_normal((5, 4)), RNG.standard_normal(4)
        mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])[:, None]
        probe = RNG.standard_normal((6, 4))
        runs = []
        for op in (affine, unfused_affine):
            leaves = [Tensor(x.copy(), requires_grad=x_grad),
                      Tensor(w.copy(), requires_grad=True),
                      Tensor(b.copy(), requires_grad=True)]
            out = tmul(op(*leaves, tanh=tanh), mask)
            loss = tsum(tmul(sq(out), probe))
            loss.backward()
            runs.append((out.data, loss.item(), [t.grad for t in leaves]))
        (out, loss, grads), (want_out, want_loss, want_grads) = runs
        assert out.tobytes() == want_out.tobytes() and loss == want_loss
        for got, want in zip(grads, want_grads, strict=True):
            assert got is want is None or got.tobytes() == want.tobytes()

    def test_frozen_inputs_record_no_tape(self):
        out = affine(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))),
                     Tensor(np.zeros(2)), tanh=True)
        assert not out.requires_grad and not out._edges

    @pytest.mark.parametrize("shapes", [((2, 3), (2, 3), (3,)),
                                        ((2, 3), (3, 4), (3,)),
                                        ((3,), (3, 4), (4,))],
                             ids=["inner", "bias", "rank"])
    def test_shape_error(self, shapes):
        x, w, b = (Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(ShapeError):
            affine(x, w, b)


class TestLinearAlgebraOps:
    def test_sum_axis_keepdims(self):
        check_grad(lambda a: tsum(tmul(a, tsum(sq(a), axis=1, keepdims=True))),
                   (4, 3))


class TestStructuredOps:
    def test_segment_mean(self):
        # segments {4}, {0, 2}, {5, 1} of a 4-row and a 2-row map (members 4
        # and 5 are rows 0 and 1 of the second) pooled into rows 4, 0 and 2
        # of 5: rows 1 and 3 are padding, stacked row 3 feeds nothing
        members, starts, rows = np.array([4, 0, 2, 5, 1]), np.array([0, 1, 3]), [4, 0, 2]
        w = RNG.standard_normal((5, 3))
        check_grad(lambda a, b: tsum(tmul(sq(segment_mean([a, b], members, starts,
                                                          rows, 5)), w)),
                   (4, 3), (2, 3))

    def test_segment_mean_values(self):
        x = RNG.standard_normal((6, 3))
        maps = [Tensor(x[:4], requires_grad=True), Tensor(x[4:], requires_grad=True)]
        pooled = segment_mean(maps, [4, 0, 2, 5, 1], [0, 1, 3], [4, 0, 2], 5)
        assert [p for p, _ in pooled._edges] == [m._node for m in maps]  # one edge per map
        out = pooled.data
        assert out[4].tobytes() == x[4].tobytes()  # a length-1 segment is its row
        np.testing.assert_allclose(out[[0, 2]], [(x[0] + x[2]) / 2, (x[5] + x[1]) / 2],
                                   rtol=1e-15)
        assert np.all(out[[1, 3]] == 0.0)
        empty = segment_mean(maps, np.empty(0, np.intp), np.empty(0, np.intp),
                             np.empty(0, np.intp), 2)
        assert empty.shape == (2, 3) and np.all(empty.data == 0.0)

    @pytest.mark.parametrize("members,starts,n_rows", [
        ([0, 6], [0], 2),           # member out of range
        ([-1, 2], [0], 2),          # negative member
        ([1, 1], [0, 1], 2),        # duplicate member: in-degree 2
        ([0, 1], [1], 2),           # first segment does not start at 0
        ([0, 1, 2], [0, 2, 2], 3),  # empty segment
        ([0, 1, 2], [0, 2, 1], 3),  # starts fall
        ([0, 1], [0, 2], 2),        # start past the last member
        ([0, 1, 2], [0, 1, 2], 2),  # more segments than rows
        ([0, 1], [], 2),            # members outside every segment
        ([], [0], 2),               # a segment without members
        ([[0, 1]], [0], 2),         # 2-D members
    ])
    def test_segment_mean_rejects(self, members, starts, n_rows):
        # members index a 4-row and a 2-row map, stacked
        maps = [Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 2)))]
        with pytest.raises(ShapeError):
            segment_mean(maps, np.array(members, np.intp), np.array(starts, np.intp),
                         np.arange(len(starts)), n_rows)

    @pytest.mark.parametrize("shapes,rows", [
        (((4, 2), (2, 2)), [1, 1]),     # two segments on one row
        (((4, 2), (2, 2)), [0]),        # fewer rows than segments
        (((4, 2), (2, 2)), [0, -1]),    # negative row
        (((4, 2), (2, 3)), [0, 1]),     # maps of unequal width
        (((4, 2), (2, 2, 1)), [0, 1]),  # a map that is not 2-D
        ((), [0, 1]),                   # no maps
    ], ids=["duplicate_row", "short_rows", "negative_row", "widths", "rank",
            "no_maps"])
    def test_segment_mean_rejects_rows_and_maps(self, shapes, rows):
        maps = [Tensor(np.zeros(s)) for s in shapes]
        with pytest.raises(ShapeError):
            segment_mean(maps, [0, 1], [0, 1], rows, 3)

    def test_neighbor_mean(self):
        idx = RNG.integers(0, 5, (5, 3))
        check_grad(lambda a: tsum(sq(a.neighbor_mean(idx))), (5, 2))

    def test_l2_normalize(self):
        w = RNG.standard_normal((4, 3))
        check_grad(lambda a: tsum(tmul(a.l2_normalize_rows(), w)), (4, 3))

    def test_l2_normalize_zero_row_safe(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        tsum(t.l2_normalize_rows()).backward()
        assert np.all(np.isfinite(t.grad))

    def test_log_softmax_rows(self):
        w = RNG.standard_normal((3, 5))
        check_grad(lambda a: tsum(tmul(tlog_softmax_rows(a), w)), (3, 5))

    def test_concat_rows(self):
        check_grad(lambda a, b: tsum(sq(concat_rows([a, b]))), (2, 3), (4, 3))


def neighbor_mean_oracle(x, idx, g):
    """Forward and input gradient by the formulas of the (N, k, D) gather
    and the np.add.at scatter that neighbor_mean must reproduce bit for bit."""
    k = idx.shape[1]
    gx = np.zeros_like(x)
    np.add.at(gx, idx.ravel(), np.repeat(g, k, axis=0) / k)
    return x[idx].mean(axis=1), gx


def neighbor_mean_passes(x, idx, g):
    t = Tensor(x, requires_grad=True)
    out = t.neighbor_mean(idx)
    tsum(tmul(out, g)).backward()  # the upstream gradient of out is exactly g
    return out.data, t.grad


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def with_signed_zeros(rng, shape):
    """Values over 16 decades, so a changed summation order shows, with
    about a fifth of the entries -0.0."""
    a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    a[rng.random(shape) < 0.2] = -0.0
    return a


class TestNeighborMeanBits:
    @pytest.mark.parametrize("n, rows", [(1, 1), (2, 2), (37, 37), (37, 60),
                                         (1024, 1024)])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_random_index_matches_oracle(self, n, rows, k):
        rng = np.random.default_rng(n * 31 + rows + k)
        idx = rng.integers(0, n, (rows, k))
        if n > 1:
            idx[idx == n - 1] = 0  # row n - 1 unused, row 0 repeated
            indeg = np.bincount(idx.ravel(), minlength=n)
            assert indeg[n - 1] == 0 and indeg[0] > 1
        x, g = with_signed_zeros(rng, (n, 5)), with_signed_zeros(rng, (rows, 5))
        for got, want in zip(neighbor_mean_passes(x, idx, g),
                             neighbor_mean_oracle(x, idx, g)):
            assert same_bits(got, want)

    @pytest.mark.parametrize("valid", [1024, 700, 3])
    def test_knn_index_with_padded_rows_matches_oracle(self, valid):
        rng = np.random.default_rng(valid)
        mask = np.zeros(1024, dtype=bool)
        mask[rng.permutation(1024)[:valid]] = True
        idx = knn_indices(rng.standard_normal((1024, 3)), mask, 8)
        x, g = with_signed_zeros(rng, (1024, 16)), with_signed_zeros(rng, (1024, 16))
        for got, want in zip(neighbor_mean_passes(x, idx, g),
                             neighbor_mean_oracle(x, idx, g)):
            assert same_bits(got, want)

    def test_working_set(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1024, 64)), requires_grad=True)
        idx = knn_indices(rng.standard_normal((1024, 3)), np.ones(1024, dtype=bool), 8)
        g = rng.standard_normal((1024, 64))

        def peak(fn):
            fn()
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        vjp = x.neighbor_mean(idx)._edges[0][1]
        assert peak(lambda: x.neighbor_mean(idx)) < 2 * 2**20
        assert peak(lambda: vjp(g)) < 3 * 2**20

    @pytest.mark.parametrize("idx", [
        np.zeros(4, dtype=np.intp),           # 1-D
        np.zeros((4, 2, 1), dtype=np.intp),   # 3-D
        np.zeros((4, 0), dtype=np.intp),      # no neighbours (all-padded k-NN)
        np.array([[0, 1], [2, -1]]),          # negative entry
        np.array([[0, 1], [2, 4]]),           # entry == n
    ])
    def test_bad_index_rejected(self, idx):
        with pytest.raises(ShapeError):
            Tensor(np.ones((4, 3))).neighbor_mean(idx)


class TestBackwardSemantics:
    def test_quadratic(self):
        t = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        tsum(sq(t)).backward()
        np.testing.assert_allclose(t.grad, 2 * t.data)

    def test_independent_parameter_gets_no_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        tsum(sq(a)).backward()
        assert b.grad is None

    def test_diamond_graph_accumulates(self):
        # y = x*x used twice: dy/dx must include both paths
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = tmul(x, x)
        tsum(tadd(y, y)).backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        tsum(sq(x)).backward()
        tsum(sq(x)).backward()
        np.testing.assert_allclose(x.grad, [12.0])
        x.zero_grad()
        assert x.grad is None

    def test_nonscalar_backward_rejected(self):
        with pytest.raises(TapeError):
            sq(Tensor(np.zeros(3), requires_grad=True)).backward()

    def test_nonfinite_loss_rejected(self):
        t = Tensor(np.array([0.0]), requires_grad=True)
        with np.errstate(divide="ignore"), pytest.raises(NumericError):
            tsum(tlog(t)).backward()

    def test_tensor_of_data_blocks_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        tsum(tmul(Tensor(x.data), x)).backward()
        np.testing.assert_allclose(x.grad, np.ones(3))


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_gradient(lambda t: float(t[0] ** 2),
                                 np.array([3.0]), h=1e-5)
        assert g[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        g = finite_diff_gradient(lambda t: 7.0, np.zeros(4), h=1e-5)
        np.testing.assert_array_equal(g, np.zeros(4))

    def test_sine(self):
        g = finite_diff_gradient(lambda t: float(np.sin(t[0])),
                                 np.array([0.0]), h=1e-5)
        assert g[0] == pytest.approx(1.0, abs=1e-9)

    def test_vector_output_is_its_scalar_sweeps(self):
        theta = np.random.default_rng(0).standard_normal((2, 3))

        def f(t):
            return np.array([np.sin(t).sum(), (t ** 3).sum(), np.exp(t[0, 1]), 7.0])

        g = finite_diff_gradient(f, theta.copy(), h=1e-5)
        assert g.shape == (2, 3, 4)
        for i in range(4):
            np.testing.assert_array_equal(
                g[..., i], finite_diff_gradient(lambda t: f(t)[i], theta.copy(), h=1e-5))

    def test_empty_theta(self):
        assert finite_diff_gradient(lambda t: 0.0, np.zeros(0)).shape == (0,)
        g = finite_diff_gradient(lambda t: np.zeros(3), np.zeros((0, 2)))
        assert g.shape == (0, 2, 3)

    def test_non_finite_output_entry(self):
        with pytest.raises(NumericError):
            finite_diff_gradient(lambda t: np.array([0.0, np.inf]), np.zeros(1))

    def test_bad_h(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda t: 0.0, np.zeros(1), h=0.0)
