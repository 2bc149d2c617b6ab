"""The fused AMRA ops against the per-supervoxel tape formulation.

Each AMRA term is one tape op over the stacked views. The reference here is
the formulation it replaced: a chain of small tape ops per supervoxel,
summed view by view, on per-view leaves sliced from the stacked views. The
fused values must equal it bit for bit, and the gradients of the stacked
views must agree with its backward pass and with finite differences.
"""

from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

from srkd.autodiff import Tensor, finite_diff_gradient
from srkd.errors import PairingError, ShapeError, UndefinedLossError
from srkd.losses import (SupervoxelFeatures, affinity, loss_amra_channel,
                         loss_amra_point, loss_amra_voxel)
from srkd.numerics import log_softmax_rows
from tape_ops import matmul, tadd, texp, tlog_softmax_rows, tmul, transpose, tsub, tsum

# ---------------------------------------------------------------------------
# Oracle: the per-supervoxel tape formulation, with the generic tape ops it
# was written with (the package no longer has them)
# ---------------------------------------------------------------------------


def oracle_affinity(f: Tensor, mask, weight: float) -> Tensor:
    """Weighted squared-L2 pairwise distance matrix w * ||F_i - F_j||^2."""
    n = f.shape[0]
    sq = tsum(tmul(f, f), axis=1, keepdims=True)     # (n, 1)
    d = tsub(tadd(sq, transpose(sq)), tmul(2.0, matmul(f, transpose(f))))
    keep = 1.0 - np.eye(n)
    if mask is not None:
        m = np.asarray(mask, dtype=np.float64)
        keep = keep * np.outer(m, m)
    return tmul(d, keep * weight)


def oracle_affinity_gap(views_s, views_t, kind: str) -> Tensor:
    total = None
    for vs, vt in zip(views_s, views_t):
        fs, ft = getattr(vs, f"{kind}_features"), getattr(vt, f"{kind}_features")
        mask = getattr(vs, f"{kind}_mask")
        n = mask.size
        ds = oracle_affinity(fs, mask, vs.weight)
        dt = oracle_affinity(Tensor(ft.data), mask, vt.weight)
        diff = tsub(ds, dt)
        gap = tmul(tsum(tmul(diff, diff)), 1.0 / (n * n))
        total = gap if total is None else tadd(total, gap)
    return tmul(total, 1.0 / len(views_s))


def oracle_masked_channel_kl(rows_s: Tensor, rows_t: Tensor, mask) -> Tensor:
    ls_s = tlog_softmax_rows(rows_s)
    ls_t = Tensor(log_softmax_rows(rows_t.data))
    kl = tsum(tmul(texp(ls_s), tsub(ls_s, ls_t)), axis=1)
    return tmul(tsum(tmul(kl, mask.astype(np.float64))), 1.0 / int(mask.sum()))


def oracle_channel(views_s, views_t) -> Tensor:
    total = None
    for vs, vt in zip(views_s, views_t):
        term = tadd(oracle_masked_channel_kl(vs.point_features, vt.point_features,
                                             vs.point_mask),
                    oracle_masked_channel_kl(vs.voxel_features, vt.voxel_features,
                                             vs.voxel_mask))
        total = term if total is None else tadd(total, term)
    return tmul(total, 1.0 / len(views_s))


ORACLES = {
    "point": (loss_amra_point, lambda s, t: oracle_affinity_gap(s, t, "point")),
    "voxel": (loss_amra_voxel, lambda s, t: oracle_affinity_gap(s, t, "voxel")),
    "channel": (loss_amra_channel, oracle_channel),
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _mask(rng, n):
    """A valid prefix of at least two rows, the rest padded (or none)."""
    mask = np.zeros(n, dtype=bool)
    mask[:int(rng.integers(2, n + 1))] = True
    return mask


def random_views(seed, s, n_point=7, n_voxel=4, d_s=3, d_t=5, masked_data=True):
    """Stacked student and teacher views of S supervoxels with padded point
    and voxel rows and some weight-0 supervoxels. Masked rows hold random
    data unless masked_data is False (then zero, as `supervoxel_features`
    pads them). The student blocks are leaf Tensors that require grad."""
    rng = np.random.default_rng(seed)
    pm = np.stack([_mask(rng, n_point) for _ in range(s)])
    vm = np.stack([_mask(rng, n_voxel) for _ in range(s)])
    weight = np.array([0.0 if k % 3 == 1 else float(rng.random() + 0.1)
                       for k in range(s)])
    blocks = []
    for m, d in ((pm, d_s), (vm, d_s), (pm, d_t), (vm, d_t)):
        x = rng.standard_normal(m.shape + (d,))
        blocks.append((x if masked_data else x * m[:, :, None]).reshape(m.size, d))
    ps, vs, pt, vt = blocks
    return (SupervoxelFeatures(Tensor(ps, requires_grad=True),
                               Tensor(vs, requires_grad=True), pm, vm, weight),
            SupervoxelFeatures(Tensor(pt), Tensor(vt), pm, vm, weight))


View = namedtuple("View", "point_features voxel_features point_mask voxel_mask weight")


def per_view(views, requires_grad=False):
    """The S supervoxels of stacked views as separate views, their (n, D)
    blocks fresh leaf Tensors sliced from the stacks."""
    s = views.weight.size
    blocks = [np.split(t.data, s) for t in (views.point_features,
                                             views.voxel_features)]
    return [View(Tensor(p.copy(), requires_grad=requires_grad),
                 Tensor(v.copy(), requires_grad=requires_grad),
                 views.point_mask[k], views.voxel_mask[k], float(views.weight[k]))
            for k, (p, v) in enumerate(zip(*blocks))]


def _inputs(term, seed, s, **kw):
    if term == "channel":
        kw["d_t"] = kw.get("d_s", 3)       # the student is projected first
    return random_views(seed, s, **kw)


def _grads(loss, leaves):
    for t in leaves:
        t.grad = None
    loss.backward()
    return [np.zeros(t.shape) if t.grad is None else t.grad for t in leaves]


def _stack_leaves(views):
    return [views.point_features, views.voxel_features]


def _view_leaves(views):
    return [t for v in views for t in (v.point_features, v.voxel_features)]


def _per_view_grads(grads, s):
    """Stacked point and voxel gradients split into the per-view order of
    `_view_leaves`."""
    return [g for pair in zip(*(np.split(g, s) for g in grads)) for g in pair]


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("term", sorted(ORACLES))
class TestFusedAgainstOracle:
    @pytest.mark.parametrize("s", [1, 3, 32])
    @pytest.mark.parametrize("masked_data", [True, False],
                             ids=["masked_data", "zero_padded"])
    def test_value_bitwise_and_gradient(self, term, s, masked_data):
        self._check(term, s, masked_data=masked_data)

    def test_default_sizes(self, term):
        # the sampler's defaults: 128 point rows, 16 voxel rows
        self._check(term, 32, n_point=128, n_voxel=16, d_s=64, d_t=128)

    @staticmethod
    def _check(term, s, **kw):
        fused, oracle = ORACLES[term]
        views_s, views_t = _inputs(term, seed=s, s=s, **kw)
        split_s, split_t = per_view(views_s, requires_grad=True), per_view(views_t)
        got, want = fused(views_s, views_t), oracle(split_s, split_t)
        assert got.item() == want.item()
        g_got = _per_view_grads(_grads(got, _stack_leaves(views_s)), s)
        g_want = _grads(want, _view_leaves(split_s))
        assert len(g_got) == len(g_want) == 2 * s
        scale = max(np.abs(g).max() for g in g_want)
        assert scale > 0
        for a, b in zip(g_got, g_want):
            assert np.abs(a - b).max() <= 1e-12 * scale

    def test_gradient_matches_finite_differences(self, term):
        fused, _ = ORACLES[term]
        views_s, views_t = _inputs(term, seed=11, s=3)
        leaves = _stack_leaves(views_s)
        analytic = _grads(fused(views_s, views_t), leaves)
        for leaf, g in zip(leaves, analytic):
            def f(theta, leaf=leaf):
                saved = leaf.data
                leaf.data = theta.reshape(saved.shape)
                try:
                    return fused(views_s, views_t).item()
                finally:
                    leaf.data = saved
            numeric = finite_diff_gradient(f, leaf.data.copy().ravel())
            np.testing.assert_allclose(g.ravel(), numeric, rtol=1e-6, atol=1e-9)

    def test_edges_are_the_view_tensors(self, term):
        fused, _ = ORACLES[term]
        views_s, views_t = _inputs(term, seed=5, s=3)
        loss = fused(views_s, views_t)
        fields = {"point": ("point_features",), "voxel": ("voxel_features",),
                  "channel": ("point_features", "voxel_features")}[term]
        want = [getattr(views_s, f) for f in fields]
        assert [id(p) for p, _ in loss._edges] == [id(t._node) for t in want]

    def test_no_edges_without_grad(self, term):
        fused, oracle = ORACLES[term]
        views_s, views_t = _inputs(term, seed=6, s=3)
        frozen = replace(views_s, point_features=Tensor(views_s.point_features.data),
                         voxel_features=Tensor(views_s.voxel_features.data))
        loss = fused(frozen, views_t)
        assert not loss.requires_grad and not loss._edges
        assert loss.item() == oracle(per_view(frozen), per_view(views_t)).item()


def _reshaped(views, kind, shape):
    """A copy of stacked views whose `kind` block has another shape."""
    return replace(views, **{f"{kind}_features": Tensor(np.ones(shape))})


class TestShapes:
    @pytest.mark.parametrize("kind, terms", [
        ("point", (loss_amra_point, loss_amra_channel)),
        ("voxel", (loss_amra_voxel, loss_amra_channel))])
    def test_unequal_row_counts_raise_shape_error(self, kind, terms):
        # a block with two rows more than its (S, n) mask covers
        views_s, views_t = random_views(0, 3, d_t=3)
        rows = getattr(views_s, f"{kind}_mask").size + 2
        views_s = _reshaped(views_s, kind, (rows, 3))
        views_t = _reshaped(views_t, kind, (rows, 3))
        for term in terms:
            with pytest.raises(ShapeError):
                term(views_s, views_t)

    @pytest.mark.parametrize("term", [loss_amra_point, loss_amra_voxel,
                                      loss_amra_channel])
    def test_unequal_channel_counts_raise_shape_error(self, term):
        # no single channel count per row: a 3-D student block
        views_s, views_t = random_views(0, 3, d_t=3)
        for kind in ("point", "voxel"):
            rows = getattr(views_s, f"{kind}_mask").size
            views_s = _reshaped(views_s, kind, (rows, 3, 2))
        with pytest.raises(ShapeError):
            term(views_s, views_t)

    def test_channel_needs_projected_student(self):
        views_s, views_t = random_views(0, 3, d_s=3, d_t=5)
        with pytest.raises(ShapeError, match="project"):
            loss_amra_channel(views_s, views_t)

    def test_mask_length_must_match_rows(self):
        views_s, views_t = random_views(0, 2, d_t=3)
        bad = np.ones((2, 5), dtype=bool)
        views_s = replace(views_s, point_mask=bad)
        views_t = replace(views_t, point_mask=bad)
        with pytest.raises(ShapeError):
            loss_amra_point(views_s, views_t)

    def test_channel_without_valid_rows_is_undefined(self):
        views_s, views_t = random_views(0, 2, d_t=3)
        none = views_s.voxel_mask.copy()
        none[1] = False
        views_s = replace(views_s, voxel_mask=none)
        views_t = replace(views_t, voxel_mask=none)
        with pytest.raises(UndefinedLossError):
            loss_amra_channel(views_s, views_t)

    @pytest.mark.parametrize("term", [loss_amra_point, loss_amra_voxel,
                                      loss_amra_channel])
    def test_unpaired_or_empty_views_raise_pairing_error(self, term):
        views_s, views_t = random_views(0, 3, d_t=3)
        with pytest.raises(PairingError):
            term(views_s, replace(views_t, weight=views_t.weight + 1.0))
        with pytest.raises(PairingError):
            term(views_s, replace(views_t, voxel_mask=~views_t.voxel_mask))
        empty = SupervoxelFeatures(Tensor(np.zeros((0, 3))), Tensor(np.zeros((0, 3))),
                                   np.zeros((0, 7), bool), np.zeros((0, 4), bool),
                                   np.zeros(0))
        with pytest.raises(PairingError):
            term(empty, empty)


class TestAffinityStack:
    def test_each_slice_matches_the_oracle_bitwise(self):
        views_s = per_view(random_views(4, 5)[0])
        keep = []
        for v in views_s:
            m = v.point_mask.astype(np.float64)
            keep.append((1.0 - np.eye(m.size)) * np.outer(m, m) * v.weight)
        stacked = affinity(np.stack([v.point_features.data for v in views_s]),
                           np.stack(keep))
        for got, v in zip(stacked, views_s):
            want = oracle_affinity(v.point_features, v.point_mask, v.weight).data
            assert got.tobytes() == want.tobytes()
