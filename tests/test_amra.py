"""The fused AMRA ops against the per-supervoxel tape formulation.

Each AMRA term is one tape op over the stacked views. The reference here is
the formulation it replaced: a chain of small tape ops per supervoxel,
summed view by view. The fused values must equal it bit for bit, and the
view gradients must agree with its backward pass and with finite
differences.
"""

from dataclasses import replace

import numpy as np
import pytest

from srkd.autodiff import Tensor, finite_diff_gradient
from srkd.errors import ShapeError, UndefinedLossError
from srkd.losses import (SupervoxelFeatures, affinity, loss_amra_channel,
                         loss_amra_point, loss_amra_voxel)
from srkd.numerics import log_softmax_rows

# ---------------------------------------------------------------------------
# Oracle: the per-supervoxel tape formulation, with the transpose and
# matmul tape ops it was written with (the package no longer has them)
# ---------------------------------------------------------------------------


def _transpose(x: Tensor) -> Tensor:
    return Tensor.from_op(x.data.T, [(x, lambda g: g.T)])


def _matmul(a: Tensor, b: Tensor) -> Tensor:
    return Tensor.from_op(a.data @ b.data, [(a, lambda g: g @ b.data.T),
                                            (b, lambda g: a.data.T @ g)])


def oracle_affinity(f: Tensor, mask, weight: float) -> Tensor:
    """Weighted squared-L2 pairwise distance matrix w * ||F_i - F_j||^2."""
    n = f.shape[0]
    sq = (f * f).sum(axis=1, keepdims=True)          # (n, 1)
    d = sq + _transpose(sq) - 2.0 * _matmul(f, _transpose(f))
    keep = 1.0 - np.eye(n)
    if mask is not None:
        m = np.asarray(mask, dtype=np.float64)
        keep = keep * np.outer(m, m)
    return d * (keep * weight)


def oracle_affinity_gap(views_s, views_t, kind: str) -> Tensor:
    total = None
    for vs, vt in zip(views_s, views_t):
        fs, ft = getattr(vs, f"{kind}_features"), getattr(vt, f"{kind}_features")
        mask = getattr(vs, f"{kind}_mask")
        n = mask.size
        ds = oracle_affinity(fs, mask, vs.weight)
        dt = oracle_affinity(Tensor(ft.data), mask, vt.weight)
        diff = ds - dt
        gap = (diff * diff).sum() * (1.0 / (n * n))
        total = gap if total is None else total + gap
    return total * (1.0 / len(views_s))


def oracle_masked_channel_kl(rows_s: Tensor, rows_t: Tensor, mask) -> Tensor:
    ls_s = rows_s.log_softmax_rows()
    ls_t = Tensor(log_softmax_rows(rows_t.data))
    kl = (ls_s.exp() * (ls_s - ls_t)).sum(axis=1)
    return (kl * mask.astype(np.float64)).sum() * (1.0 / int(mask.sum()))


def oracle_channel(views_s, views_t) -> Tensor:
    total = None
    for vs, vt in zip(views_s, views_t):
        term = (oracle_masked_channel_kl(vs.point_features, vt.point_features,
                                         vs.point_mask)
                + oracle_masked_channel_kl(vs.voxel_features, vt.voxel_features,
                                           vs.voxel_mask))
        total = term if total is None else total + term
    return total * (1.0 / len(views_s))


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
    """S paired views with padded point and voxel rows and some weight-0
    supervoxels. Masked rows hold random data unless masked_data is False
    (then zero, as `supervoxel_features` pads them). Student rows are leaf
    Tensors that require grad."""
    rng = np.random.default_rng(seed)
    views_s, views_t = [], []
    for k in range(s):
        pm, vm = _mask(rng, n_point), _mask(rng, n_voxel)
        weight = 0.0 if k % 3 == 1 else float(rng.random() + 0.1)
        blocks = []
        for n, d, m in ((n_point, d_s, pm), (n_voxel, d_s, vm),
                        (n_point, d_t, pm), (n_voxel, d_t, vm)):
            x = rng.standard_normal((n, d))
            blocks.append(x if masked_data else x * m[:, None])
        ps, vs, pt, vt = blocks
        views_s.append(SupervoxelFeatures(Tensor(ps, requires_grad=True),
                                          Tensor(vs, requires_grad=True),
                                          pm, vm, weight))
        views_t.append(SupervoxelFeatures(Tensor(pt), Tensor(vt), pm, vm, weight))
    return views_s, views_t


def _inputs(term, seed, s, **kw):
    if term == "channel":
        kw["d_t"] = kw.get("d_s", 3)       # the student is projected first
    return random_views(seed, s, **kw)


def _view_grads(loss, views):
    for v in views:
        v.point_features.grad = v.voxel_features.grad = None
    loss.backward()
    return [np.zeros(t.shape) if t.grad is None else t.grad
            for v in views for t in (v.point_features, v.voxel_features)]


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
        got, want = fused(views_s, views_t), oracle(views_s, views_t)
        assert got.item() == want.item()
        g_got = _view_grads(got, views_s)
        g_want = _view_grads(want, views_s)
        scale = max(np.abs(g).max() for g in g_want)
        assert scale > 0
        for a, b in zip(g_got, g_want):
            assert np.abs(a - b).max() <= 1e-12 * scale

    def test_gradient_matches_finite_differences(self, term):
        fused, _ = ORACLES[term]
        views_s, views_t = _inputs(term, seed=11, s=3)
        leaves = [t for v in views_s for t in (v.point_features, v.voxel_features)]
        analytic = _view_grads(fused(views_s, views_t), views_s)
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
        want = [getattr(v, f) for f in fields for v in views_s]
        assert [id(p) for p, _ in loss._edges] == [id(t) for t in want]

    def test_no_edges_without_grad(self, term):
        fused, oracle = ORACLES[term]
        views_s, views_t = _inputs(term, seed=6, s=3)
        frozen = [replace(v, point_features=Tensor(v.point_features.data),
                          voxel_features=Tensor(v.voxel_features.data))
                  for v in views_s]
        loss = fused(frozen, views_t)
        assert not loss.requires_grad and not loss._edges
        assert loss.item() == oracle(frozen, views_t).item()


def _resized(view, kind, rows=None, cols=None):
    """A copy of a view whose `kind` block has other row or column counts
    (all rows valid when the row count changes)."""
    n, d = getattr(view, f"{kind}_features").shape
    mask = np.ones(rows, dtype=bool) if rows else getattr(view, f"{kind}_mask")
    return replace(view, **{f"{kind}_features": Tensor(np.ones((rows or n, cols or d))),
                            f"{kind}_mask": mask})


class TestShapes:
    @pytest.mark.parametrize("kind, terms", [
        ("point", (loss_amra_point, loss_amra_channel)),
        ("voxel", (loss_amra_voxel, loss_amra_channel))])
    def test_unequal_row_counts_raise_shape_error(self, kind, terms):
        views_s, views_t = random_views(0, 3, d_t=3)
        views_s[1] = _resized(views_s[1], kind, rows=9)
        views_t[1] = _resized(views_t[1], kind, rows=9)
        for term in terms:
            with pytest.raises(ShapeError):
                term(views_s, views_t)

    @pytest.mark.parametrize("term", [loss_amra_point, loss_amra_voxel,
                                      loss_amra_channel])
    def test_unequal_channel_counts_raise_shape_error(self, term):
        views_s, views_t = random_views(0, 3, d_t=3)
        for kind in ("point", "voxel"):
            views_s[2] = _resized(views_s[2], kind, cols=6)
        with pytest.raises(ShapeError):
            term(views_s, views_t)

    def test_channel_needs_projected_student(self):
        views_s, views_t = random_views(0, 3, d_s=3, d_t=5)
        with pytest.raises(ShapeError, match="project"):
            loss_amra_channel(views_s, views_t)

    def test_mask_length_must_match_rows(self):
        views_s, views_t = random_views(0, 2, d_t=3)
        bad = np.ones(5, dtype=bool)
        views_s = [replace(v, point_mask=bad) for v in views_s]
        views_t = [replace(v, point_mask=bad) for v in views_t]
        with pytest.raises(ShapeError):
            loss_amra_point(views_s, views_t)

    def test_channel_without_valid_rows_is_undefined(self):
        views_s, views_t = random_views(0, 2, d_t=3)
        none = np.zeros(4, dtype=bool)
        views_s[1] = replace(views_s[1], voxel_mask=none)
        views_t[1] = replace(views_t[1], voxel_mask=none)
        with pytest.raises(UndefinedLossError):
            loss_amra_channel(views_s, views_t)


class TestAffinityStack:
    def test_each_slice_matches_the_oracle_bitwise(self):
        views_s, _ = random_views(4, 5)
        keep = []
        for v in views_s:
            m = v.point_mask.astype(np.float64)
            keep.append((1.0 - np.eye(m.size)) * np.outer(m, m) * v.weight)
        stacked = affinity(np.stack([v.point_features.data for v in views_s]),
                           np.stack(keep))
        for got, v in zip(stacked, views_s):
            want = oracle_affinity(v.point_features, v.point_mask, v.weight).data
            assert got.tobytes() == want.tobytes()
