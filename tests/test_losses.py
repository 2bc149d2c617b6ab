import itertools
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from srkd import cli, losses
from srkd.autodiff import Tensor, finite_diff_gradient
from srkd.cloud import (IGNORE_LABEL, SceneSpec, derive_seed, generate_scene,
                        resample_fixed)
from srkd.errors import (ConfigError, DataError, NumericError, PairingError,
                         ShapeError, UndefinedLossError)
from srkd.losses import (LAMBDAS, LOSS_NAMES, LossWeights, SupervoxelFeatures,
                         gd_teacher_log_z, loss_amra_channel, loss_amra_point,
                         loss_amra_voxel, loss_batch_gd, loss_kd, loss_task,
                         supervoxel_features, weighted_total)
from srkd.numerics import l2_normalize_rows, log_softmax_rows
from srkd.trainer import (ABLATION_VARIANTS, distill_objective, grid_for_clouds,
                          variant_weights)
from srkd.voxelize import (SamplerConfig, _fixed_subset, batch_label_histogram,
                           build_supervoxels, coarse_indices, fine_indices)
from numeric_oracles import affinity, softmax_rows
from tape_ops import tadd, texp, tlog_softmax_rows, tmul, tneg, tsub, tsum

RNG = np.random.default_rng(777)


def make_views(f_s, f_t, mask=None, weight=1.0, n_voxel=2):
    """Wrap raw point blocks as matched student/teacher views of one
    supervoxel (S = 1); the first n_voxel rows double as its voxel rows."""
    n = f_s.shape[0]
    mask = np.ones((1, n), dtype=bool) if mask is None else mask[None]
    vmask = np.ones((1, n_voxel), dtype=bool)
    vs = SupervoxelFeatures(Tensor(np.asarray(f_s, dtype=np.float64)),
                            Tensor(np.asarray(f_s[:n_voxel], dtype=np.float64)),
                            mask, vmask, np.array([weight]))
    vt = SupervoxelFeatures(Tensor(np.asarray(f_t, dtype=np.float64)),
                            Tensor(np.asarray(f_t[:n_voxel], dtype=np.float64)),
                            mask, vmask, np.array([weight]))
    return vs, vt


def stacked(views):
    """One SupervoxelFeatures holding the supervoxels of several, in order."""
    return SupervoxelFeatures(
        Tensor(np.concatenate([v.point_features.data for v in views])),
        Tensor(np.concatenate([v.voxel_features.data for v in views])),
        np.concatenate([v.point_mask for v in views]),
        np.concatenate([v.voxel_mask for v in views]),
        np.concatenate([v.weight for v in views]))


def kl_vec(p, q):
    q = np.maximum(q, 1e-12)
    terms = np.where(p > 0, p * np.log(np.maximum(p, 1e-300) / q), 0.0)
    return float(terms.sum())


class TestLossTask:
    def test_uniform_row(self):
        t = loss_task(Tensor(np.zeros((1, 2))), np.array([0]))
        assert t.item() == pytest.approx(np.log(2))

    def test_saturated_correct(self):
        t = loss_task(Tensor(np.array([[20.0, -20.0]])), np.array([0]))
        assert t.item() < 1e-8

    def test_two_row_mean(self):
        logits = np.array([[0.0, 0.0], [np.log(3.0), 0.0]])
        t = loss_task(Tensor(logits), np.array([0, 0]))
        assert t.item() == pytest.approx((np.log(2) + np.log(4 / 3)) / 2)

    def test_ignore_and_mask_excluded(self):
        logits = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
        labels = np.array([0, 255, 1])
        mask = np.array([True, True, False])
        t = loss_task(Tensor(logits), labels, mask)
        assert t.item() == pytest.approx(np.log(2))

    def test_no_labeled_points(self):
        with pytest.raises(UndefinedLossError):
            loss_task(Tensor(np.zeros((2, 3))), np.array([255, 255]))

    @pytest.mark.parametrize("label", [-1, 3, 254])
    def test_label_out_of_range(self, label):
        # C = 3: -1 would score as class 2, 254 would index past the classes
        logits = Tensor(np.random.default_rng(3).standard_normal((6, 3)))
        labels = np.array([0, 1, 2, label, 255, 1])
        with pytest.raises(DataError, match="IGNORE_LABEL"):
            loss_task(logits, labels)
        mask = np.ones(6, dtype=bool)
        mask[3] = False                        # a masked row is not counted
        loss_task(logits, labels, mask)

    @pytest.mark.parametrize("labels, mask", [
        (np.zeros(5, dtype=int), None), (np.zeros((6, 1), dtype=int), None),
        (np.zeros(6, dtype=int), np.ones(5, dtype=bool)),
        (np.zeros(6, dtype=int), np.ones((1, 6), dtype=bool))],
        ids=["labels5", "labels6x1", "mask5", "mask1x6"])
    def test_labels_and_mask_must_be_rows(self, labels, mask):
        with pytest.raises(ShapeError, match=r"\(6,\)"):
            loss_task(Tensor(np.zeros((6, 3))), labels, mask)


def composed_loss_task(logits: Tensor, labels, mask) -> Tensor:
    """Reference: loss_task as the chain of generic tape ops it was built
    from, a log-softmax, a one-hot pick and a masked mean."""
    n, c = logits.shape
    valid = (labels != IGNORE_LABEL) & mask
    onehot = np.zeros((n, c))
    onehot[valid, labels[valid]] = 1.0
    picked = tsum(tmul(tlog_softmax_rows(logits), onehot), axis=1)
    return tneg(tmul(tsum(tmul(picked, valid.astype(np.float64))),
                     1.0 / int(valid.sum())))


class TestLossTaskReference:
    @staticmethod
    def _check(logits, labels, mask):
        x, x_ref = Tensor(logits, requires_grad=True), Tensor(logits, requires_grad=True)
        got, want = loss_task(x, labels, mask), composed_loss_task(x_ref, labels, mask)
        assert got.data.tobytes() == want.data.tobytes()
        (parent, _), = got._edges               # one tape op over the logits
        assert parent is x._node
        got.backward()
        want.backward()
        assert x.grad.tobytes() == x_ref.grad.tobytes()
        skipped = x.grad[~mask | (labels == IGNORE_LABEL)]
        assert not skipped.any() and not np.signbit(skipped).any()   # +0.0

    @pytest.mark.parametrize("scale", [1.0, 3.0, 50.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_composed_reference(self, seed, scale):
        rng = np.random.default_rng(seed)
        logits = scale * rng.standard_normal((257, 8))
        labels = rng.integers(0, 8, 257)
        labels[rng.random(257) < 0.2] = IGNORE_LABEL
        mask = rng.random(257) > 0.25           # padded rows hold random logits
        self._check(logits, labels, mask)

    def test_saturated_rows_score_zero_bitwise(self):
        # a margin of 1e3 at every label: exp underflows off the label, so
        # log(s) is 0 and the loss is exactly -0.0
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((33, 5))
        labels = rng.integers(0, 5, 33)
        logits[np.arange(33), labels] += 1e3
        labels[::4] = IGNORE_LABEL
        self._check(logits, labels, np.arange(33) % 5 != 1)


class TestLossKD:
    def test_identity(self):
        z = RNG.standard_normal((5, 4))
        assert loss_kd(Tensor(z), z, 2.0).item() == pytest.approx(0.0, abs=1e-14)

    def test_scalar_oracle(self):
        t = loss_kd(Tensor(np.array([[np.log(2.0), 0.0]])),
                    np.array([[0.0, 0.0]]), 1.0)
        want = (2 / 3) * np.log(4 / 3) + (1 / 3) * np.log(2 / 3)
        assert t.item() == pytest.approx(want)

    def test_nonnegative(self):
        for _ in range(25):
            zs = RNG.standard_normal((4, 6))
            zt = RNG.standard_normal((4, 6))
            assert loss_kd(Tensor(zs), zt, 2.0).item() >= 0.0

    def test_matches_manual_temperature_kl(self):
        zs = RNG.standard_normal((6, 5))
        zt = RNG.standard_normal((6, 5))
        ps = softmax_rows(zs, 2.0)
        pt = softmax_rows(zt, 2.0)
        want = np.mean([kl_vec(a, b) for a, b in zip(ps, pt)])
        assert loss_kd(Tensor(zs), zt, 2.0).item() == pytest.approx(want)

    def test_bad_temperature(self):
        zs, zt = np.random.default_rng(3).standard_normal((2, 6, 3))
        for t in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ConfigError, match="temperature"):
                loss_kd(Tensor(zs), zt, t)

    @pytest.mark.parametrize("shape", [(5,), (7,), (6, 1)])
    def test_mask_must_be_rows(self, shape):
        zs, zt = np.random.default_rng(3).standard_normal((2, 6, 3))
        with pytest.raises(ShapeError, match=r"\(6,\)"):
            loss_kd(Tensor(zs), zt, 2.0, np.ones(shape, dtype=bool))


def composed_loss_kd(zs: Tensor, zt, temperature, mask) -> Tensor:
    """Reference: loss_kd as a chain of generic tape ops, softmax(zs * 1/T)."""
    ls_s = tlog_softmax_rows(tmul(zs, 1.0 / temperature))
    ls_t = Tensor(log_softmax_rows(zt, temperature))
    rows = tsum(tmul(texp(ls_s), tsub(ls_s, ls_t)), axis=1)
    mask = np.asarray(mask, dtype=bool)
    return tmul(tsum(tmul(rows, mask.astype(np.float64))), 1.0 / int(mask.sum()))


class TestLossKDReference:
    @pytest.mark.parametrize("temperature", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_composed_reference(self, seed, temperature):
        rng = np.random.default_rng(seed)
        zs, zt = 3.0 * rng.standard_normal((2, 257, 8))
        mask = rng.random(257) > 0.25           # padded rows hold random logits
        x, x_ref = Tensor(zs, requires_grad=True), Tensor(zs, requires_grad=True)
        got, want = loss_kd(x, zt, temperature, mask), \
            composed_loss_kd(x_ref, zt, temperature, mask)
        if temperature in (1.0, 2.0):           # zs / T == zs * (1/T) exactly
            assert got.item() == want.item()
        else:
            assert abs(got.item() - want.item()) <= 1e-14 * abs(want.item())
        (parent, _), = got._edges               # one tape op over the logits
        assert parent is x._node
        got.backward()
        want.backward()
        assert np.abs(x.grad - x_ref.grad).max() <= 1e-12 * np.abs(x_ref.grad).max()
        assert not x.grad[~mask].any()

    def test_no_mask_is_all_rows(self):
        zs, zt = RNG.standard_normal((2, 9, 4))
        assert loss_kd(Tensor(zs), zt, 2.0).item() == \
            loss_kd(Tensor(zs), zt, 2.0, np.ones(9, dtype=bool)).item()

    def test_all_rows_padded(self):
        with pytest.raises(UndefinedLossError):
            loss_kd(Tensor(np.zeros((3, 2))), np.zeros((3, 2)), 2.0,
                    np.zeros(3, dtype=bool))


def pair_keep(mask, weight=1.0):
    """The (1, n, n) keep stack of one view: weight on the valid off-diagonal pairs."""
    m = np.asarray(mask, dtype=np.float64)
    return ((1.0 - np.eye(m.size)) * np.outer(m, m) * weight)[None]


class TestAffinity:
    def test_three_four_five(self):
        d = affinity(np.array([[[0.0, 0.0], [3.0, 4.0]]]), pair_keep([1, 1]))
        np.testing.assert_allclose(d, [[[0.0, 25.0], [25.0, 0.0]]])

    def test_zero_weight(self):
        d = affinity(RNG.standard_normal((1, 3, 2)), pair_keep([1, 1, 1], 0.0))
        np.testing.assert_array_equal(d, np.zeros((1, 3, 3)))

    def test_identical_rows(self):
        d = affinity(np.ones((1, 4, 3)), pair_keep([1] * 4, 2.0))
        np.testing.assert_allclose(d, np.zeros((1, 4, 4)), atol=1e-12)

    def test_masked_rows_zeroed(self):
        d = affinity(RNG.standard_normal((1, 3, 2)), pair_keep([1, 0, 1]))[0]
        assert np.all(d[1, :] == 0.0) and np.all(d[:, 1] == 0.0)


class TestAMRAPoint:
    def test_identity(self):
        f = RNG.standard_normal((4, 3))
        vs, vt = make_views(f, f)
        assert loss_amra_point(vs, vt).item() == pytest.approx(0.0, abs=1e-15)

    def test_hand_enumeration(self):
        # distances: student 2 apart (D=4), teacher 1 apart (D=1)
        vs, vt = make_views(np.array([[0.0], [2.0]]), np.array([[0.0], [1.0]]))
        assert loss_amra_point(vs, vt).item() == pytest.approx(4.5)

    def test_weight_quadratic(self):
        f_s = RNG.standard_normal((4, 3))
        f_t = RNG.standard_normal((4, 3))
        one = loss_amra_point(*make_views(f_s, f_t, weight=1.0)).item()
        two = loss_amra_point(*make_views(f_s, f_t, weight=2.0)).item()
        assert two == pytest.approx(4.0 * one)

    def test_permutation_invariance(self):
        f_s = RNG.standard_normal((6, 3))
        f_t = RNG.standard_normal((6, 3))
        base = loss_amra_point(*make_views(f_s, f_t)).item()
        for _ in range(100):
            perm = np.random.default_rng().permutation(6)
            permuted = loss_amra_point(*make_views(f_s[perm], f_t[perm])).item()
            assert permuted == pytest.approx(base, rel=1e-9)

    def test_pairing_mismatch(self):
        vs, _ = make_views(RNG.standard_normal((4, 3)),
                           RNG.standard_normal((4, 3)), weight=1.0)
        _, vt = make_views(RNG.standard_normal((4, 3)),
                           RNG.standard_normal((4, 3)), weight=2.0)
        with pytest.raises(PairingError):
            loss_amra_point(vs, vt)

    def test_brute_force_oracle(self):
        # mean over supervoxels of sum_ij (Ds - Dt)^2 / n^2, masked rows out
        views_s, views_t, want = [], [], []
        for k in range(3):
            n = 5
            f_s = RNG.standard_normal((n, 2))
            f_t = RNG.standard_normal((n, 2))
            mask = RNG.random(n) > 0.3
            mask[:2] = True
            w = float(RNG.random() + 0.1)
            vs, vt = make_views(f_s * mask[:, None], f_t * mask[:, None],
                                mask=mask, weight=w)
            views_s.append(vs)
            views_t.append(vt)
            acc = 0.0
            for i in range(n):
                for j in range(n):
                    if i == j or not (mask[i] and mask[j]):
                        continue
                    ds = w * ((f_s[i] - f_s[j]) ** 2).sum()
                    dt = w * ((f_t[i] - f_t[j]) ** 2).sum()
                    acc += (ds - dt) ** 2
            want.append(acc / n**2)
        got = loss_amra_point(stacked(views_s), stacked(views_t)).item()
        assert got == pytest.approx(np.mean(want), rel=1e-9)


class TestAMRAVoxel:
    def test_identity(self):
        f = RNG.standard_normal((4, 3))
        vs, vt = make_views(f, f)
        assert loss_amra_voxel(vs, vt).item() == pytest.approx(0.0, abs=1e-15)

    def test_single_differing_pair(self):
        # two voxel rows; squared distances differ by d -> loss d^2 * 2/n^2
        vs, vt = make_views(np.array([[0.0], [2.0]]), np.array([[0.0], [1.0]]),
                            n_voxel=2)
        d = 4.0 - 1.0
        assert loss_amra_voxel(vs, vt).item() == pytest.approx(2 * d**2 / 4)


class TestAMRAChannel:
    def test_identity(self):
        f = RNG.standard_normal((4, 3))
        vs, vt = make_views(f, f)
        assert loss_amra_channel(vs, vt).item() == pytest.approx(0.0, abs=1e-14)

    def test_nonnegative(self):
        for _ in range(20):
            vs, vt = make_views(RNG.standard_normal((4, 3)),
                                RNG.standard_normal((4, 3)))
            assert loss_amra_channel(vs, vt).item() >= 0.0

    def test_scalar_oracle_row(self):
        # single point row and single voxel row with the same logits:
        # each part contributes the loss_kd scalar value
        f_s = np.array([[np.log(2.0), 0.0]])
        f_t = np.array([[0.0, 0.0]])
        vs, vt = make_views(f_s, f_t, n_voxel=1)
        want = (2 / 3) * np.log(4 / 3) + (1 / 3) * np.log(2 / 3)
        assert loss_amra_channel(vs, vt).item() == pytest.approx(2 * want)


def dense_voxel_matrix(sample, grid, cfg, seed, sv):
    """Oracle: the (N_voxel, N_fixed) averaging matrix of a supervoxel's
    voxel view, built densely from the fine indices of its members. The
    seeded choice of fine voxels is replayed from the cell's own stream."""
    rng = derive_seed(seed, *sv.grid_index)
    _fixed_subset(rng, sv.member_indices, cfg.n_point)  # the point-slot draw
    pos = sample.cloud.positions[sv.member_indices]
    sub = fine_indices(grid, pos, coarse_indices(grid, pos), cfg.sub_div)
    vox_ids = np.unique(sub)
    order = np.sort(rng.permutation(vox_ids.size)[:cfg.n_voxel])
    matrix = np.zeros((cfg.n_voxel, sample.n_fixed))
    for row, pos_id in enumerate(order):
        mem = sv.member_indices[sub == vox_ids[pos_id]]
        matrix[row, mem] = 1.0 / mem.size
    return matrix


class TestSupervoxelFeatures:
    def test_views_match_dense_and_gather_oracles(self):
        # one call pools the supervoxels of two samples; each supervoxel's
        # slice of the stacked views is checked against its own oracles
        spec = SceneSpec(seed=4)
        clouds = [generate_scene(spec, i) for i in range(2)]
        samples = [resample_fixed(c, 1024, seed=5 + i) for i, c in enumerate(clouds)]
        grid = grid_for_clouds(clouds)
        hist = batch_label_histogram(samples, spec.n_classes)
        xs = [RNG.standard_normal((s.n_fixed, 6)) for s in samples]
        seen = set()
        for cfg in (SamplerConfig(), SamplerConfig(n_point=4, n_voxel=2, sub_div=3),
                    SamplerConfig(n_point=64, n_voxel=64, sub_div=6)):
            chosen = [build_supervoxels(s, grid, cfg, hist, seed=6) for s in samples]
            maps = [Tensor(x.copy(), requires_grad=True) for x in xs]
            v = supervoxel_features(maps, chosen)
            svs = [(b, sv) for b, group in enumerate(chosen) for sv in group]
            n_p, n_v = cfg.n_point, cfg.n_voxel
            assert v.point_features.shape == (len(svs) * n_p, 6)
            assert v.voxel_features.shape == (len(svs) * n_v, 6)
            assert np.array_equal(v.point_mask, [sv.point_mask for _, sv in svs])
            assert np.array_equal(v.voxel_mask, [sv.voxel_mask for _, sv in svs])
            assert v.weight.tolist() == [sv.weight for _, sv in svs]
            gp = RNG.standard_normal(v.point_features.shape)
            gv = RNG.standard_normal(v.voxel_features.shape)
            want = [np.zeros_like(x) for x in xs]
            for s, (b, sv) in enumerate(svs):
                x = xs[b]
                dense = dense_voxel_matrix(samples[b], grid, cfg, 6, sv)
                lengths = np.diff(sv.voxel_starts, append=sv.voxel_members.size)
                seen.update(name for name, hit in (
                    ("voxels truncated", len(np.unique(dense.nonzero()[1]))
                     < sv.member_indices.size),
                    ("points truncated", sv.member_indices.size > cfg.n_point),
                    ("single-member voxel", np.any(lengths == 1)),
                    ("all voxel rows valid", sv.voxel_mask.all())) if hit)
                pf = v.point_features.data[s * n_p:(s + 1) * n_p]
                vf = v.voxel_features.data[s * n_v:(s + 1) * n_v]
                # point view: the gather-then-mask formula, bit for bit on kept rows
                gathered = x[sv.point_indices] * sv.point_mask[:, None]
                assert np.array_equal(pf, gathered)
                m = sv.point_mask
                assert pf[m].tobytes() == gathered[m].tobytes()
                # voxel view: the dense matmul up to summation order
                err = np.abs(vf - dense @ x).max()
                assert err <= 1e-13 * np.abs(x).max()
                assert np.all(vf[~sv.voxel_mask] == 0.0)
                # backward oracle: the scatter-add of the point rows and
                # dense.T @ g of the voxel rows
                want[b] += dense.T @ gv[s * n_v:(s + 1) * n_v]
                np.add.at(want[b], sv.point_indices,
                          gp[s * n_p:(s + 1) * n_p] * m[:, None])
            tadd(tsum(tmul(v.point_features, gp)),
                 tsum(tmul(v.voxel_features, gv))).backward()
            for t, w in zip(maps, want):
                np.testing.assert_allclose(t.grad, w, rtol=0,
                                           atol=1e-13 * np.abs(w).max())
        assert seen == {"voxels truncated", "points truncated",
                        "single-member voxel", "all voxel rows valid"}

    def test_one_pooling_op_per_kind_with_one_edge_per_map(self):
        spec = SceneSpec(seed=4)
        clouds = [generate_scene(spec, i) for i in range(3)]
        samples = [resample_fixed(c, 256, seed=i) for i, c in enumerate(clouds)]
        hist = batch_label_histogram(samples, spec.n_classes)
        cfg = SamplerConfig(n_point=16, n_voxel=4)
        chosen = [build_supervoxels(s, grid_for_clouds(clouds), cfg, hist)[:2]
                  for s in samples]
        maps = [Tensor(RNG.standard_normal((256, 3)), requires_grad=True)
                for _ in samples]
        v = supervoxel_features(maps, chosen)
        for pooled in (v.point_features, v.voxel_features):
            assert [p for p, _ in pooled._edges] == [m._node for m in maps]
        frozen = supervoxel_features([m.data for m in maps], chosen)
        assert not frozen.point_features._edges and not frozen.voxel_features._edges
        assert frozen.point_features.data.tobytes() == v.point_features.data.tobytes()

    @pytest.mark.parametrize("chosen_of", [
        lambda svs: [svs[:1], []],                 # one map per sample: three maps
        lambda svs: [[], [], []],                  # no supervoxel at all
        lambda svs: [svs[:1], [replace(svs[1], voxel_mask=np.ones(5, bool))], []],
    ], ids=["map_count", "empty", "sizes"])
    def test_rejects(self, chosen_of):
        spec = SceneSpec(seed=4)
        clouds = [generate_scene(spec, i) for i in range(2)]
        sample = resample_fixed(clouds[0], 256, seed=0)
        svs = build_supervoxels(sample, grid_for_clouds(clouds), SamplerConfig(),
                                batch_label_histogram([sample], spec.n_classes))
        maps = [np.zeros((256, 3))] * 3
        with pytest.raises(ShapeError):
            supervoxel_features(maps, chosen_of(svs))


def cross_similarity(f_i: np.ndarray, f_j: np.ndarray) -> np.ndarray:
    """Oracle: similarity matrix F_i F_j^T of two row-normalized maps."""
    f_i = np.asarray(f_i, dtype=np.float64)
    f_j = np.asarray(f_j, dtype=np.float64)
    if f_i.shape[1] != f_j.shape[1]:
        raise ShapeError("cross_similarity requires matching feature widths")
    return f_i @ f_j.T


def loss_gd_pair(m_s: np.ndarray, m_t: np.ndarray, temperature: float,
                 row_mask: np.ndarray | None = None,
                 col_mask: np.ndarray | None = None) -> float:
    """Oracle: row-softmax KL between one pair of similarity matrices."""
    m_s = np.asarray(m_s, dtype=np.float64)
    m_t = np.asarray(m_t, dtype=np.float64)
    if m_s.shape != m_t.shape:
        raise ShapeError(f"loss_gd_pair shape mismatch: {m_s.shape} vs {m_t.shape}")
    rows = np.ones(m_s.shape[0], dtype=bool) if row_mask is None \
        else np.asarray(row_mask, dtype=bool)
    cols = np.ones(m_s.shape[1], dtype=bool) if col_mask is None \
        else np.asarray(col_mask, dtype=bool)
    if not rows.any():
        raise UndefinedLossError("loss_gd_pair: no valid rows")
    if not cols.any():
        raise UndefinedLossError("loss_gd_pair: no valid columns")
    sub_s = m_s[np.ix_(rows, cols)]
    sub_t = m_t[np.ix_(rows, cols)]
    ls = log_softmax_rows(sub_s, temperature)
    lt = log_softmax_rows(sub_t, temperature)
    return float((np.exp(ls) * (ls - lt)).sum(axis=1).mean())


class TestCrossSimilarity:
    def test_orthonormal_identity(self):
        f = np.eye(3)
        np.testing.assert_allclose(cross_similarity(f, f), np.eye(3))

    def test_equal_rows_all_ones(self):
        f = np.tile(l2_normalize_rows(np.array([[1.0, 2.0]])), (4, 1))
        np.testing.assert_allclose(cross_similarity(f, f), np.ones((4, 4)))

    def test_scale_invariance_through_normalization(self):
        f = RNG.standard_normal((5, 3))
        a = cross_similarity(l2_normalize_rows(f), l2_normalize_rows(f))
        b = cross_similarity(l2_normalize_rows(5 * f), l2_normalize_rows(5 * f))
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestGDPair:
    def test_identity(self):
        m = RNG.standard_normal((4, 4))
        assert loss_gd_pair(m, m, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_row_shift_invariance(self):
        m_s = RNG.standard_normal((3, 4))
        m_t = RNG.standard_normal((3, 4))
        base = loss_gd_pair(m_s, m_t, 2.0)
        shifted_s, shifted_t = m_s.copy(), m_t.copy()
        shifted_s[1] += 7.0
        shifted_t[1] += 7.0
        assert loss_gd_pair(shifted_s, shifted_t, 2.0) == pytest.approx(base)

    def test_scalar_oracle(self):
        got = loss_gd_pair(np.array([[np.log(2.0), 0.0]]),
                           np.array([[0.0, 0.0]]), 1.0)
        want = (2 / 3) * np.log(4 / 3) + (1 / 3) * np.log(2 / 3)
        assert got == pytest.approx(want)

    def test_all_rows_masked(self):
        with pytest.raises(UndefinedLossError):
            loss_gd_pair(np.zeros((2, 2)), np.zeros((2, 2)), 1.0,
                         row_mask=np.array([False, False]))


def brute_force_batch_gd(student_maps, teacher_maps, temperature, masks=None):
    """Literal enumeration of the batch-geometry double sum over ordered pairs."""
    b = len(student_maps)
    n = student_maps[0].shape[0]
    if masks is None:
        masks = [np.ones(n, dtype=bool)] * b
    fs = [l2_normalize_rows(np.asarray(m, dtype=np.float64))
          for m in student_maps]
    ft = [l2_normalize_rows(np.asarray(m, dtype=np.float64))
          for m in teacher_maps]
    total = 0.0
    for i in range(b):
        for j in range(b):
            m_s = fs[i] @ fs[j].T
            m_t = ft[i] @ ft[j].T
            rows = 0.0
            for a in np.flatnonzero(masks[i]):
                cols = np.flatnonzero(masks[j])
                p = softmax_rows(m_s[a, cols][None, :], temperature)[0]
                q = softmax_rows(m_t[a, cols][None, :], temperature)[0]
                rows += kl_vec(p, q)
            total += rows / int(masks[i].sum())
    return total / b**2


@pytest.mark.usefixtures("walk_workers")
class TestBatchGD:
    def test_identity(self):
        maps = [RNG.standard_normal((6, 3)) for _ in range(3)]
        got = loss_batch_gd([Tensor(m) for m in maps], maps, 2.0)
        assert got.item() == pytest.approx(0.0, abs=1e-14)

    def test_single_sample_reduces_to_pair(self):
        f_s = RNG.standard_normal((5, 3))
        f_t = RNG.standard_normal((5, 4))
        got = loss_batch_gd([Tensor(f_s)], [f_t], 2.0).item()
        m_s = cross_similarity(l2_normalize_rows(f_s), l2_normalize_rows(f_s))
        m_t = cross_similarity(l2_normalize_rows(f_t), l2_normalize_rows(f_t))
        assert got == pytest.approx(loss_gd_pair(m_s, m_t, 2.0))

    @pytest.mark.parametrize("b,n", [(2, 4), (3, 8), (3, 5)])
    def test_brute_force_oracle(self, b, n):
        student = [RNG.standard_normal((n, 3)) for _ in range(b)]
        teacher = [RNG.standard_normal((n, 5)) for _ in range(b)]
        got = loss_batch_gd([Tensor(m) for m in student], teacher, 2.0).item()
        want = brute_force_batch_gd(student, teacher, 2.0)
        assert got == pytest.approx(want, rel=1e-9)

    def test_brute_force_oracle_masked(self):
        # b = 4 with an odd n: several off-diagonal block pairs, and blocks
        # whose valid row and column counts differ.
        for b, n in ((3, 6), (4, 7)):
            student = [RNG.standard_normal((n, 3)) for _ in range(b)]
            teacher = [RNG.standard_normal((n, 5)) for _ in range(b)]
            masks = [RNG.random(n) > 0.3 for _ in range(b)]
            for m in masks:
                m[0] = True
            got = loss_batch_gd([Tensor(s) for s in student], teacher, 2.0,
                                masks).item()
            want = brute_force_batch_gd(student, teacher, 2.0, masks)
            assert got == pytest.approx(want, rel=1e-9), (b, n)

    def test_permutation_invariance(self):
        student = [RNG.standard_normal((6, 3)) for _ in range(2)]
        teacher = [RNG.standard_normal((6, 4)) for _ in range(2)]
        base = loss_batch_gd([Tensor(m) for m in student], teacher, 2.0).item()
        rng = np.random.default_rng(5)
        for _ in range(100):
            perm = rng.permutation(6)
            ps = [student[0][perm], student[1]]
            pt = [teacher[0][perm], teacher[1]]
            got = loss_batch_gd([Tensor(m) for m in ps], pt, 2.0).item()
            assert got == pytest.approx(base, rel=1e-9)

    def test_row_rescale_invariance(self):
        student = [RNG.standard_normal((5, 3)) for _ in range(2)]
        teacher = [RNG.standard_normal((5, 4)) for _ in range(2)]
        base = loss_batch_gd([Tensor(m) for m in student], teacher, 2.0).item()
        rng = np.random.default_rng(6)
        for _ in range(100):
            scales = rng.uniform(0.1, 10.0, (5, 1))
            scaled = [student[0] * scales, student[1]]
            got = loss_batch_gd([Tensor(m) for m in scaled], teacher, 2.0).item()
            assert got == pytest.approx(base, rel=1e-9)

    def test_bad_temperature(self):
        student, teacher, _ = padded_batch(masked=())
        for t in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ConfigError, match="temperature"):
                loss_batch_gd([Tensor(m) for m in student], teacher, t)
            with pytest.raises(ConfigError, match="temperature"):
                gd_teacher_log_z(teacher, t)

    # b = 3, n = 8: masks one row short and one long, or one mask too few
    @pytest.mark.parametrize("lengths", [(7, 9, 8), (8, 8)])
    def test_masks_must_match_the_samples(self, lengths):
        student, teacher, _ = padded_batch(3, 8, masked=())
        masks = [np.ones(k, dtype=bool) for k in lengths]
        with pytest.raises(ShapeError, match="mask"):
            loss_batch_gd([Tensor(m) for m in student], teacher, 2.0, masks)
        with pytest.raises(ShapeError, match="mask"):
            gd_teacher_log_z(teacher, 2.0, masks)

    def test_batch_must_be_a_list_of_2d_maps(self):
        student, teacher, _ = padded_batch(3, 8, masked=())
        for maps in ([], [np.ones(4), np.ones(4)]):
            with pytest.raises(ShapeError, match="2-D"):
                gd_teacher_log_z(maps, 2.0)
        with pytest.raises(ShapeError, match="2-D"):
            loss_batch_gd([Tensor(m) for m in student],
                          [teacher[0][None], *teacher[1:]], 2.0)

    def test_teacher_log_z_maps_of_unequal_rows_rejected(self):
        _, teacher, _ = padded_batch(3, 8, masked=())
        with pytest.raises(ShapeError, match="point count"):
            gd_teacher_log_z([teacher[0], teacher[1][:7], teacher[2]], 2.0)

    def test_maps_of_unequal_width_rejected(self):
        student, teacher, _ = padded_batch(3, 8, masked=())
        narrow_s = [student[0], student[1][:, :2], student[2]]
        narrow_t = [teacher[0], teacher[1][:, :4], teacher[2]]
        with pytest.raises(ShapeError, match="width"):
            gd_teacher_log_z(narrow_t, 2.0)
        for s, t in ((narrow_s, teacher), (student, narrow_t)):
            with pytest.raises(ShapeError, match="width"):
                loss_batch_gd([Tensor(m) for m in s], t, 2.0)

    # b = 3, n = 8: one column too many or too few, one row too few
    @pytest.mark.parametrize("shape", [(24, 4), (24, 2), (23, 3)])
    def test_log_partitions_of_the_wrong_shape_rejected(self, shape):
        student, teacher, _ = padded_batch(3, 8, masked=())
        with pytest.raises(ShapeError, match="log-partitions"):
            loss_batch_gd([Tensor(m) for m in student], teacher, 2.0,
                          teacher_log_z=np.zeros(shape))


def walk_refused(*args, **kwargs):
    """Stands in for `losses._walk_block_pairs` where no walk may start."""
    raise AssertionError("the batch-GD walk started")


def padded_batch(b=3, n=6, masked=((0, 4), (0, 5), (2, 1))):
    """Student/teacher maps with some rows masked and those rows zeroed."""
    rng = np.random.default_rng(41)
    masks = [np.ones(n, dtype=bool) for _ in range(b)]
    for i, a in masked:
        if i < b:
            masks[i][a] = False
    student = [rng.standard_normal((n, 3)) * m[:, None] for m in masks]
    teacher = [rng.standard_normal((n, 5)) * m[:, None] for m in masks]
    return student, teacher, masks


@pytest.mark.usefixtures("walk_workers")
class TestBatchGDGradient:
    def leaf_grads(self, student, teacher, masks=None, log_z=None):
        leaves = [Tensor(m, requires_grad=True) for m in student]
        loss_batch_gd(leaves, teacher, 2.0, masks, log_z).backward()
        return [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("precompute", [True, False])
    def test_masked_leaf_finite_differences(self, precompute):
        # b = 1 runs only the diagonal block, b = 2 one off-diagonal pair.
        for b, use_masks in itertools.product((1, 2, 3), (False, True)):
            if use_masks:
                student, teacher, masks = padded_batch(b)
            else:
                student, teacher, _ = padded_batch(b, masked=())
                masks = None
            log_z = gd_teacher_log_z(teacher, 2.0, masks) if precompute else None
            analytic = self.leaf_grads(student, teacher, masks, log_z)
            scale = max(np.abs(g).max() for g in analytic)
            for i in range(b):
                def f(theta, i=i):
                    maps = [theta if k == i else m for k, m in enumerate(student)]
                    return loss_batch_gd([Tensor(m) for m in maps], teacher,
                                         2.0, masks, log_z).item()

                fd = finite_diff_gradient(f, student[i].copy())
                assert np.abs(analytic[i] - fd).max() <= 1e-6 * scale, \
                    (b, use_masks, i)
            for g, m in zip(analytic, masks or []):
                assert not g[~m].any()

    def test_graphs_backward_in_reverse_order(self):
        rng = np.random.default_rng(43)
        batches = [([rng.standard_normal((6, 3)) for _ in range(3)],
                    [rng.standard_normal((6, 5)) for _ in range(3)])
                   for _ in range(2)]
        isolated = [self.leaf_grads(s, t) for s, t in batches]
        graphs = []
        for student, teacher in batches:
            leaves = [Tensor(m, requires_grad=True) for m in student]
            graphs.append((leaves, loss_batch_gd(leaves, teacher, 2.0)))
        for _, loss in reversed(graphs):
            loss.backward()
        for (leaves, _), want in zip(graphs, isolated):
            for leaf, g in zip(leaves, want):
                np.testing.assert_allclose(leaf.grad, g, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("use_masks", [False, True])
    def test_teacher_log_z_oracle(self, use_masks):
        _, teacher, masks = padded_batch()
        masks = masks if use_masks else None
        got = gd_teacher_log_z(teacher, 2.0, masks)
        ft = [l2_normalize_rows(m) for m in teacher]
        cols = masks or [np.ones(6, dtype=bool)] * 3
        for i, rows in enumerate(ft):
            for a, row in enumerate(rows):
                for j, other in enumerate(ft):
                    sims = other[cols[j]] @ row / 2.0
                    top = sims.max()
                    want = top + np.log(np.exp(sims - top).sum())
                    assert got[i * 6 + a, j] == pytest.approx(want, rel=1e-12)

    @staticmethod
    def traced_peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def working_set_batch(self, b, n, d=16):
        rng = np.random.default_rng(47)
        student = [Tensor(rng.standard_normal((n, d)), requires_grad=True)
                   for _ in range(b)]
        return student, [rng.standard_normal((n, d)) for _ in range(b)]

    def test_working_set_below_one_gram(self):
        # Below two N x B*N stripes, far below the (B*N)^2 gram: the kernel
        # holds three N x N blocks.
        b, n = 8, 128
        student, teacher = self.working_set_batch(b, n)
        peak = self.traced_peak(
            lambda: loss_batch_gd(student, teacher, 2.0).backward())
        assert peak < 2 * n * (b * n) * 8

    def test_float32_walk_working_set_half_of_float64(self, walk_workers):
        # b = 2, n = 1024: the N x N blocks dominate the traced heap. The
        # float64 walk's bound is 2W + 2 float64 blocks
        # (`TestThreadedWalk.test_working_set_per_worker`; it peaks at
        # 2.2 W blocks here); the float32 walk holds half-size blocks.
        b, n = 2, 1024
        student, teacher = self.working_set_batch(b, n, d=8)
        log_z = gd_teacher_log_z(teacher, 2.0)
        peak = self.traced_peak(
            lambda: loss_batch_gd(student, teacher, 2.0, teacher_log_z=log_z,
                                  dtype="float32").backward())
        assert peak < (walk_workers + 1) * n * n * 8

    def test_float32_walk_holds_no_float64_stacks(self, walk_workers):
        # b = 8, n = 256: the stacked maps outweigh the N x N blocks. The
        # call holds three float64 (B*N, D_s) arrays (the normalized student
        # maps, the gradient and the leaf gradients), the float32 working
        # arrays (two (B*N, D_s), one (B*N, D_t)) and four float32 blocks
        # per worker (the kernel's two, the strip and the results waiting
        # for the calling thread). It peaks at 5.5 MB traced at W = 1 and
        # 6.3-6.5 MB at W = 2; float64 stacks of both maps added 3.1 MB.
        b, n, d_s, d_t = 8, 256, 64, 128
        rng = np.random.default_rng(47)
        student = [Tensor(rng.standard_normal((n, d_s)), requires_grad=True)
                   for _ in range(b)]
        teacher = [rng.standard_normal((n, d_t)) for _ in range(b)]
        peak = self.traced_peak(
            lambda: loss_batch_gd(student, teacher, 2.0, dtype="float32").backward())
        stack_s, stack_t = b * n * d_s * 8, b * n * d_t * 8
        assert peak < 4 * stack_s + stack_t / 2 + 4 * walk_workers * n * n * 4

    def test_one_edge_per_sample_map(self):
        student, teacher, masks = padded_batch()
        leaves = [Tensor(m, requires_grad=True) for m in student]
        edges = loss_batch_gd(leaves, teacher, 2.0, masks)._edges
        assert len(edges) == len(leaves) == len({id(node) for node, _ in edges})
        for (node, vjp), leaf in zip(edges, leaves):
            (parent, _), = node._edges      # the sample's row normalization
            assert parent is leaf
            assert vjp(np.float64(1.0)).shape == leaf.shape

    def test_teacher_log_z_working_set(self):
        b, n = 8, 128
        _, teacher = self.working_set_batch(b, n)
        peak = self.traced_peak(lambda: gd_teacher_log_z(teacher, 2.0))
        assert peak < n * (b * n) * 8


class TestBatchGDThreaded(TestBatchGD):
    WALK_WORKERS = 2


class TestBatchGDGradientThreaded(TestBatchGDGradient):
    WALK_WORKERS = 2


@pytest.mark.usefixtures("walk_workers")
class TestFloat32Walk:
    """The float32 block walk against the float64 reference."""

    # n = 70: a full 64-row strip of the gradient pass and a partial one;
    # 1/64, the smallest t_gd that LossWeights accepts for the float32 walk
    @pytest.mark.parametrize("t", [2.0, 1 / 64])
    @pytest.mark.parametrize("use_masks", [False, True])
    @pytest.mark.parametrize("b", [1, 2, 3, 8])
    def test_agrees_with_float64(self, b, use_masks, t):
        student, teacher, masks = padded_batch(
            b, 70, masked=((0, 4), (b - 1, 69), (b // 2, 0)) if use_masks else ())
        masks = masks if use_masks else None
        log_z = gd_teacher_log_z(teacher, t, masks)
        got, want = {}, {}
        for dtype, out in (("float32", got), ("float64", want)):
            leaves = [Tensor(m, requires_grad=True) for m in student]
            loss = loss_batch_gd(leaves, teacher, t, masks, log_z, dtype=dtype)
            loss.backward()
            out["loss"], out["grad"] = loss.item(), np.concatenate(
                [leaf.grad for leaf in leaves])
            assert out["grad"].dtype == np.float64
        assert got["loss"] == pytest.approx(want["loss"], rel=1e-4)
        scale = np.abs(want["grad"]).max()
        assert np.abs(got["grad"] - want["grad"]).max() <= 1e-5 * scale
        if masks is not None:
            assert not got["grad"][~np.concatenate(masks)].any()

    @pytest.mark.parametrize("t", [2.0, 1 / 64])
    @pytest.mark.parametrize("use_masks", [False, True])
    @pytest.mark.parametrize("b", [1, 2, 3, 8])
    def test_filled_log_partitions_agree_with_float64(self, b, use_masks, t):
        # The walk's own teacher log-partitions against the float64
        # reference; they change the loss, never the gradient.
        student, teacher, masks = padded_batch(
            b, 70, masked=((0, 4), (b - 1, 69), (b // 2, 0)) if use_masks else ())
        masks = masks if use_masks else None
        want = gd_teacher_log_z(teacher, t, masks)
        runs = []
        for log_z in (None, want):
            leaves = [Tensor(m, requires_grad=True) for m in student]
            loss = loss_batch_gd(leaves, teacher, t, masks, log_z, dtype="float32")
            loss.backward()
            runs.append((loss.item(), [leaf.grad for leaf in leaves]))
        (got_loss, got_grad), (want_loss, want_grad) = runs
        assert got_loss == pytest.approx(want_loss, rel=1e-4)
        # The loss weights its (B*N, B) partitions by a total of 1, so
        # partitions within 1e-6 relative move it by at most this much.
        assert abs(got_loss - want_loss) <= 1e-6 * np.abs(want).max()
        assert all(np.array_equal(g, w) for g, w in zip(got_grad, want_grad))

    @pytest.mark.parametrize("use_masks", [False, True])
    def test_float64_walk_fills_the_reference_bits(self, use_masks):
        # The loss of the walk that forms its own partitions is the loss
        # the oracle's partitions give, bit for bit.
        student, teacher, masks = padded_batch(3, 70)
        masks = masks if use_masks else None
        want = gd_teacher_log_z(teacher, 2.0, masks)
        got = loss_batch_gd([Tensor(m) for m in student], teacher, 2.0, masks)
        assert got.item() == loss_batch_gd([Tensor(m) for m in student], teacher,
                                           2.0, masks, teacher_log_z=want).item()

    @pytest.mark.filterwarnings("error")
    def test_exp_overflows_below_the_t_gd_floor(self, monkeypatch):
        # A self-similarity of 1/t = 90 would put exp(S_ii) past float32's
        # range, so the float32 walk refuses t = 1/90 before walking; the
        # float64 walk runs it. Unchecked, a float32 walk at t = 1e-3
        # overflows through RuntimeWarnings into a late NumericError.
        student, teacher, _ = padded_batch(2, 70, masked=())
        want = loss_batch_gd([Tensor(m) for m in student], teacher, 1 / 90)
        assert np.isfinite(want.item())
        monkeypatch.setattr(losses, "_walk_block_pairs", walk_refused)
        for t in (1 / 90, 1e-3):
            with pytest.raises(ConfigError, match="1/64"):
                loss_batch_gd([Tensor(m) for m in student], teacher, t,
                              dtype="float32")


class TestFloat32WalkThreaded(TestFloat32Walk):
    WALK_WORKERS = 2


class TestThreadedWalk:
    """The block-pair walk on worker threads against the serial walk."""

    @staticmethod
    def walk(monkeypatch, workers, b, n, use_masks, grad=True, dtype="float64",
             fill=False):
        """(loss, leaf gradients) of the `dtype` walk on `workers` threads,
        or on as many as `losses._walk_workers` picks if None; with fill, the
        walk forms the teacher log partitions itself."""
        if workers is not None:
            monkeypatch.setattr(losses, "_walk_workers", lambda n: workers)
        student, teacher, masks = padded_batch(
            b, n, masked=((0, 4), (b - 1, n - 1), (b // 2, 0)) if use_masks else ())
        masks = masks if use_masks else None
        log_z = None if fill else gd_teacher_log_z(teacher, 2.0, masks)
        leaves = [Tensor(m, requires_grad=grad) for m in student]
        loss = loss_batch_gd(leaves, teacher, 2.0, masks, log_z, dtype=dtype)
        if grad:
            loss.backward()
        return loss.item(), [leaf.grad for leaf in leaves]

    @staticmethod
    def assert_same_bits(got, want):
        assert got[0] == want[0]
        assert all(g is w is None or np.array_equal(g, w)
                   for g, w in zip(got[1], want[1], strict=True))

    # n = 70: a full 64-row strip of the gradient pass and a partial one
    @pytest.mark.parametrize("use_masks", [False, True])
    @pytest.mark.parametrize("b", [1, 2, 3, 8])
    def test_two_workers_bit_identical_to_serial(self, monkeypatch, b, use_masks):
        for dtype, grad, fill in itertools.product(losses.GD_PRECISIONS,
                                                   (True, False), (False, True)):
            want = self.walk(monkeypatch, 1, b, 70, use_masks, grad, dtype, fill)
            self.assert_same_bits(
                self.walk(monkeypatch, 2, b, 70, use_masks, grad, dtype, fill), want)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        want = self.walk(monkeypatch, 1, 8, 70, True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self.walk(monkeypatch, (os.cpu_count() or 1) + 2, 8, 70, True)
        finally:
            sys.setswitchinterval(interval)
        self.assert_same_bits(got, want)

    @staticmethod
    def blas():
        control = losses._blas_control()
        if control is None:
            pytest.skip("the OpenBLAS thread control is not found")
        return control

    def test_blas_threads_pinned_and_restored(self, monkeypatch):
        get, set_ = self.blas()
        saved = get()
        seen = []

        def work(i, j, ri, rj, scratch):
            seen.append(get())
            if (i, j) == (1, 1):
                raise NumericError("injected mid-walk")

        try:
            set_(2)
            self.walk(monkeypatch, 2, 3, 8, True)
            assert get() == 2
            with pytest.raises(NumericError, match="injected"):
                losses._walk_block_pairs(3, 8, work, lambda: None)
            assert get() == 2
            assert seen and set(seen) == {1}
        finally:
            set_(saved)

    def test_missing_blas_control_walks_serially(self, monkeypatch):
        want = self.walk(monkeypatch, 2, 3, 70, True)
        monkeypatch.undo()
        monkeypatch.setattr(losses, "_MIN_THREADED_ROWS", 1)
        monkeypatch.setattr(losses, "_blas_control", lambda: None)
        assert losses._walk_workers(70) == 1

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(losses, "ThreadPoolExecutor", no_pool)
        self.assert_same_bits(self.walk(monkeypatch, None, 3, 70, True), want)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_results_waiting_at_most_two_per_worker(self, monkeypatch, workers):
        # The calling thread takes results slowly, so the workers run ahead
        # of it: at most 2W finished pairs may wait, taken in pair order.
        monkeypatch.setattr(losses, "_walk_workers", lambda n: workers)
        lock = threading.Lock()
        waiting, peak, taken = 0, 0, []

        def work(i, j, ri, rj, scratch):
            nonlocal waiting, peak
            with lock:
                waiting += 1
                peak = max(peak, waiting)
            return i, j

        def take(out):
            nonlocal waiting
            time.sleep(0.002)
            with lock:
                waiting -= 1
            taken.append(out)

        losses._walk_block_pairs(8, 4, work, lambda: None, take)
        assert taken == [(i, j) for i, j, _, _ in losses._block_pairs(8, 4)]
        assert 0 < peak <= 2 * workers

    def test_working_set_per_worker(self):
        # b = 3, n = 512: the N x N blocks dominate the traced heap. Each
        # worker holds two blocks for the kernel and one for the log
        # partitions; two more blocks cover the gradient contributions,
        # the 64-row strips and the stacked maps.
        b, n = 3, 512
        workers = losses._walk_workers(n)
        student, teacher = TestBatchGDGradient().working_set_batch(b, n)
        log_z = gd_teacher_log_z(teacher, 2.0)
        kernel = TestBatchGDGradient.traced_peak(
            lambda: loss_batch_gd(student, teacher, 2.0,
                                  teacher_log_z=log_z).backward())
        assert kernel < (2 * workers + 2) * n * n * 8
        partitions = TestBatchGDGradient.traced_peak(
            lambda: gd_teacher_log_z(teacher, 2.0))
        assert partitions < (workers + 1) * n * n * 8


class TestMapInOrder:
    """`losses.map_in_order`, the pool behind the block walk and the
    trainer's per-scene passes."""

    @staticmethod
    def use(monkeypatch, workers):
        monkeypatch.setattr(losses, "_walk_workers", lambda n: workers)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_in_item_order_drawn_on_the_calling_thread(
            self, monkeypatch, workers):
        self.use(monkeypatch, workers)
        caller, drawn, done = threading.get_ident(), [], []

        def items():
            for i in range(20):
                assert threading.get_ident() == caller
                assert len(drawn) - len(done) <= 2 * workers
                drawn.append(i)
                yield i

        def work(i):
            time.sleep(0.001 * (i % 3))       # finish out of order
            return i * i

        for out in losses.map_in_order(work, items(), 70):
            done.append(out)
        assert done == [i * i for i in range(20)]

    def test_exception_reaches_the_caller_and_blas_is_restored(self, monkeypatch):
        get, set_ = TestThreadedWalk.blas()
        self.use(monkeypatch, 2)
        saved, seen = get(), []

        def work(i):
            seen.append(get())
            if i == 5:
                raise NumericError("injected in item 5")
            return i

        try:
            set_(2)
            taken = []
            with pytest.raises(NumericError, match="item 5"):
                for out in losses.map_in_order(work, range(12), 70):
                    taken.append(out)
            assert taken == [0, 1, 2, 3, 4]
            assert get() == 2
            assert seen and set(seen) == {1}
        finally:
            set_(saved)

    @pytest.mark.parametrize("workers, items", [(1, range(6)), (2, [7])])
    def test_no_pool_for_one_worker(self, monkeypatch, workers, items):
        # one worker, or more workers than a sized list has items
        self.use(monkeypatch, workers)

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(losses, "ThreadPoolExecutor", no_pool)
        assert list(losses.map_in_order(lambda i: -i, items, 70)) \
            == [-i for i in items]


def tensor_terms(values) -> dict:
    """`LOSS_NAMES` terms of the given values as scalar leaf Tensors."""
    return {name: Tensor(np.float64(v), requires_grad=True)
            for name, v in zip(LOSS_NAMES, values)}


def float_recombination(comps: dict, weights: LossWeights) -> float:
    """Reference: l_task + lambda_i * l_i on Python floats, left to right:
    the sum of a training log record's own terms."""
    values = [float(getattr(comps[n], "data", comps[n])) for n in LOSS_NAMES]
    total = values[0]
    for lam, value in zip(weights.lambdas(), values[1:]):
        total = total + lam * value
    return total


class TestTotals:
    def test_baseline_reduction(self):
        comps = tensor_terms([2.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        assert weighted_total(comps, LossWeights.zeros()).item() == pytest.approx(2.0)

    def test_default_weights_arithmetic(self):
        total = weighted_total(tensor_terms([1.0] * 6), LossWeights())
        assert total.item() == pytest.approx(1001.402)

    def test_lambda_doubling_linearity(self):
        comps = tensor_terms([0.5, 0.2, 0.3, 0.1, 0.01, 0.4])
        w = LossWeights()
        doubled = LossWeights(lambda_kd=0.6, lambda_p=0.002, lambda_v=0.002,
                              lambda_c=2000.0, lambda_batch_gd=0.2)
        a = weighted_total(comps, w).item()
        b = weighted_total(comps, doubled).item()
        assert b - 0.5 == pytest.approx(2 * (a - 0.5))

    def test_report_serialization_fields(self):
        # the terms in LOSS_NAMES order, then l_total: a training log
        # record's order
        w = LossWeights.zeros()
        comps = distill_objective(*cli._gradcheck_batch(0, w), w)
        assert list(comps) == list(LOSS_NAMES) + ["l_total"]

    def test_nonfinite_component_named(self):
        comps = tensor_terms([1.0, np.nan, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(NumericError, match="l_kd"):
            weighted_total(comps, LossWeights())

    def test_every_nonfinite_component_named(self):
        comps = tensor_terms([np.inf, 1.0, 1.0, 1.0, 1.0, -np.inf])
        comps["l_kd"] = np.nan                      # a float term is checked too
        with pytest.raises(NumericError, match="l_task, l_kd, l_batch_gd$"):
            weighted_total(comps, LossWeights())

    def test_overflowing_sum_names_l_total(self):
        # every term is finite; lambda_c * l_amra_c is not
        comps = tensor_terms([1.0, 1.0, 1.0, 1.0, 1e306, 1.0])
        with pytest.raises(NumericError, match="l_total") as info:
            weighted_total(comps, LossWeights())
        assert "l_amra_c" not in str(info.value)

    def test_nonfinite_term_named_by_the_objective(self, monkeypatch):
        monkeypatch.setattr(losses, "loss_kd", lambda *args, **kwargs: Tensor(np.nan))
        w = LossWeights()
        with pytest.raises(NumericError, match="l_kd"):
            distill_objective(*cli._gradcheck_batch(0, w), w)

    @pytest.mark.parametrize("enabled", [None] + [e for _, e in ABLATION_VARIANTS],
                             ids=["default"] + [v for v, _ in ABLATION_VARIANTS])
    def test_objective_total_is_the_float_recombination(self, enabled):
        # a logged l_total is, bit for bit, the float sum of the logged terms
        w = LossWeights() if enabled is None else variant_weights(LossWeights(), enabled)
        comps = distill_objective(*cli._gradcheck_batch(0, w), w)
        assert comps["l_total"].data.tobytes() \
            == np.float64(float_recombination(comps, w)).tobytes()

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(lambda_kd=-0.1)

    @pytest.mark.parametrize("field", ["t_logit", "t_gd"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_temperature_rejected(self, field, value):
        with pytest.raises(ConfigError):
            LossWeights(**{field: value})

    # The batch-GD walk takes its precision by name, one of GD_PRECISIONS,
    # and checks it before walking. Unchecked, on this batch a float16 walk
    # runs silently (0.050565 against float64's 0.050603) and an int32 one
    # raises numpy's UFuncTypeError.
    @pytest.mark.parametrize("value", ["float16", "int32", "double", "Float32", ""])
    def test_unknown_gd_precision_rejected(self, monkeypatch, value):
        student, teacher, _ = padded_batch(2, 8, masked=())
        monkeypatch.setattr(losses, "_walk_block_pairs", walk_refused)
        with pytest.raises(ConfigError, match="dtype must be one of"):
            loss_batch_gd([Tensor(m) for m in student], teacher, 2.0, dtype=value)

    def test_float32_walk_needs_t_gd_of_at_least_1_over_64(self):
        # every training run walks in float32, so the weights hold t_gd to
        # the float32 floor; the float64 walk runs below it
        LossWeights(t_gd=1 / 64)
        with pytest.raises(ConfigError, match="t_gd"):
            LossWeights(t_gd=0.015)
        student, teacher, _ = padded_batch(2, 8, masked=())
        with pytest.raises(ConfigError, match="t_gd"):
            loss_batch_gd([Tensor(m) for m in student], teacher, 0.015,
                          dtype="float32")
        loss_batch_gd([Tensor(m) for m in student], teacher, 0.015)


def composed_weighted_total(comps: dict, weights: LossWeights) -> Tensor:
    """Reference: the recombination as the chain of generic + and * tape ops
    it was built from, l_task + l_kd * lambda_kd + ..., left to right."""
    total = comps["l_task"]
    for name, lam in zip(LOSS_NAMES[1:], LAMBDAS):
        total = tadd(total, tmul(comps[name], getattr(weights, lam)))
    return total


class TestWeightedTotalReference:
    @pytest.mark.parametrize("weights", [
        LossWeights(), LossWeights.zeros(),
        variant_weights(LossWeights(), dict(ABLATION_VARIANTS)["+kd+csmbgd"])],
        ids=["default", "zeros", "kd_gd"])
    def test_matches_composed_reference(self, weights):
        runs = []
        for recombine in (weighted_total, composed_weighted_total):
            student, batch, chosen = cli._gradcheck_batch(0, weights)
            comps = distill_objective(student, batch, chosen, weights)
            total = recombine(comps, weights)
            student.zero_grads()
            total.backward()
            runs.append((comps, total, [p.grad for p in student.params.values()]))
        (comps, got, grads), (_, want, want_grads) = runs
        live = [comps[n] for n in LOSS_NAMES if isinstance(comps[n], Tensor)]
        assert [p for p, _ in got._edges] == [t._node for t in live]  # one op
        assert got.data.tobytes() == want.data.tobytes()
        for g, w in zip(grads, want_grads, strict=True):
            assert g is w is None or g.tobytes() == w.tobytes()
        assert comps["l_total"].data.tobytes() == got.data.tobytes()

