import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srkd.cloud import SceneSpec, derive_seed, generate_scene, resample_fixed
from srkd.errors import ConfigError
from srkd.voxelize import (CylGrid, SamplerConfig, _fixed_subset,
                           batch_label_histogram, build_supervoxels,
                           coarse_indices, fine_indices, sample_supervoxels,
                           supervoxel_weight, tau_class, to_cylindrical,
                           voxel_count)

TAU = 2 * math.pi


def grid(**kw):
    defaults = dict(radial_extent=10.0, height_extent=4.0, h_min=-2.0,
                    r_cell=2.5, a_cell=math.pi / 4, h_cell=2.0)
    defaults.update(kw)
    return CylGrid(**defaults)


class TestCylindrical:
    def test_x_axis_point(self):
        np.testing.assert_allclose(to_cylindrical(np.array([[1.0, 0.0, 2.0]])),
                                   [[1.0, 0.0, 2.0]])

    def test_y_axis_point(self):
        np.testing.assert_allclose(to_cylindrical(np.array([[0.0, 1.0, 0.0]])),
                                   [[1.0, math.pi / 2, 0.0]])

    def test_third_quadrant(self):
        out = to_cylindrical(np.array([[-1.0, -1.0, 3.0]]))
        np.testing.assert_allclose(out, [[math.sqrt(2), 5 * math.pi / 4, 3.0]])

    def test_origin_convention(self):
        np.testing.assert_allclose(to_cylindrical(np.zeros((1, 3))),
                                   [[0.0, 0.0, 0.0]])

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_angle_range(self, seed):
        pts = np.random.default_rng(seed).standard_normal((20, 3))
        a = to_cylindrical(pts)[:, 1]
        assert np.all((a >= 0) & (a < TAU))


class TestVoxelCount:
    def test_spec_example(self):
        g = grid(r_cell=3.0, a_cell=math.pi / 2, h_cell=2.0)
        assert voxel_count(g) == 4 * 4 * 2

    def test_single_cell(self):
        g = grid(radial_extent=5.0, r_cell=5.0, a_cell=TAU, h_cell=4.0)
        assert voxel_count(g) == 1

    def test_radial_ceiling(self):
        g = grid(radial_extent=1.0, r_cell=0.3)
        assert g.n_radial == 4

    def test_random_sweep_matches_formula(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            r = float(rng.uniform(1.0, 50.0))
            h = float(rng.uniform(0.5, 20.0))
            g = CylGrid(radial_extent=r, height_extent=h, h_min=0.0,
                        r_cell=float(rng.uniform(0.1, r)),
                        a_cell=float(rng.uniform(0.1, TAU)),
                        h_cell=float(rng.uniform(0.1, h)))
            want = (math.ceil(r / g.r_cell) * math.ceil(TAU / g.a_cell)
                    * math.ceil(h / g.h_cell))
            assert voxel_count(g) == want

    def test_invalid_cells(self):
        with pytest.raises(ConfigError):
            grid(r_cell=0.0)
        with pytest.raises(ConfigError):
            grid(r_cell=11.0)


class TestPartition:
    def test_every_point_in_exactly_one_cell(self):
        cloud = generate_scene(SceneSpec(seed=4), 0)
        g = grid()
        idx = coarse_indices(g, cloud.positions)
        assert idx.shape == (cloud.positions.shape[0], 3)
        assert np.all(idx >= 0)
        assert np.all(idx[:, 0] < g.n_radial)
        assert np.all(idx[:, 1] < g.n_angular)
        assert np.all(idx[:, 2] < g.n_height)


class TestWeights:
    def test_tau_formula(self):
        hist = np.zeros(4, dtype=np.int64)
        hist[:2] = (20, 80)
        assert tau_class(np.array([0, 0, 1]), hist) == pytest.approx(0.8)

    def test_tau_single_class_batch(self):
        hist = np.array([100, 0, 0, 0])
        assert tau_class(np.array([0, 0]), hist) == 0.0

    def test_tau_orders_rarity(self):
        hist = np.array([10, 60, 30])
        rare = tau_class(np.array([0]), hist)
        common = tau_class(np.array([1]), hist)
        assert rare == pytest.approx(0.9)
        assert common == pytest.approx(0.4)
        assert rare > common

    def test_weight_spec_example(self):
        g = grid(r_cell=3.0, a_cell=math.pi / 2, h_cell=2.0)  # N_v = 32
        assert supervoxel_weight(0.8, 6.0, g) == pytest.approx(0.015)

    def test_weight_zero_tau(self):
        assert supervoxel_weight(0.0, 6.0, grid()) == 0.0

    def test_weight_maximal(self):
        g = grid(radial_extent=5.0, r_cell=5.0, a_cell=TAU, h_cell=4.0)
        assert supervoxel_weight(1.0, 5.0, g) == pytest.approx(1.0)

    def test_weight_monotonicity(self):
        g = grid()
        assert supervoxel_weight(0.3, 5.0, g) < supervoxel_weight(0.6, 5.0, g)
        assert supervoxel_weight(0.5, 2.5, g) < supervoxel_weight(0.5, 7.5, g)

    def test_weight_bounds(self):
        g = grid()
        w = supervoxel_weight(1.0, g.radial_extent, g)
        assert 0.0 <= w <= 1.0 / voxel_count(g)


def make_sample(seed=0, n_fixed=1024):
    cloud = generate_scene(SceneSpec(seed=seed), 0)
    return resample_fixed(cloud, n_fixed, seed=seed + 1)


class TestBuildSupervoxels:
    def setup_method(self):
        self.sample = make_sample()
        self.hist = batch_label_histogram([self.sample], 8)
        self.cfg = SamplerConfig()
        self.grid = grid()

    def test_membership_covers_valid_points(self):
        svs = build_supervoxels(self.sample, self.grid, self.cfg, self.hist,
                                seed=3)
        members = np.concatenate([sv.member_indices for sv in svs])
        assert sorted(members) == sorted(np.flatnonzero(self.sample.mask))

    def test_fixed_block_shapes_and_masks(self):
        svs = build_supervoxels(self.sample, self.grid, self.cfg, self.hist,
                                seed=3)
        for sv in svs:
            assert sv.point_indices.shape == (self.cfg.n_point,)
            assert sv.point_mask.shape == (self.cfg.n_point,)
            assert sv.voxel_mask.shape == (self.cfg.n_voxel,)
            assert sv.voxel_members.dtype == sv.voxel_starts.dtype == np.intp
            n_real = int(sv.point_mask.sum())
            assert n_real == min(sv.member_indices.size, self.cfg.n_point)
            # kept point slots and valid voxel rows are prefixes
            assert sv.point_mask[:n_real].all()
            n_rows = sv.voxel_starts.size
            assert 1 <= n_rows <= self.cfg.n_voxel
            np.testing.assert_array_equal(sv.voxel_mask,
                                          np.arange(self.cfg.n_voxel) < n_rows)
            # segments are nonempty and start at 0
            lengths = np.diff(sv.voxel_starts, append=sv.voxel_members.size)
            assert sv.voxel_starts[0] == 0 and np.all(lengths > 0)
            # real point rows index actual members of this supervoxel
            assert set(sv.point_indices[sv.point_mask]) <= set(sv.member_indices)

    def test_voxel_rows_are_mean_pools(self):
        """The rows pool whole fine voxels: the segments partition the
        members of the kept fine voxels, and each shares one fine index."""
        for cfg in (self.cfg, SamplerConfig(n_voxel=2, sub_div=3)):
            svs = build_supervoxels(self.sample, self.grid, cfg, self.hist,
                                    seed=3)
            positions = self.sample.cloud.positions
            for sv in svs:
                pos = positions[sv.member_indices]
                fine = dict(zip(sv.member_indices, fine_indices(
                    self.grid, pos, coarse_indices(self.grid, pos), cfg.sub_div)))
                segments = np.split(sv.voxel_members, sv.voxel_starts[1:])
                ids = []
                for seg in segments:
                    assert np.all(np.diff(seg) > 0)  # sorted, no repeats
                    seg_ids = {fine[m] for m in seg}
                    assert len(seg_ids) == 1
                    ids.append(seg_ids.pop())
                assert len(set(ids)) == len(ids) == sv.voxel_starts.size
                # each segment holds every member of its fine voxel
                whole = [m for m in sv.member_indices if fine[m] in ids]
                assert sorted(whole) == sorted(sv.voxel_members)
                assert len(ids) == min(len(set(fine.values())), cfg.n_voxel)

    @pytest.mark.parametrize("cfg, truncates", [
        (SamplerConfig(), False), (SamplerConfig(n_point=8, n_voxel=3), True)],
        ids=["defaults", "both_caps_overflow"])
    def test_plans_equal_an_always_derive_reference(self, cfg, truncates):
        """A cell's generator is derived only when a cap truncates. The plans
        equal the ones drawn from a generator derived for every cell: the
        point subsample first, then a permutation of the fine voxels."""
        svs = build_supervoxels(self.sample, self.grid, cfg, self.hist, seed=3)
        overflow = {"point": 0, "voxel": 0}
        for sv in svs:
            members = sv.member_indices
            pos = self.sample.cloud.positions[members]
            fine = fine_indices(self.grid, pos, coarse_indices(self.grid, pos),
                                cfg.sub_div)
            rng = derive_seed(3, *sv.grid_index)
            points, point_mask = _fixed_subset(rng, members, cfg.n_point)
            voxels = np.unique(fine)
            kept = np.sort(voxels[rng.permutation(voxels.size)[:cfg.n_voxel]])
            segments = [members[fine == v] for v in kept]
            np.testing.assert_array_equal(sv.point_mask, point_mask)
            np.testing.assert_array_equal(sv.point_indices[point_mask],
                                          points[point_mask])
            np.testing.assert_array_equal(sv.voxel_members, np.concatenate(segments))
            np.testing.assert_array_equal(
                sv.voxel_starts, np.cumsum([0] + [len(g) for g in segments[:-1]]))
            overflow["point"] += members.size > cfg.n_point
            overflow["voxel"] += voxels.size > cfg.n_voxel
        if truncates:
            assert overflow["point"] > 0 and overflow["voxel"] > 0
        else:  # sub_div^3 = 8 fine voxels never fill n_voxel = 16 rows
            assert overflow["voxel"] == 0

    def test_candidates_hold_no_dense_matrix(self):
        # a dense (N_voxel, N_fixed) float64 pooling matrix per candidate
        # is 128 KiB, 7.5 MiB for this sample's 60 candidates; the member
        # segments take about 140 KiB in all
        build_supervoxels(self.sample, self.grid, self.cfg, self.hist, seed=3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            svs = build_supervoxels(self.sample, self.grid, self.cfg, self.hist,
                                    seed=3)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(svs) > 20
        assert held < 512 * 1024

    def test_weights_match_formula(self):
        svs = build_supervoxels(self.sample, self.grid, self.cfg, self.hist,
                                seed=3)
        for sv in svs:
            want = supervoxel_weight(sv.tau_class, sv.outer_distance, self.grid)
            assert sv.weight == pytest.approx(want, rel=1e-15)

    def test_deterministic(self):
        a = build_supervoxels(self.sample, self.grid, self.cfg, self.hist, seed=3)
        b = build_supervoxels(self.sample, self.grid, self.cfg, self.hist, seed=3)
        for sa, sb in zip(a, b):
            for name in ("point_indices", "point_mask", "voxel_members",
                         "voxel_starts", "voxel_mask"):
                np.testing.assert_array_equal(getattr(sa, name), getattr(sb, name))

    def test_empty_cloud(self):
        from srkd.cloud import IGNORE_LABEL, FixedSample, PointCloud
        cloud = PointCloud(positions=np.zeros((16, 3)),
                           features=np.zeros((16, 2)),
                           labels=np.full(16, IGNORE_LABEL, dtype=np.int64),
                           n_classes=8, id="empty")
        empty = FixedSample(cloud=cloud, mask=np.zeros(16, dtype=bool))
        assert build_supervoxels(empty, self.grid, self.cfg, self.hist,
                                 seed=0) == []

    def test_unlabeled_cells_get_zero_weight(self):
        from srkd.cloud import IGNORE_LABEL, FixedSample, PointCloud
        sample = make_sample()
        labels = sample.cloud.labels.copy()
        svs = build_supervoxels(sample, self.grid, self.cfg, self.hist, seed=3)
        # strip all annotations from one cell, keep the rest intact
        target = svs[0]
        labels[target.member_indices] = IGNORE_LABEL
        sparse = FixedSample(
            cloud=PointCloud(sample.cloud.positions, sample.cloud.features,
                             labels, sample.cloud.n_classes, sample.cloud.id),
            mask=sample.mask)
        svs2 = build_supervoxels(sparse, self.grid, self.cfg, self.hist, seed=3)
        by_cell = {sv.grid_index: sv for sv in svs2}
        hit = by_cell[target.grid_index]
        assert hit.tau_class == 0.0 and hit.weight == 0.0
        # other cells are unaffected
        for sv in svs:
            if sv.grid_index != target.grid_index:
                assert by_cell[sv.grid_index].weight == pytest.approx(sv.weight)


class TestSampling:
    def test_exhaustion_returns_all(self):
        sample = make_sample()
        hist = batch_label_histogram([sample], 8)
        svs = build_supervoxels(sample, grid(), SamplerConfig(), hist, seed=3)
        got = sample_supervoxels(svs[:3], 5, seed=1)
        assert len(got) == 3

    def test_full_selection_is_permutation(self):
        sample = make_sample()
        hist = batch_label_histogram([sample], 8)
        svs = build_supervoxels(sample, grid(), SamplerConfig(), hist, seed=3)
        got = sample_supervoxels(svs, len(svs), seed=1)
        assert sorted(id(s) for s in got) == sorted(id(s) for s in svs)

    def test_binomial_frequency(self):
        import dataclasses
        sample = make_sample()
        hist = batch_label_histogram([sample], 8)
        svs = build_supervoxels(sample, grid(), SamplerConfig(), hist, seed=3)
        a = dataclasses.replace(svs[0], weight=0.9)
        b = dataclasses.replace(svs[1], weight=0.1)
        wins = sum(sample_supervoxels([a, b], 1, seed=s)[0] is a
                   for s in range(10_000))
        assert abs(wins - 9000) <= 3 * math.sqrt(10_000 * 0.9 * 0.1)

    def test_chi_square_frequencies(self):
        # selection frequency must converge to w_i / sum(w) (K=1, 1e5 draws)
        import dataclasses
        sample = make_sample()
        hist = batch_label_histogram([sample], 8)
        svs = build_supervoxels(sample, grid(), SamplerConfig(), hist, seed=3)
        weights = np.array([0.5, 0.25, 0.15, 0.1])
        cands = [dataclasses.replace(sv, weight=w)
                 for sv, w in zip(svs[:4], weights)]
        n = 100_000
        counts = np.zeros(4)
        for s in range(n):
            chosen = sample_supervoxels(cands, 1, seed=s)[0]
            counts[next(i for i, c in enumerate(cands) if c is chosen)] += 1
        expected = weights / weights.sum() * n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # chi-square with 3 dof: p > 0.001 means chi2 below the 16.27 quantile
        assert chi2 < 16.27

    def test_zero_weights_fall_back_to_uniform(self):
        import dataclasses
        sample = make_sample()
        hist = batch_label_histogram([sample], 8)
        svs = build_supervoxels(sample, grid(), SamplerConfig(), hist, seed=3)
        cands = [dataclasses.replace(sv, weight=0.0) for sv in svs[:4]]
        seen = set()
        for s in range(200):
            for sv in sample_supervoxels(cands, 2, seed=s):
                seen.add(next(i for i, c in enumerate(cands) if c is sv))
        assert seen == {0, 1, 2, 3}
