import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from srkd import losses, models
from srkd.cloud import SceneSpec, generate_scene, resample_fixed
from srkd.errors import ConfigError, DataError, ParseError, ShapeError
from srkd.models import (AGG_ROUNDS, SegModel, knn_indices, load_checkpoint,
                         make_teacher, make_student_from_teacher,
                         save_checkpoint)


def sample(seed=0, n_fixed=64):
    cloud = generate_scene(SceneSpec(seed=seed, points_per_scene=128), 0)
    return resample_fixed(cloud, n_fixed, seed=seed + 1)


def raw_map(model, s):
    """The encoder's feature map of a sample, before row normalization."""
    nbr = knn_indices(s.cloud.positions, s.mask, model.k)
    return model.encoder.forward(SegModel.encoder_input(s), nbr, s.mask)


class TestKNN:
    def test_self_inclusive_brute_force(self):
        rng = np.random.default_rng(3)
        pos = rng.standard_normal((20, 3))
        mask = np.ones(20, dtype=bool)
        idx = knn_indices(pos, mask, 4)
        d2 = ((pos[:, None] - pos[None]) ** 2).sum(axis=2)
        for i in range(20):
            want = set(np.argsort(d2[i])[:4])
            assert set(idx[i]) == want
            assert i in set(idx[i])

    def test_padded_rows_self_index(self):
        pos = np.zeros((5, 3))
        pos[:3] = np.random.default_rng(0).standard_normal((3, 3))
        mask = np.array([True, True, True, False, False])
        idx = knn_indices(pos, mask, 2)
        assert list(idx[3]) == [3, 3]
        assert set(idx[:3].ravel()) <= {0, 1, 2}


def knn_oracle(positions, mask, ks):
    """Full-matrix k-NN: the (m, m, 3) difference tensor, reduced on axis 2,
    and each row's first k by (distance, index) from a stable argsort."""
    n = positions.shape[0]
    valid = np.flatnonzero(mask)
    pv = positions[valid]
    d2 = ((pv[:, None, :] - pv[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")
    out = []
    for k in ks:
        kk = min(k, valid.size)
        idx = np.tile(np.arange(n, dtype=np.intp)[:, None], (1, kk))
        if valid.size:
            idx[valid] = valid[order[:, :kk]]
        out.append(idx)
    return out


def knn_points(kind, m, rng):
    if kind == "random":
        return rng.standard_normal((m, 3)) * 4.0
    if kind == "lattice":  # many exactly tied distances
        return rng.integers(0, 4, (m, 3)).astype(np.float64)
    if kind == "decimal_lattice":  # ties that only rounding order breaks
        return rng.integers(0, 5, (m, 3)) * 0.1
    base = rng.standard_normal((m // 3 + 1, 3))  # every point appears ~3 times
    return base[rng.integers(0, base.shape[0], m)]


class TestKNNBlocked:
    @pytest.mark.parametrize("m", [1, 2, 33, 1025, 2048])
    @pytest.mark.parametrize("kind", ["random", "lattice", "decimal_lattice",
                                      "duplicates"])
    def test_byte_identical_to_full_matrix(self, m, kind):
        rng = np.random.default_rng(m * 7 + len(kind))
        pos = knn_points(kind, m, rng)
        ks = (1, 4, 8, 40)  # 40: more than the 33 points of the bound's window
        for mask in (np.ones(m, dtype=bool), rng.random(m) < 0.6,
                     np.zeros(m, dtype=bool)):
            for k, want in zip(ks, knn_oracle(pos, mask, ks)):
                got = knn_indices(pos, mask, k)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want), (m, kind, int(mask.sum()), k)

    def test_working_set_below_one_distance_matrix(self):
        m = 1024
        pos = np.random.default_rng(0).standard_normal((m, 3))
        mask = np.ones(m, dtype=bool)
        knn_indices(pos, mask, 8)
        tracemalloc.start()
        try:
            knn_indices(pos, mask, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * m * 8 / 4  # a quarter of the m x m float64 matrix

    @pytest.mark.parametrize("offset", [1e3, 1e6])
    @pytest.mark.parametrize("kind", ["random", "decimal_lattice"])
    def test_exact_far_from_the_origin(self, monkeypatch, offset, kind):
        # The filter works on centred coordinates: uncentred, its slack
        # grows with |p|^2 and it keeps nearly every pair at +1e6.
        kept = []
        first_by_distance = models._first_by_distance

        def spy(axes, lo, rows, pairs, kk):
            kept.append(pairs.size)
            return first_by_distance(axes, lo, rows, pairs, kk)

        monkeypatch.setattr(models, "_first_by_distance", spy)
        m = 1024
        pos = knn_points(kind, m, np.random.default_rng(7)) + offset
        mask = np.ones(m, dtype=bool)
        want, = knn_oracle(pos, mask, (8,))
        assert np.array_equal(knn_indices(pos, mask, 8), want)
        if kind == "random":
            assert sum(kept) < 64 * m

    def test_rows_ascend_by_distance_then_index(self):
        rng = np.random.default_rng(5)
        for kind in ("random", "lattice", "duplicates"):
            pos = knn_points(kind, 500, rng)
            idx = knn_indices(pos, np.ones(500, dtype=bool), 8)
            d = ((pos[:, None, :] - pos[idx]) ** 2).sum(axis=2)
            later = (d[:, 1:] > d[:, :-1]) | ((d[:, 1:] == d[:, :-1])
                                               & (idx[:, 1:] > idx[:, :-1]))
            assert later.all(), kind

    def test_equidistant_lattice_neighbours_lowest_indices_first(self):
        # A shuffled 3 x 3 x 3 unit lattice: the centre has six neighbours
        # at distance 1, and k = 4 takes the three of lowest index.
        grid = np.stack(np.meshgrid(*[np.arange(3.0)] * 3, indexing="ij"), -1)
        pos = np.random.default_rng(1).permutation(grid.reshape(-1, 3))
        centre = int(np.flatnonzero((pos == 1.0).all(axis=1))[0])
        faces = np.flatnonzero(np.abs(pos - 1.0).sum(axis=1) == 1.0)
        idx = knn_indices(pos, np.ones(27, dtype=bool), 4)
        assert list(idx[centre]) == [centre, *sorted(faces)[:3]]


@pytest.mark.usefixtures("walk_workers")
class TestKNNThreads:
    """k-NN through `losses.map_in_order` against the calling thread: at
    W = 2 the scenes run with OpenBLAS pinned to one thread, the calling
    thread's calls with OpenBLAS at P threads."""

    @pytest.mark.parametrize("m", [1000, 1024])
    def test_same_at_every_blas_thread_count(self, m):
        rng = np.random.default_rng(m)
        scenes = [(knn_points(kind, m, rng), rng.random(m) < 0.9)
                  for kind in ("random", "lattice", "decimal_lattice", "duplicates")]
        want = [knn_indices(pos, mask, 8) for pos, mask in scenes]
        got = losses.map_in_order(lambda s: knn_indices(*s, 8), scenes, m)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


class TestKNNThreadsThreaded(TestKNNThreads):
    WALK_WORKERS = 2


class TestKNNInputs:
    def test_positions_must_be_n_by_3(self):
        mask = np.ones(6, dtype=bool)
        for pos in (np.zeros((6, 2)), np.zeros((6, 4)), np.zeros(6), np.zeros((6, 3, 1))):
            with pytest.raises(ShapeError, match="positions"):
                knn_indices(pos, mask, 2)

    def test_mask_must_match_the_points(self):
        pos = np.random.default_rng(0).standard_normal((6, 3))
        for mask in (np.ones(5, dtype=bool), np.ones(7, dtype=bool),
                     np.ones((6, 1), dtype=bool)):
            with pytest.raises(ShapeError, match="mask"):
                knn_indices(pos, mask, 2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        with pytest.raises(ConfigError, match="k >= 1"):
            knn_indices(np.zeros((4, 3)), np.ones(4, dtype=bool), k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_valid_position(self, bad):
        pos = np.random.default_rng(0).standard_normal((6, 3))
        pos[2, 1] = bad
        with pytest.raises(DataError, match="finite"):
            knn_indices(pos, np.ones(6, dtype=bool), 2)
        mask = np.ones(6, dtype=bool)
        mask[2] = False  # a padded row is never read
        want, = knn_oracle(np.where(mask[:, None], pos, 0.0), mask, (2,))
        assert np.array_equal(knn_indices(pos, mask, 2), want)


class TestForward:
    def test_deterministic(self):
        model = make_teacher(2, 8, d_out=16, k=8, seed=4)
        s = sample()
        a = model.forward(s)[1].data
        b = model.forward(s)[1].data
        np.testing.assert_array_equal(a, b)

    def test_shapes(self):
        model = make_teacher(2, 8, d_out=16, k=8, seed=4)
        s = sample()
        f_norm, logits = model.forward(s)
        assert raw_map(model, s).shape == (64, 16)
        assert f_norm.shape == (64, 16)
        assert logits.shape == (64, 8)

    def test_padded_rows_zero_features(self):
        model = make_teacher(2, 8, d_out=16, k=8, seed=4)
        s = sample(n_fixed=200)  # forces padding (scene has 128 points)
        f_raw = raw_map(model, s)
        assert not s.mask.all()
        assert np.all(f_raw.data[~s.mask] == 0.0)

    def test_padding_does_not_leak_into_valid_rows(self):
        model = make_teacher(2, 8, d_out=16, k=8, seed=4)
        s_small = sample(n_fixed=128)
        s_padded = sample(n_fixed=200)
        f_small = raw_map(model, s_small).data
        f_padded = raw_map(model, s_padded).data
        # both samples contain all 128 scene points; match rows by position
        for i in range(128):
            j = np.flatnonzero(
                (s_padded.cloud.positions == s_small.cloud.positions[i]).all(axis=1))
            np.testing.assert_allclose(f_padded[j[0]], f_small[i], atol=1e-12)

    def test_zero_weights_give_bias_pattern(self):
        # with k=1 the aggregation is the identity, so the hand-rolled
        # forward is tanh(b_last) after propagating biases through layers
        model = SegModel((5, 4, 3), n_classes=2, k=1, seed=0)
        for name, p in model.encoder.params.items():
            if name.startswith("w"):
                p.data[...] = 0.0
        s = sample()
        f_raw = raw_map(model, s).data
        want = np.tanh(model.encoder.params["b1"].data)
        np.testing.assert_allclose(f_raw[s.mask],
                                   np.tile(want, (int(s.mask.sum()), 1)),
                                   atol=1e-12)

    def test_head_affine_oracle(self):
        model = make_teacher(2, 4, d_out=8, k=8, seed=1)
        f = np.random.default_rng(0).standard_normal((3, 8))
        from srkd.autodiff import Tensor
        got = model.head.forward(Tensor(f)).data
        want = f @ model.head.w.data + model.head.b.data
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_each_layer_is_one_tape_node(self):
        model = make_teacher(2, 8, d_out=16, k=8, seed=4)
        f_norm, logits = model.forward(sample())
        nodes, stack = {}, [logits._node]
        while stack:
            t = stack.pop()
            if id(t) not in nodes:
                nodes[id(t)] = t
                stack.extend(p for p, _ in t._edges)
        inner = [t for t in nodes.values() if t._edges]
        enc = model.encoder
        n_layers = len(enc.widths) - 1
        # one node per layer, per aggregation round, for the padding mask,
        # the row normalization and the head
        assert len(inner) == n_layers + min(n_layers, AGG_ROUNDS) + 3
        for i in range(n_layers):
            users = [t for t in inner
                     if any(p is enc.params[f"w{i}"] for p, _ in t._edges)]
            assert len(users) == 1
            assert [p for p, _ in users[0]._edges][-2:] == \
                [enc.params[f"w{i}"], enc.params[f"b{i}"]]
        assert [p for p, _ in logits._edges] == \
            [f_norm._node, model.head.w, model.head.b]

    def test_feature_noise_injection_point(self):
        model = make_teacher(2, 8, d_out=16, k=8, seed=4)
        s = sample()
        noise = np.random.default_rng(1).normal(0, 0.5, (64, 16))
        base = model.forward(s)[1].data
        noisy = model.forward(s, feature_noise=noise)[1].data
        want = base + noise @ model.head.w.data
        np.testing.assert_allclose(noisy, want, atol=1e-12)


class TestLeanTape:
    """The tape keeps only the arrays its vjps read."""

    @staticmethod
    def _teacher_inputs():
        cloud = generate_scene(SceneSpec(seed=3), 0)
        s = resample_fixed(cloud, 1024, seed=4)
        model = make_teacher(cloud.d_in, cloud.n_classes, 128, k=8, seed=5)
        return model, s, knn_indices(s.cloud.positions, s.mask, model.k)

    def test_working_set_of_a_live_teacher_tape(self):
        model, s, nbr = self._teacher_inputs()
        n, d, c = s.n_fixed, model.encoder.d_out, model.n_classes
        losses.loss_task(model.forward(s, nbr)[1], s.cloud.labels, s.mask)
        tracemalloc.start()
        try:
            loss = losses.loss_task(model.forward(s, nbr)[1], s.cloud.labels, s.mask)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # layer 0's tanh output, the first neighbour mean (layer 1's input),
        # layer 1's tanh output and the normalized map: four (N, D) arrays.
        # Within four (N, C): the loss gradient, the input and (N, 1) columns.
        assert live < 4 * n * d * 8 + 4 * n * c * 8
        loss.backward()
        assert all(p.grad is not None for p in model.named_params().values())

    def test_pre_normalization_map_freed_under_a_live_loss(self):
        model, s, nbr = self._teacher_inputs()
        raw = model.encoder.forward(SegModel.encoder_input(s), nbr, s.mask)
        ref = weakref.ref(raw.data)
        loss = losses.loss_task(model.head.forward(raw.l2_normalize_rows()),
                                s.cloud.labels, s.mask)
        del raw
        assert ref() is None and loss.requires_grad


class TestStudentConstruction:
    def test_width_halving(self):
        teacher = make_teacher(13, 8, d_out=128, k=8)  # widths (16, 128, 128)
        student = make_student_from_teacher(teacher, seed=1)
        assert teacher.widths == (16, 128, 128)
        assert student.widths == (16, 64, 64)

    def test_projection_shape(self):
        teacher = make_teacher(2, 8, d_out=128, k=8)
        student = make_student_from_teacher(teacher, seed=1)
        assert student.encoder.d_out == 64
        assert student.projection.w.shape == (64, 128)

    def test_projection_near_orthogonal(self):
        teacher = make_teacher(2, 8, d_out=128, k=8)
        student = make_student_from_teacher(teacher, seed=1)
        w = student.projection.w.data
        np.testing.assert_allclose(w @ w.T, np.eye(64), atol=1e-10)

    def test_parameter_ratio(self):
        teacher = make_teacher(2, 8, d_out=128, k=8)
        student = make_student_from_teacher(teacher, seed=1)
        dense = sum(t.data.size for n, t in student.named_params().items()
                    if not n.startswith("proj."))
        assert dense * 3 < teacher.param_count()

    def test_hidden_layer_ratio_quarter(self):
        teacher = make_teacher(2, 8, d_out=128, k=8)
        student = make_student_from_teacher(teacher, seed=1)
        assert teacher.encoder.params["w1"].data.size == 128 * 128
        assert student.encoder.params["w1"].data.size == 64 * 64


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        model = make_teacher(2, 8, d_out=16, k=8, seed=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model.state_dict(), path)
        back = SegModel.from_state(load_checkpoint(path))
        s = sample()
        np.testing.assert_array_equal(model.forward(s)[1].data,
                                      back.forward(s)[1].data)

    def test_bytes_stable(self, tmp_path):
        model = make_teacher(2, 8, d_out=16, k=8, seed=4)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model.state_dict(), p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ParseError):
            load_checkpoint(path)

    @staticmethod
    def tiny_checkpoint(tmp_path):
        path = tmp_path / "tiny.ckpt"
        save_checkpoint(SegModel((3, 2, 2), n_classes=2, k=1).state_dict(), path)
        return path.read_bytes()

    def test_every_truncation_is_parse_error(self, tmp_path):
        raw = self.tiny_checkpoint(tmp_path)
        path = tmp_path / "cut.ckpt"
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ParseError):
                load_checkpoint(path)
        path.write_bytes(raw)
        assert load_checkpoint(path)

    def test_oversized_ndim_is_parse_error(self, tmp_path):
        raw = bytearray(self.tiny_checkpoint(tmp_path))
        off = 9 + 4
        (nlen,) = struct.unpack_from("<I", raw, off)
        struct.pack_into("<I", raw, off + 4 + nlen, 0xFFFFFFFF)
        path = tmp_path / "big.ckpt"
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [(1,) * 33, (0, 2**32 - 1, 2**32 - 1, 2**32 - 1)])
    def test_unrepresentable_shape_is_parse_error(self, tmp_path, shape):
        """Too many dims, or an empty payload under dims whose product overflows."""
        path = tmp_path / "shape.ckpt"
        path.write_bytes(b"SRKDCKPT1" + struct.pack("<II", 1, 1) + b"a"
                         + struct.pack(f"<I{len(shape)}I", len(shape), *shape)
                         + b"\0" * (8 * int(np.prod(shape))))
        with pytest.raises(ParseError, match="dimensions|shape"):
            load_checkpoint(path)

    def test_non_utf8_name_is_parse_error(self, tmp_path):
        raw = bytearray(self.tiny_checkpoint(tmp_path))
        raw[9 + 4 + 4] = 0xFF  # first byte of the first buffer name
        path = tmp_path / "name.ckpt"
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="utf-8"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["meta.widths", "meta.n_classes", "meta.k",
                                     "meta.project_to"])
    def test_missing_meta_is_data_error(self, key):
        state = make_teacher(2, 8, d_out=16, k=8, seed=4).state_dict()
        del state[key]
        with pytest.raises(DataError, match=key):
            SegModel.from_state(state)

    def test_invalid_meta_is_data_error(self):
        state = make_teacher(2, 8, d_out=16, k=8, seed=4).state_dict()
        state["meta.k"] = np.array([np.nan])
        with pytest.raises(DataError, match="meta.k"):
            SegModel.from_state(state)

    @pytest.mark.parametrize("key, value", [("meta.n_classes", [8 * 2.0**32]),
                                            ("meta.widths", [5, 16 * 2.0**32, 16]),
                                            ("meta.project_to", [16])])
    def test_meta_disagreeing_with_weights_is_data_error(self, key, value):
        """Checked before the model is built: these sizes would not fit in memory."""
        state = make_teacher(2, 8, d_out=16, k=8, seed=4).state_dict()
        state[key] = np.array(value)
        with pytest.raises(DataError):
            SegModel.from_state(state)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = make_teacher(2, 8, d_out=16, k=8, seed=4)
        state = model.state_dict()
        state["head.b"] = np.zeros(3)
        with pytest.raises(DataError):
            SegModel.from_state(state)

    def test_freeze(self):
        model = make_teacher(2, 8, d_out=16, k=8, seed=4)
        assert not model.frozen
        assert model.freeze() is model and model.frozen
        assert all(not p.requires_grad for p in model.named_params().values())
