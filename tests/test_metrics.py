import numpy as np
import pytest

from srkd.errors import DataError
from srkd.metrics import confusion_matrix, metrics_from_confusion


class TestConfusion:
    def test_brute_force_tally(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 5, 10_000).astype(np.int64)
        preds = rng.integers(0, 5, 10_000)
        conf = confusion_matrix(labels, preds, 5)
        want = np.zeros((5, 5), dtype=np.int64)
        for y, p in zip(labels, preds):
            want[y, p] += 1
        np.testing.assert_array_equal(conf, want)

    def test_ignore_and_mask_excluded(self):
        labels = np.array([0, 255, 1])
        preds = np.array([0, 0, 1])
        mask = np.array([True, True, False])
        conf = confusion_matrix(labels, preds, 2, mask)
        assert conf.sum() == 1

    def test_out_of_range_pred_rejected(self):
        with pytest.raises(DataError):
            confusion_matrix(np.array([0]), np.array([5]), 2)


class TestMetrics:
    def test_perfect_prediction(self):
        labels = np.array([0, 1, 2, 2])
        m = metrics_from_confusion(confusion_matrix(labels, labels.copy(), 3))
        assert m.miou == m.macc == m.allacc == 1.0

    def test_spec_enumeration_case(self):
        m = metrics_from_confusion(confusion_matrix(np.array([0, 1, 1, 1]),
                                                    np.array([0, 0, 1, 1]), 2))
        np.testing.assert_allclose(m.iou, [0.5, 2 / 3])
        assert m.miou == pytest.approx(7 / 12)
        assert m.allacc == pytest.approx(3 / 4)
        assert m.macc == pytest.approx((1.0 + 2 / 3) / 2)

    def test_absent_class_excluded(self):
        # class 2 never appears in labels: it must not drag the means
        m = metrics_from_confusion(confusion_matrix(np.array([0, 1]),
                                                    np.array([0, 1]), 3))
        assert np.isnan(m.iou[2])
        assert m.miou == 1.0

    def test_false_positives_into_absent_class_still_ignored_in_mean(self):
        m = metrics_from_confusion(confusion_matrix(np.array([0, 0]),
                                                    np.array([0, 2]), 3))
        present_iou = m.iou[0]
        assert m.miou == pytest.approx(present_iou)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            labels = rng.integers(0, 4, 100)
            preds = rng.integers(0, 4, 100)
            m = metrics_from_confusion(confusion_matrix(labels, preds, 4))
            for v in (m.miou, m.macc, m.allacc):
                assert 0.0 <= v <= 1.0

    def test_row_serialization(self):
        m = metrics_from_confusion(confusion_matrix(np.array([0, 1]),
                                                    np.array([0, 1]), 2))
        row = m.as_row()
        assert set(row) == {"miou", "macc", "allacc"}

    def test_from_confusion_matches_compute(self):
        # evaluate sums per-cloud confusions: the sum scores all points at once
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 3, 50)
        preds = rng.integers(0, 3, 50)
        a = metrics_from_confusion(confusion_matrix(labels, preds, 3))
        b = metrics_from_confusion(confusion_matrix(labels[:20], preds[:20], 3)
                                   + confusion_matrix(labels[20:], preds[20:], 3))
        assert a.miou == b.miou and a.macc == b.macc and a.allacc == b.allacc
