import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from srkd.errors import NumericError
from srkd.numerics import l2_normalize_rows, softmax_rows

finite_rows = hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                      min_side=1, max_side=12),
                         elements=st.floats(-30, 30))


class TestSoftmax:
    def test_symmetric_row(self):
        out = softmax_rows(np.array([[0.0, 0.0]]), 1.0)
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_analytic_row(self):
        out = softmax_rows(np.array([[np.log(2.0), 0.0]]), 1.0)
        np.testing.assert_allclose(out, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_temperature(self):
        out = softmax_rows(np.array([[4.0, 0.0]]), 2.0)
        e2 = np.exp(2.0)
        np.testing.assert_allclose(out, [[e2 / (e2 + 1), 1 / (e2 + 1)]])

    def test_rejects_nonfinite(self):
        with pytest.raises(NumericError):
            softmax_rows(np.array([[np.inf, 0.0]]), 1.0)

    def test_rejects_bad_temperature(self):
        with pytest.raises(Exception):
            softmax_rows(np.zeros((1, 2)), 0.0)

    @given(finite_rows)
    @settings(max_examples=150, deadline=None)
    def test_rows_sum_to_one(self, m):
        out = softmax_rows(m, 1.7)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    @given(finite_rows, st.floats(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, m, c):
        np.testing.assert_allclose(softmax_rows(m + c, 1.0),
                                   softmax_rows(m, 1.0), atol=1e-12)


class TestNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize_rows(np.array([[3.0, 4.0]])),
                                   [[0.6, 0.8]])

    def test_zero_row_stays_zero(self):
        out = l2_normalize_rows(np.array([[0.0, 0.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0]])

    @given(finite_rows, st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_positive_scale_invariance(self, m, c):
        # rows with norms at or below the zero-row guard are exempt
        assume(np.all(np.linalg.norm(m, axis=1) > 1e-6))
        np.testing.assert_allclose(l2_normalize_rows(c * m),
                                   l2_normalize_rows(m), atol=1e-9)

    @given(finite_rows)
    @settings(max_examples=100, deadline=None)
    def test_unit_norms(self, m):
        out = l2_normalize_rows(m)
        norms = np.linalg.norm(out, axis=1)
        nonzero = np.linalg.norm(m, axis=1) > 1e-12
        np.testing.assert_allclose(norms[nonzero], 1.0, atol=1e-12)
