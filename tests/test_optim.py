import numpy as np
import pytest

from srkd.autodiff import Tensor
from srkd.optim import AdamW, OneCycleSchedule


def make_param(value, grad):
    t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
    t.grad = np.asarray(grad, dtype=np.float64)
    return t


class TestAdamW:
    def test_first_step_reference_math(self):
        p = make_param([1.0, -2.0], [0.5, -1.0])
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step()
        g = np.array([0.5, -1.0])
        m_hat = (0.1 * g) / 0.1          # bias-corrected first moment
        v_hat = (0.001 * g * g) / 0.001
        want = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p.data, want, rtol=1e-12)

    def test_decoupled_decay(self):
        p_plain = make_param([2.0], [0.3])
        p_decay = make_param([2.0], [0.3])
        AdamW({"p": p_plain}, lr=0.1, weight_decay=0.0).step()
        AdamW({"p": p_decay}, lr=0.1, weight_decay=0.5).step()
        # decay subtracts lr * wd * theta on top of the plain update
        np.testing.assert_allclose(p_decay.data,
                                   p_plain.data - 0.1 * 0.5 * 2.0, rtol=1e-12)

    def test_zero_decay_bitwise_plain(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(5)
        g = rng.standard_normal(5)
        a = make_param(v, g)
        b = make_param(v, g)
        AdamW({"p": a}, lr=0.05, weight_decay=0.0).step()
        AdamW({"p": b}, lr=0.05, weight_decay=0.0).step()
        assert a.data.tobytes() == b.data.tobytes()

    def test_zero_lr_leaves_params(self):
        p = make_param([1.0], [5.0])
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.05)
        opt.step(lr=0.0)
        np.testing.assert_array_equal(p.data, [1.0])

    def test_none_grad_skipped(self):
        p = Tensor(np.ones(3), requires_grad=True)
        AdamW({"p": p}, lr=0.1, weight_decay=0.0).step()
        np.testing.assert_array_equal(p.data, np.ones(3))


class TestOneCycle:
    def test_warmup_start(self):
        sched = OneCycleSchedule(1.0, 100, warmup_frac=0.3, start_factor=0.04)
        assert sched.lr(0) == pytest.approx(0.04)

    def test_peak_at_warmup_end(self):
        sched = OneCycleSchedule(1.0, 100, warmup_frac=0.3)
        assert sched.lr(30) == pytest.approx(1.0)

    def test_final_floor(self):
        sched = OneCycleSchedule(1.0, 100, final_factor=1e-4)
        assert sched.lr(99) <= sched.lr(50)
        assert sched.lr(100) == pytest.approx(1e-4, rel=1e-2)

    def test_monotone_phases(self):
        sched = OneCycleSchedule(0.006, 480, warmup_frac=0.3)
        lrs = [sched.lr(s) for s in range(480)]
        warm_end = int(480 * 0.3)
        assert all(a <= b + 1e-15 for a, b in zip(lrs[:warm_end], lrs[1:warm_end]))
        assert all(a >= b - 1e-15 for a, b in zip(lrs[warm_end:], lrs[warm_end + 1:]))

    def test_positive_everywhere(self):
        sched = OneCycleSchedule(0.006, 480)
        assert min(sched.lr(s) for s in range(480)) > 0.0
