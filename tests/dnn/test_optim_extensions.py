"""Adam and warm-up schedule tests."""

import numpy as np
import pytest

from repro.dnn import (
    Adam,
    LRSchedule,
    SGD,
    build_hdc,
    hdc_dataset,
    train_single_node,
)


class TestWarmup:
    def test_linear_rampup(self):
        sched = LRSchedule(base_lr=0.1, warmup=10)
        assert sched.lr_at(0) == pytest.approx(0.01)
        assert sched.lr_at(4) == pytest.approx(0.05)
        assert sched.lr_at(9) == pytest.approx(0.1)
        assert sched.lr_at(10) == pytest.approx(0.1)

    def test_warmup_then_steps(self):
        sched = LRSchedule(base_lr=0.1, factor=10, every=100, warmup=10)
        assert sched.lr_at(5) < 0.1
        assert sched.lr_at(50) == pytest.approx(0.1)
        assert sched.lr_at(150) == pytest.approx(0.01)

    def test_no_warmup_by_default(self):
        assert LRSchedule(0.1).lr_at(0) == 0.1


class TestAdam:
    def _net(self):
        from repro.dnn import Dense, Sequential

        return Sequential([Dense(3, 2, np.random.default_rng(0))])

    def test_step_moves_parameters(self):
        net = self._net()
        opt = Adam(LRSchedule(0.01))
        before = net.parameter_vector()
        opt.step_with_vector(net, np.ones(net.num_parameters, dtype=np.float32))
        assert not np.array_equal(net.parameter_vector(), before)

    def test_adaptive_scaling_normalizes_magnitudes(self):
        # After a few identical steps, Adam's update approaches lr
        # regardless of gradient magnitude.
        nets = [self._net(), self._net()]
        opts = [Adam(LRSchedule(0.01)), Adam(LRSchedule(0.01))]
        grads = [
            np.full(nets[0].num_parameters, 1e-4, dtype=np.float32),
            np.full(nets[0].num_parameters, 1e2, dtype=np.float32),
        ]
        moved = []
        for net, opt, grad in zip(nets, opts, grads):
            start = net.parameter_vector()
            for _ in range(10):
                opt.step_with_vector(net, grad)
            moved.append(np.abs(net.parameter_vector() - start).mean())
        assert moved[0] == pytest.approx(moved[1], rel=0.05)

    def test_trains_hdc(self):
        ds = hdc_dataset(train_size=400, test_size=100, seed=0)
        net = build_hdc(seed=0)
        result = train_single_node(
            net, Adam(LRSchedule(0.001)), ds, batch_size=25, iterations=100
        )
        assert result.final_top1 > 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam(LRSchedule(0.01), beta1=1.0)
        with pytest.raises(ValueError):
            Adam(LRSchedule(0.01), weight_decay=-1)

    def test_step_without_gradients(self):
        net = self._net()
        with pytest.raises(RuntimeError):
            Adam(LRSchedule(0.01)).step(net)
