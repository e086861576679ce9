"""The arena network and in-place optimisers against the per-layer oracle.

Same model, same minibatches, same optimiser settings through
``repro.dnn`` and through ``reference_dnn`` (the per-layer code the
arena replaced): parameters, optimiser state and losses must agree bit
for bit — compared on the ``uint32`` view, so ``-0.0`` vs ``+0.0`` or a
different NaN payload would count — and so must every strategy's final
weights, raw and compressed.
"""

import numpy as np
import pytest

from repro.core import inceptionn_profile
from repro.distributed import available_strategies, run_strategy
from repro.dnn import (
    SGD,
    Adam,
    LocalTrainer,
    LRSchedule,
    build_hdc,
    build_mini_cnn,
    build_mini_resnet,
    cnn_dataset,
    hdc_dataset,
)

from . import reference_dnn as ref

STEPS = 5

MODELS = {
    "hdc": (build_hdc, ref.reference_hdc, lambda: hdc_dataset(96, 16, seed=0)),
    "mini_cnn": (build_mini_cnn, ref.reference_mini_cnn, lambda: cnn_dataset(96, 16, seed=0)),
    "mini_resnet": (
        build_mini_resnet,
        ref.reference_mini_resnet,
        lambda: cnn_dataset(96, 16, seed=0),
    ),
}

#: name -> (optimiser class, reference class, keyword arguments).
OPTIMISERS = {
    "sgd": (SGD, ref.SGD, dict(schedule=LRSchedule(0.05), momentum=0.9)),
    "sgd_wd_step_warmup": (
        SGD,
        ref.SGD,
        dict(
            schedule=LRSchedule(0.05, factor=2.0, every=2, warmup=2),
            momentum=0.9,
            weight_decay=5e-4,
        ),
    ),
    "adam_wd": (Adam, ref.Adam, dict(schedule=LRSchedule(0.002), weight_decay=1e-4)),
}


def assert_bits_equal(actual, expected):
    actual = np.ascontiguousarray(actual, dtype=np.float32)
    expected = np.ascontiguousarray(expected, dtype=np.float32)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint32), expected.view(np.uint32))


def reference_state(opt):
    """The oracle's per-parameter state dicts as arena-shaped rows."""
    rows = [opt._velocity] if isinstance(opt, ref.SGD) else [opt._m, opt._v]
    return np.stack(
        [np.concatenate([row[i].reshape(-1) for i in range(len(row))]) for row in rows]
    )


@pytest.mark.parametrize("opt_name", sorted(OPTIMISERS))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_training_steps_match_oracle_bit_for_bit(model, opt_name):
    build, build_ref, make_dataset = MODELS[model]
    cls, ref_cls, kwargs = OPTIMISERS[opt_name]
    dataset = make_dataset()
    trainer = LocalTrainer(build(3), cls(**kwargs), dataset, batch_size=8, seed=7)
    oracle = LocalTrainer(build_ref(3), ref_cls(**kwargs), dataset, batch_size=8, seed=7)
    assert_bits_equal(trainer.net.parameter_vector(), oracle.net.parameter_vector())
    for _ in range(STEPS):
        loss, grad = trainer.local_gradient()
        ref_loss, ref_grad = oracle.local_gradient()
        assert loss == ref_loss
        assert_bits_equal(grad, ref_grad)
        trainer.apply_gradient(grad)
        oracle.apply_gradient(ref_grad)
        assert_bits_equal(trainer.net.parameter_vector(), oracle.net.parameter_vector())
        assert_bits_equal(trainer.optimizer.state, reference_state(oracle.optimizer))
    assert trainer.optimizer.iteration == oracle.optimizer.iteration == STEPS


def _run(strategy, stream, build_net, make_optimizer):
    return run_strategy(
        strategy,
        build_net=build_net,
        make_optimizer=make_optimizer,
        dataset=hdc_dataset(96, 16, seed=0),
        num_workers=4,
        iterations=2,
        batch_size=8,
        stream=stream,
        seed=5,
        options={"sync_period": 2},
    )


@pytest.mark.parametrize("compress", [False, True], ids=["raw", "inc"])
@pytest.mark.parametrize("strategy", available_strategies())
def test_strategy_final_weights_match_oracle(strategy, compress):
    stream = inceptionn_profile() if compress else None
    kwargs = dict(schedule=LRSchedule(0.02), momentum=0.9, weight_decay=5e-4)
    result = _run(strategy, stream, build_hdc, lambda: SGD(**kwargs))
    oracle = _run(strategy, stream, ref.reference_hdc, lambda: ref.SGD(**kwargs))
    assert_bits_equal(result.final_weights, oracle.final_weights)
    assert result.virtual_time_s == oracle.virtual_time_s
    assert result.losses == oracle.losses
