"""Invariants of the flat parameter arena.

Every layer's ``params[name]`` / ``grads[name]`` is a view of its
network's arenas, bound once and never rebound; replicas are deepcopies
with arenas of their own; ``parameter_vector()`` is a copy and
``gradient_vector()`` is the gradient arena itself.
"""

import copy

import numpy as np
import pytest

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

MODELS = {
    "hdc": (build_hdc, lambda: hdc_dataset(64, 16, seed=0)),
    "mini_cnn": (build_mini_cnn, lambda: cnn_dataset(64, 16, seed=0)),
    "mini_resnet": (build_mini_resnet, lambda: cnn_dataset(64, 16, seed=0)),
}


def bound_entries(layers):
    """Every ``(layer, name)`` storage entry, composite sub-layers included."""
    for layer in layers:
        yield from ((layer, name) for name in layer.params)
        yield from bound_entries(getattr(layer, "_sublayers", ()))


def assert_bound(net):
    entries = list(bound_entries(net.layers))
    assert entries
    for layer, name in entries:
        assert np.shares_memory(layer.params[name], net.param_arena), name
        assert np.shares_memory(layer.grads[name], net.grad_arena), name
        assert layer.params[name].dtype == layer.grads[name].dtype == np.float32


def trainer_for(model, net, optimizer=None):
    _, make_dataset = MODELS[model]
    optimizer = optimizer or SGD(LRSchedule(0.05), momentum=0.9, weight_decay=1e-4)
    return LocalTrainer(net, optimizer, make_dataset(), batch_size=8, seed=1)


def bits(vec):
    return np.ascontiguousarray(vec, dtype=np.float32).view(np.uint32).copy()


@pytest.mark.parametrize("model", sorted(MODELS))
def test_views_stay_bound_through_copy_set_and_step(model):
    net = MODELS[model][0](0)
    assert_bound(net)
    clone = copy.deepcopy(net)
    assert_bound(clone)
    assert not np.shares_memory(clone.param_arena, net.param_arena)
    assert not np.shares_memory(clone.grad_arena, net.grad_arena)
    clone.set_parameter_vector(clone.parameter_vector() * 0.5)
    assert_bound(clone)
    trainer = trainer_for(model, clone, Adam(LRSchedule(0.01), weight_decay=1e-4))
    trainer.apply_gradient(trainer.local_gradient()[1])
    assert_bound(clone)
    assert trainer.optimizer.state.shape == (2, clone.num_parameters)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_training_a_clone_leaves_the_template_unchanged(model):
    template = MODELS[model][0](0)
    before = bits(template.param_arena), bits(template.grad_arena)
    clone = copy.deepcopy(template)
    np.testing.assert_array_equal(bits(clone.param_arena), before[0])
    trainer = trainer_for(model, clone)
    for _ in range(2):
        trainer.apply_gradient(trainer.local_gradient()[1])
    assert not np.array_equal(bits(clone.param_arena), before[0])
    np.testing.assert_array_equal(bits(template.param_arena), before[0])
    np.testing.assert_array_equal(bits(template.grad_arena), before[1])
    # The template still forbids reading a gradient it never computed.
    with pytest.raises(RuntimeError):
        template.gradient_vector()


def test_clone_trains_like_a_fresh_build():
    template = build_mini_cnn(0)
    copy.deepcopy(template)  # a sibling replica must not disturb the next
    clone, fresh = trainer_for("mini_cnn", copy.deepcopy(template)), trainer_for(
        "mini_cnn", build_mini_cnn(0)
    )
    for _ in range(3):
        clone.apply_gradient(clone.local_gradient()[1])
        fresh.apply_gradient(fresh.local_gradient()[1])
    np.testing.assert_array_equal(bits(clone.net.param_arena), bits(fresh.net.param_arena))


def test_parameter_vector_is_a_copy_a_step_does_not_touch():
    trainer = trainer_for("hdc", build_hdc(0))
    snapshot = trainer.net.parameter_vector()
    kept = bits(snapshot)
    assert not np.shares_memory(snapshot, trainer.net.param_arena)
    trainer.apply_gradient(trainer.local_gradient()[1])
    np.testing.assert_array_equal(bits(snapshot), kept)
    assert not np.array_equal(bits(trainer.net.param_arena), kept)


def test_gradient_vector_is_the_arena_until_the_next_backward():
    trainer = trainer_for("hdc", build_hdc(0))
    _, grad = trainer.local_gradient()
    assert grad is trainer.net.grad_arena
    first = bits(grad)
    trainer.apply_gradient(grad)
    np.testing.assert_array_equal(bits(grad), first)  # a step only reads it
    _, again = trainer.local_gradient()
    assert again is grad
    assert not np.array_equal(bits(grad), first)  # documented: overwritten


def test_step_with_vector_leaves_the_gradient_arena_alone():
    net = build_hdc(0)
    aggregate = np.full(net.num_parameters, 0.5, dtype=np.float32)
    SGD(LRSchedule(0.1)).step_with_vector(net, aggregate)
    assert not net.grad_arena.any()
    with pytest.raises(RuntimeError):
        net.gradient_vector()


def test_optimiser_rejects_a_wrong_sized_gradient():
    net = build_hdc(0)
    with pytest.raises(ValueError):
        SGD(LRSchedule(0.1)).step_with_vector(net, np.zeros(10, dtype=np.float32))
