"""``backward(dy, input_grad=False)``: training skips the gradient w.r.t. a
model's input, and parameter gradients must not notice."""

import numpy as np
import pytest

from repro.nn import Flatten, Linear, ReLU, Sequential, make_cnn, make_lstm_lm, make_mlp
from repro.nn.stacked import StackedModel

C = 3  # stacked copies
B = 4  # batch


def serial_cases():
    return {
        "mlp": (lambda: make_mlp(5, 3, hidden=(6,), rng=0), lambda rng: rng.normal(size=(B, 5))),
        "cnn": (
            lambda: make_cnn(8, 3, 4, channels=(2, 3), rng=0),
            lambda rng: rng.normal(size=(B, 3, 8, 8)),
        ),
        "lstm": (
            lambda: make_lstm_lm(11, embed_dim=4, hidden=5, num_layers=2, rng=0),
            lambda rng: rng.integers(0, 11, size=(B, 6)),
        ),
        "flatten-first": (
            lambda: Sequential(Flatten(), Linear(12, 4, 0), ReLU(), Linear(4, 2, 1)),
            lambda rng: rng.normal(size=(B, 3, 4)),
        ),
    }


def grads_after_backward(model, x, dy, **kwargs):
    model.zero_grad()
    model.forward(x)
    out = model.backward(dy, **kwargs)
    return out, [p.grad.copy() for p in model.parameters()]


def check_skip(model, x, rng):
    y = model.forward(x)
    dy = rng.normal(size=y.shape)
    dx, full = grads_after_backward(model, x, dy)
    assert dx is not None and dx.shape == x.shape
    skipped, partial = grads_after_backward(model, x, dy, input_grad=False)
    assert skipped is None
    assert len(full) == len(partial)
    for a, b in zip(full, partial):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(serial_cases()))
def test_serial_skip_keeps_parameter_grads(name, rng):
    build, make_x = serial_cases()[name]
    check_skip(build(), make_x(rng), rng)


@pytest.mark.parametrize("name", sorted(serial_cases()))
def test_stacked_skip_keeps_parameter_grads(name, rng):
    build, make_x = serial_cases()[name]
    model = StackedModel(build(), C)
    model.set_slab(rng.normal(scale=0.3, size=model.slab.shape))
    x = np.stack([make_x(rng) for _ in range(C)])
    check_skip(model, x, rng)


def test_parameter_free_model_returns_none(rng):
    model = Sequential(Flatten(), ReLU())
    x = rng.normal(size=(B, 2, 3))
    model.forward(x)
    assert model.backward(rng.normal(size=(B, 6)), input_grad=False) is None
