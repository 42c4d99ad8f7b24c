""""float32 means float32": a float32 slab keeps every activation and every
gradient of the stacked forward and backward in float32, layer by layer."""

import numpy as np
import pytest

from repro.nn import make_cnn, make_mlp
from repro.nn.stacked import StackedModel, stacked_softmax_cross_entropy

C, B, K = 3, 4, 5


@pytest.mark.parametrize(
    "build, x_shape",
    [
        (lambda: make_mlp(6, K, hidden=(8, 7), rng=0), (C, B, 6)),
        (lambda: make_cnn(8, 3, K, channels=(2, 3), rng=0), (C, B, 3, 8, 8)),
    ],
    ids=["mlp", "cnn"],
)
def test_float32_slab_stays_float32(build, x_shape, rng):
    model = StackedModel(build(), C, dtype=np.float32)
    h = rng.normal(size=x_shape).astype(np.float32)
    for layer in model.layers:
        h = layer.forward(h)
        assert h.dtype == np.float32, f"{type(layer).__name__}.forward -> {h.dtype}"
    _, dy = stacked_softmax_cross_entropy(h, rng.integers(0, K, size=(C, B)))
    assert dy.dtype == np.float32
    for layer in reversed(model.layers):
        dy = layer.backward(dy)
        assert dy.dtype == np.float32, f"{type(layer).__name__}.backward -> {dy.dtype}"
        for p in layer.parameters():
            assert p.data.dtype == np.float32 and p.grad.dtype == np.float32
