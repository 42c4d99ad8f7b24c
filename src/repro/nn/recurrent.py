"""Recurrent layers: a gradient-checked LSTM.

The paper's text models are 2-layer LSTMs with embedding/hidden size 128
predicting the next token. :class:`LSTM` supports arbitrary depth; time
steps are looped in Python (sequences are short) while each step is fully
vectorized over the batch.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.initializers import glorot_uniform, orthogonal, zeros_init
from repro.nn.module import Module, Parameter
from repro.utils.rng import SeedLike, as_rng


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class LSTMCell(Module):
    """Single LSTM step. Gate layout in the fused matrices: [i, f, g, o]."""

    def __init__(self, input_size: int, hidden_size: int, rng: SeedLike = None):
        super().__init__()
        rng = as_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        h = hidden_size
        self.w_x = Parameter(glorot_uniform((input_size, 4 * h), rng), "lstm.w_x")
        # Orthogonal blocks per gate for the recurrent matrix.
        w_h = np.concatenate([orthogonal((h, h), rng) for _ in range(4)], axis=1)
        self.w_h = Parameter(w_h, "lstm.w_h")
        bias = zeros_init((4 * h,))
        bias[h : 2 * h] = 1.0  # forget-gate bias init stabilises early training
        self.bias = Parameter(bias, "lstm.bias")

    def step(
        self, x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, tuple]:
        """One time step. Returns ``(h, c, cache)`` where cache feeds backward."""
        h_sz = self.hidden_size
        gates = x_t @ self.w_x.data + h_prev @ self.w_h.data + self.bias.data
        i = _sigmoid(gates[:, 0 * h_sz : 1 * h_sz])
        f = _sigmoid(gates[:, 1 * h_sz : 2 * h_sz])
        g = np.tanh(gates[:, 2 * h_sz : 3 * h_sz])
        o = _sigmoid(gates[:, 3 * h_sz : 4 * h_sz])
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        cache = (x_t, h_prev, c_prev, i, f, g, o, tanh_c)
        return h, c, cache

    def step_backward(
        self, dh: np.ndarray, dc: np.ndarray, cache: tuple
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward through one step; accumulates parameter grads.

        Takes gradients w.r.t. this step's ``h`` and ``c`` outputs; returns
        ``(dx_t, dh_prev, dc_prev)``.
        """
        x_t, h_prev, c_prev, i, f, g, o, tanh_c = cache
        do = dh * tanh_c
        dc_total = dc + dh * o * (1.0 - tanh_c**2)
        di = dc_total * g
        df = dc_total * c_prev
        dg = dc_total * i
        dc_prev = dc_total * f
        # Through the gate nonlinearities.
        dgates = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g**2),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        self.w_x.grad += x_t.T @ dgates
        self.w_h.grad += h_prev.T @ dgates
        self.bias.grad += dgates.sum(axis=0)
        dx_t = dgates @ self.w_x.data.T
        dh_prev = dgates @ self.w_h.data.T
        return dx_t, dh_prev, dc_prev

    # A cell is not used as a standalone layer in a Sequential; the LSTM
    # wrapper below drives it. Forward/backward raise to catch misuse.
    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - guard
        raise RuntimeError("LSTMCell must be driven by LSTM, not called directly")

    def backward(self, dy: np.ndarray) -> np.ndarray:  # pragma: no cover - guard
        raise RuntimeError("LSTMCell must be driven by LSTM, not called directly")


class LSTM(Module):
    """Multi-layer LSTM over ``(N, T, D)`` inputs returning all hidden states.

    Initial states are zero for every sequence (stateless), matching the
    paper's per-example training setup.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1, rng: SeedLike = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        rng = as_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.cells = [
            LSTMCell(input_size if layer == 0 else hidden_size, hidden_size, rng)
            for layer in range(num_layers)
        ]
        self._caches: Optional[List[List[tuple]]] = None
        self._t_steps: int = 0
        self._batch: int = 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ValueError(f"LSTM expected (N,T,{self.input_size}), got {x.shape}")
        n, t_steps, _ = x.shape
        self._t_steps, self._batch = t_steps, n
        self._caches = [[] for _ in self.cells]
        h_sz = self.hidden_size
        inputs = x
        for layer, cell in enumerate(self.cells):
            h = np.zeros((n, h_sz))
            c = np.zeros((n, h_sz))
            outputs = np.empty((n, t_steps, h_sz))
            for t in range(t_steps):
                h, c, cache = cell.step(inputs[:, t, :], h, c)
                self._caches[layer].append(cache)
                outputs[:, t, :] = h
            inputs = outputs
        return inputs

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        if self._caches is None:
            raise RuntimeError("backward called before forward")
        n, t_steps, h_sz = self._batch, self._t_steps, self.hidden_size
        if dy.shape != (n, t_steps, h_sz):
            raise ValueError(f"LSTM backward expected {(n, t_steps, h_sz)}, got {dy.shape}")
        dinputs = dy
        for layer in range(self.num_layers - 1, -1, -1):
            cell = self.cells[layer]
            in_sz = cell.input_size
            dx = np.zeros((n, t_steps, in_sz))
            dh = np.zeros((n, h_sz))
            dc = np.zeros((n, h_sz))
            for t in range(t_steps - 1, -1, -1):
                dh_total = dh + dinputs[:, t, :]
                dx_t, dh, dc = cell.step_backward(dh_total, dc, self._caches[layer][t])
                dx[:, t, :] = dx_t
            dinputs = dx
        return dinputs if input_grad else None
