"""Reference conv/pool kernels: the strided-view formulations the gather
kernels in :mod:`repro.nn.functional` replace.

They are kept as test oracles. The gather kernels move the same values
and add the same numbers in the same order, so they must agree with these
bit for bit (signed zeros and NaNs included).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def im2col_ref(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0
) -> Tuple[np.ndarray, int, int]:
    """Zero-pad, take a 6-D strided window view, transpose and copy."""
    n, c, h, w = x.shape
    out_h = _out_size(h, kh, stride, pad)
    out_w = _out_size(w, kw, stride, pad)
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"kernel ({kh}x{kw}) too large for input ({h}x{w}) with pad={pad}")
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kh * kw)
    return np.ascontiguousarray(cols), out_h, out_w


def col2im_ref(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """One strided scatter-add per kernel tap into a zeroed padded image."""
    n, c, h, w = x_shape
    out_h = _out_size(h, kh, stride, pad)
    out_w = _out_size(w, kw, stride, pad)
    cols = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    dx = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += cols[
                :, :, :, :, i, j
            ]
    return dx[:, :, pad : pad + h, pad : pad + w]


def maxpool_forward_ref(x: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """Max over a 6-D window view plus the tie-splitting argmax mask."""
    n, c, h, w = x.shape
    xr = x.reshape(n, c, h // p, p, w // p, p)
    y = xr.max(axis=(3, 5))
    mask = np.equal(xr, y[:, :, :, None, :, None]).astype(x.dtype)
    with np.errstate(invalid="ignore"):  # a NaN window's mask is 0/0 = NaN
        mask /= mask.sum(axis=(3, 5), keepdims=True)
    return y, mask
