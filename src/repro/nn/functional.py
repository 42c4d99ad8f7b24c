"""Stateless numerical building blocks (softmax, one-hot, im2col)."""

from __future__ import annotations

import functools
from typing import NamedTuple, Tuple

import numpy as np


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(N,)`` -> one-hot ``(N, num_classes)`` float64."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels out of range [0, {num_classes})")
    out = np.zeros((labels.size, num_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


class _ConvPlan(NamedTuple):
    """Gather indices for one ``(C, H, W, kh, kw, stride, pad)`` geometry.

    ``unfold[r, q]`` is the flat ``C*H*W`` pixel read by patch row ``r``
    (output position) at column ``q`` (channel, tap); padding taps read
    index ``C*H*W``, a zero slot appended to each image. ``fold[t, i]`` is
    the flat patch-column entry that kernel tap ``t`` (row-major) lands on
    input pixel ``i``, or the zero slot ``out_h*out_w*C*kh*kw`` when no
    patch covers ``i`` at that tap.
    """

    out_h: int
    out_w: int
    unfold: np.ndarray
    fold: np.ndarray


@functools.lru_cache(maxsize=128)
def _conv_plan(c: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int) -> _ConvPlan:
    out_h = _out_size(h, kh, stride, pad)
    out_w = _out_size(w, kw, stride, pad)
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"kernel ({kh}x{kw}) too large for input ({h}x{w}) with pad={pad}")
    chw = c * h * w
    # Input row/col read by (output row, output col, tap row, tap col).
    ys = (np.arange(out_h) * stride)[:, None, None, None] + np.arange(kh)[:, None] - pad
    xs = (np.arange(out_w) * stride)[:, None, None] + np.arange(kw) - pad
    inside = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)  # (oh, ow, kh, kw)
    pixel = (ys * w + xs)[:, :, None] + (np.arange(c) * h * w)[:, None, None]
    hit = np.broadcast_to(inside[:, :, None], pixel.shape)  # (oh, ow, C, kh, kw)
    unfold = np.where(hit, pixel, chw).astype(np.intp)
    # Adjoint: for a fixed tap each input pixel is read by at most one
    # output position, so one assignment per (tap, pixel) inverts the
    # unfold. The patch-column entry of (position, channel, tap) is its
    # flat index in ``unfold``. At least two pixel columns keep the tap
    # reduction in col2im an elementwise, tap-ordered accumulation (a lone
    # pixel column would make it a pairwise sum along the taps).
    tap = np.broadcast_to(np.arange(kh * kw).reshape(kh, kw), pixel.shape)
    fold = np.full((kh * kw, max(chw, 2)), unfold.size, dtype=np.intp)
    fold[tap[hit], unfold[hit]] = np.flatnonzero(hit)
    unfold = unfold.reshape(out_h * out_w, c * kh * kw)
    unfold.setflags(write=False)
    fold.setflags(write=False)
    return _ConvPlan(out_h, out_w, unfold, fold)


def _with_zero_slot(a: np.ndarray) -> np.ndarray:
    """``(N, ...)`` -> ``(N, L + 1)`` flat copy whose last column is zero.

    The copy reads ``a`` in whatever memory layout it has (splitting each
    contiguous row of the result is always a view), so a strided input
    costs no extra contiguous copy.
    """
    ext = np.empty((a.shape[0], a[:1].size + 1), dtype=a.dtype)
    ext[:, :-1].reshape(a.shape)[...] = a
    ext[:, -1] = 0
    return ext


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0
) -> Tuple[np.ndarray, int, int]:
    """Unfold NCHW images into patch columns for convolution-as-matmul.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(N * out_h * out_w, C * kh * kw)``. The unfold is one gather through
    an index plan cached per geometry (not per batch size or dtype):
    padding taps read a zero slot appended to each image, so no padded
    copy of the input is built.
    """
    n, c, h, w = x.shape
    plan = _conv_plan(c, h, w, kh, kw, stride, pad)
    cols = np.take(_with_zero_slot(x), plan.unfold, axis=1)  # (N, oh*ow, C*kh*kw)
    return cols.reshape(n * plan.out_h * plan.out_w, c * kh * kw), plan.out_h, plan.out_w


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Fold patch-column gradients back into an NCHW gradient (im2col adjoint).

    Overlapping patches accumulate: one gather of every tap's contribution
    per pixel, summed over taps in row-major tap order from a zero start —
    the same additions in the same order as a per-tap scatter-add into a
    zeroed (padded) image.
    """
    n, c, h, w = x_shape
    plan = _conv_plan(c, h, w, kh, kw, stride, pad)
    ext = _with_zero_slot(cols.reshape(n, -1))
    taps = np.take(ext, plan.fold, axis=1)  # (N, kh*kw, pixels)
    dx = np.add.reduce(taps, axis=1, initial=0.0)
    return dx[:, : c * h * w].reshape(x_shape)
