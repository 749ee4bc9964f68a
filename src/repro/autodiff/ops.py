"""Vectorized NumPy primitives for the training substrate.

Convolution reads a zero-copy ``sliding_window_view`` of the padded
input and copies it once per GEMM, into the layout that GEMM reads;
:func:`col2im` folds with one strided slice-add per kernel offset, in
``np.add.at``'s order.  Results equal the former gather/scatter kernels
bit for bit (~1e-12 relative if N = 1, C*kh*kw = 1 or O = oh*ow = 1).
Pooling reshapes tiling windows and falls back to :func:`im2col`.
Arrays are NCHW float64 by default; the layers cast as configured.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError

__all__ = [
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "pad_nchw",
]


def pad_nchw(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad spatial dims of an NCHW tensor."""
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _windows(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Zero-copy view ``(N, C, oh, ow, kh, kw)`` of the padded input's windows."""
    h, w = x.shape[2:]
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(f"{kh}x{kw} window does not fit the {h}x{w} input padded by {padding}")
    view = sliding_window_view(pad_nchw(x, padding), (kh, kw), axis=(2, 3))
    return view[:, :, ::stride, ::stride]


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> tuple[np.ndarray, int, int]:
    """Unfold NCHW ``x`` into columns of shape ``(N, C*kh*kw, oh*ow)``."""
    win = _windows(x, kh, kw, stride, padding)
    n, c, oh, ow = win.shape[:4]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow), oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: fold columns back to NCHW.

    No two windows share a pixel at one kernel offset, so each offset is
    one strided slice-add; offsets run in ``np.add.at``'s order.
    """
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    oh, ow = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    xp = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    patches = cols.reshape(n, c, kh, kw, oh, ow)
    for i, j in np.ndindex(kh, kw):
        xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += patches[:, :, i, j]
    if padding == 0:
        return xp
    return xp[:, :, padding:-padding, padding:-padding]


def conv2d_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, stride: int, padding: int
) -> np.ndarray:
    """NCHW convolution: weight ``(O, C, kh, kw)``, optional bias ``(O,)``."""
    o, c, kh, kw = weight.shape
    win = _windows(x, kh, kw, stride, padding)
    n, _, oh, ow = win.shape[:4]
    rows = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * oh * ow, c * kh * kw)
    out = np.dot(rows, weight.reshape(o, -1).T).reshape(n, oh, ow, o).transpose(0, 3, 1, 2)
    if bias is not None:
        out += bias.reshape(1, o, 1, 1)
    return out


def conv2d_backward(
    x: np.ndarray,
    weight: np.ndarray,
    dy: np.ndarray,
    stride: int,
    padding: int,
    with_bias: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gradients (dx, dweight, dbias) for :func:`conv2d_forward`."""
    o, c, kh, kw = weight.shape
    win = _windows(x, kh, kw, stride, padding)
    n, _, oh, ow = win.shape[:4]
    dy2 = dy.reshape(n, o, oh * ow)
    # K-major so the einsum's GEMM reads it in place; freed before dcols exists.
    cols = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(c * kh * kw, n, oh * ow)
    dweight = np.einsum("nop,nkp->ok", dy2, cols.transpose(1, 0, 2), optimize=True)
    del win, cols
    dcols = np.einsum("ok,nop->nkp", weight.reshape(o, -1), dy2, optimize=True)
    dx = col2im(dcols, x.shape, kh, kw, stride, padding)
    dbias = dy2.sum(axis=(0, 2)) if with_bias else None
    return dx, dweight.reshape(weight.shape), dbias


def maxpool2d_forward(x: np.ndarray, k: int, stride: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling; returns (output, argmax index array for backward).

    Window ``k`` with stride ``stride`` (default ``k``); input spatial
    dims must be divisible when stride == k (the common tiling case),
    otherwise trailing rows/cols are cropped like PyTorch's floor mode.
    """
    stride = stride or k
    n, c, h, w = x.shape
    oh = (h - k) // stride + 1
    ow = (w - k) // stride + 1
    if stride == k and h % k == 0 and w % k == 0:
        view = x.reshape(n, c, oh, k, ow, k)
        windows = view.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, k * k)
    else:
        cols, oh2, ow2 = im2col(x.reshape(n * c, 1, h, w), k, k, stride, 0)
        windows = cols.reshape(n, c, k * k, oh2 * ow2).transpose(0, 1, 3, 2).reshape(n, c, oh, ow, k * k)
    arg = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    return out, arg


def maxpool2d_backward(
    x_shape: tuple[int, int, int, int], arg: np.ndarray, dy: np.ndarray, k: int, stride: int | None = None
) -> np.ndarray:
    """Scatter ``dy`` to the argmax positions recorded by the forward."""
    stride = stride or k
    n, c, h, w = x_shape
    oh, ow = arg.shape[2], arg.shape[3]
    dx = np.zeros((n, c, h, w), dtype=dy.dtype)
    # decompose flat window index into (dr, dc)
    dr = arg // k
    dc = arg % k
    base_r = (stride * np.arange(oh)).reshape(1, 1, oh, 1)
    base_c = (stride * np.arange(ow)).reshape(1, 1, 1, ow)
    rows = base_r + dr
    cols = base_c + dc
    nidx = np.arange(n).reshape(n, 1, 1, 1)
    cidx = np.arange(c).reshape(1, c, 1, 1)
    np.add.at(dx, (nidx, cidx, rows, cols), dy)
    return dx
