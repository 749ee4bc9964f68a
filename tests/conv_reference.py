"""The fancy-index conv kernels, frozen as a test oracle.

``repro.autodiff.ops`` used to unfold convolution inputs with a
fancy-index gather (``im2col_indices``) and fold them back with an
``np.add.at`` scatter.  The kernels now read a zero-copy window view and
fold with strided slice-adds.  The old kernels are frozen verbatim below
(commit 5cde082) so ``tests/test_autodiff_conv_reference.py`` can keep
checking the new ones against them: ``im2col``/``col2im`` byte-equal on
every shape, and forward/backward byte-equal wherever NumPy hands BLAS
the same layout.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.ops import pad_nchw

__all__ = [
    "im2col_indices",
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
]


def im2col_indices(
    h: int, w: int, kh: int, kw: int, stride: int, padding: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Row/col gather indices for im2col on padded input.

    Returns ``(rows, cols, oh, ow)`` where ``rows``/``cols`` have shape
    ``(kh*kw, oh*ow)``.
    """
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    r0 = np.repeat(np.arange(kh), kw).reshape(-1, 1)
    c0 = np.tile(np.arange(kw), kh).reshape(-1, 1)
    r1 = stride * np.repeat(np.arange(oh), ow).reshape(1, -1)
    c1 = stride * np.tile(np.arange(ow), oh).reshape(1, -1)
    return r0 + r1, c0 + c1, oh, ow


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> tuple[np.ndarray, int, int]:
    """Unfold NCHW ``x`` into columns of shape ``(N, C*kh*kw, oh*ow)``."""
    n, c, h, w = x.shape
    rows, cols, oh, ow = im2col_indices(h, w, kh, kw, stride, padding)
    xp = pad_nchw(x, padding)
    # gather -> (N, C, kh*kw, oh*ow) -> (N, C*kh*kw, oh*ow)
    patches = xp[:, :, rows, cols]
    return patches.reshape(n, c * kh * kw, oh * ow), oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back to NCHW."""
    n, c, h, w = x_shape
    rows, colidx, oh, ow = im2col_indices(h, w, kh, kw, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    xp = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    patches = cols.reshape(n, c, kh * kw, oh * ow)
    # np.add.at performs the required scatter-add over overlapping windows.
    np.add.at(xp, (slice(None), slice(None), rows, colidx), patches)
    if padding == 0:
        return xp
    return xp[:, :, padding:-padding, padding:-padding]


def conv2d_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, stride: int, padding: int
) -> np.ndarray:
    """NCHW convolution: weight ``(O, C, kh, kw)``, optional bias ``(O,)``."""
    o, c, kh, kw = weight.shape
    cols, oh, ow = im2col(x, kh, kw, stride, padding)
    wmat = weight.reshape(o, c * kh * kw)
    out = np.einsum("ok,nkp->nop", wmat, cols, optimize=True)
    if bias is not None:
        out += bias.reshape(1, o, 1)
    return out.reshape(x.shape[0], o, oh, ow)


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
    n = x.shape[0]
    cols, oh, ow = im2col(x, kh, kw, stride, padding)
    dy2 = dy.reshape(n, o, oh * ow)
    wmat = weight.reshape(o, c * kh * kw)
    dweight = np.einsum("nop,nkp->ok", dy2, cols, optimize=True).reshape(weight.shape)
    dcols = np.einsum("ok,nop->nkp", wmat, dy2, optimize=True)
    dx = col2im(dcols, x.shape, kh, kw, stride, padding)
    dbias = dy2.sum(axis=(0, 2)) if with_bias else None
    return dx, dweight, dbias
