"""The window-view conv kernels against the frozen fancy-index oracle.

``tests/conv_reference.py`` keeps the gather/scatter kernels the
window-view ones replaced.  ``im2col`` and ``col2im`` must match them
byte for byte on every shape.  Forward and backward must too, except on
the shapes where the oracle's ``tensordot`` handed BLAS a different
layout (a transposed operand it did not copy, or a matrix-vector
product): N = 1, C*kh*kw = 1, or one output channel with one output
pixel.  There they agree to a relative 1e-12.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.autodiff.ops import col2im, conv2d_backward, conv2d_forward, im2col

from . import conv_reference as ref


@st.composite
def conv_cases(draw):
    """A conv problem whose (padded) input holds at least one window."""
    n = draw(st.integers(1, 4))
    c = draw(st.integers(1, 5))
    o = draw(st.integers(1, 5))
    kh = draw(st.integers(1, 4))
    kw = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    h = draw(st.integers(max(1, kh - 2 * padding), 12))
    w = draw(st.integers(max(1, kw - 2 * padding), 12))
    with_bias = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return n, c, o, h, w, kh, kw, stride, padding, with_bias, seed


def _byte_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(conv_cases())
def test_kernels_match_oracle(case):
    n, c, o, h, w, kh, kw, stride, padding, with_bias, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, h, w))
    weight = rng.normal(size=(o, c, kh, kw))
    bias = rng.normal(size=o) if with_bias else None

    cols, oh, ow = im2col(x, kh, kw, stride, padding)
    ref_cols, ref_oh, ref_ow = ref.im2col(x, kh, kw, stride, padding)
    assert (oh, ow) == (ref_oh, ref_ow)
    assert _byte_equal(cols, ref_cols)
    y = rng.normal(size=cols.shape)
    assert _byte_equal(
        col2im(y, x.shape, kh, kw, stride, padding),
        ref.col2im(y, x.shape, kh, kw, stride, padding),
    )

    out = conv2d_forward(x, weight, bias, stride, padding)
    ref_out = ref.conv2d_forward(x, weight, bias, stride, padding)
    dy = rng.normal(size=ref_out.shape)
    grads = conv2d_backward(x, weight, dy, stride, padding, with_bias)
    ref_grads = ref.conv2d_backward(x, weight, dy, stride, padding, with_bias)
    assert (grads[2] is None) == (ref_grads[2] is None) == (not with_bias)
    pairs = [(out, ref_out)] + [(g, r) for g, r in zip(grads, ref_grads) if g is not None]
    same_layout = n >= 2 and c * kh * kw >= 2 and not (o == 1 and oh * ow == 1)
    for got, want in pairs:
        if same_layout:
            assert _byte_equal(got, want)
        else:
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestIm2colIndices:
    """The oracle's gather indices (no longer part of ``repro``)."""

    def test_im2col_indices_shapes(self):
        rows, cols, oh, ow = ref.im2col_indices(5, 5, 3, 3, 1, 0)
        assert (oh, ow) == (3, 3)
        assert rows.shape == (9, 9)
        assert cols.shape == (9, 9)
        assert rows.max() == 4  # stays inside the (unpadded) input

    def test_im2col_indices_with_padding(self):
        rows, cols, oh, ow = ref.im2col_indices(4, 4, 3, 3, 1, 1)
        assert (oh, ow) == (4, 4)
