"""Numerical primitives: im2col round trips and convolution gradients."""

import tracemalloc

import numpy as np
import pytest

from repro.autodiff.ops import (
    col2im,
    conv2d_backward,
    conv2d_forward,
    im2col,
    maxpool2d_backward,
    maxpool2d_forward,
)
from repro.errors import ShapeError


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        fp = f()
        x[i] = old - eps
        fm = f()
        x[i] = old
        g[i] = (fp - fm) / (2 * eps)
    return g


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestIm2Col:
    def test_shapes(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        cols, oh, ow = im2col(x, 3, 3, 1, 1)
        assert (oh, ow) == (6, 6)
        assert cols.shape == (2, 3 * 9, 36)

    def test_identity_kernel(self, rng):
        """1x1/1 im2col is just a reshape of the input."""
        x = rng.normal(size=(1, 2, 4, 4))
        cols, oh, ow = im2col(x, 1, 1, 1, 0)
        assert np.allclose(cols.reshape(1, 2, 4, 4), x)

    def test_col2im_adjointness(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — exact adjoint pair."""
        x = rng.normal(size=(2, 3, 5, 5))
        cols, _, _ = im2col(x, 3, 3, 2, 1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, 3, 3, 2, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestConv:
    def test_against_direct_convolution(self, rng):
        """im2col conv matches a naive quadruple loop."""
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out = conv2d_forward(x, w, None, 1, 0)
        naive = np.zeros_like(out)
        for o in range(3):
            for i in range(3):
                for j in range(3):
                    naive[0, o, i, j] = (x[0, :, i : i + 3, j : j + 3] * w[o]).sum()
        assert np.allclose(out, naive)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_gradients_match_numeric(self, rng, stride, padding):
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        dy = rng.normal(size=conv2d_forward(x, w, b, stride, padding).shape)

        def objective():
            return float((conv2d_forward(x, w, b, stride, padding) * dy).sum())

        dx, dw, db = conv2d_backward(x, w, dy, stride, padding, with_bias=True)
        assert np.allclose(dx, numeric_grad(objective, x), atol=1e-7)
        assert np.allclose(dw, numeric_grad(objective, w), atol=1e-7)
        assert np.allclose(db, numeric_grad(objective, b), atol=1e-7)

    def test_bias_adds_per_channel(self, rng):
        x = rng.normal(size=(1, 1, 3, 3))
        w = np.zeros((2, 1, 1, 1))
        b = np.array([1.5, -2.0])
        out = conv2d_forward(x, w, b, 1, 0)
        assert np.allclose(out[0, 0], 1.5)
        assert np.allclose(out[0, 1], -2.0)


class TestMaxPool:
    def test_forward_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out, _ = maxpool2d_forward(x, 2)
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out, arg = maxpool2d_forward(x, 2)
        dy = np.ones_like(out)
        dx = maxpool2d_backward(x.shape, arg, dy, 2)
        assert dx.sum() == 4
        assert dx[0, 0, 1, 1] == 1  # position of 5
        assert dx[0, 0, 3, 3] == 1  # position of 15

    def test_gradient_numeric(self, rng):
        x = rng.normal(size=(2, 2, 4, 4))
        out, arg = maxpool2d_forward(x, 2)
        dy = rng.normal(size=out.shape)

        def objective():
            o, _ = maxpool2d_forward(x, 2)
            return float((o * dy).sum())

        dx = maxpool2d_backward(x.shape, arg, dy, 2)
        assert np.allclose(dx, numeric_grad(objective, x), atol=1e-7)

    def test_non_divisible_input_cropped(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        out, _ = maxpool2d_forward(x, 2)
        assert out.shape == (1, 1, 2, 2)


class TestWindowTooLarge:
    def test_conv_names_the_sizes(self):
        x = np.zeros((1, 1, 2, 2))
        with pytest.raises(ShapeError, match=r"5x3 window .* 2x2 input padded by 1"):
            conv2d_forward(x, np.zeros((1, 1, 5, 3)), None, 1, 1)

    def test_conv_backward(self):
        x, w, dy = np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 3)), np.zeros((1, 1, 1, 1))
        with pytest.raises(ShapeError, match=r"3x3 window"):
            conv2d_backward(x, w, dy, 1, 0, False)


class TestConvWorkspace:
    """Allocator truth: each conv kernel holds one column buffer, not two.

    At the benchmark's conv shape (batch 32, 16 -> 16 channels, 16x16,
    3x3, padding 1) one float64 column buffer, N*C*kh*kw*oh*ow values,
    is 9.44 MB.  The padded input, the output and the gradients add
    well under half a buffer, so a peak above 1.5 buffers means a second
    column-sized copy is alive.
    """

    N, C, O, HW, K = 32, 16, 16, 16, 3
    BOUND = 1.5 * N * C * K * K * HW * HW * 8

    @pytest.fixture(scope="class")
    def tensors(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(self.N, self.C, self.HW, self.HW))
        weight = rng.normal(size=(self.O, self.C, self.K, self.K))
        bias = rng.normal(size=self.O)
        dy = rng.normal(size=(self.N, self.O, self.HW, self.HW))
        return x, weight, bias, dy

    @staticmethod
    def _peak(work) -> int:
        """Allocator peak of ``work()``, counting only what it allocates."""
        tracemalloc.start()
        try:
            work()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_forward_peak(self, tensors):
        x, weight, bias, _ = tensors
        assert self._peak(lambda: conv2d_forward(x, weight, bias, 1, 1)) <= self.BOUND

    def test_backward_peak(self, tensors):
        x, weight, _, dy = tensors
        assert self._peak(lambda: conv2d_backward(x, weight, dy, 1, 1, True)) <= self.BOUND
