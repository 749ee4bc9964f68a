"""Layer-level gradient checks: backward-from-input must be exact."""

import numpy as np
import pytest

from repro.autodiff import (
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    MaxPoolLayer,
    ReLULayer,
    param_bytes,
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


def check_layer(layer, x, rng):
    """Full dx + dparam numeric check via a random linear objective."""
    dy = rng.normal(size=layer.forward(x).shape)

    def objective():
        return float((layer.forward(x) * dy).sum())

    dx, grads = layer.backward(x, dy)
    assert np.allclose(dx, numeric_grad(objective, x), atol=1e-6), layer.name
    for pname, g in grads.items():
        gnum = numeric_grad(objective, layer.params[pname])
        assert np.allclose(g, gnum, atol=1e-6), f"{layer.name}.{pname}"


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestGradients:
    def test_dense(self, rng):
        check_layer(DenseLayer(6, 4, rng), rng.normal(size=(5, 6)), rng)

    def test_relu(self, rng):
        check_layer(ReLULayer(), rng.normal(size=(5, 6)) + 0.1, rng)

    def test_conv(self, rng):
        check_layer(ConvLayer(2, 3, 3, rng, stride=1, padding=1), rng.normal(size=(2, 2, 5, 5)), rng)

    def test_conv_strided_no_bias(self, rng):
        check_layer(ConvLayer(2, 3, 3, rng, stride=2, padding=0, bias=False), rng.normal(size=(2, 2, 7, 7)), rng)

    def test_maxpool(self, rng):
        check_layer(MaxPoolLayer(2), rng.normal(size=(2, 3, 4, 4)), rng)

    def test_flatten(self, rng):
        check_layer(FlattenLayer(), rng.normal(size=(3, 2, 4, 4)), rng)

    def test_batchnorm_2d_input(self, rng):
        check_layer(BatchNormLayer(6), rng.normal(size=(8, 6)), rng)

    def test_batchnorm_4d_input(self, rng):
        check_layer(BatchNormLayer(3), rng.normal(size=(4, 3, 5, 5)), rng)


class TestPurity:
    """forward must be a pure function of (input, params) — this is what
    makes replay-based checkpointing exact."""

    def test_forward_deterministic(self, rng):
        for layer, shape in [
            (DenseLayer(6, 4, rng), (5, 6)),
            (ConvLayer(2, 3, 3, rng, padding=1), (2, 2, 5, 5)),
            (BatchNormLayer(6), (8, 6)),
            (MaxPoolLayer(2), (2, 3, 4, 4)),
        ]:
            x = rng.normal(size=shape)
            a = layer.forward(x)
            b = layer.forward(x.copy())
            assert np.array_equal(a, b), layer.name

    def test_forward_does_not_mutate_input(self, rng):
        layer = ReLULayer()
        x = rng.normal(size=(4, 4))
        x0 = x.copy()
        layer.forward(x)
        assert np.array_equal(x, x0)

    def test_backward_repeatable(self, rng):
        layer = ConvLayer(2, 4, 3, rng, padding=1)
        x = rng.normal(size=(2, 2, 6, 6))
        dy = rng.normal(size=layer.forward(x).shape)
        dx1, g1 = layer.backward(x, dy)
        dx2, g2 = layer.backward(x, dy)
        assert np.array_equal(dx1, dx2)
        assert all(np.array_equal(g1[k], g2[k]) for k in g1)


class TestShapesAndErrors:
    def test_dense_rejects_wrong_width(self, rng):
        with pytest.raises(ShapeError):
            DenseLayer(6, 4, rng).forward(rng.normal(size=(5, 7)))

    def test_conv_rejects_wrong_channels(self, rng):
        with pytest.raises(ShapeError):
            ConvLayer(2, 3, 3, rng).forward(rng.normal(size=(1, 5, 8, 8)))

    def test_maxpool_rejects_input_smaller_than_window(self, rng):
        with pytest.raises(ShapeError, match=r"2x2 window .* 1x1 input"):
            MaxPoolLayer(2).forward(rng.normal(size=(2, 3, 1, 1)))

    def test_batchnorm_rejects_3d(self, rng):
        with pytest.raises(ShapeError):
            BatchNormLayer(4).forward(rng.normal(size=(2, 4, 4)))

    def test_param_bytes(self, rng):
        layer = DenseLayer(6, 4, rng)
        assert param_bytes(layer) == (6 * 4 + 4) * 8  # float64

    def test_zero_grads_shapes(self, rng):
        layer = DenseLayer(6, 4, rng)
        zg = layer.zero_grads()
        assert set(zg) == {"W", "b"}
        assert all((zg[k] == 0).all() for k in zg)


class TestBatchNormSemantics:
    def test_normalizes_batch(self, rng):
        layer = BatchNormLayer(5)
        x = rng.normal(loc=3.0, scale=2.0, size=(64, 5))
        y = layer.forward(x)
        assert np.allclose(y.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(y.std(axis=0), 1.0, atol=1e-2)

    def test_affine_params_applied(self, rng):
        layer = BatchNormLayer(3)
        layer.params["gamma"][:] = 2.0
        layer.params["beta"][:] = 1.0
        x = rng.normal(size=(32, 3))
        y = layer.forward(x)
        assert np.allclose(y.mean(axis=0), 1.0, atol=1e-10)
