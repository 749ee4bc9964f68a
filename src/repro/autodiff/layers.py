"""Trainable layers with recompute-from-input backward passes.

Every layer is a *pure function of its input and parameters*:

* ``forward(x) -> y`` allocates no hidden state;
* ``backward(x, dy) -> (dx, grads)`` recomputes whatever forward context
  it needs from ``x`` — exactly the "adjoint replays its own forward"
  semantics of the checkpointing action IR, which is what lets an
  arbitrary :class:`~repro.checkpointing.Schedule` drive training with
  gradients bit-identical to store-all backprop.

Parameters are plain NumPy arrays in ``self.params`` (dict name → array);
``grads`` returned by backward uses the same keys.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .ops import (
    conv2d_backward,
    conv2d_forward,
    maxpool2d_backward,
    maxpool2d_forward,
)

__all__ = [
    "TrainLayer",
    "DenseLayer",
    "ReLULayer",
    "ConvLayer",
    "MaxPoolLayer",
    "FlattenLayer",
    "BatchNormLayer",
    "param_bytes",
]


class TrainLayer:
    """Base class; subclasses fill ``self.params`` at construction."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.params: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, x: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        raise NotImplementedError

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


def param_bytes(layer: TrainLayer) -> int:
    """Bytes of one copy of a layer's parameters."""
    return sum(int(v.nbytes) for v in layer.params.values())


class DenseLayer(TrainLayer):
    """y = x @ W.T + b over flat inputs (N, in) -> (N, out)."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, name: str = "dense") -> None:
        super().__init__(name)
        if in_features < 1 or out_features < 1:
            raise ShapeError(
                f"{name}: features must be >= 1, got in={in_features}, out={out_features}"
            )
        scale = np.sqrt(2.0 / in_features)
        self.params["W"] = rng.normal(0.0, scale, size=(out_features, in_features))
        self.params["b"] = np.zeros(out_features)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.params["W"].shape[1]:
            raise ShapeError(f"{self.name}: expected (N, {self.params['W'].shape[1]}), got {x.shape}")
        return x @ self.params["W"].T + self.params["b"]

    def backward(self, x: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        dW = dy.T @ x
        db = dy.sum(axis=0)
        dx = dy @ self.params["W"]
        return dx, {"W": dW, "b": db}


class ReLULayer(TrainLayer):
    """Elementwise max(x, 0)."""

    def __init__(self, name: str = "relu") -> None:
        super().__init__(name)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def backward(self, x: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        return dy * (x > 0.0), {}


class ConvLayer(TrainLayer):
    """NCHW convolution with stride/padding (He-initialized)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        name: str = "conv",
    ) -> None:
        super().__init__(name)
        if kernel_size < 1:
            raise ShapeError(f"{name}: kernel_size must be >= 1, got {kernel_size}")
        if stride < 1:
            raise ShapeError(f"{name}: stride must be >= 1, got {stride}")
        if padding < 0:
            raise ShapeError(f"{name}: padding must be >= 0, got {padding}")
        self.stride = stride
        self.padding = padding
        self.with_bias = bias
        fan_in = in_channels * kernel_size * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        self.params["W"] = rng.normal(
            0.0, scale, size=(out_channels, in_channels, kernel_size, kernel_size)
        )
        if bias:
            self.params["b"] = np.zeros(out_channels)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.params["W"].shape[1]:
            raise ShapeError(f"{self.name}: expected NCHW with C={self.params['W'].shape[1]}, got {x.shape}")
        bias = self.params.get("b")
        return conv2d_forward(x, self.params["W"], bias, self.stride, self.padding)

    def backward(self, x: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        dx, dW, db = conv2d_backward(x, self.params["W"], dy, self.stride, self.padding, self.with_bias)
        grads = {"W": dW}
        if self.with_bias:
            assert db is not None
            grads["b"] = db
        return dx, grads


class MaxPoolLayer(TrainLayer):
    """Max pooling with window ``k`` (stride = k)."""

    def __init__(self, k: int = 2, name: str = "maxpool") -> None:
        super().__init__(name)
        if k < 1:
            raise ShapeError("pool window must be >= 1")
        self.k = k

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NCHW, got {x.ndim}-D")
        out, _ = maxpool2d_forward(x, self.k)
        return out

    def backward(self, x: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        _, arg = maxpool2d_forward(x, self.k)  # recompute argmax from input
        return maxpool2d_backward(x.shape, arg, dy, self.k), {}


class FlattenLayer(TrainLayer):
    """(N, C, H, W) -> (N, C*H*W)."""

    def __init__(self, name: str = "flatten") -> None:
        super().__init__(name)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def backward(self, x: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        return dy.reshape(x.shape), {}


class BatchNormLayer(TrainLayer):
    """Training-mode batch normalization (batch statistics, affine).

    Works on flat (N, F) or NCHW inputs; normalization is over the batch
    (and spatial) axes per channel/feature.  Being a pure function of the
    batch, it replays deterministically under checkpoint schedules.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, name: str = "bn") -> None:
        super().__init__(name)
        self.eps = eps
        self.params["gamma"] = np.ones(num_features)
        self.params["beta"] = np.zeros(num_features)

    def _axes_and_shape(self, x: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if x.ndim not in (2, 4):
            raise ShapeError(f"{self.name}: expected 2-D or 4-D input, got {x.ndim}-D")
        features = self.params["gamma"].shape[0]
        if x.shape[1] != features:
            raise ShapeError(
                f"{self.name}: expected {features} features/channels on axis 1, "
                f"got {x.shape[1]}"
            )
        if x.ndim == 2:
            return (0,), (1, -1)
        return (0, 2, 3), (1, -1, 1, 1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        axes, shape = self._axes_and_shape(x)
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        xhat = (x - mean) / np.sqrt(var + self.eps)
        return self.params["gamma"].reshape(shape) * xhat + self.params["beta"].reshape(shape)

    def backward(self, x: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        axes, shape = self._axes_and_shape(x)
        m = float(np.prod([x.shape[a] for a in axes]))
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * inv_std
        gamma = self.params["gamma"].reshape(shape)
        dgamma = (dy * xhat).sum(axis=axes)
        dbeta = dy.sum(axis=axes)
        dxhat = dy * gamma
        dx = (
            inv_std
            / m
            * (m * dxhat - dxhat.sum(axis=axes, keepdims=True) - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True))
        )
        return dx, {"gamma": dgamma, "beta": dbeta}
