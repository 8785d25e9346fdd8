"""Spatial pooling layers."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import col2im, im2col
from repro.nn.module import Module


class MaxPool2d(Module):
    """Max pooling over square windows (arbitrary kernel/stride/padding).

    Padding is ``-inf``, so it never wins a window; like PyTorch, at most
    half the kernel may be padding, so every window sees a real input.
    """

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0):
        super().__init__()
        if not 0 <= padding <= kernel_size // 2:
            raise ValueError(
                f"MaxPool2d padding must be in [0, kernel_size // 2], got "
                f"padding={padding} for kernel_size={kernel_size}"
            )
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, _, _ = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        cols, out_h, out_w = im2col(x, k, k, s, p, fill=-np.inf)
        cols = cols.reshape(n, c, k * k, out_h * out_w)
        self._argmax = cols.argmax(axis=2)
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        out = np.take_along_axis(cols, self._argmax[:, :, None, :], axis=2)
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, c, _, _ = self._x_shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h, out_w = self._out_hw
        grad_cols = np.zeros((n, c, k * k, out_h * out_w), dtype=grad_out.dtype)
        g = grad_out.reshape(n, c, 1, out_h * out_w)
        np.put_along_axis(grad_cols, self._argmax[:, :, None, :], g, axis=2)
        self._argmax = None  # single-shot cache: release once consumed
        grad_cols = grad_cols.reshape(n, c * k * k, out_h * out_w)
        return col2im(grad_cols, self._x_shape, k, k, s, p)


class AvgPool2d(Module):
    """Average pooling over square windows."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, _, _ = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        cols, out_h, out_w = im2col(x, k, k, s, p)
        cols = cols.reshape(n, c, k * k, out_h * out_w)
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        return cols.mean(axis=2).reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, c, _, _ = self._x_shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h, out_w = self._out_hw
        g = grad_out.reshape(n, c, 1, out_h * out_w) / float(k * k)
        grad_cols = np.broadcast_to(g, (n, c, k * k, out_h * out_w))
        grad_cols = grad_cols.reshape(n, c * k * k, out_h * out_w)
        return col2im(np.ascontiguousarray(grad_cols), self._x_shape, k, k, s, p)


class GlobalAvgPool2d(Module):
    """Average over all spatial positions, producing (N, C) features."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, c, h, w = self._x_shape
        g = grad_out[:, :, None, None] / float(h * w)
        return np.broadcast_to(g, self._x_shape).copy()
