"""2-D convolution implemented via im2col."""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import compute_dtype
from repro.nn.functional import col2im, im2col
from repro.nn.grad_mode import param_grads_enabled
from repro.nn.init import kaiming_normal
from repro.nn.module import Module, Parameter, client_view


class Conv2d(Module):
    """NCHW convolution with square kernels.

    Forward unfolds the input with :func:`im2col` and reduces the kernel to a
    single matmul per batch; backward reuses the cached columns for the
    weight gradient and folds the input gradient back with ``col2im``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            kaiming_normal(
                (out_channels, in_channels, kernel_size, kernel_size),
                fan_in=fan_in,
                rng=rng,
            )
        )
        self.use_bias = bias
        if bias:
            self.bias = Parameter(np.zeros(out_channels, dtype=compute_dtype()))

    # One body per direction over the (K, B, ...) client view: K cohort
    # clients with (K, *shape) parameter slabs installed (repro.nn.cohort),
    # or the serial layer as K = 1.  The GEMMs batch over the leading axes
    # (the same BLAS kernel over the same per-client layout) and every
    # reduction runs over one client's axes, never across K.
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d({self.in_channels}->{self.out_channels}) got input "
                f"shape {x.shape}"
            )
        k, s, p = self.kernel_size, self.stride, self.padding
        cols, out_h, out_w = im2col(x, k, k, s, p)
        w, _ = self.weight.stacked()
        kk = w.shape[0]
        colsv = client_view(cols, kk)  # (K, B, CKK, L)
        # The columns are only needed for the weight gradient; under an
        # input-grad-only scope (attacks, frozen-prefix forwards) don't
        # retain them — they dominate activation memory.
        self._cols = colsv if param_grads_enabled() else None
        self._x_shape = x.shape
        # (K, B, C_out, L) = (K, 1, C_out, CKK) @ (K, B, CKK, L)
        out = np.matmul(w.reshape(kk, 1, self.out_channels, -1), colsv)
        if self.use_bias:
            out += self.bias.stacked()[0][:, None, :, None]
        return out.reshape(x.shape[0], self.out_channels, out_h, out_w)

    def backward(self, grad_out: np.ndarray, param_grads: bool = True) -> np.ndarray:
        w, w_grad = self.weight.stacked()
        kk = w.shape[0]
        n = grad_out.shape[0]
        g2v = client_view(grad_out.reshape(n, self.out_channels, -1), kk)
        if param_grads and param_grads_enabled():
            if self._cols is None:
                raise RuntimeError(
                    "Conv2d.backward needs parameter gradients but the "
                    "forward pass ran input-grad-only (no column cache)"
                )
            colsv = self._cols
            bl = colsv.shape[1] * colsv.shape[3]
            # Contract batch and spatial axes: the operand copies tensordot
            # makes, stacked over K — (K, C_out, B·L) @ (K, B·L, CKK).
            g_t = g2v.transpose(0, 2, 1, 3).reshape(kk, self.out_channels, bl)
            c_t = colsv.transpose(0, 1, 3, 2).reshape(kk, bl, colsv.shape[2])
            w_grad += np.matmul(g_t, c_t).reshape(w_grad.shape)
            if self.use_bias:
                _, b_grad = self.bias.stacked()
                b_grad += g2v.sum(axis=(1, 3))
        self._cols = None  # single-shot cache: release once consumed
        # (K, B, CKK, L) = (K, 1, CKK, C_out) @ (K, B, C_out, L)
        w_t = w.reshape(kk, self.out_channels, -1).transpose(0, 2, 1)
        grad_cols = np.matmul(w_t[:, None], g2v)
        grad_cols = grad_cols.reshape(n, grad_cols.shape[2], grad_cols.shape[3])
        k, s, p = self.kernel_size, self.stride, self.padding
        return col2im(grad_cols, self._x_shape, k, k, s, p)
