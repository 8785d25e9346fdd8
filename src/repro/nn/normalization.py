"""Batch normalization, including the dual-statistics variant FedRBN needs."""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import compute_dtype
from repro.nn.grad_mode import param_grads_enabled
from repro.nn.module import Module, Parameter, client_view

#: The reduction axes of one client in the (K, B, C, H, W) view.
_CLIENT_AXES = (1, 3, 4)


def _per_channel(a: np.ndarray) -> np.ndarray:
    """Broadcast a (K, C) slab over the (K, B, C, H, W) view."""
    return a[:, None, :, None, None]


class BatchNorm2d(Module):
    """Standard NCHW batch normalization with running statistics.

    In training mode the layer normalises with batch statistics and updates
    exponential running averages; in eval mode it uses the running averages.
    The backward pass in eval mode treats the statistics as constants (which
    is what PGD attacks against a frozen model require).
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(np.ones(num_features, dtype=compute_dtype()))
        self.bias = Parameter(np.zeros(num_features, dtype=compute_dtype()))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=compute_dtype()))
        self.register_buffer("running_var", np.ones(num_features, dtype=compute_dtype()))

    # Subclasses (DualBatchNorm2d) redirect this to one of two stat banks.
    def _bank(self) -> tuple[str, str]:
        return "running_mean", "running_var"

    def _running(self) -> tuple[np.ndarray, np.ndarray]:
        """The active bank as ``(K, C)``: the cohort's per-client stat slabs
        (``_slab_buffers``, see repro.nn.cohort) or the serial K = 1 view."""
        mean, var = self._bank()
        if self.weight.slab is not None:
            return self._slab_buffers[mean], self._slab_buffers[var]
        return self._buffers[mean][None], self._buffers[var][None]

    def _set_running(self, mean: np.ndarray, var: np.ndarray) -> None:
        for name, value in zip(self._bank(), (mean, var)):
            if self.weight.slab is not None:
                dtype = self._buffers[name].dtype
                self._slab_buffers[name] = np.asarray(value, dtype=dtype)
            else:
                self.set_buffer(name, value[0])

    # One body per direction over the (K, B, C, H, W) client view: K cohort
    # clients with parameter and stat slabs installed, or the serial layer
    # as K = 1.  Batch statistics and every gradient reduction run over
    # one client's (B, H, W) axes in a single call, never across K, so each
    # client's summation order is the serial one; normalisation is one
    # elementwise broadcast over the view.
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(f"BatchNorm2d({self.num_features}) got shape {x.shape}")
        w, _ = self.weight.stacked()
        b, _ = self.bias.stacked()
        xv = client_view(x, w.shape[0])
        centered = None
        if self.training:
            mean = xv.mean(axis=_CLIENT_AXES)
            # np.var's own steps, reusing the mean in hand.
            centered = xv - _per_channel(mean)
            count = xv.shape[1] * xv.shape[3] * xv.shape[4]
            var = np.square(centered).sum(axis=_CLIENT_AXES) / count
            r_mean, r_var = self._running()
            m = self.momentum
            self._set_running(
                (1 - m) * r_mean + m * mean,
                (1 - m) * r_var + m * var,
            )
        else:
            mean, var = self._running()
        self._batch_stats = self.training
        self._inv_std = 1.0 / np.sqrt(var + self.eps)  # (K, C)
        if not (self._batch_stats or param_grads_enabled()):
            # Input-grad-only eval forward (attacks on a frozen model, the
            # frozen-prefix cascade): nothing downstream needs x_hat, so
            # fold the affine transform into one scale-and-shift.
            self._x_hat = None
            scale = w * self._inv_std
            shift = b - mean * scale
            return (xv * _per_channel(scale) + _per_channel(shift)).reshape(x.shape)
        # x_hat is needed for the weight gradient and the train-mode input
        # gradient.
        if centered is None:
            centered = xv - _per_channel(mean)
        x_hat = centered * _per_channel(self._inv_std)
        self._x_hat = x_hat  # (K, B, C, H, W)
        return (_per_channel(w) * x_hat + _per_channel(b)).reshape(x.shape)

    def backward(self, grad_out: np.ndarray, param_grads: bool = True) -> np.ndarray:
        w, w_grad = self.weight.stacked()
        gv = client_view(grad_out, w.shape[0])
        if param_grads and param_grads_enabled():
            if self._x_hat is None:
                raise RuntimeError(
                    "BatchNorm2d.backward needs parameter gradients but the "
                    "forward pass ran input-grad-only (no x_hat cache)"
                )
            _, b_grad = self.bias.stacked()
            w_grad += (gv * self._x_hat).sum(axis=_CLIENT_AXES)
            b_grad += gv.sum(axis=_CLIENT_AXES)
        g_xhat = gv * _per_channel(w)
        inv_std = _per_channel(self._inv_std)
        if not self._batch_stats:
            # Eval mode: statistics are constants.
            self._x_hat = None
            return (g_xhat * inv_std).reshape(grad_out.shape)
        x_hat = self._x_hat
        self._x_hat = None
        count = gv.shape[1] * gv.shape[3] * gv.shape[4]  # per client
        sum_g = g_xhat.sum(axis=_CLIENT_AXES, keepdims=True)
        sum_gx = (g_xhat * x_hat).sum(axis=_CLIENT_AXES, keepdims=True)
        out = (inv_std / count) * (count * g_xhat - sum_g - x_hat * sum_gx)
        return out.reshape(grad_out.shape)


class DualBatchNorm2d(BatchNorm2d):
    """BatchNorm with separate clean/adversarial running statistics.

    FedRBN (Hong et al., 2023) propagates robustness between clients by
    sharing the *adversarial* BN statistics of adversarially-training
    clients with standard-training clients.  This layer keeps two banks of
    running statistics and a switch selecting which bank forward passes in
    eval mode use (training mode updates the active bank).
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__(num_features, momentum=momentum, eps=eps)
        self.register_buffer("running_mean_adv", np.zeros(num_features))
        self.register_buffer("running_var_adv", np.ones(num_features))
        self.adversarial_mode = False

    def set_mode(self, adversarial: bool) -> None:
        object.__setattr__(self, "adversarial_mode", bool(adversarial))

    def _bank(self) -> tuple[str, str]:
        if self.adversarial_mode:
            return "running_mean_adv", "running_var_adv"
        return super()._bank()


def set_dual_bn_mode(model: Module, adversarial: bool) -> None:
    """Switch every DualBatchNorm2d in ``model`` to clean/adversarial stats."""
    for m in model.modules():
        if isinstance(m, DualBatchNorm2d):
            m.set_mode(adversarial)
