"""Finite-difference gradient checks for every layer type.

These are the load-bearing tests of the whole reproduction: PGD attacks
and cascade training consume exactly the input gradients checked here.

The whole module runs under a float64 compute-dtype scope: central
differences with eps=1e-5 cannot resolve gradients against float32
parameter storage, and the analytic math is dtype-independent, so double
precision is the right instrument here (production stays float32).
"""

import numpy as np
import pytest

from repro.nn import dtype_scope
from repro.nn import (
    AvgPool2d,
    BasicBlock,
    BatchNorm2d,
    Conv2d,
    ConvBNReLU,
    Flatten,
    GlobalAvgPool2d,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Tanh,
)
from tests.helpers import check_layer_input_grad, check_layer_param_grads

RNG = np.random.default_rng(42)


@pytest.fixture(autouse=True)
def _float64_compute():
    with dtype_scope(np.float64):
        yield


def _x(shape):
    return RNG.normal(size=shape)


class TestLinear:
    def test_input_grad(self):
        check_layer_input_grad(Linear(5, 3, rng=RNG), _x((4, 5)))

    def test_param_grads(self):
        check_layer_param_grads(Linear(5, 3, rng=RNG), _x((4, 5)))

    def test_no_bias(self):
        layer = Linear(4, 2, bias=False, rng=RNG)
        check_layer_input_grad(layer, _x((3, 4)))
        check_layer_param_grads(layer, _x((3, 4)))

    def test_rejects_3d_input(self):
        with pytest.raises(ValueError):
            Linear(4, 2)(np.zeros((2, 2, 2)))


class TestConv2d:
    def test_input_grad_3x3(self):
        check_layer_input_grad(Conv2d(2, 3, 3, padding=1, rng=RNG), _x((2, 2, 5, 5)))

    def test_param_grads_3x3(self):
        check_layer_param_grads(Conv2d(2, 3, 3, padding=1, rng=RNG), _x((2, 2, 5, 5)))

    def test_strided(self):
        check_layer_input_grad(Conv2d(2, 2, 3, stride=2, padding=1, rng=RNG), _x((1, 2, 7, 7)))

    def test_1x1(self):
        check_layer_input_grad(Conv2d(3, 2, 1, rng=RNG), _x((2, 3, 4, 4)))

    def test_no_bias_param_grads(self):
        check_layer_param_grads(Conv2d(2, 2, 3, padding=1, bias=False, rng=RNG), _x((1, 2, 4, 4)))

    def test_rejects_wrong_channels(self):
        with pytest.raises(ValueError):
            Conv2d(3, 2, 3)(np.zeros((1, 4, 5, 5)))


class TestActivations:
    def test_relu_input_grad(self):
        check_layer_input_grad(ReLU(), _x((3, 4)) + 0.1)  # avoid kink at 0

    def test_leaky_relu_input_grad(self):
        check_layer_input_grad(LeakyReLU(0.1), _x((3, 4)) + 0.1)

    def test_tanh_input_grad(self):
        check_layer_input_grad(Tanh(), _x((3, 4)))

    def test_leaky_relu_negative_slope_validation(self):
        with pytest.raises(ValueError):
            LeakyReLU(-0.5)


class TestPooling:
    def test_maxpool_input_grad(self):
        # distinct values so the argmax is stable under perturbation
        x = np.arange(2 * 2 * 4 * 4, dtype=float).reshape(2, 2, 4, 4)
        x += RNG.normal(scale=0.01, size=x.shape)
        check_layer_input_grad(MaxPool2d(2), x)

    def test_maxpool_3x3_stride2_pad1(self):
        x = np.arange(1 * 2 * 7 * 7, dtype=float).reshape(1, 2, 7, 7)
        x += RNG.normal(scale=0.01, size=x.shape)
        check_layer_input_grad(MaxPool2d(3, stride=2, padding=1), x)

    def test_maxpool_padded_negative_border(self):
        # all-negative input: the border windows' maxima are real pixels,
        # never the padding, so their gradients land on the border
        x = -np.arange(1, 1 * 2 * 6 * 5 + 1, dtype=float).reshape(1, 2, 6, 5)
        x += RNG.normal(scale=0.01, size=x.shape)
        check_layer_input_grad(MaxPool2d(3, stride=2, padding=1), x)

    def test_avgpool_input_grad(self):
        check_layer_input_grad(AvgPool2d(2), _x((2, 2, 4, 4)))

    def test_global_avgpool_input_grad(self):
        check_layer_input_grad(GlobalAvgPool2d(), _x((2, 3, 4, 4)))


class TestBatchNorm:
    def test_train_mode_input_grad(self):
        layer = BatchNorm2d(3)
        layer.train()
        check_layer_input_grad(layer, _x((4, 3, 3, 3)), rtol=1e-3, atol=1e-5)

    def test_train_mode_param_grads(self):
        layer = BatchNorm2d(3)
        layer.train()
        check_layer_param_grads(layer, _x((4, 3, 3, 3)), rtol=1e-3, atol=1e-5)

    def test_eval_mode_input_grad(self):
        layer = BatchNorm2d(3)
        layer.set_buffer("running_mean", RNG.normal(size=3))
        layer.set_buffer("running_var", np.abs(RNG.normal(size=3)) + 0.5)
        layer.eval()
        check_layer_input_grad(layer, _x((2, 3, 3, 3)))


class TestComposites:
    def test_flatten_grad(self):
        check_layer_input_grad(Flatten(), _x((2, 3, 2, 2)))

    def test_conv_bn_relu_input_grad(self):
        block = ConvBNReLU(2, 3, rng=RNG)
        block.train()
        check_layer_input_grad(block, _x((2, 2, 4, 4)), rtol=1e-3, atol=1e-5)

    def test_basic_block_identity_skip(self):
        block = BasicBlock(3, 3, stride=1, rng=RNG)
        block.train()
        check_layer_input_grad(block, _x((2, 3, 4, 4)), rtol=1e-3, atol=1e-5)

    def test_basic_block_downsample(self):
        block = BasicBlock(2, 4, stride=2, rng=RNG)
        block.train()
        check_layer_input_grad(block, _x((2, 2, 4, 4)), rtol=1e-3, atol=1e-5)

    def test_sequential_chain(self):
        model = Sequential(
            Conv2d(1, 2, 3, padding=1, rng=RNG),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Linear(2 * 2 * 2, 3, rng=RNG),
        )
        x = _x((2, 1, 4, 4))
        check_layer_input_grad(model, x, rtol=1e-3, atol=1e-5)
