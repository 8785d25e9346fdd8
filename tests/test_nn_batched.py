"""Client-batched execution backend: slab kernels and cohort fusion.

Two layers of guarantees, both **bit-exact** (``np.array_equal``, not
allclose — determinism is the contract, not a tolerance):

* kernel level: a cohort-aware layer with K client slabs installed must
  reproduce K independent serial layers exactly — forward outputs, input
  gradients, parameter-gradient slabs, and BatchNorm running-statistic
  slabs — because the stacked GEMMs run the same BLAS kernel over the
  same per-client layout and every multi-axis reduction runs in one call
  over the non-client axes of the ``(K, B, ...)`` view, never across K.
  Serial is the K = 1 view of the same body, so the layers are also
  checked against the per-client loop kernels they replaced (kept below
  as reference implementations), which can fail across code versions;
* round level: a federated run on ``executor_backend="batched"`` must be
  bit-identical to the serial reference at any fusion width, for sync
  and cross-round-pipelined async aggregation, with fault and threat
  plans active, across homogeneous (jFAT, FedRBN) and
  identical-mask-grouped heterogeneous (HeteroFL) baselines.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FedRBN, HeteroFLAT, JointFAT
from repro.core.prefix_cache import PrefixCache
from repro.data import make_cifar10_like
from repro.flsim import FLConfig
from repro.flsim.executor import CohortFn, RoundExecutor
from repro.flsim.faults import FaultPlan
from repro.flsim.threats import ThreatPlan
from repro.hardware import DEVICE_POOL_CIFAR10, DeviceSampler
from repro.models import build_cnn, build_vgg
from repro.nn import BatchNorm2d, Conv2d, DualBatchNorm2d, Linear
from repro.nn.cohort import (
    CohortCrossEntropyLoss,
    clear_cohort,
    extract_cohort,
    install_cohort,
)
from repro.nn.dtype import dtype_scope
from repro.nn.functional import col2im, conv_output_size, im2col
from repro.nn.grad_mode import no_param_grads
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import client_view


def _assert_states_equal(a, b, label=""):
    assert set(a) == set(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=f"{label}{k}")


# ---------------------------------------------------------------------------
# Kernel-level slab semantics: stacked layer == K serial layers, bit for bit
# ---------------------------------------------------------------------------


def _clone_layers(make_layer, k):
    """K serial layers with distinct weights + one cohort layer over them."""
    serial = [make_layer(np.random.default_rng(10 + i)) for i in range(k)]
    cohort = make_layer(np.random.default_rng(0))
    install_cohort(cohort, [layer.state_dict() for layer in serial])
    return serial, cohort


def _layer_case(make_layer, x_shape, k=3, b=4, train=True):
    rng = np.random.default_rng(99)
    serial, cohort = _clone_layers(make_layer, k)
    xs = [rng.normal(size=(b,) + x_shape).astype(np.float32) for _ in range(k)]
    for layer in serial + [cohort]:
        layer.train() if train else layer.eval()

    outs = [layer.forward(x) for layer, x in zip(serial, xs)]
    stacked_out = cohort.forward(np.concatenate(xs))
    np.testing.assert_array_equal(stacked_out, np.concatenate(outs))

    gs = [rng.normal(size=out.shape).astype(np.float32) for out in outs]
    gx = [layer.backward(g) for layer, g in zip(serial, gs)]
    stacked_gx = cohort.backward(np.concatenate(gs))
    np.testing.assert_array_equal(stacked_gx, np.concatenate(gx))

    for (name, p_cohort) in cohort.named_parameters():
        for i, layer in enumerate(serial):
            p_serial = dict(layer.named_parameters())[name]
            np.testing.assert_array_equal(
                p_cohort.slab_grad[i], p_serial.grad, err_msg=f"{name}[{i}]"
            )
    # Buffers (BN running stats) updated per client.
    trained = extract_cohort(cohort)
    for i, layer in enumerate(serial):
        _assert_states_equal(layer.state_dict(), trained[i], f"client {i}: ")


class TestSlabKernels:
    def test_linear(self):
        _layer_case(lambda rng: Linear(6, 5, rng=rng), (6,))

    def test_linear_no_bias(self):
        _layer_case(lambda rng: Linear(6, 5, bias=False, rng=rng), (6,))

    def test_conv2d(self):
        _layer_case(
            lambda rng: Conv2d(3, 4, kernel_size=3, padding=1, rng=rng), (3, 6, 6)
        )

    def test_conv2d_strided(self):
        _layer_case(
            lambda rng: Conv2d(3, 4, kernel_size=3, stride=2, rng=rng), (3, 7, 7)
        )

    def test_batchnorm_train(self):
        _layer_case(lambda rng: BatchNorm2d(3), (3, 5, 5))

    def test_batchnorm_eval(self):
        _layer_case(lambda rng: BatchNorm2d(3), (3, 5, 5), train=False)

    def test_dual_batchnorm_both_banks(self):
        for adversarial in (False, True):
            def make(rng, adv=adversarial):
                layer = DualBatchNorm2d(3)
                layer.set_mode(adv)
                return layer

            _layer_case(make, (3, 5, 5))

    def test_whole_model_forward_backward(self):
        k, b = 3, 4
        serial, cohort = _clone_layers(
            lambda rng: build_cnn(2, 10, (3, 8, 8), base_channels=4, rng=rng), k
        )
        rng = np.random.default_rng(5)
        xs = [rng.normal(size=(b, 3, 8, 8)).astype(np.float32) for _ in range(k)]
        for m in serial + [cohort]:
            m.train()
        outs = [m(x) for m, x in zip(serial, xs)]
        np.testing.assert_array_equal(
            cohort(np.concatenate(xs)), np.concatenate(outs)
        )

    def test_extract_roundtrips_install(self):
        model = build_cnn(2, 10, (3, 8, 8), base_channels=4, rng=np.random.default_rng(1))
        states = [
            build_cnn(2, 10, (3, 8, 8), base_channels=4,
                      rng=np.random.default_rng(i)).state_dict()
            for i in (2, 3)
        ]
        install_cohort(model, states)
        for got, want in zip(extract_cohort(model), states):
            _assert_states_equal(got, want)
        clear_cohort(model)
        assert model._cohort_k == 0
        with pytest.raises(RuntimeError):
            extract_cohort(model)

    def test_clear_restores_serial_path(self):
        model = build_cnn(2, 10, (3, 8, 8), base_channels=4, rng=np.random.default_rng(1))
        model.eval()
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8)).astype(np.float32)
        before = model(x)
        install_cohort(model, [model.state_dict()] * 2)
        clear_cohort(model)
        np.testing.assert_array_equal(model(x), before)


# ---------------------------------------------------------------------------
# Cross-version kernel check: the layers against the per-client loop kernels
# ---------------------------------------------------------------------------
# The references are the cohort kernels the layers' single bodies replaced:
# the same stacked GEMMs, but every reduction one call per client slice.
# Each takes (K, ...) parameter slabs and returns the forward output, the
# input gradient and the parameter-gradient slabs of one forward/backward.


def reference_linear(x, g, w, b, k, param_grads):
    n, in_f = x.shape
    out_f = w.shape[1]
    bsz = n // k
    xv = x.reshape(k, bsz, in_f)
    out = np.matmul(xv, w.transpose(0, 2, 1))
    if b is not None:
        out = out + b[:, None, :]
    gv = np.ascontiguousarray(g).reshape(k, bsz, out_f)
    w_grad = np.zeros_like(w)
    b_grad = None if b is None else np.zeros_like(b)
    if param_grads:
        for i in range(k):
            w_grad[i] += gv[i].T @ xv[i]
            if b_grad is not None:
                b_grad[i] += gv[i].sum(axis=0)
    gx = np.matmul(gv, w).reshape(n, in_f)
    return out.reshape(n, out_f), gx, w_grad, b_grad


def reference_conv2d(x, g, w, b, k, stride, padding, param_grads):
    n = x.shape[0]
    bsz = n // k
    out_c, ks = w.shape[1], w.shape[3]
    cols, out_h, out_w = im2col(x, ks, ks, stride, padding)
    ckk = cols.shape[1]
    colsv = cols.reshape(k, bsz, ckk, cols.shape[2])
    wslab = w.reshape(k, out_c, ckk)
    out = np.matmul(wslab[:, None], colsv)
    if b is not None:
        out = out + b[:, None, :, None]
    g2d = np.ascontiguousarray(g).reshape(n, out_c, -1)
    g2v = g2d.reshape(k, bsz, out_c, g2d.shape[2])
    w_grad = np.zeros_like(w)
    b_grad = None if b is None else np.zeros_like(b)
    if param_grads:
        for i in range(k):
            grad_w = np.tensordot(g2v[i], colsv[i], axes=([0, 2], [0, 2]))
            w_grad[i] += grad_w.reshape(w.shape[1:])
            if b_grad is not None:
                b_grad[i] += g2v[i].sum(axis=(0, 2))
    grad_cols = np.matmul(wslab.transpose(0, 2, 1)[:, None], g2v)
    grad_cols = grad_cols.reshape(n, ckk, grad_cols.shape[3])
    gx = col2im(grad_cols, x.shape, ks, ks, stride, padding)
    return out.reshape(n, out_c, out_h, out_w), gx, w_grad, b_grad


def reference_batchnorm(x, g, w, b, r_mean, r_var, k, training, param_grads,
                        momentum=0.1, eps=1e-5):
    """Also returns the (K, C) running-stat slabs after the forward."""
    n, c, h, wd = x.shape
    bsz = n // k
    xv = x.reshape(k, bsz, c, h, wd)
    if training:
        mean = np.empty((k, c), dtype=x.dtype)
        var = np.empty((k, c), dtype=x.dtype)
        for i in range(k):
            mean[i] = xv[i].mean(axis=(0, 2, 3))
            var[i] = xv[i].var(axis=(0, 2, 3))
        r_mean = np.asarray((1 - momentum) * r_mean + momentum * mean, r_mean.dtype)
        r_var = np.asarray((1 - momentum) * r_var + momentum * var, r_var.dtype)
    else:
        mean, var = r_mean, r_var
    inv_std = 1.0 / np.sqrt(var + eps)
    if not (training or param_grads):
        scale = w * inv_std
        shift = b - mean * scale
        x_hat = None
        out = xv * scale[:, None, :, None, None] + shift[:, None, :, None, None]
    else:
        x_hat = (xv - mean[:, None, :, None, None]) * inv_std[:, None, :, None, None]
        out = w[:, None, :, None, None] * x_hat + b[:, None, :, None, None]
    gv = np.ascontiguousarray(g).reshape(k, bsz, c, h, wd)
    w_grad, b_grad = np.zeros_like(w), np.zeros_like(b)
    if param_grads:
        for i in range(k):
            w_grad[i] += (gv[i] * x_hat[i]).sum(axis=(0, 2, 3))
            b_grad[i] += gv[i].sum(axis=(0, 2, 3))
    g_xhat = gv * w[:, None, :, None, None]
    inv = inv_std[:, None, :, None, None]
    if not training:
        gx = g_xhat * inv
    else:
        count = bsz * h * wd
        sum_g = np.empty((k, 1, c, 1, 1), dtype=g_xhat.dtype)
        sum_gx = np.empty((k, 1, c, 1, 1), dtype=g_xhat.dtype)
        for i in range(k):
            sum_g[i, 0, :, 0, 0] = g_xhat[i].sum(axis=(0, 2, 3))
            sum_gx[i, 0, :, 0, 0] = (g_xhat[i] * x_hat[i]).sum(axis=(0, 2, 3))
        gx = (inv / count) * (count * g_xhat - sum_g - x_hat * sum_gx)
    return out.reshape(x.shape), gx.reshape(x.shape), w_grad, b_grad, r_mean, r_var


def _assert_bytes(actual, expected, label):
    """Same dtype, shape and bytes: stricter than array_equal (sees -0.0)."""
    assert actual.dtype == expected.dtype, label
    assert actual.shape == expected.shape, label
    assert (
        np.ascontiguousarray(actual).tobytes()
        == np.ascontiguousarray(expected).tobytes()
    ), label


def _draw_hw(data, lo):
    h = data.draw(st.integers(lo, lo + 4), label="H")
    w = data.draw(st.integers(lo, lo + 4).filter(lambda v: v != h), label="W")
    return h, w


def _draw_layer(data, kind):
    """A layer factory, its reference kernel, and per-sample in/out shapes."""
    if kind == "linear":
        in_f, out_f = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
        bias = data.draw(st.booleans(), label="bias")
        make = lambda rng: Linear(in_f, out_f, bias=bias, rng=rng)  # noqa: E731

        def ref(x, g, slabs, k, training, pg):
            return reference_linear(x, g, slabs["weight"], slabs.get("bias"), k, pg)

        return make, ref, (in_f,), (out_f,)
    if kind == "conv2d":
        in_c, out_c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        ks = data.draw(st.integers(1, 3), label="kernel")
        stride = data.draw(st.integers(1, 2), label="stride")
        padding = data.draw(st.integers(0, 1), label="padding")
        bias = data.draw(st.booleans(), label="bias")
        h, w = _draw_hw(data, max(1, ks - 2 * padding))
        make = lambda rng: Conv2d(  # noqa: E731
            in_c, out_c, ks, stride=stride, padding=padding, bias=bias, rng=rng
        )

        def ref(x, g, slabs, k, training, pg):
            return reference_conv2d(
                x, g, slabs["weight"], slabs.get("bias"), k, stride, padding, pg
            )

        out_hw = [conv_output_size(v, ks, stride, padding) for v in (h, w)]
        return make, ref, (in_c, h, w), (out_c, *out_hw)
    c = data.draw(st.integers(1, 4), label="channels")
    h, w = _draw_hw(data, 1)
    adversarial = kind == "dual_batchnorm" and data.draw(st.booleans(), label="adv")
    bank = "_adv" if adversarial else ""

    def make(rng):
        if kind == "batchnorm":
            return BatchNorm2d(c)
        layer = DualBatchNorm2d(c)
        layer.set_mode(adversarial)
        return layer

    def ref(x, g, slabs, k, training, pg):
        *grads, r_mean, r_var = reference_batchnorm(
            x, g, slabs["weight"], slabs["bias"], slabs["running_mean" + bank],
            slabs["running_var" + bank], k, training, pg,
        )
        return (*grads, {"running_mean" + bank: r_mean, "running_var" + bank: r_var})

    return make, ref, (c, h, w), (c, h, w)


def _random_state(layer, rng):
    """Distinct per-client values for every parameter and buffer."""
    state = layer.state_dict()
    for name, v in state.items():
        draw = rng.normal(size=v.shape)
        state[name] = (np.abs(draw) + 0.5 if "var" in name else draw).astype(v.dtype)
    return state


def _check_against_reference(layer, ref, x, g, k, training, param_grads, states):
    slabs = {n: np.stack([s[n] for s in states]) for n in states[0]}
    out, gx, w_grad, b_grad, *stats = ref(x, g, slabs, k, training, param_grads)
    layer.train() if training else layer.eval()
    with (nullcontext() if param_grads else no_param_grads()):
        _assert_bytes(layer.forward(x), out, "output")
        _assert_bytes(layer.backward(g), gx, "input grad")
    cohort = layer.weight.slab is not None

    def got(p):
        return p.slab_grad if cohort else p.grad[None]

    _assert_bytes(got(layer.weight), w_grad, "weight grad")
    if b_grad is not None:
        _assert_bytes(got(layer.bias), b_grad, "bias grad")
    for name, want in (stats[0] if stats else {}).items():
        have = layer._slab_buffers[name] if cohort else layer._buffers[name][None]
        _assert_bytes(have, want if training else slabs[name], name)


class TestKernelsMatchLoopReference:
    @pytest.mark.parametrize(
        "kind", ["linear", "conv2d", "batchnorm", "dual_batchnorm"]
    )
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_layers_byte_equal_to_per_client_loops(self, kind, data):
        dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
        k = data.draw(st.integers(1, 5), label="K")
        b = data.draw(st.integers(1, 5), label="B")
        mode = data.draw(st.sampled_from(["train", "eval", "no_param_grads"]))
        training = mode == "train" or (
            mode == "no_param_grads" and data.draw(st.booleans(), label="train")
        )
        param_grads = mode != "no_param_grads"
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        with dtype_scope(dtype):
            make, ref, x_shape, y_shape = _draw_layer(data, kind)
            states = [_random_state(make(rng), rng) for _ in range(k)]
            cohort = make(rng)
            install_cohort(cohort, states)
            serial = make(rng)
            serial.load_state_dict(states[0])
        x = rng.normal(size=(k * b,) + x_shape).astype(dtype)
        g = rng.normal(size=(k * b,) + y_shape).astype(dtype)
        # K clients on the slabs, and the serial layer as the K = 1 view.
        _check_against_reference(cohort, ref, x, g, k, training, param_grads, states)
        _check_against_reference(
            serial, ref, x[:b], g[:b], 1, training, param_grads, states[:1]
        )


class TestClientView:
    def test_splits_leading_axis_without_copy(self):
        x = np.arange(24.0).reshape(6, 4)
        v = client_view(x, 3)
        assert v.shape == (3, 2, 4) and np.shares_memory(v, x)

    def test_rejects_rows_not_divisible_by_k(self):
        with pytest.raises(ValueError, match="5 rows .* K = 2"):
            client_view(np.zeros((5, 3)), 2)

    @pytest.mark.parametrize(
        "make, shape",
        [
            (lambda: Linear(4, 3), (5, 4)),
            (lambda: Conv2d(2, 3, 3, padding=1), (5, 2, 4, 4)),
            (lambda: BatchNorm2d(2), (5, 2, 4, 4)),
        ],
    )
    def test_layers_reject_ragged_cohort_batch(self, make, shape):
        layer = make()
        install_cohort(layer, [layer.state_dict()] * 2)
        with pytest.raises(ValueError, match="5 rows .* K = 2"):
            layer.forward(np.zeros(shape, dtype=np.float32))

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize(
        "make, shape",
        [
            (lambda: Linear(4, 3), (4, 4)),
            (lambda: Conv2d(2, 3, 3, padding=1), (4, 2, 4, 4)),
            (lambda: BatchNorm2d(2).eval(), (4, 2, 4, 4)),
        ],
    )
    def test_param_grads_after_lean_forward_raises(self, make, shape, k):
        """Serial (k = 0) and cohort bodies refuse a full backward after an
        input-grad-only forward (eval BN: train mode keeps x_hat)."""
        layer = make()
        if k:
            install_cohort(layer, [layer.state_dict()] * k)
        with no_param_grads():
            out = layer.forward(np.ones(shape, dtype=np.float32))
        with pytest.raises(RuntimeError, match="input-grad-only"):
            layer.backward(np.ones_like(out), param_grads=True)


class TestCohortCrossEntropy:
    def test_matches_serial_loss_and_grad(self):
        k, b, c = 3, 5, 7
        rng = np.random.default_rng(2)
        logits = [rng.normal(size=(b, c)).astype(np.float32) for _ in range(k)]
        labels = [rng.integers(0, c, size=b) for _ in range(k)]
        serial = [CrossEntropyLoss() for _ in range(k)]
        losses = [ce(lg, y) for ce, lg, y in zip(serial, logits, labels)]
        grads = [ce.backward() for ce in serial]

        cohort = CohortCrossEntropyLoss(k)
        stacked = cohort(np.concatenate(logits), np.concatenate(labels))
        np.testing.assert_array_equal(stacked, np.array(losses))
        np.testing.assert_array_equal(cohort.backward(), np.concatenate(grads))

    # B = 130 crosses numpy's 128-element pairwise-summation block.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k, b", [(1, 1), (2, 7), (5, 3), (8, 130)])
    def test_per_row_mean_matches_serial_bytes(self, k, b, dtype):
        rng = np.random.default_rng(k * 1000 + b)
        logits = rng.normal(size=(k * b, 10)).astype(dtype)
        labels = rng.integers(0, 10, size=k * b)
        cohort = CohortCrossEntropyLoss(k)
        got = cohort(logits, labels)
        serial = [CrossEntropyLoss() for _ in range(k)]
        rows = [slice(i * b, (i + 1) * b) for i in range(k)]
        want = [ce(logits[r], labels[r]) for ce, r in zip(serial, rows)]
        _assert_bytes(got, np.array(want), "per-client losses")
        _assert_bytes(
            cohort.backward(), np.concatenate([ce.backward() for ce in serial]),
            "logit grads",
        )

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            CohortCrossEntropyLoss(0)

    def test_rejects_rows_not_divisible_by_k(self):
        # 5 rows cannot split into 2 clients: no loss silently drops row 4
        # while backward still returns gradient for it.
        logits = np.zeros((5, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="5 rows .* K = 2"):
            CohortCrossEntropyLoss(2)(logits, np.zeros(5, dtype=int))


# ---------------------------------------------------------------------------
# Cohort planning and the CohortFn contract
# ---------------------------------------------------------------------------


class TestCohortPlanning:
    def test_groups_chunked_to_fusion_width(self):
        ex = RoundExecutor("batched", max_workers=1, fusion_width=4)
        fn = CohortFn(lambda i, s: i, lambda it, s: it, group_key=lambda i: "g")
        assert ex.plan_cohorts(fn, list(range(6))) == [[0, 1, 2, 3], [4, 5]]

    def test_none_keys_stay_singletons(self):
        ex = RoundExecutor("batched", max_workers=1, fusion_width=4)
        fn = CohortFn(
            lambda i, s: i, lambda it, s: it,
            group_key=lambda i: None if i % 2 else "g",
        )
        plan = ex.plan_cohorts(fn, list(range(5)))
        assert [0, 2, 4] in plan
        assert [1] in plan and [3] in plan

    def test_distinct_keys_never_fuse(self):
        ex = RoundExecutor("batched", max_workers=1, fusion_width=4)
        fn = CohortFn(lambda i, s: i, lambda it, s: it, group_key=lambda i: i % 2)
        assert sorted(ex.plan_cohorts(fn, list(range(4)))) == [[0, 2], [1, 3]]

    def test_fusion_width_one_disables_fusion(self):
        ex = RoundExecutor("batched", max_workers=1, fusion_width=1)
        fn = CohortFn(lambda i, s: i, lambda it, s: it, group_key=lambda i: "g")
        assert ex.plan_cohorts(fn, list(range(3))) == [[0], [1], [2]]

    def test_plain_fn_on_batched_backend(self):
        # A baseline without a cohort path still runs (per item).
        ex = RoundExecutor("batched", max_workers=1, fusion_width=4)
        assert ex.map(lambda i, s: i * i, list(range(5))) == [0, 1, 4, 9, 16]

    def test_map_preserves_item_order(self):
        ex = RoundExecutor("batched", max_workers=1, fusion_width=3)
        fn = CohortFn(
            lambda i, s: ("item", i),
            lambda items, s: [("cohort", i) for i in items],
            group_key=lambda i: None if i in (1, 4) else "g",
        )
        out = ex.map(fn, list(range(6)))
        assert [v[1] for v in out] == list(range(6))
        assert out[1][0] == "item" and out[4][0] == "item"
        assert out[0][0] == "cohort"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FLConfig(fusion_width=0)
        with pytest.raises(ValueError):
            RoundExecutor("batched", fusion_width=0)


class TestPrefixCacheStacked:
    def test_fetch_stacked_matches_serial_fetch(self):
        calls = []

        def forward(x):
            calls.append(len(x))
            return x * 2.0

        rng = np.random.default_rng(0)
        data = [rng.normal(size=(8, 3)).astype(np.float32) for _ in range(3)]

        serial = PrefixCache()
        serial_out = []
        for cid, x in enumerate(data):
            serial.fetch(("c", cid), np.arange(4), x[:4], forward, 8)
            serial_out.append(
                serial.fetch(("c", cid), np.arange(2, 8), x[2:8], forward, 8)
            )

        calls.clear()
        stacked = PrefixCache()
        stacked.fetch_stacked(
            [("c", cid) for cid in range(3)],
            [np.arange(4)] * 3,
            [x[:4] for x in data],
            forward,
            [8] * 3,
        )
        assert calls == [12]  # one fused forward over the 3 clients' misses
        out = stacked.fetch_stacked(
            [("c", cid) for cid in range(3)],
            [np.arange(2, 8)] * 3,
            [x[2:8] for x in data],
            forward,
            [8] * 3,
        )
        assert calls == [12, 12]  # rows 2-3 hit, rows 4-7 fused again
        for got, want in zip(out, serial_out):
            np.testing.assert_array_equal(got, want)
        assert stacked.stats()["hits"] == serial.stats()["hits"]
        assert stacked.stats()["misses"] == serial.stats()["misses"]


# ---------------------------------------------------------------------------
# Round-level bit-identity: batched == serial across baselines and modes
# ---------------------------------------------------------------------------


def _task():
    return make_cifar10_like(image_size=8, train_per_class=20, test_per_class=5, seed=0)


BASELINES = {
    "jfat": (
        JointFAT,
        lambda rng: build_vgg("vgg11", 10, (3, 8, 8), width_mult=0.25, rng=rng),
    ),
    "fedrbn": (
        FedRBN,
        lambda rng: build_vgg(
            "vgg11", 10, (3, 8, 8), width_mult=0.25, rng=rng, bn_cls=DualBatchNorm2d
        ),
    ),
    "heterofl": (
        HeteroFLAT,
        lambda rng: build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng),
    ),
}


def _run(name, backend, fusion_width=1, heterogeneity="balanced", **overrides):
    cls, builder = BASELINES[name]
    defaults = dict(
        num_clients=6, clients_per_round=5, local_iters=2, batch_size=8,
        lr=0.02, rounds=2, train_pgd_steps=2, eval_every=0,
        eval_pgd_steps=2, seed=0,
        executor_backend=backend, round_parallelism=2,
        fusion_width=fusion_width,
    )
    defaults.update(overrides)
    sampler = DeviceSampler(DEVICE_POOL_CIFAR10, heterogeneity)
    exp = cls(_task(), builder, FLConfig(**defaults), device_sampler=sampler)
    exp.run()
    state = {k: v.copy() for k, v in exp.global_model.state_dict().items()}
    history = [(r.round, r.sim_time_s, r.compute_s, r.aborted) for r in exp.history]
    log = list(exp.async_log)
    exp.close()
    return state, history, log


class TestBatchedBackendDeterminism:
    # clients_per_round=5 with equal shards gives one ragged cohort at
    # width 2 (2+2+1) and width 4 (4+1) — the planner's tail chunks.
    @pytest.mark.parametrize("name", sorted(BASELINES))
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_sync_matches_serial(self, name, width):
        ref = _run(name, "serial")
        got = _run(name, "batched", fusion_width=width)
        _assert_states_equal(ref[0], got[0], f"{name} w{width}: ")
        assert ref[1] == got[1]

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_async_pipeline_depth2_matches_serial(self, name):
        kw = dict(
            rounds=3, aggregation_mode="async", max_staleness=2,
            pipeline_depth=2, heterogeneity="unbalanced",
        )
        ref = _run(name, "serial", **kw)
        got = _run(name, "batched", fusion_width=4, **kw)
        _assert_states_equal(ref[0], got[0], f"{name} async: ")
        assert ref[2] == got[2]

    def test_sync_with_fault_and_threat_plans(self):
        kw = dict(
            rounds=3,
            fault_plan=FaultPlan(seed=3, dropout_prob=0.2, straggler_prob=0.2),
            threat_plan=ThreatPlan(seed=7, byzantine_prob=0.3, attack="sign_flip"),
            aggregation_rule="trimmed_mean", trim_ratio=0.2,
        )
        ref = _run("jfat", "serial", **kw)
        got = _run("jfat", "batched", fusion_width=4, **kw)
        _assert_states_equal(ref[0], got[0], "faults+threats: ")
        assert ref[1] == got[1]

    def test_unbalanced_fedrbn_mixes_cohort_kinds(self):
        # Unbalanced devices split FedRBN clients between the AT and
        # standard-training branches; the fusion key separates them.
        ref = _run("fedrbn", "serial", heterogeneity="unbalanced")
        got = _run("fedrbn", "batched", fusion_width=4, heterogeneity="unbalanced")
        _assert_states_equal(ref[0], got[0], "fedrbn unbalanced: ")


class TestDescribeParallelism:
    def _exp(self, **overrides):
        cls, builder = BASELINES["jfat"]
        defaults = dict(
            num_clients=4, clients_per_round=2, local_iters=1, batch_size=8,
            lr=0.02, rounds=1, train_pgd_steps=1, eval_every=0,
            eval_pgd_steps=1, seed=0,
        )
        defaults.update(overrides)
        return cls(_task(), builder, FLConfig(**defaults))

    def test_reports_backend_workers_and_fusion(self):
        exp = self._exp(
            executor_backend="batched", round_parallelism=2, fusion_width=3
        )
        text = exp.describe_parallelism()
        exp.close()
        assert "batched x2" in text
        assert "fusion width 3" in text

    def test_non_batched_backend_omits_fusion(self):
        exp = self._exp(executor_backend="thread", round_parallelism=2)
        text = exp.describe_parallelism()
        exp.close()
        assert "thread x2" in text
        assert "fusion width" not in text
