"""Tests for im2col/col2im and helpers.

``im2col`` and ``col2im`` are index kernels that promise bit-exact output
against the classic strided-window unfold and per-tap loop fold, kept below
as reference implementations.  The golden digests at the end pin the
kernels' outputs across code versions; they involve no BLAS call and no
platform math library, so they hold on any host.
"""

import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn import MaxPool2d
from repro.nn.functional import col2im, conv_output_size, im2col, one_hot


def reference_im2col(x, kh, kw, stride, pad):
    """Strided-window unfold: the classic formulation the kernel matches."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    return windows.reshape(n, c * kh * kw, out_h * out_w), out_h, out_w


def reference_col2im(cols, x_shape, kh, kw, stride, pad):
    """Per-tap loop fold: each pixel sums 0.0, then its taps in (i, j) order."""
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            xp[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j]
    return xp[:, :, pad : pad + h, pad : pad + w]


def assert_bit_identical(actual, expected):
    """Same dtype, shape and bytes: stricter than array_equal (sees -0.0)."""
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


def test_conv_output_size_basic():
    assert conv_output_size(32, 3, 1, 1) == 32
    assert conv_output_size(32, 2, 2, 0) == 16
    assert conv_output_size(7, 3, 2, 1) == 4


def test_conv_output_size_invalid():
    with pytest.raises(ValueError):
        conv_output_size(1, 3, 1, 0)


def test_im2col_shapes():
    x = np.arange(2 * 3 * 5 * 5, dtype=float).reshape(2, 3, 5, 5)
    cols, oh, ow = im2col(x, 3, 3, 1, 1)
    assert (oh, ow) == (5, 5)
    assert cols.shape == (2, 3 * 9, 25)


def test_im2col_values_identity_kernel():
    """A 1x1 kernel with stride 1 is just a reshape."""
    x = np.random.default_rng(0).normal(size=(2, 4, 3, 3))
    cols, oh, ow = im2col(x, 1, 1, 1, 0)
    np.testing.assert_allclose(cols, x.reshape(2, 4, 9))


def test_im2col_window_content():
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    cols, oh, ow = im2col(x, 2, 2, 2, 0)
    assert (oh, ow) == (2, 2)
    # first window is the top-left 2x2 patch
    np.testing.assert_array_equal(cols[0, :, 0], [0, 1, 4, 5])
    np.testing.assert_array_equal(cols[0, :, 3], [10, 11, 14, 15])


def test_col2im_is_adjoint_of_im2col():
    """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 6, 6))
    for kh, kw, s, p in [(3, 3, 1, 1), (2, 2, 2, 0), (3, 3, 2, 1)]:
        cols, _, _ = im2col(x, kh, kw, s, p)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, kh, kw, s, p)).sum())
        assert abs(lhs - rhs) < 1e-8


def test_col2im_accumulates_overlaps():
    x_shape = (1, 1, 3, 3)
    cols = np.ones((1, 4, 4))  # 2x2 kernel, stride 1 -> 2x2 output positions
    out = col2im(cols, x_shape, 2, 2, 1, 0)
    # centre pixel is covered by all four windows
    assert out[0, 0, 1, 1] == 4.0
    assert out[0, 0, 0, 0] == 1.0


def test_one_hot():
    oh = one_hot(np.array([0, 2, 1]), 3)
    np.testing.assert_array_equal(oh, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def test_one_hot_rejects_2d():
    with pytest.raises(ValueError):
        one_hot(np.zeros((2, 2), dtype=int), 3)


# -- bit-exactness against the reference implementations --------------------


@st.composite
def fold_cases(draw):
    k = draw(st.sampled_from([1, 2, 3, 7]))
    stride = draw(st.integers(1, 3))
    pad = draw(st.integers(0, 3))
    lo = max(1, k - 2 * pad)
    h = draw(st.integers(lo, lo + 7))
    w = draw(st.integers(lo, lo + 7).filter(lambda v: v != h))
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, c, h, w, k, stride, pad, dtype, seed


def _wide_range(rng, shape, dtype):
    """Values spanning many binades, so any reordered sum shows."""
    scale = 10.0 ** rng.integers(-6, 7, size=shape)
    return (rng.standard_normal(shape) * scale).astype(dtype)


@given(fold_cases())
@settings(max_examples=150, deadline=None)
def test_kernels_bit_identical_to_reference(case):
    n, c, h, w, k, stride, pad, dtype, seed = case
    rng = np.random.default_rng(seed)
    # A transposed view: non-contiguous input with H != W.
    x = _wide_range(rng, (n, c, w, h), dtype).transpose(0, 1, 3, 2)
    assert not x.flags.c_contiguous or min(h, w) == 1
    cols, out_h, out_w = im2col(x, k, k, stride, pad)
    ref_cols, ref_h, ref_w = reference_im2col(x, k, k, stride, pad)
    assert (out_h, out_w) == (ref_h, ref_w)
    assert_bit_identical(cols, ref_cols)

    g = _wide_range(rng, cols.shape, dtype)
    assert_bit_identical(
        col2im(g, x.shape, k, k, stride, pad),
        reference_col2im(g, x.shape, k, k, stride, pad),
    )


def test_col2im_keeps_tap_order_float32():
    """The centre pixel's four taps sum to 1 in (i, j) order, 0 otherwise."""
    taps = np.array([1e8, 1.0, -1e8, 1.0], dtype=np.float32)
    cols = np.zeros((1, 4, 4), dtype=np.float32)  # 2x2 kernel over 3x3 -> 2x2
    # tap (i, j) reaches pixel (1, 1) from output position (1 - i, 1 - j)
    for tap, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        cols[0, 2 * i + j, 2 * (1 - i) + (1 - j)] = taps[tap]
    reversed_sum = np.float32(0.0)
    for v in taps[::-1]:
        reversed_sum = np.float32(reversed_sum + v)
    assert reversed_sum != np.float32(1.0)  # the case is order-sensitive

    out = col2im(cols, (1, 1, 3, 3), 2, 2, 1, 0)
    assert out[0, 0, 1, 1] == np.float32(1.0)
    assert_bit_identical(out, reference_col2im(cols, (1, 1, 3, 3), 2, 2, 1, 0))


def test_col2im_sums_start_from_positive_zero():
    cols = np.full((2, 3 * 9, 16), -0.0, dtype=np.float32)
    out = col2im(cols, (2, 3, 4, 4), 3, 3, 1, 1)
    assert not np.signbit(out).any()
    assert_bit_identical(out, reference_col2im(cols, (2, 3, 4, 4), 3, 3, 1, 1))


def test_im2col_fill_value_pads():
    x = np.ones((1, 1, 2, 2))
    cols, _, _ = im2col(x, 3, 3, 1, 1, fill=-np.inf)
    # the top-left window sees 5 padding pixels and 4 inputs
    assert np.isneginf(cols[0, :, 0]).sum() == 5
    assert (cols[0, :, 0] == 1.0).sum() == 4


# -- index-table cache ------------------------------------------------------


def test_cache_one_entry_per_geometry_for_any_batch_size():
    F._geometry.cache_clear()
    rng = np.random.default_rng(0)
    for n in range(1, 65):
        cols, _, _ = im2col(rng.standard_normal((n, 2, 5, 6)), 3, 3, 2, 1)
        col2im(cols, (n, 2, 5, 6), 3, 3, 2, 1)
    info = F._geometry.cache_info()
    assert (info.currsize, info.misses) == (1, 1)


def test_cache_is_bounded():
    assert F._geometry.cache_info().maxsize == F.GEOMETRY_CACHE_SIZE
    for c in range(1, F.GEOMETRY_CACHE_SIZE + 6):
        im2col(np.zeros((1, c, 1, 1)), 1, 1, 1, 0)
    assert F._geometry.cache_info().currsize == F.GEOMETRY_CACHE_SIZE


def test_cached_tables_are_read_only():
    geo = F._geometry(2, 4, 4, 3, 3, 1, 1)
    for table in (geo.gather, geo.fold):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0


def test_threads_share_tables_safely():
    """Workers racing to build and read one geometry get the serial results."""
    rng = np.random.default_rng(3)
    xs = [rng.standard_normal((4, 3, 6, 6)).astype(np.float32) for _ in range(16)]

    def work(x):
        cols, _, _ = im2col(x, 3, 3, 1, 1)
        return cols, col2im(cols, x.shape, 3, 3, 1, 1)

    serial = [work(x) for x in xs]
    F._geometry.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(work, xs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for (a_cols, a_img), (b_cols, b_img) in zip(serial, threaded):
        assert_bit_identical(b_cols, a_cols)
        assert_bit_identical(b_img, a_img)


# -- MaxPool2d padding ------------------------------------------------------


def test_maxpool_padding_never_wins():
    x = -np.arange(1, 17, dtype=np.float64).reshape(1, 1, 4, 4)
    out = MaxPool2d(3, 2, 1)(x)
    np.testing.assert_array_equal(out[0, 0], [[-1, -2], [-5, -6]])


def test_maxpool_padding_matches_brute_force():
    rng = np.random.default_rng(5)
    x = -np.abs(rng.standard_normal((2, 3, 7, 6))) - 1.0
    k, s, p = 3, 2, 1
    out = MaxPool2d(k, s, p)(x)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=-np.inf)
    for oy in range(out.shape[2]):
        for ox in range(out.shape[3]):
            window = xp[:, :, oy * s : oy * s + k, ox * s : ox * s + k]
            np.testing.assert_array_equal(out[:, :, oy, ox], window.max(axis=(2, 3)))


def test_maxpool_rejects_padding_over_half_kernel():
    with pytest.raises(ValueError):
        MaxPool2d(2, padding=2)


# -- golden digests (host-independent) -------------------------------------


def _golden_input(shape):
    """Exact float32 values from integer arithmetic alone: no RNG, no libm."""
    size = int(np.prod(shape))
    state = np.arange(size, dtype=np.uint64) * np.uint64(6364136223846793005)
    state += np.uint64(1442695040888963407)
    mantissa = (state >> np.uint64(40)).astype(np.int64) - (1 << 23)  # 24 bits
    exponent = (np.arange(size) % 7) * 3 - 32
    return np.ldexp(mantissa.astype(np.float32), exponent.astype(np.int32)).reshape(shape)


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f4").tobytes()).hexdigest()


def _golden_outputs():
    x = _golden_input((3, 4, 9, 7))
    cols, _, _ = im2col(x, 3, 3, 2, 1)
    grad = _golden_input(cols.shape)[::-1].copy()
    pool = MaxPool2d(3, 2, 1)
    pooled = pool(-np.abs(x))  # all-negative: padding must never win
    pool_grad = pool.backward(_golden_input(pooled.shape))
    return {
        "im2col": cols,
        "col2im": col2im(grad, x.shape, 3, 3, 2, 1),
        "maxpool_forward": pooled,
        "maxpool_backward": pool_grad,
    }


GOLDEN_SHA256 = {
    "im2col": "b228f81be2824559c84758cffdc63a95a328ddc0e9d09b3de7adcd77b0ec5565",
    "col2im": "0522bc6a3d1a5c9b0647a14cec92f71820db547303c3c17e38a2decf6e1c506a",
    "maxpool_forward": "681ed2e783a356c1685fefb9cfe6201238d32e28787612f8774e488eb9157f76",
    "maxpool_backward": "49b1c69268de657a20c6990a898b8b209616b31307273d5713a64bf5e74c0f85",
}


def test_golden_input_is_exact():
    x = _golden_input((3, 4, 9, 7))
    assert x.dtype == np.float32 and np.isfinite(x).all()
    assert len(np.unique(x)) == x.size


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_digests(name):
    assert _sha(_golden_outputs()[name]) == GOLDEN_SHA256[name]
