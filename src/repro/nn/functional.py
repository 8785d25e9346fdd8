"""Array primitives shared by the NN layers: im2col/col2im and friends.

``im2col`` and ``col2im`` are index kernels.  Per geometry (C, H, W, kernel,
stride, padding) -- never per batch size -- a bounded cache holds two
read-only integer tables over one sample's flattened, padded image:

* the gather table: for every column entry ``(c, i, j, oh, ow)`` the flat
  offset of the pixel it reads; ``im2col`` is one ``take`` through it;
* the fold table: for every unpadded input pixel the column entries that
  read it, in ``(i, j)`` order, padded with a sentinel that reads zero;
  ``col2im`` gathers through it and adds the taps into a zero buffer one
  tap slot at a time.

Each pixel's gradient is therefore ``0.0 + tap(0, 0) + tap(0, 1) + ...``
in the same order as a per-(i, j) strided accumulation, so both kernels
are bit-exact against the classic strided-window/loop formulation in any
dtype.  Nothing here calls BLAS.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Tuple

import numpy as np

from repro.nn.dtype import compute_dtype

#: Geometries kept by the index-table cache.  A model uses one per distinct
#: conv/pool layer shape, so this covers several models in one process.
GEOMETRY_CACHE_SIZE = 128


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution/pooling window sweep."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input={size}, kernel={kernel}, "
            f"stride={stride}, pad={pad}"
        )
    return out


class _Geometry(NamedTuple):
    out_h: int
    out_w: int
    gather: np.ndarray  # (C*kh*kw, out_h*out_w) offsets into the padded sample
    fold: np.ndarray  # (taps, C*H*W) column entries per pixel; sentinel = size


@lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _geometry(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int
) -> _Geometry:
    """Index tables of one geometry; read-only, so threads may share them."""
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    gather = (
        (np.arange(c) * (hp * wp))[:, None, None, None, None]
        + np.arange(kh)[:, None, None, None] * wp
        + np.arange(kw)[:, None, None]
        + (np.arange(out_h) * (stride * wp))[:, None]
        + np.arange(out_w) * stride
    ).reshape(c * kh * kw, out_h * out_w).astype(np.intp)

    # Invert the gather table: a stable sort groups the column entries by
    # the pixel they read and keeps them in ascending entry order, i.e. in
    # (i, j) order within one pixel.
    flat = gather.ravel()
    entries = np.argsort(flat, kind="stable")
    counts = np.bincount(flat, minlength=c * hp * wp)
    slot = np.arange(flat.size) - np.repeat(np.cumsum(counts) - counts, counts)
    fold = np.full((counts.max(), c * hp * wp), flat.size, np.intp)
    fold[slot, flat[entries]] = entries
    fold = fold.reshape(-1, c, hp, wp)[:, :, pad : pad + h, pad : pad + w]
    fold = np.ascontiguousarray(fold).reshape(-1, c * h * w)

    gather.flags.writeable = False
    fold.flags.writeable = False
    return _Geometry(out_h, out_w, gather, fold)


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int, fill: float = 0.0
) -> Tuple[np.ndarray, int, int]:
    """Unfold an NCHW tensor into column form.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(N, C * kh * kw, out_h * out_w)`` with rows ordered ``(c, i, j)``.
    The input is padded by ``pad`` pixels of value ``fill`` (zero for
    convolution, ``-inf`` for max pooling) into one buffer, and every
    window is gathered by one ``take`` through the cached per-sample offset
    table.  The result is a fresh contiguous array.
    """
    n, c, h, w = x.shape
    geo = _geometry(c, h, w, kh, kw, stride, pad)
    if pad > 0:
        xp = np.full((n, c, h + 2 * pad, w + 2 * pad), fill, dtype=x.dtype)
        xp[:, :, pad : pad + h, pad : pad + w] = x
        x = xp
    cols = np.take(x.reshape(n, -1), geo.gather, axis=1)
    return cols, geo.out_h, geo.out_w


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold column-form gradients back into an NCHW tensor (im2col adjoint).

    Overlapping windows accumulate, which is exactly the sum of gradient
    contributions each input pixel receives.  Each pixel's sum starts at
    ``0.0`` and adds its taps in ``(i, j)`` order, the order of a strided
    per-tap accumulation, so the result is bit-exact against it; taps that
    fall on padding are dropped.  Returns a contiguous ``x_shape`` array.
    """
    n, c, h, w = x_shape
    geo = _geometry(c, h, w, kh, kw, stride, pad)
    # One trailing zero per sample is what the fold table's sentinel reads.
    src = np.zeros((n, geo.gather.size + 1), dtype=cols.dtype)
    src[:, :-1] = cols.reshape(n, geo.gather.size)
    taps = np.take(src, geo.fold, axis=1)
    out = np.zeros((n, c * h * w), dtype=cols.dtype)
    for t in range(geo.fold.shape[0]):
        out += taps[:, t]
    return out.reshape(x_shape)


def one_hot(labels: np.ndarray, num_classes: int, dtype=None) -> np.ndarray:
    """Dense one-hot encoding of an integer label vector.

    ``dtype=None`` follows the global compute-dtype policy
    (:func:`repro.nn.dtype.compute_dtype`).
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer array")
    if dtype is None:
        dtype = compute_dtype()
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
