"""Client-batched ("fusion cohort") parameter slabs for the batched backend.

The ``batched`` executor backend fuses K homogeneous clients into one
stacked forward/backward: activations carry the clients stacked on the
batch axis — a ``(K·B, ...)`` layout — while every trainable parameter
carries a ``(K, *shape)`` **slab** holding the K clients' values.  The
cohort-aware layers (Linear, Conv2d, BatchNorm2d) run one kernel body over
a ``(K, B, ...)`` view of the activations (:func:`repro.nn.module.client_view`)
and the ``(K, *shape)`` slabs; with no slab installed the same body runs the
serial layer as K = 1.  Each client's slice is bit-identical to the serial
path: the GEMMs batch over the leading client axis (same BLAS kernel over
the same per-client layout), and every multi-axis *reduction* (weight/bias
gradients, batch statistics, the mean loss) runs in one call over the
non-client axes of the view — never across K — so the summation order
matches a serial client exactly.

This module owns the slab lifecycle:

* :func:`install_cohort` stacks K state dicts into parameter/buffer slabs,
* :func:`extract_cohort` slices the trained slabs back into K state dicts,
* :func:`clear_cohort` returns the model to the serial layout (slot models
  are reused across rounds, so this must run even on failure),

plus :class:`CohortCrossEntropyLoss`, the per-client-sliced loss whose
gradient matches K independent serial mean-CE losses bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.nn.losses import log_softmax, softmax
from repro.nn.module import Module, client_view

StateDict = Dict[str, np.ndarray]


def install_cohort(model: Module, states: Sequence[StateDict]) -> int:
    """Stack K client state dicts into parameter/buffer slabs on ``model``.

    ``states`` must all carry exactly the keys of ``model.state_dict()``.
    While installed, the cohort-aware layers ignore the serial
    ``Parameter.data`` values (which are left untouched).  Returns K.
    """
    k = len(states)
    if k == 0:
        raise ValueError("install_cohort needs at least one state dict")
    for name, p in model.named_parameters():
        p.slab = np.stack(
            [np.asarray(s[name], dtype=p.data.dtype) for s in states]
        )
        p.slab_grad = np.zeros_like(p.slab)
    for name, (owner, local) in model._buffer_owners().items():
        dtype = owner._buffers[local].dtype
        owner._slab_buffers[local] = np.stack(
            [np.asarray(s[name], dtype=dtype) for s in states]
        )
    for m in model.modules():
        m._cohort_k = k
    return k


def extract_cohort(model: Module) -> List[StateDict]:
    """Slice the installed slabs back into K per-client state dicts.

    Key set and array values are exactly what K serial clients'
    ``state_dict()`` calls would produce after the same training.
    """
    k = model._cohort_k
    if not k:
        raise RuntimeError("no cohort installed")
    states: List[StateDict] = [{} for _ in range(k)]
    for name, p in model.named_parameters():
        if p.slab is None:
            raise RuntimeError(f"parameter {name!r} has no slab installed")
        for i in range(k):
            states[i][name] = p.slab[i].copy()
    for name, (owner, local) in model._buffer_owners().items():
        slab = owner._slab_buffers[local]
        for i in range(k):
            states[i][name] = slab[i].copy()
    return states


def clear_cohort(model: Module) -> None:
    """Drop all slabs and return ``model`` to the serial layout."""
    for _, p in model.named_parameters():
        p.slab = None
        p.slab_grad = None
    for m in model.modules():
        m._slab_buffers.clear()
        m._cohort_k = 0


class CohortCrossEntropyLoss:
    """Per-client mean cross-entropy over a (K·B, C) stacked logits batch.

    ``forward`` returns the K per-client losses (each the serial client's
    ``float(-picked.mean())``, reduced per row of the ``(K, B)`` view);
    ``backward`` divides by the per-client batch size B — not K·B — so each
    client's logit gradient equals the serial ``CrossEntropyLoss.backward``
    exactly.  N rows that do not split evenly into K clients raise
    ``ValueError``.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("cohort width must be >= 1")
        self.k = k

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
        labels = np.asarray(labels)
        n = logits.shape[0]
        picked = client_view(log_softmax(logits)[np.arange(n), labels], self.k)
        self._probs = softmax(logits)
        self._labels = labels
        return (-picked.mean(axis=1)).astype(np.float64)

    def backward(self) -> np.ndarray:
        n = self._probs.shape[0]
        grad = self._probs.copy()
        grad[np.arange(n), self._labels] -= 1.0
        return grad / (n // self.k)

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return self.forward(logits, labels)
