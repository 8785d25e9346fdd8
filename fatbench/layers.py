"""The layers the traced run wraps, their per-layer metrics and predictions.

Layers are named after the program's modules (``nn.conv2d``,
``core.cascade``, ``flsim.journal`` ...).  :data:`LAYERS` lists every
wrapped function; :class:`LayerProbe` installs them on a
:class:`spans.Tracer`, adds the counters a span alone cannot give
(analytic conv FLOPs, bytes written, fused clients, per-module memory)
and turns one traced run into the per-layer metrics.

:data:`PREDICTED` is the layer -> workload half of the prediction table
in ``README.md``: the layers that must record calls on each workload.
The zero-count guard fails a traced run when one of them records none,
so a wrapper that missed a rebinding cannot read as "free".
"""

from __future__ import annotations

import os
import tracemalloc
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from measure import self_times, uncovered_share
from spans import Tracer

MB = 1024.0 * 1024.0


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# -- counters a span cannot give ---------------------------------------------
def _conv_gemm_flops(layer, out_elems: int) -> int:
    """FLOPs of one im2col GEMM: 2 x output elements x (C_in k k)."""
    return 2 * out_elems * layer.in_channels * layer.kernel_size * layer.kernel_size


def _conv_forward_post(args, kwargs, result, _token):
    return {"flops": _conv_gemm_flops(args[0], result.size)}


def _conv_backward_pre(args, kwargs):
    from repro.nn.grad_mode import param_grads_enabled

    return bool(_arg(args, kwargs, 2, "param_grads", True)) and param_grads_enabled()


def _conv_backward_post(args, kwargs, result, weight_grads):
    # The input gradient is always one GEMM; the weight gradient is a
    # second contraction of the same size unless the scope skips it.
    gemm = _conv_gemm_flops(args[0], _arg(args, kwargs, 1, "grad_out").size)
    return {"flops": gemm * (2 if weight_grads else 1)}


def _journal_pre(args, kwargs):
    return os.fstat(args[0]._file.fileno()).st_size


def _journal_post(args, kwargs, result, size_before):
    return {"bytes": os.fstat(args[0]._file.fileno()).st_size - size_before}


def _checkpoint_post(args, kwargs, result, _token):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _plan_cohorts_post(args, kwargs, result, _token):
    return {"fused_clients": sum(len(c) for c in result if len(c) > 1)}


def _submit_group_post(args, kwargs, result, _token):
    if _arg(args, kwargs, 1, "tag") != "train":
        return {}
    return {"train_clients": len(_arg(args, kwargs, 3, "items"))}


#: (span name, module, function or Class.method, pre, post).  Names bound
#: with ``from x import f`` are rebound wherever they are looked up.
LAYERS: List[Tuple[str, str, str, Optional[Callable], Optional[Callable]]] = [
    ("nn.conv2d.forward", "repro.nn.conv", "Conv2d.forward", None, _conv_forward_post),
    ("nn.conv2d.backward", "repro.nn.conv", "Conv2d.backward",
     _conv_backward_pre, _conv_backward_post),
    ("nn.functional.im2col", "repro.nn.functional", "im2col", None, None),
    ("nn.functional.col2im", "repro.nn.functional", "col2im", None, None),
    ("nn.linear.forward", "repro.nn.linear", "Linear.forward", None, None),
    ("nn.linear.backward", "repro.nn.linear", "Linear.backward", None, None),
    ("nn.batchnorm2d.forward", "repro.nn.normalization", "BatchNorm2d.forward", None, None),
    ("nn.batchnorm2d.backward", "repro.nn.normalization", "BatchNorm2d.backward", None, None),
    ("nn.cohort.install_cohort", "repro.nn.cohort", "install_cohort", None, None),
    ("nn.cohort.extract_cohort", "repro.nn.cohort", "extract_cohort", None, None),
    ("optim.sgd.step", "repro.optim.sgd", "SGD.step", None, None),
    ("attacks.pgd.pgd_attack", "repro.attacks.pgd", "pgd_attack", None, None),
    ("attacks.pgd.cohort_pgd_attack", "repro.attacks.pgd", "cohort_pgd_attack", None, None),
    ("attacks.fgsm.fgsm_attack", "repro.attacks.fgsm", "fgsm_attack", None, None),
    ("attacks.autoattack.apgd_attack", "repro.attacks.autoattack", "apgd_attack", None, None),
    ("attacks.autoattack.auto_attack_lite", "repro.attacks.autoattack",
     "auto_attack_lite", None, None),
    ("core.cascade.cascade_local_train", "repro.core.cascade", "cascade_local_train",
     None, None),  # pre/post bound per run: they need the experiment's partition
    ("core.cascade.measure_output_perturbation", "repro.core.cascade",
     "measure_output_perturbation", None, None),
    ("core.prefix_cache.fetch", "repro.core.prefix_cache", "PrefixCache.fetch", None, None),
    ("core.prefix_cache.fetch_stacked", "repro.core.prefix_cache",
     "PrefixCache.fetch_stacked", None, None),
    ("core.aggregator.snapshot_segment", "repro.core.aggregator", "snapshot_segment",
     None, None),
    ("core.aggregator.restore_segment", "repro.core.aggregator", "restore_segment",
     None, None),
    ("core.aggregator.aggregate_modules", "repro.core.aggregator", "aggregate_modules",
     None, None),
    ("core.aggregator.aggregate_heads", "repro.core.aggregator", "aggregate_heads",
     None, None),
    ("core.aggregator.blend_into", "repro.core.aggregator", "blend_into", None, None),
    ("flsim.population.sample_round", "repro.flsim.base",
     "FederatedExperiment.sample_round", None, None),
    ("flsim.scheduler.submit_group", "repro.flsim.scheduler", "FLScheduler.submit_group",
     None, _submit_group_post),
    ("flsim.executor.plan_cohorts", "repro.flsim.executor", "RoundExecutor.plan_cohorts",
     None, _plan_cohorts_post),
    ("flsim.local.adversarial_local_train", "repro.flsim.local",
     "adversarial_local_train", None, None),
    ("flsim.local.cohort_adversarial_local_train", "repro.flsim.local",
     "cohort_adversarial_local_train", None, None),
    ("flsim.eval_executor.run", "repro.flsim.eval_executor", "EvalExecutor.run", None, None),
    ("flsim.aggregation.weighted_average_states", "repro.flsim.aggregation",
     "weighted_average_states", None, None),
    ("flsim.robust_agg.aggregate", "repro.flsim.robust_agg", "RobustAggregator.aggregate",
     None, None),
    ("flsim.robust_agg.coordinate_median", "repro.flsim.robust_agg", "coordinate_median",
     None, None),
    ("flsim.scheduler.pipeline.dispatch", "repro.flsim.scheduler",
     "CrossRoundPipeline.dispatch", None, None),
    ("flsim.scheduler.pipeline.advance_to", "repro.flsim.scheduler",
     "CrossRoundPipeline.advance_to", None, None),
    ("flsim.journal.append", "repro.flsim.journal", "RunJournal.append",
     _journal_pre, _journal_post),
    ("flsim.checkpoint.write_checkpoint", "repro.flsim.checkpoint", "write_checkpoint",
     None, _checkpoint_post),
]

SPAN_NAMES = [layer[0] for layer in LAYERS]

#: Layers whose byte counter is reported next to calls and self time.
BYTE_LAYERS = ("flsim.journal.append", "flsim.checkpoint.write_checkpoint")

#: Cascade modules of the ``prophet_cascade`` model (VGG11 x 0.25 on 8 px,
#: r_min 20 % of the full model): the per-module memory rows.
NUM_MODULES = 6

#: workload -> layers that must record calls there (the zero-count guard).
PREDICTED: Dict[str, Tuple[str, ...]] = {
    "prophet_cascade": (
        "nn.conv2d.forward", "nn.conv2d.backward", "nn.functional.im2col",
        "nn.functional.col2im", "nn.linear.forward", "nn.linear.backward",
        "nn.batchnorm2d.forward", "nn.batchnorm2d.backward", "optim.sgd.step",
        "core.cascade.cascade_local_train", "attacks.pgd.pgd_attack",
        "core.prefix_cache.fetch", "flsim.eval_executor.run",
        "attacks.autoattack.auto_attack_lite", "core.aggregator.aggregate_modules",
        "core.aggregator.aggregate_heads", "flsim.population.sample_round",
    ) + tuple(f"core.cascade.peak_alloc_mb.m{m}" for m in range(NUM_MODULES)),
    "jfat_fused": (
        "nn.conv2d.forward", "nn.conv2d.backward", "nn.functional.im2col",
        "nn.functional.col2im", "nn.linear.forward", "nn.linear.backward",
        "nn.batchnorm2d.forward", "nn.batchnorm2d.backward", "optim.sgd.step",
        "flsim.executor.plan_cohorts", "flsim.local.cohort_adversarial_local_train",
        "attacks.pgd.cohort_pgd_attack", "flsim.eval_executor.run",
        "attacks.autoattack.auto_attack_lite", "flsim.aggregation.weighted_average_states",
        "flsim.population.sample_round",
    ),
    "jfat_async_durable": (
        "nn.conv2d.forward", "nn.conv2d.backward", "nn.functional.im2col",
        "nn.functional.col2im", "nn.linear.forward", "nn.linear.backward",
        "nn.batchnorm2d.forward", "nn.batchnorm2d.backward", "optim.sgd.step",
        "flsim.local.adversarial_local_train", "attacks.pgd.pgd_attack",
        "flsim.eval_executor.run", "attacks.autoattack.auto_attack_lite",
        "flsim.robust_agg.coordinate_median", "flsim.journal.append",
        "flsim.checkpoint.write_checkpoint", "flsim.scheduler.pipeline.dispatch",
        "flsim.scheduler.pipeline.advance_to", "flsim.population.sample_round",
    ),
}

#: workload -> layers predicted to record no calls there today.  A call
#: is reported as a surprise, not a failure: a later change may move a
#: workload onto a layer (e.g. FedProphet onto the slab kernels).
ABSENT: Dict[str, Tuple[str, ...]] = {
    "prophet_cascade": (
        "nn.cohort.install_cohort", "attacks.pgd.cohort_pgd_attack",
        "flsim.local.cohort_adversarial_local_train", "flsim.journal.append",
        "flsim.checkpoint.write_checkpoint", "flsim.scheduler.pipeline.dispatch",
    ),
    "jfat_fused": (
        "core.cascade.cascade_local_train", "core.prefix_cache.fetch",
        "core.aggregator.aggregate_modules", "flsim.journal.append",
        "flsim.checkpoint.write_checkpoint", "flsim.scheduler.pipeline.dispatch",
    ),
    "jfat_async_durable": (
        "core.cascade.cascade_local_train", "core.prefix_cache.fetch",
        "core.aggregator.aggregate_modules", "flsim.local.cohort_adversarial_local_train",
    ),
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: Dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in BYTE_LAYERS:
        units[f"{name}.bytes"] = "B"
    units["nn.conv2d.gflops"] = "GFLOP/s"
    units["core.prefix_cache.hit_ratio"] = "ratio"
    units["flsim.executor.fused_share"] = "ratio"
    for m in range(NUM_MODULES):
        units[f"core.cascade.peak_alloc_mb.m{m}"] = "MB"
        units[f"hardware.memory.model_mb.m{m}"] = "MB"
    units["hardware.latency.sim_time_s"] = "s"
    units["trace.uncovered_share"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def zero_count_violations(workload: str, calls: Dict[str, float]) -> List[str]:
    """Predicted layers that recorded no calls on ``workload``."""
    return [name for name in PREDICTED[workload] if not calls.get(name)]


def surprises(workload: str, calls: Dict[str, float]) -> List[str]:
    """Layers predicted absent that recorded calls anyway."""
    return [name for name in ABSENT[workload] if calls.get(name)]


class LayerProbe:
    """Installs every layer wrapper and reduces one traced run to metrics."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.experiment = None
        #: module index -> (peak traced MB, MemoryModel MB), first call only.
        self.module_memory: Dict[int, Tuple[float, float]] = {}

    def install(self) -> None:
        for name, module, qualname, pre, post in LAYERS:
            if name == "core.cascade.cascade_local_train":
                pre, post = self._cascade_pre, self._cascade_post
            self.tracer.install(module, qualname, name, pre=pre, post=post)

    def bind(self, experiment) -> None:
        """The experiment whose partition maps cascade spans to modules."""
        self.experiment = experiment

    # tracemalloc slows every allocation, so it runs only for the first
    # cascade_local_train call of each module; its cost stays inside that
    # call and shows in the tracing overhead.
    def _cascade_pre(self, args, kwargs):
        spec = _arg(args, kwargs, 1, "spec")
        ranges = self.experiment.partition.ranges
        first = next(i for i, (start, _stop) in enumerate(ranges) if start == spec.start_atom)
        if first in self.module_memory or tracemalloc.is_tracing():
            return None
        last = next(i for i, (_start, stop) in enumerate(ranges) if stop == spec.stop_atom)
        tracemalloc.start()
        return first, last

    def _cascade_post(self, args, kwargs, result, token):
        if token is None:
            return {}
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        first, last = token
        model = self.experiment.cost_table.cost(first, last).mem_bytes
        self.module_memory[first] = (peak / MB, model / MB)
        return {}

    def metrics(self, windows: Sequence[Tuple[float, float]]) -> Dict[str, float]:
        """Per-layer metrics of the traced run (every name in :func:`metric_units`)."""
        table = self_times(self.tracer.spans)
        counters = self.tracer.counters
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            row = table.get(name, {"calls": 0, "self_s": 0.0})
            out[f"{name}.calls"] = row["calls"]
            out[f"{name}.self_s"] = row["self_s"]
        for name in BYTE_LAYERS:
            out[f"{name}.bytes"] = counters[name]["bytes"]
        conv_flops = counters["nn.conv2d.forward"]["flops"] + counters["nn.conv2d.backward"]["flops"]
        conv_s = out["nn.conv2d.forward.self_s"] + out["nn.conv2d.backward.self_s"]
        out["nn.conv2d.gflops"] = conv_flops / conv_s / 1e9 if conv_s > 0 else 0.0
        cache = getattr(self.experiment, "prefix_cache", None)
        out["core.prefix_cache.hit_ratio"] = cache.stats()["hit_rate"] if cache is not None else 0.0
        dispatched = counters["flsim.scheduler.submit_group"]["train_clients"]
        fused = counters["flsim.executor.plan_cohorts"]["fused_clients"]
        out["flsim.executor.fused_share"] = fused / dispatched if dispatched else 0.0
        for m in range(NUM_MODULES):
            peak, model = self.module_memory.get(m, (0.0, 0.0))
            out[f"core.cascade.peak_alloc_mb.m{m}"] = peak
            out[f"hardware.memory.model_mb.m{m}"] = model
        out["hardware.latency.sim_time_s"] = self.experiment.clock_s
        out["trace.uncovered_share"] = uncovered_share(windows, self.tracer.spans)
        return out
