"""The three federated-adversarial-training workloads.

Each workload turns a seed into a task and a config, builds the experiment
the way a user of the library would, and says how much work one run is.
The program sees only the generated task and config; the seed picks the
synthetic data, the client sampling and the device draws.

* ``prophet_cascade`` — the paper's method: FedProphet Algorithm 2
  through every cascade module.  Most of its time is feature-space PGD in
  ``core.cascade``, the prefix cache and the per-round ``cascade_eval``.
  It bypasses the slab kernels of ``nn.cohort`` (FedProphet falls back to
  per-item execution).
* ``jfat_fused`` — the many-small-clients regime: jFAT, 16 clients per
  round at batch 4 on a small CNN, the ``batched`` backend at fusion
  width 8.  Per-call overhead dominates and the slab kernels do the
  work; the cascade, the prefix cache, APA/DMA and durability code never
  run.
* ``jfat_async_durable`` — the round engine's other mode: async
  aggregation at ``pipeline_depth=2`` / ``max_staleness=2`` with
  ``median`` aggregation, a journal, a checkpoint every round and
  periodic eval, so the cross-round pipeline, robust aggregation and the
  write path run beside training.

Every workload is a closed loop (each round waits for the previous one)
on the serial or 1-worker batched backend: one process, no thread pools.
Per-seed work is fixed — FedProphet's early stop is disabled by a
patience equal to the per-module round cap — so timings compare across
seeds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional

#: The seed space every workload draws from (``numpy`` seeds must be >= 0).
SEED_SPACE = 2**31


@dataclass
class Built:
    """One constructed run: the experiment and how much work it plans."""

    experiment: object
    rounds: int
    evals: int  # per-round / periodic eval calls run() will make
    samples_per_round: int  # cohort x local iters x batch
    journal_path: Optional[str] = None
    #: Builds a fresh experiment with the same config for journal replay.
    rebuild: Optional[Callable[[str], object]] = None


def _task(seed: int, train_per_class: int, test_per_class: int):
    from repro.data import make_cifar10_like

    return make_cifar10_like(
        image_size=8, train_per_class=train_per_class,
        test_per_class=test_per_class, seed=seed,
    )


def _vgg(rng):
    from repro.models import build_vgg

    return build_vgg("vgg11", 10, (3, 8, 8), width_mult=0.25, rng=rng)


def _small_cnn(rng):
    from repro.models import build_cnn

    return build_cnn(3, num_classes=10, in_shape=(3, 8, 8), base_channels=8, rng=rng)


def _devices(skew: str):
    from repro.hardware import DeviceSampler, device_pool

    return DeviceSampler(device_pool("cifar10"), skew)


def build_prophet_cascade(seed: int, workdir: str) -> Built:
    from repro.core import FedProphet, FedProphetConfig

    rounds_per_module = 3
    cfg = FedProphetConfig(
        num_clients=20, clients_per_round=4, local_iters=3, batch_size=16,
        lr=0.05, rounds=10_000, train_pgd_steps=2, eval_pgd_steps=3,
        eval_every=0, seed=seed, rounds_per_module=rounds_per_module,
        patience=rounds_per_module, r_min_fraction=0.2, val_samples=32,
        val_pgd_steps=2, use_apa=True, use_dma=True, use_prefix_cache=True,
        executor_backend="serial",
    )
    exp = FedProphet(_task(seed, 40, 10), _vgg, cfg, device_sampler=_devices("balanced"))
    rounds = len(exp.partition) * rounds_per_module
    return Built(
        experiment=exp, rounds=rounds, evals=rounds,
        samples_per_round=cfg.clients_per_round * cfg.local_iters * cfg.batch_size,
    )


def build_jfat_fused(seed: int, workdir: str) -> Built:
    from repro.baselines import JointFAT
    from repro.flsim import FLConfig

    cfg = FLConfig(
        num_clients=16, clients_per_round=16, local_iters=4, batch_size=4,
        lr=0.05, rounds=8, train_pgd_steps=2, eval_pgd_steps=3, eval_every=0,
        seed=seed, executor_backend="batched", round_parallelism=1,
        fusion_width=8,
    )
    exp = JointFAT(_task(seed, 16, 10), _small_cnn, cfg, device_sampler=_devices("balanced"))
    return Built(
        experiment=exp, rounds=cfg.rounds, evals=0,
        samples_per_round=cfg.clients_per_round * cfg.local_iters * cfg.batch_size,
    )


def build_jfat_async_durable(seed: int, workdir: str) -> Built:
    from repro.baselines import JointFAT
    from repro.flsim import FLConfig

    def config(journal_path: str) -> "FLConfig":
        return FLConfig(
            num_clients=40, clients_per_round=8, local_iters=3, batch_size=8,
            lr=0.05, rounds=6, train_pgd_steps=2, eval_pgd_steps=3,
            eval_every=2, eval_max_samples=32, seed=seed,
            executor_backend="serial", aggregation_mode="async",
            pipeline_depth=2, max_staleness=2, aggregation_rule="median",
            journal_path=journal_path, checkpoint_every=1,
        )

    def make(journal_path: str):
        return JointFAT(
            _task(seed, 40, 10), _small_cnn, config(journal_path),
            device_sampler=_devices("unbalanced"),
        )

    journal = os.path.join(workdir, "run", "journal.jsonl")
    exp = make(journal)
    cfg = exp.config
    return Built(
        experiment=exp, rounds=cfg.rounds, evals=cfg.rounds // cfg.eval_every,
        samples_per_round=cfg.clients_per_round * cfg.local_iters * cfg.batch_size,
        journal_path=journal, rebuild=make,
    )


#: name -> builder.  Other changes and documents refer to these names.
WORKLOADS: Dict[str, Callable[[int, str], Built]] = {
    "prophet_cascade": build_prophet_cascade,
    "jfat_fused": build_jfat_fused,
    "jfat_async_durable": build_jfat_async_durable,
}
