"""Joint Federated Adversarial Training (Zizzo et al., 2020).

FedAvg where every client adversarially trains the *whole* model
end-to-end.  Clients whose available memory is below the model's training
requirement fall back to memory swapping, whose data-access latency the
hardware model charges (this is the slow-but-accurate upper-bound method
in Table 2 / Fig. 7).

jFAT is also the reference algorithm for **staleness-bounded
asynchronous aggregation** (``aggregation_mode="async"``): because its
aggregation is plain full-model FedAvg, client updates can merge into a
separate server state as they land — in *simulated*-arrival order (the
latency model's per-device cost, not wall-clock scheduling), so the
result is deterministic and seed-reproducible at any worker count.  The
merge schedule coalesces each round's tail so no update ever merges with
an intra-round lag above ``max_staleness``; ``max_staleness=0`` with
``pipeline_depth=1`` degenerates to exactly synchronous FedAvg.  With
``pipeline_depth>1`` the generic cross-round pipeline
(:meth:`repro.flsim.base.FederatedExperiment._run_async`) additionally
dispatches the next round's fast clients against the latest merged
server state while this round's stragglers are still training.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.attacks.pgd import PGDConfig
from repro.core.aggregator import restore_segment, snapshot_segment
from repro.flsim.base import (
    AsyncMergeEvent,
    FederatedExperiment,
    FLClient,
    FLConfig,
)
from repro.flsim.executor import CohortFn
from repro.flsim.local import adversarial_local_train, cohort_adversarial_local_train
from repro.nn.cohort import clear_cohort, extract_cohort, install_cohort
from repro.hardware.devices import DeviceSampler, DeviceState
from repro.hardware.flops import training_flops_per_iteration
from repro.hardware.latency import LatencyModel, LocalTrainingCost
from repro.hardware.memory import MemoryModel
from repro.models.atoms import CascadeModel

__all__ = ["JointFAT", "AsyncMergeEvent"]


class JointFAT(FederatedExperiment):
    """End-to-end FAT with FedAvg aggregation."""

    name = "jfat"
    supports_async_aggregation = True

    def __init__(
        self,
        task,
        model_builder: Callable[[np.random.Generator], CascadeModel],
        config: FLConfig,
        device_sampler: Optional[DeviceSampler] = None,
        latency_model: Optional[LatencyModel] = None,
    ):
        super().__init__(task, model_builder, config, device_sampler, latency_model)
        mem = MemoryModel(batch_size=config.batch_size)
        self.mem_req = mem.bytes_for(self.global_model, self.global_model.in_shape)
        self.flops_per_iter = training_flops_per_iteration(
            self.global_model,
            self.global_model.in_shape,
            batch_size=config.batch_size,
            pgd_steps=config.train_pgd_steps,
        )

    def _train_client_fn(
        self,
        round_idx: int,
        global_snap: Dict[str, np.ndarray],
        slot_model: Optional[Callable[[int], CascadeModel]] = None,
    ) -> Callable:
        """The slot-aware work unit shared by the sync and async rounds.

        The per-client latency cost is pure arithmetic over the device
        state, so both modes compute it once up front (async needs it
        *before* training to order arrivals) and the work unit returns
        the trained state only.  ``slot_model`` maps a slot to its model
        workspace: the sync round trains on the regular slot models (slot
        0 is the global model); the async pipeline passes
        ``_async_slot_model`` so concurrent rounds never touch the live
        model.  Training is a pure function of (``global_snap``, the
        client's shard, a counter-derived RNG) — bit-identical on every
        backend.
        """
        cfg = self.config
        get_model = slot_model if slot_model is not None else self._slot_model
        num_atoms = len(self.global_model.atoms)
        pgd = PGDConfig(eps=cfg.eps0, steps=cfg.train_pgd_steps, norm="linf")
        lr_t = self.lr_at(round_idx)

        def train_client(item, slot):
            client, _dev = item
            model = get_model(slot)
            restore_segment(model, global_snap, 0, num_atoms)
            adversarial_local_train(
                model,
                client.dataset,
                iterations=cfg.local_iters,
                batch_size=cfg.batch_size,
                lr=lr_t,
                pgd=pgd,
                momentum=cfg.momentum,
                weight_decay=cfg.weight_decay,
                rng=self._client_rng(round_idx, client.cid),
            )
            return snapshot_segment(model, 0, num_atoms)

        def train_cohort(items, slot):
            # K fused clients: stack K copies of the round base into
            # per-parameter slabs and run one stacked trainer pass.  Each
            # client keeps its own RNG/loader stream, and the kernels
            # reduce over each client's axes of the (K, B, ...) view,
            # never across K — bit-identical to K train_client calls
            # (see repro.nn.cohort).
            model = get_model(slot)
            try:
                install_cohort(model, [global_snap] * len(items))
                cohort_adversarial_local_train(
                    model,
                    [client.dataset for client, _dev in items],
                    iterations=cfg.local_iters,
                    batch_size=cfg.batch_size,
                    lr=lr_t,
                    pgd=pgd,
                    momentum=cfg.momentum,
                    weight_decay=cfg.weight_decay,
                    rngs=[
                        self._client_rng(round_idx, client.cid)
                        for client, _dev in items
                    ],
                )
                return extract_cohort(model)
            finally:
                clear_cohort(model)

        def fuse_key(item):
            # Fusion needs aligned batch schedules: the loader's epoch
            # permutation and per-iteration batch sizes are a pure function
            # of (shard size, effective batch size), so equal keys mean
            # every fused iteration concatenates K equal-size batches.
            client, _dev = item
            n = client.num_samples
            return (n, min(cfg.batch_size, n))

        return CohortFn(train_client, train_cohort, group_key=fuse_key)

    def run_round(
        self,
        round_idx: int,
        clients: List[FLClient],
        states: List[Optional[DeviceState]],
    ) -> List[LocalTrainingCost]:
        self._assert_sync_round()
        num_atoms = len(self.global_model.atoms)
        # jFAT trains the whole model, so the "segment" snapshot spans every
        # atom; each work unit restores it in place on its slot's workspace.
        global_snap = snapshot_segment(self.global_model, 0, num_atoms)
        local_states = self.scheduler.run_group(
            "train",
            self._threat_wrap(
                round_idx, self._train_client_fn(round_idx, global_snap), global_snap
            ),
            list(zip(clients, states)),
        )
        weights = [float(client.num_samples) for client in clients]
        # the merge covers every key, so no restore of the round snapshot needed
        self.global_model.load_state_dict(
            self.robust_aggregate(local_states, weights, base=global_snap)
        )
        return [self._cost(dev) for dev in states]

    # -- asynchronous aggregation hooks ------------------------------------
    def async_client_fn(self, round_idx: int, base_state) -> Callable:
        return self._train_client_fn(
            round_idx, base_state, slot_model=self._async_slot_model
        )

    def async_client_costs(self, round_idx, clients, states):
        return [self._cost(dev) for dev in states]

    def _cost(self, state: Optional[DeviceState]) -> LocalTrainingCost:
        if state is None:
            return LocalTrainingCost(0.0, 0.0)
        return self.latency_model.local_training_cost(
            state,
            training_flops=self.flops_per_iter,
            mem_req_bytes=self.mem_req,
            iterations=self.config.local_iters,
            pgd_steps=self.config.train_pgd_steps,
        )
