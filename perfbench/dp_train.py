"""dp_train: data-parallel training of 3D MGDiffNet over the simulated
communicator (Sec. 3.2, Eq. 15).

Unit of work: a fresh ``DataParallelTrainer`` (world size 2, global
batch 4, 16^3) trained for a fixed number of epochs.  Each step runs the
training layers on two local batches, then ``flatten_gradients``, a ring
all-reduce, ``unflatten_to_gradients`` and, per epoch, a BN-stat sync.
As in mg_train, the units take turns among a few seeded initialisations
and the held-out error averages over one model of each.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from repro import MGDiffNet, PoissonProblem3D
from repro.autograd import Tensor
from repro.core.inference import predict_batch
from repro.data import DiffusivityDataset
from repro.distributed import DataParallelTrainer, DPConfig, RingStats
from repro.distributed import data_parallel
from repro.distributed.comm import SimulatedCommunicator
from repro.optim import Adam, Optimizer
from repro.perf import BRIDGES2_CPU, measure_sample_time, ring_allreduce_time

from common import (HELD_OUT, TRAIN, Outcome, check, end_to_end,
                    rel_l2, run_units, seeded_omegas, timed_setup)
from tracing import OpTrace, Timers


@dataclass(frozen=True)
class Config:
    resolution: int = 16
    world_size: int = 2
    batch: int = 4               # global
    samples: int = 16
    epochs: int = 2
    held_out: int = 4
    inits: int = 8               # the units take turns among these
    base_filters: int = 8
    depth: int = 2
    lr: float = 1e-3


TINY = Config(resolution=8, samples=8, epochs=1, held_out=2, inits=2,
              base_filters=4)


def comm_time(message_bytes: int, world_size: int) -> float:
    """Virtual-clock cost of a collective on the paper's CPU cluster."""
    return ring_allreduce_time(message_bytes, world_size, BRIDGES2_CPU)


class Workload:
    def __init__(self, cfg: Config, seed: int) -> None:
        self.cfg, self.seed = cfg, seed
        self.problem = PoissonProblem3D(cfg.resolution)
        self.dataset = DiffusivityDataset(
            self.problem.field, cfg.samples,
            omegas=seeded_omegas(self.problem, cfg.samples, seed, TRAIN))
        self.dataset.inputs_at(cfg.resolution)
        self.dataset.nu_at(cfg.resolution)
        self.dp_cfg = DPConfig(world_size=cfg.world_size,
                               batch_size=cfg.batch, lr=cfg.lr, seed=seed)
        warm = self.trainer()
        warm.train_epochs(cfg.resolution, 1)

    def model(self, init: int = 0) -> MGDiffNet:
        return MGDiffNet(ndim=3, base_filters=self.cfg.base_filters,
                         depth=self.cfg.depth,
                         rng=self.cfg.inits * self.seed + init)

    def trainer(self, init: int = 0) -> DataParallelTrainer:
        return DataParallelTrainer(lambda: self.model(init), self.problem,
                                   self.dataset, self.dp_cfg,
                                   comm_time_model=comm_time)


def check_run(losses: list, replicas, reference: float | None) -> None:
    """Keyed checks on one data-parallel training run."""
    check(all(np.isfinite(losses)), "dp_train.loss_finite",
          f"non-finite training loss in {losses}")
    ref = replicas[0].state_dict()
    for rank, rep in enumerate(replicas[1:], start=1):
        for key, value in rep.state_dict().items():
            check(np.array_equal(value, ref[key]), "dp_train.replica_sync",
                  f"rank {rank} differs from rank 0 at {key!r}")
    check(reference is None or losses[-1] == reference,
          "dp_train.deterministic",
          f"final loss {losses[-1]!r} differs from {reference!r}, that "
          "of the last run from the same initialisation")


def run(cfg: Config, seed: int, seconds: float, trace: bool) -> Outcome:
    wl, setup_s = timed_setup(lambda: Workload(cfg, seed))
    problem = wl.problem
    omegas = seeded_omegas(problem, cfg.held_out, seed, HELD_OUT)
    refs = [problem.fem_solve(w, method="cg") for w in omegas]

    final_loss, trained, last = [], [], []

    def unit():
        k = len(final_loss)
        dp = wl.trainer(k % cfg.inits)
        res = dp.train_epochs(cfg.resolution, cfg.epochs)
        check_run(res.losses, dp.replicas,
                  final_loss[k - cfg.inits] if k >= cfg.inits else None)
        final_loss.append(res.losses[-1])
        if k < cfg.inits:
            trained.append(dp.model)
        last[:] = [dp, res]

    walls = run_units(unit, seconds / 2 if trace else seconds,
                      min_units=cfg.inits)
    dp, res = last
    error = float(np.mean([rel_l2(p, r) for model in trained
                           for p, r in zip(predict_batch(model, problem,
                                                         omegas), refs)]))
    check(np.isfinite(error) and 0.0 < error < 1.0, "dp_train.rel_l2",
          f"held-out relative L2 error {error} outside (0, 1)")
    out = Outcome(attempted=len(walls), failed=0)
    out.metrics = end_to_end(setup_s, walls, 1.0, error)
    samples = len(dp.dataset) * cfg.epochs
    median = statistics.median(walls)
    out.notes.append(
        f"dp_train: {len(walls)} runs of {res.steps} steps, median "
        f"{median:.3f} s ({samples / median:.1f} samples/s), final loss "
        f"{final_loss[0]:.6g}, held-out rel L2 {error:.4f}")
    if not trace:
        return out

    # Compute and the virtual clock come from the last untraced run.
    rank_compute = res.virtual_compute_seconds / res.steps
    virtual = (res.virtual_compute_seconds, res.virtual_epoch_seconds)
    local_batch = cfg.batch // cfg.world_size
    t_sample = measure_sample_time(wl.model(), problem, cfg.resolution,
                                   batch_size=local_batch)
    timers = Timers([
        (MGDiffNet, "__call__", "nn.fwd_s"),
        (Tensor, "backward", "autograd.backward_s"),
        (Adam, "step", "optim.step_s"),
        (Optimizer, "zero_grad", "optim.zero_grad_s"),
        (SimulatedCommunicator, "allreduce", "dp.allreduce_s"),
        (data_parallel, "flatten_gradients", "dp.flatten_s"),
        (data_parallel, "unflatten_to_gradients", "dp.unflatten_s"),
        (DataParallelTrainer, "_sync_bn_stats", "dp.bn_sync_s")])
    with timers, OpTrace() as ops:
        traced = run_units(unit, seconds / 2)
    n = len(traced)
    layers = ops.layer_metrics(n)
    layers.update({k: v / n for k, v in timers.seconds.items()})
    dp, res = last
    log = dp.comm.log
    n_params = dp.model.num_weights
    # flatten_gradients fuses the gradients into one float64 vector.
    theory = RingStats(cfg.world_size, n_params,
                       np.dtype(np.float64).itemsize).theoretical_bytes_per_rank
    comm_s = sum(timers.seconds[k] for k in (
        "dp.allreduce_s", "dp.flatten_s", "dp.unflatten_s",
        "dp.bn_sync_s")) / n
    layers.update({
        "dp.compute_s": virtual[0],
        "dp.allreduce_calls": log.allreduce_calls,
        "dp.allreduce_mb": log.allreduce_bytes / 2 ** 20,
        "dp.allreduce_vs_ring": (log.allreduce_bytes / log.allreduce_calls
                                 / cfg.world_size) / theory,
        "dp.comm_share": comm_s / statistics.median(traced),
        "dp.virtual_epoch_s": virtual[1],
        "dp.model_ratio": t_sample * local_batch / rank_compute,
        "dp.samples_per_s": samples / median,
        "dp.final_loss": final_loss[0],
        "trace.overhead": statistics.median(traced) / median,
    })
    out.layers = layers
    out.attempted += n
    return out
