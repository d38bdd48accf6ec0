"""mg_train: Half-V multigrid training of 3D MGDiffNet (the paper's
headline path, Table 1 / Fig. 7), then validation against FEM.

Unit of work: one full Half-V schedule (8^3 -> 16^3 -> 32^3) from a fresh,
seeded model, a fixed number of epochs per visit and early stopping off,
so every unit does identical work.  The units take turns among a few
seeded initialisations; a unit ends at the bitwise-identical loss of the
unit one turn before it.  The held-out error averages over the first
model of each initialisation: one initialisation alone moves it by ~10%
between seeds.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from repro import MGDiffNet, MGTrainConfig, MultigridTrainer, PoissonProblem3D
from repro.autograd import Tensor
from repro.core.inference import predict_batch
from repro.data import DiffusivityDataset
from repro.optim import Adam, Optimizer

from common import (HELD_OUT, TRAIN, Outcome, check, end_to_end,
                    rel_l2, run_units, seeded_omegas, timed_setup)
from tracing import OpTrace, Timers


@dataclass(frozen=True)
class Config:
    resolution: int = 32
    levels: int = 3
    samples: int = 8
    batch: int = 2
    epochs: int = 1          # per schedule visit
    held_out: int = 4
    inits: int = 8           # the units take turns among these
    base_filters: int = 8
    depth: int = 2
    lr: float = 1e-3


TINY = Config(resolution=16, samples=4, held_out=2, inits=2,
              base_filters=4)


class Workload:
    def __init__(self, cfg: Config, seed: int) -> None:
        self.cfg, self.seed = cfg, seed
        self.problem = PoissonProblem3D(cfg.resolution)
        self.dataset = DiffusivityDataset(
            self.problem.field, cfg.samples,
            omegas=seeded_omegas(self.problem, cfg.samples, seed, TRAIN))
        self.train_cfg = MGTrainConfig(
            batch_size=cfg.batch, lr=cfg.lr, seed=seed,
            restriction_epochs=cfg.epochs, max_epochs_per_level=cfg.epochs,
            min_epochs=cfg.epochs, patience=cfg.epochs + 1)
        warm = self.trainer()
        for level in range(1, cfg.levels + 1):
            self._warm_step(warm, warm.hierarchy.resolution(level))

    def model(self, init: int = 0) -> MGDiffNet:
        return MGDiffNet(ndim=3, base_filters=self.cfg.base_filters,
                         depth=self.cfg.depth,
                         rng=self.cfg.inits * self.seed + init)

    def trainer(self, init: int = 0) -> MultigridTrainer:
        return MultigridTrainer(self.model(init), self.problem, self.dataset,
                                strategy="half_v", levels=self.cfg.levels,
                                config=self.train_cfg)

    def _warm_step(self, mg: MultigridTrainer, resolution: int) -> None:
        """One step per level fills plan caches and the buffer pool."""
        x = self.dataset.inputs_at(resolution)[:self.cfg.batch]
        nu = self.dataset.nu_at(resolution)[:self.cfg.batch]
        chi_int, u_bc = self.problem.masks(resolution, dtype=x.dtype)
        loss = self.problem.energy(resolution)(
            mg.model(Tensor(x), chi_int, u_bc), nu)
        loss.backward()


def check_schedule(losses: list, reference: float | None) -> None:
    """Keyed checks on one schedule's per-epoch losses."""
    check(all(np.isfinite(losses)), "mg_train.loss_finite",
          f"non-finite training loss in {losses}")
    check(reference is None or losses[-1] == reference,
          "mg_train.deterministic",
          f"final loss {losses[-1]!r} differs from {reference!r}, that "
          "of the last schedule from the same initialisation")


def check_trained(before: list, after: list) -> None:
    """Keyed checks on the held-out error against FEM of each
    initialisation's model: a sane relative error that training lowered.

    The error, not the finest-level loss, is compared: after the ~20 steps
    of one schedule the norm layers' running statistics have barely moved,
    so for some initialisations the eval-mode loss stays flat while the
    error falls by 10% or more.
    """
    for k, (start, end) in enumerate(zip(before, after)):
        check(np.isfinite(end) and 0.0 < end < 1.0, "mg_train.rel_l2",
              f"initialisation {k}: held-out relative L2 error {end} "
              "outside (0, 1)")
        check(end < start, "mg_train.error_decrease",
              f"initialisation {k}: held-out relative L2 error {end} after "
              f"training not below {start} before")


def run(cfg: Config, seed: int, seconds: float, trace: bool) -> Outcome:
    wl, setup_s = timed_setup(lambda: Workload(cfg, seed))
    problem = wl.problem
    omegas = seeded_omegas(problem, cfg.held_out, seed, HELD_OUT)
    refs = [problem.fem_solve(w, method="cg") for w in omegas]

    trained, final_loss, per_level, l1_epochs = [], [], [], []

    def unit():
        k = len(final_loss)
        mg = wl.trainer(k % cfg.inits)
        res = mg.train()
        losses = [l for rec in res.records for l in rec.result.losses]
        check_schedule(losses,
                       final_loss[k - cfg.inits] if k >= cfg.inits else None)
        final_loss.append(losses[-1])
        if k < cfg.inits:
            trained.append(mg.model)
        per_level.append(res.time_per_level())
        l1_epochs.extend(t for rec in res.records if rec.level == 1
                         for t in rec.result.epoch_times)

    span = seconds / 2 if trace else seconds
    walls = run_units(unit, span, min_units=cfg.inits)
    out = Outcome(attempted=len(walls), failed=0)

    def held_out(model) -> float:
        return float(np.mean([rel_l2(p, r) for p, r in zip(
            predict_batch(model, problem, omegas), refs)]))

    # A unit ends where the unit one turn before it ended, so checking
    # the first turn checks all.
    after = [held_out(model) for model in trained]
    check_trained([held_out(wl.model(k)) for k in range(cfg.inits)], after)
    error = float(np.mean(after))
    out.metrics = end_to_end(setup_s, walls, 1.0, error)
    out.notes.append(
        f"mg_train: {len(walls)} schedules, median "
        f"{statistics.median(walls):.3f} s, final loss {final_loss[0]:.6g}, "
        f"held-out rel L2 {error:.4f} on {len(omegas)} ω x "
        f"{cfg.inits} initialisations")
    if not trace:
        return out

    level_s = {lv: statistics.median(p[lv] for p in per_level)
               for lv in range(1, cfg.levels + 1)}
    steps = -(-cfg.samples // cfg.batch)
    step_l1_ms = 1e3 * statistics.median(l1_epochs) / steps
    timers = Timers([(MGDiffNet, "__call__", "nn.fwd_s"),
                     (Tensor, "backward", "autograd.backward_s"),
                     (Adam, "step", "optim.step_s"),
                     (Optimizer, "zero_grad", "optim.zero_grad_s")])
    with timers, OpTrace() as ops:
        traced = run_units(unit, seconds / 2)
    n = len(traced)
    layers = ops.layer_metrics(n)
    layers.update({k: v / n for k, v in timers.seconds.items()})
    layers.update({f"level.{lv}_s": s for lv, s in level_s.items()})
    layers["level.1_share"] = level_s[1] / sum(level_s.values())
    layers["step.L1_ms"] = step_l1_ms
    layers["train.final_loss"] = final_loss[0]
    layers["trace.overhead"] = (statistics.median(traced)
                                / statistics.median(walls))
    out.layers = layers
    out.attempted += n
    return out
