"""field_solve: one full field for a new ω, two ways (Sec. 4.3).

Unit of work: one ω answered by a geometric-multigrid FEM solve (fresh
assembly, hierarchy set-up and V-cycles to 1e-9, as a new ω pays all
three) and by a streamed tiled network forward at 64^3 (tile 32, the
receptive-field halo, 8 tiles).  No backward pass, optimizer or queue.

The ω box is [-1, 1]^4: the textbook GMG (damped Jacobi, rediscretized
coarse operators) stalls or diverges on part of the full [-3, 3]^4 box,
whose diffusivity contrast reaches 1e18.  The GMG grid is 33^3: at 65^3
one ω costs ~4 s and its cycle count varies 9-22 across ω, too slow to
average over enough ω in one run.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from repro import MGDiffNet, PoissonProblem3D
from repro.core.inference import predict_batch
from repro.fem import gmg
from repro.fem.gmg import GeometricMultigrid
from repro.serve import stream_tiled_predict, tiled_predict
from repro.serve.tiling import plan_tiles, receptive_halo

from common import (FIELDS, Outcome, check, end_to_end, rel_l2,
                    run_units, seeded_omegas, timed_setup)
from tracing import OpTrace, Timers


@dataclass(frozen=True)
class Config:
    fem_resolution: int = 33
    resolution: int = 64
    tile: int = 32
    omega_box: float = 1.0
    tol: float = 1e-9
    max_cycles: int = 100
    min_fields: int = 8          # rel_l2 averages over these first ω
    models: int = 8              # the first ω each get their own
    base_filters: int = 8
    depth: int = 2


TINY = Config(fem_resolution=17, resolution=32, tile=16, min_fields=2,
              models=2, base_filters=4)


class Workload:
    def __init__(self, cfg: Config, seed: int) -> None:
        self.cfg = cfg
        self.problem = PoissonProblem3D(
            cfg.resolution, omega_range=(-cfg.omega_box, cfg.omega_box))
        # The networks are untrained, so their error against FEM depends
        # on the initialisation: cycling through a few averages that out.
        self.models = [MGDiffNet(ndim=3, base_filters=cfg.base_filters,
                                 depth=cfg.depth, rng=cfg.models * seed + k)
                       for k in range(cfg.models)]
        self.halo = receptive_halo(self.models[0])
        r = cfg.fem_resolution
        self.grid, self.bc = self.problem.grid(r), self.problem.bc(r)
        # Every tile has the same padded shape: one tile warms the plans.
        omega = np.zeros(self.problem.field.m)
        for _ in self.stream(self.models[0], omega, tiles=[0]):
            pass

    def stream(self, model, omega, tiles=None):
        return stream_tiled_predict(model, self.problem, omega,
                                    resolution=self.cfg.resolution,
                                    tile=self.cfg.tile, halo=self.halo,
                                    tiles=tiles)

    def solve(self, omega):
        nu = self.problem.nu(omega, self.cfg.fem_resolution)
        solver = GeometricMultigrid(self.grid, nu, self.bc)
        u = solver.solve(tol=self.cfg.tol, max_cycles=self.cfg.max_cycles)
        return u, solver


def halo_ratio(shape, tile: int, halo: int, multiple: int) -> float:
    """Padded voxels computed per core voxel delivered."""
    plan = plan_tiles(shape, tile, halo, multiple)
    padded = sum(math.prod(min(s, b + halo) - max(0, a - halo)
                           for (a, b), s in zip(block, shape))
                 for block in plan.blocks)
    return padded / math.prod(shape)


def check_gmg(report, tol: float) -> None:
    check(report.converged and report.residual <= tol,
          "field_solve.gmg_converged",
          f"GMG stopped after {report.iterations} cycles at relative "
          f"residual {report.residual:.3e} (tol {tol:.0e})")


def check_stream(streamed, tiled, untiled) -> None:
    check(np.array_equal(streamed, tiled), "field_solve.stream_exact",
          "streamed field differs from tiled_predict")
    diff = float(np.max(np.abs(streamed - untiled)))
    check(diff <= 1e-5, "field_solve.tiled_vs_untiled",
          f"tiled field differs from predict_batch by {diff:.2e} > 1e-5")


def run(cfg: Config, seed: int, seconds: float, trace: bool) -> Outcome:
    wl, setup_s = timed_setup(lambda: Workload(cfg, seed))
    problem, shape = wl.problem, (cfg.resolution,) * 3
    fem_axes = wl.grid.axes
    net_points = np.stack(np.meshgrid(*problem.grid(cfg.resolution).axes,
                                      indexing="ij"), axis=-1)
    omegas = iter(seeded_omegas(problem, 1024, seed, FIELDS))
    turn = itertools.count()     # picks the model that answers each ω

    def measure(span: float) -> list:
        rows = []

        def unit():
            omega = next(omegas)
            model = wl.models[next(turn) % len(wl.models)]
            t0 = time.perf_counter()
            u_fem, solver = wl.solve(omega)
            t1 = time.perf_counter()
            field = np.empty(shape, dtype=np.float32)
            stamps = []
            for _, core_slices, core in wl.stream(model, omega):
                field[core_slices] = core[0]
                stamps.append(time.perf_counter())
            t2 = time.perf_counter()
            check_gmg(solver.last_report, cfg.tol)
            fem_on_net = RegularGridInterpolator(fem_axes, u_fem)(net_points)
            rows.append({"omega": omega, "model": model,
                         "fem": t1 - t0, "infer": t2 - t1,
                         "first": stamps[0] - t1,
                         "tiles": np.diff([t1] + stamps),
                         "report": solver.last_report,
                         "levels": solver.num_levels,
                         "field": None if rows else field,
                         "error": rel_l2(field, fem_on_net)})

        walls = run_units(unit, span, min_units=cfg.min_fields)
        for row, wall in zip(rows, walls):
            row["wall"] = wall
        return rows

    rows = measure(seconds / 2 if trace else seconds)
    first = rows[0]
    check_stream(first["field"],
                 tiled_predict(first["model"], problem, first["omega"],
                               resolution=cfg.resolution, tile=cfg.tile,
                               halo=wl.halo)[0],
                 predict_batch(first["model"], problem, first["omega"])[0])
    walls = [r["wall"] for r in rows]
    error = float(np.mean([r["error"] for r in rows[:cfg.min_fields]]))
    out = Outcome(attempted=len(rows), failed=0)
    out.metrics = end_to_end(setup_s, walls, 1.0, error)
    med = statistics.median
    out.notes.append(
        f"field_solve: {len(rows)} ω, median {med(walls):.3f} s "
        f"(GMG {med(r['fem'] for r in rows):.3f} s in "
        f"{med(r['report'].iterations for r in rows)} cycles, streamed "
        f"{cfg.resolution}^3 inference {med(r['infer'] for r in rows):.3f} "
        f"s), network vs FEM rel L2 {error:.4f}")
    if not trace:
        return out

    timers = Timers([
        (gmg, "assemble_stiffness", "gmg.assembly_s"),
        (GeometricMultigrid, "__init__", "gmg.init_s"),
        (GeometricMultigrid, "solve", "gmg.cycles_s")])
    with timers, OpTrace() as ops:
        traced = measure(seconds / 2)
    n = len(traced)
    layers = ops.layer_metrics(n)
    t = {k: v / n for k, v in timers.seconds.items()}
    cycles = sum(r["report"].iterations for r in traced)
    factors = [(r["report"].residual_history[-1]
                / r["report"].residual_history[0])
               ** (1.0 / max(r["report"].iterations, 1)) for r in traced]
    tiles = np.concatenate([r["tiles"] for r in traced])
    layers.update({
        "fem.solve_s": med(r["fem"] for r in rows),
        "fem.cycles": med(r["report"].iterations for r in rows),
        "infer.field_s": med(r["infer"] for r in rows),
        "infer.first_tile_s": med(r["first"] for r in rows),
        "gmg.assembly_s": t["gmg.assembly_s"],
        "gmg.setup_s": t["gmg.init_s"] - t["gmg.assembly_s"],
        "gmg.cycles_s": t["gmg.cycles_s"],
        "gmg.per_cycle_ms": 1e3 * timers.seconds["gmg.cycles_s"] / cycles,
        "gmg.conv_factor": float(np.mean(factors)),
        "gmg.levels": traced[0]["levels"],
        "tile.count": len(traced[0]["tiles"]),
        "tile.halo_ratio": halo_ratio(shape, cfg.tile, wl.halo,
                                      2 ** cfg.depth),
        "tile.compute_ms": 1e3 * float(np.median(tiles)),
        "tile.first_s": med(r["first"] for r in traced),
        "trace.overhead": med(r["wall"] for r in traced) / med(walls),
    })
    out.layers = layers
    out.attempted += n
    return out
