"""Shared plumbing of the repository benchmark: set-up timing, the
measurement loop, statistics and keyed correctness checks."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

#: Set-up is repeated this many times per run and reported as the median.
SETUP_REPEATS = 5
#: The ω streams a seed gives rise to, each a Sobol sequence of its own.
TRAIN, HELD_OUT, FIELDS = range(3)


class CheckFailed(Exception):
    """A correctness check failed; ``key`` names the check."""

    def __init__(self, key: str, message: str) -> None:
        super().__init__(f"[{key}] {message}")
        self.key = key


def check(condition: bool, key: str, message: str) -> None:
    if not condition:
        raise CheckFailed(key, message)


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    ``metrics`` holds the end-to-end metrics (untraced run), ``layers`` the
    per-layer metrics (traced run); ``notes`` are human-readable lines
    printed before the JSON result.
    """

    attempted: int
    failed: int
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def seeded_omegas(problem, n: int, seed: int, stream: int) -> np.ndarray:
    """``n`` ω in the problem's box from a scrambled Sobol sequence keyed
    by ``(seed, stream)``: balanced over the box like an aligned Sobol
    block, and as cheap for a seed of 10^12 as for 0 (skipping ahead in
    an unscrambled sequence costs time and memory linear in the seed)."""
    lo, hi = problem.omega_range
    sobol = qmc.Sobol(d=problem.field.m, scramble=True,
                      seed=np.random.default_rng([seed, stream]))
    return lo + (hi - lo) * sobol.random(n)


def timed_setup(build, close=None, repeats: int = SETUP_REPEATS):
    """Run ``build()`` ``repeats`` times; return the last object and the
    median build time.  ``close`` disposes of every object but the last."""
    times, obj = [], None
    for _ in range(repeats):
        if obj is not None and close is not None:
            close(obj)
        t0 = time.perf_counter()
        obj = build()
        times.append(time.perf_counter() - t0)
    return obj, statistics.median(times)


def run_units(unit, seconds: float, min_units: int = 1) -> list:
    """Call ``unit()`` while another call of the median length still ends
    within ``seconds`` (and at least ``min_units`` times); return each
    call's wall time (s)."""
    walls = []
    start = time.perf_counter()
    while len(walls) < min_units or (time.perf_counter() - start
                                     + statistics.median(walls) <= seconds):
        t0 = time.perf_counter()
        unit()
        walls.append(time.perf_counter() - t0)
    return walls


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rel_l2(pred: np.ndarray, ref: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    return float(np.linalg.norm(pred - ref) / np.linalg.norm(ref))


def end_to_end(setup_s: float, walls: list, goodput: float,
               error: float) -> dict:
    """The end-to-end metrics every workload reports."""
    return {"setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "latency_ms": 1e3 * statistics.median(walls),
            "goodput": goodput,
            "rel_l2": error}
