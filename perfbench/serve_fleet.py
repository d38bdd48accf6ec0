"""serve_fleet: an open loop of seeded Poisson arrivals against a
``ShardedFleet`` (2 shards x 2 replicas) serving four 32^3 models.

Unit of work: one request, timed from when it was due.  About 1 in 10 is
a ``fleet.stream``; about 1 in 5 repeats an ω already sent, so the cache
and in-flight dedup are on the path; the rest are distinct ω.  Compute per
request is small, so queueing, micro-batching, routing and the unary and
stream dispatch paths show.  The rate, 5 req/s, is ~30% of the capacity
measured on a 2-CPU host (~18 req/s): at 8-12 req/s the median moved
10-50% between seeds.  Arrivals are drawn for the whole span and on until
there are at least 100, so p90 has at least 10 requests beyond it; a
traced run does so for its untraced and its traced half alike.
"""

from __future__ import annotations

import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from repro import MGDiffNet, PoissonProblem3D
from repro.core.inference import predict_batch
from repro.serve import (FleetConfig, PowerOfTwoBalancer, ServerConfig,
                         ShardedFleet, Telemetry)

from common import Outcome, check, end_to_end, rel_l2, timed_setup
from tracing import OpTrace

#: Four, not two: the untrained models' error against FEM moves ~6% from
#: one initialisation to the next, and ``rel_l2`` averages over them.
MODELS = ("a", "b", "c", "d")
#: A request answered later than this after it was due misses.
LIMIT_S = 0.25


@dataclass(frozen=True)
class Config:
    resolution: int = 32
    rate: float = 5.0            # requests per second
    stream_share: float = 0.1
    repeat_share: float = 0.2
    shards: int = 2
    replicas: int = 2
    max_batch: int = 4
    check_every: int = 10        # compare every n-th answer with predict
    min_requests: int = 100      # so p90 has at least 10 requests beyond it
    fem_refs: int = 2            # per model
    base_filters: int = 8
    depth: int = 2
    drain_s: float = 60.0


TINY = Config(resolution=16, rate=20.0, fem_refs=1, base_filters=4,
              check_every=2, min_requests=8)


@dataclass
class Request:
    due: float                   # seconds after the loop starts
    model: str
    omega: np.ndarray
    stream: bool
    repeat: bool
    sent: float | None = None
    first: float | None = None
    done: float | None = None
    field: np.ndarray | None = None
    error: BaseException | None = None


def schedule(cfg: Config, rng: np.random.Generator, seconds: float) -> list:
    """Seeded Poisson arrivals and the request mix: arrivals over
    ``seconds``, drawn on until there are ``cfg.min_requests``."""
    reqs, t = [], 0.0
    while True:
        t += rng.exponential(1.0 / cfg.rate)
        if t >= seconds and len(reqs) >= cfg.min_requests:
            return reqs
        stream = rng.random() < cfg.stream_share
        unary = [r for r in reqs if not r.stream]
        if not stream and unary and rng.random() < cfg.repeat_share:
            old = unary[rng.integers(len(unary))]
            reqs.append(Request(t, old.model, old.omega, False, True))
        else:
            reqs.append(Request(t, MODELS[rng.integers(len(MODELS))],
                                rng.uniform(-3.0, 3.0, 4), stream, False))


class Workload:
    def __init__(self, cfg: Config, seed: int) -> None:
        self.cfg = cfg
        self.problem = PoissonProblem3D(cfg.resolution)
        self.models = {name: MGDiffNet(ndim=3, base_filters=cfg.base_filters,
                                       depth=cfg.depth,
                                       rng=len(MODELS) * seed + i)
                       for i, name in enumerate(MODELS)}
        self.fleet = ShardedFleet(FleetConfig(
            shards=cfg.shards, replicas=cfg.replicas,
            server=ServerConfig(max_batch=cfg.max_batch, workers=1)))
        # The models may hash to the same primary; spreading reads by
        # queue depth keeps the two shards' load independent of the seed.
        self.fleet.balancer = PowerOfTwoBalancer(seed=seed)
        for name, model in self.models.items():
            self.fleet.register_model(name, model, self.problem)
        self.fleet.start()
        warm = np.zeros(self.problem.field.m)
        for name in MODELS:
            self.fleet.predict(name, warm, self.cfg.resolution)

    def close(self) -> None:
        self.fleet.close()


def _consume_stream(fleet, cfg: Config, req: Request, start: float) -> None:
    field = np.empty((cfg.resolution,) * 3, dtype=np.float32)
    try:
        for _, core_slices, core in fleet.stream(req.model, req.omega,
                                                 cfg.resolution):
            if req.first is None:
                req.first = time.perf_counter() - start
            field[core_slices] = core
    except Exception as exc:     # counted as a failed request
        req.error = exc
    else:
        req.field = field
    req.done = time.perf_counter() - start


def open_loop(wl: Workload, reqs: list) -> None:
    """Send every request when due, whether or not earlier ones finished;
    wait until all have an outcome."""
    cfg, fleet = wl.cfg, wl.fleet
    answered = threading.Condition()
    unary = [0]                  # submitted unary requests not yet done
    streams_pending = []
    start = time.perf_counter()

    def on_done(req: Request, fut) -> None:
        done = time.perf_counter() - start
        exc = fut.exception()
        with answered:
            req.done = done
            if exc is None:
                req.field = fut.result()
            else:
                req.error = exc
            unary[0] -= 1
            answered.notify_all()

    with ThreadPoolExecutor(max_workers=1) as streams:
        for req in reqs:
            delay = start + req.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            req.sent = time.perf_counter() - start
            if req.stream:
                streams_pending.append(streams.submit(
                    _consume_stream, fleet, cfg, req, start))
                continue
            try:
                fut = fleet.submit(req.model, req.omega, cfg.resolution)
            except Exception as exc:     # refused: counted as failed
                req.error, req.done = exc, req.sent
                continue
            with answered:
                unary[0] += 1
            fut.add_done_callback(lambda f, r=req: on_done(r, f))
        _, not_done = wait(streams_pending, timeout=cfg.drain_s)
        with answered:
            answered.wait_for(lambda: unary[0] == 0, timeout=cfg.drain_s)
            missing = unary[0] + len(not_done)
    check(missing == 0, "serve_fleet.drained",
          f"{missing} requests unanswered {cfg.drain_s:g} s after the "
          "last was sent")


def check_answers(wl: Workload, reqs: list) -> None:
    """Every ``check_every``-th answer and every stream equals a direct
    ``predict_batch`` for its ω; nothing is lost."""
    for i, req in enumerate(reqs):
        if req.error is not None or not (req.stream
                                         or i % wl.cfg.check_every == 0):
            continue
        direct = predict_batch(wl.models[req.model], wl.problem,
                               req.omega)[0]
        diff = float(np.max(np.abs(req.field - direct)))
        check(diff <= 1e-5, "serve_fleet.answer_exact",
              f"request {i} ({'stream' if req.stream else 'unary'}) "
              f"differs from predict_batch by {diff:.2e} > 1e-5")
    lost = wl.fleet.stats.lost
    check(lost == 0, "serve_fleet.lost", f"fleet lost {lost} requests")


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def latencies(reqs: list) -> list:
    return [r.done - r.due for r in reqs if r.error is None]


def self_times(spans) -> dict:
    """Span id -> duration minus the part its children cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)
    out = {}
    for s in spans:
        end = s.end if s.end is not None else s.start
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            c_end = min(c.end if c.end is not None else c.start, end)
            lo = max(c.start, cursor)
            if c_end > lo:
                covered += c_end - lo
                cursor = c_end
        out[s.span_id] = end - s.start - covered
    return out


def span_layers(spans, n_requests: int) -> dict:
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = self_times(spans)
    queue = [1e3 * (s.end - s.start) for s in by_name.get("queue.wait", ())
             if s.end is not None]
    forward = by_name.get("server.forward", [])
    hop = [1e3 * selfs[s.span_id] for name in ("fleet.request",
                                               "fleet.attempt")
           for s in by_name.get(name, ())]
    return {
        "serve.queue_p50_ms": percentile(queue, 50) if queue else 0.0,
        "serve.queue_p90_ms": percentile(queue, 90) if queue else 0.0,
        "serve.forward_ms": statistics.median(
            1e3 * (s.end - s.start) for s in forward) if forward else 0.0,
        "serve.batch_mean": float(np.mean([s.attrs.get("batch", 1)
                                           for s in forward]))
        if forward else 0.0,
        "serve.hop_ms": sum(hop) / max(n_requests, 1),
    }


def run(cfg: Config, seed: int, seconds: float, trace: bool) -> Outcome:
    wl, setup_s = timed_setup(lambda: Workload(cfg, seed),
                              close=Workload.close)
    rng = np.random.default_rng(seed)
    try:
        span = seconds / 2 if trace else seconds
        reqs = schedule(cfg, rng, span)
        refs = [(r, wl.problem.fem_solve(r.omega, method="cg"))
                for name in MODELS
                for r in [r for r in reqs if r.model == name
                          and not r.stream and not r.repeat][:cfg.fem_refs]]
        open_loop(wl, reqs)
        check_answers(wl, reqs)
        lat = latencies(reqs)
        failed = sum(r.error is not None for r in reqs)
        good = sum(r.error is None and r.done - r.due <= LIMIT_S
                   for r in reqs)
        error = float(np.mean([rel_l2(r.field, ref) for r, ref in refs
                               if r.error is None]))
        out = Outcome(attempted=len(reqs), failed=failed)
        out.metrics = end_to_end(setup_s, lat, good / len(reqs), error)
        late = [r.sent - r.due for r in reqs]
        stats = wl.fleet.stats
        out.notes.append(
            f"serve_fleet: {len(reqs)} requests at {cfg.rate:g}/s "
            f"({sum(r.stream for r in reqs)} streams, "
            f"{sum(r.repeat for r in reqs)} repeats), p50 "
            f"{1e3 * percentile(lat, 50):.1f} ms, p90 "
            f"{1e3 * percentile(lat, 90):.1f} ms, "
            f"{good}/{len(reqs)} within {1e3 * LIMIT_S:.0f} ms, "
            f"{failed} failed, generator late p90 "
            f"{1e3 * percentile(late, 90):.2f} ms, cache+dedup hits "
            f"{stats.cache_hits + stats.dedup_hits}/{stats.requests}")
        if not trace:
            return out

        before = wl.fleet.stats
        tel = Telemetry()
        wl.fleet.enable_telemetry(tel)
        traced = schedule(cfg, rng, seconds / 2)
        with OpTrace() as ops:
            open_loop(wl, traced)
        check_answers(wl, traced)
        after = wl.fleet.stats
        n = len(traced)
        layers = ops.layer_metrics(n)
        layers.update(span_layers(tel.tracer.spans(), n))
        hits = (after.cache_hits + after.dedup_hits
                - before.cache_hits - before.dedup_hits)
        streams = [r for r in reqs if r.stream and r.error is None]
        layers.update({
            "serve.p50_ms": 1e3 * percentile(lat, 50),
            "serve.p90_ms": 1e3 * percentile(lat, 90),
            "serve.repeat_share": sum(r.repeat for r in reqs) / len(reqs),
            "serve.cache_hit_rate": hits / max(after.requests
                                               - before.requests, 1),
            "serve.failovers": after.failovers,
            "serve.retries": after.retried,
            "serve.lost": after.lost,
            "serve.late_ms": 1e3 * percentile(late, 90),
            "serve.stream_first_ms": 1e3 * statistics.median(
                r.first - r.due for r in streams) if streams else 0.0,
            "trace.overhead": percentile(latencies(traced), 50)
            / percentile(lat, 50),
        })
        out.layers = layers
        out.attempted += n
        out.failed += sum(r.error is not None for r in traced)
        return out
    finally:
        wl.close()
