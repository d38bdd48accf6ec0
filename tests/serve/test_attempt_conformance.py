"""One outcome, one term: every fleet attempt kind classifies alike.

A fleet read reaches a shard as one of five *attempt kinds*, and the
shard's answer can be any of seven *outcome classes*.  This table-driven
suite hands every class to every kind and pins the contract the fleet
promises regardless of which front-end carried the read:

* **Same term** — a unary read and a streamed read end in the same
  conservation-law term for the same shard outcome (a synchronous
  refusal at unary submit matches one at stream open; an answer
  through the unary future matches one mid-stream).
* **Backups stay silent** — a hedge backup never delivers a policy
  verdict and never re-dispatches: the primary still owns the read.
* **Cancelled is nobody's fault** — a cancelled inner attempt never
  ejects its shard; the read moves on to the next replica.
* **Stream progress is fleet-level** — a stream's
  :class:`DeadlineExceeded` carries the tiles delivered across every
  attempt, not the failing shard's own count.
* ``lost == 0`` throughout.

The fleet is never started: servers answer inline on the caller's
thread and injected attempts resolve when the test says so, so there
is no sleep and no race anywhere in the table.
"""

from concurrent.futures import Future

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem2D
from repro.serve import (
    DeadlineExceeded, FleetConfig, HedgeConfig, HedgePolicy, ServerConfig,
    ServerOverloaded, ShardedFleet, TenantThrottled,
)
from repro.serve.registry import RegistryError

CONSERVED = ("served", "rejected", "expired", "errors", "cancelled",
             "unavailable", "throttled")

CANCEL = "cancelled inner"     # sentinel: the attempt is cancelled, not
#                                failed with an exception

# outcome class -> (exception factory, term when it reaches the fleet
# through the attempt's future or mid-stream).  ``served`` means the
# read moved on to the healthy replica and was answered there.
OUTCOMES = {
    "overloaded": (lambda: ServerOverloaded("m", None, 9, 9), "rejected"),
    "throttled": (lambda: TenantThrottled("m", "t", 0.5, rate=1.0,
                                          burst=1.0), "throttled"),
    "deadline": (lambda: DeadlineExceeded("m", None, 0.01, 0.02,
                                          tiles_delivered=0), "expired"),
    "bad_omega": (lambda: ValueError("bad omega arity"), "errors"),
    "registry": (lambda: RegistryError("model vanished"), "errors"),
    "fault": (lambda: OSError("shard process died"), "served"),
    "cancelled": (lambda: CANCEL, "served"),
}


@pytest.fixture(scope="module")
def served():
    problem = PoissonProblem2D(16)
    model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=1)
    return model, problem


def _fleet(served):
    model, problem = served
    fleet = ShardedFleet(FleetConfig(
        shards=2, replicas=2,
        server=ServerConfig(max_batch=4, max_wait_ms=0.0, workers=1,
                            cache_bytes=0, tile=8)))
    fleet.register_model("m", model, problem)
    primary_id, replica_id = fleet.replicas_for("m")
    by_id = {s.id: s for s in fleet.shards}
    return fleet, by_id[primary_id], by_id[replica_id]


def _term(before, after) -> str:
    """The one conservation term that moved between two snapshots."""
    moved = [t for t in CONSERVED
             if getattr(after, t) - getattr(before, t) == 1]
    others = [t for t in CONSERVED
              if getattr(after, t) - getattr(before, t) not in (0, 1)]
    assert len(moved) == 1 and not others, (moved, others)
    return moved[0]


def _resolve(inner: Future, outcome) -> None:
    if outcome is CANCEL:
        assert inner.cancel()
    else:
        inner.set_exception(outcome)


class _ScriptedStream:
    """A shard stream that hands out ``take`` records of a real stream
    and then ends with ``outcome`` (an exception, or a short end for a
    cancelled producer)."""

    def __init__(self, source, take: int, outcome) -> None:
        self.tile_indices = source.tile_indices
        self._source = source
        self._take = take
        self._outcome = outcome

    def next_record(self, timeout=None):
        if self._take > 0:
            self._take -= 1
            return self._source.next_record(timeout)
        if self._outcome is CANCEL:
            raise StopIteration          # the producer was cancelled
        raise self._outcome

    def close(self) -> None:
        self._source.close()


# --------------------------------------------------------------------- #
# One runner per attempt kind: inject ``outcome`` on the primary (the
# backup, for hedges), run one read, return the error the caller saw
# (None when the read was served).
# --------------------------------------------------------------------- #
def _unary_sync(fleet, primary, replica, outcome):
    def refuse(*args, **kwargs):
        if outcome is CANCEL:
            inner = Future()
            inner.cancel()
            return inner
        raise outcome

    primary.server.submit = refuse
    try:
        out = fleet.submit("m", np.zeros(4))
    except Exception as exc:
        return exc
    return out.exception(timeout=30)


def _unary_future(fleet, primary, replica, outcome):
    inner = Future()
    primary.server.submit = lambda *a, **kw: inner
    out = fleet.submit("m", np.zeros(4))
    assert not out.done()
    _resolve(inner, outcome)
    return out.exception(timeout=30)


def _hedge_backup(fleet, primary, replica, outcome):
    # The timer never fires inside the test: it owns the hedge moment.
    fleet.hedge = HedgePolicy(HedgeConfig(max_delay_s=30.0))
    first, backup = Future(), Future()
    primary.server.submit = lambda *a, **kw: first
    replica.server.submit = lambda *a, **kw: backup
    try:
        out = fleet.submit("m", np.zeros(4))
        assert fleet.hedge_dispatch(out) is True
        _resolve(backup, outcome)
        assert not out.done()        # the backup decided nothing
        first.set_result(np.zeros((16, 16)))
        return out.exception(timeout=30)
    finally:
        fleet.close()                # stops the hedge timer thread


def _consume(fleet):
    seen = []
    try:
        for i, _, _ in fleet.stream("m", np.zeros(4)):
            seen.append(i)
    except Exception as exc:
        return exc, seen
    return None, seen


def _stream_open(fleet, primary, replica, outcome):
    submit_stream = primary.server.submit_stream

    def refuse(*args, **kwargs):
        if outcome is CANCEL:
            return _ScriptedStream(submit_stream(*args, **kwargs), 0, CANCEL)
        raise outcome

    primary.server.submit_stream = refuse
    exc, _ = _consume(fleet)
    return exc


def _stream_record(fleet, primary, replica, outcome):
    submit_stream = primary.server.submit_stream
    primary.server.submit_stream = lambda *a, **kw: _ScriptedStream(
        submit_stream(*a, **kw), 1, outcome)
    exc, seen = _consume(fleet)
    assert len(seen) >= 1            # one tile reached the consumer first
    assert len(seen) == len(set(seen))
    if isinstance(exc, DeadlineExceeded):
        # Fleet-level progress, not the failing attempt's own count.
        assert exc.tiles_delivered == len(seen) == 1
    return exc


KINDS = {
    "unary_sync": _unary_sync,
    "unary_future": _unary_future,
    "hedge_backup": _hedge_backup,
    "stream_open": _stream_open,
    "stream_record": _stream_record,
}


def _run(served, kind, name):
    fleet, primary, replica = _fleet(served)
    factory, _ = OUTCOMES[name]
    before = fleet.stats
    error = KINDS[kind](fleet, primary, replica, factory())
    after = fleet.stats
    assert after.lost == 0
    return _term(before, after), error, after, primary, replica


@pytest.mark.parametrize("name", sorted(OUTCOMES))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_attempt_outcome_table(served, kind, name):
    term, error, s, primary, replica = _run(served, kind, name)
    _, through_future = OUTCOMES[name]
    if kind == "hedge_backup":
        # A backup never delivers a verdict and never re-dispatches:
        # the primary's answer is the read's one outcome.
        assert term == "served" and error is None
        assert s.hedges == 1 and s.hedged_wins == 0
        assert s.failovers == 0
        assert primary.healthy
        assert replica.healthy == (name != "fault")
        return
    if kind in ("unary_future", "stream_record"):
        assert term == through_future
    elif name != "deadline":
        # Synchronous refusals: a shard never raises DeadlineExceeded
        # at submit, so that row pins only unary == stream (below).
        assert term == through_future
    if term == "served":
        assert error is None
        if name == "fault":
            assert s.failovers == 1
    else:
        assert error is not None
        assert s.failovers == 0
    # Only a genuine shard fault ejects; cancellation and policy
    # verdicts leave the primary in the rotation.
    assert primary.healthy == (name != "fault")
    assert s.shard_faults == (1 if name == "fault" else 0)


@pytest.mark.parametrize("name", sorted(OUTCOMES))
@pytest.mark.parametrize("unary,stream", [("unary_sync", "stream_open"),
                                          ("unary_future", "stream_record")])
def test_unary_and_stream_record_the_same_term(served, name, unary, stream):
    unary_term = _run(served, unary, name)[0]
    stream_term = _run(served, stream, name)[0]
    assert unary_term == stream_term


def test_short_ended_stream_resumes_without_ejecting(served):
    """A shard stream whose producer was cancelled ends early; the
    fleet treats that like a cancelled unary attempt — the missing
    tiles come from the next replica and nobody is ejected — instead
    of counting a truncated field as served."""
    fleet, primary, replica = _fleet(served)
    submit_stream = primary.server.submit_stream
    primary.server.submit_stream = lambda *a, **kw: _ScriptedStream(
        submit_stream(*a, **kw), 1, CANCEL)
    exc, seen = _consume(fleet)
    assert exc is None
    assert sorted(seen) == list(range(len(seen))) and len(seen) > 1
    s = fleet.stats
    assert s.served == 1 and s.stream_tiles_delivered == len(seen)
    assert s.stream_resumed == 1 and s.failovers == 1
    assert primary.healthy and s.shard_faults == 0
    assert s.lost == 0
