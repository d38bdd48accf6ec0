"""Tests of the benchmark itself: a tiny run of every workload emits every
metric ``BENCHMARK.json`` declares, and every correctness check trips on a
deliberately perturbed output.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
from common import CheckFailed  # noqa: E402

SPEC = bench.load_spec()
LAYERS: dict = {}


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_tiny_run_emits_every_metric(name):
    module = importlib.import_module(name)
    outcome = module.run(module.TINY, seed=0, seconds=1.0, trace=True)
    assert outcome.attempted >= 2 and outcome.failed == 0
    e2e = bench.select_metrics(SPEC, outcome, trace=False)
    layers = bench.select_metrics(SPEC, outcome, trace=True)
    for declared, got in ((SPEC["end_to_end"], e2e),
                          (SPEC["per_layer"], layers)):
        for m in declared:
            assert got[m["name"]]["unit"] == m["unit"]
            assert np.isfinite(got[m["name"]]["value"])
    for m in SPEC["end_to_end"]:
        assert e2e[m["name"]]["value"] > 0, m["name"]
    LAYERS[name] = set(outcome.layers)


def test_every_layer_metric_has_a_workload():
    if len(LAYERS) < len(bench.WORKLOADS):
        pytest.skip("needs every tiny workload run first")
    emitted = set().union(*LAYERS.values())
    assert {m["name"] for m in SPEC["per_layer"]} == emitted


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_every_seed_gives_its_own_omegas(seed):
    from repro import PoissonProblem3D
    from common import HELD_OUT, TRAIN, seeded_omegas
    problem = PoissonProblem3D(8)
    lo, hi = problem.omega_range
    omegas = seeded_omegas(problem, 8, seed, TRAIN)
    assert omegas.shape == (8, problem.field.m)
    assert np.all((lo <= omegas) & (omegas <= hi))
    assert np.array_equal(omegas, seeded_omegas(problem, 8, seed, TRAIN))
    for other in (seeded_omegas(problem, 8, seed, HELD_OUT),
                  seeded_omegas(problem, 8, (seed + 1) % 2 ** 64, TRAIN)):
        assert not np.array_equal(omegas, other)


def _trips(key, fn, *args):
    with pytest.raises(CheckFailed) as info:
        fn(*args)
    assert info.value.key == key


def test_mg_train_checks_trip():
    from mg_train import check_schedule, check_trained
    check_schedule([3.0, 2.0], 2.0)
    _trips("mg_train.loss_finite", check_schedule, [3.0, np.nan], None)
    _trips("mg_train.deterministic", check_schedule, [3.0, 2.0], 2.5)
    check_trained([0.8, 0.9], [0.6, 0.7])
    _trips("mg_train.error_decrease", check_trained, [0.8, 0.6], [0.6, 0.7])
    _trips("mg_train.rel_l2", check_trained, [0.8, 0.9], [0.6, np.nan])
    _trips("mg_train.rel_l2", check_trained, [1.5, 0.9], [1.2, 0.7])


def test_dp_train_checks_trip():
    from repro import MGDiffNet
    from dp_train import check_run
    same = [MGDiffNet(3, 2, 1, rng=0), MGDiffNet(3, 2, 1, rng=0)]
    check_run([2.0, 1.0], same, 1.0)
    _trips("dp_train.loss_finite", check_run, [np.inf], same, None)
    _trips("dp_train.deterministic", check_run, [2.0, 1.0], same, 1.5)
    apart = [MGDiffNet(3, 2, 1, rng=0), MGDiffNet(3, 2, 1, rng=1)]
    _trips("dp_train.replica_sync", check_run, [2.0, 1.0], apart, None)


def test_field_solve_checks_trip():
    from repro.fem.gmg import GMGReport
    from field_solve import check_gmg, check_stream
    check_gmg(GMGReport(12, 5e-10, True), 1e-9)
    _trips("field_solve.gmg_converged", check_gmg,
           GMGReport(100, 2e-6, False), 1e-9)
    _trips("field_solve.gmg_converged", check_gmg,
           GMGReport(3, 2e-9, True), 1e-9)
    field = np.linspace(0, 1, 64, dtype=np.float32).reshape(4, 4, 4)
    check_stream(field, field.copy(), field + 1e-6)
    _trips("field_solve.stream_exact", check_stream, field,
           np.nextafter(field, 2), field)
    _trips("field_solve.tiled_vs_untiled", check_stream, field, field,
           field + 1e-4)


def test_serve_fleet_checks_trip():
    from repro import MGDiffNet, PoissonProblem3D
    from repro.core.inference import predict_batch
    from serve_fleet import TINY, Request, check_answers
    problem = PoissonProblem3D(8)
    model = MGDiffNet(3, 2, 1, rng=0)
    omega = np.full(4, 0.5)
    answer = predict_batch(model, problem, omega)[0]
    fleet = SimpleNamespace(stats=SimpleNamespace(lost=0))
    wl = SimpleNamespace(cfg=TINY, models={"a": model}, problem=problem,
                         fleet=fleet)
    req = Request(0.0, "a", omega, stream=False, repeat=False,
                  field=answer.copy())
    check_answers(wl, [req])
    req.field = answer + 1e-3
    _trips("serve_fleet.answer_exact", check_answers, wl, [req])
    req.field = answer.copy()
    fleet.stats.lost = 1
    _trips("serve_fleet.lost", check_answers, wl, [req])


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    mg_train = importlib.import_module("mg_train")

    def failing(*args):
        raise CheckFailed("mg_train.loss_finite", "perturbed")

    monkeypatch.setattr(mg_train, "run", failing)
    code = bench.main(["--workload", "mg_train", "--seed", "0",
                       "--seconds", "1"])
    assert code == 1
    assert "mg_train.loss_finite" in capsys.readouterr().err


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mg_train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
