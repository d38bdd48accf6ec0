"""Measured conv autotuning: determinism, persistence, fallbacks."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.backend.conv_plan as cp
from repro.backend import (
    autotune_cache_path, autotune_table, clear_autotune_table,
    clear_plan_cache, host_fingerprint, plan_conv, set_autotune_cache_path,
    set_conv_plan_mode,
)

SIG = dict(x_shape=(2, 8, 16, 16), w_shape=(8, 8, 3, 3),
           stride=(1, 1), padding=(1, 1), dtype=np.float32)


@pytest.fixture
def autotune_env(tmp_path):
    """Isolated autotune table + mode, restored afterwards."""
    set_autotune_cache_path(tmp_path / "tune.json")
    set_conv_plan_mode("autotune")
    clear_plan_cache()
    yield tmp_path / "tune.json"
    set_conv_plan_mode("auto")
    set_autotune_cache_path(None)
    clear_plan_cache()


def _plan():
    return plan_conv(SIG["x_shape"], SIG["w_shape"], SIG["stride"],
                     SIG["padding"], SIG["dtype"])


class TestMeasurement:
    def test_measured_decision_and_reason(self, autotune_env):
        plan = _plan()
        assert plan.path in ("flat", "tensordot")
        assert plan.backward_path in ("flat", "tensordot")
        assert "autotuned" in plan.reason

    def test_table_persisted_under_host_fingerprint(self, autotune_env):
        _plan()
        data = json.loads(autotune_env.read_text())
        assert host_fingerprint() in data["hosts"]
        (rec,) = data["hosts"][host_fingerprint()].values()
        assert rec["measured"] is True
        assert set(rec["times"]) == {"fwd_tensordot", "fwd_flat",
                                     "bwd_tensordot", "bwd_flat"}

    def test_second_plan_does_not_remeasure(self, autotune_env,
                                            monkeypatch):
        first = _plan()
        clear_plan_cache()
        monkeypatch.setattr(cp, "_time_engines", _boom)
        second = _plan()
        assert (second.path, second.backward_path) == \
            (first.path, first.backward_path)

    def test_winner_matches_recorded_times(self, autotune_env):
        plan = _plan()
        (rec,) = autotune_table().values()
        t = rec["times"]
        fwd = "tensordot" if t["fwd_tensordot"] < t["fwd_flat"] else "flat"
        bwd = "tensordot" if t["bwd_tensordot"] < t["bwd_flat"] else "flat"
        assert (plan.path, plan.backward_path) == (fwd, bwd)


def _boom(sig):
    raise AssertionError("signature was re-measured")


class TestPersistence:
    def test_table_survives_simulated_restart(self, autotune_env,
                                              monkeypatch):
        first = _plan()
        # Drop every in-memory trace; the persisted file must answer.
        clear_autotune_table(memory_only=True)
        monkeypatch.setattr(cp, "_time_engines", _boom)
        again = _plan()
        assert again.path == first.path
        assert again.backward_path == first.backward_path

    def test_table_survives_real_process_restart(self, tmp_path):
        table = tmp_path / "tune.json"
        snippet = (
            "import numpy as np\n"
            "from repro.backend import set_conv_plan_mode, plan_conv\n"
            "import repro.backend.conv_plan as cp\n"
            "set_conv_plan_mode('autotune')\n"
            "if %r:\n"
            "    cp._time_engines = lambda sig: (_ for _ in ())"
            ".throw(SystemExit('re-measured after restart'))\n"
            "p = plan_conv((2, 8, 16, 16), (8, 8, 3, 3), (1, 1), (1, 1),"
            " np.float32)\n"
            "print(p.path, p.backward_path)\n")
        env = {"REPRO_AUTOTUNE_CACHE": str(table), "PYTHONPATH": "src"}
        first = _run_snippet(snippet % False, env)
        assert table.exists()
        second = _run_snippet(snippet % True, env)
        assert first == second

    def test_set_path_switches_tables(self, autotune_env, tmp_path):
        _plan()
        assert len(autotune_table()) == 1
        set_autotune_cache_path(tmp_path / "other.json")
        assert autotune_table() == {}
        assert autotune_cache_path() == tmp_path / "other.json"

    def test_corrupt_table_ignored(self, autotune_env):
        autotune_env.write_text("{not json")
        plan = _plan()
        assert plan.path in ("flat", "tensordot")
        # The rewrite repairs the file.
        json.loads(autotune_env.read_text())


STALE_RECORDS = {
    # A record that names the deleted im2col engine.
    "removed_engine": {
        "path": "im2col", "backward_path": "tensordot", "measured": True,
        "times": {"fwd_tensordot": 1.0, "fwd_im2col": 0.5,
                  "bwd_tensordot": 1.0, "bwd_im2col": 2.0}},
    # Live engines, but timed before the flat engine existed.
    "missing_timings": {
        "path": "tensordot", "backward_path": "tensordot", "measured": True,
        "times": {"fwd_tensordot": 1.0, "bwd_tensordot": 1.0}},
}


def _key():
    return cp._sig_key(cp.ConvSignature(
        SIG["x_shape"], SIG["w_shape"], SIG["stride"], SIG["padding"],
        np.dtype(SIG["dtype"]).str))


class TestStaleTable:
    @pytest.mark.parametrize("kind", sorted(STALE_RECORDS))
    def test_stale_record_is_remeasured(self, autotune_env, monkeypatch,
                                        kind):
        key = _key()
        autotune_env.write_text(json.dumps({"version": 1, "hosts": {
            host_fingerprint(): {key: STALE_RECORDS[kind]}}}))
        clear_autotune_table(memory_only=True)
        measured = []
        real = cp._time_engines
        monkeypatch.setattr(
            cp, "_time_engines", lambda sig: measured.append(sig) or real(sig))

        plan = _plan()
        assert len(measured) == 1
        assert plan.path in ("flat", "tensordot")
        assert plan.backward_path in ("flat", "tensordot")
        # The fresh record replaced the stale one on disk.
        rec = json.loads(autotune_env.read_text())["hosts"][
            host_fingerprint()][key]
        assert set(rec["times"]) == {"fwd_flat", "fwd_tensordot",
                                     "bwd_flat", "bwd_tensordot"}
        clear_plan_cache()
        _plan()
        assert len(measured) == 1

    def test_current_unmeasured_record_is_kept(self, autotune_env,
                                               monkeypatch):
        key = _key()
        autotune_env.write_text(json.dumps({"version": 1, "hosts": {
            host_fingerprint(): {key: {"path": "tensordot",
                                       "measured": False,
                                       "reason": "hand-written"}}}}))
        clear_autotune_table(memory_only=True)
        monkeypatch.setattr(cp, "_time_engines", _boom)
        plan = _plan()
        assert plan.path == "tensordot" and "hand-written" in plan.reason


def _run_snippet(code: str, env: dict) -> str:
    import os

    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, **env}, cwd=Path(__file__).parents[2],
        timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


class TestFallbacks:
    def test_1x1_kernel_not_measured(self, autotune_env, monkeypatch):
        monkeypatch.setattr(cp, "_time_engines", _boom)
        plan = plan_conv((2, 8, 16, 16), (4, 8, 1, 1), (1, 1), (0, 0),
                         np.float32)
        assert plan.path == "flat"
        assert "fallback" in plan.reason
        # Recorded anyway so restarts skip it too.
        assert len(autotune_table()) == 1

    def test_huge_signature_not_measured(self, autotune_env, monkeypatch):
        monkeypatch.setattr(cp, "_time_engines", _boom)
        plan = plan_conv((64, 64, 512, 512), (64, 64, 3, 3), (1, 1),
                         (1, 1), np.float32)
        assert plan.path in ("flat", "tensordot")
        assert "fallback" in plan.reason

    def test_strided_signature_not_measured(self, autotune_env,
                                            monkeypatch):
        # Strided convs have a single engine: nothing to time.
        monkeypatch.setattr(cp, "_time_engines", _boom)
        plan = plan_conv((2, 8, 16, 16), (8, 8, 2, 2), (2, 2), (0, 0),
                         np.float32)
        assert plan.path == "tensordot"
        assert "fallback" in plan.reason

    def test_forced_modes_keep_single_path(self, autotune_env):
        set_conv_plan_mode("flat")
        plan = _plan()
        assert plan.path == "flat" and plan.backward_path is None

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            set_conv_plan_mode("fastest")


class TestParity:
    """Whatever the autotuner picks must stay numerically correct."""

    def test_forward_backward_parity_across_paths(self, autotune_env):
        from repro.autograd import Tensor, conv_nd
        from repro.autograd.gradcheck import gradcheck

        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True,
                   dtype=np.float64)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.1,
                   requires_grad=True, dtype=np.float64)
        assert gradcheck(lambda a, b: conv_nd(a, b, stride=1, padding=1),
                         (x, w))
