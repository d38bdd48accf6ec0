"""Repository benchmark: four workloads against the public API of ``repro``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mg_train --seed 0 --seconds 20 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` spends half the run untraced and half traced
and reports the per-layer metrics (a layer the workload never enters
reports 0).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check prints its key to standard error and exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mg_train", "dp_train", "field_solve", "serve_fleet")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def select_metrics(spec: dict, outcome, trace: bool) -> dict:
    """Every metric ``BENCHMARK.json`` lists for this mode, with its unit."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = outcome.layers if trace else outcome.metrics
    names = {m["name"] for m in declared}
    unknown = set(values) - names
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: "
                       f"{sorted(unknown)}")
    if not trace:
        missing = names - set(values)
        if missing:
            raise KeyError(f"end-to-end metrics not measured: "
                           f"{sorted(missing)}")
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is missing under {src.name}/ of "
              f"the checkout", file=sys.stderr)
        return 2
    # One BLAS thread per call, set before numpy loads.  The workloads
    # bring their own concurrency (two ranks, fleet workers, client
    # threads); on a 2-CPU host a second BLAS thread per call doubled the
    # CPU time of a training step at equal wall time, and in serve_fleet
    # the extra threads made the latency tail follow the host's other load.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    spec = load_spec()

    from common import CheckFailed

    module = importlib.import_module(args.workload)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}", flush=True)
    try:
        # numpy's generators take non-negative seeds only.
        outcome = module.run(module.Config(), args.seed % 2 ** 64,
                             args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"CHECK FAILED {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    for line in outcome.notes:
        print(line)
    metrics = select_metrics(spec, outcome, bool(args.trace))
    print(json.dumps({"correct": True, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
