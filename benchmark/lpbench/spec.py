"""What the benchmark measures: workloads, end-to-end metrics, bounds.

``BENCHMARK.json`` at the repository root is generated from this module by
``python3 benchmark/run.py --write-spec``; the self-test fails when the two
disagree.
"""

from __future__ import annotations

import json

from .layers import PER_LAYER

COMMAND = ["python3", "benchmark/run.py"]
PATHS = ["benchmark"]
RUN_SECONDS = 20

WORKLOADS = [
    {
        "name": "eval_10k",
        "why": "lpcore evaluate on 10k images: many tiny per-image parse and match calls, "
               "few IoU pairs each, so per-call overhead and file I/O dominate",
    },
    {
        "name": "det_step",
        "why": "detection step: dense anchor x plate IoU matrix, focal loss over all anchors "
               "and greedy NMS over a few hundred candidates; geometry-bound",
    },
    {
        "name": "rec_step",
        "why": "recognition step: RRoIAlign crops, conv, deformable conv, BiLSTM, CTC loss "
               "and greedy decode; no geometry, so geometry changes predict no move",
    },
    {
        "name": "oracle_verify",
        "why": "slice of the selfcheck suites at their tolerances: Monte-Carlo IoU at 1e6 "
               "samples, dense crops and CTC enumeration; the acceptance-test cost",
    },
]

# Every workload reports each of these; the "items" of items_per_s are the
# workload's own unit (images, detection steps, recognition crops, oracle
# checks) and a step is one closed-loop call (for eval_10k a whole pass).
END_TO_END = [
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "step_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "step_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2, ensure_ascii=False) + "\n"
