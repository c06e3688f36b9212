"""Self-test of the benchmark on a tiny size of each workload.

For each workload it runs one plain and one traced run in-process and
checks that:

- every metric ``BENCHMARK.json`` names is emitted, with its unit, and
  nothing else is;
- the correctness gate passes (no failed, shed or wrong query);
- the traced run's reconciliation holds;
- a second run of the same seed reproduces every simulated figure and
  program count exactly.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402  (needs the source path above)
from metrics import END_TO_END, PER_LAYER  # noqa: E402

TINY = {
    "tpch_scan": {"rows": 2_000},
    "dashboard_storm": {"rows_per_date": 40, "queries": 40},
    "streaming_lakehouse": {"ticks": 12},
}
# Figures that are exact functions of the seed: the simulated ones, and
# every per-layer count or ratio (``ms`` per-layer figures are wall time,
# except the two simulated ones; ``obs.*`` describe the tracer).
EXACT_END_TO_END = ("sim_latency_p50_ms", "sim_latency_p95_ms", "sim_goodput_qps")
EXACT_PER_LAYER = tuple(
    name
    for name, unit in PER_LAYER.items()
    if not name.startswith("obs.")
    and (unit != "ms" or name in ("cluster.queued_sim_ms_p50", "freshness_lag_sim_ms"))
)


def _declared() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _units(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


def _exact(metrics: dict, names) -> dict:
    return {name: metrics[name]["value"] for name in names}


def check(name: str, seed: int = 3) -> list[str]:
    problems = []
    end_to_end, per_layer = _declared()
    plain = run.run(name, seed, 0.0, False, TINY[name], setup_repeats=1)
    traced = run.run(name, seed, 0.0, True, TINY[name], setup_repeats=1)
    for label, result, declared in (
        ("plain", plain, end_to_end),
        ("traced", traced, per_layer),
    ):
        if _units(result["metrics"]) != declared:
            problems.append(f"{name} {label}: metric names or units differ from BENCHMARK.json")
        if not result["correct"] or result["failed"]:
            problems.append(f"{name} {label}: correctness gate failed: {result['notes']}")
    if any("FAILED" in note for note in traced["notes"]):
        problems.append(f"{name}: trace reconciliation failed")

    again = run.run(name, seed, 0.0, True, TINY[name], setup_repeats=1)
    if _exact(again["metrics"], EXACT_PER_LAYER) != _exact(traced["metrics"], EXACT_PER_LAYER):
        problems.append(f"{name}: program counts differ between two runs of seed {seed}")
    again_plain = run.run(name, seed, 0.0, False, TINY[name], setup_repeats=1)
    if _exact(again_plain["metrics"], EXACT_END_TO_END) != _exact(
        plain["metrics"], EXACT_END_TO_END
    ):
        problems.append(f"{name}: simulated figures differ between two runs of seed {seed}")
    return problems


def main() -> int:
    if set(END_TO_END) != set(_declared()[0]) or set(PER_LAYER) != set(_declared()[1]):
        print("metrics.py and BENCHMARK.json disagree on metric names")
        return 1
    problems = []
    for name in TINY:
        found = check(name)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems.extend(found)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
