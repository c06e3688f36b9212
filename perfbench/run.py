"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tpch_scan --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates plain rounds with rounds whose layer entry
points are wrapped by the span recorder, and reports per-layer metrics.
Every answer is checked against an oracle outside the timed region, and
every round of a seed must repeat the first round's simulated figures
and program counts exactly. Any failure, wrong answer or determinism
break sets ``correct`` to false and the exit code to 1.

The last line of standard output is the result object; notes before it
say which checks ran and what the trace found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")

# Full-size runs take this many set-ups; ``setup_s`` is their median.
SETUP_REPEATS = 7


def _workloads():
    from dashboard_storm import DashboardStorm
    from streaming_lakehouse import StreamingLakehouseWorkload
    from tpch_scan import TpchScan

    return {
        workload.name: workload
        for workload in (TpchScan, DashboardStorm, StreamingLakehouseWorkload)
    }


def _set_up(factory, repeats: int):
    """Build the workload ``repeats`` times; keep the last.

    Each set-up is timed and scaled by the host's speed, taken before
    and after it (see ``common.host_scale``).
    """
    from common import host_scale

    times, ingest = [], []
    workload = None
    for _ in range(repeats):
        workload = None  # drop the previous set-up before building the next
        gc.collect()
        workload = factory()
        scale = host_scale()
        started = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - started
        scale = (scale + host_scale()) / 2
        times.append(elapsed * scale)
        if workload.ingest_rows:
            ingest.append((workload.ingest_rows, workload.ingest_wall_s * scale))
    workload.prepare_oracle()
    return workload, times, ingest


def _run_rounds(workload, seconds: float, trace: bool):
    """Rounds until ``seconds`` pass; with ``trace``, every other one traced."""
    from common import Meter
    from tracing import SpanTracer, instrument

    tracer = SpanTracer() if trace else None
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        meter = Meter()
        traced_round = trace and len(untraced) > len(traced)
        if traced_round:
            meter.tracer = tracer
            with instrument(tracer):
                traced.append(workload.run_round(meter))
        else:
            untraced.append(workload.run_round(meter))
        enough = not trace or traced
        if enough and time.perf_counter() >= deadline:
            break
    return untraced, traced, tracer


def _determinism_breaks(rounds) -> list[str]:
    reference = rounds[0].signature()
    return [
        f"round {index} differs from round 0 in simulated figures or counts"
        for index, result in enumerate(rounds[1:], start=1)
        if result.signature() != reference
    ]


def run(name: str, seed: int, seconds: float, trace: bool, scale: dict | None = None,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; returns the result object (see the module doc)."""
    from metrics import end_to_end, failures, per_layer

    factory = _workloads()[name]
    workload, setup_times, setup_ingest = _set_up(
        lambda: factory(seed, **(scale or {})), setup_repeats
    )
    untraced, traced, tracer = _run_rounds(workload, seconds, trace)
    rounds = untraced + traced
    problems = _determinism_breaks(rounds)
    for result in rounds:
        problems.extend(result.errors)
    attempted, failed = failures(rounds)
    if trace:
        metrics, notes = per_layer(workload, untraced, traced, tracer.summary())
        problems.extend(note for note in notes if "FAILED" in note)
    else:
        metrics = end_to_end(untraced, setup_times, setup_ingest)
        notes = []
    notes.append(
        f"{name} seed {seed}: {len(untraced)} plain + {len(traced)} traced rounds, "
        f"{attempted} queries attempted, {failed} failed, shed or wrong; "
        f"setup {['%.3f' % s for s in setup_times]} s; plain rounds q/s "
        f"{['%.2f' % (r.completed / r.wall_s) for r in untraced if r.wall_s]}, "
        f"unscaled {['%.2f' % (r.completed / r.raw_wall_s) for r in untraced if r.raw_wall_s]}"
    )
    correct = not problems and failed == 0
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes + problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    if args.workload not in _workloads():
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in result.pop("notes"):
        print(note)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
