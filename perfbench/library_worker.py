"""The ``compare_faults`` program under test: ``repro.api.compare`` in
a fresh single-threaded process, no HTTP.

Usage::

    python perfbench/library_worker.py SEED SPANS.jsonl

Protocol (one line each way, JSON replies on stdout):

* on start the worker imports the library, builds the workload's dags,
  certifies each once, and prints ``READY``;
* ``RUN <seconds> <traced 0|1>`` runs whole rounds of the seeded
  calls for at least that long (installing the span wrappers first when traced) and prints one
  JSON line: per call its key, latency, makespans, whether every
  policy completed the dag, and the pins it must meet, plus the
  ``/metrics`` text at both window edges;
* ``QUIT`` writes the spans (if any) and exits 0.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracing import WINDOW_PREFIX, SpanStore  # noqa: E402


def _metrics_text() -> str:
    from repro.obs.exposition import prometheus_body
    from repro.obs.metrics import global_registry

    return prometheus_body(global_registry())


def _call(targets, call: dict, rid: str) -> dict:
    from repro.obs.context import reset_request_id, set_request_id

    token = set_request_id(rid)
    t0 = time.perf_counter()
    try:
        res = workloads.compare_call(targets, call)
    finally:
        reset_request_id(token)
    latency = time.perf_counter() - t0
    n = len(workloads._as_dag(targets[call["dag"]]))
    return {
        "request": rid,
        "key": workloads.compare_key(call),
        "latency": latency,
        "scenario": call["scenario"],
        "machine": call["machine"],
        "makespans": {name: r.makespan for name, r
                      in res.comparison.results.items()},
        "completed": all(r.completed == n for r
                         in res.comparison.results.values()),
        "pin": call.get("pin"),
    }


def run_window(targets, calls, seconds: float, counter) -> dict:
    """Whole rounds of ``calls`` for at least ``seconds`` (cut short
    past twice that), as in ``harness.closed_loop``."""
    before = _metrics_text()
    results = []
    start = time.perf_counter()
    deadline, cutoff = start + seconds, start + 2 * seconds
    while time.perf_counter() < deadline:
        for call in calls:
            if time.perf_counter() >= cutoff:
                break
            results.append(_call(targets, call,
                                 f"{WINDOW_PREFIX}{next(counter)}"))
    return {"results": results, "elapsed": time.perf_counter() - start,
            "before": before, "after": _metrics_text()}


def main(argv: list[str]) -> int:
    seed, spans_path = int(argv[0]), argv[1]
    from repro import api

    targets = workloads.compare_targets()
    for target in targets.values():
        api.schedule(target)
    calls = workloads.compare_plan(seed)
    store = None
    counter = itertools.count()
    print("READY", flush=True)
    for line in sys.stdin:
        cmd = line.split()
        if not cmd or cmd[0] == "QUIT":
            break
        if cmd[0] == "RUN":
            if cmd[2] == "1" and store is None:
                store = SpanStore()
                store.install()
            out = run_window(targets, calls, float(cmd[1]), counter)
            print(json.dumps(out), flush=True)
    if store is not None:
        store.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
