"""Benchmark-side tracing: spans around calls into each layer.

The wrappers live here, in the benchmark, not in the program: each one
replaces a public callable *where its caller looks it up* (a class
attribute, or a module global the caller reads at call time) and
records one span per call.  Spans stay in memory and are written out
as JSONL when the traced process ends.

A span is ``(id, parent, name, start, end, request)``: ``parent`` is the
enclosing span on the same thread (0 at top level) and ``request`` the
``X-Repro-Request-Id`` bound by the program
(:func:`repro.obs.context.current_request_id`), which links spans a
request causes on different threads.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import re
import statistics
import threading
import time

#: (module, attribute path, span name).  The attribute is patched on the
#: object its caller resolves at call time: ``SchedulingService.dispatch``
#: through ``self.svc.dispatch``, ``dag_from_dict`` as imported into
#: ``repro.service.http``, ``repro.api.schedule`` through the
#: pipeline's ``api.schedule`` and ``api.simulate``'s global lookup, and
#: ``recognize`` as imported into ``repro.core.certify``.
WRAPPED = (
    ("repro.service.http", "SchedulingService.dispatch", "http.dispatch"),
    ("repro.service.http", "dag_from_dict", "codec.decode"),
    ("repro.obs.server", "HardenedHandler.respond_json", "codec.respond"),
    ("repro.service.registry", "DagRegistry.put", "registry.put"),
    ("repro.service.registry", "DagRegistry.get", "registry.get"),
    ("repro.service.pipeline", "RequestPipeline.submit_dag",
     "pipeline.submit_dag"),
    ("repro.service.pipeline", "RequestPipeline.submit_simulation",
     "pipeline.submit_simulation"),
    ("repro.api", "schedule", "certify.schedule"),
    ("repro.core.certify", "recognize", "certify.recognize"),
    ("repro.api", "simulate", "sim.simulate"),
    ("repro.api", "compare", "sim.compare"),
    ("repro.obs.observatory", "FrameStore.record", "frames.record"),
    ("repro.service.durability", "DurabilityManager.record_admitted",
     "journal.append"),
    ("repro.service.durability", "DurabilityManager.record_certificate",
     "journal.append"),
    ("repro.service.durability", "DurabilityManager.record_spilled",
     "journal.append"),
    ("repro.service.durability", "DurabilityManager.snapshot_now",
     "journal.snapshot"),
    ("repro.service.durability", "DurabilityManager.recover",
     "journal.recover"),
)

#: request IDs the generator sends during a timed window start with
#: this prefix; set-up and scrape requests use other prefixes.
WINDOW_PREFIX = "w"

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    ("http.transport_ms_p50", "ms"),
    ("http.dispatch_ms_p50", "ms"),
    ("codec.decode_us_p50", "us"),
    ("codec.respond_us_p50", "us"),
    ("registry.put_us_p50", "us"),
    ("registry.get_us_p50", "us"),
    ("registry.hit_ratio", "ratio"),
    ("registry.evictions", "count"),
    ("pipeline.queue_wait_ms_p50", "ms"),
    ("pipeline.coalesced", "count"),
    ("pipeline.rejected", "count"),
    ("certify.schedule_ms_p50", "ms"),
    ("certify.recognize_ms_p50", "ms"),
    ("certify.states_expanded", "count"),
    ("certify.library_hit_ratio", "ratio"),
    ("certify.calls_per_op", "calls/op"),
    ("sim.simulate_ms_p50", "ms"),
    ("sim.self_ms_p50", "ms"),
    ("sim.events_per_s", "1/s"),
    ("sim.faults_injected", "count"),
    ("sim.retries", "count"),
    ("frames.recorded", "count"),
    ("frames.record_us_mean", "us"),
    ("frames.share_of_simulate", "ratio"),
    ("journal.append_us_p50", "us"),
    ("journal.appends", "count"),
    ("journal.fsyncs", "count"),
    ("journal.snapshots", "count"),
    ("journal.recover_s", "s"),
    ("trace.overhead_pct", "%"),
)


class SpanStore:
    """In-memory span recorder; thread-safe under the GIL (one
    ``list.append`` per span, ids from ``itertools.count``)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []
        self._request_id = lambda: None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        store = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = store._stack()
            sid = next(store._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                store.spans.append(
                    (sid, parent, name, start, end, store._request_id()))

        return traced

    def install(self, targets=WRAPPED) -> None:
        """Patch every target in place; :meth:`uninstall` restores."""
        from repro.obs.context import current_request_id

        self._request_id = current_request_id
        for module_name, attr_path, span_name in targets:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span_name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, rid in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "request": rid,
                }) + "\n")


def load_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent and overlapping children are
    merged, so the result is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(
                (s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, cursor), min(b, s["end"])
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# ----------------------------------------------------------------------
# /metrics counters
# ----------------------------------------------------------------------

_SAMPLE = re.compile(
    r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)")


def parse_prometheus(text: str) -> dict[tuple[str, str], float]:
    """``{(name, labels): value}`` for every sample line."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if m:
            out[(m.group(1), m.group(2) or "")] = float(m.group(3))
    return out


def counter_delta(before: dict, after: dict, name: str,
                  label: str | None = None) -> float:
    """Growth of counter ``name`` between two scrapes, summed over its
    label sets (only those containing ``label`` when given)."""
    total = 0.0
    for (n, labels), value in after.items():
        if n == name and (label is None or label in labels):
            total += value - before.get((n, labels), 0.0)
    return total


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------


def _p50(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list[dict], latencies: dict[str, float],
                      before: dict, after: dict, ops: int,
                      untraced_ops_per_s: float,
                      traced_ops_per_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced window.

    ``spans`` are all spans of the traced process; only those of window
    requests count, except ``journal.recover`` (boot).  ``latencies``
    maps each window request ID to its client-observed seconds;
    ``before``/``after`` are the edge scrapes.  A layer that did no work
    reports 0.
    """
    window = [s for s in spans
              if (s["request"] or "").startswith(WINDOW_PREFIX)]
    own = self_times(window)
    by_name: dict[str, list[dict]] = {}
    for s in window:
        by_name.setdefault(s["name"], []).append(s)

    def durations(name, scale):
        return [(s["end"] - s["start"]) * scale
                for s in by_name.get(name, ())]

    def delta(name, label=None):
        return counter_delta(before, after, name, label)

    dispatch = {s["request"]: s["end"] - s["start"]
                for s in by_name.get("http.dispatch", ())}
    submitted = {s["request"]: s["end"]
                 for s in by_name.get("pipeline.submit_simulation", ())}
    sims = by_name.get("sim.simulate", []) + by_name.get("sim.compare", [])
    sim_self = [own[s["id"]] for s in sims]
    sim_total = sum(s["end"] - s["start"] for s in sims)
    records = durations("frames.record", 1.0)
    lookups = delta("registry_lookups_total")
    library = delta("certify_block_cache_lookups_total")
    recover = [s["end"] - s["start"] for s in spans
               if s["name"] == "journal.recover"]
    return {
        "http.transport_ms_p50": _p50(
            (latencies[r] - d) * 1e3 for r, d in dispatch.items()
            if r in latencies),
        "http.dispatch_ms_p50": _p50(
            d * 1e3 for r, d in dispatch.items() if r in latencies),
        "codec.decode_us_p50": _p50(durations("codec.decode", 1e6)),
        "codec.respond_us_p50": _p50(durations("codec.respond", 1e6)),
        "registry.put_us_p50": _p50(durations("registry.put", 1e6)),
        "registry.get_us_p50": _p50(durations("registry.get", 1e6)),
        "registry.hit_ratio": _ratio(
            delta("registry_lookups_total", 'result="hit"'), lookups),
        "registry.evictions": delta("registry_evictions_total"),
        "pipeline.queue_wait_ms_p50": _p50(
            (s["start"] - submitted[s["request"]]) * 1e3
            for s in by_name.get("sim.simulate", ())
            if s["request"] in submitted),
        "pipeline.coalesced": delta("service_coalesced_total"),
        "pipeline.rejected": delta("service_rejected_total"),
        "certify.schedule_ms_p50": _p50(
            durations("certify.schedule", 1e3)),
        "certify.recognize_ms_p50": _p50(
            durations("certify.recognize", 1e3)),
        "certify.states_expanded": delta("search_states_expanded_total"),
        "certify.library_hit_ratio": _ratio(
            delta("certify_block_cache_lookups_total", 'result="hit"'),
            library),
        "certify.calls_per_op": _ratio(
            len(by_name.get("certify.schedule", ())), ops),
        "sim.simulate_ms_p50": _p50(
            (s["end"] - s["start"]) * 1e3 for s in sims),
        "sim.self_ms_p50": _p50(v * 1e3 for v in sim_self),
        "sim.events_per_s": _ratio(delta("sim_steps_total"),
                                   sum(sim_self)),
        "sim.faults_injected": delta("sim_faults_injected_total"),
        "sim.retries": delta("sim_retries_total"),
        "frames.recorded": delta("obs_frames_captured_total"),
        "frames.record_us_mean": (
            statistics.fmean(records) * 1e6 if records else 0.0),
        "frames.share_of_simulate": _ratio(sum(records), sim_total),
        "journal.append_us_p50": _p50(durations("journal.append", 1e6)),
        "journal.appends": delta("journal_appends_total"),
        "journal.fsyncs": delta("journal_fsyncs_total"),
        "journal.snapshots": delta("journal_snapshots_total"),
        "journal.recover_s": max(recover, default=0.0),
        "trace.overhead_pct": _ratio(
            (untraced_ops_per_s - traced_ops_per_s) * 100.0,
            untraced_ops_per_s),
    }


def render_table(workload: str, values: dict[str, float]) -> str:
    """The per-layer table printed by a traced run."""
    units = dict(PER_LAYER)
    lines = [f"per-layer metrics, workload {workload} (traced run)",
             f"{'metric':<28} {'value':>14}  unit"]
    for name, _ in PER_LAYER:
        lines.append(f"{name:<28} {values[name]:>14.4f}  {units[name]}")
    return "\n".join(lines)
