"""The event-driven IC server/client simulation.

This is the assessment substrate standing in for the external
simulation studies the paper cites ([15], [19] — Condor/DAGMan traces
we do not have; see DESIGN.md "Substitutions").  The model:

* an **IC server** owns the dag and allocates one task per client
  request, chosen among ELIGIBLE-and-unallocated tasks by the active
  :class:`~repro.sim.heuristics.Policy`;
* **remote clients** pull work: each requests a task immediately, and
  again as soon as it finishes one; a client that finds no allocatable
  task goes idle — a **starvation event**, the "gridlock" precursor of
  Section 1 — and is woken by the next task completion;
* task *k* takes ``work(k) / speed(client)`` time units; heterogeneous
  speeds make completion order diverge from allocation order, which is
  precisely the regime where eligibility headroom pays off.

Reported metrics: makespan, client utilization, starvation counts and
idle time, and the eligible/allocatable headroom time-series.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api.specs import MachineSpec
    from .faults import FaultPlan, FaultReport, ServerPolicy

from ..exceptions import SimulationError
from ..core.dag import ComputationDag, Node
from ..obs import global_registry, global_tracer, span
from ..obs.context import current_request_id
from .heuristics import Policy
from .machines import (
    IdealMachine,
    MachineModel,
    MachineReport,
    _record_machine,
    resolve_machine,
)

__all__ = [
    "ClientSpec",
    "SimulationResult",
    "TraceRecord",
    "simulate",
]


class TraceRecord(NamedTuple):
    """One allocation in a simulation trace.

    Index-compatible with the bare ``(client_id, task, start, end,
    kind)`` tuples earlier versions recorded, so positional consumers
    (``analysis.ascii_dag.render_gantt``, archived traces) keep
    working; new code should use the field names.
    """

    #: index of the client the task was allocated to
    client_id: int
    #: the task (dag node)
    task: Node
    #: allocation time
    start: float
    #: completion (or loss-detection) time
    end: float
    #: ``"done"`` or ``"lost"``
    kind: str


@dataclass(frozen=True)
class ClientSpec:
    """A remote client.

    ``speed``
        Relative speed; a task of work *w* computes in ``w / speed``.
    ``dropout`` / ``slowdown``
        Probability that a task's result is late, and the factor by
        which it is delayed when so.
    ``loss``
        Probability that a task's result never arrives at all — the
        client vanished.  The server detects the loss after the task's
        nominal duration, returns the task to the allocatable pool (it
        was never executed, so no recomputation rule is violated), and
        the wasted client time is accounted.  This is the failure mode
        behind the paper's "gridlock" concern: already-allocated tasks
        that block progress.  Must be < 1 so runs terminate.
    """

    speed: float = 1.0
    dropout: float = 0.0
    slowdown: float = 4.0
    loss: float = 0.0

    def __post_init__(self) -> None:
        if not self.speed > 0.0:
            raise SimulationError(
                f"client speed must be > 0, got {self.speed}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise SimulationError(
                f"dropout probability must be in [0, 1), got "
                f"{self.dropout}"
            )
        if not self.slowdown >= 1.0:
            raise SimulationError(
                f"slowdown factor must be >= 1, got {self.slowdown}"
            )
        if not 0.0 <= self.loss < 1.0:
            raise SimulationError(
                f"loss probability must be in [0, 1), got {self.loss}"
            )


@dataclass
class SimulationResult:
    """Outcome of one simulated execution."""

    policy: str
    makespan: float
    #: requests that found no allocatable task (computation unfinished)
    starvation_events: int
    #: total client-time spent idle waiting for work
    idle_time: float
    #: busy_time / (n_clients * makespan)
    utilization: float
    #: (time, allocatable_count) sampled at every event
    headroom_series: list[tuple[float, int]] = field(repr=False, default_factory=list)
    #: number of tasks executed (== |dag| on success)
    completed: int = 0
    #: allocations whose result was lost (client vanished)
    lost_allocations: int = 0
    #: client-time burnt on lost allocations
    wasted_work: float = 0.0
    #: per-allocation :class:`TraceRecord` entries; populated only
    #: when ``simulate(..., record_trace=True)`` (guaranteed empty —
    #: not merely discarded — on the non-trace path)
    trace: list[TraceRecord] = field(repr=False, default_factory=list)
    #: fault-path accounting (:class:`~repro.sim.faults.FaultReport`);
    #: ``None`` on the ideal (no server policy, no fault plan) path
    fault_report: "FaultReport | None" = None
    #: machine-model accounting
    #: (:class:`~repro.sim.machines.MachineReport`); ``None`` on the
    #: stock ideal machine (the default)
    machine_report: "MachineReport | None" = None

    @property
    def mean_headroom(self) -> float:
        """Time-averaged allocatable-task count."""
        if len(self.headroom_series) < 2:
            return 0.0
        area = 0.0
        for (t0, h), (t1, _h1) in zip(
            self.headroom_series, self.headroom_series[1:]
        ):
            area += h * (t1 - t0)
        span = self.headroom_series[-1][0] - self.headroom_series[0][0]
        return area / span if span > 0 else 0.0


def simulate(
    dag: ComputationDag,
    policy: Policy,
    clients: Sequence[ClientSpec] | int = 4,
    work: Callable[[Node], float] | float = 1.0,
    seed: int = 0,
    comm_per_input: float = 0.0,
    record_trace: bool = False,
    *,
    server_policy: "ServerPolicy | None" = None,
    fault_plan: "FaultPlan | None" = None,
    machine: "MachineSpec | MachineModel | str | None" = None,
) -> SimulationResult:
    """Simulate executing ``dag`` on remote clients under ``policy``.

    Parameters
    ----------
    clients:
        Client specs, or an int for that many unit-speed clients.
    work:
        Per-task work (callable or constant).
    seed:
        Drives dropout sampling and work jitter reproducibly.
    comm_per_input:
        Internet transfer cost per task input (future thrust 3 of
        Section 8): a task with indegree ``k`` pays an extra
        ``comm_per_input * k`` before computing — *not* scaled by
        client speed, since it is network- not CPU-bound.  Coarsening
        a dag reduces total indegree (cut arcs), which is exactly the
        granularity trade-off of Figs. 3/7.
    record_trace:
        Record one :class:`TraceRecord` per allocation into
        ``SimulationResult.trace``.  Off by default; the trace list
        stays empty (nothing is even appended) on the non-trace path.
    server_policy / fault_plan:
        Switch to the realistic failure model of
        :mod:`repro.sim.faults`: timeout-based loss detection, retry
        with backoff, speculative re-execution, k-replication, and
        quarantine under an injected chaos script.  Passing either (a
        :class:`~repro.sim.faults.ServerPolicy` /
        :class:`~repro.sim.faults.FaultPlan`) dispatches to
        :func:`~repro.sim.faults.simulate_with_faults` and populates
        ``SimulationResult.fault_report``; the default (both ``None``)
        runs the no-fault event loop (instant loss detection).
    machine:
        A machine model (``docs/MACHINES.md``): a spec string
        (``"bsp:g=1.0"``), a :class:`~repro.api.specs.MachineSpec`, or
        a ready :class:`~repro.sim.machines.MachineModel`, resolved
        here once; either engine threads its hooks.  ``None``,
        ``"ideal"`` and an ideal spec run a fresh
        :class:`~repro.sim.machines.IdealMachine` (the paper's
        semantics; ``machine_report`` stays ``None``); any other model,
        whatever its ``kind``, populates ``machine_report``.

    Allocation/completion/loss/starvation counts, the per-step
    eligibility / allocatable / completed gauges, and (on completion)
    the per-policy ``sim_quality_*`` series are recorded into the
    process-wide metrics registry — this is what ``repro watch``
    renders live; with tracing enabled, every allocation outcome also
    emits a structured trace event under the ``sim.simulate`` span.
    """
    model = resolve_machine(machine) or IdealMachine()
    if server_policy is not None or fault_plan is not None:
        from .faults import simulate_with_faults

        return simulate_with_faults(
            dag, policy, clients, work, seed, comm_per_input,
            record_trace, server_policy=server_policy,
            fault_plan=fault_plan, machine=model,
        )
    return _simulate_kernel(
        dag, policy, clients, work, seed, comm_per_input, record_trace,
        machine=model,
    )


def _clients_and_work(clients, work) -> tuple[list, Callable]:
    """Normalize the ``clients`` / ``work`` arguments every engine
    takes: an int becomes that many unit-speed clients, a constant
    work a constant function."""
    if isinstance(clients, int):
        clients = [ClientSpec() for _ in range(clients)]
    if not clients:
        raise SimulationError("need at least one client")
    return list(clients), (
        work if callable(work) else (lambda _v, _w=float(work): _w))


def _sim_metrics(reg) -> tuple:
    """Register (or fetch) the simulation series shared by the no-fault
    loop and the fault engine: the allocation, completion, loss and
    starvation counters, the allocatable / eligible / completed
    gauges, and the step counter, in that order."""
    return (
        reg.counter("sim_allocations_total", "tasks handed to clients"),
        reg.counter("sim_completions_total",
                    "task results received by the server"),
        reg.counter("sim_losses_total",
                    "allocations lost (client vanished)"),
        reg.counter("sim_starvation_total",
                    "client requests that found no allocatable task"),
        reg.gauge("sim_allocatable",
                  "allocatable (eligible, unallocated) tasks at the "
                  "latest simulation step"),
        reg.gauge("sim_eligible",
                  "ELIGIBLE unexecuted tasks (allocatable + in flight) "
                  "at the latest simulation step"),
        reg.gauge("sim_completed",
                  "tasks completed at the latest simulation step"),
        reg.counter("sim_steps_total",
                    "simulation event-loop steps processed"),
    )


def _simulate_kernel(
    dag: ComputationDag,
    policy: Policy,
    clients: Sequence[ClientSpec] | int = 4,
    work: Callable[[Node], float] | float = 1.0,
    seed: int = 0,
    comm_per_input: float = 0.0,
    record_trace: bool = False,
    *,
    machine: MachineModel,
    _frames: bool = True,
) -> SimulationResult:
    """The no-fault event loop behind :func:`simulate`: pull-based
    clients, instant loss detection (a lost task returns to the pool at
    its nominal finish), idle clients woken before the finishing client
    requests again — with ``machine``'s hooks threaded (the ideal
    machine is just the all-no-op model).

    ``_frames=False`` is the benchmark reference knob
    (``benchmarks/bench_observability.py``): it skips the frame-store
    resolution entirely, isolating the observatory's disabled-path
    cost (one store lookup + an ``enabled`` check per run; the
    per-event capture branch tests a local ``None`` either way)."""
    clients, work_fn = _clients_and_work(clients, work)
    rng = random.Random(seed)
    policy.attach(dag)
    machine.attach(dag, len(clients), work_fn)
    # hooks bound once per run; one the model leaves at its no-op
    # default is None and skipped, so the ideal machine pays a pointer
    # test where a priced machine pays a call
    price, on_start, on_complete = map(
        machine._own, ("duration", "on_start", "on_complete"))
    accepts, ready_of = machine.accepts, machine.ready
    gated = bool(machine._own("accepts") or machine._own("released"))
    total = len(dag)

    # -- observatory frame capture (docs/OBSERVABILITY.md §7) ----------
    # resolved ONCE per run, like the tracer's enabled flag: with the
    # global store disabled (the default), `channel` stays None and the
    # loop below only ever pays a pointer comparison per event.
    channel = None
    frame_store = None
    if _frames:
        from ..obs.observatory import global_frame_store

        frame_store = global_frame_store()
        if frame_store.enabled:
            channel = frame_store.channel(
                dag, clients=len(clients), policy=policy.name
            )
    occupancy: list[Node | None] = (
        [None] * len(clients) if channel is not None else []
    )
    frame_events: list[dict] = []
    frame_step = 0

    reg = global_registry()
    (m_alloc, m_done, m_lost, m_starve, g_allocatable, g_eligible,
     g_completed, m_steps) = _sim_metrics(reg)
    tracer = global_tracer()

    pending_parents = {v: dag.indegree(v) for v in dag.nodes}
    # allocatable = eligible and not yet handed to a client, in
    # eligibility order (FIFO semantics for the baseline).
    allocatable: list[Node] = [v for v in dag.nodes if pending_parents[v] == 0]
    allocated: set[Node] = set()
    done: set[Node] = set()

    # event queue: (time, tiebreak, kind, client, task)
    counter = itertools.count()
    events: list[tuple[float, int, str, int, Node | None]] = []
    idle_clients: list[int] = []
    idle_since: dict[int, float] = {}
    busy_time = 0.0
    idle_time = 0.0
    starvation = 0
    headroom: list[tuple[float, int]] = [(0.0, len(allocatable))]

    lost_allocations = 0
    wasted_work = 0.0
    trace: list[TraceRecord] = []

    def start(client_id: int, task: Node, now: float) -> None:
        nonlocal busy_time, lost_allocations, wasted_work
        allocatable.remove(task)
        allocated.add(task)
        spec = clients[client_id]
        compute = work_fn(task)
        if price is not None:
            compute = price(task, client_id, compute)
        duration = compute / spec.speed
        if spec.dropout and rng.random() < spec.dropout:
            duration *= spec.slowdown
        duration += comm_per_input * dag.indegree(task)
        lost = bool(spec.loss) and rng.random() < spec.loss
        if on_start is not None:
            on_start(task, client_id, now)
        if lost:
            lost_allocations += 1
            wasted_work += duration
        else:
            busy_time += duration
        kind = "lost" if lost else "done"
        m_alloc.inc()
        if channel is not None:
            occupancy[client_id] = task
        tracer.event("sim.allocate", client=client_id, task=str(task),
                     t=now, kind=kind)
        if record_trace:
            trace.append(
                TraceRecord(client_id, task, now, now + duration, kind)
            )
        heapq.heappush(
            events, (now + duration, next(counter), kind, client_id, task)
        )

    def try_allocate(client_id: int, now: float) -> bool:
        if not allocatable:
            return False
        ready = allocatable
        if gated:
            ready = (ready_of(allocatable, now)
                     if accepts(client_id, now) else None)
            if not ready:
                # work exists but the machine refuses to place it here
                # (barrier wait, memory-full client)
                machine.note_stall()
                return False
        start(client_id, policy.select(ready), now)
        return True

    def wake_at(t: float) -> None:
        # a machine release event (barrier opening, spill completing)
        heapq.heappush(events, (t, next(counter), "release", -1, None))

    def go_idle(client_id: int, now: float) -> None:
        nonlocal starvation
        # a refused placement is a stall, not starvation: the dag is
        # not the bottleneck
        if not allocatable and len(done) < total:
            starvation += 1
            m_starve.inc()
        idle_clients.append(client_id)
        idle_since[client_id] = now

    def publish_step() -> None:
        # the per-step series the live dashboard (`repro watch`)
        # renders: latest-value gauges, one write each per event.
        g_allocatable.set(len(allocatable))
        g_eligible.set(len(allocatable) + len(allocated))
        g_completed.set(len(done))
        if channel is not None:
            nonlocal frame_step
            frame_step += 1
            frame_store.record(
                channel,
                step=frame_step,
                t=now,
                executed=done,
                eligible=list(allocatable) + list(allocated),
                occupancy=occupancy,
                events=tuple(frame_events),
                done=len(done) == total,
            )
            frame_events.clear()

    with span("sim.simulate", dag=dag.name, policy=policy.name,
              clients=len(clients), machine=machine.kind):
        now = 0.0
        for cid in range(len(clients)):
            if not try_allocate(cid, now):
                go_idle(cid, now)
        headroom.append((now, len(allocatable)))
        publish_step()

        while events:
            now, _tb, kind, cid, task = heapq.heappop(events)
            m_steps.inc()
            if kind == "done":
                allocated.discard(task)
                done.add(task)
                m_done.inc()
                tracer.event("sim.complete", client=cid, task=str(task),
                             t=now)
                if on_complete is not None:
                    release = on_complete(task, cid, now)
                    if release is not None:
                        wake_at(release)
                for child in dag.children(task):
                    pending_parents[child] -= 1
                    if pending_parents[child] == 0:
                        allocatable.append(child)
            elif kind == "lost":
                # server detects the loss; the task goes back in the pool
                allocated.discard(task)
                allocatable.append(task)
                machine.on_abort(task, cid, now)
                m_lost.inc()
                tracer.event("sim.loss", client=cid, task=str(task), t=now)
            else:
                machine.on_release(now)
            if channel is not None and kind != "release":
                occupancy[cid] = None
                if kind == "lost":
                    ev = {"kind": "loss", "client": cid,
                          "task": str(task)}
                    rid = current_request_id()
                    if rid is not None:
                        ev["request"] = rid
                    frame_events.append(ev)
            # wake idle clients the machine will serve, first accepting
            # client first; a gating machine is re-asked after each
            # grant — a placement can change what it admits (memory
            # used, levels open)
            while idle_clients and allocatable:
                ready, i = allocatable, 0
                if gated:
                    ready = ready_of(allocatable, now)
                    i = next((j for j, wid in enumerate(idle_clients)
                              if accepts(wid, now)), None)
                    if not ready or i is None:
                        break
                wid = idle_clients.pop(i)
                idle_time += now - idle_since.pop(wid)
                start(wid, policy.select(ready), now)
            # the finishing client requests again
            if kind != "release" and not try_allocate(cid, now):
                go_idle(cid, now)
            headroom.append((now, len(allocatable)))
            publish_step()
            if not events and allocatable and len(done) < total:
                # wedged: idle clients, allocatable work, nothing in
                # flight — ask the machine to trade for progress
                wake = machine.force_progress(now)
                if wake is None:
                    raise SimulationError(
                        f"machine {machine.kind!r} wedged the "
                        f"simulation: {len(done)}/{total} tasks "
                        "done and no placement possible"
                    )
                wake_at(wake)

    if len(done) != total:
        raise SimulationError(
            f"simulation stalled: {len(done)}/{total} tasks done"
        )
    for wid in idle_clients:
        # trailing idleness up to makespan
        idle_time += now - idle_since.pop(wid, now)
    makespan = now
    util = (
        busy_time / (len(clients) * makespan) if makespan > 0 else 1.0
    )
    result = SimulationResult(
        policy=policy.name,
        makespan=makespan,
        starvation_events=starvation,
        idle_time=idle_time,
        utilization=util,
        headroom_series=headroom,
        completed=len(done),
        lost_allocations=lost_allocations,
        wasted_work=wasted_work,
        trace=trace,
        machine_report=machine.report(),
    )
    _record_quality(reg, result)
    return result


def _record_quality(reg, result: SimulationResult) -> None:
    """Publish a run's quality summary as per-policy labeled series
    (and its machine report, when it has one, as ``sim_machine_*``).

    A counter tracks how many runs each policy has completed; the
    gauges hold the *latest* run's quality figures, which is what the
    live dashboard compares policies by.
    """
    if result.machine_report is not None:
        _record_machine(reg, result.machine_report)
    labels = ("policy",)
    reg.counter("sim_runs_total", "completed simulation runs",
                labels).labels(result.policy).inc()
    reg.gauge("sim_quality_makespan",
              "makespan of the latest completed run",
              labels).labels(result.policy).set(result.makespan)
    reg.gauge("sim_quality_utilization",
              "client utilization of the latest completed run",
              labels).labels(result.policy).set(result.utilization)
    reg.gauge("sim_quality_starvation",
              "starvation events in the latest completed run",
              labels).labels(result.policy).set(result.starvation_events)
    reg.gauge("sim_quality_mean_headroom",
              "time-averaged allocatable count of the latest run",
              labels).labels(result.policy).set(result.mean_headroom)


def _simulate_batched(
    dag: ComputationDag,
    batches,
    clients: Sequence[ClientSpec] | int = 4,
    work: Callable[[Node], float] | float = 1.0,
    seed: int = 0,
    comm_per_input: float = 0.0,
) -> SimulationResult:
    """Simulate the *batched* regimen of [20]: the server hands out one
    batch per period and waits for the whole batch before issuing the
    next (a barrier per round).

    ``batches`` is a :class:`~repro.core.batched.BatchSchedule`.
    Within a round, tasks go to clients by longest-processing-time
    first onto the least-loaded client; the round lasts as long as its
    most loaded client.  Simpler to operate than the event-driven
    server — no eligibility tracking between requests — but the
    barriers idle fast clients, which is exactly the trade-off the
    batched framework accepts.
    """
    clients, work_fn = _clients_and_work(clients, work)
    rng = random.Random(seed)

    makespan = 0.0
    busy_time = 0.0
    idle_time = 0.0
    headroom: list[tuple[float, int]] = [(0.0, len(batches.batches[0]))]
    for batch in batches.batches:
        durations = []
        for task in batch:
            d = work_fn(task)
            durations.append((d, task))
        durations.sort(reverse=True, key=lambda x: x[0])
        loads = [0.0] * len(clients)
        for d, task in durations:
            cid = min(range(len(clients)), key=lambda c: loads[c])
            spec = clients[cid]
            dur = d / spec.speed
            if spec.dropout and rng.random() < spec.dropout:
                dur *= spec.slowdown
            dur += comm_per_input * dag.indegree(task)
            loads[cid] += dur
            busy_time += dur
        round_time = max(loads)
        idle_time += sum(round_time - ld for ld in loads)
        makespan += round_time
        headroom.append((makespan, len(batch)))
    util = busy_time / (len(clients) * makespan) if makespan > 0 else 1.0
    result = SimulationResult(
        policy=f"BATCHED({batches.name})",
        makespan=makespan,
        starvation_events=0,
        idle_time=idle_time,
        utilization=util,
        headroom_series=headroom,
        completed=len(dag),
    )
    _record_quality(global_registry(), result)
    return result
