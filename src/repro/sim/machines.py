"""Pluggable machine models for the IC server/client simulation.

The ideal simulator (:func:`repro.sim.server.simulate`) executes under
the exact idealization the source paper assumes: communication is
free, client memory is unbounded, and a task costs the same wherever
it runs.  Modern DAG-scheduling work drops each of those assumptions —
Papp et al. (*DAG Scheduling in the BSP Model*) price supersteps and
communication, Grandl et al. (DAGPS) pack tasks under resource
budgets — and ROADMAP item 3 asks when IC-optimality still wins once
they are gone.  This module answers with a pluggable
:class:`MachineModel` layer behind one :class:`~repro.api.specs.MachineSpec`
API:

``ideal``
    Today's semantics.  The dispatch layer routes ``machine="ideal"``
    to the untouched ideal kernel, so results stay byte-identical to
    the pre-machine simulator (regression-pinned by
    ``benchmarks/bench_machines.py``).
``bsp``
    Bulk-synchronous execution: tasks of dag level ℓ form superstep ℓ;
    when the last level-ℓ task completes, a barrier costing
    ``g·h + L`` opens level ℓ+1, where ``h`` is the largest per-client
    communication volume (sum of outdegrees of the level's tasks run
    on that client) — the h-relation of the BSP literature.  Full
    fan-out is charged because allocation is dynamic: at barrier time
    the server cannot know which consumers land where.
``memcap``
    Per-client memory budgets gate *placement*: a running attempt
    holds one slot, and a completed task's output stays resident on
    its client until every child has completed (sinks release
    immediately; the server keeps result copies, so crashes free a
    client's memory without losing data).  An ELIGIBLE task may be
    schedulable by the dag yet placeable nowhere — the regime where
    eager eligibility maximization can *hurt*.  A forced-spill valve
    (evict the oldest resident output on the fullest client after
    ``spill`` time units) guarantees termination.
``hetero``
    Per-task-kind duration distributions: each task kind draws a
    deterministic speed scale, each task a jitter within ``spread``,
    from seeded streams keyed by ``(seed, kind, task)`` alone — so
    durations are independent of allocation order and identical across
    policies, which is what makes cross-policy comparison fair.

Fault plans compose with any machine: :class:`~repro.sim.faults._FaultEngine`
threads the same hook surface (duration transform, placement gate,
barrier release, abort/crash cleanup), so ``blackout`` under ``bsp``
is one call away.  Accounting lands in a frozen :class:`MachineReport`
on ``SimulationResult.machine_report`` and in the ``sim_machine_*``
metrics.  See ``docs/MACHINES.md``.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.dag import ComputationDag, Node
from ..exceptions import MachineSpecError, SimulationError
from ..obs import global_registry, global_tracer, span
from .heuristics import Policy
from .server import ClientSpec, SimulationResult, TraceRecord, _record_quality

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api.specs import MachineSpec

__all__ = [
    "BspMachine",
    "HeteroMachine",
    "IdealMachine",
    "MachineModel",
    "MachineReport",
    "MemcapMachine",
    "build_machine",
    "resolve_machine",
]


@dataclass(frozen=True)
class MachineReport:
    """Machine-model accounting for one simulated run (attached to
    ``SimulationResult.machine_report``; the same numbers land in the
    ``sim_machine_*`` metrics).  Fields irrelevant to a model keep
    their zero defaults.
    """

    #: round-trip spec string of the machine in force
    machine: str = "ideal"
    #: model kind (``ideal`` / ``bsp`` / ``memcap`` / ``hetero``)
    kind: str = "ideal"
    #: bsp: barriers crossed (one per non-final dag level)
    supersteps: int = 0
    #: bsp: total barrier time added (``sum g·h + L``)
    barrier_cost: float = 0.0
    #: bsp: total h-relation volume across barriers
    comm_volume: float = 0.0
    #: requests that found allocatable work the machine refused to
    #: place (barrier waits, memory-full clients)
    placement_stalls: int = 0
    #: memcap: forced evictions by the progress valve
    spills: int = 0
    #: memcap: total time consumed by forced spills
    spill_time: float = 0.0
    #: memcap: peak slots in use on any single client
    peak_memory: int = 0
    #: hetero: smallest duration factor drawn this run
    duration_min_factor: float = 1.0
    #: hetero: largest duration factor drawn this run
    duration_max_factor: float = 1.0


class MachineModel:
    """Base machine model: the hook surface both event engines
    (:func:`_simulate_machine` and the fault engine) thread.

    The default implementation is the ideal machine — every hook is a
    no-op — so a model overrides only the costs it prices.  Models are
    stateful within a run; :meth:`attach` (re)initializes all mutable
    state, so one instance may be reused across sequential runs but
    never shared between concurrent ones.
    """

    kind = "ideal"
    #: whether :meth:`released` is overridden; when not, the engines
    #: skip the per-task filter and place from the allocatable list
    _gates_tasks = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "placeable" in cls.__dict__:
            raise TypeError(
                f"{cls.__name__} defines placeable(task, cid, now), "
                "which the engines no longer call; split the gate into "
                "accepts(cid, now) (per client) and/or "
                "released(task, now) (per task) — see "
                "docs/API_MIGRATION.md"
            )
        cls._gates_tasks = cls.released is not MachineModel.released

    def __init__(self) -> None:
        self.stalls = 0
        self._spec_str: str | None = None

    # -- lifecycle ----------------------------------------------------
    def attach(self, dag: ComputationDag, n_clients: int,
               work_fn: Callable[[Node], float]) -> None:
        """Called once before a run; resets per-run state."""
        self.stalls = 0

    # -- pricing hooks ------------------------------------------------
    def duration(self, task: Node, cid: int, base: float) -> float:
        """Transform a task's compute work (before the client-speed
        division and communication add)."""
        return base

    # -- placement hooks ----------------------------------------------
    # A task may start on a client when the client ``accepts`` work and
    # the task is ``released``.  The engines never ask per (task,
    # client) pair: ``accepts`` once per client, ``released`` once per
    # task (and only when a model overrides it).
    def accepts(self, cid: int, now: float) -> bool:
        """May client ``cid`` take a task at ``now``?"""
        return True

    def released(self, task: Node, now: float) -> bool:
        """May ``task`` start on any client at ``now``?"""
        return True

    def ready(self, allocatable: list[Node], now: float) -> list[Node]:
        """The released allocatable tasks — ``allocatable`` itself when
        the model never holds a task back, so selection sees the very
        list the machine-less engines do."""
        if not self._gates_tasks:
            return allocatable
        return [t for t in allocatable if self.released(t, now)]

    # -- state hooks --------------------------------------------------
    def on_start(self, task: Node, cid: int, now: float) -> None:
        """An attempt of ``task`` began on ``cid``."""

    def on_complete(self, task: Node, cid: int,
                    now: float) -> float | None:
        """``task``'s winning result arrived from ``cid``.  Returns a
        future wake time (the engine schedules a release event and
        re-dispatches idle clients then) or ``None``."""
        return None

    def on_abort(self, task: Node, cid: int, now: float) -> None:
        """An attempt ended without a usable result (lost result,
        duplicate arrival, corruption) — ``cid`` is free again."""

    def on_crash(self, cid: int, now: float) -> None:
        """Client ``cid`` died permanently; its resources vanish."""

    def on_release(self, now: float) -> None:
        """A previously returned wake time arrived."""

    def force_progress(self, now: float) -> float | None:
        """Called when the engine is wedged (idle clients, allocatable
        tasks, empty event queue): trade something for progress and
        return the wake time, or ``None`` if nothing can be done."""
        return None

    # -- accounting ---------------------------------------------------
    def note_stall(self) -> None:
        """A request found allocatable work this machine refused."""
        self.stalls += 1

    def spec_str(self) -> str:
        return self._spec_str if self._spec_str is not None else self.kind

    def report(self) -> MachineReport:
        return MachineReport(machine=self.spec_str(), kind=self.kind,
                             placement_stalls=self.stalls)


class IdealMachine(MachineModel):
    """Today's semantics, as a model object.

    The dispatch layer (:func:`resolve_machine`) short-circuits
    ``ideal`` to the untouched ideal kernel, so this class exists for
    the model interface's sake (custom models subclass the same
    no-ops) and for callers that want an explicit object.
    """

    kind = "ideal"


class BspMachine(MachineModel):
    """Bulk-synchronous supersteps with ``g·h + L`` barriers (after
    Papp et al.).  Superstep ℓ is dag level ℓ; level ℓ+1 opens
    ``g·h + L`` after the last level-ℓ task completes, ``h`` = the
    largest per-client outdegree volume of the closing level."""

    kind = "bsp"

    def __init__(self, g: float = 0.5, L: float = 1.0) -> None:
        super().__init__()
        if g < 0 or L < 0:
            raise MachineSpecError(
                f"bsp g and L must be >= 0, got g={g}, L={L}"
            )
        self.g = float(g)
        self.L = float(L)

    def attach(self, dag, n_clients, work_fn):
        super().attach(dag, n_clients, work_fn)
        self._out = {v: dag.outdegree(v) for v in dag.nodes}
        self._level = dag.node_levels()
        self._remaining: dict[int, int] = {}
        for lvl in self._level.values():
            self._remaining[lvl] = self._remaining.get(lvl, 0) + 1
        self._depth = max(self._remaining, default=0)
        self._release: dict[int, float] = {0: 0.0}
        self._volume: dict[int, dict[int, float]] = {}
        self.supersteps = 0
        self.barrier_cost = 0.0
        self.comm_volume = 0.0

    def released(self, task, now):
        release = self._release.get(self._level[task])
        return release is not None and release <= now

    def on_complete(self, task, cid, now):
        lvl = self._level[task]
        per_client = self._volume.setdefault(lvl, {})
        per_client[cid] = per_client.get(cid, 0.0) + self._out[task]
        self._remaining[lvl] -= 1
        if self._remaining[lvl] > 0 or lvl >= self._depth:
            return None
        h = max(per_client.values(), default=0.0)
        cost = self.g * h + self.L
        self.supersteps += 1
        self.barrier_cost += cost
        self.comm_volume += h
        self._release[lvl + 1] = now + cost
        return now + cost

    def report(self):
        return MachineReport(
            machine=self.spec_str(), kind=self.kind,
            supersteps=self.supersteps,
            barrier_cost=self.barrier_cost,
            comm_volume=self.comm_volume,
            placement_stalls=self.stalls,
        )


class MemcapMachine(MachineModel):
    """Per-client memory budgets gating placement (DAGPS-style
    packing pressure).

    A running attempt holds one slot; a completed task's output stays
    resident on its client until every child completes (sinks release
    immediately).  ``accepts`` admits work only where a slot is free,
    so an ELIGIBLE task may be momentarily unplaceable everywhere.
    When that wedges the run (all clients full, nothing in flight),
    the progress valve evicts the oldest resident output on the
    fullest client at a cost of ``spill`` time units — the server
    re-hosts it, modeling a paged transfer back over the Internet.
    """

    kind = "memcap"

    def __init__(self, cap: float = 3, spill: float = 2.0) -> None:
        super().__init__()
        if cap < 1:
            raise MachineSpecError(
                f"memcap cap must be >= 1, got {cap}"
            )
        if not spill > 0:
            raise MachineSpecError(
                f"memcap spill cost must be > 0, got {spill}"
            )
        self.cap = int(cap)
        self.spill = float(spill)

    def attach(self, dag, n_clients, work_fn):
        super().attach(dag, n_clients, work_fn)
        self._dag = dag
        self._usage: dict[int, int] = {}
        #: task -> client holding its resident output, insertion-ordered
        self._resident: dict[Node, int] = {}
        self._child_left = {v: dag.outdegree(v) for v in dag.nodes}
        self._pending_spills: list[int] = []
        self.spills = 0
        self.spill_time = 0.0
        self.peak = 0

    def _bump(self, cid: int, delta: int) -> None:
        use = self._usage.get(cid, 0) + delta
        self._usage[cid] = use
        if use > self.peak:
            self.peak = use

    def accepts(self, cid, now):
        return self._usage.get(cid, 0) < self.cap

    def on_start(self, task, cid, now):
        self._bump(cid, 1)

    def on_complete(self, task, cid, now):
        if self._child_left[task] == 0:
            self._bump(cid, -1)      # sink: running slot freed outright
        else:
            self._resident[task] = cid   # slot converts to output
        for parent in self._dag.parents(task):
            self._child_left[parent] -= 1
            if self._child_left[parent] == 0:
                owner = self._resident.pop(parent, None)
                if owner is not None:
                    self._bump(owner, -1)
        return None

    def on_abort(self, task, cid, now):
        self._bump(cid, -1)

    def on_crash(self, cid, now):
        # the client's RAM is gone: running slot and resident outputs
        # alike.  The server holds copies of every received result, so
        # nothing is lost — descendants refetch from the server.
        self._usage[cid] = 0
        for task, owner in list(self._resident.items()):
            if owner == cid:
                del self._resident[task]

    def force_progress(self, now):
        if not self._resident:
            return None
        counts: dict[int, int] = {}
        for owner in self._resident.values():
            counts[owner] = counts.get(owner, 0) + 1
        victim_cid = max(sorted(counts), key=lambda c: counts[c])
        for task, owner in self._resident.items():
            if owner == victim_cid:
                del self._resident[task]     # oldest resident first
                break
        self._pending_spills.append(victim_cid)
        self.spills += 1
        self.spill_time += self.spill
        return now + self.spill

    def on_release(self, now):
        if self._pending_spills:
            self._bump(self._pending_spills.pop(0), -1)

    def report(self):
        return MachineReport(
            machine=self.spec_str(), kind=self.kind,
            placement_stalls=self.stalls,
            spills=self.spills,
            spill_time=self.spill_time,
            peak_memory=self.peak,
        )


def _task_kind(task: Node) -> str:
    """A task's *kind* for heterogeneous duration draws: the leading
    role label of its name (tuple head, or the alpha prefix of its
    string form), so structured node names — ``("mul", i, j)``,
    ``"v3-2"``, ``N(2,1)`` — group into families."""
    if isinstance(task, tuple) and task:
        return str(task[0])
    s = str(task)
    for cut in "(:-,0123456789":
        idx = s.find(cut)
        if idx > 0:
            s = s[:idx]
    return s or str(task)


class HeteroMachine(MachineModel):
    """Per-task-kind duration distributions, seedable and
    deterministic.

    Each kind draws a speed scale in ``[0.5, 2)`` from
    ``Random(f"repro-hetero-kind:{seed}:{kind}")``; each task a jitter
    factor in ``[1-spread, 1+spread)`` from
    ``Random(f"repro-hetero:{seed}:{task!r}")``.  Factors are pure
    functions of ``(seed, task)`` — never of allocation order — so
    every policy faces the identical duration surface and two runs are
    bit-equal.
    """

    kind = "hetero"

    def __init__(self, spread: float = 0.5, seed: int = 0) -> None:
        super().__init__()
        if not 0.0 <= spread < 1.0:
            raise MachineSpecError(
                f"hetero spread must be in [0, 1), got {spread}"
            )
        self.spread = float(spread)
        self.seed = int(seed)

    def attach(self, dag, n_clients, work_fn):
        super().attach(dag, n_clients, work_fn)
        self._factors: dict[Node, float] = {}
        self._scales: dict[str, float] = {}
        self.min_factor = 1.0
        self.max_factor = 1.0
        self._drawn = False

    def _factor(self, task: Node) -> float:
        f = self._factors.get(task)
        if f is None:
            kind = _task_kind(task)
            scale = self._scales.get(kind)
            if scale is None:
                scale = 0.5 + 1.5 * random.Random(
                    f"repro-hetero-kind:{self.seed}:{kind}").random()
                self._scales[kind] = scale
            u = random.Random(
                f"repro-hetero:{self.seed}:{task!r}").random()
            f = max(scale * (1.0 + self.spread * (2.0 * u - 1.0)), 0.05)
            self._factors[task] = f
            if not self._drawn:
                self.min_factor = self.max_factor = f
                self._drawn = True
            else:
                self.min_factor = min(self.min_factor, f)
                self.max_factor = max(self.max_factor, f)
        return f

    def duration(self, task, cid, base):
        return base * self._factor(task)

    def report(self):
        return MachineReport(
            machine=self.spec_str(), kind=self.kind,
            placement_stalls=self.stalls,
            duration_min_factor=self.min_factor,
            duration_max_factor=self.max_factor,
        )


# ----------------------------------------------------------------------
# spec resolution
# ----------------------------------------------------------------------


def build_machine(spec: "MachineSpec") -> MachineModel:
    """Construct a fresh :class:`MachineModel` for a validated
    :class:`~repro.api.specs.MachineSpec`."""
    if spec.kind == "ideal":
        model: MachineModel = IdealMachine()
    elif spec.kind == "bsp":
        model = BspMachine(g=spec.get("g"), L=spec.get("L"))
    elif spec.kind == "memcap":
        model = MemcapMachine(cap=spec.get("cap"),
                              spill=spec.get("spill"))
    elif spec.kind == "hetero":
        model = HeteroMachine(spread=spec.get("spread"),
                              seed=int(spec.get("seed")))
    else:  # pragma: no cover - MachineSpec validates kinds
        raise MachineSpecError(f"unknown machine kind {spec.kind!r}")
    model._spec_str = str(spec)
    return model


def resolve_machine(machine) -> MachineModel | None:
    """Resolve a ``machine=`` argument — ``None``, a spec string, a
    :class:`~repro.api.specs.MachineSpec`, or a ready
    :class:`MachineModel` — to the model the engines thread, or
    ``None`` for the ideal machine (the dispatch layer keeps the ideal
    path byte-identical by never interposing a model there)."""
    if machine is None or isinstance(machine, MachineModel):
        if machine is not None and machine.kind == "ideal":
            return None
        return machine
    from ..api.specs import MachineSpec

    spec = MachineSpec.parse(machine) if isinstance(machine, str) \
        else machine
    if not isinstance(spec, MachineSpec):
        raise MachineSpecError(
            f"machine must be a spec string, MachineSpec, or "
            f"MachineModel, got {type(machine).__name__}"
        )
    if spec.kind == "ideal":
        return None
    return build_machine(spec)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def _record_machine(reg, report: MachineReport) -> None:
    """Publish a run's machine accounting as per-kind labeled series
    (the ``sim_machine_*`` family; rendered by ``repro watch`` and the
    service ``/metrics``)."""
    labels = ("machine",)
    reg.counter("sim_machine_runs_total",
                "completed simulation runs under a machine model",
                labels).labels(report.kind).inc()
    reg.gauge("sim_machine_supersteps",
              "bsp supersteps of the latest machine-model run",
              labels).labels(report.kind).set(report.supersteps)
    reg.gauge("sim_machine_barrier_cost",
              "total bsp barrier time of the latest machine-model run",
              labels).labels(report.kind).set(report.barrier_cost)
    reg.gauge("sim_machine_placement_stalls",
              "requests the machine refused to place in the latest run",
              labels).labels(report.kind).set(report.placement_stalls)
    reg.gauge("sim_machine_spills",
              "forced memory spills of the latest machine-model run",
              labels).labels(report.kind).set(report.spills)
    reg.gauge("sim_machine_peak_memory",
              "peak per-client memory slots of the latest run",
              labels).labels(report.kind).set(report.peak_memory)


# ----------------------------------------------------------------------
# the machine-aware event loop (no-fault path)
# ----------------------------------------------------------------------


def _simulate_machine(
    dag: ComputationDag,
    policy: Policy,
    clients: Sequence[ClientSpec] | int,
    work: Callable[[Node], float] | float,
    seed: int,
    comm_per_input: float,
    record_trace: bool,
    machine: MachineModel,
) -> SimulationResult:
    """The machine-aware sibling of
    :func:`repro.sim.server._simulate_ideal`: the same event loop with
    the model's pricing/placement hooks threaded.

    Kept separate so the ideal kernel stays untouched (byte-identity
    is the acceptance bar, pinned by ``benchmarks/bench_machines.py``).
    Observatory frame capture is ideal-path-only for now; metrics and
    tracing are recorded identically.
    """
    if isinstance(clients, int):
        clients = [ClientSpec() for _ in range(clients)]
    if not clients:
        raise SimulationError("need at least one client")
    work_fn = work if callable(work) else (lambda _v, _w=float(work): _w)
    rng = random.Random(seed)
    policy.attach(dag)
    machine.attach(dag, len(clients), work_fn)

    reg = global_registry()
    m_alloc = reg.counter("sim_allocations_total",
                          "tasks handed to clients")
    m_done = reg.counter("sim_completions_total",
                         "task results received by the server")
    m_lost = reg.counter("sim_losses_total",
                         "allocations lost (client vanished)")
    m_starve = reg.counter(
        "sim_starvation_total",
        "client requests that found no allocatable task")
    g_allocatable = reg.gauge(
        "sim_allocatable",
        "allocatable (eligible, unallocated) tasks at the latest "
        "simulation step")
    g_eligible = reg.gauge(
        "sim_eligible",
        "ELIGIBLE unexecuted tasks (allocatable + in flight) at the "
        "latest simulation step")
    g_completed = reg.gauge(
        "sim_completed",
        "tasks completed at the latest simulation step")
    m_steps = reg.counter(
        "sim_steps_total", "simulation event-loop steps processed")
    tracer = global_tracer()

    pending_parents = {v: dag.indegree(v) for v in dag.nodes}
    allocatable: list[Node] = [
        v for v in dag.nodes if pending_parents[v] == 0
    ]
    allocated: set[Node] = set()
    done: set[Node] = set()

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

    def start_task(cid: int, task: Node, now: float) -> None:
        nonlocal busy_time, lost_allocations, wasted_work
        allocatable.remove(task)
        allocated.add(task)
        spec = clients[cid]
        duration = machine.duration(task, cid, work_fn(task)) / spec.speed
        if spec.dropout and rng.random() < spec.dropout:
            duration *= spec.slowdown
        duration += comm_per_input * dag.indegree(task)
        lost = bool(spec.loss) and rng.random() < spec.loss
        machine.on_start(task, cid, now)
        if lost:
            lost_allocations += 1
            wasted_work += duration
        else:
            busy_time += duration
        kind = "lost" if lost else "done"
        m_alloc.inc()
        tracer.event("sim.allocate", client=cid, task=str(task),
                     t=now, kind=kind)
        if record_trace:
            trace.append(
                TraceRecord(cid, task, now, now + duration, kind)
            )
        heapq.heappush(
            events, (now + duration, next(counter), kind, cid, task)
        )

    def try_allocate(cid: int, now: float) -> bool:
        if not allocatable:
            return False
        ready = (machine.ready(allocatable, now)
                 if machine.accepts(cid, now) else None)
        if not ready:
            machine.note_stall()
            return False
        start_task(cid, policy.select(ready), now)
        return True

    def go_idle(cid: int, now: float) -> None:
        nonlocal starvation
        if not allocatable and len(done) < len(dag):
            starvation += 1
            m_starve.inc()
        idle_clients.append(cid)
        idle_since[cid] = now

    def publish_step() -> None:
        g_allocatable.set(len(allocatable))
        g_eligible.set(len(allocatable) + len(allocated))
        g_completed.set(len(done))

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
            if kind == "release":
                machine.on_release(now)
            elif kind == "lost":
                assert task is not None
                allocated.discard(task)
                allocatable.append(task)
                machine.on_abort(task, cid, now)
                m_lost.inc()
                tracer.event("sim.loss", client=cid, task=str(task),
                             t=now)
            else:
                assert task is not None
                allocated.discard(task)
                done.add(task)
                m_done.inc()
                tracer.event("sim.complete", client=cid,
                             task=str(task), t=now)
                release = machine.on_complete(task, cid, now)
                if release is not None:
                    heapq.heappush(
                        events,
                        (release, next(counter), "release", -1, None),
                    )
                for child in dag.children(task):
                    pending_parents[child] -= 1
                    if pending_parents[child] == 0:
                        allocatable.append(child)
            # wake idle clients the machine will serve, first accepting
            # client first; re-ask after each grant — a placement can
            # change what the machine admits (memory used, levels open)
            while idle_clients and allocatable:
                ready = machine.ready(allocatable, now)
                if not ready:
                    break
                i = next((i for i, wid in enumerate(idle_clients)
                          if machine.accepts(wid, now)), None)
                if i is None:
                    break
                wid = idle_clients.pop(i)
                idle_time += now - idle_since.pop(wid)
                start_task(wid, policy.select(ready), now)
            if kind in ("done", "lost"):
                # the finishing client requests again
                if not try_allocate(cid, now):
                    go_idle(cid, now)
            headroom.append((now, len(allocatable)))
            publish_step()
            if not events and allocatable and len(done) < len(dag):
                # wedged: idle clients, allocatable work, nothing in
                # flight — ask the machine to trade for progress
                wake = machine.force_progress(now)
                if wake is None:
                    raise SimulationError(
                        f"machine {machine.kind!r} wedged the "
                        f"simulation: {len(done)}/{len(dag)} tasks "
                        "done and no placement possible"
                    )
                heapq.heappush(
                    events, (wake, next(counter), "release", -1, None)
                )

    if len(done) != len(dag):
        raise SimulationError(
            f"simulation stalled: {len(done)}/{len(dag)} tasks done"
        )
    for wid in idle_clients:
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
    _record_machine(reg, result.machine_report)
    return result
