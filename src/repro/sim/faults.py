"""Fault injection and fault-tolerant serving for the IC simulation.

The paper's premise is that Internet-based computing is *temporally
unpredictable* — remote clients crash, stall, and vanish — yet the
baseline simulation (:func:`repro.sim.server.simulate`) idealizes
failure: losses are detected instantly at nominal duration, tasks
silently requeue, and clients never permanently die.  This module
replaces that idealization with a realistic, fully deterministic
failure model in two halves:

* a :class:`FaultPlan` — a seedable, reproducible chaos script of
  **permanent client crashes**, **late joins** (churn), **transient
  stalls**, and **result corruption** (corruption-as-loss: the server
  discards a corrupt result, so it costs exactly what a loss costs);
* a :class:`ServerPolicy` — the server's fault-tolerance machinery:
  **timeout-based loss detection** (a deadline as a multiple of each
  task's expected duration, instead of the magic instant detection of
  the ideal model), **retry with exponential backoff + jitter**
  (backoff growth bounded by ``max_retries``; retries themselves never
  give up, which is what guarantees completion), **speculative
  re-execution** of stragglers, **k-replication** of critical-path
  tasks onto spare clients, and **quarantine** of flaky clients.

Every run is byte-identical for a given ``(dag, policy, clients,
FaultPlan, seed)`` tuple — the chaos harness draws from its own seeded
stream, separate from the client-behaviour stream — and every run
terminates with all tasks completed as long as the plan leaves at
least one live client (the server never quarantines its last live
client, and releases quarantined clients when crashes leave no one
else).

Outcomes are reported three ways: a
:class:`FaultReport` attached to the
:class:`~repro.sim.server.SimulationResult`, the ``sim_retries_total``
/ ``sim_timeouts_total`` / ``sim_speculations_total`` /
``sim_quarantined_clients`` / ``sim_faults_injected_total{kind=...}``
metrics in the process registry (rendered live by ``repro watch``),
and per-attempt :class:`~repro.sim.server.TraceRecord` entries when
tracing is on.  See ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from math import isfinite

from ..core.dag import ComputationDag, Node
from ..exceptions import FaultPlanError, ServerPolicyError, SimulationError
from ..obs import global_registry, global_tracer, span
from ..obs.context import current_request_id
from .heuristics import Policy, _heights
from .server import ClientSpec, SimulationResult, TraceRecord, _record_quality

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultReport",
    "ServerPolicy",
    "FAULT_SCENARIOS",
    "simulate_with_faults",
]

#: recognized fault kinds (the ``sim_faults_injected_total`` label set).
FAULT_KINDS = ("crash", "join", "stall")

#: floor on a task's expected duration when deriving deadlines, so a
#: zero-work task still gets a positive timeout.
_MIN_NOMINAL = 1e-9


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault.

    ``kind``
        ``"crash"`` — client ``client`` dies permanently at ``time``
        (its in-flight result never arrives; the server only learns of
        it when the attempt's deadline fires);
        ``"join"`` — a new client (``spec``, default unit-speed)
        appears at ``time`` and starts requesting work;
        ``"stall"`` — client ``client`` freezes for ``duration`` time
        units at ``time`` (an in-flight task finishes late; an idle
        client requests nothing until it recovers).
    """

    time: float
    kind: str
    client: int = 0
    duration: float = 0.0
    spec: ClientSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if not self.time >= 0.0:
            raise FaultPlanError(
                f"fault time must be >= 0, got {self.time}"
            )
        if self.kind == "stall" and not self.duration > 0.0:
            raise FaultPlanError(
                f"stall needs a positive duration, got {self.duration}"
            )
        if self.kind != "join" and self.client < 0:
            raise FaultPlanError(
                f"fault client index must be >= 0, got {self.client}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seedable chaos script.

    ``events`` are the scripted faults; ``corrupt_rate`` is the
    probability that any arriving result is corrupt — the server
    discards it, so corruption costs exactly what a loss costs
    (corruption-as-loss).  ``seed`` drives the plan's private random
    stream (corruption draws, backoff jitter), kept separate from the
    client-behaviour stream so adding chaos never perturbs the
    underlying dropout/loss draws.

    Build plans directly, from a canned scenario
    (:meth:`scenario`), or from a CLI spec string (:meth:`parse`).
    """

    events: tuple[FaultEvent, ...] = ()
    corrupt_rate: float = 0.0
    seed: int = 0
    name: str = "custom"

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if not 0.0 <= self.corrupt_rate < 1.0:
            raise FaultPlanError(
                "corrupt_rate must be in [0, 1) so runs terminate, "
                f"got {self.corrupt_rate}"
            )

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not self.events and self.corrupt_rate == 0.0

    @classmethod
    def scenario(cls, name: str, n_clients: int = 4,
                 seed: int = 0) -> "FaultPlan":
        """A canned chaos scenario sized for ``n_clients`` (see
        :data:`FAULT_SCENARIOS` for the catalog)."""
        try:
            builder = FAULT_SCENARIOS[name]
        except KeyError:
            raise FaultPlanError(
                f"unknown fault scenario {name!r}; known: "
                f"{sorted(FAULT_SCENARIOS)}"
            ) from None
        return builder(n_clients, seed)

    @classmethod
    def parse(cls, spec: str, n_clients: int = 4) -> "FaultPlan":
        """Parse a CLI fault spec (the shared grammar of
        :mod:`repro.api.specs`).

        Either a scenario name with optional seed —
        ``churn`` / ``churn:seed=3`` — or a comma-separated event
        list::

            crash:CID@T          client CID dies at time T
            stall:CID@TxDUR      client CID stalls for DUR at time T
            join@T  join@TxSPD   a client (speed SPD) joins at time T
            corrupt=RATE         corrupt each result with prob. RATE
            seed=N               the plan's private random seed

        Example: ``crash:0@2,stall:1@1.5x4,join@5x2.0,corrupt=0.1``.
        """
        from ..api.specs import parse_fault_plan

        return parse_fault_plan(spec, n_clients=n_clients)

    def __str__(self) -> str:
        """The plan's round-trip spec form (see
        :func:`repro.api.specs.fault_plan_str`)."""
        from ..api.specs import fault_plan_str

        return fault_plan_str(self)


# ----------------------------------------------------------------------
# canned scenarios
# ----------------------------------------------------------------------


def _scenario_churn(n_clients: int, seed: int) -> FaultPlan:
    """Half the clients crash at staggered times; replacements join
    shortly after each crash — the classic volunteer-computing churn."""
    rng = random.Random(f"repro-churn:{seed}")
    events: list[FaultEvent] = []
    for i in range(max(1, n_clients // 2)):
        t = 2.0 + 1.5 * i + rng.random()
        events.append(FaultEvent(time=t, kind="crash", client=i))
        events.append(FaultEvent(time=t + 1.0 + rng.random(),
                                 kind="join", spec=ClientSpec()))
    return FaultPlan(events=tuple(events), seed=seed, name="churn")


def _scenario_stragglers(n_clients: int, seed: int) -> FaultPlan:
    """Repeated transient stalls spread over every client — the
    straggler regime speculative re-execution targets."""
    rng = random.Random(f"repro-stragglers:{seed}")
    events = [
        FaultEvent(
            time=1.0 + 0.8 * k + rng.random(),
            kind="stall",
            client=k % max(1, n_clients),
            duration=2.0 + 2.0 * rng.random(),
        )
        for k in range(2 * max(1, n_clients))
    ]
    return FaultPlan(events=tuple(events), seed=seed, name="stragglers")


def _scenario_flaky(n_clients: int, seed: int) -> FaultPlan:
    """A corruption-prone fleet with an occasional stall — the regime
    quarantine and retry absorb."""
    rng = random.Random(f"repro-flaky:{seed}")
    events = [
        FaultEvent(time=1.5 + 2.0 * k + rng.random(), kind="stall",
                   client=0, duration=1.0 + rng.random())
        for k in range(2)
    ]
    return FaultPlan(events=tuple(events), corrupt_rate=0.15,
                     seed=seed, name="flaky")


def _scenario_blackout(n_clients: int, seed: int) -> FaultPlan:
    """Everything but one client dies at once; two replacements arrive
    much later — the worst case the completion guarantee covers."""
    rng = random.Random(f"repro-blackout:{seed}")
    events = [
        FaultEvent(time=3.0 + 0.1 * i + rng.random() * 0.1,
                   kind="crash", client=i)
        for i in range(1, max(2, n_clients))
    ]
    events += [
        FaultEvent(time=9.0 + i + rng.random(), kind="join",
                   spec=ClientSpec())
        for i in range(2)
    ]
    return FaultPlan(events=tuple(events), seed=seed, name="blackout")


#: the canned chaos scenarios ``FaultPlan.scenario`` / ``--faults``
#: accept: name -> builder(n_clients, seed).
FAULT_SCENARIOS: dict[str, Callable[[int, int], FaultPlan]] = {
    "churn": _scenario_churn,
    "stragglers": _scenario_stragglers,
    "flaky": _scenario_flaky,
    "blackout": _scenario_blackout,
}


# ----------------------------------------------------------------------
# server policy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServerPolicy:
    """The server's fault-tolerance machinery.

    ``timeout_factor``
        Loss-detection deadline: an attempt is written off
        ``timeout_factor`` times its *expected* duration after
        allocation (expected = nominal compute time at the client's
        advertised speed plus communication — the server cannot see
        dropout slowdowns coming).  Must be finite and >= 1: the
        timeout is what converts permanent losses into retries, so an
        infinite deadline would break the completion guarantee.
    ``max_retries``
        Bound on exponential-backoff *growth* (the exponent is capped
        here).  Retries themselves never give up — dropping a task
        would violate the no-permanent-loss guarantee — they just stop
        backing off harder.
    ``backoff_base`` / ``backoff_jitter``
        The ``k``-th retry of a task is delayed
        ``backoff_base * 2**min(k-1, max_retries)`` time units,
        stretched by a uniform jitter fraction in
        ``[0, backoff_jitter]`` drawn from the fault plan's seeded
        stream.
    ``speculate_factor``
        Straggler mitigation: once an attempt has been in flight
        ``speculate_factor`` times its expected duration, a backup
        copy is launched on the next spare client; the first result
        wins and the loser is wasted replica time.  ``None`` disables
        speculation.
    ``replicas`` / ``critical_fraction``
        k-replication: the top ``critical_fraction`` of tasks by
        height (longest path to a sink) are eagerly replicated onto
        spare clients up to ``replicas`` concurrent copies.
        ``replicas=1`` disables replication.
    ``quarantine_after``
        A client with this many *consecutive* failures (timeouts or
        corrupt results) is quarantined — no further allocations —
        except that the server never quarantines its last live client,
        and releases quarantined clients when crashes leave no one
        else.  ``0`` disables quarantine.
    """

    timeout_factor: float = 3.0
    max_retries: int = 8
    backoff_base: float = 0.25
    backoff_jitter: float = 0.1
    speculate_factor: float | None = 2.0
    replicas: int = 1
    critical_fraction: float = 0.1
    quarantine_after: int = 3

    def __post_init__(self) -> None:
        if not (isfinite(self.timeout_factor)
                and self.timeout_factor >= 1.0):
            raise ServerPolicyError(
                "timeout_factor must be finite and >= 1 (the deadline "
                "is what detects permanent losses), got "
                f"{self.timeout_factor}"
            )
        if self.max_retries < 0:
            raise ServerPolicyError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_jitter < 0:
            raise ServerPolicyError(
                "backoff_base and backoff_jitter must be >= 0, got "
                f"{self.backoff_base}/{self.backoff_jitter}"
            )
        if self.speculate_factor is not None and not (
                isfinite(self.speculate_factor)
                and self.speculate_factor >= 1.0):
            raise ServerPolicyError(
                "speculate_factor must be None or finite and >= 1, "
                f"got {self.speculate_factor}"
            )
        if self.replicas < 1:
            raise ServerPolicyError(
                f"replicas must be >= 1, got {self.replicas}"
            )
        if not 0.0 < self.critical_fraction <= 1.0:
            raise ServerPolicyError(
                "critical_fraction must be in (0, 1], got "
                f"{self.critical_fraction}"
            )
        if self.quarantine_after < 0:
            raise ServerPolicyError(
                f"quarantine_after must be >= 0, got "
                f"{self.quarantine_after}"
            )

    _PARSE_KEYS = {
        "timeout": ("timeout_factor", float),
        "retries": ("max_retries", int),
        "backoff": ("backoff_base", float),
        "jitter": ("backoff_jitter", float),
        "speculate": ("speculate_factor", float),
        "replicas": ("replicas", int),
        "critical": ("critical_fraction", float),
        "quarantine": ("quarantine_after", int),
    }

    @classmethod
    def parse(cls, spec: str) -> "ServerPolicy":
        """Parse a CLI policy spec (the shared grammar of
        :mod:`repro.api.specs`): comma-separated ``key=value`` with
        keys ``timeout``, ``retries``, ``backoff``, ``jitter``,
        ``speculate`` (a factor, or ``off``), ``replicas``,
        ``critical``, ``quarantine``.  An empty spec is the default
        policy.  Example: ``timeout=4,retries=3,speculate=off``.
        """
        from ..api.specs import parse_server_policy

        return parse_server_policy(spec)

    def __str__(self) -> str:
        """The policy's round-trip spec form:
        ``ServerPolicy.parse(str(p)) == p`` (see
        :func:`repro.api.specs.server_policy_str`)."""
        from ..api.specs import server_policy_str

        return server_policy_str(self)


@dataclass
class FaultReport:
    """Fault-path accounting for one simulated run (attached to
    ``SimulationResult.fault_report``; the same numbers land in the
    ``sim_*`` fault metrics).
    """

    #: name of the fault plan in force
    plan: str = "none"
    #: tasks re-queued after a failure (timeout or corrupt result)
    retries: int = 0
    #: loss-detection deadlines that fired on an unresolved attempt
    timeouts_fired: int = 0
    #: backup copies launched for stragglers
    speculative_launches: int = 0
    #: tasks whose *speculative* copy delivered the winning result
    speculative_wins: int = 0
    #: eager replicas launched for critical tasks
    replicas_launched: int = 0
    #: client-time burnt by duplicate attempts of already-done tasks
    wasted_replica_time: float = 0.0
    #: total backoff delay imposed before retries
    backoff_delay_total: float = 0.0
    #: clients ever quarantined (sorted ids)
    quarantined_clients: tuple[int, ...] = ()
    #: scripted faults applied, by kind
    crashes: int = 0
    late_joins: int = 0
    stalls: int = 0
    #: results discarded as corrupt
    corruptions: int = 0


# ----------------------------------------------------------------------
# the fault-tolerant event engine
# ----------------------------------------------------------------------


@dataclass
class _Attempt:
    """One allocation of a task to a client (a task may have several
    concurrent attempts: retries racing written-off stragglers,
    speculative copies, eager replicas)."""

    aid: int
    task: Node
    client: int
    start: float
    duration: float       # true wall time until the result would arrive
    nominal: float        # the server's expectation (no slowdown)
    lost: bool            # result silently never arrives (spec.loss)
    speculative: bool = False
    replica: bool = False
    delay: float = 0.0    # accrued stall delay, applied at finish pop
    arrived: bool = False
    written_off: bool = False
    vanished: bool = False     # client crashed mid-flight
    vanish_time: float = 0.0
    traced: bool = False


class _FaultEngine:
    """Event-driven simulation with fault injection and a
    fault-tolerant server; see :func:`simulate_with_faults`."""

    def __init__(
        self,
        dag: ComputationDag,
        policy: Policy,
        clients: list[ClientSpec],
        work_fn: Callable[[Node], float],
        seed: int,
        comm_per_input: float,
        record_trace: bool,
        server_policy: ServerPolicy,
        fault_plan: FaultPlan,
        machine=None,
    ) -> None:
        self.dag = dag
        self.policy = policy
        self.clients = list(clients)
        self.work_fn = work_fn
        self.comm_per_input = comm_per_input
        self.record_trace = record_trace
        self.sp = server_policy
        self.plan = fault_plan
        self.total = len(dag)
        #: machine model (:mod:`repro.sim.machines`) threading the
        #: same pricing/placement hooks as the no-fault machine loop;
        #: ``None`` keeps the pre-machine event sequence byte-exact.
        self.machine = machine
        if machine is not None:
            machine.attach(dag, len(self.clients), work_fn)

        #: client-behaviour stream (dropout/loss draws) — seeded the
        #: same way the ideal engine seeds its stream.
        self.rng = random.Random(seed)
        #: fault-plan stream (corruption, backoff jitter) — private,
        #: so chaos never perturbs the client-behaviour draws.
        self.frng = random.Random(
            f"repro-faults:{seed}:{fault_plan.seed}")

        self.report = FaultReport(plan=fault_plan.name)
        self.tracer = global_tracer()
        reg = global_registry()
        self.reg = reg
        self.m_alloc = reg.counter("sim_allocations_total",
                                   "tasks handed to clients")
        self.m_done = reg.counter("sim_completions_total",
                                  "task results received by the server")
        self.m_lost = reg.counter("sim_losses_total",
                                  "allocations lost (client vanished)")
        self.m_starve = reg.counter(
            "sim_starvation_total",
            "client requests that found no allocatable task")
        self.m_steps = reg.counter(
            "sim_steps_total", "simulation event-loop steps processed")
        self.m_retries = reg.counter(
            "sim_retries_total",
            "tasks re-queued after a detected failure")
        self.m_timeouts = reg.counter(
            "sim_timeouts_total",
            "loss-detection deadlines fired on unresolved attempts")
        self.m_spec = reg.counter(
            "sim_speculations_total",
            "speculative straggler re-executions launched")
        self.m_faults = reg.counter(
            "sim_faults_injected_total",
            "scripted faults applied to the running simulation",
            ("kind",))
        self.g_quar = reg.gauge(
            "sim_quarantined_clients",
            "clients currently quarantined by the simulated server")
        self.g_allocatable = reg.gauge(
            "sim_allocatable",
            "allocatable (eligible, unallocated) tasks at the latest "
            "simulation step")
        self.g_eligible = reg.gauge(
            "sim_eligible",
            "ELIGIBLE unexecuted tasks (allocatable + in flight) at the "
            "latest simulation step")
        self.g_completed = reg.gauge(
            "sim_completed",
            "tasks completed at the latest simulation step")

        # -- dag state ------------------------------------------------
        self.pending_parents = {v: dag.indegree(v) for v in dag.nodes}
        self.allocatable: list[Node] = [
            v for v in dag.nodes if self.pending_parents[v] == 0
        ]
        self.done: set[Node] = set()
        #: task -> set of live attempt ids (not arrived / written off /
        #: vanished) — what the server believes is in flight.
        self.in_flight: dict[Node, set[int]] = {}
        self.backing_off: set[Node] = set()
        self.task_failures: dict[Node, int] = {}
        self.want_spec: list[Node] = []
        self.critical: set[Node] = (
            self._critical_set() if server_policy.replicas > 1 else set()
        )

        # -- client state ---------------------------------------------
        n = len(self.clients)
        self.alive: set[int] = set(range(n))
        self.quarantined: set[int] = set()
        self.ever_quarantined: set[int] = set()
        self.parked: set[int] = set()          # quarantined and idle
        self.fail_streak: dict[int, int] = {}
        self.current: dict[int, int | None] = {c: None for c in range(n)}
        self.stalled_until: dict[int, float] = {}
        self.idle: list[int] = []
        self.idle_since: dict[int, float] = {}
        self.service_start: dict[int, float] = {c: 0.0 for c in range(n)}
        self.service_end: dict[int, float] = {}

        # -- observatory frame capture (docs/OBSERVABILITY.md §7) -----
        # resolved once, like the ideal engine: a disabled store costs
        # one lookup here and a None check per event below.
        from ..obs.observatory import global_frame_store

        self.frame_store = global_frame_store()
        self.channel = (
            self.frame_store.channel(
                dag, clients=len(self.clients), policy=policy.name
            )
            if self.frame_store.enabled else None
        )
        self.frame_events: list[dict] = []
        self.frame_step = 0

        # -- accounting -----------------------------------------------
        self.busy_time = 0.0
        self.idle_time = 0.0
        self.starvation = 0
        self.lost_allocations = 0
        self.wasted_work = 0.0
        self.headroom: list[tuple[float, int]] = [
            (0.0, len(self.allocatable))
        ]
        self.trace: list[TraceRecord] = []
        self.attempts: dict[int, _Attempt] = {}
        self._aid = itertools.count()
        self._tb = itertools.count()
        self.events: list[tuple[float, int, str, object]] = []
        self.makespan = 0.0

    # -- setup helpers -----------------------------------------------
    def _critical_set(self) -> set[Node]:
        """The top ``critical_fraction`` of tasks by height (longest
        path to a sink), the replication targets."""
        height = _heights(self.dag)
        index = {v: i for i, v in enumerate(self.dag.nodes)}
        ranked = sorted(
            self.dag.nodes, key=lambda v: (-height[v], index[v])
        )
        k = max(1, round(self.sp.critical_fraction * len(ranked)))
        return set(ranked[:k])

    def _push(self, time: float, kind: str, payload) -> None:
        heapq.heappush(self.events, (time, next(self._tb), kind, payload))

    # -- allocation ---------------------------------------------------
    def _launch(self, cid: int, task: Node, now: float,
                speculative: bool = False, replica: bool = False) -> None:
        spec = self.clients[cid]
        compute = self.work_fn(task)
        if self.machine is not None:
            # the machine transforms the task's work (hetero duration
            # factors) before the client-speed division; the server
            # knows the model, so nominal expectations shift with it
            compute = self.machine.duration(task, cid, compute)
            self.machine.on_start(task, cid, now)
        base = compute / spec.speed
        duration = base
        if spec.dropout and self.rng.random() < spec.dropout:
            duration *= spec.slowdown
        comm = self.comm_per_input * self.dag.indegree(task)
        duration += comm
        nominal = max(base + comm, _MIN_NOMINAL)
        lost = bool(spec.loss) and self.rng.random() < spec.loss
        aid = next(self._aid)
        att = _Attempt(aid, task, cid, now, duration, nominal, lost,
                       speculative, replica)
        self.attempts[aid] = att
        self.in_flight.setdefault(task, set()).add(aid)
        self.current[cid] = aid
        self.m_alloc.inc()
        if speculative:
            self.m_spec.inc()
            self.report.speculative_launches += 1
        if replica:
            self.report.replicas_launched += 1
        self.tracer.event(
            "sim.allocate", client=cid, task=str(task), t=now,
            speculative=speculative, replica=replica,
        )
        self._push(now + duration, "finish", aid)
        self._push(now + self.sp.timeout_factor * nominal, "timeout", aid)
        if (self.sp.speculate_factor is not None
                and not speculative and not replica):
            self._push(now + self.sp.speculate_factor * nominal,
                       "speculate", aid)

    def _pool(self, now: float) -> list[Node]:
        """The allocatable tasks the machine releases at ``now`` (the
        allocatable list itself when no machine holds tasks back, so
        the pre-machine selection sequence stays byte-exact)."""
        if self.machine is None:
            return self.allocatable
        return self.machine.ready(self.allocatable, now)

    def _accepts(self, cid: int, now: float) -> bool:
        return self.machine is None or self.machine.accepts(cid, now)

    def _grant(self, cid: int, pool: list[Node], now: float) -> None:
        task = self.policy.select(pool)
        self.allocatable.remove(task)
        self._launch(cid, task, now)

    def _request(self, cid: int, now: float) -> None:
        """A free client asks the server for work."""
        if cid not in self.alive:
            return
        self.current[cid] = None
        if cid in self.quarantined:
            self.parked.add(cid)
            return
        if self.stalled_until.get(cid, 0.0) > now:
            return  # a wake event will re-request
        if self.allocatable:
            pool = self._pool(now) if self._accepts(cid, now) else None
            if pool:
                self._grant(cid, pool, now)
                return
            # work exists but the machine refuses to place it here
            # (barrier wait, memory-full client): idle without a
            # starvation count — the dag is not the bottleneck
            self.machine.note_stall()
            self.idle.append(cid)
            self.idle_since[cid] = now
            return
        if len(self.done) < self.total:
            self.starvation += 1
            self.m_starve.inc()
        self.idle.append(cid)
        self.idle_since[cid] = now

    def _take_idle(self, now: float) -> int | None:
        """Pop the first idle client the machine accepts work on (the
        head of the queue when no machine interposes); ``None`` when
        it accepts none."""
        for i, cid in enumerate(self.idle):
            if self._accepts(cid, now):
                del self.idle[i]
                self.idle_time += now - self.idle_since.pop(cid)
                return cid
        return None

    def _take_idle_for(self, task: Node, now: float) -> int | None:
        """The first idle client the machine lets run ``task``."""
        if self.machine is None or self.machine.released(task, now):
            return self._take_idle(now)
        return None

    def _dispatch_idle(self, now: float) -> None:
        """Put spare clients to use: fresh tasks first, then pending
        speculative re-executions, then eager replicas of critical
        in-flight tasks."""
        while self.idle and self.allocatable:
            pool = self._pool(now)
            cid = self._take_idle(now) if pool else None
            if cid is None:
                break
            self._grant(cid, pool, now)
        while self.idle and self.want_spec:
            task = self.want_spec.pop(0)
            if task in self.done or not self.in_flight.get(task):
                continue
            cid = self._take_idle_for(task, now)
            if cid is None:
                self.want_spec.insert(0, task)
                break
            self._launch(cid, task, now, speculative=True)
        if self.sp.replicas > 1 and self.idle:
            for task in [v for v in self.dag.nodes
                         if v in self.critical and v not in self.done]:
                live = self.in_flight.get(task)
                while (self.idle and live
                       and 0 < len(live) < self.sp.replicas):
                    cid = self._take_idle_for(task, now)
                    if cid is None:
                        break
                    self._launch(cid, task, now, replica=True)
                if not self.idle:
                    break

    # -- failure handling ---------------------------------------------
    def _schedule_retry(self, task: Node, now: float) -> None:
        """Re-queue a failed task after exponential backoff + jitter.

        Backoff growth is bounded by ``max_retries``; the retry itself
        always happens (completion guarantee)."""
        if (task in self.done or task in self.backing_off
                or self.in_flight.get(task) or task in self.allocatable):
            return
        failures = self.task_failures.get(task, 0) + 1
        self.task_failures[task] = failures
        exponent = min(failures - 1, self.sp.max_retries)
        delay = self.sp.backoff_base * (2 ** exponent)
        if self.sp.backoff_jitter:
            delay *= 1.0 + self.sp.backoff_jitter * self.frng.random()
        self.report.retries += 1
        self.report.backoff_delay_total += delay
        self.m_retries.inc()
        self.backing_off.add(task)
        self.tracer.event("sim.retry", task=str(task), t=now,
                          attempt=failures, delay=delay)
        self._push(now + delay, "retry", task)

    def _client_failed(self, cid: int, now: float) -> None:
        """Attribute one failure to a client; quarantine a streak."""
        self.fail_streak[cid] = self.fail_streak.get(cid, 0) + 1
        after = self.sp.quarantine_after
        if after <= 0 or cid in self.quarantined or cid not in self.alive:
            return
        if self.fail_streak[cid] < after:
            return
        live_free = [c for c in self.alive if c not in self.quarantined]
        if len(live_free) <= 1:
            return  # never quarantine the last live client
        self.quarantined.add(cid)
        self.ever_quarantined.add(cid)
        self.g_quar.set(len(self.quarantined))
        self.tracer.event("sim.quarantine", client=cid, t=now)
        rid = current_request_id()
        if self.channel is not None:
            ev = {"kind": "quarantine", "client": cid,
                  "t": round(now, 6)}
            if rid is not None:
                ev["request"] = rid
            self.frame_events.append(ev)
        # a quarantine means the fault plan beat a client's streak
        # budget — black-box the surrounding context
        from ..obs.flightrecorder import global_flight_recorder
        global_flight_recorder().trigger(
            "quarantine", request_id=rid,
            detail=f"client {cid} quarantined at t={round(now, 6)} "
                   f"after {self.fail_streak[cid]} consecutive "
                   f"failures",
        )
        if cid in self.idle:
            self.idle.remove(cid)
            self.idle_time += now - self.idle_since.pop(cid)
            self.parked.add(cid)

    def _release_quarantine(self, now: float) -> None:
        """Amnesty: crashes left only quarantined clients — release
        them (they are the completion guarantee's last resort)."""
        released = [c for c in self.quarantined if c in self.alive]
        self.quarantined.clear()
        self.g_quar.set(0)
        for cid in released:
            self.fail_streak[cid] = 0
            if cid in self.parked:
                self.parked.discard(cid)
                self._request(cid, now)

    def _retire(self, aid: int) -> None:
        """Drop an attempt from the live in-flight view."""
        att = self.attempts[aid]
        live = self.in_flight.get(att.task)
        if live is not None:
            live.discard(aid)
            if not live:
                del self.in_flight[att.task]

    def _emit(self, att: _Attempt, end: float, kind: str) -> None:
        if att.traced:
            return
        att.traced = True
        if self.record_trace:
            self.trace.append(
                TraceRecord(att.client, att.task, att.start, end, kind)
            )

    # -- event handlers -----------------------------------------------
    def _on_finish(self, aid: int, now: float) -> None:
        att = self.attempts[aid]
        if att.vanished:
            return  # the client died mid-flight; nothing arrives
        if att.delay > 0.0:
            # a stall pushed the completion back; re-arm once
            self._push(now + att.delay, "finish", aid)
            att.delay = 0.0
            return
        cid = att.client
        if att.lost:
            # the result silently never arrives (the client vanished
            # transiently); the deadline will detect it.  The client
            # itself resurfaces and asks for more work.
            if self.machine is not None:
                self.machine.on_abort(att.task, cid, now)
            if self.current.get(cid) == aid:
                self._request(cid, now)
            return
        att.arrived = True
        self._retire(aid)
        if att.task in self.done:
            # a duplicate (replica / speculative / written-off
            # straggler) landed after the winner: pure waste.
            if self.machine is not None:
                self.machine.on_abort(att.task, cid, now)
            self.report.wasted_replica_time += att.duration
            self._emit(att, now, "replica")
            self.fail_streak[cid] = 0
        elif (self.plan.corrupt_rate
                and self.frng.random() < self.plan.corrupt_rate):
            if self.machine is not None:
                self.machine.on_abort(att.task, cid, now)
            self.report.corruptions += 1
            self.wasted_work += att.duration
            self.m_lost.inc()
            self.lost_allocations += 1
            self._emit(att, now, "corrupt")
            self.tracer.event("sim.corrupt", client=cid,
                              task=str(att.task), t=now)
            self._client_failed(cid, now)
            self._schedule_retry(att.task, now)
        else:
            if self.machine is not None:
                release = self.machine.on_complete(att.task, cid, now)
                if release is not None:
                    self._push(release, "machine", None)
            self.done.add(att.task)
            self.busy_time += att.duration
            self.m_done.inc()
            self.fail_streak[cid] = 0
            if att.speculative:
                self.report.speculative_wins += 1
            self._emit(att, now, "done")
            self.tracer.event("sim.complete", client=cid,
                              task=str(att.task), t=now)
            for child in self.dag.children(att.task):
                self.pending_parents[child] -= 1
                if self.pending_parents[child] == 0:
                    self.allocatable.append(child)
        if self.current.get(cid) == aid:
            self._request(cid, now)

    def _on_timeout(self, aid: int, now: float) -> None:
        att = self.attempts[aid]
        if att.arrived or att.written_off or att.task in self.done:
            return
        att.written_off = True
        self.report.timeouts_fired += 1
        self.m_timeouts.inc()
        self._retire(aid)
        self.tracer.event("sim.timeout", client=att.client,
                          task=str(att.task), t=now)
        if att.lost or att.vanished:
            # genuinely gone: account the burnt client time now
            self.m_lost.inc()
            self.lost_allocations += 1
            self.wasted_work += (
                att.vanish_time - att.start if att.vanished
                else att.duration
            )
            self._emit(att, now, "lost")
        # else: a straggler the server wrote off — it may still land
        # (and even win); its trace record is emitted on arrival.
        self._client_failed(att.client, now)
        self._schedule_retry(att.task, now)

    def _on_speculate(self, aid: int, now: float) -> None:
        att = self.attempts[aid]
        if (att.arrived or att.written_off or att.vanished
                or att.task in self.done):
            return
        if len(self.in_flight.get(att.task, ())) >= self.sp.replicas + 1:
            return  # already replicated to the hilt
        if att.task not in self.want_spec:
            self.want_spec.append(att.task)

    def _on_retry(self, task: Node, now: float) -> None:
        self.backing_off.discard(task)
        if task in self.done or task in self.allocatable:
            return
        self.allocatable.append(task)

    def _on_wake(self, cid: int, now: float) -> None:
        if cid not in self.alive or self.current.get(cid) is not None:
            return
        if self.stalled_until.get(cid, 0.0) > now:
            return  # a longer stall superseded this wake
        self._request(cid, now)

    def _on_fault(self, ev: FaultEvent, now: float) -> None:
        self.m_faults.labels(ev.kind).inc()
        self.tracer.event("sim.fault", kind=ev.kind, client=ev.client,
                          t=now)
        if self.channel is not None:
            self.frame_events.append(
                {"kind": ev.kind, "client": ev.client, "t": round(now, 6)}
            )
        if ev.kind == "crash":
            cid = ev.client
            if cid not in self.alive:
                return
            if self.machine is not None:
                self.machine.on_crash(cid, now)
            self.alive.discard(cid)
            self.service_end[cid] = now
            self.report.crashes += 1
            aid = self.current.get(cid)
            if aid is not None:
                att = self.attempts[aid]
                if not att.arrived:
                    att.vanished = True
                    att.vanish_time = now
                    self._retire(aid)
            if cid in self.idle:
                self.idle.remove(cid)
                self.idle_time += now - self.idle_since.pop(cid)
            self.parked.discard(cid)
            was_quarantined = cid in self.quarantined
            self.quarantined.discard(cid)
            if was_quarantined:
                self.g_quar.set(len(self.quarantined))
            if not any(c not in self.quarantined for c in self.alive):
                self._release_quarantine(now)
        elif ev.kind == "join":
            cid = len(self.clients)
            self.clients.append(ev.spec or ClientSpec())
            self.alive.add(cid)
            self.current[cid] = None
            self.service_start[cid] = now
            self.report.late_joins += 1
            self._request(cid, now)
        elif ev.kind == "stall":
            cid = ev.client
            if cid not in self.alive:
                return
            self.report.stalls += 1
            aid = self.current.get(cid)
            if aid is not None:
                self.attempts[aid].delay += ev.duration
                return
            until = max(self.stalled_until.get(cid, 0.0),
                        now + ev.duration)
            self.stalled_until[cid] = until
            if cid in self.idle:
                self.idle.remove(cid)
                self.idle_time += now - self.idle_since.pop(cid)
            self._push(until, "wake", cid)

    def _on_machine(self, _payload, now: float) -> None:
        """A machine release time arrived (bsp barrier opening, memcap
        spill completing); ``_dispatch_idle`` re-examines blocked
        clients right after."""
        if self.machine is not None:
            self.machine.on_release(now)

    # -- main loop -----------------------------------------------------
    _HANDLERS = {
        "finish": _on_finish,
        "timeout": _on_timeout,
        "speculate": _on_speculate,
        "retry": _on_retry,
        "wake": _on_wake,
        "fault": _on_fault,
        "machine": _on_machine,
    }

    def _publish(self, now: float = 0.0) -> None:
        self.g_allocatable.set(len(self.allocatable))
        in_flight_tasks = len(self.in_flight) + len(self.backing_off)
        self.g_eligible.set(len(self.allocatable) + in_flight_tasks)
        self.g_completed.set(len(self.done))
        if self.channel is not None:
            self.frame_step += 1
            occupancy: list = []
            for cid in range(len(self.clients)):
                aid = self.current.get(cid)
                occupancy.append(
                    self.attempts[aid].task if aid is not None else None
                )
            eligible = list(self.allocatable)
            eligible.extend(self.in_flight)
            eligible.extend(self.backing_off)
            self.frame_store.record(
                self.channel,
                step=self.frame_step,
                t=now,
                executed=self.done,
                eligible=eligible,
                occupancy=occupancy,
                events=tuple(self.frame_events),
                done=len(self.done) >= self.total,
            )
            self.frame_events.clear()

    def run(self) -> SimulationResult:
        with span("sim.simulate", dag=self.dag.name,
                  policy=self.policy.name, clients=len(self.clients),
                  faults=self.plan.name):
            for ev in self.plan.events:
                self._push(ev.time, "fault", ev)
            now = 0.0
            for cid in range(len(self.clients)):
                if cid in self.alive:
                    self._request(cid, now)
            self.headroom.append((now, len(self.allocatable)))
            self._publish()

            while self.events and len(self.done) < self.total:
                now, _tb, kind, payload = heapq.heappop(self.events)
                self.m_steps.inc()
                self._HANDLERS[kind](self, payload, now)
                if len(self.done) >= self.total:
                    break
                self._dispatch_idle(now)
                self.headroom.append((now, len(self.allocatable)))
                self._publish(now)
                if (not self.events and self.machine is not None
                        and self.allocatable):
                    # wedged by the machine (all clients blocked, no
                    # attempt in flight): trade for progress or stall
                    wake = self.machine.force_progress(now)
                    if wake is not None:
                        self._push(wake, "machine", None)

        if len(self.done) != self.total:
            raise SimulationError(
                f"simulation stalled under fault plan "
                f"{self.plan.name!r}: {len(self.done)}/{self.total} "
                "tasks done (did every client crash?)"
            )
        self.makespan = now
        for cid in self.idle:
            self.idle_time += now - self.idle_since.pop(cid, now)
        # duplicates still in flight at completion would be cancelled:
        # their partial execution is wasted replica time.
        for aids in list(self.in_flight.values()):
            for aid in sorted(aids):
                att = self.attempts[aid]
                self.report.wasted_replica_time += max(
                    0.0, now - att.start)
                self._emit(att, now, "replica")
        capacity = sum(
            self.service_end.get(cid, now) - self.service_start[cid]
            for cid in range(len(self.clients))
        )
        util = self.busy_time / capacity if capacity > 0 else 1.0
        self.report.quarantined_clients = tuple(
            sorted(self.ever_quarantined))
        self.headroom.append((now, len(self.allocatable)))
        self._publish(now)
        result = SimulationResult(
            policy=self.policy.name,
            makespan=self.makespan,
            starvation_events=self.starvation,
            idle_time=self.idle_time,
            utilization=util,
            headroom_series=self.headroom,
            completed=len(self.done),
            lost_allocations=self.lost_allocations,
            wasted_work=self.wasted_work,
            trace=self.trace,
            fault_report=self.report,
        )
        if self.machine is not None:
            from .machines import _record_machine

            result.machine_report = self.machine.report()
            _record_machine(self.reg, result.machine_report)
        _record_quality(self.reg, result)
        return result


def simulate_with_faults(
    dag: ComputationDag,
    policy: Policy,
    clients: Sequence[ClientSpec] | int = 4,
    work: Callable[[Node], float] | float = 1.0,
    seed: int = 0,
    comm_per_input: float = 0.0,
    record_trace: bool = False,
    server_policy: ServerPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    machine=None,
) -> SimulationResult:
    """Simulate ``dag`` under ``policy`` with fault injection and a
    fault-tolerant server.

    This is the realistic-model sibling of
    :func:`repro.sim.server.simulate` (which dispatches here whenever
    a ``server_policy`` or ``fault_plan`` is given): losses are
    detected by *timeouts* rather than by magic, failed tasks retry
    with exponential backoff, stragglers are speculatively re-executed,
    critical tasks may be k-replicated, and flaky clients are
    quarantined — all governed by ``server_policy`` (default
    :class:`ServerPolicy`).  ``fault_plan`` (default: no faults)
    scripts crashes, churn, stalls, and result corruption.

    Deterministic: a fixed ``(dag, policy, clients, work, seed,
    comm_per_input, server_policy, fault_plan)`` tuple reproduces the
    run byte-for-byte, including ``fault_report`` and the trace.
    Completion is guaranteed whenever the plan leaves at least one
    live client.
    """
    if isinstance(clients, int):
        clients = [ClientSpec() for _ in range(clients)]
    else:
        clients = list(clients)
    if not clients:
        raise SimulationError("need at least one client")
    work_fn = work if callable(work) else (lambda _v, _w=float(work): _w)
    policy.attach(dag)
    engine = _FaultEngine(
        dag, policy, clients, work_fn, seed, comm_per_input,
        record_trace,
        server_policy if server_policy is not None else ServerPolicy(),
        fault_plan if fault_plan is not None else FaultPlan(name="none"),
        machine=machine,
    )
    return engine.run()
