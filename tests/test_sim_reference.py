"""Differential oracle for the no-fault event loop.

``reference_simulate`` below is a deliberately small, observability-free
restatement of the ideal IC server/client semantics (pull-based
clients, instant loss detection, idle clients woken before the
finishing client re-requests).  Hypothesis drives random dags, client
specs, communication costs, seeds and every allocation policy through
``simulate`` on the ideal machine — spelled ``None``, ``"ideal"`` and a
bare :class:`~repro.sim.machines.MachineModel` — and every observable
of the result, trace included, must equal the reference exactly.
"""

from __future__ import annotations

import heapq
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ComputationDag, Schedule
from repro.obs import Tracer, set_global_tracer
from repro.sim import ClientSpec, MachineModel, make_policy, simulate
from repro.sim.heuristics import BASELINE_POLICIES

POLICIES = (*sorted(BASELINE_POLICIES), "IC-OPT")


def reference_simulate(dag, policy, clients, work, seed, comm_per_input):
    """The ideal semantics, restated: returns the observables of one run
    as a dict (trace entries as plain tuples)."""
    work_fn = work if callable(work) else (lambda _v: float(work))
    rng = random.Random(seed)
    policy.attach(dag)
    waiting = {v: dag.indegree(v) for v in dag.nodes}
    pool = [v for v in dag.nodes if waiting[v] == 0]
    done: set = set()
    events: list = []
    tick = itertools.count()
    idle: list[tuple[int, float]] = []
    acc = {"busy": 0.0, "wasted": 0.0, "lost": 0}
    trace: list[tuple] = []

    def allocate(cid: int, now: float) -> bool:
        if not pool:
            return False
        task = policy.select(pool)
        pool.remove(task)
        spec = clients[cid]
        d = work_fn(task) / spec.speed
        if spec.dropout and rng.random() < spec.dropout:
            d *= spec.slowdown
        d += comm_per_input * dag.indegree(task)
        gone = bool(spec.loss) and rng.random() < spec.loss
        if gone:
            acc["lost"] += 1
            acc["wasted"] += d
        else:
            acc["busy"] += d
        kind = "lost" if gone else "done"
        trace.append((cid, task, now, now + d, kind))
        heapq.heappush(events, (now + d, next(tick), kind, cid, task))
        return True

    now, starved, idle_time = 0.0, 0, 0.0
    headroom = [(0.0, len(pool))]
    for cid in range(len(clients)):
        if not allocate(cid, now):
            starved += 1
            idle.append((cid, now))
    headroom.append((now, len(pool)))
    while events:
        now, _tb, kind, cid, task = heapq.heappop(events)
        if kind == "lost":
            pool.append(task)
        else:
            done.add(task)
            for child in dag.children(task):
                waiting[child] -= 1
                if waiting[child] == 0:
                    pool.append(child)
        while idle and pool:
            wid, since = idle.pop(0)
            idle_time += now - since
            allocate(wid, now)
        if not allocate(cid, now):
            starved += len(done) < len(dag)
            idle.append((cid, now))
        headroom.append((now, len(pool)))
    for _cid, since in idle:
        idle_time += now - since
    return {
        "makespan": now,
        "starvation_events": starved,
        "idle_time": idle_time,
        "utilization": (acc["busy"] / (len(clients) * now)
                        if now > 0 else 1.0),
        "headroom_series": headroom,
        "completed": len(done),
        "lost_allocations": acc["lost"],
        "wasted_work": acc["wasted"],
        "trace": trace,
    }


def _observables(res) -> dict:
    return {
        "makespan": res.makespan,
        "starvation_events": res.starvation_events,
        "idle_time": res.idle_time,
        "utilization": res.utilization,
        "headroom_series": res.headroom_series,
        "completed": res.completed,
        "lost_allocations": res.lost_allocations,
        "wasted_work": res.wasted_work,
        "trace": [tuple(r) for r in res.trace],
    }


@st.composite
def scenarios(draw):
    """A random dag (arcs low -> high), a random topological order for
    IC-OPT, client specs, work, communication cost and a seed."""
    n = draw(st.integers(min_value=1, max_value=12))
    dag = ComputationDag(nodes=list(range(n)), name="rand")
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.integers(0, 3)) == 0:
                dag.add_arc(u, v)
    rank = draw(st.permutations(range(n)))
    waiting = {v: dag.indegree(v) for v in dag.nodes}
    ready = [v for v in dag.nodes if waiting[v] == 0]
    order = []
    while ready:
        v = min(ready, key=rank.__getitem__)
        ready.remove(v)
        order.append(v)
        for child in dag.children(v):
            waiting[child] -= 1
            if waiting[child] == 0:
                ready.append(child)
    specs = draw(st.lists(
        st.builds(
            ClientSpec,
            speed=st.sampled_from((0.5, 1.0, 1.5, 3.0)),
            dropout=st.sampled_from((0.0, 0.0, 0.3)),
            slowdown=st.sampled_from((1.0, 4.0)),
            loss=st.sampled_from((0.0, 0.0, 0.25)),
        ),
        min_size=1, max_size=5,
    ))
    weights = draw(st.sampled_from((None, (1.0, 2.0, 0.5))))
    work = (1.0 if weights is None
            else (lambda v, _w=weights: _w[v % len(_w)]))
    comm = draw(st.sampled_from((0.0, 0.25)))
    seed = draw(st.integers(0, 2**16))
    return dag, Schedule(dag, order), specs, work, comm, seed


class TestReferenceOracle:
    @settings(max_examples=150, deadline=None)
    @given(scenarios(), st.sampled_from(POLICIES))
    def test_simulate_matches_reference(self, scenario, policy_name):
        dag, order, specs, work, comm, seed = scenario

        def policy():
            return make_policy(policy_name, order)

        want = reference_simulate(dag, policy(), specs, work, seed, comm)
        old = set_global_tracer(Tracer())
        try:
            for machine in (None, "ideal", MachineModel()):
                res = simulate(dag, policy(), specs, work, seed, comm,
                               record_trace=True, machine=machine)
                assert _observables(res) == want, machine
        finally:
            set_global_tracer(old)
