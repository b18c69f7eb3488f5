"""Golden oracle for the machine-aware simulation engines.

Every combination of three family dags, five machine models (the
ideal machine among them), four fault scenarios (``none`` runs the
no-fault event loop, the others the fault engine) and six allocation
policies — plus a few runs with
eager replicas — is simulated and its full result compared, field for
field and bit for bit, against the committed fixture
``tests/fixtures/sim_golden.json``.  Any change to
placement, selection order, event order or accounting shows up here.

The fixture is recorded by running this module as a script::

    PYTHONPATH=src python tests/test_sim_golden.py

Re-record only when a behaviour change is intended, and say so.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro import api
from repro.cli import build_family
from repro.obs import Tracer, set_global_tracer
from repro.sim import FaultPlan, ServerPolicy, make_policy, simulate

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "sim_golden.json"

DAGS = (("butterfly", 4), ("mesh", 6), ("out-tree", 5))
MACHINES = ("ideal", "bsp:g=1,L=2", "memcap:cap=1", "memcap:cap=2",
            "hetero:spread=0.5,seed=1")
SCENARIOS = ("none", "churn", "stragglers", "blackout")
#: extra fault-engine runs with eager replicas of critical tasks, the
#: one idle-client path the canned scenarios leave cold
REPLICA_SCENARIO = "stragglers+replicas"
REPLICA_POLICIES = ("FIFO", "IC-OPT")
POLICIES = ("FIFO", "RANDOM", "CRITPATH", "PACKING", "TROUBLESOME",
            "IC-OPT")
CLIENTS = 4
SEED = 0


def _key(family, param, machine, scenario, policy) -> str:
    return f"{family}-{param}|{machine}|{scenario}|{policy}"


def _run(dag, schedule, machine, scenario, policy) -> dict:
    name, _, extra = scenario.partition("+")
    plan = (None if name == "none"
            else FaultPlan.scenario(name, n_clients=CLIENTS, seed=0))
    server = ServerPolicy(replicas=2) if extra == "replicas" else None
    res = simulate(dag, make_policy(policy, schedule), CLIENTS, 1.0, SEED,
                   server_policy=server, fault_plan=plan, machine=machine)
    record = {
        "makespan": res.makespan,
        "starvation_events": res.starvation_events,
        "idle_time": res.idle_time,
        "utilization": res.utilization,
        "completed": res.completed,
        "lost_allocations": res.lost_allocations,
        "machine_report": (None if res.machine_report is None
                           else dataclasses.asdict(res.machine_report)),
        "fault_report": (None if res.fault_report is None
                         else dataclasses.asdict(res.fault_report)),
    }
    # the JSON round trip normalizes tuples to lists, as the fixture has
    return json.loads(json.dumps(record))


def _combinations():
    for family, param in DAGS:
        for machine in MACHINES:
            for scenario in SCENARIOS:
                for policy in POLICIES:
                    yield family, param, machine, scenario, policy
            for policy in REPLICA_POLICIES:
                yield family, param, machine, REPLICA_SCENARIO, policy


def golden_records() -> dict[str, dict]:
    schedules = {}
    out = {}
    for family, param, machine, scenario, policy in _combinations():
        if (family, param) not in schedules:
            chain = build_family(family, param)
            schedules[family, param] = (chain.dag,
                                        api.schedule(chain).schedule)
        dag, schedule = schedules[family, param]
        out[_key(family, param, machine, scenario, policy)] = \
            _run(dag, schedule, machine, scenario, policy)
    return out


@pytest.fixture(autouse=True)
def _quiet_tracer():
    old = set_global_tracer(Tracer())
    yield
    set_global_tracer(old)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def actual():
    old = set_global_tracer(Tracer())
    try:
        return golden_records()
    finally:
        set_global_tracer(old)


def test_fixture_covers_every_combination(golden):
    assert set(golden) == {_key(*c) for c in _combinations()}


@pytest.mark.parametrize("family,param", DAGS)
@pytest.mark.parametrize("machine", MACHINES)
def test_results_match_golden(golden, actual, family, param, machine):
    for f, p, m, scenario, policy in _combinations():
        if (f, p, m) == (family, param, machine):
            key = _key(f, p, m, scenario, policy)
            assert actual[key] == golden[key], key


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(golden_records(), indent=1,
                                  sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
