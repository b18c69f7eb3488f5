"""Seeded request generation for the four benchmark workloads.

Every function here is a pure function of its ``seed`` argument: the
same seed yields the same dags, the same request sequence and the same
expected answers.  Each workload has a *fixed composition* (which dag,
policy, machine, fault scenario and client count appear, and how
often); the seed only picks simulation and fault-plan seeds, node
permutations and, where it cannot change which requests overlap, the
order of requests.  That keeps runs on different seeds comparable.

The program under test only ever sees the generated requests: wire
dags (``dag_to_dict`` form), fingerprints, and option dicts.
"""

from __future__ import annotations

import itertools
import random

from repro import api
from repro.cli import build_family
from repro.core.schedule import Schedule

SIM_POLICIES = ("IC-OPT", "CRITPATH", "FIFO", "PACKING")

#: simulate_small: dags of at most ~80 nodes, registered during set-up.
SMALL_DAGS = (
    ("mesh", 4), ("mesh", 5), ("mesh", 6), ("mesh", 7), ("mesh", 8),
    ("mesh", 9), ("mesh", 10), ("butterfly", 2), ("butterfly", 3),
    ("diamond", 3), ("diamond", 4), ("prefix", 8), ("out-tree", 4),
    ("out-tree", 5), ("matmul", None),
)

#: simulate_large: bare dags of 448-1023 nodes.  B_7 is left out on
#: purpose: certifying a bare B_7 goes through VF2 isomorphism and takes
#: minutes, longer than a run (see README.md, "Known defects").
LARGE_DAGS = (
    ("butterfly", 6), ("diamond", 8), ("out-tree", 9), ("in-tree", 9),
    ("sorting", 32),
)
LARGE_MACHINES = ("ideal", "memcap:cap=2", "hetero", "bsp")

#: submit_journaled: families of at most ~200 nodes whose certified
#: profile is invariant under node permutation (all certify as
#: composed or exact), so a permuted copy must report the reference
#: profile.  B_5, the slowest to certify, is listed twice: at ~9% of
#: ops its latency cluster holds the p95 well inside it, where at ~5%
#: the p95 would fall on the cluster's edge and jump between runs.
JOURNAL_FAMILIES = (
    ("butterfly", 4), ("butterfly", 5), ("butterfly", 5), ("mesh", 8),
    ("mesh", 12),
    ("diamond", 5), ("diamond", 6), ("out-tree", 5), ("out-tree", 6),
    ("in-tree", 5), ("in-tree", 6), ("prefix", 8), ("prefix", 16),
    ("matmul", None),
)
#: small families used to pre-populate the data dir (cheap to build
#: and replay; only their count matters).
PREPOP_FAMILIES = (
    ("mesh", 6), ("mesh", 8), ("butterfly", 3), ("prefix", 8),
    ("matmul", None), ("diamond", 4),
)
#: registry capacity at the default 8 shards x 256 entries.
REGISTRY_CAPACITY = 2048
#: entries written to the data dir before boot; the LRU starts to
#: spill early in the window, once new submissions fill the shards.
PREPOP_ENTRIES = REGISTRY_CAPACITY - 48
#: every PREPOP_CERT_EVERY-th pre-populated entry carries a
#: certificate, which replay re-validates.
PREPOP_CERT_EVERY = 4
#: submit_journaled mix per round of 20 ops: new / resubmit / GET.
JOURNAL_BLOCK = (("new", 12), ("resubmit", 5), ("get", 3))

#: compare_faults: mid-size chains x fault scenarios x machines.
COMPARE_DAGS = (
    ("butterfly", 5), ("mesh", 10), ("out-tree", 7), ("diamond", 6),
)
COMPARE_SCENARIOS = ("none", "churn", "stragglers", "blackout")
COMPARE_MACHINES = ("ideal", "memcap:cap=2", "hetero:spread=0.5,seed=1")
COMPARE_POLICIES = ("FIFO", "CRITPATH", "PACKING")

#: Committed pins this workload re-derives (B_4 butterfly).  From
#: benchmarks/BENCH_faults.json: CRITPATH, 6 clients, seed 1, plan
#: FaultPlan.scenario(name, n_clients=6, seed=0).
FAULT_PINS = {
    "blackout": 28.781629, "churn": 15.0, "flaky": 17.946812,
    "stragglers": 20.533893,
}
#: From benchmarks/BENCH_machines.json: 4 clients, seed 0.
MACHINE_PIN_POLICIES = ("FIFO", "RANDOM", "PACKING", "TROUBLESOME")
MACHINE_PINS = {
    "ideal": {"IC-OPT": 20.0, "FIFO": 20.0, "RANDOM": 20.0,
              "PACKING": 21.0, "TROUBLESOME": 20.0},
    "bsp:g=1,L=2": {"IC-OPT": 60.0, "FIFO": 60.0, "RANDOM": 60.0,
                    "PACKING": 60.0, "TROUBLESOME": 60.0},
    "memcap:cap=2": {"IC-OPT": 141.0, "FIFO": 140.0, "RANDOM": 140.0,
                     "PACKING": 131.0, "TROUBLESOME": 139.0},
    "hetero:spread=0.5,seed=1": {
        "IC-OPT": 16.485053, "FIFO": 16.578442, "RANDOM": 16.520185,
        "PACKING": 17.173022, "TROUBLESOME": 16.629796},
}

#: the workloads of BENCHMARK.json
WORKLOADS = ("simulate_small", "submit_journaled", "compare_faults")
#: runnable by name but not in BENCHMARK.json: its ops take 0.1-1.5 s,
#: so a run holds ~60 of them and p95 rests on ~3 samples; its p95
#: spread (30% over five seeds) is past the benchmark's bound
EXTRA_WORKLOADS = ("simulate_large",)


def family_name(family: str, param: int | None) -> str:
    return family if param is None else f"{family}-{param}"


def family_chain(family: str, param: int | None):
    return build_family(family, param)


def family_wire(family: str, param: int | None) -> dict:
    """The bare wire form of a family dag (integer node labels)."""
    return api.dag_to_dict(_as_dag(family_chain(family, param)))


def _as_dag(target):
    return getattr(target, "dag", target)


def permute_wire(wire: dict, rng: random.Random) -> tuple[dict, list[int]]:
    """A relabelled copy of ``wire``: node ``i`` becomes ``perm[i]``.

    The copy is isomorphic to the original, so it certifies to the same
    profile, but its arcs differ in index space, so its fingerprint is
    new.  Nodes are shuffled within each depth level and levels keep
    their order: under a uniformly random relabelling, recognizing a
    bare butterfly through VF2 takes up to 25 s for B_4 and minutes for
    B_5 (README.md, "Known defects").  Returns the copy and ``perm``.
    """
    n = wire["n"]
    children = [[] for _ in range(n)]
    indegree = [0] * n
    for u, v in wire["arcs"]:
        children[u].append(v)
        indegree[v] += 1
    depth = [0] * n
    ready = [v for v in range(n) if indegree[v] == 0]
    while ready:
        u = ready.pop()
        for v in children[u]:
            depth[v] = max(depth[v], depth[u] + 1)
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    order = sorted(range(n), key=lambda v: (depth[v], rng.random()))
    perm = [0] * n
    for new, old in enumerate(order):
        perm[old] = new
    arcs = [[perm[u], perm[v]] for u, v in wire["arcs"]]
    rng.shuffle(arcs)
    legend = [""] * n
    for i, label in enumerate(wire["label_reprs"]):
        legend[perm[i]] = label
    return dict(wire, arcs=arcs, label_reprs=legend), perm


def fingerprint_of(wire: dict) -> str:
    return api.dag_from_dict(wire).fingerprint()


# ----------------------------------------------------------------------
# simulate workloads
# ----------------------------------------------------------------------


def combo_clients(i: int, j: int) -> int:
    """Clients for dag ``i`` and policy (or scenario) ``j``: 4-8, fixed
    by the combination rather than drawn from the seed, because a
    simulation's cost scales with its step count, hence with 1/clients."""
    return 4 + (i + 2 * j) % 5


def _sim_request(rng: random.Random, fingerprint: str, policy: str,
                 machine: str, clients: int) -> dict:
    return {"fingerprint": fingerprint, "policy": policy,
            "clients": clients, "seed": rng.choice((0, 1, 2)),
            "machine": machine}


def simulate_plan(workload: str, seed: int) -> dict:
    """Dags to register during set-up and the request order of one
    round of ``simulate_small`` / ``simulate_large``.

    ``simulate_small`` pairs every small dag with every policy on the
    ``ideal`` machine.  ``simulate_large`` pairs every large dag with
    every policy, and gives policy ``j`` of dag ``i`` the machine
    ``(i + j) mod 4``, so each dag and each policy meets each machine
    once.
    """
    rng = random.Random(f"{workload}:{seed}")
    small = workload == "simulate_small"
    catalog = SMALL_DAGS if small else LARGE_DAGS
    wires = [family_wire(f, p) for f, p in catalog]
    fps = [fingerprint_of(w) for w in wires]
    requests = []
    for i, fp in enumerate(fps):
        for j, policy in enumerate(SIM_POLICIES):
            machine = "ideal" if small else \
                LARGE_MACHINES[(i + j) % len(LARGE_MACHINES)]
            requests.append(_sim_request(rng, fp, policy, machine,
                                         combo_clients(i, j)))
    # a round is every request once, in passes over the dags: each pass
    # sends every policy once, policy j on dag (r + shift_j) % n, so the
    # costly IC-OPT requests are spread evenly through the round.  The
    # order does not depend on the seed: the two threads take neighbouring
    # requests, and which requests overlap on the server sets the tail
    # latency, so a seeded order would move p95 from seed to seed.
    fixed = random.Random(workload)
    n = len(fps)
    shifts = fixed.sample(range(n), len(SIM_POLICIES))
    order = []
    for r in range(n):
        policies = list(range(len(SIM_POLICIES)))
        fixed.shuffle(policies)
        order += [((r + shifts[j]) % n) * len(SIM_POLICIES) + j
                  for j in policies]
    return {"wires": wires, "fingerprints": fps, "requests": requests,
            "round": order}


def sim_key(req: dict) -> tuple:
    return (req["fingerprint"], req["policy"], req["clients"],
            req["seed"], req["machine"])


def simulate_references(plan: dict) -> dict:
    """In-process answers (makespan, completed) for every request.

    IC-OPT is simulated under the schedule certified once per dag,
    which is what ``policy="IC-OPT"`` does on every call.  Frame
    capture stays off in this process.
    """
    dags = {fp: api.dag_from_dict(w)
            for fp, w in zip(plan["fingerprints"], plan["wires"])}
    schedules: dict[str, Schedule] = {}
    refs = {}
    for req in plan["requests"]:
        dag = dags[req["fingerprint"]]
        kwargs = dict(clients=req["clients"], seed=req["seed"],
                      machine=req["machine"])
        if req["policy"] == "IC-OPT":
            if req["fingerprint"] not in schedules:
                schedules[req["fingerprint"]] = api.schedule(dag).schedule
            res = api.simulate(dag, schedule_order=schedules[
                req["fingerprint"]], **kwargs)
        else:
            res = api.simulate(dag, policy=req["policy"], **kwargs)
        refs[sim_key(req)] = (res.makespan, res.completed)
    return refs


# ----------------------------------------------------------------------
# submit_journaled
# ----------------------------------------------------------------------


def journal_references() -> dict:
    """Reference profile per family, certified from the family chain
    (the decomposition path: fast, and independent of recognition)."""
    return {family_name(f, p): list(api.schedule(family_chain(f, p)).profile)
            for f, p in dict.fromkeys(JOURNAL_FAMILIES)}


def journal_rounds(seed: int):
    """The infinite sequence of ``submit_journaled`` rounds.

    Each round is a list of ops (dicts with ``kind`` in {new, resubmit,
    get}) in the :data:`JOURNAL_BLOCK` proportions.  ``new`` carries a
    fresh permutation of a family dag; ``resubmit`` and ``get`` name a
    ``new`` op of an earlier round, which the closed loop has finished
    before this round starts.  The first round has no earlier round to
    name, so it holds new dags only.
    """
    rng = random.Random(f"submit_journaled:{seed}")
    base = {family_name(f, p): family_wire(f, p)
            for f, p in dict.fromkeys(JOURNAL_FAMILIES)}
    names = [family_name(f, p) for f, p in JOURNAL_FAMILIES]
    families = itertools.cycle(rng.sample(names, len(names)))
    submitted: list[dict] = []

    def new() -> dict:
        family = next(families)
        wire, _ = permute_wire(base[family], rng)
        return {"kind": "new", "family": family, "wire": wire}

    kinds = [kind for kind, count in JOURNAL_BLOCK for _ in range(count)]
    ops = [new() for _ in kinds]
    while True:
        yield ops
        submitted += [op for op in ops if op["kind"] == "new"]
        rng.shuffle(kinds)
        ops = [new() if kind == "new"
               else {"kind": kind, "of": rng.choice(submitted)}
               for kind in kinds]


def prepopulate(data_dir: str, seed: int) -> int:
    """Write a data dir the server replays on boot.

    ``PREPOP_ENTRIES`` admitted dags, permutations of small families;
    every ``PREPOP_CERT_EVERY``-th also carries its certificate (the
    reference schedule mapped through the permutation), which replay
    re-validates.  Returns the number of entries written.
    """
    from repro.service.durability import DurabilityManager

    rng = random.Random(f"prepopulate:{seed}")
    refs = {}
    for f, p in PREPOP_FAMILIES:
        chain = family_chain(f, p)
        dag = _as_dag(chain)
        index = {v: i for i, v in enumerate(dag.nodes)}
        refs[family_name(f, p)] = (api.dag_to_dict(dag), index,
                                   api.schedule(chain))
    dm = DurabilityManager(data_dir, fsync="never", snapshot_every=0)
    names = list(refs)
    for k in range(PREPOP_ENTRIES):
        wire0, index, ref = refs[names[k % len(names)]]
        wire, perm = permute_wire(wire0, rng)
        dag = api.dag_from_dict(wire)
        fp = dag.fingerprint()
        dm.record_admitted(fp, dag)
        if k % PREPOP_CERT_EVERY == 0:
            order = [perm[index[v]] for v in ref.schedule.order]
            dm.record_certificate(fp, api.ScheduleResult(
                fingerprint=fp, certificate=ref.certificate,
                ic_optimal=ref.ic_optimal, profile=ref.profile,
                schedule=Schedule(dag, order), kind=ref.kind,
                strategy=ref.strategy, bounds=ref.bounds,
                provenance=ref.provenance))
    dm.close()
    return PREPOP_ENTRIES


# ----------------------------------------------------------------------
# compare_faults
# ----------------------------------------------------------------------


def compare_plan(seed: int) -> list[dict]:
    """One cycle of ``compare_faults`` calls, in seeded order.

    Every mid-size dag meets every fault scenario on every machine; the
    seed picks simulation seeds, fault-plan seeds and the order.
    Each cycle also re-derives the committed B_4 pins.
    """
    rng = random.Random(f"compare_faults:{seed}")
    calls = []
    for i, (f, p) in enumerate(COMPARE_DAGS):
        for j, scenario in enumerate(COMPARE_SCENARIOS):
            for machine in COMPARE_MACHINES:
                calls.append({
                    "dag": family_name(f, p), "scenario": scenario,
                    "machine": machine, "clients": combo_clients(i, j),
                    "seed": rng.choice((0, 1, 2)),
                    "plan_seed": rng.choice((0, 1, 2)),
                    "policies": COMPARE_POLICIES, "ic_opt": True,
                })
    for scenario in FAULT_PINS:
        calls.append({
            "dag": "butterfly-4-bare", "scenario": scenario,
            "machine": "ideal", "clients": 6, "seed": 1, "plan_seed": 0,
            "policies": ("CRITPATH",), "ic_opt": False,
            "pin": {"CRITPATH": FAULT_PINS[scenario]},
        })
    for machine, pins in MACHINE_PINS.items():
        calls.append({
            "dag": "butterfly-4-bare", "scenario": "none",
            "machine": machine, "clients": 4, "seed": 0, "plan_seed": 0,
            "policies": MACHINE_PIN_POLICIES, "ic_opt": True, "pin": pins,
        })
    rng.shuffle(calls)
    return calls


def compare_targets() -> dict:
    """The dags ``compare_plan`` names, built in the library process."""
    from repro.families.butterfly_net import butterfly_dag

    targets = {family_name(f, p): family_chain(f, p)
               for f, p in COMPARE_DAGS}
    targets["butterfly-4-bare"] = butterfly_dag(4)
    return targets


def compare_call(targets: dict, call: dict):
    """Run one ``compare_faults`` call through the facade."""
    plan = None
    if call["scenario"] != "none":
        plan = api.FaultPlan.scenario(call["scenario"],
                                      n_clients=call["clients"],
                                      seed=call["plan_seed"])
    return api.compare(
        targets[call["dag"]], clients=call["clients"],
        policies=call["policies"], seed=call["seed"],
        fault_plan=plan, machine=call["machine"],
        include_ic_optimal=call["ic_opt"])


def compare_key(call: dict) -> str:
    return "|".join(str(call[k]) for k in (
        "dag", "scenario", "machine", "clients", "seed", "plan_seed",
        "policies", "ic_opt"))
