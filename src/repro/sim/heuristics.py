"""Task-allocation policies for the IC server.

The IC-optimal policy follows a precomputed schedule as a priority
list; the baselines are the natural heuristics of the comparison
studies the paper cites ([15] compares the scheduler of [21] against
FIFO and other natural heuristics; [19] against Condor DAGMan's FIFO):

* ``FIFO``     — allocate the task that became ELIGIBLE earliest;
* ``LIFO``     — ... most recently;
* ``RANDOM``   — uniformly among eligible tasks (seeded);
* ``MAXOUT``   — greatest out-degree first (most immediate children);
* ``CRITPATH`` — longest path to a sink first (classic list
  scheduling);
* ``PACKING``  — largest resource footprint (degree sum) first, after
  the packing heuristics of DAGPS/Graphene;
* ``TROUBLESOME`` — most descendants first: clear the tasks that
  gate the largest residual subgraph (DAGPS "troublesome first").

A policy is an object with ``select(eligible, context) -> Node``;
``eligible`` is the allocatable-task list in the order they became
eligible, and ``context`` gives read access to the dag.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from ..exceptions import SimulationError
from ..core.dag import ComputationDag, Node
from ..core.schedule import Schedule

__all__ = [
    "Policy",
    "FifoPolicy",
    "LifoPolicy",
    "RandomPolicy",
    "KeyedPolicy",
    "MaxOutDegreePolicy",
    "CriticalPathPolicy",
    "PackingPolicy",
    "TroublesomePolicy",
    "SchedulePolicy",
    "make_policy",
    "BASELINE_POLICIES",
]


class Policy:
    """Base class: pick the next task to allocate."""

    name = "policy"

    def attach(self, dag: ComputationDag) -> None:
        """Called once before a run; precompute static priorities."""

    def select(self, eligible: Sequence[Node]) -> Node:
        raise NotImplementedError


class FifoPolicy(Policy):
    """Earliest-eligible first (the Condor DAGMan order of [19])."""

    name = "FIFO"

    def select(self, eligible: Sequence[Node]) -> Node:
        return eligible[0]


class LifoPolicy(Policy):
    """Latest-eligible first."""

    name = "LIFO"

    def select(self, eligible: Sequence[Node]) -> Node:
        return eligible[-1]


class RandomPolicy(Policy):
    """Uniformly random among eligible tasks (seeded for repeatability)."""

    name = "RANDOM"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def select(self, eligible: Sequence[Node]) -> Node:
        return eligible[self._rng.randrange(len(eligible))]


class KeyedPolicy(Policy):
    """A static priority: the eligible task with the largest key wins.
    :meth:`attach` tabulates :meth:`keys` once, with the node index as
    the last component so earlier nodes win ties."""

    def attach(self, dag: ComputationDag) -> None:
        idx = {v: i for i, v in enumerate(dag.nodes)}
        self._key = {v: k + (-idx[v],) for v, k in self.keys(dag).items()}

    def keys(self, dag: ComputationDag) -> dict[Node, tuple]:
        raise NotImplementedError

    def select(self, eligible: Sequence[Node]) -> Node:
        return max(eligible, key=self._key.__getitem__)


def _heights(dag: ComputationDag) -> dict[Node, int]:
    """Longest path (in arcs) from each node to a sink."""
    height: dict[Node, int] = {}
    for v in reversed(dag.topological_order()):
        height[v] = 1 + max((height[c] for c in dag.children(v)),
                            default=-1)
    return height


class MaxOutDegreePolicy(KeyedPolicy):
    """Most immediate children first (a natural greedy proxy for
    eligibility production)."""

    name = "MAXOUT"

    def keys(self, dag):
        return {v: (dag.outdegree(v),) for v in dag.nodes}


class CriticalPathPolicy(KeyedPolicy):
    """Longest-path-to-sink first (classic HLF/list scheduling)."""

    name = "CRITPATH"

    def keys(self, dag):
        return {v: (h,) for v, h in _heights(dag).items()}


class PackingPolicy(KeyedPolicy):
    """Largest resource footprint first.

    The footprint of a task is its degree sum (inputs it must gather
    plus outputs it must ship) — the simulator's analogue of the
    multi-resource demand vector that DAGPS-style packers schedule
    early so fragmentation does not strand them at the end."""

    name = "PACKING"

    def keys(self, dag):
        return {v: (dag.indegree(v) + dag.outdegree(v),) for v in dag.nodes}


class TroublesomePolicy(KeyedPolicy):
    """Most descendants first (DAGPS "troublesome tasks first").

    A task's descendant count measures how much of the dag is gated
    behind it; finishing high-count tasks early keeps the eligible
    frontier from collapsing when a machine model delays them."""

    name = "TROUBLESOME"

    def keys(self, dag):
        height = _heights(dag)
        return {v: (len(dag.descendants(v)), height[v]) for v in dag.nodes}


class SchedulePolicy(KeyedPolicy):
    """Follow a precomputed schedule as a priority list: allocate the
    eligible task that appears earliest in the schedule.

    With an IC-optimal schedule this is the paper's scheduler; the
    policy degrades gracefully when completion order diverges from
    allocation order (the idealization of Section 1 relaxed)."""

    name = "IC-OPT"

    def __init__(self, schedule: Schedule, name: str = "IC-OPT") -> None:
        self.name = name
        # the schedule fixes the key, so it needs no dag to attach
        self._key = {v: -i for i, v in enumerate(schedule.order)}

    def attach(self, dag: ComputationDag) -> None:
        pass


#: zero-argument constructors for the baseline policies of [15]/[19]
#: plus the DAGPS-inspired packers.
BASELINE_POLICIES = {
    "FIFO": FifoPolicy,
    "LIFO": LifoPolicy,
    "RANDOM": RandomPolicy,
    "MAXOUT": MaxOutDegreePolicy,
    "CRITPATH": CriticalPathPolicy,
    "PACKING": PackingPolicy,
    "TROUBLESOME": TroublesomePolicy,
}

#: accepted alternate spellings for :func:`make_policy`.
_POLICY_ALIASES = {
    "PACKING-FIRST": "PACKING",
    "TROUBLESOME-FIRST": "TROUBLESOME",
}


def make_policy(name: str, schedule: Schedule | None = None) -> Policy:
    """Instantiate a policy by name (``IC-OPT`` requires ``schedule``).

    Lookup is case-insensitive and accepts the ``-first`` aliases
    (``troublesome-first``, ``packing-first``)."""
    key = name.upper()
    key = _POLICY_ALIASES.get(key, key)
    if key == "IC-OPT":
        if schedule is None:
            raise SimulationError("IC-OPT policy needs a schedule")
        return SchedulePolicy(schedule)
    try:
        return BASELINE_POLICIES[key]()
    except KeyError:
        raise SimulationError(
            f"unknown policy {name!r}; known: "
            f"{sorted(BASELINE_POLICIES) + ['IC-OPT']}"
        ) from None
