"""Seeded chaos regressions for the *legacy* loss path.

The event-driven server has always modelled vanishing clients via
``ClientSpec.loss`` — an allocation whose result never comes back is
retried until it lands.  These tests pin down the accounting contracts
between the three places a loss is visible: the
``SimulationResult.lost_allocations`` counter, the ``"lost"`` trace
records, and the ``sim_losses_total`` metric.  They also pin the
determinism of chaos runs: identical seeds (client seed and
``FaultPlan`` seed alike) must reproduce results byte for byte.
"""

import pytest

from repro import api
from repro.core import ComputationDag, hu_batches
from repro.sim import (
    ClientSpec,
    FaultPlan,
    make_policy,
    simulate,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    set_global_registry,
    set_global_tracer,
)


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    old = set_global_registry(fresh)
    yield fresh
    set_global_registry(old)


@pytest.fixture(autouse=True)
def _quiet_tracer():
    old = set_global_tracer(Tracer())
    yield
    set_global_tracer(old)


def lossy_run(seed, record_trace=False):
    dag = ComputationDag(arcs=[(i, i + 1) for i in range(11)])
    return simulate(
        dag, make_policy("FIFO"),
        clients=[ClientSpec(loss=0.4), ClientSpec(loss=0.4)],
        seed=seed, record_trace=record_trace,
    )


class TestLossAccounting:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_counter_matches_trace(self, seed):
        res = lossy_run(seed, record_trace=True)
        lost_records = [r for r in res.trace if r.kind == "lost"]
        assert res.lost_allocations == len(lost_records)
        done_records = [r for r in res.trace if r.kind == "done"]
        assert res.completed == len(done_records) == 12

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_counter_matches_metric(self, seed, registry):
        res = lossy_run(seed)
        assert registry.value("sim_losses_total") == res.lost_allocations
        assert registry.value("sim_completions_total") == res.completed

    def test_wasted_work_positive_when_lossy(self):
        res = lossy_run(seed=0)
        assert res.lost_allocations > 0
        assert res.wasted_work > 0.0

    def test_batched_regimen_records_no_losses(self, registry):
        # the barrier regimen has no client-vanishing model: loss specs
        # are ignored, so neither the counter nor the metric moves.
        dag = ComputationDag(arcs=[(i, i + 1) for i in range(5)])
        res = api.simulate(
            dag, batches=hu_batches(dag, 2),
            clients=[ClientSpec(loss=0.9)] * 2, seed=3,
        )
        assert res.completed == len(dag)
        assert res.lost_allocations == 0
        assert registry.value("sim_losses_total") == 0


class TestChaosDeterminism:
    def test_legacy_loss_runs_identical(self):
        a = lossy_run(seed=5, record_trace=True)
        b = lossy_run(seed=5, record_trace=True)
        assert a == b
        assert a.trace == b.trace

    def test_different_seeds_diverge(self):
        a = lossy_run(seed=5)
        b = lossy_run(seed=6)
        assert a.makespan != b.makespan or \
            a.lost_allocations != b.lost_allocations

    def test_fault_plan_runs_identical(self):
        dag = ComputationDag(
            arcs=[(0, i) for i in range(1, 9)]
            + [(i, 9) for i in range(1, 9)]
        )
        plan = FaultPlan.parse(
            "crash:1@2, join@4x1.5, stall:0@1x2, corrupt=0.2, seed=3",
            n_clients=3,
        )
        runs = [
            simulate(
                dag, make_policy("CRITPATH"),
                clients=[ClientSpec(loss=0.2)] * 3, seed=8,
                record_trace=True, fault_plan=plan,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].fault_report == runs[1].fault_report
        assert runs[0].completed == len(dag)

    def test_fault_plan_losses_agree_with_metric(self, registry):
        dag = ComputationDag(
            arcs=[(0, i) for i in range(1, 9)]
            + [(i, 9) for i in range(1, 9)]
        )
        res = simulate(
            dag, make_policy("FIFO"),
            clients=[ClientSpec(loss=0.3)] * 3, seed=2,
            record_trace=True,
            fault_plan=FaultPlan(corrupt_rate=0.1, seed=1),
        )
        lost_records = [
            r for r in res.trace if r.kind in ("lost", "corrupt")
        ]
        assert res.lost_allocations == len(lost_records)
        assert registry.value("sim_losses_total") == res.lost_allocations
