"""Tests of the benchmark itself.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re

import pytest

import run
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _journal_prefix(seed, rounds=3):
    return [(op["kind"], json.dumps(op.get("wire") or op["of"]["wire"],
                                    sort_keys=True))
            for ops in itertools.islice(workloads.journal_rounds(seed), rounds)
            for op in ops]


@pytest.mark.parametrize("workload", ["simulate_small", "simulate_large"])
def test_same_seed_same_simulate_sequence(workload):
    a = workloads.simulate_plan(workload, 7)
    b = workloads.simulate_plan(workload, 7)
    assert a == b
    b = workloads.simulate_plan(workload, 8)
    assert b["requests"] != a["requests"] and b["round"] == a["round"]


def test_same_seed_same_journal_sequence():
    assert _journal_prefix(3) == _journal_prefix(3)
    assert _journal_prefix(3) != _journal_prefix(4)


def test_journal_rounds_name_only_earlier_rounds():
    seen = set()
    for ops in itertools.islice(workloads.journal_rounds(1), 6):
        for op in ops:
            if op["kind"] != "new":
                assert id(op["of"]) in seen
        seen |= {id(op) for op in ops if op["kind"] == "new"}


def test_same_seed_same_compare_calls():
    assert workloads.compare_plan(5) == workloads.compare_plan(5)
    assert workloads.compare_plan(5) != workloads.compare_plan(6)


def test_composition_does_not_depend_on_seed():
    def shape(plan):
        return sorted((r["policy"], r["machine"]) for r in plan["requests"])

    for workload in ("simulate_small", "simulate_large"):
        assert shape(workloads.simulate_plan(workload, 1)) == \
            shape(workloads.simulate_plan(workload, 2))
    kinds = [sorted(op["kind"] for ops in itertools.islice(
        workloads.journal_rounds(seed), 10) for op in ops)
        for seed in (1, 2)]
    assert kinds[0] == kinds[1]


def test_references_are_only_answers_from_this_seed():
    plan = workloads.simulate_plan("simulate_small", 2)
    refs = workloads.simulate_references(plan)
    assert set(refs) == {workloads.sim_key(r) for r in plan["requests"]}


def test_permuted_dag_new_fingerprint_equal_profile():
    from repro import api

    wire = workloads.family_wire("butterfly", 3)
    copy, perm = workloads.permute_wire(wire, random.Random(1))
    assert sorted(perm) == list(range(wire["n"]))
    assert workloads.fingerprint_of(copy) != workloads.fingerprint_of(wire)
    ref = api.schedule(workloads.family_chain("butterfly", 3)).profile
    assert api.schedule(api.dag_from_dict(copy)).profile == ref


def test_prepopulated_data_dir_replays(tmp_path, monkeypatch):
    from repro.service.durability import DurabilityManager
    from repro.service.registry import DagRegistry

    monkeypatch.setattr(workloads, "PREPOP_ENTRIES", 24)
    assert workloads.prepopulate(str(tmp_path), 1) == 24
    report = DurabilityManager(str(tmp_path)).recover(DagRegistry())
    assert report.entries_restored == 24
    assert report.certified_restored == 24 // workloads.PREPOP_CERT_EVERY
    assert not report.anomalies


def test_self_time_on_synthetic_tree():
    spans = [
        {"id": 1, "parent": 0, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},   # overlaps 2
        {"id": 4, "parent": 2, "start": 2.0, "end": 3.0},
        {"id": 5, "parent": 1, "start": 9.0, "end": 12.0},  # clipped
    ]
    own = tracing.self_times(spans)
    assert own == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0}


def test_span_store_records_parents_and_restores(monkeypatch):
    class Target:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    store = tracing.SpanStore()
    module = type(os)("fake_target")
    module.Target = Target
    monkeypatch.setitem(__import__("sys").modules, "fake_target", module)
    store.install([("fake_target", "Target.outer", "outer"),
                   ("fake_target", "Target.inner", "inner")])
    try:
        assert Target().outer() == 2
    finally:
        store.uninstall()
    assert Target.outer.__name__ == "outer" and \
        not hasattr(Target.outer, "__wrapped__")
    (inner, outer) = store.spans
    assert inner[2] == "inner" and outer[2] == "outer"
    assert inner[1] == outer[0] and outer[1] == 0


def test_counter_delta_sums_label_sets():
    before = tracing.parse_prometheus(
        'x_total{result="hit"} 2\nx_total{result="miss"} 1\n')
    after = tracing.parse_prometheus(
        '# HELP x_total x\nx_total{result="hit"} 5\n'
        'x_total{result="miss"} 4\ny_total 9\n')
    assert tracing.counter_delta(before, after, "x_total") == 6
    assert tracing.counter_delta(before, after, "x_total",
                                 'result="hit"') == 3
    assert tracing.counter_delta(before, after, "y_total") == 9


def test_metric_and_workload_names():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    names += [name for name, _ in tracing.PER_LAYER]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
