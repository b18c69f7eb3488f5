"""The paired overhead measurement behind the 5% simulation gates has
teeth: a 10% slowdown injected into one side breaches the budget in
``tools/check_bench_regression.py``, through the same record fields
``benchmarks/bench_faults.py`` and ``benchmarks/bench_machines.py``
write."""

from __future__ import annotations

import importlib.util
import pathlib
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


harness = _load("bench_harness", ROOT / "benchmarks" / "_harness.py")
gates = _load("check_bench_regression",
              ROOT / "tools" / "check_bench_regression.py")


def _work() -> int:
    return sum(i * i for i in range(3000))


def _slowed() -> int:
    """``_work`` plus a busy-wait of 10% of its own duration."""
    t0 = time.perf_counter()
    out = _work()
    until = t0 + 1.10 * (time.perf_counter() - t0)
    while time.perf_counter() < until:
        pass
    return out


def test_ten_percent_slowdown_breaches_both_gates():
    ratio, t_ref, t_cand = harness.paired_ratio(
        _work, _slowed, pairs=7, min_seconds=0.2)
    assert t_cand > t_ref
    pct = max(0.0, (ratio - 1.0) * 100.0)
    assert pct > 5.0
    faults = gates.compare_faults(
        {"overhead": {"disabled_pct": pct, "limit_disabled_pct": 5.0}},
        None, 0.2)
    machines = gates.compare_machines(
        {"overhead": {"ideal_pct": pct, "limit_ideal_pct": 5.0}}, None)
    assert any("disabled_pct" in f for f in faults)
    assert any("ideal_pct" in f for f in machines)


def test_ratio_is_per_call_and_pairs_alternate():
    calls = []
    harness.paired_ratio(lambda: calls.append("r"),
                         lambda: calls.append("c"),
                         pairs=2, min_seconds=0.0)
    assert calls == ["r", "c", "c", "r"]
