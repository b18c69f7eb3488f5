"""Shared helpers for the benchmark/experiment harness.

Each bench regenerates one experiment row of DESIGN.md: it rebuilds the
paper artifact (figure dag / boxed claim), verifies the claim, renders
the reproduced rows/series with :mod:`repro.analysis.reporting`, and
writes them to ``benchmarks/out/<experiment>.txt`` (also echoed to
stdout, visible with ``pytest -s``).  pytest-benchmark times the
representative kernel of each experiment.
"""

from __future__ import annotations

import pathlib
import statistics
import time

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: paired overhead measurement defaults: each side of a pair runs for
#: at least this much CPU time, and the gate reads the median over
#: this many pairs.
PAIR_SECONDS = 1.0
PAIRS = 7


def write_report(experiment: str, text: str) -> None:
    """Persist (and echo) one experiment's regenerated artifact."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{experiment}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {experiment} ===\n{text}")


def _pair(reference, candidate, min_seconds: float,
          candidate_first: bool) -> tuple[float, float]:
    """One measured pair: the two callables alternate call by call
    until each has run for at least ``min_seconds`` of this process's
    CPU time; returns their mean CPU seconds per call (reference,
    candidate).  Interleaving per call puts both sides under the same
    host load, and CPU time does not charge either side for time spent
    descheduled by other tenants."""
    fns = (reference, candidate)
    order = (1, 0) if candidate_first else (0, 1)
    spent = [0.0, 0.0]
    calls = 0
    while calls == 0 or min(spent) < min_seconds:
        for side in order:
            t0 = time.process_time()
            fns[side]()
            spent[side] += time.process_time() - t0
        calls += 1
    return spent[0] / calls, spent[1] / calls


def paired_ratio(reference, candidate, *, pairs: int = PAIRS,
                 min_seconds: float = PAIR_SECONDS
                 ) -> tuple[float, float, float]:
    """Cost of ``candidate`` relative to ``reference``, measured in
    ``pairs`` pairs of at least ``min_seconds`` CPU time per side.
    Within a pair the two sides alternate call by call, and which side
    goes first alternates from pair to pair; the pair's ratio is
    candidate / reference per-call time.

    Returns ``(median ratio, median reference s/call, median candidate
    s/call)``.  A burst of host noise that survives the interleaving
    skews one pair and is voted out by the median, where a best-of
    over short runs flips with it.
    """
    ratios, ref_t, cand_t = [], [], []
    for i in range(pairs):
        r, c = _pair(reference, candidate, min_seconds, i % 2 == 1)
        ratios.append(c / r)
        ref_t.append(r)
        cand_t.append(c)
    return (statistics.median(ratios), statistics.median(ref_t),
            statistics.median(cand_t))


def policy_table(dag, schedule, clients=8, seed=0):
    """The standard IC-OPT-vs-baselines simulation table used by
    several experiments."""
    from repro.analysis import render_table
    from repro.sim import compare_policies

    cmp = compare_policies(dag, schedule, clients=clients, seed=seed)
    n = clients if isinstance(clients, int) else len(clients)
    return render_table(
        ["policy", "makespan", "starvation", "idle", "util",
         "headroom", "seed"],
        cmp.table_rows(),
        title=f"{dag.name}: {n} clients",
    )
