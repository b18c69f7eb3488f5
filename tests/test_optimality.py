"""Tests for the exhaustive IC-optimality machinery."""

import pytest

from repro.blocks import block
from repro.blocks.catalog import BLOCK_KINDS
from repro.core import (
    ComputationDag,
    Schedule,
    all_ic_optimal_nonsink_orders,
    find_ic_optimal_schedule,
    ic_optimal_exists,
    is_ic_optimal,
    max_eligibility_profile,
)
from repro.exceptions import OptimalityError


class TestMaxProfile:
    def test_vee(self):
        g, _ = block("V")
        assert max_eligibility_profile(g) == [1, 2, 1, 0]

    def test_lambda(self):
        g, _ = block("Λ")
        assert max_eligibility_profile(g) == [2, 1, 1, 0]

    def test_butterfly_block(self):
        g, _ = block("B")
        assert max_eligibility_profile(g) == [2, 1, 2, 1, 0]

    def test_w3(self):
        g, _ = block("W", 3)
        assert max_eligibility_profile(g) == [3, 3, 3, 4, 3, 2, 1, 0]

    def test_n4_constant_plateau(self):
        g, _ = block("N", 4)
        assert max_eligibility_profile(g) == [4, 4, 4, 4, 4, 3, 2, 1, 0]

    def test_cycle4(self):
        g, _ = block("C", 4)
        assert max_eligibility_profile(g) == [4, 3, 3, 3, 4, 3, 2, 1, 0]

    def test_tail_is_linear_decrease(self):
        # after all nonsinks, M(t) = |N| - t exactly
        g, _ = block("W", 4)
        prof = max_eligibility_profile(g)
        n = len(g.nonsinks)
        for t in range(n, len(g) + 1):
            assert prof[t] == len(g) - t

    def test_arcless_dag(self):
        g = ComputationDag(nodes=[1, 2, 3])
        assert max_eligibility_profile(g) == [3, 2, 1, 0]

    def test_state_budget_enforced(self):
        from repro.families.mesh import out_mesh_dag

        with pytest.raises(OptimalityError, match="state budget"):
            max_eligibility_profile(out_mesh_dag(10), state_budget=5)

    def test_cyclic_dag_rejected(self):
        g = ComputationDag(arcs=[(1, 2), (2, 1)])
        with pytest.raises(Exception):
            max_eligibility_profile(g)


class TestIsICOptimal:
    def test_catalogued_block_schedules(self):
        for kind, param in [
            ("V", 2),
            ("V", 3),
            ("Λ", 2),
            ("Λ", 3),
            ("W", 2),
            ("W", 4),
            ("M", 3),
            ("N", 5),
            ("C", 3),
            ("C", 5),
            ("B", None),
        ]:
            g, s = block(kind, param)
            assert is_ic_optimal(s), f"{kind}({param})"

    def test_bad_schedule_detected(self):
        g, _ = block("N", 4)
        # executing sources right-to-left is strictly suboptimal
        srcs = sorted(
            (v for v in g.nodes if v[0] == "src"),
            key=lambda v: -v[1],
        )
        snks = [v for v in g.nodes if v[0] == "snk"]
        s = Schedule(g, srcs + snks)
        assert not is_ic_optimal(s)

    def test_reuses_supplied_ceiling(self):
        g, s = block("W", 3)
        ceiling = max_eligibility_profile(g)
        assert is_ic_optimal(s, max_profile=ceiling)

    def test_ceiling_length_mismatch(self):
        g, s = block("W", 3)
        with pytest.raises(OptimalityError):
            is_ic_optimal(s, max_profile=[1, 2, 3])


class TestFindOptimal:
    def test_finds_on_blocks(self):
        for kind, param in [("V", 2), ("Λ", 2), ("W", 3), ("N", 3), ("C", 4)]:
            g, _ = block(kind, param)
            s = find_ic_optimal_schedule(g)
            assert s is not None
            assert is_ic_optimal(s)

    def test_nonsink_first_order(self):
        g, _ = block("C", 4)
        s = find_ic_optimal_schedule(g)
        nonsinks = set(g.nonsinks)
        boundary = len(nonsinks)
        assert all(v in nonsinks for v in s.order[:boundary])

    def test_deterministic(self):
        g, _ = block("W", 4)
        s1 = find_ic_optimal_schedule(g)
        s2 = find_ic_optimal_schedule(g)
        assert s1.order == s2.order

    def test_dag_without_ic_optimal_schedule(self):
        # Conflict: M(1) = 3 is attained only by executing a (rendering
        # its private sink w), but M(2) = 4 is attained only by the
        # pair {b, c} (rendering x, y, z) — no single order does both.
        g = non_ic_optimal_dag()
        assert find_ic_optimal_schedule(g) is None
        assert not ic_optimal_exists(g)
        # sanity: no topological order attains the ceiling pointwise
        import itertools

        ceiling = max_eligibility_profile(g)
        nonsinks = g.nonsinks
        found = False
        for perm in itertools.permutations(nonsinks):
            try:
                s = Schedule(g, list(perm) + [v for v in g.nodes if g.is_sink(v)])
            except Exception:
                continue
            if is_ic_optimal(s, ceiling):
                found = True
        assert not found

    def test_exists_on_paper_families(self):
        from repro.families.mesh import out_mesh_dag

        assert ic_optimal_exists(out_mesh_dag(3))


def non_ic_optimal_dag() -> ComputationDag:
    """A small dag admitting no IC-optimal schedule (found by seeded
    search, then frozen here; the test above re-verifies by brute
    force): ``a`` privately feeds ``w`` while ``b`` and ``c`` jointly
    feed ``x, y, z``."""
    return ComputationDag(
        arcs=[
            ("a", "w"),
            ("b", "x"),
            ("b", "y"),
            ("b", "z"),
            ("c", "x"),
            ("c", "y"),
            ("c", "z"),
        ]
    )


class TestEnumerateOptimalOrders:
    def test_lambda_orders(self):
        g, _ = block("Λ")
        orders = all_ic_optimal_nonsink_orders(g)
        assert sorted(orders) == [
            (("src", 0), ("src", 1)),
            (("src", 1), ("src", 0)),
        ]

    def test_vee_every_order(self):
        g, _ = block("V")
        assert all_ic_optimal_nonsink_orders(g) == [("root",)]

    def test_limit_respected(self):
        g, _ = block("B")
        assert len(all_ic_optimal_nonsink_orders(g, limit=1)) == 1

    def test_n_dag_anchored(self):
        # every IC-optimal order of N_3 is a consecutive run; only the
        # anchored left-to-right order keeps E = s at every step
        g, _ = block("N", 3)
        orders = all_ic_optimal_nonsink_orders(g)
        assert orders == [(("src", 0), ("src", 1), ("src", 2))]


# ---------------------------------------------------------------------
# oracle: the ceiling M(t) by brute force, independent of the engine


def reference_ceiling(dag) -> list[int]:
    """``M(t)`` from first principles: enumerate every order ideal of
    ``dag`` (sinks included, no nonsink reduction, plain frozensets)
    and keep the largest eligible count seen at each size."""
    nodes = list(dag.nodes)
    parents = {v: set(dag.parents(v)) for v in nodes}
    best: dict[int, int] = {}
    level = {frozenset()}
    while level:
        nxt = set()
        for ideal in level:
            eligible = [v for v in nodes
                        if v not in ideal and parents[v] <= ideal]
            size = len(ideal)
            best[size] = max(best.get(size, 0), len(eligible))
            nxt.update(ideal | {v} for v in eligible)
        level = nxt
    return [best[t] for t in range(len(nodes) + 1)]


def linear_extensions(dag):
    """Every topological order of ``dag`` (brute force; tiny dags)."""
    parents = {v: set(dag.parents(v)) for v in dag.nodes}

    def extend(done, order):
        if len(order) == len(parents):
            yield list(order)
            return
        for v in dag.nodes:
            if v not in done and parents[v] <= done:
                yield from extend(done | {v}, order + [v])

    yield from extend(frozenset(), [])


#: every catalog block kind at a representative parameter (or two
#: where the family is parameterized interestingly).
CATALOG_CASES = [
    ("V", None),
    ("V", 3),
    ("Λ", None),
    ("Λ", 3),
    ("W", 2),
    ("W", 4),
    ("M", 3),
    ("N", 3),
    ("N", 5),
    ("C", 3),
    ("C", 5),
    ("B", None),
    ("Q", 2),
]


def _family_dags():
    """Each paper family at two sizes (kept small: the oracle
    enumerates every ideal, sinks included)."""
    from repro.families.butterfly_net import butterfly_dag
    from repro.families.diamond import complete_diamond
    from repro.families.mesh import out_mesh_dag
    from repro.families.prefix import prefix_chain
    from repro.families.trees import complete_out_tree

    cases = []
    for d in (1, 2):
        cases.append((f"butterfly-{d}", butterfly_dag(d)))
    for d in (3, 4):
        cases.append((f"mesh-{d}", out_mesh_dag(d)))
    for d in (2, 3):
        cases.append((f"diamond-{d}", complete_diamond(d).dag))
    for d in (2, 3):
        cases.append((f"prefix-{d}", prefix_chain(d).dag))
    for d in (2, 3):
        cases.append((f"out-tree-{d}", complete_out_tree(d).dag))
    return cases


def _oracle_cases():
    cases = [
        (f"{kind}{param or ''}", block(kind, param)[0])
        for kind, param in CATALOG_CASES
    ]
    return cases + _family_dags()


def test_every_catalog_kind_covered():
    # guard: CATALOG_CASES tracks the catalog registry
    assert {k for k, _ in CATALOG_CASES} == set(BLOCK_KINDS)


@pytest.mark.parametrize("label,dag", _oracle_cases())
def test_profile_matches_oracle(label, dag):
    assert max_eligibility_profile(dag) == reference_ceiling(dag), label


@pytest.mark.parametrize("label,dag", _oracle_cases())
def test_schedule_meets_oracle_ceiling(label, dag):
    found = find_ic_optimal_schedule(dag)
    assert found is not None, label
    assert found.profile == reference_ceiling(dag), label


def test_no_schedule_attains_oracle_ceiling():
    g = non_ic_optimal_dag()
    ceiling = reference_ceiling(g)
    assert find_ic_optimal_schedule(g) is None
    assert all(Schedule(g, order).profile != ceiling
               for order in linear_extensions(g))
