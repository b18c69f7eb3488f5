"""Tests for the content-addressed certification cache."""

import pytest

from repro.blocks import block
from repro.core import (
    Certificate,
    ComputationDag,
    ProfileCache,
    find_ic_optimal_schedule,
    global_profile_cache,
    max_eligibility_profile,
    schedule_dag,
    set_global_profile_cache,
)
from repro.exceptions import OptimalityError
from tests.test_optimality import non_ic_optimal_dag


@pytest.fixture
def cache():
    return ProfileCache(maxsize=8)


class TestFingerprint:
    def test_content_addressed_across_instances(self):
        g1, _ = block("W", 3)
        g2, _ = block("W", 3)
        assert g1 is not g2
        assert g1.fingerprint() == g2.fingerprint()

    def test_insertion_order_independent(self):
        a = ComputationDag(arcs=[("a", "b"), ("a", "c")])
        b = ComputationDag(arcs=[("a", "c"), ("a", "b")])
        assert a.fingerprint() == b.fingerprint()

    def test_name_independent(self):
        a = ComputationDag(arcs=[(1, 2)], name="x")
        b = ComputationDag(arcs=[(1, 2)], name="y")
        assert a.fingerprint() == b.fingerprint()

    def test_structure_sensitive(self):
        a = ComputationDag(arcs=[(1, 2), (1, 3)])
        b = ComputationDag(arcs=[(1, 2), (2, 3)])
        assert a.fingerprint() != b.fingerprint()

    def test_mutation_invalidates(self):
        g = ComputationDag(arcs=[(1, 2)])
        fp = g.fingerprint()
        assert g.fingerprint() == fp  # memoized path
        g.add_arc(1, 3)
        assert g.fingerprint() != fp
        g.remove_node(3)
        assert g.fingerprint() == fp  # same structure again

    def test_isolated_node_counted(self):
        a = ComputationDag(arcs=[(1, 2)])
        b = ComputationDag(nodes=[3], arcs=[(1, 2)])
        assert a.fingerprint() != b.fingerprint()


class TestProfileCaching:
    def test_hit_returns_identical_profile(self, cache):
        g1, _ = block("C", 4)
        g2, _ = block("C", 4)
        fresh = max_eligibility_profile(g1)
        assert cache.max_profile(g1) == fresh
        assert cache.max_profile(g2) == fresh
        assert cache.hits == 1 and cache.misses == 1

    def test_returned_list_is_a_copy(self, cache):
        g, _ = block("W", 2)
        p = cache.max_profile(g)
        p[0] = -99
        assert cache.max_profile(g) == max_eligibility_profile(g)

    def test_distinct_structures_do_not_collide(self, cache):
        g1, _ = block("V")
        g2, _ = block("Λ")
        assert cache.max_profile(g1) != cache.max_profile(g2)
        assert cache.misses == 2

    def test_budget_failure_not_cached(self, cache):
        from repro.families.mesh import out_mesh_dag

        g = out_mesh_dag(6)
        with pytest.raises(OptimalityError):
            cache.max_profile(g, state_budget=5)
        assert len(cache) == 0
        # a later, adequately budgeted call succeeds and caches
        assert cache.max_profile(g) == max_eligibility_profile(g)

    def test_lru_eviction(self):
        small = ProfileCache(maxsize=2)
        dags = [block("N", s)[0] for s in (2, 3, 4)]
        for g in dags:
            small.max_profile(g)
        assert len(small) == 2
        assert small.evictions == 1
        # oldest (N_2) was evicted -> miss; newest (N_4) still hits
        small.max_profile(dags[2])
        assert small.hits == 1
        small.max_profile(dags[0])
        assert small.misses == 4  # 3 cold + evicted N_2 again

    def test_clear(self, cache):
        g, _ = block("V")
        cache.max_profile(g)
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 0 and cache.hits == 0


class TestScheduleCaching:
    def test_schedule_hit_is_byte_identical(self, cache):
        g1, _ = block("C", 5)
        g2, _ = block("C", 5)
        cold = cache.find_schedule(g1)
        hit = cache.find_schedule(g2)
        fresh = find_ic_optimal_schedule(g1)
        assert cold.order == hit.order == fresh.order
        assert cold.profile == hit.profile == fresh.profile

    def test_hit_rebuilds_against_requesting_dag(self, cache):
        g1, _ = block("W", 3)
        g2, _ = block("W", 3)
        cache.find_schedule(g1)
        hit = cache.find_schedule(g2)
        assert hit.dag is g2

    def test_none_exists_is_cached(self, cache):
        assert cache.find_schedule(non_ic_optimal_dag()) is None
        before = cache.hits
        assert cache.find_schedule(non_ic_optimal_dag()) is None
        assert cache.hits == before + 1


class TestScheduleDagWiring:
    def test_private_cache_used(self):
        mine = ProfileCache()
        g1, _ = block("C", 4)
        g2, _ = block("C", 4)
        r1 = schedule_dag(g1, cache=mine)
        r2 = schedule_dag(g2, cache=mine)
        assert r1.certificate is Certificate.EXHAUSTIVE
        assert r1.schedule.order == r2.schedule.order
        assert mine.hits > 0

    def test_cache_false_bypasses(self):
        mine = ProfileCache()
        old = set_global_profile_cache(mine)
        try:
            g, _ = block("C", 4)
            r = schedule_dag(g, cache=False)
        finally:
            set_global_profile_cache(old)
        assert r.certificate is Certificate.EXHAUSTIVE
        assert len(mine) == 0

    def test_default_goes_through_global_cache(self):
        mine = ProfileCache()
        old = set_global_profile_cache(mine)
        try:
            g1, _ = block("N", 4)
            g2, _ = block("N", 4)
            r1 = schedule_dag(g1)
            r2 = schedule_dag(g2)
        finally:
            assert set_global_profile_cache(old) is mine
        assert r1.schedule.order == r2.schedule.order
        assert mine.hits > 0
        assert global_profile_cache() is old

    def test_cached_equals_uncached(self):
        for kind, param in [("V", 3), ("Λ", 3), ("W", 3), ("B", None)]:
            g, _ = block(kind, param)
            cached = schedule_dag(g, cache=ProfileCache())
            uncached = schedule_dag(g, cache=False)
            assert cached.certificate is uncached.certificate
            assert cached.schedule.order == uncached.schedule.order


class TestSimServerWiring:
    def test_repeat_requests_hit_cache(self):
        from repro import api

        mine = ProfileCache()
        old = set_global_profile_cache(mine)
        try:
            results = []
            for seed in range(3):
                # N8 escapes recognition, so certification still runs
                # the exhaustive search through the profile cache
                g, _ = block("N", 8)
                res = api.simulate(g, clients=2, seed=seed)
                assert res.certificate == Certificate.EXHAUSTIVE.value
                assert res.completed == len(g)
                results.append(res.schedule.order)
        finally:
            set_global_profile_cache(old)
        assert results[0] == results[1] == results[2]
        assert mine.hits > 0
        assert mine.hit_rate > 0.0
