"""Tests for the content-addressed certification cache."""

import sys
import threading

import pytest

from repro.blocks import block
from repro.cli import FAMILY_HELP, build_family
from repro.core import (
    BlockCertificateLibrary,
    Certificate,
    ComputationDag,
    CompositionChain,
    ProfileCache,
    certify,
    find_ic_optimal_schedule,
    global_profile_cache,
    max_eligibility_profile,
    schedule_dag,
    set_global_block_library,
    set_global_profile_cache,
)
from repro.exceptions import OptimalityError
from repro.families import mesh
from repro.core.profile_cache import _order_key
from repro.obs import MetricsRegistry, set_global_registry
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


# ----------------------------------------------------------------------
# the certificate memo
# ----------------------------------------------------------------------


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    old = set_global_registry(fresh)
    yield fresh
    set_global_registry(old)


@pytest.fixture
def global_cache():
    """A fresh global ProfileCache (and block library), restored after."""
    mine = ProfileCache()
    old = set_global_profile_cache(mine)
    old_lib = set_global_block_library(BlockCertificateLibrary())
    yield mine
    set_global_block_library(old_lib)
    set_global_profile_cache(old)


def certificate_lookups(registry, result):
    return registry.value(
        "profile_cache_lookups_total", kind="certificate", result=result
    )


def assert_same_certificate(got, cold):
    assert got.schedule.order == cold.schedule.order
    assert got.schedule.name == cold.schedule.name
    assert got.certificate is cold.certificate
    assert got.bounds == cold.bounds
    assert got.kind == cold.kind


#: one small size per `repro families` entry
FAMILY_SIZES = {
    "butterfly": 3, "diamond": 3, "dlt": 4, "dlt-tree": 2,
    "in-mesh": 4, "in-tree": 3, "matmul": None, "mesh": 4,
    "out-tree": 3, "paths": 2, "prefix": 8, "sorting": 4,
}


def family_targets():
    for name, size in FAMILY_SIZES.items():
        chain = build_family(name, size)
        dag = getattr(chain, "dag", chain).copy()
        yield f"{name}/chain", chain
        yield f"{name}/bare", dag
        yield f"{name}/relabelled", dag.relabel(lambda v: ("r", v))


FAMILY_TARGETS = list(family_targets())


class TestCertificateMemo:
    def test_every_family_covered(self):
        assert set(FAMILY_SIZES) == set(FAMILY_HELP)

    @pytest.mark.parametrize(
        "label,target", FAMILY_TARGETS,
        ids=[label for label, _ in FAMILY_TARGETS],
    )
    def test_hit_equals_cold(self, registry, label, target):
        mine = ProfileCache()
        cold = certify(target, cache=False)
        filled = certify(target, cache=mine)
        before = mine.hits
        hit = certify(target, cache=mine)
        # the repeat is exactly one lookup: the certificate hit
        assert mine.hits == before + 1
        assert certificate_lookups(registry, "hit") == 1
        assert_same_certificate(filled, cold)
        assert_same_certificate(hit, cold)
        dag = getattr(target, "dag", target)
        assert hit.schedule.dag is dag
        assert hit.provenance == filled.provenance
        assert hit.strategy == "auto"

    def test_hit_is_a_fresh_result(self):
        mine = ProfileCache()
        dag = mesh.out_mesh_dag(4)
        first = certify(dag, cache=mine)
        first.strategy = "tampered"
        second = certify(dag, cache=mine, strategy="auto")
        assert second is not first
        assert second.strategy == "auto"

    def test_options_are_part_of_the_key(self, registry):
        mine = ProfileCache()
        dag = mesh.out_mesh_dag(4)
        certify(dag, cache=mine)
        heur = certify(dag, cache=mine, strategy="heuristic")
        assert heur.certificate is Certificate.HEURISTIC
        certify(dag, cache=mine, library=False)
        assert certificate_lookups(registry, "hit") == 0
        assert certificate_lookups(registry, "miss") == 3

    def test_add_arc_misses(self, registry):
        mine = ProfileCache()
        dag = mesh.out_mesh_dag(4)
        certify(dag, cache=mine)
        dag.add_arc(dag.sinks[0], "extra")
        got = certify(dag, cache=mine)
        assert certificate_lookups(registry, "hit") == 0
        assert_same_certificate(got, certify(dag, cache=False))

    def test_rename_misses(self, registry):
        mine = ProfileCache()
        dag = mesh.out_mesh_dag(4)
        first = certify(dag, cache=mine)
        dag.name = "renamed"
        got = certify(dag, cache=mine)
        assert certificate_lookups(registry, "hit") == 0
        assert got.schedule.name != first.schedule.name
        assert_same_certificate(got, certify(dag, cache=False))

    def test_insertion_order_is_part_of_the_key(self, registry):
        mine = ProfileCache()
        dag = mesh.out_mesh_dag(4)
        reordered = ComputationDag(
            reversed(dag.nodes), reversed(dag.arcs), name=dag.name
        )
        assert reordered.fingerprint() == dag.fingerprint()
        certify(dag, cache=mine)
        got = certify(reordered, cache=mine)
        assert certificate_lookups(registry, "hit") == 0
        assert_same_certificate(got, certify(reordered, cache=False))

    def test_chain_memoized_per_instance(self, registry):
        mine = ProfileCache()
        chain = mesh.out_mesh_chain(4)
        certify(chain, cache=mine)
        certify(chain, cache=mine)
        assert certificate_lookups(registry, "hit") == 1
        # an equal but fresh chain misses (its blocks go through the
        # block library again)
        certify(mesh.out_mesh_chain(4), cache=mine)
        assert certificate_lookups(registry, "miss") == 2

    def test_compose_with_misses(self, registry):
        mine = ProfileCache()
        v, v_sched = block("V")
        chain = CompositionChain(v, v_sched, name="vv")
        certify(chain, cache=mine)
        chain.compose_with(*block("V"))
        got = certify(chain, cache=mine)
        assert certificate_lookups(registry, "hit") == 0
        assert len(got.schedule.order) == len(chain.dag)

    def test_failures_are_not_memoized(self, registry):
        mine = ProfileCache()
        dag = non_ic_optimal_dag()
        for _ in range(2):
            with pytest.raises(OptimalityError):
                certify(dag, cache=mine, strategy="compositional")
        assert certificate_lookups(registry, "hit") == 0

    def test_repr_collision_recertifies(self):
        class Opaque:
            def __repr__(self):
                return "opaque"

        def two_node_dag():
            return ComputationDag(arcs=[(Opaque(), Opaque())])

        mine = ProfileCache()
        first, second = two_node_dag(), two_node_dag()
        assert _order_key(first) == _order_key(second)
        certify(first, cache=mine)
        got = certify(second, cache=mine)
        assert got.schedule.order == tuple(second.nodes)
        assert mine.hits == 1  # found, failed to replay, recertified

    def test_not_persisted(self, tmp_path):
        mine = ProfileCache()
        certify(mesh.out_mesh_dag(4), cache=mine)
        assert any(kind == "certificate" for _, kind in mine._entries)
        path = str(tmp_path / "cache.json")
        written = mine.save(path)
        assert written == len(mine) - 1
        fresh = ProfileCache()
        assert fresh.load(path) == written

    def test_compare_twice_certifies_blocks_once(self, global_cache,
                                                 monkeypatch):
        from repro import api

        calls = []
        original = BlockCertificateLibrary.certify_block

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BlockCertificateLibrary, "certify_block",
                            counting)
        chain = mesh.out_mesh_chain(5)
        first = api.compare(chain, clients=3, policies=("FIFO",))
        assert calls
        n = len(calls)
        second = api.compare(chain, clients=3, policies=("FIFO",))
        assert len(calls) == n
        assert first.rows == second.rows

    def test_cache_false_bypasses_global_memo(self, global_cache):
        dag = mesh.out_mesh_dag(4)
        certify(dag, cache=False)
        certify(dag, cache=False)
        assert schedule_dag(dag, cache=False).ic_optimal
        assert len(global_cache) == 0

    def test_private_cache_bypasses_global_memo(self, global_cache):
        private = ProfileCache()
        dag = mesh.out_mesh_dag(4)
        certify(dag, cache=private)
        certify(dag, cache=private)
        assert len(global_cache) == 0
        assert private.hits == 1

    def test_default_goes_through_global_memo(self, global_cache):
        dag = mesh.out_mesh_dag(4)
        schedule_dag(dag)
        schedule_dag(dag)
        assert global_cache.hits == 1


# ----------------------------------------------------------------------
# thread safety
# ----------------------------------------------------------------------


def hammer(fn, items, threads=8, rounds=100):
    """Run ``fn`` on every item ``rounds`` times from each of
    ``threads`` threads, with a tiny switch interval so the threads
    interleave inside the LRU bookkeeping; re-raises the first error."""
    errors = []
    start = threading.Barrier(threads)

    def work(offset):
        start.wait()
        try:
            for r in range(rounds):
                for i in range(len(items)):
                    fn(items[(i + offset + r) % len(items)])
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work, args=(k,))
                for k in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
    finally:
        sys.setswitchinterval(old)
    if errors:
        raise errors[0]
    return threads * rounds * len(items)


class TestThreadSafety:
    DAGS = [
        ComputationDag(arcs=[(i, i + 1) for i in range(n)])
        for n in range(1, 4)
    ]

    def test_profile_cache_under_contention(self):
        cache = ProfileCache(maxsize=2)
        lookups = hammer(cache.max_profile, self.DAGS)
        assert cache.hits and cache.evictions
        assert cache.hits + cache.misses == lookups
        assert len(cache) <= 2
        # every miss inserts; an insert either evicts or still sits in
        # the cache, or it overwrote a racing miss on the same key
        assert cache.evictions + len(cache) <= cache.misses

    def test_certificate_memo_under_contention(self):
        cache = ProfileCache(maxsize=2)
        lookups = hammer(
            lambda g: certify(g, cache=cache, strategy="heuristic"),
            self.DAGS, rounds=20,
        )
        assert cache.hits + cache.misses == lookups
        assert len(cache) <= 2

    def test_block_library_under_contention(self):
        lib = BlockCertificateLibrary(maxsize=2)
        lookups = hammer(lib.certify_block, self.DAGS)
        assert lib.hits and lib.misses > len(self.DAGS)
        assert lib.hits + lib.misses + lib.bypasses == lookups
        assert len(lib) <= 2
