"""Tests for the composition operator ⇑, CompositionChain, and the
Theorem 2.1 scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.composition as composition
from repro.blocks import (
    ROOT,
    SINK,
    block,
    lambda_dag,
    lambda_schedule,
    leaf,
    source,
    vee_dag,
    vee_schedule,
)
from repro.core import (
    CompositionChain,
    ComputationDag,
    compose,
    is_ic_optimal,
    linear_composition_schedule,
    sum_dags,
)
from repro.cli import FAMILY_HELP, build_family
from repro.core.priority import optimal_nonsink_profile
from repro.exceptions import CompositionError
from repro.families.trees import out_tree_chain


class TestSum:
    def test_disjoint_union(self):
        g1 = ComputationDag(arcs=[(1, 2)])
        g2 = ComputationDag(arcs=[(3, 4)])
        s = sum_dags(g1, g2)
        assert set(s.nodes) == {1, 2, 3, 4}
        assert len(s.arcs) == 2

    def test_overlap_rejected(self):
        g1 = ComputationDag(arcs=[(1, 2)])
        g2 = ComputationDag(arcs=[(2, 3)])
        with pytest.raises(CompositionError, match="not disjoint"):
            sum_dags(g1, g2)


class TestCompose:
    def test_default_merge(self):
        v = vee_dag().prefixed("a")
        lam = lambda_dag().prefixed("b")
        comp, m1, m2 = compose(v, lam)
        # V has 2 sinks, Λ has 2 sources: both merged
        assert len(comp) == 3 + 3 - 2
        assert comp.sources == [("a", ROOT)]
        assert comp.sinks == [("b", SINK)]

    def test_explicit_pairs(self):
        v = vee_dag().prefixed("a")
        lam = lambda_dag().prefixed("b")
        comp, _m1, m2 = compose(
            v, lam, merge_pairs=[(("a", leaf(0)), ("b", source(1)))]
        )
        assert len(comp) == 5
        assert m2[("b", source(1))] == ("a", leaf(0))

    def test_maps_cover_operands(self):
        v = vee_dag().prefixed("a")
        lam = lambda_dag().prefixed("b")
        comp, m1, m2 = compose(v, lam)
        assert set(m1) == set(v.nodes)
        assert set(m2) == set(lam.nodes)
        assert set(m1.values()) | set(m2.values()) == set(comp.nodes)

    def test_non_sink_rejected(self):
        v = vee_dag().prefixed("a")
        lam = lambda_dag().prefixed("b")
        with pytest.raises(CompositionError, match="not a sink"):
            compose(v, lam, merge_pairs=[(("a", ROOT), ("b", source(0)))])

    def test_non_source_rejected(self):
        v = vee_dag().prefixed("a")
        lam = lambda_dag().prefixed("b")
        with pytest.raises(CompositionError, match="not a source"):
            compose(v, lam, merge_pairs=[(("a", leaf(0)), ("b", SINK))])

    def test_duplicate_pairs_rejected(self):
        v = vee_dag().prefixed("a")
        lam = lambda_dag().prefixed("b")
        with pytest.raises(CompositionError, match="distinct"):
            compose(
                v,
                lam,
                merge_pairs=[
                    (("a", leaf(0)), ("b", source(0))),
                    (("a", leaf(0)), ("b", source(1))),
                ],
            )

    def test_shared_labels_rejected(self):
        v = vee_dag()
        lam = lambda_dag()
        v2 = vee_dag()
        with pytest.raises(CompositionError):
            compose(v, v2, merge_pairs=[(leaf(0), ROOT)])

    def test_empty_merge_rejected_in_free_function(self):
        v = vee_dag().prefixed("a")
        lam = lambda_dag().prefixed("b")
        with pytest.raises(CompositionError, match="at least one"):
            compose(v, lam, merge_pairs=[])


class TestChainBuilding:
    def test_first_block_labels(self):
        v, sv = block("V")
        ch = CompositionChain(v, sv, labels={ROOT: "r", leaf(0): "x"})
        assert "r" in ch.dag and "x" in ch.dag
        # unnamed node gets (0, label)
        assert (0, leaf(1)) in ch.dag

    def test_compose_with_merges(self):
        v, sv = block("V")
        lam, sl = block("Λ")
        ch = CompositionChain(v, sv)
        ch.compose_with(
            lam,
            sl,
            merge_pairs=[
                ((0, leaf(0)), source(0)),
                ((0, leaf(1)), source(1)),
            ],
        )
        assert len(ch.dag) == 4
        assert len(ch) == 2

    def test_sum_step(self):
        v, sv = block("V")
        ch = CompositionChain(v, sv)
        ch.compose_with(v, sv, merge_pairs=[])
        assert len(ch.dag) == 6
        assert not ch.dag.is_connected()

    def test_default_merge_zips_sinks_sources(self):
        v, sv = block("V")
        lam, sl = block("Λ")
        ch = CompositionChain(v, sv)
        ch.compose_with(lam, sl)
        assert len(ch.dag) == 4

    def test_default_merge_with_no_candidates_raises(self):
        lam, sl = block("Λ")
        v, sv = block("V")
        ch = CompositionChain(lam, sl)
        ch.compose_with(v, sv)  # merges Λ's sink with V's root
        # now composite has 2 sinks but next block has no sources? use
        # an arcless "block" with no sources to hit the error
        empty = ComputationDag(nodes=[])
        with pytest.raises(CompositionError):
            ch.compose_with(empty, None)

    def test_label_collision_rejected(self):
        v, sv = block("V")
        ch = CompositionChain(v, sv, labels={ROOT: "r"})
        with pytest.raises(CompositionError, match="already in use"):
            ch.compose_with(v, sv, merge_pairs=[], labels={ROOT: "r"})

    def test_merge_target_must_be_sink(self):
        v, sv = block("V")
        ch = CompositionChain(v, sv)
        with pytest.raises(CompositionError, match="not a sink"):
            ch.compose_with(v, sv, merge_pairs=[((0, ROOT), ROOT)])

    def test_type_string(self):
        v, sv = block("V")
        lam, sl = block("Λ")
        ch = CompositionChain(v, sv)
        ch.compose_with(lam, sl)
        assert ch.type_string() == "V ⇑ Λ"


class TestPriorityLinearity:
    def diamond_chain(self):
        v, sv = block("V")
        lam, sl = block("Λ")
        ch = CompositionChain(v, sv, name="d")
        ch.compose_with(lam, sl)
        return ch

    def test_vee_lambda_chain_linear(self):
        assert self.diamond_chain().is_priority_linear()

    def test_lambda_vee_chain_not_linear(self):
        lam, sl = block("Λ")
        v, sv = block("V")
        ch = CompositionChain(lam, sl)
        ch.compose_with(v, sv)
        assert not ch.is_priority_linear()

    def test_lambda_vee_chain_segmented(self):
        # Λ ⇑ V with the single-sink cut in between: the leftmost
        # Fig. 4 pattern — certifiable segment-wise
        lam, sl = block("Λ")
        v, sv = block("V")
        ch = CompositionChain(lam, sl)
        ch.compose_with(v, sv)
        assert ch.segment_boundaries() == [1]
        assert ch.segmented_priority_linear()

    def test_block_dependencies(self):
        ch = self.diamond_chain()
        assert ch.block_dependencies() == [set(), {0}]

    def test_priority_reordered_keeps_dag(self):
        ch = self.diamond_chain()
        r = ch.priority_reordered()
        assert r.dag is ch.dag
        assert len(r.blocks) == len(ch.blocks)

    def test_priority_reordered_fixes_mixed_degrees(self):
        # V3 root with sibling children attached V2-then-V3 (bad
        # order: V2 ⋫ V3).  Reordering the commuting siblings restores
        # ▷-linearity: V3, V3, V2.
        v2, s2 = block("V", 2)
        v3, s3 = block("V", 3)
        ch = CompositionChain(v3, s3)
        ch.compose_with(v2, s2, merge_pairs=[((0, leaf(0)), ROOT)])
        ch.compose_with(v3, s3, merge_pairs=[((0, leaf(1)), ROOT)])
        assert not ch.is_priority_linear()
        r = ch.priority_reordered()
        assert r.is_priority_linear()
        names = [rec.block.name for rec in r.blocks]
        assert names == ["V3", "V3", "V"]

    def test_priority_reordered_cannot_fix_forced_root(self):
        # with a V2 root the topology pins the non-priority block
        # first; no permutation is ▷-linear
        v2, s2 = block("V", 2)
        v3, s3 = block("V", 3)
        ch = CompositionChain(v2, s2)
        ch.compose_with(v3, s3, merge_pairs=[((0, leaf(0)), ROOT)])
        assert not ch.priority_reordered().is_priority_linear()


class TestTheorem21Scheduler:
    def test_diamond_schedule_optimal(self):
        v, sv = block("V")
        lam, sl = block("Λ")
        ch = CompositionChain(v, sv, name="d")
        ch.compose_with(lam, sl)
        s = linear_composition_schedule(ch)
        assert is_ic_optimal(s)

    def test_nonlinear_chain_raises(self):
        lam, sl = block("Λ")
        v, sv = block("V")
        ch = CompositionChain(lam, sl)
        ch.compose_with(v, sv)
        with pytest.raises(CompositionError, match="not ▷-linear"):
            linear_composition_schedule(ch)

    def test_segmented_level_accepts(self):
        lam, sl = block("Λ")
        v, sv = block("V")
        ch = CompositionChain(lam, sl)
        ch.compose_with(v, sv)
        s = linear_composition_schedule(ch, require_priority_chain="segmented")
        assert is_ic_optimal(s)

    def test_unchecked_level(self):
        lam, sl = block("Λ")
        v, sv = block("V")
        ch = CompositionChain(lam, sl)
        ch.compose_with(v, sv)
        s = linear_composition_schedule(ch, require_priority_chain=False)
        assert len(s) == len(ch.dag)

    def test_unknown_level_rejected(self):
        v, sv = block("V")
        ch = CompositionChain(v, sv)
        with pytest.raises(CompositionError, match="unknown certification"):
            linear_composition_schedule(ch, require_priority_chain="bogus")

    def test_missing_block_schedule_raises(self):
        v, sv = block("V")
        lam, _ = block("Λ")
        ch = CompositionChain(v, sv)
        ch.compose_with(lam, None)
        with pytest.raises(CompositionError, match="no schedule"):
            linear_composition_schedule(ch, require_priority_chain=False)

    def test_schedule_runs_blocks_in_order(self):
        v, sv = block("V")
        lam, sl = block("Λ")
        ch = CompositionChain(v, sv)
        ch.compose_with(lam, sl)
        s = linear_composition_schedule(ch)
        # phase 1: V's root; phase 2: Λ's sources (the V leaves); then
        # the composite sink
        assert s.order[0] == (0, ROOT)
        assert set(s.order[1:3]) == {(0, leaf(0)), (0, leaf(1))}


# ----------------------------------------------------------------------
# priority_reordered against the all-pairs greedy rule
# ----------------------------------------------------------------------

#: one size per catalogued family (``repro families``)
FAMILY_SIZES = {
    "butterfly": 5, "diamond": 6, "dlt": 8, "dlt-tree": 3, "in-mesh": 8,
    "in-tree": 6, "matmul": None, "mesh": 10, "out-tree": 7, "paths": 4,
    "prefix": 16, "sorting": 16,
}


def all_pairs_order(chain):
    """The greedy rule of ``priority_reordered`` as first written: on
    each pick, test the candidate against every other remaining block."""
    profiles = [optimal_nonsink_profile(rec.block, rec.schedule)
                for rec in chain.blocks]
    deps = chain.block_dependencies()
    remaining = set(range(len(chain.blocks)))
    placed, order = set(), []
    while remaining:
        ready = sorted(k for k in remaining if deps[k] <= placed)
        pick = next(
            (k for k in ready
             if all(composition.profiles_have_priority(profiles[k],
                                                       profiles[j])
                    for j in remaining if j != k)),
            ready[0],
        )
        order.append(pick)
        placed.add(pick)
        remaining.discard(pick)
    return [chain.blocks[k] for k in order]


def assert_matches_oracle(chain, monkeypatch):
    expected = all_pairs_order(chain)
    calls = []
    real = composition.profiles_have_priority
    monkeypatch.setattr(composition, "profiles_have_priority",
                        lambda a, b: calls.append(1) or real(a, b))
    reordered = chain.priority_reordered()
    monkeypatch.setattr(composition, "profiles_have_priority", real)
    assert [id(rec) for rec in reordered.blocks] == \
        [id(rec) for rec in expected]
    d = len({tuple(optimal_nonsink_profile(rec.block, rec.schedule))
             for rec in chain.blocks})
    assert len(calls) <= d * d


def test_block_without_self_priority_counts_against_its_twin(monkeypatch):
    # A (profile [1, 3, 3]) has priority over B ([2, 2, 2, 2]) but not
    # over itself, so with two copies of A remaining neither may jump
    # ahead of B: the greedy rule falls back to block order.
    a = ComputationDag(arcs=[(0, 1), (0, 3), (0, 4), (1, 2)], name="A")
    b = ComputationDag(arcs=[(0, 2), (0, 4), (1, 2), (2, 3)], name="B")
    ch = CompositionChain(b)
    ch.compose_with(a, merge_pairs=[])
    ch.compose_with(a, merge_pairs=[])
    assert_matches_oracle(ch, monkeypatch)
    assert [rec.block.name for rec in ch.priority_reordered().blocks] == \
        ["B", "A", "A"]


def test_family_sizes_cover_the_catalog():
    assert set(FAMILY_SIZES) == set(FAMILY_HELP)


@pytest.mark.parametrize("family", sorted(FAMILY_SIZES))
def test_priority_reordered_matches_all_pairs_rule(family, monkeypatch):
    assert_matches_oracle(build_family(family, FAMILY_SIZES[family]),
                          monkeypatch)


@st.composite
def mixed_out_trees(draw):
    """A random out-tree whose internal nodes mix arities 1-4."""
    children, leaves, nxt = {}, [0], 1
    for _ in range(draw(st.integers(1, 14))):
        v = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
        kids = list(range(nxt, nxt + draw(st.integers(1, 4))))
        nxt += len(kids)
        children[v] = kids
        leaves.extend(kids)
    return out_tree_chain(children, 0)


@settings(max_examples=60, deadline=None)
@given(chain=mixed_out_trees())
def test_priority_reordered_matches_all_pairs_rule_on_mixed_trees(chain):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_matches_oracle(chain, monkeypatch)
