"""Tests for bare-dag structure recognition."""

import random

import pytest

from repro.core import (
    Certificate,
    ComputationDag,
    is_ic_optimal,
    recognize,
    recognize_mesh_coordinates,
    schedule_dag,
)
from repro.families import butterfly_net, mesh, prefix, trees


def scrambled(dag):
    """Relabel with opaque labels to prove recognition uses structure."""
    return dag.relabel(lambda v: ("opaque", hash(("salt", v)) & 0xFFFFFFFF))


class TestMeshCoordinates:
    def test_recovers_coordinates(self):
        dag = mesh.out_mesh_dag(4).relabel(lambda v: ("q", v))
        coord = recognize_mesh_coordinates(dag)
        assert coord is not None
        # coordinates reproduce the canonical mesh
        rebuilt = ComputationDag()
        for u, v in dag.arcs:
            rebuilt.add_arc(coord[u], coord[v])
        assert rebuilt.same_structure(mesh.out_mesh_dag(4))

    def test_rejects_non_mesh(self):
        assert recognize_mesh_coordinates(prefix.prefix_dag(4)) is None
        assert (
            recognize_mesh_coordinates(trees.complete_out_tree(3).dag)
            is None
        )

    def test_rejects_mutilated_mesh(self):
        dag = mesh.out_mesh_dag(3)
        dag.remove_arc((1, 0), (2, 0))
        assert recognize_mesh_coordinates(dag) is None


def reference_mesh_coordinates(dag):
    """The original quadratic coordinate recovery (list membership in
    the level walk, a linear scan per inverse lookup): the oracle the
    linear-time version must match byte for byte."""
    if len(dag.sources) != 1 or not dag.is_acyclic():
        return None
    levels = {}
    for v, lv in dag.node_levels().items():
        levels.setdefault(lv, []).append(v)
    depth = max(levels)
    coord = {dag.sources[0]: (0, 0)}
    if levels[0] != [dag.sources[0]]:
        return None
    prev = [dag.sources[0]]
    for k in range(1, depth + 1):
        members = levels.get(k, [])
        if len(members) != k + 1:
            return None
        by_parents = {v: set(dag.parents(v)) for v in members}
        ordered = []
        for m in range(k + 1):
            expected = set()
            if m > 0:
                expected.add(prev[m - 1])
            if m < k:
                expected.add(prev[m])
            matches = [v for v in members
                       if by_parents[v] == expected and v not in ordered]
            if not matches:
                return None
            ordered.append(matches[0])
        for m, v in enumerate(ordered):
            coord[v] = (k, m)
        prev = ordered

    def lookup(k, m):
        return next(v for v, c in coord.items() if c == (k, m))

    expected_arcs = set()
    for v, (k, m) in coord.items():
        if k < depth:
            expected_arcs.add((v, lookup(k + 1, m)))
            expected_arcs.add((v, lookup(k + 1, m + 1)))
    if set(dag.arcs) != expected_arcs:
        return None
    return coord


def shuffled_copy(dag, seed):
    """A relabelled copy with nodes and arcs inserted in random order
    (the level-1 tie-break follows insertion order)."""
    rng = random.Random(seed)
    label = {v: ("s", seed, i) for i, v in enumerate(dag.nodes)}
    nodes = [label[v] for v in dag.nodes]
    arcs = [(label[u], label[v]) for u, v in dag.arcs]
    rng.shuffle(nodes)
    rng.shuffle(arcs)
    return ComputationDag(nodes, arcs)


class TestLinearMeshCoordinates:
    @pytest.mark.parametrize("depth", range(1, 21))
    def test_matches_reference(self, depth):
        dag = mesh.out_mesh_dag(depth)
        copies = [dag, scrambled(dag)] + \
            [shuffled_copy(dag, seed) for seed in range(3)]
        for g in copies:
            got = recognize_mesh_coordinates(g)
            assert got is not None
            assert list(got.items()) == \
                list(reference_mesh_coordinates(g).items())

    @pytest.mark.parametrize("build", [
        lambda: prefix.prefix_dag(4),
        lambda: trees.complete_out_tree(3).dag,
        lambda: butterfly_net.butterfly_dag(2),
        lambda: mesh.in_mesh_dag(3),
    ])
    def test_rejects_like_reference(self, build):
        dag = build()
        assert reference_mesh_coordinates(dag) is None
        assert recognize_mesh_coordinates(dag) is None


class TestRecognize:
    CASES = [
        ("out-tree", lambda: trees.complete_out_tree(3).dag),
        ("in-tree", lambda: trees.complete_in_tree(3).dag),
        ("irregular out-tree", lambda: trees.out_tree_chain(
            {"r": ["a", "b", "c"], "a": ["d", "e"]}, "r"
        ).dag),
        ("mesh d=5", lambda: mesh.out_mesh_dag(5)),
        ("butterfly d=2", lambda: butterfly_net.butterfly_dag(2)),
        ("butterfly d=3", lambda: butterfly_net.butterfly_dag(3)),
        ("prefix n=8", lambda: prefix.prefix_dag(8)),
        ("prefix n=6", lambda: prefix.prefix_dag(6)),
    ]

    @pytest.mark.parametrize("name,build", CASES, ids=[c[0] for c in CASES])
    def test_recognizes_scrambled(self, name, build):
        dag = scrambled(build())
        chain = recognize(dag)
        assert chain is not None, name
        assert chain.dag.same_structure(dag)
        result = schedule_dag(chain)
        assert result.certificate in (
            Certificate.COMPOSITION,
            Certificate.SEGMENTED,
        ), name

    def test_recognized_schedule_verifies(self):
        dag = scrambled(mesh.out_mesh_dag(3))
        chain = recognize(dag)
        r = schedule_dag(chain)
        assert is_ic_optimal(r.schedule)

    def test_unrecognized_returns_none(self):
        junk = ComputationDag(
            arcs=[(1, 2), (1, 3), (2, 4), (3, 4), (1, 4)]
        )
        assert recognize(junk) is None

    def test_single_node_unrecognized(self):
        assert recognize(ComputationDag(nodes=["x"])) is None

    def test_near_miss_butterfly(self):
        dag = butterfly_net.butterfly_dag(2)
        dag.remove_arc((0, 0), (1, 1))
        dag.add_arc((0, 0), (2, 1))  # same counts, wrong structure
        assert recognize(dag) is None


class TestDiamondRecognition:
    def test_complete_diamond(self):
        from repro.families.diamond import complete_diamond

        dag = scrambled(complete_diamond(3).dag)
        chain = recognize(dag)
        assert chain is not None
        assert chain.dag.same_structure(dag)
        assert chain.name.endswith("diamond")

    def test_irregular_diamond(self):
        from repro.families.diamond import diamond_chain

        fine = diamond_chain({"r": ["a", "b"], "a": ["c", "d"]}, "r").dag
        dag = scrambled(fine)
        chain = recognize(dag)
        assert chain is not None
        assert chain.dag.same_structure(dag)
        r = schedule_dag(chain)
        assert is_ic_optimal(r.schedule)

    def test_random_diamond(self):
        from repro.sim.workloads import random_diamond

        dag = scrambled(random_diamond(10, seed=4).dag)
        chain = recognize(dag)
        assert chain is not None
        assert chain.dag.same_structure(dag)

    def test_tree_preferred_over_diamond(self):
        from repro.families.trees import complete_out_tree

        chain = recognize(complete_out_tree(2).dag)
        assert chain.name.endswith("out-tree")

    def test_non_diamond_single_source_sink_rejected(self):
        from repro.core import ComputationDag

        # single source/sink but the middle is not tree-shaped
        dag = ComputationDag(
            arcs=[("s", "a"), ("s", "b"), ("a", "m"), ("b", "m"),
                  ("m", "x"), ("m", "y"), ("x", "t"), ("y", "t"),
                  ("a", "y")]
        )
        assert recognize(dag) is None


class TestInMeshRecognition:
    def test_in_mesh_recognized(self):
        from repro.families.mesh import in_mesh_dag

        dag = scrambled(in_mesh_dag(5))
        chain = recognize(dag)
        assert chain is not None
        assert chain.name.endswith("in-mesh")
        assert chain.dag.same_structure(dag)
        r = schedule_dag(chain)
        assert r.certificate is Certificate.COMPOSITION

    def test_in_mesh_schedule_verifies(self):
        from repro.families.mesh import in_mesh_dag

        chain = recognize(in_mesh_dag(3))
        assert is_ic_optimal(schedule_dag(chain).schedule)
