"""Dag sum, the composition operator ⇑, and Theorem 2.1 scheduling.

Section 2.3.1 defines *composition*: given dags ``G1`` and ``G2``
(disjoint, renaming if needed), pick an equal-size set of **sinks of
G1** and **sources of G2** and pairwise merge them; the result is the
composite ``G1 ⇑ G2``.

A dag is a **▷-linear composition** of ``G1, ..., Gk`` when it is
composite of type ``G1 ⇑ ... ⇑ Gk`` and ``Gi ▷ Gi+1`` for every
consecutive pair.  Theorem 2.1 then yields an IC-optimal schedule: run
the (images of the) nonsinks of each ``Gi`` in turn, each block under
its own IC-optimal schedule, and finish with the composite's sinks.

:class:`CompositionChain` records the build history — constituent
blocks, their IC-optimal schedules, and the node maps into the
composite — which is exactly the information Theorem 2.1 consumes.
Every dag family in the paper (diamonds, meshes, butterflies,
parallel-prefix, DLT, matrix-multiply) is constructed through this
class, so each family dag arrives with a machine-checkable
decomposition certificate.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from ..exceptions import CompositionError
from .dag import ComputationDag, Node
from .priority import optimal_nonsink_profile, profiles_have_priority
from .schedule import Schedule

__all__ = [
    "sum_dags",
    "compose",
    "BlockRecord",
    "CompositionChain",
    "linear_composition_schedule",
]


def sum_dags(
    g1: ComputationDag, g2: ComputationDag, name: str | None = None
) -> ComputationDag:
    """The sum ``G1 + G2`` (footnote 4): disjoint union.

    Raises :class:`CompositionError` if the node sets intersect; use
    :meth:`ComputationDag.prefixed` to rename first.
    """
    overlap = set(g1.nodes) & set(g2.nodes)
    if overlap:
        raise CompositionError(
            f"dags are not disjoint; {len(overlap)} shared node(s), "
            f"e.g. {next(iter(overlap))!r}"
        )
    out = ComputationDag(name=name or f"{g1.name}+{g2.name}")
    for v in g1.nodes:
        out.add_node(v)
    for v in g2.nodes:
        out.add_node(v)
    out.add_arcs(g1.arcs)
    out.add_arcs(g2.arcs)
    return out


def compose(
    g1: ComputationDag,
    g2: ComputationDag,
    merge_pairs: Sequence[tuple[Node, Node]] | None = None,
    name: str | None = None,
) -> tuple[ComputationDag, dict[Node, Node], dict[Node, Node]]:
    """The composite ``G1 ⇑ G2``.

    Parameters
    ----------
    merge_pairs:
        Pairs ``(sink_of_g1, source_of_g2)`` to identify.  Defaults to
        zipping ``g1.sinks`` with ``g2.sources`` up to the shorter
        length (at least one pair is required — otherwise the result
        would be a mere sum).
    name:
        Name of the composite.

    Returns
    -------
    (composite, map1, map2):
        ``map1``/``map2`` send each node of ``g1``/``g2`` to its node
        in the composite.  Merged nodes keep the ``g1`` label; other
        labels survive unchanged (operands must therefore be disjoint
        apart from nothing at all — rename with
        :meth:`ComputationDag.prefixed` first when needed).
    """
    if merge_pairs is None:
        sinks = g1.sinks
        sources = g2.sources
        k = min(len(sinks), len(sources))
        merge_pairs = list(zip(sinks[:k], sources[:k]))
    if not merge_pairs:
        raise CompositionError("composition requires at least one merge pair")

    sinks1 = set(g1.sinks)
    sources2 = set(g2.sources)
    used_sinks: set[Node] = set()
    used_sources: set[Node] = set()
    for s1, s2 in merge_pairs:
        if s1 not in sinks1:
            raise CompositionError(f"{s1!r} is not a sink of {g1.name!r}")
        if s2 not in sources2:
            raise CompositionError(f"{s2!r} is not a source of {g2.name!r}")
        if s1 in used_sinks or s2 in used_sources:
            raise CompositionError("merge pairs must be pairwise distinct")
        used_sinks.add(s1)
        used_sources.add(s2)

    merged = {s2: s1 for s1, s2 in merge_pairs}
    overlap = set(g1.nodes) & set(g2.nodes)
    if overlap:
        raise CompositionError(
            f"operands share {len(overlap)} node label(s); rename first "
            f"(e.g. {next(iter(overlap))!r})"
        )

    out = ComputationDag(name=name or f"{g1.name}⇑{g2.name}")
    map1 = {v: v for v in g1.nodes}
    map2 = {v: merged.get(v, v) for v in g2.nodes}
    for v in g1.nodes:
        out.add_node(v)
    for v in g2.nodes:
        out.add_node(map2[v])
    for u, v in g1.arcs:
        out.add_arc(u, v)
    for u, v in g2.arcs:
        out.add_arc(map2[u], map2[v])
    out.validate()
    return out, map1, map2


@dataclass
class BlockRecord:
    """One constituent of a composition chain.

    Attributes
    ----------
    block:
        The building-block dag in its own label space.
    schedule:
        An IC-optimal schedule *of the block* (``None`` means "resolve
        later"; Theorem 2.1 needs it).
    node_map:
        Block label -> composite label.
    """

    block: ComputationDag
    schedule: Schedule | None
    node_map: dict[Node, Node] = field(default_factory=dict)


class CompositionChain:
    """An iterated composition ``G1 ⇑ G2 ⇑ ... ⇑ Gk`` with its history.

    Start from a first block, then repeatedly :meth:`compose_with` the
    next one.  Blocks may reuse labels freely — each block's nodes are
    relabeled ``(block_index, label)`` inside the composite, except for
    merged sources which adopt the label of the composite sink they
    merge into.
    """

    def __init__(
        self,
        first_block: ComputationDag,
        schedule: Schedule | None = None,
        name: str = "composite",
        labels: dict[Node, Node] | None = None,
    ) -> None:
        self.name = name
        node_map = self._fresh_labels(first_block, 0, labels, set())
        self.dag = ComputationDag(name=name)
        for v in first_block.nodes:
            self.dag.add_node(node_map[v])
        for u, v in first_block.arcs:
            self.dag.add_arc(node_map[u], node_map[v])
        self.blocks: list[BlockRecord] = [
            BlockRecord(block=first_block, schedule=schedule, node_map=node_map)
        ]

    @staticmethod
    def _fresh_labels(
        block: ComputationDag,
        idx: int,
        labels: dict[Node, Node] | None,
        taken: set[Node],
    ) -> dict[Node, Node]:
        """Resolve composite labels for a block's unmerged nodes.

        ``labels`` (block label -> composite label) lets callers give
        family dags meaningful node names; unnamed nodes default to
        ``(block_index, block_label)``.  Labels must be fresh in the
        composite.
        """
        out: dict[Node, Node] = {}
        for v in block.nodes:
            lbl = labels[v] if labels and v in labels else (idx, v)
            if lbl in taken or lbl in out.values():
                raise CompositionError(
                    f"composite label {lbl!r} for block node {v!r} is "
                    "already in use"
                )
            out[v] = lbl
        return out

    def __len__(self) -> int:
        return len(self.blocks)

    def compose_with(
        self,
        block: ComputationDag,
        schedule: Schedule | None = None,
        merge_pairs: Sequence[tuple[Node, Node]] | None = None,
        labels: dict[Node, Node] | None = None,
    ) -> "CompositionChain":
        """Attach ``block`` via ⇑ and record it; returns ``self``.

        ``merge_pairs`` pairs *composite* sink labels with *block*
        source labels; by default composite sinks are zipped with block
        sources (shorter list wins).  An explicit empty list performs
        the *sum* step ``G + block`` (Section 2.3.1 allows the merged
        set to be empty; iterated compositions such as
        ``Λ ⇑ Λ ⇑ Λ`` for in-trees need it, since leaf-level blocks are
        mutually disconnected until a downstream block joins them).

        ``labels`` optionally names the block's unmerged nodes in the
        composite (block label -> composite label); merged sources
        always adopt the composite sink's label.
        """
        idx = len(self.blocks)
        if merge_pairs is None:
            sinks = self.dag.sinks
            sources = block.sources
            k = min(len(sinks), len(sources))
            if k == 0:
                raise CompositionError(
                    "no composite sinks / block sources to merge; pass "
                    "merge_pairs=[] explicitly for a sum step"
                )
            merge_pairs = list(zip(sinks[:k], sources[:k]))
        block_sources = set(block.sources)
        node_map: dict[Node, Node] = {}
        for cs, bs in merge_pairs:
            if cs not in self.dag or self.dag.outdegree(cs) != 0:
                raise CompositionError(
                    f"{cs!r} is not a sink of the composite {self.name!r}"
                )
            if bs not in block_sources:
                raise CompositionError(
                    f"{bs!r} is not a source of block {block.name!r}"
                )
            if bs in node_map:
                raise CompositionError(
                    f"block source {bs!r} appears in two merge pairs"
                )
            if cs in node_map.values():
                raise CompositionError(
                    f"composite sink {cs!r} appears in two merge pairs"
                )
            node_map[bs] = cs
        for v in block.nodes:
            if v in node_map:
                continue
            lbl = labels[v] if labels and v in labels else (idx, v)
            if lbl in self.dag or lbl in node_map.values():
                raise CompositionError(
                    f"composite label {lbl!r} for block node {v!r} is "
                    "already in use"
                )
            node_map[v] = lbl
        for v in block.nodes:
            self.dag.add_node(node_map[v])
        for u, v in block.arcs:
            self.dag.add_arc(node_map[u], node_map[v])
        # No acyclicity re-validation needed: merge targets are sinks
        # of the current composite (no outgoing arcs), block sources
        # have no incoming block arcs, and every other endpoint is a
        # fresh node — so each new arc flows from {sink, fresh} into
        # fresh and can close no cycle.
        self.blocks.append(
            BlockRecord(block=block, schedule=schedule, node_map=node_map)
        )
        return self

    # ------------------------------------------------------------------
    def block_dags(self) -> list[ComputationDag]:
        return [rec.block for rec in self.blocks]

    def block_schedules(self) -> list[Schedule | None]:
        return [rec.schedule for rec in self.blocks]

    def is_priority_linear(self) -> bool:
        """Check requirement (b): ``Gi ▷ Gi+1`` along the chain."""
        profiles = [
            optimal_nonsink_profile(rec.block, rec.schedule)
            for rec in self.blocks
        ]
        return all(
            profiles_have_priority(profiles[i], profiles[i + 1])
            for i in range(len(profiles) - 1)
        )

    def segment_boundaries(self) -> list[int]:
        """Block indices where a *topological cut* splits the chain.

        Index ``k`` is a boundary when (a) the composite built from
        blocks ``[0, k)`` has exactly one sink, and (b) every block
        from ``k`` on attaches with *all* of its sources merged into
        previously existing composite nodes.  Then every node
        downstream of the cut is a descendant of that single sink, so
        — as Section 3.1 argues for ``T' ⇑ T`` — *every* schedule is
        forced to execute all upstream nonsinks before any downstream
        node becomes ELIGIBLE.  IC-optimality therefore decomposes
        segment by segment (see :func:`segmented_priority_linear`).

        Returns the boundary indices in increasing order; 0 and
        ``len(blocks)`` are implicit and not included.
        """
        # images_before[k] = composite nodes contributed by blocks < k.
        images: set[Node] = set()
        images_before: list[set[Node]] = []
        for rec in self.blocks:
            images_before.append(set(images))
            images.update(rec.node_map.values())

        # fully_attached[k]: every source of block k merged on attach.
        fully_attached = [
            all(
                rec.node_map[s] in images_before[k]
                for s in rec.block.sources
            )
            for k, rec in enumerate(self.blocks)
        ]
        # suffix_attached[k]: blocks k.. are all fully attached.
        suffix_attached = [False] * (len(self.blocks) + 1)
        suffix_attached[len(self.blocks)] = True
        for k in range(len(self.blocks) - 1, -1, -1):
            suffix_attached[k] = fully_attached[k] and suffix_attached[k + 1]

        boundaries: list[int] = []
        for k in range(1, len(self.blocks)):
            if not suffix_attached[k]:
                continue
            prefix_nodes = images_before[k]
            prefix_sinks = [
                v
                for v in prefix_nodes
                if all(c not in prefix_nodes for c in self.dag.children(v))
            ]
            if len(prefix_sinks) == 1:
                boundaries.append(k)
        return boundaries

    def segmented_priority_linear(self) -> bool:
        """True when the chain splits at topological cuts into segments
        that are each ▷-linear.

        This certifies IC-optimality of the block-order schedule for
        the alternating expansion-reduction compositions of Table 1
        (where the full chain fails ▷-linearity at each Λ -> V seam but
        single-sink cuts force the phase ordering anyway).
        """
        profiles = [
            optimal_nonsink_profile(rec.block, rec.schedule)
            for rec in self.blocks
        ]
        cuts = [0] + self.segment_boundaries() + [len(self.blocks)]
        for a, b in zip(cuts, cuts[1:]):
            for i in range(a, b - 1):
                if not profiles_have_priority(profiles[i], profiles[i + 1]):
                    return False
        return True

    def block_dependencies(self) -> list[set[int]]:
        """For each block, the indices of earlier blocks it merges into.

        Block *j* depends on block *i* when some source of *j* was
        merged onto a node contributed by *i*.  Any linear extension of
        this partial order describes the same composite dag (the ⇑
        operator is associative, and same-level blocks commute).
        """
        contributed: dict[Node, int] = {}
        deps: list[set[int]] = []
        for k, rec in enumerate(self.blocks):
            dep: set[int] = set()
            for s in rec.block.sources:
                target = rec.node_map[s]
                if target in contributed:
                    dep.add(contributed[target])
            deps.append(dep)
            for v in rec.node_map.values():
                contributed.setdefault(v, k)
        return deps

    def priority_reordered(self) -> "CompositionChain":
        """A copy of this chain with blocks permuted (topology
        permitting) so the ▷-chain is more likely to hold.

        Greedy rule: among blocks whose dependencies are satisfied,
        pick one that has ▷-priority over *every* other remaining
        block; fall back to the first available when no such block
        exists.  Useful e.g. for mixed-degree out-trees, where
        ``V₃ ▷ V₂`` holds but ``V₂ ▷ V₃`` does not, so all ``V₃``
        blocks should precede all ``V₂`` blocks regardless of tree
        depth.  The underlying dag is shared, only the block order (and
        hence the certificate and the Theorem 2.1 order) changes.
        """
        # blocks share few distinct profiles: ▷ is decided once per
        # ordered pair of them, and "priority over every other
        # remaining block" is tested against the profiles remaining
        distinct: dict[tuple[int, ...], int] = {}
        kind = [
            distinct.setdefault(
                tuple(optimal_nonsink_profile(rec.block, rec.schedule)),
                len(distinct),
            )
            for rec in self.blocks
        ]
        profiles = list(distinct)
        beats: dict[tuple[int, int], bool] = {}

        def dominates(a: int, b: int) -> bool:
            if (a, b) not in beats:
                beats[a, b] = profiles_have_priority(profiles[a],
                                                     profiles[b])
            return beats[a, b]

        left = [kind.count(p) for p in range(len(profiles))]
        deps = self.block_dependencies()
        remaining = set(range(len(self.blocks)))
        placed: set[int] = set()
        order: list[int] = []
        while remaining:
            ready = sorted(
                k for k in remaining if deps[k] <= placed
            )
            live = [p for p, c in enumerate(left) if c]
            pick = next(
                (k for k in ready
                 if all(dominates(kind[k], p) for p in live
                        if p != kind[k] or left[p] > 1)),
                ready[0],
            )
            order.append(pick)
            placed.add(pick)
            remaining.discard(pick)
            left[kind[pick]] -= 1
        clone = object.__new__(CompositionChain)
        clone.name = self.name
        clone.dag = self.dag
        clone.blocks = [self.blocks[k] for k in order]
        return clone

    def type_string(self) -> str:
        """Human-readable composite type, e.g. ``V ⇑ V ⇑ Λ ⇑ Λ``."""
        return " ⇑ ".join(rec.block.name for rec in self.blocks)

    def __repr__(self) -> str:
        return (
            f"CompositionChain(name={self.name!r}, blocks={len(self.blocks)},"
            f" nodes={len(self.dag)})"
        )


def linear_composition_schedule(
    chain: CompositionChain,
    require_priority_chain: bool | str = True,
    name: str | None = None,
) -> Schedule:
    """The Theorem 2.1 schedule for a ▷-linear composition.

    For ``i = 1..k`` in turn, executes the composite images of the
    nonsinks of block ``Gi`` in the order of ``Gi``'s IC-optimal
    schedule; finally executes all sinks of the composite (in insertion
    order — Theorem 2.1 allows any order).

    ``require_priority_chain`` selects the certification level:

    * ``True`` / ``"linear"`` — verify ``Gi ▷ Gi+1`` along the whole
      chain (Theorem 2.1 as stated);
    * ``"segmented"`` — verify ▷-linearity within topological-cut
      segments (:meth:`CompositionChain.segmented_priority_linear`),
      which certifies the alternating Table 1 compositions;
    * ``False`` — build the order unchecked (it is still a *valid*
      schedule, just without an optimality certificate).

    Raises :class:`CompositionError` when the requested certification
    fails.
    """
    if require_priority_chain in (True, "linear"):
        if not chain.is_priority_linear():
            raise CompositionError(
                f"composition {chain.type_string()} is not ▷-linear; "
                "Theorem 2.1 does not apply (try "
                "require_priority_chain='segmented', or False to build "
                "the order anyway)"
            )
    elif require_priority_chain == "segmented":
        if not chain.segmented_priority_linear():
            raise CompositionError(
                f"composition {chain.type_string()} is not ▷-linear even "
                "within topological-cut segments"
            )
    elif require_priority_chain is not False:
        raise CompositionError(
            f"unknown certification level {require_priority_chain!r}"
        )
    order: list[Node] = []
    scheduled: set[Node] = set()
    for i, rec in enumerate(chain.blocks):
        if rec.schedule is None:
            raise CompositionError(
                f"block {i} ({rec.block.name!r}) has no schedule attached"
            )
        for v in rec.schedule.nonsink_order():
            mapped = rec.node_map[v]
            if mapped in scheduled:
                raise CompositionError(
                    f"node {mapped!r} is a nonsink of two blocks; "
                    "merge structure is not a composition in the paper's "
                    "sense"
                )
            scheduled.add(mapped)
            order.append(mapped)
    remaining = [v for v in chain.dag.nodes if v not in scheduled]
    for v in remaining:
        if not chain.dag.is_sink(v):
            raise CompositionError(
                f"node {v!r} was not covered by any block's nonsinks but "
                "is not a sink of the composite"
            )
    order.extend(remaining)
    return Schedule(
        chain.dag, order, name=name or f"thm2.1({chain.name})"
    )
