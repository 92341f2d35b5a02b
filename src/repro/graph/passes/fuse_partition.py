"""Partition a flow graph into fusible sub-graphs (paper §4.2, Figure 15 step 1).

Each group has one **anchor** operator; injective producers fuse in as
*prologues* and bijective consumers as *epilogues*.  The partition runs in
three phases:

1. **anchor formation** — every non-injective operator (matmul-class ops
   first) starts a group and absorbs its epilogue chain: consumers that are
   the unique reader of the chain tensor and bijective along that edge;
2. **prologue absorption with duplication** — each group absorbs injective
   producers reachable from its anchor inputs.  Unlike epilogues, prologues
   may be absorbed by *several* consumer groups (the computation is cheap to
   recompute inline; e.g. softmax's ``exp`` feeds both the sum-reduction and
   the division kernel);
3. **materialization** — an injective operator that is still read directly by
   someone (a graph output, or an epilogue side input) becomes the anchor of
   its own group, recursively absorbing its prologues.

Operators absorbed only as duplicated prologues produce no kernel at all —
their tensors vanish from the runtime graph, which is the point of fusion.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..flow_graph import FlowGraph
from ..operator import Operator
from ..tensor import Tensor

__all__ = ['FusedGroup', 'partition_graph']


@dataclass
class FusedGroup:
    anchor: Operator
    prologue_ops: list[Operator] = field(default_factory=list)
    epilogue_ops: list[Operator] = field(default_factory=list)   # chain order
    output: Tensor = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.output is None:
            self.output = self.anchor.output

    @property
    def members(self) -> list[Operator]:
        return self.prologue_ops + [self.anchor] + self.epilogue_ops

    def contains(self, op: Operator) -> bool:
        return any(m is op for m in self.members)

    def input_tensors(self) -> list[Tensor]:
        """Graph tensors the group reads materialized, in deterministic order.

        Prologue outputs are inlined and do not appear; epilogue side inputs
        and non-fused anchor inputs do.
        """
        members = self.members
        internal = {op.output._id for op in members}
        seen_ids: set[int] = set()
        seen: list[Tensor] = []
        for op in members:
            for t in op.inputs:
                if t._id not in internal and id(t) not in seen_ids:
                    seen_ids.add(id(t))
                    seen.append(t)
        return seen

    @property
    def name(self) -> str:
        if self.prologue_ops or self.epilogue_ops:
            parts = [op.name for op in self.members]
            return 'fused_' + '_'.join(parts[:4]) + ('_etc' if len(parts) > 4 else '')
        return self.anchor.name

    def __repr__(self) -> str:
        pro = [op.name for op in self.prologue_ops]
        epi = [op.name for op in self.epilogue_ops]
        return f'FusedGroup(anchor={self.anchor.name}, prologues={pro}, epilogues={epi})'


def partition_graph(graph: FlowGraph) -> list[FusedGroup]:
    """Group operators into fusible sub-graphs; returns groups in topo order."""
    placed: dict[int, FusedGroup] = {}   # anchor/epilogue ownership (exclusive)
    output_ids = {t._id for t in graph.outputs}
    topo_index = {id(op): i for i, op in enumerate(graph.nodes)}
    groups: list[FusedGroup] = []
    consumers_of = _consumer_index(graph)

    def absorb_epilogues(group: FusedGroup) -> None:
        current = group.anchor.output
        while current._id not in output_ids:
            consumers = consumers_of.get(id(current), ())
            if len(consumers) != 1:
                break
            consumer = consumers[0]
            if id(consumer) in placed or not consumer.is_injective:
                break
            positions = [i for i, t in enumerate(consumer.inputs) if t is current]
            if len(positions) != 1:
                break
            chain_input = consumer.task.inputs[positions[0]]
            if chain_input not in consumer.task.inverse_maps:
                break
            if any(t is not current and t.producer is not None
                   and group.contains(t.producer)
                   for t in consumer.inputs):
                break
            group.epilogue_ops.append(consumer)
            placed[id(consumer)] = group
            current = consumer.output
        group.output = current

    def absorb_prologues(group: FusedGroup) -> None:
        frontier = list(group.anchor.inputs)
        while frontier:
            tensor = frontier.pop()
            producer = tensor.producer
            if producer is None or id(producer) in placed:
                continue
            if group.contains(producer) or not producer.is_injective:
                continue
            group.prologue_ops.append(producer)     # duplication allowed
            frontier.extend(producer.inputs)

    # -- phase 1: non-injective anchors (+ epilogue chains) -----------------
    candidates = [op for op in graph.nodes if not op.is_injective]
    candidates.sort(key=lambda op: (-op.anchor_priority, topo_index[id(op)]))
    for op in candidates:
        if id(op) in placed:
            continue
        group = FusedGroup(anchor=op)
        placed[id(op)] = group
        absorb_epilogues(group)
        groups.append(group)

    # -- phase 2: prologue absorption with duplication ----------------------
    for group in groups:
        absorb_prologues(group)

    # -- phase 3: materialize injective ops someone still reads -------------
    materialized = set(output_ids)      # grows as groups are appended
    for g in groups:
        materialized.update(t._id for t in g.input_tensors())

    unplaced = [op for op in graph.nodes if id(op) not in placed]
    for op in sorted(unplaced, key=lambda o: -topo_index[id(o)]):   # reverse topo
        if id(op) in placed:
            continue
        if op.output._id not in materialized:
            continue
        group = FusedGroup(anchor=op)
        placed[id(op)] = group
        absorb_prologues(group)
        groups.append(group)
        materialized.update(t._id for t in group.input_tensors())

    return _topological_groups(groups, placed)


def _consumer_index(graph: FlowGraph) -> dict[int, list[Operator]]:
    """``id(tensor)`` → the operators reading it, each once, in node order."""
    index: dict[int, list[Operator]] = {}
    for op in graph.nodes:
        for tid in dict.fromkeys(map(id, op.inputs)):
            index.setdefault(tid, []).append(op)
    return index


def _topological_groups(groups: list[FusedGroup],
                        placed: dict[int, FusedGroup]) -> list[FusedGroup]:
    """Order groups so every group's materialized inputs come from earlier groups."""
    deps: dict[int, set[int]] = {}
    for g in groups:
        gdeps = set()
        for t in g.input_tensors():
            producer = t.producer
            if producer is None:
                continue
            producer_group = placed.get(id(producer))
            if producer_group is not None and producer_group is not g:
                gdeps.add(id(producer_group))
        deps[id(g)] = gdeps

    ordered: list[FusedGroup] = []
    emitted: set[int] = set()
    remaining = list(groups)
    while remaining:
        progress = False
        still = []
        for g in remaining:
            if deps[id(g)] <= emitted:
                ordered.append(g)
                emitted.add(id(g))
                progress = True
            else:
                still.append(g)
        remaining = still
        if not progress:
            raise RuntimeError('cycle detected between fused groups')
    return ordered
