"""Graph passes: constant folding, conv lowering, fusion partition."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import from_numpy, ops, symbol, trace
from repro.graph.ops.conv import Conv2dOp, Im2colOp
from repro.graph.ops.matmul import MatmulOp
from repro.graph.passes import (build_group_spec, fold_constants,
                                lower_conv_to_gemm, partition_graph)
from repro.graph.passes.fuse_partition import (FusedGroup, _consumer_index,
                                               _topological_groups)
from repro.models import MODEL_BUILDERS

RNG = np.random.default_rng(0)


def _conv_bn_relu_graph():
    x = symbol([1, 8, 10, 10], name='x')
    w = from_numpy(RNG.standard_normal((16, 8, 3, 3)).astype(np.float32) * 0.1)
    scale = from_numpy(RNG.standard_normal((16, 1, 1)).astype(np.float32))
    shift = from_numpy(RNG.standard_normal((16, 1, 1)).astype(np.float32))
    y = ops.relu(ops.batch_norm(ops.conv2d(x, w, padding=1), scale, shift))
    return trace(y, name='cbr'), x


class TestFoldConstants:
    def test_constant_subtree_evaluated(self):
        a = from_numpy(np.ones((4,), dtype=np.float32))
        b = from_numpy(np.full((4,), 2.0, dtype=np.float32))
        x = symbol([4])
        y = ops.add(x, ops.mul(a, b))
        folded = fold_constants(trace(y))
        assert folded.num_operators == 1          # only the add survives
        got = folded.run(np.zeros(4, dtype=np.float32))[0]
        np.testing.assert_allclose(got, 2.0)

    def test_noop_when_nothing_constant(self):
        x = symbol([4])
        g = trace(ops.relu(x))
        assert fold_constants(g).num_operators == g.num_operators


class TestLowerConv:
    def test_decomposition_structure(self):
        g, _ = _conv_bn_relu_graph()
        lowered = lower_conv_to_gemm(g)
        kinds = [type(op).__name__ for op in lowered.nodes]
        assert 'Conv2dOp' not in kinds
        assert 'Im2colOp' in kinds and 'MatmulOp' in kinds

    def test_functional_equivalence(self):
        g, _ = _conv_bn_relu_graph()
        lowered = fold_constants(lower_conv_to_gemm(g))
        x = RNG.standard_normal((1, 8, 10, 10)).astype(np.float32)
        np.testing.assert_allclose(lowered.run(x)[0], g.run(x)[0],
                                   rtol=1e-4, atol=1e-4)

    def test_depthwise_not_lowered(self):
        x = symbol([1, 8, 10, 10])
        w = from_numpy(np.zeros((8, 1, 3, 3), dtype=np.float32))
        g = trace(ops.conv2d(x, w, padding=1, groups=8))
        lowered = lower_conv_to_gemm(g)
        assert any(isinstance(op, Conv2dOp) for op in lowered.nodes)


class TestPartition:
    def test_conv_bn_relu_collapses_to_one_group(self):
        g, _ = _conv_bn_relu_graph()
        lowered = fold_constants(lower_conv_to_gemm(g))
        groups = partition_graph(lowered)
        assert len(groups) == 1
        (group,) = groups
        assert isinstance(group.anchor, MatmulOp)
        assert any(isinstance(p, Im2colOp) for p in group.prologue_ops)
        # epilogues: reshape, transpose, bn mul, bn add, relu
        assert len(group.epilogue_ops) == 5
        assert group.output.shape == (1, 16, 10, 10)

    def test_every_op_placed_or_duplicated_prologue(self):
        g, _ = _conv_bn_relu_graph()
        lowered = fold_constants(lower_conv_to_gemm(g))
        groups = partition_graph(lowered)
        placed = set()
        for grp in groups:
            placed.update(id(op) for op in grp.members)
        assert all(id(op) in placed for op in lowered.nodes)

    def test_duplication_of_multi_consumer_injective(self):
        """softmax: exp feeds both sum and div; it fuses into both (§4.2)."""
        x = symbol([4, 64])
        g = trace(ops.softmax(x))
        groups = partition_graph(g)
        exp_hosts = [grp for grp in groups
                     if any(op.name == 'exp' for op in grp.prologue_ops)]
        assert len(exp_hosts) == 2
        # exp produces no kernel of its own
        assert not any(grp.anchor.name == 'exp' for grp in groups)

    def test_group_output_respects_graph_outputs(self):
        x = symbol([8])
        mid = ops.relu(x)
        out = ops.exp(mid)
        g = trace([mid, out])            # mid is itself a graph output
        groups = partition_graph(g)
        outputs = {grp.output._id for grp in groups}
        assert mid._id in outputs and out._id in outputs

    def test_reduce_takes_injective_prologue(self):
        x = symbol([4, 128])
        g = trace(ops.reduce_sum(ops.exp(x)))
        groups = partition_graph(g)
        assert len(groups) == 1
        assert groups[0].prologue_ops[0].name == 'exp'

    def test_topological_group_order(self):
        g, _ = _conv_bn_relu_graph()
        y = g.outputs[0]
        lowered = fold_constants(lower_conv_to_gemm(g))
        groups = partition_graph(lowered)
        produced = set()
        for grp in groups:
            for t in grp.input_tensors():
                if t.producer is not None:
                    assert t._id in produced or not any(
                        grp2.contains(t.producer) for grp2 in groups)
            produced.add(grp.output._id)


class TestGroupSpec:
    def test_spec_binding_covers_all_outer_inputs(self):
        g, _ = _conv_bn_relu_graph()
        lowered = fold_constants(lower_conv_to_gemm(g))
        (group,) = partition_graph(lowered)
        spec = build_group_spec(group)
        for ti in spec.spec.outer_inputs():
            assert ti in spec.tensor_of
            assert spec.tensor_of[ti].shape == ti.shape

    def test_spec_names_unique(self):
        g, _ = _conv_bn_relu_graph()
        lowered = fold_constants(lower_conv_to_gemm(g))
        (group,) = partition_graph(lowered)
        spec = build_group_spec(group)
        names = [ti.name for ti in spec.spec.outer_inputs()]
        assert len(names) == len(set(names))


# -- partition oracle -----------------------------------------------------------

def _reference_consumers(graph, tensor):
    return [op for op in graph.nodes if any(t is tensor for t in op.inputs)]


def _reference_input_tensors(group):
    internal = {op.output._id for op in group.members}
    seen = []
    for op in group.members:
        for t in op.inputs:
            if t._id not in internal and all(t is not s for s in seen):
                seen.append(t)
    return seen


def _reference_partition(graph):
    """The quadratic partition that a consumer index replaced, kept verbatim
    as the oracle: a full node scan per epilogue step and a rebuild of every
    group's inputs per unplaced operator."""
    placed = {}
    output_ids = {t._id for t in graph.outputs}
    topo_index = {id(op): i for i, op in enumerate(graph.nodes)}
    groups = []

    def absorb_epilogues(group):
        current = group.anchor.output
        while current._id not in output_ids:
            consumers = _reference_consumers(graph, current)
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

    def absorb_prologues(group):
        frontier = list(group.anchor.inputs)
        while frontier:
            tensor = frontier.pop()
            producer = tensor.producer
            if producer is None or id(producer) in placed:
                continue
            if group.contains(producer) or not producer.is_injective:
                continue
            group.prologue_ops.append(producer)
            frontier.extend(producer.inputs)

    candidates = [op for op in graph.nodes if not op.is_injective]
    candidates.sort(key=lambda op: (-op.anchor_priority, topo_index[id(op)]))
    for op in candidates:
        if id(op) in placed:
            continue
        group = FusedGroup(anchor=op)
        placed[id(op)] = group
        absorb_epilogues(group)
        groups.append(group)

    for group in groups:
        absorb_prologues(group)

    def materialized_ids():
        needed = set(output_ids)
        for g in groups:
            needed.update(t._id for t in _reference_input_tensors(g))
        return needed

    unplaced = [op for op in graph.nodes if id(op) not in placed]
    for op in sorted(unplaced, key=lambda o: -topo_index[id(o)]):
        if id(op) in placed:
            continue
        if op.output._id not in materialized_ids():
            continue
        group = FusedGroup(anchor=op)
        placed[id(op)] = group
        absorb_prologues(group)
        groups.append(group)

    return _topological_groups(groups, placed)


def _assert_same_partition(graph):
    got, want = partition_graph(graph), _reference_partition(graph)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.anchor is w.anchor
        assert [id(op) for op in g.prologue_ops] == [id(op) for op in w.prologue_ops]
        assert [id(op) for op in g.epilogue_ops] == [id(op) for op in w.epilogue_ops]
        assert g.output is w.output
        assert ([id(t) for t in g.input_tensors()]
                == [id(t) for t in _reference_input_tensors(w)])


#: the zoo's CNNs at paper shape; the transformers at two of their identical
#: layers, which keeps every fusion pattern and skips most weight generation
_ZOO_KWARGS = {'bert': {'layers': 2}, 'gpt2': {'layers': 2}}


class TestPartitionOracle:
    @pytest.mark.parametrize('name', sorted(MODEL_BUILDERS))
    def test_zoo_graph_matches_reference(self, name):
        graph = MODEL_BUILDERS[name](**_ZOO_KWARGS.get(name, {}))
        _assert_same_partition(
            fold_constants(lower_conv_to_gemm(fold_constants(graph))))

    @given(st.lists(st.tuples(st.sampled_from(
        ['relu', 'exp', 'transpose', 'add', 'mul', 'matmul', 'reduce',
         'softmax']), st.integers(0, 1 << 16), st.integers(0, 1 << 16)),
        min_size=1, max_size=14),
        st.lists(st.integers(0, 1 << 16), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_random_dag_matches_reference(self, steps, extra_outputs):
        square = [symbol([8, 8], name='x'), symbol([8, 8], name='y')]
        column = [symbol([8, 1], name='c')]
        for kind, i, j in steps:
            a, b = square[i % len(square)], square[j % len(square)]
            if kind in ('relu', 'exp'):
                pool = square if i % 2 else column
                pool.append(getattr(ops, kind)(pool[j % len(pool)]))
            elif kind == 'transpose':
                square.append(ops.transpose(a, [1, 0]))
            elif kind in ('add', 'mul'):
                rhs = b if j % 3 else column[j % len(column)]
                square.append(getattr(ops, kind)(a, rhs))
            elif kind == 'matmul':
                square.append(ops.matmul(a, b))
            elif kind == 'reduce':
                column.append(ops.reduce_sum(a))
            else:
                square.append(ops.softmax(a))
        produced = [t for t in square + column if t.producer is not None]
        outputs = [produced[-1]]
        for k in extra_outputs:
            t = produced[k % len(produced)]
            if all(t is not o for o in outputs):
                outputs.append(t)
        _assert_same_partition(trace(outputs))

    def test_op_reading_one_tensor_twice_is_one_consumer(self):
        x = symbol([8, 8])
        r = ops.relu(x)
        sq = ops.mul(r, r)
        m = ops.matmul(sq, sq)
        g = trace(ops.add(m, r))
        index = _consumer_index(g)
        assert [op.name for op in index[id(r)]] == ['mul', 'add']
        assert index[id(sq)] == [m.producer]
        assert index[id(x)] == [r.producer]
        _assert_same_partition(g)
