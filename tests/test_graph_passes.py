"""Graph passes: constant folding, conv lowering, fusion partition."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.serving import DECODE_SMOKE_CONFIG, SMOKE_MODELS
from repro.graph import from_numpy, ops, symbol, trace
from repro.graph.ops.conv import Conv2dOp, Im2colOp
from repro.graph.ops.matmul import MatmulOp
from repro.graph.passes import (build_group_spec, fold_constants,
                                lower_conv_to_gemm, partition_graph)
from repro.graph.passes.fuse_partition import (FusedGroup, _consumer_index,
                                               _topological_groups)
from repro.graph.passes.rewrite import rewrite_graph
from repro.graph.tensor import Tensor
from repro.ir.compute import ReduceCompute, TensorNode
from repro.ir.expr import BinaryExpr, Constant, TensorElement, Var
from repro.ir.functor import IRVisitor, collect, find_first
from repro.ir.stmt import BufferStoreStmt, ForStmt
from repro.models import MODEL_BUILDERS
from repro.runtime import HidetExecutor, ScheduleCache
from repro.serve.memory import graph_tensor_bytes

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


# -- deferred constant folding ---------------------------------------------------

def _eager_fold(graph):
    """Constant folding as it was before folded values were deferred, kept
    verbatim as the oracle: every fold runs its numpy reference at once."""
    def rule(op, inputs):
        if all(t.is_constant for t in inputs):
            value = op.run_numpy(*[t.numpy() for t in inputs])
            return Tensor(op.output.shape, op.output.dtype, data=value,
                          name=f'{op.output.name}_folded')
        return None

    return rewrite_graph(graph, rule)


def _eager_lower_conv(graph):
    """Conv lowering as it was before it folded the weight layout itself,
    kept as the oracle: the weight's reshape/transpose stay operators for a
    second folding pass."""
    def rule(op, inputs):
        if not isinstance(op, Conv2dOp) or op.attrs['groups'] != 1:
            return None
        x, weight = inputs
        n, c, h, w = x.shape
        oc, _, kh, kw = weight.shape
        _, _, oh, ow = op.output.shape
        stride, padding = op.attrs['stride'], op.attrs['padding']

        cols = Im2colOp(x, (kh, kw), stride, padding, (oh, ow)).output
        w2 = ops.transpose(ops.reshape(weight, [oc, c * kh * kw]), [1, 0])
        mm = ops.matmul(cols, w2)
        return ops.transpose(ops.reshape(mm, [n, oh, ow, oc]), [0, 3, 1, 2])

    return rewrite_graph(graph, rule)


def _executor_passes(graph):
    """The graph passes ``HidetExecutor.compile`` runs before partitioning."""
    return lower_conv_to_gemm(fold_constants(graph))


def _eager_passes(graph):
    """The executor's graph passes as they were, every fold evaluated."""
    return _eager_fold(_eager_lower_conv(_eager_fold(graph)))


def _structure(graph):
    """Graph structure with constants numbered in first-use order:
    ``(rows, outputs, constants)``, one row per operator."""
    keys = {id(t): ('input', i) for i, t in enumerate(graph.inputs)}
    constants = []

    def key(t):
        if id(t) not in keys:
            assert t.is_constant and not t.is_symbolic
            keys[id(t)] = ('const', len(constants))
            constants.append(t)
        return keys[id(t)] + (t.shape, t.dtype.name, t.name)

    rows = []
    for n, op in enumerate(graph.nodes):
        inputs = [key(t) for t in op.inputs]
        keys[id(op.output)] = ('op', n)
        rows.append((type(op).__name__, repr(sorted(op.attrs.items())), inputs,
                     op.output.shape, op.output.dtype.name))
    outputs = [key(t) for t in graph.outputs]
    return rows, outputs, constants


#: the transformers at their smoke shapes; the CNNs at paper shape
_SMOKE_KWARGS = {'bert': dict(SMOKE_MODELS['bert']),
                 'gpt2': dict(DECODE_SMOKE_CONFIG)}


@pytest.fixture(scope='module', params=sorted(MODEL_BUILDERS))
def zoo_graph(request):
    name = request.param
    return MODEL_BUILDERS[name](**_SMOKE_KWARGS.get(name, {}))


class _FoldCounter:
    """Counts deferred-constant evaluations while installed."""

    def __init__(self):
        self.names = []
        self._original = Tensor._materialize

    def __enter__(self):
        original = self._original

        def counting(tensor, fold):
            self.names.append(tensor.name)
            original(tensor, fold)

        Tensor._materialize = counting
        return self

    def __exit__(self, *exc):
        Tensor._materialize = self._original


@pytest.fixture(scope='module')
def zoo_compiled(zoo_graph):
    """``(compiled, evaluations)``: the executor's IR-building, analyzer-gated
    compile of a zoo graph, and the constants it evaluated on the way."""
    with _FoldCounter() as counter:
        compiled = HidetExecutor(cache=ScheduleCache(), build_ir=True,
                                 check_ir=True).compile(zoo_graph)
    return compiled, counter.names


class TestDeferredFold:
    def test_zoo_lazy_fold_matches_eager(self, zoo_graph):
        with _FoldCounter() as counter:
            lazy = _executor_passes(zoo_graph)
            lazy_bytes = graph_tensor_bytes(lazy)
            rows, outputs, constants = _structure(lazy)
        assert counter.names == []
        eager = _eager_passes(zoo_graph)
        want_rows, want_outputs, want_constants = _structure(eager)
        assert rows == want_rows and outputs == want_outputs
        assert [id(t) for t in lazy.inputs] == [id(t) for t in eager.inputs]
        assert lazy_bytes == graph_tensor_bytes(eager)
        assert len(constants) == len(want_constants)
        for got, want in zip(constants, want_constants):
            a, b = got.numpy(), want.numpy()
            assert np.array_equal(a, b), got.name
            assert a.dtype == b.dtype
            assert a.flags.c_contiguous == b.flags.c_contiguous

    def test_value_evaluated_once_then_inputs_released(self):
        import gc
        import weakref
        a = from_numpy(np.arange(4, dtype=np.float32))
        b = from_numpy(np.full((4,), 3.0, dtype=np.float32))
        x = symbol([4])
        graph = fold_constants(trace(ops.add(x, ops.mul(a, b))))
        (folded,) = [t for t in graph.nodes[0].inputs if t.is_constant]
        assert folded.is_constant and not folded.is_symbolic
        assert 'const' in repr(folded)
        refs = [weakref.ref(a), weakref.ref(b)]
        del a, b
        with _FoldCounter() as counter:
            first, second = folded.numpy(), folded.numpy()
        assert counter.names == [folded.name]
        assert first is second is folded.data
        np.testing.assert_array_equal(first, np.arange(4) * 3.0)
        gc.collect()
        assert [r() for r in refs] == [None, None]

    def test_compiled_run_bit_equal_to_eager(self, monkeypatch):
        import repro.runtime.executor as executor_module
        from repro.graph.onnx_io import graph_to_dict
        g, _ = _conv_bn_relu_graph()
        x = RNG.standard_normal((1, 8, 10, 10)).astype(np.float32)
        lazy = HidetExecutor(cache=ScheduleCache()).compile(g)
        monkeypatch.setattr(executor_module, 'fold_constants', _eager_fold)
        monkeypatch.setattr(executor_module, 'lower_conv_to_gemm',
                            lambda graph: _eager_fold(_eager_lower_conv(graph)))
        eager = HidetExecutor(cache=ScheduleCache()).compile(g)
        for got, want in zip(lazy.run(x) + lazy.graph.run(x),
                             eager.run(x) + eager.graph.run(x)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert graph_to_dict(lazy.graph) == graph_to_dict(eager.graph)

    def test_failed_fold_names_tensor_and_operator(self):
        a = from_numpy(np.ones((4,), dtype=np.float32))
        b = from_numpy(np.ones((4,), dtype=np.float32))
        bad = ops.mul(a, b)

        def broken(*args):
            raise FloatingPointError('reference exploded')

        bad.producer.run_numpy = broken
        x = symbol([4])
        graph = fold_constants(trace(ops.add(x, ops.exp(bad))))
        (folded,) = [t for t in graph.nodes[0].inputs if t.is_constant]
        compiled = HidetExecutor(cache=ScheduleCache()).compile(graph)
        for attempt in range(2):               # the failure does not stick
            with pytest.raises(RuntimeError) as info:
                compiled.run(np.zeros(4, dtype=np.float32))
            message = str(info.value)
            assert repr(f'{bad.name}_folded') in message
            assert repr(bad.producer.name) in message
            assert type(bad.producer).__name__ in message
            assert 'reference exploded' in message
            assert isinstance(info.value.__cause__, FloatingPointError)
        assert folded.is_constant                # outer fold never ran

    def test_fold_with_wrong_shape_is_named(self):
        a = from_numpy(np.ones((4,), dtype=np.float32))
        bad = ops.relu(a)
        bad.producer.run_numpy = lambda v: np.ones((5,), dtype=np.float32)
        (folded,) = fold_constants(trace(bad)).outputs
        with pytest.raises(RuntimeError, match=r"relu.*data shape \(5,\)"):
            folded.numpy()


class TestCompileMaterializesNothing:
    def test_zoo_compile(self, zoo_compiled):
        compiled, evaluations = zoo_compiled
        assert evaluations == []
        with _FoldCounter() as counter:
            graph_tensor_bytes(compiled.graph)
        assert counter.names == []

    def test_registry_warm_registration(self, tmp_path):
        from repro.models import for_batch
        from repro.serve import ModelRegistry
        from repro.serve.memory import MemoryModel
        path = str(tmp_path / 'schedules.json')

        def build(batch):
            return for_batch('resnet50', batch, image_size=32)

        with _FoldCounter() as counter:
            ModelRegistry(cache_path=path).register('resnet50', build,
                                                    max_batch=1)
            warm = ModelRegistry(cache_path=path, memory=MemoryModel(1 << 40))
            model = warm.register('resnet50', build, max_batch=1)
        assert model.compile_seconds == 0.0
        assert model.footprint.weights_bytes > 0
        assert counter.names == []


# -- compute-node classification --------------------------------------------------

def _reference_collect(node, node_types):
    """``collect`` as it was, with a fresh visitor class per call."""
    found = []

    class Collector(IRVisitor):
        def visit(self, n):
            if isinstance(n, node_types):
                found.append(n)
            return super().visit(n)

    Collector().visit(node)
    return found


_COLLECT_TYPES = (ReduceCompute, TensorElement, Var, Constant,
                  (TensorNode, Constant), (BinaryExpr, ForStmt, BufferStoreStmt))


def _assert_collect_matches_reference(node):
    for types in _COLLECT_TYPES:
        want = _reference_collect(node, types)
        got = collect(node, types)
        assert [id(n) for n in got] == [id(n) for n in want]
        first = find_first(node, types)
        assert first is (want[0] if want else None)


class TestComputeClassification:
    def test_is_injective_memo_equals_fresh_walk(self, zoo_graph):
        ops_ = list(zoo_graph.nodes) + list(_executor_passes(zoo_graph).nodes)
        for op in ops_:
            definition = op.task.output
            fresh = not _reference_collect(definition.value, ReduceCompute)
            assert op.is_injective is fresh
            assert definition._injective is fresh
            assert definition.is_injective is fresh

    def test_is_injective_walks_once(self, monkeypatch):
        import repro.ir.compute as compute_module
        x = symbol([4, 8])
        definition = ops.reduce_sum(ops.exp(x)).producer.task.output
        walks = []
        original = compute_module.find_first

        def counting(node, types):
            walks.append(types)
            return original(node, types)

        monkeypatch.setattr(compute_module, 'find_first', counting)
        assert [definition.is_injective for _ in range(3)] == [False] * 3
        assert walks == [ReduceCompute]

    def test_collect_over_compute_definitions(self, zoo_graph):
        for op in zoo_graph.nodes:
            _assert_collect_matches_reference(op.task.output.value)

    def test_collect_over_lowered_kernels(self, zoo_compiled):
        compiled, _ = zoo_compiled
        modules = {id(op.module): op.module for op in compiled.ops
                   if op.module is not None}
        functions = [f for m in modules.values() for f in m]
        assert functions
        for function in functions:
            _assert_collect_matches_reference(function.lowered().body)
