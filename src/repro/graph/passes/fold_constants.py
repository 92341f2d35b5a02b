"""Constant folding (paper Figure 10 step 2: graph-level optimizations).

Operators whose inputs are all constants are replaced by a constant tensor;
the batch-norm scale/shift arithmetic and reshaped convolution weights
disappear from the runtime graph this way.  The folded value is deferred:
the constant keeps the operator and its inputs and runs the numpy reference
on the first read of its data (see :class:`~repro.graph.tensor.Tensor`), so
compiling a graph, which reads shapes and dtypes only, never evaluates it.
"""
from __future__ import annotations

from ..flow_graph import FlowGraph
from ..operator import Operator
from ..tensor import Tensor
from .rewrite import rewrite_graph

__all__ = ['fold_constants']


def fold_constants(graph: FlowGraph) -> FlowGraph:
    def rule(op: Operator, inputs: list[Tensor]):
        if all(t.is_constant for t in inputs):
            return Tensor(op.output.shape, op.output.dtype, fold=(op, inputs),
                          name=f'{op.output.name}_folded')
        return None

    return rewrite_graph(graph, rule)
