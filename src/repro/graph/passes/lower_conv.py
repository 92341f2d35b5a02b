"""Lower dense convolutions to implicit GEMM (paper §5.2, §6.3.4).

``Conv2d`` (groups == 1) becomes four operators::

    img2col -> matmul -> reshape -> transpose

img2col is injective (a prologue candidate); reshape/transpose are bijective
(epilogue candidates).  After the fusion partition, the whole pipeline
collapses into one matmul kernel — "implicit GEMM convolution" — reusing
every matmul optimization, including parallel-k reduction, for convolutions.
The weight's GEMM layout ``[C*KH*KW, OC]`` is constant-folded as the conv is
lowered (a deferred constant, see :mod:`.fold_constants`), so no second
folding pass has to rebuild the lowered graph.

Depthwise / grouped convolutions stay direct operators (rule-based schedule).
"""
from __future__ import annotations

from ..flow_graph import FlowGraph, trace
from ..operator import Operator
from ..tensor import Tensor
from ..ops.conv import Conv2dOp, Im2colOp
from ..ops.matmul import matmul
from ..ops.transforms import reshape, transpose
from .fold_constants import fold_constants
from .rewrite import rewrite_graph

__all__ = ['lower_conv_to_gemm']


def lower_conv_to_gemm(graph: FlowGraph) -> FlowGraph:
    def rule(op: Operator, inputs: list[Tensor]):
        if not isinstance(op, Conv2dOp) or op.attrs['groups'] != 1:
            return None
        x, weight = inputs
        n, c, h, w = x.shape
        oc, _, kh, kw = weight.shape
        _, _, oh, ow = op.output.shape
        stride, padding = op.attrs['stride'], op.attrs['padding']

        cols = Im2colOp(x, (kh, kw), stride, padding, (oh, ow)).output
        # weight [OC, C, KH, KW] -> [C*KH*KW, OC]; folded when constant
        w2 = transpose(reshape(weight, [oc, c * kh * kw]), [1, 0])
        (w2,) = fold_constants(trace(w2)).outputs
        mm = matmul(cols, w2)                       # [N*OH*OW, OC]
        out = transpose(reshape(mm, [n, oh, ow, oc]), [0, 3, 1, 2])
        return out

    return rewrite_graph(graph, rule)
