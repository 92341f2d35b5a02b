"""Mathematical computation definitions (the input to scheduling).

Like TVM's tensor expressions, a computation definition says *what* each
output element is, with no commitment to loops, threads, or memory — that is
the scheduler's job (rule-based or template-based, paper §5.1.3).

Nodes:

* :class:`TensorInput` — a placeholder input tensor;
* :class:`GridCompute` — ``out[i0, ..., im] = value(i0, ..., im)``;
* :class:`ReduceCompute` — a *scalar* reduction expression usable inside a
  :class:`GridCompute` value, e.g. matmul's ``sum over k``.

Tensor nodes are expressions, so definitions compose naturally::

    a = tensor_input('A', 'float32', [m, k])
    b = tensor_input('B', 'float32', [k, n])
    c = compute('C', [m, n], lambda i, j: reduce([k], lambda kk: a[i, kk] * b[kk, j]))
"""
from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from .expr import Expr, Var, convert, var as make_var
from .functor import find_first
from .types import DataType, data_type

__all__ = ['TensorNode', 'TensorInput', 'GridCompute', 'ReduceCompute',
           'tensor_input', 'compute', 'reduce']


class TensorNode(Expr):
    """Base of tensor-valued computation nodes (usable as ``node[indices]``)."""

    __slots__ = ('name', 'dtype', 'shape')

    def __init__(self, name: str, dtype: DataType | str, shape: Sequence[int]):
        self.name = name
        self.dtype = data_type(dtype)
        self.shape = tuple(int(s) for s in shape)

    @property
    def num_elements(self) -> int:
        return math.prod(self.shape) if self.shape else 1

    @property
    def rank(self) -> int:
        return len(self.shape)


class TensorInput(TensorNode):
    """An input tensor placeholder."""

    __slots__ = ()


class GridCompute(TensorNode):
    """``out[axes] = value`` over a rectangular grid of axes."""

    __slots__ = ('axes', 'value', '_injective')

    def __init__(self, name: str, shape: Sequence[int], axes: Sequence[Var], value: Expr):
        super().__init__(name, _infer_dtype(value), shape)
        if len(axes) != len(self.shape):
            raise ValueError('one axis variable per output dimension is required')
        self.axes = tuple(axes)
        self.value = value
        self._injective: Optional[bool] = None

    @property
    def is_injective(self) -> bool:
        """No reduction inside: every output element is a pure function of inputs.

        Walked once per node on first use; nodes are never mutated.
        """
        if self._injective is None:
            self._injective = find_first(self.value, ReduceCompute) is None
        return self._injective


class ReduceCompute(Expr):
    """Scalar reduction ``op_{axes in extents} value`` (used inside GridCompute)."""

    __slots__ = ('axes', 'extents', 'value', 'op')

    OPS = ('sum', 'max', 'min', 'avg')

    def __init__(self, axes: Sequence[Var], extents: Sequence[int], value: Expr, op: str):
        if op not in ReduceCompute.OPS:
            raise ValueError(f'unknown reduction op {op!r}')
        if len(axes) != len(extents):
            raise ValueError('one axis variable per reduction extent is required')
        self.axes = tuple(axes)
        self.extents = tuple(int(e) for e in extents)
        self.value = value
        self.op = op

    @property
    def num_iterations(self) -> int:
        return math.prod(self.extents)

    @property
    def init_value(self) -> float:
        return {'sum': 0.0, 'avg': 0.0, 'max': -math.inf, 'min': math.inf}[self.op]

    def combine(self, a: Expr, b: Expr) -> Expr:
        from .expr import BinaryExpr
        if self.op in ('sum', 'avg'):
            return a + b
        return BinaryExpr(self.op, a, b)


def _infer_dtype(value: Expr) -> DataType:
    """Result dtype of a computation value (first tensor leaf wins; default f32)."""
    from .expr import Constant
    node = find_first(value, TensorNode)
    if node is None:
        node = find_first(value, Constant)
    return data_type('float32') if node is None else node.dtype


def tensor_input(name: str, dtype: DataType | str, shape: Sequence[int]) -> TensorInput:
    return TensorInput(name, dtype, shape)


def compute(name: str, shape: Sequence[int],
            fcompute: Callable[..., Expr]) -> GridCompute:
    """Define ``out[i...] = fcompute(i...)`` over the given shape."""
    axes = tuple(make_var(f'i{k}', 'int32') for k in range(len(shape)))
    value = convert(fcompute(*axes))
    return GridCompute(name, shape, axes, value)


def reduce(extents: Sequence[int], fcompute: Callable[..., Expr],
           op: str = 'sum') -> ReduceCompute:
    """Define a scalar reduction over ``extents`` with the given combiner."""
    axes = tuple(make_var(f'k{k}', 'int32') for k in range(len(extents)))
    value = convert(fcompute(*axes))
    return ReduceCompute(axes, extents, value, op)
