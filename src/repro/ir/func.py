"""Kernel functions and modules.

A :class:`Function` is a GPU kernel: parameters (global tensors and scalars),
a body, and launch configuration (grid and block dimensions).  An
:class:`IRModule` groups the functions an operator compiles to (usually one;
two for split-k matmul: partial-product kernel + reduce kernel).
"""
from __future__ import annotations

from typing import Optional, Sequence

from .expr import Var
from .stmt import Stmt
from .types import TensorType, MemoryScope

__all__ = ['Function', 'IRModule']


def _dim3(value) -> tuple[int, int, int]:
    """Normalize a launch dimension to a 3-tuple (x, y, z)."""
    if isinstance(value, int):
        return (value, 1, 1)
    value = tuple(int(v) for v in value)
    if len(value) > 3:
        raise ValueError(f'launch dims have at most 3 components, got {value}')
    return value + (1,) * (3 - len(value))


class Function:
    """A GPU kernel function.

    Parameters
    ----------
    name:
        Kernel name (also used in generated CUDA code).
    params:
        Parameter variables.  Tensor parameters must be in global scope.
    body:
        The kernel body statement.
    grid_dim, block_dim:
        Launch configuration; ints or up-to-3-tuples.
    attrs:
        Free-form attributes (e.g. ``{'schedule': MatmulSchedule(...)}``).
    """

    def __init__(self, name: str, params: Sequence[Var], body: Stmt,
                 grid_dim, block_dim, attrs: Optional[dict] = None):
        for p in params:
            if isinstance(p.type, TensorType) and p.type.scope != MemoryScope.GLOBAL:
                raise ValueError(f'kernel parameter {p.name!r} must live in global memory')
        self.name = name
        self.params = tuple(params)
        self.body = body
        self.grid_dim = _dim3(grid_dim)
        self.block_dim = _dim3(block_dim)
        self.attrs = dict(attrs or {})
        self._lowered: Optional[Function] = None

    def lowered(self) -> Function:
        """This kernel with task mappings lowered and simplified, built once.

        Passes never mutate a function, they return a new one, so the
        analyzer, codegen and the interpreter all share this one object.
        """
        if self._lowered is None:
            from .passes.lower_task_mapping import lower_task_mappings
            from .passes.simplify import simplify
            self._lowered = simplify(lower_task_mappings(self))
        return self._lowered

    @property
    def num_blocks(self) -> int:
        gx, gy, gz = self.grid_dim
        return gx * gy * gz

    @property
    def num_threads_per_block(self) -> int:
        bx, by, bz = self.block_dim
        return bx * by * bz

    def shared_memory_bytes(self) -> int:
        """Total bytes of shared memory declared in the body."""
        from .functor import collect
        from .stmt import DeclareStmt
        total = 0
        for node in collect(self.body, DeclareStmt):
            t = node.var.type
            if isinstance(t, TensorType) and t.scope == MemoryScope.SHARED:
                total += t.nbytes
        return total

    def __repr__(self) -> str:
        from .tools import func_repr
        return func_repr(self)


class IRModule:
    """An ordered collection of kernel functions forming one compiled unit."""

    def __init__(self, functions: Sequence[Function] | None = None, name: str = 'module'):
        self.name = name
        self.functions: list[Function] = list(functions or [])

    def add(self, func: Function) -> None:
        self.functions.append(func)

    def __iter__(self):
        return iter(self.functions)

    def __len__(self) -> int:
        return len(self.functions)

    def __getitem__(self, i: int) -> Function:
        return self.functions[i]

    def __repr__(self) -> str:
        return '\n\n'.join(repr(f) for f in self.functions)
