"""Visitor and rewriter infrastructure over the IR.

:class:`IRVisitor` walks expressions and statements; :class:`IRRewriter`
reconstructs the tree bottom-up, sharing unchanged sub-trees.  Both dispatch
on node class via a memoized method table, so adding a node type only
requires adding one ``visit_X`` method.
"""
from __future__ import annotations

from typing import Callable, Type

from .expr import (Expr, Var, Constant, BinaryExpr, UnaryExpr, Cast, TensorElement,
                   IfThenElse, Call, ThreadIndex, BlockIndex)
from .stmt import (Stmt, DeclareStmt, BufferStoreStmt, AssignStmt, LetStmt, ForStmt,
                   ForTaskStmt, IfStmt, SeqStmt, BarrierStmt, EvaluateStmt)

__all__ = ['IRVisitor', 'IRRewriter', 'collect', 'find_first']


class NodeFunctor:
    """Dispatch ``visit(node)`` to ``visit_<ClassName>``.

    The method table is memoized per functor class, so every instance of a
    class shares it.
    """

    _methods: dict[type, Callable] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._methods = {}

    def visit(self, node):
        method = self._methods.get(type(node))
        if method is None:
            name = 'visit_' + type(node).__name__
            method = getattr(type(self), name, None)
            if method is None:
                raise NotImplementedError(
                    f'{type(self).__name__} has no handler for {type(node).__name__}'
                )
            self._methods[type(node)] = method
        return method(self, node)

    def __call__(self, node):
        return self.visit(node)


class IRVisitor(NodeFunctor):
    """Read-only traversal; override the handlers you care about.

    Computation-definition nodes (:mod:`repro.ir.compute`) are handled too:
    tensor nodes are treated as leaves (their defining ``value`` belongs to
    the producing operator, not to the consuming expression), while scalar
    ``ReduceCompute`` expressions are traversed.
    """

    # ---- computation definitions ----
    def visit_TensorInput(self, e):
        pass

    def visit_GridCompute(self, e):
        pass

    def visit_ReduceCompute(self, e):
        self.visit(e.value)

    # ---- expressions ----
    def visit_Var(self, e: Var):
        pass

    def visit_Constant(self, e: Constant):
        pass

    def visit_ThreadIndex(self, e: ThreadIndex):
        pass

    def visit_BlockIndex(self, e: BlockIndex):
        pass

    def visit_BinaryExpr(self, e: BinaryExpr):
        self.visit(e.a)
        self.visit(e.b)

    def visit_UnaryExpr(self, e: UnaryExpr):
        self.visit(e.a)

    def visit_Cast(self, e: Cast):
        self.visit(e.expr)

    def visit_TensorElement(self, e: TensorElement):
        self.visit(e.base)
        for i in e.indices:
            self.visit(i)

    def visit_IfThenElse(self, e: IfThenElse):
        self.visit(e.cond)
        self.visit(e.then_expr)
        self.visit(e.else_expr)

    def visit_Call(self, e: Call):
        for a in e.args:
            self.visit(a)

    # ---- statements ----
    def visit_DeclareStmt(self, s: DeclareStmt):
        self.visit(s.var)
        if s.init is not None:
            self.visit(s.init)

    def visit_BufferStoreStmt(self, s: BufferStoreStmt):
        self.visit(s.buf)
        for i in s.indices:
            self.visit(i)
        self.visit(s.value)

    def visit_AssignStmt(self, s: AssignStmt):
        self.visit(s.var)
        self.visit(s.value)

    def visit_LetStmt(self, s: LetStmt):
        self.visit(s.var)
        self.visit(s.value)
        self.visit(s.body)

    def visit_ForStmt(self, s: ForStmt):
        self.visit(s.loop_var)
        self.visit(s.extent)
        self.visit(s.body)

    def visit_ForTaskStmt(self, s: ForTaskStmt):
        for v in s.loop_vars:
            self.visit(v)
        self.visit(s.worker)
        self.visit(s.body)

    def visit_IfStmt(self, s: IfStmt):
        self.visit(s.cond)
        self.visit(s.then_body)
        if s.else_body is not None:
            self.visit(s.else_body)

    def visit_SeqStmt(self, s: SeqStmt):
        for st in s.stmts:
            self.visit(st)

    def visit_BarrierStmt(self, s: BarrierStmt):
        pass

    def visit_EvaluateStmt(self, s: EvaluateStmt):
        self.visit(s.expr)


class IRRewriter(NodeFunctor):
    """Bottom-up reconstruction; unchanged sub-trees are returned as-is."""

    # ---- computation definitions ----
    def visit_TensorInput(self, e):
        return e

    def visit_GridCompute(self, e):
        return e

    def visit_ReduceCompute(self, e):
        from .compute import ReduceCompute
        value = self.visit(e.value)
        if value is e.value:
            return e
        return ReduceCompute(e.axes, e.extents, value, e.op)

    # ---- expressions ----
    def visit_Var(self, e: Var):
        return e

    def visit_Constant(self, e: Constant):
        return e

    def visit_ThreadIndex(self, e: ThreadIndex):
        return e

    def visit_BlockIndex(self, e: BlockIndex):
        return e

    def visit_BinaryExpr(self, e: BinaryExpr):
        a, b = self.visit(e.a), self.visit(e.b)
        if a is e.a and b is e.b:
            return e
        return BinaryExpr(e.op, a, b)

    def visit_UnaryExpr(self, e: UnaryExpr):
        a = self.visit(e.a)
        return e if a is e.a else UnaryExpr(e.op, a)

    def visit_Cast(self, e: Cast):
        inner = self.visit(e.expr)
        return e if inner is e.expr else Cast(inner, e.dtype)

    def visit_TensorElement(self, e: TensorElement):
        base = self.visit(e.base)
        indices = tuple(self.visit(i) for i in e.indices)
        if base is e.base and all(x is y for x, y in zip(indices, e.indices)):
            return e
        return TensorElement(base, indices)

    def visit_IfThenElse(self, e: IfThenElse):
        c, t, f = self.visit(e.cond), self.visit(e.then_expr), self.visit(e.else_expr)
        if c is e.cond and t is e.then_expr and f is e.else_expr:
            return e
        return IfThenElse(c, t, f)

    def visit_Call(self, e: Call):
        args = tuple(self.visit(a) for a in e.args)
        if all(x is y for x, y in zip(args, e.args)):
            return e
        return Call(e.func_name, args)

    # ---- statements ----
    def visit_DeclareStmt(self, s: DeclareStmt):
        var = self.visit(s.var)
        init = self.visit(s.init) if s.init is not None else None
        if var is s.var and init is s.init:
            return s
        return DeclareStmt(var, init)

    def visit_BufferStoreStmt(self, s: BufferStoreStmt):
        buf = self.visit(s.buf)
        indices = tuple(self.visit(i) for i in s.indices)
        value = self.visit(s.value)
        if buf is s.buf and value is s.value and all(x is y for x, y in zip(indices, s.indices)):
            return s
        return BufferStoreStmt(buf, indices, value)

    def visit_AssignStmt(self, s: AssignStmt):
        var, value = self.visit(s.var), self.visit(s.value)
        if var is s.var and value is s.value:
            return s
        return AssignStmt(var, value)

    def visit_LetStmt(self, s: LetStmt):
        var, value, body = self.visit(s.var), self.visit(s.value), self.visit(s.body)
        if var is s.var and value is s.value and body is s.body:
            return s
        return LetStmt(var, value, body)

    def visit_ForStmt(self, s: ForStmt):
        loop_var, extent, body = self.visit(s.loop_var), self.visit(s.extent), self.visit(s.body)
        if loop_var is s.loop_var and extent is s.extent and body is s.body:
            return s
        return ForStmt(loop_var, extent, body, s.unroll)

    def visit_ForTaskStmt(self, s: ForTaskStmt):
        loop_vars = tuple(self.visit(v) for v in s.loop_vars)
        worker = self.visit(s.worker)
        body = self.visit(s.body)
        if worker is s.worker and body is s.body and all(x is y for x, y in zip(loop_vars, s.loop_vars)):
            return s
        return ForTaskStmt(loop_vars, s.mapping, worker, body)

    def visit_IfStmt(self, s: IfStmt):
        cond = self.visit(s.cond)
        then_body = self.visit(s.then_body)
        else_body = self.visit(s.else_body) if s.else_body is not None else None
        if cond is s.cond and then_body is s.then_body and else_body is s.else_body:
            return s
        return IfStmt(cond, then_body, else_body)

    def visit_SeqStmt(self, s: SeqStmt):
        stmts = tuple(self.visit(st) for st in s.stmts)
        if all(x is y for x, y in zip(stmts, s.stmts)):
            return s
        return SeqStmt(stmts)

    def visit_BarrierStmt(self, s: BarrierStmt):
        return s

    def visit_EvaluateStmt(self, s: EvaluateStmt):
        expr = self.visit(s.expr)
        return s if expr is s.expr else EvaluateStmt(expr)


class _Found(Exception):
    pass


class _Collector(IRVisitor):
    def __init__(self, node_types: Type | tuple, first: bool = False):
        super().__init__()
        self.node_types = node_types
        self.first = first
        self.found: list = []

    def visit(self, n):
        if isinstance(n, self.node_types):
            self.found.append(n)
            if self.first:
                raise _Found
        return super().visit(n)


def collect(node, node_types: Type | tuple) -> list:
    """Collect all sub-nodes of the given type(s) in pre-order."""
    collector = _Collector(node_types)
    collector.visit(node)
    return collector.found


def find_first(node, node_types: Type | tuple):
    """The first sub-node of the given type(s) in pre-order, or ``None``;
    the walk stops there."""
    collector = _Collector(node_types, first=True)
    try:
        collector.visit(node)
    except _Found:
        return collector.found[0]
    return None
