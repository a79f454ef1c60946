"""Shared AST rewriting utilities for both translation directions."""

from __future__ import annotations

import copy
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..clike import ast as A
from ..clike import types as T

__all__ = ["clone", "rewrite_exprs", "map_statements", "substitute_type",
           "ident", "call", "intlit", "expr_stmt", "gather"]


class _Instrumentation(threading.local):
    """Per-thread hook through which the pass manager observes rewriting.

    While a :class:`repro.translate.passes.PassManager` runs a pass, it
    points ``ctx`` at the active pass context; the traversal helpers below
    then bump its ``visits`` / ``rewrites`` counters so every pass gets
    node-visit and rewrite counts for free.  ``None`` (the default) makes
    the hooks no-ops.
    """

    def __init__(self) -> None:
        self.ctx: Optional[Any] = None


_INSTR = _Instrumentation()


def clone(node: A.Node) -> A.Node:
    """Deep-copy an AST subtree (translators never mutate their input)."""
    return copy.deepcopy(node)


def ident(name: str) -> A.Ident:
    return A.Ident(name)


def intlit(v: int) -> A.IntLit:
    return A.IntLit(v)


def call(name: str, *args: A.Node) -> A.Call:
    return A.Call(A.Ident(name), list(args))


def expr_stmt(e: A.Node) -> A.ExprStmt:
    return A.ExprStmt(e)


# The traversals below are module-level functions that take ``fn`` and the
# pass context, not closures over them: a closure that calls itself sits
# in a reference cycle, which would keep the context, and through it the
# translation's AST, alive until the collector's next full pass.

_STMT_TYPES = (A.Compound, A.ExprStmt, A.DeclStmt, A.If, A.For, A.While,
               A.DoWhile, A.Return, A.Switch, A.Break, A.Continue, A.VarDecl)
_ExprFn = Callable[[A.Node], Optional[A.Node]]
_StmtFn = Callable[[A.Node], Optional[List[A.Node]]]


def rewrite_exprs(node: A.Node, fn: _ExprFn) -> A.Node:
    """Bottom-up expression rewriting.

    ``fn`` receives each expression node (after its children were
    processed) and returns a replacement or None to keep it.  Statements
    are traversed in place.
    """
    if isinstance(node, _STMT_TYPES):
        _walk_stmt(node, fn, _INSTR.ctx)
        return node
    return _walk_expr(node, fn, _INSTR.ctx)


def _walk_expr(e: A.Node, fn: _ExprFn, instr: Any) -> A.Node:
    for field in e._fields:
        v = getattr(e, field, None)
        if isinstance(v, A.Node):
            setattr(e, field, _walk_expr(v, fn, instr))
        elif isinstance(v, list):
            setattr(e, field, [_walk_expr(x, fn, instr)
                               if isinstance(x, A.Node) else x for x in v])
    out = fn(e)
    if instr is not None:
        instr.visits += 1
        if out is not None:
            instr.rewrites += 1
    return out if out is not None else e


def _walk_stmt(s: A.Node, fn: _ExprFn, instr: Any) -> None:
    if isinstance(s, A.Compound):
        for st in s.stmts:
            _walk_stmt(st, fn, instr)
    elif isinstance(s, A.ExprStmt):
        s.expr = _walk_expr(s.expr, fn, instr)
    elif isinstance(s, A.DeclStmt):
        for d in s.decls:
            if d.init is not None:
                d.init = _walk_expr(d.init, fn, instr)
    elif isinstance(s, A.If):
        s.cond = _walk_expr(s.cond, fn, instr)
        _walk_stmt(s.then, fn, instr)
        if s.orelse is not None:
            _walk_stmt(s.orelse, fn, instr)
    elif isinstance(s, A.For):
        if s.init is not None:
            _walk_stmt(s.init, fn, instr)
        if s.cond is not None:
            s.cond = _walk_expr(s.cond, fn, instr)
        if s.step is not None:
            s.step = _walk_expr(s.step, fn, instr)
        _walk_stmt(s.body, fn, instr)
    elif isinstance(s, A.While):
        s.cond = _walk_expr(s.cond, fn, instr)
        _walk_stmt(s.body, fn, instr)
    elif isinstance(s, A.DoWhile):
        _walk_stmt(s.body, fn, instr)
        s.cond = _walk_expr(s.cond, fn, instr)
    elif isinstance(s, A.Return):
        if s.value is not None:
            s.value = _walk_expr(s.value, fn, instr)
    elif isinstance(s, A.Switch):
        s.cond = _walk_expr(s.cond, fn, instr)
        for case in s.cases:
            if case.value is not None:
                case.value = _walk_expr(case.value, fn, instr)
            for st in case.stmts:
                _walk_stmt(st, fn, instr)
    elif isinstance(s, A.VarDecl):
        if s.init is not None:
            s.init = _walk_expr(s.init, fn, instr)


def map_statements(body: A.Compound, fn: _StmtFn) -> None:
    """Rewrite every statement list in ``body`` in place.

    ``fn`` receives a statement and returns a replacement list of
    statements, or None to keep the original.  Applied recursively to
    nested blocks *after* the statement itself, so replacements are not
    re-processed.
    """
    body.stmts = _map_list(body.stmts, fn, _INSTR.ctx)


def _map_apply(s: A.Node, fn: _StmtFn, instr: Any) -> Optional[List[A.Node]]:
    repl = fn(s)
    if instr is not None:
        instr.visits += 1
        if repl is not None:
            instr.rewrites += 1
    return repl


def _map_list(stmts: List[A.Node], fn: _StmtFn, instr: Any) -> List[A.Node]:
    out: List[A.Node] = []
    for s in stmts:
        repl = _map_apply(s, fn, instr)
        if repl is None:
            _map_nested(s, fn, instr)
            out.append(s)
        else:
            out.extend(repl)
    return out


def _map_one(s: A.Node, fn: _StmtFn, instr: Any) -> A.Node:
    """A single-statement position (brace-less if/loop body): a
    multi-statement replacement is wrapped in a compound."""
    repl = _map_apply(s, fn, instr)
    if repl is None:
        _map_nested(s, fn, instr)
        return s
    if len(repl) == 1:
        return repl[0]
    return A.Compound(repl)


def _map_nested(s: A.Node, fn: _StmtFn, instr: Any) -> None:
    if isinstance(s, A.Compound):
        s.stmts = _map_list(s.stmts, fn, instr)
    elif isinstance(s, A.If):
        s.then = _map_one(s.then, fn, instr)
        if s.orelse is not None:
            s.orelse = _map_one(s.orelse, fn, instr)
    elif isinstance(s, (A.For, A.While, A.DoWhile)):
        s.body = _map_one(s.body, fn, instr)
    elif isinstance(s, A.Switch):
        for case in s.cases:
            case.stmts = _map_list(case.stmts, fn, instr)


def substitute_type(t: T.Type, mapping: Dict[T.Type, T.Type]) -> T.Type:
    """Structurally replace types (longlongN -> longN, T -> concrete...)."""
    direct = mapping.get(t)
    if direct is not None:
        return direct
    if isinstance(t, T.PointerType):
        inner = substitute_type(t.pointee, mapping)
        if inner is not t.pointee:
            return T.PointerType(inner, t.space, t.const)
        return t
    if isinstance(t, T.ArrayType):
        inner = substitute_type(t.elem, mapping)
        if inner is not t.elem:
            return T.ArrayType(inner, t.length)
        return t
    if isinstance(t, T.VectorType):
        base = mapping.get(t.base)
        if isinstance(base, T.ScalarType):
            return T.VectorType(base, t.count)
        return t
    return t


def gather(node: A.Node, pred: Callable[[A.Node], bool]) -> List[A.Node]:
    """All descendants (including node) matching ``pred``."""
    return [n for n in A.walk(node) if pred(n)]
