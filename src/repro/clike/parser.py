"""Recursive-descent parser for the C-like dialects.

One parser class serves all three dialects (OpenCL C kernels, CUDA ``.cu``
translation units, host C); the :class:`~repro.clike.dialect.Dialect` object
decides which qualifiers, type names and constructs are legal.

Scope: the C subset used by the application corpus — declarations (scalars,
vectors, pointers with address spaces, arrays, structs, typedefs), full
expression grammar, control flow including ``switch``, CUDA kernel launches
``<<<...>>>``, CUDA ``template<typename T>`` functions, references in
parameter lists, C++-style casts, and ``texture<...>`` references.  No
preprocessor beyond what :mod:`repro.clike.lexer` provides, no ``goto``, no
bitfields, no function-local function declarations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import ParseError
from . import ast as A
from . import types as T
from .dialect import Dialect, get_dialect, vector_type_from_name
from .lexer import (Token, parse_float_literal, parse_int_literal, tokenize,
                    unescape_string)

__all__ = ["Parser", "parse"]


# binary operator precedences (C); higher binds tighter
_BIN_PREC: Dict[str, int] = {
    "*": 13, "/": 13, "%": 13,
    "+": 12, "-": 12,
    "<<": 11, ">>": 11,
    "<": 10, "<=": 10, ">": 10, ">=": 10,
    "==": 9, "!=": 9,
    "&": 8, "^": 7, "|": 6,
    "&&": 5, "||": 4,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

# declaration-specifier keywords that are storage/qualifier words
_STORAGE_WORDS = {"static", "extern", "const", "volatile", "register",
                  "restrict", "__restrict__", "inline", "__inline__",
                  "__forceinline__", "__noinline__", "unsigned", "signed",
                  "__read_only", "__write_only", "read_only", "write_only"}

_BASIC_TYPE_WORDS = {"void", "char", "short", "int", "long", "float",
                     "double", "bool", "unsigned", "signed", "_Bool"}


class Parser:
    """Parser for one translation unit in a given dialect."""

    def __init__(self, src: str, dialect: "Dialect | str",
                 defines: Optional[Dict[str, str]] = None) -> None:
        if isinstance(dialect, str):
            dialect = get_dialect(dialect)
        self.dialect = dialect
        self.toks: List[Token] = tokenize(src, cuda=dialect.kernel_launch,
                                          defines=defines)
        self.pos = 0
        #: names introduced by typedefs in this unit
        self.typenames: Set[str] = set(dialect.typedefs)
        self.typedefs: Dict[str, T.Type] = dict(dialect.typedefs)
        self.structs: Dict[str, T.StructType] = {
            t.name: t for t in dialect.typedefs.values()
            if isinstance(t, T.StructType)
        }
        #: names of template functions seen so far (enables foo<int>(..))
        self.template_functions: Set[str] = set()
        #: active template type parameters (inside a template function)
        self.template_type_params: Set[str] = set()

    # -- token helpers ------------------------------------------------------

    def peek(self, off: int = 0) -> Token:
        i = min(self.pos + off, len(self.toks) - 1)
        return self.toks[i]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str, off: int = 0) -> bool:
        t = self.peek(off)
        return t.text == text and t.kind in ("punct", "id")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text!r}",
                             tok.line, tok.col)
        return self.next()

    def error(self, msg: str) -> ParseError:
        tok = self.peek()
        return ParseError(msg + f"; got {tok.text!r}", tok.line, tok.col)

    def _loc(self, node: A.Node) -> A.Node:
        tok = self.peek(-1) if self.pos else self.peek()
        node.loc = (tok.line, tok.col)
        return node

    def _loc_call(self, call: A.Call) -> A.Call:
        """A call sits where its callee does; a callee without a location
        leaves the call at its closing parenthesis."""
        if A.has_loc(call.func):
            call.loc = call.func.loc
            return call
        return self._loc(call)

    # -- type recognition ---------------------------------------------------

    def is_type_name(self, name: str) -> bool:
        if name in _BASIC_TYPE_WORDS or name == "size_t":
            return True
        if name in self.typenames:
            return True
        if name in self.template_type_params:
            return True
        if name == "struct" or name == "texture":
            return True
        if name in T.SCALAR_TYPES:
            return True
        return vector_type_from_name(name, self.dialect) is not None

    def starts_declaration(self) -> bool:
        tok = self.peek()
        if tok.kind != "id":
            return False
        if tok.text in self.dialect.space_keywords:
            return True
        if tok.text in _STORAGE_WORDS:
            return True
        return self.is_type_name(tok.text)

    # -- entry points -------------------------------------------------------

    def parse(self) -> A.TranslationUnit:
        unit = A.TranslationUnit(dialect_name=self.dialect.name)
        while self.peek().kind != "eof":
            if self.accept(";"):
                continue
            unit.decls.extend(self.parse_top_decl())
        return unit

    # -- top-level declarations --------------------------------------------

    def parse_top_decl(self) -> List[A.Node]:
        # template <typename T> ...
        if self.at("template"):
            return [self.parse_template_function()]
        if self.at("typedef"):
            return [self.parse_typedef()]
        if self.at("struct") and self.peek(1).kind == "id" and self.at("{", 2):
            decl = self.parse_struct_definition()
            self.expect(";")
            return [decl]

        quals, space, is_kernel = self.parse_leading_qualifiers()
        base = self.parse_type_specifier()
        # more qualifiers can follow the type (e.g. "float __global * p")
        q2, s2, k2 = self.parse_leading_qualifiers()
        quals |= q2
        space = space or s2
        is_kernel = is_kernel or k2

        decls: List[A.Node] = []
        first = True
        while True:
            name, dtype, params = self.parse_declarator(base)
            if params is not None and first and (self.at("{") or self.at(";")):
                # function definition or prototype
                fn_quals = {q for q in quals
                            if q in self.dialect.func_qualifiers
                            or q in ("__device__", "__host__")}
                body = None
                if self.at("{"):
                    body = self.parse_compound()
                else:
                    self.expect(";")
                fn = A.FunctionDecl(name, dtype, params, body,
                                    qualifiers=fn_quals, is_kernel=is_kernel)
                return [self._loc(fn)]
            if params is not None:
                raise self.error(f"unexpected function declarator for {name}")
            dtype = self._apply_decl_space(dtype, space)
            init = None
            if self.accept("="):
                init = self.parse_initializer()
            vd = A.VarDecl(name, dtype, space=space, quals=set(quals), init=init)
            decls.append(self._loc(vd))
            first = False
            if not self.accept(","):
                break
        self.expect(";")
        return decls

    def parse_template_function(self) -> A.FunctionDecl:
        self.expect("template")
        self.expect("<")
        tparams: List[str] = []
        while True:
            kw = self.next()
            if kw.text not in ("typename", "class"):
                raise ParseError("expected 'typename' in template parameter",
                                 kw.line, kw.col)
            nm = self.next()
            tparams.append(nm.text)
            if not self.accept(","):
                break
        self.expect(">")
        saved = set(self.template_type_params)
        self.template_type_params |= set(tparams)
        try:
            decls = self.parse_top_decl()
        finally:
            self.template_type_params = saved
        if len(decls) != 1 or not isinstance(decls[0], A.FunctionDecl):
            raise self.error("template must declare a single function")
        fn = decls[0]
        fn.template_params = tparams
        self.template_functions.add(fn.name)
        return fn

    def parse_typedef(self) -> A.TypedefDecl:
        self.expect("typedef")
        if self.at("struct"):
            # typedef struct [Name] { ... } Alias;
            self.next()
            tag = None
            if self.peek().kind == "id" and not self.at("{"):
                tag = self.next().text
            st = self.parse_struct_body(tag or "")
            alias = self.next()
            self.expect(";")
            if not st.name:
                st.name = alias.text
            self.structs[st.name] = st
            self.typenames.add(alias.text)
            self.typedefs[alias.text] = st
            if tag:
                self.structs[tag] = st
            return self._loc(A.TypedefDecl(alias.text, st))
        base = self.parse_type_specifier()
        name, dtype, params = self.parse_declarator(base)
        if params is not None:
            dtype = T.FunctionType(dtype, tuple(p.type for p in params))
        self.expect(";")
        self.typenames.add(name)
        self.typedefs[name] = dtype
        return self._loc(A.TypedefDecl(name, dtype))

    def parse_struct_definition(self) -> A.StructDecl:
        self.expect("struct")
        name = self.next().text
        st = self.parse_struct_body(name)
        self.structs[name] = st
        # allow using the bare name as a type (common C++ / typedef habit)
        self.typenames.add(name)
        self.typedefs[name] = st
        return self._loc(A.StructDecl(name, list(st.fields.items()), st))

    def parse_struct_body(self, name: str) -> T.StructType:
        self.expect("{")
        st = T.StructType(name)
        while not self.at("}"):
            base = self.parse_type_specifier()
            while True:
                fname, ftype, params = self.parse_declarator(base)
                if params is not None:
                    raise self.error("methods in structs are not supported")
                st.add_field(fname, ftype)
                if not self.accept(","):
                    break
            self.expect(";")
        self.expect("}")
        return st

    # -- declaration specifiers ---------------------------------------------

    def parse_leading_qualifiers(self) -> Tuple[Set[str], Optional[T.AddressSpace], bool]:
        """Consume storage words, address-space and function qualifiers."""
        quals: Set[str] = set()
        space: Optional[T.AddressSpace] = None
        is_kernel = False
        while True:
            tok = self.peek()
            if tok.kind != "id":
                break
            text = tok.text
            if text in ("__kernel", "kernel") and self.dialect.name == "opencl":
                is_kernel = True
                self.next()
            elif text == self.dialect.kernel_keyword and text:
                is_kernel = True
                self.next()
            elif text in self.dialect.space_keywords:
                space = self.dialect.space_keywords[text]
                quals.add(text)
                self.next()
            elif text in _STORAGE_WORDS and text not in ("unsigned", "signed"):
                quals.add(text)
                self.next()
            elif text in ("__device__", "__host__") and self.dialect.name == "cuda":
                quals.add(text)
                self.next()
            else:
                break
        return quals, space, is_kernel

    def parse_type_specifier(self) -> T.Type:
        """Parse the base type (no declarator)."""
        tok = self.peek()
        if tok.kind != "id":
            raise self.error("expected type name")
        # struct Name
        if tok.text == "struct":
            self.next()
            name = self.next().text
            if self.at("{"):
                st = self.parse_struct_body(name)
                self.structs[name] = st
                return st
            st = self.structs.get(name)
            if st is None:
                st = T.StructType(name)  # forward reference
                self.structs[name] = st
            return st
        # texture<T, dim, mode>
        if tok.text == "texture" and self.dialect.cplusplus:
            self.next()
            self.expect("<")
            base = self.parse_type_specifier()
            dims = 1
            mode = "cudaReadModeElementType"
            if self.accept(","):
                dims = int(self.next().text)
                if self.accept(","):
                    mode = self.next().text
            self.expect(">")
            return T.TextureType(base, dims, mode)
        # multi-word basic types
        if tok.text in _BASIC_TYPE_WORDS:
            words: List[str] = []
            while self.peek().kind == "id" and self.peek().text in _BASIC_TYPE_WORDS:
                words.append(self.next().text)
            return _basic_type_from_words(words, self)
        name = tok.text
        if name in self.template_type_params:
            self.next()
            return T.OpaqueType(name)  # placeholder, substituted at specialization
        t = self.typedefs.get(name)
        if t is not None:
            self.next()
            return t
        if name in T.SCALAR_TYPES:
            self.next()
            return T.SCALAR_TYPES[name]
        vt = vector_type_from_name(name, self.dialect)
        if vt is not None:
            self.next()
            return vt
        raise self.error(f"unknown type name {name!r}")

    def parse_declarator(self, base: T.Type,
                         abstract: bool = False
                         ) -> Tuple[str, T.Type, Optional[List[A.ParamDecl]]]:
        """Parse ``* const name [N] (params)`` layers on top of ``base``.

        Returns (name, type, params); params is non-None for function
        declarators.  Address-space qualifiers between ``*`` s are accepted.
        """
        t = base
        is_reference = False
        while True:
            if self.accept("*"):
                const = False
                space = T.AddressSpace.PRIVATE
                while self.peek().kind == "id" and (
                        self.peek().text in ("const", "volatile", "restrict",
                                             "__restrict__")
                        or self.peek().text in self.dialect.space_keywords):
                    w = self.next().text
                    if w == "const":
                        const = True
                    elif w in self.dialect.space_keywords:
                        space = self.dialect.space_keywords[w]
                t = T.PointerType(t, space, const=const)
            elif self.accept("&"):
                if not self.dialect.cplusplus:
                    raise self.error("references are a C++ feature")
                is_reference = True
            else:
                break
        # function-pointer declarator: ( * name ) (params)
        if self.at("(") and self.at("*", 1):
            self.next()
            self.expect("*")
            name = self.next().text if self.peek().kind == "id" else ""
            self.expect(")")
            self.expect("(")
            ptypes: List[T.Type] = []
            if not self.at(")"):
                while True:
                    pt = self.parse_type_specifier()
                    _, pt2, _ = self.parse_declarator(pt, abstract=True)
                    ptypes.append(pt2)
                    if not self.accept(","):
                        break
            self.expect(")")
            ft = T.FunctionType(t, tuple(ptypes))
            return name, T.PointerType(ft, T.AddressSpace.PRIVATE), None

        name = ""
        if self.peek().kind == "id" and not self.is_type_name(self.peek().text):
            name = self.next().text
        elif not abstract and self.peek().kind == "id":
            # could still be a name shadowing a type; take it if a
            # declarator-follower comes next
            if self.peek(1).text in ("[", "=", ",", ";", ")", "("):
                name = self.next().text

        # array suffixes
        dims: List[Optional[int]] = []
        while self.accept("["):
            if self.at("]"):
                dims.append(None)
            else:
                dims.append(self.parse_const_int())
            self.expect("]")
        for n in reversed(dims):
            t = T.ArrayType(t, n)

        params: Optional[List[A.ParamDecl]] = None
        if not abstract and name and self.at("("):
            params = self.try_parse_param_list()
        if is_reference:
            t = T.PointerType(t, T.AddressSpace.PRIVATE)
            # mark through the name so callers can detect; handled by caller
            name = name  # reference-ness returned via param qual below
        if params is not None:
            return name, t, params
        if is_reference:
            # only parameters may be references in our subset
            return name, t, None
        return name, t, None

    def try_parse_param_list(self) -> Optional[List[A.ParamDecl]]:
        """Parse ``(params)`` if the contents look like parameter types;
        otherwise leave the stream untouched (so ``dim3 grid(2,3)`` can be
        re-parsed as a constructor initializer)."""
        save = self.pos
        self.expect("(")
        params: List[A.ParamDecl] = []
        if self.accept(")"):
            return params
        if self.at("void") and self.at(")", 1):
            self.next()
            self.next()
            return params
        if not self.starts_declaration():
            self.pos = save
            return None
        while True:
            quals, space, _ = self.parse_leading_qualifiers()
            base = self.parse_type_specifier()
            q2, s2, _ = self.parse_leading_qualifiers()
            quals |= q2
            space = space or s2
            ref_before = self.at("&")
            name, ptype, fn = self.parse_declarator(base)
            pq = set(quals)
            if ref_before:
                pq.add("reference")
            # arrays decay to pointers in parameters
            if isinstance(ptype, T.ArrayType):
                ptype = T.PointerType(ptype.elem,
                                      space or T.AddressSpace.PRIVATE)
            ptype = self._apply_decl_space(ptype, space)
            p = A.ParamDecl(name, ptype, space=space, quals=pq)
            params.append(self._loc(p))
            if not self.accept(","):
                break
        self.expect(")")
        return params

    def _apply_decl_space(self, t: T.Type, space: Optional[T.AddressSpace]) -> T.Type:
        """Fold a declaration-specifier address space into a pointer type.

        In OpenCL an address-space qualifier in the specifiers qualifies the
        *pointee* (``__global int* p`` = pointer to global int); in CUDA it
        qualifies the *variable* (paper §3.6), so there it stays on the
        declaration and the pointer type is untouched.
        """
        if (space is not None and self.dialect.name == "opencl"
                and isinstance(t, T.PointerType)
                and t.space == T.AddressSpace.PRIVATE):
            return T.PointerType(t.pointee, space, const=t.const)
        return t

    def parse_const_int(self) -> int:
        """Parse a constant integer expression for array bounds."""
        expr = self.parse_cond()
        val = _const_eval(expr)
        if val is None:
            raise self.error("expected constant integer expression")
        return int(val)

    def parse_initializer(self) -> A.Node:
        if self.at("{"):
            self.next()
            items: List[A.Node] = []
            while not self.at("}"):
                items.append(self.parse_initializer())
                if not self.accept(","):
                    break
            self.expect("}")
            return self._loc(A.InitList(items))
        return self.parse_assign_expr()

    # -- statements ----------------------------------------------------------

    def parse_compound(self) -> A.Compound:
        self.expect("{")
        node = A.Compound()
        while not self.at("}"):
            node.stmts.append(self.parse_stmt())
        self.expect("}")
        return self._loc(node)

    def parse_stmt(self) -> A.Node:
        tok = self.peek()
        text = tok.text
        if text == "{":
            return self.parse_compound()
        if text == ";":
            self.next()
            return A.Compound()
        if text == "if":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_stmt()
            orelse = self.parse_stmt() if self.accept("else") else None
            return self._loc(A.If(cond, then, orelse))
        if text == "for":
            self.next()
            self.expect("(")
            init: Optional[A.Node] = None
            if not self.at(";"):
                if self.starts_declaration():
                    init = A.DeclStmt(self.parse_local_decls())
                else:
                    init = A.ExprStmt(self.parse_expr())
                    self.expect(";")
            else:
                self.next()
            cond = None if self.at(";") else self.parse_expr()
            self.expect(";")
            step = None if self.at(")") else self.parse_expr()
            self.expect(")")
            body = self.parse_stmt()
            return self._loc(A.For(init, cond, step, body))
        if text == "while":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            return self._loc(A.While(cond, self.parse_stmt()))
        if text == "do":
            self.next()
            body = self.parse_stmt()
            self.expect("while")
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return self._loc(A.DoWhile(body, cond))
        if text == "return":
            self.next()
            value = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return self._loc(A.Return(value))
        if text == "break":
            self.next()
            self.expect(";")
            return self._loc(A.Break())
        if text == "continue":
            self.next()
            self.expect(";")
            return self._loc(A.Continue())
        if text == "switch":
            return self.parse_switch()
        if self.starts_declaration():
            decls = self.parse_local_decls()
            return self._loc(A.DeclStmt(decls))
        expr = self.parse_expr()
        self.expect(";")
        return self._loc(A.ExprStmt(expr))

    def parse_switch(self) -> A.Switch:
        self.expect("switch")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        self.expect("{")
        cases: List[A.Case] = []
        current: Optional[A.Case] = None
        while not self.at("}"):
            if self.accept("case"):
                value = self.parse_cond()
                self.expect(":")
                current = A.Case(value, [])
                cases.append(current)
            elif self.accept("default"):
                self.expect(":")
                current = A.Case(None, [])
                cases.append(current)
            else:
                if current is None:
                    raise self.error("statement before first case label")
                current.stmts.append(self.parse_stmt())
        self.expect("}")
        return self._loc(A.Switch(cond, cases))

    def parse_local_decls(self) -> List[A.VarDecl]:
        quals, space, _ = self.parse_leading_qualifiers()
        base = self.parse_type_specifier()
        q2, s2, _ = self.parse_leading_qualifiers()
        quals |= q2
        space = space or s2
        decls: List[A.VarDecl] = []
        while True:
            name, dtype, params = self.parse_declarator(base)
            dtype = self._apply_decl_space(dtype, space)
            init: Optional[A.Node] = None
            if params is not None:
                raise self.error("local function declarations are not supported")
            if self.at("(") and isinstance(dtype, T.StructType):
                # C++ constructor-style init: dim3 grid(2, 3);
                self.next()
                items: List[A.Node] = []
                if not self.at(")"):
                    while True:
                        items.append(self.parse_assign_expr())
                        if not self.accept(","):
                            break
                self.expect(")")
                init = A.InitList(items)
            elif self.accept("="):
                init = self.parse_initializer()
            vd = A.VarDecl(name, dtype, space=space, quals=set(quals), init=init)
            decls.append(self._loc(vd))
            if not self.accept(","):
                break
        self.expect(";")
        return decls

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> A.Node:
        first = self.parse_assign_expr()
        if not self.at(","):
            return first
        exprs = [first]
        while self.accept(","):
            exprs.append(self.parse_assign_expr())
        return self._loc(A.Comma(exprs))

    def parse_assign_expr(self) -> A.Node:
        lhs = self.parse_cond()
        tok = self.peek()
        if tok.kind == "punct" and tok.text in _ASSIGN_OPS:
            op = self.next().text
            rhs = self.parse_assign_expr()
            return self._loc(A.Assign(op[:-1] if op != "=" else "", lhs, rhs))
        return lhs

    def parse_cond(self) -> A.Node:
        cond = self.parse_binary(0)
        if self.accept("?"):
            then = self.parse_assign_expr()
            self.expect(":")
            orelse = self.parse_cond()
            return self._loc(A.Cond(cond, then, orelse))
        return cond

    def parse_binary(self, min_prec: int) -> A.Node:
        lhs = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind != "punct":
                return lhs
            prec = _BIN_PREC.get(tok.text)
            if prec is None or prec < min_prec:
                return lhs
            op = self.next().text
            rhs = self.parse_binary(prec + 1)
            lhs = self._loc(A.BinOp(op, lhs, rhs))

    def parse_unary(self) -> A.Node:
        tok = self.peek()
        if tok.kind == "punct":
            if tok.text in ("-", "+", "!", "~", "*", "&"):
                self.next()
                return self._loc(A.UnOp(tok.text, self.parse_unary()))
            if tok.text in ("++", "--"):
                self.next()
                return self._loc(A.UnOp(tok.text, self.parse_unary()))
            if tok.text == "(":
                # cast or parenthesized expression
                save = self.pos
                self.next()
                if self._at_typename():
                    try:
                        ctype = self.parse_cast_type()
                        self.expect(")")
                    except ParseError:
                        self.pos = save
                    else:
                        # OpenCL vector literal: (float4)(a, b, c, d)
                        if isinstance(ctype, T.VectorType) and self.at("("):
                            self.next()
                            items = [self.parse_assign_expr()]
                            while self.accept(","):
                                items.append(self.parse_assign_expr())
                            self.expect(")")
                            return self._loc(A.Cast(ctype, A.InitList(items)))
                        return self._loc(A.Cast(ctype, self.parse_unary()))
                else:
                    self.pos = save
        if tok.kind == "id":
            if tok.text == "sizeof":
                self.next()
                if self.at("("):
                    save = self.pos
                    self.next()
                    if self._at_typename():
                        try:
                            st = self.parse_cast_type()
                            self.expect(")")
                            return self._loc(A.SizeOf(type_=st))
                        except ParseError:
                            self.pos = save
                    else:
                        self.pos = save
                return self._loc(A.SizeOf(expr=self.parse_unary()))
            if tok.text in ("static_cast", "reinterpret_cast", "const_cast") \
                    and self.dialect.cplusplus:
                style = tok.text.split("_")[0]
                self.next()
                self.expect("<")
                ctype = self.parse_cast_type()
                self.expect(">")
                self.expect("(")
                inner = self.parse_expr()
                self.expect(")")
                return self._loc(A.Cast(ctype, inner, style=style))
        return self.parse_postfix()

    def _at_typename(self) -> bool:
        tok = self.peek()
        if tok.kind != "id":
            return False
        return (tok.text in self.dialect.space_keywords
                or tok.text in ("const", "volatile", "struct")
                or self.is_type_name(tok.text))

    def parse_cast_type(self) -> T.Type:
        """Parse a type-name (for casts / sizeof): specifiers + abstract
        declarator."""
        quals, space, _ = self.parse_leading_qualifiers()
        base = self.parse_type_specifier()
        q2, s2, _ = self.parse_leading_qualifiers()
        space = space or s2
        t = base
        while self.accept("*"):
            while self.peek().kind == "id" and (
                    self.peek().text in ("const", "volatile")
                    or self.peek().text in self.dialect.space_keywords):
                w = self.next().text
                if w in self.dialect.space_keywords:
                    space = self.dialect.space_keywords[w]
            t = T.PointerType(t, space or T.AddressSpace.PRIVATE)
        return t

    def parse_postfix(self) -> A.Node:
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.kind != "punct":
                return expr
            if tok.text == "(":
                self.next()
                args: List[A.Node] = []
                if not self.at(")"):
                    while True:
                        args.append(self.parse_assign_expr())
                        if not self.accept(","):
                            break
                self.expect(")")
                expr = self._loc_call(A.Call(expr, args))
            elif tok.text == "[":
                self.next()
                idx = self.parse_expr()
                self.expect("]")
                expr = self._loc(A.Index(expr, idx))
            elif tok.text == ".":
                self.next()
                name = self.next().text
                expr = self._loc(A.Member(expr, name))
            elif tok.text == "->":
                self.next()
                name = self.next().text
                expr = self._loc(A.Member(expr, name, arrow=True))
            elif tok.text in ("++", "--"):
                self.next()
                expr = self._loc(A.UnOp(tok.text, expr, postfix=True))
            elif tok.text == "<<<" and self.dialect.kernel_launch:
                expr = self.parse_kernel_launch(expr)
            elif tok.text == "<" and isinstance(expr, A.Ident) \
                    and expr.name in self.template_functions:
                # template instantiation call: foo<float>(args)
                save = self.pos
                try:
                    self.next()
                    targs = [self.parse_cast_type()]
                    while self.accept(","):
                        targs.append(self.parse_cast_type())
                    self.expect(">")
                    self.expect("(")
                    args = []
                    if not self.at(")"):
                        while True:
                            args.append(self.parse_assign_expr())
                            if not self.accept(","):
                                break
                    self.expect(")")
                    expr = self._loc_call(
                        A.Call(expr, args, template_args=targs))
                except ParseError:
                    self.pos = save
                    return expr
            else:
                return expr

    def parse_kernel_launch(self, kernel: A.Node) -> A.KernelLaunch:
        self.expect("<<<")
        grid = self.parse_assign_expr()
        self.expect(",")
        block = self.parse_assign_expr()
        shmem = stream = None
        if self.accept(","):
            shmem = self.parse_assign_expr()
            if self.accept(","):
                stream = self.parse_assign_expr()
        self.expect(">>>")
        self.expect("(")
        args: List[A.Node] = []
        if not self.at(")"):
            while True:
                args.append(self.parse_assign_expr())
                if not self.accept(","):
                    break
        self.expect(")")
        return self._loc(A.KernelLaunch(kernel, grid, block, shmem, stream, args))

    def parse_primary(self) -> A.Node:
        tok = self.next()
        if tok.kind == "int":
            v, u, l = parse_int_literal(tok.text)
            return self._loc(A.IntLit(v, unsigned=u, long=l))
        if tok.kind == "float":
            v, f32 = parse_float_literal(tok.text)
            return self._loc(A.FloatLit(v, f32=f32))
        if tok.kind == "string":
            s = unescape_string(tok.text)
            # adjacent string literal concatenation
            while self.peek().kind == "string":
                s += unescape_string(self.next().text)
            return self._loc(A.StringLit(s))
        if tok.kind == "char":
            return self._loc(A.CharLit(unescape_string(tok.text)))
        if tok.kind == "id":
            return self._loc(A.Ident(tok.text))
        if tok.text == "(":
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def _basic_type_from_words(words: List[str], parser: Parser) -> T.Type:
    """Resolve a multi-word basic type like 'unsigned long long int'."""
    ws = [w for w in words if w != "int"] or ["int"]
    unsigned = "unsigned" in ws
    signed_removed = [w for w in ws if w not in ("unsigned", "signed")]
    longs = signed_removed.count("long")
    rest = [w for w in signed_removed if w != "long"]
    if longs >= 2:
        name = "ulonglong" if unsigned else "longlong"
    elif longs == 1:
        if rest == ["double"]:
            return T.DOUBLE
        name = "ulong" if unsigned else "long"
    elif not rest:
        name = "uint" if unsigned else "int"
    else:
        base = rest[0]
        if base == "_Bool":
            base = "bool"
        name = ("u" + base) if unsigned and base in ("char", "short", "int") else base
    return T.scalar(name)


def _const_eval(node: A.Node) -> Optional[int]:
    """Fold an integer constant expression (array bounds, case labels)."""
    if isinstance(node, A.IntLit):
        return node.value
    if isinstance(node, A.CharLit):
        return ord(node.value)
    if isinstance(node, A.UnOp) and not node.postfix:
        v = _const_eval(node.operand)
        if v is None:
            return None
        return {"-": -v, "+": v, "~": ~v, "!": int(not v)}.get(node.op)
    if isinstance(node, A.BinOp):
        lv = _const_eval(node.lhs)
        rv = _const_eval(node.rhs)
        if lv is None or rv is None:
            return None
        try:
            return {
                "+": lv + rv, "-": lv - rv, "*": lv * rv,
                "/": lv // rv if rv else None, "%": lv % rv if rv else None,
                "<<": lv << rv, ">>": lv >> rv,
                "&": lv & rv, "|": lv | rv, "^": lv ^ rv,
            }.get(node.op)
        except (ZeroDivisionError, ValueError):
            return None
    if isinstance(node, A.SizeOf) and node.type is not None:
        return node.type.size
    return None


def parse(src: str, dialect: "Dialect | str",
          defines: Optional[Dict[str, str]] = None) -> A.TranslationUnit:
    """Parse ``src`` in the given dialect and return the translation unit."""
    return Parser(src, dialect, defines=defines).parse()
