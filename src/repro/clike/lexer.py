"""Lexer for the C-like dialects.

Produces a flat token stream.  A miniature preprocessor runs first: it strips
comments with one substitution, strips ``#include``/``#pragma`` lines,
applies object-like ``#define`` substitutions and understands
``#ifdef/#ifndef/#else/#endif`` over macros defined in the same file or
passed as build options (``-D`` handling mirrors ``clBuildProgram`` options,
which several corpus apps use).

Tokenizing is one compiled regex per dialect, an alternation of named groups
tried in order: newline, blanks, identifier, float, int, string, char, and
punctuation longest-first.  The CUDA dialect's regex also lexes ``<<<`` and
``>>>`` as single tokens (kernel launch delimiters); other dialects never
see them.  A character no alternative matches raises a located
:class:`~repro.errors.LexError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import LexError

__all__ = ["Token", "Lexer", "tokenize", "preprocess"]


@dataclass(frozen=True)
class Token:
    kind: str  # 'id', 'int', 'float', 'char', 'string', 'punct', 'eof'
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r}, {self.line}:{self.col})"


# Longest-match-first punctuation table.  '<<<' / '>>>' are appended in CUDA
# mode only.
_PUNCTS = [
    "...", "<<=", ">>=",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "::",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_FLOAT_RE = re.compile(
    r"(?:\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)[fFlL]?"
)
_INT_RE = re.compile(r"(?:0[xX][0-9a-fA-F]+|0[bB][01]+|\d+)(?:[uU]?[lL]{0,2}|[lL]{1,2}[uU]?)")
_STRING_RE = re.compile(r'"(?:\\.|[^"\\])*"')
_CHAR_RE = re.compile(r"'(?:\\.|[^'\\])'")


def _token_re(puncts: List[str]) -> re.Pattern[str]:
    """One named group per token kind.  Blanks and identifiers are spelled
    out, never ``\\s``/``\\w``, so Unicode spaces and letters stay unexpected."""
    groups = [("nl", r"\n"), ("ws", r"[ \t\r\f\v]+"),
              ("id", _ID_RE.pattern), ("float", _FLOAT_RE.pattern),
              ("int", _INT_RE.pattern), ("string", _STRING_RE.pattern),
              ("char", _CHAR_RE.pattern),
              ("punct", "|".join(map(re.escape, puncts)))]
    return re.compile("|".join(f"(?P<{k}>{p})" for k, p in groups))


_TOKEN_RE = _token_re(_PUNCTS)
_CUDA_TOKEN_RE = _token_re(["<<<", ">>>"] + _PUNCTS)

#: the error for a quote that opens no literal
_BAD_START = {'"': "unterminated string", "'": "bad character literal"}

#: comments and the literals that may hold comment markers; a ``/*`` or
#: ``"`` that opens neither matches the last two groups, and a lone ``'``
#: (as in ``#error`` text) matches nothing and stays
_COMMENT_RE = re.compile(
    rf"(?P<line>//[^\n]*)|(?P<block>/\*[\s\S]*?\*/)|{_STRING_RE.pattern}"
    rf"|{_CHAR_RE.pattern}|(?P<open_block>/\*)|(?P<open_string>\")")

_DEFINE_RE = re.compile(r"^\s*#\s*define\s+([A-Za-z_][A-Za-z0-9_]*)\s*(.*?)\s*$")
_DEFINE_FN_RE = re.compile(r"^\s*#\s*define\s+([A-Za-z_][A-Za-z0-9_]*)\(")
_UNDEF_RE = re.compile(r"^\s*#\s*undef\s+([A-Za-z_][A-Za-z0-9_]*)")
_IFDEF_RE = re.compile(r"^\s*#\s*ifdef\s+([A-Za-z_][A-Za-z0-9_]*)")
_IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+([A-Za-z_][A-Za-z0-9_]*)")
_IF_RE = re.compile(r"^\s*#\s*if\b")
_ELSE_RE = re.compile(r"^\s*#\s*else\b")
_ENDIF_RE = re.compile(r"^\s*#\s*endif\b")
_SKIP_RE = re.compile(r"^\s*#\s*(include|pragma|line)\b")


def _uncomment(m: re.Match[str]) -> str:
    kind = m.lastgroup
    if kind is None:  # a string or char literal stays as it is
        return m.group()
    if kind == "block":
        return "\n" * m.group().count("\n")
    if kind == "line":
        return ""
    src, pos = m.string, m.start()
    what = "block comment" if kind == "open_block" else "string literal"
    raise LexError(f"unterminated {what}", src.count("\n", 0, pos) + 1,
                   pos - src.rfind("\n", 0, pos))


def _strip_comments(src: str) -> str:
    """Remove // and /* */ comments, preserving newlines for line numbers."""
    return _COMMENT_RE.sub(_uncomment, src)


def preprocess(src: str, defines: Optional[Dict[str, str]] = None) -> str:
    """Tiny preprocessor: handles #define (object-like), #undef,
    #ifdef/#ifndef/#else/#endif, and strips #include/#pragma.

    Function-like macros raise :class:`LexError` — the corpus does not use
    them, and silently mis-expanding them would be worse than failing.
    """
    macros: Dict[str, str] = dict(defines or {})
    # continuation lines
    src = src.replace("\\\n", " \n")  # keep line count; defines stay one-line
    src = _strip_comments(src)
    out_lines: List[str] = []
    # stack of booleans: is this branch active?
    active_stack: List[bool] = []

    def active() -> bool:
        return all(active_stack)

    for lineno, line in enumerate(src.split("\n"), start=1):
        stripped = line.lstrip()
        if stripped.startswith("#"):
            if _ENDIF_RE.match(line):
                if not active_stack:
                    raise LexError("#endif without #if", lineno)
                active_stack.pop()
            elif _ELSE_RE.match(line):
                if not active_stack:
                    raise LexError("#else without #if", lineno)
                active_stack[-1] = not active_stack[-1]
            elif (m := _IFDEF_RE.match(line)) is not None:
                active_stack.append(m.group(1) in macros)
            elif (m := _IFNDEF_RE.match(line)) is not None:
                active_stack.append(m.group(1) not in macros)
            elif _IF_RE.match(line):
                # #if <expr>: we support only '#if 0' and '#if 1'
                expr = line.split(None, 1)[1] if len(line.split(None, 1)) > 1 else ""
                expr = expr.strip()
                if expr == "0":
                    active_stack.append(False)
                elif expr == "1":
                    active_stack.append(True)
                else:
                    raise LexError(f"unsupported #if expression: {expr!r}", lineno)
            elif active():
                if _DEFINE_FN_RE.match(line):
                    raise LexError("function-like macros are not supported", lineno)
                if (m := _DEFINE_RE.match(line)) is not None:
                    macros[m.group(1)] = m.group(2)
                elif (m := _UNDEF_RE.match(line)) is not None:
                    macros.pop(m.group(1), None)
                elif _SKIP_RE.match(line):
                    pass
                else:
                    raise LexError(f"unsupported directive: {stripped.split()[0]}", lineno)
            out_lines.append("")
            continue
        out_lines.append(line if active() else "")

    if active_stack:
        raise LexError("unterminated #if/#ifdef")

    text = "\n".join(out_lines)
    # Object-like macro substitution, repeated until fixpoint (macros may
    # reference each other); token-boundary aware.
    if macros:
        pattern = re.compile(
            r"\b(" + "|".join(re.escape(k) for k in sorted(macros, key=len, reverse=True)) + r")\b"
        )
        for _ in range(8):
            new = pattern.sub(lambda m: macros[m.group(1)], text)
            if new == text:
                break
            text = new
    return text


class Lexer:
    """Tokenizer over preprocessed source text."""

    def __init__(self, src: str, cuda: bool = False,
                 defines: Optional[Dict[str, str]] = None) -> None:
        self.src = preprocess(src, defines)
        self.tokens: List[Token] = []
        self._lex(_CUDA_TOKEN_RE if cuda else _TOKEN_RE)

    def _lex(self, token_re: re.Pattern[str]) -> None:
        src, toks = self.src, self.tokens
        line, line_start, pos = 1, 0, 0
        for m in token_re.finditer(src):
            start = m.start()
            if start != pos:
                break
            pos = m.end()
            kind = m.lastgroup
            if kind == "nl":
                line += 1
                line_start = pos
            elif kind != "ws":
                toks.append(Token(kind, m.group(), line, start - line_start + 1))
        if pos < len(src):
            c = src[pos]
            msg = (f"bad numeric literal at {src[pos:pos + 12]!r}" if c.isdigit()
                   else _BAD_START.get(c, f"unexpected character {c!r}"))
            raise LexError(msg, line, pos - line_start + 1)
        toks.append(Token("eof", "", line, 1))


def tokenize(src: str, cuda: bool = False,
             defines: Optional[Dict[str, str]] = None) -> List[Token]:
    """Convenience: preprocess + lex ``src`` and return the token list."""
    return Lexer(src, cuda=cuda, defines=defines).tokens


def parse_int_literal(text: str) -> Tuple[int, bool, bool]:
    """Parse an integer literal; returns (value, is_unsigned, is_long)."""
    t = text.lower()
    unsigned = "u" in t
    long_ = "l" in t
    t = t.rstrip("ul")
    if t.startswith("0x"):
        value = int(t, 16)
    elif t.startswith("0b"):
        value = int(t, 2)
    elif t.startswith("0") and len(t) > 1:
        value = int(t, 8)
    else:
        value = int(t, 10)
    return value, unsigned, long_


def parse_float_literal(text: str) -> Tuple[float, bool]:
    """Parse a float literal; returns (value, is_float32)."""
    is_f32 = text[-1] in "fF"
    return float(text.rstrip("fFlL")), is_f32


_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}


def unescape_string(text: str) -> str:
    """Decode a quoted string/char literal body."""
    body = text[1:-1]
    out: List[str] = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            if nxt == "x":
                j = i + 2
                while j < len(body) and body[j] in "0123456789abcdefABCDEF":
                    j += 1
                out.append(chr(int(body[i + 2:j], 16)))
                i = j
                continue
            out.append(_ESCAPES.get(nxt, nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)
