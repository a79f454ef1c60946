"""Tests for the lexer and the miniature preprocessor."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clike.lexer import (Lexer, parse_float_literal, parse_int_literal,
                               preprocess, tokenize, unescape_string)
from repro.errors import LexError


def kinds(src, **kw):
    return [(t.kind, t.text) for t in tokenize(src, **kw)[:-1]]


class TestBasicTokens:
    def test_identifiers_and_ints(self):
        assert kinds("foo bar42 _x") == [
            ("id", "foo"), ("id", "bar42"), ("id", "_x")]

    def test_int_literals(self):
        toks = kinds("42 0x1F 0755 0b101 7u 7ul 7ll")
        assert [t[0] for t in toks] == ["int"] * 7

    def test_int_literal_values(self):
        assert parse_int_literal("0x1F") == (31, False, False)
        assert parse_int_literal("42u") == (42, True, False)
        assert parse_int_literal("7ull") == (7, True, True)
        assert parse_int_literal("0755") == (493, False, False)
        assert parse_int_literal("0b101") == (5, False, False)

    def test_float_literals(self):
        toks = kinds("1.5 1.5f .5 1e10 1.5e-3f")
        assert [t[0] for t in toks] == ["float"] * 5
        assert parse_float_literal("1.5f") == (1.5, True)
        assert parse_float_literal("1e10") == (1e10, False)

    def test_strings_and_chars(self):
        toks = kinds(r'"hi\n" ' + r"'a'")
        assert toks[0] == ("string", '"hi\\n"')
        assert toks[1] == ("char", "'a'")
        assert unescape_string(r'"hi\n"') == "hi\n"
        assert unescape_string(r"'\t'") == "\t"
        assert unescape_string(r'"\x41"') == "A"

    def test_operators_longest_match(self):
        assert [t[1] for t in kinds("a<<=b>>=c->d++e")] == [
            "a", "<<=", "b", ">>=", "c", "->", "d", "++", "e"]

    def test_line_numbers(self):
        toks = tokenize("a\nb\n  c")
        assert toks[0].line == 1
        assert toks[1].line == 2
        assert toks[2].line == 3 and toks[2].col == 3

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestCudaMode:
    def test_launch_tokens_only_in_cuda_mode(self):
        assert ("punct", "<<<") in kinds("k<<<1, 2>>>()", cuda=True)
        # non-CUDA: '<<<' lexes as '<<' '<'
        texts = [t[1] for t in kinds("a<<<b")]
        assert texts == ["a", "<<", "<", "b"]

    def test_shift_still_works_in_cuda(self):
        texts = [t[1] for t in kinds("a << b >> c", cuda=True)]
        assert texts == ["a", "<<", "b", ">>", "c"]


class TestComments:
    def test_line_comment(self):
        assert kinds("a // hi\nb") == [("id", "a"), ("id", "b")]

    def test_block_comment_preserves_lines(self):
        toks = tokenize("a /* x\ny */ b")
        assert toks[1].line == 2

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* ...")

    def test_comment_markers_inside_string(self):
        assert kinds('"no // comment"')[0][1] == '"no // comment"'


class TestPreprocessor:
    def test_object_define(self):
        out = preprocess("#define N 32\nint a[N];")
        assert "32" in out and "N" not in out.replace("\n", "")

    def test_define_chains(self):
        out = preprocess("#define A B\n#define B 7\nx = A;")
        assert "7" in out

    def test_external_defines(self):
        out = preprocess("int a[N];", defines={"N": "64"})
        assert "64" in out

    def test_ifdef_else(self):
        src = "#ifdef FOO\nint yes;\n#else\nint no;\n#endif"
        assert "no" in preprocess(src) and "yes" not in preprocess(src)
        out = preprocess(src, defines={"FOO": "1"})
        assert "yes" in out and "int no" not in out

    def test_ifndef(self):
        src = "#ifndef GUARD\nint body;\n#endif"
        assert "body" in preprocess(src)
        assert "body" not in preprocess(src, defines={"GUARD": "1"})

    def test_if01(self):
        assert "a" not in preprocess("#if 0\nint a;\n#endif")
        assert "a" in preprocess("#if 1\nint a;\n#endif")

    def test_include_pragma_stripped(self):
        out = preprocess('#include <stdio.h>\n#pragma once\nint x;')
        assert "include" not in out and "int x;" in out

    def test_function_like_macro_rejected(self):
        with pytest.raises(LexError):
            preprocess("#define SQ(x) ((x)*(x))")

    def test_unterminated_ifdef(self):
        with pytest.raises(LexError):
            preprocess("#ifdef X\nint a;")

    def test_define_does_not_hit_substrings(self):
        out = preprocess("#define N 8\nint NN = N;")
        assert "NN" in out and "int NN = 8;" in out


#: (source, tokenize kwargs, message, line, col) of every located LexError
LEX_ERRORS = [
    ("x = 'ab';", {}, "bad character literal", 1, 5),
    ("int a;\n  b = @;", {}, "unexpected character '@'", 2, 7),
    ("int a;\n  b = $;", {"cuda": True}, "unexpected character '$'", 2, 7),
    ("int caf\u00e9 = 1;", {}, "unexpected character '\u00e9'", 1, 8),
    ("int a = 1\u00b2;", {}, "bad numeric literal at '\u00b2;'", 1, 10),
    ("x = Q;", {"defines": {"Q": '"abc'}}, "unterminated string", 1, 5),
    ("int a;\n#define SQ(x) ((x)*(x))", {},
     "function-like macros are not supported", 2, 0),
    ("int a;\n#else\n", {}, "#else without #if", 2, 0),
    ("int a;\n\n#endif\n", {}, "#endif without #if", 3, 0),
    ("#if FOO > 1\nint a;\n#endif", {},
     "unsupported #if expression: 'FOO > 1'", 1, 0),
    # the strip stage locates its errors at the opener; a spliced
    # continuation line keeps the lines and columns after it
    ("int a;\n  /* open", {}, "unterminated block comment", 2, 3),
    ("int a; \\\n x = \"abc\n", {}, "unterminated string literal", 2, 6),
]


@pytest.mark.parametrize("src,kw,message,line,col", LEX_ERRORS)
def test_lex_error_message_and_location(src, kw, message, line, col):
    with pytest.raises(LexError) as ei:
        tokenize(src, **kw)
    e = ei.value
    assert (e.line, e.col) == (line, col)
    assert str(e) == f"{message} (at line {line}, col {col})"


@given(st.text(), st.booleans())
def test_lexer_never_crashes(src, cuda):
    """Any text tokenizes to an eof-terminated list or raises LexError."""
    try:
        toks = tokenize(src, cuda=cuda)
    except LexError:
        return
    assert toks[-1].kind == "eof"
    assert all(t.kind != "eof" for t in toks[:-1])


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_int_literal_roundtrip(n):
    v, _, _ = parse_int_literal(str(n))
    assert v == n


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126,
                                      exclude_characters='"\\'), max_size=30))
def test_string_unescape_plain(s):
    assert unescape_string(f'"{s}"') == s


@given(st.lists(st.sampled_from(
    ["x", "42", "3.5f", "+", "-", "*", "/", "(", ")", ";", "if", "<<", ">>"]),
    max_size=40))
def test_lexer_never_crashes_on_valid_fragments(parts):
    src = " ".join(parts)
    toks = tokenize(src)
    assert toks[-1].kind == "eof"
    # whitespace-separated fragments tokenize one-to-one
    assert len(toks) - 1 == len(parts)
