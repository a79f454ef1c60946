"""Error-path coverage: every Table-3 failure category, plus batch
reporting.

Two sources of evidence per category: a minimal handcrafted program that
uses exactly one offending construct, and the corpus apps whose
``fail_category`` documents the same expectation.  The batch pipeline
must report each failure on its own job while completing the rest.
"""

from __future__ import annotations

import pytest

from repro.apps.base import all_apps, get_app
from repro.clike import parse
from repro.errors import LexError, TranslationNotSupported
from repro.pipeline import TranslationJob, translate_many
from repro.translate.analyzer import analyze_cuda_source
from repro.translate.api import (translate_cuda_program,
                                 translate_opencl_program)
from repro.translate.categories import (ALL_CATEGORIES, CAT_LANG, CAT_LIBS,
                                        CAT_NO_FUNC, CAT_OPENGL, CAT_PTX,
                                        CAT_UVA)
from repro.translate.diagnostics import SEV_ERROR

#: one minimal untranslatable program per Table-3 category
MINIMAL_BY_CATEGORY = {
    CAT_LANG: "class Foo { int x; };\nint main() { return 0; }",
    CAT_PTX: 'int main() { asm("mov.b32 r0, r1;"); return 0; }',
    CAT_OPENGL: "int main() { glutInit(0, 0); return 0; }",
    CAT_UVA: "int main() { cudaHostGetDevicePointer(0, 0, 0); return 0; }",
    CAT_LIBS: "#include <cufft.h>\nint main() { return 0; }",
    CAT_NO_FUNC: ("__global__ void k(int* a) { a[0] = warpSize; }\n"
                  "int main() { return 0; }"),
}


def test_every_category_has_a_minimal_program():
    assert sorted(MINIMAL_BY_CATEGORY) == sorted(ALL_CATEGORIES)


@pytest.mark.parametrize("category", ALL_CATEGORIES)
def test_minimal_program_raises_with_category(category):
    with pytest.raises(TranslationNotSupported) as exc:
        translate_cuda_program(MINIMAL_BY_CATEGORY[category])
    assert exc.value.category == category
    assert exc.value.feature          # names the offending construct


@pytest.mark.parametrize("category", ALL_CATEGORIES)
def test_minimal_program_failure_is_located(category):
    """The exception carries a category-tagged diagnostic whose span
    points into the offending source (line:col also land on the
    exception itself and in its message)."""
    src = MINIMAL_BY_CATEGORY[category]
    with pytest.raises(TranslationNotSupported) as exc:
        translate_cuda_program(src)
    e = exc.value
    d = e.diagnostic
    assert d is not None
    assert d.severity == SEV_ERROR
    assert d.category == category
    assert d.span.known
    assert e.line == d.span.line > 0
    assert e.col == d.span.col > 0
    assert e.line <= src.count("\n") + 1
    assert f"(at line {e.line}, col {e.col})" in str(e)


def test_located_diagnostic_points_at_offending_token():
    """Golden location check: the caret lands exactly on ``warpSize``."""
    src = MINIMAL_BY_CATEGORY[CAT_NO_FUNC]
    with pytest.raises(TranslationNotSupported) as exc:
        translate_cuda_program(src)
    e = exc.value
    line = src.splitlines()[e.line - 1]
    assert line[e.col - 1:].startswith("warpSize")
    rendered = e.diagnostic.render(src)
    assert f"--> line {e.line}, col {e.col}" in rendered
    # caret sits under the token in the snippet gutter
    snippet_line, caret_line = [
        ln for ln in rendered.splitlines() if " | " in ln]
    pos = snippet_line.index("warpSize")
    assert caret_line[pos] == "^"


#: device printf calls and where the finding must point: at the callee
CALL_FINDINGS = [
    ('__global__ void k(int* o) {\n  printf("%d", o[0]);\n}', (2, 3)),
    # split across lines: the callee's line, not the closing parenthesis's
    ('__global__ void k(int* o) {\n  printf("%d",\n         o[0]);\n}',
     (2, 3)),
    (get_app("toolkit", "simplePrintf").cuda_source, (3, 3)),
]


@pytest.mark.parametrize("src,loc", CALL_FINDINGS,
                         ids=["one-line", "split", "simplePrintf"])
def test_call_finding_is_located_at_the_callee(src, loc):
    findings = analyze_cuda_source(src)
    assert [(f.feature, (f.line, f.col)) for f in findings] == [
        ("printf", loc)]
    with pytest.raises(TranslationNotSupported) as exc:
        translate_cuda_program(src, cache=None)
    assert (exc.value.feature, (exc.value.line, exc.value.col)) == (
        "printf", loc)


#: corpus apps the translatability check rejects, with the feature it
#: reports: two pass the lexical prescan but do not parse, one it flags
CHECK_BLOCKERS = [
    ("toolkit", "reduction", "unparseable C++ construct"),
    ("toolkit", "threadFenceReduction", "unparseable C++ construct"),
    ("rodinia", "dwt2d", "C++ classes in device code"),
]


@pytest.mark.parametrize("suite,name,feature", CHECK_BLOCKERS)
def test_check_pass_reports_corpus_blocker(suite, name, feature):
    """The check pass is the CUDA frontend: a source it cannot parse is
    still a located Table-3 finding, not a frontend crash."""
    with pytest.raises(TranslationNotSupported) as exc:
        translate_cuda_program(get_app(suite, name).cuda_source)
    e = exc.value
    assert (e.category, e.feature) == (CAT_LANG, feature)
    assert e.diagnostic.pass_name == "translatability-check"
    assert e.line > 0 and e.col > 0


#: a non-ASCII letter, which no dialect's identifiers admit
NON_ASCII = "int caf\u00e9 = 1;"


def test_non_ascii_letter_is_a_located_error_at_every_entry_point():
    with pytest.raises(LexError) as lex:
        parse(NON_ASCII, "opencl")
    assert str(lex.value) == "unexpected character '\u00e9' (at line 1, col 8)"
    with pytest.raises(LexError) as ocl:
        translate_opencl_program(NON_ASCII)
    assert (ocl.value.line, ocl.value.col) == (1, 8)
    with pytest.raises(TranslationNotSupported) as cuda:
        translate_cuda_program(NON_ASCII)
    e = cuda.value
    assert (e.category, e.feature) == (CAT_LANG, "unparseable C++ construct")
    assert (e.line, e.col) == (1, 8)
    assert e.diagnostic.pass_name == "translatability-check"


def test_translate_many_files_non_ascii_source_by_direction():
    jobs = [TranslationJob(name=f"bad-{d}", direction=d, source=NON_ASCII)
            for d in ("cuda2ocl", "ocl2cuda")]
    cuda, ocl = translate_many(jobs, parallel=False)
    assert (cuda.error_class, cuda.error_category) == ("unsupported",
                                                       CAT_LANG)
    assert (ocl.error_class, ocl.error_type) == ("framework", "LexError")
    for res in (cuda, ocl):
        assert (res.error_line, res.error_col) == (1, 8)
        assert "unexpected character" in res.error_message


@pytest.mark.parametrize("category", ALL_CATEGORIES)
def test_corpus_covers_category(category):
    """Each category is also exercised by at least one real corpus app,
    and the analyzer agrees with the app's documented expectation."""
    apps = [a for a in all_apps() if a.fail_category == category]
    assert apps, f"no corpus app documents {category!r}"
    app = apps[0]
    with pytest.raises(TranslationNotSupported) as exc:
        translate_cuda_program(app.cuda_source)
    assert exc.value.category == category


def test_translate_many_reports_every_category_and_finishes_batch():
    """One failing job per category interleaved with good jobs: each
    failure lands on its own JobResult with the right category, and all
    good jobs still complete."""
    good = get_app("rodinia", "bfs")
    jobs, expect = [], []
    for i, (category, src) in enumerate(sorted(MINIMAL_BY_CATEGORY.items())):
        jobs.append(TranslationJob(name=good.name, direction="cuda2ocl",
                                   source=good.cuda_source))
        expect.append(None)
        jobs.append(TranslationJob(name=f"bad-{i}", direction="cuda2ocl",
                                   source=src))
        expect.append(category)
    results = translate_many(jobs, parallel=True)
    assert len(results) == len(jobs)
    for res, category in zip(results, expect):
        if category is None:
            assert res.ok, res.error_message
            assert res.device_source
        else:
            assert not res.ok
            assert res.error_type == "TranslationNotSupported"
            assert res.error_category == category
            assert res.error_feature and res.error_message
            # locations survive the (possibly cross-process) batch path
            assert res.error_line > 0 and res.error_col > 0
            assert (f"(at line {res.error_line}, col {res.error_col})"
                    in res.error_message)
