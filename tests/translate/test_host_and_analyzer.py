"""Tests for static host translation (the three constructs, §3.2) and the
translatability analyzer (Table 3)."""

import pytest

from repro.errors import TranslationNotSupported
from repro.translate import (CAT_LANG, CAT_LIBS, CAT_NO_FUNC, CAT_OPENGL,
                             CAT_PTX, CAT_UVA, analyze_cuda_source,
                             analyze_opencl_source, translate_cuda_program)


class TestKernelLaunchTranslation:
    SRC = """
    __global__ void k(float* a, int n) { a[threadIdx.x] = (float)n; }
    int main(void) {
      float* d;
      cudaMalloc((void**)&d, 256);
      k<<<4, 64>>>(d, 16);
      dim3 g(2, 2);
      dim3 b(8, 8);
      k<<<g, b>>>(d, n_elems());
      return 0;
    }
    int n_elems() { return 7; }
    """

    def test_launch_becomes_setargs_and_enqueue(self):
        prog = translate_cuda_program(self.SRC)
        s = prog.host_source
        assert "<<<" not in s
        assert s.count("clEnqueueNDRangeKernel") == 2
        assert "clSetKernelArg(__c2o_kernel_k, 0, sizeof(cl_mem)" in s
        assert "clSetKernelArg(__c2o_kernel_k, 1, sizeof(int)" in s
        assert "__c2o_set_dims" in s
        assert prog.launches_translated == 2

    def test_argument_expressions_go_through_temporaries(self):
        prog = translate_cuda_program(self.SRC)
        # the scalar argument n_elems() must be evaluated into an
        # addressable temporary before clSetKernelArg takes its address
        assert "int __c2o_arg1_1 = n_elems();" in prog.host_source

    def test_wrong_arity_rejected(self):
        bad = ("__global__ void k(float* a) {}\n"
               "int main(void) { k<<<1, 1>>>(0, 1, 2); return 0; }")
        with pytest.raises(Exception):
            translate_cuda_program(bad)


class TestSymbolCopyTranslation:
    SRC = """
    __constant__ float coef[8];
    __global__ void k(float* o) { o[0] = coef[0]; }
    int main(void) {
      float h[8];
      cudaMemcpyToSymbol(coef, h, 8 * sizeof(float));
      cudaMemcpyFromSymbol(h, coef, 8 * sizeof(float), 4);
      return 0;
    }
    """

    def test_to_symbol_becomes_write_buffer(self):
        prog = translate_cuda_program(self.SRC)
        s = prog.host_source
        assert "cudaMemcpyToSymbol" not in s
        assert ("clEnqueueWriteBuffer(__c2o_queue, __c2o_sym_coef, CL_TRUE, "
                "0, 8 * sizeof(float), h" in s)

    def test_from_symbol_becomes_read_buffer_with_offset(self):
        prog = translate_cuda_program(self.SRC)
        assert ("clEnqueueReadBuffer(__c2o_queue, __c2o_sym_coef, CL_TRUE, "
                "4, 8 * sizeof(float), h" in prog.host_source)
        assert prog.symbol_copies_translated == 2

    def test_everything_else_untouched(self):
        # the hybrid principle (§3.2): only the three constructs change
        prog = translate_cuda_program("""
        __global__ void k(float* o) { o[0] = 1.0f; }
        int main(void) {
          float* d;
          cudaMalloc((void**)&d, 64);
          cudaMemcpy(d, d, 64, cudaMemcpyDeviceToDevice);
          cudaDeviceSynchronize();
          cudaFree(d);
          return 0;
        }""")
        s = prog.host_source
        for api in ("cudaMalloc", "cudaMemcpy", "cudaDeviceSynchronize",
                    "cudaFree"):
            assert api in s


class TestAnalyzer:
    def _one(self, src):
        findings = analyze_cuda_source(src)
        assert findings, "expected a finding"
        return findings[0]

    def test_clean_program_passes(self):
        assert analyze_cuda_source(
            "__global__ void k(float* o) { o[threadIdx.x] = 1.0f; }\n"
            "int main(void) { return 0; }") == []

    @pytest.mark.parametrize("snippet,cat", [
        ("__global__ void k(int* o) { o[0] = __shfl(o[0], 0); }", CAT_NO_FUNC),
        ("__global__ void k(int* o) { o[0] = __any(1); }", CAT_NO_FUNC),
        ("__global__ void k(long long* o) { o[0] = clock64(); }", CAT_NO_FUNC),
        ("__global__ void k(int* o) { assert(o[0] > 0); }", CAT_NO_FUNC),
        ("__global__ void k(unsigned int* o) { atomicInc(o, 7u); }",
         CAT_NO_FUNC),
        ("int main(void) { size_t f, t; cudaMemGetInfo(&f, &t); return 0; }",
         CAT_NO_FUNC),
        ('__global__ void k(int* o) { printf("%d", o[0]); }', CAT_LANG),
    ])
    def test_no_counterpart_category(self, snippet, cat):
        assert self._one(snippet).category == cat

    @pytest.mark.parametrize("snippet,cat", [
        ("#include <thrust/sort.h>\nint main(void){return 0;}", CAT_LIBS),
        ("#include <cufft.h>\nint main(void){return 0;}", CAT_LIBS),
        ("#include <GL/glut.h>\nint main(void){return 0;}", CAT_OPENGL),
        ("int main(void){ glutInit(0, 0); return 0; }", CAT_OPENGL),
        ("int main(void){ asm(); return 0; }", CAT_PTX),
        ("int main(void){ cuModuleLoad(0, 0); return 0; }", CAT_PTX),
        ("int main(void){ cudaHostGetDevicePointer(0, 0, 0); return 0; }",
         CAT_UVA),
        ("int main(void){ int x = cudaHostAllocMapped; return 0; }", CAT_UVA),
        ("class Foo { int x; };\nint main(void){return 0;}", CAT_LANG),
    ])
    def test_lexical_categories(self, snippet, cat):
        assert self._one(snippet).category == cat

    def test_struct_with_pointers_as_kernel_arg(self):
        # the heartwall failure (§6.3)
        f = self._one("""
        typedef struct Args { float* data; int n; } Args;
        __global__ void k(Args a) { a.data[0] = 1.0f; }
        int main(void) { return 0; }
        """)
        assert f.category == CAT_LANG
        assert "pointer" in f.feature

    def test_oversized_1d_texture(self):
        # kmeans/leukocyte/hybridsort (§5): 2^28 texels > 65536 image width
        f = self._one("""
        #define N 268435456
        texture<float, 1, cudaReadModeElementType> tx;
        __global__ void k(float* o) { o[0] = tex1Dfetch(tx, 0); }
        int main(void) {
          float* d;
          cudaMalloc((void**)&d, N * 4);
          cudaBindTexture(NULL, tx, d, N * 4);
          return 0;
        }""")
        assert f.category == CAT_LANG
        assert "texture" in f.feature

    def test_small_1d_texture_ok(self):
        assert analyze_cuda_source("""
        texture<float, 1, cudaReadModeElementType> tx;
        __global__ void k(float* o) { o[0] = tex1Dfetch(tx, 0); }
        int main(void) {
          float* d;
          cudaMalloc((void**)&d, 1024);
          cudaBindTexture(NULL, tx, d, 1024);
          return 0;
        }""") == []

    def test_translate_rejects_untranslatable(self):
        with pytest.raises(TranslationNotSupported) as ei:
            translate_cuda_program(
                "__global__ void k(int* o) { o[0] = __ballot(1); }\n"
                "int main(void) { return 0; }")
        assert ei.value.category == CAT_NO_FUNC

    def test_translation_parses_once(self, monkeypatch):
        """The check pass parses the source, and the rewrites take the
        unit it analyzed."""
        from repro.apps.base import get_app
        from repro.clike.parser import Parser
        made = []
        init = Parser.__init__

        def counting(parser, *args, **kwargs):
            made.append(args[0])
            init(parser, *args, **kwargs)

        monkeypatch.setattr(Parser, "__init__", counting)
        prog = translate_cuda_program(get_app("rodinia", "bfs").cuda_source)
        assert len(made) == 1
        assert [p.name for p in prog.pass_stats.passes][:2] == [
            "translatability-check", "annotate"]

    GUARDED_PRINTF = (
        "__global__ void k(int* o) {\n"
        "  o[threadIdx.x] = 1;\n"
        "#ifdef DBG\n"
        '  printf("%d", o[0]);\n'
        "#endif\n"
        "}\n"
        "int main(void) { return 0; }\n")

    def test_analysis_sees_build_defines(self):
        """The build defines reach the analysis: a device printf under
        ``#ifdef DBG`` is the Table-3 printf finding when DBG is set."""
        assert translate_cuda_program(self.GUARDED_PRINTF).device_source
        with pytest.raises(TranslationNotSupported) as ei:
            translate_cuda_program(self.GUARDED_PRINTF,
                                   defines={"DBG": "1"})
        e = ei.value
        assert (e.category, e.feature) == (CAT_LANG, "printf")
        assert e.diagnostic.pass_name == "translatability-check"
        assert e.line == 4

    def test_multiple_findings_deduplicated(self):
        findings = analyze_cuda_source("""
        __global__ void a(int* o) { o[0] = __shfl(o[0], 0); }
        __global__ void b(int* o) { o[0] = __shfl(o[0], 1); }
        int main(void) { return 0; }
        """)
        assert len([f for f in findings if f.feature == "__shfl"]) == 1


class TestOpenCLDirectionAnalyzer:
    def test_subdevices_flagged(self):
        findings = analyze_opencl_source(
            "int main(void) { clCreateSubDevices(0,0,0,0,0); return 0; }",
            "__kernel void k() {}")
        assert findings and findings[0].category == CAT_NO_FUNC
        assert "fission" in findings[0].feature

    def test_svm_flagged(self):
        findings = analyze_opencl_source(
            "int main(void) { void* p = clSVMAlloc(0, 0, 64, 0); return 0; }",
            "__kernel void k() {}")
        assert findings

    def test_clean_passes(self):
        assert analyze_opencl_source(
            "int main(void) { return 0; }",
            "__kernel void k(__global int* o) { o[0] = 1; }") == []
