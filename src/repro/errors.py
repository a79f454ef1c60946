"""Exception hierarchy for the repro package.

Every error raised by the framework derives from :class:`ReproError` so that
callers can catch framework problems without swallowing programming errors.
The hierarchy mirrors the major subsystems: the C-like frontend, the
simulated device, the OpenCL/CUDA host frameworks, and the translator.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro framework."""


# ---------------------------------------------------------------------------
# Frontend (lexer / parser / semantic analysis)
# ---------------------------------------------------------------------------

class FrontendError(ReproError):
    """Base class for errors in the C-like frontend."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        self.line = line
        self.col = col
        if line:
            message = f"{message} (at line {line}, col {col})"
        super().__init__(message)


class LexError(FrontendError):
    """Raised when the lexer encounters an invalid token."""


class ParseError(FrontendError):
    """Raised when the parser encounters invalid syntax."""


class SemaError(FrontendError):
    """Raised by semantic analysis (type errors, undefined names)."""


# ---------------------------------------------------------------------------
# Interpreter / simulated device
# ---------------------------------------------------------------------------

class InterpError(ReproError):
    """Raised when interpreted C code performs an invalid operation."""


class DeviceError(ReproError):
    """Raised by the simulated device (bad launch config, OOM, ...)."""


class MemoryFault(DeviceError):
    """Out-of-bounds or misaligned access to a simulated memory pool."""


class CrossLaneHazard(Exception):
    """A warp-batched launch reordered two lanes' conflicting accesses;
    the engine undoes the launch and re-runs it on the scalar tier.
    Never leaves the engine."""

    def __init__(self, base: str) -> None:
        super().__init__(base)
        #: the name of the memory the two accesses shared
        self.base = base


# ---------------------------------------------------------------------------
# Host frameworks
# ---------------------------------------------------------------------------

class OclError(ReproError):
    """An OpenCL host API error; carries the CL error code."""

    def __init__(self, code: int, message: str = "") -> None:
        self.code = code
        super().__init__(f"OpenCL error {code}: {message}")


class CudaApiError(ReproError):
    """A CUDA host API error; carries the cudaError/CUresult code."""

    def __init__(self, code: int, message: str = "") -> None:
        self.code = code
        super().__init__(f"CUDA error {code}: {message}")


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

class TranslationError(ReproError):
    """Base class for translation failures.

    ``diagnostic`` (when present) is a
    :class:`repro.translate.diagnostics.Diagnostic` carrying the severity,
    Table-3 category, and source span of the failing construct; ``line`` /
    ``col`` mirror its span (0 when unlocated) so callers need not import
    the diagnostics module.
    """

    def __init__(self, message: str, diagnostic=None) -> None:
        self.diagnostic = diagnostic
        span = getattr(diagnostic, "span", None)
        self.line: int = getattr(span, "line", 0)
        self.col: int = getattr(span, "col", 0)
        if self.line:
            message = f"{message} (at line {self.line}, col {self.col})"
        super().__init__(message)


class TranslationNotSupported(TranslationError):
    """A program uses a feature the other model cannot express.

    ``category`` is one of the Table 3 failure categories (see
    :mod:`repro.translate.analyzer`), ``feature`` names the specific
    construct that triggered the failure.
    """

    def __init__(self, category: str, feature: str, detail: str = "",
                 diagnostic=None) -> None:
        self.category = category
        self.feature = feature
        self.detail = detail
        msg = f"untranslatable [{category}]: {feature}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg, diagnostic)


class PassOrderError(ReproError):
    """A translation pass was registered before one it depends on (or
    twice); raised by :class:`repro.translate.passes.PassManager`."""


# ---------------------------------------------------------------------------
# Batch pipeline
# ---------------------------------------------------------------------------

class BatchError(ReproError):
    """Base class for batch-pipeline infrastructure failures.

    These describe the *execution* of a job (the worker died, the job ran
    out of wall-clock), never the translation itself; ``translate_many``
    reports them as structured :class:`~repro.pipeline.batch.JobResult`
    fields instead of raising, so one bad job cannot abort a corpus run.
    """


class JobTimeout(BatchError):
    """A batch job exceeded its per-job wall-clock timeout."""

    def __init__(self, job_name: str, seconds: float) -> None:
        self.job_name = job_name
        self.seconds = seconds
        super().__init__(f"job {job_name!r} exceeded the per-job "
                         f"timeout of {seconds:g}s")


class WorkerCrash(BatchError):
    """The worker process running a batch job died unexpectedly.

    Also raised (in-process) by the fault-injection ``crash`` action when
    the batch runs serially, where killing a real worker is impossible.
    """
