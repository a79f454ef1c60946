"""Pass-manager infrastructure shared by both translation directions.

The paper structures its translator as an ordered sequence of clang AST
rewrites (qualifiers → built-ins → vectors → shared/constant packing →
address spaces, §3–§5).  This module gives the reproduction the same
shape: a :class:`Pass` is one named, independently runnable rewrite stage;
a :class:`PassManager` runs a registered, dependency-checked pass list
over a shared :class:`PassContext`; and :class:`PassStats` records where
translation time actually goes (per-pass wall time, node visits, rewrite
counts) so the harness and the ``bench_passes`` benchmark can render a
timing table next to the cache stats.

The direction modules (:mod:`repro.translate.ocl2cuda.kernel`,
:mod:`repro.translate.cuda2ocl.kernel`, :mod:`repro.translate.cuda2ocl.host`)
define the concrete passes; :mod:`repro.translate.api` assembles them into
full pipelines (translatability check and parse → rewrites → emit).

Located failures flow through the context: ``ctx.not_supported(...)`` and
``ctx.error(...)`` build a :class:`~repro.translate.diagnostics.Diagnostic`
with the source span of the offending node, append it to the shared
diagnostic stream, and raise the matching exception carrying it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, List, NoReturn, Optional, Sequence,
                    Tuple)

from ..clike import ast as A
from ..errors import PassOrderError, TranslationError, TranslationNotSupported
from ..observability import get_tracer
from . import common
from .diagnostics import (SEV_ERROR, SEV_NOTE, SEV_WARNING, Diagnostic,
                          SourceSpan, span_of)

__all__ = ["Pass", "PassContext", "PassManager", "PassStats",
           "PipelineStats", "aggregate_stats"]


# ---------------------------------------------------------------------------
# instrumentation records
# ---------------------------------------------------------------------------

@dataclass
class PassStats:
    """Instrumentation for one pass execution (or an aggregate of many)."""

    name: str
    wall_s: float = 0.0
    visits: int = 0            # AST nodes examined by the rewrite helpers
    rewrites: int = 0          # nodes replaced / statements expanded
    diagnostics: int = 0       # diagnostics emitted
    calls: int = 1             # executions folded into this record

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "wall_s": round(self.wall_s, 6),
                "visits": self.visits, "rewrites": self.rewrites,
                "diagnostics": self.diagnostics, "calls": self.calls}


@dataclass
class PipelineStats:
    """Ordered per-pass stats for one pipeline run (or an aggregate)."""

    pipeline: str
    passes: List[PassStats] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(p.wall_s for p in self.passes)

    def by_name(self, name: str) -> Optional[PassStats]:
        for p in self.passes:
            if p.name == name:
                return p
        return None

    def as_dict(self) -> Dict[str, Any]:
        return {"pipeline": self.pipeline,
                "total_s": round(self.total_s, 6),
                "passes": [p.as_dict() for p in self.passes]}


def aggregate_stats(runs: Iterable[Optional[PipelineStats]],
                    pipeline: str = "aggregate") -> PipelineStats:
    """Fold many pipeline runs into one record, summing by pass name
    (first-seen order preserved); ``None`` entries are skipped."""
    out = PipelineStats(pipeline)
    index: Dict[str, PassStats] = {}
    for run in runs:
        if run is None:
            continue
        for p in run.passes:
            tgt = index.get(p.name)
            if tgt is None:
                tgt = PassStats(p.name, 0.0, 0, 0, 0, 0)
                index[p.name] = tgt
                out.passes.append(tgt)
            tgt.wall_s += p.wall_s
            tgt.visits += p.visits
            tgt.rewrites += p.rewrites
            tgt.diagnostics += p.diagnostics
            tgt.calls += p.calls
    return out


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------

class PassContext:
    """Shared state threaded through a pipeline run.

    ``source``/``dialect``/``defines`` describe the input program;
    ``unit`` is the working translation unit (set by a parse pass or by
    the caller); ``state`` is the inter-pass scratch dictionary;
    ``diagnostics`` is the shared diagnostic stream.  The ``visits`` /
    ``rewrites`` counters are bumped by the traversal helpers in
    :mod:`repro.translate.common` while a pass runs.
    """

    def __init__(self, source: str = "", dialect: str = "",
                 unit: Optional[A.TranslationUnit] = None,
                 defines: Optional[Dict[str, str]] = None) -> None:
        self.source = source
        self.dialect = dialect
        self.unit = unit
        self.defines = defines
        self.state: Dict[str, Any] = {}
        self.diagnostics: List[Diagnostic] = []
        self.visits = 0
        self.rewrites = 0
        self.current_pass = ""

    # -- diagnostics ---------------------------------------------------------

    def diag(self, severity: str, message: str, *,
             category: Optional[str] = None,
             node: Optional[A.Node] = None,
             span: Optional[SourceSpan] = None,
             detail: str = "") -> Diagnostic:
        """Append (and return) a diagnostic located at ``node``/``span``."""
        d = Diagnostic(severity, message, category=category,
                       span=span if span is not None else span_of(node),
                       pass_name=self.current_pass, detail=detail)
        self.diagnostics.append(d)
        return d

    def not_supported(self, category: str, feature: str, detail: str = "",
                      node: Optional[A.Node] = None,
                      span: Optional[SourceSpan] = None) -> NoReturn:
        """Emit a located error diagnostic and raise
        :class:`TranslationNotSupported` carrying it."""
        d = self.diag(SEV_ERROR, feature, category=category, node=node,
                      span=span, detail=detail)
        raise TranslationNotSupported(category, feature, detail, diagnostic=d)

    def error(self, message: str, node: Optional[A.Node] = None,
              span: Optional[SourceSpan] = None) -> NoReturn:
        """Emit a located error diagnostic and raise
        :class:`TranslationError` carrying it."""
        d = self.diag(SEV_ERROR, message, node=node, span=span)
        raise TranslationError(message, diagnostic=d)

    def rendered_diagnostics(self) -> str:
        """All diagnostics rendered with caret snippets from ``source``."""
        return "\n\n".join(d.render(self.source) for d in self.diagnostics)


# ---------------------------------------------------------------------------
# passes and the manager
# ---------------------------------------------------------------------------

class Pass:
    """One named rewrite stage.

    Subclasses set ``name`` (unique within a pipeline), ``requires`` (names
    of passes that must be registered earlier), optionally ``paper`` (the
    paper section the stage reproduces), and implement :meth:`run`.
    ``requires`` can be overridden per instance for passes reused across
    pipelines with different predecessors.
    """

    name: str = "?"
    requires: Tuple[str, ...] = ()
    paper: str = ""

    def __init__(self, requires: Optional[Sequence[str]] = None) -> None:
        if requires is not None:
            self.requires = tuple(requires)

    def run(self, ctx: PassContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        req = f" requires={list(self.requires)}" if self.requires else ""
        return f"<Pass {self.name}{req}>"


class ParsePass(Pass):
    """Frontend: ``ctx.source`` → ``ctx.unit`` (counted like any rewrite
    stage, so parse time shows up in the timing table)."""

    name = "parse"

    def run(self, ctx: PassContext) -> None:
        from ..clike import parse
        ctx.unit = parse(ctx.source, ctx.dialect, defines=ctx.defines)


class AnnotatePass(Pass):
    """Semantic annotation of ``ctx.unit`` in its dialect."""

    name = "annotate"

    def run(self, ctx: PassContext) -> None:
        from ..clike.sema import annotate_unit
        assert ctx.unit is not None, "annotate requires a parsed unit"
        annotate_unit(ctx.unit, ctx.dialect)


class PassManager:
    """Runs an ordered, dependency-validated pass list over a context.

    Registration enforces the declared ordering: a pass naming another in
    ``requires`` cannot be registered before it (:class:`PassOrderError`),
    and duplicate names are rejected.  :meth:`run` times every pass and
    returns a :class:`PipelineStats`; when a pass raises, the partial
    stats (including the failing pass) are stored on the exception as
    ``pass_stats`` so failed translations still report where time went.
    """

    def __init__(self, pipeline: str,
                 passes: Sequence[Pass] = ()) -> None:
        self.pipeline = pipeline
        self._passes: List[Pass] = []
        self._names: set = set()
        for p in passes:
            self.register(p)

    @property
    def passes(self) -> List[Pass]:
        return list(self._passes)

    def pass_names(self) -> List[str]:
        return [p.name for p in self._passes]

    def register(self, p: Pass) -> "PassManager":
        if p.name in self._names:
            raise PassOrderError(
                f"pass {p.name!r} registered twice in pipeline "
                f"{self.pipeline!r}")
        missing = [r for r in p.requires if r not in self._names]
        if missing:
            raise PassOrderError(
                f"pass {p.name!r} requires {missing} to be registered "
                f"before it in pipeline {self.pipeline!r} "
                f"(registered so far: {sorted(self._names)})")
        self._passes.append(p)
        self._names.add(p.name)
        return self

    def run(self, ctx: PassContext) -> PipelineStats:
        stats = PipelineStats(self.pipeline)
        tracer = get_tracer()
        prev = common._INSTR.ctx
        common._INSTR.ctx = ctx
        try:
            for p in self._passes:
                ctx.current_pass = p.name
                v0, r0, d0 = ctx.visits, ctx.rewrites, len(ctx.diagnostics)
                t0 = time.perf_counter()
                try:
                    with tracer.span(f"pass:{p.name}",
                                     pipeline=self.pipeline) as span:
                        p.run(ctx)
                finally:
                    rec = PassStats(
                        p.name, time.perf_counter() - t0,
                        ctx.visits - v0, ctx.rewrites - r0,
                        len(ctx.diagnostics) - d0)
                    stats.passes.append(rec)
                    # the span absorbs the PassStats counters, so one
                    # trace file carries the whole timing table
                    span.set(visits=rec.visits, rewrites=rec.rewrites,
                             diagnostics=rec.diagnostics)
        except Exception as e:
            if getattr(e, "pass_stats", None) is None:
                try:
                    e.pass_stats = stats  # type: ignore[attr-defined]
                except AttributeError:
                    pass
            raise
        finally:
            common._INSTR.ctx = prev
            ctx.current_pass = ""
        ctx.state["pass_stats"] = stats
        return stats
