"""A translation leaves no reference cycles behind.

Garbage in a cycle outlives the call that made it until the collector's
next full pass; a translation's cycles would hold its pass context and,
through it, the whole AST.  With the collector off, translating every
corpus job must leave nothing for ``gc.collect()`` to find.
"""

from __future__ import annotations

import gc

from repro.harness.runner import corpus_jobs
from repro.translate.api import (translate_cuda_program,
                                 translate_opencl_program)


def test_uncached_corpus_translations_leave_no_cycles():
    jobs = corpus_jobs()
    assert len(jobs) == 93
    gc.collect()
    gc.disable()
    try:
        for job in jobs:
            if job.direction == "cuda2ocl":
                translate_cuda_program(job.source, cache=None)
            else:
                translate_opencl_program(job.source, job.host_source,
                                         cache=None)
        assert gc.collect() == 0
    finally:
        gc.enable()
