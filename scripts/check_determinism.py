#!/usr/bin/env python
"""Translate the whole corpus twice — serial and parallel — and diff.

The determinism gate for the translation pipeline: every corpus app is
translated in both applicable directions, once serially in-process and
once fanned out over the process pool, and the emitted
``host_source``/``device_source`` — plus every structured ``error_*``
field — must match byte-for-byte.  With ``--runs N`` each mode
additionally repeats N times to catch run-to-run nondeterminism (hash
ordering, id() leakage, ...).

``--fault-plan`` adds a third, fault-injected pooled pass: either an
explicit :mod:`repro.pipeline.faults` spec string or the literal
``smoke``, which targets four direction-unique corpus jobs with one
injected exception, one hang (tripping the per-job ``--timeout``), one
worker crash, and one unpicklable result.  Jobs a fault was aimed at may
fail with the matching structured class; every *other* job must still be
byte-identical to the fault-free serial pass — that is the isolation
contract of ``translate_many``.

``--trace`` records the parallel (and fault-injected) passes with a
:class:`repro.observability.Tracer` — the determinism contract extends to
observability: a traced run must emit byte-identical translations.  The
trace itself is *not* part of the diff (spans carry timestamps and are
never deterministic); the flag instead proves tracing has no effect on
results while the span stream stays well-formed.

``--exec-tier`` extends the gate from translation to *execution*: a small
fixed corpus subset runs natively and through both translation
directions under the requested tier(s) (host programs lowered to
generated code under every tier but ``interp``), and stdout, modeled
time, and the per-category time breakdown are diffed across tiers
(``both`` compares ``compiled`` against ``interp``; ``all``
additionally diffs the warp-vectorized ``vector`` tier), not just
across runs — the generated-tier equivalence contract of
``repro.clike.compile`` and ``repro.clike.vectorize``.

``--farm`` extends the gate to the device-farm tier: the default
portability matrix and the corpus farm schedule are each built twice from
scratch (fresh profile captures included) and their rendered text must
match byte-for-byte — a matrix cell or placement that moves between runs
would make the published fleet comparison unreproducible.

``--debug`` extends the gate to the interactive debugger
(``repro.debug``): a fixed pair of scripted sessions — the FT
bank-conflict walk and a gaussian stepping session through the
forced-demotion path — is replayed twice from scratch and the full
transcripts (stop reports, bank views, program output) must match
byte-for-byte, the property the golden suite under ``tests/debug/``
assumes.

Exit status 0 on success, 1 on any divergence.  Run from the repo root::

    PYTHONPATH=src python scripts/check_determinism.py
    PYTHONPATH=src python scripts/check_determinism.py --fault-plan smoke --trace
    PYTHONPATH=src python scripts/check_determinism.py --exec-tier both
    PYTHONPATH=src python scripts/check_determinism.py --farm
    PYTHONPATH=src python scripts/check_determinism.py --debug
"""

from __future__ import annotations

import argparse
import difflib
import sys
import time
from collections import Counter

from repro.device.engine import EXEC_TIERS

#: structured fields compared per job, in print order
FIELDS = ("ok", "error_type", "error_class", "error_category",
          "error_message", "error_traceback", "host_source", "device_source")

#: faulted jobs may land in one of these classes instead of succeeding
FAULT_CLASSES = ("internal", "timeout", "crash")


def snapshot(results):
    out = {}
    for r in results:
        out[(r.job.name, r.job.direction)] = tuple(
            getattr(r, f) for f in FIELDS)
    return out


def diff_snapshots(label_a, snap_a, label_b, snap_b, ignore=()) -> int:
    problems = 0
    for key in sorted(set(snap_a) | set(snap_b)):
        if key in ignore:
            continue
        a, b = snap_a.get(key), snap_b.get(key)
        if a == b:
            continue
        problems += 1
        name, direction = key
        print(f"DIVERGENCE {name} [{direction}] between {label_a} "
              f"and {label_b}:")
        if a is None or b is None:
            print(f"  present only in {label_a if b is None else label_b}")
            continue
        for part, av, bv in zip(FIELDS, a, b):
            if av == bv:
                continue
            if part in ("host_source", "device_source"):
                udiff = difflib.unified_diff(
                    (av or "").splitlines(), (bv or "").splitlines(),
                    lineterm="", n=1)
                print(f"  {part} differs:")
                for line in list(udiff)[:12]:
                    print(f"    {line}")
            else:
                print(f"  {part}: {av!r} vs {bv!r}")
    return problems


def build_plan(spec, jobs):
    from repro.pipeline import FaultPlan
    if spec != "smoke":
        return FaultPlan.parse(spec)
    # fault targets are fnmatch patterns over the job *name*, so the smoke
    # plan must aim at names carrying exactly one job (one direction)
    counts = Counter(j.name for j in jobs)
    unique = [j.name for j in jobs if counts[j.name] == 1]
    return FaultPlan.smoke(unique)


def check_fault_pass(serial, faulted, plan) -> int:
    """The isolation contract: only jobs a fault was aimed at may deviate
    from the fault-free serial snapshot, and then only into a structured
    failure class — never into different translated sources."""
    targeted = lambda name: any(a.matches(name) for a in plan.actions)
    impacted, problems = [], 0
    for key in sorted(serial):
        name, _ = key
        a, b = serial[key], faulted.get(key)
        if a == b:
            continue
        ok_idx, cls_idx = FIELDS.index("ok"), FIELDS.index("error_class")
        if targeted(name) and b is not None and not b[ok_idx] \
                and b[cls_idx] in FAULT_CLASSES:
            impacted.append((name, b[cls_idx]))
            continue
        problems += diff_snapshots("serial", {key: a},
                                   "fault-injected", {key: b})
    shown = ", ".join(f"{n} [{c}]" for n, c in impacted) or "none"
    print(f"fault-impacted jobs (expected): {shown}")
    if not any(a.kind == "fail" for a in plan.actions):
        return problems
    if not any(cls == "internal" for _, cls in impacted):
        print("FAILED: the injected 'fail' fault left no trace — "
              "injection did not run")
        problems += 1
    return problems


#: the execution smoke plan: kernel-heavy corpus apps with barriers, local
#: memory, and (FT) multi-kernel launches — small enough to run in seconds.
#: hybridsort (atomics in both dialects) and BlackScholes (sqrtf/expf)
#: make builtin calls from generated kernels; matrixMul and oclMatrixMul
#: bind array types in both sections of their generated modules; srad's
#: srad2 trips the vector tier's cross-lane hazard guard, hotspot's
#: guarded loads sit in varying conditionals' arms and bfs's in a varying
#: ``&&``'s rhs
EXEC_SMOKE_APPS = (("npb", "FT"), ("rodinia", "gaussian"),
                   ("rodinia", "nw"), ("toolkit", "vectorAdd"),
                   ("rodinia", "hybridsort"), ("toolkit", "BlackScholes"),
                   ("toolkit", "matrixMul"), ("toolkit", "oclMatrixMul"),
                   ("rodinia", "srad"), ("rodinia", "hotspot"),
                   ("rodinia", "bfs"))

#: RunResult fields compared across execution tiers
EXEC_FIELDS = ("ok", "exit_code", "stdout", "sim_time", "breakdown",
               "api_calls", "kernel_launches")


def exec_snapshot(tier):
    """Run the execution smoke plan under one tier: natively and through
    both translation directions (wrapper-backed ``ocl2cuda``, statically
    rewritten ``cuda2ocl`` host programs)."""
    from repro.apps.base import all_apps
    from repro.harness import (run_cuda_app, run_cuda_translated,
                               run_opencl_app, run_opencl_translated)
    by_key = {(a.suite, a.name): a for a in all_apps()}
    snap = {}
    for suite, name in EXEC_SMOKE_APPS:
        app = by_key.get((suite, name))
        if app is None:
            continue
        plan = []
        if app.has_opencl:
            args = (app.name, app.opencl_host, app.opencl_kernels)
            plan += [("ocl-native", run_opencl_app, args),
                     ("ocl2cuda", run_opencl_translated, args)]
        if app.has_cuda and app.cuda_runs_natively:
            args = (app.name, app.cuda_source)
            plan.append(("cuda-native", run_cuda_app, args))
            if app.cuda_translatable:
                plan.append(("cuda2ocl", run_cuda_translated, args))
        for mode, run, args in plan:
            r = run(*args, exec_tier=tier)
            snap[(f"{suite}/{name}", mode)] = tuple(
                getattr(r, f) for f in EXEC_FIELDS)
    return snap


def diff_exec_snapshots(label_a, snap_a, label_b, snap_b) -> int:
    problems = 0
    for key in sorted(set(snap_a) | set(snap_b)):
        a, b = snap_a.get(key), snap_b.get(key)
        if a == b:
            continue
        problems += 1
        name, mode = key
        print(f"EXEC DIVERGENCE {name} [{mode}] between {label_a} and "
              f"{label_b}:")
        if a is None or b is None:
            print(f"  present only in {label_a if b is None else label_b}")
            continue
        for part, av, bv in zip(EXEC_FIELDS, a, b):
            if av != bv:
                print(f"  {part}: {av!r} vs {bv!r}")
    return problems


def check_exec_tiers(tier, runs) -> int:
    """Run the execution smoke plan under the requested tier(s); diff
    across tiers (for ``both``) and across repeat runs."""
    if tier == "all":
        tiers = list(EXEC_TIERS)
    elif tier == "both":
        tiers = ["interp", "compiled"]
    else:
        tiers = [tier]
    t0 = time.perf_counter()
    snaps = {t: exec_snapshot(t) for t in tiers}
    base_tier = tiers[0]
    base = snaps[base_tier]
    print(f"execution pass ({'+'.join(tiers)}): "
          f"{len(base)} app runs, {time.perf_counter() - t0:.2f}s")
    problems = 0
    for other in tiers[1:]:
        problems += diff_exec_snapshots(base_tier, base, other, snaps[other])
    for i in range(runs - 1):
        rerun = exec_snapshot(base_tier)
        problems += diff_exec_snapshots(base_tier, base,
                                        f"{base_tier}-rerun-{i + 2}", rerun)
    return problems


def farm_snapshot():
    """Build the portability matrix and the corpus schedule from scratch
    (fresh profile store, fresh captures) and render both."""
    from repro.farm.fleet import default_fleet
    from repro.farm.matrix import build_matrix, corpus_farm_jobs, \
        render_matrix
    from repro.farm.profile import ProfileStore
    from repro.farm.scheduler import FarmScheduler, render_schedule
    fleet = default_fleet()
    store = ProfileStore()
    matrix_text = render_matrix(build_matrix(fleet=fleet, store=store))
    jobs = corpus_farm_jobs(store=store)
    schedule_text = render_schedule(FarmScheduler(fleet).plan(jobs))
    return {"matrix": matrix_text, "schedule": schedule_text}


def check_farm(runs) -> int:
    """The farm byte-stability contract: two independent builds of the
    matrix and the schedule render identical bytes."""
    t0 = time.perf_counter()
    base = farm_snapshot()
    print(f"farm pass 1: {len(base['matrix'].splitlines())}-line matrix, "
          f"{len(base['schedule'].splitlines())}-line schedule, "
          f"{time.perf_counter() - t0:.2f}s")
    problems = 0
    for i in range(max(2, runs + 1) - 1):
        t0 = time.perf_counter()
        rerun = farm_snapshot()
        print(f"farm pass {i + 2}: {time.perf_counter() - t0:.2f}s")
        for part in ("matrix", "schedule"):
            if base[part] == rerun[part]:
                continue
            problems += 1
            print(f"FARM DIVERGENCE in rendered {part} "
                  f"(pass 1 vs pass {i + 2}):")
            udiff = difflib.unified_diff(
                base[part].splitlines(), rerun[part].splitlines(),
                lineterm="", n=1)
            for line in list(udiff)[:16]:
                print(f"  {line}")
    return problems


#: the debugger smoke plan: one session per stop flavor — breakpoints +
#: epoch stepping + bank view on FT, lane/warp stepping through the
#: forced-demotion path on gaussian
DEBUG_SMOKE_SESSIONS = (
    ("npb", "FT", "cffts1", None,
     ("break 11", "run", "epoch", "lanes", "print partner",
      "banks lre[partner]", "quit")),
    ("rodinia", "gaussian", "fan1", "vector",
     ("break 5", "run", "locals", "stepw", "continue", "print i",
      "info", "quit")),
)


def debug_snapshot():
    """Replay every debugger smoke session from scratch."""
    from repro.debug.session import run_script
    snap = {}
    for suite, name, kernel, tier, commands in DEBUG_SMOKE_SESSIONS:
        transcript, result = run_script(suite, name, kernel, list(commands),
                                        exec_tier=tier)
        snap[f"{suite}/{name}:{kernel}"] = (transcript, result is not None
                                            and result.ok)
    return snap


def check_debug(runs) -> int:
    """The debugger byte-stability contract: independent replays of the
    scripted sessions emit identical transcripts, and the debugged
    programs still pass their own verification."""
    t0 = time.perf_counter()
    base = debug_snapshot()
    lines = sum(len(t.splitlines()) for t, _ in base.values())
    print(f"debug pass 1: {len(base)} sessions, {lines} transcript lines, "
          f"{time.perf_counter() - t0:.2f}s")
    problems = 0
    for key, (_, ok) in sorted(base.items()):
        if not ok:
            problems += 1
            print(f"DEBUG FAILURE {key}: program did not pass under the "
                  f"debugger")
    for i in range(max(2, runs + 1) - 1):
        t0 = time.perf_counter()
        rerun = debug_snapshot()
        print(f"debug pass {i + 2}: {time.perf_counter() - t0:.2f}s")
        for key in sorted(base):
            if base[key][0] == rerun[key][0]:
                continue
            problems += 1
            print(f"DEBUG DIVERGENCE {key} (pass 1 vs pass {i + 2}):")
            udiff = difflib.unified_diff(
                base[key][0].splitlines(), rerun[key][0].splitlines(),
                lineterm="", n=1)
            for line in list(udiff)[:16]:
                print(f"  {line}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="serial-vs-parallel translation determinism check")
    parser.add_argument("--runs", type=int, default=1,
                        help="extra repetitions per mode (default 1)")
    parser.add_argument("--fault-plan", default=None, metavar="SPEC",
                        help="add a fault-injected pooled pass: a "
                             "repro.pipeline.faults spec, or 'smoke'")
    parser.add_argument("--timeout", type=float, default=2.0,
                        help="per-job timeout of the fault-injected pass "
                             "(default 2.0s)")
    parser.add_argument("--retries", type=int, default=2,
                        help="transient retries of the fault-injected "
                             "pass (default 2)")
    parser.add_argument("--workers", type=int, default=4,
                        help="pool width of the parallel passes (default "
                             "4 — explicit so single-CPU containers still "
                             "exercise the real pool)")
    parser.add_argument("--exec-tier", default=None,
                        choices=EXEC_TIERS + ("both", "all"),
                        metavar="TIER",
                        help="also run the execution smoke plan under this "
                             "device-engine tier; 'both' diffs compiled "
                             "against interp output (stdout, modeled time, "
                             "breakdown), 'all' adds the warp-vectorized "
                             "tier to the diff")
    parser.add_argument("--farm", action="store_true",
                        help="also build the portability matrix and the "
                             "corpus farm schedule twice from scratch and "
                             "require byte-identical rendered output")
    parser.add_argument("--debug", action="store_true",
                        help="also replay the scripted debugger smoke "
                             "sessions twice from scratch and require "
                             "byte-identical transcripts")
    parser.add_argument("--trace", action="store_true",
                        help="record the parallel passes with a tracer; "
                             "results must stay byte-identical to the "
                             "untraced serial pass")
    args = parser.parse_args(argv)

    from repro.harness.report import render_batch_stats
    from repro.harness.runner import corpus_jobs
    from repro.pipeline import translate_many

    tracer = None
    if args.trace:
        from repro.observability import Tracer
        tracer = Tracer("determinism-check")

    jobs = corpus_jobs()
    print(f"corpus: {len(jobs)} translation jobs"
          + (" [parallel passes traced]" if tracer else ""))

    t0 = time.perf_counter()
    serial = snapshot(translate_many(jobs, parallel=False))
    print(f"serial pass: {time.perf_counter() - t0:.2f}s")

    t0 = time.perf_counter()
    parallel = snapshot(translate_many(jobs, parallel=True,
                                       max_workers=args.workers,
                                       trace=tracer))
    print(f"parallel pass: {time.perf_counter() - t0:.2f}s")

    problems = diff_snapshots("serial", serial, "parallel", parallel)
    for i in range(args.runs - 1):
        rerun = snapshot(translate_many(jobs, parallel=False))
        problems += diff_snapshots("serial", serial,
                                   f"serial-rerun-{i + 2}", rerun)

    if args.fault_plan:
        plan = build_plan(args.fault_plan, jobs)
        print(f"fault plan: {plan.spec}")
        t0 = time.perf_counter()
        faulted_results = translate_many(
            jobs, parallel=True, max_workers=args.workers,
            timeout=args.timeout, retries=args.retries, fault_plan=plan,
            trace=tracer)
        print(f"fault-injected pass: {time.perf_counter() - t0:.2f}s")
        print(render_batch_stats(faulted_results))
        problems += check_fault_pass(serial, snapshot(faulted_results), plan)

    if args.exec_tier:
        problems += check_exec_tiers(args.exec_tier, args.runs)

    if args.farm:
        problems += check_farm(args.runs)

    if args.debug:
        problems += check_debug(args.runs)

    if tracer is not None:
        spans = tracer.export_spans()
        bad = sum(1 for s in spans
                  if s["end_ns"] is not None and s["end_ns"] < s["start_ns"])
        print(f"trace: {len(spans)} spans recorded, "
              f"{bad} with inverted timestamps")
        if not spans or bad:
            print("FAILED: traced pass produced a malformed span stream")
            problems += 1

    ok = sum(1 for v in serial.values() if v[0])
    print(f"{ok}/{len(jobs)} jobs translate; "
          f"{len(jobs) - ok} expected Table-3 failures")
    if problems:
        print(f"FAILED: {problems} divergence(s)")
        return 1
    print("OK: all passes agree byte-for-byte "
          "(outside injected fault targets)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
