"""Per-pass translator timings over the golden corpus.

Where does translation time actually go?  This bench runs both full
program pipelines (CUDA→OpenCL and OpenCL→CUDA) over every translatable
corpus app, folds the per-pass instrumentation the
:class:`~repro.translate.passes.PassManager` records, and writes the
result to ``benchmarks/BENCH_passes.json`` as the committed baseline.

CI regression gate::

    PYTHONPATH=src python benchmarks/bench_passes.py --smoke

re-measures and fails if any pass regresses more than ``RATIO``× its
recorded baseline (with an absolute noise floor, so micro-passes on a
noisy runner don't trip the gate).  Refresh the baseline after an
intentional perf change with::

    PYTHONPATH=src python benchmarks/bench_passes.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.apps.base import all_apps
from repro.harness.report import render_pass_stats
from repro.translate.api import (translate_cuda_program,
                                 translate_opencl_program)
from repro.translate.passes import PipelineStats, aggregate_stats

BASELINE_PATH = Path(__file__).parent / "BENCH_passes.json"

#: a pass fails the smoke gate when it exceeds RATIO x its baseline ...
RATIO = 3.0
#: ... and the excess is above this absolute floor (seconds, whole-corpus
#: aggregate) — sub-floor passes are treated as measurement noise.
NOISE_FLOOR_S = 0.05


def collect():
    """Translate the whole corpus through both directions; return
    ``{pipeline_name: PipelineStats}`` aggregates plus app counts."""
    c2o_runs, o2c_runs = [], []
    for app in all_apps():
        if app.cuda_translatable:
            prog = translate_cuda_program(app.cuda_source)
            c2o_runs.append(prog.pass_stats)
        if app.has_opencl:
            result = translate_opencl_program(app.opencl_kernels,
                                              app.opencl_host or "")
            o2c_runs.append(result.pass_stats)
    assert c2o_runs and o2c_runs
    assert all(s is not None for s in c2o_runs + o2c_runs)
    stats = {
        "cuda2ocl-program": aggregate_stats(c2o_runs, "cuda2ocl-program"),
        "ocl2cuda-program": aggregate_stats(o2c_runs, "ocl2cuda-program"),
    }
    counts = {"cuda2ocl": len(c2o_runs), "ocl2cuda": len(o2c_runs)}
    return stats, counts


def as_baseline(stats, counts):
    return {"unit": "seconds", "apps": counts,
            "pipelines": {name: s.as_dict() for name, s in stats.items()}}


# -- pytest entry ------------------------------------------------------------

def bench_per_pass_timings(benchmark):
    from conftest import regen
    stats, counts = regen(benchmark, collect)
    print()
    for name, agg in stats.items():
        print(render_pass_stats(agg, title=f"corpus per-pass timing"))
    # every registered pass of both directions shows up in the aggregate
    names_c2o = [p.name for p in stats["cuda2ocl-program"].passes]
    assert names_c2o[:2] == ["translatability-check", "annotate"]
    assert {"symbol-scan", "builtin-rename", "kernel-params",
            "emit-opencl", "host-rewrite", "emit-host"} <= set(names_c2o)
    names_o2c = [p.name for p in stats["ocl2cuda-program"].passes]
    assert names_o2c[0] == "translatability-check"
    assert {"parse", "vector-swizzle", "shared-constant-pack",
            "emit-cuda"} <= set(names_o2c)
    assert counts["cuda2ocl"] > 20 and counts["ocl2cuda"] > 20


# -- CLI: baseline writer + smoke gate ---------------------------------------

def _smoke(baseline, stats) -> int:
    failures = []
    for pipe_name, recorded in baseline["pipelines"].items():
        measured = stats.get(pipe_name)
        if measured is None:
            failures.append(f"{pipe_name}: pipeline missing from this run")
            continue
        for rec in recorded["passes"]:
            now = measured.by_name(rec["name"])
            if now is None:
                failures.append(f"{pipe_name}/{rec['name']}: pass vanished")
                continue
            limit = max(RATIO * rec["wall_s"], NOISE_FLOOR_S)
            flag = ""
            if now.wall_s > limit:
                flag = "  <-- REGRESSION"
                failures.append(
                    f"{pipe_name}/{rec['name']}: {now.wall_s:.4f}s vs "
                    f"baseline {rec['wall_s']:.4f}s "
                    f"(limit {limit:.4f}s = max({RATIO}x, "
                    f"{NOISE_FLOOR_S}s floor))")
            print(f"  {pipe_name:<18}{rec['name']:<24}"
                  f"{rec['wall_s'] * 1e3:>10.2f} ms ->"
                  f"{now.wall_s * 1e3:>10.2f} ms{flag}")
    if failures:
        print("\nper-pass smoke gate FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nper-pass smoke gate passed "
          f"(threshold {RATIO}x baseline, floor {NOISE_FLOOR_S}s)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="compare against the committed baseline instead "
                         "of rewriting it; non-zero exit on regression")
    ap.add_argument("--out", type=Path, default=BASELINE_PATH,
                    help="baseline path (default: benchmarks/BENCH_passes.json)")
    args = ap.parse_args(argv)

    stats, counts = collect()
    for agg in stats.values():
        print(render_pass_stats(agg, title="corpus per-pass timing"))

    if args.smoke:
        if not args.out.exists():
            print(f"no baseline at {args.out}; run without --smoke first")
            return 2
        return _smoke(json.loads(args.out.read_text()), stats)

    args.out.write_text(json.dumps(as_baseline(stats, counts), indent=2)
                        + "\n")
    print(f"baseline written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
