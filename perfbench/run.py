"""The repository's benchmark: whole-corpus app runs, cold translation and
the translation service, each with a layer-attributed traced run.

    python3 perfbench/run.py --workload corpus|translate|serve \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Prints every metric by name and
unit, then, as the last line, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  README.md
describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repo
from layers import API_FAMILY
from oracle import MODES

HERE = Path(__file__).resolve().parent

#: ``setup_s`` is the median over this many set-ups in fresh processes
SETUP_PROBES = 3
#: longest one set-up may take
PROBE_TIMEOUT_S = 150.0

API_FAMILIES = tuple(API_FAMILY[m] for m in MODES)
MODELED_CATEGORIES = ("api", "build", "kernel", "transfer")
TIERS = ("vector", "compiled", "interp")
#: every pass the two translation pipelines register, in pipeline order
PASS_NAMES = (
    "translatability-check", "parse", "annotate", "symbol-scan",
    "template-specialize", "reference-lower", "untranslatable-check",
    "dyn-shared-extract", "builtin-rename", "texture-image",
    "cxx-cast-lower", "vector-narrow", "kernel-params", "rebuild-unit",
    "address-space-infer", "emit-opencl", "host-rewrite", "emit-host",
    "clone-unit", "wide-vector-scan", "vector-swizzle", "qualifier-map",
    "shared-constant-pack", "emit-cuda")

#: (name, unit) of the end-to-end metrics, reported with ``--trace 0``
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit, better) of the per-layer metrics, reported with
#: ``--trace 1``; a layer that does no work in a workload reports 0
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    *((f"harness.run_s.{m}", "s", "lower") for m in MODES),
    ("clike.parse.calls", "count", "lower"),
    ("clike.parse.s", "s", "lower"),
    ("clike.parse.bytes_per_s", "B/s", "higher"),
    ("host.self_s", "s", "lower"),
    ("host.share", "ratio", "lower"),
    ("translate.cuda2ocl.s", "s", "lower"),
    ("translate.ocl2cuda.s", "s", "lower"),
    *((name, unit, "lower") for p in PASS_NAMES
      for name, unit in ((f"pass.{p}.s", "s"),
                         (f"pass.{p}.rewrites", "count"))),
    *((name, unit, "lower") for f in API_FAMILIES
      for name, unit in ((f"api.{f}.calls", "count"), (f"api.{f}.s", "s"))),
    ("api.xfer.s", "s", "lower"),
    ("api.xfer.bytes", "B", "lower"),
    ("engine.load_module.calls", "count", "lower"),
    ("engine.load_module.s", "s", "lower"),
    ("engine.codegen.hit_ratio", "ratio", "higher"),
    ("engine.launch.calls", "count", "lower"),
    ("engine.launch.s", "s", "lower"),
    ("engine.work_items_per_s", "1/s", "higher"),
    ("engine.tier_share.vector", "ratio", "higher"),
    ("engine.tier_share.compiled", "ratio", "lower"),
    ("engine.tier_share.interp", "ratio", "lower"),
    *((f"modeled.{c}_s", "s", "lower") for c in MODELED_CATEGORIES),
    ("host_s_per_modeled_s", "ratio", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.puts", "count", "lower"),
    ("cache.evictions", "count", "lower"),
    ("service.queue_wait_ms_p99", "ms", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.pool_recycles", "count", "lower"),
    ("loadgen.lag_ms_p99", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("failed_share", "ratio", "lower"),
    ("latency_ms_p99", "ms", "lower"),
)

Metrics = Dict[str, Tuple[float, str]]


def probe_setup(workload: str) -> float:
    """Seconds from starting a fresh process until it is ready for its
    first timed op: imports, corpus load, service start and warm-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{workload} set-up failed in a fresh process")
    return elapsed


def _codegen_counts() -> Tuple[int, int]:
    from repro.observability import get_metrics
    m = get_metrics()
    return (m.counter("engine.compile.cache_hit").value,
            m.counter("engine.compile.cache_miss").value)


def end_to_end(wl: Any, seed: int, seconds: float, setup_s: float
               ) -> Tuple[bool, List[Any], Metrics]:
    plain = wl.measure(seed, seconds)
    tally = plain.tally
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": setup_s, "ops_per_s": plain.ops_per_s,
              "latency_ms_p50": tally.latency_ms(50),
              "latency_ms_p90": tally.latency_ms(90),
              "peak_rss_mb": rss_mb}
    correct = tally.wrong == 0 and plain.modeled == wl.reference_modeled()
    return correct, [tally], {n: (values[n], u) for n, u in END_TO_END}


def per_layer(wl: Any, seed: int, seconds: float
              ) -> Tuple[bool, List[Any], Metrics]:
    """Four passes of ``seconds / 2``, untraced, traced, traced, untraced;
    per-layer numbers come from the first traced pass (see ``layers``).

    A process speeds up over its first passes (a corpus sweep by ~5% a
    sweep), so the tracing overhead compares the two traced passes with
    the two untraced ones around them, which cancels a steady drift.
    """
    from layers import LayerTracer
    seconds /= 2
    plain = wl.measure(seed, seconds)
    tr = LayerTracer()
    hits0, misses0 = _codegen_counts()
    traced = wl.measure(seed, seconds, tracer=tr)
    hits, misses = (a - b for a, b in zip(_codegen_counts(),
                                           (hits0, misses0)))
    traced2 = wl.measure(seed, seconds, tracer=LayerTracer())
    plain2 = wl.measure(seed, seconds)
    passes = [plain, traced, traced2, plain2]
    values: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    op_s = tr.op_wall_s()

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    for mode in MODES:
        values[f"harness.run_s.{mode}"] = tr.total_s[f"op.{mode}"]
    for layer in ("clike.parse", "engine.load_module", "engine.launch"):
        values[f"{layer}.calls"] = tr.calls[layer]
        values[f"{layer}.s"] = tr.self_s[layer]
    for family in API_FAMILIES:
        values[f"api.{family}.calls"] = tr.calls[f"api.{family}"]
        values[f"api.{family}.s"] = tr.self_s[f"api.{family}"]
    for direction in ("cuda2ocl", "ocl2cuda"):
        values[f"translate.{direction}.s"] = tr.self_s[
            f"translate.{direction}"]
    for key, value in tr.counts.items():
        if key in values:               # pass.*, api.xfer.s
            values[key] = value
    launches = tr.calls["engine.launch"]
    values.update({
        "clike.parse.bytes_per_s": ratio(tr.counts["clike.parse.bytes"],
                                         tr.self_s["clike.parse"]),
        "host.self_s": tr.self_s["host"],
        "host.share": ratio(tr.self_s["host"], op_s),
        "engine.codegen.hit_ratio": ratio(hits, hits + misses),
        "engine.work_items_per_s": ratio(tr.counts["engine.work_items"],
                                         tr.self_s["engine.launch"]),
        "trace.overhead_share":
            (plain.ops_per_s + plain2.ops_per_s)
            / (traced.ops_per_s + traced2.ops_per_s) - 1.0,
        "trace.unattributed_share": ratio(tr.op_self_s(), op_s),
        "failed_share": plain.tally.failed_share,
        "latency_ms_p99": plain.tally.latency_ms(99) or 0.0,
    })
    for tier in TIERS:
        values[f"engine.tier_share.{tier}"] = ratio(
            tr.counts[f"engine.tier.{tier}"], launches)
    for cat in MODELED_CATEGORIES:
        values[f"modeled.{cat}_s"] = plain.modeled.get(cat, 0.0)
    values.update(traced.layers)
    # a wall-clock ratio: from the untraced pass
    values["host_s_per_modeled_s"] = plain.layers.get(
        "host_s_per_modeled_s", 0.0)
    # tracing must leave every modeled result alone
    reference = wl.reference_modeled()
    correct = all(p.tally.wrong == 0 and p.modeled == reference
                  for p in passes)
    return correct, [p.tally for p in passes], {
        n: (values[n], u) for n, u, _ in PER_LAYER}


def _json_number(value: Optional[float]) -> float:
    """Numbers JSON can carry: a percentile too thin to report, or one
    that a failed op made infinite, reads as the largest float."""
    if value is None or not math.isfinite(value):
        return sys.float_info.max
    return value


def report(correct: bool, tallies: Sequence[Any], metrics: Metrics) -> None:
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<38} {shown:>14} {unit}")
    for tally in tallies:
        for reason in tally.reasons:
            print(f"  failed: {reason}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": _json_number(value), "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("corpus", "translate", "serve"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        repo.bootstrap()
    except repo.MissingProgram as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        wl = cls()
        print("ready", flush=True)
        wl.close()
        return 0
    setup_s = 0.0
    if not args.trace:
        setup_s = statistics.median(
            probe_setup(args.workload) for _ in range(SETUP_PROBES))
    wl = cls()
    try:
        if args.trace:
            outcome = per_layer(wl, args.seed, args.seconds)
        else:
            outcome = end_to_end(wl, args.seed, args.seconds, setup_s)
    finally:
        wl.close()
    report(*outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
