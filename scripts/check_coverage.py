#!/usr/bin/env python
"""Coverage gate: the suite must keep covering what it covers today.

Two rules, checked against ``benchmarks/COVERAGE_baseline.json``:

1. overall ``src/repro`` line coverage must not drop more than
   ``tolerance`` points below the committed baseline;
2. the ``repro.observability`` package must stay at 100% — it is pure
   instrumentation plumbing, every branch of which is reachable from
   tests, and an uncovered branch there is exactly where a tracing bug
   would hide;
3. modules listed under ``module_floors`` (currently
   ``repro.clike.compile`` and ``repro.clike.vectorize`` — the two code
   generators behind the generated execution tiers, whose uncovered
   branches are exactly where a tier divergence would hide —
   ``repro.device.sched``, the warp-scheduler execution core every
   tier drives through, ``repro.debug.session``, the debugger
   drive loop whose uncovered branches are exactly where a stop would
   perturb the run, and ``repro.clike.lexer``, the front end every
   run, translation and service request starts in, whose error
   branches are where a crash instead of a located ``LexError`` would
   hide) must each stay within ``tolerance`` points of their recorded
   per-module coverage.

Backends, in order of preference:

* **coverage.py** (installed by CI via ``pip install -e .[dev]``, which
  pulls ``pytest-cov``): the full suite runs under ``coverage run -m
  pytest`` and both rules are enforced::

      PYTHONPATH=src python scripts/check_coverage.py

* **builtin fallback** (no third-party modules, for containers that
  cannot pip install): a ``sys.settrace`` hook scoped to
  ``src/repro/observability`` runs ``tests/observability`` in-process
  and enforces rule 2 only; rule 1 is skipped with a notice.  Forced
  with ``--builtin``.

``--update`` re-measures with coverage.py and rewrites the baseline
(refresh it when tests are intentionally added or removed).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BASELINE_PATH = REPO / "benchmarks" / "COVERAGE_baseline.json"
OBS_DIR = REPO / "src" / "repro" / "observability"

#: allowed drop (percentage points) below the committed overall baseline
#: — coverage.py and the builtin tracer disagree slightly on executable
#: lines, and runners skip environment-dependent tests
TOLERANCE = 2.0

#: modules with an individual coverage floor (rule 3), as repo-relative
#: paths; enforced under the coverage.py backend only
MODULE_FLOOR_FILES = ("src/repro/clike/compile.py",
                      "src/repro/clike/lexer.py",
                      "src/repro/clike/vectorize.py",
                      "src/repro/device/sched.py",
                      "src/repro/debug/session.py")


# ---------------------------------------------------------------------------
# coverage.py backend (CI)
# ---------------------------------------------------------------------------

def run_coverage_backend(tests: str):
    """(overall_percent, {observability_file: missing_lines},
    {floored_module: percent})."""
    with tempfile.TemporaryDirectory() as td:
        data_file = os.path.join(td, ".coverage")
        json_file = os.path.join(td, "coverage.json")
        env = dict(os.environ, COVERAGE_FILE=data_file,
                   PYTHONPATH=str(REPO / "src"))
        run = [sys.executable, "-m", "coverage", "run",
               "--source", str(REPO / "src" / "repro"),
               "-m", "pytest", "-q", "-x", tests]
        proc = subprocess.run(run, cwd=REPO, env=env)
        if proc.returncode != 0:
            print("FAILED: the test run itself failed under coverage")
            return None
        subprocess.run([sys.executable, "-m", "coverage", "json",
                        "-o", json_file], cwd=REPO, env=env, check=True,
                       capture_output=True)
        data = json.loads(Path(json_file).read_text())
    percent = data["totals"]["percent_covered"]
    obs_missing = {}
    module_percents = {}
    floored = {(REPO / rel).resolve(): rel for rel in MODULE_FLOOR_FILES}
    for fname, info in data["files"].items():
        path = Path(fname)
        if not path.is_absolute():
            path = REPO / path
        path = path.resolve()
        rel = floored.get(path)
        if rel is not None:
            module_percents[rel] = info["summary"]["percent_covered"]
        try:
            path.relative_to(OBS_DIR)
        except ValueError:
            continue
        obs_missing[path.name] = info["missing_lines"]
    return percent, obs_missing, module_percents


# ---------------------------------------------------------------------------
# builtin fallback (no third-party deps): observability package only
# ---------------------------------------------------------------------------

def _excluded_lines(path: Path) -> set:
    """Lines coverage.py would exclude: ``pragma: no cover`` markers and
    the whole body of a def/class whose header carries one."""
    src = path.read_text(encoding="utf-8")
    lines = src.splitlines()
    excluded = {i + 1 for i, line in enumerate(lines)
                if "pragma: no cover" in line}
    tree = ast.parse(src)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if "pragma: no cover" in lines[node.lineno - 1]:
                excluded.update(range(node.lineno, node.end_lineno + 1))
    return excluded


def run_builtin_backend(tests: str = "tests/observability"):
    """Measure ``repro.observability`` line coverage with ``sys.settrace``
    scoped to the package (other frames pay one call-event check)."""
    import trace as trace_mod

    import pytest

    obs_prefix = str(OBS_DIR) + os.sep
    hits = set()

    def local_trace(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local_trace

    def global_trace(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(
                obs_prefix):
            return local_trace
        return None

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        rc = pytest.main(["-q", "-x", str(REPO / tests),
                          "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if rc != 0:
        print("FAILED: the observability test run itself failed")
        return None

    obs_missing = {}
    for path in sorted(OBS_DIR.glob("*.py")):
        executable = {line for line in
                      trace_mod._find_executable_linenos(str(path))
                      if line > 0}
        excluded = _excluded_lines(path)
        hit = {line for fname, line in hits if fname == str(path)}
        missing = sorted(executable - excluded - hit)
        obs_missing[path.name] = missing
    return None, obs_missing, {}


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def gate_observability(obs_missing) -> int:
    problems = 0
    for name, missing in sorted(obs_missing.items()):
        if missing:
            problems += 1
            shown = ", ".join(map(str, missing[:20]))
            print(f"FAILED: repro/observability/{name} not fully covered "
                  f"— missing lines {shown}")
        else:
            print(f"  repro/observability/{name}: 100%")
    return problems


def gate_module_floors(module_percents, baseline) -> int:
    problems = 0
    tol = baseline.get("tolerance", TOLERANCE)
    for rel, recorded in sorted(baseline.get("module_floors", {}).items()):
        measured = module_percents.get(rel)
        if measured is None:
            print(f"FAILED: floored module {rel} missing from the "
                  f"coverage report")
            problems += 1
            continue
        floor = recorded - tol
        print(f"  {rel}: {measured:.2f}% "
              f"(recorded {recorded:.2f}%, floor {floor:.2f}%)")
        if measured < floor:
            print(f"FAILED: {rel} coverage dropped below its floor")
            problems += 1
    return problems


def gate_overall(percent, baseline) -> int:
    floor = baseline["percent_covered"] - baseline.get("tolerance",
                                                       TOLERANCE)
    print(f"  overall src/repro: {percent:.2f}% "
          f"(baseline {baseline['percent_covered']:.2f}%, "
          f"floor {floor:.2f}%)")
    if percent < floor:
        print(f"FAILED: overall coverage dropped below the seed baseline")
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tests", default="tests",
                    help="test path for the coverage.py backend "
                         "(default: tests)")
    ap.add_argument("--builtin", action="store_true",
                    help="force the dependency-free backend "
                         "(observability-only gate)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite benchmarks/COVERAGE_baseline.json from "
                         "this run (coverage.py backend only)")
    args = ap.parse_args(argv)

    have_coverage = False
    if not args.builtin:
        try:
            import coverage  # noqa: F401
            have_coverage = True
        except ImportError:
            print("coverage.py not installed — falling back to the "
                  "builtin backend (observability gate only; install "
                  "pytest-cov for the full gate)")

    if have_coverage:
        measured = run_coverage_backend(args.tests)
    else:
        measured = run_builtin_backend()
    if measured is None:
        return 1
    percent, obs_missing, module_percents = measured

    problems = gate_observability(obs_missing)

    if percent is not None:
        if args.update:
            BASELINE_PATH.write_text(json.dumps(
                {"percent_covered": round(percent, 2),
                 "tolerance": TOLERANCE,
                 "module_floors": {rel: round(p, 2) for rel, p
                                   in sorted(module_percents.items())},
                 "note": "overall line coverage of src/repro under the "
                         "full suite; refresh with "
                         "scripts/check_coverage.py --update"},
                indent=2) + "\n")
            print(f"baseline written to {BASELINE_PATH}")
        elif BASELINE_PATH.exists():
            baseline = json.loads(BASELINE_PATH.read_text())
            problems += gate_overall(percent, baseline)
            problems += gate_module_floors(module_percents, baseline)
        else:
            print(f"no baseline at {BASELINE_PATH}; run --update to "
                  f"create it")
            problems += 1
    else:
        print("  overall src/repro: skipped (builtin backend covers the "
              "observability package only; module floors skipped too)")

    if problems:
        print(f"\ncoverage gate FAILED ({problems} problem(s))")
        return 1
    print("\ncoverage gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
